"""Digest of the census outputs and of every model's embeddings and pair
lists, for comparing two trees.

    PYTHONPATH=src python tools/pair_digest.py > digest.txt

Run from the repository root on each tree and diff the outputs: a change
that reorders floating-point work must leave every pair list unchanged
(ROADMAP aim 3), while its embedding hashes may move; census output is
exact and never moves. First, one line per census output:

  census <dataset> <output> <count> <sha256>
      `wl_census` (its 1-WL and 2-FWL pairs), then `lambda_census` (its
      1-WL and equal-lambda-max pairs), then `degree_multiset_pairs`, run
      in that order on each of the loaded graph8c and sr25 datasets and on
      graph8c-shuffled, a plain list of graph8c in a seed-7 shuffled
      order: the pair count and the sha256 of the pairs the output holds
      (a report keeps its first 1000), as int64 (i, j) rows in order.
  census <dataset> rung:<name> <count> <sha256>
      then, on the same dataset, every key rung of `harness.CENSUS`
      (`1-WL@1` .. `1-WL@5`, `1-WL`, `2-FWL`) through the census
      evaluator, after its base rung: the pair count and the sha256 of
      every pair, as int64 (i, j) rows in the order returned.

Then, for each model kind, one line each:

  embed <dataset> seed=<s> <sha256>
      sha256 of `DatasetBatch(spec, graphs).embed_all(s)` on graph8c and
      sr25 at seeds 7 and 0;
  subset <dataset> seed=<s> <sha256>
      the same for `DatasetBatch(spec, graphs).subset(idx).embed_all(s)`,
      idx a seed-29 shuffled choice of 500 graph8c or 7 sr25 graphs: the
      gather of every tile field from the built batch;
  pairs <dataset> <base>x<runs> <count> <sha256>
      `undistinguished_pairs` at threshold 1e-3 and `run_seeds(base, runs)`
      for (7, 3), (7, 100) and (0, 100): the pair count and the sha256 of
      the list, as int64 (i, j) rows in order.

stdout holds only these lines. Each sweep's wall time goes to stderr, so
that the digests of two trees diff cleanly.
"""

from __future__ import annotations

import hashlib
import operator
import sys
import time
from pathlib import Path

import numpy as np

from matgraph.graphcore import load_dataset
from matgraph.harness import (
    CENSUS,
    _census,
    degree_multiset_pairs,
    lambda_census,
    undistinguished_pairs,
    wl_census,
)
from matgraph.models import MODEL_KINDS, DatasetBatch, ModelSpec, run_seeds

DATA = Path(__file__).resolve().parent.parent / "data"
DATASETS = ("graph8c", "sr25")
EMBED_SEEDS = (7, 0)
SUBSET_SIZES = {"graph8c": 500, "sr25": 7}
SWEEPS = ((7, 3), (7, 100), (0, 100))
THRESHOLD = 1e-3


def sha(a: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()


def rows(pairs) -> np.ndarray:
    return np.array(pairs, dtype=np.int64).reshape(-1, 2)


def census_lines(name: str, graphs) -> None:
    """The census outputs on one dataset, in the order that shares its memo."""
    for report in (wl_census(graphs), lambda_census(graphs)):
        for method, count in report.counts.items():
            print(f"census {name} {report.kind}:{method} {count} "
                  f"{sha(rows(report.pairs[method]))}")
    pairs = degree_multiset_pairs(graphs)
    print(f"census {name} degree_multiset_pairs {len(pairs)} {sha(rows(pairs))}")
    for rung, (base, _, keep) in CENSUS.items():
        if keep is operator.eq:
            pairs = _census(graphs, (rung,) if base is None else (base, rung))[rung]
            print(f"census {name} rung:{rung} {len(pairs)} {sha(rows(pairs))}")


def main() -> None:
    data = {name: load_dataset(str(DATA / f"{name}.g6")) for name in DATASETS}
    graph8c = data["graph8c"]
    shuffled = [graph8c[i] for i in np.random.default_rng(7).permutation(len(graph8c))]
    for name, graphs in (*data.items(), ("graph8c-shuffled", shuffled)):
        census_lines(name, graphs)
    for kind in MODEL_KINDS:
        spec = ModelSpec(kind)
        for name, graphs in data.items():
            batch = DatasetBatch(spec, graphs)
            for seed in EMBED_SEEDS:
                print(f"{kind} embed {name} seed={seed} {sha(batch.embed_all(seed))}")
            idx = np.random.default_rng(29).permutation(len(graphs))[:SUBSET_SIZES[name]]
            subset = batch.subset(idx)
            for seed in EMBED_SEEDS:
                print(f"{kind} subset {name} seed={seed} {sha(subset.embed_all(seed))}")
        for name, graphs in data.items():
            for base, runs in SWEEPS:
                start = time.perf_counter()
                pairs = undistinguished_pairs(spec, graphs, run_seeds(base, runs), THRESHOLD)
                took = time.perf_counter() - start
                print(f"{kind} pairs {name} {base}x{runs} {len(pairs)} {sha(rows(pairs))}",
                      flush=True)
                print(f"{kind} {name} {base}x{runs}: {took:.3f} s", file=sys.stderr)


if __name__ == "__main__":
    main()
