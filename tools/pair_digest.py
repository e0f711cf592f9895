"""Digest of every model's embeddings and pair lists, for comparing two trees.

    PYTHONPATH=src python tools/pair_digest.py > digest.txt

Run from the repository root on each tree and diff the outputs: a change
that reorders floating-point work must leave every pair list unchanged
(ROADMAP aim 3), while its embedding hashes may move. For each model
kind it prints, one line each:

  embed <dataset> seed=<s> <sha256>
      sha256 of `DatasetBatch(spec, graphs).embed_all(s)` on graph8c and
      sr25 at seeds 7 and 0;
  pairs <dataset> <base>x<runs> <count> <sha256>
      `undistinguished_pairs` at threshold 1e-3 and `run_seeds(base, runs)`
      for (7, 3), (7, 100) and (0, 100): the pair count and the sha256 of
      the list, as int64 (i, j) rows in order.

stdout holds only these lines. Each sweep's wall time goes to stderr, so
that the digests of two trees diff cleanly.
"""

from __future__ import annotations

import hashlib
import sys
import time
from pathlib import Path

import numpy as np

from matgraph.graphcore import load_dataset
from matgraph.harness import undistinguished_pairs
from matgraph.models import MODEL_KINDS, DatasetBatch, ModelSpec, run_seeds

DATA = Path(__file__).resolve().parent.parent / "data"
DATASETS = ("graph8c", "sr25")
EMBED_SEEDS = (7, 0)
SWEEPS = ((7, 3), (7, 100), (0, 100))
THRESHOLD = 1e-3


def sha(a: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()


def main() -> None:
    data = {name: load_dataset(str(DATA / f"{name}.g6")) for name in DATASETS}
    for kind in MODEL_KINDS:
        spec = ModelSpec(kind)
        for name, graphs in data.items():
            batch = DatasetBatch(spec, graphs)
            for seed in EMBED_SEEDS:
                print(f"{kind} embed {name} seed={seed} {sha(batch.embed_all(seed))}")
        for name, graphs in data.items():
            for base, runs in SWEEPS:
                start = time.perf_counter()
                pairs = undistinguished_pairs(spec, graphs, run_seeds(base, runs), THRESHOLD)
                took = time.perf_counter() - start
                rows = np.array(pairs, dtype=np.int64).reshape(-1, 2)
                print(f"{kind} pairs {name} {base}x{runs} {len(pairs)} {sha(rows)}", flush=True)
                print(f"{kind} {name} {base}x{runs}: {took:.3f} s", file=sys.stderr)


if __name__ == "__main__":
    main()
