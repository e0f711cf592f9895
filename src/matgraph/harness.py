"""Dataset-scale experiments: exact pair censuses, random-weight
distinguishability runs, and the golden pair suite. The censuses are the
rungs of one table, `CENSUS`: a rung buckets every graph by a value, or
splits a coarser rung's pairs by a value of only the graphs in them.
Adding a rung is adding an entry.

Every entry point takes a `graphcore.Dataset` or a plain list of graphs.
A key rung's values are the class labels of a `wl.signatures` row, one
int64 per graph, so a key rung is a partition of the graphs. The base
rungs, `1-WL@1` .. `1-WL@5` and `1-WL`, are rows of one 1-WL ladder,
which a dataset's memo keeps with the depth it was refined to. A census
refines it once, down to its deepest base rung, and a later request
reads a row unless it goes deeper. So the censuses run one after another
on one loaded dataset refine 1-WL once: `lambda_census` after
`wl_census` reads its ladder, and `distinguishability_run` counts the
degree-multiset pairs as the sum of C(k, 2) over the `np.bincount` of
row 1, listing none. A list is wrapped in a `Dataset` for the ladder and
freed once it is refined (a `Dataset` kept around it through the pair
listing and the scans raised table1's in-process peak RSS by 5-7 MB). A
splitting rung keys only its base's paired graphs, a list of them that
it stacks anew; the settling of bounded pairs (below) refines its
graphs' adjacency from the batch's tiles.

The distinguishability engine avoids the full O(N^2) distance pass: in
the first run, candidate near-duplicate pairs are found by sorting the
embeddings on one key and scanning a window, keeping the window's pairs
that are also within the window of a second key. The keys are the
coordinates (an L1 ball of radius t projects to an interval of width t on
every axis) and the sign projection emb @ sign(v), v the first principal
axis of the embeddings, which spreads the rows along their main
direction: |sum_k s_k d_k| <= sum_k |d_k|, so it too maps the ball into
an interval of width t, widened by a bound on the projection's rounding
error. The two keys with the fewest in-window pairs are used, and an
exact float distance decides every pair. Later runs only re-check the
surviving candidates, so work shrinks monotonically. A pair counts as
undistinguished iff its Manhattan distance stays at or below the
threshold in every run. The survivors stay one (P, 2) integer array
until the final sorted list of tuples is made. A graph's embedding does
not depend on the batch that holds it, so shrinking the batch between
runs changes no distance. `DatasetBatch.subset` gathers the kept graphs'
adjacency, supports and key rows from the built tiles, so before each
later run the batch shrinks to the graphs of the pairs still unsettled,
and the run embeds only those. Once
no pair is left, no further run is embedded.

Pairs that a model's WL bound keeps settle after run 0. A kind of
`models.MODELS` declares as its `bound` a key rung of CENSUS whose equal
labels give equal embeddings, so their computed distance
is rounding in every run: `1-WL@k` (k rounds of 1-WL) for a message-passing
model of k - 1 layers (Morris et al., arXiv 1810.02244), and `2-FWL` for
Chebnet and GNNML3. 2-FWL-equivalent graphs are cospectral and agree on
every L3 sentence (Geerts, ICDT 2019; Maron et al., arXiv 1905.11136), and
these two go past 1-WL only through such spectral terms. When more runs
follow, run 0's near candidates, within NEAR_EPS = 64 eps times the sum of
their rows' L1 norms, have their graphs keyed by one `wl.ladder` call on
their bool adjacency, gathered from the batch's tiles one stack per order
and refined to the bound's depth, and the near pairs of equal labels go
straight into the result. The cut only picks the graphs to key; label
equality decides. Every pair of equal labels among the keyed graphs must
be near, or run 0 raises naming the kind, so the bound is checked on each
dataset rather than assumed. Nothing settles when a near cut could exceed the threshold.
Later runs re-check only the unsettled pairs, each with its own graphs'
embeddings, so the batch shrinks to their graphs; when every pair
settles, as on sr25 for every kind, no later run is embedded. The scan's
distances are kept for the near cut, so no run-0 distance is computed
twice. The returned tuples share one Python int per graph index, taken
from an object array of range(N), instead of holding two new ints each:
graph8c's 293364 MLP pairs hold 19.4 MB instead of 37.6 MB (tracemalloc).
"""

from __future__ import annotations

import json
import math
import operator
from collections import defaultdict
from dataclasses import dataclass, field, fields
from itertools import combinations, groupby
from typing import Sequence

import numpy as np

from matgraph import appendix_data
from matgraph.graphcore import DATASET_FORMATS, Dataset, Graph, laplacian, load_dataset
from matgraph.graphlets import custom_sentence
from matgraph.matlang import eval_sentence, parse
from matgraph.models import (
    MODEL_KINDS,
    MODELS,
    DatasetBatch,
    ModelSpec,
    run_seeds,
    static_supports,
)
from matgraph.spectral import eig_sym
from matgraph.wl import (
    fwl2_equivalent,
    fwl3_tensor_statistic,
    ladder,
    signatures,
    wl1_equivalent,
    wl2_equivalent,
)

def parse_models(raw: str) -> tuple[str, ...]:
    """Model kinds of a comma-separated list; blank entries are dropped."""
    return tuple(m.strip() for m in raw.split(",") if m.strip())


# config-file key -> parser of its raw text; other keys stay text
_CONFIG_PARSERS = {"runs": int, "base_seed": int, "threshold": float, "models": parse_models}


def _validate(key: str, value) -> None:
    """Raise ValueError when `value` is not a valid ExperimentConfig `key`."""
    if key == "format" and value not in DATASET_FORMATS:
        raise ValueError(f"unknown dataset format: {value!r}")
    if key == "runs" and value < 1:
        raise ValueError("runs must be >= 1")
    if key == "base_seed" and value < 0:
        raise ValueError("base_seed must be >= 0")
    if key == "models":
        if not value:
            raise ValueError("at least one model kind required")
        for i, m in enumerate(value):
            if m not in MODEL_KINDS:
                raise ValueError(f"unknown model kind {m!r}")
            if m in value[:i]:
                raise ValueError(f"model kind {m!r} is repeated")
    if key == "threshold" and not (math.isfinite(value) and value > 0):
        raise ValueError("threshold must be finite and > 0")
    if key == "output_format" and value not in ("text", "json", "csv"):
        raise ValueError(f"unknown output format {value!r}")


@dataclass(frozen=True)
class ExperimentConfig:
    dataset: str
    format: str = "graph6"
    models: tuple[str, ...] = MODEL_KINDS
    runs: int = 100
    threshold: float = 1e-3
    base_seed: int = 0
    output_format: str = "text"

    def __post_init__(self):
        for f in fields(self):
            _validate(f.name, getattr(self, f.name))

    @classmethod
    def from_file(cls, path: str, **overrides) -> "ExperimentConfig":
        """Key-value text config: one `key = value` per line, # comments.
        `overrides` take precedence over the file's values. `dataset` is
        not a key: it comes from `overrides`. The file is UTF-8 whatever the
        locale. An unknown or repeated key, a line that is not UTF-8, or a
        value that does not parse or is not valid, raises naming its file
        and line."""
        known = {f.name for f in fields(cls)} - {"dataset"}
        values: dict = {}
        linenos: dict[str, int] = {}  # key -> the line that set it
        with open(path, "rb") as f:
            # lines end at \n, \r\n or \r, as in text mode; each is decoded
            # on its own, so a decoding error names its line
            for lineno, data in enumerate(f.read().splitlines(), start=1):
                try:
                    line = data.decode("utf-8")
                except UnicodeDecodeError as e:
                    raise ValueError(f"{path}:{lineno}: {e}") from e
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                key, eq, raw = line.partition("=")
                if not eq:
                    raise ValueError(f"{path}:{lineno}: expected 'key = value'")
                key, raw = key.strip(), raw.strip()
                if key not in known:
                    raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
                if key in linenos:
                    raise ValueError(f"{path}:{lineno}: config key {key!r} repeats "
                                     f"line {linenos[key]}")
                linenos[key] = lineno
                try:
                    values[key] = _CONFIG_PARSERS.get(key, str)(raw)
                    _validate(key, values[key])
                except ValueError as e:
                    raise ValueError(f"{path}:{lineno}: {e}") from e
        values.update(overrides)
        return cls(**values)


@dataclass
class PairReport:
    kind: str
    graph_count: int
    pair_count: int
    counts: dict[str, int] = field(default_factory=dict)
    pairs: dict[str, list[tuple[int, int]]] = field(default_factory=dict)
    extras: dict = field(default_factory=dict)
    PAIR_LIST_CAP = 1000

    @classmethod
    def of_graphs(cls, kind: str, graphs: list, pairs: dict | None = None) -> "PairReport":
        n = len(graphs)
        report = cls(kind=kind, graph_count=n, pair_count=n * (n - 1) // 2)
        for method, p in (pairs or {}).items():
            report.record(method, p)
        return report

    def record(self, method: str, pairs: list[tuple[int, int]]):
        if len(pairs) > self.pair_count:
            raise ValueError("more pairs than C(graph_count, 2)")
        self.counts[method] = len(pairs)
        self.pairs[method] = sorted(pairs)[: self.PAIR_LIST_CAP]


def _lambda_max(graphs: Sequence[Graph]) -> np.ndarray:
    """Normalized-Laplacian lambda-max of each graph, one eig_sym per order."""
    lam = np.empty(len(graphs))
    for pos, A in Dataset.of(graphs).stacks:
        lam[pos] = eig_sym(laplacian(A)).lam[:, -1]
    return lam


# rung -> (the rung it splits, or None; a key rung's `signatures` test and
# rounds (math.inf: stable), whose labels its values are, or a function
# from a list of graphs to one value each; the test two values pass to
# keep their pair). A base rung is a 1-WL rung: a row of the dataset's
# 1-WL ladder. The rungs look `signatures` and `eig_sym` up when called,
# so a wrapper put on those names sees each call.
CENSUS = {
    # 1-WL cut off after k rounds: the bound of a (k - 1)-layer model
    # (models.MODELS); 1-WL@1 compares degree multisets
    **{f"1-WL@{k}": (None, ("WL1", k), operator.eq) for k in range(1, 6)},
    "1-WL": (None, ("WL1", math.inf), operator.eq),
    # its keys alone are complete; the bound of Chebnet and GNNML3
    "2-FWL": ("1-WL", ("FWL2", math.inf), operator.eq),
    # within 1e-6 is not transitive: it splits pairs but cannot be a key
    "equal-lambda-max": ("1-WL", _lambda_max, lambda a, b: abs(a - b) <= 1e-6),
}


def _wl1_ladder(dataset: Dataset, rounds: float) -> np.ndarray:
    """The dataset's 1-WL ladder, read-only, reaching round `rounds`
    (math.inf: stable), whose row min(k, R) is the `1-WL@k` rung for any
    k up to `rounds`. The dataset's memo keeps it with the depth it
    reaches; a request that goes deeper refines once more, to its own
    depth, and the new ladder takes the old one's place. A ladder that
    stops short of its depth is stable, so it reaches every depth."""
    if dataset.memo.get("1-WL", (-1,))[0] < rounds:
        rows = signatures(dataset, "WL1", rounds)
        rows.setflags(write=False)
        dataset.memo["1-WL"] = (math.inf if len(rows) <= rounds else rounds), rows
    return dataset.memo["1-WL"][1]


def _census(graphs: Sequence[Graph], rungs) -> dict[str, list[tuple[int, int]]]:
    """Every pair of each of `rungs`, which lists a base before the rungs
    that split it. The 1-WL ladder is read, through a dataset's memo,
    down to the deepest base rung, so every base rung buckets every graph
    by its row of one refinement; a splitting rung gets values, in one
    call, for its base's paired graphs."""
    depth = max(CENSUS[name][1][1] for name in rungs if CENSUS[name][0] is None)
    wl1 = _wl1_ladder(Dataset.of(graphs), depth)
    found: dict = {}
    for name in rungs:
        base, values, keep = CENSUS[name]
        if base is None:
            buckets = defaultdict(list)
            for i, label in enumerate(wl1[min(values[1], len(wl1) - 1)].tolist()):
                buckets[label].append(i)
            found[name] = [p for b in buckets.values() for p in combinations(b, 2)]
        else:
            paired = sorted({i for pair in found[base] for i in pair})
            sub = [graphs[i] for i in paired]
            labels = signatures(sub, *values)[-1] if isinstance(values, tuple) else values(sub)
            value = dict(zip(paired, labels))
            found[name] = [(i, j) for i, j in found[base] if keep(value[i], value[j])]
    return found


def wl_census(graphs: Sequence[Graph]) -> PairReport:
    """1-WL and 2-FWL equivalent pair counts for a dataset.

    2-FWL refines 1-WL, so 2-FWL keys are computed, in one `signatures`
    call, only for the graphs that share their 1-WL key with another
    graph, and the 2-FWL pairs are the 1-WL pairs whose 2-FWL keys agree.
    """
    return PairReport.of_graphs("wl-census", graphs, _census(graphs, ("1-WL", "2-FWL")))


def lambda_census(graphs: Sequence[Graph]) -> PairReport:
    """1-WL-equivalent pairs whose normalized-Laplacian lambda-max agree
    within 1e-6 (the pairs Chebnet's lambda-max term cannot help with).

    Only the graphs in some 1-WL pair are decomposed, in one stacked
    eigendecomposition per order. Each matrix of a stack is decomposed
    on its own, so a graph's lambda-max does not depend on the others.
    """
    pairs = _census(graphs, ("1-WL", "equal-lambda-max"))
    return PairReport.of_graphs("lambda-census", graphs, pairs)


def _candidate_pairs(emb: np.ndarray, threshold: float) -> tuple[np.ndarray, np.ndarray]:
    """All unordered pairs with Manhattan distance <= threshold, as a
    (P, 2) array of (i, j) with i < j, and their computed distances (P,).

    Sort-window scan over keys that an L1 ball of radius t maps into an
    interval of width t: every single coordinate (a float sum of
    non-negative terms is at least each term) and the sign projection
    emb @ sign(v), v the embeddings' first principal axis
    (|sum_k s_k D_k| <= sum_k |D_k|). The projection's window is widened
    by a bound on its rounding error. Only pairs inside the sorted window
    of the key with the fewest in-window pairs that are also within the
    window of the next key need exact distances.
    """
    N, D = emb.shape
    none = np.empty((0, 2), dtype=np.int64), np.empty(0)
    if N < 2:
        return none
    X = emb - emb.mean(axis=0)
    v = np.linalg.eigh(X.T @ X)[1][:, -1]
    keys = np.column_stack([emb, emb @ np.where(v < 0, -1.0, 1.0)])
    # with u = eps / 2, a computed projection is off by at most (D - 1) u
    # times its row's L1 norm, and a computed distance <= t means a true
    # one <= t (1 + D u): 2 D eps (t + largest L1 norm) covers both rows
    l1 = np.abs(emb).sum(axis=1).max()
    width = np.full(D + 1, threshold)
    width[D] += 2 * D * np.finfo(emb.dtype).eps * (threshold + l1)
    # about how many pairs fall in each key's sorted window
    window = [(np.arange(N) - np.searchsorted(c, c - w)).sum()
              for c, w in zip(np.sort(keys, axis=0).T, width)]
    a, b = np.argsort(window, kind="stable")[:2]
    order = np.argsort(keys[:, a], kind="stable")
    sorted_emb = emb[order]
    x, y = keys[order, a], keys[order, b]
    lows, highs, dists = [], [], []
    i = np.arange(N)
    for k in range(1, N):
        # rows whose k-th predecessor in sort order is still within the
        # window; x[i] - x[i - k] grows with k, so the rows only shrink
        i = i[i >= k]
        i = i[x[i] - x[i - k] <= width[a]]
        if not len(i):
            break
        cand = i[np.abs(y[i] - y[i - k]) <= width[b]]
        d = np.abs(sorted_emb[cand - k] - sorted_emb[cand]).sum(axis=1)
        hit = d <= threshold
        lows.append(cand[hit] - k)
        highs.append(cand[hit])
        dists.append(d[hit])
    if not lows:
        return none
    pos = np.stack([np.concatenate(lows), np.concatenate(highs)], axis=1)
    return np.sort(order[pos], axis=1), np.concatenate(dists)


# A run-0 pair is near when its L1 distance is at most NEAR_EPS times the
# sum of its rows' L1 norms: rounding, not a difference the model computed.
# graph8c and sr25 pairs of equal 1-WL colors measure at most ~2.5 eps; over
# the first runs of 40 base seeds, 2-FWL-equal pairs (sr25, rook/Shrikhande,
# random graphs of order 6-25, and relabelled copies of all) measure at most
# 9.6 eps for Chebnet and 2.9 eps for GNNML3.
NEAR_EPS = 64 * np.finfo(float).eps


def _settled(batch: DatasetBatch, emb: np.ndarray, pairs: np.ndarray,
             dist: np.ndarray, threshold: float) -> np.ndarray:
    """Mask of run 0's candidate `pairs` of the graphs of `batch`, at the
    distances `dist` that the scan computed, that the kind's WL bound keeps
    in every run: near pairs whose graphs have equal labels of the kind's
    `bound`, a key rung of CENSUS. The near graphs' bool adjacency is
    gathered from the batch's tiles, one stack per order, and refined to
    the bound's depth in one `ladder` call. All False without a bound or
    when the cut of the largest rows would exceed `threshold` (a pair of
    equal labels might then not be a candidate). Raises when two keyed
    graphs of equal labels are not a near pair."""
    bound = MODELS[batch.spec.kind].bound
    norm = np.abs(emb).sum(axis=1)
    settled = np.zeros(len(pairs), dtype=bool)
    if bound is None or 2 * NEAR_EPS * norm.max() > threshold:
        return settled
    near = dist <= NEAR_EPS * norm[pairs].sum(axis=1)
    keyed = np.zeros(batch.size, dtype=bool)
    keyed[pairs[near].ravel()] = True
    local = np.cumsum(keyed) - 1  # a keyed graph's position among the keyed
    # each tile is of one order, and a batch's tiles of one order are consecutive
    parts = [(local[tile.indices[rows]], tile.A[rows]) for tile in batch.groups
             if (rows := keyed[tile.indices]).any()]
    stacks = [tuple(map(np.concatenate, zip(*group)))
              for _, group in groupby(parts, key=lambda part: part[1].shape[-1])]
    labels = ladder(stacks, int(local[-1]) + 1, *CENSUS[bound][1])[-1]
    settled[near] = np.equal(*labels[local[pairs[near]]].T)
    sizes = np.bincount(labels)
    if (sizes * (sizes - 1) // 2).sum() != settled.sum():
        raise ValueError(f"{batch.spec.kind}: graphs of equal {bound} keys differ in run 0, "
                         "so its declared WL bound does not hold")
    return settled


def undistinguished_pairs(
    spec: ModelSpec,
    graphs: Sequence[Graph],
    seeds: list[int],
    threshold: float,
) -> list[tuple[int, int]]:
    """Pairs whose embeddings stay within threshold in every run.

    `graphs` is a `Dataset` or a list, which the batch stacks once. Run 0
    scans the whole dataset for candidates. When more runs follow, the
    pairs that the kind's WL bound keeps in every run settle at once
    (`_settled`): the near ones, within a rounding cut of NEAR_EPS times
    their rows' L1 norms, are keyed by the kind's `bound` rung of CENSUS
    (`1-WL@k` or `2-FWL`) on the batch's tiles, and those of equal labels
    go straight into the result. Every pair of equal labels among the keyed
    graphs must be near, or the bound is wrong and this raises naming the
    kind. Afterwards, before each run, the batch shrinks to the graphs of
    the unsettled pairs whenever some of its graphs are in none (a gather
    from its tiles, `DatasetBatch.subset`), so every later run embeds
    exactly those graphs, one seed per `embed_all` call. The survivors
    stay one (P, 2) array until the sorted list is returned.
    """
    if not seeds:
        raise ValueError("at least one seed required")
    N = len(graphs)
    batch = DatasetBatch(spec, graphs)
    emb = batch.embed_all(seeds[0])
    pairs, dist = _candidate_pairs(emb, threshold)
    settled = pairs[:0]
    if len(pairs) and len(seeds) > 1:
        keep = _settled(batch, emb, pairs, dist, threshold)
        settled, pairs = pairs[keep], pairs[~keep]
    local = np.arange(N)  # dataset index -> position in batch, for the batch's graphs
    for seed in seeds[1:]:
        if not len(pairs):
            break
        in_pairs = np.zeros(N, dtype=bool)
        in_pairs[pairs.ravel()] = True
        active = np.flatnonzero(in_pairs)  # dataset indices, a subset of batch
        if len(active) < batch.size:
            batch = batch.subset(local[active])
            local[active] = np.arange(len(active))
        emb = batch.embed_all(seed)
        d = np.abs(emb[local[pairs[:, 0]]] - emb[local[pairs[:, 1]]]).sum(axis=1)
        pairs = pairs[d <= threshold]
    pairs = np.concatenate([settled, pairs])
    i, j = np.divmod(np.sort(pairs[:, 0] * N + pairs[:, 1]), N)
    # one int object per graph index, which every pair of that graph shares
    index = np.array(range(N), dtype=object)
    return list(zip(index[i].tolist(), index[j].tolist()))


def degree_multiset_pairs(graphs: Sequence[Graph]) -> list[tuple[int, int]]:
    """Exact oracle for the MLP row: pairs with equal sorted degrees."""
    return _census(graphs, ("1-WL@1",))["1-WL@1"]


def distinguishability_run(config: ExperimentConfig) -> PairReport:
    dataset = load_dataset(config.dataset, format=config.format)
    report = PairReport.of_graphs("distinguishability", dataset)
    seeds = run_seeds(config.base_seed, config.runs)
    report.extras["runs"] = config.runs
    report.extras["threshold"] = config.threshold
    # the degree-multiset pairs, counted from their classes without listing them
    wl1 = _wl1_ladder(dataset, 1)
    sizes = np.bincount(wl1[min(1, len(wl1) - 1)])
    report.extras["degree-multiset-oracle"] = int((sizes * (sizes - 1) // 2).sum())
    for kind in config.models:
        spec = ModelSpec(kind)
        try:
            pairs = undistinguished_pairs(spec, dataset, seeds, config.threshold)
        except Exception as exc:  # report per model without aborting others
            report.extras[f"error:{kind}"] = str(exc)
            continue
        report.record(kind, pairs)
        report.extras[f"width:{kind}"] = spec.resolved_width()
    return report


# --- golden suite -----------------------------------------------------------


@dataclass(frozen=True)
class GoldenCheck:
    name: str
    expected: object
    actual: object
    passed: bool


def _check(name, expected, actual, tol=0.0) -> GoldenCheck:
    if tol == 0.0:
        ok = expected == actual
    else:
        ok = abs(float(expected) - float(actual)) <= tol
    return GoldenCheck(name=name, expected=expected, actual=actual, passed=bool(ok))


def golden_pairs_suite() -> list[GoldenCheck]:
    """Every paper-anchored numeric on the built-in appendix pairs."""
    graphs = appendix_data.GRAPHS
    dec, bic = graphs["decalin"], graphs["bicyclopentyl"]
    cg, ch = graphs["cospectral10_a"], graphs["cospectral10_b"]
    rook, shri = graphs["rook4x4"], graphs["shrikhande"]
    checks = []

    def tr_power(G, k):
        return eval_sentence(parse(f"tr(A^{k})"), G.adjacency)

    checks.append(_check("decalin tr(A^5)", 0.0, tr_power(dec, 5)))
    checks.append(_check("bicyclopentyl tr(A^5)", 20.0, tr_power(bic, 5)))
    checks.append(
        _check("decalin/bicyclopentyl 1-WL equivalent", True,
               wl1_equivalent(dec, bic).equivalent)
    )
    for name, G, want in (("decalin", dec, 2.0), ("bicyclopentyl", bic, 1.8418)):
        checks.append(_check(f"{name} lambda-max", want, float(_lambda_max([G])[0]), tol=1e-3))
    ones = np.ones(10)
    for name, G, want in (("decalin", dec, -9.9327), ("bicyclopentyl", bic, -9.9269)):
        C2 = static_supports(ModelSpec("chebnet"), G)[1]
        checks.append(
            _check(f"{name} chebnet 1'C2 1", want, float(ones @ C2 @ ones), tol=1e-3)
        )

    for k, want in ((2, 40.0), (3, 48.0), (4, 360.0), (5, 920.0)):
        checks.append(_check(f"cospectral tr(A^{k}) G", want, tr_power(cg, k)))
        checks.append(_check(f"cospectral tr(A^{k}) H", want, tr_power(ch, k)))
    sentence = parse("ones' * f:square( had(A, A^2)^2 * ones )")
    checks.append(
        _check("cospectral sentence G", 6032.0, eval_sentence(sentence, cg.adjacency))
    )
    checks.append(
        _check("cospectral sentence H", 5872.0, eval_sentence(sentence, ch.adjacency))
    )
    checks.append(
        _check("cospectral pair 1-WL equivalent", True,
               wl1_equivalent(cg, ch).equivalent)
    )
    checks.append(
        _check("cospectral pair 2-FWL inequivalent", False,
               fwl2_equivalent(cg, ch).equivalent)
    )

    for name, G in (("rook", rook), ("shrikhande", shri)):
        checks.append(
            _check(f"{name} L3 sentence", 331776.0, eval_sentence(sentence, G.adjacency))
        )
        lam = eig_sym(laplacian(G)).lam
        values = [round(float(v), 2) for v in lam]
        checks.append(
            _check(f"{name} spectrum multiplicities", {0.0: 1, 0.67: 6, 1.33: 9},
                   {v: values.count(v) for v in sorted(set(values))})
        )
    checks.append(
        _check("rook/shrikhande 2-WL equivalent", True,
               wl2_equivalent(rook, shri).equivalent)
    )
    checks.append(
        _check("rook/shrikhande 2-FWL equivalent", True,
               fwl2_equivalent(rook, shri).equivalent)
    )
    checks.append(_check("rook 3-FWL statistic", 205632.0, fwl3_tensor_statistic(rook)))
    checks.append(
        _check("shrikhande 3-FWL statistic", 208704.0, fwl3_tensor_statistic(shri))
    )
    checks.append(
        _check("custom sentence equal on 1-WL pair", True,
               abs(custom_sentence(dec) - custom_sentence(bic)) <= 1e-9)
    )
    return checks


def golden_report(checks: list[GoldenCheck]) -> PairReport:
    report = PairReport(kind="golden", graph_count=6, pair_count=3)
    report.counts["passed"] = sum(c.passed for c in checks)
    report.counts["failed"] = sum(not c.passed for c in checks)
    report.extras["checks"] = [
        {
            "name": c.name,
            "expected": repr(c.expected),
            "actual": repr(c.actual),
            "passed": c.passed,
        }
        for c in checks
    ]
    return report


# --- rendering ---------------------------------------------------------------


def report_render(report: PairReport, format: str = "text") -> str:
    if format == "json":
        return json.dumps(
            {
                "kind": report.kind,
                "graph_count": report.graph_count,
                "pair_count": report.pair_count,
                "counts": report.counts,
                "extras": report.extras,
            },
            indent=2,
            sort_keys=True,
        ) + "\n"
    if format == "csv":
        lines = ["method,undistinguished_pairs"]
        lines += [f"{k},{v}" for k, v in report.counts.items()]
        return "\n".join(lines) + "\n"
    if format == "text":
        lines = [
            f"{report.kind}: {report.graph_count} graphs, "
            f"{report.pair_count} pairs"
        ]
        width = max((len(k) for k in report.counts), default=0)
        lines += [f"  {k.ljust(width)}  {v}" for k, v in report.counts.items()]
        for key, value in report.extras.items():
            if key == "checks":
                for c in value:
                    status = "pass" if c["passed"] else "FAIL"
                    lines.append(
                        f"  [{status}] {c['name']}: expected {c['expected']}, "
                        f"got {c['actual']}"
                    )
            else:
                lines.append(f"  {key} = {value}")
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown format {format!r}")
