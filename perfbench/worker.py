"""One repetition of one benchmark workload, in a fresh interpreter.

    python3 perfbench/worker.py --workload table1 --seed 7 [--spans-out FILE]

Loads the datasets (set-up), runs the workload against the public
matgraph API, checks every answer and prints one JSON line with the
timings, the op counts and the environment. `run.py` starts one of
these per repetition, so no repetition sees another one's warm caches
(the process-global WL color registry above all).

The workload runs as a sequence of steps (one model's
`undistinguished_pairs`, one sr25 pair's verdicts, a census, the checks),
each timed between two runs of the calibration loop in `speed.py` and
reported in reference seconds; `work_s` gives the measured seconds.

    python3 perfbench/worker.py --write-reference

recomputes `reference.json.xz`: the graph8c 1-WL and equal-lambda-max
pair lists and every model's `table1` pair set at the reference seed.
table1 always runs the models at the run seeds stored there; its own
seed shuffles the order of the dataset.
The paper's 100-run Table-1 counts and their 15 % bands are checked by
`tests/test_acceptance.py`, not here: 100 runs take ~170 s on 2 cores.
"""

import argparse
import ctypes
import contextlib
import glob
import itertools
import json
import lzma
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
REFERENCE = BENCH_DIR / "reference.json.xz"

# One BLAS thread (numpy/OpenBLAS read these when they load): the client
# is one closed loop on one process, the matrices are at most 25 x 25,
# and a second thread only adds run-to-run noise on a shared 2-core box.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import matgraph  # noqa: E402
from matgraph import graphcore, harness, models, wl  # noqa: E402
from matgraph.models import MODEL_KINDS  # noqa: E402
from speed import REFERENCE_LOOP_S, calibration_loop, reference_seconds  # noqa: E402
from tracing import Tracer  # noqa: E402

THRESHOLD = 1e-3
REFERENCE_SEED = 7
# Runs per model. 3 runs keep one table1 repetition near 20 s while
# every model still embeds the whole dataset once and re-checks its
# survivors (the paper's sweep is 100 runs). sr25-blind never loses a
# pair, so each of its 100 runs (the acceptance criterion's count)
# re-embeds all 15 graphs; a repetition takes ~3 s.
RUNS = {"table1": 3, "sr25-blind": 100}
DATASETS = {"table1": ("graph8c",), "exact": ("graph8c", "sr25"), "sr25-blind": ("sr25",)}
# Models whose update is a function of the 1-WL color alone.
WL1_BOUNDED = ("mlp", "gcn", "graphsage", "gin", "gat", "gnnml1")
GOLDEN_CHECKS = 28
SR25_PAIRS = 105


class Step:
    """Reference seconds of one timed step, set when the step ends."""

    seconds = 0.0


class Ops:
    """Counts ops (model runs, WL verdicts, checks), keeps the failures and
    times the workload's steps between calibration loops."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []
        self.loop_s = [calibration_loop()]
        self.work_s = 0.0  # measured seconds inside steps
        self.wall_s = 0.0  # the same in reference seconds

    @contextlib.contextmanager
    def step(self):
        """Time the block as one step, then run the calibration loop."""
        step = Step()
        t = time.perf_counter()
        try:
            yield step
        finally:
            seconds = time.perf_counter() - t
            self.loop_s.append(calibration_loop())
            step.seconds = reference_seconds(seconds, self.loop_s[-2], self.loop_s[-1])
            self.work_s += seconds
            self.wall_s += step.seconds

    def check(self, name: str, ok: bool) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(name)
        return ok

    def call(self, name: str, fn, *args):
        """Run one library call as an op; None when it raised."""
        try:
            result = fn(*args)
        except Exception as exc:  # the failure is the measurement
            self.check(f"{name}: {exc!r}", False)
            return None
        self.check(name, True)
        return result


def pair_codes(pairs, n_graphs: int, order=None) -> np.ndarray:
    """Sorted int64 codes i * N + j (i < j) of (i, j) pairs; with `order`,
    of the pairs (order[i], order[j])."""
    flat = np.fromiter(itertools.chain.from_iterable(pairs), dtype=np.int64,
                       count=2 * len(pairs))
    if order is not None:
        flat = order[flat]
    i, j = flat[0::2], flat[1::2]
    return np.sort(np.minimum(i, j) * n_graphs + np.maximum(i, j))


def common(a: np.ndarray, b: np.ndarray) -> int:
    """Number of codes of sorted, duplicate-free `a` that are in sorted `b`."""
    if len(a) == 0 or len(b) == 0:
        return 0
    idx = np.minimum(np.searchsorted(b, a), len(b) - 1)
    return int((b[idx] == a).sum())


def load_reference() -> dict:
    with lzma.open(REFERENCE, "rt") as f:
        return json.load(f)


def flip_tolerance(ref_count: int) -> int:
    """Pairs that may be in exactly one of a model's table1 pair set and
    the stored one: room for a reordered float sum to move a
    pair across the threshold, not for a changed layer (gcn without its
    self-loops flips 10340 of its 17416 pairs)."""
    return max(3, ref_count // 100)


def pairs_flipped(codes: dict, ref: dict) -> dict[str, int]:
    """Per model, pairs in exactly one of its pair set and the reference's."""
    out = {}
    for kind, c in codes.items():
        ref_c = np.cumsum(np.asarray(ref["pairs"][kind], dtype=np.int64))
        out[kind] = len(c) + len(ref_c) - 2 * common(c, ref_c)
    return out


def relabel(graphs, seed: int):
    """Each graph with its vertices permuted by a seed-derived permutation."""
    rng = np.random.default_rng(seed)
    out = []
    for G in graphs:
        p = rng.permutation(G.n)
        out.append(graphcore.Graph(G.adjacency[np.ix_(p, p)]))
    return out


def run_models(ops, graphs, seeds, verdict_ms):
    pairs = {}
    for kind in MODEL_KINDS:
        with ops.step() as step:
            result = ops.call(f"{kind} undistinguished_pairs", harness.undistinguished_pairs,
                              models.ModelSpec(kind), graphs, seeds, THRESHOLD)
        verdict_ms.append(step.seconds * 1e3)
        if result is not None:
            pairs[kind] = result
    return pairs


def table1(ops, data, seed, runs, ref, out) -> None:
    """The stored run seeds' model pair sets on graph8c in a seed-shuffled
    order, checked against the exact oracles and the stored pair sets.

    The run seeds stay those of the reference: at 3 runs a model's pair
    count, and with it its re-embedding work, depends on the weight draw
    (gcn 7525-47333 pairs, 2.0-4.1 s, over seeds), not on the library's
    speed. The shuffle changes every graph's index and leaves each model's
    pair set the stored one, so the whole set is checked at every seed.
    """
    graphs = data["graph8c"]
    order = np.random.default_rng(seed).permutation(len(graphs))
    shuffled = [graphs[i] for i in order]
    seeds = models.run_seeds(ref["seed"], ref["runs"])
    pairs = run_models(ops, shuffled, seeds, out["verdict_ms"])
    with ops.step():
        check_table1(ops, shuffled, order, pairs, ref, out)


def check_table1(ops, shuffled, order, pairs, ref, out) -> None:
    N = len(shuffled)
    codes = {k: pair_codes(p, N, order) for k, p in pairs.items()}

    def subset(name, sub, kind):
        ops.check(name, sub is not None and kind in codes
                  and common(sub, codes[kind]) == len(sub))

    wl1 = pair_codes(ref["wl1_pairs"], N)
    for kind in WL1_BOUNDED:
        subset(f"1-WL pairs within {kind} pairs", wl1, kind)
    degree = ops.call("degree_multiset_pairs", harness.degree_multiset_pairs, shuffled)
    subset("degree-multiset pairs within mlp pairs",
           None if degree is None else pair_codes(degree, N, order), "mlp")
    subset("equal-lambda-max pairs within chebnet pairs",
           pair_codes(ref["equal_lambda_pairs"], N), "chebnet")
    ops.check("gnnml3 separates every pair", len(codes.get("gnnml3", [None])) == 0)
    out["pairs_flipped"] = pairs_flipped(codes, ref)
    for kind in MODEL_KINDS:
        flipped = out["pairs_flipped"].get(kind, -1)
        tol = flip_tolerance(len(ref["pairs"][kind]))
        ops.check(f"{kind} pairs flipped {flipped} <= {tol}", 0 <= flipped <= tol)


def exact(ops, data, seed, runs, ref, out) -> None:
    """graph8c censuses, sr25 pair verdicts and the golden suite, all exact."""
    g8 = data["graph8c"]
    sr = data["sr25"]
    with ops.step():
        census = ops.call("wl_census", harness.wl_census, g8)
        ops.check("1-WL pairs == 312", census is not None and census.counts["1-WL"] == 312)
        ops.check("2-FWL pairs == 0", census is not None and census.counts["2-FWL"] == 0)
        ops.check("1-WL pairs match reference", census is not None and
                  census.pairs["1-WL"] == [tuple(p) for p in ref["wl1_pairs"]])
    with ops.step():
        lam = ops.call("lambda_census", harness.lambda_census, g8)
        ops.check("equal-lambda-max pairs == 19",
                  lam is not None and lam.counts["equal-lambda-max"] == 19)
        ops.check("equal-lambda-max pairs match reference", lam is not None and
                  lam.pairs["equal-lambda-max"] == [tuple(p) for p in ref["equal_lambda_pairs"]])
    for i in range(len(sr)):
        for j in range(i + 1, len(sr)):
            with ops.step() as step:
                v1 = ops.call(f"sr25 {i},{j} 1-WL", wl.wl1_equivalent, sr[i], sr[j])
                v2 = ops.call(f"sr25 {i},{j} 2-FWL", wl.fwl2_equivalent, sr[i], sr[j])
                ops.check(f"sr25 {i},{j} 1-WL equivalent", v1 is not None and v1.equivalent)
                ops.check(f"sr25 {i},{j} 2-FWL equivalent", v2 is not None and v2.equivalent)
            out["verdict_ms"].append(step.seconds * 1e3)
    ops.check(f"{SR25_PAIRS} sr25 pairs", len(out["verdict_ms"]) == SR25_PAIRS)
    with ops.step():
        checks = ops.call("golden_pairs_suite", harness.golden_pairs_suite) or []
        for c in checks:
            ops.check(f"golden {c.name}", c.passed)
        ops.check(f"{GOLDEN_CHECKS} golden checks", len(checks) == GOLDEN_CHECKS)


def sr25_blind(ops, data, seed, runs, ref, out) -> None:
    """Every model must leave all 105 sr25 pairs undistinguished."""
    graphs = data["sr25"]
    pairs = run_models(ops, graphs, models.run_seeds(seed, runs), out["verdict_ms"])
    with ops.step():
        for kind in MODEL_KINDS:
            ops.check(f"{kind} blind to all {SR25_PAIRS} sr25 pairs",
                      len(pairs.get(kind, ())) == SR25_PAIRS)


WORKLOADS = {"table1": table1, "exact": exact, "sr25-blind": sr25_blind}


def environment() -> dict:
    """Cores, CPU, Python, numpy and the BLAS build and thread count in effect."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_available": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration", ""),
        "blas_threads": blas_threads(),
    }


def blas_threads() -> int | None:
    """Thread count OpenBLAS reports, or None if the library is not found."""
    libs = glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def check_library_source() -> None:
    src = (ROOT / "src").resolve()
    if src not in Path(matgraph.__file__).resolve().parents:
        raise SystemExit(f"matgraph imported from {matgraph.__file__}, not from {src}")


def write_reference() -> None:
    graphs = graphcore.load_dataset(str(ROOT / "data" / "graph8c.g6"))
    runs = RUNS["table1"]
    seeds = models.run_seeds(REFERENCE_SEED, runs)
    ref = {
        "dataset": "graph8c", "graphs": len(graphs), "seed": REFERENCE_SEED,
        "runs": runs, "threshold": THRESHOLD,
        "wl1_pairs": harness.wl_census(graphs).pairs["1-WL"],
        "equal_lambda_pairs": harness.lambda_census(graphs).pairs["equal-lambda-max"],
        "pairs": {},
    }
    for kind in MODEL_KINDS:
        p = harness.undistinguished_pairs(models.ModelSpec(kind), graphs, seeds, THRESHOLD)
        ref["pairs"][kind] = np.diff(pair_codes(p, len(graphs)), prepend=0).tolist()
    with lzma.open(REFERENCE, "wt") as f:
        json.dump(ref, f)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=REFERENCE_SEED)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--spans-out", help="trace library calls, write spans here")
    p.add_argument("--write-reference", action="store_true")
    args = p.parse_args(argv)
    check_library_source()
    if args.write_reference:
        write_reference()
        return 0
    if args.workload is None:
        p.error("--workload is required")
    tracer = None
    if args.spans_out:
        tracer = Tracer()
        tracer.install()
    data = {
        name: graphcore.load_dataset(str(ROOT / "data" / f"{name}.g6"))
        for name in DATASETS[args.workload]
    }
    out = {"setup_done": time.monotonic(), "setup_loop_s": calibration_loop(),
           "seed": args.seed, "model_kinds": MODEL_KINDS}
    if not args.setup_only:
        runs = RUNS.get(args.workload, 0)
        ref = load_reference()
        if args.workload == "exact":
            data["sr25"] = relabel(data["sr25"], args.seed)
        ops = Ops()
        out["verdict_ms"] = []
        t0 = time.monotonic_ns()
        WORKLOADS[args.workload](ops, data, args.seed, runs, ref, out)
        t1 = time.monotonic_ns()
        out.update(
            wall_s=ops.wall_s, work_s=ops.work_s, start_ns=t0, end_ns=t1,
            speed=REFERENCE_LOOP_S / statistics.median(ops.loop_s),
            attempted=ops.attempted, failed=len(ops.failures), failures=ops.failures[:20],
        )
    if tracer is not None:
        tracer.write(args.spans_out)
    out.update(
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        environment=environment(),
    )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
