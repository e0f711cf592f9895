"""matgraph benchmark: three workloads against the public library API.

    python3 perfbench/run.py --workload {table1,exact,sr25-blind} \
        --seed 7 --seconds 25 --trace {0,1}

Run from the repository root. Each repetition is a fresh interpreter
(`worker.py`), a single closed-loop client making one library call after
another, with numpy/OpenBLAS held at one thread. The seed defaults to
the reference seed, 7, at which `reference.json.xz` holds every model's
table1 pair set.

Workloads (why each is here):
  table1      `undistinguished_pairs` for all 8 models on graph8c
              (11117 graphs, n = 8) in a seed-shuffled order, at the
              reference's `run_seeds(7, 3)`: the paper's Table-1 sweep,
              shortened. `models` and the harness scan do the work, `wl`
              none.
  exact       graph8c 1-WL/2-FWL census and lambda-max census, 1-WL and
              2-FWL verdicts on all 105 sr25 pairs (vertices relabelled
              by the seed), golden suite. `wl` and `spectral` do the
              work, `models` none: the control for model-side changes.
  sr25-blind  all 8 models x `run_seeds(seed, 100)` on the 15 sr25 graphs
              (n = 25). No pair ever separates, so every run re-embeds the
              batch: per-run fixed costs show, the harness scan is trivial.

`--trace 0` starts the set-up alone four times, then repeats the workload
while one more repetition would end less than half a repetition past
`--seconds` (at least one repetition), and prints the end-to-end
metrics. Times are in reference seconds (see speed.py): measured seconds
scaled by how much slower than the reference the calibration loop ran
just before and after, which takes out the host's changing CPU speed.
  wall_s          workload start to checked answer (median repetition)
  setup_s         interpreter start, imports and load_dataset (median start)
  peak_rss_mb     peak resident set of a repetition (median)
  ops_ok_frac     1 - failed / attempted ops; an op is a model run, a WL
                  verdict or a check. (Its complement, the failed share,
                  is 0 on a correct run.)
  verdict_p50_ms  latency of one verdict, over all repetitions: an sr25
  verdict_p90_ms  pair's 1-WL + 2-FWL verdict (exact), one model's
                  `undistinguished_pairs` call (table1, sr25-blind)
`--trace 1` runs the workload once untraced and once traced, writes the
traced run's spans to perfbench/out/spans-<workload>.jsonl, and prints
the per-layer metrics derived from them (see tracing.py). The last
stdout line is the result as JSON; the line before it records the
environment (cores, CPU, Python, numpy, BLAS build and threads), and the
line before that the measured wall_s and setup_s and the speed (reference
over measured loop time, median over repetitions). On table1 a line
before that gives, per model,
`harness.pairs_flipped`: the pairs in exactly one of its pair set and
the stored reference's.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
WORKER = BENCH_DIR / "worker.py"
sys.path.insert(0, str(BENCH_DIR))

from speed import calibration_loop, reference_seconds  # noqa: E402
from tracing import layer_metrics, read_spans, top_level_cover_s  # noqa: E402

WORKLOADS = ("table1", "exact", "sr25-blind")
SETUP_PROBES = 4
DEADLINE_S = 170.0  # a run ends well inside 180 s


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def start_worker(args, deadline: float, *extra: str) -> dict:
    """One repetition in a fresh interpreter: its JSON line, with `setup_s`
    (spawn to loaded datasets) and `setup_ref_s` (the same in reference
    seconds) added."""
    cmd = [sys.executable, str(WORKER), "--workload", args.workload, *extra]
    if args.seed is not None:
        cmd += ["--seed", str(args.seed)]
    loop_before = calibration_loop()
    spawned = time.monotonic()
    try:
        timeout = max(1.0, deadline - spawned)
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, timeout=timeout, text=True)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker timed out: {' '.join(cmd)}") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: {' '.join(cmd)}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["setup_s"] = out["setup_done"] - spawned
    out["setup_ref_s"] = reference_seconds(out["setup_s"], loop_before, out["setup_loop_s"])
    return out


def measure(args, deadline: float) -> tuple[dict, list[dict], dict]:
    """End-to-end metrics over set-up probes and repetitions."""
    begin = time.monotonic()
    probes = [start_worker(args, deadline, "--setup-only") for _ in range(SETUP_PROBES)]
    reps = []
    reps_begin = time.monotonic()
    while True:
        reps.append(start_worker(args, deadline))
        now = time.monotonic()
        if now - begin + 0.5 * (now - reps_begin) / len(reps) > args.seconds:
            break
    verdicts = [v for r in reps for v in r["verdict_ms"]]
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    starts = probes + reps
    measured = {
        "wall_s": statistics.median(r["work_s"] for r in reps),
        "setup_s": statistics.median(r["setup_s"] for r in starts),
        "speed": statistics.median(r["speed"] for r in reps),
    }
    metrics = {
        "wall_s": (statistics.median(r["wall_s"] for r in reps), "s"),
        "setup_s": (statistics.median(r["setup_ref_s"] for r in starts), "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in reps), "MB"),
        "ops_ok_frac": (1.0 - failed / attempted, "frac"),
        "verdict_p50_ms": (statistics.median(verdicts), "ms"),
        "verdict_p90_ms": (statistics.quantiles(verdicts, n=10, method="inclusive")[-1], "ms"),
    }
    return metrics, reps, measured


def trace(args, deadline: float) -> tuple[dict, list[dict], dict]:
    """Per-layer metrics from one traced repetition."""
    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"spans-{args.workload}.jsonl"
    plain = start_worker(args, deadline)
    traced = start_worker(args, deadline, "--spans-out", str(spans_path))
    reps = [plain, traced]
    spans = read_spans(spans_path)
    metrics = layer_metrics(spans, traced["model_kinds"])
    metrics["trace_overhead_frac"] = (traced["wall_s"] / plain["wall_s"] - 1.0, "frac")
    cover = top_level_cover_s(spans, traced["start_ns"], traced["end_ns"]) / traced["work_s"]
    metrics["trace_top_level_cover_frac"] = (cover, "frac")
    if not 0.9 <= cover <= 1.0:
        traced["failed"] += 1
        traced["failures"].append(f"top-level spans cover {cover:.3f} of traced wall_s")
    traced["attempted"] += 1
    return metrics, reps, {"wall_s": traced["work_s"], "speed": traced["speed"]}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, help="workload seed (default: the reference seed)")
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    for needed in (ROOT / "src" / "matgraph" / "__init__.py", ROOT / "data" / "graph8c.g6",
                   ROOT / "data" / "sr25.g6"):
        if not needed.is_file():
            print(f"perfbench: {needed.relative_to(ROOT)} is missing; run from a "
                  "matgraph checkout", file=sys.stderr)
            return 2
    try:
        metrics, reps, measured = (trace if args.trace else measure)(args, deadline)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    failures = [f for r in reps for f in r["failures"]]
    for f in failures[:20]:
        print(f"FAILED: {f}", file=sys.stderr)
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    flipped = next((r["pairs_flipped"] for r in reps if "pairs_flipped" in r), None)
    if flipped is not None:
        print(json.dumps({"harness.pairs_flipped": flipped}))
    print(json.dumps({"measured": measured}))
    env = dict(reps[0]["environment"])
    env.update(workload=args.workload, seed=reps[0]["seed"], trace=args.trace,
               repetitions=len(reps))
    print(json.dumps({"environment": env}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
