"""Command-line interface.

Subcommands:

  census         1-WL / 2-FWL equivalent-pair counts for a dataset
  lambda-census  equal lambda-max pairs inside 1-WL buckets
  distinguish    random-weight distinguishability run (Table-1 style)
  golden         built-in appendix pair suite
  eval           evaluate a sentence on a graph
  wl             pairwise WL tests on two graphs
  supports       spectral convolution supports of one graph
  count          graphlet counts for a graph
  embed          model embeddings of a graph over several runs

`distinguish --config FILE` reads `key = value` lines; a flag given on
the command line overrides the file, and the file overrides the default.
A global flag that the subcommand does not read (`--format` for `wl`, say)
is a usage error, not silently ignored.

Exit codes: 0 success, 1 golden failure or a model that raised in
`distinguish` (the report is still printed), 2 usage error, bad input,
a file that cannot be read or written, or out of memory.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys

import numpy as np

from matgraph.graphcore import (DATASET_FORMATS, Graph, GraphFormatError, graph6_lines,
                                load_dataset, parse_graph6)
from matgraph.graphlets import PATTERN_KINDS, count, enumerate_pattern
from matgraph.harness import (
    ExperimentConfig,
    distinguishability_run,
    golden_pairs_suite,
    golden_report,
    lambda_census,
    parse_models,
    report_render,
    wl_census,
)
from matgraph.matlang import (
    OpSet,
    eval_sentence,
    fragment_check,
    parse,
    shape_check,
)
from matgraph.models import MODEL_KINDS, DatasetBatch, ModelSpec, run_seeds
from matgraph.spectral import SupportSpec, stacked_supports
from matgraph.wl import fwl2_equivalent, wl1_equivalent, wl2_equivalent


def _load_graph(path_spec: str, format: str) -> Graph:
    """Load `file` or `file:index` (0-based index into the dataset). Of a
    graph6 file only the addressed line is decoded."""
    path, _, idx = path_spec.partition(":")
    if format == "graph6":
        entries = graph6_lines(path) or load_dataset(path)  # no lines: it raises
    else:
        entries = load_dataset(path, format=format)
    try:
        i = int(idx) if idx else 0
    except ValueError:
        i = -1  # not a number: reported like an index out of range
    if not 0 <= i < len(entries):
        raise GraphFormatError(f"graph index {idx!r} is not in 0..{len(entries) - 1}")
    if format != "graph6":
        return entries[i]
    lineno, line = entries[i]
    try:
        return parse_graph6(line)
    except GraphFormatError as e:
        raise GraphFormatError(f"{path}:{lineno}: {e}") from e


def cmd_census(args) -> int:
    graphs = load_dataset(args.dataset, format=args.dataset_format)
    args.stream.write(report_render(args.census(graphs), args.format))
    return 0


# distinguish flag -> ExperimentConfig field; a flag given on the command
# line overrides the config file, which overrides the field's default
_CONFIG_FLAGS = {
    "dataset_format": "format",
    "models": "models",
    "runs": "runs",
    "threshold": "threshold",
    "seed": "base_seed",
    "format": "output_format",
}


def cmd_distinguish(args) -> int:
    overrides = {"dataset": args.dataset}
    for flag, key in _CONFIG_FLAGS.items():
        if flag in args.given:
            overrides[key] = getattr(args, flag)
    if "models" in overrides:
        overrides["models"] = parse_models(overrides["models"])
    if args.config:
        config = ExperimentConfig.from_file(args.config, **overrides)
    else:
        config = ExperimentConfig(**overrides)
    report = distinguishability_run(config)
    args.stream.write(report_render(report, config.output_format))
    failed = [k for k in config.models if f"error:{k}" in report.extras]
    for kind in failed:
        print(f"error: {kind}: {report.extras[f'error:{kind}']}", file=sys.stderr)
    return 1 if failed else 0


def cmd_golden(args) -> int:
    checks = golden_pairs_suite()
    args.stream.write(report_render(golden_report(checks), args.format))
    return 0 if all(c.passed for c in checks) else 1


def cmd_eval(args) -> int:
    G = _load_graph(args.graph, args.dataset_format)
    expr = parse(args.sentence)
    shape = shape_check(expr, G.n)
    result = {
        "sentence": args.sentence,
        "shape": list(shape),
        "fragments": {
            name: fragment_check(expr, OpSet.named(name))
            for name in ("L1", "L2", "L3", "L1+", "L2+", "L3+")
        },
    }
    if shape == (1, 1):
        with np.errstate(all="ignore"):
            value = eval_sentence(expr, G.adjacency)
        if not np.isfinite(value):
            raise ValueError(f"the sentence's value {value} is not a finite number")
        result["value"] = value
    args.stream.write(json.dumps(result, indent=2) + "\n")
    return 0


def cmd_wl(args) -> int:
    G = _load_graph(args.graph, args.dataset_format)
    H = _load_graph(args.other, args.dataset_format)
    verdicts = {
        "1-WL": wl1_equivalent(G, H),
        "2-WL": wl2_equivalent(G, H),
        "2-FWL": fwl2_equivalent(G, H),
    }
    result = {
        name: {
            "equivalent": v.equivalent,
            "separating_iteration": v.separating_iteration,
        }
        for name, v in verdicts.items()
    }
    args.stream.write(json.dumps(result, indent=2) + "\n")
    return 0


def cmd_supports(args) -> int:
    G = _load_graph(args.graph, args.dataset_format)
    basis = "normalized-laplacian" if args.basis == "nlap" else "adjacency"
    spec = SupportSpec(basis_kind=basis, b=args.b, S=args.count)
    features, (_, rows, cols), centers = stacked_supports(G.adjacency[None], spec)
    result = {
        "mask_index": [list(p) for p in zip(rows.tolist(), cols.tolist())],
        "band_centers": centers[0].tolist(),
        "features": features.tolist(),
    }
    args.stream.write(json.dumps(result, indent=2) + "\n")
    return 0


def cmd_count(args) -> int:
    G = _load_graph(args.graph, args.dataset_format)
    kinds = PATTERN_KINDS if args.pattern == "all" else (args.pattern,)
    lines = []
    for kind in kinds:
        row = f"{kind:16s} {count(G, kind)}"
        if args.oracle:
            row += f"  (oracle {enumerate_pattern(G, kind)})"
        lines.append(row)
    args.stream.write("\n".join(lines) + "\n")
    return 0


def cmd_embed(args) -> int:
    G = _load_graph(args.graph, args.dataset_format)
    spec = ModelSpec(args.model)
    runs = DatasetBatch(spec, [G]).embed_all(run_seeds(args.seed, args.seeds))
    result = {
        "model": args.model,
        "width": spec.resolved_width(),
        "embeddings": runs[:, 0].tolist(),
    }
    args.stream.write(json.dumps(result, indent=2) + "\n")
    return 0


_PATTERN_ALIASES = {
    "3star": "three_star",
    "tri": "triangle",
    "tailedtri": "tailed_triangle",
    "4cycle": "four_cycle",
}


# Global options a config file can also set parse to None when absent, so
# that `distinguish` can tell a given flag from a default; main then fills
# in these defaults.
_DEFAULTS = {"seed": 0, "format": "text", "dataset_format": "graph6"}

# global flag -> the subcommands that read it (every one reads --out)
_FLAG_READERS = {
    "config": {"distinguish"},
    "seed": {"distinguish", "embed"},
    "format": {"census", "lambda-census", "distinguish", "golden"},
    "dataset_format": {"census", "lambda-census", "distinguish", "eval", "wl", "supports",
                       "count", "embed"},
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="matgraph", description="Graph expressiveness testbench"
    )
    parser.add_argument("--config", help="key-value config file (distinguish)")
    parser.add_argument("--seed", type=int, help="base random seed (default 0)")
    parser.add_argument("--out", help="write output to file instead of stdout")
    parser.add_argument(
        "--format", choices=("text", "json", "csv"),
        help="report output format (default text)",
    )
    parser.add_argument(
        "--dataset-format", choices=DATASET_FORMATS,
        help="input format (default graph6)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("census", help="1-WL / 2-FWL pair census")
    p.add_argument("dataset")
    p.set_defaults(func=cmd_census, census=wl_census)

    p = sub.add_parser("lambda-census", help="equal lambda-max pair census")
    p.add_argument("dataset")
    p.set_defaults(func=cmd_census, census=lambda_census)

    p = sub.add_parser("distinguish", help="random-weight distinguishability")
    p.add_argument("dataset")
    p.add_argument("--models", help="comma-separated model kinds")
    p.add_argument("--runs", type=int, help="random-weight runs (default 100)")
    p.add_argument("--threshold", type=float, help="L1 distance (default 1e-3)")
    p.set_defaults(func=cmd_distinguish)

    p = sub.add_parser("golden", help="built-in appendix pair suite")
    p.set_defaults(func=cmd_golden)

    p = sub.add_parser("eval", help="evaluate a sentence on a graph")
    p.add_argument("--graph", required=True, help="file or file:index")
    p.add_argument("--sentence", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("wl", help="pairwise WL tests")
    p.add_argument("--graph", required=True, help="file or file:index")
    p.add_argument("--other", required=True, help="file or file:index")
    p.set_defaults(func=cmd_wl)

    p = sub.add_parser("supports", help="spectral convolution supports")
    p.add_argument("--graph", required=True, help="file or file:index")
    p.add_argument("--basis", choices=("nlap", "adj"), default="nlap")
    p.add_argument("--b", type=float, default=5.0)
    p.add_argument("--count", type=int, default=5)
    p.set_defaults(func=cmd_supports)

    p = sub.add_parser("count", help="graphlet counts")
    p.add_argument("--graph", required=True, help="file or file:index")
    p.add_argument(
        "--pattern",
        choices=("all",) + PATTERN_KINDS + tuple(_PATTERN_ALIASES),
        default="all",
    )
    p.add_argument("--oracle", action="store_true", help="cross-check by enumeration")
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("embed", help="model embeddings over several runs")
    p.add_argument("--graph", required=True, help="file or file:index")
    p.add_argument("--model", choices=MODEL_KINDS, required=True)
    p.add_argument("--seeds", type=int, default=1, help="number of runs")
    p.set_defaults(func=cmd_embed)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    args.given = {k for k, v in vars(args).items() if v is not None}
    for flag, readers in _FLAG_READERS.items():
        if flag in args.given and args.command not in readers:
            print(f"error: {args.command} does not read --{flag.replace('_', '-')}",
                  file=sys.stderr)
            return 2
    for k, v in _DEFAULTS.items():
        if getattr(args, k) is None:
            setattr(args, k, v)
    if getattr(args, "pattern", None) in _PATTERN_ALIASES:
        args.pattern = _PATTERN_ALIASES[args.pattern]
    try:
        # like shell redirection, --out is opened before the command runs
        with open(args.out, "w") if args.out else contextlib.nullcontext(sys.stdout) as out:
            args.stream = out
            return args.func(args)
    except (GraphFormatError, ValueError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
