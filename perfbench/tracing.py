"""Spans around the matgraph library, recorded from outside it.

`Tracer.install` replaces every public function of the traced modules at
the module-level name its callers look up (`matgraph.harness.prepare`,
`matgraph.models.make_weights`, ...) plus a few methods, with a wrapper
that records one span per call: id, parent id, root id, name, start and
end (monotonic ns) and a few counts read from the arguments or result.
Spans stay in memory and are written as JSON lines when the run ends.

`layer_metrics` turns such a span file into the per-layer metrics.
"""

from __future__ import annotations

import importlib
import inspect
import json
import time
from collections import defaultdict

MODULES = ("graphcore", "models", "harness", "wl", "spectral", "matlang", "graphlets")

# Helpers called per graph, per node or recursively whose own cost is
# close to the cost of a span; wrapping them would mostly measure the
# tracer. Their time stays in the caller's self time.
LEAF_HELPERS = frozenset({
    "parse_graph6", "encode_graph6", "degree_vector", "laplacian",
    "parameter_count", "splitmix64", "frequency_response", "band_centers",
    "mask_positions", "sparse2vec", "vec2sparse", "basis_matrix",
    "eval_expr", "shape_check", "is_sentence", "fragment_check",
    "maclaurin_coefficients",
})

METHODS = (
    ("models", "DatasetBatch", "__init__"),
    ("models", "DatasetBatch", "subset"),
    ("models", "DatasetBatch", "embed_all"),
    ("models", "ModelSpec", "resolved_width"),
)

def embed_flops(spec, width: int, groups) -> int:
    """Floating-point operations (2 per multiply-add) of the `C @ H` and
    `H @ W` products of one `embed_all`, computed from shapes; `groups`
    holds (B, n) per stacked group. Follows each kind's layer form
    H' = relu(sum_s C_s H W_s) as `models` evaluates it."""
    kind = spec.kind
    dims = [1] + [2 * width if kind == "gnnml3" else width] * spec.layers
    supports = {"graphsage": 2, "chebnet": spec.cheb_k, "gnnml3": spec.support_spec.S}
    S = supports.get(kind, 1)
    total = 0
    for B, n in groups:
        for d_in in dims[:-1]:
            agg = 2 * B * n * n * d_in  # one C @ H
            xf = 2 * B * n * d_in * width  # one H @ W
            if kind == "gin":
                total += agg + xf + 2 * B * n * width * width
            elif kind == "gat":
                total += agg + 2 * xf  # H W inside the attention, then (att H) W
            elif kind == "gnnml1":
                total += agg + 4 * xf
            elif kind == "gnnml3":
                total += S * (agg + xf) + 2 * xf  # conv plus mlp5, mlp6
            else:
                total += S * (agg + xf)
        if spec.readout == "sum-linear10":
            total += 2 * B * dims[-1] * 10
    return total


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self._stack: list[tuple[int, int]] = []  # (span id, root id)
        self._next_id = 0
        self._widths: dict = {}
        self._resolved_width = None

    def _wrap(self, fn, name: str, attrs=None):
        spans, stack = self.spans, self._stack
        clock = time.monotonic_ns

        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id = sid + 1
            parent, root = stack[-1] if stack else (None, sid)
            stack.append((sid, root))
            t0 = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = clock()
                stack.pop()
                extra = attrs(args, kwargs, result) if attrs and result is not None else None
                spans.append((sid, parent, root, name, t0, t1, extra))

        return traced

    def _width(self, spec) -> int:
        if spec not in self._widths:
            self._widths[spec] = self._resolved_width(spec)
        return self._widths[spec]

    def _attrs(self, name: str):
        def kind(a, k, r):
            return {"kind": a[0].kind}

        def pairs(a, k, r):
            return {"kind": a[0].kind, "pairs": len(r)}

        def order(a, k, r):
            return {"n": a[0].n}

        def embed(a, k, r):
            batch = a[0]
            groups = [(len(g.indices), g.n) for g in batch.groups]
            flops = embed_flops(batch.spec, self._width(batch.spec), groups)
            return {"kind": batch.spec.kind, "graphs": batch.size, "flops": flops}

        return {
            "graphcore.load_dataset": lambda a, k, r: {"graphs": len(r)},
            "harness.undistinguished_pairs": pairs,
            "models.make_weights": kind,
            "models.DatasetBatch.embed_all": embed,
            "wl.wl1_equivalent": order,
            "wl.wl2_equivalent": order,
            "wl.fwl2_equivalent": order,
        }.get(name)

    def install(self) -> None:
        """Wrap the public functions and listed methods of every traced module."""
        mods = {m: importlib.import_module(f"matgraph.{m}") for m in MODULES}
        for mod in mods.values():
            for attr, obj in list(vars(mod).items()):
                if (
                    attr.startswith("_")
                    or attr in LEAF_HELPERS
                    or not inspect.isfunction(obj)
                    or not obj.__module__.startswith("matgraph.")
                ):
                    continue
                name = f"{obj.__module__.removeprefix('matgraph.')}.{obj.__name__}"
                setattr(mod, attr, self._wrap(obj, name, self._attrs(name)))
        self._resolved_width = mods["models"].ModelSpec.resolved_width
        for m, cls_name, meth in METHODS:
            cls = getattr(mods[m], cls_name)
            name = f"{m}.{cls_name}.{meth}"
            setattr(cls, meth, self._wrap(vars(cls)[meth], name, self._attrs(name)))

    def write(self, path) -> None:
        with open(path, "w") as f:
            for sid, parent, root, name, t0, t1, extra in sorted(self.spans):
                rec = {"id": sid, "parent": parent, "root": root, "name": name,
                       "start_ns": t0, "end_ns": t1}
                if extra:
                    rec["attrs"] = extra
                f.write(json.dumps(rec) + "\n")


def read_spans(path) -> list[dict]:
    with open(path) as f:
        return [json.loads(line) for line in f]


def top_level_cover_s(spans: list[dict], start_ns: int, end_ns: int) -> float:
    """Seconds covered by root spans inside the [start, end] window."""
    return sum(
        s["end_ns"] - s["start_ns"]
        for s in spans
        if s["parent"] is None and s["start_ns"] >= start_ns and s["end_ns"] <= end_ns
    ) / 1e9


def layer_metrics(spans: list[dict], kinds) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, each derived from span durations and span counts;
    `kinds` are the model kinds that get per-kind metrics."""
    by_id = {s["id"]: s for s in spans}
    child_ns: dict[int, int] = defaultdict(int)
    for s in spans:
        if s["parent"] is not None:
            child_ns[s["parent"]] += s["end_ns"] - s["start_ns"]

    def dur(s):
        return (s["end_ns"] - s["start_ns"]) / 1e9

    def self_s(s):
        return dur(s) - child_ns[s["id"]] / 1e9

    def attr(s, key, default=None):
        return s.get("attrs", {}).get(key, default)

    def inclusive_s(names, where=lambda s: True):
        """Time inside spans of `names`, counting nested ones once."""
        names = set(names)
        total = 0.0
        for s in spans:
            if s["name"] not in names or not where(s):
                continue
            p = s["parent"]
            while p is not None and by_id[p]["name"] not in names:
                p = by_id[p]["parent"]
            if p is None:
                total += dur(s)
        return total

    def named(name, where=lambda s: True):
        return [s for s in spans if s["name"] == name and where(s)]

    m: dict[str, tuple[float, str]] = {}

    def timed(name, metric=None, calls=True):
        metric = metric or name
        m[f"{metric}_s"] = (inclusive_s([name]), "s")
        if calls:
            m[f"{metric}_calls"] = (len(named(name)), "count")

    loads = named("graphcore.load_dataset")
    m["graphcore.load_dataset_s"] = (sum(dur(s) for s in loads), "s")
    m["graphcore.graphs"] = (sum(attr(s, "graphs", 0) for s in loads), "count")

    embeds = named("models.DatasetBatch.embed_all")
    embed_s = sum(dur(s) for s in embeds)
    flops = sum(attr(s, "flops", 0) for s in embeds)
    m["models.embed_all_s"] = (embed_s, "s")
    m["models.embed_all_calls"] = (len(embeds), "count")
    m["models.graphs_embedded"] = (sum(attr(s, "graphs", 0) for s in embeds), "count")
    m["models.flops"] = (flops, "flop-computed")
    m["models.gflop_per_s"] = (flops / embed_s / 1e9 if embed_s else 0.0, "GFLOP/s")
    timed("models.gat_support", calls=False)
    timed("models.make_weights")
    timed("models.ModelSpec.resolved_width", "models.resolved_width")
    timed("models.prepare", calls=False)
    timed("models.static_supports", calls=False)
    m["models.batch_build_s"] = (
        inclusive_s(["models.DatasetBatch.__init__", "models.DatasetBatch.subset"]), "s")
    timed("spectral.build_supports")
    timed("spectral.eig_sym")

    ups = named("harness.undistinguished_pairs")
    m["harness.scan_recheck_s"] = (sum(self_s(s) for s in ups), "s")
    for k in kinds:
        mine = [s for s in ups if attr(s, "kind") == k]
        kind_embeds = [s for s in embeds if attr(s, "kind") == k]
        m[f"harness.undistinguished_pairs_s.{k}"] = (sum(dur(s) for s in mine), "s")
        m[f"harness.scan_recheck_s.{k}"] = (sum(self_s(s) for s in mine), "s")
        m[f"harness.pairs.{k}"] = (sum(attr(s, "pairs", 0) for s in mine), "count")
        m[f"models.embed_all_s.{k}"] = (sum(dur(s) for s in kind_embeds), "s")
        m[f"models.graphs_embedded.{k}"] = (
            sum(attr(s, "graphs", 0) for s in kind_embeds), "count")

    timed("wl.wl1_canonical")
    m["harness.wl_census_self_s"] = (sum(self_s(s) for s in named("harness.wl_census")), "s")
    m["harness.lambda_census_self_s"] = (
        sum(self_s(s) for s in named("harness.lambda_census")), "s")
    timed("wl.wl1_equivalent")
    timed("wl.fwl2_equivalent")
    for dataset, n in (("graph8c", 8), ("sr25", 25)):
        order = lambda s, n=n: attr(s, "n") == n  # noqa: E731
        m[f"wl.fwl2_equivalent_s.{dataset}"] = (
            inclusive_s(["wl.fwl2_equivalent"], order), "s")
        m[f"wl.fwl2_equivalent_calls.{dataset}"] = (
            len(named("wl.fwl2_equivalent", order)), "count")
    for name in ("wl.wl2_equivalent", "wl.fwl3_tensor_statistic", "matlang.parse",
                 "matlang.eval_sentence", "graphlets.custom_sentence"):
        timed(name, calls=False)
    return m
