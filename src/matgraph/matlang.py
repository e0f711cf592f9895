"""Parser, shape checker, fragment checker and evaluator for matrix-language
sentences.

Concrete syntax:

    juxtaposition or ``*``   matrix multiplication
    ``+``                    matrix addition
    postfix ``'``            transpose
    ``diag(e)``              vector -> diagonal matrix
    ``tr(e)``                trace
    ``ones``                 all-ones column vector
    ``had(e1,e2)`` / ``.*``  element-wise multiplication
    ``c * e``                scalar multiplication (numeric literal c)
    ``f:NAME(e)``            pointwise function from a closed registry
    ``e^k``                  matrix power of a square e (integer k >= 1)

A numeric literal may appear only as a factor of ``*`` or juxtaposition.

Operation fragments: L1 = {mul, transpose, ones, diag}; L2 adds trace;
L3 adds hadamard. "Enriched" fragments additionally allow addition, scalar
multiplication and pointwise functions.

A tree is made of `Expr(op, args, param)` nodes. Each operator is one entry
of the `OPS` table, which gives its least fragment, its shape rule and its
value rule; `OpSet.allows`, `shape_check` and `eval_expr` are a lookup in
that table plus recursion. Adding an operator means adding its entry and
its syntax in the parser.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Callable

import numpy as np


class MatLangError(ValueError):
    pass


class ParseError(MatLangError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


class ShapeError(MatLangError):
    pass


POINTWISE_FUNCS = {
    "exp": np.exp,
    "square": lambda x: x * x,
    "reciprocal": lambda x: 1.0 / x,
    "rsqrt": lambda x: 1.0 / np.sqrt(x),
    "binom3": lambda x: x * (x - 1.0) * (x - 2.0) / 6.0,
}


# ---------------------------------------------------------------------------
# AST and operator table


@dataclass(frozen=True)
class Expr:
    """One node: its operator's name in `OPS`, its operands, and the
    operator's parameter (variable name, scalar, exponent or pointwise
    function name)."""

    op: str
    args: tuple[Expr, ...] = ()
    param: str | float | None = None


@dataclass(frozen=True)
class Op:
    """An operator: its least fragment ("L1", "L2", "L3", or "+" for the
    enriched fragments only), its shape rule `(node, n, *arg shapes) ->
    shape`, which raises ShapeError on a clash, and its value rule
    `(node, binding, *arg values) -> 2-d array`."""

    fragment: str
    shape: Callable
    value: Callable


@dataclass(frozen=True)
class OpSet:
    """A language fragment: base L1, L2 or L3, optionally enriched."""

    base: str = "L3"
    enriched: bool = False

    def __post_init__(self):
        if self.base not in ("L1", "L2", "L3"):
            raise ValueError(f"unknown fragment base: {self.base!r}")

    @classmethod
    def named(cls, name: str) -> "OpSet":
        """Fragment by name: "L1".."L3", with a "+" suffix for enrichment."""
        return cls(base=name.rstrip("+"), enriched=name.endswith("+"))

    def allows(self, node: Expr) -> bool:
        least = OPS[node.op].fragment
        # the bases nest, and their names sort in the same order
        return self.enriched if least == "+" else self.base >= least


def _matmul_shape(node, n, s1, s2):
    (r1, c1), (r2, c2) = s1, s2
    if c1 != r2:
        raise ShapeError(f"MatMul: {r1}x{c1} incompatible with {r2}x{c2}")
    return (r1, c2)


def _same_shape(node, n, s1, s2):
    if s1 != s2:
        raise ShapeError(f"{node.op}: operand shapes {s1} != {s2}")
    return s1


def _power_shape(node, n, s):
    if s[0] != s[1]:
        raise ShapeError(f"Power requires a square matrix, got {s[0]}x{s[1]}")
    return s


def _diag_shape(node, n, s):
    if s != (n, 1):
        raise ShapeError(f"Diag requires an {n}x1 vector, got {s[0]}x{s[1]}")
    return (n, n)


def _trace_shape(node, n, s):
    if s != (n, n):
        raise ShapeError(f"Trace requires an {n}x{n} matrix, got {s[0]}x{s[1]}")
    return (1, 1)


def _pointwise_shape(node, n, s):
    if s == (n, n) and n != 1:
        raise ShapeError(
            f"Pointwise {node.param} applies to scalars or vectors, got {s[0]}x{s[1]}"
        )
    return s


def _var_value(node, binding):
    if node.param not in binding:
        raise MatLangError(f"unbound variable {node.param!r}")
    return np.atleast_2d(np.asarray(binding[node.param], dtype=float))


def _ambient_size(binding: dict[str, np.ndarray]) -> int:
    for v in binding.values():
        return np.atleast_2d(np.asarray(v)).shape[0]
    raise MatLangError("cannot infer ambient size: empty binding")


OPS: dict[str, Op] = {
    "Var": Op("L1", lambda e, n: (n, n), _var_value),
    "Ones": Op("L1", lambda e, n: (n, 1), lambda e, b: np.ones((_ambient_size(b), 1))),
    "MatMul": Op("L1", _matmul_shape, lambda e, b, x, y: x @ y),
    "Power": Op("L1", _power_shape, lambda e, b, x: np.linalg.matrix_power(x, e.param)),
    "Transpose": Op("L1", lambda e, n, s: s[::-1], lambda e, b, x: x.T),
    "Diag": Op("L1", _diag_shape, lambda e, b, x: np.diag(x[:, 0])),
    "Trace": Op("L2", _trace_shape, lambda e, b, x: np.trace(x).reshape(1, 1)),
    "Hadamard": Op("L3", _same_shape, lambda e, b, x, y: x * y),
    "Add": Op("+", _same_shape, lambda e, b, x, y: x + y),
    "ScalarMul": Op("+", lambda e, n, s: s, lambda e, b, x: e.param * x),
    "Pointwise": Op("+", _pointwise_shape, lambda e, b, x: POINTWISE_FUNCS[e.param](x)),
}


# ---------------------------------------------------------------------------
# Parser


def _lex(t: str) -> list[tuple[str, str | float, int]]:
    """(kind, value, position) tokens of `t`, ending with an "end" token."""
    tokens = []
    i = 0
    while i < len(t):
        c = t[i]
        if c.isspace():
            i += 1
            continue
        if c.isdigit() or (
            c == "-" and i + 1 < len(t) and (t[i + 1].isdigit() or t[i + 1] == ".")
        ):
            j = i + 1
            while j < len(t) and (t[j].isdigit() or t[j] in ".eE" or
                                  (t[j] in "+-" and t[j - 1] in "eE")):
                j += 1
            try:
                val = float(t[i:j])
            except ValueError:
                raise ParseError(f"bad numeric literal {t[i:j]!r}", i)
            tokens.append(("num", val, i))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i + 1
            while j < len(t) and (t[j].isalnum() or t[j] == "_"):
                j += 1
            tokens.append(("name", t[i:j], i))
            i = j
            continue
        if t.startswith(".*", i):
            tokens.append(("op", ".*", i))
            i += 2
            continue
        if c in "'^+*(),:":
            tokens.append(("op", c, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {c!r}", i)
    tokens.append(("end", "", len(t)))
    return tokens


# call syntax -> (operator, number of arguments)
_CALLS = {"diag": ("Diag", 1), "tr": ("Trace", 1), "had": ("Hadamard", 2)}


@dataclass(frozen=True)
class _Lit:
    """A numeric literal as parsed; only `_combine_mul` turns it into a node."""

    value: float
    pos: int


class _Parser:
    def __init__(self, text: str):
        self.toks = _lex(text)
        self.i = 0

    def peek(self):
        return self.toks[self.i]

    def next(self):
        tok = self.toks[self.i]
        self.i += 1
        return tok

    def expect(self, value: str):
        kind, val, pos = self.next()
        if kind != "op" or val != value:
            raise ParseError(f"expected {value!r}, got {val!r}", pos)

    @staticmethod
    def matrix(e: Expr | _Lit) -> Expr:
        """`e`, unless it is a literal standing where a matrix must."""
        if isinstance(e, _Lit):
            raise ParseError("a numeric literal can only scale a matrix expression", e.pos)
        return e

    def parse(self) -> Expr:
        e = self.expr()
        kind, val, pos = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected trailing token {val!r}", pos)
        return self.matrix(e)

    def expr(self) -> Expr | _Lit:
        e = self.term()
        while self.peek()[:2] == ("op", "+"):
            self.next()
            e = Expr("Add", (self.matrix(e), self.matrix(self.term())))
        return e

    def term(self) -> Expr | _Lit:
        e = self.unit()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val == "*":
                self.next()
                e = self._combine_mul(e, self.unit())
            elif kind == "op" and val == ".*":
                self.next()
                e = Expr("Hadamard", (self.matrix(e), self.matrix(self.unit())))
            elif kind in ("name", "num") or (kind, val) == ("op", "("):
                e = self._combine_mul(e, self.unit())
            else:
                return e

    def _combine_mul(self, left: Expr | _Lit, right: Expr | _Lit) -> Expr:
        if isinstance(left, _Lit):
            return Expr("ScalarMul", (self.matrix(right),), left.value)
        if isinstance(right, _Lit):
            return Expr("ScalarMul", (left,), right.value)
        return Expr("MatMul", (left, right))

    def unit(self) -> Expr | _Lit:
        e = self.atom()
        while True:
            kind, val, _ = self.peek()
            if kind != "op" or val not in ("'", "^"):
                return e
            self.next()
            e = self.matrix(e)
            if val == "'":
                e = Expr("Transpose", (e,))
                continue
            kind, k, kpos = self.next()
            if kind != "num" or not k.is_integer() or k < 1:
                raise ParseError("power must be an integer >= 1", kpos)
            if k > 1:
                e = Expr("Power", (e,), int(k))

    def atom(self) -> Expr | _Lit:
        kind, val, pos = self.next()
        if kind == "num":
            return _Lit(val, pos)
        if kind == "op" and val == "(":
            e = self.expr()
            self.expect(")")
            return e
        if kind != "name":
            raise ParseError(f"unexpected token {val!r}", pos)
        if val == "ones":
            return Expr("Ones")
        if val in _CALLS:
            op, arity = _CALLS[val]
            return Expr(op, self.call_args(arity))
        if val == "f":
            self.expect(":")
            kind, fname, fpos = self.next()
            if kind != "name":
                raise ParseError("expected pointwise function name", fpos)
            if fname not in POINTWISE_FUNCS:
                raise ParseError(f"unknown pointwise function {fname!r}", fpos)
            return Expr("Pointwise", self.call_args(1), fname)
        return Expr("Var", (), val)

    def call_args(self, arity: int) -> tuple[Expr, ...]:
        """The `arity` parenthesised, comma-separated arguments of a call."""
        args = []
        for i in range(arity):
            self.expect("," if i else "(")
            args.append(self.matrix(self.expr()))
        self.expect(")")
        return tuple(args)


def parse(text: str) -> Expr:
    return _Parser(text).parse()


# ---------------------------------------------------------------------------
# Shape checking


def shape_check(e: Expr, n: int) -> tuple[int, int]:
    """Return the shape of the root; raises ShapeError on a dimension clash.

    Shapes are drawn from {n x n, n x 1, 1 x n, 1 x 1}.
    """
    if n < 1:
        raise ValueError("ambient size n must be >= 1")

    def rec(node: Expr) -> tuple[int, int]:
        return OPS[node.op].shape(node, n, *map(rec, node.args))

    return rec(e)


def fragment_check(e: Expr, opset: OpSet) -> bool:
    """True iff every operator in the AST is permitted by the fragment."""
    return opset.allows(e) and all(fragment_check(a, opset) for a in e.args)


# ---------------------------------------------------------------------------
# Evaluation


def eval_expr(e: Expr, binding: dict[str, np.ndarray]) -> np.ndarray:
    """Compositional evaluation in IEEE double precision.

    All values are 2-d arrays; sentences evaluate to a 1x1 array.
    """
    return OPS[e.op].value(e, binding, *(eval_expr(a, binding) for a in e.args))


def eval_sentence(e: Expr, A: np.ndarray) -> float:
    """Evaluate a sentence on an adjacency (or any square) matrix A."""
    n = np.asarray(A).shape[0]
    if shape_check(e, n) != (1, 1):
        raise ShapeError("expression is not a sentence (result is not 1x1)")
    return float(eval_expr(e, {"A": np.asarray(A, dtype=float)})[0, 0])


# ---------------------------------------------------------------------------
# Sentence corpora for property tests


def sentence_corpus(
    base: str = "L1", max_depth: int = 4, limit: int = 500
) -> list[Expr]:
    """Enumerate shape-valid sentences of bounded depth in a fragment.

    Building blocks are the variable A, ones, matrix multiplication,
    transpose and diag; L2 adds trace and L3 adds hadamard. Enumeration is
    capped at `limit` sentences to bound test runtime.
    """
    # seed expressions keyed by abstract shape: "nn", "n1", "1n", "11"
    by_shape: dict[str, list[Expr]] = {
        "nn": [Expr("Var", (), "A")],
        "n1": [Expr("Ones")],
        "1n": [],
        "11": [],
    }
    swap = {"nn": "nn", "n1": "1n", "1n": "n1", "11": "11"}

    seen = {e for shape in by_shape.values() for e in shape}
    cap = 4 * limit  # expressions kept per shape

    def add(s: str, e: Expr) -> None:
        if e not in seen and len(by_shape[s]) < cap:
            seen.add(e)
            by_shape[s].append(e)

    for _ in range(max_depth):
        snapshot = {k: list(v) for k, v in by_shape.items()}
        for s, exprs in snapshot.items():
            for e in exprs:
                add(swap[s], Expr("Transpose", (e,)))
                if s == "n1":
                    add("nn", Expr("Diag", (e,)))
                if s == "nn" and base in ("L2", "L3"):
                    add("11", Expr("Trace", (e,)))
        for s1, exprs1 in snapshot.items():
            for s2, exprs2 in snapshot.items():
                if s1[1] != s2[0]:
                    continue
                s = s1[0] + s2[1]
                ops = ("MatMul", "Hadamard") if s1 == s2 and base == "L3" else ("MatMul",)
                for op in ops:
                    for e1, e2 in product(exprs1, exprs2):
                        if len(by_shape[s]) >= cap:
                            break
                        add(s, Expr(op, (e1, e2)))
        if len(by_shape["11"]) >= limit:
            break
    return by_shape["11"][:limit]
