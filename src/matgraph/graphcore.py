"""Graph representation, datasets, graph6/edge-list ingestion and Laplacian builders.

A graph is its adjacency alone: every node's input to the models is its
degree, the paper's first colour H^(1) = A 1.

A `Dataset` is an immutable sequence of graphs that groups them by order
once: each order's ascending positions and `(B, n, n)` float adjacency
stack, and a memo of whole-dataset key-rung values (`harness.CENSUS` rung
name -> a read-only array of one class label per graph). `load_dataset`
returns one whose stacks are the decoder's arrays, which its graphs are
views of, so loading copies nothing; one built from a plain list stacks
it once. Every layer reads
the stacks from it: the WL engine (`wl.signatures`), the lambda-max
rung and the model engine (`models.DatasetBatch`), and a census run twice
on one dataset labels each base rung once. As nothing can be added,
replaced or removed, the memo cannot go stale.
"""

from __future__ import annotations

import json
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

DATASET_FORMATS = ("graph6", "edgelist-json")


class GraphFormatError(ValueError):
    """Raised when a graph file or graph6 string cannot be decoded."""


@dataclass(frozen=True, eq=False)
class Graph:
    """Simple undirected graph stored as a dense symmetric 0/1 adjacency.

    Immutable after construction; safe to share across threads. Graphs
    compare and hash by identity: `==` on the array field would raise.
    """

    adjacency: np.ndarray

    def __post_init__(self):
        # a copy: the graph's array is made read-only, the caller's stays as it was
        A = np.array(self.adjacency, dtype=float)
        _check_adjacency(A, 2)
        A.setflags(write=False)
        object.__setattr__(self, "adjacency", A)

    @property
    def n(self) -> int:
        return self.adjacency.shape[0]

    @property
    def num_edges(self) -> int:
        return int(self.adjacency.sum()) // 2

    @classmethod
    def from_edges(cls, n: int, edges) -> "Graph":
        A = np.zeros((n, n))
        for u, v in edges:
            if not (_is_node(u, n) and _is_node(v, n)) or u == v:
                raise ValueError(f"invalid edge ({u},{v}) for n={n}")
            A[u, v] = A[v, u] = 1.0
        return cls(A)

    @classmethod
    def _views(cls, A: np.ndarray) -> list["Graph"]:
        """One graph per matrix of a `(B, n, n)` float stack that has passed
        `_check_adjacency`: read-only views of the stack, built without a
        second per-graph check."""
        A.setflags(write=False)
        graphs = []
        for a in A:
            G = object.__new__(cls)
            object.__setattr__(G, "adjacency", a)
            graphs.append(G)
        return graphs


def _check_adjacency(A: np.ndarray, ndim: int) -> None:
    """Raise ValueError unless `A`, with `ndim` axes, holds n x n matrices
    (n >= 1) that are symmetric, 0/1 and zero on the diagonal: one
    adjacency for ndim 2, a `(B, n, n)` stack for ndim 3."""
    if A.ndim != ndim or A.shape[-1] != A.shape[-2] or A.shape[-1] < 1:
        raise ValueError("adjacency must be a square matrix with n >= 1")
    if not np.array_equal(A, A.swapaxes(-1, -2)):
        raise ValueError("adjacency must be symmetric")
    if np.diagonal(A, axis1=-2, axis2=-1).any():
        raise ValueError("adjacency must have zero diagonal")
    if not ((A == 0) | (A == 1)).all():
        raise ValueError("adjacency entries must be 0 or 1")


def _is_node(x, n: int) -> bool:
    """True iff x is an integer (not a bool or a float) in 0..n-1."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool) and 0 <= x < n


def _graph6_order(data: bytes) -> tuple[int, int]:
    """Order n >= 1 and header length of a graph6 string: one byte n + 63
    for n <= 62, else `~` and n in three big-endian 6-bit groups."""
    if data[0] != 126:
        n, head = data[0] - 63, 1
    elif data[1:2] == b"~":
        raise GraphFormatError("graph6 headers for n > 258047 are not supported")
    elif len(data) < 4:
        raise GraphFormatError("truncated graph6 header")
    else:
        n, head = ((data[1] - 63) << 12) | ((data[2] - 63) << 6) | (data[3] - 63), 4
    if n < 1:
        raise GraphFormatError("graph6 order 0: a graph needs n >= 1")
    return n, head


class _BadLine(GraphFormatError):
    """A graph6 line that fails a check: `index` is its position in the
    lines handed to `_graph6_stack`."""

    def __init__(self, index: int, message: str):
        super().__init__(message)
        self.index = index


def _graph6_stack(lines: list[bytes]) -> np.ndarray:
    """Decode stripped graph6 lines that share one header into one
    `(B, n, n)` float adjacency stack, checked once.

    Every line is checked at once: characters in [63,126], a supported
    header of order n >= 1, the payload length n needs and zero trailing
    bits. The first line that fails raises `_BadLine` with the message of
    the first check it fails, in that order.
    """
    B = len(lines)
    width = max(map(len, lines))
    # `?` pads the shorter lines: in range, and wrong-length lines fail anyway
    rows = np.frombuffer(b"".join(s.ljust(width, b"?") for s in lines), np.uint8)
    rows = rows.reshape(B, width)
    outside = (rows < 63) | (rows > 126)
    lengths = np.fromiter(map(len, lines), np.int64, B)
    bad = outside.any(axis=1)
    try:
        n, head = _graph6_order(lines[0])
        header_error = None
    except GraphFormatError as e:
        header_error = str(e)
        bad[:] = True
    else:
        nbits = n * (n - 1) // 2
        need = (nbits + 5) // 6
        bad |= lengths != head + need
        trailing = 6 * need - nbits
        if trailing and head + need <= width:
            bad |= ((rows[:, head + need - 1] - 63) & ((1 << trailing) - 1)) != 0
    if bad.any():
        i = int(bad.argmax())
        off = np.flatnonzero(outside[i])
        if off.size:
            message = f"character outside [63,126] at byte offset {off[0]}"
        elif header_error is not None:
            message = header_error
        elif lengths[i] != head + need:
            message = (f"payload length {lengths[i] - head} does not match n={n} "
                       f"(expected {need})")
        else:
            message = f"nonzero trailing bits at byte offset {head + nbits // 6}"
        raise _BadLine(i, message)
    # each payload byte holds 6 bits, most significant first
    bits = np.unpackbits(rows[:, head:] - 63, axis=1).reshape(B, need, 8)[:, :, 2:]
    bits = bits.reshape(B, 6 * need)[:, :nbits]
    j, i = np.tril_indices(n, -1)  # the upper triangle (i, j) in column order
    A = np.zeros((B, n, n))
    A[:, i, j] = bits
    A[:, j, i] = bits
    _check_adjacency(A, 3)
    return A


# the ASCII characters that str.strip() removes
_BLANK = b" \t\n\r\x0b\x0c\x1c\x1d\x1e\x1f"


def graph6_lines(path: str) -> list[tuple[int, bytes]]:
    """`(line number, stripped line)` of every non-blank line of a graph6
    file, read as bytes; lines end at `\\n`, `\\r\\n` or `\\r`."""
    with open(path, "rb") as f:
        lines = f.read().splitlines()
    return [(lineno, s) for lineno, s in enumerate((line.strip(_BLANK) for line in lines), 1)
            if s]


def parse_graph6(text: str | bytes) -> Graph:
    """Decode one graph6 line (node counts up to 258047): the one-line
    case of `load_dataset`'s stack decoder."""
    s = (text.encode() if isinstance(text, str) else text).strip(_BLANK)
    if not s:
        raise GraphFormatError("empty graph6 string")
    return Graph._views(_graph6_stack([s]))[0]


def encode_graph6(G: Graph) -> str:
    """Inverse of parse_graph6 (used for round-trip checks)."""
    n = G.n
    if n > 258047:
        raise GraphFormatError("only n <= 258047 supported")
    bits = []
    for j in range(1, n):
        for i in range(j):
            bits.append(int(G.adjacency[i, j]))
    while len(bits) % 6:
        bits.append(0)
    if n <= 62:
        chars = [chr(n + 63)]
    else:
        chars = ["~"] + [chr((n >> shift & 63) + 63) for shift in (12, 6, 0)]
    for k in range(0, len(bits), 6):
        v = 0
        for b in bits[k : k + 6]:
            v = (v << 1) | b
        chars.append(chr(v + 63))
    return "".join(chars)


def laplacian(G: Graph | np.ndarray) -> np.ndarray:
    """Normalized graph Laplacian I - D^{-1/2} A D^{-1/2} of a graph or of
    every adjacency in a (..., n, n) stack.

    Isolated nodes get a pseudo-inverse scaling entry of 0, which keeps the
    Laplacian symmetric positive semidefinite.
    """
    A = G.adjacency if isinstance(G, Graph) else G
    d = A.sum(axis=-1)
    with np.errstate(divide="ignore"):
        dinv = np.where(d > 0, 1.0 / np.sqrt(np.where(d > 0, d, 1.0)), 0.0)
    return np.eye(A.shape[-1]) - dinv[..., :, None] * A * dinv[..., None, :]


def order_stacks(graphs: list[Graph]):
    """Yield `(positions, A)` once per order n, orders in first-appearance
    order: the ascending positions in `graphs` of the graphs of order n
    and their `(B, n, n)` float adjacency stack.

    A generator, so that a caller can hold one order's stack at a time
    (a `Dataset` keeps them all). Call it on the calling thread, not in
    tile tasks: a tracer may wrap public names with a wrapper that is not
    thread-safe.
    """
    by_order: dict[int, list[int]] = {}
    for i, G in enumerate(graphs):
        by_order.setdefault(len(G.adjacency), []).append(i)
    for idx in by_order.values():
        yield np.array(idx), np.array([graphs[i].adjacency for i in idx])


class Dataset(Sequence):
    """An immutable sequence of graphs with each order's stack built once.

    `stacks` holds `(positions, A)` per order, in first-appearance order:
    the graphs' ascending positions and their read-only `(B, n, n)` float
    adjacency stack, as `order_stacks` yields them. `memo` keeps
    whole-dataset values by name, each a read-only array. Indexing gives
    a `Graph`, a slice a plain list of them; item assignment and `append`
    do not exist.
    """

    def __init__(self, graphs: Iterable[Graph] = ()):
        graphs = tuple(graphs)
        self._set(graphs, list(order_stacks(graphs)))

    def _set(self, graphs: tuple, stacks: list) -> None:
        for pos, A in stacks:
            pos.setflags(write=False)
            A.setflags(write=False)
        self._graphs, self.stacks = graphs, tuple(stacks)
        self._memo: dict = {}

    @classmethod
    def _of_stacks(cls, graphs: tuple, stacks: list) -> "Dataset":
        """A dataset of `graphs` whose stacks, `(positions, A)` per order in
        first-appearance order, are already built."""
        dataset = cls.__new__(cls)
        dataset._set(graphs, stacks)
        return dataset

    @classmethod
    def of(cls, graphs: Sequence[Graph]) -> "Dataset":
        """`graphs` if it is a dataset, else a new one of them."""
        return graphs if isinstance(graphs, cls) else cls(graphs)

    def __len__(self) -> int:
        return len(self._graphs)

    def __getitem__(self, i):
        return list(self._graphs[i]) if isinstance(i, slice) else self._graphs[i]

    def __iter__(self):
        return iter(self._graphs)

    def memo(self, name: str, values: Callable[["Dataset"], np.ndarray]) -> np.ndarray:
        """`values(self)` as a read-only array, computed on the first call
        for `name` and kept: one value per graph, e.g. a key rung's labels."""
        if name not in self._memo:
            self._memo[name] = np.array(values(self))
            self._memo[name].setflags(write=False)
        return self._memo[name]


def load_dataset(path: str, format: str = "graph6") -> Dataset:
    """The graphs of a graph6 or edge-list JSON file; raises GraphFormatError if none.

    A graph6 file's graphs are read-only views of one stack per order,
    which become the dataset's stacks."""
    if format == "graph6":
        # one decode per header: all lines of one header have one order
        groups: dict[bytes, list[int]] = {}
        entries = graph6_lines(path)
        for k, (_, s) in enumerate(entries):
            groups.setdefault(s[:4] if s[0] == 126 else s[:1], []).append(k)
        by_order: dict[int, list[tuple[np.ndarray, np.ndarray]]] = {}
        errors = []
        for members in groups.values():
            try:
                A = _graph6_stack([entries[k][1] for k in members])
            except _BadLine as e:
                errors.append((entries[members[e.index]][0], str(e)))
                continue
            by_order.setdefault(A.shape[-1], []).append((np.array(members), A))
        if errors:
            lineno, message = min(errors)
            raise GraphFormatError(f"{path}:{lineno}: {message}")
        graphs: list = [None] * len(entries)
        stacks = []
        for parts in by_order.values():
            pos, A = parts[0]
            if len(parts) > 1:  # an order written with two headers: "~??D" is n = 5
                pos = np.concatenate([p for p, _ in parts])
                order = np.argsort(pos)
                pos, A = pos[order], np.concatenate([a for _, a in parts])[order]
            for k, G in zip(pos.tolist(), Graph._views(A)):
                graphs[k] = G
            stacks.append((pos, A))  # orders in first-appearance order, as their headers
        dataset = Dataset._of_stacks(tuple(graphs), stacks)
    elif format == "edgelist-json":
        with open(path) as f:
            try:
                records = json.load(f)
            except json.JSONDecodeError as e:
                raise GraphFormatError(f"{path}: {e}") from e
        if not isinstance(records, list):
            raise GraphFormatError(f"{path}: expected a JSON array of records")
        graphs = []
        for i, rec in enumerate(records):
            try:
                graphs.append(Graph.from_edges(rec["n"], rec["edges"]))
            except (KeyError, TypeError, ValueError) as e:
                raise GraphFormatError(f"{path}: record {i}: {e}") from e
            except MemoryError as e:
                raise MemoryError(f"{path}: record {i}: {e}") from e
        dataset = Dataset(graphs)
    else:
        raise ValueError(f"unknown dataset format: {format!r}")
    if not len(dataset):
        raise GraphFormatError(f"{path} has no graphs")
    return dataset
