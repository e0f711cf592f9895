"""Graph representation, graph6/edge-list ingestion and Laplacian builders."""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

DATASET_FORMATS = ("graph6", "edgelist-json")


class GraphFormatError(ValueError):
    """Raised when a graph file or graph6 string cannot be decoded."""


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph stored as a dense symmetric 0/1 adjacency.

    Immutable after construction; safe to share across threads.
    """

    adjacency: np.ndarray
    node_features: np.ndarray | None = field(default=None)

    def __post_init__(self):
        A = np.asarray(self.adjacency, dtype=float)
        if A.ndim != 2 or A.shape[0] != A.shape[1] or A.shape[0] < 1:
            raise ValueError("adjacency must be a square matrix with n >= 1")
        if not np.array_equal(A, A.T):
            raise ValueError("adjacency must be symmetric")
        if np.diag(A).any():
            raise ValueError("adjacency must have zero diagonal")
        if not np.isin(A, (0.0, 1.0)).all():
            raise ValueError("adjacency entries must be 0 or 1")
        A.setflags(write=False)
        object.__setattr__(self, "adjacency", A)
        if self.node_features is not None:
            X = np.asarray(self.node_features, dtype=float)
            if X.ndim != 2 or X.shape[0] != A.shape[0]:
                raise ValueError("node_features row count must equal n")
            X.setflags(write=False)
            object.__setattr__(self, "node_features", X)

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


def _is_node(x, n: int) -> bool:
    """True iff x is an integer (not a bool or a float) in 0..n-1."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool) and 0 <= x < n


def _graph6_order(data: bytes) -> tuple[int, int]:
    """Order n and header length of a graph6 string: one byte n + 63 for
    n <= 62, else `~` and n in three big-endian 6-bit groups."""
    if data[0] != 126:
        return data[0] - 63, 1
    if data[1:2] == b"~":
        raise GraphFormatError("graph6 headers for n > 258047 are not supported")
    if len(data) < 4:
        raise GraphFormatError("truncated graph6 header")
    return ((data[1] - 63) << 12) | ((data[2] - 63) << 6) | (data[3] - 63), 4


def parse_graph6(text: str) -> Graph:
    """Decode one graph6 line (node counts up to 258047)."""
    s = text.strip()
    if not s:
        raise GraphFormatError("empty graph6 string")
    data = s.encode("ascii", errors="replace")
    for off, b in enumerate(data):
        if not 63 <= b <= 126:
            raise GraphFormatError(f"character outside [63,126] at byte offset {off}")
    n, head = _graph6_order(data)
    if n < 1:
        raise GraphFormatError("graph6 order 0: a graph needs n >= 1")
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    if len(data) - head != need:
        raise GraphFormatError(
            f"payload length {len(data) - head} does not match n={n} (expected {need})"
        )
    bits = []
    for b in data[head:]:
        v = b - 63
        bits.extend((v >> k) & 1 for k in range(5, -1, -1))
    if any(bits[nbits:]):
        off = head + nbits // 6
        raise GraphFormatError(f"nonzero trailing bits at byte offset {off}")
    A = np.zeros((n, n))
    k = 0
    for j in range(1, n):  # upper triangle in column order
        for i in range(j):
            if bits[k]:
                A[i, j] = A[j, i] = 1.0
            k += 1
    return Graph(A)


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


def degree_vector(G: Graph) -> np.ndarray:
    """Row sums of the adjacency, as an n x 1 column."""
    return G.adjacency.sum(axis=1, keepdims=True)


def laplacian(G: Graph | np.ndarray, kind: str = "normalized") -> np.ndarray:
    """Graph Laplacian: D - A, or I - D^{-1/2} A D^{-1/2}, of a graph or of
    every adjacency in a (..., n, n) stack.

    Isolated nodes get a pseudo-inverse scaling entry of 0, which keeps the
    normalized Laplacian symmetric positive semidefinite.
    """
    A = G.adjacency if isinstance(G, Graph) else G
    I = np.eye(A.shape[-1])
    d = A.sum(axis=-1)
    if kind == "combinatorial":
        return I * d[..., :, None] - A
    if kind == "normalized":
        with np.errstate(divide="ignore"):
            dinv = np.where(d > 0, 1.0 / np.sqrt(np.where(d > 0, d, 1.0)), 0.0)
        return I - dinv[..., :, None] * A * dinv[..., None, :]
    raise ValueError(f"unknown laplacian kind: {kind!r}")


def order_stacks(graphs: list[Graph]):
    """Yield `(positions, A)` once per order n, orders in first-appearance
    order: the ascending positions in `graphs` of the graphs of order n
    and their `(B, n, n)` float adjacency stack.

    A generator, so that a caller holds one order's stack at a time. Call
    it on the calling thread, not in tile tasks: a tracer may wrap public
    names with a wrapper that is not thread-safe.
    """
    by_order: dict[int, list[int]] = {}
    for i, G in enumerate(graphs):
        by_order.setdefault(G.n, []).append(i)
    for idx in by_order.values():
        yield np.array(idx), np.stack([graphs[i].adjacency for i in idx])


def load_dataset(path: str, format: str = "graph6") -> list[Graph]:
    """Load a list of graphs from a graph6 file or an edge-list JSON file."""
    if format == "graph6":
        graphs = []
        with open(path) as f:
            for lineno, line in enumerate(f, start=1):
                if not line.strip():
                    continue
                try:
                    graphs.append(parse_graph6(line))
                except GraphFormatError as e:
                    raise GraphFormatError(f"{path}:{lineno}: {e}") from e
        return graphs
    if format == "edgelist-json":
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
        return graphs
    raise ValueError(f"unknown dataset format: {format!r}")
