"""Strong power graph construction and unweighted graph machinery.

Adjacency is stored as one integer bitmask per vertex, so edge tests,
power-set intersections and BFS frontiers are all bitwise operations.
"""

from __future__ import annotations

import math
from typing import Iterable, Optional, Sequence

from .exactalg import IntMatrix
from .groups import CyclicGroup, GroupSpec

__all__ = [
    "SimpleGraph",
    "DisconnectedGraph",
    "strong_power_graph",
    "strong_power_graph_structural",
    "adjacency_matrix",
    "distance_matrix",
    "diameter",
    "is_connected",
    "is_complete",
    "components",
    "to_dot",
    "matrix_to_csv",
]


class DisconnectedGraph(ValueError):
    """Raised when an operation needs a connected graph; carries the components."""

    def __init__(self, comps: Sequence[Sequence[int]]):
        self.components = tuple(tuple(sorted(c)) for c in comps)
        super().__init__(
            f"graph is disconnected: {len(self.components)} components "
            + ", ".join(str(list(c)) for c in self.components)
        )


class SimpleGraph:
    """Undirected loop-free graph on vertices 0..n-1."""

    __slots__ = ("n", "masks")

    def __init__(self, n: int, masks: Sequence[int]):
        if n < 1:
            raise ValueError("graph needs at least one vertex")
        if len(masks) != n:
            raise ValueError(f"expected {n} adjacency masks, got {len(masks)}")
        masks = tuple(int(m) for m in masks)
        for v, mask in enumerate(masks):
            if mask >> n:
                raise ValueError(f"mask of vertex {v} references vertices >= {n}")
            if mask & (1 << v):
                raise ValueError(f"self-loop at vertex {v}")
        for u in range(n):
            for v in range(u + 1, n):
                if bool(masks[u] & (1 << v)) != bool(masks[v] & (1 << u)):
                    raise ValueError(f"asymmetric adjacency between {u} and {v}")
        self.n = n
        self.masks = masks

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "SimpleGraph":
        masks = [0] * n
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        return cls(n, masks)

    @classmethod
    def complete(cls, n: int) -> "SimpleGraph":
        full = (1 << n) - 1
        return cls(n, [full ^ (1 << v) for v in range(n)])

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.masks[u] & (1 << v))

    def neighbors(self, v: int) -> set[int]:
        return _bits(self.masks[v])

    def degree(self, v: int) -> int:
        return self.masks[v].bit_count()

    def edges(self) -> list[tuple[int, int]]:
        out = []
        for u in range(self.n):
            rest = self.masks[u] >> (u + 1)
            v = u + 1
            while rest:
                if rest & 1:
                    out.append((u, v))
                rest >>= 1
                v += 1
        return out

    def edge_count(self) -> int:
        return sum(m.bit_count() for m in self.masks) // 2

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, SimpleGraph) and self.n == other.n and self.masks == other.masks
        )

    def __hash__(self) -> int:
        return hash((self.n, self.masks))

    def __repr__(self) -> str:
        return f"SimpleGraph(n={self.n}, edges={self.edge_count()})"


def _bits(mask: int) -> set[int]:
    out = set()
    v = 0
    while mask:
        if mask & 1:
            out.add(v)
        mask >>= 1
        v += 1
    return out


def strong_power_graph(g: GroupSpec) -> SimpleGraph:
    """Strong power graph of g, built from the definition.

    Distinct x, y are adjacent iff some positive powers below |G| coincide,
    i.e. the power sets {x^k : 1 <= k <= n-1} and {y^k : 1 <= k <= n-1}
    intersect.  Power sets are cached per element as bitmasks.
    """
    n = g.order
    power_masks = []
    for a in range(n):
        mask, current = 0, a
        for _ in range(n - 1):
            mask |= 1 << current
            current = g.op(current, a)
            if current == a:  # the remaining powers only repeat this cycle
                break
        power_masks.append(mask)
    adj = [0] * n
    for x in range(n):
        for y in range(x + 1, n):
            if power_masks[x] & power_masks[y]:
                adj[x] |= 1 << y
                adj[y] |= 1 << x
    return SimpleGraph(n, adj)


def strong_power_graph_structural(g: GroupSpec) -> SimpleGraph:
    """Fast structural construction of the strong power graph.

    Noncyclic groups give the complete graph.  For a cyclic group of order
    n, the non-identity vertices form a clique and the identity is joined
    to exactly the non-generators; in the standard Z_n indexing these are
    the nonzero m with gcd(m, n) != 1.  The definitional constructor
    remains the source of truth; equivalence is enforced by tests.
    """
    n = g.order
    if not g.is_cyclic():
        return SimpleGraph.complete(n)
    if isinstance(g, CyclicGroup):
        non_generators = [m for m in range(1, n) if math.gcd(m, n) != 1]
    else:
        non_generators = [a for a in range(1, n) if g.element_order(a) != n]
    full = (1 << n) - 1
    masks = [full ^ 1 ^ (1 << v) for v in range(n)]  # clique on 1..n-1
    masks[0] = 0
    for m in non_generators:
        masks[0] |= 1 << m
        masks[m] |= 1
    return SimpleGraph(n, masks)


def adjacency_matrix(graph: SimpleGraph) -> IntMatrix:
    """0/1 symmetric matrix with zero diagonal."""
    n = graph.n
    return IntMatrix(
        [[1 if graph.has_edge(i, j) else 0 for j in range(n)] for i in range(n)]
    )


def _bfs_distances(graph: SimpleGraph, source: int) -> list[int]:
    n = graph.n
    dist = [-1] * n
    visited = frontier = 1 << source
    d = 0
    while frontier:
        for v in _bits(frontier):
            dist[v] = d
        reached = 0
        for v in _bits(frontier):
            reached |= graph.masks[v]
        frontier = reached & ~visited
        visited |= frontier
        d += 1
    return dist


def components(graph: SimpleGraph) -> list[list[int]]:
    """Connected components, each sorted, ordered by smallest vertex."""
    seen = 0
    out = []
    full = (1 << graph.n) - 1
    while seen != full:
        start = _lowest_unset(seen, graph.n)
        dist = _bfs_distances(graph, start)
        comp = [v for v, d in enumerate(dist) if d >= 0]
        for v in comp:
            seen |= 1 << v
        out.append(comp)
    return out


def _lowest_unset(mask: int, n: int) -> int:
    for v in range(n):
        if not mask & (1 << v):
            return v
    raise ValueError("mask is full")


def is_connected(graph: SimpleGraph) -> bool:
    return all(d >= 0 for d in _bfs_distances(graph, 0))


def is_complete(graph: SimpleGraph) -> bool:
    full = (1 << graph.n) - 1
    return all(graph.masks[v] == full ^ (1 << v) for v in range(graph.n))


def distance_matrix(graph: SimpleGraph) -> IntMatrix:
    """All-pairs shortest path lengths via BFS from every vertex."""
    rows = []
    for v in range(graph.n):
        dist = _bfs_distances(graph, v)
        if any(d < 0 for d in dist):
            raise DisconnectedGraph(components(graph))
        rows.append(dist)
    return IntMatrix(rows)


def diameter(graph: SimpleGraph) -> int:
    """Largest vertex-to-vertex distance; requires a connected graph."""
    best = 0
    for v in range(graph.n):
        dist = _bfs_distances(graph, v)
        if any(d < 0 for d in dist):
            raise DisconnectedGraph(components(graph))
        best = max(best, max(dist))
    return best


def to_dot(graph: SimpleGraph, labels: Optional[Sequence[str]] = None) -> str:
    """Graphviz DOT text for the graph, one vertex/edge per line."""
    lines = ["graph G {"]
    for v in range(graph.n):
        name = labels[v] if labels is not None else str(v)
        name = name.replace("\\", "\\\\").replace('"', '\\"')
        lines.append(f'  {v} [label="{name}"];')
    for u, v in graph.edges():
        lines.append(f"  {u} -- {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def matrix_to_csv(matrix: IntMatrix) -> str:
    """Rows of comma-separated integers, one line per row."""
    return "\n".join(",".join(str(v) for v in row) for row in matrix.rows) + "\n"
