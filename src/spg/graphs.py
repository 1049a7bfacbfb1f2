"""Strong power graph construction and unweighted graph machinery.

A graph is a read-only n x n boolean adjacency array.  The builder walks the
powers of every element at once through the group's broadcastable law, and
adjacency, distances and components come from boolean matrix products: the
power sets meet where (powers @ powers.T) > 0, and the BFS advances every
source by one level per product.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from .exactalg import IntMatrix
from .groups import GroupSpec

__all__ = [
    "SimpleGraph",
    "DisconnectedGraph",
    "strong_power_graph",
    "adjacency_matrix",
    "distance_matrix",
    "diameter",
    "is_connected",
    "is_complete",
    "components",
    "to_dot",
    "matrix_to_csv",
]

# float32 holds every integer below 2^24 exactly, so a 0/1 matrix product
# whose inner dimension is below it counts without rounding
_FLOAT32_EXACT = 2**24


class DisconnectedGraph(ValueError):
    """Raised when an operation needs a connected graph; carries the components."""

    def __init__(self, comps: Sequence[Sequence[int]]):
        self.components = tuple(tuple(sorted(c)) for c in comps)
        super().__init__(
            f"graph is disconnected: {len(self.components)} components "
            + ", ".join(str(list(c)) for c in self.components)
        )


class SimpleGraph:
    """Undirected loop-free graph on vertices 0..n-1, held as a read-only
    n x n boolean adjacency array `adj`."""

    __slots__ = ("n", "adj")

    def __init__(self, adjacency):
        adj = np.asarray(adjacency)
        if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
            raise ValueError(f"adjacency must be a square matrix, got shape {adj.shape}")
        if adj.shape[0] < 1:
            raise ValueError("graph needs at least one vertex")
        if adj.dtype != bool and not np.isin(adj, (0, 1)).all():
            raise ValueError("adjacency entries must be 0 or 1")
        adj = adj.astype(bool)  # a private copy
        loops = np.flatnonzero(adj.diagonal())
        if loops.size:
            raise ValueError(f"self-loop at vertex {int(loops[0])}")
        # the mismatch pattern is symmetric, so its first entry in row-major
        # order is the lowest pair (u, v) and has u < v
        asymmetric = np.argwhere(adj != adj.T)
        if asymmetric.size:
            u, v = asymmetric[0].tolist()
            raise ValueError(f"asymmetric adjacency between {u} and {v}")
        adj.flags.writeable = False
        self.n = adj.shape[0]
        self.adj = adj

    def edges(self) -> list[tuple[int, int]]:
        """Edges (u, v) with u < v, in lexicographic order."""
        u, v = np.nonzero(np.triu(self.adj, 1))
        return list(zip(u.tolist(), v.tolist()))

    def edge_count(self) -> int:
        return int(np.count_nonzero(self.adj)) // 2

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, SimpleGraph)
            and self.n == other.n
            and bool(np.array_equal(self.adj, other.adj))
        )

    def __hash__(self) -> int:
        return hash((self.n, self.adj.tobytes()))

    def __repr__(self) -> str:
        return f"SimpleGraph(n={self.n}, edges={self.edge_count()})"


def _meets(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Boolean product of 0/1 matrices: entry (i, j) is True iff row i of x
    and column j of y share a 1.  The counts run through float32 BLAS."""
    assert x.shape[1] < _FLOAT32_EXACT, "float32 counts would round"
    return (x.astype(np.float32, copy=False) @ y.astype(np.float32, copy=False)) > 0


def strong_power_graph(g: GroupSpec) -> SimpleGraph:
    """Strong power graph of g, built from the definition.

    Distinct x, y are adjacent iff some positive powers below |G| coincide,
    i.e. the power sets {x^k : 1 <= k <= n-1} and {y^k : 1 <= k <= n-1}
    intersect.  Row a of `powers` marks the power set of a; all elements
    are raised together, one application of the group law per exponent.
    Once every a^(k+1) equals a, every power cycle has closed and the
    remaining exponents only repeat them.
    """
    n = g.order
    elems = np.arange(n)
    powers = np.zeros((n, n), dtype=np.float32)
    current = elems
    for _ in range(n - 1):
        powers[elems, current] = 1
        current = g.law(current, elems)
        if np.array_equal(current, elems):
            break
    adj = _meets(powers, powers.T)
    np.fill_diagonal(adj, False)
    return SimpleGraph(adj)


def adjacency_matrix(graph: SimpleGraph) -> IntMatrix:
    """0/1 symmetric matrix with zero diagonal."""
    return IntMatrix(graph.adj.astype(np.int64))


def _distances(graph: SimpleGraph) -> np.ndarray:
    """All-pairs BFS distances, -1 where unreachable, as an int64 array.

    Level-synchronous BFS from every source at once: row s of `frontier`
    holds the vertices first reached from s at the current level, and one
    boolean product advances all rows by a level.
    """
    dist = np.where(graph.adj, 1, -1).astype(np.int64, copy=False)
    np.fill_diagonal(dist, 0)
    step = graph.adj.astype(np.float32)
    frontier, level = graph.adj, 1
    while frontier.any():
        level += 1
        frontier = _meets(frontier, step) & (dist < 0)
        dist[frontier] = level
    return dist


def _components(dist: np.ndarray) -> list[list[int]]:
    reached = dist >= 0
    # row v of `reached` is v's component; v is its smallest vertex iff the
    # first True of row v is v itself
    firsts = np.flatnonzero(reached.argmax(axis=1) == np.arange(len(dist)))
    return [np.flatnonzero(reached[v]).tolist() for v in firsts]


def components(graph: SimpleGraph) -> list[list[int]]:
    """Connected components, each sorted, ordered by smallest vertex."""
    return _components(_distances(graph))


def is_connected(graph: SimpleGraph) -> bool:
    return bool((_distances(graph) >= 0).all())


def is_complete(graph: SimpleGraph) -> bool:
    return bool(np.array_equal(graph.adj, ~np.eye(graph.n, dtype=bool)))


def _connected_distances(graph: SimpleGraph) -> np.ndarray:
    dist = _distances(graph)
    if (dist < 0).any():
        raise DisconnectedGraph(_components(dist))
    return dist


def distance_matrix(graph: SimpleGraph) -> IntMatrix:
    """All-pairs shortest path lengths; requires a connected graph."""
    return IntMatrix(_connected_distances(graph))


def diameter(graph: SimpleGraph) -> int:
    """Largest vertex-to-vertex distance; requires a connected graph."""
    return int(_connected_distances(graph).max())


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
    return "\n".join(",".join(map(str, row)) for row in matrix.entries.tolist()) + "\n"
