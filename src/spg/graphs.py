"""Strong power graph construction and unweighted graph machinery.

A graph is a read-only n x n boolean adjacency array.  The builder raises
every element at once through the group's broadcastable law, a block of
about sqrt(n) exponents per call, and adjacency, distances and components
come from boolean matrix products: the power sets meet where
(powers @ powers.T) > 0, and the BFS advances every source by one level per
product.  The DOT and JSON edge lists are written row by row from the
adjacency array, the neighbours v > u of each vertex u at a time, never from
a list of every edge.
"""

from __future__ import annotations

import json
import math
from typing import Iterator, Optional, Sequence

import numpy as np

from .exactalg import IntMatrix, first_asymmetry
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
    "to_json",
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
        pair = first_asymmetry(adj)
        if pair is not None:
            raise ValueError(f"asymmetric adjacency between {pair[0]} and {pair[1]}")
        adj.flags.writeable = False
        self.n = adj.shape[0]
        self.adj = adj

    def edges(self) -> list[tuple[int, int]]:
        """Edges (u, v) with u < v, in lexicographic order."""
        ids = np.arange(self.n, dtype=object)  # Python ints
        return [(u, v) for u, vs in _upper_rows(self, ids) for v in vs]

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


def _upper_rows(graph: SimpleGraph, names: np.ndarray) -> Iterator[tuple[int, list]]:
    """Each vertex u with at least one neighbour v > u, ascending, and the
    list of names[v] for those v, ascending.  names is a length-n object
    array; each row is one boolean mask of adj[u, u+1:], so no list of every
    edge is ever held."""
    adj = graph.adj
    for u in range(graph.n - 1):
        vs = names[u + 1 :][adj[u, u + 1 :]].tolist()
        if vs:
            yield u, vs


def _meets(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Boolean product of 0/1 matrices: entry (i, j) is True iff row i of x
    and column j of y share a 1.  The counts run through float32 BLAS."""
    assert x.shape[1] < _FLOAT32_EXACT, "float32 counts would round"
    return (x.astype(np.float32, copy=False) @ y.astype(np.float32, copy=False)) > 0


def _power_sets(g: GroupSpec) -> np.ndarray:
    """n x n float32 0/1 array whose row a marks {a^k : 1 <= k <= n-1}.

    Every element is raised at once, a block of exponents per law call, and
    each block is marked as soon as it is made.  Row j of a block holds
    a^(s+j) for every a, as int32 indices.  With w = isqrt(n), the first w
    rows come by doubling, a^(m+1..m+j) = a^(1..j) a^m; every later block
    is the one before it times a^w, a^(s+1..s+w) = a^(s+1-w..s) a^w.  That
    is about log2(w) + n/w law calls, on at most w x n indices each, using
    the law and associativity alone.  The marking stops before the first row
    where every a^(k+1) equals a: every power cycle has then closed, and
    later rows would only repeat earlier ones.
    """
    n = g.order
    powers = np.zeros((n, n), dtype=np.float32)
    if n < 2:
        return powers  # no exponent 1 <= k <= n-1
    np.fill_diagonal(powers, 1)  # a^1 = a
    flat, starts = powers.reshape(-1), np.arange(0, n * n, n)  # row a starts at a * n
    width = math.isqrt(n)
    head = np.empty((width, n), dtype=np.int32)  # rows a^1 .. a^w
    head[0] = elems = np.arange(n, dtype=np.int32)
    m, block = 1, head
    while m < n - 1:
        if m < width:
            j = min(m, width - m)
            head[m : m + j] = g.law(head[:j], head[m - 1])
            new = head[m : m + j]
        else:
            new = block = g.law(block[: n - 1 - m], head[-1]).astype(np.int32, copy=False)
        cycled = (new == elems).all(axis=1)
        if cycled.any():
            flat[new[: cycled.argmax()] + starts] = 1
            break
        flat[new + starts] = 1
        m += len(new)
    return powers


def strong_power_graph(g: GroupSpec) -> SimpleGraph:
    """Strong power graph of g, built from the definition.

    Distinct x, y are adjacent iff some positive powers below |G| coincide,
    i.e. the power sets {x^k : 1 <= k <= n-1} and {y^k : 1 <= k <= n-1}
    intersect.  Row a of `powers` marks the power set of a, made from the
    group law in blocks of about sqrt(n) exponents (see _power_sets), and
    the sets meet where powers @ powers.T is positive.
    """
    powers = _power_sets(g)
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
    boolean product advances all rows by a level.  The search stops when
    the frontier is empty or no pair is left unreached, so a complete graph
    takes no product at all.
    """
    dist = np.where(graph.adj, 1, -1).astype(np.int64, copy=False)
    np.fill_diagonal(dist, 0)
    unreached = dist < 0
    step = graph.adj.astype(np.float32)
    frontier, level = graph.adj, 1
    while unreached.any() and frontier.any():
        level += 1
        frontier = _meets(frontier, step) & unreached
        dist[frontier] = level
        unreached[frontier] = False
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


def _vertex_names(n: int) -> np.ndarray:
    return np.array([str(v) for v in range(n)], dtype=object)


def to_dot(graph: SimpleGraph, labels: Optional[Sequence[str]] = None) -> str:
    """Graphviz DOT text for the graph, one vertex/edge per line."""
    lines = ["graph G {"]
    for v in range(graph.n):
        name = labels[v] if labels is not None else str(v)
        name = name.replace("\\", "\\\\").replace('"', '\\"')
        lines.append(f'  {v} [label="{name}"];')
    for u, vs in _upper_rows(graph, _vertex_names(graph.n)):
        lines.append(f"  {u} -- " + f";\n  {u} -- ".join(vs) + ";")
    lines.append("}\n")  # joined in, not appended to a copy of the text
    return "\n".join(lines)


def to_json(graph: SimpleGraph, group: str) -> str:
    """Compact JSON {"edges": [[u, v], ...], "group": group, "n": n} with
    sorted keys and a trailing newline; the edges are those of edges().
    Compact because, indented, the ~32k edges of a 256-vertex graph would
    take a line per number."""
    names = _vertex_names(graph.n)
    rows = ",".join(f"[{u}," + f"],[{u},".join(vs) + "]" for u, vs in _upper_rows(graph, names))
    return f'{{"edges":[{rows}],"group":{json.dumps(group)},"n":{graph.n}}}\n'


def matrix_to_csv(matrix: IntMatrix) -> str:
    """Rows of comma-separated integers, one line per row."""
    return "\n".join(",".join(map(str, row)) for row in matrix.entries.tolist()) + "\n"
