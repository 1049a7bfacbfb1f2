"""Strong power graph construction and unweighted graph machinery.

A graph is a read-only n x n boolean adjacency array.  The builder raises
the elements together through the group's broadcastable law, a block of
max(sqrt(n), 2^14 / n) exponents per call, marks each block in the
power sets as soon as it is made, and drops each element, with its row
offset, once its power cycle closes (_power_sets).  Two power sets
that hold the element c lying in the most of them meet at c; only the
rows without c meet the rest through a boolean matrix product, which has
no rows for a noncyclic group, where every set holds e.  A vertex
adjacent to every other one puts every non-adjacent pair at distance 2,
and a vertex adjacent to none makes a graph of n >= 2 vertices
disconnected; the same test then runs on the vertices that are not
isolated, which settles Z_p.  Any other graph gets a BFS that advances
every source by one level per boolean product.  The DOT and JSON edge
lists are written row by row from the adjacency array, the neighbours
v > u of each vertex u at a time, never from a list of every edge.
"""

from __future__ import annotations

import json
import logging
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
    "is_connected",
    "is_complete",
    "to_dot",
    "to_json",
    "matrix_to_csv",
]

log = logging.getLogger("spg.graphs")

# float32 holds every integer below 2^24 exactly, so a 0/1 matrix product
# whose inner dimension is below it counts without rounding
_FLOAT32_EXACT = 2**24


class DisconnectedGraph(ValueError):
    """Raised when an operation needs a connected graph; carries every
    component in `components`.  The message names the component count and,
    for at most the first few components, the size and first few vertices,
    so its length does not grow with the graph."""

    def __init__(self, comps: Sequence[Sequence[int]]):
        self.components = tuple(tuple(sorted(c)) for c in comps)
        shown = 4  # components listed, and vertices listed of each
        listed = []
        for c in self.components[:shown]:
            more = ", ..." if len(c) > shown else ""
            listed.append(f"size {len(c)} [{', '.join(map(str, c[:shown]))}{more}]")
        if len(self.components) > shown:
            listed.append("...")
        super().__init__(
            f"graph is disconnected: {len(self.components)} components: " + "; ".join(listed)
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


# indices per block of powers when sqrt(n) rows would make a smaller one:
# below n = 645 a block of 2^14 // n rows takes fewer law calls
_BLOCK_ENTRIES = 2**14


def _power_sets(g: GroupSpec) -> np.ndarray:
    """n x n float32 0/1 array whose row a marks {a^k : 1 <= k <= n-1}.

    The powers a^1 .. a^(n-1) of the elements a are raised together in
    int32 blocks of exponents, and each block is marked as soon as it is
    made, through the flat indices a * n + a^k, so no n x n exponent table
    lives.  After each block, an element with some a^(k+1) = a in it
    leaves, with its row offset a * n: its power cycle has closed, and its
    later powers only repeat ones already marked.

    The first block is the head a^1 .. a^h, h = max(isqrt(n),
    _BLOCK_ENTRIES // n) and at most n - 1, made by doubling over every
    element, a^(m+1..m+j) = a^(1..j) a^m, and cut short once every
    element has closed.  Every later block is the one before it times a^h,
    a^(s+1..s+h) = a^(s+1-h..s) a^h, over the elements still open, and the
    last one ends at a^(n-1).  That is about log2(h) + n/h law calls, on
    int32 blocks of at most h rows, using the law and associativity alone.
    The law calls, law entries and elements open after the head are logged
    at debug level.
    """
    n = g.order
    powers = np.zeros((n, n), dtype=np.float32)
    if n < 2:
        return powers  # no exponent 1 <= k <= n-1
    flat = powers.reshape(-1)
    height = min(max(math.isqrt(n), _BLOCK_ENTRIES // n), n - 1)
    block = np.empty((height, n), dtype=np.int32)  # rows a^1 .. a^h
    block[0] = elems = np.arange(n, dtype=np.int32)
    closed = np.zeros(n, dtype=bool)
    calls, m = 0, 1
    while m < height and not closed.all():
        j = min(m, height - m)
        new = block[m : m + j]
        new[...] = g.law(block[:j], block[m - 1])
        closed |= (new == elems).any(axis=0)
        calls, m = calls + 1, m + j
    starts = np.arange(n, dtype=np.int64) * n  # row a starts at a * n
    flat[block[:m] + starts] = 1
    still_open = ~closed
    head_open, entries = int(np.count_nonzero(still_open)), (m - 1) * n
    step = block[-1]  # a^h, read only when the head was made whole
    while m < n - 1 and still_open.any():
        block = block[: n - 1 - m]
        if not still_open.all():  # the closed elements leave
            live = np.flatnonzero(still_open)
            block, step, elems, starts = block[:, live], step[live], elems[live], starts[live]
        block = g.law(block, step).astype(np.int32, copy=False)
        flat[block + starts] = 1
        still_open = ~(block == elems).any(axis=0)
        calls, entries, m = calls + 1, entries + block.size, m + len(block)
    log.debug(
        "powers of order %d: %d law calls, %d law entries, %d elements open after the head",
        n, calls, entries, head_open,
    )
    return powers


def strong_power_graph(g: GroupSpec) -> SimpleGraph:
    """Strong power graph of g, built from the definition.

    Distinct x, y are adjacent iff some positive powers below |G| coincide,
    i.e. the power sets {x^k : 1 <= k <= n-1} and {y^k : 1 <= k <= n-1}
    intersect.  Row a of `powers` marks the power set of a, made from the
    group law in blocks of exponents until the cycle of a closes (see
    _power_sets).

    Let c be the element in the most power sets, the first on a tie: two
    sets that both hold c meet at c.  Only the k rows without c are met
    with every row, by one k x n x n boolean product written into those
    rows and columns of an all-True array, whose diagonal is then cleared.
    k is 0 for a noncyclic group, whose sets all hold e, so its product is
    empty, and 1 for Z_p and Z_(2^m).  The build's law calls and law
    entries are logged at debug level.
    """
    powers = _power_sets(g)
    shared = powers.sum(axis=0)  # counts of at most n, exact in float32
    rest = np.flatnonzero(powers[:, shared.argmax()] == 0)
    meets = _meets(powers[rest], powers.T)
    del powers  # freed before the n x n adjacency and its copy are made
    adj = np.ones((g.order, g.order), dtype=bool)
    adj[rest] = meets
    adj[:, rest] = meets.T
    np.fill_diagonal(adj, False)
    return SimpleGraph(adj)


def adjacency_matrix(graph: SimpleGraph) -> IntMatrix:
    """0/1 symmetric int8 matrix with zero diagonal."""
    return IntMatrix(graph.adj.view(np.int8))  # bool and int8 share their bytes


def _distances(graph: SimpleGraph) -> np.ndarray:
    """All-pairs distances, -1 where unreachable, in the narrowest signed
    dtype that holds -1..n-1: int8 up to n = 128, int16 above.  A strong
    power graph's distances are at most 2, but a path on n vertices
    reaches n - 1.

    A vertex adjacent to every other one joins any two vertices, so every
    pair that is not adjacent is at distance exactly 2: the array is
    2 - adj with a zero diagonal, and no product is made.  Such a vertex
    is a row of that array with no 2 in it; the strong power graph of
    every noncyclic group, and of Z_n at composite n, has one.  When
    there is none, the rows and columns of the isolated vertices become
    -1 (their diagonal stays 0), and the same test runs on the remaining
    rows: a vertex adjacent to all of them joins the rest as above.  The
    strong power graph of Z_p, whose identity is isolated and whose other
    elements are pairwise adjacent, needs no product either.

    Any other graph gets a level-synchronous BFS from every source at once:
    row s of `frontier` holds the vertices first reached from s at the
    current level, and one boolean product advances all rows by a level.
    The search stops when the frontier is empty or no pair is left
    unreached.  The first frontier is the float32 adjacency itself, so
    level 2 casts no boolean frontier to float32 again.
    """
    dist = np.subtract(2, graph.adj, dtype=np.min_scalar_type(-graph.n))
    np.fill_diagonal(dist, 0)
    if (dist.max(axis=1) < 2).any():  # a vertex adjacent to every other one
        return dist
    isolated = ~graph.adj.any(axis=1)
    if isolated.any():
        dist[isolated] = dist[:, isolated] = -1
        np.fill_diagonal(dist, 0)
        if ((dist.max(axis=1) < 2) & ~isolated).any():  # one adjacent to the rest
            return dist
    unreached = dist == 2
    dist[unreached] = -1
    step = graph.adj.astype(np.float32)
    frontier, level = step, 1
    while unreached.any() and frontier.any():
        level += 1
        frontier = _meets(frontier, step) & unreached
        dist[frontier] = level
        unreached[frontier] = False
    return dist


def _components(dist: np.ndarray) -> list[list[int]]:
    """Connected components from _distances, each sorted, ordered by
    smallest vertex."""
    reached = dist >= 0
    # row v of `reached` is v's component; v is its smallest vertex iff the
    # first True of row v is v itself
    firsts = np.flatnonzero(reached.argmax(axis=1) == np.arange(len(dist)))
    return [np.flatnonzero(reached[v]).tolist() for v in firsts]


def is_connected(graph: SimpleGraph) -> bool:
    """True iff every vertex reaches every other.  A vertex of degree 0 in
    a graph of n >= 2 vertices answers False without a search."""
    if graph.n >= 2 and not graph.adj.any(axis=1).all():
        return False
    return bool(_distances(graph).min() >= 0)


def is_complete(graph: SimpleGraph) -> bool:
    return bool(np.array_equal(graph.adj, ~np.eye(graph.n, dtype=bool)))


def distance_matrix(graph: SimpleGraph) -> IntMatrix:
    """All-pairs shortest path lengths; requires a connected graph."""
    dist = _distances(graph)
    if dist.min() < 0:
        raise DisconnectedGraph(_components(dist))
    return IntMatrix(dist)


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
    sorted keys and a trailing newline; the edges (u, v) have u < v, in
    lexicographic order.
    Compact because, indented, the ~32k edges of a 256-vertex graph would
    take a line per number."""
    names = _vertex_names(graph.n)
    rows = ",".join(f"[{u}," + f"],[{u},".join(vs) + "]" for u, vs in _upper_rows(graph, names))
    return f'{{"edges":[{rows}],"group":{json.dumps(group)},"n":{graph.n}}}\n'


def matrix_to_csv(matrix: IntMatrix) -> str:
    """Rows of comma-separated integers, one line per row."""
    return "\n".join(",".join(map(str, row)) for row in matrix.entries.tolist()) + "\n"
