"""Shared fixtures and test-only helpers: the group catalog, explicit Cayley
tables, and the reference implementations spg is checked against."""

from __future__ import annotations

import json
import math
from fractions import Fraction

import numpy as np
import pytest

from spg import graphs
from spg.exactalg import IntMatrix, IntPolynomial
from spg.graphs import SimpleGraph
from spg.groups import (
    BadTableShape,
    CayleyGroup,
    CayleyTableError,
    CyclicGroup,
    DihedralGroup,
    DirectProductGroup,
    GroupSpec,
    MissingIdentity,
    NotAssociative,
    NotLatinSquare,
    load_cayley_table,
)
from spg.spectra import _CLUSTER_TOL, _NEWTON_STEPS, ComplexRoots, SpectrumComparison

# quaternion units as (sign, axis) with axes 1, i, j, k; index layout
# [1, -1, i, -i, j, -j, k, -k] before relabelling
_AXIS_PRODUCTS = {
    (0, 0): (1, 0), (0, 1): (1, 1), (0, 2): (1, 2), (0, 3): (1, 3),
    (1, 0): (1, 1), (1, 1): (-1, 0), (1, 2): (1, 3), (1, 3): (-1, 2),
    (2, 0): (1, 2), (2, 1): (-1, 3), (2, 2): (-1, 0), (2, 3): (1, 1),
    (3, 0): (1, 3), (3, 1): (1, 2), (3, 2): (-1, 1), (3, 3): (-1, 0),
}


def quaternion_table() -> list[list[int]]:
    """The order-8 quaternion group as a multiplication table."""
    elements = [(1, 0), (-1, 0), (1, 1), (-1, 1), (1, 2), (-1, 2), (1, 3), (-1, 3)]
    index = {e: i for i, e in enumerate(elements)}
    table = []
    for sa, xa in elements:
        row = []
        for sb, xb in elements:
            sign, axis = _AXIS_PRODUCTS[(xa, xb)]
            row.append(index[(sa * sb * sign, axis)])
        table.append(row)
    return table


def permuted(matrix: IntMatrix, order: list[int]) -> IntMatrix:
    """Simultaneous row/column permutation: entry (i, j) of the result is
    matrix[order[i]][order[j]]."""
    assert sorted(order) == list(range(matrix.n)), "order must be a permutation of 0..n-1"
    return IntMatrix(matrix.entries[np.ix_(order, order)])


def op(g: GroupSpec, a: int, b: int) -> int:
    """The product a*b of two element indices, one scalar law call: the
    tests' element-by-element references all multiply through here."""
    return int(g.law(a, b))


def element_order(g: GroupSpec, a: int) -> int:
    """Smallest k >= 1 with a^k = identity, by plain iteration through op:
    the definition spg.groups' vectorised generator test is checked
    against."""
    current, k = a, 1
    while current != 0:
        current = op(g, current, a)
        k += 1
        if k > g.order:
            raise AssertionError(f"element {a} never reached the identity")
    return k


def label(g: GroupSpec, v: int) -> str:
    """The name of element v: its label when g has labels, else the index
    in decimal, as to_dot writes it."""
    return g.labels[v] if g.labels is not None else str(v)


def group_power(g: GroupSpec, a: int, k: int) -> int:
    """a composed with itself k times through op, by squaring; k = 0
    yields the identity."""
    if k < 0:
        raise ValueError("exponent must be nonnegative")
    result, base = 0, a
    while k:
        if k & 1:
            result = op(g, result, base)
        base = op(g, base, base)
        k >>= 1
    return result


def binom_power(k: int) -> IntPolynomial:
    """(x + 1)^k via the multiplicative Pascal row,
    C(k, i + 1) = C(k, i) (k - i) / (i + 1), each division exact: the
    independent reference for exactalg.expand."""
    if k < 0:
        raise ValueError("exponent must be nonnegative")
    row = [1]
    for i in range(k):
        coeff, remainder = divmod(row[-1] * (k - i), i + 1)
        assert not remainder, "inexact division in the Pascal row"
        row.append(coeff)
    return IntPolynomial(row)


def poly_from_coeff_strings(items) -> IntPolynomial:
    """The inverse of IntPolynomial.to_coeff_strings."""
    return IntPolynomial([int(s) for s in items])


def spectrum_total(spectrum) -> int:
    """The number of eigenvalues of a ClosedFormSpectrum, with multiplicity."""
    return sum(m for _, m in spectrum.entries)


def spectrum_max_value(spectrum) -> float:
    """The largest eigenvalue of a ClosedFormSpectrum (its entries descend)."""
    return spectrum.entries[0][0]


def identity_matrix(n: int) -> IntMatrix:
    return IntMatrix([[1 if i == j else 0 for j in range(n)] for i in range(n)])


def poly_eval(p: IntPolynomial, x):
    """Evaluate exactly at an integer or Fraction by Horner's rule."""
    result = 0
    for c in reversed(p.coeffs):
        result = result * x + c
    return result


def reference_solve_cubic_trig(a2: int, a1: int, a0: int):
    """spg.spectra.solve_cubic_trig with each Newton step's f / f' evaluated
    in Fraction; the integer Newton step there must return the same tuple,
    or raise the same exception type."""
    delta = a2 * a2 - 3 * a1
    numerator = -2 * a2**3 + 9 * a2 * a1 - 27 * a0
    disc = 4 * delta**3 - numerator**2
    if disc < 0:
        raise ComplexRoots(f"cubic ({a2}, {a1}, {a0}) has fewer than three real roots")
    theta = math.atan2(math.sqrt(disc), numerator)
    scale = 2.0 * math.sqrt(delta)
    roots = []
    for k in (0, 1, -1):
        r = (scale * math.cos((theta + 2.0 * math.pi * k) / 3.0) - a2) / 3.0
        for _ in range(_NEWTON_STEPS):
            x = Fraction(r)
            slope = (3 * x + 2 * a2) * x + a1
            if slope == 0:
                break
            moved = float(x - (((x + a2) * x + a1) * x + a0) / slope)
            if moved == r:
                break
            r = moved
        roots.append(r)
    roots.sort(reverse=True)
    return (roots[0], roots[1], roots[2]), theta


def _cluster_sizes(values) -> list[int]:
    """Sizes of the runs of sorted values whose neighbours differ by at
    most _CLUSTER_TOL * max(1, |previous|)."""
    if not values:
        return []
    sizes = [1]
    for previous, value in zip(values, values[1:]):
        if abs(previous - value) <= _CLUSTER_TOL * max(1.0, abs(previous)):
            sizes[-1] += 1
        else:
            sizes.append(1)
    return sizes


def reference_compare_spectra(closed, numeric) -> SpectrumComparison:
    """The closed values expanded by multiplicity and paired in Python
    floats with the numeric ones sorted descending; multiplicities match
    when clustering the numeric values gives the closed multiplicities.
    spg.spectra.compare_spectra, which checks the gaps against the closed
    groups instead, must return the same comparison on finite input."""
    expanded = [v for v, m in closed.entries for _ in range(m)]
    if len(expanded) != len(numeric):
        return SpectrumComparison(math.inf, False, closed.theta_in_range())
    numeric_sorted = sorted((float(v) for v in numeric), reverse=True)
    deviation = max((abs(c - v) for c, v in zip(expanded, numeric_sorted)), default=0.0)
    mult_match = _cluster_sizes(numeric_sorted) == [m for _, m in closed.entries]
    return SpectrumComparison(deviation, mult_match, closed.theta_in_range())


def bareiss_det(matrix: IntMatrix) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination.

    Independent of charpoly; used to cross-check its constant coefficient.
    Every interior division is exact and asserted.
    """
    n = matrix.n
    a = matrix.entries.tolist()  # Python integers
    sign = 1
    previous = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            pivot_row = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if pivot_row is None:
                return 0
            a[k], a[pivot_row] = a[pivot_row], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                value = a[i][j] * a[k][k] - a[i][k] * a[k][j]
                assert value % previous == 0, "inexact division in Bareiss elimination"
                a[i][j] = value // previous
            a[i][k] = 0
        previous = a[k][k]
    return sign * a[n - 1][n - 1]


def graph_from_edges(n: int, edges) -> SimpleGraph:
    adj = np.zeros((n, n), dtype=bool)
    for u, v in edges:
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        adj[u, v] = adj[v, u] = True
    return SimpleGraph(adj)


def edges(graph: SimpleGraph) -> list[tuple[int, int]]:
    """Edges (u, v) with u < v, in lexicographic order, from spg's own edge
    walk (graphs._upper_rows, which to_dot and to_json write from)."""
    ids = np.arange(graph.n, dtype=object)  # Python ints
    return [(u, v) for u, vs in graphs._upper_rows(graph, ids) for v in vs]


def reference_edges(graph: SimpleGraph) -> list[tuple[int, int]]:
    """Edges (u, v) with u < v, in lexicographic order, from one np.nonzero
    of the upper triangle; edges(graph) must return the same list."""
    u, v = np.nonzero(np.triu(graph.adj, 1))
    return list(zip(u.tolist(), v.tolist()))


def reference_to_dot(graph: SimpleGraph, labels=None) -> str:
    """DOT text written one line per vertex and one per edge of
    reference_edges; spg.graphs.to_dot must return the same text."""
    lines = ["graph G {"]
    for v in range(graph.n):
        name = labels[v] if labels is not None else str(v)
        name = name.replace("\\", "\\\\").replace('"', '\\"')
        lines.append(f'  {v} [label="{name}"];')
    for u, v in reference_edges(graph):
        lines.append(f"  {u} -- {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def reference_to_json(graph: SimpleGraph, group: str) -> str:
    """The build command's JSON document as json.dumps writes it from the
    list of reference_edges; spg.graphs.to_json must return the same text."""
    document = {"group": group, "n": graph.n, "edges": reference_edges(graph)}
    return json.dumps(document, separators=(",", ":"), sort_keys=True) + "\n"


def components(graph: SimpleGraph) -> list[list[int]]:
    """Connected components, each sorted, ordered by smallest vertex, read
    from spg's own distance array."""
    return graphs._components(graphs._distances(graph))


def diameter(graph: SimpleGraph) -> int:
    """Largest vertex-to-vertex distance; raises DisconnectedGraph, as
    distance_matrix does, for a disconnected graph."""
    return int(graphs.distance_matrix(graph).entries.max())


def complete_graph(n: int) -> SimpleGraph:
    return SimpleGraph(~np.eye(n, dtype=bool))


def has_edge(graph: SimpleGraph, u: int, v: int) -> bool:
    return bool(graph.adj[u, v])


def strong_power_graph_structural(g: GroupSpec) -> SimpleGraph:
    """The strong power graph from the paper's structure lemma.

    Noncyclic groups give the complete graph.  For a cyclic group of order
    n, the non-identity vertices form a clique and the identity is joined
    to exactly the non-generators; in the standard Z_n indexing these are
    the nonzero m with gcd(m, n) != 1.  spg.graphs.strong_power_graph, built
    from the definition, is checked against it.
    """
    n = g.order
    if not g.is_cyclic():
        return complete_graph(n)
    if isinstance(g, CyclicGroup):
        non_generator = np.gcd(np.arange(n), n) != 1
    else:
        non_generator = np.array([element_order(g, a) != n for a in range(n)])
    non_generator[0] = False
    adj = ~np.eye(n, dtype=bool)  # clique on 1..n-1, row and column 0 set below
    adj[0] = adj[:, 0] = non_generator
    return SimpleGraph(adj)


def reference_power_sets(g: GroupSpec) -> list[int]:
    """The power set {a^k : 1 <= k <= n-1} of each element a as a bitmask,
    one power at a time through op."""
    n = g.order
    power_masks = []
    for a in range(n):
        mask, current = 0, a
        for _ in range(n - 1):
            mask |= 1 << current
            current = op(g, current, a)
            if current == a:  # the remaining powers only repeat this cycle
                break
        power_masks.append(mask)
    return power_masks


def reference_strong_power_graph(g: GroupSpec) -> list[int]:
    """The strong power graph as one adjacency bitmask per vertex, built pair
    by pair from power-set bitmasks through op; the array builder in
    spg.graphs is checked against it."""
    n = g.order
    power_masks = reference_power_sets(g)
    adj = [0] * n
    for x in range(n):
        for y in range(x + 1, n):
            if power_masks[x] & power_masks[y]:
                adj[x] |= 1 << y
                adj[y] |= 1 << x
    return adj


def whole_matrix_strong_power_graph(g: GroupSpec) -> SimpleGraph:
    """The strong power graph with every pair decided by the one float32
    product powers @ powers.T of the builder's own power sets, with no
    shared element taken out; spg.graphs.strong_power_graph must return
    the same graph."""
    powers = graphs._power_sets(g)
    adj = graphs._meets(powers, powers.T)
    np.fill_diagonal(adj, False)
    return SimpleGraph(adj)


def level_synchronous_distances(graph: SimpleGraph) -> np.ndarray:
    """All-pairs distances, -1 where unreachable, by a level-synchronous BFS
    on every graph: one boolean product advances every source by a level
    until no pair is left unreached or the frontier is empty.  The array
    is in the narrowest signed dtype that holds -1..n-1, int8 up to
    n = 128 and int16 above; spg.graphs._distances must return it equal,
    dtype included."""
    n = graph.n
    dist = np.full((n, n), -1, dtype=np.min_scalar_type(-n))
    dist[graph.adj] = 1
    np.fill_diagonal(dist, 0)
    unreached = dist < 0
    step = graph.adj.astype(np.float32)
    frontier, level = step, 1
    while unreached.any() and frontier.any():
        level += 1
        frontier = graphs._meets(frontier, step) & unreached
        dist[frontier] = level
        unreached[frontier] = False
    return dist


def masks_to_rows(masks: list[int]) -> list[list[int]]:
    """0/1 adjacency rows of a graph given by bitmasks."""
    n = len(masks)
    return [[mask >> v & 1 for v in range(n)] for mask in masks]


def _bits(mask: int) -> list[int]:
    return [v for v in range(mask.bit_length()) if mask >> v & 1]


def reference_bfs_distances(masks: list[int], source: int) -> list[int]:
    """BFS distances from one source over bitmask adjacency, -1 where unreachable."""
    dist = [-1] * len(masks)
    visited = frontier = 1 << source
    d = 0
    while frontier:
        reached = 0
        for v in _bits(frontier):
            dist[v] = d
            reached |= masks[v]
        frontier = reached & ~visited
        visited |= frontier
        d += 1
    return dist


def reference_components(masks: list[int]) -> list[list[int]]:
    """Components by BFS from the lowest vertex not yet seen."""
    seen: set[int] = set()
    out = []
    for start in range(len(masks)):
        if start not in seen:
            comp = [v for v, d in enumerate(reference_bfs_distances(masks, start)) if d >= 0]
            seen.update(comp)
            out.append(comp)
    return out


class MissingInverse(CayleyTableError):
    """Some element has no two-sided inverse (never raised for a Latin,
    associative table with identity; the reference keeps the check)."""


def reference_validate_cayley_table(table) -> int:
    """The group axioms checked entry by entry in Python loops and dicts:
    shape and integrality row by row, the Latin property by rows then
    columns, the identity, associativity one first factor at a time, and
    inverses.  spg.groups.validate_cayley_table must return the same
    identity, or raise the same exception type with the same message."""
    rows = tuple(tuple(row) for row in table)
    n = len(rows)
    if n == 0:
        raise BadTableShape("table is empty")
    for i, row in enumerate(rows):
        if len(row) != n:
            raise BadTableShape(f"row {i} has length {len(row)}, expected {n}")
        for j, v in enumerate(row):
            if not isinstance(v, int) or isinstance(v, bool) or not 0 <= v < n:
                raise BadTableShape(f"entry at row {i}, col {j} is {v!r}, expected 0..{n - 1}")
    for i, row in enumerate(rows):
        seen: dict[int, int] = {}
        for j, v in enumerate(row):
            if v in seen:
                raise NotLatinSquare(
                    f"not a Latin square: row {i} repeats entry {v} at columns {seen[v]} and {j}"
                )
            seen[v] = j
    for j in range(n):
        seen = {}
        for i in range(n):
            v = rows[i][j]
            if v in seen:
                raise NotLatinSquare(
                    f"not a Latin square: column {j} repeats entry {v} at rows {seen[v]} and {i}"
                )
            seen[v] = i

    e = next(
        (e for e in range(n) if all(rows[e][a] == a and rows[a][e] == a for a in range(n))),
        None,
    )
    if e is None:
        raise MissingIdentity("no element acts as a two-sided identity")

    # t[t[a]][b, c] = (a*b)*c and t[a][t][b, c] = a*(b*c)
    t = np.array(rows, dtype=np.int64)
    for a in range(n):
        mismatch = t[t[a]] != t[a][t]
        if mismatch.any():
            b, c = (int(x[0]) for x in np.nonzero(mismatch))
            raise NotAssociative(
                f"associativity fails at ({a}, {b}, {c}): "
                f"({a}*{b})*{c} = {rows[rows[a][b]][c]} but {a}*({b}*{c}) = {rows[a][rows[b][c]]}"
            )

    for a in range(n):
        if not any(rows[a][b] == e and rows[b][a] == e for b in range(n)):
            raise MissingInverse(f"element {a} has no two-sided inverse")
    return e


def s3_table() -> list[list[int]]:
    return DihedralGroup(3).cayley_table()


@pytest.fixture(scope="session")
def q8() -> CayleyGroup:
    return load_cayley_table({"order": 8, "table": quaternion_table()})


@pytest.fixture(scope="session")
def s3() -> CayleyGroup:
    return load_cayley_table({"order": 6, "table": s3_table()})


@pytest.fixture(scope="session")
def catalog60(q8, s3) -> list[tuple[str, GroupSpec]]:
    """Every group the graph-equivalence and Lagrange sweeps run over:
    cyclic n <= 60, direct products up to order 36, dihedral m <= 12, Q8, S3."""
    groups: list[tuple[str, GroupSpec]] = []
    for n in range(1, 61):
        groups.append((f"cyclic:{n}", CyclicGroup(n)))
    for a in range(2, 19):
        for b in range(a, 37):
            if a * b <= 36:
                groups.append((f"product:{a},{b}", DirectProductGroup([a, b])))
    for m in range(1, 13):
        groups.append((f"dihedral:{m}", DihedralGroup(m)))
    groups.append(("cayley:Q8", q8))
    groups.append(("cayley:S3", s3))
    return groups
