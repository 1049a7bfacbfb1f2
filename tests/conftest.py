"""Shared fixtures: the group catalog and explicit Cayley tables."""

from __future__ import annotations

import numpy as np
import pytest

from spg.exactalg import IntMatrix
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


def pytest_addoption(parser):
    parser.addoption(
        "--runslow",
        action="store_true",
        default=False,
        help="also run the tests marked slow (exact charpolys up to order 2048, minutes)",
    )


def pytest_configure(config):
    config.addinivalue_line("markers", "slow: runs only with --runslow")


def pytest_collection_modifyitems(config, items):
    if config.getoption("--runslow"):
        return
    skip = pytest.mark.skip(reason="slow; run with --runslow")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip)


def permuted(matrix: IntMatrix, order: list[int]) -> IntMatrix:
    """Simultaneous row/column permutation: entry (i, j) of the result is
    matrix[order[i]][order[j]]."""
    assert sorted(order) == list(range(matrix.n)), "order must be a permutation of 0..n-1"
    return IntMatrix([[matrix.rows[i][j] for j in order] for i in order])


def reference_strong_power_graph(g: GroupSpec) -> list[int]:
    """The strong power graph as one adjacency bitmask per vertex, built pair
    by pair from power-set bitmasks through g.op; the array builder in
    spg.graphs is checked against it."""
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
    return adj


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
