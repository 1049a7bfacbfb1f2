"""Strong power graph construction, matrices, and graph quantities."""

import math
import re

import pytest

from spg.exactalg import IntMatrix
from spg.graphs import (
    DisconnectedGraph,
    SimpleGraph,
    adjacency_matrix,
    components,
    diameter,
    distance_matrix,
    is_complete,
    is_connected,
    matrix_to_csv,
    strong_power_graph,
    strong_power_graph_structural,
    to_dot,
)
from spg.groups import CyclicGroup, DihedralGroup, DirectProductGroup, is_composite, is_prime

from conftest import permuted


def display_order(n: int) -> list[int]:
    """Vertex order placing non-units of Z_n first, then units, then 0 last,
    which shows the block layout of the cyclic-case matrices."""
    non_units = [m for m in range(1, n) if math.gcd(m, n) != 1]
    units = [m for m in range(1, n) if math.gcd(m, n) == 1]
    return non_units + units + [0]


def test_simple_graph_rejects_loops_and_asymmetry():
    with pytest.raises(ValueError, match="self-loop"):
        SimpleGraph(2, [0b01, 0b01])
    with pytest.raises(ValueError, match="asymmetric"):
        SimpleGraph(2, [0b10, 0b00])


def test_z4_edges_from_definition():
    graph = strong_power_graph(CyclicGroup(4))
    assert sorted(graph.edges()) == [(0, 2), (1, 2), (1, 3), (2, 3)]


def test_z2_has_no_edges():
    assert strong_power_graph(CyclicGroup(2)).edge_count() == 0


def test_noncyclic_groups_give_complete_graphs():
    for g in (DirectProductGroup([2, 2]), DihedralGroup(4)):
        graph = strong_power_graph(g)
        assert is_complete(graph)
        assert graph.edge_count() == g.order * (g.order - 1) // 2


def test_s3_table_gives_complete_graph(s3):
    assert is_complete(strong_power_graph(s3))


def test_structural_equals_definitional_over_catalog(catalog60):
    for name, g in catalog60:
        assert strong_power_graph(g) == strong_power_graph_structural(g), name


def test_z5_splits_into_isolated_zero_and_clique():
    graph = strong_power_graph(CyclicGroup(5))
    assert components(graph) == [[0], [1, 2, 3, 4]]
    sub = [v for v in range(1, 5)]
    assert all(graph.has_edge(u, v) for u in sub for v in sub if u != v)
    with pytest.raises(DisconnectedGraph) as info:
        distance_matrix(graph)
    assert info.value.components == ((0,), (1, 2, 3, 4))


def test_prime_components_up_to_60():
    for p in range(2, 61):
        if is_prime(p):
            comps = components(strong_power_graph(CyclicGroup(p)))
            assert comps == [[0], list(range(1, p))], p


def test_distance_matrix_z4():
    graph = strong_power_graph(CyclicGroup(4))
    d = distance_matrix(graph)
    assert d.rows == ((0, 2, 1, 2), (2, 0, 1, 1), (1, 1, 0, 1), (2, 1, 1, 0))


def test_distance_matrix_complete_graph():
    d = distance_matrix(SimpleGraph.complete(5))
    assert all(d.rows[i][j] == (0 if i == j else 1) for i in range(5) for j in range(5))


def test_distance_entries_bounded_for_composite_orders():
    for n in (4, 6, 12, 27, 30):
        d = distance_matrix(strong_power_graph(CyclicGroup(n)))
        values = {v for row in d.rows for v in row}
        assert values <= {0, 1, 2}, n
        assert all(d.rows[i][i] == 0 for i in range(n))
        assert all(d.rows[i][j] == d.rows[j][i] for i in range(n) for j in range(n))


def test_diameter():
    assert diameter(strong_power_graph(CyclicGroup(4))) == 2
    assert diameter(SimpleGraph.complete(7)) == 1
    with pytest.raises(DisconnectedGraph):
        diameter(strong_power_graph(CyclicGroup(7)))


def test_diameter_two_for_composite_sample():
    for n in range(4, 61):
        if is_composite(n):
            assert diameter(strong_power_graph(CyclicGroup(n))) == 2, n


def test_connectivity_iff_not_prime():
    for n in range(2, 40):
        graph = strong_power_graph(CyclicGroup(n))
        assert is_connected(graph) == (not is_prime(n)), n


def test_neighbors_of_zero_are_non_units():
    graph = strong_power_graph(CyclicGroup(12))
    assert graph.neighbors(0) == {2, 3, 4, 6, 8, 9, 10}


def test_display_order_blocks():
    order = display_order(12)
    assert order == [2, 3, 4, 6, 8, 9, 10, 1, 5, 7, 11, 0]
    # permuting D(Z_12) into this layout shows the block pattern: the last
    # row holds 2 exactly against the unit block
    d = permuted(distance_matrix(strong_power_graph(CyclicGroup(12))), order)
    units = {1, 5, 7, 11}
    last = d.rows[-1]
    for position, vertex in enumerate(order[:-1]):
        assert last[position] == (2 if vertex in units else 1)


def test_dot_export():
    graph = strong_power_graph(CyclicGroup(4))
    dot = to_dot(graph)
    assert dot.startswith("graph G {")
    assert dot.count(" -- ") == 4
    assert '0 [label="0"];' in dot


def test_dot_escapes_labels():
    labels = ['a"];x', "b\\", 'c\\"d']
    dot = to_dot(strong_power_graph(CyclicGroup(3)), labels)
    vertex_lines = [line for line in dot.splitlines() if "[label=" in line]
    assert len(vertex_lines) == 3
    well_formed = re.compile(r'  (\d+) \[label="((?:[^"\\]|\\.)*)"\];')
    for v, line in enumerate(vertex_lines):
        match = well_formed.fullmatch(line)
        assert match is not None, line
        assert int(match.group(1)) == v
        assert re.sub(r"\\(.)", r"\1", match.group(2)) == labels[v]


def test_csv_export():
    m = IntMatrix([[0, 1], [1, 0]])
    assert matrix_to_csv(m) == "0,1\n1,0\n"
