"""Strong power graph construction, matrices, and graph quantities."""

import math
import random
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spg import exactalg, graphs
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
    to_dot,
    to_json,
)
from spg.groups import (
    CyclicGroup,
    DihedralGroup,
    DirectProductGroup,
    is_composite,
    is_prime,
    load_cayley_table,
)

from conftest import (
    complete_graph,
    graph_from_edges,
    has_edge,
    masks_to_rows,
    permuted,
    reference_bfs_distances,
    reference_components,
    reference_edges,
    reference_strong_power_graph,
    reference_to_dot,
    reference_to_json,
    strong_power_graph_structural,
)


def display_order(n: int) -> list[int]:
    """Vertex order placing non-units of Z_n first, then units, then 0 last,
    which shows the block layout of the cyclic-case matrices."""
    non_units = [m for m in range(1, n) if math.gcd(m, n) != 1]
    units = [m for m in range(1, n) if math.gcd(m, n) == 1]
    return non_units + units + [0]


def test_simple_graph_rejects_loops_and_asymmetry():
    with pytest.raises(ValueError, match="self-loop"):
        SimpleGraph([[1, 0], [0, 0]])
    with pytest.raises(ValueError, match="asymmetric"):
        SimpleGraph([[0, 1], [0, 0]])
    with pytest.raises(ValueError, match="square"):
        SimpleGraph([[0, 1, 0], [1, 0, 0]])


def test_simple_graph_names_the_lowest_asymmetric_pair():
    adj = np.zeros((12, 12), dtype=bool)
    adj[9, 2] = adj[5, 11] = adj[4, 7] = adj[7, 3] = True  # every one is unmatched
    adj[1, 6] = adj[6, 1] = True  # a matched edge below all of them
    with pytest.raises(ValueError, match=r"^asymmetric adjacency between 2 and 9$"):
        SimpleGraph(adj)
    adj[2, 9] = True  # matched now, so (3, 7) is the lowest pair left
    with pytest.raises(ValueError, match=r"^asymmetric adjacency between 3 and 7$"):
        SimpleGraph(adj)


def test_simple_graph_checks_symmetry_tile_by_tile(monkeypatch):
    # tiles of 4 over 11 vertices: the lowest pair is named from a ragged
    # corner tile, from an off-diagonal tile and from a diagonal tile
    monkeypatch.setattr(exactalg, "_SYMMETRY_TILE", 4)
    adj = ~np.eye(11, dtype=bool)
    for u, v in ((10, 9), (2, 10), (5, 6)):
        broken = adj.copy()
        broken[u, v] = False
        low, high = sorted((u, v))
        with pytest.raises(ValueError, match=rf"^asymmetric adjacency between {low} and {high}$"):
            SimpleGraph(broken)
    assert SimpleGraph(adj).edge_count() == 55


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


def test_builder_matches_bitmask_reference_over_catalog(catalog60):
    for name, g in catalog60:
        expected = SimpleGraph(masks_to_rows(reference_strong_power_graph(g)))
        assert strong_power_graph(g) == expected, name


def _relabelled_document(base: list[list[int]], rng: random.Random) -> dict:
    """The table with element k renamed perm[k], so the identity moves off 0."""
    n = len(base)
    perm = list(range(n))
    rng.shuffle(perm)
    table = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            table[perm[a]][perm[b]] = perm[base[a][b]]
    return {"order": n, "table": table}


def test_builder_matches_reference_on_relabelled_cayley_tables():
    rng = random.Random(20261018)
    sources = []
    for n in (12, 16, 20, 27, 32, 45, 64):
        sources.append(CyclicGroup(n))
    for orders in ((2, 6), (4, 4), (3, 9), (2, 2, 8), (4, 16), (2, 30)):
        sources.append(DirectProductGroup(orders))
    for m in (6, 9, 14, 24, 32):
        sources.append(DihedralGroup(m))
    for g in sources:
        assert 12 <= g.order <= 64
        loaded = load_cayley_table(_relabelled_document(g.cayley_table(), rng))
        expected = SimpleGraph(masks_to_rows(reference_strong_power_graph(loaded)))
        assert strong_power_graph(loaded) == expected, g
        # relabelling is an isomorphism, so the edge count is kept
        assert expected.edge_count() == strong_power_graph(g).edge_count(), g


def _cycle_row_position(g) -> str:
    """Where the builder's blocks of powers meet the first row k + 1 with
    a^(k+1) = a for every a, i.e. k = the exponent of g.  The blocks are the
    rows 1..w made by doubling, w = isqrt(n), then strides of w rows."""
    n = g.order
    w = math.isqrt(n)
    row = math.lcm(*(g.element_order(a) for a in range(n))) + 1
    if row > n - 1:
        return "never, n - 1 a multiple of w" if (n - 1) % w == 0 else "never"
    if row <= w:
        return "doubling"
    return "first row of a stride" if (row - w - 1) % w == 0 else "inside a stride"


def test_builder_matches_reference_past_order_64():
    rng = random.Random(20261019)
    groups = [
        DirectProductGroup([2] * 7),  # n = 128, w = 11, cycles at row 3
        DirectProductGroup([11, 11]),  # n = 121, row 12
        DihedralGroup(98),  # n = 196, w = 14, row 99 = 15 + 6 * 14
        DihedralGroup(64),  # n = 128, row 65
        DirectProductGroup([2, 100]),  # n = 200, row 101
        CyclicGroup(101),  # n - 1 = 100 = 10 * 10
        CyclicGroup(150),
        CyclicGroup(250),
        DihedralGroup(125),  # n = 250, exponent 250
    ]
    for source in (DihedralGroup(64), CyclicGroup(121)):
        # the table's law returns int64 products from the builder's int32 blocks
        groups.append(load_cayley_table(_relabelled_document(source.cayley_table(), rng)))
    positions = [_cycle_row_position(g) for g in groups]
    assert set(positions) == {
        "doubling",
        "first row of a stride",
        "inside a stride",
        "never",
        "never, n - 1 a multiple of w",
    }, positions
    for g, position in zip(groups, positions):
        expected = SimpleGraph(masks_to_rows(reference_strong_power_graph(g)))
        assert strong_power_graph(g) == expected, (g, position)


@pytest.mark.parametrize(
    "kind, arg, blocks",
    [
        # w = 15: doubling to a^15, then a^(s+1..s+15) = a^(s-14..s) a^15 up
        # to a^249, each exponent raised once; one call per exponent made 249
        (CyclicGroup, 250, [1, 2, 4, 7] + [15] * 15 + [9]),
        # n = 128, w = 11: a^65 = a for every a, inside the block of rows
        # 56..66, where the build stops
        (DihedralGroup, 64, [1, 2, 4, 3] + [11] * 5),
    ],
)
def test_builder_raises_int32_blocks_in_about_two_sqrt_n_law_calls(kind, arg, blocks):
    g = kind(arg)
    n = g.order
    law, rows = g.law, []

    def spy(a, b):
        assert a.dtype == b.dtype == np.int32 and a.ndim == 2 and b.shape == (n,)
        rows.append(len(a))
        return law(a, b)

    g.law = spy
    assert strong_power_graph(g) == strong_power_graph_structural(g)
    assert rows == blocks
    assert len(rows) <= 2 * math.ceil(math.sqrt(n)) + math.ceil(math.log2(n))


def test_build_memory_is_the_power_sets_and_their_product():
    g = CyclicGroup(1024)
    tracemalloc.start()
    try:
        strong_power_graph(g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the n x n float32 power sets, their float32 product and its boolean
    # mask make 9 MiB; the former loop of one law call per exponent peaked at
    # 9,454,276 bytes with numpy 2.4, and the blocks of about sqrt(n)
    # exponents may not raise that
    assert peak <= 9_454_276, peak


@st.composite
def edge_lists(draw):
    """(n, edges) for n = 1..40: random edges, one path through all vertices
    (diameter n - 1), two disjoint paths, or no edges at all."""
    n = draw(st.integers(1, 40))
    kind = draw(st.sampled_from(("random", "path", "two paths", "edgeless")))
    if kind == "edgeless":
        return n, []
    if kind == "random":
        vertex = st.integers(0, n - 1)
        pairs = draw(st.lists(st.tuples(vertex, vertex), max_size=3 * n))
        return n, [(u, v) for u, v in pairs if u != v]
    order = draw(st.permutations(range(n)))
    cut = draw(st.integers(1, n)) if kind == "two paths" else n
    return n, [(order[i], order[i + 1]) for i in range(n - 1) if i + 1 != cut]


@settings(max_examples=300, deadline=None)
@given(edge_lists())
def test_distances_and_components_match_the_bfs_reference(case):
    n, edges = case
    graph = graph_from_edges(n, edges)
    masks = [0] * n
    for u, v in edges:
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    assert graph == SimpleGraph(masks_to_rows(masks))
    assert graph.edges() == sorted({(min(e), max(e)) for e in edges})
    expected_components = reference_components(masks)
    assert components(graph) == expected_components
    if len(expected_components) == 1:
        rows = [reference_bfs_distances(masks, s) for s in range(n)]
        assert distance_matrix(graph).entries.tolist() == rows
        assert diameter(graph) == max(map(max, rows))
        assert is_connected(graph)
    else:
        with pytest.raises(DisconnectedGraph) as info:
            distance_matrix(graph)
        assert info.value.components == tuple(map(tuple, expected_components))
        assert not is_connected(graph)


def test_bfs_stops_once_every_pair_is_reached(monkeypatch):
    # a connected graph of diameter d takes d - 1 boolean products, so a
    # complete graph (every noncyclic group) takes none; a disconnected one
    # runs until the frontier is empty, one product past its last level
    cases = [
        (strong_power_graph(DirectProductGroup((10, 25))), 0),
        (strong_power_graph(DihedralGroup(125)), 0),
        (complete_graph(1), 0),
        (strong_power_graph(CyclicGroup(12)), 1),
        (graph_from_edges(6, [(i, i + 1) for i in range(5)]), 4),
        (strong_power_graph(CyclicGroup(5)), 1),
        (graph_from_edges(5, [(0, 1), (1, 2), (3, 4)]), 2),
    ]
    products = []
    meets = graphs._meets

    def spy(x, y):
        products.append(1)
        return meets(x, y)

    monkeypatch.setattr(graphs, "_meets", spy)
    for graph, expected in cases:
        products.clear()
        is_connected(graph)
        assert len(products) == expected, (graph, products)


def test_graph_adjacency_is_read_only_and_copied():
    rows = np.array([[0, 1], [1, 0]])
    graph = SimpleGraph(rows)
    rows[0, 1] = 0
    assert has_edge(graph, 0, 1)
    with pytest.raises(ValueError):
        graph.adj[0, 1] = False
    with pytest.raises(ValueError, match="0 or 1"):
        SimpleGraph([[0, 2], [2, 0]])
    with pytest.raises(ValueError, match="at least one vertex"):
        SimpleGraph(np.zeros((0, 0), dtype=bool))


def test_matrices_are_read_only_int64_arrays():
    graph = strong_power_graph(CyclicGroup(6))
    for matrix in (adjacency_matrix(graph), distance_matrix(graph)):
        assert matrix.entries.dtype == np.int64 and matrix.entries.shape == (6, 6)
        assert not matrix.entries.flags.writeable


def test_z5_splits_into_isolated_zero_and_clique():
    graph = strong_power_graph(CyclicGroup(5))
    assert components(graph) == [[0], [1, 2, 3, 4]]
    sub = [v for v in range(1, 5)]
    assert all(has_edge(graph, u, v) for u in sub for v in sub if u != v)
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
    assert d.entries.tolist() == [[0, 2, 1, 2], [2, 0, 1, 1], [1, 1, 0, 1], [2, 1, 1, 0]]


def test_distance_matrix_complete_graph():
    d = distance_matrix(complete_graph(5))
    assert all(d.entries[i, j] == (0 if i == j else 1) for i in range(5) for j in range(5))


def test_distance_entries_bounded_for_composite_orders():
    for n in (4, 6, 12, 27, 30):
        d = distance_matrix(strong_power_graph(CyclicGroup(n)))
        values = set(d.entries.flat)
        assert values <= {0, 1, 2}, n
        assert all(d.entries[i, i] == 0 for i in range(n))
        assert all(d.entries[i, j] == d.entries[j, i] for i in range(n) for j in range(n))


def test_diameter():
    assert diameter(strong_power_graph(CyclicGroup(4))) == 2
    assert diameter(complete_graph(7)) == 1
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
    assert set(np.flatnonzero(graph.adj[0]).tolist()) == {2, 3, 4, 6, 8, 9, 10}


def test_display_order_blocks():
    order = display_order(12)
    assert order == [2, 3, 4, 6, 8, 9, 10, 1, 5, 7, 11, 0]
    # permuting D(Z_12) into this layout shows the block pattern: the last
    # row holds 2 exactly against the unit block
    d = permuted(distance_matrix(strong_power_graph(CyclicGroup(12))), order)
    units = {1, 5, 7, 11}
    last = d.entries[-1]
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


def _assert_serializers_match_the_references(graph, labels, group):
    assert graph.edges() == reference_edges(graph), group
    assert to_dot(graph) == reference_to_dot(graph), group
    assert to_dot(graph, labels) == reference_to_dot(graph, labels), group
    assert to_json(graph, group) == reference_to_json(graph, group), group


def test_serializers_match_the_per_edge_references_over_catalog(catalog60):
    # the catalog holds Z_1 (one vertex, no edges) and Z_2 (an edgeless row)
    for name, g in catalog60:
        labels = [g.label(v) for v in range(g.order)]
        _assert_serializers_match_the_references(strong_power_graph(g), labels, name)
    graph = strong_power_graph(CyclicGroup(256))
    _assert_serializers_match_the_references(graph, [f"z{v}" for v in range(256)], "cyclic:256")


def test_serializers_match_the_per_edge_references_on_relabelled_tables():
    rng = random.Random(13)
    for g in (CyclicGroup(36), DirectProductGroup((2, 2, 8)), DihedralGroup(20), CyclicGroup(97)):
        document = _relabelled_document(g.cayley_table(), rng)
        for labels in (None, [f'"{v}\\' if v % 3 else f"e\\{v}\"x" for v in range(g.order)]):
            loaded = load_cayley_table(dict(document, labels=labels) if labels else document)
            group = f'cayley:/tables/"{g.order}"\\é.json'
            names = [loaded.label(v) for v in range(loaded.order)]
            _assert_serializers_match_the_references(strong_power_graph(loaded), names, group)


def test_csv_export():
    m = IntMatrix([[0, 1], [1, 0]])
    assert matrix_to_csv(m) == "0,1\n1,0\n"
