"""Strong power graph construction, matrices, and graph quantities."""

import logging
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
    components,
    diameter,
    edges,
    element_order,
    graph_from_edges,
    has_edge,
    label,
    level_synchronous_distances,
    masks_to_rows,
    permuted,
    reference_bfs_distances,
    reference_components,
    reference_edges,
    reference_power_sets,
    reference_strong_power_graph,
    reference_to_dot,
    reference_to_json,
    strong_power_graph_structural,
    whole_matrix_strong_power_graph,
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
    assert sorted(edges(graph)) == [(0, 2), (1, 2), (1, 3), (2, 3)]


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


def _relabelled_cayley(g):
    """g's Cayley table relabelled by a fixed permutation and loaded.  It
    answers is_cyclic with g's structural answer, which an isomorphism
    keeps, so only the build calls its law."""
    loaded = load_cayley_table(_relabelled_document(g.cayley_table(), random.Random(g.order)))
    loaded.is_cyclic = g.is_cyclic
    return loaded


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


def test_builder_and_distances_match_the_whole_matrix_references(q8):
    """Z_1..Z_300, D_1..D_150, Z_a x Z_b for 2 <= a, b <= 15, three
    three-factor products, ten relabelled Cayley tables and Q8: the
    adjacency equals the one product powers @ powers.T, and the distances,
    dtype included, equal the level-synchronous BFS.  Every graph has a
    vertex adjacent to every other one or a vertex adjacent to none, so
    both skips are covered."""
    rng = random.Random(20261020)
    groups = [CyclicGroup(n) for n in range(1, 301)]
    groups += [DihedralGroup(m) for m in range(1, 151)]
    groups += [DirectProductGroup([a, b]) for a in range(2, 16) for b in range(2, 16)]
    groups += [DirectProductGroup(orders) for orders in ((2, 3, 5), (2, 2, 9), (3, 4, 6))]
    for source in (CyclicGroup(12), CyclicGroup(49), CyclicGroup(64), CyclicGroup(97),
                   DirectProductGroup((2, 8)), DirectProductGroup((3, 3, 3)),
                   DirectProductGroup((5, 25)), DihedralGroup(10), DihedralGroup(32),
                   DihedralGroup(60)):
        groups.append(load_cayley_table(_relabelled_document(source.cayley_table(), rng)))
    groups.append(q8)
    assert len(groups) == 660
    universal = isolated = 0
    for g in groups:
        graph = strong_power_graph(g)
        assert graph == whole_matrix_strong_power_graph(g), g
        dist = graphs._distances(graph)
        expected = level_synchronous_distances(graph)
        assert dist.dtype == expected.dtype and np.array_equal(dist, expected), g
        degrees = graph.adj.sum(axis=1)
        universal += bool((degrees == g.order - 1).any())
        isolated += bool(g.order >= 2 and (degrees == 0).any())
    # the isolated ones are Z_p, D_1 = Z_2 and the relabelled Z_97
    assert (universal, isolated) == (660 - 64, 64)


def test_build_meets_only_the_rows_without_the_shared_element(monkeypatch):
    # k rows lack the element in the most power sets: none for a noncyclic
    # group (e), one for Z_p and Z_(2^m) (e's set is {e}); n / 2^4 = 125
    # rows of Z_2000 lack its involution, but only n / 5^3 = 16 lack an
    # element of order 5
    shapes = []
    meets = graphs._meets

    def spy(x, y):
        shapes.append(x.shape)
        return meets(x, y)

    monkeypatch.setattr(graphs, "_meets", spy)
    for g, k in ((DihedralGroup(125), 0), (DirectProductGroup((4, 8)), 0),
                 (CyclicGroup(97), 1), (CyclicGroup(256), 1), (CyclicGroup(2000), 16),
                 (CyclicGroup(12), 3)):
        shapes.clear()
        strong_power_graph(g)
        assert shapes == [(k, g.order)], (g, shapes)


def _cycle_row_position(g, a: int) -> str:
    """Where the builder's blocks of powers meet the first row k + 1 with
    a^(k+1) = a, i.e. k = the order of a.  The blocks are the head, rows
    1..h made by doubling, then strides of h rows up to row n - 1."""
    n = g.order
    h = min(max(math.isqrt(n), graphs._BLOCK_ENTRIES // n), n - 1)
    row = element_order(g, a) + 1
    if row > n - 1:
        return "never, last stride full" if n - 1 > h and (n - 1 - h) % h == 0 else "never"
    if row <= h:
        return "head"
    return "first row of a stride" if (row - h - 1) % h == 0 else "inside a stride"


def test_builder_matches_reference_past_order_64():
    rng = random.Random(20261019)
    groups = [
        CyclicGroup(1),  # no exponent at all
        CyclicGroup(2),  # a head of one row
        CyclicGroup(3),
        DirectProductGroup([2] * 7),  # n = 128, h = 127, every cycle closes at row 3
        DirectProductGroup([11, 11]),  # n = 121, row 12
        DihedralGroup(98),  # n = 196, h = 83, rotations close at row 99, inside a stride
        DihedralGroup(64),  # n = 128, row 65
        DirectProductGroup([2, 100]),  # n = 200, h = 81, row 101
        CyclicGroup(101),  # generators never close
        CyclicGroup(150),
        CyclicGroup(181),  # h = 90: the one stride after the head is full
        CyclicGroup(250),  # h = 65: orders 125 and 250 go on into the strides
        DihedralGroup(125),  # n = 250, rotations of order 125 close at row 126
        CyclicGroup(256),  # h = 64: orders 64 and 128 close on a stride's first row
    ]
    for source in (DihedralGroup(64), CyclicGroup(121), DihedralGroup(128)):
        # the table's law returns int64 products from the builder's int32 blocks
        groups.append(load_cayley_table(_relabelled_document(source.cayley_table(), rng)))
    positions = [{_cycle_row_position(g, a) for a in range(g.order)} for g in groups]
    assert set().union(*positions) == {
        "head",
        "first row of a stride",
        "inside a stride",
        "never",
        "never, last stride full",
    }, positions
    assert "first row of a stride" in positions[-1], positions[-1]  # through the table
    for g, position in zip(groups, positions):
        powers = graphs._power_sets(g)
        masks = reference_power_sets(g)
        assert powers.tolist() == masks_to_rows(masks), (g, position)
        for a in range(g.order):
            if element_order(g, a) == g.order:  # a generator: a^1 .. a^(n-1), never e
                assert powers[a].sum() == g.order - 1 and (a == 0 or powers[a, 0] == 0), (g, a)
        expected = SimpleGraph(masks_to_rows(reference_strong_power_graph(g)))
        assert strong_power_graph(g) == expected, (g, position)


@pytest.mark.parametrize(
    "kind, arg, blocks",
    [
        # h = 65: the head doubles to a^65 over all 250 elements; the 50 of
        # order at most 50 close in it, the 100 of order 125 in the first
        # stride, and the 100 generators go on to a^249; one call per
        # exponent made 249 calls on 250 elements each
        (CyclicGroup, 250, [(1, 250), (2, 250), (4, 250), (8, 250), (16, 250), (32, 250),
                            (1, 250), (65, 200), (65, 100), (54, 100)]),
        # n = 128, h = 127: a^65 = a for every a, in the last doubling step's
        # rows 65..127, so no stride is needed
        (DihedralGroup, 64, [(1, 128), (2, 128), (4, 128), (8, 128), (16, 128), (32, 128),
                             (63, 128)]),
        # n = 250, h = 65: the reflections and the rotations of order 1, 5 and
        # 25 close in the head, the 100 rotations of order 125 at row 126
        (DihedralGroup, 125, [(1, 250), (2, 250), (4, 250), (8, 250), (16, 250), (32, 250),
                              (1, 250), (65, 100)]),
        # n = 128, h = 127: a^3 = a for every a, so the head stops after its
        # second doubling step
        (DirectProductGroup, [2] * 7, [(1, 128), (2, 128)]),
        # D_125 relabelled through a Cayley table, whose law is the flat
        # take: the same isomorphism class closes in the same blocks
        (_relabelled_cayley, DihedralGroup(125), [(1, 250), (2, 250), (4, 250), (8, 250),
                                                  (16, 250), (32, 250), (1, 250), (65, 100)]),
    ],
)
def test_builder_raises_int32_blocks_in_about_two_sqrt_n_law_calls(kind, arg, blocks):
    g = kind(arg)
    n = g.order
    law, calls = g.law, []

    def spy(a, b):
        assert a.dtype == b.dtype == np.int32 and a.ndim == 2 and b.shape == (a.shape[1],)
        calls.append(a.shape)
        return law(a, b)

    g.law = spy
    assert strong_power_graph(g) == strong_power_graph_structural(g)
    assert calls == blocks
    assert len(calls) <= 2 * math.ceil(math.sqrt(n)) + math.ceil(math.log2(n))
    entries = sum(rows * cols for rows, cols in calls)
    assert entries < (n - 1) * n
    if kind is DihedralGroup and arg == 125:
        assert entries <= 0.4 * (n - 1) * n, entries


def test_build_logs_its_law_calls_at_debug(caplog):
    with caplog.at_level(logging.DEBUG, logger="spg"):
        strong_power_graph(CyclicGroup(250))
    assert [r.getMessage() for r in caplog.records] == [
        "powers of order 250: 10 law calls, 40900 law entries, 200 elements open after the head"
    ]


def test_build_memory_is_the_power_sets_and_their_product():
    g = CyclicGroup(1024)
    tracemalloc.start()
    try:
        strong_power_graph(g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the n x n float32 power sets, the whole product powers @ powers.T and
    # its boolean mask made 9 MiB; the former loop of one law call per
    # exponent peaked at 9,454,276 bytes with numpy 2.4, and the blocks of
    # about sqrt(n) exponents may not raise that
    assert peak <= 9_454_276, peak


def test_bfs_memory_casts_the_adjacency_to_float32_once():
    # K_n minus a perfect matching has no vertex adjacent to every other
    # one, so its distances take the BFS, one level-2 product
    n = 2048
    adj = ~np.eye(n, dtype=bool)
    adj[np.arange(n), np.arange(n) ^ 1] = False
    graph = SimpleGraph(adj)
    tracemalloc.start()
    try:
        dist = graphs._distances(graph)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # 12 bytes an entry: the int16 distances, the unreached mask, the float32
    # adjacency, the level-2 float32 product and its boolean mask, 48 MiB;
    # a second float32 cast of the first frontier made 16 bytes, 60 MiB
    assert peak < 13 * n * n, peak
    assert dist.max() == 2 and (dist >= 0).all()
    assert np.array_equal(dist, np.where(adj, 1, 2) - 2 * np.eye(n, dtype=int))


def test_shortcut_memory_is_the_power_sets_and_the_distances():
    n = 2000
    g = CyclicGroup(n)
    tracemalloc.start()
    try:
        graph = strong_power_graph(g)
        held, build_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        distance_matrix(graph)
        _, distance_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the build holds the float32 power sets, 4n^2 bytes, meets only k = 16
    # rows and frees the sets before the boolean adjacency and its copy,
    # 2n^2, are made: 16.9 MiB; the whole product powers @ powers.T peaked
    # at 34.3 MiB, about 9n^2
    assert build_peak < 5 * n * n, build_peak
    # over the graph it keeps: the int16 distances, 2n^2 bytes, and
    # IntMatrix's copy of them, 15.3 MiB; the BFS peaked at 45.8 MiB
    assert distance_peak - held < 4.5 * n * n, distance_peak - held


@st.composite
def edge_lists(draw):
    """(n, edges) for n = 1..40: random edges, random edges plus a vertex
    joined to every other one, random edges with every edge at one vertex
    taken out, random edges with some vertices isolated and a vertex
    joined to every other one left (as in Z_p), one path through all
    vertices (diameter n - 1), two disjoint paths, or no edges at all."""
    n = draw(st.integers(1, 40))
    kind = draw(st.sampled_from(
        ("random", "random plus a universal vertex", "random plus an isolated vertex",
         "random plus isolated vertices and a vertex joined to the rest",
         "path", "two paths", "edgeless")
    ))
    if kind == "edgeless":
        return n, []
    if kind.startswith("random"):
        vertex = st.integers(0, n - 1)
        pairs = draw(st.lists(st.tuples(vertex, vertex), max_size=3 * n))
        edges = [(u, v) for u, v in pairs if u != v]
        if kind == "random":
            return n, edges
        hub = draw(vertex)
        edges = [(u, v) for u, v in edges if hub not in (u, v)]
        if kind == "random plus a universal vertex":
            edges += [(hub, v) for v in range(n) if v != hub]
        if kind == "random plus isolated vertices and a vertex joined to the rest":
            isolated = set(draw(st.lists(vertex, min_size=1, max_size=n))) - {hub}
            edges = [(u, v) for u, v in edges if not {u, v} & isolated]
            edges += [(hub, v) for v in range(n) if v != hub and v not in isolated]
        return n, edges
    order = draw(st.permutations(range(n)))
    cut = draw(st.integers(1, n)) if kind == "two paths" else n
    return n, [(order[i], order[i + 1]) for i in range(n - 1) if i + 1 != cut]


@settings(max_examples=300, deadline=None)
@given(edge_lists())
def test_distances_and_components_match_the_bfs_reference(case):
    n, edge_list = case
    graph = graph_from_edges(n, edge_list)
    masks = [0] * n
    for u, v in edge_list:
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    assert graph == SimpleGraph(masks_to_rows(masks))
    assert edges(graph) == sorted({(min(e), max(e)) for e in edge_list})
    expected_components = reference_components(masks)
    assert components(graph) == expected_components
    dist = graphs._distances(graph)
    expected = level_synchronous_distances(graph)
    assert dist.dtype == expected.dtype and np.array_equal(dist, expected)
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
    # a graph with a vertex adjacent to every other one (every noncyclic
    # group, Z_12) takes no boolean product, nor does a graph of n >= 2 with
    # a vertex of degree 0 (Z_5); any other connected graph of diameter d
    # takes d - 1, and a disconnected one runs until the frontier is empty,
    # one product past its last level
    cases = [
        (strong_power_graph(DirectProductGroup((10, 25))), 0),
        (strong_power_graph(DihedralGroup(125)), 0),
        (complete_graph(1), 0),
        (strong_power_graph(CyclicGroup(12)), 0),
        (graph_from_edges(6, [(i, i + 1) for i in range(5)]), 4),
        (strong_power_graph(CyclicGroup(5)), 0),
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


def test_prime_order_distances_take_no_product(monkeypatch):
    # Z_p's identity is isolated and its other elements are pairwise
    # adjacent: once e's row and column are -1, every other vertex is
    # adjacent to the rest, so no BFS runs
    built = [(p, strong_power_graph(CyclicGroup(p))) for p in (2, 3, 5, 97, 2039)]

    def refuse(x, y):
        raise AssertionError("a boolean product was made")

    monkeypatch.setattr(graphs, "_meets", refuse)
    for p, graph in built:
        expected = np.ones((p, p), dtype=int)
        expected[0] = expected[:, 0] = -1
        np.fill_diagonal(expected, 0)
        assert np.array_equal(graphs._distances(graph), expected), p
        assert components(graph) == [[0], list(range(1, p))], p
        with pytest.raises(DisconnectedGraph):
            distance_matrix(graph)


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


def test_matrices_are_read_only_narrow_arrays():
    # adjacency is int8; distances take the narrowest signed dtype that
    # holds -1..n-1, int8 up to n = 128 and int16 above
    for g in (CyclicGroup(6), CyclicGroup(128), CyclicGroup(129), CyclicGroup(250),
              DihedralGroup(3), DihedralGroup(64), DihedralGroup(65), DihedralGroup(125)):
        n = g.order
        graph = strong_power_graph(g)
        adjacency, distance = adjacency_matrix(graph), distance_matrix(graph)
        assert adjacency.entries.dtype == np.int8
        assert distance.entries.dtype == (np.int8 if n <= 128 else np.int16), n
        for matrix in (adjacency, distance):
            assert matrix.entries.shape == (n, n) and not matrix.entries.flags.writeable
        # a strong power graph has diameter at most 2
        assert np.array_equal(adjacency.entries, graph.adj)
        assert np.array_equal(distance.entries, np.where(graph.adj, 1, 2) - np.eye(n, dtype=int) * 2)


def test_distance_dtype_holds_the_longest_path():
    # a path on n vertices reaches distance n - 1, which int8 holds up to
    # n = 128: a strong power graph's bound of 2 is not assumed
    for n, dtype in ((100, np.int8), (128, np.int8), (129, np.int16), (300, np.int16)):
        path = graph_from_edges(n, [(v, v + 1) for v in range(n - 1)])
        dist = distance_matrix(path).entries
        assert dist.dtype == dtype, n
        assert dist[0, n - 1] == dist[n - 1, 0] == n - 1
        assert dist.tolist() == [[abs(u - v) for v in range(n)] for u in range(n)]
        assert diameter(path) == n - 1
        assert components(path) == [list(range(n))]
    # two paths of 64 vertices side by side: unreachable pairs hold -1
    pair = graph_from_edges(128, [(v, v + 1) for v in range(127) if v != 63])
    dist = graphs._distances(pair)
    assert dist.dtype == np.int8 and (dist[:64, 64:] == -1).all() and dist[0, 63] == 63
    assert components(pair) == [list(range(64)), list(range(64, 128))]
    assert not is_connected(pair)
    with pytest.raises(DisconnectedGraph):
        diameter(pair)


def test_z5_splits_into_isolated_zero_and_clique():
    graph = strong_power_graph(CyclicGroup(5))
    assert components(graph) == [[0], [1, 2, 3, 4]]
    sub = [v for v in range(1, 5)]
    assert all(has_edge(graph, u, v) for u in sub for v in sub if u != v)
    with pytest.raises(DisconnectedGraph) as info:
        distance_matrix(graph)
    assert info.value.components == ((0,), (1, 2, 3, 4))


def test_disconnected_message_is_bounded_and_the_components_whole():
    # 300 isolated vertices, then a path of 200: the message lists four
    # components by size and first vertices, the exception holds all 301
    graph = graph_from_edges(500, [(v, v + 1) for v in range(300, 499)])
    with pytest.raises(DisconnectedGraph) as info:
        distance_matrix(graph)
    assert len(info.value.components) == 301
    assert info.value.components[-1] == tuple(range(300, 500))
    assert str(info.value) == (
        "graph is disconnected: 301 components: "
        "size 1 [0]; size 1 [1]; size 1 [2]; size 1 [3]; ..."
    )


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
    assert edges(graph) == reference_edges(graph), group
    assert to_dot(graph) == reference_to_dot(graph), group
    assert to_dot(graph, labels) == reference_to_dot(graph, labels), group
    assert to_json(graph, group) == reference_to_json(graph, group), group


def test_serializers_match_the_per_edge_references_over_catalog(catalog60):
    # the catalog holds Z_1 (one vertex, no edges) and Z_2 (an edgeless row)
    for name, g in catalog60:
        labels = [label(g, v) for v in range(g.order)]
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
            names = [label(loaded, v) for v in range(loaded.order)]
            _assert_serializers_match_the_references(strong_power_graph(loaded), names, group)


def test_csv_export():
    m = IntMatrix([[0, 1], [1, 0]])
    assert matrix_to_csv(m) == "0,1\n1,0\n"
