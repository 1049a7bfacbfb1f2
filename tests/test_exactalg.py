"""Exact matrices, polynomials, characteristic polynomials, closed forms."""

import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from spg.exactalg import (
    InexactDivision,
    IntegerGrowth,
    IntMatrix,
    IntPolynomial,
    NoClosedForm,
    adjacency_charpoly_formula,
    adjacency_cubic,
    adjacency_formula_factors,
    charpoly,
    charpoly_factors,
    closed_form,
    complete_graph_factors,
    distance_charpoly_formula,
    distance_cubic,
    distance_formula_factors,
    expand,
    first_asymmetry,
    poly_mul,
    prime_adjacency_charpoly,
    prime_adjacency_factors,
    same_product,
)
from spg import exactalg
from spg.cli import parse_group_spec
from spg.graphs import adjacency_matrix, distance_matrix, strong_power_graph
from spg.spectra import symmetric_eigenvalues

from conftest import (
    bareiss_det,
    binom_power,
    identity_matrix,
    permuted,
    poly_eval,
    poly_from_coeff_strings,
)
from spg.groups import CyclicGroup, DihedralGroup, is_prime


def test_int_matrix_takes_square_int64_arrays():
    arr = np.array([[0, -3], [2**62, 5]], dtype=np.int64)
    m = IntMatrix(arr)
    assert m.entries.dtype == np.int64
    assert m.entries.tolist() == [[0, -3], [2**62, 5]]
    assert not m.entries.flags.writeable
    with pytest.raises(ValueError):
        m.entries[0, 0] = 1
    arr[0, 0] = 9  # the matrix keeps its own copy
    assert m.entries[0, 0] == 0
    # nested lists become int64
    assert IntMatrix([[2**63 - 1, 0], [0, -(2**63)]]).entries.dtype == np.int64
    # equality and hash follow the values, whatever the input was
    assert m == IntMatrix([[0, -3], [2**62, 5]])
    assert hash(m) == hash(IntMatrix([[0, -3], [2**62, 5]]))
    assert m != IntMatrix([[0, -3], [2**62, 6]])
    # any signed integer array is taken as it is; any other array goes
    # through the per-entry check
    narrow = IntMatrix(np.array([[1, 0], [0, 1]], dtype=np.int32))
    assert narrow.entries.dtype == np.int32 and narrow == identity_matrix(2)
    with pytest.raises(ValueError, match="expected an integer"):
        IntMatrix(np.eye(2))
    with pytest.raises(ValueError, match="row 0 has length 3"):
        IntMatrix(np.zeros((2, 3), dtype=np.int64))
    with pytest.raises(ValueError, match="at least one row"):
        IntMatrix(np.zeros((0, 0), dtype=np.int64))
    # input that is not two-dimensional names its shape or its first row
    with pytest.raises(ValueError, match=r"row 0 is 1, expected a list of 2 entries"):
        IntMatrix([1, 2])
    with pytest.raises(ValueError, match=r"row 1 is 3, expected a list of 2 entries"):
        IntMatrix([[1, 2], 3])
    with pytest.raises(ValueError, match=r"shape \(2,\), expected \(n, n\)"):
        IntMatrix(np.array([1, 2]))
    with pytest.raises(ValueError, match=r"shape \(\), expected \(n, n\)"):
        IntMatrix(np.array(5))
    with pytest.raises(ValueError, match=r"shape \(2, 2, 2\), expected \(n, n\)"):
        IntMatrix(np.zeros((2, 2, 2), dtype=np.int8))
    with pytest.raises(ValueError, match="matrix is int, expected a list of rows"):
        IntMatrix(5)
    with pytest.raises(ValueError, match=r"row 0 is 1, expected a list of 2 entries"):
        symmetric_eigenvalues([1, 2])


def test_int_matrix_keeps_a_signed_dtype_and_hashes_by_value():
    values = [[0, -3, 7], [-3, 5, -128], [7, -128, 127]]
    wide = IntMatrix(np.array(values, dtype=np.int64))
    for dtype in (np.int8, np.int16, np.int32, np.int64, np.dtype(">i2")):
        arr = np.array(values, dtype=dtype)
        m = IntMatrix(arr)
        assert m.entries.dtype == dtype and m.entries.tolist() == values
        assert not m.entries.flags.writeable and not np.shares_memory(m.entries, arr)
        arr[0, 0] = 9  # the matrix keeps its own copy
        assert m.entries[0, 0] == 0
        # equal values compare and hash equal, whatever the dtype
        assert m == wide and hash(m) == hash(wide) == hash(IntMatrix(values))
    assert IntMatrix(np.array(values, dtype=np.int8)) != IntMatrix([[0, -3, 7], [-3, 5, -128], [7, -128, 126]])
    # unsigned, boolean and float arrays go through the per-entry check:
    # unsigned values that fit become int64, bools and floats are refused
    for dtype in (np.uint8, np.uint16, np.uint32, np.uint64):
        m = IntMatrix(np.array([[0, 3], [3, 255]], dtype=dtype))
        assert m.entries.dtype == np.int64 and m == IntMatrix([[0, 3], [3, 255]])
    for dtype in (bool, np.float32, np.float64):
        with pytest.raises(ValueError, match=r"entry \(0, 0\) is .*expected an integer"):
            IntMatrix(np.eye(2, dtype=dtype))


def test_int_matrix_refuses_entries_beyond_int64():
    with pytest.raises(ValueError, match=r"entry \(1, 0\) is 9223372036854775808, beyond int64"):
        IntMatrix([[0, 1], [2**63, 0]])
    beyond = np.array([[0, -(2**63) - 1], [1, 0]], dtype=object)
    with pytest.raises(ValueError, match=r"entry \(0, 1\) is -9223372036854775809, beyond int64"):
        IntMatrix(beyond)
    # an unsigned array is refused at its offending entry, and only there
    for i, j in ((0, 0), (1, 0)):
        unsigned = np.zeros((2, 2), dtype=np.uint64)
        unsigned[i, j] = 2**63
        with pytest.raises(ValueError, match=rf"entry \({i}, {j}\) is 9223372036854775808, beyond int64"):
            IntMatrix(unsigned)
    fits = IntMatrix(np.array([[2**63 - 1, 0], [0, -(2**63)]], dtype=object))
    assert fits.entries.dtype == np.int64
    assert fits.entries.tolist() == [[2**63 - 1, 0], [0, -(2**63)]]


def test_charpoly_swap_matrix():
    assert charpoly(IntMatrix([[0, 1], [1, 0]])) == IntPolynomial([-1, 0, 1])


def test_charpoly_takes_what_int_matrix_takes():
    # as symmetric_eigenvalues: any argument goes through IntMatrix first
    rows = [[0, 1, 2], [1, 5, -3], [2, -3, 0]]
    assert charpoly_factors(rows) == charpoly_factors(IntMatrix(rows))
    assert charpoly([[0, 1], [1, 0]]) == IntPolynomial([-1, 0, 1])
    with pytest.raises(ValueError, match=r"entry \(1, 0\) is 1.5, expected an integer"):
        charpoly_factors([[0, 1], [1.5, 0]])


def test_charpoly_identity():
    assert charpoly(identity_matrix(3)) == IntPolynomial([-1, 3, -3, 1])


def test_charpoly_one_by_one():
    assert charpoly(IntMatrix([[5]])) == IntPolynomial([-5, 1])


def test_charpoly_adjacency_z4():
    a = adjacency_matrix(strong_power_graph(CyclicGroup(4)))
    poly = charpoly(a)
    assert poly == IntPolynomial([1, -2, -4, 0, 1])
    # x^3 coefficient is -trace = 0; x^2 coefficient is -|E| = -4
    assert poly.coefficient(3) == 0
    assert poly.coefficient(2) == -4


def test_charpoly_trace_and_edge_coefficients():
    for n in (5, 9, 16, 24):
        graph = strong_power_graph(CyclicGroup(n))
        poly = charpoly(adjacency_matrix(graph))
        assert poly.coefficient(n - 1) == 0, n
        assert poly.coefficient(n - 2) == -graph.edge_count(), n


def test_charpoly_is_monic():
    # exact (monic of degree n, among the determinant checks) or refused;
    # orders 1 and 2 take no pass, so they are exact
    rng = random.Random(7)
    for n in (1, 2, 5, 11):
        rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        assert _exact_or_refused(rows) or n > 2, n


def test_charpoly_invariant_under_permutation():
    rng = random.Random(99)
    for n in (6, 12, 30):
        graph = strong_power_graph(CyclicGroup(n))
        for matrix in (adjacency_matrix(graph), distance_matrix(graph)):
            order = list(range(n))
            rng.shuffle(order)
            assert charpoly(permuted(matrix, order)) == charpoly(matrix), n


def test_charpoly_large_entries():
    big = 2**63 - 1  # far beyond 2^62/n, but order 2 needs no integer pass
    m = IntMatrix([[big, 1], [1, -big]])
    # det = -big^2 - 1, trace = 0
    assert charpoly(m) == IntPolynomial([-(big * big) - 1, 0, 1])


@pytest.mark.parametrize("k", [1, 3, 2**40])
def test_charpoly_meets_the_hadamard_bound_with_equality(k):
    # k times a Sylvester Hadamard matrix of order 16 has orthogonal rows of
    # norm 4k, so |det| = (4k)^16 is exactly the product of the row norms
    h = [[1]]
    for _ in range(4):
        h = [row + row for row in h] + [row + [-v for v in row] for row in h]
    m = IntMatrix([[k * v for v in row] for row in h])
    rows = m.entries.tolist()
    # the integer stage reduces it completely, k * 2^4 and all
    poly = charpoly(m)
    assert abs(poly.coefficient(0)) == (4 * k) ** 16
    assert poly.coefficient(0) == bareiss_det(m)  # n = 16 is even
    for x in (-2, 1, 5):
        shifted = IntMatrix(
            [[x * (i == j) - v for j, v in enumerate(row)] for i, row in enumerate(rows)]
        )
        assert poly_eval(poly, x) == bareiss_det(shifted), x


def test_bareiss_det_examples():
    assert bareiss_det(IntMatrix([[0, 1], [1, 0]])) == -1
    assert bareiss_det(identity_matrix(4)) == 1
    assert bareiss_det(IntMatrix([[1, 2], [2, 4]])) == 0
    assert bareiss_det(IntMatrix([[0, 0], [0, 0]])) == 0


def test_bareiss_matches_charpoly_constant():
    # det(M) = (-1)^n * charpoly(M)(0), checked on graph matrices up to n = 40
    for n in (4, 9, 25, 40):
        graph = strong_power_graph(CyclicGroup(n))
        for matrix in (adjacency_matrix(graph), distance_matrix(graph)):
            constant = charpoly(matrix).coefficient(0)
            assert bareiss_det(matrix) == (-1) ** n * constant, n


@pytest.mark.parametrize("n", [1, 2, 7, 60, 110, 150, 300])
def test_the_int64_limit_is_2_62_over_the_order(n):
    small = (1 << 62) // n
    if n <= 2:
        # no pass is needed below order 3: entries at both ends of int64 finish
        a, b = 2**63 - 1, -(2**63)
        if n == 1:
            assert charpoly(IntMatrix([[b]])) == IntPolynomial([-b, 1])
        else:
            expected = IntPolynomial([a * a - b * b, -2 * a, 1])
            assert charpoly(IntMatrix([[a, b], [b, a]])) == expected
        return
    # column 0 is (corner, 1, ..., 1): the pass on it has q = 1, so it is
    # taken exactly when corner * 2 * (1 + n) < 2^62/n, and it leaves the
    # matrix Hessenberg, with charpoly x^(n-1) (x - corner)
    top = (small - 1) // (2 * (n + 1))
    for corner in (top, top + 1):
        rows = [[corner] + [0] * (n - 1)] + [[1] + [0] * (n - 1) for _ in range(n - 1)]
        if corner == top:
            expected = IntPolynomial([0] * (n - 1) + [-corner, 1])
            assert charpoly(IntMatrix(rows)) == expected
        else:
            message = rf"stopped at column 0 of n = {n}: .* 2\^62/n = {small} or more"
            with pytest.raises(IntegerGrowth, match=message):
                charpoly(IntMatrix(rows))


def _assert_charpoly_by_determinants(rows):
    """charpoly(M) is monic of degree n and agrees with det(xI - M), taken
    by Bareiss, at the n + 1 points 0..n, which determine it."""
    m = IntMatrix(rows)
    poly = charpoly(m)
    assert poly.degree == m.n and poly.is_monic()
    rows = m.entries.tolist()  # Python integers: no int64 wraparound below
    for x0 in range(m.n + 1):
        shifted = IntMatrix(
            [
                [(x0 if i == j else 0) - rows[i][j] for j in range(m.n)]
                for i in range(m.n)
            ]
        )
        assert poly_eval(poly, x0) == bareiss_det(shifted), (rows, x0)


def _exact_or_refused(rows):
    """True when the integer stage, run alone on M, reduces every column and
    charpoly(M) agrees with det(xI - M) (see _assert_charpoly_by_determinants);
    False when the stage stops and charpoly(M) raises IntegerGrowth naming
    the column where it stopped.  Never a wrong charpoly."""
    n = len(rows)
    done = exactalg._integer_hessenberg(np.array(rows, dtype=np.int64))
    if done == n - 1:
        _assert_charpoly_by_determinants(rows)
        return True
    with pytest.raises(IntegerGrowth, match=f"stopped at column {done} of n = {n}: "):
        charpoly(IntMatrix(rows))
    return False


def _square(n, entries):
    return st.lists(
        st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n
    )


def _diagonal_blocks():
    block = st.integers(1, 3).flatmap(lambda k: _square(k, st.integers(-3, 3)))
    return st.lists(st.tuples(block, st.integers(1, 3)), min_size=1, max_size=3)


def _conjugate(rows, i, j, c):
    """rows := E rows E^-1 in place, for the unimodular E = I + c e_i e_j^T."""
    for k in range(len(rows)):
        rows[i][k] += c * rows[j][k]
    for k in range(len(rows)):
        rows[k][j] -= c * rows[k][i]


@st.composite
def _unimodular_conjugates(draw):
    # block upper triangular, with column 0 = (a, 1, 0, ..., 0), conjugated
    # by U = diag(1, L R) with L lower and R upper unitriangular.  U fixes
    # e_0 and maps e_1 to (0, 1, l_21, ...), so column 0 of U M U^-1 is
    # (a, 1, l_21, ...): a pivot of 1 that divides its column
    a, b, d = draw(st.lists(st.integers(-3, 3), min_size=3, max_size=3))
    diagonal = [[[a, b], [1, d]]] + [
        block for block, count in draw(_diagonal_blocks()) for _ in range(count)
    ]
    n = sum(len(block) for block in diagonal)
    assume(n <= 14)
    rng = draw(st.randoms(use_true_random=False))
    rows, at = [[0] * n for _ in range(n)], 0
    for block in diagonal:
        k = len(block)
        for i in range(k):
            rows[at + i][at : at + k] = block[i]
            rows[at + i][at + k :] = [rng.randint(-3, 3) for _ in range(n - at - k)]
        at += k
    pairs = [(i, j) for i in range(1, n) for j in range(1, n) if i != j]
    ops = [(i, j, rng.choice([-2, -1, 1, 2])) for i, j in rng.sample(pairs, min(len(pairs), n))]
    for i, j, c in sorted(ops, key=lambda op: op[0] > op[1]):  # R's, then L's
        _conjugate(rows, i, j, c)
    return rows, (1, n - 1)


def _conjugated_rows():
    # the rows of _unimodular_conjugates: dense matrices built so that the
    # integer stage finishes, where most dense random draws from n = 7 on
    # are refused
    return _unimodular_conjugates().map(lambda case: case[0])


@settings(max_examples=200, deadline=None)
@given(
    st.one_of(
        st.integers(1, 6).flatmap(lambda n: _square(n, st.integers(-9, 9))), _conjugated_rows()
    )
)
def test_charpoly_nonsymmetric_and_singular(rows):
    _exact_or_refused(rows)
    singular = rows[:-1] + [rows[0]] if len(rows) > 1 else [[0]]
    if _exact_or_refused(singular):
        assert charpoly(IntMatrix(singular)).coefficient(0) == 0


@settings(max_examples=100, deadline=None)
@given(
    st.integers(3, 6).flatmap(
        lambda n: st.tuples(_square(n, st.integers(-4, 4)), st.integers(0, n - 3))
    )
)
def test_charpoly_without_pivot(case):
    # block upper triangular with a leading (j+1) x (j+1) block: column j
    # has no pivot, and entry (j+1, j) stays zero
    rows, j = case
    for i in range(j + 1, len(rows)):
        rows[i][: j + 1] = [0] * (j + 1)
    _exact_or_refused(rows)


def test_charpoly_of_a_hessenberg_input_takes_no_pass():
    # already upper Hessenberg, with subdiagonal entries beyond 2^62/n: the
    # integer stage takes no pass, so nothing refuses them, and the fold
    # keeps one 3 x 3 block, whose recurrence runs in Python integers
    top = 2**62 - 1
    rows = [[1, 2, 5], [top, 3, 1], [0, -top, 4]]
    assert charpoly_factors(rows)[0][0].degree == 3
    _assert_charpoly_by_determinants(rows)


@settings(max_examples=100, deadline=None)
@given(_diagonal_blocks(), st.randoms(use_true_random=False), st.none() | _conjugated_rows())
@example([([[2]], 3), ([[-1]], 1), ([[4]], 2)], random.Random(0), None)  # 1 x 1 blocks
@example([([[1, 2], [3, 4]], 3), ([[0]], 2)], random.Random(1), None)
@example([([[0, 1, 0], [0, 0, 1], [1, 0, 0]], 2), ([[-1]], 3)], random.Random(2), None)
def test_charpoly_folds_block_upper_triangular_matrices(blocks, rng, conjugated):
    # block upper triangular with the drawn diagonal blocks, each repeated
    # its drawn number of times, and random entries above the blocks; and,
    # when one is drawn, a block triangular matrix conjugated by a
    # unimodular one (_unimodular_conjugates)
    diagonal = [block for block, count in blocks for _ in range(count)]
    n = sum(len(block) for block in diagonal)
    assume(n <= 14)
    rows, at = [[0] * n for _ in range(n)], 0
    for block in diagonal:
        k = len(block)
        for i in range(k):
            rows[at + i][at : at + k] = block[i]
            rows[at + i][at + k :] = [rng.randint(-3, 3) for _ in range(n - at - k)]
        at += k
    # conjugated by a permutation, the integer stage has to find the blocks
    order = list(range(n))
    rng.shuffle(order)
    for square in (rows, permuted(IntMatrix(rows), order).entries.tolist(), conjugated):
        if square is not None:
            _exact_or_refused(square)


def _cyclic_matrices(n):
    graph = strong_power_graph(CyclicGroup(n))
    return (
        (adjacency_matrix(graph), adjacency_charpoly_formula),
        (distance_matrix(graph), distance_charpoly_formula),
    )


def test_sweep_matrices_run_the_recurrence_once_per_distinct_block(monkeypatch):
    # every Hessenberg form below is one 3 x 3 block and n - 3 equal 1 x 1
    # blocks; the 1 x 1 blocks are counted by value, so the exact recurrence
    # runs once, on the 3 x 3 block, whatever n is
    sizes = []
    recurrence = exactalg._exact_hessenberg_charpoly

    def spy(h):
        sizes.append(len(h))
        return recurrence(h)

    monkeypatch.setattr(exactalg, "_exact_hessenberg_charpoly", spy)
    for n in (12, 60, 110):
        for matrix, formula in _cyclic_matrices(n):
            sizes.clear()
            assert charpoly(matrix) == formula(n), n
            assert sizes == [3], (n, sizes)


def _noncyclic_invariant_factors(limit):
    """Every d_1 | d_2 | ... | d_k with k >= 2, d_1 >= 2 and product at most
    limit: the invariant factors of each noncyclic abelian group of order
    at most limit, once each."""

    def extend(factors, order):
        if len(factors) >= 2:
            yield factors
        step = factors[-1]
        for d in range(step, limit // order + 1, step):
            yield from extend([*factors, d], order * d)

    for d in range(2, limit + 1):
        yield from extend([d], d)


def test_every_buildable_group_finishes_in_the_integer_stage():
    # every strong power graph is K_n or a relabelled copy of Z_n's, so the
    # integer stage reduces both matrices of every group below, in the
    # builders' element order and under one relabelling, and the charpoly is
    # the closed form's
    specs = [f"cyclic:{n}" for n in range(2, 301)] + [f"dihedral:{m}" for m in range(3, 76)]
    specs += ["product:" + ",".join(map(str, f)) for f in _noncyclic_invariant_factors(150)]
    assert len(specs) == 299 + 73 + 137
    specs += ["cyclic:1024", "cyclic:2048"]
    rng = random.Random(36)
    checked = []
    for spec in specs:
        group = parse_group_spec(spec)
        graph = strong_power_graph(group)
        order = list(range(group.order))
        rng.shuffle(order)
        for kind, build in (("adjacency", adjacency_matrix), ("distance", distance_matrix)):
            if spec == "cyclic:2048" and kind == "adjacency":
                continue
            try:
                factors, _ = closed_form(group, kind)
            except NoClosedForm:
                continue
            matrix = build(graph)
            for m in (matrix, permuted(matrix, order)):
                done = exactalg._integer_hessenberg(m.entries.astype(np.int64))
                assert done == group.order - 1, (spec, kind, done)
                assert same_product(charpoly_factors(m), factors), (spec, kind)
                checked.append(spec)
    assert len(checked) == 1912 + 4 + 2, len(checked)


@pytest.mark.parametrize("n", [12, 60, 120])
def test_charpolys_of_shuffled_cyclic_matrices_match_the_closed_forms(n):
    # some shuffles move vertex 0 so that a column holds no entry that
    # divides the rest, such as -13 and -2s in column 1 of Z_12's distance
    # matrix for seed 1: Euclid's passes clear it, and every shuffle reduces
    # completely over Z
    for seed in range(20):
        order = list(range(n))
        random.Random(seed).shuffle(order)
        for matrix, formula in _cyclic_matrices(n):
            shuffled = permuted(matrix, order)
            assert exactalg._integer_hessenberg(shuffled.entries.astype(np.int64)) == n - 1, (n, seed)
            assert charpoly(shuffled) == formula(n), (n, seed)


def _dense_symmetric(rng, n, top):
    """A random symmetric n x n int64 matrix with entries in -top..top,
    both ends among them."""
    x = rng.integers(-top, top + 1, (n, n))
    x[0, 1], x[2, 3] = top, -top
    return np.triu(x) + np.triu(x, 1).T


def test_charpoly_of_narrow_matrices_equals_the_int64_copy():
    # the exact side widens before any arithmetic: squares of +-100 wrap in
    # int8, and under NumPy 2 an int8 array % p raises for p > 127
    rng = np.random.default_rng(18)
    dense = _dense_symmetric(rng, 24, 100)
    extreme = _dense_symmetric(rng, 12, 32767)
    cases = [(dense, (np.int8, np.int16, np.int32)), (extreme, (np.int16, np.int32))]
    for n in (60, 120):
        order = list(range(n))
        random.Random(n).shuffle(order)
        shuffled = permuted(distance_matrix(strong_power_graph(CyclicGroup(n))), order)
        cases.append((shuffled.entries, (np.int8, np.int16, np.int32)))
    outcomes = []  # per case, the factors or the refusal's message
    for entries, dtypes in cases:
        outcomes.append(_charpoly_or_refusal(IntMatrix(entries.astype(np.int64))))
        for dtype in dtypes:
            narrow = IntMatrix(entries.astype(dtype))
            assert narrow.entries.dtype == dtype
            assert _charpoly_or_refusal(narrow) == outcomes[-1], dtype
    # the dense +-100 matrix reduces two columns over Z, then stops, and so
    # does its narrow copy, at the same column; the shuffled Z_n matrices
    # finish
    assert exactalg._integer_hessenberg(dense.copy()) == 2
    assert "stopped at column 2 of n = 24:" in outcomes[0]
    assert all(isinstance(outcome, list) for outcome in outcomes[2:]), outcomes
    _exact_or_refused(dense.tolist())
    _exact_or_refused(extreme.tolist())


def _charpoly_or_refusal(matrix):
    """charpoly_factors(matrix), or the message of the IntegerGrowth it raises."""
    try:
        return charpoly_factors(matrix)
    except IntegerGrowth as exc:
        return str(exc)


def _beside_a_large_entry(rows):
    """rows, a square list of lists, beside a 1 x 1 block just under the
    integer stage's int64 limit 2^62/n: the growth rule refuses the first
    pass, so the stage reduces no column and charpoly raises IntegerGrowth."""
    n = len(rows) + 1
    return [row + [0] for row in rows] + [[0] * (n - 1) + [(1 << 62) // n - 1]]


def _distance_z119_beside_a_large_entry():
    """A 120 x 120 input that the integer stage refuses at column 0."""
    return IntMatrix(_beside_a_large_entry(
        distance_matrix(strong_power_graph(CyclicGroup(119))).entries.tolist()
    ))


def _coprime_first_column(rng, n, bound):
    """A random n x n matrix whose column 0 holds 2 and 3 below the
    diagonal: no entry there divides the others, so the integer stage
    clears it by Euclid's passes."""
    rows = [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(n)]
    for i in range(1, n):
        rows[i][0] = 2 + i % 2
    return rows


def test_charpoly_refuses_a_pass_beside_a_large_entry():
    # beside a large entry, or with one in a column that needs a pass, the
    # integer stage takes no pass: charpoly raises, naming column 0, n and
    # the bound, and returns no charpoly
    rng = random.Random(24)
    dense = _beside_a_large_entry([[rng.randint(-999, 999) for _ in range(23)] for _ in range(23)])
    third = (1 << 62) // 3
    cases = [
        _distance_z119_beside_a_large_entry().entries.tolist(),
        dense,
        [[third, 1, 0], [1, 0, 1], [1, 1, 0]],  # the entry is 2^62/3 itself
        # |-2^63| does not fit int64; the stage must still see it as large
        [[0, 1, 0], [-(2**63), 0, 1], [-(2**63), 1, 0]],
    ]
    for rows in cases:
        n = len(rows)
        h = np.array(rows, dtype=np.int64)
        assert exactalg._integer_hessenberg(h) == 0 and h.tolist() == rows
        message = rf"stopped at column 0 of n = {n}: .* 2\^62/n = {(1 << 62) // n} or more$"
        with pytest.raises(IntegerGrowth, match=message):
            charpoly_factors(rows)


@st.composite
def _near_the_int64_rule(draw):
    # columns 0..j-1 already Hessenberg, with a zero subdiagonal entry at
    # (j, j-1); column j needs a step, but entries near 2^62/n refuse it:
    # the stage stops at j, and charpoly refuses the matrix
    n = draw(st.integers(3, 6))
    j = draw(st.integers(0, n - 3))
    small = (1 << 62) // n
    near = st.integers(small - 2**20, small - 1)
    entry = st.one_of(st.integers(-3, 3), near, near.map(lambda v: -v))
    rows = draw(_square(n, entry))
    for col in range(j):
        for i in range(col + 2, n):
            rows[i][col] = 0
    if j:
        rows[j][j - 1] = 0
    rows[j + 2][j] = 1
    rows[0][n - 1] = small - 1
    return rows, (j, j)


@st.composite
def _coprime_first_columns(draw):
    n = draw(st.integers(3, 8))
    return _coprime_first_column(draw(st.randoms(use_true_random=False)), n, 9), (1, n - 1)


@settings(max_examples=150, deadline=None)
@given(st.one_of(_unimodular_conjugates(), _near_the_int64_rule(), _coprime_first_columns()))
def test_charpoly_after_integer_steps(case):
    # each kind of input stops the integer stage where it was built to, and
    # its charpoly is exact or refused
    rows, (least, most) = case
    assert least <= exactalg._integer_hessenberg(np.array(rows, dtype=np.int64)) <= most
    _exact_or_refused(rows)


@pytest.mark.parametrize("n, j", [(5, 1), (7, 3), (9, 5)])
def test_integer_stage_scans_to_the_first_pending_column(n, j):
    # upper triangular with a nonzero diagonal, so every row's first nonzero
    # entry lies above the subdiagonal, and row n - 2 is zero; only column j
    # has entries below the subdiagonal, multiples of its subdiagonal 1.  The
    # scan must step column j first, which leaves the columns before it alone
    rng = random.Random(n)
    rows = [[rng.randint(-3, 3) if c > r else 0 for c in range(n)] for r in range(n)]
    for r in range(n):
        rows[r][r] = rng.choice([-2, -1, 1, 2])
    rows[j + 1][j] = 1
    for i in range(j + 2, n):
        rows[i][j] = rng.choice([-2, 2, 3])
    rows[n - 2] = [0] * n
    matrix = np.array(rows, dtype=np.int64)
    h = matrix.copy()
    done = exactalg._integer_hessenberg(h)
    assert done > j
    assert np.array_equal(h[:, :j], matrix[:, :j])
    assert not np.tril(h, -2)[:, :done].any()
    _exact_or_refused(rows)


@pytest.mark.parametrize("column", [[2, 3], [6, 10, 15], [-15, 6, 0, 10]])
def test_integer_stage_clears_a_column_with_no_dividing_pivot(column):
    # no entry below the diagonal of column 0 divides the others: Euclid's
    # passes leave their gcd, +-1, on the subdiagonal and zeros below it
    n = len(column) + 1
    rng = random.Random(n)
    rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
    for i, v in enumerate(column, start=1):
        rows[i][0] = v
    h = np.array(rows, dtype=np.int64)
    done = exactalg._integer_hessenberg(h)
    assert done == n - 1
    assert abs(h[1, 0]) == 1
    assert not np.tril(h, -2)[:, :done].any()
    _assert_charpoly_by_determinants(rows)
    assert charpoly(IntMatrix(h)) == charpoly(IntMatrix(rows))


def test_integer_stage_stops_at_a_later_pass_of_a_column():
    # column 0 is Hessenberg with a zero subdiagonal, so the cut falls at 1.
    # Column 1 holds 2 and 3 below its diagonal.  Its first pass (q = 2) is
    # allowed, since top * 3 * 11 < 2^62/5, and leaves 2 and -1 there, but
    # it grows row 3 to -3 top; the second pass (q = 2 again) would then
    # break the int64 rule, so the stage stops at column 1 after one pass,
    # and charpoly refuses the matrix there
    n = 5
    top = ((1 << 62) // n - 1) // 33
    rows = [
        [1, 1, 0, 0, 0],
        [0, 1, 0, 0, 0],
        [0, 2, top, 1, 0],
        [0, 3, -top, 0, 1],
        [0, 0, 1, 1, 1],
    ]
    h = np.array(rows, dtype=np.int64)
    assert exactalg._integer_hessenberg(h) == 1
    assert h[2:, 1].tolist() == [2, -1, 0]
    assert max(int(h.max()), -int(h.min())) == 3 * top + 4
    with pytest.raises(IntegerGrowth, match="stopped at column 1 of n = 5: "):
        charpoly(IntMatrix(rows))


def _stepping_inputs():
    """Matrices that take integer steps: Z_n's adjacency and distance
    matrices, shuffled ones, dense -9..9 ones with +-1 under column 0 whose
    rows grow, and sparse 0/+-1 ones."""
    inputs = [m.entries for n in (12, 60, 110) for m, _ in _cyclic_matrices(n)]
    for seed in range(5):
        order = list(range(120))
        random.Random(seed).shuffle(order)
        inputs += [permuted(m, order).entries for m, _ in _cyclic_matrices(120)]
    rng = np.random.default_rng(13)
    for n in (24, 40):
        dense = rng.integers(-9, 10, (n, n))
        dense[1:, 0] = rng.choice([-1, 1], n - 1)
        inputs.append(dense)
        inputs.append(rng.integers(-1, 2, (n, n)) * (rng.random((n, n)) < 0.1))
    return [np.asarray(m, dtype=np.int64) for m in inputs]


def test_integer_row_update_is_the_same_in_any_block_size(monkeypatch):
    # the row update of a step runs a block of rows at a time; blocks of one
    # row, or of a few rows that do not divide the rest, must give the same
    # reduced h and the same number of reduced columns
    inputs = _stepping_inputs()
    expected = []
    for m in inputs:
        h = m.copy()
        expected.append((exactalg._integer_hessenberg(h), h))
    assert sum(done > 1 for done, _ in expected) > len(expected) // 2
    for limit in (1, 50):
        monkeypatch.setattr(exactalg, "_ROW_UPDATE_LIMIT", limit)
        for m, (done, reduced) in zip(inputs, expected):
            h = m.copy()
            assert exactalg._integer_hessenberg(h) == done
            assert np.array_equal(h, reduced)


def test_integer_row_update_holds_no_square_temporary():
    """The update of all rows at once made the whole (n-2) x n int64
    product: a tracemalloc peak of 8,522,092 bytes on Z_1024's distance
    matrix with numpy 2.4.  In blocks of rows it peaks at 1,126,646 bytes,
    most of it the n x n boolean scan for the next pending column."""
    # up to n = 256 one block holds every row, so the sweep's matrices
    # (n <= 110) take one update per step
    assert exactalg._ROW_UPDATE_LIMIT // 256 >= 254
    n = 1024
    h = distance_matrix(strong_power_graph(CyclicGroup(n))).entries.astype(np.int64)
    tracemalloc.start()
    try:
        done = exactalg._integer_hessenberg(h)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert done == n - 1
    assert peak <= n * n + 2 * 8 * exactalg._ROW_UPDATE_LIMIT, peak


def test_integer_steps_stop_where_int64_would_overflow():
    # B = max|h| and q = 1 at column 0: the step is taken exactly when
    # B * 2 * (1 + 4) < 2^62 / 4, and then the grown entries stop column 1;
    # either way charpoly refuses the matrix where the stage stopped
    n = 4
    top = ((1 << 62) // n - 1) // (2 * (n + 1))
    for corner, done in ((top, 1), (top + 1, 0)):
        rows = [
            [corner, top, -top, top],
            [1, top, top, -top],
            [1, -top, top, top],
            [-1, top, -top, top],
        ]
        assert exactalg._integer_hessenberg(np.array(rows, dtype=np.int64)) == done
        assert not _exact_or_refused(rows)


def test_charpoly_refuses_the_dense_matrix_at_column_4():
    # a dense -9..9 matrix with +-1 below the diagonal of column 0 takes
    # integer steps that grow its rows, then stops at column 4 with no zero
    # subdiagonal entry: charpoly refuses it there
    rng = random.Random(0)
    n = 24
    rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
    for i in range(1, n):
        rows[i][0] = rng.choice([-1, 1])
    h = np.array(rows, dtype=np.int64)
    assert exactalg._integer_hessenberg(h) == 4 and np.diagonal(h, offset=-1)[:4].all()
    with pytest.raises(IntegerGrowth, match=rf"stopped at column 4 of n = 24: .* = {(1 << 62) // 24} "):
        charpoly_factors(rows)


def test_charpoly_of_matrices_with_entries_of_every_size():
    # entries of either sign and of 2 to 45 bits: an order-1 matrix is exact
    # whatever its entry, and a larger one is exact or refused
    rng = random.Random(278)
    cases = [[[0, 1, 2], [1, 0, 1], [2, 1, 0]], [[-1, 2], [3, -4]], [[2**40, -3], [5, 2**40 + 1]]]
    for bits in (2, 8, 31, 45):
        for n in (1, 3, 5):
            cases.append([[rng.randint(-(2**bits), 2**bits) for _ in range(n)] for _ in range(n)])
    exact = [_exact_or_refused(rows) for rows in cases]
    assert all(done for done, rows in zip(exact, cases) if len(rows) <= 2)
    assert exact.count(True) > len(cases) // 2, exact


_ENTRY = st.integers(-(2**63), 2**63 - 1)
# |a| >= 2^62, at least 2^62/n for n = 1 and 2
_LARGE = st.one_of(st.integers(2**62, 2**63 - 1), st.integers(-(2**63), -(2**62)))


@settings(max_examples=100, deadline=None)
@given(_LARGE, _ENTRY, _ENTRY, _ENTRY)
@example(2**63 - 1, -(2**63), -(2**63), 2**63 - 1)  # every product wraps in int64
@example(-(2**63), 5, 1, 2**62)
@example(2**62, 0, 0, 2**62)  # the trace, 2^63, would wrap in int64
@example(2**63 - 1, 0, 0, 1)
def test_charpoly_orders_one_and_two(a, b, c, d):
    # no pass is needed below order 3, so entries of any size are exact
    expected = IntPolynomial([a * d - b * c, -(a + d), 1])
    assert charpoly(IntMatrix([[a]])) == IntPolynomial([-a, 1])
    assert charpoly(IntMatrix([[a, b], [c, d]])) == expected


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: _square(n, st.integers(-(2**62), 2**62))))
def test_charpoly_entries_beyond_int64(rows):
    # entries beyond the integer stage's int64 limit, one at 2^62/n: exact
    # below order 3, which needs no pass, and exact or refused above
    rows[0][0] = (1 << 62) // len(rows)
    assert _exact_or_refused(rows) or len(rows) > 2


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        st.integers(1, 6).flatmap(
            lambda n: st.tuples(
                st.lists(
                    st.lists(st.integers(-9, 9), min_size=n, max_size=n),
                    min_size=n,
                    max_size=n,
                ),
                st.integers(-5, 5),
            )
        ),
        st.tuples(_conjugated_rows(), st.integers(-5, 5)),
    )
)
def test_charpoly_evaluates_to_shifted_determinant(case):
    # exact or refused: a refusal is where the integer stage stops
    rows, x0 = case
    m = IntMatrix(rows)
    shifted = IntMatrix(
        [
            [x0 * (1 if i == j else 0) - rows[i][j] for j in range(m.n)]
            for i in range(m.n)
        ]
    )
    try:
        poly = charpoly(m)
    except IntegerGrowth:
        assert exactalg._integer_hessenberg(m.entries.astype(np.int64)) < m.n - 1
    else:
        assert poly_eval(poly, x0) == bareiss_det(shifted)


def test_poly_mul_and_eval():
    p = poly_mul(IntPolynomial([1, 1]), IntPolynomial([-7, -11, -1, 1]))
    assert p == IntPolynomial([-7, -18, -12, 0, 1])
    assert poly_eval(IntPolynomial([-7, -11, -1, 1]), -1) == 2
    assert poly_eval(IntPolynomial([-7, -11, -1, 1]), Fraction(1, 2)) == Fraction(-101, 8)
    assert poly_eval(IntPolynomial([]), 3) == 0


_COEFF = st.integers(-(2**70), 2**70)


@st.composite
def _polynomials_and_exponents(draw):
    # degree 1..4, a_0 = 0 or not, small inner coefficients so that some are 0
    degree = draw(st.integers(1, 4))
    coeff = st.one_of(st.integers(-2, 2), _COEFF)
    inner = draw(st.lists(coeff, min_size=degree - 1, max_size=degree - 1))
    a0 = draw(st.one_of(st.just(0), _COEFF.filter(bool)))
    lead = draw(_COEFF.filter(bool))
    return [a0, *inner, lead], draw(st.integers(1, 40))


@settings(max_examples=150, deadline=None)
@given(_polynomials_and_exponents())
@example(([1, 1], 40))
@example(([0, 0, 0, -3], 7))  # a monomial: x^3 is factored out whole
@example(([0, 0, 5, 0, 2**70], 40))
def test_power_recurrence_matches_repeated_products(case):
    a, k = case
    expected = IntPolynomial([1])
    for _ in range(k):
        expected = poly_mul(expected, IntPolynomial(a))
    assert IntPolynomial(exactalg._poly_pow(a, k)) == expected


def test_binom_power():
    assert binom_power(0) == IntPolynomial([1])
    assert binom_power(2) == IntPolynomial([1, 2, 1])
    assert binom_power(5).coefficient(2) == 10


def test_binom_power_matches_math_comb():
    for k in [*range(201), 2045]:
        assert binom_power(k).coeffs == tuple(math.comb(k, i) for i in range(k + 1)), k


def test_distance_formula_n4():
    assert distance_charpoly_formula(4) == IntPolynomial([-7, -18, -12, 0, 1])


def test_distance_formula_n6_cubic_constant():
    # cubic part: x^3 - 3x^2 - 15x - 5 (constant from the formula, confirmed
    # against the exact charpoly of the actual distance matrix below)
    cubic = IntPolynomial([-5, -15, -3, 1])
    assert distance_charpoly_formula(6) == poly_mul(binom_power(3), cubic)
    d = distance_matrix(strong_power_graph(CyclicGroup(6)))
    assert charpoly(d) == distance_charpoly_formula(6)


def test_distance_formula_rejects_primes_and_small_orders():
    for n in (1, 2, 3, 5, 7, 149):
        with pytest.raises(
            NoClosedForm, match="the distance closed form needs a composite order >= 4"
        ):
            distance_charpoly_formula(n)


def test_adjacency_formula_small_orders():
    assert adjacency_charpoly_formula(2) == IntPolynomial([0, 0, 1])  # x^2
    assert adjacency_charpoly_formula(3) == IntPolynomial([0, -1, 0, 1])  # x^3 - x
    assert adjacency_charpoly_formula(4) == poly_mul(
        IntPolynomial([1, 1]), IntPolynomial([1, -3, -1, 1])
    )
    with pytest.raises(NoClosedForm, match="the adjacency closed form does not cover order 1"):
        adjacency_charpoly_formula(1)


def test_adjacency_formula_n2_is_exact_division(monkeypatch):
    # the n = 2 cubic x^3 + x^2 is divided by (x + 1); the quotient is the
    # charpoly of the edgeless two-vertex graph
    graph = strong_power_graph(CyclicGroup(2))
    assert adjacency_charpoly_formula(2) == charpoly(adjacency_matrix(graph))
    # a totient that leaves a nonzero remainder must not be swallowed
    monkeypatch.setattr(exactalg, "totient", lambda n: 2)
    with pytest.raises(InexactDivision):
        adjacency_charpoly_formula(2)


def test_prime_adjacency_charpoly():
    assert prime_adjacency_charpoly(2) == IntPolynomial([0, 0, 1])
    expected = poly_mul(
        poly_mul(IntPolynomial([0, 1]), binom_power(3)), IntPolynomial([-3, 1])
    )
    assert prime_adjacency_charpoly(5) == expected
    assert prime_adjacency_charpoly(3) == adjacency_charpoly_formula(3)
    with pytest.raises(NoClosedForm, match="expected a prime order, got 6"):
        prime_adjacency_charpoly(6)


def test_prime_corollary_agrees_with_general_formula():
    for p in range(2, 151):
        if is_prime(p):
            assert prime_adjacency_charpoly(p) == adjacency_charpoly_formula(p), p


def test_coefficient_string_round_trip():
    poly = distance_charpoly_formula(60)
    strings = poly.to_coeff_strings()
    assert all(isinstance(s, str) for s in strings)
    assert poly_from_coeff_strings(strings) == poly
    assert IntPolynomial([]).to_coeff_strings() == ["0"]


def test_polynomial_str():
    assert str(IntPolynomial([-7, -18, -12, 0, 1])) == "x^4 - 12x^2 - 18x - 7"
    assert str(IntPolynomial([])) == "0"
    assert str(IntPolynomial([1, 1])) == "x + 1"


def test_int_matrix_validation():
    with pytest.raises(ValueError):
        IntMatrix([[1, 2], [3]])
    with pytest.raises(ValueError):
        IntMatrix([[1.5, 0], [0, 1]])
    with pytest.raises(ValueError):
        IntMatrix([])


# --- factored charpolys -------------------------------------------------------

X_PLUS_ONE = IntPolynomial([1, 1])


def _expand(factors):
    """The product of a factor list with nonnegative multiplicities, by
    repeated poly_mul: the reference for charpoly and same_product."""
    out = IntPolynomial([1])
    for factor, m in factors:
        for _ in range(m):
            out = poly_mul(out, factor)
    return out


def _hadamard_16(k):
    h = [[1]]
    for _ in range(4):
        h = [row + row for row in h] + [row + [-v for v in row] for row in h]
    return IntMatrix([[k * v for v in row] for row in h])


def test_charpoly_factors_of_the_paper_examples():
    # the ROADMAP's examples: Z_12 adjacency, Z_97 adjacency, and K_20 (D_10)
    graph = strong_power_graph(CyclicGroup(12))
    cubic = IntPolynomial([21, -17, -9, 1])
    assert charpoly_factors(adjacency_matrix(graph)) == [(X_PLUS_ONE, 9), (cubic, 1)]
    assert cubic == adjacency_cubic(12)
    factors = charpoly_factors(adjacency_matrix(strong_power_graph(CyclicGroup(97))))
    assert factors == [
        (X_PLUS_ONE, 94),
        (IntPolynomial([0, 1]), 1),
        (IntPolynomial([-95, -94, 1]), 1),
    ]
    assert same_product(factors, prime_adjacency_factors(97))
    k20 = charpoly_factors(adjacency_matrix(strong_power_graph(DihedralGroup(10))))
    assert same_product(k20, [(IntPolynomial([-19, 1]), 1), (X_PLUS_ONE, 19)])


def _sweep_matrices(n):
    """Z_n's adjacency matrix, and its distance matrix when n is composite."""
    graph = strong_power_graph(CyclicGroup(n))
    if is_prime(n) or n < 4:
        return [adjacency_matrix(graph)]
    return [adjacency_matrix(graph), distance_matrix(graph)]


def _charpoly_product_cases():
    for n in (2, 3, 4, 12, 60, 97, 110):
        for matrix in _sweep_matrices(n):
            yield f"Z_{n}", matrix, False
    rng = random.Random(0)
    n = 24
    rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
    for i in range(1, n):
        rows[i][0] = rng.choice([-1, 1])
    yield "dense -9..9, n = 24", IntMatrix(rows), True
    d120 = distance_matrix(strong_power_graph(CyclicGroup(120))).entries.tolist()
    yield "Z_120 distance x 2^61", IntMatrix([[v << 61 for v in row] for row in d120]), True
    # reduces over Z into 2 x 2 blocks, two of them with multiplicity 3
    yield "Hadamard x 2^40", _hadamard_16(2**40), False
    yield "Z_119 distance beside a large entry", _distance_z119_beside_a_large_entry(), True


def test_charpoly_is_the_product_of_its_factors():
    for name, matrix, refused in _charpoly_product_cases():
        if refused:
            with pytest.raises(IntegerGrowth):
                charpoly_factors(matrix)
            continue
        factors = charpoly_factors(matrix)
        assert all(m >= 1 and f.is_monic() for f, m in factors), name
        assert charpoly(matrix) == _expand(factors), name
    assert [m for _, m in charpoly_factors(_hadamard_16(2**40))].count(3) == 2


def test_charpoly_factors_never_call_the_closed_forms(monkeypatch):
    def refuse(*args):
        raise AssertionError("the exact side called a closed form")

    closed_forms = (
        "distance_formula_factors",
        "adjacency_formula_factors",
        "prime_adjacency_factors",
        "complete_graph_factors",
    )
    for name in ("distance_cubic", "adjacency_cubic", *closed_forms, "totient", "is_composite"):
        monkeypatch.setattr(exactalg, name, refuse)
    for n in (2, 4, 12, 97, 110):
        for matrix in _sweep_matrices(n):
            charpoly_factors(matrix)


def test_same_product_required_cases():
    x = IntPolynomial([0, 1])
    assert same_product([(X_PLUS_ONE, 3)], [(X_PLUS_ONE, 2), (X_PLUS_ONE, 1)])
    for n in (2, 3, 7, 20, 151):
        # K_n's 2 x 2 block (x - n + 1)(x + 1) shares x + 1 with its 1 x 1 blocks
        root = IntPolynomial([1 - n, 1])
        block = poly_mul(root, X_PLUS_ONE)
        assert same_product([(block, 1), (X_PLUS_ONE, n - 2)], [(root, 1), (X_PLUS_ONE, n - 1)])
        assert not same_product([(block, 1), (X_PLUS_ONE, n - 2)], [(root, 1), (X_PLUS_ONE, n)])
    # n = 2: the paper's exponent n - 3 is -1
    assert adjacency_formula_factors(2) == [(X_PLUS_ONE, -1), (IntPolynomial([0, 0, 1, 1]), 1)]
    assert same_product(adjacency_formula_factors(2), [(x, 2)])
    assert not same_product(adjacency_formula_factors(2), [(x, 1), (X_PLUS_ONE, 1)])


@pytest.mark.parametrize("n", [4, 6, 12, 60, 110, 150])
def test_same_product_refuses_a_cubic_off_by_one(n):
    graph = strong_power_graph(CyclicGroup(n))
    for matrix, closed in (
        (adjacency_matrix(graph), adjacency_formula_factors(n)),
        (distance_matrix(graph), distance_formula_factors(n)),
    ):
        exact = charpoly_factors(matrix)
        assert same_product(exact, closed) and same_product(closed, exact)
        (unit, k), (cubic, _) = closed
        for step in (-1, 1):
            wrong = IntPolynomial([cubic.coeffs[0] + step, *cubic.coeffs[1:]])
            assert not same_product(exact, [(unit, k), (wrong, 1)]), (n, step)


def test_same_product_takes_monic_factors_only():
    with pytest.raises(ValueError, match="not monic"):
        same_product([(IntPolynomial([1, 2]), 1)], [(IntPolynomial([1, 2]), 1)])
    with pytest.raises(ValueError, match="not monic"):
        same_product([(IntPolynomial([]), 1)], [])
    assert same_product([(IntPolynomial([1]), 5)], [])  # the constant 1


def test_closed_form_factor_lists_expand_to_the_formulas():
    for n in range(2, 151):
        if n >= 3:
            assert _expand(adjacency_formula_factors(n)) == adjacency_charpoly_formula(n), n
        if not is_prime(n) and n >= 4:
            assert _expand(distance_formula_factors(n)) == distance_charpoly_formula(n), n
            assert distance_formula_factors(n)[1] == (distance_cubic(n), 1)
        else:
            with pytest.raises(
                NoClosedForm, match="the distance closed form needs a composite order >= 4"
            ):
                distance_formula_factors(n)
        if is_prime(n):
            assert _expand(prime_adjacency_factors(n)) == prime_adjacency_charpoly(n), n
    with pytest.raises(NoClosedForm, match="the adjacency closed form does not cover order 1"):
        adjacency_formula_factors(1)
    with pytest.raises(NoClosedForm, match="expected a prime order, got 6"):
        prime_adjacency_factors(6)


def test_adjacency_formula_factors_refuse_bools_and_non_integers():
    for n in (True, False, 2.0, "3", None, 0):
        with pytest.raises(ValueError, match="order must be a positive integer"):
            adjacency_formula_factors(n)


def test_complete_graph_factors_refuse_bools_and_non_integers():
    for n in (True, False, 2.0, "3", None, 0):
        with pytest.raises(ValueError, match="order must be a positive integer"):
            complete_graph_factors(n)


def test_distance_formula_factors_refuse_bools_and_non_integers():
    for n in (True, False, 2.0, "3", None, 0):
        with pytest.raises(ValueError, match="order must be a positive integer"):
            distance_formula_factors(n)


def _every_factor_list(n):
    """Each closed form's factor list that applies at order n."""
    lists = [complete_graph_factors(n)]
    if n >= 2:
        lists.append(adjacency_formula_factors(n))
    if is_prime(n):
        lists.append(prime_adjacency_factors(n))
    elif n >= 4:
        lists.append(distance_formula_factors(n))
    return lists


def test_expand_matches_the_references():
    for k in [*range(201), 2045]:
        assert expand([(X_PLUS_ONE, k)]) == binom_power(k), k
    for n in range(1, 151):
        for factors in _every_factor_list(n):
            if all(m >= 0 for _, m in factors):
                assert expand(factors) == _expand(factors), n
            else:  # n = 2: (x + 1)^-1 times the cubic
                quotient = expand(factors)
                assert poly_mul(quotient, X_PLUS_ONE) == _expand(factors[1:]), n
    assert expand([]) == IntPolynomial([1])
    assert expand([(IntPolynomial([]), 2), (X_PLUS_ONE, 1), (X_PLUS_ONE, -1)]) == IntPolynomial([])


def test_expand_raises_on_a_division_that_is_not_exact():
    x = IntPolynomial([0, 1])
    assert expand([(x, 3), (X_PLUS_ONE, 1), (x, -2)]) == IntPolynomial([0, 1, 1])
    with pytest.raises(InexactDivision):
        expand([(x, 1), (X_PLUS_ONE, -1)])
    with pytest.raises(InexactDivision):
        expand([(X_PLUS_ONE, 2), (X_PLUS_ONE, -3)])
    with pytest.raises(ValueError, match="not monic"):
        expand([(IntPolynomial([0, 2]), -1)])


_MONIC = st.lists(st.integers(-3, 3), min_size=1, max_size=3).map(lambda c: IntPolynomial([*c, 1]))


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.tuples(_MONIC, st.integers(1, 3)), min_size=1, max_size=4),
    st.randoms(use_true_random=False),
    st.booleans(),
)
def test_same_product_agrees_with_the_expanded_products(a, rng, perturb):
    # b regroups the copies of a's factors into products of random groups;
    # perturbed, one coefficient of one group moves by one
    copies = [f for f, m in a for _ in range(m)]
    rng.shuffle(copies)
    b = []
    while copies:
        size = rng.randint(1, len(copies))
        b.append((_expand([(f, 1) for f in copies[:size]]), 1))
        copies = copies[size:]
    if perturb:
        k = rng.randrange(len(b))
        coeffs = list(b[k][0].coeffs)
        coeffs[rng.randrange(len(coeffs) - 1)] += rng.choice([-1, 1])
        b[k] = (IntPolynomial(coeffs), 1)
    assert same_product(a, b) == (_expand(a) == _expand(b))
    assert same_product(a, b) == same_product(b, a)


def test_gcds_and_quotients_are_exact_over_z():
    # x^2 - 1 and x^2 + 3x + 2 share x + 1; (x - 1)(x + 1)(x + 2) by
    # (x - 1)(x + 3) leaves 2x - 2, whose content 2 is divided out
    assert exactalg._gcd((-1, 0, 1), (2, 3, 1)) == (1, 1)
    assert exactalg._pseudo_remainder((-2, -1, 2, 1), (-3, 2, 1)) == [-2, 2]
    assert exactalg._gcd((-2, -1, 2, 1), (-3, 2, 1)) == (-1, 1)
    assert exactalg._gcd((2, -3, 0, 1), (1, -2, 1)) == (1, -2, 1)
    assert exactalg._gcd((1, 0, 1), (1, 1)) == (1,)
    assert exactalg._divide_exactly((-1, 0, 1), (1, 1)) == (-1, 1)
    with pytest.raises(AssertionError, match="inexact polynomial division"):
        exactalg._divide_exactly((1, 0, 1), (1, 1))


# --- tiled symmetry check -----------------------------------------------------


def _tile_positions(n, b):
    """One entry (u, v) in each tile position of an n x n array cut into
    b x b tiles, on and off the diagonal tiles and in the ragged last row
    and column of tiles."""
    starts = range(0, n, b)
    for i in starts:
        for j in starts:
            u = i + (7 * (i + j) + 1) % min(b, n - i)
            v = j + (5 * (i + j) + 3) % min(b, n - j)
            if u != v:
                yield u, v


@pytest.mark.parametrize("n, b", [(1, 4), (3, 4), (4, 4), (11, 4), (13, 5), (549, 256)])
def test_first_asymmetry_finds_one_entry_in_each_tile(monkeypatch, n, b):
    monkeypatch.setattr(exactalg, "_SYMMETRY_TILE", b)
    rng = np.random.default_rng(n)
    base = rng.integers(-50, 50, size=(n, n))
    base = base + base.T
    booleans = (base % 3 == 0) & ~np.eye(n, dtype=bool)
    for x in (base, booleans, base.astype(np.float64)):
        assert first_asymmetry(x) is None
        for u, v in _tile_positions(n, b):
            y = x.copy()
            y[u, v] = ~y[u, v] if y.dtype == bool else y[u, v] + 1
            assert first_asymmetry(y) == (min(u, v), max(u, v)), (n, b, u, v)
    # the lowest of several pairs, wherever the tiles put them
    if n >= 11:
        y = base.copy()
        for u, v in [(n - 1, 3), (5, n - 2), (4, 9), (9, 6)]:
            y[u, v] += 1
        assert first_asymmetry(y) == (3, n - 1)


def test_first_asymmetry_at_real_tile_sizes():
    # n = 300 with the module's own tiles: 128 wide for int64 and float64,
    # whose last tile is rows and columns 256..299, and 256 wide for int16
    rng = np.random.default_rng(300)
    base = rng.integers(-50, 50, size=(300, 300))
    base = base + base.T
    for x in (base, base.astype(np.float64), base.astype(np.int16)):
        assert first_asymmetry(x) is None
        for u, v in ((299, 260), (258, 297), (128, 299), (5, 280)):
            y = x.copy()
            y[u, v] += 1
            assert first_asymmetry(y) == (min(u, v), max(u, v)), (x.dtype, u, v)
        y = x.copy()
        y[299, 260] += 1  # in the ragged last tile
        y[270, 140] += 1  # lower, in the tile left of it
        assert first_asymmetry(y) == (140, 270), x.dtype
