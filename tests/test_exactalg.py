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
    IntMatrix,
    IntPolynomial,
    NotPrime,
    PrimeOrTrivialN,
    UnsupportedN,
    adjacency_charpoly_formula,
    bareiss_det,
    binom_power,
    charpoly,
    distance_charpoly_formula,
    poly_eval,
    poly_mul,
    prime_adjacency_charpoly,
)
from spg import exactalg
from spg.exactalg import _prime_basis, _primes_between
from spg.graphs import adjacency_matrix, distance_matrix, strong_power_graph

from conftest import permuted
from spg.groups import CyclicGroup, is_prime


def test_int_matrix_takes_square_int64_arrays():
    arr = np.array([[0, -3], [2**62, 5]], dtype=np.int64)
    m = IntMatrix(arr)
    assert m.rows == ((0, -3), (2**62, 5))
    assert all(type(v) is int for row in m.rows for v in row)
    arr[0, 0] = 9  # the matrix keeps its own rows
    assert m.rows[0][0] == 0
    # any other array goes through the per-entry check
    with pytest.raises(ValueError, match="expected an integer"):
        IntMatrix(np.array([[1, 0], [0, 1]], dtype=np.int32))
    with pytest.raises(ValueError, match="expected an integer"):
        IntMatrix(np.eye(2))
    with pytest.raises(ValueError, match="row 0 has length 3"):
        IntMatrix(np.zeros((2, 3), dtype=np.int64))
    with pytest.raises(ValueError, match="at least one row"):
        IntMatrix(np.zeros((0, 0), dtype=np.int64))


def test_charpoly_swap_matrix():
    assert charpoly(IntMatrix([[0, 1], [1, 0]])) == IntPolynomial([-1, 0, 1])


def test_charpoly_identity():
    assert charpoly(IntMatrix.identity(3)) == IntPolynomial([-1, 3, -3, 1])


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
    rng = random.Random(7)
    for n in (1, 2, 5, 11):
        m = IntMatrix([[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)])
        poly = charpoly(m)
        assert poly.degree == n and poly.is_monic()


def test_charpoly_invariant_under_permutation():
    rng = random.Random(99)
    for n in (6, 12, 30):
        graph = strong_power_graph(CyclicGroup(n))
        for matrix in (adjacency_matrix(graph), distance_matrix(graph)):
            order = list(range(n))
            rng.shuffle(order)
            assert charpoly(permuted(matrix, order)) == charpoly(matrix), n


def test_charpoly_large_entries():
    big = 10**30
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
    poly = charpoly(m)
    assert abs(poly.coefficient(0)) == (4 * k) ** 16
    assert poly.coefficient(0) == bareiss_det(m)  # n = 16 is even
    for x in (-2, 1, 5):
        shifted = IntMatrix(
            [[x * (i == j) - v for j, v in enumerate(row)] for i, row in enumerate(m.rows)]
        )
        assert poly_eval(poly, x) == bareiss_det(shifted), x


def test_bareiss_det_examples():
    assert bareiss_det(IntMatrix([[0, 1], [1, 0]])) == -1
    assert bareiss_det(IntMatrix.identity(4)) == 1
    assert bareiss_det(IntMatrix([[1, 2], [2, 4]])) == 0
    assert bareiss_det(IntMatrix([[0, 0], [0, 0]])) == 0


def test_bareiss_matches_charpoly_constant():
    # det(M) = (-1)^n * charpoly(M)(0), checked on graph matrices up to n = 40
    for n in (4, 9, 25, 40):
        graph = strong_power_graph(CyclicGroup(n))
        for matrix in (adjacency_matrix(graph), distance_matrix(graph)):
            constant = charpoly(matrix).coefficient(0)
            assert bareiss_det(matrix) == (-1) ** n * constant, n


def _trial_division_basis(n, bound):
    """The prime basis as it was found before the sieve: trial division of
    each candidate below the limit, largest first."""
    candidate = math.isqrt(((1 << 53) - 1) // n) + 1
    primes, product = [], 1
    while product <= bound:
        candidate -= 1
        if n * (candidate - 1) ** 2 < 1 << 53 and is_prime(candidate):
            primes.append(candidate)
            product *= candidate
    return primes, product


@pytest.mark.parametrize("n", [1, 2, 7, 60, 110, 150, 300])
def test_prime_basis_matches_trial_division(n):
    # 2^4000 needs primes from more than one sieve window at every n here
    for bound in (2, 2 * (1 + 2 * n) ** n, 2**4000):
        assert _prime_basis(n, bound) == _trial_division_basis(n, bound), (n, bound)


def test_primes_between_small_windows():
    for lo, hi in ((2, 3), (2, 200), (3, 200), (90, 91), (1000, 1100)):
        expected = [k for k in range(lo, hi) if is_prime(k)]
        assert _primes_between(lo, hi).tolist() == expected, (lo, hi)


def _assert_charpoly_by_determinants(rows):
    """charpoly(M) is monic of degree n and agrees with det(xI - M), taken by
    Bareiss, at the n + 1 points 0..n, which determine it."""
    m = IntMatrix(rows)
    poly = charpoly(m)
    assert poly.degree == m.n and poly.is_monic()
    for x0 in range(m.n + 1):
        shifted = IntMatrix(
            [
                [(x0 if i == j else 0) - m.rows[i][j] for j in range(m.n)]
                for i in range(m.n)
            ]
        )
        assert poly_eval(poly, x0) == bareiss_det(shifted), (rows, x0)


def _square(n, entries):
    return st.lists(
        st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n
    )


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 6).flatmap(lambda n: _square(n, st.integers(-9, 9))))
def test_charpoly_nonsymmetric_and_singular(rows):
    _assert_charpoly_by_determinants(rows)
    singular = rows[:-1] + [rows[0]] if len(rows) > 1 else [[0]]
    _assert_charpoly_by_determinants(singular)
    assert charpoly(IntMatrix(singular)).coefficient(0) == 0


@settings(max_examples=100, deadline=None)
@given(
    st.integers(3, 6).flatmap(
        lambda n: st.tuples(_square(n, st.integers(-4, 4)), st.integers(0, n - 3))
    )
)
def test_charpoly_without_pivot(case):
    # block upper triangular with a leading (j+1) x (j+1) block: no prime
    # finds a pivot for column j, and entry (j+1, j) stays zero for all primes
    rows, j = case
    for i in range(j + 1, len(rows)):
        rows[i][: j + 1] = [0] * (j + 1)
    _assert_charpoly_by_determinants(rows)


def _pivot_hostile_square(n):
    # multiples of the largest basis prime vanish modulo that prime only, so
    # that prime picks other pivot rows than the rest of the basis
    top = _prime_basis(n, 1)[0][0]
    entries = st.one_of(st.integers(-3, 3), st.integers(-2, 2).map(lambda k: k * top))
    return _square(n, entries)


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 6).flatmap(_pivot_hostile_square))
def test_charpoly_pivots_differ_between_primes(rows):
    _assert_charpoly_by_determinants(rows)


def test_charpoly_pivot_differs_for_largest_prime():
    # entry (1, 0) vanishes modulo the largest prime only, which pivots on row 2
    top = _prime_basis(3, 1)[0][0]
    rows = [[1, 2, 0], [top, 0, 1], [1, 1, 3]]
    _assert_charpoly_by_determinants(rows)


def test_charpoly_does_not_split_where_only_some_primes_vanish():
    # already upper Hessenberg, with subdiagonal entries that are multiples of
    # the largest basis prime: zero modulo that prime only, so the fold must
    # keep one 3 x 3 block for every prime
    top = _prime_basis(3, 1)[0][0]
    rows = [[1, 2, 5], [top, 3, 1], [0, 2 * top, 4]]
    _assert_charpoly_by_determinants(rows)


def _diagonal_blocks():
    block = st.integers(1, 3).flatmap(lambda k: _square(k, st.integers(-3, 3)))
    return st.lists(st.tuples(block, st.integers(1, 3)), min_size=1, max_size=3)


@settings(max_examples=100, deadline=None)
@given(_diagonal_blocks(), st.randoms(use_true_random=False))
@example([([[2]], 3), ([[-1]], 1), ([[4]], 2)], random.Random(0))  # 1 x 1 blocks
@example([([[1, 2], [3, 4]], 3), ([[0]], 2)], random.Random(1))
@example([([[0, 1, 0], [0, 0, 1], [1, 0, 0]], 2), ([[-1]], 3)], random.Random(2))
def test_charpoly_folds_block_upper_triangular_matrices(blocks, rng):
    # block upper triangular with the drawn diagonal blocks, each repeated
    # its drawn number of times, and random entries above the blocks
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
    _assert_charpoly_by_determinants(rows)
    # conjugated by a permutation, the Hessenberg step has to find the blocks
    order = list(range(n))
    rng.shuffle(order)
    _assert_charpoly_by_determinants(permuted(IntMatrix(rows), order).rows)


def test_sweep_matrices_run_the_recurrence_once_per_distinct_block(monkeypatch):
    # every Hessenberg form below is one 3 x 3 block and n - 3 equal 1 x 1
    # blocks, so the recurrence runs twice, whatever n is
    sizes = []
    recurrence = exactalg._hessenberg_charpoly

    def spy(h, pcol):
        sizes.append(h.shape[1])
        return recurrence(h, pcol)

    monkeypatch.setattr(exactalg, "_hessenberg_charpoly", spy)
    for n in (12, 60, 110):
        graph = strong_power_graph(CyclicGroup(n))
        for matrix, formula in (
            (adjacency_matrix(graph), adjacency_charpoly_formula),
            (distance_matrix(graph), distance_charpoly_formula),
        ):
            sizes.clear()
            assert charpoly(matrix) == formula(n), n
            assert sorted(sizes) == [1, 3], (n, sizes)


def _distance_z120():
    order = list(range(120))
    random.Random(120).shuffle(order)
    return permuted(distance_matrix(strong_power_graph(CyclicGroup(120))), order)


def test_charpoly_is_the_same_for_every_stack_size(monkeypatch):
    matrix = _distance_z120()  # permuted, so the Hessenberg step has work to do
    expected = distance_charpoly_formula(120)
    stacks = []
    reduce = exactalg._hessenberg

    def spy(h, pcol):
        stacks.append(h.shape[0])
        reduce(h, pcol)

    monkeypatch.setattr(exactalg, "_hessenberg", spy)
    assert charpoly(matrix) == expected
    (basis,) = stacks  # the default limit holds the whole basis in one stack
    assert basis > 10
    for per_stack in range(1, basis + 1):
        monkeypatch.setattr(exactalg, "_STACK_LIMIT", per_stack * 120 * 120)
        stacks.clear()
        assert charpoly(matrix) == expected, per_stack
        full, rest = divmod(basis, per_stack)
        assert stacks == [per_stack] * full + ([rest] if rest else []), per_stack


def test_charpoly_memory_is_flat_in_the_basis_size(monkeypatch):
    # one prime per stack: the peak is a few n x n arrays whatever the basis
    # size P; one (P, n, n) stack of this 19-prime basis alone is 2.2 MB
    matrix = _distance_z120()
    monkeypatch.setattr(exactalg, "_STACK_LIMIT", 1)
    tracemalloc.start()
    try:
        poly = charpoly(matrix)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert poly == distance_charpoly_formula(120)
    assert peak < 8 * 120 * 120 * 8, peak


_ENTRY = st.integers(-(2**66), 2**66)


@settings(max_examples=100, deadline=None)
@given(_ENTRY, _ENTRY, _ENTRY, _ENTRY)
@example(2**63 + 1, -1, 3, 2**63 + 7)  # np.array would infer float64 here
@example(-(2**63), 5, 1, 2**62)
def test_charpoly_orders_one_and_two(a, b, c, d):
    assert charpoly(IntMatrix([[a]])) == IntPolynomial([-a, 1])
    expected = IntPolynomial([a * d - b * c, -(a + d), 1])
    assert charpoly(IntMatrix([[a, b], [c, d]])) == expected


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: _square(n, st.integers(-(2**70), 2**70))))
def test_charpoly_entries_beyond_int64(rows):
    rows[0][0] = 2**62 + 1  # at least one entry takes the Python-integer path
    _assert_charpoly_by_determinants(rows)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 6).flatmap(
        lambda n: st.tuples(
            st.lists(
                st.lists(st.integers(-9, 9), min_size=n, max_size=n),
                min_size=n,
                max_size=n,
            ),
            st.integers(-5, 5),
        )
    )
)
def test_charpoly_evaluates_to_shifted_determinant(case):
    rows, x0 = case
    m = IntMatrix(rows)
    shifted = IntMatrix(
        [
            [x0 * (1 if i == j else 0) - m.rows[i][j] for j in range(m.n)]
            for i in range(m.n)
        ]
    )
    assert poly_eval(charpoly(m), x0) == bareiss_det(shifted)


def test_poly_mul_and_eval():
    p = poly_mul(IntPolynomial([1, 1]), IntPolynomial([-7, -11, -1, 1]))
    assert p == IntPolynomial([-7, -18, -12, 0, 1])
    assert poly_eval(IntPolynomial([-7, -11, -1, 1]), -1) == 2
    assert poly_eval(IntPolynomial([-7, -11, -1, 1]), Fraction(1, 2)) == Fraction(-101, 8)
    assert poly_eval(IntPolynomial([]), 3) == 0


def test_binom_power():
    assert binom_power(0) == IntPolynomial([1])
    assert binom_power(2) == IntPolynomial([1, 2, 1])
    assert binom_power(5).coefficient(2) == 10


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
        with pytest.raises(PrimeOrTrivialN):
            distance_charpoly_formula(n)


def test_adjacency_formula_small_orders():
    assert adjacency_charpoly_formula(2) == IntPolynomial([0, 0, 1])  # x^2
    assert adjacency_charpoly_formula(3) == IntPolynomial([0, -1, 0, 1])  # x^3 - x
    assert adjacency_charpoly_formula(4) == poly_mul(
        IntPolynomial([1, 1]), IntPolynomial([1, -3, -1, 1])
    )
    with pytest.raises(UnsupportedN):
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
    with pytest.raises(NotPrime):
        prime_adjacency_charpoly(6)


def test_prime_corollary_agrees_with_general_formula():
    for p in range(2, 151):
        if is_prime(p):
            assert prime_adjacency_charpoly(p) == adjacency_charpoly_formula(p), p


def test_coefficient_string_round_trip():
    poly = distance_charpoly_formula(60)
    strings = poly.to_coeff_strings()
    assert all(isinstance(s, str) for s in strings)
    assert IntPolynomial.from_coeff_strings(strings) == poly
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
