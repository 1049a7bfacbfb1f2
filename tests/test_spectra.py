"""Closed-form spectra, the trig cubic solver, and the Householder + QL
eigenvalue oracle (numpy.linalg.eigvalsh is a cross-oracle here only)."""

import json
import logging
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spg import exactalg, spectra
from spg.cli import main
from spg.exactalg import (
    IntMatrix,
    IntPolynomial,
    NoClosedForm,
    adjacency_charpoly_formula,
    adjacency_cubic,
    distance_charpoly_formula,
    distance_cubic,
)
from spg.graphs import DisconnectedGraph, adjacency_matrix, distance_matrix, strong_power_graph
from spg.groups import CyclicGroup, DihedralGroup, DirectProductGroup, is_composite, totient
from spg.spectra import (
    ClosedFormSpectrum,
    ComplexRoots,
    NoConvergence,
    NonSymmetric,
    SpectrumComparison,
    adjacency_spectrum_closed,
    closed_spectrum,
    compare_spectra,
    distance_spectrum_closed,
    solve_cubic_trig,
    symmetric_eigenvalues,
)

from conftest import (
    complete_graph,
    identity_matrix,
    poly_eval,
    reference_solve_cubic_trig,
    spectrum_max_value,
    spectrum_total,
)

# frozen oracle values for the n = 4 worked instance (bisection + Newton on
# the cubics, arccos for the angles; they also match numpy.linalg.eigvalsh)
DISTANCE_ROOTS_N4 = (4.099647729676, -0.716463058068, -2.383184671608)
ADJACENCY_ROOTS_N4 = (2.170086486626, 0.311107817466, -1.481194304092)
THETA_DISTANCE_N4 = 0.750436850442
THETA_ADJACENCY_N4 = 1.539168277357
DISTANCE_RADIUS_N6 = 5.756591308026


def test_cubic_depressed_example():
    roots, theta = solve_cubic_trig(0, -3, 0)
    assert roots[0] == pytest.approx(math.sqrt(3), abs=1e-12)
    assert roots[1] == pytest.approx(0.0, abs=1e-12)
    assert roots[2] == pytest.approx(-math.sqrt(3), abs=1e-12)
    assert theta == pytest.approx(math.pi / 2, abs=1e-15)  # N = 0


def test_cubic_distance_n4():
    roots, theta = solve_cubic_trig(-1, -11, -7)
    for got, expected in zip(roots, DISTANCE_ROOTS_N4):
        assert got == pytest.approx(expected, abs=1e-9)
    assert theta == pytest.approx(THETA_DISTANCE_N4, abs=1e-9)
    assert sum(roots) == pytest.approx(1.0, abs=1e-9)
    assert roots[0] * roots[1] * roots[2] == pytest.approx(7.0, abs=1e-9)


def test_cubic_adjacency_n4():
    roots, theta = solve_cubic_trig(-1, -3, 1)
    assert roots[0] == pytest.approx(2.170086486626, abs=1e-9)
    assert theta == pytest.approx(THETA_ADJACENCY_N4, abs=1e-9)


def test_cubic_triple_root():
    assert solve_cubic_trig(-3, 3, -1) == ((1.0, 1.0, 1.0), 0.0)


def test_cubic_rejects_complex_roots():
    with pytest.raises(ComplexRoots):
        solve_cubic_trig(0, 0, 1)  # x^3 + 1: one real root
    with pytest.raises(ComplexRoots):
        solve_cubic_trig(0, 3, 0)  # x^3 + 3x: one real root


def test_cubic_residuals_over_sweep():
    for n in range(4, 101):
        if not is_composite(n):
            continue
        phi = totient(n)
        for a1, a0 in (
            (3 - 2 * n - 3 * phi, -phi * phi - phi * (4 - n) - n + 1),
            (3 - 2 * n + phi, (n - phi - 1) * (phi - 1)),
        ):
            a2 = 3 - n
            roots, _ = solve_cubic_trig(a2, a1, a0)
            budget = 1e-9 * max(1.0, abs(a0))
            for r in roots:
                residual = ((r + a2) * r + a1) * r + a0
                assert abs(residual) <= budget, (n, r)


def _cubic_outcome(solve, cubic):
    """The roots and angle, or the type of the exception raised."""
    try:
        return solve(*cubic)
    except Exception as exc:
        return type(exc)


def test_integer_newton_matches_the_fraction_reference_on_the_paper_cubics():
    for n in range(4, 3001):
        if not is_composite(n):
            continue
        for cubic in (distance_cubic(n), adjacency_cubic(n)):
            a0, a1, a2, _ = cubic.coeffs
            got = _cubic_outcome(solve_cubic_trig, (a2, a1, a0))
            assert got == _cubic_outcome(reference_solve_cubic_trig, (a2, a1, a0)), (n, cubic)


_ROOTS = st.integers(-(2**53), 2**53)


@st.composite
def _integer_root_cubics(draw):
    """(a2, a1, a0) of (x - r1)(x - r2)(x - r3) + shift, with repeated roots
    drawn often; a nonzero shift may leave only one real root."""
    r1 = draw(_ROOTS)
    r2 = draw(st.one_of(st.just(r1), _ROOTS))
    r3 = draw(st.one_of(st.just(r1), st.just(r2), _ROOTS))
    shift = draw(st.sampled_from([0, 0, 1, -1, 3]))
    return -(r1 + r2 + r3), r1 * r2 + r1 * r3 + r2 * r3, -r1 * r2 * r3 + shift


@settings(max_examples=500, deadline=None)
@given(_integer_root_cubics())
def test_integer_newton_matches_the_fraction_reference(cubic):
    got = _cubic_outcome(solve_cubic_trig, cubic)
    assert got == _cubic_outcome(reference_solve_cubic_trig, cubic)


def test_integer_newton_overflows_like_the_fraction_reference():
    cubic = (0, -(10**110), 0)  # 4 delta^3 is beyond the float range
    with pytest.raises(OverflowError):
        solve_cubic_trig(*cubic)
    assert _cubic_outcome(reference_solve_cubic_trig, cubic) is OverflowError


def test_distance_spectrum_complete_case():
    spectrum = distance_spectrum_closed(DirectProductGroup([2, 2]))
    assert spectrum.entries == ((3.0, 1), (-1.0, 3))
    assert spectrum.theta is None
    assert spectrum.source == "distance-complete"


def test_distance_spectrum_cyclic_composite():
    spectrum = distance_spectrum_closed(CyclicGroup(4))
    assert spectrum.theta == pytest.approx(THETA_DISTANCE_N4, abs=1e-9)
    assert spectrum_total(spectrum) == 4
    values = spectrum.values()
    assert values[0] == pytest.approx(DISTANCE_ROOTS_N4[0], abs=1e-9)
    assert values[1] == pytest.approx(DISTANCE_ROOTS_N4[1], abs=1e-9)
    assert values[2] == -1.0
    assert values[3] == pytest.approx(DISTANCE_ROOTS_N4[2], abs=1e-9)
    # the closed-form roots must agree with the generic cubic solver
    roots, _ = solve_cubic_trig(-1, -11, -7)
    cubic_values = [v for v, _ in spectrum.entries if v != -1.0]
    for got, expected in zip(cubic_values, roots):
        assert got == pytest.approx(expected, abs=1e-6)


def test_distance_spectrum_rejects_prime_and_trivial_orders():
    for n in (1, 2, 3, 5, 13):
        with pytest.raises(
            NoClosedForm, match="the distance closed form needs a composite order >= 4"
        ):
            distance_spectrum_closed(CyclicGroup(n))


def test_adjacency_spectrum_prime():
    assert adjacency_spectrum_closed(CyclicGroup(5)).entries == (
        (3.0, 1),
        (0.0, 1),
        (-1.0, 3),
    )
    assert adjacency_spectrum_closed(CyclicGroup(3)).entries == (
        (1.0, 1),
        (0.0, 1),
        (-1.0, 1),
    )
    assert adjacency_spectrum_closed(CyclicGroup(2)).entries == ((0.0, 2),)


def test_adjacency_spectrum_rejects_order_one():
    with pytest.raises(NoClosedForm, match="the adjacency closed form does not cover order 1"):
        adjacency_spectrum_closed(CyclicGroup(1))


def test_adjacency_spectrum_cyclic_composite():
    spectrum = adjacency_spectrum_closed(CyclicGroup(4))
    assert spectrum.theta == pytest.approx(THETA_ADJACENCY_N4, abs=1e-9)
    assert spectrum_max_value(spectrum) == pytest.approx(ADJACENCY_ROOTS_N4[0], abs=1e-9)


def test_adjacency_spectrum_noncyclic():
    assert adjacency_spectrum_closed(DihedralGroup(3)).entries == ((5.0, 1), (-1.0, 5))


def test_spectral_radii():
    def distance_radius(n):
        return spectrum_max_value(distance_spectrum_closed(CyclicGroup(n)))

    assert distance_radius(4) == pytest.approx(DISTANCE_ROOTS_N4[0], abs=1e-9)
    assert distance_radius(6) == pytest.approx(DISTANCE_RADIUS_N6, abs=1e-9)
    assert spectrum_max_value(adjacency_spectrum_closed(CyclicGroup(4))) == pytest.approx(
        ADJACENCY_ROOTS_N4[0], abs=1e-9
    )


def _delta_and_numerator(cubic):
    """delta = a2^2 - 3 a1 and N = -2 a2^3 + 9 a2 a1 - 27 a0 of a monic cubic."""
    a0, a1, a2, _ = cubic.coeffs
    return a2 * a2 - 3 * a1, -2 * a2**3 + 9 * a2 * a1 - 27 * a0


def _paper_cubics(n, phi):
    """The paper's distance and adjacency cubics of Z_n, from n and phi(n)."""
    return (
        IntPolynomial([-(phi * phi) - phi * (4 - n) - n + 1, 3 - 2 * n - 3 * phi, 3 - n, 1]),
        IntPolynomial([(n - phi - 1) * (phi - 1), 3 - 2 * n + phi, 3 - n, 1]),
    )


def _spectra_at_large_order(n):
    """(closed spectrum, cubic) for Z_n's distance and adjacency forms.
    Within totient's domain they come from spg's closed forms.  Above it
    the orders here are products of 2, 3 and 5: phi(n) comes from that
    factorisation, and the paper's cubics go to closed_spectrum as spg's
    closed forms would give them."""
    if n < 3215031751:
        group = CyclicGroup(n)
        assert (distance_cubic(n), adjacency_cubic(n)) == _paper_cubics(n, totient(n))
        return (
            (distance_spectrum_closed(group), distance_cubic(n)),
            (adjacency_spectrum_closed(group), adjacency_cubic(n)),
        )
    phi, rest = n, n
    for p in (2, 3, 5):
        if rest % p == 0:
            phi -= phi // p
            while rest % p == 0:
                rest //= p
    assert rest == 1, n
    cubics = _paper_cubics(n, phi)
    return tuple(
        (closed_spectrum([(IntPolynomial([1, 1]), n - 3), (cubic, 1)], kind), cubic)
        for cubic, kind in zip(cubics, ("distance-cyclic-composite", "adjacency-cyclic-composite"))
    )


@pytest.mark.parametrize("n", [10**6, 10**9 + 2, 10**12, 10**15, 2**53, 3**33])
def test_closed_roots_bracket_the_integer_cubic_at_large_orders(n):
    # each simple root r must sit between sign changes of the exact cubic at
    # r * (1 -+ 1e-12); an arccos of a float near 1 misses this from n = 10^6
    slack = Fraction(1, 10**12)
    for closed, cubic in _spectra_at_large_order(n):
        roots = [v for v, m in closed.entries if m == 1]
        assert len(roots) == 3, (n, closed.source)
        for r in roots:
            lo, hi = Fraction(r) * (1 - slack), Fraction(r) * (1 + slack)
            assert poly_eval(cubic, lo) * poly_eval(cubic, hi) < 0, (n, closed.source, r)
        assert 0.0 < closed.theta < math.pi / 2, (n, closed.source, closed.theta)


def test_cubics_match_the_paper_delta_and_numerator():
    # the paper writes theta = arccos(N / (2 delta^(3/2))) with these delta, N
    for n in range(4, 2001):
        if not is_composite(n):
            continue
        phi = totient(n)
        assert _delta_and_numerator(distance_cubic(n)) == (
            n * n + 9 * phi,
            2 * n**3 + 27 * phi * phi + 27 * phi,
        ), n
        assert _delta_and_numerator(adjacency_cubic(n)) == (
            n * n - 3 * phi,
            2 * n**3 + 27 * phi * phi + 27 * phi - 36 * n * phi,
        ), n


def test_theta_is_the_paper_arccos():
    for n in range(4, 151):
        if not is_composite(n):
            continue
        group = CyclicGroup(n)
        for closed, cubic in (
            (distance_spectrum_closed(group), distance_cubic(n)),
            (adjacency_spectrum_closed(group), adjacency_cubic(n)),
        ):
            delta, numerator = _delta_and_numerator(cubic)
            expected = math.acos(numerator / (2.0 * delta**1.5))
            assert abs(closed.theta - expected) <= 1e-12, (n, closed.source)


def test_jacobi_identity():
    assert symmetric_eigenvalues(identity_matrix(4)) == [1.0, 1.0, 1.0, 1.0]


def test_jacobi_complete_graph():
    values = symmetric_eigenvalues(adjacency_matrix(complete_graph(5)))
    assert values[0] == pytest.approx(4.0, abs=1e-10)
    for v in values[1:]:
        assert v == pytest.approx(-1.0, abs=1e-10)


def test_jacobi_distance_z4():
    d = distance_matrix(strong_power_graph(CyclicGroup(4)))
    values = symmetric_eigenvalues(d)
    expected = sorted(list(DISTANCE_ROOTS_N4) + [-1.0], reverse=True)
    for got, want in zip(values, expected):
        assert got == pytest.approx(want, abs=1e-8)


def test_jacobi_rejects_asymmetric_input():
    with pytest.raises(NonSymmetric):
        symmetric_eigenvalues(np.array([[0, 2], [1, 0]]))
    with pytest.raises(ValueError, match="row 0 has length 3"):
        symmetric_eigenvalues(np.ones((2, 3), dtype=np.int64))


def test_oracle_checks_symmetry_before_rounding_to_float():
    # both off-diagonal entries round to the float 2^53
    with pytest.raises(NonSymmetric):
        symmetric_eigenvalues(IntMatrix([[0, 2**53 + 1], [2**53, 0]]))


def test_oracle_checks_symmetry_tile_by_tile(monkeypatch):
    # tiles of 4 over order 10: one unmatched entry in a ragged tile and one
    # in a diagonal tile, as an IntMatrix and as a plain int16 array
    monkeypatch.setattr(exactalg, "_SYMMETRY_TILE", 4)
    d = distance_matrix(strong_power_graph(CyclicGroup(10))).entries
    for u, v in ((9, 2), (5, 6)):
        broken = d.copy()
        broken[u, v] += 1
        for matrix in (IntMatrix(broken), broken):
            with pytest.raises(NonSymmetric):
                symmetric_eigenvalues(matrix)
    assert len(symmetric_eigenvalues(IntMatrix(d))) == 10


def test_jacobi_no_convergence_with_zero_sweeps(monkeypatch):
    monkeypatch.setattr(spectra, "_QL_ITERATIONS", 0)
    with pytest.raises(NoConvergence):
        symmetric_eigenvalues(IntMatrix([[0, 1], [1, 0]]))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_oracle_rejects_non_finite_entries(bad):
    # IntMatrix is the oracle's only door: its ValueError names the entry
    off_diagonal = [[1, bad], [bad, 1]]
    on_diagonal = [[1, 0, 0], [0, bad, 0], [0, 0, 2]]
    for matrix, where in (
        (off_diagonal, (0, 1)),
        (on_diagonal, (1, 1)),
        (np.array(on_diagonal, dtype=float), (0, 0)),
    ):
        with pytest.raises(ValueError, match=r"entry \(%d, %d\)" % where):
            symmetric_eigenvalues(matrix)


def test_oracle_rejects_values_beyond_float64():
    # an integer beyond float64 is beyond int64 too, and refused at its entry
    for matrix, where in (
        ([[10**400, 0], [0, 1]], (0, 0)),
        ([[0, -(10**400)], [-(10**400), 0]], (0, 1)),
    ):
        with pytest.raises(ValueError, match=r"entry \(%d, %d\) .* beyond int64" % where):
            symmetric_eigenvalues(matrix)


def test_oracle_rejects_non_integer_or_wide_entries():
    for matrix, where in (
        (np.array([[1.0, 0.0], [0.0, 1.0]]), (0, 0)),
        ([[0, 1], [1, 0.5]], (1, 1)),
        ([[0, -(2**63) - 1], [-(2**63) - 1, 0]], (0, 1)),
    ):
        with pytest.raises(ValueError, match=r"entry \(%d, %d\)" % where):
            symmetric_eigenvalues(matrix)


def test_oracle_leaves_the_callers_array_unchanged():
    rng = np.random.default_rng(0)
    a = rng.integers(-50, 50, size=(20, 20))
    a = a + a.T  # dense: every reflection is applied
    before = a.copy()
    symmetric_eigenvalues(a)
    assert np.array_equal(a, before)


def test_oracle_holds_one_float64_array():
    """The float64 working copy is the oracle's only n x n array: the
    rank-2 update runs in row blocks.  Made whole, as one m x m product,
    it peaked at 2.02 x 8n^2 bytes under tracemalloc on Z_1024's distance
    matrix; in blocks, at 1.03 x 8n^2."""
    n = 1024
    distance = distance_matrix(strong_power_graph(CyclicGroup(n)))
    tracemalloc.start()
    try:
        values = symmetric_eigenvalues(distance)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 8 * n * n + (1 << 20), peak
    # the int16 matrix gives the int64 copy's eigenvalues, bit for bit
    assert distance.entries.dtype == np.int16
    assert values == symmetric_eigenvalues(IntMatrix(distance.entries.astype(np.int64)))


def _eigvalsh_descending(matrix) -> np.ndarray:
    rows = matrix.entries if isinstance(matrix, IntMatrix) else matrix
    return np.linalg.eigvalsh(np.array(rows, dtype=float))[::-1]


def _assert_agrees_with_eigvalsh(matrix, rel_tol: float, label) -> None:
    got = np.array(symmetric_eigenvalues(matrix))
    want = _eigvalsh_descending(matrix)
    scale = max(1.0, float(np.linalg.norm(want)))  # ||A||_F = ||eigenvalues||_2
    assert np.abs(got - want).max() <= rel_tol * scale, label


def _spectrum_workload_groups():
    """The noncyclic groups of the spectrum benchmark, orders 100..250, and
    cyclic groups at the same orders."""
    for order in range(100, 251, 25):
        yield CyclicGroup(order)
        for a in range(2, math.isqrt(order) + 1):
            if order % a == 0 and math.gcd(a, order // a) > 1:
                yield DirectProductGroup([a, order // a])
        if order % 2 == 0:
            yield DihedralGroup(order // 2)


def test_oracle_matches_eigvalsh_on_strong_power_graphs():
    groups = [CyclicGroup(n) for n in range(1, 151)] + list(_spectrum_workload_groups())
    for group in groups:
        graph = strong_power_graph(group)
        _assert_agrees_with_eigvalsh(adjacency_matrix(graph), 1e-11, (group, "adjacency"))
        try:
            distance = distance_matrix(graph)
        except DisconnectedGraph:
            continue
        _assert_agrees_with_eigvalsh(distance, 1e-11, (group, "distance"))


def test_oracle_converges_on_low_rank_integer_matrices():
    # R R^T for a random n x 3 R has n - 3 zero eigenvalues, which QL meets
    # as a cluster at roundoff level; a deflation test local to the
    # neighbouring diagonal entries never fired on 6 of these
    for n in (40, 60, 80, 100):
        for seed in range(40):
            r = np.random.default_rng(seed).integers(-3, 4, (n, 3))
            _assert_agrees_with_eigvalsh(IntMatrix(r @ r.T), 1e-13, (n, seed))


def _count_reflections(monkeypatch) -> list[int]:
    """Record the step k of every reflection the oracle applies."""
    steps: list[int] = []
    reflect = spectra._reflect

    def spy(a, k):
        steps.append(k)
        reflect(a, k)

    monkeypatch.setattr(spectra, "_reflect", spy)
    return steps


def _row_by_row_steps(matrix, tol: float = 1e-12) -> list[int]:
    """The reference for the block scan: the steps the reduction reflects
    at when each row's skip test runs on its own, one row after another."""
    a = spectra._working_copy(matrix)
    n = a.shape[0]
    skip = tol * float(np.linalg.norm(a)) / (10.0 * n)
    steps = []
    for k in range(n - 2):
        tail = a[k, k + 2 :]
        if tail @ tail > skip * skip:
            spectra._reflect(a, k)
            steps.append(k)
    return steps


_C = spectra._SCAN_ROWS


@pytest.mark.parametrize("j", [0, _C - 1, _C, _C + 1, 2 * _C, 97])
def test_oracle_block_scan_reflects_at_the_first_heavy_row(j, monkeypatch):
    # only row j (and column j) has weight below the subdiagonal, so every
    # earlier step is skipped, wherever row j falls in the scan's blocks
    n = 100
    rng = np.random.default_rng(j)
    a = np.diag(rng.integers(-5, 6, n)) + np.diag(rng.integers(1, 4, n - 1), 1)
    a[j, j + 2 :] = rng.integers(-3, 4, n - j - 2)
    a[j, j + 2] = 7
    a = np.triu(a) + np.triu(a, 1).T
    steps = _count_reflections(monkeypatch)
    _assert_agrees_with_eigvalsh(IntMatrix(a), 1e-11, j)
    scanned = list(steps)
    assert scanned[0] == j
    assert scanned == _row_by_row_steps(IntMatrix(a))


def _stacked_reflect(a, k):
    """The reference for _reflect's operands: the same step with [v w] and
    [w v]^T made by np.stack, two C-order arrays."""
    x = a[k, k + 1 :]
    alpha = -math.copysign(math.sqrt(float(x @ x)), x[0])
    v = x.copy()
    v[0] -= alpha
    beta = 2.0 / float(v @ v)
    block = a[k + 1 :, k + 1 :]
    p = beta * (block @ v)
    w = p - (0.5 * beta * float(p @ v)) * v
    left, right = np.stack((v, w), 1), np.stack((w, v))
    rows = max(1, spectra._UPDATE_ENTRIES // len(v))
    for top in range(0, len(v), rows):
        block[top : top + rows] -= left[top : top + rows] @ right
    a[k, k + 1] = alpha


def test_reflection_rounds_as_with_stacked_operands():
    # the operands' memory layout picks numpy's BLAS path: a strided [v w]
    # changed the last bits of the update at 7 of these orders
    rng = np.random.default_rng(0)
    for m in range(1, 301):
        a = rng.standard_normal((m + 1, m + 1))
        a += a.T
        expected = a.copy()
        _stacked_reflect(expected, 0)
        spectra._reflect(a, 0)
        assert np.array_equal(a, expected), m


def test_strong_power_graph_matrices_need_at_most_three_reflections(monkeypatch):
    steps = _count_reflections(monkeypatch)
    groups = [CyclicGroup(n) for n in range(2, 251)] + list(_spectrum_workload_groups())
    for group in groups:
        graph = strong_power_graph(group)
        matrices = [adjacency_matrix(graph)]
        try:
            matrices.append(distance_matrix(graph))
        except DisconnectedGraph:
            pass
        for matrix in matrices:
            steps.clear()
            symmetric_eigenvalues(matrix)
            scanned = list(steps)
            assert len(scanned) <= 3, (group, scanned)
            assert scanned == _row_by_row_steps(matrix), group


def test_oracle_logs_n_skip_and_reflections_at_debug(monkeypatch, caplog):
    steps = _count_reflections(monkeypatch)
    dense = np.random.default_rng(0).integers(-5, 6, (20, 20))
    matrices = [IntMatrix(dense + dense.T), IntMatrix([[7]]), IntMatrix(np.zeros((3, 3), dtype=np.int8))]
    matrices += [distance_matrix(strong_power_graph(CyclicGroup(n))) for n in (4, 12, 60)]
    counts = []
    for matrix in matrices:
        steps.clear()
        with caplog.at_level(logging.DEBUG, logger="spg"):
            caplog.clear()
            symmetric_eigenvalues(matrix)
        skip = 1e-12 * float(np.linalg.norm(matrix.entries)) / (10.0 * matrix.n)
        assert [r.getMessage() for r in caplog.records if r.name == "spg.spectra"] == [
            f"oracle n={matrix.n} skip={skip:.3g} reflections={len(steps)}"
        ]
        counts.append(len(steps))
    assert counts[:3] == [18, 0, 0]  # dense: every step reflects
    # nothing at the CLI's default level, warning
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="spg"):
        for matrix in matrices:
            symmetric_eigenvalues(matrix)
    assert not caplog.records


def _power_of_two_cases():
    """Random symmetric integer matrices, dense and of rank 2, and spg's
    own adjacency and distance matrices."""
    rng = np.random.default_rng(0)
    for n in (2, 3, 5, 10, 20, 40):
        for _ in range(10):
            m = rng.integers(-20, 21, (n, n))
            yield m + m.T
            r = rng.integers(-3, 4, (n, 2))
            yield r @ r.T
    for group in [CyclicGroup(n) for n in range(1, 61)] + [DihedralGroup(m) for m in range(3, 21)]:
        graph = strong_power_graph(group)
        yield adjacency_matrix(graph).entries
        try:
            yield distance_matrix(graph).entries
        except DisconnectedGraph:
            pass


@pytest.mark.parametrize("s", [1, 20, 40, 56])
def test_oracle_commutes_with_power_of_two_scaling(s):
    # no step of the oracle depends on the matrix's magnitude, so M * 2^s
    # gives M's eigenvalues times 2^s, bit for bit
    for m in _power_of_two_cases():
        m = m.astype(np.int64)
        assert int(np.abs(m).max()) << s < 2**62
        scaled = symmetric_eigenvalues(IntMatrix(m << s))
        assert scaled == [math.ldexp(v, s) for v in symmetric_eigenvalues(IntMatrix(m))], m


@st.composite
def _symmetric_matrices(draw) -> np.ndarray:
    n = draw(st.integers(1, 30))
    kind = draw(st.sampled_from(["integer", "diagonal", "zero", "J-I", "blocks"]))
    if kind == "integer":
        size = n * (n + 1) // 2
        upper = draw(st.lists(st.integers(-20, 20), min_size=size, max_size=size))
        a = np.zeros((n, n), dtype=np.int64)
        a[np.triu_indices(n)] = upper
        a = a + np.triu(a, 1).T
    elif kind == "diagonal":
        a = np.diag(draw(st.lists(st.integers(-5, 5), min_size=n, max_size=n)))
    elif kind == "zero":
        a = np.zeros((n, n), dtype=np.int64)
    elif kind == "J-I":
        a = np.ones((n, n), dtype=np.int64) - np.eye(n, dtype=np.int64)
    else:
        # one small block repeated down the diagonal, so every eigenvalue of
        # the block is repeated, then a symmetric permutation hides the blocks
        size = draw(st.integers(1, min(n, 4)))
        block = np.array(draw(st.lists(st.integers(-4, 4), min_size=size**2, max_size=size**2)))
        block = block.reshape(size, size)
        block = block + block.T
        a = np.zeros((n, n), dtype=np.int64)
        for start in range(0, n - size + 1, size):
            a[start : start + size, start : start + size] = block
        order = draw(st.permutations(range(n)))
        a = a[np.ix_(order, order)]
    return a * draw(st.sampled_from([1, 2**20, 2**40]))


@settings(max_examples=300, deadline=None)
@given(_symmetric_matrices())
def test_oracle_matches_eigvalsh_on_symmetric_matrices(a):
    _assert_agrees_with_eigvalsh(a, 1e-11, a.shape)


@pytest.mark.parametrize("n", [3, 30, 110])
@pytest.mark.parametrize("tol", [1e-12, 1e-6])
def test_oracle_bound_holds_with_noise_just_below_skip(n, tol, monkeypatch):
    # A = 2^56 diag(3 or -1) has two eigenvalues, each repeated, so a
    # perturbation moves them at first order.  E is an integer matrix with,
    # in every column below the subdiagonal, norm at most 0.9 skip (entries
    # truncated toward zero): the reduction skips every step and drops E,
    # and the result must stay within the stated bound of the spectrum of
    # A + E.
    rng = np.random.default_rng(n)
    a = np.diag(rng.choice([3, -1], size=n)) * 2**56
    skip = tol * float(np.linalg.norm(a)) / (10.0 * n)
    e = np.zeros((n, n), dtype=np.int64)
    for k in range(n - 2):
        tail = rng.standard_normal(n - k - 2)
        e[k + 2 :, k] = np.trunc(0.9 * skip * tail / np.linalg.norm(tail)).astype(np.int64)
    e = e + e.T
    noisy = a + e
    monkeypatch.setattr(spectra, "_SKIP_TOL", tol)
    got = np.array(symmetric_eigenvalues(noisy))
    deviation = np.abs(got - _eigvalsh_descending(noisy)).max()
    rounding = 16 * n * np.finfo(float).eps * float(np.linalg.norm(noisy))
    assert deviation <= math.sqrt(2 * n) * skip + rounding
    assert deviation <= tol * float(np.linalg.norm(noisy)) + rounding
    # the dropped E is what the result misses: it is A's spectrum
    assert np.abs(got - _eigvalsh_descending(a)).max() <= rounding
    if tol == 1e-6 and n > 3:
        assert deviation > rounding  # the bound is exercised, not met by luck


def test_compare_spectra_exact_match():
    spectrum = ClosedFormSpectrum(((3.0, 1), (-1.0, 3)), None, "adjacency-complete")
    result = compare_spectra(spectrum, [3.0, -1.0, -1.0, -1.0])
    assert result.max_abs_deviation == 0.0
    assert result.multiplicity_match and result.theta_in_range


def test_compare_spectra_z4():
    group = CyclicGroup(4)
    closed = distance_spectrum_closed(group)
    numeric = symmetric_eigenvalues(distance_matrix(strong_power_graph(group)))
    result = compare_spectra(closed, numeric)
    assert result.max_abs_deviation <= 1e-8
    assert result.multiplicity_match


def test_compare_spectra_detects_split_multiplicity():
    spectrum = ClosedFormSpectrum(((3.0, 1), (-1.0, 3)), None, "adjacency-complete")
    perturbed = [3.0, -1.0, -1.0, -1.001]
    result = compare_spectra(spectrum, perturbed)
    assert not result.multiplicity_match


def test_compare_spectra_count_mismatch():
    spectrum = ClosedFormSpectrum(((1.0, 1),), None, "adjacency-prime")
    result = compare_spectra(spectrum, [1.0, 0.0])
    assert result == SpectrumComparison(math.inf, False, True)
    angled = ClosedFormSpectrum(((1.0, 1),), 2.0, "distance-cyclic-composite")
    assert compare_spectra(angled, []) == SpectrumComparison(math.inf, False, False)


def test_closed_vs_jacobi_sample_sweep():
    for n in range(4, 31):
        if not is_composite(n):
            continue
        group = CyclicGroup(n)
        graph = strong_power_graph(group)
        for closed, matrix in (
            (distance_spectrum_closed(group), distance_matrix(graph)),
            (adjacency_spectrum_closed(group), adjacency_matrix(graph)),
        ):
            result = compare_spectra(closed, symmetric_eigenvalues(matrix))
            assert result.max_abs_deviation <= 1e-8, (n, closed.source)
            assert result.multiplicity_match, (n, closed.source)
            assert result.theta_in_range, (n, closed.source)


def test_closed_spectrum_sums_and_products():
    for n in (4, 6, 9, 14, 21, 30):
        group = CyclicGroup(n)
        for closed, formula in (
            (distance_spectrum_closed(group), distance_charpoly_formula(n)),
            (adjacency_spectrum_closed(group), adjacency_charpoly_formula(n)),
        ):
            values = closed.values()
            assert sum(values) == pytest.approx(0.0, abs=1e-7)
            product = math.prod(values)
            expected = (-1) ** n * formula.coefficient(0)
            assert product == pytest.approx(expected, rel=1e-6), (n, closed.source)


def test_cubic_roots_distinct_and_avoid_minus_one():
    # the -1 block is stored as exactly -1.0, so the three simple cubic
    # roots are the remaining entries
    for n in range(4, 101):
        if not is_composite(n):
            continue
        group = CyclicGroup(n)
        for closed in (distance_spectrum_closed(group), adjacency_spectrum_closed(group)):
            roots = [v for v, _ in closed.entries if v != -1.0]
            assert len(roots) == 3, (n, closed.source)
            gaps = [a - b for a, b in zip(roots, roots[1:])]
            assert all(gap > 1e-9 for gap in gaps), (n, closed.source)
            assert all(abs(v + 1.0) > 1e-9 for v in roots), (n, closed.source)


def test_spectrum_document_shape(capsys):
    assert main(["spectrum", "--group", "cyclic:5"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["n"] == 5
    assert doc["matrix"] == "adjacency"
    assert doc["theta_radians"] is None
    assert doc["source"] == "adjacency-prime"
    assert doc["eigenvalues"][0] == {"value": 3.0, "multiplicity": 1}
