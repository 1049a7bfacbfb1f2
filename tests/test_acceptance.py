"""Acceptance suite: every criterion runs at its stated tolerance and prints
one PASS/FAIL line (run with pytest -s to see them live)."""

import math
import time
from contextlib import contextmanager

import pytest

from spg.exactalg import (
    adjacency_charpoly_formula,
    charpoly,
    distance_charpoly_formula,
    prime_adjacency_charpoly,
)
from spg.graphs import (
    adjacency_matrix,
    components,
    diameter,
    distance_matrix,
    is_complete,
    strong_power_graph,
)
from spg.groups import (
    CyclicGroup,
    DihedralGroup,
    DirectProductGroup,
    is_composite,
    is_prime,
)
from spg.spectra import (
    adjacency_spectrum_closed,
    compare_spectra,
    distance_spectrum_closed,
    symmetric_eigenvalues,
)
from spg.verify import VerificationRecord

from conftest import spectrum_max_value, strong_power_graph_structural

N_MAX = 150
COMPOSITES = [n for n in range(4, N_MAX + 1) if is_composite(n)]
PRIMES = [p for p in range(2, N_MAX + 1) if is_prime(p)]

# oracle values for the n = 4 worked instance, computed by bisection+Newton
# on the exact cubics and arccos on the exact angle arguments
ORACLE_N4 = {
    "distance_roots": (4.099647729676, -0.716463058068, -2.383184671608),
    "theta_distance": 0.750436850442,
    "adjacency_largest": 2.170086486626,
    "theta_adjacency": 1.539168277357,
}


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number}: FAIL ({description})")
        raise
    print(f"ACCEPTANCE {number}: PASS ({description})")


@pytest.fixture(scope="module")
def sweep():
    """Graphs, exact charpolys, numeric eigenvalues, and closed spectra for
    every order up to N_MAX, computed once and shared by the criteria."""
    data = {}
    distance_seconds = 0.0
    adjacency_seconds = 0.0
    for n in range(2, N_MAX + 1):
        group = CyclicGroup(n)
        graph = strong_power_graph(group)
        entry = {"group": group, "graph": graph}
        adjacency = adjacency_matrix(graph)
        started = time.perf_counter()
        entry["adjacency_charpoly"] = charpoly(adjacency)
        adjacency_seconds += time.perf_counter() - started
        entry["adjacency_numeric"] = symmetric_eigenvalues(adjacency)
        entry["adjacency_closed"] = adjacency_spectrum_closed(group)
        if is_composite(n):
            distance = distance_matrix(graph)
            started = time.perf_counter()
            entry["distance_charpoly"] = charpoly(distance)
            distance_seconds += time.perf_counter() - started
            entry["distance_numeric"] = symmetric_eigenvalues(distance)
            entry["distance_closed"] = distance_spectrum_closed(group)
        data[n] = entry
    data["timing"] = {"distance": distance_seconds, "adjacency": adjacency_seconds}
    return data


def test_criterion_1_distance_charpoly_closed_form(sweep):
    elapsed = sweep["timing"]["distance"]
    with criterion(1, f"distance charpoly equals closed form on [4, {N_MAX}], "
                      f"exact, {elapsed:.1f}s"):
        for n in COMPOSITES:
            assert sweep[n]["distance_charpoly"] == distance_charpoly_formula(n), n
        assert elapsed < 300.0, f"distance charpoly sweep took {elapsed:.1f}s"


def test_criterion_2_adjacency_charpoly_closed_form(sweep):
    with criterion(2, f"adjacency charpoly equals closed form on [2, {N_MAX}], exact"):
        for n in range(2, N_MAX + 1):
            assert sweep[n]["adjacency_charpoly"] == adjacency_charpoly_formula(n), n
        for p in PRIMES:
            assert sweep[p]["adjacency_charpoly"] == prime_adjacency_charpoly(p), p


def test_criterion_3_noncyclic_complete_spectra(q8, s3):
    with criterion(3, "noncyclic groups: complete graphs, spectra {n-1, -1^(n-1)}, "
                      "deviation <= 1e-10"):
        groups = [
            DirectProductGroup([2, 2]),
            DirectProductGroup([2, 4]),
            DirectProductGroup([3, 3]),
            DirectProductGroup([2, 2, 2]),
            DihedralGroup(3),
            DihedralGroup(4),
            DihedralGroup(5),
            DihedralGroup(6),
            q8,
            s3,
        ]
        for group in groups:
            n = group.order
            graph = strong_power_graph(group)
            assert is_complete(graph), group
            for closed, matrix in (
                (distance_spectrum_closed(group), distance_matrix(graph)),
                (adjacency_spectrum_closed(group), adjacency_matrix(graph)),
            ):
                assert closed.entries == ((float(n - 1), 1), (-1.0, n - 1)), group
                result = compare_spectra(closed, symmetric_eigenvalues(matrix))
                assert result.max_abs_deviation <= 1e-10, (group, closed.source)
                assert result.multiplicity_match, (group, closed.source)


def test_criterion_4_closed_vs_numeric_spectra(sweep):
    with criterion(4, f"closed vs numeric spectra <= 1e-8 with multiplicities, "
                      f"composite n <= {N_MAX}"):
        for n in COMPOSITES:
            entry = sweep[n]
            for kind in ("distance", "adjacency"):
                closed = entry[f"{kind}_closed"]
                result = compare_spectra(closed, entry[f"{kind}_numeric"])
                assert result.max_abs_deviation <= 1e-8, (n, kind)
                assert result.multiplicity_match, (n, kind)
                minus_one = [m for v, m in closed.entries if v == -1.0]
                assert minus_one == [n - 3], (n, kind)


def test_criterion_5_worked_instance_n4(sweep):
    with criterion(5, "worked instance n = 4 matches the frozen oracles"):
        entry = sweep[4]
        expected = distance_charpoly_formula(4)
        assert entry["distance_charpoly"] == expected
        assert expected.coeffs == (-7, -18, -12, 0, 1)  # (x+1)(x^3-x^2-11x-7)

        closed = entry["distance_closed"]
        cubic_roots = [v for v, _ in closed.entries if v != -1.0]
        for got, want in zip(cubic_roots, ORACLE_N4["distance_roots"]):
            assert abs(got - want) <= 1e-4, (got, want)
        assert any(v == -1.0 and m == 1 for v, m in closed.entries)
        assert abs(closed.theta - ORACLE_N4["theta_distance"]) <= 1e-4

        adjacency = entry["adjacency_closed"]
        assert abs(spectrum_max_value(adjacency) - ORACLE_N4["adjacency_largest"]) <= 1e-4
        assert abs(adjacency.theta - ORACLE_N4["theta_adjacency"]) <= 1e-4

        for kind in ("distance", "adjacency"):
            result = compare_spectra(entry[f"{kind}_closed"], entry[f"{kind}_numeric"])
            assert result.max_abs_deviation <= 1e-8, kind


def test_criterion_6_structural_oracle(catalog60):
    with criterion(6, "definitional = structural on the catalog, prime components, "
                      "diameter 2 for composite n <= 200"):
        for name, group in catalog60:
            assert strong_power_graph(group) == strong_power_graph_structural(group), name
        for p in (p for p in range(2, 61) if is_prime(p)):
            graph = strong_power_graph(CyclicGroup(p))
            assert components(graph) == [[0], list(range(1, p))], p
        for n in range(4, 201):
            if is_composite(n):
                assert diameter(strong_power_graph(CyclicGroup(n))) == 2, n


def test_criterion_7_theta_range(sweep):
    with criterion(7, f"theta in (0, pi/2) for both formulas, composite n <= {N_MAX}"):
        half_pi = math.pi / 2.0
        for n in COMPOSITES:
            for kind in ("distance", "adjacency"):
                theta = sweep[n][f"{kind}_closed"].theta
                assert theta is not None and 0.0 < theta < half_pi, (n, kind, theta)
        # a theta violation must flag the verification record, not vanish
        record = VerificationRecord(
            n=4, composite=True, charpoly_distance_match=True,
            charpoly_adjacency_match=True, spectrum_distance_max_dev=0.0,
            spectrum_adjacency_max_dev=0.0, spectrum_distance_mult_match=True,
            spectrum_adjacency_mult_match=True, theta_distance=2.0,
            theta_adjacency=0.5, theta_in_range=False, elapsed_ms=0,
        )
        assert record.failed(1e-8)


def test_criterion_8_spectral_radii(sweep):
    with criterion(8, f"closed-form spectral radii match numeric maxima <= 1e-8, "
                      f"composite n <= {N_MAX}"):
        for n in COMPOSITES:
            entry = sweep[n]
            group = CyclicGroup(n)
            distance_radius = spectrum_max_value(distance_spectrum_closed(group))
            adjacency_radius = spectrum_max_value(adjacency_spectrum_closed(group))
            assert abs(distance_radius - entry["distance_numeric"][0]) <= 1e-8, n
            assert abs(adjacency_radius - entry["adjacency_numeric"][0]) <= 1e-8, n


@pytest.mark.parametrize("n", [1020, 1024, 1030, 2048])
def test_exact_charpolys_match_closed_forms_up_to_max_order(n):
    # the exact charpoly in bounded memory up to the default --max-order
    graph = strong_power_graph(CyclicGroup(n))
    assert charpoly(distance_matrix(graph)) == distance_charpoly_formula(n)
    assert charpoly(adjacency_matrix(graph)) == adjacency_charpoly_formula(n)
