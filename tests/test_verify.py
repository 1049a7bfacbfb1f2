"""The verify sweep's checks: factor lists compared on a coprime basis,
never expanded, and able to fail, and the graph's connectivity against the
paper's."""

import json
import logging
import os
import subprocess
import sys

import numpy as np
import pytest

from spg import cli, exactalg, verify
from spg.cli import main
from spg.exactalg import IntPolynomial
from spg.graphs import DisconnectedGraph, SimpleGraph, strong_power_graph
from spg.groups import CyclicGroup, is_composite, is_prime
from spg.verify import verify_range

# what the check must not call: the expanded products on either side
EXPANDED = (
    "charpoly",
    "poly_mul",
    "_poly_pow",
    "expand",
    "distance_charpoly_formula",
    "adjacency_charpoly_formula",
    "prime_adjacency_charpoly",
)


def test_verify_expands_no_polynomial(monkeypatch):
    def refuse(*args):
        raise AssertionError("verify expanded a polynomial")

    for module in (exactalg, verify):
        for name in EXPANDED:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    for n in range(2, 151):
        record = verify._verify_single(n)
        assert not record.failed(1e-8), n
        kinds = ["adjacency", "distance"] if is_composite(n) else ["adjacency"]
        assert [c.matrix for c in record.checks] == kinds, n
        assert all(c.charpoly_match is True for c in record.checks), n


def _off_by_one(monkeypatch):
    cubic = exactalg.distance_cubic

    def wrong(n):
        coeffs = cubic(n).coeffs
        return IntPolynomial([coeffs[0] + 1, *coeffs[1:]])

    monkeypatch.setattr(exactalg, "distance_cubic", wrong)


def test_a_wrong_distance_cubic_fails_every_composite_order(monkeypatch):
    _off_by_one(monkeypatch)
    report = verify_range(4, 20)
    composites = [n for n in range(4, 21) if is_composite(n)]
    assert report.failures == composites
    for record in report.records:
        # the charpoly check and the distance spectrum both read the cubic
        # from distance_formula_factors; the adjacency side never sees it
        adjacency, *distance = record.checks
        assert adjacency.charpoly_match is True, record.n
        assert adjacency.max_abs_deviation <= 1e-8, record.n
        assert len(distance) == is_composite(record.n), record.n
        for check in distance:
            assert check.charpoly_match is False, record.n
            assert check.max_abs_deviation > 1e-8, record.n
        assert record.connectivity_match is True, record.n


def _exit_code(capsys, command, group, matrix="adjacency"):
    code = main([command, "--group", group, "--matrix", matrix])
    capsys.readouterr()
    return code


@pytest.mark.parametrize("shift", [-1, 1])
@pytest.mark.parametrize("coefficient", [0, 1, 2])
@pytest.mark.parametrize("cubic", ["distance_cubic", "adjacency_cubic"])
def test_each_cubic_coefficient_moved_by_one_fails(monkeypatch, capsys, cubic, coefficient, shift):
    # a distance mutant fails every composite order, the only ones with a
    # distance form; an adjacency mutant fails every order, since at a
    # prime the corollary is checked against the general cubic's list too,
    # by verify and by spg charpoly alike
    right = getattr(exactalg, cubic)

    def mutant(n):
        coeffs = list(right(n).coeffs)
        coeffs[coefficient] += shift
        return IntPolynomial(coeffs)

    monkeypatch.setattr(exactalg, cubic, mutant)
    orders = range(2, 41)
    expected = [n for n in orders if cubic == "adjacency_cubic" or is_composite(n)]
    assert verify_range(2, 40).failures == expected
    if cubic == "adjacency_cubic":
        for p in (2, 3, 5, 7, 11, 13):
            assert _exit_code(capsys, "charpoly", f"cyclic:{p}") == 1, p


@pytest.mark.parametrize("shift", [-1, 1])
def test_phi_moved_by_one_inside_the_cubics_fails(monkeypatch, capsys, shift):
    totient = exactalg.totient
    monkeypatch.setattr(exactalg, "totient", lambda n: totient(n) + shift)
    assert verify_range(2, 40).failures == list(range(2, 41))
    for command in ("charpoly", "spectrum"):
        for matrix in ("adjacency", "distance"):
            assert _exit_code(capsys, command, "cyclic:12", matrix) == 1, (command, matrix)
    assert _exit_code(capsys, "charpoly", "cyclic:7") == 1  # the prime cross-check
    # the mutant survives here: at a prime the spectrum side reads only the
    # corollary x(x+1)^(p-2)(x+2-p), which holds no phi
    assert _exit_code(capsys, "spectrum", "cyclic:7") == 0


def test_complete_graph_root_moved_by_one_fails(monkeypatch, capsys):
    # K_n's (x - n + 1) made (x - n + 2); verify checks only Z_n, which
    # never takes K_n's form, so only charpoly and spectrum can catch it
    right = exactalg.complete_graph_factors

    def mutant(n):
        root, *rest = right(n)
        assert root == (IntPolynomial([1 - n, 1]), 1)
        return [(IntPolynomial([2 - n, 1]), 1), *rest]

    monkeypatch.setattr(exactalg, "complete_graph_factors", mutant)
    assert verify_range(2, 40).failures == []
    for group in ("product:2,2", "dihedral:3"):
        for command in ("charpoly", "spectrum"):
            for matrix in ("adjacency", "distance"):
                assert _exit_code(capsys, command, group, matrix) == 1, (group, command, matrix)


def test_prime_corollary_root_moved_by_one_fails(monkeypatch, capsys):
    # the corollary's (x + 2 - p) made (x + 1 - p)
    right = exactalg.prime_adjacency_factors

    def mutant(p):
        *rest, root = right(p)
        assert root == (IntPolynomial([2 - p, 1]), 1)
        return [*rest, (IntPolynomial([1 - p, 1]), 1)]

    monkeypatch.setattr(exactalg, "prime_adjacency_factors", mutant)
    assert verify_range(2, 40).failures == [n for n in range(2, 41) if is_prime(n)]
    for command in ("charpoly", "spectrum"):
        assert _exit_code(capsys, command, "cyclic:7") == 1, command


@pytest.mark.parametrize("kind", ["distance", "adjacency"])
def test_one_more_x_plus_one_with_a_quadratic_fails(monkeypatch, capsys, kind):
    # (x+1)^(n-3) times the cubic made (x+1)^(n-2) times the cubic's
    # quotient by x + 1, so the degree stays n; only the remainder, the
    # cubic at -1, is lost, and for both cubics that is phi(n - 1 - phi)
    right = getattr(exactalg, f"{kind}_formula_factors")

    def mutant(n):
        (x_plus_one, power), (cubic, one) = right(n)
        assert (x_plus_one, power, one) == (IntPolynomial([1, 1]), n - 3, 1)
        a0, a1, a2, a3 = cubic.coeffs
        return [(x_plus_one, n - 2), (IntPolynomial([a1 - a2 + 1, a2 - 1, a3]), 1)]

    monkeypatch.setattr(exactalg, f"{kind}_formula_factors", mutant)
    # verify's prime cross-check reads the adjacency form through its own name
    monkeypatch.setattr(verify, "adjacency_formula_factors", exactalg.adjacency_formula_factors)
    # at a prime phi = p - 1, so the remainder is 0 and the mutant is the
    # paper's own polynomial: every prime order survives, equivalently
    assert verify_range(2, 40).failures == [n for n in range(2, 41) if is_composite(n)]
    for command in ("charpoly", "spectrum"):
        # a quadratic factor has no root the spectrum side reads
        assert _exit_code(capsys, command, "cyclic:12", kind) == 1, command
        if kind == "adjacency":
            # the charpoly side compares equal polynomials, and the spectrum
            # side reads only the corollary
            assert _exit_code(capsys, command, "cyclic:7") == 0, command


def test_the_adjacency_form_with_the_distance_cubic_fails(monkeypatch, capsys):
    # adjacency_cubic, read only inside adjacency_formula_factors, swapped
    # for distance_cubic
    monkeypatch.setattr(exactalg, "adjacency_cubic", exactalg.distance_cubic)
    assert verify_range(2, 40).failures == list(range(2, 41))
    for command in ("charpoly", "spectrum"):
        assert _exit_code(capsys, command, "cyclic:12") == 1, command
        # the distance form is not touched
        assert _exit_code(capsys, command, "cyclic:12", "distance") == 0, command
    assert _exit_code(capsys, "charpoly", "cyclic:7") == 1  # the prime cross-check
    # the mutant survives here: at a prime the spectrum side reads only the
    # corollary, which holds no cubic
    assert _exit_code(capsys, "spectrum", "cyclic:7") == 0


def _powers(g, top):
    """Boolean n x n array whose row a marks {a^k : 1 <= k <= top}, from
    the group's law alone."""
    n = g.order
    elems = np.arange(n)
    member = np.zeros((n, n), dtype=bool)
    power = elems
    for _ in range(top):
        member[elems, power] = True
        power = g.law(power, elems)
    return member


def _graph(adj):
    adj = adj.copy()
    np.fill_diagonal(adj, False)
    return SimpleGraph(adj)


def _met(sets):
    """x ~ y when the sets of rows x and y intersect."""
    ints = sets.astype(np.int64)
    return _graph(ints @ ints.T > 0)


def _exponents_up_to_n(g):
    # e = a^n joins every power set, so every graph is K_n
    return _met(_powers(g, g.order))


def _power_graph(g):
    # the ordinary power graph: one of x, y is a power of the other
    subgroup = _powers(g, g.order)
    return _graph(subgroup | subgroup.T)


def _enhanced_power_graph(g):
    # x ~ y when <x, y> is cyclic, that is when one <z> holds both: K_n for
    # every cyclic group
    ints = _powers(g, g.order).astype(np.int64)
    return _graph(ints.T @ ints > 0)


# the n = 2p orders, p an odd prime: there the power graph is K_n minus a
# star of phi(n) edges centred at the involution, not at e, so it is
# isomorphic to the strong graph, whose star is centred at e
TWICE_AN_ODD_PRIME = [n for n in range(6, 121, 2) if is_prime(n // 2)]


def test_the_mutant_builders_differ_from_the_definition_by_their_one_change():
    # with exponents up to n - 1 the same builder gives the strong graph
    for n in (2, 7, 12, 30):
        g = CyclicGroup(n)
        assert _met(_powers(g, n - 1)) == strong_power_graph(g), n
    # at n = 2p, x -> x + p takes the power graph to the strong graph: e to
    # the involution p, and the generators to the elements of order p
    for n in TWICE_AN_ODD_PRIME:
        shift = (np.arange(n) + n // 2) % n
        power = _power_graph(CyclicGroup(n))
        strong = strong_power_graph(CyclicGroup(n))
        assert SimpleGraph(power.adj[np.ix_(shift, shift)]) == strong != power, n


@pytest.mark.parametrize("builder, isomorphic", [
    pytest.param(_exponents_up_to_n, [], id="exponents-up-to-n"),
    pytest.param(_power_graph, TWICE_AN_ODD_PRIME, id="power-graph"),
    pytest.param(_enhanced_power_graph, [], id="enhanced-power-graph"),
])
def test_a_graph_other_than_the_strong_power_graph_fails(monkeypatch, capsys, builder, isomorphic):
    # every order fails but those where the mutant's graph is isomorphic to
    # the strong one, which no spectrum can tell apart
    monkeypatch.setattr(verify, "strong_power_graph", builder)
    monkeypatch.setattr(cli, "strong_power_graph", builder)
    assert len(TWICE_AN_ODD_PRIME) == 16
    assert verify_range(2, 120).failures == [n for n in range(2, 121) if n not in isomorphic]
    for command in ("charpoly", "spectrum"):
        for matrix in ("adjacency", "distance"):
            assert _exit_code(capsys, command, "cyclic:12", matrix) == 1, (command, matrix)


def test_a_wrong_distance_cubic_makes_the_cli_exit_one(monkeypatch, capsys):
    assert main(["verify", "--range", "4..20"]) == 0
    capsys.readouterr()
    _off_by_one(monkeypatch)
    assert main(["verify", "--range", "4..20"]) == 1
    failures = json.loads(capsys.readouterr().out)["summary"]["failures"]
    assert failures == [n for n in range(4, 21) if is_composite(n)]


def test_a_connected_prime_order_fails_its_record(monkeypatch, capsys):
    # at prime n no distance form applies: the graph must be disconnected
    monkeypatch.setattr(verify, "is_connected", lambda graph: True)
    record = verify._verify_single(7)
    assert record.connectivity_match is False and record.failed(1e-8)
    assert [c.failed(1e-8) for c in record.checks] == [False]
    assert main(["verify", "--range", "7..8"]) == 1
    assert json.loads(capsys.readouterr().out)["summary"]["failures"] == [7]


def test_a_disconnected_composite_order_fails_its_record(monkeypatch, capsys):
    # at composite n the distance form applies: its matrix must exist
    def disconnected(graph):
        raise DisconnectedGraph("no path")

    monkeypatch.setattr(verify, "distance_matrix", disconnected)
    record = verify._verify_single(8)
    assert record.connectivity_match is False and record.failed(1e-8)
    assert [c.matrix for c in record.checks] == ["adjacency"]
    assert main(["verify", "--range", "7..8"]) == 1
    assert json.loads(capsys.readouterr().out)["summary"]["failures"] == [8]


def test_verify_computes_each_matrix_factors_once(monkeypatch):
    # the prime order's adjacency factors serve both of its comparisons
    factors = exactalg.charpoly_factors
    seen = []
    monkeypatch.setattr(verify, "charpoly_factors", lambda m: seen.append(m.n) or factors(m))
    for n, calls in ((7, [7]), (12, [12, 12])):
        seen.clear()
        assert not verify._verify_single(n).failed(1e-8)
        assert seen == calls, n


def _count_failed_calls(monkeypatch):
    calls = []
    failed = verify.VerificationRecord.failed

    def counting(self, tol):
        calls.append(self.n)
        return failed(self, tol)

    monkeypatch.setattr(verify.VerificationRecord, "failed", counting)
    return calls


def test_a_charpoly_the_integer_stage_refuses_fails_its_check(monkeypatch, caplog):
    # a stopped stage is a failed charpoly match with one debug line, not a
    # traceback; the spectra are still compared, and hold
    monkeypatch.setattr(exactalg, "_integer_hessenberg", lambda h: 0)
    with caplog.at_level(logging.DEBUG, logger="spg"):
        report = verify_range(4, 6)
    assert report.failures == [4, 5, 6]
    checks = [(r.n, c) for r in report.records for c in r.checks]
    assert [(n, c.matrix) for n, c in checks] == [
        (4, "adjacency"), (4, "distance"), (5, "adjacency"), (6, "adjacency"), (6, "distance")
    ]
    for n, check in checks:
        assert check.charpoly_match is False
        assert check.max_abs_deviation < 1e-8 and check.multiplicity_match and check.theta_in_range
    stopped = [r.getMessage() for r in caplog.records if "integer stage stopped" in r.getMessage()]
    assert [line.split(": ")[0] for line in stopped] == [f"n={n} {c.matrix}" for n, c in checks]
    assert all(f"stopped at column 0 of n = {n}: " in line for (n, _), line in zip(checks, stopped))


def test_the_per_order_debug_line_costs_nothing_when_debug_is_off(monkeypatch, caplog):
    calls = _count_failed_calls(monkeypatch)
    with caplog.at_level(logging.INFO, logger="spg"):
        verify_range(4, 6)
    assert calls == [4, 5, 6]  # once each, for the report's failures
    assert not any(r.getMessage().startswith("verified n=") for r in caplog.records)


def test_the_per_order_debug_line_appears_under_spg_log_debug(monkeypatch, caplog, tmp_path):
    monkeypatch.setenv("SPG_LOG", "debug")
    calls = _count_failed_calls(monkeypatch)
    with caplog.at_level(logging.DEBUG, logger="spg"):
        assert main(["verify", "--range", "4..6", "--out", str(tmp_path / "report.json")]) == 0
    lines = [r.getMessage() for r in caplog.records if r.name == "spg.verify"]
    per_order = [line for line in lines if line.startswith("verified n=")]
    assert [line.split()[1] for line in per_order] == ["n=4", "n=5", "n=6"]
    assert all(line.endswith("(failed=False)") for line in per_order)
    assert calls == [4, 5, 6]  # once each: the debug line reuses the verdict


def test_a_serial_run_imports_no_process_pool(tmp_path):
    code = (
        "import sys; from spg.cli import main; "
        "main(['verify', '--range', '4..5', '--out', sys.argv[1]]); "
        "print('concurrent.futures' in sys.modules)"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(verify.__file__)))
    child = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path / "report.json")],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
    )
    assert child.stdout.split() == ["False"]


def test_a_serial_run_never_asks_for_the_cpu_count(monkeypatch):
    def refuse():
        raise AssertionError("a serial run read the CPU count")

    monkeypatch.setattr(os, "cpu_count", refuse)
    report = verify_range(2, 5)
    assert [r.n for r in report.records] == [2, 3, 4, 5]
    assert report.failures == []
