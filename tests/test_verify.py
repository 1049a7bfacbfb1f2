"""The verify sweep's checks: factor lists compared on a coprime basis,
never expanded, and able to fail, and the graph's connectivity against the
paper's."""

import json
import logging
import os
import subprocess
import sys

import pytest

from spg import exactalg, verify
from spg.cli import main
from spg.exactalg import IntPolynomial
from spg.graphs import DisconnectedGraph
from spg.groups import is_composite
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


@pytest.mark.parametrize("shift", [-1, 1])
@pytest.mark.parametrize("coefficient", [0, 1, 2])
@pytest.mark.parametrize("cubic", ["distance_cubic", "adjacency_cubic"])
def test_each_cubic_coefficient_moved_by_one_fails(monkeypatch, cubic, coefficient, shift):
    # a distance mutant fails every composite order, the only ones with a
    # distance form; an adjacency mutant fails every order, since at a
    # prime the corollary is checked against the general cubic's list too
    right = getattr(exactalg, cubic)

    def mutant(n):
        coeffs = list(right(n).coeffs)
        coeffs[coefficient] += shift
        return IntPolynomial(coeffs)

    monkeypatch.setattr(exactalg, cubic, mutant)
    orders = range(2, 41)
    expected = [n for n in orders if cubic == "adjacency_cubic" or is_composite(n)]
    assert verify_range(2, 40).failures == expected


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
