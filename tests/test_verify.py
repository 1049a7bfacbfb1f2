"""The verify sweep's charpoly check: factor lists compared on a coprime
basis, never expanded, and able to fail."""

import json
import logging
import os
import subprocess
import sys

from spg import exactalg, verify
from spg.cli import main
from spg.exactalg import IntPolynomial
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
        record = verify._verify_single((n, 1e-8))
        assert not record.failed(1e-8), n
        assert record.charpoly_adjacency_match is True, n
        assert record.charpoly_distance_match is (True if is_composite(n) else None), n


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
        expected = False if record.composite else None
        assert record.charpoly_distance_match is expected, record.n
        assert record.charpoly_adjacency_match is True, record.n
        assert record.spectrum_adjacency_max_dev <= 1e-8, record.n
        if record.composite:
            assert record.spectrum_distance_max_dev > 1e-8, record.n


def test_a_wrong_distance_cubic_makes_the_cli_exit_one(monkeypatch, capsys):
    assert main(["verify", "--range", "4..20"]) == 0
    capsys.readouterr()
    _off_by_one(monkeypatch)
    assert main(["verify", "--range", "4..20"]) == 1
    failures = json.loads(capsys.readouterr().out)["summary"]["failures"]
    assert failures == [n for n in range(4, 21) if is_composite(n)]


def test_verify_computes_each_matrix_factors_once(monkeypatch):
    # the prime order's adjacency factors serve both of its comparisons
    factors = exactalg.charpoly_factors
    seen = []
    monkeypatch.setattr(verify, "charpoly_factors", lambda m: seen.append(m.n) or factors(m))
    for n, calls in ((7, [7]), (12, [12, 12])):
        seen.clear()
        assert not verify._verify_single((n, 1e-8)).failed(1e-8)
        assert seen == calls, n


def _count_failed_calls(monkeypatch):
    calls = []
    failed = verify.VerificationRecord.failed

    def counting(self, tol):
        calls.append(self.n)
        return failed(self, tol)

    monkeypatch.setattr(verify.VerificationRecord, "failed", counting)
    return calls


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
    assert calls == [4, 5, 6, 4, 5, 6]


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
