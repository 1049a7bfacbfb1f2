"""CLI subcommands, exit codes, and report round-tripping."""

import json

import pytest

from spg import verify
from spg.cli import main, parse_group_spec, GroupSpecParseError
from spg.groups import CyclicGroup, DihedralGroup, DirectProductGroup
from spg.verify import VerificationRecord, VerificationReport, verify_range

from conftest import s3_table


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_group_spec():
    assert isinstance(parse_group_spec("cyclic:4"), CyclicGroup)
    assert isinstance(parse_group_spec("dihedral:3"), DihedralGroup)
    product = parse_group_spec("product:2,3,4")
    assert isinstance(product, DirectProductGroup) and product.order == 24
    for bad in ("cyclic:0", "cyclic:", "cyclic", "foo:1", "product:", "product:2,x"):
        with pytest.raises(GroupSpecParseError):
            parse_group_spec(bad)


def test_build_dot(capsys):
    code, out, _ = run_cli(capsys, ["build", "--group", "cyclic:4", "--format", "dot"])
    assert code == 0
    assert out.count(" -- ") == 4


def test_build_json_complete_graph(capsys):
    code, out, _ = run_cli(capsys, ["build", "--group", "product:2,2"])
    doc = json.loads(out)
    assert code == 0
    assert doc["n"] == 4
    assert len(doc["edges"]) == 6


def test_build_json_is_compact_and_other_documents_are_not(capsys):
    code, out, _ = run_cli(capsys, ["build", "--group", "cyclic:6"])
    assert code == 0
    assert out == json.dumps(json.loads(out), separators=(",", ":"), sort_keys=True) + "\n"
    code, out, _ = run_cli(capsys, ["charpoly", "--group", "cyclic:6", "--matrix", "distance"])
    assert code == 0
    assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"


def test_build_csv(capsys):
    code, out, _ = run_cli(capsys, ["build", "--group", "cyclic:2", "--format", "csv"])
    assert code == 0
    assert out == "0,0\n0,0\n"


def test_build_rejects_bad_spec(capsys):
    code, _, err = run_cli(capsys, ["build", "--group", "cyclic:0"])
    assert code == 2
    assert "error" in err


def test_charpoly_distance_z4(capsys):
    code, out, _ = run_cli(
        capsys, ["charpoly", "--group", "cyclic:4", "--matrix", "distance"]
    )
    doc = json.loads(out)
    assert code == 0
    assert doc["charpoly"] == ["-7", "-18", "-12", "0", "1"]
    assert doc["closed_form"] == doc["charpoly"]
    assert doc["match"] is True


def test_charpoly_adjacency_z5(capsys):
    code, out, _ = run_cli(
        capsys, ["charpoly", "--group", "cyclic:5", "--matrix", "adjacency"]
    )
    doc = json.loads(out)
    assert code == 0
    # x(x+1)^3(x-3) expanded, ascending coefficients
    assert doc["charpoly"] == ["0", "-3", "-8", "-6", "0", "1"]
    assert doc["match"] is True


def test_charpoly_distance_prime_is_inapplicable(capsys):
    code, _, err = run_cli(
        capsys, ["charpoly", "--group", "cyclic:5", "--matrix", "distance"]
    )
    assert code == 3
    assert "inapplicable" in err


def test_charpoly_noncyclic_has_no_closed_form(capsys):
    code, out, _ = run_cli(
        capsys, ["charpoly", "--group", "dihedral:3", "--matrix", "adjacency"]
    )
    doc = json.loads(out)
    assert code == 0
    assert doc["closed_form"] is None and doc["match"] is None


def test_spectrum_distance_z4(capsys):
    code, out, _ = run_cli(
        capsys, ["spectrum", "--group", "cyclic:4", "--matrix", "distance"]
    )
    doc = json.loads(out)
    assert code == 0
    assert doc["comparison"]["max_abs_deviation"] <= 1e-8
    assert doc["comparison"]["multiplicity_match"] is True
    assert doc["comparison"]["within_tol"] is True
    assert doc["theta_radians"] == pytest.approx(0.750436850442, abs=1e-9)


def test_spectrum_dihedral_adjacency(capsys):
    code, out, _ = run_cli(
        capsys, ["spectrum", "--group", "dihedral:3", "--matrix", "adjacency"]
    )
    doc = json.loads(out)
    assert code == 0
    assert doc["eigenvalues"] == [
        {"value": 5.0, "multiplicity": 1},
        {"value": -1.0, "multiplicity": 5},
    ]
    assert doc["source"] == "adjacency-complete"


def test_spectrum_cayley_file(capsys, tmp_path):
    path = tmp_path / "s3.json"
    path.write_text(json.dumps({"order": 6, "table": s3_table()}))
    code, out, _ = run_cli(
        capsys, ["spectrum", "--group", f"cayley:{path}", "--matrix", "adjacency"]
    )
    doc = json.loads(out)
    assert code == 0
    assert doc["eigenvalues"] == [
        {"value": 5.0, "multiplicity": 1},
        {"value": -1.0, "multiplicity": 5},
    ]


def test_cayley_file_errors_are_usage_errors(capsys, tmp_path):
    code, _, err = run_cli(
        capsys, ["spectrum", "--group", "cayley:/nonexistent.json", "--matrix", "adjacency"]
    )
    assert code == 2
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"order": 2, "table": [[0, 0], [1, 0]]}))
    code, _, err = run_cli(capsys, ["spectrum", "--group", f"cayley:{bad}"])
    assert code == 2
    assert "Latin" in err


def test_max_order_refuses_larger_groups(capsys, tmp_path):
    table = tmp_path / "z12.json"
    table.write_text(json.dumps({"order": 12, "table": CyclicGroup(12).cayley_table()}))
    refused = [
        ["build", "--group", "cyclic:11"],
        ["build", "--group", "product:3,4", "--format", "csv"],
        ["charpoly", "--group", "dihedral:6"],
        ["spectrum", "--group", f"cayley:{table}"],
        ["verify", "--range", "2..11"],
    ]
    for argv in refused:
        code, out, err = run_cli(capsys, argv + ["--max-order", "10"])
        assert code == 2, argv
        assert out == ""
        assert err.startswith("spg: error:") and "--max-order 10" in err, argv
    for argv in (["build", "--group", "cyclic:10"], ["verify", "--range", "2..10"]):
        code, _, _ = run_cli(capsys, argv + ["--max-order", "10"])
        assert code == 0, argv


def test_max_order_is_checked_before_the_table_is_validated(capsys, tmp_path):
    bogus = tmp_path / "bogus.json"
    bogus.write_text(json.dumps({"order": 12, "table": [[0] * 12] * 12}))
    code, _, err = run_cli(capsys, ["build", "--group", f"cayley:{bogus}", "--max-order", "10"])
    assert code == 2
    assert "exceeds --max-order 10" in err and "Latin" not in err
    code, _, err = run_cli(capsys, ["build", "--group", f"cayley:{bogus}", "--max-order", "12"])
    assert code == 2
    assert "Latin" in err


def test_max_order_default(capsys):
    from spg.cli import DEFAULT_MAX_ORDER

    assert DEFAULT_MAX_ORDER == 2048
    # refused before anything of this size is built
    code, _, err = run_cli(capsys, ["build", "--group", "cyclic:2049"])
    assert code == 2
    assert "exceeds --max-order 2048" in err
    with pytest.raises(GroupSpecParseError, match="max-order"):
        parse_group_spec("product:8,8", max_order=63)
    assert parse_group_spec("product:8,8", max_order=64).order == 64


def test_max_order_must_be_positive(capsys):
    with pytest.raises(SystemExit) as info:
        main(["build", "--group", "cyclic:4", "--max-order", "0"])
    assert info.value.code == 2
    assert "positive integer" in capsys.readouterr().err


def test_verify_small_range(capsys):
    code, out, _ = run_cli(capsys, ["verify", "--range", "4..12"])
    doc = json.loads(out)
    assert code == 0
    assert doc["summary"]["failures"] == []
    assert [r["n"] for r in doc["records"]] == list(range(4, 13))
    for record in doc["records"]:
        if record["composite"]:
            assert record["charpoly_distance_match"] is True
            assert record["theta_distance"] is not None
        else:
            assert record["charpoly_distance_match"] is None
            assert record["theta_distance"] is None
        assert record["charpoly_adjacency_match"] is True
        assert record["theta_in_range"] is True


def test_verify_prime_edge_range(capsys):
    code, out, _ = run_cli(capsys, ["verify", "--range", "2..3"])
    doc = json.loads(out)
    assert code == 0
    assert doc["summary"]["failures"] == []


def test_verify_rejects_order_one(capsys):
    code, _, err = run_cli(capsys, ["verify", "--range", "1..1"])
    assert code == 2


def test_verify_rejects_malformed_range(capsys):
    code, _, _ = run_cli(capsys, ["verify", "--range", "4-12"])
    assert code == 2


def test_verify_out_file(capsys, tmp_path):
    path = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, ["verify", "--range", "4..6", "--out", str(path)])
    assert code == 0
    assert out == ""
    doc = json.loads(path.read_text())
    assert doc["summary"]["range"] == [4, 6]


def test_out_into_missing_directory_is_a_usage_error(capsys, tmp_path):
    path = tmp_path / "missing" / "x.json"
    code, out, err = run_cli(capsys, ["build", "--group", "cyclic:4", "--out", str(path)])
    assert code == 2
    assert out == ""
    assert err.startswith(f"spg: error: cannot write {path}: ")
    assert not path.exists()


def test_out_onto_a_directory_is_a_usage_error(capsys, tmp_path):
    code, _, err = run_cli(capsys, ["build", "--group", "cyclic:4", "--out", str(tmp_path)])
    assert code == 2
    assert err.startswith(f"spg: error: cannot write {tmp_path}: ")


def test_report_round_trip():
    report = verify_range(4, 8)
    document = json.loads(report.to_json())
    assert VerificationReport.from_document(document) == report


def _strip_elapsed(document):
    for record in document["records"]:
        record["elapsed_ms"] = 0
    document["summary"]["wall_time_ms"] = 0
    return document


def test_verify_is_deterministic():
    first = _strip_elapsed(verify_range(4, 10).to_document())
    second = _strip_elapsed(verify_range(4, 10).to_document())
    assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)


def test_verify_workers_do_not_change_content():
    serial = _strip_elapsed(verify_range(4, 10).to_document())
    parallel = _strip_elapsed(verify_range(4, 10, workers=2).to_document())
    assert json.dumps(serial, sort_keys=True) == json.dumps(parallel, sort_keys=True)


@pytest.mark.parametrize("cpus, expected", [(64, 3), (2, 2)])
def test_verify_workers_are_clamped(monkeypatch, cpus, expected):
    # a stand-in pool records the size asked for and runs the tasks in process
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(verify, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(verify.os, "cpu_count", lambda: cpus)
    report = verify_range(2, 4, workers=8)
    assert sizes == [expected]
    assert [r.n for r in report.records] == [2, 3, 4]


def test_record_failure_predicate():
    record = VerificationRecord(
        n=6,
        composite=True,
        charpoly_distance_match=True,
        charpoly_adjacency_match=True,
        spectrum_distance_max_dev=1e-12,
        spectrum_adjacency_max_dev=1e-12,
        spectrum_distance_mult_match=True,
        spectrum_adjacency_mult_match=True,
        theta_distance=0.5,
        theta_adjacency=0.9,
        theta_in_range=True,
        elapsed_ms=1,
    )
    assert not record.failed(1e-8)
    flagged = VerificationRecord(**{**record.__dict__, "theta_in_range": False})
    assert flagged.failed(1e-8)
    drifted = VerificationRecord(**{**record.__dict__, "spectrum_distance_max_dev": 1e-3})
    assert drifted.failed(1e-8)
