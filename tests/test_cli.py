"""CLI subcommands, exit codes, and report round-tripping."""

import argparse
import concurrent.futures
import dataclasses
import io
import json
import math
import os
import random
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from spg import cli, exactalg, verify
from spg.cli import main, parse_group_spec, GroupSpecParseError
from spg.graphs import strong_power_graph
from spg.groups import CyclicGroup, DihedralGroup, DirectProductGroup, is_composite, load_cayley_table
from spg.verify import Check, VerificationRecord, verify_range

from conftest import label, quaternion_table, reference_to_dot, reference_to_json, s3_table


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


def _reference_build(spec, group, fmt):
    graph = strong_power_graph(group)
    if fmt == "dot":
        return reference_to_dot(graph, [label(group, v) for v in range(graph.n)])
    if fmt == "json":
        return reference_to_json(graph, spec)
    return "".join(",".join(map(str, row)) + "\n" for row in graph.adj.astype(int).tolist())


def test_build_output_is_the_per_edge_reference_text(capsys, tmp_path):
    # a relabelled D_24 table with labels holding '"' and '\', stored under a
    # file name with a quote and a non-ASCII character that json.dumps escapes
    rng = random.Random(7)
    base = DihedralGroup(12).cayley_table()
    perm = list(range(24))
    rng.shuffle(perm)
    table = [[0] * 24 for _ in range(24)]
    for a in range(24):
        for b in range(24):
            table[perm[a]][perm[b]] = perm[base[a][b]]
    document = {"order": 24, "table": table, "labels": [f'r"{k}\\' for k in range(24)]}
    path = tmp_path / 'ta"blé.json'
    path.write_text(json.dumps(document), encoding="utf-8")
    specs = [(f"cayley:{path}", load_cayley_table(document))]
    specs += [(f"cyclic:{n}", CyclicGroup(n)) for n in (1, 2, 256)]
    for spec, group in specs:
        for fmt in ("dot", "json", "csv"):
            code, out, _ = run_cli(capsys, ["build", "--group", spec, "--format", fmt])
            assert code == 0
            assert out == _reference_build(spec, group, fmt), (spec, fmt)


def test_build_memory_is_twice_the_text_and_the_adjacency():
    """The tracemalloc peak of a build of Z_1024 is about twice the text it
    returns: the rows' strings and their join.  Measured with numpy 2.4:
    DOT 15,748,799 bytes for 7,260,129 characters, JSON 11,460,313 bytes for
    5,145,772 characters.  Writing them from a list of every edge as tuples
    peaked at 97,300,689 (DOT) and 76,769,965 bytes (JSON)."""
    n = 1024
    for fmt in ("dot", "json"):
        args = argparse.Namespace(group=f"cyclic:{n}", format=fmt, max_order=n)
        tracemalloc.start()
        try:
            code, text = cli.cmd_build(args)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0
        # the n x n boolean adjacency outlives the build; the builder's own
        # peak (9.4 MB, see tests/test_graphs.py) is below twice the text
        assert peak <= 2.5 * len(text) + n * n, (fmt, peak, len(text))


def test_documents_are_written_in_slices(monkeypatch, tmp_path):
    # Z_512's DOT text is about 1.7 million characters: more than one slice,
    # on stdout and into --out alike, and the same text either way
    args = argparse.Namespace(group="cyclic:512", format="dot", max_order=512)
    text = cli.cmd_build(args)[1]
    assert len(text) > cli.WRITE_SLICE == 1 << 20
    sizes = []

    class Stdout(io.StringIO):
        def write(self, chunk):
            sizes.append(len(chunk))
            return super().write(chunk)

    stdout = Stdout()
    monkeypatch.setattr(sys, "stdout", stdout)
    assert main(["build", "--group", "cyclic:512", "--format", "dot"]) == 0
    assert stdout.getvalue() == text
    assert sizes == [cli.WRITE_SLICE, len(text) - cli.WRITE_SLICE], sizes

    def recording_open(*args, **kwargs):
        handle = open(*args, **kwargs)
        write = handle.write
        handle.write = lambda chunk: (sizes.append(len(chunk)), write(chunk))[1]
        return handle

    sizes.clear()
    path = tmp_path / "z512.dot"
    monkeypatch.setattr(cli, "open", recording_open, raising=False)
    assert main(["build", "--group", "cyclic:512", "--format", "dot", "--out", str(path)]) == 0
    assert path.read_text(encoding="utf-8") == text
    assert sizes == [cli.WRITE_SLICE, len(text) - cli.WRITE_SLICE], sizes


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


def test_disconnected_graph_message_stays_short(capsys):
    # Z_1009's graph is an isolated identity and 1008 other vertices; the
    # message names the two sizes and a few vertices, not all 1009
    code, out, err = run_cli(
        capsys, ["charpoly", "--group", "cyclic:1009", "--matrix", "distance"]
    )
    assert code == 3 and out == ""
    assert err.startswith("spg: inapplicable: graph is disconnected: 2 components: ")
    assert "size 1 [0]; size 1008 [1, 2, 3, 4, ...]" in err
    assert len(err.encode()) < 1024


def test_charpoly_noncyclic_matches_the_complete_graph(capsys, tmp_path):
    # K_n's (x-n+1)(x+1)^(n-1), the closed form of every noncyclic group,
    # for both matrices: they are the same J - I
    path = tmp_path / "q8.json"
    path.write_text(json.dumps({"order": 8, "table": quaternion_table()}))
    for spec, n in (("dihedral:3", 6), ("product:2,2", 4), (f"cayley:{path}", 8)):
        for matrix in ("adjacency", "distance"):
            code, out, _ = run_cli(capsys, ["charpoly", "--group", spec, "--matrix", matrix])
            doc = json.loads(out)
            assert code == 0
            assert doc["match"] is True, (spec, matrix)
            assert doc["closed_form"] == doc["charpoly"], (spec, matrix)
            assert doc["charpoly"][0] == str(1 - n), (spec, matrix)  # the product at x = 0


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


@pytest.mark.parametrize(
    "document",
    [
        {"order": True, "table": [[0]]},
        {"order": 2, "table": [5, [1, 0]]},
        {"order": 2, "table": [[0, 1], [1, 0]], "labels": ["e", 5]},
    ],
    ids=["bool-order", "row-not-a-list", "label-not-a-string"],
)
def test_malformed_cayley_documents_are_usage_errors(capsys, tmp_path, document):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(document))
    code, out, err = run_cli(capsys, ["build", "--group", f"cayley:{path}"])
    assert code == 2
    assert out == ""
    assert err.startswith("spg: error:") and "Traceback" not in err


def test_a_bad_entry_is_reported_before_a_later_short_row(capsys, tmp_path):
    # the file is read in order: row 0's entry 9 comes before row 3's length
    path = tmp_path / "bad.json"
    table = [[0, 9, 2, 3], [1, 2, 3, 0], [2, 3, 0, 1], [3, 0]]
    path.write_text(json.dumps({"order": 4, "table": table}))
    code, out, err = run_cli(capsys, ["build", "--group", f"cayley:{path}"])
    assert (code, out) == (2, "")
    assert err == (
        f"spg: error: bad group spec 'cayley:{path}': "
        "entry at row 0, col 1 is 9, expected 0..3\n"
    )


def test_deeply_nested_cayley_json_is_a_usage_error(capsys, tmp_path):
    # json.load gives up on this depth with RecursionError, not JSONDecodeError
    path = tmp_path / "deep.json"
    path.write_text("[" * 200000)
    code, out, err = run_cli(capsys, ["build", "--group", f"cayley:{path}"])
    assert code == 2
    assert out == ""
    assert err.startswith("spg: error: invalid JSON in ") and "Traceback" not in err


def _outputs(capsys, argvs):
    """(exit code, stdout, stderr) of each argv run in turn; a usage error
    that argparse reports by SystemExit counts as its exit code."""
    results = []
    for argv in argvs:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        out = captured.out
        if argv[0] == "verify":
            out = json.dumps(_strip_elapsed(json.loads(out)), sort_keys=True)
        results.append((code, out, captured.err))
    return results


def test_cached_parser_gives_the_outputs_of_a_fresh_parser(capsys):
    argvs = [
        ["build", "--group", "cyclic:6", "--format", "dot"],
        ["spectrum", "--group", "dihedral:4", "--matrix", "distance"],
        ["verify", "--range", "4..8"],
        ["spectrum", "--group", "cyclic:6", "--bogus"],
        ["build", "--group", "product:2,2"],
        ["charpoly", "--group", "cyclic:6", "--matrix", "distance"],
        ["verify", "--range", "4..6", "--tol", "1e-6"],
        ["build"],
    ]
    cached = _outputs(capsys, argvs * 2)
    fresh = []
    for argv in argvs * 2:
        cli._build_parser.cache_clear()
        fresh += _outputs(capsys, [argv])
    assert cached == fresh
    assert [code for code, _, _ in cached[: len(argvs)]] == [0, 0, 0, 2, 0, 0, 0, 2]
    parser = cli._build_parser()
    main(["build", "--group", "cyclic:3"])
    assert cli._build_parser() is parser


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


@pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
@pytest.mark.parametrize(
    "argv", [["spectrum", "--group", "cyclic:6"], ["verify", "--range", "4..5"]]
)
def test_tol_must_be_finite_and_nonnegative(capsys, argv, tol):
    with pytest.raises(SystemExit) as info:
        main(argv + [f"--tol={tol}"])
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"finite nonnegative number, got '{tol}'" in captured.err
    for zero in ("0", "-0"):
        tol = cli._build_parser().parse_args(argv + [f"--tol={zero}"]).tol
        assert tol == 0.0 and math.copysign(1.0, tol) == 1.0


def test_verify_small_range(capsys):
    code, out, _ = run_cli(capsys, ["verify", "--range", "4..12"])
    doc = json.loads(out)
    assert code == 0
    assert doc["summary"]["failures"] == []
    assert [r["n"] for r in doc["records"]] == list(range(4, 13))
    for record in doc["records"]:
        n = record["n"]
        assert record["group"] == f"cyclic:{n}"
        assert record["connectivity_match"] is True
        kinds = ["adjacency", "distance"] if is_composite(n) else ["adjacency"]
        assert [check["matrix"] for check in record["checks"]] == kinds
        for check in record["checks"]:
            assert check["charpoly_match"] is True
            assert check["multiplicity_match"] is True
            assert check["theta_in_range"] is True
            assert (check["theta"] is None) == (check["source"] == "adjacency-prime")


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


_RIGHT_DISTANCE_FORM = exactalg.distance_formula_factors


def _one_degree_too_many(n):
    (x_plus_one, k), cubic = _RIGHT_DISTANCE_FORM(n)
    return [(x_plus_one, k + 1), cubic]


def _a_non_real_cubic(n):
    return [(exactalg.IntPolynomial([1, 1]), n - 3), (exactalg.IntPolynomial([1, 0, 0, 1]), 1)]


def _a_quadratic(n):
    # (x+1)^(n-2) times x^2 - 3: the degree holds, but no quadratic has a place
    (x_plus_one, k), _ = _RIGHT_DISTANCE_FORM(n)
    return [(x_plus_one, k + 1), (exactalg.IntPolynomial([-3, 0, 1]), 1)]


def _a_quartic(n):
    # the right product, with one x + 1 multiplied into the cubic
    (x_plus_one, k), (cubic, _) = _RIGHT_DISTANCE_FORM(n)
    return [(x_plus_one, k - 1), (exactalg.poly_mul(x_plus_one, cubic), 1)]


def _a_negative_root(n):
    # (x+1)^(n-2) (x+5)^-1 times the cubic: degree n, the root -5 counted -1 times
    (x_plus_one, k), cubic = _RIGHT_DISTANCE_FORM(n)
    return [(x_plus_one, k + 1), (exactalg.IntPolynomial([5, 1]), -1), cubic]


@pytest.mark.parametrize("planted", [_a_quadratic, _a_quartic, _a_negative_root], ids=lambda f: f.__name__)
def test_a_closed_form_without_a_real_spectrum_fails_its_check(monkeypatch, capsys, planted):
    # spg reads roots from linear and cubic factors only, and a negative
    # net multiplicity is no spectrum: the check fails, with no traceback
    monkeypatch.setattr(exactalg, "distance_formula_factors", planted)
    assert verify_range(4, 12).failures == [n for n in range(4, 13) if is_composite(n)]
    code, out, err = run_cli(capsys, ["spectrum", "--group", "cyclic:6", "--matrix", "distance"])
    assert (code, out) == (1, "") and "Traceback" not in err
    assert err.startswith("spg: verification failed: ") and err.count("\n") == 1


def test_a_closed_form_that_does_not_divide_exactly_fails_charpoly(monkeypatch, capsys):
    # spg charpoly prints the closed form expanded, and (x+5) does not divide
    # the rest of the planted product: nothing to print, and no traceback
    monkeypatch.setattr(exactalg, "distance_formula_factors", _a_negative_root)
    code, out, err = run_cli(capsys, ["charpoly", "--group", "cyclic:6", "--matrix", "distance"])
    assert (code, out) == (1, "") and "Traceback" not in err
    assert err.startswith("spg: verification failed: (x + 5) does not divide ")
    assert err.count("\n") == 1


def test_a_charpoly_the_integer_stage_refuses_fails_charpoly(monkeypatch, capsys):
    monkeypatch.setattr(exactalg, "_integer_hessenberg", lambda h: 0)
    code, out, err = run_cli(capsys, ["charpoly", "--group", "cyclic:6"])
    assert (code, out) == (1, "") and "Traceback" not in err
    assert err.startswith("spg: verification failed: the integer stage stopped at column 0 of n = 6: ")
    assert err.count("\n") == 1


def test_a_closed_form_of_the_wrong_degree_fails_its_record(monkeypatch, capsys):
    # a distance form of degree n + 1: the spectra differ in length, which
    # is a failed check (exit 1), not a usage error (exit 2)
    monkeypatch.setattr(exactalg, "distance_formula_factors", _one_degree_too_many)
    code, out, err = run_cli(capsys, ["verify", "--range", "4..6"])
    assert code == 1 and err == ""
    document = json.loads(out)
    assert document["summary"]["failures"] == [4, 6]
    for record in document["records"]:
        for check in record["checks"]:
            wrong = check["matrix"] == "distance"
            assert (check["max_abs_deviation"] == math.inf) is wrong
            assert check["multiplicity_match"] is not wrong
            assert Check(**check).failed(1e-8) is wrong
            assert check["charpoly_match"] is not wrong


@pytest.mark.parametrize(
    "planted, command, expected",
    [
        (_one_degree_too_many, ["verify", "--range", "6..6"], 1),
        (_one_degree_too_many, ["spectrum", "--group", "cyclic:6", "--matrix", "distance"], 1),
        (_one_degree_too_many, ["charpoly", "--group", "cyclic:6", "--matrix", "distance"], 1),
        (_a_non_real_cubic, ["verify", "--range", "6..6"], 1),
        (_a_non_real_cubic, ["spectrum", "--group", "cyclic:6", "--matrix", "distance"], 1),
        (_a_non_real_cubic, ["charpoly", "--group", "cyclic:6", "--matrix", "distance"], 1),
    ],
    ids=lambda v: v.__name__ if callable(v) else v[0] if isinstance(v, list) else f"exit{v}",
)
def test_no_closed_form_failure_escapes_main(monkeypatch, capsys, planted, command, expected):
    # a wrong closed form is a failed comparison: exit 1, with a document
    # saying so wherever one is written, never a traceback
    monkeypatch.setattr(exactalg, "distance_formula_factors", planted)
    code, out, err = run_cli(capsys, command)
    assert code == expected and "Traceback" not in err
    if not out:  # spectrum has no closed eigenvalues to print
        assert code == 1 and err.startswith("spg: ") and err.count("\n") == 1
        return
    document = json.loads(out)
    assert err == ""
    if command[0] == "spectrum":
        assert document["comparison"]["within_tol"] is False
        assert document["comparison"]["max_abs_deviation"] == math.inf
    if command[0] == "charpoly":
        assert document["match"] is False


def test_a_non_real_closed_form_cubic_fails_its_check(monkeypatch):
    # (x+1)^(n-3) (x^3+1) has the right degree, but x^3 + 1 has two
    # non-real roots, so there is no closed spectrum to compare
    monkeypatch.setattr(exactalg, "distance_formula_factors", _a_non_real_cubic)
    adjacency, distance = verify._verify_single(6).checks
    assert not adjacency.failed(1e-8)
    assert (distance.matrix, distance.charpoly_match, distance.max_abs_deviation) == (
        "distance", False, math.inf
    )
    assert (distance.multiplicity_match, distance.theta, distance.theta_in_range) == (
        False, None, False
    )


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


def _build_into(stdout):
    """(exit code, stderr) of `spg build --group cyclic:30` run as a child
    process whose standard output is the given file or descriptor."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    done = subprocess.run(
        [sys.executable, "-m", "spg.cli", "build", "--group", "cyclic:30"],
        stdout=stdout,
        stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": src},
        text=True,
        timeout=60,
    )
    return done.returncode, done.stderr


def _assert_one_write_error(code, err):
    assert code == 2, err
    assert len(err.splitlines()) == 1, err
    assert err.startswith("spg: error: cannot write standard output: "), err
    assert "Traceback" not in err and "Exception ignored" not in err, err


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_a_full_standard_output_is_a_usage_error_without_a_traceback():
    with open("/dev/full", "w") as full:
        _assert_one_write_error(*_build_into(full))


def test_a_standard_output_pipe_with_no_reader_is_a_usage_error_without_a_traceback():
    # the read end is closed before the child starts, so its first write
    # fails whatever the size of the document
    read, write = os.pipe()
    os.close(read)
    try:
        code, err = _build_into(write)
    finally:
        os.close(write)
    _assert_one_write_error(code, err)
    assert "Broken pipe" in err, err


def test_a_substituted_standard_output_that_fails_is_a_usage_error(monkeypatch, capsys):
    class Failing(io.StringIO):
        def write(self, chunk):
            raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr(sys, "stdout", Failing())
    assert main(["build", "--group", "cyclic:4"]) == 2
    assert capsys.readouterr().err == "spg: error: cannot write standard output: [Errno 32] Broken pipe\n"


def test_report_json_is_the_asdict_text():
    # to_document copies each record and each check shallowly; the text
    # must be what dataclasses.asdict's deep, nested copy gives
    report = verify_range(2, 60)
    document = report.to_document()
    document["records"] = [dataclasses.asdict(r) for r in report.records]
    assert report.to_json() == json.dumps(document, indent=2, sort_keys=True)


@pytest.mark.parametrize("tol", [math.nan, math.inf, -1.0])
def test_verify_range_refuses_a_bad_tol(tol):
    # NaN would fail every order and write "tol": NaN, which is not JSON
    with pytest.raises(ValueError, match="finite nonnegative number"):
        verify_range(4, 5, tol=tol)


@pytest.mark.parametrize(
    "args, kwargs, name",
    [
        ((2, 3.0), {}, "n_max"),
        ((2.0, 3), {}, "n_min"),
        (("2", "3"), {}, "n_min"),
        ((2, 3), {"workers": 1.5}, "workers"),
        ((2, 3), {"workers": True}, "workers"),
        ((2, 3), {"tol": True}, "tol"),
        ((2, 3), {"tol": "1e-8"}, "tol"),
        ((np.int64(2), 3), {}, "n_min"),  # the report's JSON has no numpy ints
    ],
)
def test_verify_range_refuses_arguments_of_the_wrong_type(args, kwargs, name):
    # a bool is an int to Python, and would write "tol": true in the report
    with pytest.raises(ValueError, match=f"^{name} must be"):
        verify_range(*args, **kwargs)


def _strip_elapsed(document):
    for record in document["records"]:
        record["elapsed_ms"] = 0
    document["summary"]["wall_time_ms"] = 0
    return document


def test_verify_is_deterministic():
    first = _strip_elapsed(verify_range(4, 10).to_document())
    second = _strip_elapsed(verify_range(4, 10).to_document())
    assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)


@pytest.mark.parametrize("value", ["basic_format", "bogus"])
def test_spg_log_values_that_are_not_level_names_run_at_warning(capsys, monkeypatch, value):
    # BASIC_FORMAT is an attribute of logging but not a level name
    monkeypatch.delenv("SPG_LOG", raising=False)
    code, expected, err = run_cli(capsys, ["verify", "--range", "2..3"])
    assert (code, err) == (0, "")
    monkeypatch.setenv("SPG_LOG", value)
    code, out, err = run_cli(capsys, ["verify", "--range", "2..3"])
    assert code == 0
    assert err == (
        f"spg: warning: SPG_LOG='{value}' is not a log level; "
        "expected one of debug, info, warning, error, critical; using warning\n"
    )
    assert _strip_elapsed(json.loads(out)) == _strip_elapsed(json.loads(expected))


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

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(verify.os, "cpu_count", lambda: cpus)
    report = verify_range(2, 4, workers=8)
    assert sizes == [expected]
    assert [r.n for r in report.records] == [2, 3, 4]


def test_record_failure_predicate():
    adjacency = Check(
        matrix="adjacency",
        source="adjacency-cyclic-composite",
        charpoly_match=True,
        max_abs_deviation=1e-12,
        multiplicity_match=True,
        theta=0.9,
        theta_in_range=True,
    )
    distance = Check(**{**vars(adjacency), "matrix": "distance", "theta": 0.5})
    record = VerificationRecord(
        n=6, group="cyclic:6", connectivity_match=True, checks=[adjacency, distance], elapsed_ms=1
    )
    assert not record.failed(1e-8)
    for field, value in (
        ("theta_in_range", False),
        ("max_abs_deviation", 1e-3),
        ("max_abs_deviation", math.nan),
        ("charpoly_match", False),
        ("multiplicity_match", False),
    ):
        bad = Check(**{**vars(distance), field: value})
        assert VerificationRecord(**{**vars(record), "checks": [adjacency, bad]}).failed(1e-8), field
    assert VerificationRecord(**{**vars(record), "connectivity_match": False}).failed(1e-8)



# Runs argv[1:] as a child and prints its exit code and ru_maxrss (KiB).
_RSS_LAUNCHER = """
import os, subprocess, sys
child = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)
_, status, usage = os.wait4(child.pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB on Linux only")
def test_spectrum_at_order_2048_peaks_under_120_mib(tmp_path):
    """Whole-process peak RSS of `spg spectrum` on Z_2048's distance
    matrix, read from os.wait4, in a fresh interpreter with BLAS on one
    thread.  With int64 graph matrices and the oracle's rank-2 update made
    as one m x m product it peaked at 140.7 MiB; with int8/int16 matrices
    and one float64 array in the oracle, at 100.2 MiB (2-vCPU Xeon,
    numpy 2.4).

    Linux folds the peak RSS of the memory a process leaves at exec into
    its ru_maxrss, so a child started straight from the test process would
    report the test process's own peak.  A small launcher starts it."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    threads = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    out = tmp_path / "spectrum.json"
    argv = ["spectrum", "--group", "cyclic:2048", "--matrix", "distance", "--out", str(out)]
    launched = subprocess.run(
        [sys.executable, "-c", _RSS_LAUNCHER, sys.executable, "-m", "spg.cli", *argv],
        env={**os.environ, **threads, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
    )
    code, peak = map(int, launched.stdout.split())
    assert code == 0
    assert json.loads(out.read_text())["comparison"]["multiplicity_match"]
    assert peak < 120 * 1024, peak  # KiB
