"""Self-tests of the benchmark: tiny smoke runs, span arithmetic, generators.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def _run(args, cwd=ROOT, script=os.path.join(BENCH, "run.py")):
    return subprocess.run([sys.executable, script, *args], cwd=cwd, capture_output=True,
                          text=True, timeout=170)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_meets_the_output_contract(workload, trace):
    done = _run(["--workload", workload, "--seed", "5", "--seconds", "1",
                 "--trace", str(trace), "--size", "tiny"])
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    wanted = run.PER_LAYER if trace else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
    assert all(isinstance(v["value"], float) for v in result["metrics"].values())
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    if trace and workload != "sweep":
        assert result["metrics"]["exactalg.charpoly.calls"]["value"] == 0


def test_tiny_sweep_trace_sees_the_layers():
    done = _run(["--workload", "sweep", "--seed", "2", "--seconds", "1", "--trace", "1",
                 "--size", "tiny"])
    metrics = {k: v["value"] for k, v in json.loads(done.stdout.splitlines()[-1])["metrics"].items()}
    assert metrics["cli.main.calls"] == 11            # one call per order in 2..12
    assert metrics["verify.verify_range.self_s"] > 0
    # orders 2, 3, 5, 7, 11 are prime: their distance matrices raise DisconnectedGraph
    assert metrics["graphs.distance_matrix.raised"] == 5
    assert metrics["exactalg.charpoly.calls"] > 0
    shares = sum(metrics[f"{layer}.share"] for layer in tracing.LAYERS)
    assert 0.5 < shares <= 1.0 + 1e-9


def test_benchmark_json_matches_the_metrics_the_code_prints():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_run_fails_without_the_spg_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("_*", "tests"))
    done = _run(["--workload", "sweep", "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp_path, script=str(tmp_path / "perfbench" / "run.py"))
    assert done.returncode != 0
    assert done.stdout == ""


# --- span arithmetic -------------------------------------------------------------


def _span(key, start, end, parent=-1, raised=False):
    return [key, start, end, parent, 0, raised]


def test_union_length_merges_overlaps():
    assert tracing.union_length([]) == 0.0
    assert tracing.union_length([(0, 2), (1, 3), (5, 6), (5.5, 5.8)]) == pytest.approx(4.0)


def test_self_time_subtracts_only_direct_children():
    spans = [
        _span("cli.main", 0.0, 10.0),
        _span("verify.verify_range", 1.0, 9.0, parent=0),
        _span("exactalg.charpoly", 2.0, 5.0, parent=1),
        _span("spectra.symmetric_eigenvalues", 6.0, 8.0, parent=1),
    ]
    assert tracing.self_times(spans) == pytest.approx([2.0, 3.0, 3.0, 2.0])


def test_layer_metrics_per_pass():
    spans = [
        _span("cli.main", 0.0, 4.0),
        _span("graphs.distance_matrix", 1.0, 2.0, parent=0, raised=True),
        _span("cli.main", 5.0, 7.0),
        _span("graphs.distance_matrix", 5.5, 6.0, parent=2),
    ]
    m = tracing.layer_metrics(spans, traced_wall=8.0, passes=2)
    assert m["cli.calls"] == 1.0
    assert m["cli.s"] == pytest.approx(3.0)
    assert m["cli.self_s"] == pytest.approx(2.25)
    assert m["cli.share"] == pytest.approx(4.5 / 8.0)
    assert m["graphs.distance_matrix.raised"] == 0.5
    assert m["graphs.distance_matrix.p50_ms"] == pytest.approx(750.0)
    assert m["exactalg.charpoly.calls"] == 0 and m["exactalg.charpoly.p50_ms"] == 0.0


def test_tracer_wraps_every_binding_and_restores_it():
    import spg.cli
    import spg.exactalg
    import spg.verify

    original = spg.exactalg.charpoly
    with tracing.Tracer() as tracer:
        assert spg.cli.charpoly is spg.verify.charpoly is spg.exactalg.charpoly
        assert spg.cli.charpoly is not original
        spg.verify.verify_range(4, 4)
    assert spg.cli.charpoly is spg.verify.charpoly is spg.exactalg.charpoly is original
    keys = [span[0] for span in tracer.spans]
    assert keys[0] == "verify.verify_range" and keys.count("exactalg.charpoly") == 2
    assert all(span[tracing.PARENT] == 0 for span in tracer.spans[1:] if span[0] != "groups.is_cyclic")


def test_normalised_scales_each_latency_by_its_local_probe():
    probes = [0.002] * 8 + [0.004] * 8
    scaled = worker.normalised([1.0] * 16, probes, ref=0.002)
    assert scaled[0] == 1.0 and scaled[-1] == 0.5
    assert worker.normalised([3.0], [0.006], ref=0.002) == [1.0]


# --- generators and checks -------------------------------------------------------


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic_in_the_seed(workload, tmp_path):
    def materialise(seed, directory):
        directory.mkdir()
        wl = workloads.make_workload(workload, seed, "full")
        workloads.write_tables(wl, str(directory))
        files = {p.name: p.read_bytes() for p in sorted(directory.iterdir())}
        argv = [[a.replace(str(directory), "<dir>") for a in item.argv] for item in wl.items]
        return argv, [item.expect for item in wl.items], files

    first = materialise(7, tmp_path / "a")
    assert first == materialise(7, tmp_path / "b")
    assert first[0] != materialise(8, tmp_path / "c")[0]


@pytest.mark.parametrize("spec", ["cyclic:12", "product:4,6", "product:3,5", "dihedral:7", "dihedral:2"])
def test_group_tables_match_spg(spec):
    from spg.cli import parse_group_spec

    assert (workloads.group_table(spec) == np.array(parse_group_spec(spec).cayley_table())).all()


def test_expected_edges_match_the_strong_power_graph():
    from spg.cli import parse_group_spec
    from spg.graphs import strong_power_graph

    for spec, cyclic in [("cyclic:12", True), ("cyclic:13", True), ("product:3,5", True),
                         ("product:2,6", False), ("dihedral:5", False)]:
        group = parse_group_spec(spec)
        assert strong_power_graph(group).edge_count() == workloads.expected_edges(group.order, cyclic)


def test_checks_reject_wrong_outputs():
    item = workloads.Item(["build", "--group", "cayley:t.json", "--format", "json"],
                          {"n": 4, "edges": 6, "file": "t.json"})
    complete = [[u, v] for u in range(4) for v in range(u + 1, 4)]
    assert workloads.check_cayley(item, json.dumps({"n": 4, "edges": complete})) is None
    assert workloads.check_cayley(item, json.dumps({"n": 4, "edges": complete[:-1]}))
    assert workloads.check_cayley(item, json.dumps({"n": 4, "edges": complete[:-1] * 2}))
    sweep = workloads.Item(["verify", "--range", "6..6"], {"n": 6})
    report = {"records": [{"n": 6}], "summary": {"failures": [6]}}
    assert workloads.check_sweep(sweep, json.dumps(report))


def test_every_full_size_item_is_applicable():
    for seed in range(20):
        for item in workloads.make_workload("spectrum", seed).items:
            n = item.expect["n"]
            if item.argv[2].startswith("cyclic:"):
                assert workloads.is_composite(n)
            assert 100 <= n <= 250
