"""spg's outputs against the benchmark's own output checks.

perfbench/workloads.py judges every benchmark item's output with
check_sweep, check_spectrum and check_cayley (check_sweep reads
records[].n and summary.failures).  A document reshaped so that a check
refuses it would make every benchmark run fail its outputs.  The module is
loaded from its file as it stands, and its tiny workloads run through
spg.cli.main with --out, as the benchmark's worker runs them.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from spg.cli import main

WORKLOADS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


@pytest.fixture(scope="module")
def workloads():
    name = "perfbench_workloads"
    spec = importlib.util.spec_from_file_location(name, WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # its dataclasses look their module up by name
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[name]


@pytest.mark.parametrize("name", ["sweep", "spectrum", "cayley"])
def test_tiny_workload_outputs_pass_the_benchmark_checks(workloads, tmp_path, name):
    workload = workloads.make_workload(name, seed=1, size="tiny")
    workloads.write_tables(workload, str(tmp_path))
    check = workloads.CHECKS[name]
    assert workload.items
    for index, item in enumerate(workload.items):
        out = tmp_path / f"out{index}"
        assert main([*item.argv, "--out", str(out)]) == 0, item.argv
        assert check(item, out.read_text(encoding="utf-8")) is None, item.argv
