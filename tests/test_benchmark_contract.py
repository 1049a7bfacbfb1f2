"""spg's outputs against the benchmark's own output checks, and spg's
names against the benchmark's tracer.

perfbench/workloads.py judges every benchmark item's output with
check_sweep, check_spectrum and check_cayley (check_sweep reads
records[].n and summary.failures).  A document reshaped so that a check
refuses it would make every benchmark run fail its outputs.  The module is
loaded from its file as it stands, and its tiny workloads run through
spg.cli.main with --out, as the benchmark's worker runs them.
"""

import importlib
import importlib.util
import sys
from contextlib import contextmanager
from pathlib import Path

import pytest

from spg.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@contextmanager
def _loaded(filename):
    """perfbench's module of that file name, loaded from its file."""
    name = f"perfbench_{Path(filename).stem}"
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / filename)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # its dataclasses look their module up by name
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[name]


@pytest.fixture(scope="module")
def workloads():
    with _loaded("workloads.py") as module:
        yield module


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


def test_every_name_perfbench_traces_exists():
    # Tracer.__enter__ looks each traced name up with no default, so a
    # function or method deleted or renamed in spg would crash every
    # --trace 1 run
    with _loaded("tracing.py") as tracing:
        functions, methods = tracing.TRACED_FUNCTIONS, tracing.TRACED_METHODS
    assert functions and methods
    for key, (module_name, names) in functions.items():
        home = importlib.import_module(module_name)
        for name in names:
            assert callable(getattr(home, name, None)), (key, module_name, name)
    for key, (module_name, class_name, method) in methods.items():
        cls = getattr(importlib.import_module(module_name), class_name, None)
        assert callable(getattr(cls, method, None)), (key, module_name, class_name, method)
