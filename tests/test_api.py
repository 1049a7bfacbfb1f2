"""The exported names: every module's __all__, the package namespace, and
README's Library example."""

import ast
import importlib
import inspect
import pathlib
import re

import pytest

import spg

MODULES = ["spg.exactalg", "spg.graphs", "spg.groups", "spg.spectra", "spg.verify"]


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_exists(name):
    module = importlib.import_module(name)
    exported = module.__all__
    assert len(set(exported)) == len(exported), name
    missing = [item for item in exported if not hasattr(module, item)]
    assert missing == [], name


def test_package_imports_only_exported_names():
    tree = ast.parse(inspect.getsource(spg))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        module = importlib.import_module(f"spg.{node.module}")
        for alias in node.names:
            assert alias.name in module.__all__, (node.module, alias.name)
            assert getattr(spg, alias.name) is getattr(module, alias.name)


def test_each_exported_exception_has_one_name():
    # an alias, such as an old name kept for a class renamed, would give one
    # refusal two names to catch
    names = {}
    for module in [spg] + [importlib.import_module(name) for name in MODULES]:
        for name in getattr(module, "__all__", dir(module)):
            value = getattr(module, name)
            if isinstance(value, type) and issubclass(value, BaseException):
                names.setdefault(value, set()).add(name)
    assert names
    assert {cls: found for cls, found in names.items() if len(found) > 1} == {}


def test_readme_library_block_runs():
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    library = readme.read_text(encoding="utf-8").split("## Library", 1)[1]
    block = re.search(r"```python\n(.*?)```", library, re.S).group(1)
    assert "charpoly_factors(" in block and "same_product(" in block
    exec(compile(block, "README.md", "exec"), {})


def test_every_name_perfbench_traces_exists():
    # perfbench's tracer looks each traced name up with no default, so a
    # function removed from spg would fail every traced run, and
    # perfbench/tests, which the default test run does not collect, calls
    # GroupSpec.cayley_table; the file is only read and compiled, never
    # imported or written
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    namespace = {"__name__": "tracing"}
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), namespace)
    missing = [
        f"{module}.{name}"
        for module, names in namespace["TRACED_FUNCTIONS"].values()
        for name in names
        if not callable(getattr(importlib.import_module(module), name, None))
    ]
    methods = [*namespace["TRACED_METHODS"].values(), ("spg.groups", "GroupSpec", "cayley_table")]
    missing += [
        f"{module}.{cls}.{method}"
        for module, cls, method in methods
        if not callable(getattr(getattr(importlib.import_module(module), cls, None), method, None))
    ]
    assert missing == []
