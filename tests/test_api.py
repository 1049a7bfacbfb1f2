"""The exported names: every module's __all__ and the package namespace."""

import ast
import importlib
import inspect

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
