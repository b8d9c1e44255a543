"""Every library name that the benchmark in perfbench/ reaches still resolves.

perfbench reaches into mllrc by name from outside the package: the tracer
wraps the functions it spans and counts, micro.py imports the inputs of its
microbenchmarks, and the child process calls ``cli.run``,
``certify.check_dominance`` and ``linear_code.resolve_budget()``.  A name
that a change deletes or renames in src/mllrc but that perfbench still uses
breaks the benchmark, not the package, so it is checked here.
"""

import ast
import importlib
from pathlib import Path

import pytest

_PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(_PERFBENCH))


def test_tracer_resolves_and_patches_every_traced_name(perfbench):
    tracer = importlib.import_module("tracer")
    traced = tracer.Tracer()  # a missing module, function or method raises here
    names = [a for table in (tracer.SPANNED, tracer.COUNTED) for attrs in table.values()
             for a in attrs]
    wrappers = {id(wrapper) for _, _, _, wrapper in traced._patches}
    assert len(wrappers) == len(names)  # each name is held somewhere, so it gets traced


def test_micro_imports_resolve(perfbench):
    tree = ast.parse((_PERFBENCH / "micro.py").read_text())
    imports = [(node.module, alias.name) for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module.startswith("mllrc")
               for alias in node.names]
    assert imports
    for module, name in imports:
        assert hasattr(importlib.import_module(module), name), (module, name)
    bounds = importlib.import_module("mllrc.bounds")
    assert bounds.KOptOracle.analytic_only().mode == "analytic"


def test_child_entry_points_resolve():
    assert callable(importlib.import_module("mllrc.cli").run)
    assert callable(importlib.import_module("mllrc.certify").check_dominance)
    linear_code = importlib.import_module("mllrc.linear_code")
    assert linear_code.resolve_budget() == linear_code.DEFAULT_BUDGET
