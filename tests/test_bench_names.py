"""The charvar names that the benchmark in ``bench/`` uses must exist.

The bench files are only read here, as source: the traced layers of
``bench/tracer.py`` and every ``cv.<name>`` attribute of the workloads and
their checks.  Deleting or renaming one of these names would crash the
traced runs or a workload, so the deletion waits for a benchmark change.
"""

import ast
import importlib
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _resolves(module, name):
    if hasattr(importlib.import_module(module), name):
        return True
    try:  # a submodule, as ``import charvar.verify`` binds it
        importlib.import_module(f"{module}.{name}")
        return True
    except ModuleNotFoundError:
        return False


def test_tracer_layers_resolve():
    tree = ast.parse((BENCH / "tracer.py").read_text())
    [layers] = [
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["LAYERS"]
    ]
    names = [f"charvar.{layer}.{name}" for layer, fns in layers.items() for name in fns]
    assert names
    assert [n for n in names if not _resolves(*n.rsplit(".", 1))] == []


def test_cv_attributes_resolve():
    names = set()
    for file in ("workloads.py", "checks.py", "test_checks.py"):
        for node in ast.walk(ast.parse((BENCH / file).read_text())):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "cv":
                names.add(node.attr)
    assert names
    assert sorted(n for n in names if not _resolves("charvar", n)) == []
