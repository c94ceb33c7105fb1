"""The charvar names that the benchmark in ``bench/`` uses must exist.

The bench files are only read here, as source: the traced layers of
``bench/tracer.py``, every ``cv.<name>`` attribute of the workloads and
their checks, and the arguments of every ``cv.<name>(...)`` call.  Deleting
or renaming one of these names, or changing a signature so that a call no
longer binds, would crash the traced runs or a workload, so such a change
waits for a benchmark change.
"""

import ast
import importlib
import inspect
from pathlib import Path

import charvar

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


def _cv_calls():
    """(where, name, positional count, keyword names) of every cv.<name>(...)
    call in bench/; the count is None where *args hides it."""
    for file in sorted(BENCH.glob("*.py")):
        for node in ast.walk(ast.parse(file.read_text())):
            f = getattr(node, "func", None)
            if isinstance(node, ast.Call) and isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name) and f.value.id == "cv":
                starred = any(isinstance(a, ast.Starred) for a in node.args)
                keys = [k.arg for k in node.keywords if k.arg is not None]
                yield f"{file.name}:{node.lineno}", f.attr, None if starred else len(node.args), keys


def test_cv_calls_bind():
    calls = list(_cv_calls())
    assert calls
    unbound = []
    for where, name, count, keys in calls:
        fn = getattr(charvar, name)
        if isinstance(fn, type) and issubclass(fn, BaseException):
            continue  # exceptions take any arguments
        sig = inspect.signature(fn)
        try:
            if count is None:
                sig.bind_partial(**dict.fromkeys(keys))
            else:
                sig.bind(*[None] * count, **dict.fromkeys(keys))
        except TypeError as err:
            unbound.append(f"{where} cv.{name}: {err}")
    assert unbound == []
