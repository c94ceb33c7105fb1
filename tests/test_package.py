"""The package's lazy exports, and the library modules each CLI command loads."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import charvar
from charvar.groups import sample_tuple, sl, su, tuple_to_json
from charvar.invariants import invariant_record

SRC = Path(charvar.__file__).resolve().parents[1]


def test_every_export_is_its_home_modules_object():
    assert len(charvar.__all__) == len(set(charvar.__all__)) == 87
    for module, names in charvar._EXPORTS.items():
        home = importlib.import_module(f"charvar.{module}")
        for name in names:
            assert getattr(charvar, name) is getattr(home, name)


def test_dir_and_star_import_give_every_export():
    assert set(charvar.__all__) <= set(dir(charvar))
    namespace = {}
    exec("from charvar import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(charvar.__all__)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'nosuch'"):
        charvar.nosuch
    with pytest.raises(ImportError):
        exec("from charvar import nosuch", {})


# --- modules loaded by `python -m charvar <cmd>` ------------------------------


def loaded_modules(argv, cwd):
    """(exit code, the charvar submodules imported) of one fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", *argv], cwd=cwd, env=env, capture_output=True, text=True, timeout=120
    )
    names = {ln.rsplit("|", 1)[1].strip() for ln in proc.stderr.splitlines() if ln.startswith("import time:")}
    return proc.returncode, {n.removeprefix("charvar.") for n in names if n.startswith("charvar.")}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli")
    rng = np.random.default_rng(0)
    su22, sl22 = sample_tuple(su(2), 2, rng), sample_tuple(sl(2), 2, rng)
    for name, obj in (("su22", tuple_to_json(su22)), ("sl22", tuple_to_json(sl22)), ("rec22", invariant_record(su22))):
        (d / f"{name}.json").write_text(json.dumps(obj))
    return d


PARSER = {"cli", "groups", "linalg"}
FLOW = {"kempfness", "invariants", "retraction"}
LIFT = {"reconstruct", "invariants", "semialgebraic"}
EVERY = PARSER | FLOW | LIFT | {"poincare", "verify"}


@pytest.mark.parametrize(
    "argv, modules",
    [
        (["sample", "--group", "SU", "--n", "2", "--r", "2"], set()),
        (["invariants", "--input", "su22.json"], {"invariants"}),
        (["trace", "--word", "x1 x2", "--input", "su22.json"], {"invariants"}),
        (["retract", "--t", "0.5", "--input", "sl22.json"], {"retraction"}),
        (["flow", "--input", "sl22.json"], FLOW),
        (["composite", "--t", "0.5", "--input", "sl22.json"], FLOW),
        (["lift", "--input", "rec22.json"], LIFT),
        (["conjugacy", "--a", "su22.json", "--b", "su22.json"], LIFT),
        (["membership", "--input", "su22.json"], {"invariants", "semialgebraic"}),
        (["region", "--name", "su3-alcove", "--resolution", "16"], {"invariants", "semialgebraic"}),
        (["poincare", "--r", "2"], {"poincare"}),
        (["verify", "fricke", "--samples", "1"], EVERY),
    ],
    ids=lambda v: v[0] if isinstance(v, list) else None,
)
def test_command_loads_only_its_modules(inputs, argv, modules):
    code, loaded = loaded_modules(["-m", "charvar", *argv], inputs)
    assert code == 0 and loaded == PARSER | modules


def test_import_charvar_loads_no_submodule(tmp_path):
    assert loaded_modules(["-c", "import charvar"], tmp_path) == (0, set())

