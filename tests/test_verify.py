import numpy as np
import pytest

from charvar.verify import SUITES, run_suite

FIXED = ("su3-example", "baird", "figures")  # these take sizes, not sample counts


def _walk(value, path):
    assert not isinstance(value, (np.generic, np.ndarray)), f"{path} is {type(value).__name__}"
    if isinstance(value, dict):
        for k, v in value.items():
            _walk(k, f"{path} key {k!r}")
            _walk(v, f"{path}[{k!r}]")
    elif isinstance(value, (list, tuple)):
        for i, v in enumerate(value):
            _walk(v, f"{path}[{i}]")


@pytest.mark.parametrize("name", sorted(SUITES))
def test_reports_hold_plain_python_values(name):
    rep = run_suite(name, samples=None if name in FIXED else 30, seed=3)
    assert rep["passed"] is True
    _walk(rep, name)
