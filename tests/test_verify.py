import numpy as np
import pytest

import charvar.groups
import charvar.verify
from charvar.groups import RepTuple, hermitian_from_normals, sl, sl_from_normals, su
from charvar.kempfness import kn_flow, kn_functional, moment_residual
from charvar.linalg import exp_herm, haar_from_normals, haar_su, stack_matmul
from charvar.verify import SIZED, SUITES, random_sl3, run_suite


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
def test_reports_hold_plain_python_values(monkeypatch, name):
    rep = run_suite(name, samples=None if name in SIZED else 30, seed=3)
    assert rep["passed"] is True and rep["suite"] == name
    assert set(rep) == {"suite", "passed", "elapsed_s", "seed", "checks"} | {SIZED.get(name, "samples")} - {None}
    _walk(rep, name)

    # samples=None hands the suite the default that SUITES pairs it with.
    seen = []

    def record(samples, rng):
        seen.append(samples)
        return True, {}, {}

    default = SUITES[name][1]
    monkeypatch.setitem(SUITES, name, (record, default))
    run_suite(name)
    assert seen == [default]


@pytest.mark.parametrize("name", sorted(SUITES))
def test_empty_runs_are_rejected(name):
    for samples in (0, -1):
        with pytest.raises(ValueError, match="at least 1"):
            run_suite(name, samples=samples)
    assert run_suite(name, samples=1)["passed"]  # the smallest run, as the benchmark warms up


def _validate_counts(monkeypatch, name, sizes):
    """groups.validate calls made by run_suite(name) at each sample count."""
    calls = []
    real = charvar.groups.validate

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(charvar.groups, "validate", counting)
    counts = []
    for samples in sizes:
        calls.clear()
        assert run_suite(name, samples=samples, seed=5)["passed"]
        counts.append(len(calls))
    return counts


@pytest.mark.parametrize("name", ["two-sheet", "sigma-ball"])
def test_stacked_suites_validate_once_per_stack(monkeypatch, name):
    # The suites validate whole stacks, so the count does not grow with samples.
    counts = _validate_counts(monkeypatch, name, (30, 300))
    assert counts[0] == counts[1] > 0


def test_kempf_ness_validates_each_flow_stack_once(monkeypatch):
    # 10 flows, then 30: one check per n, not one tuple per flow.
    counts = _validate_counts(monkeypatch, "kempf-ness", (1000, 3000))
    assert counts[0] == counts[1] > 0


def _one_sl3(rng):
    """One matrix at a time, redrawing on |det| <= 1e-6: the stream random_sl3 keeps."""
    while True:
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        d = np.linalg.det(a)
        if abs(d) > 1e-6:
            return a / d ** (1.0 / 3.0)


class _SingularFirst:
    """Generator stand-in whose first 18 normals are 0, so the first draw is rejected."""

    def __init__(self, seed):
        self.rng, self.zeroed = np.random.default_rng(seed), 18

    def standard_normal(self, shape):
        z = self.rng.standard_normal(shape)
        k = min(self.zeroed, z.size)
        z.reshape(-1)[:k] = 0.0
        self.zeroed -= k
        return z


class _CountingNormals:
    """Generator stand-in that counts its standard_normal calls."""

    def __init__(self, seed):
        self.rng, self.calls = np.random.default_rng(seed), 0

    def standard_normal(self, shape):
        self.calls += 1
        return self.rng.standard_normal(shape)

    def __getattr__(self, name):
        return getattr(self.rng, name)


@pytest.mark.parametrize("name", ["retraction", "kempf-ness"])
def test_stacked_suites_draw_once_per_stack(name):
    # The SL pairs, conjugators and Kempf-Ness residual samples are one block
    # each, so the number of normal draws does not grow with samples.
    counts = []
    for samples in (30, 300):
        rng = _CountingNormals(5)
        assert SUITES[name][0](samples, rng)[0]
        counts.append(rng.calls)
    assert counts[0] == counts[1] > 0


def test_retraction_takes_one_svd_per_stack(monkeypatch):
    # Per n, the SL pairs, their conjugates and the fixed SU pairs are three
    # stacks, and every t of a stack's path shares its one SVD: 6 calls, not
    # one per stack and t (30).
    shapes = []
    svd = np.linalg.svd

    def counting(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    assert SUITES["retraction"][0](30, np.random.default_rng(5))[0]
    assert shapes == [(30, 2, 2, 2), (30, 2, 2, 2), (20, 2, 2, 2), (30, 2, 3, 3), (30, 2, 3, 3), (20, 2, 3, 3)]


@pytest.mark.parametrize("samples", [1, 2, 7])
def test_retraction_draws_the_per_sample_stream(samples):
    # Per n: each sample's SL pair (Haar, then Hermitian, per matrix) and its
    # conjugator, then the 40 Haar matrices of the fixed-point check.
    rng1, rng2 = np.random.default_rng(samples), np.random.default_rng(samples)
    assert SUITES["retraction"][0](samples, rng1)[0]
    for n in (2, 3):
        for _ in range(samples):
            for _ in range(2):
                haar_su(n, rng2)
                hermitian_from_normals(rng2.standard_normal((2, n, n)))
            haar_su(n, rng2)
        haar_su(n, rng2, 40)
    assert rng1.standard_normal(3).tolist() == rng2.standard_normal(3).tolist()


@pytest.mark.parametrize("samples", [1, 7, 200])
def test_kempf_ness_draws_the_per_sample_stream(samples):
    # The suite's blocks, replayed one sample at a time through the one-tuple
    # API: per case the Haar residual tuples; per n the 50 finite-difference
    # SL pairs, then their directions; per n the flows' g, then their Haar pairs.
    rng1, rng2 = np.random.default_rng(samples), np.random.default_rng(samples)
    passed, checks, _ = SUITES["kempf-ness"][0](samples, rng1)
    assert passed
    worst_res = 0.0
    for j, (n, r) in enumerate(((2, 2), (2, 3), (3, 2))):
        for z in rng2.standard_normal((len(range(j, samples, 3)), r, 2, n, n)):
            worst_res = max(worst_res, moment_residual(RepTuple(su(n), haar_from_normals(z))).norm)
    assert checks["max_unitary_residual"] == worst_res
    h = 1e-5
    worst_fd = 0.0
    for n in (2, 3):
        pairs, directions = rng2.standard_normal((50, 2, 2, 2, n, n)), rng2.standard_normal((50, 2, n, n))
        for z, w in zip(pairs, directions):
            x, H = sl_from_normals(z), hermitian_from_normals(w)
            e_plus, e_minus = exp_herm(H, h), exp_herm(H, -h)
            p_fwd = kn_functional(RepTuple(sl(n), stack_matmul(stack_matmul(e_plus, x), e_minus)))
            p_bwd = kn_functional(RepTuple(sl(n), stack_matmul(stack_matmul(e_minus, x), e_plus)))
            exact = 2.0 * np.trace(H @ moment_residual(RepTuple(sl(n), x)).M).real
            worst_fd = max(worst_fd, float(abs((p_fwd - p_bwd) / (2.0 * h) - exact) / max(abs(exact), 1e-12)))
    assert checks["max_fd_relative_error"] == worst_fd
    worst_p = 0.0
    for j, n in enumerate((2, 3)):
        count = len(range(j, checks["flows"], 2))
        gs, ks = rng2.standard_normal((count, 2, 2, n, n)), rng2.standard_normal((count, 2, 2, n, n))
        for zg, zk in zip(gs, ks):
            g = sl_from_normals(zg)
            x = stack_matmul(stack_matmul(g, haar_from_normals(zk)), np.linalg.inv(g))
            _, trace = kn_flow(RepTuple(sl(n), x))
            assert trace.converged
            worst_p = max(worst_p, abs(trace.steps[-1].p - 2 * n))
    assert checks["max_functional_gap"] == worst_p
    assert rng1.standard_normal(3).tolist() == rng2.standard_normal(3).tolist()


@pytest.mark.parametrize("make", [np.random.default_rng, _SingularFirst])
def test_random_sl3_is_the_one_at_a_time_stream(make):
    r1, r2 = make(7), make(7)
    ref = np.array([_one_sl3(r1) for _ in range(200)])
    assert np.array_equal(random_sl3(200, r2), ref)
    assert np.array_equal(r1.standard_normal(2), r2.standard_normal(2))  # same generator state after


@pytest.mark.parametrize("seed", [0, 101, 104, 109])
def test_minors_suite_draws_reject_nothing(seed):
    z = np.random.default_rng(seed).standard_normal((SUITES["minors"][1], 2, 3, 3))
    assert np.all(np.abs(np.linalg.det(z[:, 0] + 1j * z[:, 1])) > 1e-6)
