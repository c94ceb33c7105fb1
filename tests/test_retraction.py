import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from charvar.groups import NotInGroup, RepTuple, conjugate_tuple, sample_tuple, sl, su, validate
from charvar.linalg import Singular, exp_herm, frob, haar_su, polar, psd_power, stack_matmul
from charvar.retraction import (
    NotDiagonal,
    abelian_retract,
    phi,
    phi_path,
    retract_path,
    retract_tuple,
    retraction_path,
)

TS = (0.0, 0.25, 0.5, 0.75, 1.0)


def test_phi_fixes_unitary():
    rng = np.random.default_rng(0)
    k = haar_su(3, rng)
    assert frob(phi(k, 0.37) - k) < 1e-12


def test_phi_endpoints():
    g = np.diag([2.0, 0.5]).astype(complex)
    assert frob(phi(g, 1.0) - np.eye(2)) < 1e-12
    assert frob(phi(g, 0.0) - g) == 0.0
    shear = np.array([[1, 1], [0, 1]], dtype=complex)
    expect = np.array([[2, 1], [-1, 2]]) / np.sqrt(5)
    assert frob(phi(shear, 1.0) - expect) < 1e-12


def test_phi_parameter_and_singular_errors():
    with pytest.raises(ValueError):
        phi(np.eye(2), 1.5)
    with pytest.raises(Singular):
        phi(np.zeros((2, 2)), 0.5)


def test_phi_singularity_is_scale_free():
    assert frob(phi(1e-4 * np.eye(3), 0.5) - 1e-2 * np.eye(3)) < 1e-15
    for t in (0.0, 0.5, 1.0):
        with pytest.raises(Singular):
            phi(1e-4 * np.diag([1.0, 1.0, 0.0]), t)


def test_phi_cross_route():
    # Same map three ways: SVD (production), g (g*g)^(-t/2), and k e^{(1-t)p}.
    rng = np.random.default_rng(1)
    for _ in range(20):
        g = sample_tuple(sl(3), 1, rng)[0]
        parts = polar(g)
        for t in TS:
            a = phi(g, t)
            gsg = g.conj().T @ g
            b = g @ psd_power((gsg + gsg.conj().T) / 2, -t / 2, tol=0.0)
            c = parts.k @ exp_herm(parts.p, 1.0 - t)
            assert frob(a - b) < 1e-9 * max(1.0, frob(g))
            assert frob(a - c) < 1e-9 * max(1.0, frob(g))


def test_retract_tuple_postconditions():
    rng = np.random.default_rng(2)
    ku = sample_tuple(su(2), 2, rng)
    for t in TS:
        out = retract_tuple(ku, t)
        assert max(frob(a - b) for a, b in zip(out.matrices, ku.matrices)) < 1e-12
    rho = sample_tuple(sl(3), 2, rng)
    one = retract_tuple(rho, 1.0)
    assert one.descriptor == su(3)
    assert validate(one.matrices, one.descriptor, 1e-10).all()


def test_equivariance():
    rng = np.random.default_rng(3)
    for _ in range(20):
        rho = sample_tuple(sl(2), 2, rng)
        k = haar_su(2, rng)
        for t in TS:
            lhs = retract_tuple(conjugate_tuple(k, rho), t)
            rhs = conjugate_tuple(k, retract_tuple(rho, t))
            assert max(frob(a - b) for a, b in zip(lhs.matrices, rhs.matrices)) < 1e-9


def test_stacked_retraction_equals_retract_tuple():
    rng = np.random.default_rng(12)
    for d in (sl(2), sl(3), su(2), su(3)):
        tuples = [sample_tuple(d, 2, rng) for _ in range(20)]
        x = np.array([rho.matrices for rho in tuples])
        for t in TS:
            got = retract_path(x, (t,))[0]
            for i, rho in enumerate(tuples):
                assert np.array_equal(got[i], retract_tuple(rho, t).matrices)


def test_retract_tuple_keeps_det_on_badly_conditioned_input():
    # A condition-number-1e8 SL(2) matrix that builds (|det - 1| = 7.8e-9);
    # its SVD puts phi_t's determinant off by more than GROUP_TOL unless
    # retract_tuple rescales it.
    rng = np.random.default_rng(1)
    for _ in range(83):
        k1, k2 = haar_su(2, rng), haar_su(2, rng)
    rho = RepTuple(sl(2), [(k1 * [1e4, 1e-4]) @ k2])
    for t in TS:
        out = retract_tuple(rho, t)  # NotInGroup for every t > 0 without the rescaling
        assert abs(np.linalg.det(out[0]) - 1.0) <= abs(np.linalg.det(rho[0]) - 1.0)
    assert out.descriptor == su(2)


def _stretched_pair(s):
    """The SL(2) pair (diag(s, 1/s), I): determinant 1, condition number s^2."""
    return RepTuple(sl(2), (np.diag([s, 1.0 / s]).astype(complex), np.eye(2, dtype=complex)))


def test_retract_tuple_takes_every_invertible_group_tuple():
    # s_min / s_max = 1e-10, below DEFAULT_TOL: still a valid, invertible SL(2) tuple.
    rho = _stretched_pair(1e5)
    half = retract_tuple(rho, 0.5)
    assert frob(half[0] - np.diag([np.sqrt(1e5), np.sqrt(1e-5)])) <= 1e-10
    assert frob(half[1] - np.eye(2)) == 0.0
    one = retract_tuple(rho, 1.0)
    assert one.descriptor == su(2)
    assert all(frob(m - np.eye(2)) < 1e-15 for m in one.matrices)
    path = retraction_path(rho, TS)
    assert path.samples[2][1] == retract_tuple(rho, 0.5) and path.samples[-1][1] == one


def test_retract_raises_singular_only_at_working_precision():
    rho = _stretched_pair(1e9)  # s_min / s_max = 1e-18 <= eps
    for t in (0.0, 0.5, 1.0):
        with pytest.raises(Singular):
            retract_tuple(rho, t)
        with pytest.raises(Singular):
            retract_path(rho.matrices, (t,))


def _conditioned_stack(n, r, log_cond, seed):
    """r matrices k1 diag(s) k2 with Haar k1, k2 and singular values s of
    product one, spread geometrically over the condition number 10^log_cond."""
    rng = np.random.default_rng(seed)
    s = 10.0 ** (log_cond * (0.5 - np.arange(n) / (n - 1)))
    return haar_su(n, rng, r) * s @ haar_su(n, rng, r)


stacks = st.builds(
    _conditioned_stack,
    n=st.integers(2, 6),
    r=st.integers(1, 4),
    log_cond=st.floats(0.0, 8.0),
    seed=st.integers(0, 2**32 - 1),
)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(x=stacks, t=st.floats(0.0, 1.0))
def test_stacked_phi_and_validate_equal_per_matrix(x, t):
    assert np.array_equal(phi(x, t), np.stack([phi(m, t) for m in x]))
    n = x.shape[-1]
    for d in (sl(n), su(n)):
        for tol in (1e-8, 1e-12):
            assert validate(x, d, tol).tolist() == [bool(validate(m, d, tol)) for m in x]


@settings(derandomize=True, max_examples=300, deadline=None)
@given(x=stacks, t=st.floats(0.0, 1.0))
def test_retract_tuple_stays_in_group(x, t):
    try:
        rho = RepTuple(sl(x.shape[-1]), x)
    except NotInGroup:
        assume(False)
    out = retract_tuple(rho, t)  # builds its result, so it is checked there
    assert out.descriptor == (su(rho.n) if t == 1.0 else sl(rho.n))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(x=stacks, ts=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=5), su_stack=st.booleans())
def test_retract_path_equals_each_t_alone(x, ts, su_stack):
    # One SVD for every t gives each t's matrices bit for bit, t = 0 included;
    # the reference is the per-t SVD formula, phi_t / det(phi_t)^(1/n).
    if su_stack:
        x = haar_su(x.shape[-1], np.random.default_rng(len(ts)), len(x))
    ts = [*ts, 0.0]
    path = retract_path(x, ts)
    assert [m.shape for m in path] == [x.shape] * len(ts)
    u, s, vh = np.linalg.svd(x)
    for t, m in zip(ts, path):
        assert np.array_equal(m, retract_path(x, (t,))[0])
        if t == 0.0:
            assert np.array_equal(m, x) and not np.shares_memory(m, x)
        else:
            ref = stack_matmul(u * s[..., None, :] ** (1.0 - t), vh)
            assert np.array_equal(m, ref / np.linalg.det(ref)[..., None, None] ** (1.0 / x.shape[-1]))
    assert all(np.array_equal(a, b) for a, b in zip(phi_path(x, ts), (phi(x, t) for t in ts)))
    singular = x.copy()
    singular[-1, :, 0] = 0.0
    with pytest.raises(Singular):
        retract_path(singular, ts)
    with pytest.raises(ValueError):
        retract_path(x, [*ts, 1.5])


def test_phi_continuity_proxy():
    rng = np.random.default_rng(4)
    h = 1e-4
    for _ in range(10):
        g = sample_tuple(sl(2), 1, rng)[0]
        bound = 10.0 * frob(polar(g).p) * frob(g)
        for t in np.linspace(0.0, 1.0 - h, 10):
            assert frob(phi(g, t + h) - phi(g, t)) <= bound * h


def test_retraction_path():
    rng = np.random.default_rng(5)
    rho = sample_tuple(sl(2), 2, rng)
    path = retraction_path(rho, TS)
    assert path.samples[0][0] == 0.0 and path.samples[-1][0] == 1.0
    last = path.samples[-1][1]
    assert validate(last.matrices, last.descriptor, 1e-9).all()
    with pytest.raises(ValueError):
        retraction_path(rho, (0.0, 0.5))  # does not end at 1


def test_abelian_retract():
    d = np.diag([2.0, 0.5]).astype(complex)
    out = abelian_retract([d], 1.0)[0]
    assert frob(out - np.eye(2)) < 1e-14
    unit = np.diag(np.exp(1j * np.array([0.3, -0.3])))
    for t in TS:
        assert frob(abelian_retract([unit], t)[0] - unit) < 1e-14


def test_abelian_retract_matches_phi():
    rng = np.random.default_rng(6)
    for _ in range(10):
        z = np.exp(rng.standard_normal(3) + 1j * rng.uniform(-np.pi, np.pi, 3))
        z[2] = 1.0 / (z[0] * z[1])  # determinant one
        d = np.diag(z)
        for t in TS:
            assert frob(abelian_retract([d], t)[0] - phi(d, t)) < 1e-12


def test_abelian_retract_permutation_equivariance_exact():
    z = np.array([2.0, 0.5 * np.exp(1j), 1.0 / np.exp(1j)])
    d = np.diag(z)
    p = np.array([[0, 1, 0], [0, 0, 1], [1, 0, 0]], dtype=complex)
    for t in (0.3, 1.0):
        lhs = abelian_retract([p @ d @ p.conj().T], t)[0]
        rhs = p @ abelian_retract([d], t)[0] @ p.conj().T
        assert np.array_equal(lhs, rhs)


def test_abelian_retract_errors():
    with pytest.raises(NotDiagonal):
        abelian_retract([np.array([[1, 1], [0, 1]], dtype=complex)], 0.5)
    with pytest.raises(Singular):
        abelian_retract([np.diag([1.0, 0.0]).astype(complex)], 0.5)
