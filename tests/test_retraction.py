import numpy as np
import pytest

from charvar.groups import conjugate_tuple, sample_tuple, sl, su
from charvar.linalg import Singular, exp_herm, frob, haar_su, polar, psd_power
from charvar.retraction import (
    NotDiagonal,
    abelian_retract,
    phi,
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
    assert one.is_valid(1e-10)


def test_equivariance():
    rng = np.random.default_rng(3)
    for _ in range(20):
        rho = sample_tuple(sl(2), 2, rng)
        k = haar_su(2, rng)
        for t in TS:
            lhs = retract_tuple(conjugate_tuple(k, rho), t)
            rhs = conjugate_tuple(k, retract_tuple(rho, t))
            assert max(frob(a - b) for a, b in zip(lhs.matrices, rhs.matrices)) < 1e-9


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
    assert path.samples[-1][1].is_valid(1e-9)
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
