import numpy as np
import pytest

from charvar.linalg import (
    NotHermitian,
    NotPositive,
    Singular,
    exp_herm,
    frob,
    haar_su,
    herm_eig,
    polar,
    psd_power,
    unitary_eig,
)


def random_hermitian(n, rng):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (a + a.conj().T) / 2


def test_herm_eig_diagonal():
    w, u = herm_eig(np.diag([1.0, 2.0]))
    assert np.allclose(w, [1.0, 2.0])
    assert np.allclose(np.abs(u), np.eye(2))


def test_herm_eig_pauli_x():
    h = np.array([[0, 1], [1, 0]], dtype=complex)
    w, u = herm_eig(h)
    assert np.allclose(w, [-1.0, 1.0])
    # columns match (1,-1)/sqrt(2) and (1,1)/sqrt(2) up to phase
    for col, expect in zip(u.T, (np.array([1, -1]) / np.sqrt(2), np.array([1, 1]) / np.sqrt(2))):
        phase = col[np.argmax(np.abs(col))] / expect[np.argmax(np.abs(col))]
        assert abs(abs(phase) - 1) < 1e-12
        assert np.allclose(col, phase * expect, atol=1e-12)


def test_herm_eig_reconstruction():
    rng = np.random.default_rng(1)
    for _ in range(50):
        h = random_hermitian(3, rng)
        w, u = herm_eig(h)
        assert frob(u @ np.diag(w) @ u.conj().T - h) < 1e-12
        assert frob(u @ u.conj().T - np.eye(3)) < 1e-12
        assert np.all(np.diff(w) >= 0)


def test_herm_eig_rejects_non_hermitian():
    with pytest.raises(NotHermitian):
        herm_eig(np.array([[0, 1], [0, 0]], dtype=complex))


def test_spectrum_stable_under_conjugation():
    rng = np.random.default_rng(2)
    for _ in range(20):
        h = random_hermitian(3, rng)
        k = haar_su(3, rng)
        w1, _ = herm_eig(h)
        w2, _ = herm_eig(k @ h @ k.conj().T)
        assert np.max(np.abs(w1 - w2)) < 1e-10


def test_psd_power_diagonal():
    out = psd_power(np.diag([4.0, 0.25]), -0.5)
    assert np.allclose(out, np.diag([0.5, 2.0]), atol=1e-14)


def test_psd_power_square_root_oracle():
    rng = np.random.default_rng(3)
    for _ in range(20):
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        p = a @ a.conj().T + 0.5 * np.eye(3)
        root = psd_power(p, 0.5)
        assert frob(root @ root - p) < 1e-12 * frob(p)


def test_psd_power_identity_and_inverse():
    rng = np.random.default_rng(4)
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    p = a @ a.conj().T + np.eye(3)
    for s in (-2.0, -0.7, 0.0, 0.3, 1.0, 2.0):
        assert frob(psd_power(np.eye(3), s) - np.eye(3)) < 1e-14
        assert frob(psd_power(p, s) @ psd_power(p, -s) - np.eye(3)) < 1e-10
    assert frob(psd_power(p, 0.0) - np.eye(3)) < 1e-14
    assert frob(psd_power(p, 1.0) - p) < 1e-12


def test_psd_power_rejects_nonpositive():
    with pytest.raises(NotPositive):
        psd_power(np.diag([1.0, -0.5]), 0.5)
    with pytest.raises(NotPositive):
        psd_power(np.diag([1.0, 0.0]), 0.5)


def test_exp_herm():
    h = np.diag([1.0, -1.0])
    for t in (0.0, 0.5, 2.0):
        assert frob(exp_herm(h, t) - np.diag([np.exp(t), np.exp(-t)])) < 1e-12
    rng = np.random.default_rng(5)
    g = random_hermitian(3, rng)
    assert frob(exp_herm(g, 1.0) @ exp_herm(g, -1.0) - np.eye(3)) < 1e-12
    assert frob(exp_herm(np.zeros((3, 3)), 0.7) - np.eye(3)) < 1e-14
    s, t = 0.3, 1.1
    assert frob(exp_herm(g, s + t) - exp_herm(g, s) @ exp_herm(g, t)) < 1e-11


def test_polar_positive_diagonal():
    parts = polar(np.diag([2.0, 0.5]))
    assert frob(parts.k - np.eye(2)) < 1e-14
    assert np.allclose(parts.p, np.diag([np.log(2), -np.log(2)]), atol=1e-14)


def test_polar_shear():
    g = np.array([[1, 1], [0, 1]], dtype=complex)
    parts = polar(g)
    expect_k = np.array([[2, 1], [-1, 2]]) / np.sqrt(5)
    assert frob(parts.k - expect_k) < 1e-12
    # p = log of the symmetric factor: k* g is Hermitian with square g*g
    sym = parts.k.conj().T @ g
    assert frob(sym - sym.conj().T) < 1e-12
    assert frob(sym @ sym - g.conj().T @ g) < 1e-12


def test_polar_of_unitary():
    rng = np.random.default_rng(6)
    k = haar_su(3, rng)
    parts = polar(k)
    assert frob(parts.k - k) < 1e-12
    assert frob(parts.p) < 1e-12


def test_polar_reconstruction_property():
    rng = np.random.default_rng(7)
    for _ in range(50):
        g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        if abs(np.linalg.det(g)) < 1e-3:
            continue
        parts = polar(g)
        assert frob(parts.k @ exp_herm(parts.p) - g) < 1e-10 * max(1.0, frob(g))
        assert frob(parts.k @ parts.k.conj().T - np.eye(3)) < 1e-13
        assert frob(parts.p - parts.p.conj().T) < 1e-13


def test_polar_rejects_singular():
    with pytest.raises(Singular):
        polar(np.array([[1, 0], [0, 0]], dtype=complex))


def test_polar_singularity_is_scale_free():
    # det(1e-4 I_3) = 1e-12 is below tol, but the matrix is well conditioned.
    parts = polar(1e-4 * np.eye(3))
    assert frob(parts.k - np.eye(3)) < 1e-15
    assert frob(parts.p - np.log(1e-4) * np.eye(3)) < 1e-12
    with pytest.raises(Singular):
        polar(1e-4 * np.diag([1.0, 1.0, 0.0]))


def test_haar_su_validity_and_determinism():
    rng1 = np.random.default_rng(8)
    rng2 = np.random.default_rng(8)
    for n in (1, 2, 3, 4):
        m1 = haar_su(n, rng1)
        m2 = haar_su(n, rng2)
        assert np.array_equal(m1, m2)
        assert frob(m1 @ m1.conj().T - np.eye(n)) < 1e-12
        assert abs(np.linalg.det(m1) - 1) < 1e-12


def test_haar_su2_trace_second_moment():
    # Weyl integration: tr = 2 cos(theta) with density (2/pi) sin^2,
    # so E[(tr)^2] = 1.
    rng = np.random.default_rng(9)
    tr = np.trace(haar_su(2, rng, 100_000), axis1=1, axis2=2).real
    assert abs(np.mean(tr**2) - 1.0) < 0.02


def test_haar_su_batch_matches_single_draws():
    for n in (1, 2, 3, 4):
        rng_batch = np.random.default_rng(20 + n)
        rng_single = np.random.default_rng(20 + n)
        batch = haar_su(n, rng_batch, count=7)
        single = np.array([haar_su(n, rng_single) for _ in range(7)])
        assert batch.shape == (7, n, n)
        assert np.max(np.abs(batch - single)) < 1e-15
        assert rng_batch.random() == rng_single.random()


def test_unitary_eig_reconstruction():
    rng = np.random.default_rng(10)
    for n in (2, 3):
        for _ in range(20):
            u = haar_su(n, rng)
            vals, v = unitary_eig(u)
            assert frob(v @ np.diag(vals) @ v.conj().T - u) < 1e-10
            assert frob(v @ v.conj().T - np.eye(n)) < 1e-12
            assert np.all(np.diff(np.angle(vals)) >= -1e-12)


def test_unitary_eig_repeated_eigenvalues():
    rng = np.random.default_rng(11)
    for diag in ([1j, 1j, -1.0], [1.0, 1.0, 1.0], [np.exp(0.1j)] * 2 + [np.exp(-0.2j)]):
        k = haar_su(3, rng)
        u = k @ np.diag(diag) @ k.conj().T
        vals, v = unitary_eig(u)
        assert frob(v @ np.diag(vals) @ v.conj().T - u) < 1e-12
        assert frob(v @ v.conj().T - np.eye(3)) < 1e-13


def test_spectral_functions_broadcast_over_stacks():
    # A stack of two inputs gives what two single calls give.
    rng = np.random.default_rng(12)
    for n in (2, 3):
        h = np.array([random_hermitian(n, rng) for _ in range(2)])
        pd = h @ h + 0.5 * np.eye(n)
        for fn, arg in ((herm_eig, h), (lambda a: exp_herm(a, 0.3), h), (lambda a: psd_power(a, 0.5), pd)):
            stacked = fn(arg)
            singles = [fn(a) for a in arg]
            for i, single in enumerate(singles):
                for s, one in zip(stacked if isinstance(stacked, tuple) else (stacked,),
                                  single if isinstance(single, tuple) else (single,)):
                    assert np.allclose(s[i], one, atol=1e-12)
        u = np.array([haar_su(n, rng), haar_su(n, rng) @ haar_su(n, rng)])
        vals, v = unitary_eig(u)
        for i in range(2):
            one_vals, one_v = unitary_eig(u[i])
            assert np.allclose(vals[i], one_vals, atol=1e-12)
            assert np.allclose(v[i], one_v, atol=1e-12)
    with pytest.raises(NotHermitian):
        herm_eig(np.stack([np.eye(2), np.array([[0.0, 1.0], [0.0, 0.0]])]))
