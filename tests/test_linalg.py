import numpy as np
import pytest

from charvar.linalg import (
    NotHermitian,
    NotPositive,
    Singular,
    check_tol,
    exp_herm,
    frob,
    haar_from_normals,
    haar_su,
    herm_eig,
    polar,
    psd_power,
    unitary_det,
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
        assert np.array_equal(batch, single)
        assert rng_batch.random() == rng_single.random()
        # The map's bits do not depend on the stack's shape either.
        g = np.random.default_rng(30 + n).standard_normal((9, 2, n, n))
        assert np.array_equal(haar_from_normals(g.reshape(3, 3, 2, n, n)), haar_from_normals(g).reshape(3, 3, n, n))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_unitary_det_matches_lu_on_haar_stacks(n):
    # Haar U(n): Haar SU(n) times a random phase, so the determinants spread
    # over the unit circle.  Each matrix's bits do not depend on the stack.
    rng = np.random.default_rng(50 + n)
    for shape in ((), (7,), (3, 4)):
        count = int(np.prod(shape))
        u = haar_su(n, rng, count) * np.exp(2j * np.pi * rng.random(count))[:, None, None]
        u = u.reshape(*shape, n, n)
        det = unitary_det(u)
        assert np.shape(det) == shape
        assert np.abs(det - np.linalg.det(u)).max() < 1e-14
        flat = u.reshape(count, n, n)
        assert all(np.array_equal(det.reshape(count)[i], unitary_det(flat[i])) for i in range(count))


def test_check_tol():
    for tol in (0.0, 1e-9, 1.0):
        check_tol(tol)
    for tol in (float("nan"), float("inf"), -1e-12):
        with pytest.raises(ValueError, match="tol must be finite and >= 0"):
            check_tol(tol)


def _mezzadri_oracle(g):
    """Haar SU(n) by numpy's QR: R's diagonal made positive, then the det phase removed."""
    z = (g[..., 0, :, :] + 1j * g[..., 1, :, :]) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    q = q * (d / np.abs(d))[..., None, :]
    return q * np.exp(-1j * np.angle(np.linalg.det(q)) / z.shape[-1])[..., None, None]


def _unitary_defect(q):
    n = q.shape[-1]
    return np.abs(q @ np.conj(np.swapaxes(q, -1, -2)) - np.eye(n)).max()


def test_haar_from_normals_matches_the_qr_oracle():
    rng = np.random.default_rng(40)
    for n in (1, 2, 3, 4, 5):
        g = rng.standard_normal((200, 2, n, n))
        q = haar_from_normals(g)
        assert np.abs(q - _mezzadri_oracle(g)).max() < 1e-12
        assert _unitary_defect(q) < 1e-14
        assert np.abs(np.linalg.det(q) - 1.0).max() < 1e-14
        # Q* z is R up to the det phase: upper triangular, its diagonal real
        # and positive once that one common phase is divided out.
        z = g[:, 0] + 1j * g[:, 1]
        r = np.conj(np.swapaxes(q, -1, -2)) @ z
        assert np.abs(np.tril(r, -1)).max(initial=0.0) < 1e-13
        d = np.diagonal(r, axis1=-2, axis2=-1)
        d = d * np.exp(-1j * np.angle(d[:, :1]))
        assert np.abs(d.imag).max() < 1e-13 and d.real.min() > 0.0


def test_haar_from_normals_on_a_badly_conditioned_block():
    # z = u diag(1e3, 1, 1e-3) w has condition number 1e6; both maps lose
    # about eps * cond in the later columns.
    rng = np.random.default_rng(41)
    u, w = haar_su(3, rng, 2)
    z = u @ np.diag([1e3, 1.0, 1e-3]) @ w
    g = np.sqrt(2.0) * np.stack([z.real, z.imag])[None]
    q = haar_from_normals(g)
    assert np.abs(q - _mezzadri_oracle(g)).max() < 1e-9
    assert _unitary_defect(q) < 1e-14
    assert np.abs(np.linalg.det(q) - 1.0).max() < 1e-14


def test_haar_from_normals_is_total():
    rng = np.random.default_rng(42)
    assert np.array_equal(haar_from_normals(np.zeros((4, 2, 3, 3))), np.broadcast_to(np.eye(3), (4, 3, 3)))
    blocks = []
    for cols in ([1, 1, 2], [0, 0, 0, 3], [1, 1, 1], [0, 2, 2]):  # repeated columns
        g = rng.standard_normal((2, len(cols), len(cols)))
        blocks.append(g[..., cols])
    g = rng.standard_normal((2, 3, 3))
    g[..., 1] = 0.0  # a zero column
    blocks.append(g)
    g = np.zeros((2, 3, 3))
    g[0, 1, 0] = 1.0  # e_2, then zero columns: the fallback must skip e_2
    blocks.append(g)
    for scale in (1e300, 1e-300):
        blocks.append(scale * rng.standard_normal((2, 3, 3)))
    for g in blocks:
        q = haar_from_normals(g)
        assert np.isfinite(q).all()
        assert _unitary_defect(q) < 1e-14
        assert np.abs(np.linalg.det(q) - 1.0) < 1e-14


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
