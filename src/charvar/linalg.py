"""Small dense complex linear algebra.

The package's shared spectral primitives: Hermitian eigendecompositions,
fractional powers of positive matrices, the polar (Cartan) decomposition,
Hermitian matrix exponentials, spectral decompositions of unitary matrices,
determinants of unitary matrices, and Haar sampling on SU(n): for n = 2 and
3, n - 1 Gram-Schmidt columns and the determinant-1 completion, with no
determinant and no n-th root.  Other modules call ``numpy.linalg`` directly
for their own eigen- and singular-value problems (the eigenbasis of the
flow's Newton step and its orbit-closedness test, the retraction's SVD, one
per stack for every t of a path, the lifts' Gram matrices, the conjugacy
test's QR and one stacked SVD with vectors, the alcove angles and the
product chart), for the flow's damped Newton solve, for inverses of
SL(n,C) matrices, and for determinants of matrices that need not be unitary,
which stay on LU (see ``unitary_det``): the SL group check, the retraction's
normalisation, the Gram determinant and the random SL(3) draws.

Stacked products of 2 x 2 and 3 x 3 matrices go through ``stack_matmul``,
entry by entry, in place of one BLAS call per matrix: the group check, the
trace cores, the retraction path, the moment residual, the conjugacy check
and the suites' conjugations.  ``@`` stays where one tuple is multiplied
per call (the flow loop and ``orbit_closed_matrices``, where the helper costs
2-4 microseconds more per product) and in the samplers (``sl_from_normals``,
``_spectral``), which gain nothing from it and whose draws the tests pin bit
for bit.

All functions are pure; randomness enters only through an explicitly passed
``numpy.random.Generator``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

DEFAULT_TOL = 1e-9


class NotHermitian(ValueError):
    """Matrix expected to equal its conjugate transpose does not."""


class NotPositive(ValueError):
    """Matrix expected to be positive definite has a non-positive eigenvalue."""


class Singular(ValueError):
    """Matrix expected to be invertible is numerically singular."""


def frob(a) -> float:
    """Frobenius norm."""
    return float(np.linalg.norm(np.asarray(a)))


def cmat(a) -> np.ndarray:
    """Coerce to a complex ndarray of square matrices, one (n, n) or a stack (..., n, n)."""
    m = np.asarray(a, dtype=complex)
    if m.ndim < 2 or m.shape[-2] != m.shape[-1]:
        raise ValueError(f"expected square matrices, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError("matrix has non-finite entries")
    return m


def dagger(x) -> np.ndarray:
    """Conjugate transpose of one matrix or of each matrix of a stack (..., n, n)."""
    return np.conj(x).swapaxes(-1, -2)  # the layout of np.conj(np.swapaxes(x, -1, -2)), one call fewer


def stack_matmul(a, b) -> np.ndarray:
    """``a @ b`` for stacks that broadcast as ``@`` does, entry by entry for an
    inner dimension n <= 3.

    There it adds up the n broadcast products a[..., :, j] b[..., j, :] in the
    order j = 0, 1, 2, over the whole stack, in place of one BLAS call per
    matrix (about 240 ns each for 2 x 2); so each matrix's bits do not depend
    on the stack, as ``unitary_det``'s do not.  For n >= 4, or shapes that
    ``@`` would refuse, it returns ``a @ b``.
    """
    a, b = np.asarray(a), np.asarray(b)
    n = a.shape[-1] if a.ndim >= 2 else 0
    if not 0 < n <= 3 or b.shape[-2:-1] != (n,):
        return a @ b
    out = a[..., :, :1] * b[..., :1, :]
    for j in range(1, n):
        out += a[..., :, j : j + 1] * b[..., j : j + 1, :]
    return out


def check_tol(tol: float) -> None:
    """Raise ValueError unless the tolerance ``tol`` is finite and >= 0."""
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ValueError(f"tol must be finite and >= 0, got {tol}")


def unitary_det(u) -> np.ndarray:
    """Determinant of each unitary matrix of a stack (..., n, n).

    For n <= 3 the cofactor formulas, elementwise over the whole stack, in
    place of one LAPACK call per matrix; for n >= 4, ``np.linalg.det``.  The
    cofactor sum is accurate only on well-conditioned matrices: on 200 SL(3,C)
    conjugates g k g^-1 with |log g| = 6 (condition numbers about 5e6) it
    missed 1e-8 on 114, where LU's largest error was 8.8e-10.  So
    determinants of SL(n,C) matrices stay on ``np.linalg.det``.
    """
    u = np.asarray(u)
    *lead, n, _ = u.shape
    if n > 3:
        return np.linalg.det(u)
    # Row k holds entry k of every matrix, so the formulas run in numpy's
    # array loops even for one matrix: its scalar arithmetic rounds complex
    # products differently, and each matrix's bits should not depend on the stack.
    x = u.reshape(-1, n * n).T
    if n == 1:
        det = x[0].copy()
    elif n == 2:
        a, b, c, d = x
        det = a * d - b * c
    else:
        a, b, c, d, e, f, g, h, i = x
        det = a * (e * i - f * h) + b * (f * g - d * i) + c * (d * h - e * g)
    return det.reshape(lead)[()]


def check_invertible(s, tol: float) -> None:
    """Raise Singular unless the singular values ``s`` (..., n) of each matrix have
    s_min > tol * s_max, a test that does not depend on the matrix's scale."""
    if np.any(s[..., -1] <= tol * s[..., 0]):
        raise Singular("matrix is numerically singular (s_min <= tol * s_max)")


def herm_eig(h, tol: float = DEFAULT_TOL):
    """Eigendecomposition of a Hermitian matrix, or of each matrix of a stack (..., n, n).

    Returns ``(w, u)`` with ``w`` real ascending and ``u`` unitary such that
    ``h = u @ diag(w) @ u*``.  Raises NotHermitian if ``h`` is not Hermitian
    within ``tol`` in Frobenius norm.
    """
    h = cmat(h)
    hh = dagger(h)
    gap = np.linalg.norm(h - hh, axis=(-2, -1)).max()
    if gap > tol:
        raise NotHermitian(f"|H - H*| = {gap:.3e} exceeds tol={tol:g}")
    return np.linalg.eigh((h + hh) / 2.0)


def _spectral(u, f) -> np.ndarray:
    """u diag(f) u* for each matrix of a stack of eigenbases and eigenvalue images."""
    return (u * f[..., None, :]) @ dagger(u)


def psd_power(p, s: float, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Fractional power ``p**s`` of a positive-definite Hermitian matrix (or stack)."""
    w, u = herm_eig(p, tol)
    if w.min() <= tol:
        raise NotPositive(f"minimum eigenvalue {w.min():.3e} <= tol={tol:g}")
    return _spectral(u, w**s)


def exp_herm(h, t: float = 1.0, tol: float = DEFAULT_TOL) -> np.ndarray:
    """``exp(t*h)`` for Hermitian ``h`` (or a stack), via eigendecomposition."""
    w, u = herm_eig(h, tol)
    return _spectral(u, np.exp(t * w))


@dataclass(frozen=True)
class PolarParts:
    """Cartan decomposition ``g = k @ expm(p)``: ``k`` unitary, ``p`` Hermitian."""

    k: np.ndarray
    p: np.ndarray


def polar(g, tol: float = DEFAULT_TOL) -> PolarParts:
    """Polar decomposition ``g = k e^p`` with ``k = g (g*g)^(-1/2)``, ``p = log(g*g)/2``.

    Computed through the SVD ``g = U S V*`` (so ``k = U V*`` and
    ``p = V log(S) V*``), which keeps ``k`` unitary to machine precision even
    for badly conditioned ``g``; the value agrees with the ``(g*g)``-power
    route in exact arithmetic.  ``g`` may be a stack (..., n, n), and counts
    as singular as ``check_invertible`` decides.
    """
    u, s, vh = np.linalg.svd(cmat(g))
    check_invertible(s, tol)
    p = (dagger(vh) * np.log(s)[..., None, :]) @ vh
    return PolarParts(k=u @ vh, p=(p + dagger(p)) / 2.0)


_SMALL = 1e-150  # squares of smaller norms lose digits to underflow


def _gs_pass(v, b):
    """v (m, n) minus its projection onto the orthonormal rows of b (m, k, n)."""
    return v - np.einsum("...k,...ki->...i", np.einsum("...ki,...i->...k", b.conj(), v), b)


def haar_from_normals(g) -> np.ndarray:
    """Haar SU(n) matrices, a pure map of normals g (..., 2, n, n) (real, imaginary part).

    The Q factor of the Ginibre matrix z = g_re + i g_im whose R has a real
    positive diagonal is Haar on U(n) (Mezzadri, arXiv:math-ph/0609050).  Q
    is built by classical Gram-Schmidt with one re-orthogonalisation pass
    (CGS2), one column at a time over the whole stack; each matrix's bits do
    not depend on the stack or its shape.  For n = 2 and 3 only the first
    n - 1 columns are built, and the last is the determinant-1 completion:
    (-conj q1[1], conj q1[0]) for n = 2, conj(q1 x q2) for n = 3.  That is
    Q diag(1, ..., conj det Q), a map that commutes with left multiplication
    by SU(n), so it pushes Haar measure on U(n) to Haar measure on SU(n).
    For n = 1 and n >= 4, Q is divided by the principal n-th root of its
    determinant instead.

    Q does not change when z is scaled by a positive number, so each block is
    first scaled to largest entry 1, which keeps every norm clear of overflow.
    A column that the second pass halves lies in the span of the earlier ones
    to working precision; such a column, and one of norm below 1e-150 (a zero
    column), is replaced by the basis vector e_k farthest from that span.  So
    every finite block maps to a unitary matrix, and the zero block to I;
    for n = 2 and 3 this holds for the built columns, and the completion
    follows them.
    """
    g = np.asarray(g, dtype=float)
    *lead, _, n, _ = g.shape
    g = g.reshape(-1, 2, n, n)
    scale = np.abs(g.reshape(len(g), 2 * n * n)).max(-1, initial=0.0)
    z = (g[:, 0] + 1j * g[:, 1]) * (1.0 / np.where(scale > 0, scale, 1.0))[:, None, None]
    zt = np.swapaxes(z, -1, -2)  # row j is column j of z
    qt = np.empty_like(zt)
    complete = 2 <= n <= 3
    for j in range(n - 1 if complete else n):
        b, v, floor = qt[:, :j], zt[:, j], _SMALL
        if j:
            first = _gs_pass(v, b)
            v = _gs_pass(first, b)
            floor = np.maximum(0.5 * np.linalg.norm(first, axis=-1), _SMALL)
        norm = np.linalg.norm(v, axis=-1)
        lost = np.flatnonzero(norm <= floor)
        if lost.size:
            bl = b[lost]
            e = np.zeros((lost.size, n), dtype=complex)
            e[np.arange(lost.size), np.argmin((np.abs(bl) ** 2).sum(-2), axis=-1)] = 1.0
            v[lost] = _gs_pass(_gs_pass(e, bl), bl)
            norm[lost] = np.linalg.norm(v[lost], axis=-1)
        qt[:, j] = v / norm[:, None]
    if complete:
        # The determinant-1 column, conj of (-a[1], a[0]) for n = 2 and of
        # the cross product a x b for n = 3, entry by entry over the stack.
        a, b = qt[:, 0], qt[:, 1]
        if n == 2:
            qt[:, 1] = np.stack([-a[:, 1], a[:, 0]], axis=-1).conj()
        else:
            k1, k2 = [1, 2, 0], [2, 0, 1]
            qt[:, 2] = (a[:, k1] * b[:, k2] - a[:, k2] * b[:, k1]).conj()
        return np.swapaxes(qt, -1, -2).reshape(*lead, n, n)
    q = np.swapaxes(qt, -1, -2)
    return (q * np.exp(-1j * np.angle(unitary_det(q)) / n)[:, None, None]).reshape(*lead, n, n)


def haar_su(n: int, rng: np.random.Generator, count: int | None = None) -> np.ndarray:
    """One Haar SU(n) matrix from one (2, n, n) normal draw, or a (count, n, n)
    stack from one (count, 2, n, n) draw, bitwise the count single draws."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return haar_from_normals(rng.standard_normal((2, n, n) if count is None else (count, 2, n, n)))


# Mixing constants for unitary_eig: each colliding eigenvalue pair of a
# unitary matrix vetoes exactly one constant, and an n x n matrix has at most
# three pairs, so four distinct constants always contain a working one.
_EIG_MIX = (0.6180339887498949, 1.4142135623730951, 0.3141592653589793, 2.718281828459045)


def unitary_eig(u_mat):
    """Spectral decomposition of a unitary matrix, or of each matrix of a stack (..., n, n).

    Returns ``(vals, v)`` with ``vals`` the unit-modulus eigenvalues sorted by
    ascending principal angle and ``v`` unitary with ``u = v diag(vals) v*``.

    A unitary matrix is normal, so its Hermitian and anti-Hermitian parts
    commute; ``v`` is taken from the Hermitian eigendecomposition of a
    generic real combination of the two, which keeps it exactly unitary and
    behaves gracefully on repeated eigenvalues.  Each matrix keeps the mixing
    constant that diagonalises it best.  Nothing in the package calls it;
    it is kept for the names in ``bench/``.
    """
    u = cmat(u_mat)
    eye = np.eye(u.shape[-1])
    uh = dagger(u)
    if np.linalg.norm(u @ uh - eye, axis=(-2, -1)).max() > 1e-7:
        raise ValueError("unitary_eig expects a unitary matrix")
    a = (u + uh) / 2.0  # both Hermitian entry for entry, since conj is exact
    b = (u - uh) / 2.0j
    best = None
    for c in _EIG_MIX:
        _, vecs = np.linalg.eigh(a + c * b)
        d = dagger(vecs) @ u @ vecs
        vals = np.diagonal(d, axis1=-2, axis2=-1)
        off = np.linalg.norm(d - vals[..., None] * eye, axis=(-2, -1))
        if best is not None:  # per matrix, the better of this constant and the best so far
            keep = off < best[0]
            off = np.where(keep, off, best[0])
            vecs = np.where(keep[..., None, None], vecs, best[1])
            vals = np.where(keep[..., None], vals, best[2])
        best = (off, vecs, vals)
        if off.max() <= 1e-12 * len(eye):
            break
    order = np.argsort(np.angle(vals), axis=-1)
    return np.take_along_axis(vals, order, -1), np.take_along_axis(vecs, order[..., None, :], -1)
