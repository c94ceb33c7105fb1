"""Small dense complex linear algebra.

Everything in the package funnels its eigenproblems through here: Hermitian
eigendecompositions, fractional powers of positive matrices, the polar
(Cartan) decomposition, Hermitian matrix exponentials, spectral
decompositions of unitary matrices, and Haar sampling on SU(n).

All functions are pure; randomness enters only through an explicitly passed
``numpy.random.Generator``.
"""

from __future__ import annotations

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
    """Coerce to a square complex ndarray."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError("matrix has non-finite entries")
    return m


def is_hermitian(h, tol: float = DEFAULT_TOL) -> bool:
    h = np.asarray(h, dtype=complex)
    return frob(h - h.conj().T) <= tol


def herm_eig(h, tol: float = DEFAULT_TOL):
    """Eigendecomposition of a Hermitian matrix.

    Returns ``(w, u)`` with ``w`` real ascending and ``u`` unitary such that
    ``h = u @ diag(w) @ u*``.  Raises NotHermitian if ``h`` is not Hermitian
    within ``tol`` in Frobenius norm.
    """
    h = cmat(h)
    if not is_hermitian(h, tol):
        raise NotHermitian(f"|H - H*| = {frob(h - h.conj().T):.3e} exceeds tol={tol:g}")
    w, u = np.linalg.eigh((h + h.conj().T) / 2.0)
    return w, u


def psd_power(p, s: float, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Fractional power ``p**s`` of a positive-definite Hermitian matrix."""
    w, u = herm_eig(p, tol)
    if w.min() <= tol:
        raise NotPositive(f"minimum eigenvalue {w.min():.3e} <= tol={tol:g}")
    return (u * w**s) @ u.conj().T


def exp_herm(h, t: float = 1.0, tol: float = DEFAULT_TOL) -> np.ndarray:
    """``exp(t*h)`` for Hermitian ``h``, via eigendecomposition."""
    w, u = herm_eig(h, tol)
    return (u * np.exp(t * w)) @ u.conj().T


def log_pd(p, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Matrix logarithm of a positive-definite Hermitian matrix.

    This is the only logarithm the package defines; general matrix logs are
    out of scope.
    """
    w, u = herm_eig(p, tol)
    if w.min() <= tol:
        raise NotPositive(f"minimum eigenvalue {w.min():.3e} <= tol={tol:g}")
    return (u * np.log(w)) @ u.conj().T


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
    route in exact arithmetic.  ``g`` counts as singular when its smallest
    singular value is at most ``tol`` times its largest, so the test does not
    depend on the scale of ``g``.
    """
    g = cmat(g)
    u, s, vh = np.linalg.svd(g)
    if s[-1] <= tol * s[0]:
        raise Singular(f"s_min = {s[-1]:.3e} <= tol * s_max = {tol * s[0]:.3e}")
    k = u @ vh
    p = (vh.conj().T * np.log(s)) @ vh
    return PolarParts(k=k, p=(p + p.conj().T) / 2.0)


def haar_su(n: int, rng: np.random.Generator, count: int | None = None) -> np.ndarray:
    """One Haar-distributed SU(n) matrix, or a (count, n, n) stack of them.

    Ginibre sample, QR, then column phases fixed so R has positive diagonal
    (the unique QR decomposition; Mezzadri, arXiv:math-ph/0609050), then
    divided by the principal n-th root of the determinant.  The Gaussians are
    drawn as (count, 2, n, n), real then imaginary part per matrix, so a
    stack consumes the generator exactly as ``count`` single draws do.
    Deterministic given the generator state.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    g = rng.standard_normal((1 if count is None else count, 2, n, n))
    z = (g[:, 0] + 1j * g[:, 1]) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    safe = np.where(np.abs(d) > 0, d, 1.0)
    q = q * (safe / np.abs(safe))[:, None, :]
    q = q * np.exp(-1j * np.angle(np.linalg.det(q)) / n)[:, None, None]
    return q[0] if count is None else q


# Mixing constants for unitary_eig: each colliding eigenvalue pair of a
# unitary matrix vetoes exactly one constant, and an n x n matrix has at most
# three pairs, so four distinct constants always contain a working one.
_EIG_MIX = (0.6180339887498949, 1.4142135623730951, 0.3141592653589793, 2.718281828459045)


def unitary_eig(u_mat, tol: float = DEFAULT_TOL):
    """Spectral decomposition of a unitary matrix.

    Returns ``(vals, v)`` with ``vals`` the unit-modulus eigenvalues sorted by
    ascending principal angle and ``v`` unitary with ``u = v diag(vals) v*``.

    A unitary matrix is normal, so its Hermitian and anti-Hermitian parts
    commute; ``v`` is taken from the Hermitian eigendecomposition of a
    generic real combination of the two, which keeps it exactly unitary and
    behaves gracefully on repeated eigenvalues.
    """
    u = cmat(u_mat)
    n = u.shape[0]
    if frob(u @ u.conj().T - np.eye(n)) > max(tol, 1e-7):
        raise ValueError("unitary_eig expects a unitary matrix")
    a = (u + u.conj().T) / 2.0
    b = (u - u.conj().T) / 2.0j
    a = (a + a.conj().T) / 2.0
    b = (b + b.conj().T) / 2.0
    best = None
    for c in _EIG_MIX:
        _, vecs = np.linalg.eigh(a + c * b)
        d = vecs.conj().T @ u @ vecs
        off = frob(d - np.diag(np.diagonal(d)))
        if best is None or off < best[0]:
            best = (off, vecs, d)
        if off <= 1e-12 * n:
            break
    _, vecs, d = best
    vals = np.diagonal(d)
    order = np.argsort(np.angle(vals))
    return vals[order].copy(), vecs[:, order]
