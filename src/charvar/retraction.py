"""Deformation retraction from SL(n,C) tuples to SU(n) tuples.

The elementwise map is phi_t(g) = g (g*g)^(-t/2); at t=0 it is the identity,
at t=1 it is the unitary polar factor, and it fixes unitary matrices for
every t.  Applied to a tuple's (r, n, n) stack it retracts representation
tuples, and it restricts to the entrywise map z -> z |z|^(-t) on diagonal
tuples.  With g = U S V* it is U S^(1-t) V*, so every t of a path shares one
SVD: ``phi_path`` and ``retract_path`` take it once per stack.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import DEFAULT_TOL, Singular, check_invertible, cmat, stack_matmul
from .groups import RepTuple, su, tuples_in_group

_EPS = np.finfo(float).eps


class NotDiagonal(ValueError):
    """Matrix expected diagonal has off-diagonal mass."""


def _check_times(ts) -> list:
    """The times ``ts`` as floats, each checked to lie in [0, 1]."""
    ts = [float(t) for t in ts]
    for t in ts:
        if not 0.0 <= t <= 1.0:
            raise ValueError(f"t={t} outside [0, 1]")
    return ts


def phi_path(g, ts, tol: float = DEFAULT_TOL) -> list:
    """phi_t(g) = g (g*g)^(-t/2) for each t in ``ts`` (each in [0, 1]), from one SVD.

    Evaluated through the SVD g = U S V* as U S^(1-t) V*, which is the same
    matrix in exact arithmetic but stays unitary to machine precision at
    t = 1 regardless of conditioning.  Every t shares the factorization, and
    each result is bitwise the one a path of that t alone gives; at t = 0 it
    is a copy of g.  ``g`` may be a stack (..., n, n); singular means as
    ``check_invertible`` decides, scale-free.
    """
    return _phi_checked(g, _check_times(ts), tol)


def _phi_checked(g, ts: list, tol: float) -> list:
    """``phi_path`` for a list ``ts`` that ``_check_times`` has already checked."""
    g = cmat(g)
    u, s, vh = np.linalg.svd(g)
    check_invertible(s, tol)
    return [g.copy() if t == 0.0 else stack_matmul(u * s[..., None, :] ** (1.0 - t), vh) for t in ts]


def phi(g, t: float, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Retraction flow phi_t(g) for one t in [0, 1]: ``phi_path`` at that t.
    The (g*g)-power and polar-parts routes are kept as cross-checks in the
    test suite."""
    return phi_path(g, (t,), tol)[0]


def retract_path(x, ts) -> list:
    """phi_t of each matrix of a group-valued stack x (..., n, n) for each t in
    ``ts``, from one ``phi_path``, divided by the principal n-th root of its
    determinant: the SVD of a badly conditioned matrix can move det(phi_t)
    off 1 by more than GROUP_TOL, though phi_t keeps it exactly.  phi_0 is
    the identity, so at t = 0 the stack comes back unchanged.  A
    determinant-1 matrix is invertible, so Singular is raised only where it
    is singular to working precision (s_min <= eps * s_max)."""
    return _retract_checked(x, _check_times(ts))


def _retract_checked(x, ts: list) -> list:
    """``retract_path`` for a list ``ts`` that ``_check_times`` has already checked."""
    n = np.shape(x)[-1]
    return [
        m if t == 0.0 else m / np.linalg.det(m)[..., None, None] ** (1.0 / n)
        for t, m in zip(ts, _phi_checked(x, ts, _EPS))
    ]


def _retract_tuples(rho: RepTuple, ts: list) -> list:
    """The tuples of ``retract_path`` at each t of the checked list ``ts``; at
    t = 1 an SL tuple becomes SU(n)-valued.  The times of one descriptor are
    checked as one stack (``tuples_in_group``): an SL path's t < 1, then t = 1."""
    at_one = su(rho.n)
    descs = [at_one if t == 1.0 else rho.descriptor for t in ts]
    mats = _retract_checked(rho.matrices, ts)
    out = [None] * len(ts)
    for d in dict.fromkeys(descs):
        idx = [i for i, e in enumerate(descs) if e == d]
        for i, tup in zip(idx, tuples_in_group(d, [mats[i] for i in idx])):
            out[i] = tup
    return out


def retract_tuple(rho: RepTuple, t: float) -> RepTuple:
    """Componentwise phi_t (``retract_path``); at t=1 the result is SU(n)-valued."""
    return _retract_tuples(rho, _check_times((t,)))[0]


@dataclass(frozen=True)
class RetractionPath:
    """Samples (t, tuple) of the retraction, t increasing from 0 to 1."""

    samples: tuple

    def __post_init__(self):
        ts = [t for t, _ in self.samples]
        if not ts or ts[0] != 0.0 or ts[-1] != 1.0 or any(
            b <= a for a, b in zip(ts, ts[1:])
        ):
            raise ValueError("path times must strictly increase from 0 to 1")


def retraction_path(rho: RepTuple, ts) -> RetractionPath:
    """The retraction of ``rho`` at each t of ``ts``, every t from one SVD per matrix."""
    ts = _check_times(ts)
    return RetractionPath(tuple(zip(ts, _retract_tuples(rho, ts))))


def abelian_retract(diagonals, t: float, tol: float = DEFAULT_TOL) -> list:
    """Entrywise z -> z |z|^(-t) on a list of diagonal determinant-1 matrices.

    Coincides with phi on diagonal matrices and is exactly equivariant under
    simultaneous permutation of the diagonal entries.
    """
    (t,) = _check_times((t,))
    out = []
    for m in diagonals:
        m = cmat(m)
        off = m - np.diag(np.diagonal(m))
        if np.linalg.norm(off) > tol:
            raise NotDiagonal("abelian_retract expects diagonal matrices")
        z = np.diagonal(m)
        if np.any(np.abs(z) <= tol):
            raise Singular("diagonal entry too close to zero")
        out.append(np.diag(z * np.abs(z) ** (-t)))
    return out
