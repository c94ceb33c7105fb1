"""Deformation retraction from SL(n,C) tuples to SU(n) tuples.

The elementwise map is phi_t(g) = g (g*g)^(-t/2); at t=0 it is the identity,
at t=1 it is the unitary polar factor, and it fixes unitary matrices for
every t.  Applied to a tuple's (r, n, n) stack it retracts representation
tuples, and it restricts to the entrywise map z -> z |z|^(-t) on diagonal
tuples.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import DEFAULT_TOL, Singular, check_invertible, cmat
from .groups import GroupDescriptor, RepTuple

_EPS = np.finfo(float).eps


class NotDiagonal(ValueError):
    """Matrix expected diagonal has off-diagonal mass."""


def phi(g, t: float, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Retraction flow phi_t(g) = g (g*g)^(-t/2) for t in [0, 1].

    Evaluated through the SVD g = U S V* as U S^(1-t) V*, which is the same
    matrix in exact arithmetic but stays unitary to machine precision at
    t = 1 regardless of conditioning.  The (g*g)-power and polar-parts
    routes are kept as cross-checks in the test suite.  ``g`` may be a stack
    (..., n, n); singular means as ``check_invertible`` decides, scale-free.
    """
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"t={t} outside [0, 1]")
    g = cmat(g)
    u, s, vh = np.linalg.svd(g)
    check_invertible(s, tol)
    if t == 0.0:
        return g.copy()
    return (u * s[..., None, :] ** (1.0 - t)) @ vh


def retract_matrices(x, t: float) -> np.ndarray:
    """phi_t of each matrix of a group-valued stack x (..., n, n), divided by
    the principal n-th root of its determinant: the SVD of a badly conditioned
    matrix can move det(phi_t) off 1 by more than GROUP_TOL, though phi_t keeps
    it exactly.  phi_0 is the identity, so at t = 0 the stack comes back
    unchanged.  A determinant-1 matrix is invertible, so Singular is raised
    only where it is singular to working precision (s_min <= eps * s_max)."""
    mats = phi(x, t, _EPS)
    if t == 0.0:
        return mats
    return mats / np.linalg.det(mats)[..., None, None] ** (1.0 / mats.shape[-1])


def retract_tuple(rho: RepTuple, t: float) -> RepTuple:
    """Componentwise phi_t (``retract_matrices``); at t=1 the result is SU(n)-valued."""
    desc = rho.descriptor
    if t == 1.0 and desc.family == "SL":
        desc = GroupDescriptor("SU", desc.n)
    return RepTuple(desc, retract_matrices(rho.matrices, t))


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
    return RetractionPath(tuple((float(t), retract_tuple(rho, float(t))) for t in ts))


def abelian_retract(diagonals, t: float, tol: float = DEFAULT_TOL) -> list:
    """Entrywise z -> z |z|^(-t) on a list of diagonal determinant-1 matrices.

    Coincides with phi on diagonal matrices and is exactly equivariant under
    simultaneous permutation of the diagonal entries.
    """
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"t={t} outside [0, 1]")
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
