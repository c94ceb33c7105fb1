"""Inverse problems: lift invariant coordinates back to explicit SU(2) tuples,
and decide K-conjugacy of unitary tuples constructively.

The rank-3 lift realizes the quaternion imaginary parts as the eigen frame
v = q sqrt(w) of their Gram matrix r = q diag(w) q^T, at every rank of r;
the two sheets differ in the sign of the component along the eigenvector
of the smallest eigenvalue, and coincide when the normalized Gram
determinant t123 vanishes.

Conjugacy uses the polar decomposition: if g A_i g^-1 = B_i for unitary
tuples, g*g commutes with every A_i, so the unitary polar factor of g also
conjugates A to B.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .linalg import DEFAULT_TOL, check_tol, dagger, stack_matmul, unitary_det
from .groups import DimensionMismatch, RepTuple, expect_case, quaternion_matrix, su, tuples_in_group
from .invariants import SU2Rank2Coords, SU2Rank3Coords, gram
from .semialgebraic import su2_rank2_margins, su2_rank3_margins


class NotInImage(ValueError):
    """Coordinates violate the image inequalities beyond tolerance."""


class DegenerateSpectrum(ValueError):
    """Formerly raised by unitary_conjugacy on a repeated eigenvalue of X1;
    nothing raises it any more.  Kept for the names in ``bench/``."""


@dataclass(frozen=True)
class LiftResult:
    tuples: tuple
    unique: bool
    t123: float | None = None
    signs: tuple = ()


@np.errstate(divide="ignore", invalid="ignore", over="ignore")  # cos's masked division; non-finite rows
def _rank2_lift(a1, a2, a3, tol: float) -> np.ndarray:
    """Pairs X1 = a1 + b1 i, X2 = a2 + b2 i + c2 j lifting coordinates given as
    floats, or as arrays of one shape (...): (2, ..., 2, 2), X1 then X2.

    b1 = sqrt(1-a1^2) and X2's imaginary part lies on the circle of radius
    beta = sqrt(1-a2^2): b2 = beta cos, c2 = beta sin with
    cos = (a3 - a1 a2)/(b1 beta) clipped to [-1, 1], so X2 is a unit
    quaternion however small b1 is.  When b1 beta <= tol (X1 or X2 central)
    the angle is free and cos = 1 is taken.  Any coordinates outside the
    image raise NotInImage, a NaN or inf one included, without a warning.
    """
    check_tol(tol)
    margins = np.array(su2_rank2_margins(a1, a2, a3))
    if not (margins >= -tol).all():
        raise NotInImage("coordinates fail the sigma-ball inequalities")
    b1, beta = np.sqrt(np.maximum(margins[:2], 0.0))
    cos = np.where(b1 * beta > tol, np.minimum(np.maximum((a3 - a1 * a2) / (b1 * beta), -1.0), 1.0), 1.0)
    b, c = np.array([b1, beta * cos]), np.array([0.0 * b1, beta * np.sqrt(1.0 - cos**2)])
    return quaternion_matrix(np.array([a1, a2]), b, c, 0.0)


def rank2_lift_matrices(c, tol: float = DEFAULT_TOL) -> np.ndarray:
    """The lifts (m, 2, 2, 2) of stacked (a1, a2, a3) rows c (m, 3); see ``_rank2_lift``."""
    c = np.asarray(c, dtype=float)
    return np.moveaxis(_rank2_lift(c[:, 0], c[:, 1], c[:, 2], tol), 0, 1)


def su2_rank2_lift(a: SU2Rank2Coords, tol: float = DEFAULT_TOL) -> LiftResult:
    """Solve (a1, a2, a3) for a pair X1 = diag, X2 = a2 + b2 i + c2 j (see ``_rank2_lift``)."""
    mats = _rank2_lift(a.a1, a.a2, a.a3, tol)
    return LiftResult(tuples=(RepTuple(su(2), mats),), unique=True, t123=None, signs=(1,))


_SHEETS = np.array([1.0, -1.0])


@np.errstate(invalid="ignore", over="ignore")  # a non-finite coordinate reads outside
def rank3_lift_matrices(c, tol: float = DEFAULT_TOL):
    """Both sheets of the lifts of stacked six-coordinates c (m, 6).

    Returns ``(x, t123, unique)``.  x (m, 2, 3, 2, 2) holds sheet +1 then
    sheet -1 of each row.  The imaginary parts are the rows of v = q sqrt(w)
    from the eigendecomposition r = q diag(w) q^T of their Gram matrix, at
    any rank of r.  With q a rotation and v's columns taken as the (i, k, j)
    components, sheet s multiplies the column of the smallest eigenvalue by
    s and so has triple product of sign -s.  Where the lift is unique
    (|t123| <= tol, or every pairwise sigma s_ab <= tol) both sheets are
    sheet +1, its smallest column kept as computed, so every matrix stays in
    SU(2).  Any row outside the image (``su2_rank3_margins``, the margins
    of ``in_su2_rank3_image``) raises NotInImage, a NaN or inf one included.
    """
    check_tol(tol)
    c = np.asarray(c, dtype=float)
    r, s, det, t123 = gram(c, tol)
    if not (su2_rank3_margins(c, s, det) >= -tol).all():
        raise NotInImage("coordinates fail the rank-3 image inequalities")
    unique = (abs(t123) <= tol) | (s.max(axis=-1) <= tol)
    w, q = np.linalg.eigh(r)
    q[..., 0] *= unitary_det(q)[..., None]
    v = (q * np.sqrt(np.maximum(w, 0.0))[..., None, :])[:, None]
    flip = np.where(unique[:, None], 1.0, _SHEETS)[..., None]  # (m, sheet, 1)
    x = quaternion_matrix(c[:, None, :3], flip * v[..., 0], v[..., 2], v[..., 1])
    return x, t123, unique


def su2_rank3_lift(
    c: SU2Rank3Coords, sign: int | None = None, tol: float = DEFAULT_TOL
) -> LiftResult:
    """Lift six a-coordinates to one SU(2) triple per requested sheet.

    Returns both sheets when ``sign`` is None and the lift is non-unique,
    else sheet ``sign``; a unique lift gives the same triple for either
    sign (see ``rank3_lift_matrices``).  The requested sheets are checked
    as one stack (``tuples_in_group``).
    """
    if sign not in (None, 1, -1):
        raise ValueError(f"sign must be 1, -1 or None, got {sign!r}")
    x, t123, unique = rank3_lift_matrices(c.as_array()[None], tol)
    t123, unique = float(t123[0]), bool(unique[0])
    signs = (sign,) if sign is not None else ((1,) if unique else (1, -1))
    tuples = tuple(tuples_in_group(su(2), x[0, [(1 - sg) // 2 for sg in signs]]))
    return LiftResult(tuples=tuples, unique=unique, t123=t123, signs=signs)


# --- constructive K-conjugacy ------------------------------------------------


def conjugacy_operator(a, b) -> np.ndarray:
    """The (..., r n^2, n^2) matrices of X -> (X A_i - B_i X)_i on row-major vec(X),
    for stacked tuples a, b (..., r, n, n).

    Block i is I kron A_i^T - B_i kron I, written into its nonzero entries:
    row (p, q) holds A_i[t, q] in column (p, t) and -B_i[p, s] in column (s, q).
    """
    a, b = np.asarray(a), np.asarray(b)
    *lead, r, n, _ = a.shape
    m = np.zeros((*lead, r, n, n, n, n), dtype=complex)
    diag = np.arange(n)
    m[..., diag, :, diag, :] = np.swapaxes(a, -1, -2)
    m[..., :, diag, :, diag] -= b
    return m.reshape(*lead, r * n * n, n * n)


@lru_cache(maxsize=None)
def _probe(n: int) -> np.ndarray:
    """The fixed probe: the n x n matrix of quasi-random phases exp(2 pi i phi j^2), flattened."""
    y = np.exp(2j * np.pi * ((np.arange(n * n) ** 2 * 0.6180339887498949) % 1.0))
    y.setflags(write=False)
    return y


def conjugacy_decisions(a, b, tol: float = DEFAULT_TOL):
    """Decide K-conjugacy of stacked unitary pairs a, b (m, r, n, n) within 10*tol.

    Returns ``(k, err)``: k lists, per pair, a k in SU(n) with
    k A_i k^-1 = B_i within 10*tol, or None; err (m,) holds each candidate's
    verification residual max_i ||k A_i k^-1 - B_i||_F, inf where there is
    no candidate.  Intertwiners X A_i = B_i X span the null space of
    ``conjugacy_operator``.  A unitary k within eps on every component is a
    vector of norm sqrt(n) that this map sends to norm <= sqrt(r) eps, so no
    singular value below sqrt(r/n) eps means None.  Otherwise a fixed probe
    projected onto the right singular vectors below that bound gives an
    intertwiner g = U S V*, and its polar factor U V* is the candidate.
    Non-conjugate tuples sharing a summand have only singular intertwiners
    and fail the verification.
    """
    check_tol(tol)
    a, b = np.asarray(a), np.asarray(b)
    m, r, n = a.shape[0], a.shape[1], a.shape[-1]
    eps = 10.0 * max(tol, 1e-9)
    bound = np.sqrt(r / n) * eps
    # The QR factors tri keep the singular values and right singular vectors
    # of the operators, in one stacked SVD.  The probe y projected onto the
    # right singular vectors below the bound is y minus its components along
    # those above it; the polar step and the verification are stacked over
    # the pairs below the bound.
    tri = np.linalg.qr(conjugacy_operator(a, b), mode="r")
    _, s, vh = np.linalg.svd(tri)
    k, err = [None] * m, np.full(m, np.inf)
    below = s[:, -1] <= bound
    if not below.any():
        return k, err
    vh = vh[below]
    y = _probe(n)
    coef = np.where(s[below] > bound, vh @ y, 0.0)
    g = y - np.einsum("mj,mji->mi", coef, vh.conj())
    u, _, wh = np.linalg.svd(g.reshape(-1, n, n))
    kc = u @ wh
    kc *= np.exp(-1j * np.angle(unitary_det(kc)) / n)[:, None, None]
    conj = stack_matmul(stack_matmul(kc[:, None], a[below]), dagger(kc)[:, None])
    err[below] = np.linalg.norm(conj - b[below], axis=(-2, -1)).max(axis=-1)
    for i, ki in zip(np.flatnonzero(below).tolist(), kc):
        if err[i] <= eps:
            k[i] = ki
    return k, err


def unitary_pair(rho1: RepTuple, rho2: RepTuple):
    """Two SU tuples of one shape as a one-pair stack for ``conjugacy_decisions``."""
    if rho1.descriptor != rho2.descriptor or rho1.r != rho2.r:
        raise DimensionMismatch("tuples must share descriptor and rank")
    expect_case(rho1, rho1.n, rho1.r, "SU")
    return rho1.matrices[None], rho2.matrices[None]


def unitary_conjugacy(rho1: RepTuple, rho2: RepTuple, tol: float = DEFAULT_TOL):
    """Find k in SU(n) with k rho1 k^-1 = rho2 within 10*tol, or None: one pair
    through ``conjugacy_decisions``."""
    return conjugacy_decisions(*unitary_pair(rho1, rho2), tol)[0][0]
