"""Inverse problems: lift invariant coordinates back to explicit SU(2) tuples,
and decide K-conjugacy of unitary tuples constructively.

The rank-3 lift realizes the quaternion imaginary parts as a Cholesky frame
of their Gram matrix; the two sheets differ in the sign of the j-component
c3 of the third matrix, and coincide exactly when the normalized Gram
determinant t123 vanishes.

Conjugacy uses the polar decomposition: if g A_i g^-1 = B_i for unitary
tuples, g*g commutes with every A_i, so the unitary polar factor of g also
conjugates A to B.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import DEFAULT_TOL, dagger
from .groups import DimensionMismatch, NotInGroup, RepTuple, quaternion_matrix, su
from .invariants import SU2Rank2Coords, SU2Rank3Coords, gram, su2_rank3_coords
from .semialgebraic import in_su2_rank2_image, in_su2_rank3_image


class NotInImage(ValueError):
    """Coordinates violate the image inequalities beyond tolerance."""


class DegenerateUnhandled(ValueError):
    """Every pair is degenerate and the diagonal fallback fails."""


class DegenerateSpectrum(ValueError):
    """Formerly raised by unitary_conjugacy on a repeated eigenvalue of X1;
    nothing raises it any more.  Kept for the names in ``bench/``."""


@dataclass(frozen=True)
class LiftResult:
    tuples: tuple
    unique: bool
    t123: float | None = None
    signs: tuple = ()


def _sqrt_clamped(x: float, tol: float, what: str) -> float:
    if x < -tol:
        raise NotInImage(f"{what} = {x:.3e} is negative beyond tol={tol:g}")
    return float(np.sqrt(max(x, 0.0)))


def su2_rank2_lift(a: SU2Rank2Coords, tol: float = DEFAULT_TOL) -> LiftResult:
    """Solve (a1, a2, a3) for a pair X1 = diag, X2 = a2 + b2 i + c2 j.

    b1 = sqrt(1-a1^2) and X2's imaginary part lies on the circle of radius
    beta = sqrt(1-a2^2): b2 = beta cos, c2 = beta sin with
    cos = (a3 - a1 a2)/(b1 beta) clipped to [-1, 1], so X2 is a unit
    quaternion however small b1 is.  When b1 beta <= tol (X1 or X2 central)
    the angle is free and cos = 1 is taken.
    """
    if not in_su2_rank2_image(a, tol).inside:
        raise NotInImage("coordinates fail the sigma-ball inequalities")
    b1 = _sqrt_clamped(1.0 - a.a1**2, tol, "1-a1^2")
    beta = _sqrt_clamped(1.0 - a.a2**2, tol, "1-a2^2")
    cos = 1.0
    if b1 * beta > tol:
        cos = min(1.0, max(-1.0, (a.a3 - a.a1 * a.a2) / (b1 * beta)))
    b2 = beta * cos
    c2 = beta * np.sqrt(1.0 - cos**2)
    mats = quaternion_matrix([a.a1, a.a2], [b1, b2], [0.0, c2], 0.0)
    return LiftResult(
        tuples=(RepTuple(su(2), mats),), unique=True, t123=None, signs=(1,)
    )


def _generic_rank3_lift(a, r, s12: float, c3: float):
    """Cholesky frame of the imaginary parts with leading pair s12 > tol.

    ``a`` and ``r`` (nested lists) are the a_j and the Gram matrix in the
    lift's ordering; ``c3`` is the signed j-component of the third imaginary
    part, c3^2 = det(r)/s12 (the third Cholesky pivot of the Gram matrix).
    """
    r11 = r[0][0]
    b1 = np.sqrt(r11)
    b2 = r[0][1] / b1
    d2 = np.sqrt(s12) / b1
    b3 = r[0][2] / b1
    d3 = (r[1][2] * r11 - r[0][1] * r[0][2]) / (d2 * r11)
    return quaternion_matrix(a, [b1, b2, b3], [0.0, 0.0, c3], [0.0, d2, d3])


def _diagonal_rank3_lift(c: SU2Rank3Coords, tol: float):
    """All pairs reducible: simultaneously diagonal solution from the a_j.

    Imaginary parts are collinear; only the relative signs eps_j of the
    i-components remain, found by a search over the four combinations.
    """
    a = [c.a1, c.a2, c.a3]
    b = [np.sqrt(max(1.0 - x * x, 0.0)) for x in a]
    target = np.array([c.a12, c.a13, c.a23])
    for e2 in (1.0, -1.0):
        for e3 in (1.0, -1.0):
            eps = [1.0, e2, e3]
            got = np.array(
                [
                    a[0] * a[1] + eps[0] * eps[1] * b[0] * b[1],
                    a[0] * a[2] + eps[0] * eps[2] * b[0] * b[2],
                    a[1] * a[2] + eps[1] * eps[2] * b[1] * b[2],
                ]
            )
            if np.max(np.abs(got - target)) <= max(100 * tol, 1e-7):
                return quaternion_matrix(a, np.multiply(eps, b), 0.0, 0.0)
    return None


# Cyclic relabelings, one per leading pair in the order of gram()'s
# (s12, s13, s23).  A cyclic relabeling keeps the sign of the triple product
# of the imaginary parts, so ``sign`` names the same sheet in each of them.
_CYCLIC = ((0, 1, 2), (2, 0, 1), (1, 2, 0))


def su2_rank3_lift(
    c: SU2Rank3Coords, sign: int | None = None, tol: float = DEFAULT_TOL
) -> LiftResult:
    """Lift six a-coordinates to one SU(2) triple per requested sheet.

    Returns both sheets when ``sign`` is None and the lift is non-unique
    (|t123| > tol).  Sheet ``s`` has triple product of the quaternion
    imaginary parts of sign -s.  The frame is built in the cyclic relabeling
    whose leading pair has the largest pairwise sigma; when every pair is
    degenerate (all s_ab <= tol) the simultaneous-diagonal fallback applies.
    A degenerate pair forces t123 = 0, so the lift is then unique.
    """
    if not in_su2_rank3_image(c, tol).inside:
        raise NotInImage("coordinates fail the rank-3 image inequalities")
    coords = c.as_array()
    if np.max(np.abs(coords)) > 1.0 + tol:
        raise NotInImage("coordinates leave [-1, 1]")
    r, s, t123 = gram(coords, tol)
    t123 = float(t123)
    unique = abs(t123) <= tol
    signs = (sign,) if sign is not None else ((1,) if unique else (1, -1))

    lead = int(np.argmax(s))
    s_lead = float(s[lead])
    if s_lead > tol:
        p = list(_CYCLIC[lead])
        a, rp = coords[p].tolist(), r[p][:, p].tolist()
        # |t123| <= tol: the unique sheet carries c3 = 0 exactly rather than
        # the square root of rounding noise.
        c3 = 0.0
        if not unique:
            c3 = _sqrt_clamped(float(np.linalg.det(r)), tol, "det(r)") / np.sqrt(s_lead)
        slot_of = np.argsort(p)
        out = []
        for sg in signs:
            mats = _generic_rank3_lift(a, rp, s_lead, sg * c3)
            out.append(RepTuple(su(2), mats[slot_of]))
        return LiftResult(tuples=tuple(out), unique=unique, t123=t123, signs=signs)

    mats = _diagonal_rank3_lift(c, tol)
    if mats is None:
        raise DegenerateUnhandled("every pair is degenerate and the diagonal fallback failed")
    rho = RepTuple(su(2), mats)
    got = su2_rank3_coords(rho).as_array()
    if np.max(np.abs(got - coords)) > max(100 * tol, 1e-7):
        raise DegenerateUnhandled("diagonal fallback does not reproduce the coordinates")
    return LiftResult(tuples=(rho,), unique=True, t123=t123, signs=(0,))


# --- constructive K-conjugacy ------------------------------------------------


def conjugacy_operator(a, b) -> np.ndarray:
    """The (r n^2, n^2) matrix of X -> (X A_i - B_i X)_i on row-major vec(X).

    Block i is I kron A_i^T - B_i kron I, written into its nonzero entries:
    row (p, q) holds A_i[t, q] in column (p, t) and -B_i[p, s] in column (s, q).
    """
    a, b = np.asarray(a), np.asarray(b)
    r, n = a.shape[0], a.shape[-1]
    m = np.zeros((r, n, n, n, n), dtype=complex)
    diag = np.arange(n)
    m[:, diag, :, diag, :] = np.swapaxes(a, -1, -2)
    m[:, :, diag, :, diag] -= b
    return m.reshape(r * n * n, n * n)


def unitary_conjugacy(rho1: RepTuple, rho2: RepTuple, tol: float = DEFAULT_TOL):
    """Find k in SU(n) with k rho1 k^-1 = rho2 within 10*tol, or None.

    Intertwiners X A_i = B_i X span the null space of ``conjugacy_operator``.
    A unitary k within eps on every component is a vector of norm sqrt(n)
    that this map sends to norm <= sqrt(r) eps, so no singular value below
    sqrt(r/n) eps means None.  Otherwise a fixed probe projected onto the
    right singular vectors below that bound gives an intertwiner g = U S V*,
    and its polar factor U V* is verified on every component.  Non-conjugate
    tuples sharing a summand have only singular intertwiners and fail there.
    """
    if rho1.descriptor != rho2.descriptor or rho1.r != rho2.r:
        raise DimensionMismatch("tuples must share descriptor and rank")
    if rho1.descriptor.family != "SU":
        raise NotInGroup("unitary_conjugacy expects unitary-valued tuples")
    n, eps = rho1.n, 10.0 * max(tol, 1e-9)
    m = conjugacy_operator(rho1.matrices, rho2.matrices)
    # The QR factor tri keeps the singular values and right singular vectors
    # of m.  y minus its minimal-norm least-squares fit, singular values
    # <= bound cut, is y projected onto the right singular vectors below the
    # bound; lstsq gives it without the workspace of forming the vectors.
    tri = np.linalg.qr(m, mode="r")
    s = np.linalg.svd(tri, compute_uv=False)
    bound = np.sqrt(rho1.r / n) * eps
    if s[-1] > bound:
        return None
    # Fixed probe: the n x n matrix of quasi-random phases exp(2 pi i phi j^2).
    y = np.exp(2j * np.pi * ((np.arange(n * n) ** 2 * 0.6180339887498949) % 1.0))
    g = (y - np.linalg.lstsq(tri, tri @ y, rcond=bound / max(s[0], bound))[0]).reshape(n, n)
    u, _, wh = np.linalg.svd(g)
    k_mat = u @ wh
    k_mat = k_mat * np.exp(-1j * np.angle(np.linalg.det(k_mat)) / n)
    err = np.linalg.norm(k_mat @ rho1.matrices @ dagger(k_mat) - rho2.matrices, axis=(-2, -1)).max()
    return k_mat if err <= eps else None
