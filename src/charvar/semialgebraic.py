"""Membership tests for the images of the trace maps.

Each test returns a RegionVerdict carrying named margins.  Margin signs
follow the inequality as written in the docstring of each operation; a
verdict is on the boundary when any margin is within tol of zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import DEFAULT_TOL, check_tol, cmat
from .groups import NotInGroup, RepTuple, in_group, su
from .invariants import (
    ComplexInput,
    PQRecord,
    SU2Rank2Coords,
    SU2Rank3Coords,
    UCoords,
    gram,
    sigma3,
    su3_alcove_quartic,
    su3_delta,
    su3_disc,
    su3_traces,
)


class UnknownRegion(ValueError):
    """No region with the requested name."""


@dataclass(frozen=True)
class RegionVerdict:
    inside: bool
    margins: dict
    on_boundary: bool

    def to_json(self) -> dict:
        return {
            "inside": bool(self.inside),
            "on_boundary": bool(self.on_boundary),
            "margins": {k: float(v) for k, v in self.margins.items()},
        }


def _verdict(margins: dict, inside: bool, tol: float) -> RegionVerdict:
    check_tol(tol)
    on_boundary = any(abs(v) <= tol for v in margins.values())
    return RegionVerdict(inside=inside, margins=margins, on_boundary=on_boundary)


# --- SU(2) rank 2 ------------------------------------------------------------


def sigma(a: SU2Rank2Coords) -> float:
    return sigma3(a.a1, a.a2, a.a3)


_RANK2_MARGINS = ("a1_bound", "a2_bound", "a3_bound", "sigma_lower", "sigma_upper")


def su2_rank2_margins(a1, a2, a3):
    """The margins of ``in_su2_rank2_image`` in its order, of floats or of stacked
    arrays; both give the same bits, as squares are taken as products."""
    s = sigma3(a1, a2, a3)
    return 1.0 - a1 * a1, 1.0 - a2 * a2, 1.0 - a3 * a3, s, 1.0 - s


def in_su2_rank2_image(a: SU2Rank2Coords, tol: float = DEFAULT_TOL) -> RegionVerdict:
    """a in [-1,1]^3 and sigma(a) in [0,1]; margins all >= 0 when satisfied."""
    margins = dict(zip(_RANK2_MARGINS, su2_rank2_margins(a.a1, a.a2, a.a3)))
    inside = all(v >= -tol for v in margins.values())
    return _verdict(margins, inside, tol)


def theta(a: SU2Rank2Coords, tol: float = DEFAULT_TOL):
    """Angle coordinates theta_i = arccos(a_i)/pi in [0, 1]."""
    out = []
    for v in (a.a1, a.a2, a.a3):
        if abs(v) > 1.0 + tol:
            raise ValueError(f"a-coordinate {v} outside [-1, 1]")
        out.append(float(np.arccos(np.clip(v, -1.0, 1.0)) / np.pi))
    return tuple(out)


def tetrahedron_check(th, tol: float = DEFAULT_TOL) -> RegionVerdict:
    """Triangle-type inequalities th_i + th_j - th_k >= 0 and sum(th) <= 2."""
    t1, t2, t3 = th
    margins = {
        "tri_23_1": t2 + t3 - t1,
        "tri_13_2": t1 + t3 - t2,
        "tri_12_3": t1 + t2 - t3,
        "sum_cap": 2.0 - (t1 + t2 + t3),
    }
    inside = all(v >= -tol for v in margins.values())
    return _verdict(margins, inside, tol)


# --- SU(2) rank 3 ------------------------------------------------------------


# The coordinate triples (a_j, a_k, a_jk) of the four sigma-conditions: 12, 13, 23, off.
_RANK3_TRIPLES = ((0, 1, 3), (0, 2, 4), (1, 2, 5), (3, 4, 5))
_RANK3_MARGINS = (
    *(f"a{k}_bound" for k in ("1", "2", "3", "12", "13", "23")),
    *(f"{kind}_{pair}" for kind in ("sigma", "cap") for pair in ("12", "13", "23", "off")),
    "gram_det",
)


def su2_rank3_margins(c, det):
    """The margins of ``in_su2_rank3_image`` in its order over stacked coordinates
    c (..., 6), with det the rows' det r as ``gram`` returns it."""
    c = np.asarray(c, dtype=float)
    a = c[..., np.array(_RANK3_TRIPLES)]
    s = sigma3(a[..., 0], a[..., 1], a[..., 2])
    return np.concatenate([1.0 - c * c, s, 1.0 - s, np.asarray(det)[..., None]], axis=-1)


def in_su2_rank3_image(c: SU2Rank3Coords, tol: float = DEFAULT_TOL) -> RegionVerdict:
    """Each a in [-1, 1], four sigma-conditions of the rank-3 image, each in
    [0, 1], and det r >= 0 for the Gram matrix r of the quaternion imaginary
    parts (``gram``).

    The sigma-conditions bound r's 2x2 principal minors only; with det r the
    margins say that r is positive semidefinite, which on the box [-1, 1]^6
    is exactly the image of SU(2)^3, the rows that ``rank3_lift_matrices``
    lifts.
    """
    row = c.as_array()
    margins = dict(zip(_RANK3_MARGINS, su2_rank3_margins(row, gram(row)[2]).tolist()))
    inside = all(v >= -tol for v in margins.values())
    return _verdict(margins, inside, tol)


# --- SU(3) single factor and pairs -------------------------------------------


def su3_alcove_check(tau: complex, tol: float = DEFAULT_TOL) -> RegionVerdict:
    """Single margin: ``su3_alcove_quartic`` (negative inside, 0 on the boundary).

    The boundary is where the matrix has a repeated eigenvalue.
    """
    q = su3_alcove_quartic(tau)
    return _verdict({"alcove": q}, q <= tol, tol)


def in_S_plus(u: UCoords, record: PQRecord, tol: float = DEFAULT_TOL) -> RegionVerdict:
    """The semi-algebraic superset of B+: four alcove tests, Delta <= 0, P^2-4Q < 0.

    ``u`` and ``record`` must come from the same tuple, realified (unitary
    input); the discriminant inequality is strict.
    """
    if not u.is_real:
        raise ComplexInput("in_S_plus expects realified u-coordinates")
    P, Q = record.P, record.Q
    if isinstance(P, complex) or isinstance(Q, complex):
        raise ComplexInput("in_S_plus expects a realified PQRecord")
    margins = {}
    for k in (1, 2, 3, 4):
        margins[f"alcove_{k}"] = su3_alcove_quartic(u.tau(k))
    margins["delta"] = su3_delta(P, Q)
    margins["disc"] = su3_disc(P, Q)
    inside = (
        all(margins[f"alcove_{k}"] <= tol for k in (1, 2, 3, 4))
        and margins["delta"] <= tol
        and margins["disc"] < -tol
    )
    return _verdict(margins, inside, tol)


def classify_B(rho: RepTuple, tol: float = DEFAULT_TOL) -> str:
    """Sign of u5 = Im tr(X1 X2 X1^-1 X2^-1) with a tol-wide B_zero band."""
    if rho.n != 3 or rho.r != 2 or rho.descriptor.family != "SU":
        raise NotInGroup("classify_B expects an SU(3) pair")
    check_tol(tol)
    t = su3_traces(rho)
    u5 = float(t.t5.imag)
    if abs(u5) <= tol:
        return "B_zero"
    return "B_plus" if u5 > 0 else "B_minus"


def product_condition(rho: RepTuple, tol: float = DEFAULT_TOL) -> RegionVerdict:
    """Eigenvalue gap of X1 and the cyclic minor of X2 in X1's eigenbasis, from traces.

    With lambda the eigenvalues of X1 and Y = X2 written in an eigenbasis of X1,
    tr(X2 X1 X2 X1^2 X2) - tr(X2 X1^2 X2 X1 X2)
    = -(l1 - l2)(l1 - l3)(l2 - l3) (y12 y23 y31 - y13 y32 y21),
    and the same holds with X1 shifted by a scalar, so both margins come from
    ``eigvals`` and two word traces in X1 - mean(lambda) and X2, with no
    eigenvectors: min_{i<j} |lambda_i - lambda_j| and
    |y12 y23 y31 - y13 y32 y21|.  Where the gap is <= tol the minor is
    defined as 0.0, since Y then depends on the basis chosen.  Inside means
    both exceed tol (X1 interior to the alcove, pair in the product chart).
    Both margins are invariant under simultaneous conjugation.
    """
    if rho.n != 3 or rho.r != 2 or rho.descriptor.family != "SU":
        raise NotInGroup("product_condition expects an SU(3) pair")
    x1, x2 = rho[0], rho[1]
    lam = np.linalg.eigvals(x1)
    diffs = lam[[0, 0, 1]] - lam[[1, 2, 2]]
    gap = float(np.abs(diffs).min())
    cyc = 0.0
    if gap > tol:
        a = x1 - lam.mean() * np.eye(3)  # same identity, traces shrink with the gaps
        t = np.trace(x2 @ a @ x2 @ a @ a @ x2) - np.trace(x2 @ a @ a @ x2 @ a @ x2)
        cyc = float(abs(t) / abs(np.prod(diffs)))
    margins = {"eig_gap": gap, "cyclic_minor": cyc}
    inside = gap > tol and cyc > tol
    return _verdict(margins, inside, tol)


# --- Weyl alcove -------------------------------------------------------------


@dataclass(frozen=True)
class AlcovePoint:
    """Eigen-angles, descending, summing to 0, with spread lam[0]-lam[-1] <= 1."""

    lam: tuple

    def as_array(self):
        return np.array(self.lam)


def alcove_lambda(k) -> AlcovePoint:
    """Unique alcove representative of an SU(n) matrix's eigen-angles.

    Angles are taken in (-1/2, 1/2]; their sum is an integer m (det has unit
    modulus and the determinant of an SU matrix is 1), and shifting the m
    largest angles down by one full turn (or the |m| smallest up) lands in
    the alcove in a single pass.
    """
    k = cmat(k)
    n = k.shape[0]
    in_group(k, su(n))
    ang = np.angle(np.linalg.eigvals(k)) / (2.0 * np.pi)
    ang = np.where(ang <= -0.5, ang + 1.0, ang)
    ang = np.sort(ang)[::-1]
    m = int(round(ang.sum()))
    if m > 0:
        ang[:m] -= 1.0
    elif m < 0:
        ang[m:] += 1.0
    ang = np.sort(ang)[::-1]
    ang -= ang.sum() / n  # strip float residue so the sum is exactly 0
    return AlcovePoint(tuple(float(x) for x in ang))


# --- figure-data grids -------------------------------------------------------

ALCOVE_CORNERS = (
    3.0 + 0.0j,
    3.0 * np.exp(2j * np.pi / 3.0),
    3.0 * np.exp(-2j * np.pi / 3.0),
)

TETRAHEDRON_VERTICES = ((1.0, 1.0, 1.0), (1.0, -1.0, -1.0), (-1.0, 1.0, -1.0), (-1.0, -1.0, 1.0))

# Alcove vertices (lambda_1, lambda_2, lambda_3): the three central elements.
_ALCOVE_TRIANGLE = (
    np.array([0.0, 0.0, 0.0]),
    np.array([1.0 / 3.0, 1.0 / 3.0, -2.0 / 3.0]),
    np.array([2.0 / 3.0, -1.0 / 3.0, -1.0 / 3.0]),
)


MIN_RESOLUTION = 16  # the coarsest grid the figure-data functions accept


def _sweep(pa, pb, pc, us):
    """Degenerate bilinear sweep pa + u (pb - pa) + v (1 - u)(pc - pa) over the
    (u, v) mesh of ``us``: (..., len(us), len(us), k) for vertices (..., k)."""
    uu, vv = us[:, None, None], us[None, :, None]
    pa, pb, pc = (np.asarray(x)[..., None, None, :] for x in (pa, pb, pc))
    return pa + uu * (pb - pa) + vv * (1.0 - uu) * (pc - pa)


def su3_alcove_grid(resolution: int):
    """(p1, p2, margin) rows sampling the alcove image of the SU(3) trace.

    The alcove triangle is swept with a degenerate bilinear parametrization
    whose corner rows are exactly the three central elements tau = 3, 3w,
    3w^2, where the quartic margin vanishes.  resolution^2 rows.
    """
    if resolution < MIN_RESOLUTION:
        raise ValueError(f"resolution must be >= {MIN_RESOLUTION}")
    lam = _sweep(*_ALCOVE_TRIANGLE, np.linspace(0.0, 1.0, resolution))
    tau = np.exp(2j * np.pi * lam).sum(axis=-1).ravel().tolist()
    # The margin is taken per row: numpy's stacked power and complex abs
    # round differently from the scalar ones that su3_alcove_check uses.
    return [(t.real, t.imag, su3_alcove_quartic(t)) for t in tau]


def su2_tetrahedron_boundary_grid(resolution: int):
    """(a1, a2, a3) samples of the sigma = 0 surface via theta coordinates.

    The four faces of the theta-tetrahedron are swept with corner-including
    barycentric grids; all four non-smooth vertices of the a-surface appear
    exactly.  4*(resolution//2)^2 rows (resolution^2 when even).
    """
    if resolution < MIN_RESOLUTION:
        raise ValueError(f"resolution must be >= {MIN_RESOLUTION}")
    # Faces as theta-triangles (vertices in theta coordinates).
    faces = np.array([
        ((0.0, 0.0, 0.0), (1.0, 0.0, 1.0), (0.0, 1.0, 1.0)),  # th1+th2-th3 = 0
        ((0.0, 0.0, 0.0), (1.0, 1.0, 0.0), (0.0, 1.0, 1.0)),  # th1+th3-th2 = 0
        ((0.0, 0.0, 0.0), (1.0, 1.0, 0.0), (1.0, 0.0, 1.0)),  # th2+th3-th1 = 0
        ((0.0, 1.0, 1.0), (1.0, 0.0, 1.0), (1.0, 1.0, 0.0)),  # th1+th2+th3 = 2
    ])
    th = _sweep(faces[:, 0], faces[:, 1], faces[:, 2], np.linspace(0.0, 1.0, resolution // 2))
    return list(map(tuple, np.cos(np.pi * th).reshape(-1, 3).tolist()))


def region_grid(name: str, resolution: int):
    if name == "su3-alcove":
        return ["p1", "p2", "margin"], su3_alcove_grid(resolution)
    if name == "su2-tetrahedron-boundary":
        return ["a1", "a2", "a3"], su2_tetrahedron_boundary_grid(resolution)
    raise UnknownRegion(f"unknown region {name!r}")
