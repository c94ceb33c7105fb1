"""Membership tests for the images of the trace maps.

Each test returns a RegionVerdict carrying named margins.  Margin signs
follow the inequality as written in the docstring of each operation; a
verdict is on the boundary when any margin is within tol of zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import DEFAULT_TOL, cmat, frob, unitary_eig
from .groups import NotInGroup, RepTuple, require_valid
from .invariants import (
    ComplexInput,
    PQRecord,
    SU2Rank2Coords,
    SU2Rank3Coords,
    UCoords,
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
    on_boundary = any(abs(v) <= tol for v in margins.values())
    return RegionVerdict(inside=inside, margins=margins, on_boundary=on_boundary)


# --- SU(2) rank 2 ------------------------------------------------------------


def sigma(a: SU2Rank2Coords) -> float:
    return sigma3(a.a1, a.a2, a.a3)


def in_su2_rank2_image(a: SU2Rank2Coords, tol: float = DEFAULT_TOL) -> RegionVerdict:
    """a in [-1,1]^3 and sigma(a) in [0,1]; margins all >= 0 when satisfied."""
    s = sigma(a)
    margins = {
        "a1_bound": 1.0 - a.a1**2,
        "a2_bound": 1.0 - a.a2**2,
        "a3_bound": 1.0 - a.a3**2,
        "sigma_lower": s,
        "sigma_upper": 1.0 - s,
    }
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


def in_su2_rank3_image(c: SU2Rank3Coords, tol: float = DEFAULT_TOL) -> RegionVerdict:
    """Four sigma-conditions of the rank-3 image, each in [0, 1]."""
    sig = {
        "sigma_12": sigma3(c.a1, c.a2, c.a12),
        "sigma_13": sigma3(c.a1, c.a3, c.a13),
        "sigma_23": sigma3(c.a2, c.a3, c.a23),
        "sigma_off": sigma3(c.a12, c.a13, c.a23),
    }
    margins = dict(sig)
    for name, v in sig.items():
        margins[name.replace("sigma", "cap")] = 1.0 - v
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
    t = su3_traces(rho, tol)  # validates the pair
    u5 = float(t.t5.imag)
    if abs(u5) <= tol:
        return "B_zero"
    return "B_plus" if u5 > 0 else "B_minus"


def product_condition(rho: RepTuple, tol: float = DEFAULT_TOL) -> RegionVerdict:
    """Eigenvalue gaps of X1 and the cyclic-minor difference of conjugated X2.

    After unitarily diagonalizing X1 and conjugating X2 accordingly, reports
    min_{i<j} |lambda_i - lambda_j| and |x12 x23 x31 - x13 x21 x32|; inside
    means both exceed tol (X1 interior to the alcove, pair in the product
    chart).  Both margins are invariant under the residual torus action.
    """
    if rho.n != 3 or rho.r != 2 or rho.descriptor.family != "SU":
        raise NotInGroup("product_condition expects an SU(3) pair")
    require_valid(rho, max(tol, 1e-8))
    vals, v = unitary_eig(rho[0])
    y = v.conj().T @ rho[1] @ v
    gaps = [abs(vals[i] - vals[j]) for i in range(3) for j in range(i + 1, 3)]
    cyc = abs(y[0, 1] * y[1, 2] * y[2, 0] - y[0, 2] * y[1, 0] * y[2, 1])
    margins = {"eig_gap": float(min(gaps)), "cyclic_minor": float(cyc)}
    inside = margins["eig_gap"] > tol and margins["cyclic_minor"] > tol
    return _verdict(margins, inside, tol)


# --- Weyl alcove -------------------------------------------------------------


@dataclass(frozen=True)
class AlcovePoint:
    """Eigen-angles, descending, summing to 0, with spread lam[0]-lam[-1] <= 1."""

    lam: tuple

    def as_array(self):
        return np.array(self.lam)


def alcove_lambda(k, tol: float = DEFAULT_TOL) -> AlcovePoint:
    """Unique alcove representative of a unitary matrix's eigen-angles.

    Angles are taken in (-1/2, 1/2]; their sum is an integer m (det has unit
    modulus and the determinant of an SU matrix is 1), and shifting the m
    largest angles down by one full turn (or the |m| smallest up) lands in
    the alcove in a single pass.
    """
    k = cmat(k)
    n = k.shape[0]
    if frob(k @ k.conj().T - np.eye(n)) > max(tol, 1e-8):
        raise NotInGroup("alcove_lambda expects a unitary matrix")
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


def su3_alcove_grid(resolution: int):
    """(p1, p2, margin) rows sampling the alcove image of the SU(3) trace.

    The alcove triangle is swept with a degenerate bilinear parametrization
    whose corner rows are exactly the three central elements tau = 3, 3w,
    3w^2, where the quartic margin vanishes.  resolution^2 rows.
    """
    if resolution < 16:
        raise ValueError("resolution must be >= 16")
    a, b, c = _ALCOVE_TRIANGLE
    rows = []
    us = np.linspace(0.0, 1.0, resolution)
    for uu in us:
        for vv in us:
            lam = a + uu * (b - a) + vv * (1.0 - uu) * (c - a)
            tau = np.exp(2j * np.pi * lam).sum()
            rows.append((float(tau.real), float(tau.imag), su3_alcove_quartic(tau)))
    return rows


def su2_tetrahedron_boundary_grid(resolution: int):
    """(a1, a2, a3) samples of the sigma = 0 surface via theta coordinates.

    The four faces of the theta-tetrahedron are swept with corner-including
    barycentric grids; all four non-smooth vertices of the a-surface appear
    exactly.  4*(resolution//2)^2 rows (resolution^2 when even).
    """
    if resolution < 16:
        raise ValueError("resolution must be >= 16")
    m = resolution // 2
    # Faces as theta-triangles (vertices in theta coordinates).
    faces = (
        ((0.0, 0.0, 0.0), (1.0, 0.0, 1.0), (0.0, 1.0, 1.0)),  # th1+th2-th3 = 0
        ((0.0, 0.0, 0.0), (1.0, 1.0, 0.0), (0.0, 1.0, 1.0)),  # th1+th3-th2 = 0
        ((0.0, 0.0, 0.0), (1.0, 1.0, 0.0), (1.0, 0.0, 1.0)),  # th2+th3-th1 = 0
        ((0.0, 1.0, 1.0), (1.0, 0.0, 1.0), (1.0, 1.0, 0.0)),  # th1+th2+th3 = 2
    )
    rows = []
    us = np.linspace(0.0, 1.0, m)
    for pa, pb, pc in faces:
        pa, pb, pc = np.array(pa), np.array(pb), np.array(pc)
        for uu in us:
            for vv in us:
                th = pa + uu * (pb - pa) + vv * (1.0 - uu) * (pc - pa)
                a = np.cos(np.pi * th)
                rows.append((float(a[0]), float(a[1]), float(a[2])))
    return rows


def region_grid(name: str, resolution: int):
    if name == "su3-alcove":
        return ["p1", "p2", "margin"], su3_alcove_grid(resolution)
    if name == "su2-tetrahedron-boundary":
        return ["a1", "a2", "a3"], su2_tetrahedron_boundary_grid(resolution)
    raise UnknownRegion(f"unknown region {name!r}")
