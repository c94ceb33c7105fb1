"""Batch verification suites.

The heavy 1e5-sample checks draw each stack as one normal block, mapped by
``haar_from_normals`` or ``sl_from_normals``, and evaluate the batch formulas
of ``charvar.invariants`` on it.  The acceptance bounds are fixed constants.
Each ``verify_*`` suite takes a sample count and a generator and returns
``(passed, checks, meta)``; ``run_suite`` seeds the generator, times the call
and builds the JSON-ready report: the suite name, the ``passed`` flag, the
elapsed wall time, the meta sizes, the seed and the per-check values.
"""

from __future__ import annotations

import time

import numpy as np

from .linalg import dagger, exp_herm, haar_from_normals, haar_su, unitary_det
from .groups import RepTuple, hermitian_from_normals, in_group, quaternion_matrix, sl, sl_from_normals, su
from .invariants import (
    fricke_rhs,
    pq,
    pq_from_traces,
    relation_residual,
    sigma3,
    su2_a_coords,
    su2_commutator_re,
    su3_alcove_quartic,
    su3_delta,
    su3_disc,
    su3_minors,
    su3_trace_coords,
    su3_traces,
    u_coords,
    u_from_traces,
    word_traces,
)
from .kempfness import _commutators, _residual_norm, flow_matrices, functional_values, residual_matrix
from .poincare import baird_poly, surface_counterexample_polys
from .reconstruct import conjugacy_decisions, rank2_lift_matrices, rank3_lift_matrices
from .retraction import retract_path
from .semialgebraic import (
    ALCOVE_CORNERS,
    MIN_RESOLUTION,
    TETRAHEDRON_VERTICES,
    su2_tetrahedron_boundary_grid,
    su3_alcove_grid,
)

U_BOX = (-1.5, 3.0)
U5_BOX = 3.0 * np.sqrt(3.0) / 2.0


def canonical_su3_example() -> RepTuple:
    """The cyclic-permutation / central-diagonal SU(3) pair.

    Eight vanishing trace coordinates, commutator e^{2 pi i/3} I, so
    u5 = 3 sqrt(3)/2 and P^2 - 4Q = -27.
    """
    w = np.exp(2j * np.pi / 3.0)
    x1 = np.array([[0, 1, 0], [0, 0, 1], [1, 0, 0]], dtype=complex)
    x2 = np.diag([w, np.conj(w), 1.0])
    return RepTuple(su(3), (x1, x2))


def _haar_pairs(n: int, count: int, rng) -> np.ndarray:
    """count Haar pairs stacked as (count, 2, n, n); all first factors are drawn first."""
    return np.stack([haar_su(n, rng, count), haar_su(n, rng, count)], axis=1)


def _max_frob(x) -> float:
    """Largest Frobenius norm among the matrices of a stack, 0 on an empty one."""
    return float(np.linalg.norm(x, axis=(-2, -1)).max(initial=0.0))


# --- criterion 1 -------------------------------------------------------------


def verify_retraction(samples: int, rng: np.random.Generator) -> tuple[bool, dict, dict]:
    """phi_1 lands in SU, phi is K-equivariant, and fixes SU tuples.  Each sample
    is an SL pair, then a Haar conjugator: one (samples, 5, 2, n, n) draw per n.
    Each stack's path over every t is one ``retract_path`` call, one SVD."""
    ts = (0.0, 0.25, 0.5, 0.75, 1.0)
    worst_unitary = 0.0
    worst_equiv = 0.0
    worst_fix = 0.0
    for n in (2, 3):
        z = rng.standard_normal((samples, 5, 2, n, n))
        x = sl_from_normals(z[:, :4].reshape(samples, 2, 2, 2, n, n))
        k = haar_from_normals(z[:, 4:])
        kinv = np.linalg.inv(k)
        conj = in_group(k @ x @ kinv, sl(n))
        for t, ret, lhs in zip(ts, retract_path(x, ts), retract_path(conj, ts)):
            d = su(n) if t == 1.0 else sl(n)
            ret, lhs = in_group(ret, d), in_group(lhs, d)
            rhs = in_group(k @ ret @ kinv, sl(n))
            worst_equiv = max(worst_equiv, _max_frob(lhs - rhs))
            if t == 1.0:
                worst_unitary = max(
                    worst_unitary,
                    _max_frob(ret @ dagger(ret) - np.eye(n)),
                    float(np.abs(unitary_det(ret) - 1.0).max(initial=0.0)),
                )
        ku = in_group(haar_su(n, rng, 40).reshape(20, 2, n, n), su(n))
        for fixed in retract_path(ku, ts):
            worst_fix = max(worst_fix, _max_frob(in_group(fixed, su(n)) - ku))
    checks = {
        "max_unitary_defect_at_t1": worst_unitary,
        "max_equivariance_residual": worst_equiv,
        "max_su_fix_residual": worst_fix,
    }
    passed = worst_unitary < 1e-10 and worst_equiv < 1e-9 and worst_fix < 1e-12
    return passed, checks, {"samples": samples}


# --- criterion 2 -------------------------------------------------------------


def verify_fricke(samples: int, rng: np.random.Generator) -> tuple[bool, dict, dict]:
    x = _haar_pairs(2, samples, rng)
    lhs = su2_commutator_re(x)
    rhs = fricke_rhs(*su2_a_coords(x).T)
    worst = float(np.max(np.abs(lhs - rhs)))
    return worst < 1e-12, {"max_identity_residual": worst}, {"samples": samples}


# --- criterion 3 -------------------------------------------------------------


def sample_admissible_rank2(count: int, rng) -> np.ndarray:
    """Uniform rejection samples (count, 3) of (a1, a2, a3) with sigma in [0, 1]."""
    out = np.empty((0, 3))
    while len(out) < count:
        a = rng.uniform(-1.0, 1.0, size=(4 * count, 3))
        s = sigma3(*a.T)
        out = np.concatenate([out, a[(s >= 0.0) & (s <= 1.0)][: count - len(out)]])
    return out


def verify_sigma_ball(samples: int, rng: np.random.Generator) -> tuple[bool, dict, dict]:
    s = sigma3(*su2_a_coords(_haar_pairs(2, samples, rng)).T)
    sig_min, sig_max = float(s.min()), float(s.max())

    lifts = max(1000, samples // 10)
    c = sample_admissible_rank2(lifts, rng)
    back = su2_a_coords(in_group(rank2_lift_matrices(c), su(2)))
    worst_rt = float(np.abs(back - c).max(initial=0.0))
    checks = {
        "sigma_min": sig_min,
        "sigma_max": sig_max,
        "lift_round_trip_max": worst_rt,
        "lift_samples": lifts,
    }
    passed = sig_min >= -1e-9 and sig_max <= 1 + 1e-9 and worst_rt < 1e-10
    return passed, checks, {"samples": samples}


# --- criterion 4 -------------------------------------------------------------


def coplanar_su2_triples(count: int, rng) -> np.ndarray:
    """count triples (count, 3, 2, 2) whose quaternion imaginary parts share the
    (i, k)-plane: t123 = 0.  Each matrix draws its polar then its azimuthal angle."""
    phi_a, psi = np.moveaxis(rng.uniform((0.2, 0.0), (np.pi - 0.2, 2 * np.pi), size=(count, 3, 2)), -1, 0)
    s = np.sin(phi_a)
    return quaternion_matrix(np.cos(phi_a), s * np.cos(psi), 0.0, s * np.sin(psi))


def verify_two_sheet(samples: int, rng: np.random.Generator) -> tuple[bool, dict, dict]:
    """Lift every sampled triple on both sheets, round-trip the lifts, and
    decide every distinct sheet pair; all on stacks."""
    coords = su2_a_coords(in_group(haar_su(2, rng, 3 * samples).reshape(samples, 3, 2, 2), su(2)))
    x, t123, unique = rank3_lift_matrices(coords)
    x = in_group(x, su(2))
    err = np.abs(su2_a_coords(x) - coords[:, None]).max(axis=-1).min(axis=-1)
    worst_rt = float(err.max(initial=0.0))
    distinct = ~unique & (t123 > 1e-4)
    k, _ = conjugacy_decisions(x[distinct, 0], x[distinct, 1])
    sheet_failures = sum(ki is not None for ki in k)

    plane = in_group(coplanar_su2_triples(100, rng), su(2))
    x = in_group(rank3_lift_matrices(su2_a_coords(plane))[0], su(2))
    k, err = conjugacy_decisions(x[:, 0], x[:, 1], tol=1e-9)
    degen_worst = float(np.where([ki is None for ki in k], np.inf, err).max())
    checks = {
        "round_trip_max": worst_rt,
        "distinct_sheet_pairs_checked": int(distinct.sum()),
        "conjugate_sheet_failures": sheet_failures,
        "coplanar_conjugacy_residual": degen_worst,
    }
    passed = worst_rt < 1e-9 and sheet_failures == 0 and degen_worst < 1e-8
    return passed, checks, {"samples": samples}


# --- criterion 5 -------------------------------------------------------------


def verify_su3_membership(samples: int, rng: np.random.Generator) -> tuple[bool, dict, dict]:
    t = su3_trace_coords(_haar_pairs(3, samples, rng))
    # Unitary input: the imaginary parts of P, Q and u are rounding.
    worst_quartic = float(su3_alcove_quartic(t[:, 0:8:2]).max())
    P, Q = (v.real for v in pq_from_traces(t))
    worst_delta = float(su3_delta(P, Q).max())
    u = u_from_traces(t).real
    u_lo, u_hi = float(u[:, 0:8:2].min()), float(u[:, 0:8:2].max())
    um_lo, um_hi = float(u[:, 1:8:2].min()), float(u[:, 1:8:2].max())
    u5 = u[:, 8]
    checks = {
        "max_single_factor_quartic": worst_quartic,
        "max_delta": worst_delta,
        "u_range": [u_lo, u_hi],
        "u_minus_range": [um_lo, um_hi],
        "u5_range": [float(u5.min()), float(u5.max())],
    }
    passed = (
        worst_quartic <= 1e-9
        and worst_delta <= 1e-9
        and u_lo >= U_BOX[0] - 1e-9
        and u_hi <= U_BOX[1] + 1e-9
        and um_lo >= -U5_BOX - 1e-9
        and um_hi <= U5_BOX + 1e-9
        and abs(u5).max() <= U5_BOX + 1e-9
    )
    return passed, checks, {"samples": samples}


# --- criterion 6 -------------------------------------------------------------


def verify_su3_example(samples: int, rng: np.random.Generator) -> tuple[bool, dict, dict]:
    rho = canonical_su3_example()
    t = su3_traces(rho)
    u = u_coords(t, unitary=True)
    rec = pq(t, unitary=True)
    eight = max(abs(v) for v in u.as_list()[:8])
    u5_err = abs(u.u5 - U5_BOX)
    disc_err = abs(su3_disc(rec.P, rec.Q) + 27.0)
    delta = su3_delta(rec.P, rec.Q)
    checks = {
        "max_first_eight_u": float(eight),
        "u5_minus_3sqrt3_over_2": float(u5_err),
        "disc_plus_27": float(disc_err),
        "delta": float(delta),
    }
    passed = eight < 1e-12 and u5_err < 1e-12 and disc_err < 1e-12 and abs(delta) < 1e-12
    return passed, checks, {}


# --- criterion 7 -------------------------------------------------------------


def verify_transpose(samples: int, rng: np.random.Generator) -> tuple[bool, dict, dict]:
    x = _haar_pairs(3, samples, rng)
    u = u_from_traces(su3_trace_coords(x)).real
    ut = u_from_traces(su3_trace_coords(np.swapaxes(x, -1, -2))).real
    worst_eight = float(np.max(np.abs(u[:, :8] - ut[:, :8])))
    worst_u5 = float(np.max(np.abs(u[:, 8] + ut[:, 8])))
    checks = {"max_first_eight_change": worst_eight, "max_u5_sum": worst_u5}
    passed = worst_eight < 1e-10 and worst_u5 < 1e-10
    return passed, checks, {"samples": samples}


# --- criterion 8 -------------------------------------------------------------


def random_sl3(count: int, rng) -> np.ndarray:
    """count Ginibre matrices (count, 3, 3), each scaled by a principal cube
    root of its determinant.  A draw with |det| <= 1e-6 is replaced by the
    next one in the stream, as drawing one matrix at a time would."""
    out = np.empty((0, 3, 3), dtype=complex)
    while len(out) < count:
        z = rng.standard_normal((count - len(out), 2, 3, 3))
        a = z[:, 0] + 1j * z[:, 1]
        d = np.linalg.det(a)
        keep = np.abs(d) > 1e-6
        out = np.concatenate([out, a[keep] / (d[keep] ** (1.0 / 3.0))[:, None, None]])
    return out


def verify_minors(samples: int, rng: np.random.Generator) -> tuple[bool, dict, dict]:
    worst = float(np.abs(relation_residual(su3_minors(random_sl3(samples, rng)))).max(initial=0.0))
    at_identity = relation_residual(su3_minors(np.eye(3)))
    checks = {"max_residual": worst, "identity_residual": abs(at_identity)}
    passed = worst < 1e-9 and at_identity == 0
    return passed, checks, {"samples": samples}


# --- criterion 9 -------------------------------------------------------------


def _fd_worst(rng) -> float:
    """Central-difference directional derivatives of the functional against
    2 Re tr(H M): the largest relative error over 50 samples per n, each an
    SL pair and a direction H.  Per n, one block of the pairs' normals, then
    one of the H's."""
    h = 1e-5
    worst = 0.0
    for n in (2, 3):
        x = in_group(sl_from_normals(rng.standard_normal((50, 2, 2, 2, n, n))), sl(n))
        H = hermitian_from_normals(rng.standard_normal((50, 2, n, n)))
        e_plus, e_minus = exp_herm(H, h)[:, None], exp_herm(H, -h)[:, None]
        fd = functional_values(in_group(e_plus @ x @ e_minus, sl(n)))
        fd = (fd - functional_values(in_group(e_minus @ x @ e_plus, sl(n)))) / (2.0 * h)
        exact = 2.0 * np.trace(H @ residual_matrix(x), axis1=-2, axis2=-1).real
        worst = max(worst, float(np.max(abs(fd - exact) / np.maximum(abs(exact), 1e-12))))
    return worst


def _flow_checks(flows: int, rng) -> tuple:
    """Flows from conjugated-unitary pairs g k g^-1: the largest functional gap
    to 2n, the largest trace-word drift and the count not converged.  Flow i
    has n = 2 for even i and n = 3 for odd i; per n, one block of the g's
    normals, then one of the k's, and one flow_matrices call."""
    worst_p = worst_word = 0.0
    not_converged = 0
    for j, n in enumerate((2, 3)):
        count = len(range(j, flows, 2))
        g = sl_from_normals(rng.standard_normal((count, 2, 2, n, n)))
        k = haar_from_normals(rng.standard_normal((count, 2, 2, n, n)))
        x = in_group(g[:, None] @ k @ np.linalg.inv(g)[:, None], sl(n))
        out, traces = flow_matrices(x)
        for trace in traces:
            not_converged += not trace.converged
            worst_p = max(worst_p, abs(trace.steps[-1].p - 2 * n))
        before, after = word_traces(np.stack([x, out]))
        worst_word = max(worst_word, float(np.abs(after - before).max()))
    return worst_p, worst_word, not_converged


def verify_kempf_ness(samples: int, rng: np.random.Generator) -> tuple[bool, dict, dict]:
    # K-points are critical.  Sample i has case i % 3; per case, one block of
    # Haar (r, 2, n, n) normals.
    worst_res = 0.0
    for j, (n, r) in enumerate(((2, 2), (2, 3), (3, 2))):
        z = rng.standard_normal((len(range(j, samples, 3)), r, 2, n, n))
        _, h = _commutators(in_group(haar_from_normals(z), su(n)))
        worst_res = max(worst_res, float(_residual_norm(h).max(initial=0.0)))
    worst_fd = _fd_worst(rng)
    flows = max(10, samples // 100)
    worst_p, worst_word, not_converged = _flow_checks(flows, rng)
    checks = {
        "max_unitary_residual": worst_res,
        "max_fd_relative_error": worst_fd,
        "max_functional_gap": worst_p,
        "max_trace_word_drift": worst_word,
        "flows": flows,
        "flows_not_converged": not_converged,
    }
    passed = (
        worst_res < 1e-12
        and worst_fd < 1e-3
        and worst_p < 1e-6
        and worst_word < 1e-8
        and not_converged == 0
    )
    return passed, checks, {"samples": samples}


# --- criterion 10 ------------------------------------------------------------


def verify_baird(samples: int, rng: np.random.Generator) -> tuple[bool, dict, dict]:
    rmax = max(3, samples)
    polys = {}
    ok = True
    for r in range(1, rmax + 1):
        p = baird_poly(r)  # raises NonPolynomial on any remainder
        polys[r] = list(p.coefficients)
        ok = ok and p.coefficients[0] == 1 and all(c >= 0 for c in p.coefficients)
    ok = ok and polys[1] == [1] and polys[2] == [1]
    ok = ok and polys[3] == [1, 0, 0, 0, 0, 0, 1]
    bundles, higgs, differ = surface_counterexample_polys()
    cb, ch = list(bundles.coefficients) + [0] * 7, list(higgs.coefficients) + [0] * 7
    diffs_ok = (
        differ
        and cb[4] == 1 and ch[4] == 2
        and cb[5] == 0 and ch[5] == 34
        and cb[6] == 1 and ch[6] == 2
        and cb[:4] == ch[:4]
    )
    checks = {
        "polys": polys,
        "surface_polys_differ_at_t4_t5_t6": diffs_ok,
    }
    return ok and diffs_ok, checks, {"rmax": rmax}


# --- criterion 11 ------------------------------------------------------------


def verify_figures(samples: int, rng: np.random.Generator) -> tuple[bool, dict, dict]:
    resolution = max(MIN_RESOLUTION, samples)
    p1, p2, margin = su3_alcove_grid(resolution).T
    corner_margins = []
    for corner in ALCOVE_CORNERS:
        hits = np.abs(margin[np.hypot(p1 - corner.real, p2 - corner.imag) < 1e-12])
        corner_margins.append(hits.min(initial=np.inf))
    tet = su2_tetrahedron_boundary_grid(resolution)
    vertices_present = all(np.any(np.all(tet == v, axis=-1)) for v in TETRAHEDRON_VERTICES)
    checks = {
        "alcove_corner_margins": [float(x) for x in corner_margins],
        "tetrahedron_vertices_exact": vertices_present,
        "alcove_rows": len(margin),
        "tetrahedron_rows": len(tet),
    }
    passed = all(m < 1e-9 for m in corner_margins) and vertices_present
    return passed, checks, {"resolution": resolution}


SUITES = {
    "retraction": (verify_retraction, 1000),
    "fricke": (verify_fricke, 10_000),
    "sigma-ball": (verify_sigma_ball, 100_000),
    "two-sheet": (verify_two_sheet, 10_000),
    "su3-membership": (verify_su3_membership, 100_000),
    "su3-example": (verify_su3_example, 1),
    "transpose": (verify_transpose, 10_000),
    "minors": (verify_minors, 10_000),
    "kempf-ness": (verify_kempf_ness, 10_000),
    "baird": (verify_baird, 10),
    "figures": (verify_figures, 64),
}

# The suites whose size is no Monte Carlo count, with the report key of that size.
SIZED = {"su3-example": None, "baird": "rmax", "figures": "resolution"}


def run_suite(name: str, samples: int | None = None, seed: int = 0) -> dict:
    """Run one suite on ``default_rng(seed)`` and report it; ``samples=None``
    takes the suite's default from ``SUITES``."""
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    fn, default_samples = SUITES[name]
    samples = default_samples if samples is None else samples
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    t0 = time.perf_counter()
    passed, checks, meta = fn(samples, np.random.default_rng(seed))
    head = {"suite": name, "passed": bool(passed), "elapsed_s": round(time.perf_counter() - t0, 3)}
    return {**head, **meta, "seed": seed, "checks": checks}
