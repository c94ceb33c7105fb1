"""Batch verification suites.

The heavy 1e5-sample checks draw their Haar samples as stacks and evaluate
the library's batch formulas (``charvar.invariants``) on them, the same code
the scalar operations wrap.  The acceptance bounds are fixed constants.  Every
suite returns a JSON-ready report dict with a ``passed`` flag, per-check
values, and elapsed wall time.
"""

from __future__ import annotations

import time

import numpy as np

from .linalg import dagger, exp_herm, haar_su
from .groups import (
    GROUP_TOL,
    NotInGroup,
    RepTuple,
    quaternion_matrix,
    random_traceless_hermitian,
    sample_tuple,
    sl,
    su,
    validate,
)
from .invariants import (
    SU2Rank2Coords,
    SU2Rank3Coords,
    fricke_rhs,
    pq,
    pq_from_traces,
    relation_residual,
    sigma3,
    su2_a_coords,
    su2_commutator_re,
    su2_rank2_coords,
    su2_rank3_coords,
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
from .kempfness import kn_flow, kn_functional, moment_residual, residual_matrix
from .poincare import baird_poly, surface_counterexample_polys
from .reconstruct import su2_rank2_lift, su2_rank3_lift, unitary_conjugacy
from .retraction import retract_matrices
from .semialgebraic import ALCOVE_CORNERS, TETRAHEDRON_VERTICES, region_grid

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


def _in_group(x, d) -> np.ndarray:
    """The stack x (..., n, n), after one check that every matrix is in the
    group ``d``; raises NotInGroup as building each tuple would."""
    if not np.all(validate(x, d, GROUP_TOL)):
        raise NotInGroup(f"a stacked matrix is not {d}-valued within tol={GROUP_TOL:g}")
    return x


def _max_frob(x) -> float:
    """Largest Frobenius norm among the matrices of a stack, 0 on an empty one."""
    return float(np.linalg.norm(x, axis=(-2, -1)).max(initial=0.0))


def _report(name, passed, elapsed, checks, **meta):
    out = {"suite": name, "passed": bool(passed), "elapsed_s": round(elapsed, 3)}
    out.update(meta)
    out["checks"] = checks
    return out


# --- criterion 1 -------------------------------------------------------------


def verify_retraction(samples: int = 1000, seed: int = 0) -> dict:
    """phi_1 lands in SU, phi is K-equivariant, and fixes SU tuples.

    An SL draw interleaves Haar and Hermitian factors, so the SL tuples and
    their conjugators are drawn one sample at a time; the rest works on stacks.
    """
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    ts = (0.0, 0.25, 0.5, 0.75, 1.0)
    worst_unitary = 0.0
    worst_equiv = 0.0
    worst_fix = 0.0
    for n in (2, 3):
        rhos, ks = [], []
        for _ in range(samples):
            rhos.append(sample_tuple(sl(n), 2, rng).matrices)
            ks.append(haar_su(n, rng))
        x = np.array(rhos).reshape(samples, 2, n, n)
        k = np.array(ks).reshape(samples, 1, n, n)
        kinv = np.linalg.inv(k)
        conj = _in_group(k @ x @ kinv, sl(n))
        for t in ts:
            d = su(n) if t == 1.0 else sl(n)
            ret = _in_group(retract_matrices(x, t), d)
            lhs = _in_group(retract_matrices(conj, t), d)
            rhs = _in_group(k @ ret @ kinv, sl(n))
            worst_equiv = max(worst_equiv, _max_frob(lhs - rhs))
            if t == 1.0:
                worst_unitary = max(
                    worst_unitary,
                    _max_frob(ret @ dagger(ret) - np.eye(n)),
                    float(np.abs(np.linalg.det(ret) - 1.0).max(initial=0.0)),
                )
        ku = _in_group(haar_su(n, rng, 40).reshape(20, 2, n, n), su(n))
        for t in ts:
            fixed = _in_group(retract_matrices(ku, t), su(n))
            worst_fix = max(worst_fix, _max_frob(fixed - ku))
    elapsed = time.perf_counter() - t0
    checks = {
        "max_unitary_defect_at_t1": worst_unitary,
        "max_equivariance_residual": worst_equiv,
        "max_su_fix_residual": worst_fix,
    }
    passed = worst_unitary < 1e-10 and worst_equiv < 1e-9 and worst_fix < 1e-12
    return _report("retraction", passed, elapsed, checks, samples=samples, seed=seed)


# --- criterion 2 -------------------------------------------------------------


def verify_fricke(samples: int = 10_000, seed: int = 0) -> dict:
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    x = _haar_pairs(2, samples, rng)
    lhs = su2_commutator_re(x)
    rhs = fricke_rhs(*su2_a_coords(x).T)
    worst = float(np.max(np.abs(lhs - rhs)))
    elapsed = time.perf_counter() - t0
    return _report(
        "fricke",
        worst < 1e-12,
        elapsed,
        {"max_identity_residual": worst},
        samples=samples,
        seed=seed,
    )


# --- criterion 3 -------------------------------------------------------------


def sample_admissible_rank2(count: int, rng) -> list:
    """Uniform rejection samples of (a1,a2,a3) with sigma in [0,1]."""
    out = []
    while len(out) < count:
        a = rng.uniform(-1.0, 1.0, size=(4 * count, 3))
        s = sigma3(*a.T)
        good = a[(s >= 0.0) & (s <= 1.0)]
        out.extend(good[: count - len(out)])
    return [SU2Rank2Coords(*map(float, row)) for row in out]


def verify_sigma_ball(samples: int = 100_000, seed: int = 0) -> dict:
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    s = sigma3(*su2_a_coords(_haar_pairs(2, samples, rng)).T)
    sig_min, sig_max = float(s.min()), float(s.max())

    lifts = max(1000, samples // 10)
    worst_rt = 0.0
    for c in sample_admissible_rank2(lifts, rng):
        rho = su2_rank2_lift(c).tuples[0]
        back = su2_rank2_coords(rho)
        worst_rt = max(
            worst_rt, float(np.max(np.abs(back.as_array() - c.as_array())))
        )
    elapsed = time.perf_counter() - t0
    checks = {
        "sigma_min": sig_min,
        "sigma_max": sig_max,
        "lift_round_trip_max": worst_rt,
        "lift_samples": lifts,
    }
    passed = sig_min >= -1e-9 and sig_max <= 1 + 1e-9 and worst_rt < 1e-10
    return _report("sigma-ball", passed, elapsed, checks, samples=samples, seed=seed)


# --- criterion 4 -------------------------------------------------------------


def coplanar_su2_triple(rng) -> RepTuple:
    """Triple whose quaternion imaginary parts share the (i, k)-plane: t123 = 0."""
    draws = [(rng.uniform(0.2, np.pi - 0.2), rng.uniform(0.0, 2 * np.pi)) for _ in range(3)]
    phi_a, psi = np.array(draws).T
    s = np.sin(phi_a)
    return RepTuple(su(2), quaternion_matrix(np.cos(phi_a), s * np.cos(psi), 0.0, s * np.sin(psi)))


def verify_two_sheet(samples: int = 10_000, seed: int = 0) -> dict:
    """Lift every sampled triple and compare its sheets; the lifts and sheet
    conjugacy decisions are one per triple, the draws and round trips stacked."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    coords = su2_a_coords(_in_group(haar_su(2, rng, 3 * samples).reshape(samples, 3, 2, 2), su(2)))
    lifted, owner = [], []
    sheet_failures = 0
    checked_sheets = 0
    for i, c in enumerate(coords.tolist()):
        res = su2_rank3_lift(SU2Rank3Coords(*c))
        lifted += [rho.matrices for rho in res.tuples]
        owner += [i] * len(res.tuples)
        if res.t123 is not None and res.t123 > 1e-4 and len(res.tuples) == 2:
            checked_sheets += 1
            if unitary_conjugacy(res.tuples[0], res.tuples[1]) is not None:
                sheet_failures += 1
    err = np.abs(su2_a_coords(np.array(lifted).reshape(-1, 3, 2, 2)) - coords[owner]).max(axis=-1)
    best = np.full(samples, np.inf)
    np.minimum.at(best, owner, err)
    worst_rt = float(best.max(initial=0.0))

    degen_worst = 0.0
    for _ in range(100):
        rho = coplanar_su2_triple(rng)
        c = su2_rank3_coords(rho)
        plus = su2_rank3_lift(c, sign=1).tuples[0]
        minus = su2_rank3_lift(c, sign=-1).tuples[0]
        k = unitary_conjugacy(plus, minus, tol=1e-9)
        if k is None:
            degen_worst = np.inf
        else:
            degen_worst = max(degen_worst, _max_frob(k @ plus.matrices @ dagger(k) - minus.matrices))
    elapsed = time.perf_counter() - t0
    checks = {
        "round_trip_max": worst_rt,
        "distinct_sheet_pairs_checked": checked_sheets,
        "conjugate_sheet_failures": sheet_failures,
        "coplanar_conjugacy_residual": float(degen_worst),
    }
    passed = worst_rt < 1e-9 and sheet_failures == 0 and degen_worst < 1e-8
    return _report("two-sheet", passed, elapsed, checks, samples=samples, seed=seed)


# --- criterion 5 -------------------------------------------------------------


def verify_su3_membership(samples: int = 100_000, seed: int = 0) -> dict:
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    t = su3_trace_coords(_haar_pairs(3, samples, rng))
    # Unitary input: the imaginary parts of P, Q and u are rounding.
    worst_quartic = float(su3_alcove_quartic(t[:, 0:8:2]).max())
    P, Q = (v.real for v in pq_from_traces(t))
    worst_delta = float(su3_delta(P, Q).max())
    u = u_from_traces(t).real
    u_lo, u_hi = float(u[:, 0:8:2].min()), float(u[:, 0:8:2].max())
    um_lo, um_hi = float(u[:, 1:8:2].min()), float(u[:, 1:8:2].max())
    u5 = u[:, 8]
    elapsed = time.perf_counter() - t0
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
    return _report("su3-membership", passed, elapsed, checks, samples=samples, seed=seed)


# --- criterion 6 -------------------------------------------------------------


def verify_su3_example(samples: int = 1, seed: int = 0) -> dict:
    t0 = time.perf_counter()
    rho = canonical_su3_example()
    t = su3_traces(rho)
    u = u_coords(t, unitary=True)
    rec = pq(t, unitary=True)
    eight = max(abs(v) for v in u.as_list()[:8])
    u5_err = abs(u.u5 - U5_BOX)
    disc_err = abs(su3_disc(rec.P, rec.Q) + 27.0)
    delta = su3_delta(rec.P, rec.Q)
    elapsed = time.perf_counter() - t0
    checks = {
        "max_first_eight_u": float(eight),
        "u5_minus_3sqrt3_over_2": float(u5_err),
        "disc_plus_27": float(disc_err),
        "delta": float(delta),
    }
    passed = eight < 1e-12 and u5_err < 1e-12 and disc_err < 1e-12 and abs(delta) < 1e-12
    return _report("su3-example", passed, elapsed, checks, seed=seed)


# --- criterion 7 -------------------------------------------------------------


def verify_transpose(samples: int = 10_000, seed: int = 0) -> dict:
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    x = _haar_pairs(3, samples, rng)
    u = u_from_traces(su3_trace_coords(x)).real
    ut = u_from_traces(su3_trace_coords(np.swapaxes(x, -1, -2))).real
    worst_eight = float(np.max(np.abs(u[:, :8] - ut[:, :8])))
    worst_u5 = float(np.max(np.abs(u[:, 8] + ut[:, 8])))
    elapsed = time.perf_counter() - t0
    checks = {"max_first_eight_change": worst_eight, "max_u5_sum": worst_u5}
    passed = worst_eight < 1e-10 and worst_u5 < 1e-10
    return _report("transpose", passed, elapsed, checks, samples=samples, seed=seed)


# --- criterion 8 -------------------------------------------------------------


def random_sl3(rng) -> np.ndarray:
    """Ginibre matrix scaled by a principal cube root of its determinant."""
    while True:
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        d = np.linalg.det(a)
        if abs(d) > 1e-6:
            return a / d ** (1.0 / 3.0)


def verify_minors(samples: int = 10_000, seed: int = 0) -> dict:
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(samples):
        x = random_sl3(rng)
        worst = max(worst, abs(relation_residual(su3_minors(x))))
    at_identity = relation_residual(su3_minors(np.eye(3)))
    elapsed = time.perf_counter() - t0
    checks = {"max_residual": float(worst), "identity_residual": abs(at_identity)}
    passed = worst < 1e-9 and at_identity == 0
    return _report("minors", passed, elapsed, checks, samples=samples, seed=seed)


# --- criterion 9 -------------------------------------------------------------


def verify_kempf_ness(samples: int = 10_000, seed: int = 0) -> dict:
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)

    # K-points are critical.  The draws cycle through the cases; each case's
    # draws are checked and their residuals computed as one stack.
    cases = ((2, 2), (2, 3), (3, 2))
    draws = {case: [] for case in cases}
    for i in range(samples):
        n, r = cases[i % 3]
        draws[n, r].append(haar_su(n, rng, r))
    worst_res = 0.0
    for (n, r), mats in draws.items():
        m = residual_matrix(_in_group(np.array(mats).reshape(-1, r, n, n), su(n)))
        worst_res = max(worst_res, _max_frob(m))

    # Central-difference directional derivative vs 2 Re tr(H M).
    h = 1e-5
    worst_fd = 0.0
    for _ in range(100):
        n = 2 if rng.uniform() < 0.5 else 3
        rho = sample_tuple(sl(n), 2, rng)
        H = random_traceless_hermitian(n, rng)
        M = moment_residual(rho).M
        e_plus, e_minus = exp_herm(H, h), exp_herm(H, -h)
        p_fwd = kn_functional(RepTuple(sl(n), e_plus @ rho.matrices @ e_minus))
        p_bwd = kn_functional(RepTuple(sl(n), e_minus @ rho.matrices @ e_plus))
        fd = (p_fwd - p_bwd) / (2.0 * h)
        exact = 2.0 * np.trace(H @ M).real
        worst_fd = max(worst_fd, float(abs(fd - exact) / max(abs(exact), 1e-12)))

    # Flows from conjugated-unitary tuples reach the minimum inside the orbit.
    flows = max(10, samples // 100)
    worst_p = 0.0
    worst_word = 0.0
    not_converged = 0
    for i in range(flows):
        n, r = ((2, 2), (3, 2))[i % 2]
        g = sample_tuple(sl(n), 1, rng)[0]
        ks = haar_su(n, rng, r)
        gi = np.linalg.inv(g)
        rho = RepTuple(sl(n), g @ ks @ gi)
        out, trace = kn_flow(rho)
        if not trace.converged:
            not_converged += 1
        worst_p = max(worst_p, abs(trace.steps[-1].p - r * n))
        before, after = word_traces(np.stack([rho.matrices, out.matrices]))
        worst_word = max(worst_word, float(np.abs(after - before).max()))
    elapsed = time.perf_counter() - t0
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
    return _report("kempf-ness", passed, elapsed, checks, samples=samples, seed=seed)


# --- criterion 10 ------------------------------------------------------------


def verify_baird(samples: int = 10, seed: int = 0) -> dict:
    t0 = time.perf_counter()
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
    elapsed = time.perf_counter() - t0
    checks = {
        "polys": polys,
        "surface_polys_differ_at_t4_t5_t6": diffs_ok,
    }
    return _report("baird", ok and diffs_ok, elapsed, checks, rmax=rmax, seed=seed)


# --- criterion 11 ------------------------------------------------------------


def verify_figures(samples: int = 64, seed: int = 0) -> dict:
    t0 = time.perf_counter()
    resolution = max(16, samples)
    _, alcove_rows = region_grid("su3-alcove", resolution)
    corner_margins = []
    for corner in ALCOVE_CORNERS:
        hits = [
            abs(m)
            for (p1, p2, m) in alcove_rows
            if abs(complex(p1, p2) - corner) < 1e-12
        ]
        corner_margins.append(min(hits) if hits else np.inf)
    _, tet_rows = region_grid("su2-tetrahedron-boundary", resolution)
    tet_set = set(tet_rows)
    vertices_present = all(v in tet_set for v in TETRAHEDRON_VERTICES)
    elapsed = time.perf_counter() - t0
    checks = {
        "alcove_corner_margins": [float(x) for x in corner_margins],
        "tetrahedron_vertices_exact": vertices_present,
        "alcove_rows": len(alcove_rows),
        "tetrahedron_rows": len(tet_rows),
    }
    passed = all(m < 1e-9 for m in corner_margins) and vertices_present
    return _report("figures", passed, elapsed, checks, resolution=resolution, seed=seed)


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


def run_suite(name: str, samples: int | None = None, seed: int = 0) -> dict:
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    fn, default_samples = SUITES[name]
    return fn(samples=samples if samples is not None else default_samples, seed=seed)
