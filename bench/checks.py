"""Output checkers, computed with numpy apart from charvar.

Each checker raises ``CheckError`` with a reason when an output is wrong
and returns None otherwise.  They compare against quantities recomputed
here from the inputs, or against properties the method must have, never
against stored outputs of the program.
"""

from __future__ import annotations

from itertools import product

import numpy as np

FLOW_TOL = 1e-8  # charvar's default Kempf-Ness residual tolerance
WORD_RTOL = 1e-8
ROUND_TRIP_TOL = 1e-9
CONJ_TOL = 1e-8
GROUP_TOL = 1e-9
COORD_TOL = 1e-10
U_BOX = (-1.5, 3.0)
U5_BOX = 3.0 * np.sqrt(3.0) / 2.0


class CheckError(AssertionError):
    """A program output failed an independent check."""


def require(cond, msg: str) -> None:
    if not cond:
        raise CheckError(msg)


# --- reference computations --------------------------------------------------


def tr(a) -> complex:
    return complex(np.trace(a))


def word_traces(mats, max_len: int = 3) -> dict:
    """Trace of every word of length 1..max_len, keyed like charvar's Word."""
    letters = []
    for g, m in enumerate(mats, start=1):
        letters.append((f"x{g}", m))
        letters.append((f"x{g}^-1", np.linalg.inv(m)))
    out = {}
    for length in range(1, max_len + 1):
        for combo in product(letters, repeat=length):
            prod = combo[0][1]
            for _, m in combo[1:]:
                prod = prod @ m
            out[" ".join(name for name, _ in combo)] = tr(prod)
    return out


def moment_norm(mats) -> float:
    """Frobenius norm of sum_i [X_i, X_i*]."""
    m = sum(x @ x.conj().T - x.conj().T @ x for x in mats)
    return float(np.linalg.norm(m))


def sigma3(x, y, z):
    return 1.0 - x * x - y * y - z * z + 2.0 * x * y * z


def alcove_quartic(tau: complex) -> float:
    return abs(tau) ** 4 - 8.0 * (tau**3).real + 18.0 * abs(tau) ** 2 - 27.0


def su2_coords(mats) -> np.ndarray:
    """(a1, a2, a3) for pairs, (a1, a2, a3, a12, a13, a23) for triples."""
    a = [tr(x).real / 2.0 for x in mats]
    if len(mats) == 2:
        return np.array(a + [tr(mats[0].conj().T @ mats[1]).real / 2.0])
    x1, x2, x3 = mats
    pair = [tr(p.conj().T @ q).real / 2.0 for p, q in ((x1, x2), (x1, x3), (x2, x3))]
    return np.array(a + pair)


def su2_rank3_extra(c) -> dict:
    a1, a2, a3, a12, a13, a23 = c
    r = np.array(
        [
            [1 - a1 * a1, a12 - a1 * a2, a13 - a1 * a3],
            [a12 - a1 * a2, 1 - a2 * a2, a23 - a2 * a3],
            [a13 - a1 * a3, a23 - a2 * a3, 1 - a3 * a3],
        ]
    )
    den = r[0, 0] * r[1, 1] * r[2, 2]
    return {
        "s12": sigma3(a1, a2, a12),
        "s13": sigma3(a1, a3, a13),
        "s23": sigma3(a2, a3, a23),
        "t123": np.linalg.det(r) / den if abs(den) > 1e-9 else 0.0,
    }


def su3_record(mats) -> dict:
    """The ten traces, u-coordinates, P, Q, disc and Delta of an SU(3) pair."""
    x1, x2 = mats
    i1, i2 = x1.conj().T, x2.conj().T
    t = {
        1: tr(x1), -1: tr(i1), 2: tr(x2), -2: tr(i2),
        3: tr(x1 @ x2), -3: tr(i1 @ i2), 4: tr(x1 @ i2), -4: tr(i1 @ x2),
        5: tr(x1 @ x2 @ i1 @ i2), -5: tr(x2 @ x1 @ i2 @ i1),
    }
    rec = {}
    for k in (1, 2, 3, 4, 5):
        rec[f"t{k}"], rec[f"tm{k}"] = t[k], t[-k]
    for k in (1, 2, 3, 4):
        rec[f"u{k}"] = ((t[k] + t[-k]) / 2).real
        rec[f"um{k}"] = ((t[k] - t[-k]) / 2j).real
    rec["u5"] = t[5].imag
    P = 2.0 * t[5].real
    Q = abs(t[5]) ** 2
    rec["P"], rec["Q"] = P, Q
    rec["disc"] = P * P - 4.0 * Q
    rec["Delta"] = Q**2 + 12 * P * Q + 18 * Q - 4 * P**3 - 27
    rec["taus"] = [t[k] for k in (1, 2, 3, 4)]
    return rec


def quaternion_im(x) -> np.ndarray:
    """(b, c, d) of X = [[a + bi, c + di], [-c + di, a - bi]]."""
    return np.array([x[0, 0].imag, x[0, 1].real, x[0, 1].imag])


def sheet_orientation(mats) -> float:
    """Triple product of the quaternion imaginary parts; SU(2)-conjugation invariant."""
    return float(np.linalg.det(np.stack([quaternion_im(x) for x in mats])))


# --- group membership --------------------------------------------------------


def check_special_unitary(mats, what: str, tol: float = GROUP_TOL) -> None:
    for i, x in enumerate(mats):
        n = x.shape[0]
        require(
            np.linalg.norm(x @ x.conj().T - np.eye(n)) <= tol,
            f"{what}[{i}] is not unitary within {tol:g}",
        )
        require(abs(np.linalg.det(x) - 1.0) <= tol, f"{what}[{i}] has det != 1 within {tol:g}")


def _close(a, b, tol, what):
    require(abs(complex(a) - complex(b)) <= tol, f"{what}: {a!r} vs recomputed {b!r}")


# --- verify suites -----------------------------------------------------------

# The acceptance bounds of the eleven criteria, re-applied to each report's
# check values (transcribed from the criteria, not read from charvar).


def _below(checks, key, bound):
    require(checks[key] < bound, f"{key}={checks[key]!r} not < {bound:g}")


def _range_within(checks, key, lo, hi):
    a, b = checks[key]
    require(lo <= a and b <= hi, f"{key}={checks[key]!r} leaves [{lo}, {hi}]")


def check_suite_report(name: str, samples: int, rep: dict) -> None:
    require(rep.get("suite") == name, f"report names suite {rep.get('suite')!r}")
    require(rep.get("passed") is True, f"suite {name} reports passed={rep.get('passed')!r}")
    c = rep["checks"]
    if name not in ("su3-example", "baird", "figures"):
        require(rep.get("samples") == samples, f"{name}: samples={rep.get('samples')} != {samples}")
    if name == "retraction":
        _below(c, "max_unitary_defect_at_t1", 1e-10)
        _below(c, "max_equivariance_residual", 1e-9)
        _below(c, "max_su_fix_residual", 1e-12)
    elif name == "fricke":
        _below(c, "max_identity_residual", 1e-12)
    elif name == "sigma-ball":
        require(c["sigma_min"] >= -1e-9 and c["sigma_max"] <= 1 + 1e-9, "sigma leaves [0, 1]")
        _below(c, "lift_round_trip_max", 1e-10)
        require(c["lift_samples"] == max(1000, samples // 10), "sigma-ball lift count")
    elif name == "two-sheet":
        _below(c, "round_trip_max", 1e-9)
        require(c["conjugate_sheet_failures"] == 0, "two sheets found conjugate")
        require(c["distinct_sheet_pairs_checked"] > 0, "no distinct sheet pair checked")
        _below(c, "coplanar_conjugacy_residual", 1e-8)
    elif name == "su3-membership":
        require(c["max_single_factor_quartic"] <= 1e-9, "single-factor quartic > 0")
        require(c["max_delta"] <= 1e-9, "Delta > 0")
        _range_within(c, "u_range", U_BOX[0] - 1e-9, U_BOX[1] + 1e-9)
        _range_within(c, "u_minus_range", -U5_BOX - 1e-9, U5_BOX + 1e-9)
        _range_within(c, "u5_range", -U5_BOX - 1e-9, U5_BOX + 1e-9)
    elif name == "su3-example":
        for key in ("max_first_eight_u", "u5_minus_3sqrt3_over_2", "disc_plus_27"):
            _below(c, key, 1e-12)
        require(abs(c["delta"]) < 1e-12, "su3-example Delta != 0")
    elif name == "transpose":
        _below(c, "max_first_eight_change", 1e-10)
        _below(c, "max_u5_sum", 1e-10)
    elif name == "minors":
        _below(c, "max_residual", 1e-9)
        require(c["identity_residual"] == 0, "minors relation nonzero at identity")
    elif name == "kempf-ness":
        _below(c, "max_unitary_residual", 1e-12)
        _below(c, "max_fd_relative_error", 1e-3)
        _below(c, "max_functional_gap", 1e-6)
        _below(c, "max_trace_word_drift", 1e-8)
        require(c["flows"] == max(10, samples // 100), "kempf-ness flow count")
        require(c["flows_not_converged"] == 0, "a kempf-ness flow did not converge")
    elif name == "baird":
        rmax = max(3, samples)
        require(rep.get("rmax") == rmax, f"baird rmax={rep.get('rmax')} != {rmax}")
        polys = {int(r): list(p) for r, p in c["polys"].items()}
        require(sorted(polys) == list(range(1, rmax + 1)), "baird ranks missing")
        for r, p in polys.items():
            require(p[0] == 1 and all(x >= 0 for x in p), f"baird r={r}: {p}")
        require(polys[1] == [1] and polys[2] == [1], "baird r=1,2 are not 1")
        require(polys[3] == [1, 0, 0, 0, 0, 0, 1], f"baird r=3 is {polys[3]}, not 1 + t^6")
        require(c["surface_polys_differ_at_t4_t5_t6"] is True, "surface polynomials")
    elif name == "figures":
        require(rep.get("resolution") == max(16, samples), "figures resolution")
        require(all(m < 1e-9 for m in c["alcove_corner_margins"]), "alcove corner margin")
        require(c["tetrahedron_vertices_exact"] is True, "tetrahedron vertices missing")
    else:
        raise CheckError(f"unknown suite {name!r}")


# --- Kempf-Ness flow and the composite map -----------------------------------


def check_words_kept(before: dict, after: dict, what: str) -> None:
    for w, t0 in before.items():
        require(
            abs(after[w] - t0) <= WORD_RTOL * max(1.0, abs(t0)),
            f"{what}: trace of {w} moved from {t0!r} to {after[w]!r}",
        )


def check_closed_flow(inp, out, converged: bool) -> None:
    """Flow on a closed orbit: converged, balanced, trace words kept."""
    require(converged is True, "closed-orbit flow reports converged=False")
    res = moment_norm(out)
    require(res <= FLOW_TOL * (1 + 1e-6), f"moment residual {res:.3e} > {FLOW_TOL:g}")
    check_words_kept(word_traces(inp), word_traces(out), "flow")


def check_nonclosed_flow(inp, out, converged: bool) -> None:
    require(converged is False, "non-closed orbit reports converged=True")
    check_words_kept(word_traces(inp), word_traces(out), "non-closed flow")


def check_record(mats, rec: dict) -> None:
    """Invariant record of a unitary tuple against numpy traces, plus image inequalities."""
    n, r = mats[0].shape[0], len(mats)
    if n == 2:
        c = su2_coords(mats)
        names = ("a1", "a2", "a3") if r == 2 else ("a1", "a2", "a3", "a12", "a13", "a23")
        for key, v in zip(names, c):
            _close(rec[key], v, COORD_TOL, key)
        if r == 2:
            s = sigma3(*c)
            _close(rec["sigma"], s, COORD_TOL, "sigma")
            require(-GROUP_TOL <= s <= 1 + GROUP_TOL, f"sigma={s} leaves [0, 1]")
        else:
            for key, v in su2_rank3_extra(c).items():
                _close(rec[key], v, 1e-8 if key == "t123" else COORD_TOL, key)
            for x, y, z in ((0, 1, 3), (0, 2, 4), (1, 2, 5), (3, 4, 5)):
                s = sigma3(c[x], c[y], c[z])
                require(-GROUP_TOL <= s <= 1 + GROUP_TOL, f"rank-3 sigma={s} leaves [0, 1]")
    elif (n, r) == (3, 2):
        ref = su3_record(mats)
        for key, v in ref.items():
            if key != "taus":
                _close(rec[key], v, COORD_TOL * 100, key)
        for tau in ref["taus"]:
            require(alcove_quartic(tau) <= GROUP_TOL, f"tau={tau} leaves the alcove")
        require(ref["Delta"] <= GROUP_TOL, f"Delta={ref['Delta']} > 0")
    else:
        ref = word_traces(mats)
        require(set(rec) == set(ref), "word-trace record has other words")
        for w, v in ref.items():
            _close(rec[w], v, COORD_TOL * 100, f"trace {w}")
            require(abs(v) <= n + GROUP_TOL, f"|tr {w}| = {abs(v)} > {n}")


def check_verdict(mats, verdict: dict) -> None:
    """Program membership verdict for a unitary tuple must say inside."""
    n, r = mats[0].shape[0], len(mats)
    if (n, r) == (3, 2):
        for k, v in verdict["factor-alcove"].items():
            require(v["inside"] is True, f"{k} outside the alcove")
        u5 = su3_record(mats)["u5"]
        want = "B_zero" if abs(u5) <= 1e-9 else ("B_plus" if u5 > 0 else "B_minus")
        require(verdict["B-class"] == want, f"B-class {verdict['B-class']} != {want}")
        if abs(u5) > 1e-4:  # disc = -4 u5^2 must clear -tol for the strict test
            require(verdict["S-plus"]["inside"] is True, "S-plus verdict is outside")
    else:
        for key, v in verdict.items():
            require(v["inside"] is True, f"{key} verdict is outside")


# --- lifts and conjugacy -----------------------------------------------------


def check_lift(coords, lifted: list, signs: tuple) -> None:
    """Each lifted tuple is SU(2), reproduces ``coords``, and sits on its sheet."""
    require(len(lifted) == len(signs) >= 1, "lift returned no tuple")
    for mats, s in zip(lifted, signs):
        check_special_unitary(mats, "lifted", 1e-12)
        back = su2_coords(mats)
        err = float(np.max(np.abs(back - np.asarray(coords))))
        require(err <= ROUND_TRIP_TOL, f"round trip error {err:.3e} > {ROUND_TRIP_TOL:g}")
    if len(lifted) == 2:
        # Sheet s carries c3 of sign s in the frame b1 > 0, d2 > 0, so its
        # imaginary-part triple product has sign -s.
        for mats, s in zip(lifted, signs):
            o = sheet_orientation(mats)
            require(o * s < 0, f"sheet {s:+d} has triple product {o:+.3e}")


def check_conjugator(k, a, b) -> None:
    require(k is not None, "conjugate inputs returned None")
    check_special_unitary([k], "conjugator", GROUP_TOL)
    err = max(float(np.linalg.norm(k @ x @ k.conj().T - y)) for x, y in zip(a, b))
    require(err <= CONJ_TOL, f"max |k X k* - Y| = {err:.3e} > {CONJ_TOL:g}")


def check_not_conjugate(k) -> None:
    require(k is None, "non-conjugate inputs returned a conjugator")


# --- CLI outputs -------------------------------------------------------------


def tuple_from_wire(obj: dict) -> list:
    return [np.array([[complex(e[0], e[1]) for e in row] for row in m]) for m in obj["matrices"]]


def wire_value(v):
    return complex(v[0], v[1]) if isinstance(v, list) else v


def check_cli_record(mats, rec: dict) -> None:
    check_record(mats, {k: wire_value(v) for k, v in rec.items()})


def check_cli_membership(mats, out: dict) -> None:
    ref = su3_record(mats)
    for k, tau in zip((1, 2, 3, 4), ref["taus"]):
        got = out["factor-alcove"][f"tau_{k}"]["margins"]["alcove"]
        _close(got, alcove_quartic(tau), 1e-9, f"alcove margin tau_{k}")
    check_verdict(mats, out)


def check_region_rows(header, rows) -> None:
    require(header == ["p1", "p2", "margin"], f"region header {header}")
    require(len(rows) > 0, "region has no rows")
    for p1, p2, m in rows:
        q = alcove_quartic(complex(p1, p2))
        require(abs(m - q) <= 1e-9 * max(1.0, abs(q)), f"margin {m} != quartic {q}")
        require(m <= 1e-9, f"alcove grid point with margin {m} > 0")


def check_poincare(out: dict, r: int) -> None:
    want = {3: [1, 0, 0, 0, 0, 0, 1]}[r]
    require(out.get("coefficients") == want, f"poincare r={r}: {out.get('coefficients')} != {want}")
