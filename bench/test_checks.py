"""Tests of the benchmark's own checkers and a smoke run of each workload.

Run with ``python3 -m pytest bench/test_checks.py``; the repository's test
run collects only ``tests/``.  Each checker gets a correct output, which it
must accept, and a corrupted one, which it must reject.
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import charvar as cv  # noqa: E402
import checks as ck  # noqa: E402
import inputs  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture
def rng():
    return np.random.default_rng(7)


def rejects(fn, *args):
    with pytest.raises(ck.CheckError):
        fn(*args)


def test_conjugator_perturbed(rng):
    x = inputs.haar_tuple(3, 2, rng)
    k = inputs.haar_su(3, rng)
    y = inputs.conjugate(k, x)
    found = cv.unitary_conjugacy(workloads.su(x), workloads.su(y))
    ck.check_conjugator(found, x, y)
    rejects(ck.check_conjugator, found + 1e-6, x, y)
    rejects(ck.check_conjugator, None, x, y)


def test_not_conjugate_returning_k(rng):
    ck.check_not_conjugate(None)
    rejects(ck.check_not_conjugate, np.eye(2))


def test_lift_wrong_sheet_sign(rng):
    while True:
        c = ck.su2_coords(inputs.haar_tuple(2, 3, rng))
        if abs(ck.su2_rank3_extra(c)["t123"]) > 1e-2:
            break
    res = cv.su2_rank3_lift(cv.SU2Rank3Coords(*c))
    lifted = [t.matrices for t in res.tuples]
    assert res.signs == (1, -1)
    ck.check_lift(c, lifted, res.signs)
    rejects(ck.check_lift, c, lifted, (-1, 1))
    rejects(ck.check_lift, c, lifted[::-1], res.signs)
    bad = [lifted[0][0], lifted[0][1], lifted[0][2] * np.exp(1e-7j)]
    rejects(ck.check_lift, c, [bad], (1,))


def test_mirror_is_the_other_sheet(rng):
    x = inputs.haar_tuple(2, 3, rng)
    m = workloads.mirror(x)
    ck.check_special_unitary(m, "mirror", 1e-12)
    assert np.max(np.abs(ck.su2_coords(m) - ck.su2_coords(x))) < 1e-12
    assert ck.sheet_orientation(m) * ck.sheet_orientation(x) < 0


def test_flow_residual(rng):
    rho = workloads.sl(inputs.closed_orbit_tuple(2, 2, 1.0, rng))
    out, trace = cv.kn_flow(rho)
    ck.check_closed_flow(rho.matrices, out.matrices, trace.converged)
    # Move the output off the balanced set by a conjugation: same trace
    # words, residual about 1e-3.
    h = inputs.expm_hermitian(inputs.traceless_hermitian(2, rng, 2e-4))
    skewed = [h @ m @ np.linalg.inv(h) for m in out.matrices]
    assert 1e-4 < ck.moment_norm(skewed) < 1e-2
    rejects(ck.check_closed_flow, rho.matrices, skewed, True)
    rejects(ck.check_closed_flow, rho.matrices, out.matrices, False)
    moved = [out.matrices[0] * np.exp(1e-6j), out.matrices[1]]
    rejects(ck.check_words_kept, ck.word_traces(rho.matrices), ck.word_traces(moved), "flow")


def test_nonclosed_flag():
    x = [np.array([[1.0, 1.0], [0.0, 1.0]]), np.array([[1.0, 2.0], [0.0, 1.0]])]
    ck.check_nonclosed_flow(x, x, False)
    rejects(ck.check_nonclosed_flow, x, x, True)


def test_poincare_off_by_one():
    ck.check_poincare({"r": 3, "coefficients": [1, 0, 0, 0, 0, 0, 1]}, 3)
    rejects(ck.check_poincare, {"r": 3, "coefficients": [1, 0, 0, 0, 0, 0, 2]}, 3)
    rep = cv.verify.run_suite("baird")
    ck.check_suite_report("baird", 10, rep)
    rep["checks"]["polys"][3] = [1, 0, 0, 0, 0, 1, 1]
    rejects(ck.check_suite_report, "baird", 10, rep)


def test_suite_bounds_and_counts():
    rep = cv.verify.run_suite("fricke", samples=50)
    ck.check_suite_report("fricke", 50, rep)
    rejects(ck.check_suite_report, "fricke", 60, rep)
    rep["checks"]["max_identity_residual"] = 1e-11
    rejects(ck.check_suite_report, "fricke", 50, rep)


def test_cli_record_a1_changed(rng):
    mats = inputs.haar_tuple(2, 2, rng)
    rec = json.loads(json.dumps(cv.invariant_record(workloads.su(mats))))
    ck.check_cli_record(mats, rec)
    rec["a1"] += 1e-6
    rejects(ck.check_cli_record, mats, rec)


def test_cli_membership_margin(rng):
    mats = inputs.haar_tuple(3, 2, rng)
    out = workloads.membership(workloads.su(mats), None)
    ck.check_cli_membership(mats, out)
    out["factor-alcove"]["tau_2"]["margins"]["alcove"] += 1e-6
    rejects(ck.check_cli_membership, mats, out)


def test_record_and_verdict(rng):
    for n, r in ((2, 2), (2, 3), (3, 2), (4, 2)):
        ret = workloads.su(inputs.haar_tuple(n, r, rng))
        rec = cv.invariant_record(ret)
        ck.check_record(ret.matrices, rec)
        ck.check_verdict(ret.matrices, workloads.membership(ret, rec))
        key = next(iter(rec))
        rec[key] = rec[key] + 1e-6
        rejects(ck.check_record, ret.matrices, rec)


def test_region_margin():
    header, rows = cv.region_grid("su3-alcove", 16)
    ck.check_region_rows(header, rows)
    rows[5] = (rows[5][0], rows[5][1], rows[5][2] + 1e-6)
    rejects(ck.check_region_rows, header, rows)


def fail_with(exc):
    def fn():
        raise exc

    return fn


def test_recorder_counts_distinct_operations():
    rec = workloads.Recorder()
    for _ in range(3):
        rec.begin("round")
        rec.op(["op"], lambda: 1, lambda out: ck.require(out == 1, "wrong output"))
        rec.op(["op"], fail_with(cv.DegenerateSpectrum("repeated")), expect=(cv.DegenerateSpectrum,))
    assert (rec.attempted, rec.failures(), rec.errors) == (2, {"DegenerateSpectrum": 1}, [])


def test_recorder_rejects_undeclared_failure():
    rec = workloads.Recorder()
    rec.begin("round")
    rec.op(["op"], fail_with(cv.NotInGroup("not unitary")), expect=(cv.DegenerateSpectrum,))
    assert rec.errors and rec.failures() == {}


def test_recorder_rejects_changed_outcome():
    rec = workloads.Recorder()
    for fn in (lambda: 1, fail_with(cv.DegenerateSpectrum("repeated"))):
        rec.begin("round")
        rec.op(["op"], fn, expect=(cv.DegenerateSpectrum,))
    assert rec.errors


def test_speed_scale_follows_nearby_samples():
    sp = speed.Speed()
    sp.at = [float(i) for i in range(40)]
    sp.took = [sp.ref_s] * 20 + [2 * sp.ref_s] * 20  # a slow stretch from t = 20
    assert sp.scale(5.0) == 1.0
    assert sp.scale(35.0) == 0.5
    assert sp.scale(-3.0) == 1.0 and sp.scale(99.0) == 0.5  # before the first, after the last sample


@pytest.mark.parametrize("workload", ["verify-all", "flow-retract", "lift-conjugacy", "cli-pipeline"])
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.strip().split("\n")[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True
    assert res["failed"] == (2 if workload == "lift-conjugacy" else 0)
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    assert sorted(res["metrics"]) == sorted(names)
