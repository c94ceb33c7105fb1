"""The four workloads: inputs, the operations of a run, and checks.

A run is a fixed list of operations: the workload's ``run_once`` ones,
then ``run_round`` repeated until the run's time is up.  Every round
makes the same calls in the same order, one after another (a closed loop
with one caller).  ``Recorder.op`` times one call, records its outcome,
and hands its output to a checker; the program's own time is what gets
timed, never the checker's.
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import charvar as cv
import charvar.verify
import checks as ck
import inputs
import speed

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


class Recorder:
    """Times, checks and counts the distinct operations of a run.

    An operation is known by its place in its phase (``once`` or a round),
    so its repeats across rounds share a key.  Each repeat's time is scaled
    to the reference speed by the probe samples taken around it
    (``speed.py``), and an operation's time is the median of its scaled
    repeats: the median drops the short bursts of other load, the scaling
    the slow stretches of the host that can cover a whole run.  Every
    repeat is checked, and must end the same way as the first: returning,
    or raising one of the exceptions the workload declares for it.  Any
    other exception is a check error.

    ``attempted`` and ``failed`` count distinct operations, so they are
    the same in every run whatever the number of rounds.  While
    ``tracing`` holds a switch (a function taking True or False), each
    call runs a second time with tracing on, and the two times feed the
    tracing overhead.
    """

    def __init__(self, probe=speed.IN_PROCESS):
        self.samples = {}  # key -> [(mid-point, seconds)] over the repeats
        self.times = {}  # key -> median scaled seconds, set by finish()
        self.raw = {}  # key -> median unscaled seconds, set by finish()
        self.speed = speed.Speed(probe)
        self.cats = {}  # key -> categories the operation's time counts in
        self.outcome = {}  # key -> None (returned) or the declared exception's name
        self.errors = []
        self.tracing = None
        self.untraced_s = 0.0
        self.traced_s = 0.0
        self._phase = None
        self._index = 0

    def begin(self, phase):
        self._phase, self._index = phase, 0

    def _call(self, key, fn, expect):
        """Run ``fn`` once; returns (output, seconds, outcome)."""
        t0 = time.perf_counter()
        try:
            return fn(), time.perf_counter() - t0, None
        except expect as e:
            return None, time.perf_counter() - t0, type(e).__name__
        except Exception as e:  # a wrong exit code, or a failure nothing declared
            self._error(key, f"{type(e).__name__}: {e}")
            return None, time.perf_counter() - t0, "error"

    def op(self, cats, fn, check=None, expect=()):
        """Time ``fn()``, keep the time under ``cats``, check its output."""
        key = f"{self._phase}.{self._index}"
        self._index += 1
        start = time.perf_counter()
        out, dt, outcome = self._call(key, fn, expect)
        if self.tracing is not None:
            self.tracing(True)
            try:
                _, traced, _ = self._call(key, fn, expect)
            finally:
                self.tracing(False)
            self.untraced_s += dt
            self.traced_s += traced
        if key not in self.outcome:
            self.outcome[key] = outcome
            self.cats[key] = tuple(cats)
        elif self.outcome[key] != outcome:
            self._error(key, f"ended as {outcome or 'returned'}, first as {self.outcome[key] or 'returned'}")
        self.samples.setdefault(key, []).append((start + dt / 2, dt))
        self.speed.tick()
        if outcome is None and check is not None:
            try:
                check(out)
            except ck.CheckError as e:
                self._error(key, str(e))
        return out

    def _error(self, key, msg):
        if len(self.errors) < 20:
            self.errors.append(f"{key} {'/'.join(self.cats.get(key, ()))}: {msg}")
        else:
            self.errors[-1] = "and more"

    @property
    def attempted(self):
        return len(self.outcome)

    def failures(self):
        """Declared failures by exception name, one per distinct operation."""
        out = {}
        for o in self.outcome.values():
            if o not in (None, "error"):
                out[o] = out.get(o, 0) + 1
        return out

    def finish(self):
        """Scale every repeat and take each operation's medians."""
        for key, reps in self.samples.items():
            self.times[key] = statistics.median(dt * self.speed.scale(t) for t, dt in reps)
            self.raw[key] = statistics.median(dt for _, dt in reps)

    def round_s(self, times=None):
        """One round, each operation at its median: seconds."""
        return sum(t for k, t in (times or self.times).items() if k.startswith("round."))

    def p(self, cat, q, scale):
        """Percentile ``q`` over the times of the operations in ``cat``."""
        xs = [t for k, t in self.times.items() if cat in self.cats[k]]
        if not xs:
            return 0.0
        if q == 50:
            return scale * statistics.median(xs)
        return scale * statistics.quantiles(xs, n=100, method="inclusive")[q - 1]


class Workload:
    """Defaults: no once-only operations, ``op`` is the unit operation,
    calls timed inside the measuring process."""

    PROBE = speed.IN_PROCESS

    def run_once(self, rec):
        pass

    def op_ms(self, rec):
        return rec.p("op", 50, 1e3)

    def close(self):
        pass


def su(mats):
    return cv.RepTuple(cv.su(mats[0].shape[0]), tuple(mats))


def sl(mats):
    return cv.RepTuple(cv.sl(mats[0].shape[0]), tuple(mats))


# --- verify-all --------------------------------------------------------------


class VerifyAll(Workload):
    """Every acceptance suite through ``charvar.verify.run_suite``.

    The Monte Carlo suites run at a twentieth of their acceptance sample
    count, so that a run holds about seven rounds for the median over
    repeats; su3-example, baird and figures take sizes, not sample counts,
    and run at their acceptance values.  The suites draw their own inputs,
    at the acceptance seed 0.  The operation timed for ``op.p50_ms`` is one
    pass over all suites, what a user runs as ``charvar verify all``; single
    suites differ in cost by a factor 1000, so a median over them is the
    timing of whichever suite lands in the middle.
    """

    FIXED = ("su3-example", "baird", "figures")
    NAMED = ("retraction", "sigma-ball", "two-sheet", "su3-membership", "kempf-ness")

    def __init__(self, seed, smoke):
        div = 100 if smoke else 20
        self.samples = {
            name: default if name in self.FIXED else max(1, default // div)
            for name, (_, default) in cv.verify.SUITES.items()
        }

    def warm_up(self):
        for name in self.samples:
            cv.verify.run_suite(name, samples=1 if name not in self.FIXED else None)

    def run_round(self, rec):
        for name, samples in self.samples.items():
            rec.op(
                [f"verify.{name}"],
                lambda: cv.verify.run_suite(name, samples=samples, seed=0),
                lambda rep: ck.check_suite_report(name, samples, rep),
            )

    def op_ms(self, rec):
        return 1e3 * rec.round_s()

    def detail(self, rec):
        return {f"verify.{n}_s": (rec.p(f"verify.{n}", 50, 1.0), "s") for n in self.NAMED}


# --- flow-retract ------------------------------------------------------------


def membership(ret, rec):
    """Case-appropriate program verdicts, as ``charvar membership`` gives them."""
    n, r = ret.n, ret.r
    if (n, r) == (2, 2):
        c = cv.SU2Rank2Coords(rec["a1"], rec["a2"], rec["a3"])
        return {"su2-rank2-image": cv.in_su2_rank2_image(c).to_json()}
    if (n, r) == (2, 3):
        c = cv.SU2Rank3Coords(*(rec[k] for k in ("a1", "a2", "a3", "a12", "a13", "a23")))
        return {"su2-rank3-image": cv.in_su2_rank3_image(c).to_json()}
    if (n, r) == (3, 2):
        t = cv.su3_traces(ret)
        u = cv.u_coords(t, unitary=True)
        return {
            "S-plus": cv.in_S_plus(u, cv.pq(t, unitary=True)).to_json(),
            "B-class": cv.classify_B(ret),
            "factor-alcove": {f"tau_{k}": cv.su3_alcove_check(u.tau(k)).to_json() for k in (1, 2, 3, 4)},
        }
    return {}  # (2, 4) has no program verdict; check_record bounds |tr w| <= n


def composite(rho):
    out, trace = cv.kn_flow(rho)
    ret = cv.retract_tuple(out, 1.0)
    rec = cv.invariant_record(ret)
    return out, trace.converged, ret, rec, membership(ret, rec)


class FlowRetract(Workload):
    """Flow, retract at t=1, invariant record, verdict: closed and non-closed orbits.

    The non-closed pair runs all 1e5 flow iterations (about 9 s), so it
    runs once per run, before the rounds of 200 closed-orbit tuples, and
    is reported on its own: one 9 s call moves with the machine's speed
    over those seconds, by up to 30% between runs.
    Closed-orbit SL(2) tuples are left out: on about 1 in 80 pairs and 1 in
    60 triples the flow needs 1e4 to 1e5 iterations, and some triples stall
    at 1e5 with converged=False, so per-seed draws made run times bimodal.
    """

    CASES = ((3, 2), (4, 2))  # (n, r)

    def __init__(self, seed, smoke):
        rng = inputs.rng_for(seed, 1)
        per_case = 2 if smoke else 100
        self.closed = []
        for i in range(per_case):
            for n, r in self.CASES:
                stretch = 0.5 + (i + rng.uniform()) / per_case  # stratified over [0.5, 1.5]
                self.closed.append(sl(inputs.closed_orbit_tuple(n, r, stretch, rng)))
        self.nonclosed = [] if smoke else [sl(inputs.unipotent_pair(inputs.rng_for(seed, 2)))]

    def warm_up(self):
        for rho in self.closed[: len(self.CASES)]:
            composite(rho)

    @staticmethod
    def _check(rho, closed):
        def check(res):
            out, converged, ret, rec, verdict = res
            if closed:
                ck.check_closed_flow(rho.matrices, out.matrices, converged)
            else:
                ck.check_nonclosed_flow(rho.matrices, out.matrices, converged)
            ck.check_special_unitary(ret.matrices, "retracted")
            ck.check_record(ret.matrices, rec)
            ck.check_verdict(ret.matrices, verdict)

        return check

    def run_once(self, rec):
        for rho in self.nonclosed:
            rec.op(["nonclosed"], lambda: composite(rho), self._check(rho, False))

    def run_round(self, rec):
        for rho in self.closed:
            rec.op(["op", "flow"], lambda: composite(rho), self._check(rho, True))

    def detail(self, rec):
        return {
            "flow.p50_ms": (rec.p("flow", 50, 1e3), "ms"),
            "flow.p90_ms": (rec.p("flow", 90, 1e3), "ms"),
            "flow.nonclosed_s": (rec.p("nonclosed", 50, 1.0), "s"),
        }


# --- lift-conjugacy ----------------------------------------------------------


def mirror(mats):
    """Reflect the j-component of each SU(2) matrix: same coordinates, other sheet."""
    out = []
    for x in mats:
        y = x.copy()
        y[0, 1] = -x[0, 1].conjugate()
        y[1, 0] = -x[1, 0].conjugate()
        out.append(y)
    return out


def lift_round_trip(c):
    if len(c) == 3:
        res = cv.su2_rank2_lift(cv.SU2Rank2Coords(*c))
        back = [cv.su2_rank2_coords(t).as_array() for t in res.tuples]
    else:
        res = cv.su2_rank3_lift(cv.SU2Rank3Coords(*c))
        back = [cv.su2_rank3_coords(t).as_array() for t in res.tuples]
    return res, back


def check_round_trip(c):
    def check(out):
        res, back = out
        ck.check_lift(c, [t.matrices for t in res.tuples], res.signs)
        for b in back:
            err = float(np.max(np.abs(b - c)))
            ck.require(err <= ck.ROUND_TRIP_TOL, f"program round trip error {err:.3e}")

    return check


class LiftConjugacy(Workload):
    """Lifts on both sheets, and conjugacy decisions with yes and no answers."""

    YES_N = (2, 2, 2, 3, 3, 3, 4, 4, 4, 5, 6, 7, 7, 8, 8, 8)

    def __init__(self, seed, smoke):
        rng = inputs.rng_for(seed, 3)
        n2, n3 = (2, 4) if smoke else (16, 48)
        self.coords = [ck.su2_coords(inputs.haar_tuple(2, 2, rng)) for _ in range(n2)]
        self.coords += [ck.su2_coords(inputs.haar_tuple(2, 3, rng)) for _ in range(n3)]
        yes_n = (2, 3, 4, 7) if smoke else self.YES_N
        self.yes = []
        for n in yes_n:
            x = inputs.haar_tuple(n, 2, rng)
            self.yes.append((su(x), su(inputs.conjugate(inputs.haar_su(n, rng), x))))
        self.no = []
        while len(self.no) < 3:  # distinct sheets; t123 bounded away from 0
            x = inputs.haar_tuple(2, 3, rng)
            if abs(ck.su2_rank3_extra(ck.su2_coords(x))["t123"]) > 1e-2:
                self.no.append((su(x), su(mirror(x))))
        for _ in range(3):  # conjugate first matrices, non-conjugate tuples
            a, b = inputs.haar_tuple(3, 2, rng)
            k = inputs.haar_su(3, rng)
            self.no.append((su([a, b]), su([k @ a @ k.conj().T, inputs.haar_su(3, rng)])))
        # Same inputs for every seed: they fail today (DegenerateSpectrum).
        fixed = inputs.rng_for(0, 99)
        self.degenerate = []
        for _ in range(2):
            x = inputs.repeated_eigenvalue_pair(fixed)
            self.degenerate.append((su(x), su(inputs.conjugate(inputs.haar_su(3, fixed), x))))

    def warm_up(self):
        lift_round_trip(self.coords[0])
        lift_round_trip(self.coords[-1])
        cv.unitary_conjugacy(*self.yes[0])

    @staticmethod
    def _cats(n):
        return ["op", "conj.small"] if n <= 4 else ["op", "conj.large"] if n >= 7 else ["op"]

    def run_round(self, rec):
        for c in self.coords:
            rec.op(["op", "lift"], lambda: lift_round_trip(c), check_round_trip(c))
        for x, y in self.yes:
            rec.op(
                self._cats(x.n),
                lambda: cv.unitary_conjugacy(x, y),
                lambda k: ck.check_conjugator(k, x.matrices, y.matrices),
            )
        for x, y in self.no:
            rec.op(self._cats(x.n), lambda: cv.unitary_conjugacy(x, y), ck.check_not_conjugate)
        for x, y in self.degenerate:
            rec.op(
                ["op"],
                lambda: cv.unitary_conjugacy(x, y),
                lambda k: ck.check_conjugator(k, x.matrices, y.matrices),
                expect=(cv.DegenerateSpectrum,),
            )

    def detail(self, rec):
        return {
            "lift.p50_us": (rec.p("lift", 50, 1e6), "us"),
            "conj.small.p50_ms": (rec.p("conj.small", 50, 1e3), "ms"),
            "conj.large.p50_ms": (rec.p("conj.large", 50, 1e3), "ms"),
        }


# --- cli-pipeline ------------------------------------------------------------


def wire(mats, family):
    return {
        "family": family,
        "n": int(mats[0].shape[0]),
        "r": len(mats),
        "matrices": [[[[float(z.real), float(z.imag)] for z in row] for row in m] for m in mats],
    }


class CliPipeline(Workload):
    """``python -m charvar`` stages as subprocesses, one at a time."""

    PROBE = speed.PROCESS  # a stage is mostly interpreter start and imports

    def __init__(self, seed, smoke):
        rng = inputs.rng_for(seed, 4)
        self.seeds = [int(s) for s in rng.integers(0, 2**31 - 1, size=3)]
        self.flow_input = json.dumps(wire(inputs.closed_orbit_tuple(3, 2, 0.3, rng), "SL"))
        self.tmp = BENCH_DIR / "out" / f"tmp-{os.getpid()}"
        self.tmp.mkdir(parents=True, exist_ok=True)
        a = inputs.haar_tuple(3, 2, rng)
        k = inputs.haar_su(3, rng)
        b = inputs.conjugate(k, a)
        c = [k @ a[0] @ k.conj().T, inputs.haar_su(3, rng)]
        self.conj = {"a": a, "b": b, "c": c}
        for name, mats in self.conj.items():
            (self.tmp / f"{name}.json").write_text(json.dumps(wire(mats, "SU")))
        self.trace_file = None  # set to a path to run stages under the tracer
        self.resolution = 16 if smoke else 24

    def close(self):
        shutil.rmtree(self.tmp, ignore_errors=True)

    def _cmd(self, args):
        if self.trace_file is None:
            return [sys.executable, "-m", "charvar", *args]
        return [sys.executable, str(BENCH_DIR / "cli_traced.py"), str(self.trace_file), *args]

    def stage(self, args, stdin=None, code=0):
        proc = subprocess.run(
            self._cmd(args), input=stdin, capture_output=True, text=True, cwd=ROOT, timeout=150
        )
        if proc.returncode != code:
            raise ck.CheckError(f"{args[0]} exited {proc.returncode}, expected {code}: {proc.stderr[-300:]}")
        return proc.stdout

    def warm_up(self):
        self.stage(["poincare", "--r", "1"])

    def _sample(self, n, r, seed):
        return self.stage(["sample", "--group", "SU", "--n", str(n), "--r", str(r), "--seed", str(seed)])

    def p_invariants(self):
        t = self._sample(2, 2, self.seeds[0])
        return t, self.stage(["invariants"], t)

    def p_membership(self):
        t = self._sample(3, 2, self.seeds[1])
        return t, self.stage(["membership"], t)

    def p_lift(self):
        t = self._sample(2, 3, self.seeds[2])
        rec = self.stage(["invariants"], t)
        return t, rec, self.stage(["lift", "--sign", "1"], rec)

    def p_flow(self):
        return self.stage(["flow"], self.flow_input)

    def p_conjugacy(self):
        f = lambda name: str(self.tmp / f"{name}.json")
        yes = self.stage(["conjugacy", "--a", f("a"), "--b", f("b")], code=0)
        no = self.stage(["conjugacy", "--a", f("a"), "--b", f("c")], code=1)
        return yes, no

    def p_region(self):
        return self.stage(["region", "--name", "su3-alcove", "--resolution", str(self.resolution)])

    def p_poincare(self):
        return self.stage(["poincare", "--r", "3"])

    @staticmethod
    def c_invariants(out):
        t, rec = out
        ck.check_cli_record(ck.tuple_from_wire(json.loads(t)), json.loads(rec))

    @staticmethod
    def c_membership(out):
        t, verdict = out
        ck.check_cli_membership(ck.tuple_from_wire(json.loads(t)), json.loads(verdict))

    @staticmethod
    def c_lift(out):
        t, rec, lifted = out
        mats = ck.tuple_from_wire(json.loads(t))
        ck.check_cli_record(mats, json.loads(rec))
        c = ck.su2_coords(mats)
        lifted = ck.tuple_from_wire(json.loads(lifted))
        ck.check_lift(c, [lifted], (1,))
        if abs(ck.su2_rank3_extra(c)["t123"]) > 1e-6:
            o = ck.sheet_orientation(lifted)
            ck.require(o < 0, f"lift --sign 1 landed on the other sheet (triple product {o:+.3e})")

    def c_flow(self, out):
        obj = json.loads(out)
        inp = ck.tuple_from_wire(json.loads(self.flow_input))
        mats = ck.tuple_from_wire(obj["tuple"])
        ck.check_closed_flow(inp, mats, obj["converged"])
        ck.require(abs(obj["residual"] - ck.moment_norm(mats)) <= 1e-12, "reported residual")

    def c_conjugacy(self, out):
        yes, no = (json.loads(s) for s in out)
        ck.require(yes["conjugate"] is True, "conjugate tuples reported not conjugate")
        k = np.array([[complex(*e) for e in row] for row in yes["k"]])
        ck.check_conjugator(k, self.conj["a"], self.conj["b"])
        ck.require(no == {"conjugate": False, "k": None}, f"non-conjugate tuples gave {no}")

    @staticmethod
    def c_region(out):
        lines = out.strip().split("\n")
        header = lines[0].split(",")
        ck.check_region_rows(header, [tuple(map(float, ln.split(","))) for ln in lines[1:]])

    @staticmethod
    def c_poincare(out):
        ck.check_poincare(json.loads(out), 3)

    PIPELINES = ("invariants", "membership", "lift", "flow", "conjugacy", "region", "poincare")

    def run_round(self, rec):
        for name in self.PIPELINES:
            rec.op(["op", "cli"], getattr(self, f"p_{name}"), getattr(self, f"c_{name}"))

    def detail(self, rec):
        return {"cli.p50_ms": (rec.p("cli", 50, 1e3), "ms")}


WORKLOADS = {
    "verify-all": VerifyAll,
    "flow-retract": FlowRetract,
    "lift-conjugacy": LiftConjugacy,
    "cli-pipeline": CliPipeline,
}
