"""charvar benchmark: one command for every workload.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a checkout; the library is imported from ``src/``.
Set-up is timed in fresh processes (the median of ``SETUP_RUNS``, each
scaled to the reference speed by fresh-process probe samples taken just
before it, see ``speed.py``), then one
fresh worker process runs the workload's once-only operations and whole
rounds for S seconds, and checks every output.  The last stdout line is the result:
``{"correct", "attempted", "failed", "metrics"}``, with the end-to-end
metrics for ``--trace 0`` and the per-layer metrics for ``--trace 1``.  The
line before it carries the environment and the workload's own named
metrics, and the whole record is kept under ``bench/out/``.
``--smoke`` runs one small round, for the benchmark's own tests.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BLAS_THREADS = 1  # matrices are at most 8x8: more threads only add noise
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:  # before numpy loads here; every child inherits them
    os.environ[_var] = str(min(BLAS_THREADS, os.cpu_count() or 1))

import speed  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("verify-all", "flow-retract", "lift-conjugacy", "cli-pipeline")
SETUP_RUNS = 7  # fresh processes timed to READY; the last one goes on measuring
DEADLINE_S = 170


def child_env() -> dict:
    env = dict(os.environ)  # carries the BLAS thread pins set above
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return env


def start_worker(args, env, setup_only: bool):
    """Start a worker and wait for READY; returns (process, set-up seconds)."""
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.smoke:
        cmd.append("--smoke")
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT, env=env)
    line = proc.stdout.readline()
    setup = time.perf_counter() - t0
    if line.strip() != "READY":
        proc.kill()
        proc.wait()
        raise RuntimeError(f"worker set-up failed (exit {proc.returncode})")
    return proc, setup


def import_ms(env) -> float:
    """Median of bare ``import charvar`` minus a bare interpreter, in ms."""
    diffs = []
    for _ in range(5):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=env, cwd=ROOT, check=True)
        t1 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import charvar"], env=env, cwd=ROOT, check=True)
        t2 = time.perf_counter()
        diffs.append((t2 - t1) - (t1 - t0))
    return 1e3 * statistics.median(diffs)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()

    if not (ROOT / "src" / "charvar" / "__init__.py").is_file():
        print(f"no charvar sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = child_env()
    started = time.perf_counter()
    proc = None
    probes = speed.Speed(speed.PROCESS)
    try:
        setups, scaled = [], []
        for i in range(SETUP_RUNS):
            probes.sample(2)
            t0 = time.perf_counter()
            proc, setup = start_worker(args, env, setup_only=i < SETUP_RUNS - 1)
            if i < SETUP_RUNS - 1:
                proc.communicate(timeout=60)
            setups.append(setup)
            scaled.append((t0 + setup / 2, setup))
        out, _ = proc.communicate(timeout=max(10.0, DEADLINE_S - (time.perf_counter() - started)))
    except (RuntimeError, subprocess.TimeoutExpired) as e:
        if proc is not None and proc.poll() is None:
            proc.kill()
            proc.wait()
        print(f"benchmark failed: {e}", file=sys.stderr)
        return 1
    if proc.returncode != 0:
        print(f"worker exited {proc.returncode}", file=sys.stderr)
        return 1
    res = json.loads(out.strip().split("\n")[-1])

    if args.trace:
        metrics = dict(res["per_layer"])
        metrics["cli.import_ms"] = (import_ms(env), "ms")
    else:
        setup_s = statistics.median(dt * probes.scale(t) for t, dt in scaled)
        metrics = {"setup_s": (setup_s, "s"), **res["metrics"]}
    result = {
        "correct": res["correct"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "rounds": res["rounds"],
        "setup_samples_s": setups,
        "env": res["env"],
        "failures": res["failures"],
        "errors": res["errors"],
        "named": {k: {"value": v, "unit": u} for k, (v, u) in res.get("detail", {}).items()},
    }
    out_dir = BENCH_DIR / "out"
    out_dir.mkdir(exist_ok=True)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps({**info, **result}, indent=1) + "\n")
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
