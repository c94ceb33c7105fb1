"""One measuring process: set up a workload, run whole rounds, report JSON.

Started by ``run.py`` in a fresh interpreter.  Prints ``READY`` once the
imports, inputs and warm-up calls are done (the parent times set-up up to
that line), then, unless ``--setup-only``, runs the workload's once-only
operations and its rounds for the requested seconds and prints one JSON
line.  With ``--trace 1`` the once-only operations and the first round
run a second time with every layer function wrapped, and the line carries
the per-layer figures of that fixed work and the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np

import tracer as tr
import workloads


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment() -> dict:
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "machine": platform.machine(),
        "cpu": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ.get("OPENBLAS_NUM_THREADS", "0")),
    }


def run(wl, rec, seconds: float, trace=None) -> int:
    """The once-only operations, then whole rounds for ``seconds``; a round
    that would end after 1.5 x ``seconds`` is not started, which bounds the
    run length when one round takes most of the run.  ``trace`` switches
    tracing on and off for the once-only operations and the first round.
    Returns the number of rounds."""
    rec.tracing = trace
    rec.speed.sample(5)
    rec.begin("once")
    wl.run_once(rec)
    start = time.perf_counter()
    done = 0
    last = 0.0
    while done == 0 or (
        (elapsed := time.perf_counter() - start) < seconds and elapsed + last <= 1.5 * seconds
    ):
        t0 = time.perf_counter()
        rec.begin("round")
        wl.run_round(rec)
        rec.tracing = None
        last = time.perf_counter() - t0
        done += 1
    rec.speed.sample(5)
    rec.finish()
    return done


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    wl = workloads.WORKLOADS[args.workload](args.seed, args.smoke)
    rec = workloads.Recorder(wl.PROBE)
    try:
        wl.warm_up()
        print("READY", flush=True)
        if args.setup_only:
            return 0
        seconds = 0.0 if args.smoke else args.seconds
        out = {"env": environment()}
        if args.trace:
            t = tr.Tracer()
            if isinstance(wl, workloads.CliPipeline):
                state = workloads.BENCH_DIR / "out" / f"trace-{args.workload}-{args.seed}.jsonl"
                state.unlink(missing_ok=True)
                out["rounds"] = run(wl, rec, seconds, lambda on: setattr(wl, "trace_file", state if on else None))
                with open(state) as fh:
                    for line in fh:
                        t.merge(json.loads(line))
            else:
                out["rounds"] = run(wl, rec, seconds, lambda on: t.install() if on else t.uninstall())
            layers = tr.report(t)
            layers["trace.overhead_pct"] = (100.0 * (rec.traced_s / rec.untraced_s - 1.0), "%")
            out["per_layer"] = layers
        else:
            out["rounds"] = run(wl, rec, seconds)
            out["detail"] = {
                **wl.detail(rec),
                "wall_raw_s": (rec.round_s(rec.raw), "s"),
                "probe_ms": (1e3 * statistics.median(rec.speed.took), "ms"),
            }
            usage = max(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
            )
            out["metrics"] = {
                "wall_s": (rec.round_s(), "s"),
                "peak_rss_mb": (usage / 1024.0, "MB"),
                "op.p50_ms": (wl.op_ms(rec), "ms"),
            }
    finally:
        wl.close()
    failures = rec.failures()
    out.update(
        correct=not rec.errors,
        attempted=rec.attempted,
        failed=sum(failures.values()),
        failures=failures,
        errors=rec.errors,
    )
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
