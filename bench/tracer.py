"""Per-layer tracing: wraps charvar's public functions and keeps self time.

``Tracer.install`` replaces each listed function by a wrapper in every
charvar module that binds it (``from .linalg import haar_su`` in
``charvar.verify`` binds it there too), so calls between modules are seen.
A call's self time is its duration minus the time spent in traced calls
it made.  Spans stay in memory; ``report`` turns them into metrics.
"""

from __future__ import annotations

import importlib
import statistics
import sys
import time

import numpy as np

LAYERS = {
    "linalg": ("haar_su", "unitary_eig", "polar", "exp_herm"),
    "groups": ("validate", "sample_tuple", "conjugate_tuple", "tuple_from_json", "tuple_to_json"),
    "retraction": ("phi", "retract_tuple"),
    "invariants": ("su2_rank2_coords", "su2_rank3_coords", "su3_traces", "invariant_record", "trace_word"),
    "semialgebraic": ("in_su2_rank2_image", "in_su2_rank3_image", "in_S_plus", "su3_alcove_check", "classify_B"),
    "reconstruct": ("su2_rank2_lift", "su2_rank3_lift", "unitary_conjugacy"),
    "kempfness": ("kn_flow", "moment_residual"),
    "poincare": ("baird_poly",),
    "verify": ("run_suite",),
    "cli": ("main",),
}

FLOW_CASES = {(2, 2): "sl2-pair", (3, 2): "sl3-pair", (4, 2): "sl4-pair"}


def layer_keys():
    return [f"{m}.{f}" for m, fs in LAYERS.items() for f in fs]


class Tracer:
    def __init__(self):
        self.calls = {k: 0 for k in layer_keys()}
        self.self_s = {k: 0.0 for k in layer_keys()}
        self.flows = []  # (case, iterations, trials, inclusive seconds) of converged flows
        self.flow_iters = 0
        self.flow_s = 0.0
        self._stack = []
        self._patches = []

    def _wrap(self, key, fn):
        clock = time.perf_counter
        stack = self._stack
        tracer = self

        def traced(*args, **kwargs):
            start = clock()
            stack.append(0.0)
            try:
                out = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                child = stack.pop()
                tracer.calls[key] += 1
                tracer.self_s[key] += elapsed - child
                if stack:
                    stack[-1] += elapsed
            if key == "kempfness.kn_flow":
                tracer._record_flow(args[0], out[1], elapsed)
            return out

        return traced

    def _record_flow(self, rho, trace, elapsed):
        iters = trace.steps[-1].iter
        self.flow_iters += iters
        self.flow_s += elapsed
        if trace.converged and (rho.n, rho.r) in FLOW_CASES:
            self.flows.append((FLOW_CASES[rho.n, rho.r], iters, step_trials(trace), elapsed))

    def install(self):
        homes = {layer: importlib.import_module(f"charvar.{layer}") for layer in LAYERS}
        mods = [m for name, m in list(sys.modules.items()) if name == "charvar" or name.startswith("charvar.")]
        for layer, names in LAYERS.items():
            home = homes[layer]
            for name in names:
                orig = getattr(home, name)
                wrapper = self._wrap(f"{layer}.{name}", orig)
                for mod in mods:
                    if getattr(mod, name, None) is orig:
                        self._patches.append((mod, name, orig))
                        setattr(mod, name, wrapper)

    def uninstall(self):
        for mod, name, orig in reversed(self._patches):
            setattr(mod, name, orig)
        self._patches.clear()

    def state(self) -> dict:
        return {"calls": self.calls, "self_s": self.self_s, "flows": self.flows,
                "flow_iters": self.flow_iters, "flow_s": self.flow_s}

    def merge(self, state: dict) -> None:
        """Add the state of a traced child process."""
        for k, v in state["calls"].items():
            self.calls[k] += v
        for k, v in state["self_s"].items():
            self.self_s[k] += v
        self.flows.extend(tuple(f) for f in state["flows"])
        self.flow_iters += state["flow_iters"]
        self.flow_s += state["flow_s"]


def step_trials(trace) -> int:
    """Step-size trials of a flow: each accepted step plus its halvings.

    Iteration i starts from eps0 = 1/(4|M_(i-1)| + 1) and halves until the
    functional decreases, so the halvings are log2(eps0/eps_i).
    """
    trials = 0
    steps = trace.steps
    for prev, cur in zip(steps, steps[1:]):
        eps0 = 1.0 / (4.0 * prev.residual + 1.0)
        trials += 1 + max(0, int(round(np.log2(eps0 / cur.step))))
    return trials


def report(tracer: Tracer) -> dict:
    """Per-layer metrics of the traced work: calls, self time, and FlowTrace figures."""
    out = {}
    for k in layer_keys():
        out[f"{k}.calls"] = (tracer.calls[k], "count")
        out[f"{k}.self_ms"] = (1e3 * tracer.self_s[k], "ms")
    for case in FLOW_CASES.values():
        iters = [f[1] for f in tracer.flows if f[0] == case]
        out[f"kempfness.iters_p50.{case}"] = (statistics.median(iters) if iters else 0, "count")
        out[f"kempfness.iters_max.{case}"] = (max(iters) if iters else 0, "count")
    out["kempfness.us_per_iter"] = (1e6 * tracer.flow_s / tracer.flow_iters if tracer.flow_iters else 0.0, "us")
    trials = sum(f[2] for f in tracer.flows)
    accepted = sum(f[1] for f in tracer.flows)
    out["kempfness.accept_ratio"] = (accepted / trials if trials else 0.0, "ratio")
    return out
