"""Command-line front door.

Subcommands map one-to-one onto library operations; tuples travel as the
shared JSON schema on stdin/stdout or files, verdicts and reports as JSON,
grids and flow traces as CSV.  Every command is deterministic given --seed.

Exit status: 0 for success or a "yes" answer; 1 for a "no" answer (conjugacy
finds the tuples not conjugate, or a verify suite fails); 2 for bad input or
usage, with the message on stderr and nothing on stdout.  Each bound on an
option is checked by the library function that takes it.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from dataclasses import fields

import numpy as np

from . import __version__
from .linalg import DEFAULT_TOL, check_tol
from .groups import GroupDescriptor, RepTuple, sample_tuple, tuple_from_json, tuple_to_json

# Library modules past linalg and groups are imported by the commands that
# run them, so a command loads (and, without a bytecode cache, compiles)
# only its own code path.

DEFAULT_TOL_ENV = "CHARVAR_TOL"


def _default_tol(p: argparse.ArgumentParser) -> float:
    """``$CHARVAR_TOL`` if set, else ``DEFAULT_TOL``.  The value must pass the
    check that ``--tol`` passes (``linalg.check_tol``); one that does not is a
    usage error, one line on stderr."""
    raw = os.environ.get(DEFAULT_TOL_ENV)
    if raw is None:
        return DEFAULT_TOL
    try:
        tol = float(raw)
        check_tol(tol)
    except ValueError as exc:
        p.exit(2, f"{p.prog}: error: {type(exc).__name__}: {DEFAULT_TOL_ENV}={raw!r}: {exc}\n")
    return tol


class _SuiteChoices:
    """The verify command's choices, the names in ``verify.SUITES`` and "all".

    ``charvar.verify`` loads every library module, so it is imported only
    when a value is checked or the choices are printed.
    """

    @staticmethod
    def _names():
        from .verify import SUITES

        return sorted(SUITES) + ["all"]

    def __contains__(self, name) -> bool:
        return name in self._names()

    def __iter__(self):
        return iter(self._names())


def _given(**kwargs) -> dict:
    """The keyword arguments whose options were given; the rest (None) keep the callee's defaults."""
    return {k: v for k, v in kwargs.items() if v is not None}


def _jsonable(v):
    if isinstance(v, complex):
        return [v.real, v.imag]
    if isinstance(v, (np.floating, np.integer)):
        return float(v)
    if isinstance(v, np.complexfloating):
        return [float(v.real), float(v.imag)]
    if isinstance(v, dict):
        return {k: _jsonable(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    return v


def _emit(args, text: str) -> None:
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(args, obj) -> None:
    _emit(args, json.dumps(_jsonable(obj), sort_keys=True, indent=2) + "\n")


def _emit_csv(args, header, rows) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(row)
    _emit(args, buf.getvalue())


def _read_text(path: str | None) -> str:
    if path is None or path == "-":
        return sys.stdin.read()
    with open(path) as fh:
        return fh.read()


def _read_tuple(path: str | None) -> RepTuple:
    return tuple_from_json(json.loads(_read_text(path)))


# --- subcommands -------------------------------------------------------------


def cmd_sample(args) -> int:
    rng = np.random.default_rng(args.seed)
    rho = sample_tuple(GroupDescriptor(args.group, args.n), args.r, rng)
    _emit_json(args, tuple_to_json(rho))
    return 0


def cmd_invariants(args) -> int:
    from .invariants import invariant_record

    rho = _read_tuple(args.input)
    _emit_json(args, invariant_record(rho, args.tol))
    return 0


def cmd_trace(args) -> int:
    from .invariants import Word, trace_word

    rho = _read_tuple(args.input)
    w = Word.parse(args.word)
    _emit_json(args, {"word": str(w), "trace": trace_word(rho, w)})
    return 0


def cmd_retract(args) -> int:
    from .retraction import retract_tuple

    rho = _read_tuple(args.input)
    _emit_json(args, tuple_to_json(retract_tuple(rho, args.t)))
    return 0


def cmd_flow(args) -> int:
    from .kempfness import check_flow_params, kn_flow

    given = _given(max_iter=args.max_iter, tol=args.flow_tol)
    check_flow_params(**given)  # before the input is read
    out, trace = kn_flow(_read_tuple(args.input), **given)
    if args.format == "csv":
        rows = trace.to_csv_rows()
        _emit_csv(args, next(rows), rows)
    else:
        _emit_json(
            args,
            {
                "converged": trace.converged,
                "orbit_closed": trace.orbit_closed,
                "iterations": trace.steps[-1].iter,
                "functional": trace.steps[-1].p,
                "residual": trace.steps[-1].residual,
                "tuple": tuple_to_json(out),
            },
        )
    return 0


def cmd_composite(args) -> int:
    from .kempfness import check_flow_params, composite_retraction

    given = _given(max_iter=args.max_iter)
    check_flow_params(**given)  # before the input is read
    result = composite_retraction(_read_tuple(args.input), args.t, tol=args.tol, **given)
    _emit_json(
        args,
        {
            "before": result.before,
            "after": result.after,
            "converged": result.trace.converged,
            "tuple": tuple_to_json(result.tuple),
        },
    )
    return 0


def cmd_lift(args) -> int:
    from .invariants import SU2Rank2Coords, SU2Rank3Coords
    from .reconstruct import su2_rank2_lift, su2_rank3_lift

    record = json.loads(_read_text(args.input))
    if not isinstance(record, dict):
        raise ValueError(f"lift needs an invariant record (a JSON object), got {type(record).__name__}")
    # A record holding any of a triple's pair fields (a12, a13, a23) is a triple's, and needs all six.
    pair_fields = {f.name for f in fields(SU2Rank3Coords)} - {f.name for f in fields(SU2Rank2Coords)}
    cls = SU2Rank3Coords if pair_fields & record.keys() else SU2Rank2Coords
    coords = cls(*(_coordinate(record, f.name) for f in fields(cls)))
    if cls is SU2Rank3Coords:
        res = su2_rank3_lift(coords, sign=args.sign, tol=args.tol)
    else:
        res = su2_rank2_lift(coords, tol=args.tol)
    _emit_json(args, tuple_to_json(res.tuples[0]))
    return 0


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _coordinate(record: dict, key: str) -> float:
    """Field ``key`` of a lift record: a number, or an [re, im] pair as the
    invariants command writes complex values, whose imaginary part must vanish."""
    if key not in record:
        raise ValueError(f"lift record has no {key!r} field: a pair's record holds a1..a3, a triple's a1..a23")
    v = record[key]
    if isinstance(v, list) and len(v) == 2 and all(map(_is_number, v)):
        if abs(v[1]) > 1e-9:
            raise ValueError(f"lift needs real coordinates (unitary-derived record), field {key!r} is {v}")
        v = v[0]
    if not _is_number(v):
        raise ValueError(f"lift field {key!r} must be a number or an [re, im] pair, got {v!r}")
    return float(v)


def cmd_conjugacy(args) -> int:
    from .reconstruct import conjugacy_decisions, unitary_pair

    rho1 = _read_tuple(args.a)
    rho2 = _read_tuple(args.b)
    (k,), (residual,) = conjugacy_decisions(*unitary_pair(rho1, rho2), args.tol)
    if k is None:
        _emit_json(args, {"conjugate": False, "k": None})
        return 1
    _emit_json(args, {"conjugate": True, "residual": residual, "k": k.tolist()})
    return 0


def cmd_membership(args) -> int:
    """Case-appropriate membership verdicts for a tuple, as verdict JSON."""
    from .invariants import pq, su2_rank2_coords, su2_rank3_coords, su3_traces, u_coords
    from .semialgebraic import classify_B, in_S_plus, in_su2_rank2_image, in_su2_rank3_image, su3_alcove_check

    rho = _read_tuple(args.input)
    case = (rho.r, rho.n, rho.descriptor.family)
    if case == (2, 2, "SU"):
        out = {"su2-rank2-image": in_su2_rank2_image(su2_rank2_coords(rho), args.tol).to_json()}
    elif case == (3, 2, "SU"):
        out = {"su2-rank3-image": in_su2_rank3_image(su2_rank3_coords(rho), args.tol).to_json()}
    elif case == (2, 3, "SU"):
        t = su3_traces(rho)
        u = u_coords(t, unitary=True)
        out = {
            "S-plus": in_S_plus(u, pq(t, unitary=True), args.tol).to_json(),
            "B-class": classify_B(rho, args.tol),
            "factor-alcove": {
                f"tau_{k}": su3_alcove_check(u.tau(k), args.tol).to_json()
                for k in (1, 2, 3, 4)
            },
        }
    else:
        raise ValueError(f"no membership test for (r, n, family) = {case}")
    _emit_json(args, out)
    return 0


def cmd_region(args) -> int:
    from .semialgebraic import region_grid

    header, rows = region_grid(args.name, args.resolution)
    _emit_csv(args, header, ([repr(float(x)) for x in row] for row in rows))
    return 0


def cmd_poincare(args) -> int:
    from .poincare import baird_poly, surface_counterexample_polys

    if args.surface:
        bundles, higgs, differ = surface_counterexample_polys()
        _emit_json(
            args,
            {
                "vector_bundles": list(bundles.coefficients),
                "higgs_bundles": list(higgs.coefficients),
                "differ": differ,
            },
        )
        return 0
    _emit_json(args, {"r": args.r, "coefficients": list(baird_poly(args.r).coefficients)})
    return 0


def cmd_verify(args) -> int:
    from .verify import SIZED, SUITES, run_suite

    names = sorted(SUITES) if args.suite == "all" else [args.suite]
    reports = []
    ok = True
    for name in names:
        # Under "all", --samples is a Monte Carlo count; the sized suites keep their defaults.
        samples = None if args.suite == "all" and name in SIZED else args.samples
        rep = run_suite(name, samples=samples, seed=args.seed)
        ok = ok and rep["passed"]
        print(f"[{'PASS' if rep['passed'] else 'FAIL'}] {name} ({rep['elapsed_s']}s)", file=sys.stderr)
        # stdout report stays byte-deterministic given --seed
        reports.append({k: v for k, v in rep.items() if k != "elapsed_s"})
    _emit_json(args, reports if len(reports) > 1 else reports[0])
    return 0 if ok else 1


# --- parser ------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="charvar", description=__doc__)
    tol = _default_tol(p)
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, input_arg=True, tol_arg=True):
        # --tol only on the commands that pass it on; argparse rejects it elsewhere.
        if tol_arg:
            sp.add_argument("--tol", type=float, default=tol)
        sp.add_argument("--out", default=None)
        if input_arg:
            sp.add_argument("--input", default=None, help="tuple JSON file, default stdin")

    sp = sub.add_parser("sample", help="sample a random representation tuple")
    sp.add_argument("--group", choices=("SU", "SL"), required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--r", type=int, required=True)
    sp.add_argument("--seed", type=int, default=0)
    common(sp, input_arg=False, tol_arg=False)
    sp.set_defaults(fn=cmd_sample)

    sp = sub.add_parser("invariants", help="invariant coordinates of a tuple")
    common(sp)
    sp.set_defaults(fn=cmd_invariants)

    sp = sub.add_parser("trace", help="trace of a word, e.g. 'x1 x2^-1'")
    sp.add_argument("--word", required=True)
    common(sp, tol_arg=False)
    sp.set_defaults(fn=cmd_trace)

    sp = sub.add_parser("retract", help="apply the retraction at time t")
    sp.add_argument("--t", type=float, required=True)
    common(sp, tol_arg=False)
    sp.set_defaults(fn=cmd_retract)

    sp = sub.add_parser("flow", help="run the Kempf-Ness descent")
    sp.add_argument("--max-iter", type=int)
    sp.add_argument("--flow-tol", type=float)
    sp.add_argument("--format", choices=("json", "csv"), default="json")
    common(sp, tol_arg=False)
    sp.set_defaults(fn=cmd_flow)

    sp = sub.add_parser("composite", help="flow to critical set, then retract")
    sp.add_argument("--t", type=float, required=True)
    sp.add_argument("--max-iter", type=int)
    common(sp)
    sp.set_defaults(fn=cmd_composite)

    sp = sub.add_parser("lift", help="lift invariant coordinates to an SU(2) tuple")
    sp.add_argument("--sign", type=int, choices=(-1, 1), default=1)
    common(sp)
    sp.set_defaults(fn=cmd_lift)

    sp = sub.add_parser("membership", help="semi-algebraic membership verdicts for a tuple")
    common(sp)
    sp.set_defaults(fn=cmd_membership)

    sp = sub.add_parser("conjugacy", help="find a unitary conjugator between tuples")
    sp.add_argument("--a", required=True, help="first tuple JSON file")
    sp.add_argument("--b", required=True, help="second tuple JSON file")
    common(sp, input_arg=False)
    sp.set_defaults(fn=cmd_conjugacy)

    sp = sub.add_parser("region", help="emit figure-data grids as CSV")
    sp.add_argument("--name", required=True)
    sp.add_argument("--resolution", type=int, default=64)
    common(sp, input_arg=False, tol_arg=False)
    sp.set_defaults(fn=cmd_region)

    sp = sub.add_parser("poincare", help="expand the rank-r Poincare polynomial")
    sp.add_argument("--r", type=int, default=3)
    sp.add_argument("--surface", action="store_true", help="print the surface-group constants")
    common(sp, input_arg=False, tol_arg=False)
    sp.set_defaults(fn=cmd_poincare)

    sp = sub.add_parser("verify", help="run a verification suite")
    # Set after add_argument, whose metavar check would iterate the choices.
    sp.add_argument("suite").choices = _SuiteChoices()
    sp.add_argument("--samples", type=int, default=None)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", default=None)  # no --tol: the acceptance bounds are fixed
    sp.set_defaults(fn=cmd_verify)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (OSError, ValueError) as exc:  # bad input: every charvar error and bound check is a ValueError
        parser.exit(2, f"charvar {args.command}: error: {type(exc).__name__}: {exc}\n")


if __name__ == "__main__":
    sys.exit(main())
