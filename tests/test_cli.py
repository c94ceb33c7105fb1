import csv
import io
import json

import numpy as np
import pytest

from charvar.cli import main
from charvar.groups import tuple_from_json
from charvar.kempfness import residual_matrix
from charvar.linalg import frob


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_sample_deterministic(capsys):
    code1, out1 = run_cli(capsys, "sample", "--group", "SU", "--n", "2", "--r", "3", "--seed", "7")
    code2, out2 = run_cli(capsys, "sample", "--group", "SU", "--n", "2", "--r", "3", "--seed", "7")
    assert code1 == code2 == 0
    assert out1 == out2  # byte-identical
    obj = json.loads(out1)
    assert obj["family"] == "SU" and obj["n"] == 2 and obj["r"] == 3


def test_sample_sl_valid(capsys, tmp_path):
    path = tmp_path / "t.json"
    code, out = run_cli(capsys, "sample", "--group", "SL", "--n", "3", "--r", "2",
                        "--seed", "1", "--out", str(path))
    assert code == 0
    obj = json.loads(path.read_text())
    m = np.array([[complex(e[0], e[1]) for e in row] for row in obj["matrices"][0]])
    assert abs(np.linalg.det(m) - 1) < 1e-10


def test_invariants_dispatch(capsys, tmp_path):
    path = tmp_path / "t.json"
    run_cli(capsys, "sample", "--group", "SU", "--n", "2", "--r", "2", "--seed", "3",
            "--out", str(path))
    code, out = run_cli(capsys, "invariants", "--input", str(path))
    assert code == 0
    rec = json.loads(out)
    assert set(rec) == {"a1", "a2", "a3", "sigma"}

    run_cli(capsys, "sample", "--group", "SU", "--n", "3", "--r", "2", "--seed", "3",
            "--out", str(path))
    code, out = run_cli(capsys, "invariants", "--input", str(path))
    rec = json.loads(out)
    assert {"t5", "u5", "P", "Q", "Delta", "disc"} <= set(rec)

    run_cli(capsys, "sample", "--group", "SU", "--n", "2", "--r", "5", "--seed", "3",
            "--out", str(path))
    code, out = run_cli(capsys, "invariants", "--input", str(path))
    rec = json.loads(out)
    assert "x1" in rec and "x1 x2^-1" in rec


BAD = [[[2.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]  # det 2
EYE = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
NAN = [[[float("nan"), 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]  # json writes a NaN literal


def test_invariants_rejects_invalid_tuple(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"family": "SL", "n": 2, "r": 2, "matrices": [BAD, EYE]}))
    with pytest.raises(SystemExit) as exc:
        main(["invariants", "--input", str(path)])
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert "NotInGroup" in captured.err and "Traceback" not in captured.err


@pytest.mark.parametrize("r", [2, 3])
def test_sample_invariants_lift_round_trip(capsys, tmp_path, r):
    tuple_path = tmp_path / "t.json"
    rec_path = tmp_path / "rec.json"
    lift_path = tmp_path / "lift.json"
    run_cli(capsys, "sample", "--group", "SU", "--n", "2", "--r", str(r), "--seed", "11",
            "--out", str(tuple_path))
    run_cli(capsys, "invariants", "--input", str(tuple_path), "--out", str(rec_path))
    code, _ = run_cli(capsys, "lift", "--input", str(rec_path), "--out", str(lift_path))
    assert code == 0
    code, out = run_cli(capsys, "invariants", "--input", str(lift_path))
    rec1 = json.loads(rec_path.read_text())
    rec2 = json.loads(out)
    keys = [k for k in rec1 if k.startswith("a")]
    assert keys
    for k in keys:
        assert rec1[k] == pytest.approx(rec2[k], abs=1e-9)


def test_retract_unitarizes(capsys, tmp_path):
    path = tmp_path / "t.json"
    run_cli(capsys, "sample", "--group", "SL", "--n", "2", "--r", "2", "--seed", "5",
            "--out", str(path))
    code, out = run_cli(capsys, "retract", "--t", "1.0", "--input", str(path))
    assert code == 0
    obj = json.loads(out)
    assert obj["family"] == "SU"
    m = np.array([[complex(e[0], e[1]) for e in row] for row in obj["matrices"][0]])
    assert np.linalg.norm(m @ m.conj().T - np.eye(2)) < 1e-10


def test_flow_csv_and_json(capsys, tmp_path):
    path = tmp_path / "t.json"
    run_cli(capsys, "sample", "--group", "SL", "--n", "2", "--r", "2", "--seed", "13",
            "--out", str(path))
    code, out = run_cli(capsys, "flow", "--input", str(path), "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["iter", "p", "residual", "step"]
    ps = [float(r[1]) for r in rows[1:]]
    assert all(b <= a for a, b in zip(ps, ps[1:]))
    code, out = run_cli(capsys, "flow", "--input", str(path), "--format", "json")
    obj = json.loads(out)
    assert obj["converged"] in (True, False)
    assert obj["orbit_closed"] is True  # a random SL(2) pair is irreducible
    out_m = tuple_from_json(obj["tuple"]).matrices
    assert abs(obj["residual"] - frob(residual_matrix(out_m))) <= 1e-12


@pytest.mark.parametrize("scale", [1e4, 1e8, 1e9])
def test_flow_on_large_diagonal_pairs(capsys, monkeypatch, scale):
    d = [[[scale, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0 / scale, 0.0]]]
    text = json.dumps({"family": "SL", "n": 2, "r": 2, "matrices": [d, d]})
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    code, out = run_cli(capsys, "flow")
    obj = json.loads(out)
    assert code == 0 and obj["converged"] is True and obj["orbit_closed"] is True
    assert obj["iterations"] == 0 and obj["residual"] == 0.0


def test_composite_records(capsys, tmp_path):
    path = tmp_path / "t.json"
    run_cli(capsys, "sample", "--group", "SU", "--n", "3", "--r", "2", "--seed", "2",
            "--out", str(path))
    code, out = run_cli(capsys, "composite", "--t", "1.0", "--input", str(path))
    assert code == 0
    obj = json.loads(out)
    for key, v in obj["before"].items():
        a = complex(*v) if isinstance(v, list) else complex(v)
        w = obj["after"][key]
        b = complex(*w) if isinstance(w, list) else complex(w)
        assert abs(a - b) < 1e-8


def test_composite_on_a_badly_conditioned_tuple(capsys, tmp_path):
    # (diag(1e5, 1e-5), I) is SL(2)-valued, so the retraction takes it.
    path = tmp_path / "t.json"
    x1 = [[[1e5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1e-5, 0.0]]]
    eye = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
    path.write_text(json.dumps({"family": "SL", "n": 2, "r": 2, "matrices": [x1, eye]}))
    code, out = run_cli(capsys, "composite", "--t", "1", "--input", str(path))
    assert code == 0
    obj = json.loads(out)
    assert obj["converged"] is True and obj["tuple"]["family"] == "SU"
    assert np.allclose(obj["tuple"]["matrices"], [eye, eye], atol=1e-15)


def test_conjugacy_command(capsys, tmp_path):
    a_path = tmp_path / "a.json"
    b_path = tmp_path / "b.json"
    run_cli(capsys, "sample", "--group", "SU", "--n", "2", "--r", "2", "--seed", "21",
            "--out", str(a_path))
    # conjugate by hand
    obj = json.loads(a_path.read_text())
    from charvar.groups import conjugate_tuple, tuple_from_json, tuple_to_json
    from charvar.linalg import haar_su

    rho = tuple_from_json(obj)
    k = haar_su(2, np.random.default_rng(33))
    b_path.write_text(json.dumps(tuple_to_json(conjugate_tuple(k, rho))))
    code, out = run_cli(capsys, "conjugacy", "--a", str(a_path), "--b", str(b_path))
    assert code == 0
    rep = json.loads(out)
    assert rep["conjugate"] is True and rep["residual"] < 1e-8

    other_path = tmp_path / "c.json"
    run_cli(capsys, "sample", "--group", "SU", "--n", "2", "--r", "2", "--seed", "99",
            "--out", str(other_path))
    code, out = run_cli(capsys, "conjugacy", "--a", str(a_path), "--b", str(other_path))
    assert code == 1
    assert json.loads(out)["conjugate"] is False


def test_conjugacy_reports_the_library_residual(capsys, tmp_path):
    from charvar.groups import conjugate_tuple, sample_tuple, su, tuple_to_json
    from charvar.linalg import haar_su
    from charvar.reconstruct import conjugacy_decisions

    rng = np.random.default_rng(34)
    rho = sample_tuple(su(3), 2, rng)
    other = conjugate_tuple(haar_su(3, rng), rho)
    for name, t in (("a", rho), ("b", other)):
        (tmp_path / f"{name}.json").write_text(json.dumps(tuple_to_json(t)))
    code, out = run_cli(capsys, "conjugacy", "--a", str(tmp_path / "a.json"),
                        "--b", str(tmp_path / "b.json"), "--tol", "1e-9")
    assert code == 0
    _, err = conjugacy_decisions(rho.matrices[None], other.matrices[None], 1e-9)
    assert json.loads(out)["residual"] == err[0]


def test_trace_command(capsys, tmp_path):
    path = tmp_path / "t.json"
    run_cli(capsys, "sample", "--group", "SU", "--n", "2", "--r", "2", "--seed", "4",
            "--out", str(path))
    code, out = run_cli(capsys, "trace", "--word", "x1 x1^-1", "--input", str(path))
    assert code == 0
    obj = json.loads(out)
    assert obj["trace"][0] == pytest.approx(2.0, abs=1e-12)
    assert obj["trace"][1] == pytest.approx(0.0, abs=1e-12)


def test_membership_command(capsys, tmp_path):
    path = tmp_path / "t.json"
    run_cli(capsys, "sample", "--group", "SU", "--n", "2", "--r", "2", "--seed", "6",
            "--out", str(path))
    code, out = run_cli(capsys, "membership", "--input", str(path))
    assert code == 0
    obj = json.loads(out)
    verdict = obj["su2-rank2-image"]
    assert set(verdict) == {"inside", "on_boundary", "margins"}
    assert verdict["inside"] is True

    run_cli(capsys, "sample", "--group", "SU", "--n", "3", "--r", "2", "--seed", "6",
            "--out", str(path))
    code, out = run_cli(capsys, "membership", "--input", str(path))
    obj = json.loads(out)
    assert obj["B-class"] in ("B_plus", "B_zero", "B_minus")
    assert obj["factor-alcove"]["tau_1"]["inside"] is True


def test_region_command(capsys):
    code, out = run_cli(capsys, "region", "--name", "su3-alcove", "--resolution", "16")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["p1", "p2", "margin"]
    assert len(rows) == 1 + 256
    code, out = run_cli(capsys, "region", "--name", "su2-tetrahedron-boundary",
                        "--resolution", "16")
    rows = list(csv.reader(io.StringIO(out)))
    assert len(rows) == 1 + 256
    pts = {tuple(float(x) for x in r) for r in rows[1:]}
    assert (1.0, 1.0, 1.0) in pts and (1.0, -1.0, -1.0) in pts


def test_poincare_command(capsys):
    code, out = run_cli(capsys, "poincare", "--r", "3")
    assert code == 0
    assert json.loads(out)["coefficients"] == [1, 0, 0, 0, 0, 0, 1]
    code, out = run_cli(capsys, "poincare", "--surface")
    obj = json.loads(out)
    assert obj["differ"] is True


def test_verify_command(capsys):
    code, out = run_cli(capsys, "verify", "fricke", "--samples", "200")
    assert code == 0
    rep = json.loads(out)
    assert rep["passed"] is True and rep["suite"] == "fricke"
    # stdout report is byte-deterministic given the seed
    code, out2 = run_cli(capsys, "verify", "fricke", "--samples", "200")
    assert out2 == out


def test_verify_all_samples_sizes_only_monte_carlo_suites(capsys):
    # Under "all", --samples is a Monte Carlo count: baird and figures keep their sizes.
    code, out = run_cli(capsys, "verify", "all", "--samples", "2")
    reps = {rep["suite"]: rep for rep in json.loads(out)}
    assert code == 0 and all(rep["passed"] for rep in reps.values())
    assert reps["baird"]["rmax"] == 10 and reps["figures"]["resolution"] == 64
    assert reps["fricke"]["samples"] == reps["kempf-ness"]["samples"] == 2
    # A single sized suite still takes its size from --samples.
    code, out = run_cli(capsys, "verify", "baird", "--samples", "4")
    assert json.loads(out)["rmax"] == 4


def test_verify_has_no_tol(capsys):
    # The acceptance bounds are fixed; a --tol flag would be ignored.
    with pytest.raises(SystemExit) as exc:
        main(["verify", "fricke", "--tol", "1"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [["retraction", "--samples", "-5"], ["fricke", "--samples", "0"]])
def test_verify_rejects_empty_runs(capsys, argv):
    # A run that checks nothing must not report a pass; run_suite refuses it.
    with pytest.raises(SystemExit) as exc:
        main(["verify"] + argv)
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert "samples must be at least 1" in captured.err and "Traceback" not in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["sample", "--group", "SU", "--n", "2", "--r", "2"],
        ["trace", "--word", "x1"],
        ["flow"],
        ["region", "--name", "su3-alcove"],
        ["poincare"],
        ["retract", "--t", "1"],
    ],
)
def test_tol_rejected_where_unused(argv):
    # These commands never read a tolerance, so --tol would do nothing.
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--tol", "1"])
    assert exc.value.code == 2


def test_tol_env_override(capsys, monkeypatch):
    monkeypatch.setenv("CHARVAR_TOL", "1e-6")
    from charvar.cli import build_parser

    args = build_parser().parse_args(["invariants"])
    assert args.tol == 1e-6
    monkeypatch.setenv("CHARVAR_TOL", "junk")
    with pytest.raises(SystemExit):
        build_parser()


@pytest.mark.parametrize(
    "raw, error",
    [
        ("inf", "ValueError: CHARVAR_TOL='inf': tol must be finite and >= 0, got inf"),
        ("nan", "ValueError: CHARVAR_TOL='nan': tol must be finite and >= 0, got nan"),
        ("-1e-9", "ValueError: CHARVAR_TOL='-1e-9': tol must be finite and >= 0, got -1e-09"),
        ("junk", "ValueError: CHARVAR_TOL='junk': could not convert string to float: 'junk'"),
    ],
)
def test_tol_env_follows_the_tol_rule(capsys, tmp_path, monkeypatch, raw, error):
    # CHARVAR_TOL passes the check --tol passes: 0 is accepted, and a value
    # --tol would refuse exits 2 with one line on stderr, before any input is read.
    path = tmp_path / "su22.json"
    run_cli(capsys, "sample", "--group", "SU", "--n", "2", "--r", "2", "--out", str(path))
    monkeypatch.setenv("CHARVAR_TOL", "0")
    assert run_cli(capsys, "membership", "--input", str(path))[0] == 0
    monkeypatch.setenv("CHARVAR_TOL", raw)
    with pytest.raises(SystemExit) as exc:
        main(["membership", "--input", str(path)])
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert captured.err == f"charvar: error: {error}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["flow", "--flow-tol", "nan"],
        ["flow", "--flow-tol", "-1e-9"],
        ["flow", "--flow-tol", "inf"],
        ["flow", "--max-iter", "-3"],
        ["composite", "--t", "1", "--max-iter", "-1"],
        ["sample", "--group", "SU", "--n", "0", "--r", "2"],
        ["sample", "--group", "SL", "--n", "2", "--r", "0"],
        ["poincare", "--r", "0"],
        ["region", "--name", "su3-alcove", "--resolution", "1"],
        ["region", "--name", "su3-alcove", "--resolution", "15"],
    ],
)
def test_bad_parameters_are_usage_errors(capsys, argv):
    # Rejected while parsing, before any input is read: exit 2 and nothing on stdout.
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert "Traceback" not in captured.err


def test_flow_max_iter_zero_returns_the_input(capsys, tmp_path):
    path = tmp_path / "t.json"
    run_cli(capsys, "sample", "--group", "SL", "--n", "2", "--r", "2", "--seed", "4", "--out", str(path))
    code, out = run_cli(capsys, "flow", "--max-iter", "0", "--flow-tol", "0", "--input", str(path))
    obj = json.loads(out)
    assert code == 0 and obj["iterations"] == 0 and obj["converged"] is False
    assert obj["tuple"] == json.loads(path.read_text())


OUTSIDE_IMAGE = {"a1": 1.0000001, "a2": 1, "a3": 1, "a12": 1, "a13": 1, "a23": 1}


@pytest.mark.parametrize(
    "text, argv, error",
    [
        (json.dumps(OUTSIDE_IMAGE), ["lift"], "NotInImage"),
        (json.dumps({"family": "SL", "n": 2, "r": 2, "matrices": [BAD, EYE]}), ["invariants"], "NotInGroup"),
        (json.dumps({"family": "SL", "n": 2, "r": 2, "matrices": [NAN, EYE]}), ["invariants"], "NotInGroup"),
        ("{not json", ["invariants"], "JSONDecodeError"),
        (json.dumps({"family": "SU", "r": 2, "matrices": [EYE, EYE]}), ["invariants"],
         "ValueError: tuple JSON has no 'n' field"),
        ("su22", ["trace", "--word", "x3"], "ValueError"),
        ("su22", ["retract", "--t", "2"], "ValueError"),
        (None, ["region", "--name", "nosuch"], "UnknownRegion"),
        ("sl22", ["membership"], "ValueError"),
        (None, ["invariants", "--input", "missing.json"], "FileNotFoundError"),
        (None, ["verify", "all", "--samples", "0"], "ValueError: samples must be at least 1"),
        ("su22", ["membership", "--tol", "nan"], "ValueError: tol must be finite and >= 0, got nan"),
        (json.dumps({"a1": 0.1, "a2": 0.2, "a3": 0.3}), ["lift", "--tol", "nan"],
         "ValueError: tol must be finite and >= 0, got nan"),
        ("su22", ["invariants", "--tol", "-1"], "ValueError: tol must be finite and >= 0, got -1.0"),
        ("5", ["lift"], "ValueError: lift needs an invariant record (a JSON object), got int"),
        (json.dumps({"a1": "x", "a2": 0.2, "a3": 0.3}), ["lift"], "ValueError: lift field 'a1' must be a number"),
        (json.dumps({k: 0.1 for k in ("a1", "a2", "a3", "a12", "a13")}), ["lift"],
         "ValueError: lift record has no 'a23' field"),
        (json.dumps({"family": "SU", "n": 2, "r": 1, "matrices": [[[1, 2]]]}), ["invariants"],
         "ValueError: tuple JSON field 'matrices' is malformed"),
        (json.dumps({"family": "SU", "n": [2], "r": 1, "matrices": [EYE]}), ["invariants"],
         "ValueError: tuple JSON field 'n' is malformed"),
    ],
    ids=["lift-outside-image", "off-group", "non-finite", "invalid-json", "no-n", "word-rank", "retract-t",
         "unknown-region", "membership-sl", "missing-input", "verify-all-zero", "membership-tol-nan",
         "lift-tol-nan", "invariants-tol-negative", "lift-not-a-record", "lift-field-not-a-number",
         "lift-partial-triple", "entries-not-pairs", "n-not-a-number"],
)
def test_bad_input_exits_2_without_traceback(capsys, tmp_path, monkeypatch, text, argv, error):
    from charvar.groups import sample_tuple, sl, su, tuple_to_json

    rng = np.random.default_rng(0)
    pairs = {"su22": sample_tuple(su(2), 2, rng), "sl22": sample_tuple(sl(2), 2, rng)}
    monkeypatch.chdir(tmp_path)
    if text is not None:
        (tmp_path / "in.json").write_text(json.dumps(tuple_to_json(pairs[text])) if text in pairs else text)
        argv = argv + ["--input", "in.json"]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert f"charvar {argv[0]}: error: {error}" in captured.err and "Traceback" not in captured.err


def test_tol_zero_is_accepted(capsys, tmp_path):
    # The --tol check refuses only non-finite and negative values.
    paths = {}
    for n, r in ((2, 2), (2, 3), (3, 2)):
        paths[n, r] = tmp_path / f"su{n}{r}.json"
        run_cli(capsys, "sample", "--group", "SU", "--n", str(n), "--r", str(r), "--out", str(paths[n, r]))
        for cmd in ("membership", "invariants"):
            assert run_cli(capsys, cmd, "--tol", "0", "--input", str(paths[n, r]))[0] == 0
    a = str(paths[3, 2])
    assert run_cli(capsys, "conjugacy", "--tol", "0", "--a", a, "--b", a)[0] == 0
    (tmp_path / "rec.json").write_text(json.dumps({"a1": 0.1, "a2": 0.2, "a3": 0.3}))
    assert run_cli(capsys, "lift", "--tol", "0", "--input", str(tmp_path / "rec.json"))[0] == 0
