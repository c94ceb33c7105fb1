import csv
import io
import json

import numpy as np
import pytest

from charvar.cli import main


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
    assert "tuple" in obj


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


def test_verify_has_no_tol(capsys):
    # The acceptance bounds are fixed; a --tol flag would be ignored.
    with pytest.raises(SystemExit) as exc:
        main(["verify", "fricke", "--tol", "1"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["sample", "--group", "SU", "--n", "2", "--r", "2"],
        ["trace", "--word", "x1"],
        ["flow"],
        ["region", "--name", "su3-alcove"],
        ["poincare"],
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
