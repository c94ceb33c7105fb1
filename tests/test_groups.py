import inspect
import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from charvar.groups import (
    GROUP_TOL,
    DimensionMismatch,
    GroupDescriptor,
    NotInGroup,
    Quaternion,
    RepTuple,
    cartan,
    conjugate_tuple,
    from_quaternion,
    hermitian_from_normals,
    in_group,
    quaternion_matrix,
    sample_tuple,
    sl,
    su,
    to_quaternion,
    tuple_from_json,
    tuple_to_json,
    tuples_in_group,
    validate,
)
from charvar.invariants import fricke_check, su2_rank2_coords, su2_rank3_coords, su3_traces
from charvar.kempfness import kn_flow, kn_functional, moment_residual
from charvar.linalg import Singular, exp_herm, frob, haar_su, unitary_det, unitary_eig
from charvar.reconstruct import rank3_lift_matrices, su2_rank3_lift, unitary_conjugacy
from charvar.retraction import retract_path, retraction_path
from charvar.semialgebraic import alcove_lambda, classify_B, product_condition

QI = Quaternion(0, 1, 0, 0)
QJ = Quaternion(0, 0, 1, 0)
QK = Quaternion(0, 0, 0, 1)


def test_cartan():
    assert np.array_equal(cartan(np.eye(2)), np.eye(2))
    assert np.array_equal(
        cartan(np.array([[0, 1], [0, 0]])), np.array([[0, 0], [1, 0]])
    )
    rng = np.random.default_rng(0)
    g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    h = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    assert np.allclose(cartan(cartan(g)), g)
    assert np.allclose(cartan(g @ h), cartan(h) @ cartan(g))
    k = haar_su(3, rng)
    assert frob(cartan(k) - np.linalg.inv(k)) < 1e-12


def test_validate():
    assert validate(np.eye(2), su(2))
    shear = np.array([[1, 1], [0, 1]], dtype=complex)
    assert not validate(shear, su(2))
    assert validate(shear, sl(2))
    rng = np.random.default_rng(1)
    assert validate(haar_su(3, rng), su(3))
    assert not validate(np.eye(3), su(2))  # dimension mismatch
    assert validate(np.stack([np.eye(2), shear]), su(2)).tolist() == [True, False]


def test_sl_validate_keeps_lu_on_badly_conditioned_matrices():
    # 200 SL(3,C) conjugates g k g^-1, g = exp(H) with |H|_F = 6: condition
    # numbers about 5e6.  LU's determinants stay within GROUP_TOL, while the
    # cofactor sum of unitary_det misses it on more than half of them; so the
    # SL branch of validate must not take unitary_det.
    rng = np.random.default_rng(0)
    h = hermitian_from_normals(rng.standard_normal((200, 2, 3, 3)))
    h *= (6.0 / np.linalg.norm(h, axis=(-2, -1)))[:, None, None]
    x = exp_herm(h) @ haar_su(3, rng, 200) @ exp_herm(h, -1.0)
    assert validate(x, sl(3), GROUP_TOL).all()
    assert (np.abs(unitary_det(x) - 1.0) > GROUP_TOL).sum() > 100


def test_group_descriptor_errors():
    with pytest.raises(ValueError):
        GroupDescriptor("SO", 3)
    with pytest.raises(ValueError):
        GroupDescriptor("SU", 0)


def test_quaternion_basis_matrices():
    assert to_quaternion(np.eye(2)) == Quaternion(1, 0, 0, 0)
    assert to_quaternion(np.diag([1j, -1j])) == QI
    assert to_quaternion(np.array([[0, 1], [-1, 0]], dtype=complex)) == QJ


def test_quaternion_round_trip_and_product():
    rng = np.random.default_rng(2)
    for _ in range(50):
        g = haar_su(2, rng)
        h = haar_su(2, rng)
        qg, qh = to_quaternion(g), to_quaternion(h)
        assert frob(from_quaternion(qg) - g) < 1e-12
        # Hamilton product matches matrix product under the embedding.
        assert frob(from_quaternion(qg * qh) - g @ h) < 1e-12
    # The matrix formula broadcasts: a stack of quaternions gives a stack of matrices.
    q = rng.standard_normal((5, 4))
    q /= np.linalg.norm(q, axis=1, keepdims=True)
    stack = quaternion_matrix(*q.T)
    assert stack.shape == (5, 2, 2)
    assert all(np.array_equal(m, from_quaternion(Quaternion(*row))) for m, row in zip(stack, q))


def test_quaternion_identities():
    assert QI * QJ == QK
    assert QJ * QK == QI
    assert (QI * QI).a == -1
    rng = np.random.default_rng(3)
    for _ in range(20):
        g = haar_su(2, rng)
        q = to_quaternion(g)
        qinv = to_quaternion(g.conj().T)
        assert abs(qinv.re - q.re) < 1e-12
        assert abs(sum(x * x for x in q.im) - (1 - q.re**2)) < 1e-12


def test_quaternion_rejects_bad_input():
    with pytest.raises(NotInGroup):
        to_quaternion(np.array([[1, 1], [0, 1]], dtype=complex))
    with pytest.raises(NotInGroup):
        from_quaternion(Quaternion(1, 1, 0, 0))
    with pytest.raises(NotInGroup):
        from_quaternion(Quaternion(1.0 + 1e-6, 0, 0, 0))  # unit only within 1e-6


def test_quaternion_model_takes_what_a_tuple_holds():
    # diag(e^a, e^-a) has det 1 and misses unitarity by about 2 sqrt(2) a = 5e-9,
    # inside GROUP_TOL: an SU(2) RepTuple holds it, so the quaternion model takes it.
    a = 5e-9 / (2.0 * np.sqrt(2.0))
    x = np.diag([np.exp(a), np.exp(-a)]).astype(complex)
    assert abs(np.linalg.norm(x @ x.conj().T - np.eye(2)) - 5e-9) < 1e-12
    rho = RepTuple(su(2), (x, np.eye(2)))
    q = to_quaternion(rho[0])
    assert (q.a, q.b, q.c, q.d) == (np.exp(a), 0.0, 0.0, 0.0)
    assert np.array_equal(from_quaternion(to_quaternion(rho[1])), np.eye(2))


def test_conjugate_tuple():
    rng = np.random.default_rng(4)
    rho = sample_tuple(su(2), 3, rng)
    assert conjugate_tuple(np.eye(2), rho).matrices[0] is not rho.matrices[0]
    same = conjugate_tuple(np.eye(2), rho)
    assert all(frob(a - b) < 1e-15 for a, b in zip(same.matrices, rho.matrices))
    k = haar_su(2, rng)
    conj = conjugate_tuple(k, rho)
    assert conj.descriptor == su(2)
    assert validate(conj.matrices, conj.descriptor, GROUP_TOL).all()
    g = sample_tuple(sl(2), 1, rng)[0]
    moved = conjugate_tuple(g, rho)
    assert moved.descriptor == sl(2)
    for a, b in zip(rho.matrices, moved.matrices):
        assert abs(np.trace(a) - np.trace(b)) < 1e-12
    # A scalar g leaves the tuple unitary-valued, so it stays an SU tuple.
    pair = RepTuple(su(2), rho.matrices[:2])
    for g in (2 * np.eye(2), np.exp(0.3j) * np.eye(2)):
        scaled = conjugate_tuple(g, pair)
        assert scaled.descriptor == su(2)
        assert np.allclose(su2_rank2_coords(scaled).as_array(), su2_rank2_coords(pair).as_array())


def test_conjugate_tuple_singularity_is_scale_free():
    rng = np.random.default_rng(6)
    rho = sample_tuple(su(3), 2, rng)
    moved = conjugate_tuple(1e-4 * np.eye(3), rho)
    assert all(frob(a - b) < 1e-12 for a, b in zip(moved.matrices, rho.matrices))
    with pytest.raises(Singular):
        conjugate_tuple(1e-4 * np.diag([1.0, 1.0, 0.0]), rho)


def test_conjugate_tuple_dimension_mismatch():
    rng = np.random.default_rng(5)
    rho = sample_tuple(su(2), 2, rng)
    with pytest.raises(DimensionMismatch):
        conjugate_tuple(np.eye(3), rho)


def test_sample_tuple():
    rng = np.random.default_rng(6)
    rho = sample_tuple(su(2), 3, rng)
    assert validate(rho.matrices, rho.descriptor, GROUP_TOL).all() and rho.r == 3
    rho_sl = sample_tuple(sl(3), 2, rng)
    for m in rho_sl.matrices:
        assert abs(np.linalg.det(m) - 1) < 1e-10
    rng1, rng2 = np.random.default_rng(7), np.random.default_rng(7)
    a = sample_tuple(sl(3), 2, rng1)
    b = sample_tuple(sl(3), 2, rng2)
    assert all(np.array_equal(x, y) for x, y in zip(a.matrices, b.matrices))
    # A tuple is one stacked draw, bitwise equal to r single draws, and it
    # leaves the generator where the single draws do.
    for n in (1, 2, 3, 5):
        rng1, rng2 = np.random.default_rng(n), np.random.default_rng(n)
        stacked = sample_tuple(su(n), 4, rng1)
        single = [haar_su(n, rng2) for _ in range(4)]
        assert all(np.array_equal(x, y) for x, y in zip(stacked.matrices, single))
        assert rng1.random() == rng2.random()
        stacked = sample_tuple(sl(n), 4, rng1)
        single = [_one_sl(n, rng2) for _ in range(4)]
        assert np.array_equal(stacked.matrices, np.array(single))
        assert np.array_equal(hermitian_from_normals(rng1.standard_normal((2, n, n))), _one_traceless_hermitian(n, rng2))
        assert rng1.standard_normal(3).tolist() == rng2.standard_normal(3).tolist()


def _one_traceless_hermitian(n, rng):
    """Two (n, n) normal draws, real then imaginary part, made Hermitian and traceless."""
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    h = (a + a.conj().T) / 2.0
    return h - (np.trace(h) / n) * np.eye(n)


def _one_sl(n, rng):
    """One SL(n, C) matrix drawn on its own: the Haar factor, then the Hermitian one."""
    k = haar_su(n, rng)
    return k @ exp_herm(_one_traceless_hermitian(n, rng))


def test_rep_tuple_immutability():
    """``matrices`` is one read-only (r, n, n) complex array that the tuple owns."""
    rng = np.random.default_rng(8)
    for n, r in ((2, 1), (2, 3), (3, 2)):
        source = haar_su(n, rng, r)
        rho = RepTuple(su(n), source)
        assert isinstance(rho.matrices, np.ndarray)
        assert rho.matrices.shape == (r, n, n) and rho.matrices.dtype == complex
        source[0, 0, 0] = 5.0
        assert rho.matrices[0, 0, 0] != 5.0
        with pytest.raises(ValueError):
            rho.matrices[0][0, 0] = 5.0


def test_rep_tuple_value_equality():
    rng = np.random.default_rng(10)
    rho = sample_tuple(su(2), 2, rng)
    other = sample_tuple(su(2), 2, rng)
    assert rho == RepTuple(su(2), rho.matrices.copy())
    assert rho != other and not (rho == other)  # distinct draws compare unequal, no ValueError
    assert rho != RepTuple(sl(2), rho.matrices)  # same matrices, other group
    assert rho != sample_tuple(su(2), 3, rng) and rho != "rho"
    with pytest.raises(TypeError):
        hash(rho)


def test_tuple_json_round_trip():
    rng = np.random.default_rng(9)
    rho = sample_tuple(sl(3), 2, rng)
    obj = tuple_to_json(rho)
    assert set(obj) == {"family", "n", "r", "matrices"}
    assert obj["family"] == "SL" and obj["n"] == 3 and obj["r"] == 2
    text = json.dumps(obj)
    back = tuple_from_json(json.loads(text))
    assert back.descriptor == rho.descriptor
    assert all(np.array_equal(a, b) for a, b in zip(back.matrices, rho.matrices))


def test_rep_tuple_validated_at_construction():
    shear = np.array([[1, 1], [0, 1]], dtype=complex)
    eye = np.eye(2, dtype=complex)
    assert RepTuple(sl(2), (shear, eye)).r == 2  # in SL(2), not in SU(2)
    nan, inf = np.full((2, 2), np.nan), eye + np.diag([np.inf, 0])
    table = [
        (su(2), (shear, eye), NotInGroup),  # off the group
        (sl(2), (np.diag([2.0, 1.0]), eye), NotInGroup),
        (sl(2), (eye, nan), NotInGroup),
        (su(2), (inf, eye), NotInGroup),
        (sl(2), (eye, np.eye(3)), DimensionMismatch),  # ragged
        (sl(2), (np.eye(3), np.eye(3)), DimensionMismatch),  # wrong n
        (sl(2), (np.ones((2, 3)), np.ones((2, 3))), DimensionMismatch),  # non-square
        (sl(2), eye, DimensionMismatch),  # one matrix, not a tuple of them
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for d, bad, err in table:  # one check behind both construction paths
            with pytest.raises(err):
                RepTuple(d, bad)
            with pytest.raises(err):
                tuples_in_group(d, [bad])
    obj = tuple_to_json(RepTuple(sl(2), (shear, eye)))
    obj["matrices"][0][0][0] = [2.0, 0.0]  # det 2
    with pytest.raises(NotInGroup):
        tuple_from_json(obj)
    # A single matrix takes a tuple's check: RepTuple(d, [m]), to_quaternion(m)
    # and alcove_lambda(m) raise one class on each input.
    singles = [
        (nan, NotInGroup),
        (inf, NotInGroup),
        (shear, NotInGroup),
        (np.ones((2, 3)), DimensionMismatch),  # non-square
        (np.ones(2), DimensionMismatch),  # 1-D
        ([[1, 0], [0, 1, 0]], DimensionMismatch),  # ragged rows
        ([["a", 0], [0, 1]], ValueError),  # an entry that is not a number
        (5, DimensionMismatch),  # no rows
        ([], DimensionMismatch),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for m, err in singles:
            for call in (lambda m: RepTuple(su(2), [m]), to_quaternion, alcove_lambda):
                with pytest.raises(err) as exc:
                    call(m)
                assert err is not ValueError or not isinstance(exc.value, DimensionMismatch)
        with pytest.raises(DimensionMismatch):
            to_quaternion(np.eye(3))


@pytest.mark.parametrize("d", [su(2), su(3), sl(2)], ids=str)
def test_validate_is_quiet_on_non_finite_input(d):
    rng = np.random.default_rng(12)
    x = np.array(sample_tuple(d, 6, rng).matrices)
    x[1, 0, 1] = np.nan
    x[3, 1, 1] = np.inf
    x[4] = complex(np.inf, -np.inf)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert validate(x, d, GROUP_TOL).tolist() == [True, False, True, False, False, True]
        with pytest.raises(NotInGroup):
            in_group(x, d)


def test_tuples_build_within_group_tol():
    # A tuple that builds is valid at GROUP_TOL: det and unitarity miss by 6e-9,
    # inside GROUP_TOL = 1e-8 but outside DEFAULT_TOL = 1e-9.
    x = (1.0 + 3e-9) * np.diag([1j, -1j])
    rho = RepTuple(su(2), (x, np.eye(2)))
    assert validate(rho.matrices, rho.descriptor, GROUP_TOL).all()
    assert not validate(rho.matrices, rho.descriptor, 1e-9).all()


def test_operations_trust_built_tuples(monkeypatch):
    """Operations never re-check group membership; only construction does."""
    import charvar.groups

    rng = np.random.default_rng(10)
    pair2, triple2 = sample_tuple(su(2), 2, rng), sample_tuple(su(2), 3, rng)
    pair3, sl_pair = sample_tuple(su(3), 2, rng), sample_tuple(sl(2), 2, rng)
    calls = []
    real = charvar.groups.validate
    monkeypatch.setattr(charvar.groups, "validate", lambda *a, **k: calls.append(1) or real(*a, **k))
    su2_rank2_coords(pair2)
    fricke_check(pair2)
    su2_rank3_coords(triple2)
    su3_traces(pair3)
    classify_B(pair3)
    product_condition(pair3)
    assert unitary_conjugacy(pair3, pair3) is not None
    for rho in (pair2, sl_pair):
        kn_functional(rho)
        moment_residual(rho)
    assert calls == []
    kn_flow(sl_pair, max_iter=50)
    assert len(calls) == 1  # the flowed pair's own construction, one per tuple
    # A stack of tuples is checked once: both sheets of a non-unique lift,
    # and each descriptor of a retraction path (an SL path's t < 1, then t = 1).
    rec = su2_rank3_coords(triple2)
    calls.clear()
    res = su2_rank3_lift(rec)
    assert not res.unique and len(res.tuples) == 2 and len(calls) == 1
    ts = (0.0, 0.25, 0.5, 0.75, 1.0)
    paths = {}
    for rho, checks in ((sl_pair, 2), (pair2, 1)):
        calls.clear()
        paths[rho.descriptor] = retraction_path(rho, ts)
        assert len(calls) == checks
    monkeypatch.undo()
    sheets = rank3_lift_matrices(rec.as_array()[None])[0][0]
    for rho, sheet in zip(res.tuples, sheets):
        assert not rho.matrices.flags.writeable and rho == RepTuple(su(2), sheet)
    for rho in (sl_pair, pair2):
        path = paths[rho.descriptor]
        for (t, got), mats in zip(path.samples, retract_path(rho.matrices, ts)):
            d = su(rho.n) if t == 1.0 else rho.descriptor
            assert not got.matrices.flags.writeable and got == RepTuple(d, mats)


def test_tuples_in_group_checks_a_stack():
    rng = np.random.default_rng(11)
    x = haar_su(2, rng, 12).reshape(4, 3, 2, 2)
    tuples = tuples_in_group(su(2), x)
    assert len(tuples) == 4
    for rho, mats in zip(tuples, x):
        assert rho == RepTuple(su(2), mats)
        assert not rho.matrices.flags.writeable and rho.matrices.flags.c_contiguous
    assert x.flags.writeable  # the caller's stack is copied, not frozen
    assert tuples_in_group(su(2), np.empty((0, 3, 2, 2))) == []
    shear = np.array([[1, 1], [0, 1]], dtype=complex)
    assert tuples_in_group(sl(2), [[shear, np.eye(2)]]) == [RepTuple(sl(2), (shear, np.eye(2)))]
    for entry in (np.diag([2.0, 0.5]), np.full((2, 2), np.nan), np.full((2, 2), np.inf)):
        bad = x.copy()
        bad[2, 1] = entry  # one matrix: det 1 but not unitary, NaN, inf
        with pytest.raises(NotInGroup):
            tuples_in_group(su(2), bad)
    with pytest.raises(NotInGroup):
        tuples_in_group(sl(2), [[shear, np.full((2, 2), np.nan)]])
    for d, bad in ((su(3), x), (su(2), x[0]), (su(2), x[..., :1]), (sl(2), [[np.eye(2), np.eye(3)]])):
        with pytest.raises(DimensionMismatch):
            tuples_in_group(d, bad)


def _reference_su_verdicts(g, tol):
    """The SU check written out: |g g* - I|_F <= tol and |det g - 1| <= tol."""
    resid = np.linalg.norm(g @ np.conj(np.swapaxes(g, -1, -2)) - np.eye(g.shape[-1]), axis=(-2, -1))
    return (resid <= tol) & (np.abs(unitary_det(g) - 1.0) <= tol)


@settings(derandomize=True, max_examples=80, deadline=None)
@given(
    n=st.integers(1, 4),
    count=st.integers(1, 6),
    eps=st.sampled_from([0.5, 2.0]),
    tol=st.sampled_from([1e-9, GROUP_TOL, 1e-6]),
    seed=st.integers(0, 2**32 - 1),
)
def test_su_validate_matches_the_written_out_check(n, count, eps, tol, seed):
    # Haar matrices moved by eps * tol in a random direction: within tol of
    # SU(n) or not, the one-pass residual gives the written-out verdicts.
    rng = np.random.default_rng(seed)
    e = rng.standard_normal((count, n, n)) + 1j * rng.standard_normal((count, n, n))
    g = haar_su(n, rng, count) + eps * tol * e / np.linalg.norm(e, axis=(-2, -1))[:, None, None]
    assert np.array_equal(validate(g, su(n), tol), _reference_su_verdicts(g, tol))
    assert validate(g[0], su(n), tol) == _reference_su_verdicts(g[0], tol)


def test_su_validate_perturbations_land_on_both_sides():
    # The perturbations of the property above: at eps = 0.5 every matrix is
    # within tol of SU(3), at eps = 2 none is.
    rng = np.random.default_rng(12)
    e = rng.standard_normal((400, 3, 3)) + 1j * rng.standard_normal((400, 3, 3))
    for eps, inside in ((0.5, True), (2.0, False)):
        g = haar_su(3, rng, 400) + eps * GROUP_TOL * e / np.linalg.norm(e, axis=(-2, -1))[:, None, None]
        ok = validate(g, su(3), GROUP_TOL)
        assert np.array_equal(ok, _reference_su_verdicts(g, GROUP_TOL))
        assert np.all(ok == inside)


def test_validity_tol_removed_from_operations():
    for fn in (
        su2_rank2_coords, su2_rank3_coords, fricke_check, su3_traces, kn_functional, moment_residual, unitary_eig
    ):
        assert "tol" not in inspect.signature(fn).parameters, fn.__name__
