import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from charvar.groups import RepTuple, conjugate_tuple, quaternion_matrix, sample_tuple, su, to_quaternion, validate
from charvar.invariants import (
    SU2Rank2Coords,
    SU2Rank3Coords,
    all_words,
    gram,
    su2_a_coords,
    su2_rank2_coords,
    su2_rank3_coords,
    trace_word,
)
from charvar.linalg import exp_herm, frob, haar_su, stack_matmul
from charvar.reconstruct import (
    NotInImage,
    conjugacy_decisions,
    conjugacy_operator,
    rank2_lift_matrices,
    rank3_lift_matrices,
    su2_rank2_lift,
    su2_rank3_lift,
    unitary_conjugacy,
)
from charvar.semialgebraic import su2_rank3_margins
from charvar.verify import coplanar_su2_triples, sample_admissible_rank2

QI = np.diag([1j, -1j])
QJ = np.array([[0, 1], [-1, 0]], dtype=complex)
QK = np.array([[0, 1j], [1j, 0]], dtype=complex)


# --- rank 2 -------------------------------------------------------------------


def test_rank2_lift_zero_coords():
    res = su2_rank2_lift(SU2Rank2Coords(0, 0, 0))
    assert res.unique
    x1, x2 = res.tuples[0].matrices
    assert frob(x1 - QI) < 1e-15
    assert frob(x2 - QJ) < 1e-15


def test_rank2_lift_identity_coords():
    res = su2_rank2_lift(SU2Rank2Coords(1, 1, 1))
    x1, x2 = res.tuples[0].matrices
    assert frob(x1 - np.eye(2)) < 1e-15
    assert frob(x2 - np.eye(2)) < 1e-15


def test_rank2_lift_half_coords():
    res = su2_rank2_lift(SU2Rank2Coords(0.5, 0.5, 0.5))
    x1, x2 = res.tuples[0].matrices
    b1 = np.sqrt(3) / 2
    b2 = (0.5 - 0.25) / b1
    c2 = np.sqrt(2.0 / 3.0)
    assert abs(x1[0, 0] - (0.5 + 1j * b1)) < 1e-14
    assert abs(x2[0, 0] - (0.5 + 1j * b2)) < 1e-14
    assert abs(x2[0, 1] - c2) < 1e-14
    back = su2_rank2_coords(res.tuples[0])
    assert np.max(np.abs(back.as_array() - [0.5, 0.5, 0.5])) < 1e-12


def test_rank2_lift_round_trip_property():
    rng = np.random.default_rng(0)
    worst = 0.0
    for row in sample_admissible_rank2(1000, rng):
        c = SU2Rank2Coords(*row)
        rho = su2_rank2_lift(c).tuples[0]
        assert validate(rho.matrices, rho.descriptor, 1e-10).all()
        back = su2_rank2_coords(rho)
        worst = max(worst, np.max(np.abs(back.as_array() - c.as_array())))
    assert worst < 1e-10


def _near_central(delta):
    # X1 a rotation by delta, a3 a fixed fraction of its admissible range.
    a1 = np.cos(delta)
    return SU2Rank2Coords(a1, 0.3, a1 * 0.3 + np.sin(delta) * np.sqrt(0.91) * 0.5)


@pytest.mark.parametrize("delta", [1e-4, 1e-6, 1e-8])
def test_rank2_lift_near_central_stays_in_su2(delta):
    rho = su2_rank2_lift(_near_central(delta)).tuples[0]
    assert validate(rho.matrices, rho.descriptor, 1e-12).all()


@pytest.mark.parametrize("delta", [1e-2, 1e-4, 1e-6])
def test_rank2_lift_near_central_round_trip(delta):
    c = _near_central(delta)
    back = su2_rank2_coords(su2_rank2_lift(c).tuples[0])
    assert np.max(np.abs(back.as_array() - c.as_array())) < 1e-10


def test_rank2_lift_haar_near_central():
    rng = np.random.default_rng(12)
    rot = np.diag([np.exp(1e-6j), np.exp(-1e-6j)])
    for _ in range(300):
        k = haar_su(2, rng)
        rho = RepTuple(su(2), (k @ rot @ k.conj().T, haar_su(2, rng)))
        lifted = su2_rank2_lift(su2_rank2_coords(rho)).tuples[0]
        assert validate(lifted.matrices, lifted.descriptor, 1e-12).all()


def test_rank2_lift_rejects_outside():
    with pytest.raises(NotInImage):
        su2_rank2_lift(SU2Rank2Coords(1, -1, 1))


# --- rank 3 -------------------------------------------------------------------


def test_rank3_lift_zero_coords():
    res = su2_rank3_lift(SU2Rank3Coords(0, 0, 0, 0, 0, 0))
    assert not res.unique
    assert res.t123 == pytest.approx(1.0, abs=1e-14)
    assert len(res.tuples) == 2
    plus = res.tuples[0].matrices
    assert frob(plus[0] - QI) < 1e-15
    assert frob(plus[1] - QK) < 1e-15
    assert frob(plus[2] - QJ) < 1e-15


def test_rank3_lift_identity_coords():
    res = su2_rank3_lift(SU2Rank3Coords(1, 1, 1, 1, 1, 1))
    assert res.unique and len(res.tuples) == 1
    for m in res.tuples[0].matrices:
        assert frob(m - np.eye(2)) < 1e-12


def test_rank3_lift_round_trip_and_sheets():
    rng = np.random.default_rng(1)
    for _ in range(200):
        rho = sample_tuple(su(2), 3, rng)
        c = su2_rank3_coords(rho)
        res = su2_rank3_lift(c)
        for lifted in res.tuples:
            assert validate(lifted.matrices, lifted.descriptor, 1e-9).all()
            back = su2_rank3_coords(lifted)
            assert np.max(np.abs(back.as_array() - c.as_array())) < 1e-9


def test_rank3_lift_recovers_original_orbit():
    # One of the two sheets is K-conjugate to the sampled triple.
    rng = np.random.default_rng(2)
    hits = 0
    for _ in range(50):
        rho = sample_tuple(su(2), 3, rng)
        c = su2_rank3_coords(rho)
        res = su2_rank3_lift(c)
        found = any(
            unitary_conjugacy(lifted, rho, tol=1e-8) is not None
            for lifted in res.tuples
        )
        hits += found
    assert hits == 50


def test_rank3_two_sheets_not_conjugate():
    rng = np.random.default_rng(3)
    checked = 0
    while checked < 50:
        rho = sample_tuple(su(2), 3, rng)
        c = su2_rank3_coords(rho)
        res = su2_rank3_lift(c)
        if res.t123 is None or res.t123 <= 1e-4 or len(res.tuples) != 2:
            continue
        assert unitary_conjugacy(res.tuples[0], res.tuples[1]) is None
        checked += 1


def test_rank3_coplanar_unique():
    rng = np.random.default_rng(4)
    for x in coplanar_su2_triples(20, rng):
        c = su2_rank3_coords(RepTuple(su(2), x))
        plus = su2_rank3_lift(c, sign=1).tuples[0]
        minus = su2_rank3_lift(c, sign=-1).tuples[0]
        k = unitary_conjugacy(plus, minus, tol=1e-9)
        assert k is not None
        worst = max(
            frob(k @ a @ k.conj().T - b)
            for a, b in zip(plus.matrices, minus.matrices)
        )
        assert worst < 1e-8


def test_rank3_lift_degenerate_pair():
    # X1 = X2 makes the (1,2) pair reducible while the (1,3) pair is generic.
    rng = np.random.default_rng(5)
    x = haar_su(2, rng)
    y = haar_su(2, rng)
    rho = RepTuple(su(2), (x, x, y))
    c = su2_rank3_coords(rho)
    res = su2_rank3_lift(c)
    assert res.unique  # a reducible pair forces t123 = 0
    back = su2_rank3_coords(res.tuples[0])
    assert np.max(np.abs(back.as_array() - c.as_array())) < 1e-7


def test_rank3_lift_central_first_component():
    # X1 = I makes pairs (1,2) and (1,3) reducible while (2,3) stays
    # irreducible: the Gram matrix has a zero first row.
    rho = RepTuple(su(2), (np.eye(2, dtype=complex), QI, QJ))
    c = su2_rank3_coords(rho)
    res = su2_rank3_lift(c)
    assert res.unique
    back = su2_rank3_coords(res.tuples[0])
    assert np.max(np.abs(back.as_array() - c.as_array())) < 1e-10
    assert validate(res.tuples[0].matrices, res.tuples[0].descriptor, 1e-10).all()


def test_rank3_lift_collinear_imaginary_parts():
    # Simultaneously diagonal: every pair is reducible, the Gram matrix has rank 1.
    phases = [0.4, 1.1, -0.7]
    mats = tuple(np.diag([np.exp(1j * t), np.exp(-1j * t)]) for t in phases)
    rho = RepTuple(su(2), mats)
    c = su2_rank3_coords(rho)
    res = su2_rank3_lift(c)
    assert res.unique
    back = su2_rank3_coords(res.tuples[0])
    assert np.max(np.abs(back.as_array() - c.as_array())) < 1e-10


def test_rank3_sheet_orientation():
    # Sheet s has imaginary parts with triple product of sign -s, whichever
    # pair has the largest sigma.
    rng = np.random.default_rng(12)
    leads = set()
    checked = 0
    while checked < 200:
        c = su2_rank3_coords(sample_tuple(su(2), 3, rng))
        res = su2_rank3_lift(c)
        if abs(res.t123) <= 1e-4:
            continue
        leads.add(int(np.argmax(gram(c.as_array())[1])))
        for s, rho in zip(res.signs, res.tuples):
            im = np.array([to_quaternion(m).im for m in rho.matrices])
            assert np.sign(np.linalg.det(im)) == -s
        checked += 1
    assert leads == {0, 1, 2}


def test_rank3_lift_small_leading_pair_stays_in_su2():
    # s12 = 7e-9 but s13, s23 are large: nothing may divide by the small
    # pair's d2 ~ 1e-4, which left det(X3) off by 2e-8.
    c = SU2Rank3Coords(
        -0.46069663552728485, 0.14261376481037738, 0.4527235578241153,
        0.8127837353271695, -0.48130756226488036, -0.23950595641525668,
    )
    for sign in (1, -1):
        rho = su2_rank3_lift(c, sign=sign).tuples[0]
        assert validate(rho.matrices, rho.descriptor, 1e-12).all()
        back = su2_rank3_coords(rho)
        assert np.max(np.abs(back.as_array() - c.as_array())) < 1e-12


def test_rank3_lift_near_coplanar_stays_in_su2():
    # t123 = 4.4e-10 <= tol makes the lift unique; its smallest component
    # must be kept, not set to 0, or det(X3) misses 1 by 2e-9.
    c = SU2Rank3Coords(
        0.8758499997103271, -0.6035966385059075, -0.12423061866984518,
        -0.8706770369545914, -0.5518525452258887, 0.8631276013638045,
    )
    assert su2_rank3_lift(c).unique
    for sign in (1, -1):
        rho = su2_rank3_lift(c, sign=sign).tuples[0]
        assert validate(rho.matrices, rho.descriptor, 1e-12).all()
        back = su2_rank3_coords(rho)
        assert np.max(np.abs(back.as_array() - c.as_array())) < 1e-12


def _spanning_triple(dim, central, log_t, seed):
    """An SU(2) triple whose imaginary parts span ``dim`` axes of a random frame,
    the matrices marked ``central`` (all of them at dim 0) being +-I.  With
    ``log_t`` (dim 2), the third part tilts out of the plane so that
    t123 <= 10^log_t."""
    rng = np.random.default_rng(seed)
    frame = np.linalg.qr(rng.standard_normal((3, 3)))[0]
    phi = np.where(np.logical_or(central, dim == 0), rng.choice([0.0, np.pi], 3), rng.uniform(0.0, np.pi, 3))
    u = rng.standard_normal((3, 3))
    u[:, dim:] = 0.0
    if log_t is not None:
        psi = rng.uniform(0.0, 2 * np.pi, 3)
        u = np.stack([np.cos(psi), np.sin(psi), np.zeros(3)], axis=-1)
        tilt = min(1.0, np.sqrt(10.0**log_t) / abs(np.sin(psi[1] - psi[0])))
        u[2] = np.sqrt(1.0 - tilt**2) * u[2] + tilt * np.array([0.0, 0.0, 1.0])
    norm = np.linalg.norm(u, axis=-1, keepdims=True)
    v = np.sin(phi)[:, None] * np.divide(u, norm, out=np.zeros_like(u), where=norm > 0) @ frame.T
    return quaternion_matrix(np.cos(phi), v[:, 0], v[:, 1], v[:, 2])


spanning_triples = st.one_of(
    st.builds(
        _spanning_triple,
        dim=st.integers(0, 3),
        central=st.lists(st.booleans(), min_size=3, max_size=3),
        log_t=st.none(),
        seed=st.integers(0, 2**32 - 1),
    ),
    st.builds(
        _spanning_triple,
        dim=st.just(2),
        central=st.just([False] * 3),
        log_t=st.floats(-18.0, -9.0),
        seed=st.integers(0, 2**32 - 1),
    ),
)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(triple=spanning_triples)
def test_rank3_lift_property_at_every_rank(triple):
    assert validate(triple, su(2), 1e-14).all()
    c = su2_a_coords(triple)
    x, _, unique = rank3_lift_matrices(c[None])
    x, unique = x[0], bool(unique[0])
    assert validate(x, su(2), 1e-12).all()
    assert np.abs(su2_a_coords(x) - c).max() < 1e-12
    plus, minus = (su2_rank3_lift(SU2Rank3Coords(*c), sign=s).tuples[0].matrices for s in (1, -1))
    if unique:
        assert np.array_equal(plus, minus)
    else:
        # The imaginary parts (b, c, d) of sheet s have triple product of sign -s.
        im = np.stack([x[:, :, 0, 0].imag, x[:, :, 0, 1].real, x[:, :, 0, 1].imag], axis=-1)
        assert np.sign(np.linalg.det(im)).tolist() == [-1.0, 1.0]


def _sigma_stratum_triple(sigma, pair, coplanar, seed):
    """An SU(2) triple whose pair ``pair`` (0, 1, 2 for 12, 13, 23) has sigma
    ``sigma`` in exact arithmetic, in a random frame.  sigma = 0: the pair
    shares an axis u; sigma = 1: the pair is two orthogonal pure quaternions
    u, w.  The third factor lies in their span (on the axis u for sigma = 0)
    when ``coplanar``, else at least 0.1 rad off it."""
    rng = np.random.default_rng(seed)
    u, w, normal = np.linalg.qr(rng.standard_normal((3, 3)))[0].T
    if sigma == 0:
        phi, axes = rng.uniform(0.2, np.pi - 0.2, 2), [u, u]
    else:
        phi, axes = np.full(2, np.pi / 2), [u, w]
    tilt = 0.0 if coplanar else rng.uniform(0.1, np.pi / 2)
    beta = 0.0 if coplanar and sigma == 0 else rng.uniform(0.0, 2 * np.pi)
    axes.append(np.cos(tilt) * (np.cos(beta) * u + np.sin(beta) * w) + np.sin(tilt) * normal)
    phi = np.append(phi, rng.uniform(0.2, np.pi - 0.2))
    a, v = np.cos(phi), np.sin(phi)[:, None] * np.array(axes)
    if sigma == 1:
        a[:2] = 0.0  # cos(pi/2) is 6e-17; pure quaternions have real part 0
    x = quaternion_matrix(a, v[:, 0], v[:, 1], v[:, 2])
    slots = ((0, 1, 2), (0, 2, 1), (1, 2, 0))[pair]  # the slots of the pinned pair and the third
    return x[np.argsort(slots)]


@settings(derandomize=True, max_examples=120, deadline=None)
@given(
    sigma=st.sampled_from([0, 1]),
    pair=st.integers(0, 2),
    coplanar=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_rank3_lift_uniqueness_on_the_sigma_strata(sigma, pair, coplanar, seed):
    # On sigma_jk = 0 (a commuting pair) the imaginary parts are coplanar and
    # the lift is unique; on sigma_jk = 1 it is unique iff the third factor
    # lies in the pair's plane.  The lift reads the same s as the verdict.
    tol = 1e-9
    c = su2_a_coords(_sigma_stratum_triple(sigma, pair, coplanar, seed))
    _, s, det, t123 = gram(c)
    shared = su2_rank3_margins(c, s, det)[6:9]
    assert np.array_equal(s, shared)
    assert abs(s[pair] - sigma) <= 1e-12
    assert (su2_rank3_margins(c, s, det) >= -tol).all()
    x, _, unique = rank3_lift_matrices(c[None], tol)
    assert bool(unique[0]) == bool(abs(t123) <= tol or shared.max() <= tol)
    assert bool(unique[0]) == (sigma == 0 or coplanar)
    if sigma == 0 and coplanar:
        assert shared.max() <= tol  # one torus: every pair commutes
    for sheet in x[0]:
        assert np.abs(su2_a_coords(sheet) - c).max() < 1e-12


def test_rank3_lift_rejects_outside():
    with pytest.raises(NotInImage):
        su2_rank3_lift(SU2Rank3Coords(1, -1, 1, 1, 1, 1))


@pytest.mark.parametrize("sign", [0, 2, -2])
def test_rank3_lift_rejects_unknown_sheet(sign):
    with pytest.raises(ValueError, match="sign"):
        su2_rank3_lift(SU2Rank3Coords(0, 0, 0, 0, 0, 0), sign=sign)


# --- stacked lifts ---------------------------------------------------------------


def _rank3_rows(rng):
    """Haar and coplanar coordinates, then a degenerate (1,2) pair, a central
    X1 and a triple of collinear imaginary parts."""
    haar = su2_a_coords(haar_su(2, rng, 3 * 300).reshape(300, 3, 2, 2))
    plane = su2_a_coords(coplanar_su2_triples(20, rng))
    x, y = haar_su(2, rng), haar_su(2, rng)
    diag = [np.diag([np.exp(1j * t), np.exp(-1j * t)]) for t in (0.4, 1.1, -0.7)]
    special = su2_a_coords(np.array([(x, x, y), (np.eye(2), QI, QJ), diag]))
    return np.concatenate([haar, plane, special])


def test_rank3_stack_equals_scalar_lifts():
    c = _rank3_rows(np.random.default_rng(50))
    x, t123, unique = rank3_lift_matrices(c)
    assert unique[300:].all() and np.all(t123[~unique] > 1e-9)
    assert np.array_equal(x[unique, 0], x[unique, 1])
    for i, row in enumerate(c.tolist()):
        for sheet, sign in enumerate((1, -1)):
            res = su2_rank3_lift(SU2Rank3Coords(*row), sign=sign)
            assert (res.t123, res.unique) == (t123[i], unique[i])
            assert np.array_equal(res.tuples[0].matrices, x[i, sheet])
        if not unique[i]:
            both = su2_rank3_lift(SU2Rank3Coords(*row)).tuples
            assert np.array_equal(both[0].matrices, x[i, 0]) and np.array_equal(both[1].matrices, x[i, 1])


def test_rank3_stack_rejects_one_row_outside():
    c = _rank3_rows(np.random.default_rng(51))[:40]
    c[17] = (1, -1, 1, 1, 1, 1)
    with pytest.raises(NotInImage):
        rank3_lift_matrices(c)


def test_rank2_stack_equals_scalar_lifts():
    rng = np.random.default_rng(52)
    haar = su2_a_coords(haar_su(2, rng, 2 * 300).reshape(300, 2, 2, 2))
    near = [_near_central(d).as_array() for d in (1e-2, 1e-4, 1e-6, 1e-8)]
    fixed = [(0.0, 0.0, 0.0), (1.0, 1.0, 1.0), (0.5, 0.5, 0.5), (1.0, 0.3, 0.3)]
    c = np.concatenate([haar, near, fixed, sample_admissible_rank2(300, rng)])
    x = rank2_lift_matrices(c)
    for row, xi in zip(c.tolist(), x):
        assert np.array_equal(su2_rank2_lift(SU2Rank2Coords(*row)).tuples[0].matrices, xi)


def test_rank2_stack_rejects_one_row_outside():
    c = sample_admissible_rank2(30, np.random.default_rng(53))
    c[11] = (1, -1, 1)
    with pytest.raises(NotInImage):
        rank2_lift_matrices(c)


def test_coplanar_triples_are_the_per_triple_draws():
    r1, r2 = np.random.default_rng(54), np.random.default_rng(54)
    angles = np.array([
        [(r1.uniform(0.2, np.pi - 0.2), r1.uniform(0.0, 2 * np.pi)) for _ in range(3)] for _ in range(25)
    ])
    phi_a, psi = angles[..., 0], angles[..., 1]
    ref = quaternion_matrix(np.cos(phi_a), np.sin(phi_a) * np.cos(psi), 0.0, np.sin(phi_a) * np.sin(psi))
    assert np.array_equal(coplanar_su2_triples(25, r2), ref)
    assert r1.uniform() == r2.uniform()  # the generator is left in the same state


# --- unitary conjugacy ---------------------------------------------------------


def test_conjugacy_operator_equals_kron_reference():
    rng = np.random.default_rng(40)
    for n in range(1, 9):
        eye = np.eye(n)
        for r in (1, 2, 3):
            a, b = rng.standard_normal((2, r, n, n)) + 1j * rng.standard_normal((2, r, n, n))
            # Row-major vec: vec(X A) = (I kron A^T) vec(X), vec(B X) = (B kron I) vec(X).
            ref = np.concatenate([np.kron(eye, ai.T) - np.kron(bi, eye) for ai, bi in zip(a, b)])
            assert np.array_equal(conjugacy_operator(a, b), ref)


def test_conjugacy_constructive_round_trip():
    rng = np.random.default_rng(6)
    for n, r in ((2, 2), (2, 3), (3, 2), (4, 2), (5, 2), (6, 2), (7, 2), (8, 2)):
        for _ in range(20):
            rho = sample_tuple(su(n), r, rng)
            k = haar_su(n, rng)
            rho2 = conjugate_tuple(k, rho)
            found = unitary_conjugacy(rho, rho2)
            assert found is not None
            worst = max(
                frob(found @ a @ found.conj().T - b)
                for a, b in zip(rho.matrices, rho2.matrices)
            )
            assert worst < 1e-8
            assert frob(found @ found.conj().T - np.eye(n)) < 1e-12
            assert abs(np.linalg.det(found) - 1) < 1e-12


def test_conjugacy_identity_case():
    rng = np.random.default_rng(7)
    rho = sample_tuple(su(3), 2, rng)
    found = unitary_conjugacy(rho, rho)
    assert found is not None


def test_conjugacy_trace_obstruction():
    rng = np.random.default_rng(8)
    rho1 = sample_tuple(su(2), 2, rng)
    rho2 = sample_tuple(su(2), 2, rng)
    a1 = su2_rank2_coords(rho1).a1
    a2 = su2_rank2_coords(rho2).a1
    assert abs(a1 - a2) > 1e-3  # seeds chosen so the traces differ
    assert unitary_conjugacy(rho1, rho2) is None


def test_conjugacy_agrees_with_invariants():
    rng = np.random.default_rng(9)
    for _ in range(10):
        rho = sample_tuple(su(2), 2, rng)
        k = haar_su(2, rng)
        rho2 = conjugate_tuple(k, rho)
        assert unitary_conjugacy(rho, rho2) is not None
        for w in all_words(2, 4):
            assert abs(trace_word(rho, w) - trace_word(rho2, w)) < 1e-9


def _assert_conjugator(k, rho1, rho2):
    assert k is not None
    n = rho1.n
    assert frob(k @ k.conj().T - np.eye(n)) < 1e-12
    assert abs(np.linalg.det(k) - 1) < 1e-12
    worst = max(frob(k @ a @ k.conj().T - b) for a, b in zip(rho1.matrices, rho2.matrices))
    assert worst < 1e-8


def _moved(rho, rng):
    """rho conjugated by a Haar element: the same point of the character space."""
    return conjugate_tuple(haar_su(rho.n, rng), rho)


def _blocks(a, b):
    """Block-diagonal SU(4) element from two SU(2) blocks."""
    z = np.zeros((2, 2))
    return np.block([[a, z], [z, b]])


def test_conjugacy_degenerate_spectrum_resolved():
    # X1 = I has a fully repeated spectrum; the intertwiner method needs no
    # simple eigenvalue.
    rng = np.random.default_rng(10)
    rho = RepTuple(su(2), (np.eye(2, dtype=complex), haar_su(2, rng)))
    _assert_conjugator(unitary_conjugacy(rho, rho), rho, rho)
    moved = _moved(rho, rng)
    _assert_conjugator(unitary_conjugacy(rho, moved), rho, moved)


def test_conjugacy_reducible_block_tuples():
    # 2+2 block SU(4) pairs: distinct blocks (commutant of dimension 2) and a
    # repeated block (commutant of dimension 4).
    rng = np.random.default_rng(13)
    for repeated in (False, True):
        for _ in range(20):
            a1, a2 = haar_su(2, rng), haar_su(2, rng)
            b1, b2 = (a1, a2) if repeated else (haar_su(2, rng), haar_su(2, rng))
            rho = RepTuple(su(4), (_blocks(a1, b1), _blocks(a2, b2)))
            moved = _moved(rho, rng)
            _assert_conjugator(unitary_conjugacy(rho, moved), rho, moved)


def test_conjugacy_diagonal_tuples_with_identity_first():
    rng = np.random.default_rng(14)
    cycle = np.eye(3, dtype=complex)[[1, 2, 0]]
    for i in range(20):
        angles = rng.uniform(-np.pi, np.pi, 3)
        d = np.diag(np.exp(1j * (angles - angles.mean())))
        rho = RepTuple(su(3), (np.eye(3, dtype=complex), d))
        moved = conjugate_tuple(cycle, rho) if i % 2 else _moved(rho, rng)
        _assert_conjugator(unitary_conjugacy(rho, moved), rho, moved)


def test_conjugacy_repeated_eigenvalue_irreducible_su3():
    # An irreducible SU(3) pair whose first matrix has a double eigenvalue.
    rng = np.random.default_rng(15)
    for _ in range(20):
        v = haar_su(3, rng)
        theta = rng.uniform(0.3, 1.2)
        x1 = v @ np.diag(np.exp(1j * np.array([theta, theta, -2.0 * theta]))) @ v.conj().T
        rho = RepTuple(su(3), (x1, haar_su(3, rng)))
        moved = _moved(rho, rng)
        _assert_conjugator(unitary_conjugacy(rho, moved), rho, moved)


def test_conjugacy_shared_summand_is_not_conjugacy():
    # Intertwiners exist (they map the shared block onto itself), but every
    # one of them is singular: the answer is None, not an exception.
    rng = np.random.default_rng(16)
    for _ in range(20):
        a1, a2 = haar_su(2, rng), haar_su(2, rng)
        rho1 = RepTuple(su(4), (_blocks(a1, haar_su(2, rng)), _blocks(a2, haar_su(2, rng))))
        rho2 = RepTuple(su(4), (_blocks(a1, haar_su(2, rng)), _blocks(a2, haar_su(2, rng))))
        assert unitary_conjugacy(rho1, _moved(rho2, rng)) is None


def test_unitary_lemma_on_reducible_tuples():
    # Non-unitary conjugators that keep a tuple unitary-valued exist for
    # reducible (diagonal) tuples: g = k exp(p) with diagonal p commuting
    # with the tuple.  The constructive algorithm must still find a unitary
    # conjugator.
    rng = np.random.default_rng(11)
    for _ in range(1000):
        angles1 = rng.uniform(-np.pi, np.pi, 2)
        angles2 = rng.uniform(-np.pi, np.pi, 2)
        if abs(np.exp(1j * angles1[0]) - np.exp(1j * angles1[1])) < 0.1:
            continue
        d1 = np.diag([np.exp(1j * angles1[0]), np.exp(1j * angles1[1])])
        d1 = d1 / np.linalg.det(d1) ** 0.5
        d2 = np.diag([np.exp(1j * angles2[0]), np.exp(1j * angles2[1])])
        d2 = d2 / np.linalg.det(d2) ** 0.5
        rho = RepTuple(su(2), (d1, d2))
        k = haar_su(2, rng)
        p = np.diag([0.7, -0.7]).astype(complex)  # commutes with rho, not unitary
        g = k @ exp_herm(p)
        moved = conjugate_tuple(g, rho)
        assert validate(moved.matrices, moved.descriptor, 1e-10).all()  # g rho g^-1 is still unitary-valued
        unitary_moved = RepTuple(su(2), moved.matrices)
        found = unitary_conjugacy(rho, unitary_moved)
        assert found is not None


def _cycled_pairs(n):
    """12 pairs cycling no (independent), yes (conjugated) and no (only the
    first matrices conjugate)."""
    rng = np.random.default_rng(60 + n)
    a, b = [], []
    for i in range(12):
        x, k = haar_su(n, rng, 2), haar_su(n, rng)
        y = (haar_su(n, rng, 2), k @ x @ k.conj().T, np.stack([k @ x[0] @ k.conj().T, haar_su(n, rng)]))[i % 3]
        a.append(x)
        b.append(y)
    return np.array(a), np.array(b), [i % 3 == 1 for i in range(12)]


def _coplanar_sheet_pairs():
    """The two sheets of the lifts of 30 coplanar triples, as two-sheet decides
    them: conjugate, and every row below the bound."""
    plane = coplanar_su2_triples(30, np.random.default_rng(64))
    x = rank3_lift_matrices(su2_a_coords(plane))[0]
    return x[:, 0], x[:, 1], [True] * 30


@pytest.mark.parametrize("case", [2, 3, 4, "coplanar"])
def test_conjugacy_decisions_match_pairwise(case):
    # Decided as one stack and one pair at a time, bit for bit.
    a, b, expected = _cycled_pairs(case) if case != "coplanar" else _coplanar_sheet_pairs()
    n = a.shape[-1]
    k, err = conjugacy_decisions(a, b)
    assert [ki is not None for ki in k] == expected
    for i, ki in enumerate(k):
        ref = unitary_conjugacy(RepTuple(su(n), a[i]), RepTuple(su(n), b[i]))
        assert (ki is None) == (ref is None)
        if ki is not None:
            assert np.array_equal(ki, ref)
            conj = stack_matmul(stack_matmul(ki, a[i]), ki.conj().T)
            assert err[i] == np.linalg.norm(conj - b[i], axis=(-2, -1)).max() < 1e-8
        else:
            assert not err[i] <= 1e-8


def _mixed_pair(kind, rng):
    """One pair of SU(2) triples (2, 3, 2, 2): a triple and a conjugate ("yes"),
    two independent triples ("no"), or both sheets of a coplanar triple's lift."""
    if kind == "coplanar":
        return rank3_lift_matrices(su2_a_coords(coplanar_su2_triples(1, rng)))[0][0]
    x = haar_su(2, rng, 3)
    if kind == "no":
        return np.stack([x, haar_su(2, rng, 3)])
    k = haar_su(2, rng)
    return np.stack([x, k @ x @ k.conj().T])


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    kinds=st.lists(st.sampled_from(["yes", "no", "coplanar"]), min_size=1, max_size=8),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_conjugacy_rows_do_not_depend_on_their_stack(kinds, seed, data):
    # A row's conjugator and residual are the same bits in the whole stack,
    # in a permuted stack and alone.
    rng = np.random.default_rng(seed)
    pairs = np.array([_mixed_pair(kind, rng) for kind in kinds])
    k, err = conjugacy_decisions(pairs[:, 0], pairs[:, 1])
    assert [ki is not None for ki in k] == [kind != "no" for kind in kinds]
    perm = data.draw(st.permutations(range(len(kinds))))
    k_perm, err_perm = conjugacy_decisions(pairs[perm, 0], pairs[perm, 1])
    for j, i in enumerate(perm):
        (k_alone,), (err_alone,) = conjugacy_decisions(pairs[i : i + 1, 0], pairs[i : i + 1, 1])
        assert err[i] == err_perm[j] == err_alone
        if k[i] is None:
            assert k_perm[j] is None and k_alone is None
        else:
            assert np.array_equal(k[i], k_perm[j]) and np.array_equal(k[i], k_alone)
