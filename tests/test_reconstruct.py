import numpy as np
import pytest

from charvar.groups import RepTuple, conjugate_tuple, sample_tuple, su, to_quaternion
from charvar.invariants import (
    SU2Rank2Coords,
    SU2Rank3Coords,
    all_words,
    gram,
    su2_rank2_coords,
    su2_rank3_coords,
    trace_word,
)
from charvar.linalg import exp_herm, frob, haar_su
from charvar.reconstruct import (
    NotInImage,
    su2_rank2_lift,
    su2_rank3_lift,
    unitary_conjugacy,
)
from charvar.verify import coplanar_su2_triple, sample_admissible_rank2

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
    for c in sample_admissible_rank2(1000, rng):
        rho = su2_rank2_lift(c).tuples[0]
        assert rho.is_valid(1e-10)
        back = su2_rank2_coords(rho)
        worst = max(worst, np.max(np.abs(back.as_array() - c.as_array())))
    assert worst < 1e-10


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
            assert lifted.is_valid(1e-9)
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
    for _ in range(20):
        rho = coplanar_su2_triple(rng)
        c = su2_rank3_coords(rho)
        plus = su2_rank3_lift(c, sign=1).tuples[0]
        minus = su2_rank3_lift(c, sign=-1).tuples[0]
        k = unitary_conjugacy(plus, minus, tol=1e-9)
        assert k is not None
        worst = max(
            frob(k @ a @ k.conj().T - b)
            for a, b in zip(plus.matrices, minus.matrices)
        )
        assert worst < 1e-8


def test_rank3_lift_degenerate_pair_relabels():
    # X1 = X2 makes the (1,2) pair reducible; the (1,3) pair is generic, so
    # the lift must succeed through relabeling.
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
    # irreducible; only a relabeling with primary pair {2,3} can solve it.
    rho = RepTuple(su(2), (np.eye(2, dtype=complex), QI, QJ))
    c = su2_rank3_coords(rho)
    res = su2_rank3_lift(c)
    assert res.unique
    back = su2_rank3_coords(res.tuples[0])
    assert np.max(np.abs(back.as_array() - c.as_array())) < 1e-10
    assert res.tuples[0].is_valid(1e-10)


def test_rank3_lift_diagonal_fallback():
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
    # cyclic relabeling the lift builds its frame in.
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
    # s12 = 7e-9 but s13, s23 are large: a frame led by the (1,2) pair divided
    # by d2 ~ 1e-4 and left det(X3) off by 2e-8.
    c = SU2Rank3Coords(
        -0.46069663552728485, 0.14261376481037738, 0.4527235578241153,
        0.8127837353271695, -0.48130756226488036, -0.23950595641525668,
    )
    for sign in (1, -1):
        rho = su2_rank3_lift(c, sign=sign).tuples[0]
        assert rho.is_valid(1e-12)
        back = su2_rank3_coords(rho)
        assert np.max(np.abs(back.as_array() - c.as_array())) < 1e-12


def test_rank3_lift_rejects_outside():
    with pytest.raises(NotInImage):
        su2_rank3_lift(SU2Rank3Coords(1, -1, 1, 1, 1, 1))


# --- unitary conjugacy ---------------------------------------------------------


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
        assert moved.is_valid(1e-10)  # g rho g^-1 is still unitary-valued
        unitary_moved = RepTuple(su(2), moved.matrices)
        found = unitary_conjugacy(rho, unitary_moved)
        assert found is not None
