import json

import numpy as np
import pytest

from charvar.groups import (
    DimensionMismatch,
    GroupDescriptor,
    NotInGroup,
    Quaternion,
    cartan,
    conjugate_tuple,
    from_quaternion,
    sample_tuple,
    sl,
    su,
    to_quaternion,
    tuple_from_json,
    tuple_to_json,
    validate,
)
from charvar.linalg import Singular, frob, haar_su

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


def test_conjugate_tuple():
    rng = np.random.default_rng(4)
    rho = sample_tuple(su(2), 3, rng)
    assert conjugate_tuple(np.eye(2), rho).matrices[0] is not rho.matrices[0]
    same = conjugate_tuple(np.eye(2), rho)
    assert all(frob(a - b) < 1e-15 for a, b in zip(same.matrices, rho.matrices))
    k = haar_su(2, rng)
    conj = conjugate_tuple(k, rho)
    assert conj.descriptor == su(2)
    assert conj.is_valid()
    g = sample_tuple(sl(2), 1, rng)[0]
    moved = conjugate_tuple(g, rho)
    assert moved.descriptor == sl(2)
    for a, b in zip(rho.matrices, moved.matrices):
        assert abs(np.trace(a) - np.trace(b)) < 1e-12


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
    assert rho.is_valid() and rho.r == 3
    rho_sl = sample_tuple(sl(3), 2, rng)
    for m in rho_sl.matrices:
        assert abs(np.linalg.det(m) - 1) < 1e-10
    rng1, rng2 = np.random.default_rng(7), np.random.default_rng(7)
    a = sample_tuple(sl(3), 2, rng1)
    b = sample_tuple(sl(3), 2, rng2)
    assert all(np.array_equal(x, y) for x, y in zip(a.matrices, b.matrices))


def test_rep_tuple_immutability():
    rng = np.random.default_rng(8)
    rho = sample_tuple(su(2), 2, rng)
    with pytest.raises(ValueError):
        rho.matrices[0][0, 0] = 5.0


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
