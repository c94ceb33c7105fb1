import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from charvar.groups import NotInGroup, RepTuple, sample_tuple, su
from charvar.invariants import (
    ComplexInput,
    SU2Rank2Coords,
    SU2Rank3Coords,
    fricke_check,
    pq,
    product_traces,
    su2_rank2_coords,
    su2_rank3_coords,
    su3_traces,
    u_coords,
)
from charvar.linalg import haar_su
from charvar.reconstruct import NotInImage, rank2_lift_matrices, rank3_lift_matrices, su2_rank2_lift, su2_rank3_lift
from charvar.semialgebraic import (
    ALCOVE_CORNERS,
    TETRAHEDRON_VERTICES,
    UnknownRegion,
    alcove_lambda,
    classify_B,
    in_S_plus,
    in_su2_rank2_image,
    in_su2_rank3_image,
    product_condition,
    region_grid,
    sigma,
    su3_alcove_check,
    su3_alcove_quartic,
    su3_delta,
    tetrahedron_check,
    theta,
)
from charvar.invariants import transpose_tuple
from charvar.verify import canonical_su3_example


def test_sigma_examples():
    assert sigma(SU2Rank2Coords(1, 1, 1)) == 0.0
    assert sigma(SU2Rank2Coords(0, 0, 0)) == 1.0
    assert sigma(SU2Rank2Coords(1, -1, 1)) == -4.0


def test_in_su2_rank2_image():
    v = in_su2_rank2_image(SU2Rank2Coords(1, 1, 1))
    assert v.inside and v.on_boundary
    v = in_su2_rank2_image(SU2Rank2Coords(0, 0, 0))
    assert v.inside and v.on_boundary  # sigma = 1 is the upper bound
    assert v.margins["sigma_upper"] == 0.0
    v = in_su2_rank2_image(SU2Rank2Coords(1, -1, 1))
    assert not v.inside
    assert set(v.margins) == {
        "a1_bound",
        "a2_bound",
        "a3_bound",
        "sigma_lower",
        "sigma_upper",
    }


def test_theta_and_tetrahedron():
    a = SU2Rank2Coords(1, 1, 1)
    th = theta(a)
    assert th == (0.0, 0.0, 0.0)
    v = tetrahedron_check(th)
    assert v.inside and v.on_boundary
    th = theta(SU2Rank2Coords(0, 0, 0))
    assert np.allclose(th, 0.5)
    assert tetrahedron_check(th).inside
    th = theta(SU2Rank2Coords(1, -1, 1))
    assert np.allclose(th, (0.0, 1.0, 0.0))
    v = tetrahedron_check(th)
    assert not v.inside
    assert v.margins["tri_13_2"] < 0  # th1 + th3 - th2 = -1
    with pytest.raises(ValueError):
        theta(SU2Rank2Coords(1.5, 0, 0))
    with pytest.raises(ValueError, match="a-coordinate nan"):
        theta(SU2Rank2Coords(np.nan, 0, 0))
    with pytest.raises(ValueError, match="tol must be finite"):
        theta(SU2Rank2Coords(2.0, 0, 0), tol=np.nan)


def test_sigma_tetrahedron_equivalence():
    # The sigma-ball conditions and the theta-tetrahedron agree away from
    # margin ~ 0 ties.
    rng = np.random.default_rng(0)
    disagreements = 0
    for _ in range(30_000):
        a = SU2Rank2Coords(*rng.uniform(-1, 1, 3))
        va = in_su2_rank2_image(a)
        vb = tetrahedron_check(theta(a))
        if va.inside != vb.inside:
            worst = min(min(abs(m) for m in va.margins.values()),
                        min(abs(m) for m in vb.margins.values()))
            assert worst <= 1e-9
            disagreements += 1
    assert disagreements == 0


def test_soundness_on_haar_samples():
    from charvar.invariants import su2_rank2_coords, su2_rank3_coords

    rng = np.random.default_rng(1)
    for _ in range(500):
        pair = sample_tuple(su(2), 2, rng)
        assert in_su2_rank2_image(su2_rank2_coords(pair)).margins["sigma_lower"] >= -1e-9
        triple = sample_tuple(su(2), 3, rng)
        v = in_su2_rank3_image(su2_rank3_coords(triple))
        assert all(m >= -1e-9 for m in v.margins.values())


def test_in_su2_rank3_image_examples():
    v = in_su2_rank3_image(SU2Rank3Coords(0, 0, 0, 0, 0, 0))
    assert v.inside
    assert all(v.margins[f"sigma_{k}"] == 1.0 for k in ("12", "13", "23", "off"))
    v = in_su2_rank3_image(SU2Rank3Coords(1, 1, 1, 1, 1, 1))
    assert v.inside and v.on_boundary
    assert all(v.margins[f"sigma_{k}"] == 0.0 for k in ("12", "13", "23", "off"))
    ok = in_su2_rank3_image(SU2Rank3Coords(1, 0, 0, 0, 0, 0))
    assert ok.inside
    bad = in_su2_rank3_image(SU2Rank3Coords(1, 0, 0, 0.9, 0, 0))
    assert not bad.inside
    assert bad.margins["sigma_12"] == pytest.approx(1 - 1 - 0.81, abs=1e-12)


def test_in_su2_rank3_image_reads_the_gram_determinant():
    # The four sigma-conditions hold here, but det r < 0: no SU(2) triple has
    # these coordinates, and the lift raises.
    c = SU2Rank3Coords(0.377, -0.222, -0.730, 0.443, 0.051, -0.380)
    v = in_su2_rank3_image(c)
    assert all(v.margins[f"{kind}_{k}"] > 0 for kind in ("sigma", "cap") for k in ("12", "13", "23", "off"))
    assert v.margins["gram_det"] < -0.1 and not v.inside
    with pytest.raises(NotInImage):
        su2_rank3_lift(c)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_non_finite_coordinates_read_outside_quietly(value):
    # One rule at both ranks: a NaN or inf coordinate is outside the image,
    # the verdict says so and the lift raises, alone or as one row of a stack,
    # without a RuntimeWarning.
    cases = [(SU2Rank2Coords, in_su2_rank2_image, su2_rank2_lift, rank2_lift_matrices, [0.1, 0.2, 0.3])]
    cases.append((SU2Rank3Coords, in_su2_rank3_image, su2_rank3_lift, rank3_lift_matrices, [0.1, 0.2, 0.3] * 2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for coords, verdict, lift, stacked, row in cases:
            assert verdict(coords(*row)).inside
            for i in range(len(row)):
                c = coords(*row[:i], value, *row[i + 1:])
                assert not verdict(c).inside
                with pytest.raises(NotInImage):
                    lift(c)
                with pytest.raises(NotInImage):
                    stacked(np.array([row, c.as_array()]))


@pytest.mark.parametrize("row", [(1.0000001, 1, 1, 1, 1, 1), (2**0.5, 2**0.5, 1, 2, 2**0.5, 2**0.5)])
def test_rank3_verdict_reads_the_box(row):
    # Rows off [-1, 1]^6 whose sigma-conditions and det r hold within tol:
    # the a*_bound margins put them outside, the verdict the lift shares.
    c = SU2Rank3Coords(*row)
    v = in_su2_rank3_image(c)
    assert not v.inside and v.margins["a1_bound"] < -1e-7
    with pytest.raises(NotInImage):
        su2_rank3_lift(c)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(c=st.tuples(*[st.floats(-1.05, 1.05)] * 6))
def test_rank3_verdict_says_inside_iff_the_row_lifts(c):
    # Box samples in both directions, a little past [-1, 1]^6 so that the
    # bound margins are read: an inside row lifts on every sheet and
    # round-trips, an outside row raises NotInImage.
    c = SU2Rank3Coords(*c)
    if in_su2_rank3_image(c).inside:
        for rho in su2_rank3_lift(c).tuples:
            assert np.abs(su2_rank3_coords(rho).as_array() - c.as_array()).max() < 1e-8
    else:
        with pytest.raises(NotInImage):
            su2_rank3_lift(c)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(c=st.tuples(*[st.floats(-1.1, 1.1)] * 3))
def test_rank2_verdict_says_inside_iff_the_row_lifts(c):
    # Box samples past [-1, 1]^3: an inside row lifts and round-trips, an
    # outside row raises NotInImage.
    c = SU2Rank2Coords(*c)
    if in_su2_rank2_image(c).inside:
        rho = su2_rank2_lift(c).tuples[0]
        assert np.abs(su2_rank2_coords(rho).as_array() - c.as_array()).max() <= 1e-9
    else:
        with pytest.raises(NotInImage):
            su2_rank2_lift(c)


# z^3 - tau z^2 + conj(tau) z - 1 is the characteristic polynomial of an
# SU(3) matrix of trace tau, so tau is in the alcove iff its roots all have
# modulus 1.  Within this band of the deltoid q = 0 the roots of a double
# (at the cusps a triple) root are good only to a root of eps, and q reads
# 0 at tau = 3 + 1e-7 while the roots leave the circle by 3e-4.  The band
# also holds a known miss of the verdict: q vanishes to third order at the
# cusps, so its tol reads tau up to about 3.0006 as inside while a root pair
# is off the circle by 0.025.
ALCOVE_BAND = 1e-6


@settings(derandomize=True, max_examples=300, deadline=None)
@given(re=st.floats(-3.5, 3.5), im=st.floats(-3.5, 3.5))
def test_alcove_verdict_says_inside_iff_the_roots_are_unimodular(re, im):
    # Both directions off the band.  in_S_plus has no such test: S+ is a
    # superset of the B+ image, so it is checked one way only
    # (test_B_plus_inside_S_plus_sampled).
    tau = complex(re, im)
    assume(abs(su3_alcove_quartic(tau)) > ALCOVE_BAND)
    roots = np.roots([1.0, -tau, tau.conjugate(), -1.0])
    unimodular = np.abs(np.abs(roots) - 1.0).max() <= 1e-9
    assert su3_alcove_check(tau, 1e-9).inside == unimodular


def test_su3_alcove_check_examples():
    v = su3_alcove_check(3.0)
    assert v.inside and v.on_boundary and v.margins["alcove"] == 0.0
    v = su3_alcove_check(0.0)
    assert v.inside and not v.on_boundary and v.margins["alcove"] == -27.0
    rng = np.random.default_rng(2)
    for _ in range(500):
        assert su3_alcove_check(np.trace(haar_su(3, rng))).inside


def test_su3_delta_examples():
    assert su3_delta(-3.0, 9.0) == 0.0  # canonical example sits on the Delta boundary
    assert su3_delta(0.0, 0.0) == -27.0


def test_in_S_plus():
    t = su3_traces(canonical_su3_example())
    u = u_coords(t, unitary=True)
    rec = pq(t, unitary=True)
    v = in_S_plus(u, rec)
    assert v.inside
    assert v.margins["disc"] == pytest.approx(-27.0, abs=1e-12)
    assert abs(v.margins["delta"]) < 1e-12  # Delta boundary point

    ident = RepTuple(su(3), (np.eye(3), np.eye(3)))
    t = su3_traces(ident)
    v = in_S_plus(u_coords(t, unitary=True), pq(t, unitary=True))
    assert not v.inside  # P^2 - 4Q = 0 fails the strict inequality
    assert v.margins["disc"] == 0.0


def test_in_S_plus_rejects_complex():
    from charvar.groups import sl, sample_tuple

    rng = np.random.default_rng(3)
    t = su3_traces(sample_tuple(sl(3), 2, rng))
    with pytest.raises(ComplexInput):
        in_S_plus(u_coords(t), pq(t))


def test_disc_u5_identity():
    # On unitary pairs P^2 - 4Q = -4 u5^2 exactly; the soundness implication
    # needs u5 > 2e-5 for disc < -1e-9.
    rng = np.random.default_rng(4)
    for _ in range(200):
        t = su3_traces(sample_tuple(su(3), 2, rng))
        u = u_coords(t, unitary=True)
        rec = pq(t, unitary=True)
        disc = rec.P**2 - 4 * rec.Q
        assert abs(disc + 4 * u.u5**2) < 1e-10
        if abs(u.u5) > 2e-5:
            assert disc < -1e-9


def test_B_plus_inside_S_plus_sampled():
    # The sampled half of B+ <= S+ (the converse is an open question and is
    # never asserted).  The strict discriminant inequality is checked raw;
    # with the tol band it would misread samples with 0 < u5 < sqrt(tol)/2.
    rng = np.random.default_rng(6)
    checked = 0
    for _ in range(500):
        rho = sample_tuple(su(3), 2, rng)
        if classify_B(rho) != "B_plus":
            continue
        t = su3_traces(rho)
        u = u_coords(t, unitary=True)
        rec = pq(t, unitary=True)
        v = in_S_plus(u, rec)
        assert all(v.margins[f"alcove_{k}"] <= 1e-9 for k in (1, 2, 3, 4))
        assert v.margins["delta"] <= 1e-9
        assert v.margins["disc"] < 0
        if u.u5 > 2e-5:
            assert v.inside
        checked += 1
    assert checked > 100


def test_classify_B():
    rho = canonical_su3_example()
    assert classify_B(rho) == "B_plus"
    assert classify_B(transpose_tuple(rho)) == "B_minus"
    w = np.exp(2j * np.pi / 3)
    diag_pair = RepTuple(su(3), (np.diag([w, np.conj(w), 1]), np.diag([1j, -1j, 1])))
    assert classify_B(diag_pair) == "B_zero"


def test_classify_B_reads_the_t5_of_su3_traces():
    # classify_B forms X1X2 and X2X1 only: its u5 is su3_traces' t5.imag to
    # the bit, so the verdicts agree with tol at |u5| and one ulp either side.
    rng = np.random.default_rng(26)
    for rho in [canonical_su3_example()] + [sample_tuple(su(3), 2, rng) for _ in range(50)]:
        u5 = su3_traces(rho).t5.imag
        assert float(product_traces(rho[0], rho[1], unitary=True)[2].imag) == u5
        side = "B_plus" if u5 > 0 else "B_minus"
        band = abs(u5)
        assert classify_B(rho, band) == classify_B(rho, np.nextafter(band, np.inf)) == "B_zero"
        assert classify_B(rho, np.nextafter(band, 0.0)) == side


@pytest.mark.parametrize("fn, n", [(fricke_check, 2), (classify_B, 3)])
def test_pair_validated_once(monkeypatch, fn, n):
    import charvar.groups

    calls = []
    real = charvar.groups.validate
    monkeypatch.setattr(charvar.groups, "validate", lambda *a, **k: calls.append(1) or real(*a, **k))
    fn(sample_tuple(su(n), 2, np.random.default_rng(1)))
    assert len(calls) == 1  # one per tuple


def test_product_condition():
    w = np.exp(2j * np.pi / 3)
    x1 = np.diag([w, np.conj(w), 1.0])
    x2 = np.array([[0, 1, 0], [0, 0, 1], [1, 0, 0]], dtype=complex)
    v = product_condition(RepTuple(su(3), (x1, x2)))
    assert v.inside
    assert v.margins["cyclic_minor"] == pytest.approx(1.0, abs=1e-10)

    abelian = RepTuple(su(3), (x1, np.diag([1j, -1j, 1.0])))
    v = product_condition(abelian)
    assert not v.inside and v.margins["cyclic_minor"] < 1e-12

    repeated = RepTuple(su(3), (np.diag([1j, 1j, -1.0]), x2))
    v = product_condition(repeated)
    assert not v.inside and v.margins["eig_gap"] < 1e-12

    # rotated repeated spectrum, not diagonal in the given basis
    rng = np.random.default_rng(7)
    k = haar_su(3, rng)
    rotated = RepTuple(su(3), (k @ np.diag([1j, 1j, -1.0]) @ k.conj().T, x2))
    v = product_condition(rotated)
    assert not v.inside and v.margins["eig_gap"] < 1e-10


def _su3_pair(seed, angle=None):
    """A Haar SU(3) pair, or with ``angle`` one whose X1 is diag(w, w, w^-2),
    w = exp(2 pi i angle), which has a repeated eigenvalue."""
    x1, x2 = haar_su(3, np.random.default_rng(seed), 2)
    if angle is not None:
        w = np.exp(2j * np.pi * angle)
        x1 = np.diag([w, w, w**-2])
    return RepTuple(su(3), (x1, x2))


seeds = st.integers(0, 2**32 - 1)
haar_su3_pairs = st.builds(_su3_pair, seed=seeds)
su3_pairs = st.builds(_su3_pair, seed=seeds, angle=st.none() | st.floats(0.05, 0.3))


def _margins_agree(a, b):
    # 1e-12 absolute floor: eig_gap at a repeated eigenvalue is rounding noise.
    return all(a[k] == pytest.approx(b[k], rel=1e-9, abs=1e-12) for k in a)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(rho=su3_pairs, seed=seeds)
def test_product_condition_conjugation_invariant(rho, seed):
    margins = product_condition(rho).margins
    for k in haar_su(3, np.random.default_rng(seed), 5):
        conj = RepTuple(su(3), tuple(k @ x @ k.conj().T for x in rho.matrices))
        assert _margins_agree(product_condition(conj).margins, margins)


def _eigenbasis_margins(x1, x2):
    lam, v = np.linalg.eig(x1)
    y = np.linalg.solve(v, x2 @ v)
    return {
        "eig_gap": min(abs(lam[i] - lam[j]) for i in range(3) for j in range(i + 1, 3)),
        "cyclic_minor": abs(y[0, 1] * y[1, 2] * y[2, 0] - y[0, 2] * y[2, 1] * y[1, 0]),
    }


@settings(derandomize=True, max_examples=100, deadline=None)
@given(rho=haar_su3_pairs)
def test_product_condition_matches_eigenbasis_oracle(rho):
    assert _margins_agree(product_condition(rho).margins, _eigenbasis_margins(*rho.matrices))


@settings(derandomize=True, max_examples=100, deadline=None)
@given(seed=seeds, scale=st.floats(1e-4, 1e-3))
def test_product_condition_near_central(seed, scale):
    """X1 = k diag(exp(i scale (1, 2, -3))) k^* lies within 4 scale of the
    identity.  The minor must still match the oracle for a Haar X2, and read
    0 (outside) for X2 = k P k^*, which is reducible together with X1."""
    k, x2 = haar_su(3, np.random.default_rng(seed), 2)
    x1 = k @ np.diag(np.exp(1j * scale * np.array([1, 2, -3]))) @ k.conj().T
    p = np.array([[0, 1, 0], [1, 0, 0], [0, 0, -1]], dtype=complex)
    for x2, want_inside in ((x2, True), (k @ p @ k.conj().T, False)):
        v = product_condition(RepTuple(su(3), (x1, x2)))
        oracle = _eigenbasis_margins(x1, x2)
        assert v.inside == want_inside
        # Both routes lose about eps / eig_gap here: the eigenbasis itself is
        # that ill-conditioned.
        floor = 1e-14 / oracle["eig_gap"]
        assert v.margins["eig_gap"] == pytest.approx(oracle["eig_gap"], rel=1e-9)
        assert v.margins["cyclic_minor"] == pytest.approx(oracle["cyclic_minor"], rel=1e-9, abs=floor)


def test_alcove_lambda_examples():
    assert np.allclose(alcove_lambda(np.eye(3)).lam, 0.0)
    lam = alcove_lambda(np.diag([np.exp(2j * np.pi / 3), np.exp(-2j * np.pi / 3)])).lam
    assert np.allclose(lam, (1 / 3, -1 / 3), atol=1e-12)
    w = np.exp(2j * np.pi / 3)
    lam = alcove_lambda(w * np.eye(3)).lam
    assert np.allclose(lam, (1 / 3, 1 / 3, -2 / 3), atol=1e-12)


def test_alcove_lambda_rejects_unitary_outside_su():
    # Unitary with det e^{0.9i}: not an SU(3) element, not the identity's point.
    with pytest.raises(NotInGroup):
        alcove_lambda(np.exp(0.3j) * np.eye(3))
    with pytest.raises(NotInGroup):
        alcove_lambda(np.diag([2.0, 0.5]))  # det 1, not unitary


def test_alcove_lambda_invariants():
    rng = np.random.default_rng(5)
    for _ in range(200):
        u = haar_su(3, rng)
        p = alcove_lambda(u)
        lam = p.as_array()
        assert abs(lam.sum()) < 1e-12
        assert np.all(np.diff(lam) <= 1e-15)
        assert lam[0] - lam[-1] <= 1.0 + 1e-12
        k = haar_su(3, rng)
        lam2 = alcove_lambda(k @ u @ k.conj().T).as_array()
        assert np.max(np.abs(lam - lam2)) < 1e-10


def test_alcove_boundary_characterizes_eigenvalue_collision():
    # |quartic(tau)| equals the product of squared eigenvalue gaps, so the
    # margin vanishes exactly when eigenvalues collide; checked both ways on
    # a two-parameter sweep of diagonal SU(3) matrices.
    vals = np.linspace(-0.45, 0.45, 41)
    for a in vals:
        for b in vals:
            lam = np.array([np.exp(2j * np.pi * a), np.exp(2j * np.pi * b),
                            np.exp(-2j * np.pi * (a + b))])
            tau = lam.sum()
            q = su3_alcove_quartic(tau)
            prod = np.prod(
                [abs(lam[i] - lam[j]) ** 2 for i in range(3) for j in range(i + 1, 3)]
            )
            assert abs(-q - prod) < 1e-7
            gap_min = min(
                abs(lam[i] - lam[j]) for i in range(3) for j in range(i + 1, 3)
            )
            # matched tolerances: other gaps are bounded by 2, so gap < 1e-4
            # forces |q| < 4e-8 * 16, and conversely
            if gap_min < 1e-4:
                assert abs(q) < 16 * 1e-8
            if abs(q) < 1e-16:
                assert gap_min < 1e-4


@pytest.mark.parametrize("resolution", [16, 17, 40])
def test_region_grids_equal_the_pointwise_sweep(resolution):
    # The grids as one point at a time; the stacked sweep keeps every bit.
    us = np.linspace(0.0, 1.0, resolution)
    a, b, c = np.zeros(3), np.array([1, 1, -2]) / 3.0, np.array([2, -1, -1]) / 3.0
    alcove = []
    for uu in us:
        for vv in us:
            tau = np.exp(2j * np.pi * (a + uu * (b - a) + vv * (1.0 - uu) * (c - a))).sum()
            alcove.append((float(tau.real), float(tau.imag), su3_alcove_quartic(tau)))
    assert np.array_equal(region_grid("su3-alcove", resolution)[1], alcove)
    faces = (
        ((0, 0, 0), (1, 0, 1), (0, 1, 1)),
        ((0, 0, 0), (1, 1, 0), (0, 1, 1)),
        ((0, 0, 0), (1, 1, 0), (1, 0, 1)),
        ((0, 1, 1), (1, 0, 1), (1, 1, 0)),
    )
    tet = []
    for pa, pb, pc in (np.array(f, dtype=float) for f in faces):
        for uu in np.linspace(0.0, 1.0, resolution // 2):
            for vv in np.linspace(0.0, 1.0, resolution // 2):
                tet.append(tuple(np.cos(np.pi * (pa + uu * (pb - pa) + vv * (1.0 - uu) * (pc - pa))).tolist()))
    assert region_grid("su2-tetrahedron-boundary", resolution)[1] == tet


@settings(derandomize=True, max_examples=25, deadline=None)
@given(resolution=st.integers(16, 48))
def test_alcove_grid_margins_are_the_verdicts(resolution):
    # The stacked quartic rounds as the scalar one: every row's margin is
    # bitwise the one su3_alcove_check reports for its (p1, p2).
    for p1, p2, margin in region_grid("su3-alcove", resolution)[1]:
        assert margin == su3_alcove_check(complex(p1, p2)).margins["alcove"]


def test_region_grids():
    header, rows = region_grid("su3-alcove", 16)
    assert header == ["p1", "p2", "margin"]
    assert len(rows) == 256
    for corner in ALCOVE_CORNERS:
        hits = [abs(m) for p1, p2, m in rows if abs(complex(p1, p2) - corner) < 1e-12]
        assert hits and min(hits) < 1e-9
    header, rows = region_grid("su2-tetrahedron-boundary", 16)
    assert header == ["a1", "a2", "a3"]
    assert len(rows) == 256
    present = set(rows)
    for v in TETRAHEDRON_VERTICES:
        assert v in present
    with pytest.raises(UnknownRegion):
        region_grid("nope", 16)
    with pytest.raises(ValueError):
        region_grid("su3-alcove", 8)
