import numpy as np
import pytest

from charvar.groups import GroupDescriptor, NotInGroup, RepTuple, conjugate_tuple, sample_tuple, sl, su
from charvar.invariants import (
    ComplexInput,
    SU2Rank3Coords,
    Word,
    all_words,
    evaluate_word,
    fricke_check,
    fricke_rhs,
    gram,
    gram_matrix,
    invariant_record,
    pq,
    pq_from_traces,
    relation_residual,
    rst,
    sigma3,
    su2_a_coords,
    su2_commutator_re,
    su2_rank2_coords,
    su2_rank3_coords,
    su3_alcove_quartic,
    su3_delta,
    su3_disc,
    su3_minors,
    su3_trace_coords,
    su3_traces,
    trace_word,
    transpose_tuple,
    u_coords,
    u_from_traces,
    word_trace_table,
    word_traces,
)
from charvar.linalg import haar_su
from charvar.reconstruct import unitary_conjugacy
from charvar.semialgebraic import classify_B, in_su2_rank3_image, product_condition
from charvar.verify import canonical_su3_example, random_sl3

I2 = np.eye(2, dtype=complex)
QI = np.diag([1j, -1j])
QJ = np.array([[0, 1], [-1, 0]], dtype=complex)
QK = np.array([[0, 1j], [1j, 0]], dtype=complex)

U5_MAX = 3 * np.sqrt(3) / 2


# --- words -------------------------------------------------------------------


def test_word_parse_and_str():
    w = Word.parse("x1 x2^-1 x1")
    assert w.letters == ((1, 1), (2, -1), (1, 1))
    assert str(w) == "x1 x2^-1 x1"
    with pytest.raises(ValueError):
        Word.parse("y1")


def test_trace_word_examples():
    rng = np.random.default_rng(0)
    rho = sample_tuple(su(2), 2, rng)
    assert abs(trace_word(rho, Word.parse("x1 x1^-1")) - 2) < 1e-12
    assert abs(trace_word(rho, Word(())) - 2) == 0
    rho2 = RepTuple(su(2), (QI, QJ))
    assert abs(trace_word(rho2, Word.parse("x1"))) < 1e-15
    with pytest.raises(ValueError):
        trace_word(rho, Word.parse("x3"))


def test_trace_word_cyclic_invariance():
    rng = np.random.default_rng(1)
    rho = sample_tuple(sl(3), 2, rng)
    letters = tuple(
        (int(rng.integers(1, 3)), int(rng.choice([1, -1]))) for _ in range(5)
    )
    base = trace_word(rho, Word(letters))
    for shift in range(1, 5):
        rotated = letters[shift:] + letters[:shift]
        assert abs(trace_word(rho, Word(rotated)) - base) < 1e-12


def test_word_trace_table_size():
    rng = np.random.default_rng(2)
    rho = sample_tuple(su(2), 2, rng)
    table = word_trace_table(rho, max_len=3)
    assert len(table) == 4 + 16 + 64
    assert list(table) == [str(w) for w in all_words(2, 3)]


@pytest.mark.parametrize("family", [su, sl])
@pytest.mark.parametrize("r", [1, 2, 3])
def test_word_traces_match_trace_word(family, r):
    rng = np.random.default_rng(30 + r)
    for n in (1, 2, 3, 4):
        tuples = [sample_tuple(family(n), r, rng) for _ in range(2)]
        x = np.array([rho.matrices for rho in tuples])  # a leading stack axis
        for max_len in (1, 2, 3, 4):
            got = word_traces(x, max_len, family is su)
            for i, rho in enumerate(tuples):
                ref = np.array([trace_word(rho, w) for w in all_words(r, max_len)])
                assert got[i].shape == ref.shape
                assert np.max(np.abs(got[i] - ref)) < 1e-12 * max(1.0, np.max(np.abs(ref)))
    with pytest.raises(ValueError):
        word_traces(x, 0)


def test_evaluate_word_inverts_each_generator_once(monkeypatch):
    rng = np.random.default_rng(31)
    calls = []
    real = np.linalg.inv
    monkeypatch.setattr(np.linalg, "inv", lambda a: calls.append(1) or real(a))
    w = Word.parse("x1^-1 x2^-1 x1^-1 x2^-1 x1 x2")
    sl_pair, su_pair = sample_tuple(sl(3), 2, rng), sample_tuple(su(3), 2, rng)
    for rho in (sl_pair, su_pair):
        ref = np.linalg.multi_dot([real(rho[0]), real(rho[1]), real(rho[0]), real(rho[1]), rho[0], rho[1]])
        assert np.max(np.abs(evaluate_word(rho, w) - ref)) < 1e-12 * max(1.0, np.max(np.abs(ref)))
    assert calls == [1]  # one stacked inversion for the SL pair, none for the SU pair


# --- SU(2) coordinates --------------------------------------------------------


def test_su2_rank2_coords_examples():
    c = su2_rank2_coords(RepTuple(su(2), (I2, I2)))
    assert (c.a1, c.a2, c.a3) == (1.0, 1.0, 1.0)
    c = su2_rank2_coords(RepTuple(su(2), (QI, QJ)))
    assert max(abs(v) for v in (c.a1, c.a2, c.a3)) < 1e-15


def test_su2_coords_conjugation_invariant():
    rng = np.random.default_rng(3)
    for _ in range(20):
        rho = sample_tuple(su(2), 2, rng)
        k = haar_su(2, rng)
        a = su2_rank2_coords(rho).as_array()
        b = su2_rank2_coords(conjugate_tuple(k, rho)).as_array()
        assert np.max(np.abs(a - b)) < 1e-12


def test_a1_of_inverse():
    rng = np.random.default_rng(4)
    rho = sample_tuple(su(2), 2, rng)
    flipped = RepTuple(su(2), (rho[0].conj().T, rho[1]))
    assert abs(su2_rank2_coords(rho).a1 - su2_rank2_coords(flipped).a1) < 1e-12
    pair = sample_tuple(sl(2), 2, rng)  # an SL record takes the true inverse, not X^*
    a3 = invariant_record(pair)["a3"]
    assert abs(a3 - np.trace(np.linalg.inv(pair[0]) @ pair[1]) / 2) < 1e-12


def test_fricke_examples():
    lhs, rhs = fricke_check(RepTuple(su(2), (I2, I2)))
    assert lhs == 1.0 and rhs == 1.0
    lhs, rhs = fricke_check(RepTuple(su(2), (QI, QJ)))
    assert abs(lhs + 1) < 1e-15 and abs(rhs + 1) < 1e-15  # commutator of i, j is -1


def test_fricke_identity_sampled():
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(500):
        lhs, rhs = fricke_check(sample_tuple(su(2), 2, rng))
        worst = max(worst, abs(lhs - rhs))
    assert worst < 1e-12


# The case each operation takes: (family, n, r), with None for either family.
CASES = {
    su2_rank2_coords: {("SU", 2, 2)},
    fricke_check: {("SU", 2, 2)},
    su2_rank3_coords: {("SU", 2, 3)},
    su3_traces: {("SU", 3, 2), ("SL", 3, 2)},
    classify_B: {("SU", 3, 2)},
    product_condition: {("SU", 3, 2)},
    unitary_conjugacy: {("SU", n, r) for n in (2, 3) for r in (2, 3)},
}


@pytest.mark.parametrize("fn", list(CASES), ids=lambda fn: fn.__name__)
def test_operations_take_only_their_case(fn):
    # The inverse a_jk takes on SU(2) is X^*, which is wrong on SL(2) input;
    # SL tuples go through invariant_record instead.  A tuple of the wrong
    # family, n or r raises NotInGroup; the operation's own case runs.
    rng = np.random.default_rng(0)
    for family in ("SU", "SL"):
        for n in (2, 3):
            for r in (2, 3):
                rho = sample_tuple(GroupDescriptor(family, n), r, rng)
                call = (lambda: fn(rho, rho)) if fn is unitary_conjugacy else (lambda: fn(rho))
                if (family, n, r) in CASES[fn]:
                    call()
                else:
                    with pytest.raises(NotInGroup):
                        call()


def test_su2_rank3_coords_examples():
    c = su2_rank3_coords(RepTuple(su(2), (I2, I2, I2)))
    assert np.array_equal(c.as_array(), np.ones(6))
    c = su2_rank3_coords(RepTuple(su(2), (QI, QJ, QK)))
    assert np.max(np.abs(c.as_array())) < 1e-15


def test_rst_all_zero_coords():
    scal = rst(SU2Rank3Coords(0, 0, 0, 0, 0, 0))
    assert np.array_equal(scal.r, np.eye(3))
    assert scal.s12 == scal.s13 == scal.s23 == 1.0
    assert scal.t123 == 1.0
    assert scal.l12 == scal.l13 == scal.l23 == 0.0


def test_rst_identity_coords_degenerate():
    scal = rst(SU2Rank3Coords(1, 1, 1, 1, 1, 1))
    assert np.allclose(np.diag(scal.r), 0.0)
    assert scal.l12 is None and scal.l13 is None and scal.l23 is None
    assert scal.s12 == scal.s13 == scal.s23 == 0.0
    assert scal.t123 == 0.0


def test_rst_determinant_identity():
    # det(r)/(r11 r22 r33) equals 1 - sum l^2 + 2 l12 l13 l23 on admissible coords.
    rng = np.random.default_rng(6)
    checked = 0
    while checked < 50:
        rho = sample_tuple(su(2), 3, rng)
        scal = rst(su2_rank3_coords(rho))
        if scal.l12 is None or scal.l13 is None or scal.l23 is None:
            continue
        via_l = (
            1.0
            - scal.l12**2
            - scal.l13**2
            - scal.l23**2
            + 2.0 * scal.l12 * scal.l13 * scal.l23
        )
        assert abs(scal.t123 - via_l) < 1e-12
        checked += 1


# --- SU(3) traces -------------------------------------------------------------


def test_su3_traces_identity_pair():
    t = su3_traces(RepTuple(su(3), (np.eye(3), np.eye(3))))
    for tk, tmk in t.pairs():
        assert tk == 3.0 and tmk == 3.0


def test_su3_traces_canonical_example():
    t = su3_traces(canonical_su3_example())
    w = np.exp(2j * np.pi / 3)
    for tk, tmk in t.pairs()[:4]:
        assert abs(tk) < 1e-12 and abs(tmk) < 1e-12
    assert abs(t.t5 - 3 * w) < 1e-12
    assert abs(t.tm5 - 3 * np.conj(w)) < 1e-12


def test_su3_traces_unitary_symmetry():
    rng = np.random.default_rng(7)
    for _ in range(20):
        t = su3_traces(sample_tuple(su(3), 2, rng))
        assert t.unitary_defect() < 1e-12


def test_u_coords_canonical_example():
    t = su3_traces(canonical_su3_example())
    u = u_coords(t, unitary=True)
    assert u.is_real
    assert max(abs(v) for v in u.as_list()[:8]) < 1e-12
    assert abs(u.u5 - U5_MAX) < 1e-12
    rec = pq(t, unitary=True)
    assert abs(rec.P + 3) < 1e-12 and abs(rec.Q - 9) < 1e-12
    assert abs(rec.P**2 - 4 * rec.Q + 27) < 1e-12


def test_u_coords_identity_pair():
    t = su3_traces(RepTuple(su(3), (np.eye(3), np.eye(3))))
    u = u_coords(t)
    assert u.u1 == u.u2 == u.u3 == u.u4 == 3.0
    assert u.um1 == u.um2 == u.um3 == u.um4 == u.u5 == 0.0
    rec = pq(t)
    assert rec.P == 6.0 and rec.Q == 9.0 and rec.P**2 - 4 * rec.Q == 0.0


def test_pq_quadratic_relation():
    rng = np.random.default_rng(8)
    for _ in range(20):
        t = su3_traces(sample_tuple(su(3), 2, rng))
        rec = pq(t)
        assert abs(t.t5**2 - rec.P * t.t5 + rec.Q) < 1e-10


def test_u_coords_realify_guard():
    rng = np.random.default_rng(9)
    t = su3_traces(sample_tuple(sl(3), 2, rng))
    with pytest.raises(ComplexInput):
        u_coords(t, unitary=True)
    u = u_coords(t)  # auto-detect keeps them complex
    assert not u.is_real


def test_transpose_involution():
    rng = np.random.default_rng(10)
    diag = RepTuple(su(3), (np.diag([1j, -1j, 1 + 0j]), np.eye(3, dtype=complex)))
    fixed = transpose_tuple(diag)
    assert all(np.array_equal(a, b) for a, b in zip(fixed.matrices, diag.matrices))
    for _ in range(20):
        rho = sample_tuple(su(3), 2, rng)
        tt = transpose_tuple(transpose_tuple(rho))
        assert all(np.array_equal(a, b) for a, b in zip(tt.matrices, rho.matrices))
        t, ttrans = su3_traces(rho), su3_traces(transpose_tuple(rho))
        for (a, am), (b, bm) in zip(t.pairs()[:4], ttrans.pairs()[:4]):
            assert abs(a - b) < 1e-12 and abs(am - bm) < 1e-12
        assert abs(t.t5 - ttrans.tm5) < 1e-12 and abs(t.tm5 - ttrans.t5) < 1e-12


def test_transpose_flips_u5_on_example():
    rho = canonical_su3_example()
    u5 = u_coords(su3_traces(rho), unitary=True).u5
    u5t = u_coords(su3_traces(transpose_tuple(rho)), unitary=True).u5
    assert abs(u5 - U5_MAX) < 1e-12 and abs(u5t + U5_MAX) < 1e-12


# --- minors -------------------------------------------------------------------


def test_minors_identity_golden():
    m = su3_minors(np.eye(3))
    assert (m.m1, m.m2, m.m3) == (1, 1, 1)
    assert (m.mm1, m.mm2, m.mm3) == (1, 1, 1)
    assert m.m4 == 0
    assert relation_residual(m) == 0


def test_minors_inverse_property():
    rng = np.random.default_rng(11)
    x = random_sl3(1, rng)[0]
    mx = su3_minors(x)
    mi = su3_minors(np.linalg.inv(x))
    assert abs(mi.m1 - mx.mm1) < 1e-10
    assert abs(mi.mm2 - mx.m2) < 1e-10


def test_minors_relation_on_sl3():
    rng = np.random.default_rng(12)
    worst = 0.0
    for x in random_sl3(1000, rng):
        worst = max(worst, abs(relation_residual(su3_minors(x))))
    assert worst < 1e-9


def test_stacked_minors_match_each_matrix():
    # Stacked complex products may round differently from scalar ones.
    x = random_sl3(300, np.random.default_rng(14))
    stacked, res = su3_minors(x), relation_residual(su3_minors(x))
    for i, xi in enumerate(x):
        one = su3_minors(xi)
        assert all(isinstance(v, complex) for v in vars(one).values())
        for name, v in vars(one).items():
            assert abs(getattr(stacked, name)[i] - v) <= 1e-12 * max(1.0, abs(v))
        assert abs(res[i] - relation_residual(one)) < 1e-11


def test_minors_torus_invariance():
    rng = np.random.default_rng(13)
    x = random_sl3(1, rng)[0]
    mu = np.exp(1j * rng.uniform(-np.pi, np.pi, 2))
    d = np.diag([mu[0], mu[1], 1.0 / (mu[0] * mu[1])])
    m1 = su3_minors(x)
    m2 = su3_minors(d @ x @ np.linalg.inv(d))
    for name in ("m1", "m2", "m3", "mm1", "mm2", "mm3", "m4"):
        assert abs(getattr(m1, name) - getattr(m2, name)) < 1e-12


# --- conjugation invariance of every coordinate system -------------------------


@pytest.mark.parametrize("desc,r", [(su(2), 2), (su(2), 3), (su(3), 2)])
def test_invariant_record_conjugation_invariant(desc, r):
    rng = np.random.default_rng(14)
    rho = sample_tuple(desc, r, rng)
    g = sample_tuple(sl(desc.n), 1, rng)[0]
    rec1 = invariant_record(rho)
    rec2 = invariant_record(conjugate_tuple(g, rho))
    for key, v in rec1.items():
        assert abs(complex(v) - complex(rec2[key])) < 1e-10, key


def test_invariant_record_fallback_words():
    rng = np.random.default_rng(15)
    rho = sample_tuple(su(2), 5, rng)
    rec = invariant_record(rho)
    assert "x1" in rec and "x1 x2^-1 x5" in rec
    assert "x1 x1 x1 x1" not in rec  # words stop at length 3
    assert len(rec) == 10 + 100 + 1000


def test_invariant_record_su3_case_decides_realness_once():
    # A real SL(3, R) pair has real P and Q but complex u_(-k) = (t_k - t_-k)/2i:
    # one decision for u, P and Q together keeps all of them complex, and
    # disc and Delta with them.  An SU(3) pair gives floats throughout, the
    # values of u_coords and pq.
    keys = ("u1", "um1", "u2", "um2", "u3", "um3", "u4", "um4", "u5", "P", "Q", "disc", "Delta")
    rng = np.random.default_rng(24)
    a = rng.standard_normal((2, 3, 3))
    a = a / np.cbrt(np.linalg.det(a))[:, None, None]  # real, det 1
    rec = invariant_record(RepTuple(sl(3), a))
    assert all(type(rec[k]) is complex for k in keys)
    assert abs(rec["um1"].imag) > 1e-3 and rec["P"].imag == rec["Q"].imag == 0.0
    rho = sample_tuple(su(3), 2, rng)
    rec = invariant_record(rho)
    assert all(type(rec[k]) is float for k in keys)
    t = su3_traces(rho)
    assert [rec[k] for k in keys[:9]] == u_coords(t).as_list()
    assert (rec["P"], rec["Q"]) == (pq(t).P, pq(t).Q)


# --- the batch core broadcasts like the scalar wrappers ------------------------


def test_su3_trace_coords_match_explicit_word_products():
    # The ten words multiplied out, with X^-1 read as X* when unitary=True:
    # both readings on SU stacks, where they agree, and on SL stacks.
    rng = np.random.default_rng(18)
    for desc in (su(3), sl(3)):
        x = np.array([sample_tuple(desc, 2, rng).matrices for _ in range(40)])
        for unitary in (True, False):
            inv = (lambda m: np.conj(np.swapaxes(m, -1, -2))) if unitary else np.linalg.inv
            a, b = x[:, 0], x[:, 1]
            ai, bi = inv(a), inv(b)
            words = [a, ai, b, bi, a @ b, ai @ bi, a @ bi, ai @ b, a @ b @ ai @ bi, b @ a @ bi @ ai]
            ref = np.stack([np.trace(w, axis1=-2, axis2=-1) for w in words], axis=-1)
            t = su3_trace_coords(x, unitary)
            assert np.abs(t - ref).max() <= 1e-12 * max(1.0, np.abs(ref).max())


def test_vectorized_su3_formulas_match_scalar():
    rng = np.random.default_rng(16)
    words = ["x1", "x1^-1", "x2", "x2^-1", "x1 x2", "x1^-1 x2^-1", "x1 x2^-1",
             "x1^-1 x2", "x1 x2 x1^-1 x2^-1", "x2 x1 x2^-1 x1^-1"]
    for desc in (su(3), sl(3)):
        tuples = [sample_tuple(desc, 2, rng) for _ in range(50)]
        t = su3_trace_coords(np.array([rho.matrices for rho in tuples]), desc.family == "SU")
        u = u_from_traces(t)
        P, Q = pq_from_traces(t)
        for i, rho in enumerate(tuples):
            ts = su3_traces(rho)
            rec = pq(ts)
            assert np.max(np.abs(t[i] - ts.as_array())) < 1e-13
            assert np.max(np.abs(u[i] - np.array(u_coords(ts).as_list()))) < 1e-13
            assert abs(P[i] - rec.P) < 1e-13 and abs(Q[i] - rec.Q) < 1e-13
            ref = np.array([trace_word(rho, Word.parse(w)) for w in words])
            assert np.max(np.abs(t[i] - ref)) < 1e-10 * max(1.0, np.max(np.abs(ref)))


def test_vectorized_su2_coords_match_scalar():
    rng = np.random.default_rng(17)
    pairs = [sample_tuple(su(2), 2, rng) for _ in range(50)]
    triples = [sample_tuple(su(2), 3, rng) for _ in range(50)]
    x = np.array([rho.matrices for rho in pairs])
    a2 = su2_a_coords(x)
    lhs, rhs = su2_commutator_re(x), fricke_rhs(*a2.T)
    a3 = su2_a_coords(np.array([rho.matrices for rho in triples]))
    g, s, _, t123 = gram(a3)
    for i, rho in enumerate(pairs):
        assert np.max(np.abs(a2[i] - su2_rank2_coords(rho).as_array())) < 1e-13
        assert np.max(np.abs(np.array([lhs[i], rhs[i]]) - fricke_check(rho))) < 1e-13
    for i, rho in enumerate(triples):
        c = su2_rank3_coords(rho)
        scal = rst(c)
        assert np.max(np.abs(a3[i] - c.as_array())) < 1e-13
        assert np.max(np.abs(g[i] - scal.r)) < 1e-13
        assert np.max(np.abs(s[i] - [scal.s12, scal.s13, scal.s23])) < 1e-13
        assert abs(t123[i] - scal.t123) < 1e-13


def test_fricke_identity_exact():
    """fricke_rhs equals Re of the commutator of two unit quaternions, symbolically."""
    sp = pytest.importorskip("sympy")

    q = sp.symbols("a1 b1 c1 d1 a2 b2 c2 d2", real=True)

    def su2(a, b, c, d):
        alpha, beta = a + sp.I * b, c + sp.I * d
        return sp.Matrix([[alpha, beta], [-sp.conjugate(beta), sp.conjugate(alpha)]])

    x1, x2 = su2(*q[:4]), su2(*q[4:])
    # On unit quaternions the inverse is the conjugate transpose.
    lhs = (x1 * x2 * x1.H * x2.H).trace() / 2
    rhs = fricke_rhs(x1.trace() / 2, x2.trace() / 2, (x1.H * x2).trace() / 2)
    norms = [sum(v**2 for v in q[:4]) - 1, sum(v**2 for v in q[4:]) - 1]
    _, rem = sp.reduced(sp.expand(lhs - rhs), norms, *q)
    assert rem == 0


def test_gram_matrix_exact():
    """On the a-coordinates of three unit quaternions q_j = a_j + v_j, symbolically,
    gram_matrix is the Gram matrix of the imaginary parts v_j, and its
    determinant is (v1 . (v2 x v3))^2: the gram_det margin is a square."""
    sp = pytest.importorskip("sympy")

    a, b, c, d = (sp.symbols(f"{name}1:4", real=True) for name in "abcd")
    x = np.array(
        [[[a[j] + sp.I * b[j], c[j] + sp.I * d[j]], [-c[j] + sp.I * d[j], a[j] - sp.I * b[j]]] for j in range(3)],
        dtype=object,
    )
    # The library halves traces by the float 2.0; nsimplify reads 0.5 and 1.0 back exactly.
    r = sp.Matrix(gram_matrix(np.array([sp.nsimplify(e) for e in su2_a_coords(x)], dtype=object)).tolist())
    v = sp.Matrix([[b[j], c[j], d[j]] for j in range(3)])
    norms = [a[j] ** 2 + b[j] ** 2 + c[j] ** 2 + d[j] ** 2 - 1 for j in range(3)]
    gens = (*a, *b, *c, *d)
    for residuals in (r - v * v.T, [r.det() - v.det() ** 2]):
        assert all(sp.reduced(sp.expand(e), norms, *gens)[1] == 0 for e in residuals)


def test_pair_sigmas_and_fricke_rhs_exact():
    """Symbolically, a pair's 2x2 Gram minor is its sigma,
    (1 - a_j^2)(1 - a_k^2) - (a_jk - a_j a_k)^2 = sigma(a_j, a_k, a_jk), and
    the classical Fricke side 2(a1^2 + a2^2 + a3^2) - 4 a1 a2 a3 - 1 is
    fricke_rhs = 1 - 2 sigma."""
    sp = pytest.importorskip("sympy")

    a1, a2, a12 = sp.symbols("a1 a2 a12", real=True)
    # The library's float constants 1.0 and 2.0 are read back exactly by nsimplify.
    minor = (1 - a1**2) * (1 - a2**2) - (a12 - a1 * a2) ** 2
    assert sp.expand(minor - sp.nsimplify(sigma3(a1, a2, a12))) == 0
    classical = 2 * (a1**2 + a2**2 + a12**2) - 4 * a1 * a2 * a12 - 1
    assert sp.expand(classical - sp.nsimplify(fricke_rhs(a1, a2, a12))) == 0


def test_rank3_record_sigmas_are_the_verdict_margins():
    # One formula for sigma: invariant_record's s12, s13, s23 are the sigma
    # margins of the rank-3 image verdict, bit for bit.
    rng = np.random.default_rng(23)
    for _ in range(200):
        rho = sample_tuple(su(2), 3, rng)
        rec = invariant_record(rho)
        margins = in_su2_rank3_image(su2_rank3_coords(rho)).margins
        assert [rec[f"s{p}"] for p in ("12", "13", "23")] == [margins[f"sigma_{p}"] for p in ("12", "13", "23")]


def test_minors_relation_exact():
    """relation_residual on a generic 3x3 matrix is a polynomial multiple of det - 1."""
    sp = pytest.importorskip("sympy")
    from charvar.invariants import MinorsRecord

    x = sp.Matrix(3, 3, sp.symbols("x0:9"))
    minors = MinorsRecord(
        m1=x[0, 0],
        m2=x[1, 1],
        m3=x[2, 2],
        mm1=x[1, 1] * x[2, 2] - x[1, 2] * x[2, 1],
        mm2=x[0, 0] * x[2, 2] - x[0, 2] * x[2, 0],
        mm3=x[0, 0] * x[1, 1] - x[0, 1] * x[1, 0],
        m4=x[0, 1] * x[1, 2] * x[2, 0],
    )
    residual = sp.expand(relation_residual(minors))
    assert residual != 0
    _, rem = sp.div(residual, x.det() - 1, *x)
    assert rem == 0


def test_cyclic_minor_identity_exact():
    """The trace difference behind product_condition's cyclic minor, on a diagonal
    X1 and a generic X2, is minus the Vandermonde product times the minor."""
    sp = pytest.importorskip("sympy")

    l1, l2, l3 = sp.symbols("l1:4")
    x1 = sp.diag(l1, l2, l3)
    y = sp.Matrix(3, 3, sp.symbols("y0:9"))
    diff = (y * x1 * y * x1**2 * y).trace() - (y * x1**2 * y * x1 * y).trace()
    minor = y[0, 1] * y[1, 2] * y[2, 0] - y[0, 2] * y[2, 1] * y[1, 0]
    vandermonde = (l1 - l2) * (l1 - l3) * (l2 - l3)
    assert sp.expand(diff + vandermonde * minor) == 0


def test_canonical_su3_example_exact():
    """The canonical SU(3) pair in exact arithmetic, omega = e^{2 pi i/3}: the
    library's trace, P/Q, disc and Delta formulas give P^2 - 4Q = -27, Delta = 0."""
    sp = pytest.importorskip("sympy")

    w = sp.expand_complex(sp.exp(2 * sp.pi * sp.I / 3))
    x1 = sp.Matrix([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
    x2 = sp.diag(w, sp.conjugate(w), 1)
    x = np.array([x1.tolist(), x2.tolist()], dtype=object)
    assert np.allclose(x.astype(complex), canonical_su3_example().matrices, atol=1e-15)

    P, Q = pq_from_traces(su3_trace_coords(x))  # object arrays: the sympy traces
    assert sp.simplify(P) == -3 and sp.simplify(Q) == 9
    assert sp.simplify(su3_disc(P, Q)) == -27
    assert sp.simplify(su3_delta(P, Q)) == 0


def test_alcove_quartic_real_form_exact():
    """The real-arithmetic quartic is |tau|^4 - 8 Re(tau^3) + 18 |tau|^2 - 27
    for tau = x + iy, x and y real symbols."""
    sp = pytest.importorskip("sympy")
    from types import SimpleNamespace

    x, y = sp.symbols("x y", real=True)
    tau = x + sp.I * y
    # The quartic reads only tau.real and tau.imag; nsimplify reads its float constants back exactly.
    got = sp.nsimplify(su3_alcove_quartic(SimpleNamespace(real=x, imag=y)))
    want = sp.Abs(tau) ** 4 - 8 * sp.re(tau**3) + 18 * sp.Abs(tau) ** 2 - 27
    assert sp.expand(got - want) == 0


def test_u_map_exact():
    """u_from_traces on symbolic traces: (t_k + t_-k)/2 and (t_k - t_-k)/2i for
    k = 1..4, then u5 = (t5 - t-5)/2i."""
    sp = pytest.importorskip("sympy")

    t = sp.symbols("t1 tm1 t2 tm2 t3 tm3 t4 tm4 t5 tm5")
    u = u_from_traces(np.array(t, dtype=object))
    want = []
    for k in range(5):
        tk, tmk = t[2 * k], t[2 * k + 1]
        want += [(tk + tmk) / 2, (tk - tmk) / (2 * sp.I)] if k < 4 else [(tk - tmk) / (2 * sp.I)]
    assert len(u) == len(want) == 9
    assert all(sp.expand(sp.nsimplify(a) - b) == 0 for a, b in zip(u, want))
