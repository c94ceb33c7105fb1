import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from charvar.groups import (
    NotInGroup,
    RepTuple,
    conjugate_tuple,
    hermitian_from_normals,
    sample_tuple,
    sl,
    su,
)
from charvar.invariants import all_words, trace_word
from charvar.kempfness import (
    FLOW_TOL,
    _MAX_HALVINGS,
    _commutators,
    _herm_basis,
    _newton_direction,
    _residual_norm,
    _step_lengths,
    composite_retraction,
    flow_matrices,
    functional_values,
    kn_flow,
    kn_functional,
    moment_residual,
    orbit_closed,
    orbit_closed_matrices,
    residual_matrix,
)
from charvar.linalg import exp_herm, frob, haar_su


def test_functional_values():
    rng = np.random.default_rng(0)
    rho = sample_tuple(su(3), 2, rng)
    assert abs(kn_functional(rho) - 6.0) < 1e-12
    pair = RepTuple(sl(2), (np.diag([2.0, 0.5]).astype(complex), np.eye(2, dtype=complex)))
    assert abs(kn_functional(pair) - 6.25) < 1e-12


def test_functional_unitary_invariance():
    rng = np.random.default_rng(1)
    rho = sample_tuple(sl(3), 2, rng)
    k = haar_su(3, rng)
    assert abs(kn_functional(rho) - kn_functional(conjugate_tuple(k, rho))) < 1e-10


def test_functional_rejects_invalid():
    # A det-2 pair is refused when it is built, before any operation sees it.
    with pytest.raises(NotInGroup):
        kn_functional(RepTuple(sl(2), (np.diag([2.0, 1.0]).astype(complex), np.eye(2, dtype=complex))))


def test_moment_residual_values():
    rng = np.random.default_rng(2)
    rho = sample_tuple(su(2), 3, rng)
    res = moment_residual(rho)
    assert res.norm < 1e-12
    shear = RepTuple(sl(2), (np.array([[1, 1], [0, 1]], dtype=complex), np.eye(2, dtype=complex)))
    res = moment_residual(shear)
    assert frob(res.M - np.diag([1.0, -1.0])) < 1e-12
    assert frob(res.M - res.M.conj().T) < 1e-12
    assert abs(np.trace(res.M)) < 1e-12


def test_stacked_residual_equals_moment_residual():
    rng = np.random.default_rng(13)
    for d, r in ((su(2), 3), (sl(2), 2), (sl(3), 2), (sl(4), 3)):
        tuples = [sample_tuple(d, r, rng) for _ in range(10)]
        m = residual_matrix(np.array([rho.matrices for rho in tuples]))
        for i, rho in enumerate(tuples):
            assert np.array_equal(m[i], moment_residual(rho).M)


def test_functional_and_residual_are_the_flows_first_row():
    # One formula each for p and |M|_F: the one-tuple values are the stacked
    # functional and the flow's iteration-0 row, bit for bit.
    rng = np.random.default_rng(14)
    for d, r in ((su(2), 3), (sl(2), 2), (sl(3), 2), (sl(4), 3)):
        tuples = [sample_tuple(d, r, rng) for _ in range(25)]
        p = functional_values(np.array([rho.matrices for rho in tuples]))
        for i, rho in enumerate(tuples):
            _, trace = kn_flow(rho, max_iter=0)
            assert kn_functional(rho) == p[i] == trace.steps[0].p
            assert moment_residual(rho).norm == trace.steps[0].residual


def test_moment_residual_directional_derivative():
    rng = np.random.default_rng(3)
    h = 1e-5
    for _ in range(100):
        n = 2 if rng.uniform() < 0.5 else 3
        rho = sample_tuple(sl(n), 2, rng)
        H = hermitian_from_normals(rng.standard_normal((2, n, n)))
        M = moment_residual(rho).M
        ep, em = exp_herm(H, h), exp_herm(H, -h)
        p_fwd = sum(np.trace(m @ m.conj().T).real for m in (ep @ x @ em for x in rho.matrices))
        p_bwd = sum(np.trace(m @ m.conj().T).real for m in (em @ x @ ep for x in rho.matrices))
        fd = (p_fwd - p_bwd) / (2 * h)
        exact = 2.0 * np.trace(H @ M).real
        assert abs(fd - exact) <= 1e-3 * max(abs(exact), 1e-9)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(n=st.integers(2, 5), r=st.integers(1, 3), count=st.integers(0, 4), seed=st.integers(0, 2**32 - 1))
def test_commutators_give_the_residual(n, r, count, seed):
    # One commutator product per iterate: its rows are the [E_k, X_i], h their
    # pairing with x is tr(E_k M), and |h|_2 is |M|_F.
    rng = np.random.default_rng(seed)
    x = np.array([sample_tuple(sl(n), r, rng).matrices for _ in range(count)]).reshape(count, r, n, n)
    comm, h = _commutators(x)
    assert comm.shape == (count, n * n, 2 * r * n * n) and h.shape == (count, n * n)
    e = _herm_basis(n)
    m = residual_matrix(x)
    for j in range(count):
        scale = np.linalg.norm(x[j], axis=(1, 2)).max()
        direct = np.array([(ek @ x[j] - x[j] @ ek).reshape(-1).view(float) for ek in e])
        assert np.abs(comm[j] - direct).max() <= 1e-14 * scale
        p = functional_values(x[j])  # the scale of M's rounding
        assert np.abs(h[j] - np.trace(e @ m[j], axis1=1, axis2=2).real).max() <= 1e-12 * p
        assert abs(_residual_norm(h[j]) - frob(m[j])) <= 1e-12 * p
    assert _residual_norm(h).shape == (count,)
    normal = np.array([np.diag([2.0, 0.5]), np.diag([3.0, 1.0 / 3.0])])
    assert _residual_norm(_commutators(normal)[1]) == 0.0


@pytest.mark.parametrize("n", [2, 3])
def test_commutator_identities_exact(n):
    """For symbolic X and Hermitian M: tr(E_k [X, X*]) = Re <[E_k, X], X>, and
    sum_k tr(E_k M)^2 = |M|_F^2 over the basis E_k of _herm_basis."""
    sp = pytest.importorskip("sympy")
    re, im = sp.symbols(f"a:{n * n}", real=True), sp.symbols(f"b:{n * n}", real=True)
    x = sp.Matrix(n, n, [u + sp.I * v for u, v in zip(re, im)])
    basis = []
    for j in range(n):
        basis.append(sp.zeros(n, n))
        basis[-1][j, j] = 1
        for k in range(j + 1, n):
            sym, anti = sp.zeros(n, n), sp.zeros(n, n)
            sym[j, k] = sym[k, j] = 1 / sp.sqrt(2)
            anti[j, k], anti[k, j] = sp.I / sp.sqrt(2), -sp.I / sp.sqrt(2)
            basis += [sym, anti]
    assert np.abs(np.array([np.array(e.evalf(), dtype=complex) for e in basis]) - _herm_basis(n)).max() < 1e-15
    for e in basis:
        c = e * x - x * e
        pairing = sum(sp.re(sp.conjugate(u) * v) for u, v in zip(c, x))  # Re <[E_k, X], X>
        assert sp.expand((e * (x * x.H - x.H * x)).trace() - pairing) == 0
    diag = sp.symbols(f"d:{n}", real=True)
    off = sp.symbols(f"u:{n * n}", real=True), sp.symbols(f"v:{n * n}", real=True)
    m = sp.Matrix(n, n, lambda a, b: diag[a] if a == b else off[0][a * n + b] + sp.I * off[1][a * n + b])
    m = sp.Matrix(n, n, lambda a, b: m[a, b] if a <= b else sp.conjugate(m[b, a]))
    assert sp.expand(sum((e * m).trace() ** 2 for e in basis) - (m * m.H).trace()) == 0


def test_flow_su_input_already_critical():
    rng = np.random.default_rng(4)
    rho = sample_tuple(su(3), 2, rng)
    out, trace = kn_flow(rho)
    assert trace.converged
    assert trace.steps[-1].iter == 0
    assert all(frob(a - b) == 0 for a, b in zip(out.matrices, rho.matrices))


def test_normal_non_unitary_tuple_is_critical():
    # The critical set is the Kempf-Ness set M = 0, larger than the unitary tuples.
    rho = RepTuple(sl(2), (np.diag([2.0, 0.5]), np.diag([3.0, 1.0 / 3.0])))
    assert moment_residual(rho).norm == 0.0
    out, trace = kn_flow(rho)
    assert trace.converged and trace.steps[-1].iter == 0 and out == rho


def test_flow_conjugated_unitary_converges():
    rng = np.random.default_rng(5)
    for n, r in ((2, 2), (3, 2)):
        g = sample_tuple(sl(n), 1, rng)[0]
        gi = np.linalg.inv(g)
        rho = RepTuple(sl(n), tuple(g @ haar_su(n, rng) @ gi for _ in range(r)))
        out, trace = kn_flow(rho)
        assert trace.converged
        assert abs(trace.steps[-1].p - r * n) < 1e-6
        # final tuple is unitary within 1e-5
        for m in out.matrices:
            assert frob(m @ m.conj().T - np.eye(n)) < 1e-5
        # flow stays in the orbit: trace words preserved
        for w in all_words(r, 3):
            assert abs(trace_word(out, w) - trace_word(rho, w)) < 1e-8


def test_flow_monotone_functional():
    rng = np.random.default_rng(6)
    g = sample_tuple(sl(2), 1, rng)[0]
    gi = np.linalg.inv(g)
    rho = RepTuple(sl(2), tuple(g @ haar_su(2, rng) @ gi for _ in range(2)))
    _, trace = kn_flow(rho)
    ps = [s.p for s in trace.steps]
    assert all(b <= a for a, b in zip(ps, ps[1:]))
    assert trace.steps[0].step == 0.0


def test_flow_non_closed_orbit():
    # Unipotent pair: the orbit is not closed, its closure contains (I, I);
    # the functional decreases toward 2n = 4 and the residual decays slowly.
    rho = RepTuple(
        sl(2), (np.array([[1, 1], [0, 1]], dtype=complex), np.eye(2, dtype=complex))
    )
    out, trace = kn_flow(rho, max_iter=2000)
    assert not trace.converged
    assert trace.steps[-1].p < 4.01
    assert trace.steps[-1].p > 4.0
    assert trace.steps[-1].residual < 1e-3
    assert frob(out[0] - np.eye(2)) < 0.05


def test_flow_criticality_matches_derivative_bound():
    # residual < tol implies every directional derivative is < 10 tol |rho|.
    rng = np.random.default_rng(7)
    g = sample_tuple(sl(2), 1, rng)[0]
    gi = np.linalg.inv(g)
    rho = RepTuple(sl(2), tuple(g @ haar_su(2, rng) @ gi for _ in range(2)))
    out, trace = kn_flow(rho, tol=1e-8)
    assert trace.converged
    scale = np.sqrt(sum(frob(m) ** 2 for m in out.matrices))
    h = 1e-4
    for _ in range(20):
        H = hermitian_from_normals(rng.standard_normal((2, 2, 2)))
        H = H / frob(H)
        ep, em = exp_herm(H, h), exp_herm(H, -h)
        p_fwd = sum(np.trace(m @ m.conj().T).real for m in (ep @ x @ em for x in out.matrices))
        p_bwd = sum(np.trace(m @ m.conj().T).real for m in (em @ x @ ep for x in out.matrices))
        assert abs(p_fwd - p_bwd) / (2 * h) < 10 * 1e-8 * scale + 1e-7 * h


def test_composite_retraction_su_input_fixed():
    rng = np.random.default_rng(8)
    rho = sample_tuple(su(3), 2, rng)
    for t in (0.0, 0.5, 1.0):
        result = composite_retraction(rho, t)
        for key, v in result.before.items():
            assert abs(complex(v) - complex(result.after[key])) < 1e-8, key


def test_composite_retraction_on_a_badly_conditioned_closed_orbit():
    # (diag(1e5, 1e-5), I) is critical and its orbit closed: the flow stops at
    # once and the retraction lands on the identity pair.
    rho = RepTuple(sl(2), (np.diag([1e5, 1e-5]).astype(complex), np.eye(2, dtype=complex)))
    result = composite_retraction(rho, 1.0)
    assert result.trace.converged is True and result.trace.steps[-1].iter == 0
    assert result.tuple.descriptor == su(2)
    assert all(frob(m - np.eye(2)) < 1e-15 for m in result.tuple.matrices)


def test_composite_retraction_t0_polystable():
    rng = np.random.default_rng(9)
    g = sample_tuple(sl(2), 1, rng)[0]
    gi = np.linalg.inv(g)
    rho = RepTuple(sl(2), tuple(g @ haar_su(2, rng) @ gi for _ in range(2)))
    result = composite_retraction(rho, 0.0)
    for key, v in result.before.items():
        assert abs(complex(v) - complex(result.after[key])) < 1e-8, key


def test_composite_retraction_conjugation_robust():
    rng = np.random.default_rng(10)
    g0 = sample_tuple(sl(2), 1, rng)[0]
    gi0 = np.linalg.inv(g0)
    rho = RepTuple(sl(2), tuple(g0 @ haar_su(2, rng) @ gi0 for _ in range(2)))
    g = sample_tuple(sl(2), 1, rng)[0]
    moved = conjugate_tuple(g, rho)
    r1 = composite_retraction(rho, 1.0)
    r2 = composite_retraction(moved, 1.0)
    for key, v in r1.after.items():
        assert abs(complex(v) - complex(r2.after[key])) < 1e-6, key


def test_composite_retraction_conjugation_robust_su3():
    rng = np.random.default_rng(12)
    g0 = sample_tuple(sl(3), 1, rng)[0]
    gi0 = np.linalg.inv(g0)
    rho = RepTuple(sl(3), tuple(g0 @ haar_su(3, rng) @ gi0 for _ in range(2)))
    g = sample_tuple(sl(3), 1, rng)[0]
    r1 = composite_retraction(rho, 1.0)
    r2 = composite_retraction(conjugate_tuple(g, rho), 1.0)
    for key, v in r1.after.items():
        assert abs(complex(v) - complex(r2.after[key])) < 1e-6, key


def test_flow_trace_csv():
    rng = np.random.default_rng(11)
    rho = sample_tuple(su(2), 2, rng)
    _, trace = kn_flow(rho)
    rows = list(trace.to_csv_rows())
    assert rows[0] == ("iter", "p", "residual", "step")
    assert len(rows) == len(trace.steps) + 1


# --- orbit closedness and the Newton flow ------------------------------------


def _stretched(n, norm, rng):
    """g = exp(H) for a random traceless Hermitian H with |H|_F = norm."""
    h = hermitian_from_normals(rng.standard_normal((2, n, n)))
    return exp_herm(h * (norm / frob(h)))


def _conjugated(g, mats):
    return RepTuple(sl(g.shape[0]), g @ np.asarray(mats) @ np.linalg.inv(g))


def _block(a, b):
    m = np.zeros((4, 4), dtype=complex)
    m[:2, :2], m[2:, 2:] = a, b
    return m


def _non_closed(rng):
    """A unipotent pair, a Borel pair and a non-split 2+2 extension, each conjugated."""
    unipotent = [np.array([[1, 1], [0, 1]], dtype=complex), np.eye(2, dtype=complex)]
    borel = []
    for _ in range(2):
        d = np.exp(0.3 * (rng.standard_normal(3) + 1j * rng.standard_normal(3)))
        d[-1] = 1.0 / (d[0] * d[1])
        b = np.triu(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)), 1)
        borel.append(b + np.diag(d))
    extension = []
    for _ in range(2):
        m = _block(haar_su(2, rng), haar_su(2, rng))
        m[:2, 2:] = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        extension.append(m)
    return [_conjugated(_stretched(len(m[0]), 1.0, rng), m) for m in (unipotent, borel, extension)]


def test_orbit_closed_false_on_non_closed_orbits():
    rng = np.random.default_rng(20)
    for _ in range(10):
        for rho in _non_closed(rng):
            assert orbit_closed(rho) is False


@pytest.mark.parametrize("scale", [1e4, 1e8, 1e9])
def test_large_entries_keep_the_identity_in_the_span(scale):
    # The span starts at I/sqrt(n): the floor scales with max |X_i|, and the
    # unscaled identity once fell below it, leaving the span empty.
    d = np.diag([scale, 1.0 / scale]).astype(complex)
    out, trace = kn_flow(RepTuple(sl(2), (d, d)))
    assert trace.orbit_closed is True and trace.converged is True
    assert trace.steps[-1].iter == 0 and trace.steps[-1].residual == 0.0
    assert np.array_equal(out[0], d)
    shear = np.array([[1.0, scale], [0.0, 1.0]], dtype=complex)
    assert orbit_closed_matrices(np.array([shear, np.eye(2)])) is False


def test_orbit_closed_true_on_closed_orbits():
    rng = np.random.default_rng(21)
    assert orbit_closed(sample_tuple(su(3), 2, rng)) is True
    for n in range(2, 7):
        for _ in range(5):
            assert orbit_closed(_conjugated(_stretched(n, 1.5, rng), haar_su(n, rng, 2))) is True
    for _ in range(10):  # reducible: the algebra is M_2 + M_2, semisimple but not simple
        pair = [_block(haar_su(2, rng), haar_su(2, rng)) for _ in range(2)]
        assert orbit_closed(_conjugated(_stretched(4, 3.0, rng), pair)) is True


def test_flow_never_converges_on_non_closed_orbits():
    rng = np.random.default_rng(22)
    for rho in _non_closed(rng):
        _, trace = kn_flow(rho)
        assert trace.steps[-1].residual <= FLOW_TOL  # reached the tolerance near the closure
        assert trace.converged is False
        assert trace.orbit_closed is False


def test_flow_flags_are_bools():
    rng = np.random.default_rng(23)
    _, trace = kn_flow(_conjugated(_stretched(3, 1.0, rng), haar_su(3, rng, 2)))
    assert type(trace.converged) is bool and trace.converged
    assert type(trace.orbit_closed) is bool and trace.orbit_closed


def test_hessian_form_matches_second_difference():
    rng = np.random.default_rng(24)
    h = 1e-4
    for n in (2, 3, 4):
        rho = sample_tuple(sl(n), 2, rng)
        a = hermitian_from_normals(rng.standard_normal((2, n, n)))
        a /= frob(a)
        ps = [kn_functional(RepTuple(sl(n), exp_herm(a, s) @ rho.matrices @ exp_herm(a, -s))) for s in (h, 0.0, -h)]
        second = (ps[0] - 2.0 * ps[1] + ps[2]) / h**2
        form = 4.0 * sum(frob(a @ x - x @ a) ** 2 for x in rho.matrices)
        assert abs(second - form) <= 1e-5 * form


def test_newton_direction_minimises_the_model():
    # A = argmin 2 tr(A M) + 2 sum |[A, X_i]|^2: the derivative along any Hermitian B vanishes.
    rng = np.random.default_rng(25)
    for n in (2, 3, 5):
        x = sample_tuple(sl(n), 2, rng).matrices
        m = moment_residual(RepTuple(sl(n), x)).M
        a = _newton_direction(*_commutators(x))
        assert frob(a - a.conj().T) < 1e-12
        for _ in range(5):
            b = hermitian_from_normals(rng.standard_normal((2, n, n)))
            slope = 2.0 * np.trace(b @ m).real + 4.0 * sum(
                np.vdot(b @ xi - xi @ b, a @ xi - xi @ a).real for xi in x
            )
            assert abs(slope) <= 1e-9 * frob(b) * max(1.0, frob(m))


def test_flow_iterations_bounded_on_closed_orbits():
    # SL(2) pairs and triples g k g^-1 with |log g| in [0.5, 4.2] once crept like 1/k for 1e4-1e5 steps.
    rng = np.random.default_rng(26)
    cases = [(2, 2, i) for i in range(100)] + [(2, 3, i) for i in range(100)]
    cases += [(n, 2, 3 * i) for n in (3, 4, 6) for i in range(20)]
    for n, r, i in cases:
        g = _stretched(n, 0.5 + (i + rng.uniform()) / 60, rng)
        _, trace = kn_flow(_conjugated(g, haar_su(n, rng, r)))
        assert trace.converged
        assert trace.steps[-1].iter <= 50, (n, r, i)
        assert all(0.0 < s.step <= 1.0 for s in trace.steps[1:])


# --- the stacked flow ----------------------------------------------------------


def _reference_flow(x, max_iter=10_000, tol=FLOW_TOL, direction=lambda x: _newton_direction(*_commutators(x))):
    """The flow one tuple at a time, as a plain loop: (matrices, iterations, step lengths)."""
    m = residual_matrix(x)
    steps = []
    with np.errstate(over="ignore", invalid="ignore"):
        while frob(m) > tol and len(steps) < max_iter:
            w, u = np.linalg.eigh(direction(x))
            gap = w[:, None] - w[None, :]
            ys = u.conj().T @ x @ u
            q = (ys.real**2 + ys.imag**2).sum(axis=0)
            t = 1.0
            for _ in range(_MAX_HALVINGS):
                if np.sum(q * np.expm1(2.0 * t * gap)) < 0.0:
                    break
                t *= 0.5
            else:
                break
            x = u @ (ys * np.exp(t * gap)) @ u.conj().T
            m = residual_matrix(x)
            steps.append(t)
    return x, len(steps), steps


def _pinv_direction(x):
    """The Newton direction of one tuple from the Hessian's pseudo-inverse: one
    eigh, eigenvalues at most 1e-12 of the largest dropped as null."""
    comm, h = _commutators(x)
    lam, v = np.linalg.eigh(comm @ comm.T)
    inv = np.divide(1.0, lam, out=np.zeros_like(lam), where=lam > 1e-12 * lam[-1])
    return np.tensordot(v @ (inv * (-0.5 * h @ v)), _herm_basis(x.shape[-1]), 1)


def _newton_step(a, x):
    """e^A X_i e^-A for a Hermitian A."""
    return exp_herm(a) @ x @ exp_herm(-a)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(n=st.integers(2, 5), r=st.integers(1, 3), norm=st.floats(0.1, 3.0), seed=st.integers(0, 2**32 - 1))
def test_damped_direction_steps_as_the_pseudo_inverse(n, r, norm, seed):
    # The damped solve and the pseudo-inverse differ only along the Hessian's
    # null space (the identity, the stabiliser), which conjugates nothing.
    rng = np.random.default_rng(seed)
    x = _conjugated(_stretched(n, norm, rng), haar_su(n, rng, r)).matrices
    a = _newton_direction(*_commutators(x))
    assert frob(a - a.conj().T) == 0.0
    assert np.abs(_newton_step(a, x) - _newton_step(_pinv_direction(x), x)).max() <= 1e-10 * np.abs(x).max()


def test_stabilised_tuples_flow_as_the_pseudo_inverse():
    # A stabiliser makes the Hessian singular: a normal diagonal pair, a
    # conjugated SU(2) + SU(2) block pair in SL(4) and central tuples, whose
    # Hessian and gradient vanish.  Each flows without LinAlgError and takes
    # the pseudo-inverse's steps to the same functional.  Near the Kempf-Ness
    # set the block pair's stabiliser is almost Hermitian and almost null in
    # the Hessian, so the two directions part along it, by up to about 6e-10
    # on these inputs: the endpoints are unitary conjugates that differ by
    # more than rounding.
    rng = np.random.default_rng(38)
    normal = np.array([np.diag([2.0, 0.5]), np.diag([3.0, 1.0 / 3.0])], dtype=complex)
    blocks = [
        _conjugated(_stretched(4, s, rng), [_block(*haar_su(2, rng, 2)) for _ in range(2)]).matrices
        for s in (0.5, 1.0, 2.0)
    ]
    omega = np.exp(2j * np.pi / 3)
    central = [np.array([-np.eye(2), np.eye(2)], dtype=complex), omega * np.eye(3, dtype=complex)[None]]
    for x in (normal, *blocks, *central):
        out, (trace,) = flow_matrices(x[None])
        ref, iters, ts = _reference_flow(x, direction=_pinv_direction)
        assert trace.converged and trace.steps[-1].iter == iters
        assert [s.step for s in trace.steps[1:]] == ts
        assert abs(trace.steps[-1].p - functional_values(ref)) <= 1e-10 * trace.steps[-1].p
        assert np.abs(out[0] - ref).max() <= 1e-8 * np.abs(x).max()
    assert all(len(flow_matrices(x[None])[1][0].steps) > 2 for x in blocks)
    for x in central:
        comm, h = _commutators(x)
        assert not h.any()
        assert not _newton_direction(comm, h).any()
    assert not _commutators(central[0])[0].any()  # H = 0: the solve takes mu = 1


def _closed_stack(n, r, count, rng):
    """count conjugated SU tuples g k g^-1, |log g| = 0.3, 0.8, 1.3, ..."""
    return np.array([_conjugated(_stretched(n, 0.3 + 0.5 * i, rng), haar_su(n, rng, r)).matrices for i in range(count)])


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("r", [2, 3])
def test_stacked_flow_rows_match_single_flows(n, r):
    x = _closed_stack(n, r, 6, np.random.default_rng(30 + 10 * n + r))
    out, traces = flow_matrices(x)
    for i, rho in enumerate(x):
        single, trace = kn_flow(RepTuple(sl(n), rho))
        ref, iters, ts = _reference_flow(rho)
        assert traces[i] == trace  # steps, converged and orbit_closed alike
        assert traces[i].steps[-1].iter == iters and [s.step for s in traces[i].steps[1:]] == ts
        assert np.abs(out[i] - single.matrices).max() <= 1e-12
        assert np.abs(out[i] - ref).max() <= 1e-12
        assert trace.converged


def test_stacked_flow_mixed_rows():
    # An SU pair, a conjugated SU pair and a unipotent pair: critical at the
    # start, a closed orbit, and an orbit that is not closed.
    rng = np.random.default_rng(31)
    unipotent = [np.array([[1, 1], [0, 1]], dtype=complex), np.eye(2, dtype=complex)]
    rows = [
        haar_su(2, rng, 2),
        _conjugated(_stretched(2, 1.2, rng), haar_su(2, rng, 2)).matrices,
        _conjugated(_stretched(2, 1.0, rng), unipotent).matrices,
    ]
    x = np.array(rows)
    out, traces = flow_matrices(x)
    assert np.array_equal(out[0], x[0]) and len(traces[0].steps) == 1  # untouched after 0 iterations
    for i, rho in enumerate(rows):  # each row flows as it does alone
        alone, (trace,) = flow_matrices(rho[None])
        assert traces[i] == trace
        assert traces[i] == kn_flow(RepTuple(sl(2), rho))[1]
        assert np.abs(out[i] - alone[0]).max() <= 1e-12
    assert [t.converged for t in traces] == [True, True, False]
    assert [t.orbit_closed for t in traces] == [True, True, False]
    assert traces[2].steps[-1].residual <= FLOW_TOL  # reached the tolerance near the closure
    x_before = x.copy()
    flow_matrices(x)
    assert np.array_equal(x, x_before)  # the input stack is not written to


def test_stacked_flow_stops_rows_at_max_iter():
    x = _closed_stack(3, 2, 4, np.random.default_rng(32))
    out, traces = flow_matrices(x, max_iter=2)
    assert [t.steps[-1].iter for t in traces] == [2, 2, 2, 2]
    assert not any(t.converged for t in traces) and all(t.orbit_closed for t in traces)
    out0, traces0 = flow_matrices(x, max_iter=0)
    assert np.array_equal(out0, x) and all(len(t.steps) == 1 for t in traces0)


def test_stacked_flow_rows_stall_on_their_own():
    # At tol = 0 an SU tuple's residual is rounding: each row steps until no
    # halving lowers the functional, then stops without a further row.
    x = haar_su(3, np.random.default_rng(34), 8).reshape(4, 2, 3, 3)
    out, traces = flow_matrices(x, max_iter=1000, tol=0.0)
    assert all(t.steps[-1].iter < 1000 and t.steps[-1].residual > 0.0 for t in traces)
    assert len({t.steps[-1].iter for t in traces}) > 1
    for i in range(4):
        alone, (trace,) = flow_matrices(x[i : i + 1], max_iter=1000, tol=0.0)
        assert np.array_equal(out[i], alone[0]) and traces[i] == trace
    assert np.abs(out - x).max() < 1e-12


def test_one_stack_hits_every_stop_reason():
    # At tol = 0: a normal pair is critical at the input and retires at
    # iteration 0; two SU pairs stall (no trial lowers the functional), one
    # on its first iteration and one after a step; conjugated SU pairs stop
    # at max_iter.  Each row leaves through the same exit as it does alone.
    normal = np.array([np.diag([2.0, 0.5]), np.diag([3.0, 1.0 / 3.0])], dtype=complex)
    stalls = [haar_su(2, np.random.default_rng(seed), 2) for seed in (3, 18)]
    x = np.array([normal, *stalls, *_closed_stack(2, 2, 3, np.random.default_rng(0))])
    out, traces = flow_matrices(x, max_iter=3, tol=0.0)
    last = [t.steps[-1] for t in traces]
    assert len(traces[0].steps) == 1 and last[0].residual == 0.0 and traces[0].converged
    assert [s.iter for s in last] == [0, 0, 1, 3, 3, 3]
    assert all(s.residual > 0.0 for s in last[1:]) and not any(t.converged for t in traces[1:])
    assert np.array_equal(out[:2], x[:2])  # no step was taken: each keeps its input
    for i in range(len(x)):
        alone, (trace,) = flow_matrices(x[i : i + 1], max_iter=3, tol=0.0)
        assert np.array_equal(out[i], alone[0]) and traces[i] == trace


def _one_step_length(q, gap):
    """The step rule for one row, one t at a time: (t, its decrement)."""
    t = 1.0
    for _ in range(_MAX_HALVINGS):
        delta = np.sum(q * np.expm1(2.0 * t * gap))
        if delta < 0.0:
            return t, delta
        t *= 0.5
    return 0.0, delta


def _check_step_lengths(q, gap):
    with np.errstate(over="ignore", invalid="ignore"):
        t, delta = _step_lengths(q, gap)
        ref = [_one_step_length(a, b) for a, b in zip(q, gap)]
    assert t.tolist() == [a for a, _ in ref]
    assert np.array_equal(delta, [b for _, b in ref], equal_nan=True)
    return t.tolist()


def test_step_lengths_cover_every_outcome():
    # 2 x 2 rows with gap (w_0 - w_1) = g: delta(t) = q01 expm1(2tg) + q10 expm1(-2tg).
    rows = [
        (0.1, 0.0, 1.0),  # t = 1 lowers the functional
        (1.0, 1.0, 3.0),  # t = 1 overshoots, t = 1/2 does not
        (1.0, 1.0, 1.0),  # delta >= 0 at every t: stalled
        (800.0, 0.0, 1.0),  # 0 * inf: nan at t = 1 and 1/2
        (800.0, 1e-300, 1.0),  # inf at t = 1 and 1/2
    ]
    gap = np.array([[[0.0, g], [-g, 0.0]] for g, _, _ in rows])
    q = np.array([[[0.0, a], [b, 0.0]] for _, a, b in rows])
    assert _check_step_lengths(q, gap) == [1.0, 0.5, 0.0, 0.25, 0.25]


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    n=st.integers(2, 4),
    kinds=st.lists(st.sampled_from(["descent", "random", "flat", "overlong"]), min_size=1, max_size=6),
    seed=st.integers(0, 2**32 - 1),
)
def test_step_lengths_match_one_t_at_a_time(n, kinds, seed):
    # t is the first of 1, 1/2, ... whose decrement is negative, else 0 with
    # the last trial's decrement; an overlong step reads inf or nan and is
    # halved.  Each row's bits are its own, whatever the other rows hold.
    rng = np.random.default_rng(seed)
    q, gap = [], []
    for kind in kinds:
        w = rng.standard_normal(n) * (400.0 if kind == "overlong" else rng.uniform(0.1, 3.0))
        g = w[:, None] - w[None, :]
        if kind == "flat":
            q.append(np.ones((n, n)))
        elif kind == "random":
            q.append(rng.uniform(0.0, 1.0, (n, n)))
        else:  # heavier where g < 0, so short steps descend; 0 where an overlong g is large
            q.append(np.exp(-rng.uniform(0.5, 2.0) * np.maximum(g, -5.0)) * rng.uniform(0.5, 1.5, (n, n)))
        gap.append(g)
    _check_step_lengths(np.array(q), np.array(gap))


@pytest.mark.parametrize("kwargs", [{"max_iter": -1}, {"tol": -1e-9}, {"tol": np.nan}, {"tol": np.inf}])
def test_flow_rejects_bad_parameters(kwargs):
    x = haar_su(2, np.random.default_rng(33), 2)
    with pytest.raises(ValueError):
        flow_matrices(x[None], **kwargs)
    with pytest.raises(ValueError):
        kn_flow(RepTuple(su(2), x), **kwargs)


def test_flow_matrices_takes_stacks_only():
    x = haar_su(2, np.random.default_rng(35), 2)
    with pytest.raises(ValueError, match="stack of tuples"):
        flow_matrices(x)
    out, traces = flow_matrices(x[:0].reshape(0, 2, 2, 2))
    assert out.shape == (0, 2, 2, 2) and traces == []


@settings(derandomize=True, max_examples=40, deadline=None)
@given(n=st.integers(2, 5), r=st.integers(1, 3), count=st.integers(1, 5), seed=st.integers(0, 2**32 - 1))
def test_stacked_flow_equals_per_row_flows(n, r, count, seed):
    x = _closed_stack(n, r, count, np.random.default_rng(seed))
    out, traces = flow_matrices(x)
    for i in range(count):
        alone, (trace,) = flow_matrices(x[i : i + 1])
        assert np.array_equal(out[i], alone[0])
        assert traces[i] == trace
