"""Kempf-Ness functional, criticality residual, Newton flow and orbit closedness.

The norm functional on a tuple is p(rho) = sum_i tr(X_i X_i*).  Along a
Hermitian direction A, p(t) = sum_i |e^{tA} X_i e^{-tA}|^2 is convex with
p'(0) = 2 tr(A M), for the closed-form residual M = sum_i [X_i, X_i*], and
p''(0) = 4 sum_i |[A, X_i]|^2.  The critical points are the tuples with
M = 0, the Kempf-Ness set: unitary tuples lie in it, and so does every tuple
of normal matrices, such as (diag(2, 1/2), diag(3, 1/3)).  The flow takes
geodesic Newton steps rho <- e^{tA} rho e^{-tA}, which stay inside the
conjugation orbit and drive rho to the Kempf-Ness set, or toward the orbit
closure when the orbit is not closed.

One commutator product per iterate gives the Hessian, the gradient and the
residual norm: the commutators [E_k, X_i] with a Frobenius-orthonormal basis
E_k of the Hermitian matrices form the Hessian, and tr(E_k M) =
sum_i Re <[E_k, X_i], X_i>, so the same commutators give the gradient's
coordinates h_k and |M|_F = |h|_2, M being Hermitian.  The product is one
real matrix product with a map cached per n, (2n^2, 2n^4) floats (128 KB at
n = 4), and the Newton direction one damped linear solve in the Hessian,
whose null space (the tuple's stabiliser) conjugates nothing.

Whether the orbit is closed is decided algebraically, not read off the flow:
the orbit of rho under simultaneous conjugation is closed iff rho is
semisimple (Artin 1969), iff the algebra the X_i generate is semisimple, iff
the trace form (a, b) -> tr(ab) is nondegenerate on it (Dickson).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .linalg import DEFAULT_TOL, check_tol, dagger
from .groups import RepTuple
from .invariants import invariant_record
from .retraction import retract_tuple

FLOW_TOL = 1e-8
FLOW_MAX_ITER = 100_000
_MAX_HALVINGS = 40
_PINV_RCOND = 1e-12  # the Newton solve damps the Hessian by this fraction of its trace
_SPAN_TOL = 1e-8  # about sqrt(eps): a product is new to the algebra above this fraction of max |X_i|
_CLOSED_RATIO = 1e-9  # trace-form Gram matrix: s_min / s_max above this means semisimple


@dataclass(frozen=True)
class FlowStep:
    iter: int
    p: float
    residual: float
    step: float  # accepted Newton step length t in (0, 1]; 0 on the initial row


@dataclass(frozen=True)
class FlowTrace:
    steps: tuple
    converged: bool  # residual <= tol on an input whose orbit is closed
    orbit_closed: bool  # orbit_closed_matrices() of the flow's input

    def to_csv_rows(self):
        yield ("iter", "p", "residual", "step")
        for s in self.steps:
            yield (s.iter, repr(s.p), repr(s.residual), repr(s.step))


@dataclass(frozen=True)
class MomentResidual:
    M: np.ndarray
    norm: float


def functional_values(x) -> np.ndarray:
    """sum_i tr(X_i X_i*) = sum_i |X_i|_F^2 of stacked tuples x (..., r, n, n):
    the sum of the squared real and imaginary parts of the entries."""
    x = np.ascontiguousarray(x, dtype=complex)
    v = x.reshape(*x.shape[:-3], math.prod(x.shape[-3:])).view(float)
    return (v * v).sum(axis=-1)


def kn_functional(rho: RepTuple) -> float:
    """sum_i tr(X_i X_i*) >= 0; equals r*n on unitary tuples, up to rounding."""
    return float(functional_values(rho.matrices))


def residual_matrix(x) -> np.ndarray:
    """M = sum_i (X_i X_i* - X_i* X_i) of stacked tuples x (..., r, n, n): (..., n, n), Hermitian."""
    x = np.asarray(x)
    xh = dagger(x)
    m = (x @ xh - xh @ x).sum(axis=-3)
    return (m + dagger(m)) / 2.0


def moment_residual(rho: RepTuple) -> MomentResidual:
    """M = sum_i (X_i X_i* - X_i* X_i), Hermitian and traceless, and |M|_F read
    off the commutators as the flow reads it (``_residual_norm``)."""
    _, h = _commutators(rho.matrices)
    return MomentResidual(M=residual_matrix(rho.matrices), norm=float(_residual_norm(h)))


@lru_cache(maxsize=None)
def _herm_basis(n: int) -> np.ndarray:
    """A Frobenius-orthonormal real basis of the n x n Hermitian matrices, (n^2, n, n)."""
    basis = []
    for j in range(n):
        e = np.zeros((n, n), dtype=complex)
        e[j, j] = 1.0
        basis.append(e)
        for k in range(j + 1, n):
            s = np.zeros((n, n), dtype=complex)
            s[j, k] = s[k, j] = 1.0 / np.sqrt(2.0)
            a = np.zeros((n, n), dtype=complex)
            a[j, k], a[k, j] = 1j / np.sqrt(2.0), -1j / np.sqrt(2.0)
            basis += [s, a]
    out = np.array(basis)
    out.setflags(write=False)
    return out


@lru_cache(maxsize=None)
def _commutator_map(n: int) -> np.ndarray:
    """X -> ([E_k, X])_k as one real matrix on float views, (2n^2, 2n^4), read-only.

    Row g holds the float views of the [E_k, U_g] over k, U_g the n x n
    complex matrix whose float view is the g-th unit vector, so the float
    view of X times the map is the float view of every [E_k, X].  It holds
    4n^6 floats: 2 KB at n = 2, 128 KB at n = 4 and 8.4 MB at n = 8.
    """
    u = np.eye(2 * n * n).view(complex).reshape(2 * n * n, 1, n, n)
    e = _herm_basis(n)
    out = (e @ u - u @ e).reshape(2 * n * n, -1).view(float)
    out.setflags(write=False)
    return out


def _commutators(x) -> tuple:
    """The commutators [E_k, X_i] of stacked tuples x (..., r, n, n) and h_k = tr(E_k M).

    One real product of x's float view with the cached ``_commutator_map``
    gives every [E_k, X_i].  comm (..., n^2, 2 r n^2) is real: row k holds
    the float views of [E_k, X_i] over i.  As the E_k are Hermitian,
    Re <[E_k, X_i], X_i> = tr(E_k [X_i, X_i*]), so h = comm @ (the float view
    of x) gives h (..., n^2), the coordinates of M in the orthonormal basis E_k.
    """
    x = np.ascontiguousarray(x, dtype=complex)
    *lead, r, n, _ = x.shape
    nn = n * n
    xf = x.reshape(*lead, r, nn).view(float)
    comm = (xf @ _commutator_map(n)).reshape(*lead, r, nn, 2 * nn).swapaxes(-3, -2).reshape(*lead, nn, 2 * r * nn)
    h = (comm @ xf.reshape(*lead, 2 * r * nn, 1))[..., 0]
    return comm, h


def _residual_norm(h) -> np.ndarray:
    """|M|_F = |h|_2 over the last axis of h from ``_commutators``: M is Hermitian and the E_k orthonormal."""
    return np.sqrt((h * h).sum(axis=-1))


def _newton_direction(comm: np.ndarray, h: np.ndarray) -> np.ndarray:
    """The Hermitian A minimising the second-order model of A -> p(e^A x e^-A) at A = 0.

    Takes the commutators and h = (tr(E_k M))_k of ``_commutators(x)``.  In the
    basis E_k the gradient is g = 2h and the Hessian is
    4 Re <[E_k, X_i], [E_l, X_i]> summed over i, four times H = comm comm^T;
    the factors 2 and 4 fold into one -1/2, and A = sum_k a_k E_k for a from
    one damped solve (H + mu I) a = -h/2, mu = _PINV_RCOND tr H (mu = 1 when
    tr H = 0, on a central tuple, where H and h vanish).  H is singular: its
    null space is the Hermitian A with [A, X_i] = 0 for every i, the identity
    and the tuple's stabiliser.  The gradient is orthogonal to it, and any
    component the damping leaves there, from rounding in h, conjugates
    nothing, so no eigenvalue cut is needed.  Broadcasts over stacks comm
    (..., n^2, 2 r n^2), h (..., n^2); returns A (..., n, n).
    """
    *lead, nn, _ = comm.shape
    n = math.isqrt(nn)
    hess = comm @ comm.swapaxes(-1, -2)
    diag = hess.reshape(*lead, nn * nn)[..., :: nn + 1]  # a view of H's diagonal
    tr = diag.sum(axis=-1)
    diag += np.where(tr == 0.0, 1.0, _PINV_RCOND * tr)[..., None]
    coef = np.linalg.solve(hess, -0.5 * h[..., None])[..., 0]
    return (coef @ _herm_basis(n).reshape(nn, -1).view(float)).view(complex).reshape(*lead, n, n)


@lru_cache(maxsize=None)
def _identity_complement(n: int) -> np.ndarray:
    """Orthonormal rows (n^2 - 1, n^2) spanning the complement of I in the flattened n x n matrices, read-only."""
    out = np.linalg.svd(np.eye(n).reshape(1, n * n))[2][1:].astype(complex)
    out.setflags(write=False)
    return out


def orbit_closed_matrices(x) -> bool:
    """Whether the orbit of the tuple x (r, n, n) under simultaneous conjugation is closed.

    Grows an orthonormal basis of the algebra the X_i generate by closing {I}
    under right multiplication by the X_i.  The basis starts as I/sqrt(n),
    with its orthonormal complement from ``_identity_complement``.  Each
    round multiplies the directions found last round by every X_i in one
    stacked product, and one SVD of their coordinates in an orthonormal
    basis of the span's complement finds the new directions (singular values
    above _SPAN_TOL) and the complement that is left, so at most n^2 - 1
    rounds are made.  The full matrix algebra is simple, so an irreducible
    tuple is closed as soon as the span reaches n^2.  Otherwise the
    trace-form Gram matrix tr(B_a B_b) of the basis is nondegenerate exactly
    on a semisimple algebra, and its smallest and largest singular values
    are compared against _CLOSED_RATIO.

    The floor scales with max |X_i| as every candidate does, being a unit
    direction times an X_i; I/sqrt(n) is in the algebra whatever its size.
    In floating point a conjugate g rho g^-1 blurs the span at about
    cond(g)^2 * eps against true directions of about cond(g)^-2, which
    _SPAN_TOL ~ sqrt(eps) keeps apart up to cond(g) ~ 1e3.
    """
    n = x.shape[-1]
    floor = _SPAN_TOL * np.linalg.norm(x, axis=(1, 2)).max()
    rest = _identity_complement(n)  # orthonormal rows spanning the complement
    found = [np.eye(n, dtype=complex).reshape(1, n * n) / math.sqrt(n)]
    cand = (x / math.sqrt(n)).reshape(-1, n * n)
    while len(rest):
        _, s, vh = np.linalg.svd(cand @ dagger(rest))
        k = np.count_nonzero(s > floor)
        if not k:
            break
        vh = vh @ rest
        found.append(vh[:k])
        rest = vh[k:]
        cand = (vh[:k].reshape(k, 1, n, n) @ x).reshape(-1, n * n)
    else:
        return True
    basis = np.vstack(found)
    k = len(basis)
    gram = basis @ basis.reshape(k, n, n).transpose(0, 2, 1).reshape(k, n * n).T
    s = np.linalg.svd(gram, compute_uv=False)
    return bool(s[-1] > _CLOSED_RATIO * s[0])


def orbit_closed(rho: RepTuple) -> bool:
    """Whether the orbit of ``rho`` under simultaneous conjugation is closed (``orbit_closed_matrices``)."""
    return orbit_closed_matrices(rho.matrices)


def check_flow_params(max_iter: int = 0, tol: float = 0.0) -> None:
    """Raise ValueError unless ``max_iter >= 0`` and ``tol`` is finite and >= 0."""
    if max_iter < 0:
        raise ValueError(f"max_iter must be >= 0, got {max_iter}")
    check_tol(tol)


def _step_lengths(q, gap) -> tuple:
    """Per row, the first t of 1, 1/2, 1/4, ... (_MAX_HALVINGS trials) at which the
    decrement sum_jk Q_jk expm1(2t (w_j - w_k)) is negative, and that decrement;
    t is 0, with the last trial's decrement, on a row where every trial failed."""
    t, delta = np.ones(len(q)), (q * np.expm1(2.0 * gap)).sum(axis=(1, 2))  # the trial t = 1
    for _ in range(_MAX_HALVINGS - 1):
        if delta.max() < 0.0:  # a nan decrement reads as not negative
            return t, delta
        t = np.where(delta < 0.0, t, 0.5 * t)
        delta = (q * np.expm1(2.0 * t[:, None, None] * gap)).sum(axis=(1, 2))
    return np.where(delta < 0.0, t, 0.0), delta


def flow_matrices(x, max_iter: int = FLOW_MAX_ITER, tol: float = FLOW_TOL) -> tuple:
    """Geodesic Newton descent of the norm functional on a stack x (m, r, n, n).

    One stacked commutator product per iterate (``_commutators``) gives
    everything the next step needs: the stop test and each FlowStep's
    residual read |M|_F = |h|_2 off it, and a live row's Newton direction
    (``_newton_direction``: one stacked damped solve in the Hessians) is
    formed from the same commutators and h.  Each iteration conjugates every live
    row by e^{tA}, A that direction, with one step rule for every row
    (``_step_lengths``): t is the first of 1, 1/2, 1/4, ... (at most
    _MAX_HALVINGS trials) at which the functional decreases.  The step is
    applied in A's eigenbasis, where it is the entrywise scaling
    Y_jk -> Y_jk e^{t (w_j - w_k)}, and the
    decrement sum_jk Q_jk expm1(2t (w_j - w_k)), Q = sum_i |Y_i|^2, is
    evaluated exactly, so the accept/halve decision keeps its true sign even
    once the decrement is far below the resolution of the functional itself.

    A row is retired, at one site, once its residual norm is at most
    ``tol`` (the input counts as iteration 0), once it has made ``max_iter``
    iterations, or once no trial step decreases its functional: such a row
    has stalled, critical within rounding, and keeps its iterate without a
    further FlowStep.  A retired row is copied out and dropped from the
    working stack, so its matrices are not touched again.  Returns the
    flowed stack and, per row, its FlowTrace: the FlowStep rows, the input
    as iteration 0, and whether it converged, that is, reached ``tol`` on
    an input whose orbit is closed (``orbit_closed_matrices``).  On a
    non-closed orbit the residual can still reach ``tol`` as the flow nears
    the orbit closure, but no point of the orbit is critical.  Raises
    ValueError on a negative ``max_iter`` or on a ``tol`` that is negative
    or not finite.
    """
    check_flow_params(max_iter, tol)
    out = np.array(x, dtype=complex)
    if out.ndim != 4:
        raise ValueError(f"expected a stack of tuples (m, r, n, n), got shape {out.shape}")
    closed = [orbit_closed_matrices(a) for a in out]
    comm, h = _commutators(out)
    res = _residual_norm(h)
    p = functional_values(out)
    steps = [[FlowStep(0, a, b, 0.0)] for a, b in zip(p.tolist(), res.tolist())]
    # xs and prev start as out itself; each step and each exit make new arrays,
    # so nothing writes to out through them.
    rows, xs, prev, it = np.arange(len(out)), out, out, 0
    res, t = res.tolist(), [1.0] * len(out)  # no row has stalled yet
    with np.errstate(over="ignore", invalid="ignore"):  # an overlong step reads inf/nan: halve
        while True:
            # The one exit: a row at tol, at max_iter or stalled (t = 0); a
            # stalled row leaves on prev, the iterate no trial step could lower.
            live = [b > tol and c > 0.0 and it < max_iter for b, c in zip(res, t)]
            if not all(live):
                live = np.array(live)
                out[rows[~live]] = np.where(np.equal(t, 0.0)[:, None, None, None], prev, xs)[~live]
                rows, xs, p, comm, h = (a[live] for a in (rows, xs, p, comm, h))
            if not len(rows):
                break
            it += 1
            w, u = np.linalg.eigh(_newton_direction(comm, h))
            gap = w[:, :, None] - w[:, None, :]
            u, uh = u[:, None], dagger(u)[:, None]
            ys = uh @ xs @ u
            t, delta = _step_lengths((ys.real**2 + ys.imag**2).sum(axis=1), gap)
            prev, xs = xs, u @ (ys * np.exp(t[:, None, None] * gap)[:, None]) @ uh
            p = p + delta
            comm, h = _commutators(xs)
            res, t = _residual_norm(h).tolist(), t.tolist()
            for row, a, b, c in zip(rows.tolist(), p.tolist(), res, t):
                if c:  # a stalled row takes no FlowStep
                    steps[row].append(FlowStep(it, a, b, c))
    return out, [FlowTrace(tuple(s), bool(s[-1].residual <= tol and c), c) for s, c in zip(steps, closed)]


def kn_flow(
    rho: RepTuple,
    max_iter: int = FLOW_MAX_ITER,
    tol: float = FLOW_TOL,
) -> tuple:
    """The Newton flow of ``flow_matrices`` on one tuple, with its FlowTrace."""
    x, (trace,) = flow_matrices(rho.matrices[None], max_iter, tol)
    return RepTuple(rho.descriptor, x[0]), trace


@dataclass(frozen=True)
class CompositeResult:
    before: dict
    after: dict
    tuple: RepTuple
    trace: FlowTrace


def composite_retraction(
    rho: RepTuple,
    t: float,
    tol: float = DEFAULT_TOL,
    max_iter: int = FLOW_MAX_ITER,
) -> CompositeResult:
    """Flow to the Kempf-Ness set, then retract: the invariant-level map Phi_t.

    Reports the case-appropriate invariant record before and after, ``tol``
    being their cut (``invariant_record``); on unitary input (or at t=0 on
    poly-stable input) the records agree.
    """
    before = invariant_record(rho, tol)
    critical, trace = kn_flow(rho, max_iter=max_iter)
    out = retract_tuple(critical, t)
    after = invariant_record(out, tol)
    return CompositeResult(before=before, after=after, tuple=out, trace=trace)
