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

from .linalg import DEFAULT_TOL, check_tol, dagger, frob
from .groups import RepTuple
from .invariants import invariant_record
from .retraction import retract_tuple

FLOW_TOL = 1e-8
FLOW_MAX_ITER = 100_000
_MAX_HALVINGS = 40
_PINV_RCOND = 1e-12  # Hessian eigenvalues below this fraction of the largest count as null
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
    """sum_i tr(X_i X_i*) of stacked tuples x (..., r, n, n)."""
    return np.trace(x @ dagger(x), axis1=-2, axis2=-1).real.sum(axis=-1)


def kn_functional(rho: RepTuple) -> float:
    """sum_i tr(X_i X_i*) >= 0; equals r*n exactly on unitary tuples."""
    return float(functional_values(rho.matrices))


def residual_matrix(x) -> np.ndarray:
    """M = sum_i (X_i X_i* - X_i* X_i) of stacked tuples x (..., r, n, n): (..., n, n), Hermitian."""
    x = np.asarray(x)
    xh = dagger(x)
    m = (x @ xh - xh @ x).sum(axis=-3)
    return (m + dagger(m)) / 2.0


def moment_residual(rho: RepTuple) -> MomentResidual:
    """M = sum_i (X_i X_i* - X_i* X_i), Hermitian and traceless."""
    m = residual_matrix(rho.matrices)
    return MomentResidual(M=m, norm=frob(m))


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
def _basis_factors(n: int):
    """The basis E_k laid out for _newton_direction, read-only.

    rows (n^3, n): rows @ X stacks every E_k X.  cols (n, n^3): X @ cols
    stacks every X E_k.  flat (n^2, 2n^2): row k holds the real and imaginary
    parts of E_k's entries, interleaved as a complex array's float view.
    """
    e = _herm_basis(n)
    out = (e.reshape(-1, n), np.ascontiguousarray(e.transpose(1, 0, 2).reshape(n, -1)), e.reshape(n * n, -1).view(float))
    for a in out:
        a.setflags(write=False)
    return out


def _newton_direction(x: np.ndarray, m: np.ndarray) -> np.ndarray:
    """The Hermitian A minimising the second-order model of A -> p(e^A x e^-A) at A = 0.

    In the basis E_k the gradient is g_k = 2 tr(E_k M) and the Hessian is
    4 Re <[E_k, X_i], [E_l, X_i]> summed over i, so A = -sum_k (H^+ g)_k E_k.
    The identity and the tuple's stabiliser span the Hessian's null space and
    the gradient is orthogonal to them; eigenvalues below _PINV_RCOND of the
    largest are dropped.  Both are formed in real arithmetic on float views
    (tr(E_k M) = Re <E_k, M> as M is Hermitian), with the factors 2 and 4
    folded into one -1/2.  Broadcasts over stacks x (..., r, n, n), m (..., n, n).
    """
    *lead, r, n, _ = x.shape
    rows, cols, flat = _basis_factors(n)
    ex = (rows @ x).reshape(*lead, r, n * n, n, n)
    xe = (x @ cols).reshape(*lead, r, n, n * n, n).swapaxes(-3, -2)
    comm = (ex - xe).swapaxes(-4, -3).reshape(*lead, n * n, -1).view(float)  # row k: [E_k, X_i] over i
    lam, v = np.linalg.eigh(comm @ comm.swapaxes(-1, -2))
    keep = lam > _PINV_RCOND * lam[..., -1:]
    grad = -0.5 * (np.ascontiguousarray(m).reshape(*lead, 1, n * n).view(float) @ flat.T)
    coef = ((grad @ v) / np.where(keep, lam, np.inf)[..., None, :]) @ v.swapaxes(-1, -2)
    return (coef @ flat).view(complex).reshape(m.shape)


def orbit_closed_matrices(x) -> bool:
    """Whether the orbit of the tuple x (r, n, n) under simultaneous conjugation is closed.

    Grows an orthonormal basis of the algebra the X_i generate by closing {I}
    under right multiplication by the X_i.  Each round multiplies the
    directions found last round by every X_i in one stacked product, and one
    SVD of their coordinates in an orthonormal basis of the span's complement
    finds the new directions (singular values above _SPAN_TOL) and the
    complement that is left, so at most n^2 rounds are made.  The full matrix
    algebra is simple, so an irreducible tuple is closed as soon as the span
    reaches n^2.  Otherwise the trace-form Gram matrix tr(B_a B_b) of the
    basis is nondegenerate exactly on a semisimple algebra, and its smallest
    and largest singular values are compared against _CLOSED_RATIO.

    In floating point a conjugate g rho g^-1 blurs the span at about
    cond(g)^2 * eps against true directions of about cond(g)^-2, which
    _SPAN_TOL ~ sqrt(eps) keeps apart up to cond(g) ~ 1e3.
    """
    n = x.shape[-1]
    floor = _SPAN_TOL * np.linalg.norm(x, axis=(1, 2)).max()
    rest = np.eye(n * n, dtype=complex)  # orthonormal rows spanning the complement
    found = []
    cand = np.eye(n, dtype=complex).reshape(1, n * n)
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


def _sum_squares(a) -> np.ndarray:
    """Sum of the squared real and imaginary parts of the entries of each a[i], a (m, ...)."""
    v = np.ascontiguousarray(a).reshape(len(a), math.prod(a.shape[1:])).view(float)
    return (v * v).sum(axis=1)


def _halvings(q, gap, delta) -> tuple:
    """Per row, the first t of 1, 1/2, 1/4, ... (_MAX_HALVINGS trials) at which the
    decrement sum_jk Q_jk expm1(2t (w_j - w_k)) is negative, given ``delta`` at
    t = 1, and that decrement; t is 0 on a row where every trial failed."""
    t = np.ones(len(q))
    pending = ~(delta < 0.0)
    for _ in range(_MAX_HALVINGS - 1):
        t = np.where(pending, 0.5 * t, t)
        delta = np.where(pending, (q * np.expm1(2.0 * t[:, None, None] * gap)).sum(axis=(1, 2)), delta)
        pending = ~(delta < 0.0)
        if not pending.any():
            break
    return np.where(pending, 0.0, t), delta


def flow_matrices(x, max_iter: int = FLOW_MAX_ITER, tol: float = FLOW_TOL) -> tuple:
    """Geodesic Newton descent of the norm functional on a stack x (m, r, n, n).

    Each iteration conjugates every live row by e^{tA}, A its Newton
    direction (_newton_direction: one stacked ``eigh`` of the Hessians),
    trying t = 1 and halving t per row (at most _MAX_HALVINGS trials) until
    the functional decreases.  The step is applied in A's eigenbasis, where
    it is the entrywise scaling Y_jk -> Y_jk e^{t (w_j - w_k)}, and the
    decrement sum_jk Q_jk expm1(2t (w_j - w_k)), Q = sum_i |Y_i|^2, is
    evaluated exactly, so the accept/halve decision keeps its true sign even
    once the decrement is far below the resolution of the functional itself.

    A row stops on its own when its residual norm drops to ``tol``, when no
    trial step decreases its functional (critical within rounding: it keeps
    its last iterate), or after ``max_iter`` iterations.  A stopped row is
    copied out and dropped from the working stack, so its matrices are not
    touched again.  Returns the flowed stack and, per row, its FlowTrace:
    the FlowStep rows, the input as iteration 0, and whether it converged,
    that is, reached ``tol`` on an input whose orbit is closed
    (``orbit_closed_matrices``).  On a non-closed orbit the residual can
    still reach ``tol`` as the flow nears the orbit closure, but no point of
    the orbit is critical.  Raises ValueError on a negative ``max_iter`` or
    on a ``tol`` that is negative or not finite.
    """
    check_flow_params(max_iter, tol)
    out = np.array(x, dtype=complex)
    if out.ndim != 4:
        raise ValueError(f"expected a stack of tuples (m, r, n, n), got shape {out.shape}")
    closed = [orbit_closed_matrices(a) for a in out]
    m_res = residual_matrix(out)
    res = np.sqrt(_sum_squares(m_res))
    p = _sum_squares(out)
    steps = [[FlowStep(0, a, b, 0.0)] for a, b in zip(p.tolist(), res.tolist())]
    rows = np.flatnonzero(res > tol) if max_iter else np.arange(0)
    xs = out  # the live rows; each step makes a new array, so nothing writes to out through xs
    if len(rows) < len(out):
        xs, p, m_res = out[rows], p[rows], m_res[rows]
    it = 0
    with np.errstate(over="ignore", invalid="ignore"):  # an overlong step reads inf/nan: halve
        while len(rows):
            it += 1
            w, u = np.linalg.eigh(_newton_direction(xs, m_res))
            gap = w[:, :, None] - w[:, None, :]
            u, uh = u[:, None], dagger(u)[:, None]
            ys = uh @ xs @ u
            q = (ys.real**2 + ys.imag**2).sum(axis=1)
            delta = (q * np.expm1(2.0 * gap)).sum(axis=(1, 2))
            if delta.max() < 0.0:  # every row takes t = 1, the usual case
                t, scale = [1.0] * len(rows), np.exp(gap)
            else:
                t, delta = _halvings(q, gap, delta)
                ok = t > 0.0
                if not ok.all():  # no trial step decreased the functional: keep the iterate
                    out[rows[~ok]] = xs[~ok]
                    rows, xs, p, u, uh, ys, gap, t, delta = (a[ok] for a in (rows, xs, p, u, uh, ys, gap, t, delta))
                t, scale = t.tolist(), np.exp(t[:, None, None] * gap)
            xs = u @ (ys * scale[:, None]) @ uh
            p = p + delta
            m_res = residual_matrix(xs)
            res = np.sqrt(_sum_squares(m_res)).tolist()
            for row, a, b, c in zip(rows.tolist(), p.tolist(), res, t):
                steps[row].append(FlowStep(it, a, b, c))
            live = [b > tol and it < max_iter for b in res]
            if not all(live):
                stop = np.logical_not(live)
                out[rows[stop]] = xs[stop]
                rows, xs, p, m_res = (a[live] for a in (rows, xs, p, m_res))
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
