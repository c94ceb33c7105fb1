"""Kempf-Ness functional, criticality residual, Newton flow and orbit closedness.

The norm functional on a tuple is p(rho) = sum_i tr(X_i X_i*).  Along a
Hermitian direction A, p(t) = sum_i |e^{tA} X_i e^{-tA}|^2 is convex with
p'(0) = 2 tr(A M), for the closed-form residual M = sum_i [X_i, X_i*], and
p''(0) = 4 sum_i |[A, X_i]|^2.  Unitary tuples are exactly the critical
points.  The flow takes geodesic Newton steps rho <- e^{tA} rho e^{-tA},
which stay inside the conjugation orbit and drive rho to the Kempf-Ness set,
or toward the orbit closure when the orbit is not closed.

Whether the orbit is closed is decided algebraically, not read off the flow:
the orbit of rho under simultaneous conjugation is closed iff rho is
semisimple (Artin 1969), iff the algebra the X_i generate is semisimple, iff
the trace form (a, b) -> tr(ab) is nondegenerate on it (Dickson).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .linalg import DEFAULT_TOL, dagger, frob
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
    orbit_closed: bool  # orbit_closed() of the flow's input

    def to_csv_rows(self):
        yield ("iter", "p", "residual", "step")
        for s in self.steps:
            yield (s.iter, repr(s.p), repr(s.residual), repr(s.step))


@dataclass(frozen=True)
class MomentResidual:
    M: np.ndarray
    norm: float


def kn_functional(rho: RepTuple) -> float:
    """sum_i tr(X_i X_i*) >= 0; equals r*n exactly on unitary tuples."""
    return float(np.trace(rho.matrices @ dagger(rho.matrices), axis1=-2, axis2=-1).real.sum())


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


def _newton_direction(x: np.ndarray, m: np.ndarray) -> np.ndarray:
    """The Hermitian A minimising the second-order model of A -> p(e^A x e^-A) at A = 0.

    In the basis E_k the gradient is g_k = 2 tr(E_k M) and the Hessian is
    4 Re <[E_k, X_i], [E_l, X_i]> summed over i, so A = -sum_k (H^+ g)_k E_k.
    The identity and the tuple's stabiliser span the Hessian's null space and
    the gradient is orthogonal to them; eigenvalues below _PINV_RCOND of the
    largest are dropped.
    """
    n = x.shape[-1]
    e = _herm_basis(n)
    comm = (e[:, None] @ x - x @ e[:, None]).reshape(n * n, -1)  # row k: [E_k, X_i] over i
    hess = 4.0 * (comm @ dagger(comm)).real
    e = e.reshape(n * n, n * n)
    grad = 2.0 * (e @ m.T.ravel()).real  # tr(E_k M)
    lam, v = np.linalg.eigh(hess)
    keep = lam > _PINV_RCOND * lam[-1]
    coef = v[:, keep] @ ((grad @ v[:, keep]) / lam[keep])
    return -(coef @ e).reshape(n, n)


def orbit_closed(rho: RepTuple) -> bool:
    """Whether the orbit of ``rho`` under simultaneous conjugation is closed.

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
    x = rho.matrices
    n = rho.n
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


def kn_flow(
    rho: RepTuple,
    max_iter: int = FLOW_MAX_ITER,
    tol: float = FLOW_TOL,
) -> tuple:
    """Geodesic Newton descent of the norm functional inside the orbit.

    Each iteration conjugates by e^{tA}, A the Newton direction of
    _newton_direction, starting from t = 1 and halving t (at most
    _MAX_HALVINGS times) until the functional decreases.  The step is applied
    in A's eigenbasis, where it is the entrywise scaling
    Y_jk -> Y_jk e^{t (w_j - w_k)}, and the functional decrement
    sum_jk Q_jk expm1(2t (w_j - w_k)), Q = sum_i |Y_i|^2, is evaluated
    exactly, so the accept/halve decision keeps its true sign even once the
    decrement is far below the resolution of the functional itself.  Stops
    when the residual norm drops to ``tol``, when no step decreases the
    functional, or after ``max_iter`` iterations.  ``converged`` is True only
    if the residual reached ``tol`` and the input's orbit is closed
    (``orbit_closed``): on a non-closed orbit the residual can still reach
    ``tol`` as the flow nears the orbit closure, but no point of the orbit is
    critical.
    """
    x = rho.matrices
    p = kn_functional(rho)
    m_res = residual_matrix(x)
    res = frob(m_res)
    steps = [FlowStep(0, p, res, 0.0)]
    it = 0
    with np.errstate(over="ignore", invalid="ignore"):  # an overlong step reads inf/nan: halve
        while res > tol and it < max_iter:
            it += 1
            w, u = np.linalg.eigh(_newton_direction(x, m_res))
            gap = w[:, None] - w[None, :]
            ys = dagger(u) @ x @ u
            q = (ys.real**2 + ys.imag**2).sum(axis=0)
            t = 1.0
            for _ in range(_MAX_HALVINGS):
                delta = float(np.sum(q * np.expm1(2.0 * t * gap)))
                if delta < 0.0:
                    break
                t *= 0.5
            else:
                break  # critical within rounding; report best iterate
            x = u @ (ys * np.exp(t * gap)) @ dagger(u)
            p += delta
            m_res = residual_matrix(x)
            res = frob(m_res)
            steps.append(FlowStep(it, p, res, t))
    closed = orbit_closed(rho)
    out = RepTuple(rho.descriptor, x)
    return out, FlowTrace(steps=tuple(steps), converged=bool(res <= tol and closed), orbit_closed=closed)


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

    Reports the case-appropriate invariant record before and after; on
    unitary input (or at t=0 on poly-stable input) the records agree.
    """
    before = invariant_record(rho, tol)
    critical, trace = kn_flow(rho, max_iter=max_iter)
    out = retract_tuple(critical, t, tol)
    after = invariant_record(out, tol)
    return CompositeResult(before=before, after=after, tuple=out, trace=trace)
