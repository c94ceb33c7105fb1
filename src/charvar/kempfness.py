"""Kempf-Ness functional, criticality residual, and gradient descent.

The norm functional on a tuple is p(rho) = sum_i tr(X_i X_i*); its gradient
at the identity along a Hermitian direction H is 2 Re tr(H M) with the
closed-form residual M = sum_i [X_i, X_i*].  Unitary tuples are exactly the
critical points; the descent rho <- e^{-eps M} rho e^{eps M} stays inside the
conjugation orbit and drives rho to the Kempf-Ness set (or toward the orbit
closure when the orbit is not closed, reported as converged=False).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import DEFAULT_TOL, dagger, frob
from .groups import RepTuple
from .invariants import invariant_record
from .retraction import retract_tuple

FLOW_TOL = 1e-8
FLOW_MAX_ITER = 100_000
_MAX_HALVINGS = 40


@dataclass(frozen=True)
class FlowStep:
    iter: int
    p: float
    residual: float
    step: float


@dataclass(frozen=True)
class FlowTrace:
    steps: tuple
    converged: bool

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


def _residual_matrix(mats) -> np.ndarray:
    x = np.asarray(mats)
    xh = dagger(x)
    m = (x @ xh - xh @ x).sum(axis=0)
    return (m + m.conj().T) / 2.0


def moment_residual(rho: RepTuple) -> MomentResidual:
    """M = sum_i (X_i X_i* - X_i* X_i), Hermitian and traceless."""
    m = _residual_matrix(rho.matrices)
    return MomentResidual(M=m, norm=frob(m))


def kn_flow(
    rho: RepTuple,
    max_iter: int = FLOW_MAX_ITER,
    tol: float = FLOW_TOL,
) -> tuple:
    """Backtracking gradient descent of the norm functional inside the orbit.

    Each iteration conjugates by e^{-eps M} with initial eps = 1/(4|M|+1),
    halving eps (at most 40 times) until the functional decreases.  The step
    is applied in M's eigenbasis, where it is the entrywise scaling
    Y_jk -> Y_jk e^{-eps (w_j - w_k)} and the functional decrement
    sum |Y_jk|^2 expm1(-2 eps (w_j - w_k)) is evaluated exactly, so the
    accept/halve decision keeps its true sign even once the decrement is far
    below the resolution of the functional itself.  Stops when the residual
    norm drops below ``tol`` or after ``max_iter`` iterations;
    non-convergence signals an orbit that is not closed.
    """
    mats = rho.matrices
    p = kn_functional(rho)
    m_res = _residual_matrix(mats)
    res = frob(m_res)
    steps = [FlowStep(0, p, res, 0.0)]
    converged = res <= tol
    it = 0
    while not converged and it < max_iter:
        it += 1
        w, u = np.linalg.eigh(m_res)
        gap = w[:, None] - w[None, :]
        ys = [u.conj().T @ x @ u for x in mats]
        ysq = [np.abs(y) ** 2 for y in ys]
        eps = 1.0 / (4.0 * res + 1.0)
        accepted = False
        for _ in range(_MAX_HALVINGS):
            delta = float(sum(np.sum(q * np.expm1(-2.0 * eps * gap)) for q in ysq))
            if delta < 0.0:
                accepted = True
                break
            eps *= 0.5
        if not accepted:
            break  # critical within rounding; report best iterate
        scale = np.exp(-eps * gap)
        mats = [u @ (y * scale) @ u.conj().T for y in ys]
        p += delta
        m_res = _residual_matrix(mats)
        res = frob(m_res)
        steps.append(FlowStep(it, p, res, eps))
        converged = res <= tol
    out = RepTuple(rho.descriptor, mats)
    return out, FlowTrace(steps=tuple(steps), converged=converged)


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
    flow_tol: float = FLOW_TOL,
) -> CompositeResult:
    """Flow to the Kempf-Ness set, then retract: the invariant-level map Phi_t.

    Reports the case-appropriate invariant record before and after; on
    unitary input (or at t=0 on poly-stable input) the records agree.
    """
    before = invariant_record(rho, tol)
    critical, trace = kn_flow(rho, max_iter=max_iter, tol=flow_tol)
    out = retract_tuple(critical, t, tol)
    after = invariant_record(out, tol)
    return CompositeResult(before=before, after=after, tuple=out, trace=trace)
