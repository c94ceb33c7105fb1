"""Trace words and the named invariant coordinate systems.

Covers the coordinate systems used for (r, n) = (2,2), (3,2) and (2,3):
quaternion real parts a_i for SU(2) pairs and triples with their derived
r/s/t/l scalars, the ten trace coordinates of a rank-2 SU(3)/SL(3) tuple
with their realified u-form and the P/Q symmetric functions, and the
torus-invariant minors of a single 3x3 matrix with their degree-2 relation.

Each formula is written once, in the batch core below, and broadcasts over
stacked tuples; the functions returning dataclasses check one tuple's case
(family, n and r) and wrap that core, as do ``invariant_record``, the lifts
and the verify suites.  Group membership is not re-checked here: a RepTuple
is validated once, when it is built.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, product

import numpy as np

from .linalg import DEFAULT_TOL, check_tol, cmat, dagger
from .groups import NotInGroup, RepTuple

REALIFY_TOL = 1e-10


class ComplexInput(ValueError):
    """Input expected real (unitary-derived) carries an imaginary part."""


# --- words ------------------------------------------------------------------


@dataclass(frozen=True)
class Word:
    """Word in the free group: tuple of (generator index 1..r, exponent +-1)."""

    letters: tuple

    def __post_init__(self):
        for g, e in self.letters:
            if g < 1:
                raise ValueError(f"generator index {g} must be >= 1")
            if e not in (1, -1):
                raise ValueError(f"exponent {e} must be +-1")

    @staticmethod
    def parse(text: str) -> "Word":
        """Parse words like ``x1 x2^-1 x1`` (whitespace separated)."""
        letters = []
        for token in text.split():
            m = re.fullmatch(r"x(\d+)(\^-1)?", token)
            if not m:
                raise ValueError(f"bad word token {token!r}")
            letters.append((int(m.group(1)), -1 if m.group(2) else 1))
        return Word(tuple(letters))

    def __str__(self):
        return " ".join(f"x{g}" + ("^-1" if e < 0 else "") for g, e in self.letters)


def evaluate_word(rho: RepTuple, w: Word) -> np.ndarray:
    """The product of the word's letters; each generator is inverted at most
    once, as its conjugate transpose on an SU tuple."""
    for g, _ in w.letters:
        if g > rho.r:
            raise ValueError(f"word uses generator x{g} but rank is {rho.r}")
    stacks = {1: rho.matrices}
    if any(e == -1 for _, e in w.letters):
        stacks[-1] = _inverse(rho.matrices, rho.descriptor.family == "SU")
    m = np.eye(rho.n, dtype=complex)
    for g, e in w.letters:
        m = m @ stacks[e][g - 1]
    return m


def trace_word(rho: RepTuple, w: Word) -> complex:
    """Trace of the evaluated word; the empty word gives n."""
    return complex(np.trace(evaluate_word(rho, w)))


def all_words(r: int, max_len: int = 3):
    """Every word of length 1..max_len in the 2r letters x_i, x_i^-1."""
    alphabet = [(g, e) for g in range(1, r + 1) for e in (1, -1)]
    for length in range(1, max_len + 1):
        for combo in product(alphabet, repeat=length):
            yield Word(tuple(combo))


@lru_cache(maxsize=64)
def _word_keys(r: int, max_len: int) -> tuple:
    return tuple(map(str, all_words(r, max_len)))


def word_trace_table(rho: RepTuple, max_len: int = 3) -> dict:
    """``word_traces`` of one tuple, keyed by the words in ``all_words`` order."""
    t = word_traces(rho.matrices, max_len, rho.descriptor.family == "SU")
    return dict(zip(_word_keys(rho.r, max_len), t.tolist()))


# --- batch core ---------------------------------------------------------------
#
# Tuples are stacked as (..., r, n, n) arrays (the tuple index on axis -3),
# coordinates as (..., k) arrays.


def _inverse(x, unitary: bool):
    """Stacked inverse; the conjugate transpose on unitary input."""
    return dagger(x) if unitary else np.linalg.inv(x)


def _tr(x):
    return np.einsum("...ii->...", x)


def _tr_prod(x, y):
    """tr(x @ y) without forming the product."""
    return np.einsum("...ij,...ji->...", x, y)


def word_traces(x, max_len: int = 3, unitary: bool = False):
    """Traces of every word of length 1..max_len of stacked tuples x (..., r, n, n).

    Returns (..., 2r + (2r)^2 + ... + (2r)^max_len) in ``all_words`` order.
    The 2r letters X_1, X_1^-1, ..., X_r, X_r^-1 are stacked once (inverses
    as conjugate transposes on unitary input); the words of each length are
    the previous length's products times every letter, and their traces are
    read as tr(prefix @ letter) without forming the longest products.
    """
    if max_len < 1:
        raise ValueError(f"max_len={max_len} must be >= 1")
    x = np.asarray(x)
    *lead, r, n, _ = x.shape
    letters = np.stack([x, _inverse(x, unitary)], axis=-3).reshape(*lead, 2 * r, n, n)
    prods, out = letters, [_tr(letters)]
    for length in range(2, max_len + 1):
        if length > 2:
            prods = (prods[..., :, None, :, :] @ letters[..., None, :, :, :]).reshape(*lead, -1, n, n)
        out.append(np.einsum("...pij,...lji->...pl", prods, letters).reshape(*lead, -1))
    return np.concatenate(out, axis=-1)


def su2_a_coords(x, unitary: bool = True):
    """a-coordinates of stacked SU(2)/SL(2) tuples ``x`` of shape (..., r, 2, 2).

    Returns (..., r + r(r-1)/2): a_j = tr(X_j)/2, then a_jk = tr(X_j^-1 X_k)/2
    for j < k in lexicographic order, i.e. (a1, a2, a3) for pairs and
    (a1, a2, a3, a12, a13, a23) for triples.  Real parts on unitary input.
    """
    x = np.asarray(x)
    j, k = (list(v) for v in zip(*combinations(range(x.shape[-3]), 2)))
    pairs = _tr_prod(_inverse(x, unitary)[..., j, :, :], x[..., k, :, :])
    a = np.concatenate([_tr(x), pairs], axis=-1) / 2.0
    return a.real if unitary else a


def su2_commutator_re(x):
    """Re(X1 X2 X1^-1 X2^-1) = half its trace, by multiplication; x is (..., 2, 2, 2) SU(2)."""
    x1, x2 = x[..., 0, :, :], x[..., 1, :, :]
    return _tr_prod(x1 @ x2, _inverse(x2 @ x1, True)).real / 2.0


def fricke_rhs(a1, a2, a3):
    """The classical three-trace side of the Fricke identity, 2(a1^2+a2^2+a3^2) - 4 a1 a2 a3 - 1."""
    return 2.0 * (a1**2 + a2**2 + a3**2) - 4.0 * a1 * a2 * a3 - 1.0


def sigma3(a1, a2, a3):
    """sigma(a) = 1 - a1^2 - a2^2 - a3^2 + 2 a1 a2 a3."""
    return 1.0 - a1 * a1 - a2 * a2 - a3 * a3 + 2.0 * a1 * a2 * a3


_J, _K = np.array([0, 0, 1]), np.array([1, 2, 2])  # the pairs 12, 13, 23
_GRAM_INDEX = np.array([[0, 3, 4], [3, 1, 5], [4, 5, 2]])


def gram_matrix(c):
    """The Gram matrix r (..., 3, 3) of the quaternion imaginary parts from stacked
    six-coordinates c (..., 6): r_jj = 1 - a_j^2 and r_jk = a_jk - a_j a_k.
    Object arrays go through as well, for exact checks."""
    c = np.asarray(c)
    a = c[..., :3]
    off = c[..., 3:] - a[..., _J] * a[..., _K]
    return np.concatenate([1.0 - a * a, off], axis=-1)[..., _GRAM_INDEX]


def gram(c, tol: float = DEFAULT_TOL):
    """Gram data of the quaternion imaginary parts from stacked six-coordinates c (..., 6).

    Returns ``(r, s, det, t123)``: r (..., 3, 3) from ``gram_matrix``; the
    pairwise sigmas s (..., 3) = (s12, s13, s23), s_jk = r_jj r_kk - r_jk^2;
    det r; and the normalized Gram determinant t123 = det r / (r11 r22 r33),
    0 where |r11 r22 r33| <= tol (an imaginary part degenerates).
    """
    r = gram_matrix(c)
    diag, off = np.diagonal(r, axis1=-2, axis2=-1), r[..., _J, _K]
    s = diag[..., _J] * diag[..., _K] - off**2
    vol = diag[..., 0] * diag[..., 1] * diag[..., 2]
    big = np.abs(vol) > tol
    det = np.linalg.det(r)
    t123 = np.where(big, det / np.where(big, vol, 1.0), 0.0)
    return r, s, det, t123[()]


def _product_traces(x1, x2, unitary: bool):
    """(t3, t-3, t5, t-5) from X1X2 and X2X1 alone: X1^-1X2^-1 = (X2X1)^-1, so
    t-3 = tr (X2X1)^-1, t5 = tr(X1X2 (X2X1)^-1) and t-5 = tr(X2X1 (X1X2)^-1).
    A function of its own, so the four product stacks are freed before
    ``su3_trace_coords`` forms the factors' inverses."""
    x12, x21 = x1 @ x2, x2 @ x1
    x12i, x21i = _inverse(x12, unitary), _inverse(x21, unitary)
    return _tr(x12), _tr(x21i), _tr_prod(x12, x21i), _tr_prod(x21, x12i)


def su3_trace_coords(x, unitary: bool = True):
    """The ten traces (t1, t-1, ..., t5, t-5) of stacked rank-2 tuples x (..., 2, 3, 3).

    t1 = tr X1, t2 = tr X2, t3 = tr X1X2, t4 = tr X1X2^-1,
    t5 = tr X1X2X1^-1X2^-1; t-k is the trace of the inverse word.  The only
    products formed are X1X2 and X2X1 (``_product_traces``); t4 and t-4 are
    read without forming theirs.
    """
    x1, x2 = x[..., 0, :, :], x[..., 1, :, :]
    t3, t3i, t5, t5i = _product_traces(x1, x2, unitary)
    x1i, x2i = _inverse(x1, unitary), _inverse(x2, unitary)
    return np.stack(
        [_tr(x1), _tr(x1i), _tr(x2), _tr(x2i), t3, t3i, _tr_prod(x1, x2i), _tr_prod(x1i, x2), t5, t5i],
        axis=-1,
    )


# Columns (t_k + t_-k)/2 and (t_k - t_-k)/2i for each pair (t_k, t_-k); for
# k = 5 only the second one, u5.
_U_MAP = np.kron(np.eye(5), [[0.5, -0.5j], [0.5, 0.5j]])[:, [0, 1, 2, 3, 4, 5, 6, 7, 9]]


def u_from_traces(t):
    """u_(k) = (t_k + t_-k)/2, u_(-k) = (t_k - t_-k)/2i for k = 1..4, then u5; (..., 10) -> (..., 9)."""
    return t @ _U_MAP


def pq_from_traces(t):
    """P = t5 + t-5 and Q = t5 t-5 of stacked traces (..., 10)."""
    return t[..., 8] + t[..., 9], t[..., 8] * t[..., 9]


def su3_alcove_quartic(tau):
    """|tau|^4 - 8 Re(tau^3) + 18 |tau|^2 - 27; <= 0 exactly on traces of SU(3)."""
    return abs(tau) ** 4 - 8.0 * (tau**3).real + 18.0 * abs(tau) ** 2 - 27.0


def su3_delta(P, Q):
    """Delta = Q^2 + 12 P Q + 18 Q - 4 P^3 - 27; <= 0 on unitary pairs.

    The constants here and in su3_disc are integers, so exact (sympy) input
    stays exact.
    """
    return Q**2 + 12 * P * Q + 18 * Q - 4 * P**3 - 27


def su3_disc(P, Q):
    """Discriminant P^2 - 4Q of the commutator-trace relation t^2 - P t + Q."""
    return P**2 - 4 * Q


# --- SU(2) coordinates -------------------------------------------------------


@dataclass(frozen=True)
class SU2Rank2Coords:
    a1: float
    a2: float
    a3: float

    def as_array(self):
        return np.array([self.a1, self.a2, self.a3])


@dataclass(frozen=True)
class SU2Rank3Coords:
    a1: float
    a2: float
    a3: float
    a12: float
    a13: float
    a23: float

    def as_array(self):
        return np.array([self.a1, self.a2, self.a3, self.a12, self.a13, self.a23])


def _check_su2(rho: RepTuple, r: int) -> None:
    if rho.descriptor.family != "SU" or rho.n != 2 or rho.r != r:
        raise NotInGroup(f"expected an SU(2) tuple of rank {r}")


def su2_rank2_coords(rho: RepTuple) -> SU2Rank2Coords:
    """(a1, a2, a3) = (Re X1, Re X2, Re(X1^-1 X2))."""
    _check_su2(rho, 2)
    return SU2Rank2Coords(*su2_a_coords(rho.matrices).tolist())


def fricke_check(rho: RepTuple):
    """Commutator real part two ways: matrix product vs the trace identity.

    lhs = Re(X1 X2 X1^-1 X2^-1) by multiplication; rhs is the classical
    three-trace expression 2(a1^2+a2^2+a3^2) - 4 a1 a2 a3 - 1.
    """
    _check_su2(rho, 2)
    x = rho.matrices
    return float(su2_commutator_re(x)), float(fricke_rhs(*su2_a_coords(x)))


def su2_rank3_coords(rho: RepTuple) -> SU2Rank3Coords:
    """Six real parts (a_1, a_2, a_3, a_12, a_13, a_23) of an SU(2) triple."""
    _check_su2(rho, 3)
    return SU2Rank3Coords(*su2_a_coords(rho.matrices).tolist())


@dataclass(frozen=True)
class RSTInvariants:
    """Pair/triple scalars derived from the six a-coordinates.

    ``r`` is the Gram matrix of the quaternion imaginary parts:
    r_jj = 1 - a_j^2, r_jk = a_jk - a_j a_k.  ``s_jk`` is the pairwise sigma,
    ``t123`` the normalized Gram determinant, and ``l_jk`` the cosine of the
    angle between imaginary parts (None when an imaginary part vanishes).
    """

    r: np.ndarray
    s12: float
    s13: float
    s23: float
    t123: float
    l12: float | None
    l13: float | None
    l23: float | None


def rst(c: SU2Rank3Coords, tol: float = DEFAULT_TOL) -> RSTInvariants:
    r, s, _, t123 = gram(c.as_array(), tol)

    def l(j, k):
        den = r[j, j] * r[k, k]
        if den <= tol:
            return None
        return float(r[j, k] / np.sqrt(den))

    s12, s13, s23 = s.tolist()
    return RSTInvariants(
        r=r,
        s12=s12,
        s13=s13,
        s23=s23,
        t123=float(t123),
        l12=l(0, 1),
        l13=l(0, 2),
        l23=l(1, 2),
    )


# --- SU(3)/SL(3) rank-2 trace coordinates ------------------------------------


@dataclass(frozen=True)
class SU3Rank2Traces:
    """The ten trace coordinates t_(+-k) of a rank-2 tuple in SL(3,C).

    t1 = tr X1, t2 = tr X2, t3 = tr X1X2, t4 = tr X1X2^-1,
    t5 = tr X1X2X1^-1X2^-1; tm_k their inverse-word partners.
    """

    t1: complex
    tm1: complex
    t2: complex
    tm2: complex
    t3: complex
    tm3: complex
    t4: complex
    tm4: complex
    t5: complex
    tm5: complex

    def pairs(self):
        return (
            (self.t1, self.tm1),
            (self.t2, self.tm2),
            (self.t3, self.tm3),
            (self.t4, self.tm4),
            (self.t5, self.tm5),
        )

    def as_array(self):
        """The ten traces in field order, as ``su3_trace_coords`` stacks them."""
        return np.array([v for pair in self.pairs() for v in pair])

    def unitary_defect(self) -> float:
        """How far the traces are from the unitary symmetry tm_k = conj(t_k)."""
        return max(abs(tm - np.conj(t)) for t, tm in self.pairs())


def su3_traces(rho: RepTuple) -> SU3Rank2Traces:
    if rho.n != 3 or rho.r != 2:
        raise NotInGroup("expected a rank-2 tuple of 3x3 matrices")
    t = su3_trace_coords(rho.matrices, rho.descriptor.family == "SU")
    return SU3Rank2Traces(*t.tolist())


@dataclass(frozen=True)
class UCoords:
    """Realified trace coordinates u_(k) = (t_k + t_-k)/2, u_(-k) = (t_k - t_-k)/2i.

    Real floats on unitary input, complex otherwise.
    """

    u1: complex
    um1: complex
    u2: complex
    um2: complex
    u3: complex
    um3: complex
    u4: complex
    um4: complex
    u5: complex

    def as_list(self):
        return [self.u1, self.um1, self.u2, self.um2, self.u3, self.um3, self.u4, self.um4, self.u5]

    @property
    def is_real(self) -> bool:
        return all(isinstance(v, float) for v in self.as_list())

    def tau(self, k: int) -> complex:
        """Single-factor trace t_(k) = u_(k) + i u_(-k), k in 1..4."""
        u = self.as_list()
        return complex(u[2 * (k - 1)]) + 1j * complex(u[2 * (k - 1) + 1])


@dataclass(frozen=True)
class PQRecord:
    """Coefficients of the commutator-trace relation t^2 - P t + Q."""

    P: complex
    Q: complex
    tau: complex


def _realify(values, unitary, tol=REALIFY_TOL):
    values = np.asarray(values, dtype=complex)
    worst = float(np.max(np.abs(values.imag)))
    if unitary is None:
        unitary = worst < tol
    if unitary and worst >= tol:
        raise ComplexInput(
            f"imaginary part {worst:.3e} exceeds {tol:g}; input is not unitary-derived"
        )
    if unitary:
        return values.real.tolist()
    return values.tolist()


def u_coords(t: SU3Rank2Traces, unitary: bool | None = None) -> UCoords:
    """Change of variables to the u-coordinates; realified on unitary input.

    ``unitary=None`` auto-detects; ``unitary=True`` demands realifiability and
    raises ComplexInput otherwise (guarding against silently treating
    non-unitary input as unitary).
    """
    return UCoords(*_realify(u_from_traces(t.as_array()), unitary))


def pq(t: SU3Rank2Traces, unitary: bool | None = None) -> PQRecord:
    """P = t5 + t-5, Q = t5 * t-5; real on unitary input."""
    P, Q = _realify(pq_from_traces(t.as_array()), unitary)
    return PQRecord(P=P, Q=Q, tau=complex(t.t5))


def transpose_tuple(rho: RepTuple) -> RepTuple:
    """Componentwise transpose; swaps t5 and t-5, fixes the other traces."""
    return RepTuple(rho.descriptor, np.swapaxes(rho.matrices, -1, -2))


# --- torus-invariant minors of a 3x3 matrix ----------------------------------


@dataclass(frozen=True)
class MinorsRecord:
    """Diagonal entries, principal 2x2 minors, and the cyclic triple product.

    mm_k equals m_k evaluated on the inverse matrix when det = 1.
    """

    m1: complex
    m2: complex
    m3: complex
    mm1: complex
    mm2: complex
    mm3: complex
    m4: complex


def su3_minors(x) -> MinorsRecord:
    """The minors of a 3x3 matrix as complex numbers, or of each matrix of a
    stack (..., 3, 3) as arrays; ``relation_residual`` takes either."""
    x = cmat(x)
    if x.shape[-2:] != (3, 3):
        raise ValueError("su3_minors expects 3x3 matrices")
    e = np.moveaxis(x, (-2, -1), (0, 1))  # e[i, j] is entry (i, j) of every matrix
    m = np.stack([
        e[0, 0],
        e[1, 1],
        e[2, 2],
        e[1, 1] * e[2, 2] - e[1, 2] * e[2, 1],
        e[0, 0] * e[2, 2] - e[0, 2] * e[2, 0],
        e[0, 0] * e[1, 1] - e[0, 1] * e[1, 0],
        e[0, 1] * e[1, 2] * e[2, 0],
    ])
    return MinorsRecord(*(m.tolist() if x.ndim == 2 else m))


def relation_residual(m: MinorsRecord) -> complex:
    """The degree-2 relation among the seven minors; 0 on SL(3,C).

    Transcribed once, verbatim; do not "simplify".
    """
    m1, m2, m3 = m.m1, m.m2, m.m3
    mm1, mm2, mm3, m4 = m.mm1, m.mm2, m.mm3, m.m4
    return (
        -(m2**2) * m3**2 * m1**2
        + mm1 * m2 * m3 * m1**2
        + mm3 * m2 * m3**2 * m1
        - mm2 * mm1 * m2 * m1
        + mm2 * m2**2 * m3 * m1
        - mm3 * mm1 * m3 * m1
        - mm1 * m4 * m1
        + 2 * m2 * m3 * m4 * m1
        - m4**2
        + mm3 * mm2 * mm1
        - mm3 * mm2 * m2 * m3
        - mm2 * m2 * m4
        - mm3 * m3 * m4
        + m4
    )


# --- dispatch ---------------------------------------------------------------


def invariant_record(rho: RepTuple, tol: float = DEFAULT_TOL) -> dict:
    """Named invariant coordinates for the tuple's (r, n) case.

    Falls back to a word-trace table (words of length <= 3) when no bespoke
    coordinate system applies.  Values are floats on unitary input where the
    coordinates are real, complex otherwise.  ``tol`` must be finite and >= 0.
    """
    check_tol(tol)
    unitary = rho.descriptor.family == "SU"
    if (rho.r, rho.n) == (2, 2):
        a1, a2, a3 = su2_a_coords(rho.matrices, unitary)
        return {"a1": a1, "a2": a2, "a3": a3, "sigma": sigma3(a1, a2, a3)}
    if (rho.r, rho.n) == (3, 2):
        a = su2_a_coords(rho.matrices, unitary)
        _, s, _, t123 = gram(a, tol)
        rec = dict(zip(("a1", "a2", "a3", "a12", "a13", "a23"), a))
        rec.update(zip(("s12", "s13", "s23"), s))
        rec["t123"] = t123
        return rec
    if (rho.r, rho.n) == (2, 3):
        t = su3_traces(rho)
        record = pq(t, unitary=None)
        rec = {**vars(t), **vars(u_coords(t, unitary=None))}
        rec["P"], rec["Q"] = record.P, record.Q
        rec["disc"] = su3_disc(record.P, record.Q)
        rec["Delta"] = su3_delta(record.P, record.Q)
        return rec
    return word_trace_table(rho, max_len=3)
