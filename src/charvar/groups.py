"""Group elements and representation tuples.

A representation of the rank-r free group is stored as the images of the
generators, one read-only (r, n, n) complex array, with a descriptor saying
which group they live in (SU(n) or SL(n,C)).  Tuples are immutable values,
checked once, when built, and trusted after: every operation works on the
whole stack and returns fresh ones.  ``RepTuple(d, mats)`` checks an (r, n, n)
stack and ``tuples_in_group(d, x)`` a stack of tuples (m, r, n, n) with one
``in_group`` call, and ``to_quaternion`` one matrix.  All raise DimensionMismatch
for a ragged, wrong-shaped or non-square input, NotInGroup for one off the group
(NaN or inf included) and ValueError for an entry that is not a number.
``expect_case`` guards an operation that takes one (r, n) case: NotInGroup for any other.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .linalg import DEFAULT_TOL, check_invertible, cmat, dagger, exp_herm, haar_from_normals, haar_su, unitary_det

GROUP_TOL = 1e-8  # how far a RepTuple's matrices may miss their group


class NotInGroup(ValueError):
    """Matrix fails its group validity predicate."""


class DimensionMismatch(ValueError):
    """Matrix dimensions are inconsistent."""


@dataclass(frozen=True)
class GroupDescriptor:
    family: str  # "SU" or "SL"
    n: int

    def __post_init__(self):
        if self.family not in ("SU", "SL"):
            raise ValueError(f"unknown family {self.family!r}")
        if self.n < 1:
            raise ValueError("n must be >= 1")

    def __str__(self):
        return f"{self.family}({self.n})"


def su(n: int) -> GroupDescriptor:
    return GroupDescriptor("SU", n)


def sl(n: int) -> GroupDescriptor:
    return GroupDescriptor("SL", n)


def cartan(g) -> np.ndarray:
    """Cartan involution: conjugate transpose (of each matrix of a stack)."""
    return dagger(cmat(g))


@lru_cache(maxsize=None)
def _identity(n: int) -> np.ndarray:
    """The n x n identity, read-only."""
    eye = np.eye(n)
    eye.setflags(write=False)
    return eye


@np.errstate(invalid="ignore", over="ignore")  # a non-finite entry reads False
def validate(g, d: GroupDescriptor, tol: float = DEFAULT_TOL):
    """Whether ``g`` lies in the group described by ``d`` within ``tol``: one
    bool per matrix of a stack (..., n, n), False if they are not n x n, and
    False, without a warning, for a matrix with a NaN or inf entry.

    The SU determinant is ``unitary_det``'s: where the matrix misses unitarity
    by more than tol the verdict is False whatever its determinant.  SL
    determinants stay on LU, accurate on badly conditioned matrices too.
    """
    g = np.asarray(g, dtype=complex)
    if g.shape[-2:] != (d.n, d.n):
        return False
    if d.family == "SL":
        return np.abs(np.linalg.det(g) - 1.0) <= tol
    ok = np.abs(unitary_det(g) - 1.0) <= tol
    # |g g* - I|_F as the root of the sum of squares of its real and imaginary parts.
    e = g @ dagger(g)
    e -= _identity(d.n)
    v = e.reshape(*e.shape[:-2], d.n * d.n).view(float)
    ok &= np.sqrt((v * v).sum(axis=-1)) <= tol
    return ok


def in_group(x, d: GroupDescriptor):
    """The stack x (..., n, n), after one check that every matrix lies in the
    group ``d`` within GROUP_TOL; raises NotInGroup otherwise."""
    if not np.all(validate(x, d, GROUP_TOL)):
        raise NotInGroup(f"not {d}-valued within tol={GROUP_TOL:g}")
    return x


def _complex_copy(x, ndim: int, d) -> np.ndarray:
    """One complex C-contiguous copy of x: DimensionMismatch if x is ragged, for the group
    ``d`` (a descriptor or its name), and a ValueError naming an entry that is not a number."""
    try:
        return np.array(x, dtype=complex, order="C")
    except (TypeError, ValueError) as err:
        try:  # as objects, a ragged x has fewer than ndim axes, or numpy refuses it
            entries = np.array(x, dtype=object)
        except ValueError:
            entries = np.empty(0, dtype=object)
        if entries.ndim < ndim:
            raise DimensionMismatch(f"matrices of mixed shapes for {d}") from err
        bad = next((e for e in entries.flat if not isinstance(e, numbers.Number)), err)
        raise ValueError(f"matrix entry {bad!r} is not a number") from err


def _checked_stack(d: GroupDescriptor, x, ndim: int) -> np.ndarray:
    """One read-only complex C-contiguous copy of x, after one ``in_group`` check: DimensionMismatch
    unless it has ndim axes, the last two (n, n), and a ValueError naming an entry that is not a number."""
    x = _complex_copy(x, ndim, d)
    if x.ndim != ndim or x.shape[-2:] != (d.n, d.n):
        raise DimensionMismatch(f"shape {x.shape} is not ({'m, r, '[3 * (4 - ndim):]}{d.n}, {d.n}) for {d}")
    x.setflags(write=False)
    return in_group(x, d)


@dataclass(frozen=True, eq=False)
class RepTuple:
    """An (r, n, n) tuple in the group ``descriptor``, checked when built:
    DimensionMismatch if ragged, wrong-shaped or non-square, NotInGroup if off the
    group (NaN or inf included).  Value equality; unhashable, like its arrays."""

    descriptor: GroupDescriptor
    matrices: np.ndarray  # (r, n, n) complex, read-only

    def __post_init__(self):
        object.__setattr__(self, "matrices", _checked_stack(self.descriptor, self.matrices, 3))

    @property
    def r(self) -> int:
        return len(self.matrices)

    @property
    def n(self) -> int:
        return self.descriptor.n

    def __getitem__(self, i) -> np.ndarray:
        return self.matrices[i]

    def __eq__(self, other):
        if not isinstance(other, RepTuple):
            return NotImplemented
        return self.descriptor == other.descriptor and np.array_equal(self.matrices, other.matrices)

    __hash__ = None


def tuples_in_group(d: GroupDescriptor, x) -> list:
    """The tuples of a stack x (m, r, n, n), after one ``in_group`` check of the
    whole stack against ``d``: m RepTuples that share one read-only C-contiguous
    copy of x and are not checked again one by one.  The check is RepTuple's:
    DimensionMismatch for a ragged, wrong-shaped or non-square stack, NotInGroup
    for one off the group anywhere, a NaN or inf entry included.
    """
    out = []
    for mats in _checked_stack(d, x, 4):
        rho = object.__new__(RepTuple)  # checked above, with the whole stack
        object.__setattr__(rho, "descriptor", d)
        object.__setattr__(rho, "matrices", mats)
        out.append(rho)
    return out


def expect_case(rho: RepTuple, n: int, r: int, family: str | None = None) -> None:
    """Raise NotInGroup unless rho is a rank-r tuple of n x n matrices, in ``family``
    if one is given.  Membership was checked when rho was built, not again here."""
    if rho.n != n or rho.r != r or family not in (None, rho.descriptor.family):
        raise NotInGroup(f"expected a rank-{r} {family or 'SU or SL'}({n}) tuple, got {rho.descriptor} of rank {rho.r}")


def conjugate_tuple(g, rho: RepTuple, tol: float = DEFAULT_TOL) -> RepTuple:
    """Simultaneous conjugation (g X_1 g^-1, ..., g X_r g^-1)."""
    g = cmat(g)
    if g.shape != (rho.n, rho.n):
        raise DimensionMismatch(f"conjugator shape {g.shape} vs n={rho.n}")
    check_invertible(np.linalg.svd(g, compute_uv=False), tol)
    mats = g @ rho.matrices @ np.linalg.inv(g)
    # The family is read off the result: an SU tuple stays SU while the
    # conjugated matrices pass the SU check (a scalar g, or one commuting
    # with the tuple up to a unitary factor), else it moves to SL(n,C).
    if rho.descriptor.family == "SU":
        try:
            return RepTuple(rho.descriptor, mats)
        except NotInGroup:
            pass
    return RepTuple(sl(rho.n), mats)


def hermitian_from_normals(g) -> np.ndarray:
    """Traceless Hermitian parts of the Ginibre matrices with real then imaginary parts g (..., 2, n, n)."""
    a = g[..., 0, :, :] + 1j * g[..., 1, :, :]
    h = (a + dagger(a)) / 2.0
    return h - (np.trace(h, axis1=-2, axis2=-1) / h.shape[-1])[..., None, None] * np.eye(h.shape[-1])


def sl_from_normals(g) -> np.ndarray:
    """SL(n,C) matrices k exp(H) from normals g (..., 2, 2, n, n): the block of k, then of H."""
    return haar_from_normals(g[..., 0, :, :, :]) @ exp_herm(hermitian_from_normals(g[..., 1, :, :, :]))


def sample_tuple(d: GroupDescriptor, r: int, rng: np.random.Generator) -> RepTuple:
    """Random tuple, one normal draw: Haar factors for SU, Haar times exp(Hermitian) for SL."""
    if r < 1:
        raise ValueError("rank must be >= 1")
    mats = haar_su(d.n, rng, r) if d.family == "SU" else sl_from_normals(rng.standard_normal((r, 2, 2, d.n, d.n)))
    return RepTuple(d, mats)


# --- quaternion model for SU(2) -------------------------------------------


@dataclass(frozen=True)
class Quaternion:
    a: float
    b: float
    c: float
    d: float

    def __mul__(self, o: "Quaternion") -> "Quaternion":
        return Quaternion(
            self.a * o.a - self.b * o.b - self.c * o.c - self.d * o.d,
            self.a * o.b + self.b * o.a + self.c * o.d - self.d * o.c,
            self.a * o.c - self.b * o.d + self.c * o.a + self.d * o.b,
            self.a * o.d + self.b * o.c - self.c * o.b + self.d * o.a,
        )

    def conjugate(self) -> "Quaternion":
        return Quaternion(self.a, -self.b, -self.c, -self.d)

    def norm(self) -> float:
        return float(np.sqrt(self.a**2 + self.b**2 + self.c**2 + self.d**2))

    @property
    def re(self) -> float:
        return self.a

    @property
    def im(self) -> tuple:
        return (self.b, self.c, self.d)


def quaternion_matrix(a, b, c, d) -> np.ndarray:
    """The SU(2) matrix [[a+ib, c+id], [-c+id, a-ib]] of a + bi + cj + dk;
    components of shape (...) give a stack (..., 2, 2)."""
    # Written as real and imaginary parts, row by row, into a real array.
    m = np.empty(np.broadcast(a, b, c, d).shape + (2, 4))
    m[..., 0, 0], m[..., 0, 1], m[..., 0, 2], m[..., 0, 3] = a, b, c, d
    m[..., 1, 0], m[..., 1, 1], m[..., 1, 2], m[..., 1, 3] = np.negative(c), d, a, np.negative(b)
    return m.view(complex)


def to_quaternion(g) -> Quaternion:
    """SU(2) matrix [[a+ib, c+id], [-c+id, a-ib]] -> unit quaternion a+bi+cj+dk."""
    (alpha, beta), _ = _checked_stack(su(2), g, 2)
    return Quaternion(alpha.real, alpha.imag, beta.real, beta.imag)


def from_quaternion(q: Quaternion) -> np.ndarray:
    return in_group(quaternion_matrix(q.a, q.b, q.c, q.d), su(2))


# --- JSON wire format -------------------------------------------------------


def tuple_to_json(rho: RepTuple) -> dict:
    """Shared tuple schema used by the CLI (entries as [re, im] pairs)."""
    return {
        "family": rho.descriptor.family,
        "n": rho.descriptor.n,
        "r": rho.r,
        "matrices": [
            [[[float(z.real), float(z.imag)] for z in row] for row in m]
            for m in rho.matrices
        ],
    }


def _json_field(obj: dict, field: str, convert):
    """``convert(obj[field])``; a TypeError or ValueError that a value of the
    wrong shape raises comes out as a ValueError naming the field."""
    try:
        return convert(obj[field])
    except (TypeError, ValueError) as err:
        raise ValueError(f"tuple JSON field {field!r} is malformed: {err}") from err


def _json_entry(e) -> complex:
    re, im = e  # an [re, im] pair: anything else raises TypeError or ValueError
    return complex(re, im)


def tuple_from_json(obj: dict) -> RepTuple:
    for field in ("family", "n", "r", "matrices"):
        if not isinstance(obj, dict) or field not in obj:
            raise ValueError(f"tuple JSON has no {field!r} field")
    desc = GroupDescriptor(obj["family"], _json_field(obj, "n", int))
    mats = _json_field(obj, "matrices", lambda ms: [[[_json_entry(e) for e in row] for row in m] for m in ms])
    rho = RepTuple(desc, mats)
    if rho.r != _json_field(obj, "r", int):
        raise DimensionMismatch("declared rank does not match number of matrices")
    return rho
