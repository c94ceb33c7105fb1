"""Group elements and representation tuples.

A representation of the rank-r free group is stored as the images of the
generators, one read-only (r, n, n) complex array, with a descriptor saying
which group they live in (SU(n) or SL(n,C)).  Tuples are immutable values,
checked against their group once, when built, by ``in_group`` on the stack;
every operation trusts the tuples it is given, works on the whole stack and
returns fresh ones.
"""

from __future__ import annotations

from dataclasses import dataclass

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


def validate(g, d: GroupDescriptor, tol: float = DEFAULT_TOL):
    """Whether ``g`` lies in the group described by ``d`` within ``tol``: one
    bool per matrix of a stack (..., n, n), False if they are not n x n.

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
    ok &= np.linalg.norm(g @ dagger(g) - np.eye(d.n), axis=(-2, -1)) <= tol
    return ok


def in_group(x, d: GroupDescriptor):
    """The stack x (..., n, n), after one check that every matrix lies in the
    group ``d`` within GROUP_TOL; raises NotInGroup otherwise."""
    if not np.all(validate(x, d, GROUP_TOL)):
        raise NotInGroup(f"not {d}-valued within tol={GROUP_TOL:g}")
    return x


@dataclass(frozen=True, eq=False)
class RepTuple:
    """Value equality (same descriptor, equal matrices); unhashable, like the arrays it holds."""

    descriptor: GroupDescriptor
    matrices: np.ndarray  # (r, n, n) complex, read-only

    def __post_init__(self):
        try:
            mats = np.array(self.matrices, dtype=complex, order="C")
        except ValueError as err:  # ragged: the matrices differ in shape
            raise DimensionMismatch(f"matrices of mixed shapes for {self.descriptor}") from err
        mats = cmat(mats)
        if mats.shape[1:] != (self.descriptor.n, self.descriptor.n):
            raise DimensionMismatch(f"matrix shape {mats.shape[1:]} does not match {self.descriptor}")
        mats.setflags(write=False)
        object.__setattr__(self, "matrices", in_group(mats, self.descriptor))

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


def random_traceless_hermitian(n: int, rng: np.random.Generator) -> np.ndarray:
    """Hermitian part of a complex Ginibre matrix, projected traceless."""
    return hermitian_from_normals(rng.standard_normal((2, n, n)))


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
    g = in_group(cmat(g), su(2))
    alpha, beta = g[0, 0], g[0, 1]
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
