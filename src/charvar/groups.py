"""Group elements and representation tuples.

A representation of the rank-r free group is stored as the r-tuple of images
of the generators, together with a descriptor saying which group the entries
live in (SU(n) or SL(n,C)).  Tuples are immutable values, checked against
their group once, when built, within GROUP_TOL; every operation trusts the
tuples it is given and returns fresh ones.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import DEFAULT_TOL, Singular, cmat, exp_herm, frob, haar_su

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
    """Cartan involution: conjugate transpose."""
    return cmat(g).conj().T


def validate(g, d: GroupDescriptor, tol: float = DEFAULT_TOL) -> bool:
    """True if ``g`` lies in the group described by ``d`` within ``tol``."""
    g = np.asarray(g, dtype=complex)
    if g.shape != (d.n, d.n):
        return False
    if abs(np.linalg.det(g) - 1.0) > tol:
        return False
    if d.family == "SU" and frob(g @ g.conj().T - np.eye(d.n)) > tol:
        return False
    return True


@dataclass(frozen=True)
class RepTuple:
    descriptor: GroupDescriptor
    matrices: tuple

    def __post_init__(self):
        mats = tuple(cmat(m).copy() for m in self.matrices)
        for m in mats:
            m.setflags(write=False)
            if m.shape != (self.descriptor.n, self.descriptor.n):
                raise DimensionMismatch(
                    f"matrix shape {m.shape} does not match {self.descriptor}"
                )
        object.__setattr__(self, "matrices", mats)
        if not self.is_valid(GROUP_TOL):
            raise NotInGroup(f"tuple is not {self.descriptor}-valued within tol={GROUP_TOL:g}")

    @property
    def r(self) -> int:
        return len(self.matrices)

    @property
    def n(self) -> int:
        return self.descriptor.n

    def __getitem__(self, i) -> np.ndarray:
        return self.matrices[i]

    def is_valid(self, tol: float = DEFAULT_TOL) -> bool:
        return all(validate(m, self.descriptor, tol) for m in self.matrices)


def conjugate_tuple(g, rho: RepTuple, tol: float = DEFAULT_TOL) -> RepTuple:
    """Simultaneous conjugation (g X_1 g^-1, ..., g X_r g^-1)."""
    g = cmat(g)
    if g.shape != (rho.n, rho.n):
        raise DimensionMismatch(f"conjugator shape {g.shape} vs n={rho.n}")
    s = np.linalg.svd(g, compute_uv=False)
    if s[-1] <= tol * s[0]:
        raise Singular("conjugator is numerically singular (s_min <= tol * s_max)")
    gi = np.linalg.inv(g)
    mats = tuple(g @ m @ gi for m in rho.matrices)
    # The family is read off the result: an SU tuple stays SU while the
    # conjugated matrices pass the SU check (a scalar g, or one commuting
    # with the tuple up to a unitary factor), else it moves to SL(n,C).
    if rho.descriptor.family == "SU":
        try:
            return RepTuple(rho.descriptor, mats)
        except NotInGroup:
            pass
    return RepTuple(sl(rho.n), mats)


def random_traceless_hermitian(n: int, rng: np.random.Generator) -> np.ndarray:
    """Hermitian part of a complex Ginibre matrix, projected traceless."""
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    h = (a + a.conj().T) / 2.0
    h -= (np.trace(h) / n) * np.eye(n)
    return h


def sample_tuple(d: GroupDescriptor, r: int, rng: np.random.Generator) -> RepTuple:
    """Random tuple: Haar factors for SU, Haar times exp(Hermitian) for SL."""
    if r < 1:
        raise ValueError("rank must be >= 1")
    mats = []
    for _ in range(r):
        k = haar_su(d.n, rng)
        if d.family == "SU":
            mats.append(k)
        else:
            mats.append(k @ exp_herm(random_traceless_hermitian(d.n, rng)))
    return RepTuple(d, tuple(mats))


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


def to_quaternion(g, tol: float = DEFAULT_TOL) -> Quaternion:
    """SU(2) matrix [[a+ib, c+id], [-c+id, a-ib]] -> unit quaternion a+bi+cj+dk."""
    g = cmat(g)
    if not validate(g, su(2), tol):
        raise NotInGroup("to_quaternion expects an SU(2) matrix")
    alpha, beta = g[0, 0], g[0, 1]
    return Quaternion(alpha.real, alpha.imag, beta.real, beta.imag)


def from_quaternion(q: Quaternion, tol: float = DEFAULT_TOL) -> np.ndarray:
    if abs(q.norm() - 1.0) > tol:
        raise NotInGroup(f"quaternion norm {q.norm():.6g} is not 1 within tol={tol:g}")
    alpha = q.a + 1j * q.b
    beta = q.c + 1j * q.d
    return np.array([[alpha, beta], [-np.conj(beta), np.conj(alpha)]])


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


def tuple_from_json(obj: dict) -> RepTuple:
    desc = GroupDescriptor(obj["family"], int(obj["n"]))
    mats = []
    for m in obj["matrices"]:
        mats.append(np.array([[complex(e[0], e[1]) for e in row] for row in m]))
    rho = RepTuple(desc, tuple(mats))
    if rho.r != int(obj["r"]):
        raise DimensionMismatch("declared rank does not match number of matrices")
    return rho
