"""Seeded input generators, written apart from charvar's samplers.

Every library workload draws its tuples here, so a later change to a
charvar sampler cannot change what another workload measures.  Matrices
are plain complex numpy arrays; workloads wrap them in ``charvar.RepTuple``.
"""

from __future__ import annotations

import numpy as np


def rng_for(seed: int, stream: int) -> np.random.Generator:
    """Independent generator per (seed, stream); workloads number their streams."""
    return np.random.default_rng([seed, stream])


def haar_su(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random SU(n): phase-fixed QR of a Ginibre matrix, det rotated to 1."""
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    q = q * (d / np.abs(d))
    return q * np.linalg.det(q) ** (-1.0 / n)


def traceless_hermitian(n: int, rng: np.random.Generator, norm: float) -> np.ndarray:
    """Random traceless Hermitian matrix with Frobenius norm ``norm``."""
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    h = (a + a.conj().T) / 2.0
    h -= (np.trace(h) / n) * np.eye(n)
    return h * (norm / np.linalg.norm(h))


def expm_hermitian(h: np.ndarray) -> np.ndarray:
    w, u = np.linalg.eigh(h)
    return (u * np.exp(w)) @ u.conj().T


def closed_orbit_tuple(n: int, r: int, stretch: float, rng) -> list:
    """g k g^-1 for a Haar SU(n)^r tuple k and g = exp(H), |H| = stretch.

    A conjugate of a unitary tuple has a closed SL(n,C)-orbit whose
    Kempf-Ness minimum is attained, so the flow must converge; ``stretch``
    sets how far the input starts from that minimum.
    """
    g = expm_hermitian(traceless_hermitian(n, rng, stretch))
    gi = np.linalg.inv(g)
    return [g @ haar_su(n, rng) @ gi for _ in range(r)]


def unipotent_pair(rng) -> list:
    """Conjugated pair of commuting unipotents: a non-closed SL(2,C)-orbit."""
    g = expm_hermitian(traceless_hermitian(2, rng, 1.0))
    gi = np.linalg.inv(g)
    mats = []
    for _ in range(2):
        a = rng.uniform(0.5, 2.0) * np.exp(2j * np.pi * rng.uniform())
        mats.append(g @ np.array([[1.0, a], [0.0, 1.0]]) @ gi)
    return mats


def haar_tuple(n: int, r: int, rng) -> list:
    return [haar_su(n, rng) for _ in range(r)]


def repeated_eigenvalue_pair(rng) -> list:
    """Irreducible SU(3) pair whose first matrix has a double eigenvalue."""
    v = haar_su(3, rng)
    theta = rng.uniform(0.3, 1.2)
    d = np.diag(np.exp(1j * np.array([theta, theta, -2.0 * theta])))
    return [v @ d @ v.conj().T, haar_su(3, rng)]


def conjugate(k: np.ndarray, mats: list) -> list:
    return [k @ m @ k.conj().T for m in mats]
