"""Exact expansion of the Poincare polynomial of the rank-r SL(2,C) quotient.

All arithmetic is over Python integers; floating point is forbidden here
because the final step is an exact polynomial division whose remainder must
vanish identically.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb


class NonPolynomial(ValueError):
    """Exact division left a remainder or a non-integer coefficient."""


@dataclass(frozen=True)
class IntPolynomial:
    """Dense integer polynomial; coefficients[d] is the degree-d coefficient."""

    coefficients: tuple

    def __post_init__(self):
        coeffs = tuple(int(c) for c in self.coefficients)
        while len(coeffs) > 1 and coeffs[-1] == 0:
            coeffs = coeffs[:-1]
        object.__setattr__(self, "coefficients", coeffs)

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def __call__(self, x):
        acc = 0
        for c in reversed(self.coefficients):
            acc = acc * x + c
        return acc

    def __str__(self):
        terms = []
        for d, c in enumerate(self.coefficients):
            if c == 0:
                continue
            if d == 0:
                terms.append(str(c))
            elif d == 1:
                terms.append(f"{c}t" if c != 1 else "t")
            else:
                terms.append(f"{c}t^{d}" if c != 1 else f"t^{d}")
        return " + ".join(terms) if terms else "0"


def baird_poly(r: int) -> IntPolynomial:
    """Poincare polynomial of the rank-r SL(2,C) quotient, expanded exactly.

    1 + t - t(1+t^3)^r/(1-t^4) + (t^3/2)((1+t)^r/(1-t^2) - (1-t)^r/(1+t^2)),
    combined over the common denominator 2(1-t^4): the numerator
    2(1+t)(1-t^4) - 2t(1+t^3)^r + t^3(1+t)^r(1+t^2) - t^3(1-t)^r(1-t^2) is
    divided by 1 - t^4 through the running sum q_i = num_i + q_(i-4), then
    halved.  Raises NonPolynomial if the division leaves a remainder or an odd
    coefficient (a transcription error, not a math fact).
    """
    if r < 1:
        raise ValueError("rank must be >= 1")
    num = [2, 2, 0, 0, -2, -2] + [0] * (3 * r)  # 2(1+t)(1-t^4), room up to degree 3r+5
    for k in range(r + 1):
        c, sign = comb(r, k), (-1) ** k
        num[3 * k + 1] -= 2 * c  # -2t(1+t^3)^r
        num[k + 3] += c - sign * c  # t^3 (1+t)^r, then -t^3 (1-t)^r
        num[k + 5] += c + sign * c  # their t^2 (1+t)^r and t^2 (1-t)^r parts
    q = num  # num / (1 - t^4) as a power series, in place
    for i in range(4, len(q)):
        q[i] += q[i - 4]
    if any(q[-4:]):  # four vanishing coefficients past num's degree end the series
        raise NonPolynomial(f"division remainder {q[-4:]} for r={r}")
    if any(c % 2 for c in q):
        raise NonPolynomial(f"odd coefficient in 2P for r={r}")
    return IntPolynomial(tuple(c // 2 for c in q[:-4]))


def surface_counterexample_polys():
    """The genus-2 odd-degree Poincare polynomials of the two moduli spaces.

    Rank-2 fixed-determinant vector bundles vs Higgs bundles; they differ,
    which is what rules out a deformation retraction for twisted surface
    groups.
    """
    bundles = IntPolynomial((1, 0, 1, 4, 1, 0, 1))
    higgs = IntPolynomial((1, 0, 1, 4, 2, 34, 2))
    return bundles, higgs, bundles.coefficients != higgs.coefficients
