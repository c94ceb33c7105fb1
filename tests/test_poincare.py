from fractions import Fraction

import pytest

from charvar.poincare import IntPolynomial, baird_poly, surface_counterexample_polys


def test_low_rank_values():
    assert baird_poly(1).coefficients == (1,)
    assert baird_poly(2).coefficients == (1,)
    assert baird_poly(3).coefficients == (1, 0, 0, 0, 0, 0, 1)


def test_rank3_numeric_spot_check():
    assert baird_poly(3)(Fraction(1, 2)) == Fraction(65, 64)  # 1.015625


def test_expansion_through_rank_10():
    for r in range(1, 11):
        p = baird_poly(r)  # exact division must leave no remainder
        assert p.coefficients[0] == 1
        assert all(c >= 0 for c in p.coefficients)
        if r >= 2:
            assert len(p.coefficients) < 2 or p.coefficients[1] == 0


def test_degree_observation():
    for r in range(3, 11):
        assert baird_poly(r).degree == 3 * r - 3


def test_closed_form_exact():
    """Each expansion equals sympy's cancellation of the docstring's closed form."""
    sp = pytest.importorskip("sympy")

    t = sp.symbols("t")
    for r in range(1, 13):
        closed = (
            1 + t
            - t * (1 + t**3) ** r / (1 - t**4)
            + t**3 / 2 * ((1 + t) ** r / (1 - t**2) - (1 - t) ** r / (1 + t**2))
        )
        expected = sp.Poly(sp.cancel(closed), t).all_coeffs()[::-1]
        assert baird_poly(r).coefficients == tuple(expected), r


def test_rank_validation():
    with pytest.raises(ValueError):
        baird_poly(0)


def test_surface_counterexample():
    bundles, higgs, differ = surface_counterexample_polys()
    assert differ
    assert bundles.coefficients == (1, 0, 1, 4, 1, 0, 1)
    assert higgs.coefficients == (1, 0, 1, 4, 2, 34, 2)
    cb = list(bundles.coefficients)
    ch = list(higgs.coefficients)
    assert cb[3] == ch[3] == 4
    assert (cb[4], ch[4]) == (1, 2)
    assert (cb[5], ch[5]) == (0, 34)
    assert (cb[6], ch[6]) == (1, 2)


def test_int_polynomial_repr_and_trim():
    p = IntPolynomial((1, 0, 2, 0, 0))
    assert p.coefficients == (1, 0, 2)
    assert str(p) == "1 + 2t^2"
    assert p(2) == 9

