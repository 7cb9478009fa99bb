"""Tests for the Touchard, Z, Laguerre and Charlier families.

Each family is checked against an independent closed form (Stirling sums,
the binomial Laguerre formula, the 2F0 Charlier series) rather than the
recurrence the implementation happens to use.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ftcalc.combinatorics import (
    binomial_general,
    rising_factorial,
    stirling_first_signed,
    stirling_second,
)
from ftcalc.polynomial import Basis
from ftcalc.special_polynomials import (
    charlier,
    charlier_orthogonality_sum,
    laguerre,
    touchard,
    z_poly,
)

degrees = st.integers(min_value=0, max_value=10)
points = st.fractions(min_value=-5, max_value=5, max_denominator=6)
alphas = st.fractions(min_value=-1, max_value=3, max_denominator=4)

BELL = [1, 1, 2, 5, 15, 52, 203, 877, 4140]


@given(degrees)
def test_touchard_coefficients_are_stirling_second(n):
    """T_n(x) = sum_k S(n,k) x^k, monomial basis."""
    t = touchard(n)
    assert t.basis is Basis.MONOMIAL
    assert all(t.coeff(k) == stirling_second(n, k) for k in range(n + 1))


def test_touchard_bell_numbers():
    """T_n(1) runs through the Bell numbers."""
    assert [touchard(n).eval(Fraction(1)) for n in range(len(BELL))] == BELL


@given(st.integers(min_value=0, max_value=8), points)
def test_touchard_binomial_recurrence(n, x):
    """T_{n+1}(x) = x sum_k binom(n,k) T_k(x)."""
    rhs = x * sum(math.comb(n, k) * touchard(k).eval(x) for k in range(n + 1))
    assert touchard(n + 1).eval(x) == rhs


@given(degrees)
def test_z_poly_coefficients_are_stirling_first(n):
    """Z_n carries signed first-kind Stirling numbers over the falling basis."""
    z = z_poly(n)
    assert z.basis is Basis.FALLING
    assert all(z.coeff(k) == stirling_first_signed(n, k) for k in range(n + 1))


def test_z_poly_small_values():
    assert z_poly(0).coeffs == (1,)
    assert z_poly(2).coeffs == (0, -1, 1)
    assert z_poly(3).coeffs == (0, 2, -3, 1)


@given(st.integers(min_value=0, max_value=8), alphas)
def test_laguerre_closed_form(n, alpha):
    """L_n^(a)(x) = sum_k binom(n+a, n-k) (-x)^k / k!, coefficient by coefficient."""
    L = laguerre(n, alpha)
    assert L.basis is Basis.MONOMIAL
    for k in range(n + 1):
        want = binomial_general(n + alpha, n - k) * Fraction((-1) ** k, math.factorial(k))
        assert L.coeff(k) == want


@given(st.integers(min_value=1, max_value=8), alphas, points)
def test_laguerre_three_term_recurrence(n, alpha, x):
    """(n+1) L_{n+1} = (2n+1+a-x) L_n - (n+a) L_{n-1}."""
    lhs = (n + 1) * laguerre(n + 1, alpha).eval(x)
    rhs = (2 * n + 1 + alpha - x) * laguerre(n, alpha).eval(x) - (n + alpha) * laguerre(n - 1, alpha).eval(x)
    assert lhs == rhs


def test_laguerre_known_row():
    assert laguerre(0, 0).coeffs == (1,)
    assert laguerre(1, Fraction(1, 2)).coeffs == (Fraction(3, 2), -1)
    assert laguerre(2, Fraction(1, 2)).coeffs == (Fraction(15, 8), Fraction(-5, 2), Fraction(1, 2))


@given(st.integers(min_value=0, max_value=6), points,
       st.fractions(min_value=Fraction(1, 4), max_value=4, max_denominator=4))
def test_charlier_2f0_series(n, x, a):
    """c_n(x,a) = sum_k (-n)^(k) (-x)^(k) / k! (-1/a)^k, the 2F0 form."""
    want = sum(
        rising_factorial(Fraction(-n), k) * rising_factorial(-x, k)
        / math.factorial(k) * (Fraction(-1) / a) ** k
        for k in range(n + 1)
    )
    assert charlier(n, x, a) == want


@given(st.integers(min_value=0, max_value=7), st.integers(min_value=0, max_value=7),
       st.fractions(min_value=Fraction(1, 2), max_value=3, max_denominator=2))
def test_charlier_duality(n, x, a):
    """c_n(x,a) = c_x(n,a) at nonnegative integer arguments."""
    assert charlier(n, Fraction(x), a) == charlier(x, Fraction(n), a)


def test_charlier_known_values():
    assert charlier(0, Fraction(5), Fraction(2)) == 1
    assert charlier(1, Fraction(3), Fraction(1)) == 1 - 3  # 1 - x/a
    assert charlier(2, Fraction(3), Fraction(1)) == 1


@given(st.integers(min_value=0, max_value=12), st.floats(min_value=-9, max_value=9),
       st.fractions(min_value=Fraction(1, 4), max_value=4, max_denominator=4),
       st.sampled_from(["x", "a", "both"]))
def test_charlier_float_rounds_the_exact_value_once(n, x, a, which):
    """With x or a a float, c_n(x, a) is the exact value at their dyadic values,
    rounded once."""
    fx, fa = {"x": (x, a), "a": (Fraction(x), float(a)), "both": (x, float(a))}[which]
    got = charlier(n, fx, fa)
    assert type(got) is float
    assert got.hex() == float(charlier(n, Fraction(fx), Fraction(fa))).hex()


@pytest.mark.parametrize("x, a", [(math.nan, 1), (math.inf, 1), (2, -math.inf), (2, math.nan)])
def test_charlier_refuses_a_non_finite_argument(x, a):
    with pytest.raises(ValueError, match="^charlier needs a finite argument"):
        charlier(3, x, a)


@settings(deadline=None)
@given(st.integers(min_value=0, max_value=4), st.integers(min_value=0, max_value=4))
def test_charlier_orthogonality(n, m):
    """Poisson-weighted sums: e a^{-n} n! on the diagonal, ~0 off it."""
    s = charlier_orthogonality_sum(n, m, 1.0, 60)
    want = math.e * math.factorial(n) if n == m else 0.0
    assert abs(s - want) < 1e-8


@pytest.mark.parametrize("a", [0.0, -1.0, math.nan, math.inf])
def test_charlier_orthogonality_sum_rejects_weight(a):
    """The Poisson weight a^k/k! needs a finite, positive a."""
    with pytest.raises(ValueError, match="finite and positive"):
        charlier_orthogonality_sum(1, 1, a, 5)


def test_negative_degree_rejected():
    for fn in (touchard, z_poly):
        with pytest.raises(ValueError):
            fn(-1)
    with pytest.raises(ValueError):
        laguerre(-2, 0)
    with pytest.raises(ValueError):
        charlier(-1, Fraction(1), Fraction(1))


def test_charlier_orthogonality_sum_past_the_float_range_overflows():
    """A sum past the float range raises OverflowError naming the function, as
    the float results of the exact families do, instead of returning inf: at
    a = 1e308 the weight a^k/k! overflows at k = 2; at a = 1e-300 eval does."""
    with pytest.raises(OverflowError, match="^charlier_orthogonality_sum: "):
        charlier_orthogonality_sum(2, 2, 1e308, 10)
    with pytest.raises(OverflowError):
        charlier_orthogonality_sum(2, 2, 1e-300, 10)
