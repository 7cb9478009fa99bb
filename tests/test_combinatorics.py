"""Unit and property tests for the combinatorics layer.

Oracles are the defining recurrences plus a handful of table values; the
Stirling/Bernoulli cross-checks use independent summation identities rather
than the implementation's own recursions. The tables are also compared
with sympy.functions.combinatorial, which shares no code with ftcalc.
"""

import math
from fractions import Fraction

import pytest
import sympy as sp
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from sympy.functions.combinatorial import factorials as sp_factorials
from sympy.functions.combinatorial import numbers as sp_numbers

from ftcalc.combinatorics import (
    bernoulli,
    binomial_general,
    falling_factorial,
    rising_factorial,
    stirling_first_signed,
    stirling_first_unsigned,
    stirling_second,
)
from ftcalc.polynomial import Basis, convert_basis, poly

rationals = st.fractions(min_value=-20, max_value=20, max_denominator=12)
small_n = st.integers(min_value=0, max_value=12)


def test_falling_factorial_known_values():
    assert falling_factorial(5, 0) == 1
    assert falling_factorial(5, 2) == 20
    assert falling_factorial(5, 5) == 120
    assert falling_factorial(5, 6) == 0
    assert falling_factorial(Fraction(1, 2), 2) == Fraction(-1, 4)


def test_rising_factorial_known_values():
    assert rising_factorial(3, 0) == 1
    assert rising_factorial(3, 3) == 60
    assert rising_factorial(Fraction(1, 2), 2) == Fraction(3, 4)
    assert rising_factorial(1, 5) == math.factorial(5)


@given(rationals, small_n)
def test_falling_factorial_recurrence(x, n):
    """(x)_{n+1} = (x)_n * (x - n)."""
    assert falling_factorial(x, n + 1) == falling_factorial(x, n) * (x - n)


@given(rationals, small_n)
def test_rising_factorial_recurrence(x, n):
    """x^{(n+1)} = x^{(n)} * (x + n)."""
    assert rising_factorial(x, n + 1) == rising_factorial(x, n) * (x + n)


@given(rationals, small_n)
def test_rising_is_reflected_falling(x, n):
    """x^{(n)} = (-1)^n (-x)_n."""
    assert rising_factorial(x, n) == (-1) ** n * falling_factorial(-x, n)


@given(rationals, small_n)
def test_binomial_general_pascal(x, n):
    """binom(x, n+1) satisfies the Pascal recurrence at rational arguments."""
    lhs = binomial_general(x, n + 1)
    assert lhs == binomial_general(x - 1, n) + binomial_general(x - 1, n + 1)


@given(st.integers(min_value=0, max_value=30), st.integers(min_value=0, max_value=30))
def test_binomial_general_matches_comb(m, n):
    assert binomial_general(m, n) == math.comb(m, n)


@given(rationals, small_n)
def test_binomial_general_is_falling_over_factorial(x, n):
    assert binomial_general(x, n) == falling_factorial(x, n) / math.factorial(n)


@given(st.sampled_from([binomial_general, falling_factorial, rising_factorial]),
       st.floats(min_value=-40, max_value=40), st.integers(min_value=-12, max_value=40))
def test_binomial_general_rounds_the_exact_value_once(fn, x, n):
    """At a float, binom(x, n), (x)_n and x^(rising n) are the exact value at
    x's dyadic value, rounded once; a vanishing factor of a negative-index
    factorial raises as it does at the exact value."""
    assume(n >= 0 or fn is not binomial_general)
    try:
        exact = fn(Fraction(x), n)
    except ZeroDivisionError:
        with pytest.raises(ZeroDivisionError, match="vanishing factor"):
            fn(x, n)
        return
    v = fn(x, n)
    assert type(v) is float
    assert v.hex() == float(exact).hex()


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
def test_binomial_general_refuses_a_non_finite_argument(x):
    for fn in (binomial_general, falling_factorial, rising_factorial):
        with pytest.raises(ValueError, match=f"^{fn.__name__} needs a finite argument"):
            fn(x, 3)


@pytest.mark.parametrize("fn,x", [(falling_factorial, -1e300), (rising_factorial, 1e300),
                                  (falling_factorial, 400.5)])
def test_float_factorial_past_the_float_range_overflows(fn, x):
    """A float factorial whose exact value leaves the float range raises
    OverflowError, as BasisPolynomial.eval does, instead of returning inf."""
    with pytest.raises(OverflowError):
        fn(x, 300)


def test_stirling_second_table():
    # rows n = 0..4 of S(n, k)
    assert [stirling_second(4, k) for k in range(5)] == [0, 1, 7, 6, 1]
    assert stirling_second(0, 0) == 1
    assert stirling_second(3, 0) == 0
    assert stirling_second(6, 6) == 1


def test_stirling_first_table():
    assert [stirling_first_unsigned(4, k) for k in range(5)] == [0, 6, 11, 6, 1]
    assert stirling_first_signed(4, 2) == 11
    assert stirling_first_signed(4, 3) == -6
    assert stirling_first_signed(0, 0) == 1


@given(st.integers(min_value=0, max_value=10), st.integers(min_value=0, max_value=10))
def test_stirling_second_recurrence(n, k):
    """S(n+1, k+1) = (k+1) S(n, k+1) + S(n, k)."""
    assert stirling_second(n + 1, k + 1) == (k + 1) * stirling_second(n, k + 1) + stirling_second(n, k)


@given(st.integers(min_value=0, max_value=10), st.integers(min_value=0, max_value=10))
def test_stirling_first_recurrence(n, k):
    """c(n+1, k+1) = n c(n, k+1) + c(n, k) for the unsigned first kind."""
    lhs = stirling_first_unsigned(n + 1, k + 1)
    assert lhs == n * stirling_first_unsigned(n, k + 1) + stirling_first_unsigned(n, k)


@given(st.integers(min_value=0, max_value=9), rationals)
def test_stirling_second_expands_powers(n, x):
    """x^n = sum_k S(n,k) (x)_k."""
    assert x ** n == sum(stirling_second(n, k) * falling_factorial(x, k) for k in range(n + 1))


@given(st.integers(min_value=0, max_value=9), rationals)
def test_stirling_first_expands_falling(n, x):
    """(x)_n = sum_k s(n,k) x^k with signed first-kind coefficients."""
    assert falling_factorial(x, n) == sum(stirling_first_signed(n, k) * x ** k for k in range(n + 1))


@given(st.integers(min_value=0, max_value=9), st.integers(min_value=0, max_value=9))
def test_stirling_orthogonality(n, m):
    """sum_k s(n,k) S(k,m) = [n == m]."""
    total = sum(stirling_first_signed(n, k) * stirling_second(k, m) for k in range(n + 1))
    assert total == (1 if n == m else 0)


def test_bernoulli_known_values():
    assert bernoulli(0) == 1
    assert bernoulli(1) == Fraction(-1, 2)
    assert bernoulli(2) == Fraction(1, 6)
    assert bernoulli(4) == Fraction(-1, 30)
    assert bernoulli(12) == Fraction(-691, 2730)


@given(st.integers(min_value=1, max_value=10))
def test_bernoulli_odd_vanish(k):
    assert bernoulli(2 * k + 1) == 0


@settings(deadline=None)
@given(st.integers(min_value=1, max_value=20))
def test_bernoulli_defining_recurrence(n):
    """sum_{k<=n} binom(n+1, k) B_k = 0 for n >= 1 (B_1 = -1/2 convention)."""
    total = sum(Fraction(math.comb(n + 1, k)) * bernoulli(k) for k in range(n + 1))
    assert total == 0


def test_negative_inputs_rejected():
    for fn in (stirling_second, stirling_first_unsigned, stirling_first_signed):
        try:
            fn(-1, 0)
        except ValueError:
            pass
        else:
            raise AssertionError("negative n should raise")
    try:
        bernoulli(-1)
    except ValueError:
        pass
    else:
        raise AssertionError("negative index should raise")


def _fraction(r) -> Fraction:
    return Fraction(int(r.p), int(r.q))


def test_stirling_tables_match_sympy():
    for n in range(61):
        for k in range(n + 1):
            assert stirling_first_signed(n, k) == sp_numbers.stirling(n, k, kind=1, signed=True)
            assert stirling_first_unsigned(n, k) == sp_numbers.stirling(n, k, kind=1)
            assert stirling_second(n, k) == sp_numbers.stirling(n, k, kind=2)


def test_bernoulli_matches_sympy():
    # sympy 1.14 uses B_1 = +1/2; ftcalc uses B_1 = -1/2
    for n in range(301):
        want = Fraction(-1, 2) if n == 1 else _fraction(sp_numbers.bernoulli(n))
        assert bernoulli(n) == want


@given(rationals, small_n)
def test_factorials_match_sympy(x, n):
    sx = sp.Rational(x.numerator, x.denominator)
    assert falling_factorial(x, n) == _fraction(sp_factorials.ff(sx, n))
    assert rising_factorial(x, n) == _fraction(sp_factorials.rf(sx, n))


def test_lah_rows_match_closed_form():
    """x^(rising n) = sum_k L(n,k) (x)_k with the Lah numbers L(n,k) =
    C(n-1,k-1) n!/k!, L(0,0) = 1 and L(n,0) = 0 for n > 0."""
    for n in range(61):
        want = [int(n == 0)] + [math.comb(n - 1, k - 1) * math.factorial(n) // math.factorial(k)
                                for k in range(1, n + 1)]
        unit = poly(Basis.RISING, [0] * n + [1])
        assert list(convert_basis(unit, Basis.FALLING).coeffs) == want
