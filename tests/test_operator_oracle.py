"""Operators against a sympy oracle that shares nothing with ftcalc's tables.

Each shift-invariant operator is rebuilt from sympy.series of its generating
function in t and applied to p(x) either through derivatives (t = d) or
through forward differences f(x+i) (t = Delta). The backward difference goes
through derivatives as 1 - e^{-d}. scale_op is the one operator that is not
shift-invariant; its oracle is the defining sum
sum_k (a-1)^k / k! (x)_k nabla^k. The inverses are the reciprocal series
followed by an integral from 0 or a sum from 0, so the zero-at-origin
normalization is checked too. Products in the factorial bases are compared
with the expansion of the product of sympy's ff/rf expansions. Every
comparison is exact.
"""

from fractions import Fraction
from functools import lru_cache
from random import Random

import pytest
import sympy as sp

from ftcalc.polynomial import (
    Basis,
    apply_operator,
    backward_difference,
    binom_shift,
    convert_basis,
    derivative,
    exp_shift,
    expdiff_minus1,
    expdiff_minus1_inverse,
    forward_difference,
    log1p_derivative,
    log1p_derivative_inverse,
    multiply,
    poly,
    scale_op,
    shift,
    shift_op,
)

x, t = sp.symbols("x t")
BASES = (Basis.MONOMIAL, Basis.FALLING, Basis.RISING)
MAX_DEGREE = 5
PARAMS = (Fraction(0), Fraction(-1), Fraction(5, 3), Fraction(-7, 2))


def _rational(c: Fraction):
    return sp.Rational(c.numerator, c.denominator)


@lru_cache(maxsize=None)
def element(basis: Basis, n: int):
    """The n-th basis element as an expanded sympy polynomial in x, via
    sympy's own factorials."""
    return sp.expand({Basis.MONOMIAL: lambda: x ** n,
                      Basis.FALLING: lambda: sp.expand_func(sp.ff(x, n)),
                      Basis.RISING: lambda: sp.expand_func(sp.rf(x, n))}[basis]())


def to_expr(p):
    """p as an expanded sympy polynomial in x."""
    return sp.expand(sum((_rational(c) * element(p.basis, n) for n, c in enumerate(p.coeffs)),
                         sp.Integer(0)))


@lru_cache(maxsize=None)
def taylor(gf, order: int = MAX_DEGREE) -> tuple:
    """The Taylor coefficients of gf(t) up to t^order from sympy.series."""
    s = sp.expand(sp.series(sp.expand(gf), t, 0, order + 1).removeO())
    return tuple(s.coeff(t, m) for m in range(order + 1))


def weights(gf, f) -> tuple:
    """The Taylor coefficients of gf(t) that act on f: t^m for m <= deg f."""
    if f == 0:
        return ()
    degree = sp.degree(f, x)
    return taylor(gf, max(degree, MAX_DEGREE))[:degree + 1]


def through_diff(gf, f):
    """gf(d) f: the series in t with t^m read as the m-th derivative."""
    return sp.expand(sum((w * sp.diff(f, x, m) for m, w in enumerate(weights(gf, f)) if w),
                         sp.Integer(0)))


def through_delta(gf, f):
    """gf(Delta) f: the series in t with t^m read as Delta^m f, each
    difference f(x+1) - f(x) taken by substitution."""
    out, diff = sp.Integer(0), f
    for w in weights(gf, f):
        out += w * diff
        diff = sp.expand(diff.subs(x, x + 1) - diff)
    return sp.expand(out)


def scale_oracle(a, f):
    """a^{x nabla} f = sum_k (a-1)^k / k! (x)_k nabla^k f."""
    n = sp.degree(f, x) + 1 if f != 0 else 0
    out, cur = sp.Integer(0), f
    for k in range(n):
        out += (a - 1) ** k / sp.factorial(k) * sp.expand_func(sp.ff(x, k)) * cur
        cur = sp.expand(cur - cur.subs(x, x - 1))
    return sp.expand(out)


def samples():
    """Seeded random rational polynomials of degree -1..MAX_DEGREE in every basis."""
    rng = Random(7)
    for degree in range(-1, MAX_DEGREE + 1):
        for basis in BASES:
            coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(degree + 1)]
            yield poly(basis, coeffs)


def assert_matches(got, p, want):
    assert got.basis is p.basis
    assert sp.expand(to_expr(got) - want) == 0, (p, got)


POWERS = [
    (derivative, lambda k: t ** k, through_diff),
    (forward_difference, lambda k: t ** k, through_delta),
    (backward_difference, lambda k: (1 - sp.exp(-t)) ** k, through_diff),
    (log1p_derivative, lambda k: sp.log(1 + t) ** k, through_diff),
    (expdiff_minus1, lambda k: (sp.exp(t) - 1) ** k, through_delta),
]


@pytest.mark.parametrize("factory,gf,route", POWERS, ids=[f.__name__ for f, _, _ in POWERS])
def test_power_kinds_match_series_oracle(factory, gf, route):
    for p in samples():
        f = to_expr(p)
        for k in range(4):
            assert_matches(apply_operator(factory(k), p), p, route(sp.S(gf(k)), f))


# Delta and nabla on x^n and e^Delta - 1 on (x)_n are a shift less the input
# at k = 1 and run on the binomial kernel from k = 2; every other basis
# translates their weights
DIFFERENCE_ROWS = POWERS[1:3] + POWERS[4:]


@pytest.mark.parametrize("factory,gf,route", DIFFERENCE_ROWS,
                         ids=[f.__name__ for f, _, _ in DIFFERENCE_ROWS])
def test_difference_rows_match_series_oracle_to_degree_12(factory, gf, route):
    rng = Random(12)
    for degree in (6, 9, 12):
        for basis in BASES:
            p = poly(basis, [Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                             for _ in range(degree)] + [Fraction(-2, 3)])
            f = to_expr(p)
            for k in (1, 2):
                assert_matches(apply_operator(factory(k), p), p, route(sp.S(gf(k)), f))


PARAMETERS = [
    (shift_op, lambda a: sp.exp(a * t), through_diff),
    (binom_shift, lambda a: (1 + t) ** a, through_diff),
    (exp_shift, lambda a: sp.exp(a * t), through_delta),
]


@pytest.mark.parametrize("factory,gf,route", PARAMETERS,
                         ids=[f.__name__ for f, _, _ in PARAMETERS])
def test_parameter_kinds_match_series_oracle(factory, gf, route):
    for p in samples():
        f = to_expr(p)
        for a in PARAMS:
            assert_matches(apply_operator(factory(a), p), p, route(gf(_rational(a)), f))


def test_shift_matches_substitution():
    for p in samples():
        for a in PARAMS:
            assert_matches(shift(p, a), p, sp.expand(to_expr(p).subs(x, x + _rational(a))))


def test_scale_op_matches_defining_sum():
    for p in samples():
        f = to_expr(p)
        for a in PARAMS:
            assert_matches(apply_operator(scale_op(a), p), p, scale_oracle(_rational(a), f))


def test_log1p_inverse_matches_series_oracle():
    """t/log(1+t) through derivatives, then the integral from 0."""
    for p in samples():
        r = through_diff(t / sp.log(1 + t), to_expr(p))
        assert_matches(log1p_derivative_inverse(p), p, sp.expand(sp.integrate(r, (x, 0, x))))


def test_expdiff_inverse_matches_series_oracle():
    """t/(e^t - 1) through differences, then the sum over 0..x-1, which is
    the polynomial interpolating its values at x = 0..deg+1."""
    for p in samples():
        r = through_delta(t / (sp.exp(t) - 1), to_expr(p))
        sums = [sp.Integer(0)]
        for n in range(p.degree + 2):
            sums.append(sums[-1] + r.subs(x, n))
        want = sp.expand(sp.interpolate(list(enumerate(sums)), x))
        assert_matches(expdiff_minus1_inverse(p), p, want)


def test_falling_rising_conversion_matches_sympy():
    """Falling <-> rising skips the monomial basis (Lah numbers), so compare
    both directions with sympy's own factorial expansions."""
    rng = Random(4)
    for degree in range(13):
        for source, target in ((Basis.FALLING, Basis.RISING), (Basis.RISING, Basis.FALLING)):
            p = poly(source, [Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                              for _ in range(degree)] + [Fraction(1, 3)])
            q = convert_basis(p, target)
            assert q.basis is target
            assert to_expr(q) == to_expr(p)


def test_factorial_products_match_sympy():
    """Falling and rising products against the expansion of the product of
    sympy's own ff/rf expansions, for factors of degree up to 12, a third
    of their coefficients zero."""
    rng = Random(5)

    def draw(basis, degree):
        return poly(basis, [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) * (rng.random() > 1 / 3)
                            for _ in range(degree)] + [Fraction(rng.choice((-5, 7)), 3)])

    for basis in (Basis.FALLING, Basis.RISING):
        for dp in range(13):
            for dq in sorted({dp, 12 - dp}):
                p, q = draw(basis, dp), draw(basis, dq)
                assert_matches(multiply(p, q), p, sp.expand(to_expr(p) * to_expr(q)))
