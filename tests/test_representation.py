"""The stored form of BasisPolynomial: integer numerators over one denominator.

Every public exact operation returns the canonical vector (den > 0,
gcd(den, *nums) = 1, no trailing zero), so equal polynomials compare and
hash equal however they were built. The Fraction view, repr, pickling,
copying and immutability behave as for a frozen dataclass of Fractions.
"""

import copy
import dataclasses
import math
import pickle
import re
from decimal import Decimal
from fractions import Fraction

import mpmath as mp

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ftcalc import polynomial as P
from ftcalc import special_polynomials as S
from ftcalc import transforms_exact as T
from ftcalc import transforms_numeric as N
from ftcalc.polynomial import Basis, BasisPolynomial, convert_basis, poly

coeff_lists = st.lists(
    st.fractions(min_value=-9, max_value=9, max_denominator=9), min_size=0, max_size=8
)
int_lists = st.lists(st.integers(min_value=-50, max_value=50), min_size=0, max_size=8)
bases = st.sampled_from(list(Basis))
params = st.fractions(min_value=-5, max_value=5, max_denominator=7)


def assert_canonical(p):
    assert isinstance(p, BasisPolynomial)
    assert type(p.den) is int and p.den > 0
    assert all(type(a) is int for a in p.nums)
    assert math.gcd(p.den, *p.nums) == 1
    assert not p.nums or p.nums[-1] != 0
    assert p.coeffs == tuple(Fraction(a, p.den) for a in p.nums)


def _exact_ops(p, q, a):
    """Every public exact operation that returns a polynomial, on p, q and a."""
    yield from (convert_basis(p, b) for b in Basis)
    yield P.negate_argument(p)
    yield P.shift(p, a)
    yield P.scale_argument(p, a)
    yield P.multiply(p, convert_basis(q, p.basis))
    for kind in P.OperatorKind:
        if kind in P._POWER_KINDS:
            yield from (P.apply_operator(P.OperatorExpr(kind, k=k), p) for k in (0, 1, 3))
        else:
            yield P.apply_operator(P.OperatorExpr(kind, a=a), p)
    yield P.antiderivative(p)
    yield P.indefinite_sum(p)
    yield P.log1p_derivative_inverse(p)
    yield P.expdiff_minus1_inverse(p)
    yield p + convert_basis(q, p.basis)
    yield p - p
    yield p.scale(a)
    yield from (f(p) for f in (T.fft_poly, T.ifft_poly, T.rft_poly, T.irft_poly))
    yield T.hadamard_ifft(p, q)
    yield T.newton_from_samples(p, max(p.degree, 0))
    yield T.newton_from_samples(lambda n: a ** n, 4)


@given(coeff_lists, coeff_lists, bases, params)
def test_every_exact_op_returns_a_canonical_vector(c1, c2, basis, a):
    p, q = poly(basis, c1), poly(Basis.MONOMIAL, c2)
    assert_canonical(p)
    for r in _exact_ops(p, q, a):
        assert_canonical(r)


@given(st.integers(min_value=0, max_value=12), params)
def test_special_polynomials_are_canonical(n, alpha):
    for r in (S.touchard(n), S.z_poly(n), S.laguerre(n, alpha), P.falling_unit(n)):
        assert_canonical(r)


@given(int_lists, bases, params)
def test_fractions_ints_and_kernels_build_equal_polynomials(ints, basis, a):
    """One polynomial built from ints, from Fractions, from floats, from
    strings and by kernels: equal, equal hashes, equal vectors."""
    routes = [
        poly(basis, ints),
        poly(basis, [Fraction(c) for c in ints]),
        poly(basis, [float(c) for c in ints] + [0.0, Fraction(0)]),
        poly(basis, [str(c) for c in ints]),
        poly(basis, ints).scale(a or 1).scale(1 / Fraction(a or 1)),
        P.shift(P.shift(poly(basis, ints), a), -a),
        convert_basis(convert_basis(poly(basis, ints), Basis.RISING), basis),
        poly(basis, ints) + poly(basis, []),
    ]
    first = routes[0]
    for r in routes:
        assert r == first
        assert hash(r) == hash(first)
        assert (r.basis, r.nums, r.den, r.coeffs) == (first.basis, first.nums, first.den,
                                                       first.coeffs)


@given(coeff_lists, bases)
def test_pickle_and_copies_round_trip(coeffs, basis):
    p = poly(basis, coeffs)
    for read_first in (False, True):
        if read_first:
            p.coeffs  # noqa: B018 - fills the cached Fraction view
        for r in (pickle.loads(pickle.dumps(p)), copy.copy(p), copy.deepcopy(p)):
            assert type(r) is BasisPolynomial
            assert r == p and hash(r) == hash(p)
            assert r.coeffs == p.coeffs and r.degree == p.degree
            assert_canonical(r)


@given(coeff_lists, bases)
def test_repr_is_the_dataclass_repr_of_the_fractions(coeffs, basis):
    p = poly(basis, coeffs)
    assert repr(p) == f"BasisPolynomial(basis={p.basis!r}, coeffs={p.coeffs!r})"


def test_repr_literal():
    assert repr(poly("monomial", [Fraction(1, 2), 3, 0])) == (
        "BasisPolynomial(basis=<Basis.MONOMIAL: 'monomial'>, "
        "coeffs=(Fraction(1, 2), Fraction(3, 1)))")
    assert repr(poly("falling", [])) == (
        "BasisPolynomial(basis=<Basis.FALLING: 'falling'>, coeffs=())")


@pytest.mark.parametrize("name", ["basis", "coeffs", "nums", "den", "other"])
def test_assigning_an_attribute_raises(name):
    p = poly("rising", [1, Fraction(2, 3)])
    p.coeffs  # noqa: B018
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(p, name, ())
    assert p == poly("rising", [1, Fraction(2, 3)])


@given(coeff_lists, bases, st.floats(min_value=-8, max_value=8))
def test_float_eval_rounds_the_exact_value_once(coeffs, basis, x):
    """eval at a float is the exact value at its dyadic value, rounded once."""
    p = poly(basis, coeffs)
    assert p.eval(x).hex() == float(p.eval(Fraction(x))).hex()


@pytest.mark.parametrize("basis", [Basis.FALLING, Basis.RISING])
@pytest.mark.parametrize("d", [20, 40])
@pytest.mark.parametrize("x", [0.5, 3.3, -2.7])
def test_float_eval_of_a_power_in_a_factorial_basis(basis, d, x):
    """x^d in a factorial basis has large alternating Stirling-weighted terms;
    a float sum of them can lose every digit, the exact value rounds correctly."""
    p = convert_basis(poly("monomial", [0] * d + [1]), basis)
    assert p.eval(x).hex() == float(Fraction(x) ** d).hex()


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
def test_eval_refuses_a_non_finite_argument(x):
    with pytest.raises(ValueError, match=f"^eval needs a finite argument, got {x!r}$"):
        poly("falling", [1, 2]).eval(x)


_P = poly("monomial", [1, Fraction(-2, 3), 5])


def _source(read):
    """read's call on a sequence source that is x at n = 1."""
    return lambda x: read(lambda n: x if n == 1 else n + 1)


# public entry point -> (the name its error gives, its call on one scalar);
# binomial_transform reads its source through binomial_convolution
_SCALAR_READERS = {
    "BasisPolynomial": ("BasisPolynomial", lambda x: BasisPolynomial("falling", [1, x])),
    "poly": ("BasisPolynomial", lambda x: poly("rising", [x, 2])),
    "monomial": ("BasisPolynomial", lambda x: P.monomial([0, x])),
    "scale": ("scale", lambda x: _P.scale(x)),
    "shift": ("shift", lambda x: P.shift(_P, x)),
    "scale_argument": ("scale_argument", lambda x: P.scale_argument(_P, x)),
    "OperatorExpr": ("exp_shift", lambda x: P.OperatorExpr("exp_shift", a=x)),
    "shift_op": ("shift", P.shift_op),
    "binom_shift": ("binom_shift", P.binom_shift),
    "exp_shift": ("exp_shift", P.exp_shift),
    "scale_op": ("scale_op", P.scale_op),
    "laguerre": ("laguerre", lambda x: S.laguerre(3, x)),
    "binomial_transform": ("binomial_convolution",
                           _source(lambda f: T.binomial_transform(f, 3))),
    "binomial_convolution": ("binomial_convolution",
                             _source(lambda f: T.binomial_convolution(lambda n: 1, f, 3))),
    "egf_product_coeffs": ("egf_product_coeffs",
                           _source(lambda f: T.egf_product_coeffs(f, lambda n: 1, 3))),
    "coefficient_extract": ("coefficient_extract",
                            _source(lambda f: T.coefficient_extract(f, 3))),
    "newton_from_samples": ("newton_from_samples",
                            _source(lambda f: T.newton_from_samples(f, 3))),
}

@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf], ids=str)
@pytest.mark.parametrize("entry", sorted(_SCALAR_READERS))
def test_every_scalar_reader_refuses_a_non_finite_value(entry, x):
    """Every public entry point that reads a caller's scalar reads it through
    the one reader, which raises ValueError naming the function for NaN and
    +-inf, never the OverflowError of Fraction's own conversion."""
    name, call = _SCALAR_READERS[entry]
    with pytest.raises(ValueError, match=f"^{name} needs a finite argument, got {x!r}$"):
        call(x)


@pytest.mark.parametrize("x", ["abc", "1/0"])
@pytest.mark.parametrize("entry", sorted(_SCALAR_READERS) + ["eval"])
def test_every_scalar_reader_refuses_a_non_number(entry, x):
    """A value that does not parse as a number, a zero denominator included,
    is refused as not a number, neither as a non-finite one nor by a raw
    ZeroDivisionError."""
    name, call = _SCALAR_READERS.get(entry, ("eval", poly("falling", [1]).eval))
    with pytest.raises(ValueError, match=f"^{name} needs a number, got {x!r}$"):
        call(x)


@pytest.mark.parametrize("x", [0.1, -2.75, 1e-5, 3.0], ids=str)
@pytest.mark.parametrize("entry", sorted(_SCALAR_READERS))
def test_a_float_scalar_reads_as_its_dyadic_fraction(entry, x):
    """A float gives the same result as the Fraction of its exact value."""
    _, call = _SCALAR_READERS[entry]
    assert call(x) == call(Fraction(x))


_EXP_HALF = N.NamedSource("exp(1/2)")


def _exp_half_mp(t):
    """e^(t/2) at tanh_sinh's mpmath nodes."""
    return mp.exp(t / 2)


# numeric entry point -> (the name its error gives, its call on one scalar)
_NUMERIC_READERS = {
    "fft_fn": ("fft_fn Newton sum", lambda x: N.fft_fn(_EXP_HALF.taylor(), x)),
    "ifft_fn": ("ifft_fn EGF series", lambda x: N.ifft_fn(_EXP_HALF.samples(), x)),
    "irft_fn": ("irft_fn EGF series", lambda x: N.irft_fn(_EXP_HALF.callable(), x)),
    "rft_fn gauss_laguerre": ("rft_fn", lambda x: N.rft_fn(_EXP_HALF.callable(), x)),
    "rft_fn tanh_sinh": ("rft_fn", lambda x: N.rft_fn(_exp_half_mp, x, "tanh_sinh")),
    "fractional_derivative order": ("fractional_derivative", lambda x: N.fractional_derivative(
        _EXP_HALF.taylor(), x)),
    "fractional_derivative t": ("fractional_derivative", lambda x: N.fractional_derivative(
        _EXP_HALF.taylor(), 0.5, x)),
    "fractional_difference order": ("fractional_difference", lambda x: N.fractional_difference(
        _EXP_HALF.callable(), x)),
    "fractional_difference t": ("fractional_difference", lambda x: N.fractional_difference(
        _EXP_HALF.callable(), 0.5, x)),
    "gamma_support": ("gamma_support", N.gamma_support),
    "incomplete_gamma_upper": ("incomplete_gamma_upper",
                               lambda x: N.incomplete_gamma_upper(3, x)),
    "zeta_formal_series": ("zeta_formal_series", lambda x: N.zeta_formal_series(x, 8)),
}


# operator parameters whose a = None is the parameter left out
_OPTIONAL_PARAMETERS = {"OperatorExpr", "binom_shift", "exp_shift", "scale_op", "shift", "shift_op"}


@pytest.mark.parametrize("x", [1j, None], ids=repr)
@pytest.mark.parametrize("entry", sorted(_SCALAR_READERS) + ["eval"] + sorted(_NUMERIC_READERS))
def test_every_scalar_reader_refuses_a_complex_or_none(entry, x):
    """A complex or None is refused by the reader as not a number, never by
    a raw TypeError from Fraction() or float(); an operator's a = None is
    refused as left out."""
    name, call = {**_SCALAR_READERS, **_NUMERIC_READERS}.get(
        entry, ("eval", poly("falling", [1]).eval))
    why = ("requires parameter a" if x is None and entry in _OPTIONAL_PARAMETERS
           else f"needs a number, got {x!r}")
    with pytest.raises(ValueError, match=f"^{name} {why}$"):
        call(x)


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf], ids=str)
@pytest.mark.parametrize("entry", sorted(_NUMERIC_READERS))
def test_every_numeric_reader_refuses_a_non_finite_value(entry, x):
    name, call = _NUMERIC_READERS[entry]
    with pytest.raises(ValueError, match=f"^{name} needs a finite argument, got {x!r}$"):
        call(x)


_PAST_FLOAT_RANGE = {"1e400": 10 ** 400, "-1e400": -10 ** 400, "2^1100": 2 ** 1100,
                     "-2^1100": -2 ** 1100}
_FLOAT_ZERO_OR_INF = {"1e-400": Fraction(1, 10 ** 400), "1e400": 10 ** 400, "2^1100": 2 ** 1100}


def _charlier_sum(a):
    return S.charlier_orthogonality_sum(2, 1, a, 20)


@pytest.mark.parametrize("call,x,refusal", [
    *[pytest.param(_NUMERIC_READERS[f"{name} order"][1], x,
                   f"^{name} needs an order within the float range, got {x}$", id=f"{name}-{xid}")
      for name in ("fractional_derivative", "fractional_difference")
      for xid, x in _PAST_FLOAT_RANGE.items()],
    *[pytest.param(_charlier_sum, x, re.escape(f"weight parameter a must be finite and positive, "
                                               f"got {x!r}"), id=f"charlier_orthogonality_sum-{xid}")
      for xid, x in _FLOAT_ZERO_OR_INF.items()],
    pytest.param(_NUMERIC_READERS["zeta_formal_series"][1], 1 + Fraction(1, 10 ** 30), None,
                 id="zeta_formal_series-1+1e-30"),
])
def test_a_value_whose_float_is_zero_or_out_of_range_leaks_no_raw_error(call, x, refusal):
    """An order past the float range is refused by name, not by a raw
    OverflowError from its float; so is a Poisson weight whose float is 0
    or inf. The zeta series forms its pole term -1/(s-1) exactly and rounds
    it once, so s = 1 + 10^-30, whose float is 1, returns."""
    if refusal is None:
        value, terms = call(x)
        assert value == -1e30 + math.fsum(terms)
    else:
        with pytest.raises(ValueError, match=refusal):
            call(x)


def _bits(r):
    """A float result and its error estimate as float.hex, or a list of them
    for zeta_formal_series' (sum, terms)."""
    if isinstance(r, float):
        return float(r).hex(), getattr(r, "error_estimate", 0.0).hex()
    return [_bits(x) for x in r]


@pytest.mark.parametrize("x", [Decimal("0.25"), "1/2", "2.5", Decimal("1.5"), " 7/4 "], ids=repr)
@pytest.mark.parametrize("entry", sorted(_NUMERIC_READERS))
def test_a_decimal_or_string_scalar_reads_as_its_fraction(entry, x):
    """A numeric entry point computes with the value it read: a Decimal or a
    string gives the bits, value and estimate, of its Fraction twin. The
    arguments lie below 1 and above 2, both sides of rft_fn's tests on s."""
    _, call = _NUMERIC_READERS[entry]
    assert _bits(call(x)) == _bits(call(Fraction(x.strip() if isinstance(x, str) else x)))


@pytest.mark.parametrize("value", [1j, None], ids=repr)
@pytest.mark.parametrize("name, call", [
    ("fft_fn Newton sum", lambda f: N.fft_fn(f, 0.5)),
    ("ifft_fn EGF series", lambda f: N.ifft_fn(f, 0.5)),
    ("irft_fn EGF series", lambda f: N.irft_fn(f, 0.5)),
    ("fractional_derivative", lambda f: N.fractional_derivative(f, 0.5)),
    ("fractional_difference", lambda f: N.fractional_difference(f, 0.5)),
], ids=lambda v: v if isinstance(v, str) else "")
def test_a_provider_value_that_is_not_a_number_names_the_input(name, call, value):
    """A provider's complex or None is refused by the reader, and the
    evaluator names the input in a NonConvergenceError."""
    with pytest.raises(N.NonConvergenceError,
                       match=f"^{name}: input 0 is {value!r}, not a finite number$"):
        call(lambda n: value)


def test_source_parameter_and_json_coefficient_are_read_by_the_reader():
    """The text of a named source's parameter and of a polynomial JSON
    coefficient goes through the one reader, whose error names the source
    or the constructor."""
    with pytest.raises(ValueError, match=r"^source 'exp\(abc\)' needs a number, got 'abc'$"):
        N.NamedSource("exp(abc)")
    with pytest.raises(ValueError, match="^BasisPolynomial needs a number, got 'abc'$"):
        BasisPolynomial.from_json({"basis": "monomial", "coeffs": ["1", "abc"]})
    assert BasisPolynomial.from_json({"basis": "monomial", "coeffs": ["-1/2", "0.25", "3e-2"]}) \
        == poly("monomial", [Fraction(-1, 2), Fraction(1, 4), Fraction(3, 100)])


@pytest.mark.parametrize("x", [Decimal("0.25"), "1/2", "2.5"], ids=repr)
def test_charlier_orthogonality_sum_reads_its_weight(x):
    """The Poisson weight is read once: a Decimal or a string gives the bits
    of its Fraction twin, and a value that is not a number is refused with
    the weight's own text."""
    twin = Fraction(x)
    assert (S.charlier_orthogonality_sum(2, 1, x, 20).hex()
            == S.charlier_orthogonality_sum(2, 1, twin, 20).hex())
    for bad in (1j, None, "abc"):
        with pytest.raises(ValueError, match=f"^weight parameter a must be finite and positive, "
                                             f"got {bad!r}$"):
            S.charlier_orthogonality_sum(2, 1, bad, 20)
