"""Tests for basis polynomials and the finite-difference operator calculus.

Evaluation at random rational points is the main oracle: every structural
operation (conversion, product, shift, operator application) must commute
with eval. Everything here is exact Fraction arithmetic, so assertions are
equalities, never tolerances.
"""

import math
from fractions import Fraction
from random import Random

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ftcalc.combinatorics import (
    _integers,
    falling_factorial,
    stirling_first_signed,
    stirling_first_unsigned,
    stirling_second,
)
from ftcalc.polynomial import (
    Basis,
    BasisMismatchError,
    BasisPolynomial,
    OperatorExpr,
    OperatorKind,
    _HORNER_MIN,
    _KRONECKER_BYTES,
    _KRONECKER_MAX,
    _KRONECKER_MIN,
    _apply_weights,
    _convolve,
    _scaled_weights,
    _translate,
    antiderivative,
    apply_operator,
    backward_difference,
    binom_shift,
    convert_basis,
    derivative,
    exp_shift,
    expdiff_minus1,
    expdiff_minus1_inverse,
    falling_unit,
    forward_difference,
    indefinite_sum,
    log1p_derivative,
    log1p_derivative_inverse,
    monomial,
    multiply,
    negate_argument,
    poly,
    scale_argument,
    scale_op,
    shift,
    shift_op,
)

coeff_lists = st.lists(
    st.fractions(min_value=-9, max_value=9, max_denominator=9), min_size=0, max_size=8
)
bases = st.sampled_from([Basis.MONOMIAL, Basis.FALLING, Basis.RISING])
points = st.fractions(min_value=-6, max_value=6, max_denominator=8)


@given(coeff_lists, bases, bases, points)
def test_convert_basis_preserves_eval(coeffs, b1, b2, x):
    """Changing basis never changes the polynomial as a function."""
    p = poly(b1, coeffs)
    assert convert_basis(p, b2).eval(x) == p.eval(x)


@given(coeff_lists, bases, bases)
def test_convert_basis_roundtrip(coeffs, b1, b2):
    """Conversion there and back is the identity on coefficients."""
    p = poly(b1, coeffs)
    assert convert_basis(convert_basis(p, b2), b1) == p


@given(coeff_lists, bases)
def test_convert_to_own_basis_is_identity(coeffs, b):
    p = poly(b, coeffs)
    assert convert_basis(p, b) == p


def test_poly_accepts_basis_strings():
    p = poly("falling", [1, 2])
    assert p.basis is Basis.FALLING
    assert convert_basis(p, "monomial").basis is Basis.MONOMIAL
    with pytest.raises(ValueError):
        poly("hermite", [1])


def test_eval_semantics_per_basis():
    x = Fraction(7, 2)
    c = [Fraction(2), Fraction(-1), Fraction(3)]
    assert poly(Basis.MONOMIAL, c).eval(x) == 2 - x + 3 * x * x
    assert poly(Basis.FALLING, c).eval(x) == 2 - x + 3 * x * (x - 1)
    assert poly(Basis.RISING, c).eval(x) == 2 - x + 3 * x * (x + 1)


def _ref_eval(p, x):
    """The direct basis-product loop eval used before its integer Horner form."""
    x = Fraction(x)
    acc, basis_val = Fraction(0), Fraction(1)
    for n, c in enumerate(p.coeffs):
        if n > 0:
            if p.basis is Basis.MONOMIAL:
                basis_val = basis_val * x
            elif p.basis is Basis.FALLING:
                basis_val = basis_val * (x - (n - 1))
            else:
                basis_val = basis_val * (x + (n - 1))
        acc += c * basis_val
    return acc


@pytest.mark.parametrize("basis", list(Basis))
def test_eval_matches_reference_loop(basis):
    """Exact eval equals the direct loop, as a Fraction, at x = 0, negative
    integers (zeros of the rising basis) and non-integer rationals."""
    xs = [0, Fraction(0), -1, -4, Fraction(-17), 3, Fraction(7, 2), Fraction(-5, 3),
          Fraction(2, 9), Fraction(-1, 12)]
    for d in range(-1, 31):
        p = poly(basis, [Fraction((-1) ** n * (n % 5 + 1), n % 7 + 1) for n in range(d)]
                 + [Fraction(3, 8)] * (d >= 0))
        for x in xs:
            got = p.eval(x)
            assert type(got) is Fraction
            assert got == _ref_eval(p, x), (d, x)


def test_falling_unit_is_basis_element():
    p = falling_unit(3)
    assert p.basis is Basis.FALLING
    assert p.coeffs == (0, 0, 0, 1)
    assert p.eval(Fraction(5)) == falling_factorial(Fraction(5), 3)


def test_trailing_zeros_normalized():
    assert monomial([1, 2, 0, 0]) == monomial([1, 2])
    assert monomial([0, 0]).is_zero()
    assert monomial([]).degree == monomial([0]).degree


@given(coeff_lists, coeff_lists, points)
def test_add_sub_match_eval(a, b, x):
    p, q = monomial(a), monomial(b)
    assert (p + q).eval(x) == p.eval(x) + q.eval(x)
    assert (p - q).eval(x) == p.eval(x) - q.eval(x)


@given(coeff_lists, coeff_lists, bases, points)
def test_multiply_matches_eval(a, b, basis, x):
    """Products are computed within a basis and agree with pointwise product."""
    p, q = poly(basis, a), poly(basis, b)
    assert multiply(p, q).eval(x) == p.eval(x) * q.eval(x)
    assert multiply(p, q).basis is basis


def test_mixed_basis_operations_rejected():
    p = monomial([1, 1])
    q = poly(Basis.FALLING, [1, 1])
    with pytest.raises(BasisMismatchError):
        p + q
    with pytest.raises(BasisMismatchError):
        p - q
    with pytest.raises(BasisMismatchError):
        multiply(p, q)


@given(coeff_lists, bases, points, points)
def test_shift_matches_eval(coeffs, basis, a, x):
    """shift(p, a)(x) = p(x + a), staying in the basis of p."""
    p = poly(basis, coeffs)
    s = shift(p, a)
    assert s.basis is basis
    assert s.eval(x) == p.eval(x + a)


@given(coeff_lists, bases, points, points)
def test_scale_argument_matches_eval(coeffs, basis, a, x):
    p = poly(basis, coeffs)
    assert scale_argument(p, a).eval(x) == p.eval(a * x)


@given(coeff_lists, bases, points)
def test_negate_argument_matches_eval(coeffs, basis, x):
    p = poly(basis, coeffs)
    assert negate_argument(p).eval(x) == p.eval(-x)


def test_negate_argument_swaps_factorial_bases():
    assert negate_argument(poly(Basis.FALLING, [0, 1, 2])).basis is Basis.RISING
    assert negate_argument(poly(Basis.RISING, [0, 1, 2])).basis is Basis.FALLING
    assert negate_argument(monomial([1, 2])).basis is Basis.MONOMIAL


@given(coeff_lists, points)
def test_derivative_operator(coeffs, x):
    """d(p) agrees with the coefficient-level derivative of the monomial form."""
    p = monomial(coeffs)
    dp = apply_operator(derivative(), p)
    expected = monomial([(n + 1) * c for n, c in enumerate(coeffs[1:])])
    assert dp.eval(x) == expected.eval(x)


@given(coeff_lists, bases, points)
def test_forward_difference_operator(coeffs, basis, x):
    """D(p)(x) = p(x+1) - p(x) in any basis."""
    p = poly(basis, coeffs)
    dp = apply_operator(forward_difference(), p)
    assert dp.basis is basis
    assert dp.eval(x) == p.eval(x + 1) - p.eval(x)


@given(coeff_lists, points)
def test_backward_difference_operator(coeffs, x):
    p = monomial(coeffs)
    assert apply_operator(backward_difference(), p).eval(x) == p.eval(x) - p.eval(x - 1)


@given(coeff_lists, bases, st.integers(min_value=0, max_value=3),
       st.sampled_from([derivative, forward_difference, backward_difference,
                        log1p_derivative, expdiff_minus1]))
def test_operator_powers_iterate(coeffs, basis, k, factory):
    """The k-th power of every power kind equals k single applications."""
    p = poly(basis, coeffs)
    q = p
    for _ in range(k):
        q = apply_operator(factory(), q)
    assert apply_operator(factory(k), p) == q


def _egf_rows(n: int) -> dict[str, list[Fraction]]:
    """Weight rows w_j = W_j / j! of three denominator types: log-type
    W_j = +-(j-1)!, binomial-type W_j = (a)_j q^(n-1) for a = -7/3, and
    1/j!-type W_j = 1, whose denominators are factorial."""
    return {"log": [Fraction(0)] + [Fraction((-1) ** (j + 1), j) for j in range(1, n)],
            "binomial": [falling_factorial(Fraction(-7, 3), j) * 3 ** (n - 1) / math.factorial(j)
                         for j in range(n)],
            "factorial": [Fraction(1, math.factorial(j)) for j in range(n)]}


_LONG_COEFFS = [Fraction((-1) ** n * (n * n + 1), n % 7 + 1) for n in range(_HORNER_MIN + 20)]
_LONG_ROWS = [(_LONG_COEFFS[:n], row) for n in (_HORNER_MIN - 1, _HORNER_MIN, _HORNER_MIN + 20)
              for row in _egf_rows(n).values()]


@given(coeff_lists, coeff_lists)
@example(*_LONG_ROWS[0])
@example(*_LONG_ROWS[1])
@example(*_LONG_ROWS[2])
@example(*_LONG_ROWS[3])
@example(*_LONG_ROWS[4])
@example(*_LONG_ROWS[5])
@example(*_LONG_ROWS[6])
@example(*_LONG_ROWS[7])
@example(*_LONG_ROWS[8])
def test_apply_weights_matches_defining_sum(coeffs, weights):
    """The integer kernel behind every operator row equals its defining sum
    out_i = sum_j W_j / j! (i+j)!/i! c_(i+j), with EGF weights W_j = j! w_j,
    taken in plain Fraction arithmetic."""
    p = poly(Basis.MONOMIAL, coeffs)
    c = p.coeffs
    w = (list(weights) + [Fraction(0)] * len(c))[:len(c)]
    egf = [math.factorial(j) * wj for j, wj in enumerate(w)]
    want = [sum((w[j] * math.perm(i + j, j) * c[i + j] for j in range(len(c) - i)),
                Fraction(0)) for i in range(len(c))]
    nums, q = _integers(egf, "_apply_weights")
    got = [Fraction(h, p.den * q) for h in _apply_weights(p.nums, nums)]
    assert poly(Basis.MONOMIAL, got) == poly(Basis.MONOMIAL, want)


@pytest.mark.parametrize("n", [_HORNER_MIN + 20, 100])
@pytest.mark.parametrize("kind", ["log", "binomial", "factorial"])
def test_apply_weights_runs_horner_unless_the_denominators_are_factorial(kind, n):
    """Past _HORNER_MIN weights, the kernel scales the log-type and
    binomial-type rows for Horner's rule and leaves the 1/j!-type to the rows.
    A log-type row passes the size test from about 55 weights on, where
    lcm(1..n) falls below the cube root of n!."""
    w, _ = _integers([math.factorial(j) * e for j, e in enumerate(_egf_rows(n)[kind])], "test")
    lo = 1 if kind == "log" else 0
    assert (_scaled_weights(w, lo, n) is None) == (kind == "factorial")


_ROWS = [OperatorExpr(kind, k=k) for kind in ("derivative", "forward_difference",
                                              "backward_difference", "log1p_derivative",
                                              "expdiff_minus1") for k in range(4)]
_ROWS += [OperatorExpr(kind, a=a) for kind in ("shift", "binom_shift", "exp_shift")
          for a in (Fraction(0), Fraction(1), Fraction(-1), Fraction(-7, 3), Fraction(5, 2))]


@pytest.mark.parametrize("op", _ROWS, ids=lambda op: f"{op.kind.value}-{op.k}-{op.a}")
def test_operator_in_own_basis_matches_round_trip(op):
    """Every row weight applied in the input's own basis equals converting to
    each other basis, applying there and converting back; a wrong sign or index
    in a Stirling or Lah row breaks this."""
    for d in (-1, 0, 1, 2, 5, 9):
        for basis in Basis:
            p = poly(basis, [Fraction((-1) ** n * (n + 2), n % 4 + 1) for n in range(d + 1)])
            got = apply_operator(op, p)
            assert got.basis is basis
            for other in Basis:
                via = convert_basis(apply_operator(op, convert_basis(p, other)), basis)
                assert got == via, (basis.value, other.value, d)


@given(coeff_lists, points, points)
def test_shift_op_is_shift(coeffs, a, x):
    p = monomial(coeffs)
    assert apply_operator(shift_op(a), p) == shift(p, a)


def test_exp_shift_hand_values():
    """e^{aD} on x and x^2: the series runs over forward differences."""
    a = Fraction(3, 2)
    x = monomial([0, 1])
    x2 = monomial([0, 0, 1])
    assert apply_operator(exp_shift(a), x) == monomial([a, 1])
    # x^2 + a(2x+1) + a^2
    assert apply_operator(exp_shift(a), x2) == monomial([a + a * a, 2 * a, 1])


def test_binom_shift_hand_values():
    """(1+d)^a on x^2 = x^2 + 2ax + a(a-1)."""
    a = Fraction(2)
    x2 = monomial([0, 0, 1])
    assert apply_operator(binom_shift(a), x2) == monomial([a * (a - 1), 2 * a, 1])


def test_log1p_derivative_hand_value():
    """log(1+d) on x^2 = 2x - 1."""
    got = apply_operator(log1p_derivative(), monomial([0, 0, 1]))
    assert got == monomial([-1, 2])


@given(coeff_lists, points, points, points)
def test_parameter_operators_compose_additively(coeffs, a, b, x):
    """exp_shift and binom_shift form one-parameter groups."""
    p = monomial(coeffs)
    for factory in (exp_shift, binom_shift):
        lhs = apply_operator(factory(a), apply_operator(factory(b), p))
        rhs = apply_operator(factory(a + b), p)
        assert lhs.eval(x) == rhs.eval(x)


@given(coeff_lists, points, points, points)
def test_scale_op_composes_multiplicatively(coeffs, a, b, x):
    p = poly(Basis.FALLING, coeffs)
    lhs = apply_operator(scale_op(a), apply_operator(scale_op(b), p))
    assert lhs.eval(x) == apply_operator(scale_op(a * b), p).eval(x)
    assert apply_operator(scale_op(Fraction(1)), p) == p


@given(coeff_lists, bases)
def test_operator_result_keeps_input_basis(coeffs, basis):
    p = poly(basis, coeffs)
    for op in (derivative(), forward_difference(), backward_difference(),
               shift_op(Fraction(1, 2)), exp_shift(2), binom_shift(2)):
        assert apply_operator(op, p).basis is basis


@given(coeff_lists, points)
def test_antiderivative_inverts_derivative(coeffs, x):
    """d(antiderivative(p)) = p, and the antiderivative vanishes at 0."""
    p = monomial(coeffs)
    F = antiderivative(p)
    assert apply_operator(derivative(), F).eval(x) == p.eval(x)
    assert F.eval(Fraction(0)) == 0


@given(coeff_lists, points)
def test_indefinite_sum_inverts_forward_difference(coeffs, x):
    p = monomial(coeffs)
    S = indefinite_sum(p)
    assert apply_operator(forward_difference(), S).eval(x) == p.eval(x)
    assert S.eval(Fraction(0)) == 0


# --- plain-Fraction references for the integer kernels ----------------------


def _ref_to_monomial(p: BasisPolynomial) -> list[Fraction]:
    # (x)_n = sum_k s(n,k) x^k and x^(rising n) = sum_k c(n,k) x^k
    stirling = stirling_first_signed if p.basis is Basis.FALLING else stirling_first_unsigned
    out = [Fraction(0)] * len(p.coeffs)
    for n, a in enumerate(p.coeffs):
        for k in range(n + 1):
            out[k] += a * stirling(n, k)
    return out


def _ref_from_monomial(coeffs: list[Fraction], target: Basis) -> list[Fraction]:
    # x^n = sum_k S(n,k) (x)_k = sum_k (-1)^(n-k) S(n,k) x^(rising k)
    out = [Fraction(0)] * len(coeffs)
    for n, a in enumerate(coeffs):
        for k in range(n + 1):
            sign = -1 if target is Basis.RISING and (n - k) % 2 else 1
            out[k] += a * sign * stirling_second(n, k)
    return out


def _ref_convert(p: BasisPolynomial, target: Basis) -> BasisPolynomial:
    if p.basis is target:
        return p
    mono = list(p.coeffs) if p.basis is Basis.MONOMIAL else _ref_to_monomial(p)
    return poly(target, mono if target is Basis.MONOMIAL else _ref_from_monomial(mono, target))


def _ref_multiply(p: BasisPolynomial, q: BasisPolynomial) -> BasisPolynomial:
    # monomial: convolution; falling: (x)_n (x)_m = sum_k C(n,k) C(m,k) k! (x)_(n+m-k);
    # rising: the same with (-1)^k, from x^(rising n) = (-1)^n (-x)_n
    sign = -1 if p.basis is Basis.RISING else 1
    out = [Fraction(0)] * (len(p.coeffs) + len(q.coeffs))
    for n, a in enumerate(p.coeffs):
        for m, b in enumerate(q.coeffs):
            if p.basis is Basis.MONOMIAL:
                out[n + m] += a * b
                continue
            for k in range(min(n, m) + 1):
                w = math.comb(n, k) * math.comb(m, k) * math.factorial(k)
                out[n + m - k] += sign ** k * a * b * w
    return poly(p.basis, out)


# zeros inside the vector, small rationals, and large numerators over
# pairwise coprime denominators, at every degree -1..40
kernel_coeffs = st.one_of(
    st.just(Fraction(0)),
    st.fractions(min_value=-9, max_value=9, max_denominator=9),
    st.builds(Fraction, st.integers(-10 ** 6, 10 ** 6), st.sampled_from([1, 7, 11, 13, 1024, 6561])),
)
kernel_polys = st.integers(min_value=-1, max_value=40).flatmap(
    lambda d: st.lists(kernel_coeffs, min_size=d + 1, max_size=d + 1))


def _ref_taylor(coeffs, a: Fraction) -> list[Fraction]:
    # E^a on x^n and e^{aD} on (x)_n: out_i = sum_j C(i+j, j) a^j c_(i+j)
    n = len(coeffs)
    return [sum((math.comb(i + j, j) * a ** j * coeffs[i + j] for j in range(n - i)),
                Fraction(0)) for i in range(n)]


_KERNEL_DENS = (1, 7, 11, 13, 1024, 6561)


def _kernel_poly(basis: Basis, d: int) -> BasisPolynomial:
    """Degree d, every fifth coefficient zero, numerators up to 10^6 over
    pairwise coprime denominators."""
    return poly(basis, [0 if n % 5 == 2 else Fraction((-1) ** n * (n * 7919 % 10 ** 6 + 1),
                                                      _KERNEL_DENS[n % 6]) for n in range(d)]
                + [Fraction(3, 8)] * (d >= 0))


@pytest.mark.parametrize("a", [Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2),
                               Fraction(-7, 5), 10 ** 6 + Fraction(1, 3)], ids=str)
@pytest.mark.parametrize("basis,apply", [
    (Basis.MONOMIAL, shift), (Basis.FALLING, lambda p, a: apply_operator(exp_shift(a), p))],
    ids=["shift-monomial", "exp_shift-falling"])
def test_taylor_shift_matches_defining_sum(basis, apply, a):
    """shift on monomial input and exp_shift on falling input, each a Taylor
    shift of the coefficient vector, equal the defining sum in Fractions."""
    for d in (*range(-1, 41), 100, 300):
        p = _kernel_poly(basis, d)
        got = apply(p, a)
        assert got.basis is basis
        assert all(type(c) is Fraction for c in got.coeffs)
        assert got == poly(basis, _ref_taylor(p.coeffs, a)), d


# the basis of each kind's closed-form row
_ROW_BASIS = {"derivative": Basis.MONOMIAL, "forward_difference": Basis.FALLING,
              "backward_difference": Basis.RISING, "log1p_derivative": Basis.MONOMIAL,
              "expdiff_minus1": Basis.FALLING, "shift": Basis.MONOMIAL,
              "exp_shift": Basis.FALLING, "binom_shift": Basis.MONOMIAL}


def _row_weights(op: OperatorExpr, n: int) -> list[Fraction]:
    """EGF weights of op in its row's basis, from the combinatorics tables:
    k! delta, k! s(j,k) for log(1+d)^k, k! S(j,k) for (e^D-1)^k, a^j, (a)_j."""
    k, kind = op.k, op.kind.value
    if kind == "log1p_derivative":
        return [math.factorial(k) * stirling_first_signed(j, k) for j in range(n)]
    if kind == "expdiff_minus1":
        return [math.factorial(k) * stirling_second(j, k) for j in range(n)]
    if kind in ("shift", "exp_shift"):
        return [op.a ** j for j in range(n)]
    if kind == "binom_shift":
        return [falling_factorial(op.a, j) for j in range(n)]
    return [math.factorial(k) * (j == k) for j in range(n)]


def _weights_sum(coeffs, weights) -> list[Fraction]:
    # out_i = sum_j C(i+j, j) W_j c_(i+j)
    n = len(coeffs)
    return [sum((math.comb(i + j, j) * weights[j] * coeffs[i + j] for j in range(n - i)
                 if weights[j]), Fraction(0)) for i in range(n)]


def _via_row_basis(op: OperatorExpr, p: BasisPolynomial) -> BasisPolynomial:
    """Convert to the row's basis, apply the row's weights there, convert back."""
    home = _ROW_BASIS[op.kind.value]
    c = convert_basis(p, home).coeffs
    return convert_basis(poly(home, _weights_sum(c, _row_weights(op, len(c)))), p.basis)


_PAIR_OPS = {kind: [OperatorExpr(kind, k=k) for k in (0, 1, 3)]
             for kind in ("derivative", "forward_difference", "backward_difference",
                          "log1p_derivative", "expdiff_minus1")}
_PAIR_OPS.update({kind: [OperatorExpr(kind, a=a) for a in (Fraction(-7, 5), Fraction(1, 2))]
                  for kind in ("shift", "exp_shift", "binom_shift")})


@pytest.mark.parametrize("basis", list(Basis), ids=lambda b: b.value)
@pytest.mark.parametrize("kind", list(_PAIR_OPS))
def test_every_pair_matches_route_through_row_basis(kind, basis):
    """Each of the 24 (kind, basis) pairs equals converting the input to the
    basis of the kind's row, applying the row there and converting back."""
    for d in (*range(31), 80):
        p = _kernel_poly(basis, d)
        for op in _PAIR_OPS[kind]:
            got = apply_operator(op, p)
            assert got.basis is basis
            assert got == _via_row_basis(op, p), (op, d)


_HIGH_OPS = {kind: OperatorExpr(kind, k=1) for kind in ("derivative", "log1p_derivative",
                                                         "expdiff_minus1")}
_HIGH_OPS.update({kind: OperatorExpr(kind, a=Fraction(-7, 5)) for kind in ("binom_shift", "shift")})


@pytest.mark.parametrize("d", [150, 300])
@pytest.mark.parametrize("basis", list(Basis), ids=lambda b: b.value)
@pytest.mark.parametrize("kind", list(_HIGH_OPS))
def test_high_degree_pairs_match_route_through_row_basis(kind, basis, d):
    """The dense rows past the kernel's Horner switch, on both of its
    branches, equal the route through the row's basis."""
    p = _kernel_poly(basis, d)
    assert apply_operator(_HIGH_OPS[kind], p) == _via_row_basis(_HIGH_OPS[kind], p)


@pytest.mark.parametrize("basis", list(Basis), ids=lambda b: b.value)
@pytest.mark.parametrize("inverse,op", [(log1p_derivative_inverse, log1p_derivative()),
                                        (expdiff_minus1_inverse, expdiff_minus1())],
                         ids=["log1p", "expdiff"])
def test_high_degree_series_inverse_matches_route_through_row_basis(inverse, op, basis):
    """At d150 the operator, applied through its row's basis, takes each
    series inverse back to its input."""
    p = _kernel_poly(basis, 150)
    assert _via_row_basis(op, inverse(p)) == p


@pytest.mark.parametrize("source,target", [(s, t) for s in Basis for t in Basis if s is not t],
                         ids=lambda b: b.value)
def test_translate_matches_route_through_source_basis(source, target):
    """Dense weights translated to the target basis act on a target-basis
    vector as the same weights do on its conversion to the source basis; a
    transposed triangle or a wrong sign breaks this."""
    rng = Random(f"{source.value}:{target.value}")
    for d in (0, 1, 2, 3, 7, 15, 30):
        weights = [rng.randint(-50, 50) for _ in range(d + 1)]
        p = poly(target, [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(d + 1)])
        c = convert_basis(p, source).coeffs
        want = convert_basis(poly(source, _weights_sum(c, weights)), target)
        got = _apply_weights(p.nums, _translate(weights, source, target))
        assert poly(target, [Fraction(h, p.den) for h in got]) == want, d


@settings(deadline=None)
@given(kernel_polys, bases, bases)
def test_convert_basis_matches_reference(coeffs, b1, b2):
    """All nine basis pairs equal the Fraction loops through the monomial basis."""
    p = poly(b1, coeffs)
    assert convert_basis(p, b2) == _ref_convert(p, b2)


# basis elements: one nonzero coefficient at any index 0..40
kernel_units = st.builds(lambda n, c: [0] * n + [c], st.integers(0, 40), kernel_coeffs)
_DEG60 = [Fraction((-1) ** n * (n * n + 1), n % 7 + 1) if n % 3 else 0 for n in range(61)]


@settings(deadline=None, max_examples=60)
@given(st.one_of(kernel_polys, kernel_units), st.one_of(kernel_polys, kernel_units), bases)
@example([0] * 5 + [1], [0, 0, 1], Basis.FALLING)
@example([0, 0, 0, Fraction(-2, 3)], [0] * 11 + [1], Basis.RISING)
@example([1, 0, 0, 0, Fraction(-3, 7)], [0, 2, 0, 0, 0, 0, 5], Basis.FALLING)
@example(_DEG60, _DEG60[::-1], Basis.FALLING)
@example(_DEG60, _DEG60[:40], Basis.RISING)
def test_multiply_matches_reference(a, b, basis):
    p, q = poly(basis, a), poly(basis, b)
    assert multiply(p, q) == _ref_multiply(p, q)


def _ref_convolve(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, u in enumerate(a):
        for j, v in enumerate(b):
            out[i + j] += u * v
    return out


_BIG = 2 ** 2000 - 1
# signed entries, zeros among them, of up to 2000 bits; lengths on both
# sides of the Kronecker crossover
convolve_vectors = st.lists(
    st.one_of(st.just(0), st.integers(-9, 9), st.integers(-_BIG, _BIG)),
    min_size=1, max_size=2 * _KRONECKER_MAX + 4)


@settings(deadline=None)
@given(convolve_vectors, convolve_vectors)
@example([7], [-3])
@example([0] * (_KRONECKER_MIN - 1) + [1], list(range(-20, 20)))
@example(list(range(1, _KRONECKER_MIN + 1)), [0] * _KRONECKER_MIN)
@example([-_BIG] * _KRONECKER_MAX, [_BIG] * (_KRONECKER_MAX + 5))  # |out_k| at the bound
@example([_BIG, 0, -_BIG] * _KRONECKER_MAX, [0, 1, -1] * 9 + [_BIG])
def test_convolve_matches_schoolbook(a, b):
    assert _convolve(a, b) == _ref_convolve(a, b)


@pytest.mark.parametrize("bits", [32, 256, 512, 1000])
def test_convolve_matches_schoolbook_across_the_width_crossover(bits):
    """n x n products one term below and at the crossover for entries of
    this width, where wider digits move it to more terms, up to a cap."""
    top = 2 ** bits - 1
    n = _KRONECKER_MIN
    while n < min(_KRONECKER_MIN + ((top * top * n).bit_length() // 8 + 1) // _KRONECKER_BYTES,
                  _KRONECKER_MAX):
        n += 1
    rng = Random(bits)
    for m in (n - 1, n):
        # each random vector holds +-top, so its digit width is the bound's
        a = [top] + [rng.randint(-top, top) for _ in range(m - 1)]
        b = [rng.randint(-top, top) for _ in range(m - 1)] + [-top]
        for p, q in ((a, b), ([-top] * m, [top] * m)):
            assert _convolve(p, q) == _ref_convolve(p, q)


@given(coeff_lists, st.integers(min_value=0, max_value=12))
def test_indefinite_sum_telescopes(coeffs, N):
    """S(N) = sum_{j<N} p(j), the discrete analogue of the integral."""
    p = monomial(coeffs)
    S = indefinite_sum(p)
    assert S.eval(Fraction(N)) == sum((p.eval(Fraction(j)) for j in range(N)), Fraction(0))


@given(coeff_lists, points)
def test_series_inverse_operators_roundtrip(coeffs, x):
    """L applied to the zero-constant preimage gives back p for both kernels."""
    p = monomial(coeffs)
    q = log1p_derivative_inverse(p)
    assert apply_operator(log1p_derivative(), q).eval(x) == p.eval(x)
    assert q.eval(Fraction(0)) == 0
    r = expdiff_minus1_inverse(p)
    assert apply_operator(expdiff_minus1(), r).eval(x) == p.eval(x)
    assert r.eval(Fraction(0)) == 0


def test_operator_expr_validation():
    with pytest.raises(ValueError):
        derivative(-1)
    with pytest.raises(ValueError):
        OperatorExpr(OperatorKind.SHIFT)  # parameter a is required
    with pytest.raises(ValueError):
        OperatorExpr(OperatorKind.DERIVATIVE, a=Fraction(1))  # power kinds take none
    for kind in (OperatorKind.SHIFT, OperatorKind.BINOM_SHIFT, OperatorKind.EXP_SHIFT,
                 OperatorKind.SCALE_OP):
        with pytest.raises(ValueError):
            OperatorExpr(kind, k=5, a=Fraction(1))  # parameter kinds take no power
        assert OperatorExpr(kind, a=Fraction(1)).k == 1
    with pytest.raises(ValueError):
        OperatorExpr(OperatorKind.DERIVATIVE, k=1.5)  # used to give the zero polynomial
    with pytest.raises(ValueError):
        OperatorExpr(OperatorKind.LOG1P_DERIVATIVE, k=2.0)  # used to raise TypeError
    with pytest.raises(ValueError, match="power must be nonnegative"):
        derivative(2)._replace(k=-1)  # _replace validates as the constructor does
    moved = shift_op(Fraction(1, 2))._replace(a=3)
    assert moved == OperatorExpr(OperatorKind.SHIFT, a=Fraction(3)) and type(moved.a) is Fraction


@given(coeff_lists, bases)
def test_json_roundtrip(coeffs, basis):
    """to_json/from_json preserve basis and exact coefficients."""
    p = poly(basis, coeffs)
    blob = p.to_json()
    q = BasisPolynomial.from_json(blob)
    assert q == p
    assert all(isinstance(c, str) for c in blob["coeffs"])


def test_from_json_rejects_malformed():
    with pytest.raises((ValueError, KeyError)):
        BasisPolynomial.from_json({"coeffs": ["1"]})
    with pytest.raises(ValueError):
        BasisPolynomial.from_json({"basis": "monomial", "coeffs": ["1/0"]})


@given(coeff_lists)
def test_scale_and_coeff_access(coeffs):
    p = monomial(coeffs)
    assert p.scale(Fraction(3)).eval(Fraction(2)) == 3 * p.eval(Fraction(2))
    assert p.coeff(len(coeffs) + 5) == 0
