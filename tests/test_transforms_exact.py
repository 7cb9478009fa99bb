"""Tests for the exact transform layer.

The four polynomial transforms are coefficient reinterpretations, so the
tests pin down both the coefficient contract and the induced functional
identities (round trips, reflection, transported scaling). Sequence-level
transforms are checked at integer points against direct sums: the
``_ref_*`` helpers sum the defining formulas term by term over sampled values
p.eval(n), independently of the binomial kernel the module runs on.
"""

import math
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ftcalc.polynomial import (
    Basis,
    BasisPolynomial,
    apply_operator,
    convert_basis,
    derivative,
    monomial,
    multiply,
    negate_argument,
    poly,
    scale_argument,
    scale_op,
)
from ftcalc.transforms_exact import (
    binomial_convolution,
    binomial_transform,
    coefficient_extract,
    egf_product_coeffs,
    fft_poly,
    hadamard_ifft,
    ifft_poly,
    inverse_binomial_transform,
    irft_poly,
    newton_from_samples,
    rft_poly,
)

coeff_lists = st.lists(
    st.fractions(min_value=-9, max_value=9, max_denominator=9), min_size=0, max_size=9
)
bases = st.sampled_from([Basis.MONOMIAL, Basis.FALLING, Basis.RISING])
points = st.fractions(min_value=-5, max_value=5, max_denominator=7)
seqs = st.lists(st.fractions(min_value=-6, max_value=6, max_denominator=6), min_size=1, max_size=10)


def seq_fn(values):
    return lambda n: values[n] if n < len(values) else Fraction(0)


def test_transform_coefficient_contract():
    """The transforms move a coefficient list between bases unchanged."""
    c = [Fraction(2), Fraction(-1), Fraction(3)]
    p = monomial(c)
    assert fft_poly(p) == poly(Basis.FALLING, c)
    assert rft_poly(p) == poly(Basis.RISING, c)
    assert ifft_poly(poly(Basis.FALLING, c)) == monomial(c)
    assert irft_poly(poly(Basis.RISING, c)) == monomial(c)


@given(coeff_lists, bases)
def test_fft_roundtrip(coeffs, basis):
    """ifft(fft(p)) = p in any starting basis."""
    p = poly(basis, coeffs)
    assert convert_basis(ifft_poly(fft_poly(p)), basis) == p
    assert convert_basis(fft_poly(ifft_poly(p)), basis) == p


@given(coeff_lists, bases)
def test_rft_roundtrip(coeffs, basis):
    p = poly(basis, coeffs)
    assert convert_basis(irft_poly(rft_poly(p)), basis) == p
    assert convert_basis(rft_poly(irft_poly(p)), basis) == p


@given(coeff_lists, points)
def test_reflection_identity(coeffs, x):
    """RFT(f)(x) = FFT(f(-t))(-x)."""
    p = monomial(coeffs)
    assert rft_poly(p).eval(x) == fft_poly(negate_argument(p)).eval(-x)


@given(coeff_lists, coeff_lists, points)
def test_fft_linear(a, b, x):
    p, q = monomial(a), monomial(b)
    assert fft_poly(p + q).eval(x) == fft_poly(p).eval(x) + fft_poly(q).eval(x)


@given(coeff_lists, st.fractions(min_value=-3, max_value=3, max_denominator=4), points)
def test_scale_op_conjugates_argument_scaling(coeffs, a, x):
    """scale_op(a) is dilation by a transported through the falling transform."""
    p = monomial(coeffs)
    lhs = fft_poly(scale_argument(p, a))
    rhs = apply_operator(scale_op(a), fft_poly(p))
    assert lhs.eval(x) == rhs.eval(x)


@given(seqs, st.integers(min_value=0, max_value=9))
def test_binomial_transform_direct_sum(values, x):
    """BT agrees with the literal binomial sum."""
    f = seq_fn(values)
    want = sum((Fraction(math.comb(x, n)) * f(n) for n in range(x + 1)), Fraction(0))
    assert binomial_transform(f, x) == want


@given(seqs, st.integers(min_value=0, max_value=9))
def test_binomial_transform_involution(values, x):
    """inverse_binomial_transform undoes binomial_transform pointwise."""
    f = seq_fn(values)
    bt = lambda m: binomial_transform(f, m)
    assert inverse_binomial_transform(bt, x) == f(x)
    ibt = lambda m: inverse_binomial_transform(f, m)
    assert binomial_transform(ibt, x) == f(x)


@given(seqs, seqs, st.integers(min_value=0, max_value=9))
def test_convolution_commutes(a, b, x):
    assert binomial_convolution(seq_fn(a), seq_fn(b), x) == binomial_convolution(seq_fn(b), seq_fn(a), x)


@given(seqs, st.integers(min_value=0, max_value=9))
def test_convolution_with_ones_is_bt(values, x):
    """conv(1, g) collapses to the plain binomial transform."""
    g = seq_fn(values)
    one = lambda n: Fraction(1)
    assert binomial_convolution(one, g, x) == binomial_transform(g, x)


@settings(deadline=None)
@given(seqs, seqs)
def test_egf_product_matches_cauchy(a, b):
    """EGF product coefficients match the Cauchy product of the two EGFs."""
    K = 12
    got = egf_product_coeffs(seq_fn(a), seq_fn(b), K)
    for k in range(K):
        want = sum(
            (Fraction(math.comb(k, j)) * seq_fn(a)(j) * seq_fn(b)(k - j) for j in range(k + 1)),
            Fraction(0),
        )
        assert got[k] == want


def test_egf_product_polynomial_sources():
    """BasisPolynomial sources are sampled at integers."""
    p = monomial([1, 1])  # f(n) = n + 1
    got = egf_product_coeffs(p, p, 5)
    want = [binomial_convolution(p, p, k) for k in range(5)]
    assert got == want


@given(coeff_lists, coeff_lists, points)
def test_hadamard_ifft_matches_multiply_route(a, b, x):
    """hadamard_ifft(f,g) = ifft(f * g) with the product in the falling basis."""
    f, g = poly(Basis.FALLING, a), poly(Basis.FALLING, b)
    assert hadamard_ifft(f, g).eval(x) == ifft_poly(multiply(f, g)).eval(x)


def _ref_hadamard(f: BasisPolynomial, g: BasisPolynomial) -> BasisPolynomial:
    """The paper's pairing sum sum_k d^k F d^k G x^k / k!, F and G the
    inverse falling transforms of f and g."""
    F, G = ifft_poly(f), ifft_poly(g)
    acc = monomial([])
    for k in range(min(F.degree, G.degree) + 1):
        dF, dG = apply_operator(derivative(k), F), apply_operator(derivative(k), G)
        xk = monomial([0] * k + [Fraction(1, math.factorial(k))])
        acc = acc + multiply(multiply(dF, dG), xk)
    return acc


@pytest.mark.parametrize("bf", list(Basis), ids=lambda b: b.value)
@pytest.mark.parametrize("bg", list(Basis), ids=lambda b: b.value)
def test_hadamard_ifft_matches_pairing_sum(bf, bg):
    """Equal to the derivative-pairing sum at degrees -1..30, in every pair
    of input bases, with zeros inside and coprime denominators."""
    rng = Random(f"{bf.value}-{bg.value}")
    dens = (1, 7, 11, 13, 1024, 6561)

    def draw(basis, d):
        return poly(basis, [rng.choice((0, 1)) * Fraction(rng.randint(-10 ** 6, 10 ** 6),
                                                          rng.choice(dens)) for _ in range(d)]
                    + [Fraction(rng.randint(1, 9), rng.choice(dens))] * (d >= 0))

    for d in range(-1, 31):
        f, g = draw(bf, d), draw(bg, rng.randint(-1, 30))
        got = hadamard_ifft(f, g)
        assert got.basis is Basis.MONOMIAL
        assert got == _ref_hadamard(f, g), (d, g.degree)


def test_hadamard_ifft_basis():
    out = hadamard_ifft(poly(Basis.FALLING, [1, 2]), poly(Basis.FALLING, [0, 3]))
    assert out.basis is Basis.MONOMIAL


@given(coeff_lists, st.integers(min_value=0, max_value=8))
def test_coefficient_extract_polynomial(coeffs, n):
    """coefficient_extract reads off monomial coefficients exactly."""
    p = monomial(coeffs)
    assert coefficient_extract(p, n) == convert_basis(p, Basis.MONOMIAL).coeff(n)


def test_coefficient_extract_callable():
    a = lambda j: Fraction(1, math.factorial(j))  # e^x
    for n in range(6):
        assert coefficient_extract(a, n) == Fraction(1, math.factorial(n))


@given(coeff_lists, points)
def test_newton_from_samples_reconstructs(coeffs, x):
    """Interpolating a polynomial's integer samples returns the polynomial."""
    p = monomial(coeffs)
    q = newton_from_samples(p, max(p.degree, 0))
    assert q.basis is Basis.FALLING
    assert q.eval(x) == p.eval(x)


def test_newton_from_samples_factorial_row():
    """Samples n! interpolate to the degree-d partial Newton series."""
    fact = lambda n: Fraction(math.factorial(n))
    q = newton_from_samples(fact, 4)
    for n in range(5):
        assert q.eval(Fraction(n)) == math.factorial(n)


def test_sequence_argument_validation():
    one = lambda n: Fraction(1)
    with pytest.raises(ValueError):
        binomial_transform(one, -1)
    with pytest.raises(ValueError):
        inverse_binomial_transform(one, -2)
    with pytest.raises(ValueError):
        binomial_convolution(one, one, -1)
    with pytest.raises(ValueError):
        egf_product_coeffs(one, one, 0)
    with pytest.raises(ValueError):
        coefficient_extract(one, -1)
    with pytest.raises(ValueError):
        newton_from_samples(one, -1)


def _ref_seq(f):
    if isinstance(f, BasisPolynomial):
        return lambda n: f.eval(Fraction(n))
    return f


def _ref_binomial_transform(f, x):
    g = _ref_seq(f)
    return sum((Fraction(math.comb(x, n)) * g(n) for n in range(x + 1)), Fraction(0))


def _ref_inverse_binomial_transform(f, x):
    g = _ref_seq(f)
    return sum((Fraction(math.comb(x, n) * (-1) ** (x - n)) * g(n) for n in range(x + 1)),
               Fraction(0))


def _ref_binomial_convolution(f, g, x):
    ff, gg = _ref_seq(f), _ref_seq(g)
    return sum((Fraction(math.comb(x, n)) * ff(x - n) * gg(n) for n in range(x + 1)), Fraction(0))


def _ref_egf_product_coeffs(F, G, K):
    return [_ref_binomial_convolution(F, G, k) for k in range(K)]


def _ref_newton_from_samples(f, degree):
    """Forward-difference table: the (x)_j coefficient is D^j f(0) / j!."""
    g = _ref_seq(f)
    row = [Fraction(g(n)) for n in range(degree + 1)]
    coeffs = [row[0]]
    for j in range(1, degree + 1):
        row = [row[i + 1] - row[i] for i in range(len(row) - 1)]
        coeffs.append(row[0] / math.factorial(j))
    return poly(Basis.FALLING, coeffs)


def _ref_coefficient_extract(f, n):
    """FFT(e^{-x} f)(n) / n! with the Cauchy product of e^{-x} and f spelled out."""
    a = convert_basis(f, Basis.MONOMIAL).coeff if isinstance(f, BasisPolynomial) else f
    acc = Fraction(0)
    for k in range(n + 1):
        c = sum((Fraction((-1) ** (k - j), math.factorial(k - j)) * Fraction(a(j))
                 for j in range(k + 1)), Fraction(0))
        acc += Fraction(math.comb(n, k)) * math.factorial(k) * c
    return acc / math.factorial(n)


def _rand_coeffs(rng, degree):
    """Rationals over coprime denominators, with zeros inside the vector."""
    out = [Fraction(rng.randint(-20, 20), rng.choice([1, 2, 3, 5, 7, 11, 13]))
           if rng.random() > 0.25 else Fraction(0) for _ in range(degree + 1)]
    if out:
        out[-1] = out[-1] or Fraction(1, 17)
    return out


def _assert_matches_reference(f, g, rng):
    for x in {0, 1, rng.randint(0, 30)}:
        assert binomial_transform(f, x) == _ref_binomial_transform(f, x)
        assert inverse_binomial_transform(f, x) == _ref_inverse_binomial_transform(f, x)
        assert binomial_convolution(f, g, x) == _ref_binomial_convolution(f, g, x)
    for K in {1, rng.randint(1, 14)}:
        assert egf_product_coeffs(f, g, K) == _ref_egf_product_coeffs(f, g, K)
    for degree in {0, rng.randint(0, 33)}:
        assert newton_from_samples(f, degree) == _ref_newton_from_samples(f, degree)
    for n in {0, rng.randint(0, 33)}:
        assert coefficient_extract(f, n) == _ref_coefficient_extract(f, n)


@pytest.mark.parametrize("basis", list(Basis))
def test_sequence_functions_match_direct_sums_on_polynomials(basis):
    """All six sequence functions equal their defining sums, degrees -1..30."""
    rng = Random(f"sequence-{basis.value}")
    for degree in range(-1, 31):
        f = poly(basis, _rand_coeffs(rng, degree))
        g = poly(rng.choice(list(Basis)), _rand_coeffs(rng, rng.randint(-1, 12)))
        assert f.degree == degree
        _assert_matches_reference(f, g, rng)


def test_sequence_functions_match_direct_sums_on_callables():
    rng = Random("sequence-callables")
    fact = lambda n: math.factorial(n)  # int-valued samples
    values = _rand_coeffs(rng, 40)
    table = lambda n: values[n]
    recip = lambda n: Fraction(1, n + 1)
    for f, g in [(fact, table), (table, recip), (recip, fact), (table, table)]:
        _assert_matches_reference(f, g, rng)


def test_sequence_functions_edge_cases():
    """x = 0, K = 1 and the zero polynomial, against the direct sums."""
    zero = poly(Basis.RISING, [])
    one = poly(Basis.FALLING, [1])
    for f, g in [(zero, zero), (zero, one), (one, zero)]:
        for x in range(4):
            assert binomial_transform(f, x) == _ref_binomial_transform(f, x)
            assert inverse_binomial_transform(f, x) == _ref_inverse_binomial_transform(f, x)
            assert binomial_convolution(f, g, x) == _ref_binomial_convolution(f, g, x)
            assert egf_product_coeffs(f, g, x + 1) == _ref_egf_product_coeffs(f, g, x + 1)
            assert newton_from_samples(f, x) == _ref_newton_from_samples(f, x)
            assert coefficient_extract(f, x) == _ref_coefficient_extract(f, x)
    assert binomial_transform(zero, 0) == 0
    assert type(binomial_transform(zero, 0)) is Fraction
    assert egf_product_coeffs(one, one, 1) == [Fraction(1)]
    assert newton_from_samples(zero, 0).is_zero()
