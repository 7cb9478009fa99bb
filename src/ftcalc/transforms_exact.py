"""Exact transforms on polynomials and integer-indexed sequences.

The four transforms are coefficient reinterpretations between the monomial
and factorial bases. Binomial transform / convolution are finite sums at
nonnegative integer arguments (the infinite-argument versions live in the
numeric layer). All arithmetic is rational. hadamard_ifft, the inverse
transform of a product, is one monomial product and one reinterpretation.

Every sequence function is one identity, the EGF product
h_k = sum_n binom(k,n) u_(k-n) v_n: the binomial transform and its
inverse are binomial_convolution against 1s and against (-1)^n; Newton
interpolation is the inverse transform over j!; coefficient extraction is
FFT(e^{-x} f)(n) / n! on EGF coefficients. Each source is sampled once at
0..m-1, a polynomial through its falling coefficients c as
p(n) = sum_j binom(n,j) j! c_j, the same product against 1s. Two integer
kernels compute it: one direct sum per h_k for a general u, here, and the
shared difference table of additions against u_n = r^n, whose first m
outputs read only the first m inputs and give every h_k, k < m. Samples
and sums stay integer numerators over one denominator; a Fraction is
built only for a returned value.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Iterable, Sequence, Union

from .combinatorics import _integers
from .polynomial import (
    Basis, BasisPolynomial, _canonical, _falling_samples, _newton, _reduced, _times_exp,
    convert_basis, multiply,
)

SequenceSource = Union[BasisPolynomial, Callable[[int], Fraction]]


def _reread(p: BasisPolynomial, source: Basis, target: Basis) -> BasisPolynomial:
    q = convert_basis(p, source)
    return _canonical(target, q.nums, q.den)


def fft_poly(p: BasisPolynomial) -> BasisPolynomial:
    """Falling factorial transform: monomial coefficients re-read over (x)_n."""
    return _reread(p, Basis.MONOMIAL, Basis.FALLING)


def ifft_poly(p: BasisPolynomial) -> BasisPolynomial:
    """Inverse falling transform: falling coefficients re-read over x^n."""
    return _reread(p, Basis.FALLING, Basis.MONOMIAL)


def rft_poly(p: BasisPolynomial) -> BasisPolynomial:
    """Rising factorial transform: monomial coefficients re-read over x^(rising n)."""
    return _reread(p, Basis.MONOMIAL, Basis.RISING)


def irft_poly(p: BasisPolynomial) -> BasisPolynomial:
    """Inverse rising transform: rising coefficients re-read over x^n."""
    return _reread(p, Basis.RISING, Basis.MONOMIAL)


def _binomial(u: Sequence[int], v: Sequence[int], ks: Iterable[int]) -> list[int]:
    """h_k = sum_n binom(k,n) u_(k-n) v_n for each k in ks, on integers.

    u covers 0..max(ks); v may stop early, its missing terms are zero. With
    u and v numerators over denominators du and dv, h_k is over du dv;
    binom(k,n) is stepped by its ratio.
    """
    out = []
    for k in ks:
        acc, c = 0, 1
        for n in range(min(k + 1, len(v))):
            acc += c * u[k - n] * v[n]
            c = c * (k - n) // (n + 1)
        out.append(acc)
    return out


def _samples(f: SequenceSource, m: int, what: str) -> tuple[list[int], int]:
    """f(0), ..., f(m-1) as numerators over one denominator, evaluating the
    source once per index; NaN or inf raises ValueError naming the function what.

    A polynomial is read from its falling coefficients c as
    p(n) = sum_j binom(n,j) j! c_j.
    """
    if not isinstance(f, BasisPolynomial):
        return _integers(map(f, range(m)), what)
    c = convert_basis(f, Basis.FALLING)
    return _falling_samples(c.nums, m), c.den


def binomial_transform(f: SequenceSource, x: int) -> Fraction:
    """BT(f)(x) = sum_{n=0}^{x} binom(x,n) f(n) at nonnegative integer x,
    the binomial convolution of f with 1s."""
    return binomial_convolution(lambda n: 1, f, x)


def inverse_binomial_transform(f: SequenceSource, x: int) -> Fraction:
    """BT^{-1}(f)(x) = sum_{n=0}^{x} binom(x,n) (-1)^(x-n) f(n), the binomial
    convolution of f with (-1)^n.

    The finite alternating realization; BT^{-1}(BT(f)) = f pointwise.
    """
    return binomial_convolution(lambda n: (-1) ** n, f, x)


def binomial_convolution(f: SequenceSource, g: SequenceSource, x: int) -> Fraction:
    """conv(f,g)(x) = sum_{n=0}^{x} binom(x,n) f(x-n) g(n); commutative."""
    if x < 0:
        raise ValueError("argument must be a nonnegative integer")
    (u, du), (v, dv) = (_samples(h, x + 1, "binomial_convolution") for h in (f, g))
    return Fraction(_binomial(u, v, [x])[0], du * dv)


def egf_product_coeffs(F: SequenceSource, G: SequenceSource, K: int) -> list[Fraction]:
    """h_k for k < K with sum h_k x^k / k! = (EGF of F) * (EGF of G).

    h_k = conv(F, G)(k); iterating the function realizes higher EGF powers.
    """
    if K < 1:
        raise ValueError("order K must be >= 1")
    (u, du), (v, dv) = (_samples(H, K, "egf_product_coeffs") for H in (F, G))
    return [Fraction(h, du * dv) for h in _binomial(u, v, range(K))]


def hadamard_ifft(f: BasisPolynomial, g: BasisPolynomial) -> BasisPolynomial:
    """FFT^{-1}(f*g), the inverse falling transform of the product f*g.

    The paper computes it as sum_k d^k(FFT^{-1} f) d^k(FFT^{-1} g) x^k/k!
    (eq58); here it is one monomial product, an integer convolution of the
    monomial coefficients, and one conversion, O(d^2). f and g may be given
    in any bases.
    """
    return ifft_poly(multiply(convert_basis(f, Basis.MONOMIAL), convert_basis(g, Basis.MONOMIAL)))


def coefficient_extract(f: SequenceSource, n: int) -> Fraction:
    """n-th power-series coefficient of f via the e^{-x}-weighted Newton sum.

    f supplies Taylor coefficients (a BasisPolynomial or a callable j -> a_j);
    at integer n the chain a(n) = FFT(e^{-x} f(x))(n) / n! is a finite exact
    sum. On EGF coefficients j! a_j, e^{-x} is the inverse binomial transform
    and FFT at n the binomial transform.
    """
    if n < 0:
        raise ValueError("index must be nonnegative")
    if isinstance(f, BasisPolynomial):
        mono = convert_basis(f, Basis.MONOMIAL)
        a, d = mono.nums[:n + 1], mono.den
    else:
        a, d = _samples(f, n + 1, "coefficient_extract")
    egf = [math.factorial(j) * c for j, c in enumerate(a)]
    weighted = _times_exp(egf, -1, n + 1)
    return Fraction(_binomial([1] * (n + 1), weighted, [n])[0], d * math.factorial(n))


def newton_from_samples(f: SequenceSource, degree: int) -> BasisPolynomial:
    """Falling-basis polynomial interpolating f on 0..degree (Newton series).

    Coefficient of (x)_j is the forward difference D^j f(0) / j!, the
    inverse binomial transform of the samples at j. Exact for
    polynomial-sampled sequences of the given degree.
    """
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    v, d = _samples(f, degree + 1, "newton_from_samples")
    nums, den = _newton(v)
    return _reduced(Basis.FALLING, nums, d * den)
