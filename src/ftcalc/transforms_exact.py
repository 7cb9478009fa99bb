"""Exact transforms on polynomials and integer-indexed sequences.

The four transforms are coefficient reinterpretations between the monomial
and factorial bases. Binomial transform / convolution are finite sums at
nonnegative integer arguments (the infinite-argument versions live in the
numeric layer). All arithmetic is rational. hadamard_ifft, the inverse
transform of a product, is one monomial product and one reinterpretation.

Every sequence function is one identity, the EGF product
h_k = sum_n binom(k,n) u_(k-n) v_n, run by one integer kernel: the binomial
transform pairs a sequence with 1s, its inverse with (-1)^n; Newton
interpolation is the inverse transform over j!; coefficient extraction is
FFT(e^{-x} f)(n) / n! on EGF coefficients. Each source is sampled once at
0..m-1, a polynomial through its falling coefficients c as
p(n) = sum_j binom(n,j) j! c_j, the same kernel against 1s.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Iterable, Sequence, Union

from .polynomial import Basis, BasisPolynomial, _integers, convert_basis, multiply

SequenceSource = Union[BasisPolynomial, Callable[[int], Fraction]]


def fft_poly(p: BasisPolynomial) -> BasisPolynomial:
    """Falling factorial transform: monomial coefficients re-read over (x)_n."""
    mono = convert_basis(p, Basis.MONOMIAL)
    return BasisPolynomial(Basis.FALLING, mono.coeffs)


def ifft_poly(p: BasisPolynomial) -> BasisPolynomial:
    """Inverse falling transform: falling coefficients re-read over x^n."""
    fall = convert_basis(p, Basis.FALLING)
    return BasisPolynomial(Basis.MONOMIAL, fall.coeffs)


def rft_poly(p: BasisPolynomial) -> BasisPolynomial:
    """Rising factorial transform: monomial coefficients re-read over x^(rising n)."""
    mono = convert_basis(p, Basis.MONOMIAL)
    return BasisPolynomial(Basis.RISING, mono.coeffs)


def irft_poly(p: BasisPolynomial) -> BasisPolynomial:
    """Inverse rising transform: rising coefficients re-read over x^n."""
    ris = convert_basis(p, Basis.RISING)
    return BasisPolynomial(Basis.MONOMIAL, ris.coeffs)


def _binomial(u: Sequence[Fraction], v: Sequence[Fraction], ks: Iterable[int]) -> list[Fraction]:
    """h_k = sum_n binom(k,n) u_(k-n) v_n for each k in ks.

    u covers 0..max(ks); v may stop early, its missing terms are zero. The
    sums run on integer numerators over each input's lcm denominator, with
    binom(k,n) stepped by its ratio, and build one Fraction per output.
    """
    nu, du = _integers(u)
    nv, dv = _integers(v)
    out = []
    for k in ks:
        acc, c = 0, 1
        for n in range(min(k + 1, len(nv))):
            acc += c * nu[k - n] * nv[n]
            c = c * (k - n) // (n + 1)
        out.append(Fraction(acc, du * dv))
    return out


def _signs(m: int) -> list[int]:
    return [(-1) ** n for n in range(m)]


def _samples(f: SequenceSource, m: int) -> list[Fraction]:
    """f(0), ..., f(m-1), evaluating the source once per index.

    A polynomial is read from its falling coefficients c as
    p(n) = sum_j binom(n,j) j! c_j.
    """
    if not isinstance(f, BasisPolynomial):
        return [Fraction(f(n)) for n in range(m)]
    c = convert_basis(f, Basis.FALLING).coeffs
    return _binomial([1] * m, [math.factorial(j) * a for j, a in enumerate(c)], range(m))


def binomial_transform(f: SequenceSource, x: int) -> Fraction:
    """BT(f)(x) = sum_{n=0}^{x} binom(x,n) f(n) at nonnegative integer x."""
    if x < 0:
        raise ValueError("argument must be a nonnegative integer")
    return _binomial([1] * (x + 1), _samples(f, x + 1), [x])[0]


def inverse_binomial_transform(f: SequenceSource, x: int) -> Fraction:
    """BT^{-1}(f)(x) = sum_{n=0}^{x} binom(x,n) (-1)^(x-n) f(n).

    The finite alternating realization; BT^{-1}(BT(f)) = f pointwise.
    """
    if x < 0:
        raise ValueError("argument must be a nonnegative integer")
    return _binomial(_signs(x + 1), _samples(f, x + 1), [x])[0]


def binomial_convolution(f: SequenceSource, g: SequenceSource, x: int) -> Fraction:
    """conv(f,g)(x) = sum_{n=0}^{x} binom(x,n) f(x-n) g(n); commutative."""
    if x < 0:
        raise ValueError("argument must be a nonnegative integer")
    return _binomial(_samples(f, x + 1), _samples(g, x + 1), [x])[0]


def egf_product_coeffs(F: SequenceSource, G: SequenceSource, K: int) -> list[Fraction]:
    """h_k for k < K with sum h_k x^k / k! = (EGF of F) * (EGF of G).

    h_k = conv(F, G)(k); iterating the function realizes higher EGF powers.
    """
    if K < 1:
        raise ValueError("order K must be >= 1")
    return _binomial(_samples(F, K), _samples(G, K), range(K))


def hadamard_ifft(f: BasisPolynomial, g: BasisPolynomial) -> BasisPolynomial:
    """FFT^{-1}(f*g), the inverse falling transform of the product f*g.

    The paper computes it as sum_k d^k(FFT^{-1} f) d^k(FFT^{-1} g) x^k/k!
    (eq58); here it is one integer convolution of the monomial coefficients
    and one conversion, O(d^2). f and g may be given in any bases.
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
        a = convert_basis(f, Basis.MONOMIAL).coeffs[:n + 1]
    else:
        a = _samples(f, n + 1)
    egf = [math.factorial(j) * c for j, c in enumerate(a)]
    weighted = _binomial(_signs(n + 1), egf, range(n + 1))
    return _binomial([1] * (n + 1), weighted, [n])[0] / math.factorial(n)


def newton_from_samples(f: SequenceSource, degree: int) -> BasisPolynomial:
    """Falling-basis polynomial interpolating f on 0..degree (Newton series).

    Coefficient of (x)_j is the forward difference D^j f(0) / j!, the
    inverse binomial transform of the samples at j. Exact for
    polynomial-sampled sequences of the given degree.
    """
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    m = degree + 1
    diffs = _binomial(_signs(m), _samples(f, m), range(m))
    return BasisPolynomial(Basis.FALLING, [d / math.factorial(j) for j, d in enumerate(diffs)])
