"""Named polynomial families: Touchard, Z_n, generalized Laguerre, Charlier.

Touchard T_n collects Stirling-second numbers, Z_n collects signed
Stirling-first numbers over the falling basis. Laguerre builds its
coefficients as integer numerators over one denominator, so rational
(including negative) alpha is exact. Charlier follows the 2F0 normalization
c_n(x, a) = sum_k binom(n,k) binom(x,k) k! (-a)^(-k), the falling-basis
polynomial sum_k binom(n,k) (-1/a)^k (x)_k, a finite Newton series in x,
evaluated exactly at x by the exact layer's integer Horner.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .combinatorics import Scalar, _argument_ratio, stirling_first_signed, stirling_second
from .polynomial import Basis, BasisPolynomial, _canonical, _reduced


def touchard(n: int) -> BasisPolynomial:
    """T_n(x) = sum_k S(n,k) x^k in the monomial basis; T_0 = 1."""
    if n < 0:
        raise ValueError("index must be nonnegative")
    return _canonical(Basis.MONOMIAL, [stirling_second(n, k) for k in range(n + 1)], 1)


def z_poly(n: int) -> BasisPolynomial:
    """Z_n = sum_k s(n,k) (x)_k in the falling basis (signed Stirling-first)."""
    if n < 0:
        raise ValueError("index must be nonnegative")
    return _canonical(Basis.FALLING, [stirling_first_signed(n, k) for k in range(n + 1)], 1)


def laguerre(n: int, alpha: Scalar) -> BasisPolynomial:
    """Generalized Laguerre L_n^(alpha) as a monomial polynomial in y.

    L_n^(alpha)(y) = sum_k binom(n+alpha, n-k) (-y)^k / k!, valid for any
    rational alpha.
    """
    if n < 0:
        raise ValueError("index must be nonnegative")
    p, q = _argument_ratio(alpha, "laguerre")
    # binom(n+alpha, n-k)/k! = binom(n,k) q^k P_k / (n! q^n), with
    # P_k = prod_{k<j<=n} (p + j q), stepped down from P_n = 1
    nums, P, qk = [], 1, q ** n
    for k in range(n, -1, -1):
        nums.append((-1) ** k * math.comb(n, k) * qk * P)
        P *= p + k * q
        qk //= q
    return _reduced(Basis.MONOMIAL, nums[::-1], math.factorial(n) * q ** n)


def _charlier_polynomial(n: int, a: Scalar) -> BasisPolynomial:
    """c_n(., a) in the falling basis, a read exactly; a must be nonzero."""
    if n < 0:
        raise ValueError("index must be nonnegative")
    if a == 0:
        raise ValueError("Charlier parameter a must be nonzero")
    # sum_k binom(n,k) r^k (x)_k over v^n, for r = -1/a = u/v
    r = -1 / Fraction(*_argument_ratio(a, "charlier"))
    u, v = r.numerator, r.denominator
    nums = [math.comb(n, k) * u ** k * v ** (n - k) for k in range(n + 1)]
    return _reduced(Basis.FALLING, nums, v ** n)


def charlier(n: int, x: Scalar, a: Scalar) -> Scalar:
    """Charlier value c_n(x, a) = sum_k binom(n,k) binom(x,k) k! (-a)^(-k), exact
    for rational inputs; when x or a is a float, the exact value rounded once.
    Raises ValueError for a = 0 or a NaN or infinite x or a."""
    v = _charlier_polynomial(n, a).eval(Fraction(*_argument_ratio(x, "charlier")))
    return float(v) if isinstance(x, float) or isinstance(a, float) else v


def charlier_orthogonality_sum(n: int, m: int, a: float, K: int) -> float:
    """Partial sum over k < K of a^k/k! * c_n(k,a) c_m(k,a) (Poisson weight);
    OverflowError when the sum leaves the float range."""
    if K < 1:
        raise ValueError("truncation K must be >= 1")
    if not 0 < a < math.inf:
        raise ValueError(f"weight parameter a must be finite and positive, got {a!r}")
    cn, cm = _charlier_polynomial(n, a), _charlier_polynomial(m, a)
    acc = 0.0
    w = 1.0  # a^k / k!
    for k in range(K):
        if k > 0:
            w *= a / k
        acc += w * cn.eval(float(k)) * cm.eval(float(k))
    if not math.isfinite(acc):
        raise OverflowError(f"charlier_orthogonality_sum: the sum at a = {a!r} is {acc!r}")
    return acc
