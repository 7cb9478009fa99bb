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

from .combinatorics import Scalar, _argument_ratio, stirling_row
from .polynomial import Basis, BasisPolynomial, _canonical, _reduced


def touchard(n: int) -> BasisPolynomial:
    """T_n(x) = sum_k S(n,k) x^k in the monomial basis; T_0 = 1."""
    if n < 0:
        raise ValueError("index must be nonnegative")
    return _canonical(Basis.MONOMIAL, stirling_row(False, n), 1)


def z_poly(n: int) -> BasisPolynomial:
    """Z_n = sum_k s(n,k) (x)_k in the falling basis (signed Stirling-first)."""
    if n < 0:
        raise ValueError("index must be nonnegative")
    return _canonical(Basis.FALLING, [-c if (n - k) % 2 else c
                                      for k, c in enumerate(stirling_row(True, n))], 1)


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


def _charlier_polynomial(n: int, p: int, q: int) -> BasisPolynomial:
    """c_n(., a) in the falling basis at a = p/q, read exactly; a must be nonzero."""
    if n < 0:
        raise ValueError("index must be nonnegative")
    if not p:
        raise ValueError("Charlier parameter a must be nonzero")
    # sum_k binom(n,k) r^k (x)_k over v^n, for r = -1/a = u/v
    u, v = (-q, p) if p > 0 else (q, -p)
    nums = [math.comb(n, k) * u ** k * v ** (n - k) for k in range(n + 1)]
    return _reduced(Basis.FALLING, nums, v ** n)


def charlier(n: int, x: Scalar, a: Scalar) -> Scalar:
    """Charlier value c_n(x, a) = sum_k binom(n,k) binom(x,k) k! (-a)^(-k), exact
    for rational inputs; when x or a is a float, the exact value rounded once.
    Raises ValueError for a = 0 or a NaN or infinite x or a."""
    v = _charlier_polynomial(n, *_argument_ratio(a, "charlier")).eval(
        Fraction(*_argument_ratio(x, "charlier")))
    return float(v) if isinstance(x, float) or isinstance(a, float) else v


def charlier_orthogonality_sum(n: int, m: int, a: Scalar, K: int) -> float:
    """Partial sum over k < K of a^k/k! * c_n(k,a) c_m(k,a) (Poisson weight);
    ValueError for an a that is not positive or whose float is 0 or inf,
    OverflowError when the sum leaves the float range."""
    if K < 1:
        raise ValueError("truncation K must be >= 1")
    try:
        u, q = _argument_ratio(a, "charlier_orthogonality_sum")
        positive = u > 0 and u / q > 0  # u / q raises OverflowError past the float range
    except (ValueError, OverflowError):
        positive = False  # refused below with the weight's own text
    if not positive:
        raise ValueError(f"weight parameter a must be finite and positive, got {a!r}")
    cn, cm = _charlier_polynomial(n, u, q), _charlier_polynomial(m, u, q)
    acc = 0.0
    w = 1.0  # a^k / k!
    for k in range(K):
        if k > 0:
            w *= u / (q * k)
        acc += w * cn.eval(float(k)) * cm.eval(float(k))
    if not math.isfinite(acc):
        raise OverflowError(f"charlier_orthogonality_sum: the sum at a = {a!r} is {acc!r}")
    return acc
