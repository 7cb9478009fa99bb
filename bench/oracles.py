"""Output oracles that do not run the code under test.

Exact results are checked modulo the prime P = 2^61 - 1 at a random residue
point. Each check is an identity between values, computed here from the
coefficient vectors with plain integer arithmetic, so ftcalc's conversion
tables, operators and evaluators are never consulted. Over Q the identities
hold exactly; a wrong result survives a check only if the point happens to be
a root of a nonzero polynomial of degree at most a few hundred, which has
probability below 1e-15 per check.

Numeric results are checked against closed forms (mpmath for the
incomplete-gamma row), within the tolerance the identity suite applies to the
same evaluator family.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

P = (1 << 61) - 1


def res(v) -> int:
    """Residue of a rational (Fraction or int) modulo P."""
    v = Fraction(v)
    return v.numerator % P * pow(v.denominator % P, -1, P) % P


def _basis_name(poly) -> str:
    return getattr(poly.basis, "value", poly.basis)


def value_at(basis: str, coeffs, x: int) -> int:
    """sum_n c_n b_n(x) mod P, with b_n = x^n, (x)_n or x^(rising n)."""
    return _value(basis, [res(c) for c in coeffs], x)


def _value(basis: str, rs: list[int], x: int) -> int:
    acc, b = 0, 1
    for n, r in enumerate(rs):
        if n:
            if basis == "monomial":
                b = b * x % P
            elif basis == "falling":
                b = b * (x - n + 1) % P
            else:
                b = b * (x + n - 1) % P
        acc = (acc + r * b) % P
    return acc


def pval(poly, x: int) -> int:
    return value_at(_basis_name(poly), poly.coeffs, x)


def monomial_coeffs(poly) -> list[int]:
    """Monomial coefficients mod P by nested (Horner) expansion of the basis."""
    basis = _basis_name(poly)
    cs = [res(c) for c in poly.coeffs]
    if basis == "monomial":
        return cs
    acc: list[int] = []
    for n in range(len(cs) - 1, -1, -1):
        # acc <- acc * (x + root) + c_n, as (x)_{n+1} = (x)_n (x - n)
        root = -n if basis == "falling" else n
        nxt = [0] * (len(acc) + 1)
        for i, a in enumerate(acc):
            nxt[i + 1] = (nxt[i + 1] + a) % P
            nxt[i] = (nxt[i] + a * root) % P
        nxt[0] = (nxt[0] + cs[n]) % P
        acc = nxt
    return acc


def taylor_at(poly, x: int) -> list[int]:
    """t_j = p^(j)(x) / j! mod P (coefficients of p(x + u) in u)."""
    # repeated synthetic division by (u - x) gives the Taylor shift
    out = []
    cur = monomial_coeffs(poly)
    while cur:
        acc = 0
        quot = [0] * (len(cur) - 1)
        for i in range(len(cur) - 1, -1, -1):
            acc = (acc * x + cur[i]) % P
            if i:
                quot[i - 1] = acc
        out.append(acc)
        cur = quot
    return out


def diffs_at(poly, x: int) -> list[int]:
    """Delta^j p(x) mod P for j = 0..deg p (forward differences)."""
    basis, rs = _basis_name(poly), [res(c) for c in poly.coeffs]
    row = [_value(basis, rs, x + i) for i in range(max(len(rs), 1))]
    out = []
    while row:
        out.append(row[0])
        row = [(row[i + 1] - row[i]) % P for i in range(len(row) - 1)]
    return out


def inv(a: int) -> int:
    return pow(a % P, -1, P)


def inv_fact(j: int) -> int:
    return inv(math.factorial(j) % P)


def falling_mod(a: int, j: int) -> int:
    out = 1
    for i in range(j):
        out = out * (a - i) % P
    return out


def operator_value(kind: str, a, poly, x: int) -> int:
    """(L p)(x) mod P for the operator kinds of `apply_operator` with k = 1,
    from p's Taylor jet or forward differences at x."""
    if kind == "shift":
        return pval(poly, (x + res(a)) % P)
    if kind == "backward_difference":
        return (pval(poly, x) - pval(poly, x - 1)) % P
    if kind == "scale_op":
        # x*nabla is diagonal on the falling basis with eigenvalue n, so
        # a^{x nabla} scales the n-th Newton coefficient by a^n.
        dz = diffs_at(poly, 0)
        ar, acc, b = res(a), 0, 1
        for n, dn in enumerate(dz):
            if n:
                b = b * (x - n + 1) % P
            acc = (acc + dn * inv_fact(n) % P * pow(ar, n, P) % P * b) % P
        return acc
    if kind in ("derivative", "log1p_derivative", "binom_shift"):
        t = taylor_at(poly, x)
        if kind == "derivative":
            return t[1] if len(t) > 1 else 0
        if kind == "log1p_derivative":
            # log(1+d) = sum_j (-1)^(j+1) d^j / j, and d^j p(x) = j! t_j
            return sum((-1) ** (j + 1) * math.factorial(j - 1) % P * t[j]
                       for j in range(1, len(t))) % P
        ar = res(a)
        return sum(falling_mod(ar, j) * t[j] for j in range(len(t))) % P
    dl = diffs_at(poly, x)
    if kind == "forward_difference":
        return dl[1] if len(dl) > 1 else 0
    if kind == "expdiff_minus1":
        return sum(dl[j] * inv_fact(j) for j in range(1, len(dl))) % P
    if kind == "exp_shift":
        ar = res(a)
        return sum(pow(ar, j, P) * inv_fact(j) % P * dl[j] for j in range(len(dl))) % P
    raise ValueError(f"no oracle for operator kind {kind!r}")


def laguerre_value(n: int, alpha, y: int) -> int:
    """L_n^(alpha)(y) mod P by the three-term recurrence."""
    al = res(alpha)
    if n == 0:
        return 1
    prev, cur = 1, (1 + al - y) % P
    for k in range(1, n):
        nxt = ((2 * k + 1 + al - y) * cur - (k + al) * prev) % P * inv(k + 1) % P
        prev, cur = cur, nxt
    return cur


def charlier_value(n: int, x, a) -> int:
    """c_n(x, a) mod P by a c_{k+1} = (k + a - x) c_k - k c_{k-1}."""
    xr, ar = res(x), res(a)
    prev, cur = 0, 1
    for k in range(n):
        prev, cur = cur, ((k + ar - xr) * cur - k * prev) % P * inv(ar) % P
    return cur


def binom_conv_value(f, g, x: int) -> int:
    """sum_n binom(x, n) f(x - n) g(n) mod P."""
    return sum(math.comb(x, n) % P * pval(f, x - n) % P * pval(g, n)
               for n in range(x + 1)) % P


# ------------------------------------------------------------------ numeric

def close(value: float, ref: float, tol: float) -> bool:
    """|value - ref| <= tol * max(1, |ref|), the relative-or-absolute rule
    the numeric evaluators use for their own stop criteria."""
    return math.isfinite(value) and abs(value - ref) <= tol * max(1.0, abs(ref))


def source_fft(kind: str, a: float, s: float) -> float:
    """Newton-sum falling transform sum_n (s)_n a_n of a named source."""
    if kind == "exp":
        return (1.0 + a) ** s
    if kind in ("sin", "cos"):
        z = (1 + 1j * a) ** s
        return z.imag if kind == "sin" else z.real
    if kind == "geometric":
        # Borel sum of sum_n (s)_n r^n: e^{1/r} r^s Gamma(s + 1, 1/r)
        import mpmath as mp
        r = mp.mpf(a)
        return float(mp.e ** (1 / r) * r ** s * mp.gammainc(s + 1, 1 / r))
    raise ValueError(kind)


def source_ifft(kind: str, a: float, x: float) -> float:
    """e^{-x} sum_n f(n) x^n / n! of a named source's integer samples."""
    if kind == "exp":
        return math.exp(x * (math.exp(a) - 1.0))
    if kind in ("sin", "cos"):
        z = cmath.exp(x * (cmath.exp(1j * a) - 1.0))
        return z.imag if kind == "sin" else z.real
    if kind == "geometric":
        return math.exp(x * (a - 1.0))
    if kind == "gamma-samples":  # sum_n x^n = 1/(1-x), |x| < 1
        return math.exp(-x) / (1.0 - x)
    raise ValueError(kind)


def source_irft(kind: str, a: float, x: float) -> float:
    """e^{x} sum_n (-1)^n f(-n) x^n / n! of a named source."""
    if kind == "exp":
        return math.exp(x * (1.0 - math.exp(-a)))
    if kind in ("sin", "cos"):
        z = cmath.exp(x * (1.0 - cmath.exp(-1j * a)))
        return z.imag if kind == "sin" else z.real
    if kind == "geometric":
        return math.exp(x * (1.0 - 1.0 / a))
    raise ValueError(kind)


def source_rft(kind: str, a: float, s: float) -> float:
    """(1/Gamma(s)) int_0^inf f(t) t^(s-1) e^(-t) dt of a named source."""
    if kind == "exp":
        return (1.0 - a) ** (-s)
    if kind in ("sin", "cos"):
        z = (1 - 1j * a) ** (-s)
        return z.imag if kind == "sin" else z.real
    if kind == "geometric":
        return (1.0 - math.log(a)) ** (-s)
    raise ValueError(kind)
