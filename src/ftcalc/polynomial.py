"""Multi-basis polynomial arithmetic and the finite operator calculus.

A BasisPolynomial stores exact rational coefficients against one of three
bases: monomial x^n, falling factorial (x)_n, rising factorial x^(rising n).

Conversions and products run on integers: each kernel turns its input into
integer numerators over their lcm denominator once, loops on Python ints and
builds one Fraction per output coefficient. A conversion is one pass over a
triangle of Stirling numbers to or from the monomial basis, and of Lah
numbers between the falling and rising bases.

Operators act exactly. Every operator except scale_op is shift-invariant and
is one row of a table: a work basis plus a weight series w, read as
sum_j w_j L^j where L is d on the monomial basis and the forward difference D
on the falling basis. The rows cover d^k, D^k, nabla^k, log(1+d)^k,
(e^D - 1)^k, the shift e^{ad}, (1+d)^a and e^{aD}; the inverses of log(1+d)
and e^D - 1 use reciprocal series. One routine applies every row, and every
series terminates because d and D are nilpotent on polynomials. scale_op,
a^{x nabla}, is diagonal on the falling basis instead.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import partial
from itertools import repeat
from typing import Callable, Iterable, Sequence, Union

from .combinatorics import lah_row, stirling_first_signed, stirling_row, stirling_second

Scalar = Union[Fraction, int, float]


class Basis(str, Enum):
    MONOMIAL = "monomial"
    FALLING = "falling"
    RISING = "rising"


class BasisMismatchError(ValueError):
    pass


def _normalize(coeffs: Iterable) -> tuple[Fraction, ...]:
    out = [Fraction(c) for c in coeffs]
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


@dataclass(frozen=True)
class BasisPolynomial:
    """Finite coefficient vector tagged with a basis; canonical form.

    coeffs[n] multiplies the n-th basis element; trailing zeros are stripped
    so equality is structural equality. The zero polynomial has no coeffs.
    """

    basis: Basis
    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "basis", Basis(self.basis))
        object.__setattr__(self, "coeffs", _normalize(self.coeffs))

    @property
    def degree(self) -> int:
        # degree of the zero polynomial is -1 by convention here
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, n: int) -> Fraction:
        return self.coeffs[n] if 0 <= n < len(self.coeffs) else Fraction(0)

    def eval(self, x: Scalar) -> Scalar:
        """Value at x; exact when x is Fraction/int, float when x is float."""
        if isinstance(x, float):
            acc, basis_val = 0.0, 1.0
        else:
            x = Fraction(x)
            acc, basis_val = Fraction(0), Fraction(1)
        for n, c in enumerate(self.coeffs):
            if n > 0:
                if self.basis is Basis.MONOMIAL:
                    basis_val = basis_val * x
                elif self.basis is Basis.FALLING:
                    basis_val = basis_val * (x - (n - 1))
                else:
                    basis_val = basis_val * (x + (n - 1))
            if isinstance(x, float):
                acc += float(c) * basis_val
            else:
                acc += c * basis_val
        return acc

    def __add__(self, other: "BasisPolynomial") -> "BasisPolynomial":
        if self.basis is not other.basis:
            raise BasisMismatchError("cannot add polynomials in different bases")
        n = max(len(self.coeffs), len(other.coeffs))
        return BasisPolynomial(self.basis, [self.coeff(i) + other.coeff(i) for i in range(n)])

    def __sub__(self, other: "BasisPolynomial") -> "BasisPolynomial":
        return self + other.scale(Fraction(-1))

    def scale(self, c: Scalar) -> "BasisPolynomial":
        c = Fraction(c)
        return BasisPolynomial(self.basis, [c * a for a in self.coeffs])

    def to_json(self) -> dict:
        return {"basis": self.basis.value, "coeffs": [str(c) for c in self.coeffs]}

    @classmethod
    def from_json(cls, obj: dict) -> "BasisPolynomial":
        if not isinstance(obj, dict) or set(obj) != {"basis", "coeffs"}:
            raise ValueError("polynomial JSON must have exactly 'basis' and 'coeffs'")
        try:
            basis = Basis(obj["basis"])
        except ValueError:
            raise ValueError(f"unknown basis {obj['basis']!r}") from None
        coeffs = obj["coeffs"]
        if not isinstance(coeffs, list) or not all(isinstance(c, str) for c in coeffs):
            raise ValueError("'coeffs' must be a list of rational strings")
        try:
            parsed = [Fraction(c) for c in coeffs]
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"bad rational coefficient: {exc}") from None
        return cls(basis, parsed)


def poly(basis: Basis | str, coeffs: Iterable) -> BasisPolynomial:
    return BasisPolynomial(Basis(basis), coeffs)


def monomial(coeffs: Iterable) -> BasisPolynomial:
    return BasisPolynomial(Basis.MONOMIAL, coeffs)


def falling_unit(n: int) -> BasisPolynomial:
    """The basis element (x)_n as a falling-basis polynomial."""
    return BasisPolynomial(Basis.FALLING, [0] * n + [1])


def _integers(coeffs: Sequence[Fraction]) -> tuple[list[int], int]:
    """Numerators of coeffs over their lcm denominator, and that denominator."""
    den = math.lcm(*(c.denominator for c in coeffs))
    return [c.numerator * (den // c.denominator) for c in coeffs], den


def convert_basis(p: BasisPolynomial, target: Basis | str) -> BasisPolynomial:
    """Re-express p in the target basis; exact, round trips are identities.

    Each source element expands as b_n = sum_k (+-1)^(n-k) T(n,k) b'_k with a
    triangle T of nonnegative integers: S(n,k) for x^n in either factorial
    basis, c(n,k) for either factorial in x^k, and the Lah numbers between
    the factorial bases: x^(rising n) = sum_k L(n,k) (x)_k. The sign is
    alternating exactly when the source is falling or the target is rising.
    """
    target = Basis(target)
    if p.basis is target:
        return p
    row = (partial(stirling_row, False) if p.basis is Basis.MONOMIAL
           else partial(stirling_row, True) if target is Basis.MONOMIAL else lah_row)
    # (-1)^(n-k) = (-1)^n (-1)^k: sign the input by n, the output by k
    sign = -1 if p.basis is Basis.FALLING or target is Basis.RISING else 1
    nums, den = _integers(p.coeffs)
    out = [0] * len(nums)
    for n, a in enumerate(nums):
        if a:
            out[:n + 1] = map(operator.add, out, map(operator.mul, row(n), repeat(a * sign ** n)))
    return BasisPolynomial(target, [Fraction(c * sign ** k, den) for k, c in enumerate(out)])


def negate_argument(p: BasisPolynomial) -> BasisPolynomial:
    """Polynomial representing x -> p(-x).

    Monomial stays monomial; falling input yields a rising-basis result and
    vice versa, via x^(rising n) = (-1)^n (-x)_n.
    """
    flipped = [(-1) ** n * c for n, c in enumerate(p.coeffs)]
    if p.basis is Basis.MONOMIAL:
        return BasisPolynomial(Basis.MONOMIAL, flipped)
    other = Basis.RISING if p.basis is Basis.FALLING else Basis.FALLING
    return BasisPolynomial(other, flipped)


def shift(p: BasisPolynomial, a: Scalar) -> BasisPolynomial:
    """q with q(x) = p(x+a), returned in the basis of p."""
    return apply_operator(shift_op(a), p)


def scale_argument(p: BasisPolynomial, a: Scalar) -> BasisPolynomial:
    """q with q(x) = p(a*x), returned in the basis of p."""
    a = Fraction(a)
    mono = convert_basis(p, Basis.MONOMIAL)
    out = []
    pw = Fraction(1)
    for c in mono.coeffs:
        out.append(c * pw)
        pw *= a
    return convert_basis(BasisPolynomial(Basis.MONOMIAL, out), p.basis)


def multiply(p: BasisPolynomial, q: BasisPolynomial) -> BasisPolynomial:
    """Exact product of two polynomials given in the same basis.

    Monomial: coefficient convolution. Falling: the linearization
    (x)_n (x)_m = sum_k binom(n,k) binom(m,k) k! (x)_{n+m-k}. Rising: by
    reflection through the falling rule. Products run on integer numerators.
    """
    if p.basis is not q.basis:
        raise BasisMismatchError("multiply requires operands in the same basis")
    if p.is_zero() or q.is_zero():
        return BasisPolynomial(p.basis, [])
    if p.basis is Basis.MONOMIAL:
        pn, dp = _integers(p.coeffs)
        qn, dq = _integers(q.coeffs)
        out = [0] * (len(pn) + len(qn) - 1)
        for i, a in enumerate(pn):
            if a:
                out[i:i + len(qn)] = map(operator.add, out[i:], map(operator.mul, qn, repeat(a)))
        return BasisPolynomial(Basis.MONOMIAL, [Fraction(c, dp * dq) for c in out])
    if p.basis is Basis.FALLING:
        return _multiply_falling(p, q)
    pf = negate_argument(p)
    qf = negate_argument(q)
    return negate_argument(_multiply_falling(pf, qf))


def _multiply_falling(p: BasisPolynomial, q: BasisPolynomial) -> BasisPolynomial:
    pn, dp = _integers(p.coeffs)
    qn, dq = _integers(q.coeffs)
    out = [0] * (len(pn) + len(qn) - 1)
    for n, a in enumerate(pn):
        if not a:
            continue
        for m, b in enumerate(qn):
            if not b:
                continue
            # w = a b binom(n,k) binom(m,k) k!, stepped by its ratio in k
            w = a * b
            for k in range(min(n, m) + 1):
                out[n + m - k] += w
                w = w * (n - k) * (m - k) // (k + 1)
    return BasisPolynomial(Basis.FALLING, [Fraction(c, dp * dq) for c in out])


# --- operator calculus -----------------------------------------------------
#
# Every operator here except scale_op commutes with shifts, hence is a power
# series in a lowering operator L (Rota, Kahaner & Odlyzko, "Finite operator
# calculus", 1973): L b_n = n b_(n-1) holds for d on x^n and for D on (x)_n.


class OperatorKind(str, Enum):
    DERIVATIVE = "derivative"
    FORWARD_DIFFERENCE = "forward_difference"
    BACKWARD_DIFFERENCE = "backward_difference"
    SHIFT = "shift"
    LOG1P_DERIVATIVE = "log1p_derivative"
    EXPDIFF_MINUS1 = "expdiff_minus1"
    BINOM_SHIFT = "binom_shift"  # (1 + d/dx)^a
    EXP_SHIFT = "exp_shift"  # e^{a * forward difference}
    SCALE_OP = "scale_op"  # a^{x * backward difference}


_POWER_KINDS = {
    OperatorKind.DERIVATIVE,
    OperatorKind.FORWARD_DIFFERENCE,
    OperatorKind.BACKWARD_DIFFERENCE,
    OperatorKind.LOG1P_DERIVATIVE,
    OperatorKind.EXPDIFF_MINUS1,
}


@dataclass(frozen=True)
class OperatorExpr:
    kind: OperatorKind
    k: int = 1
    a: Fraction | None = None

    def __post_init__(self):
        object.__setattr__(self, "kind", OperatorKind(self.kind))
        if self.kind in _POWER_KINDS:
            if self.k < 0:
                raise ValueError(f"{self.kind.value} power must be nonnegative")
            if self.a is not None:
                raise ValueError(f"{self.kind.value} takes no parameter")
        else:
            if self.a is None:
                raise ValueError(f"{self.kind.value} requires parameter a")
            if self.k != 1:
                raise ValueError(f"{self.kind.value} takes no power; fold it into a")
            object.__setattr__(self, "a", Fraction(self.a))


def derivative(k: int = 1) -> OperatorExpr:
    return OperatorExpr(OperatorKind.DERIVATIVE, k=k)


def forward_difference(k: int = 1) -> OperatorExpr:
    return OperatorExpr(OperatorKind.FORWARD_DIFFERENCE, k=k)


def backward_difference(k: int = 1) -> OperatorExpr:
    return OperatorExpr(OperatorKind.BACKWARD_DIFFERENCE, k=k)


def shift_op(a: Scalar) -> OperatorExpr:
    return OperatorExpr(OperatorKind.SHIFT, a=Fraction(a))


def log1p_derivative(k: int = 1) -> OperatorExpr:
    return OperatorExpr(OperatorKind.LOG1P_DERIVATIVE, k=k)


def expdiff_minus1(k: int = 1) -> OperatorExpr:
    return OperatorExpr(OperatorKind.EXPDIFF_MINUS1, k=k)


def binom_shift(a: Scalar) -> OperatorExpr:
    return OperatorExpr(OperatorKind.BINOM_SHIFT, a=Fraction(a))


def exp_shift(a: Scalar) -> OperatorExpr:
    return OperatorExpr(OperatorKind.EXP_SHIFT, a=Fraction(a))


def scale_op(a: Scalar) -> OperatorExpr:
    return OperatorExpr(OperatorKind.SCALE_OP, a=Fraction(a))


def _apply_weights(coeffs: tuple[Fraction, ...], weights: list) -> list[Fraction]:
    """sum_j w_j L^j on coefficients in a basis with L b_n = n b_(n-1).

    out_i = sum_j w_j (i+j)!/i! c_(i+j). The sum runs on integers: with
    c_m = N_m/D and w_j = P_j/Q, i! D Q out_i = sum_j P_j (i+j)! N_(i+j).
    Only the span of nonzero weights is multiplied, so d^k costs one
    product per coefficient.
    """
    nz = [j for j, w in enumerate(weights) if w]
    if not nz:
        return []
    lo, hi = nz[0], nz[-1] + 1
    ws = weights[lo:hi]
    num, q = _integers(ws)
    nums, d = _integers(coeffs)
    scaled, fact = [], 1
    for m, c in enumerate(nums):
        fact *= m or 1
        scaled.append(fact * c)
    out, fact = [], 1
    for i in range(len(coeffs) - lo):
        fact *= i or 1
        out.append(Fraction(sum(map(operator.mul, num, scaled[i + lo:i + hi])) // fact, d * q))
    return out


def _t_power(k: int, n: int) -> list[int]:
    return [int(j == k) for j in range(n)]


def _nabla_power(k: int, n: int) -> list[int]:
    # backward difference = D/(1+D): (t/(1+t))^k = sum_j (-1)^(j-k) C(j-1, k-1) t^j
    return [(-1) ** (j - k) * math.comb(j - 1, k - 1) if j > k > 0 else int(j == k)
            for j in range(n)]


def _stirling_power(stirling: Callable[[int, int], int], k: int, n: int) -> list[Fraction]:
    # log(1+t)^k and (e^t - 1)^k = k! sum_j s(j,k) t^j / j!, resp. S(j,k)
    return [Fraction(math.factorial(k) * stirling(j, k), math.factorial(j)) for j in range(n)]


def _ratio_series(n: int, ratio: Callable[[int], Fraction]) -> list[Fraction]:
    # w_0 = 1, w_j = w_(j-1) * ratio(j)
    out = [Fraction(1)]
    for j in range(1, n):
        out.append(out[-1] * ratio(j))
    return out[:n]


# kind -> (work basis, weight series of length n for op)
_SERIES: dict[OperatorKind, tuple[Basis, Callable[[OperatorExpr, int], list]]] = {
    OperatorKind.DERIVATIVE: (Basis.MONOMIAL, lambda op, n: _t_power(op.k, n)),
    OperatorKind.FORWARD_DIFFERENCE: (Basis.FALLING, lambda op, n: _t_power(op.k, n)),
    OperatorKind.BACKWARD_DIFFERENCE: (Basis.FALLING, lambda op, n: _nabla_power(op.k, n)),
    OperatorKind.LOG1P_DERIVATIVE: (
        Basis.MONOMIAL, lambda op, n: _stirling_power(stirling_first_signed, op.k, n)),
    OperatorKind.EXPDIFF_MINUS1: (
        Basis.FALLING, lambda op, n: _stirling_power(stirling_second, op.k, n)),
    # e^{at} = sum_j a^j t^j / j! gives the shift E^a = e^{a d}, and e^{a D}
    OperatorKind.SHIFT: (Basis.MONOMIAL, lambda op, n: _ratio_series(n, lambda j: op.a / j)),
    OperatorKind.EXP_SHIFT: (Basis.FALLING, lambda op, n: _ratio_series(n, lambda j: op.a / j)),
    # (1+t)^a = sum_j binom(a, j) t^j
    OperatorKind.BINOM_SHIFT: (
        Basis.MONOMIAL, lambda op, n: _ratio_series(n, lambda j: (op.a - j + 1) / j)),
}


def apply_operator(op: OperatorExpr, p: BasisPolynomial) -> BasisPolynomial:
    """Apply op to p exactly; the result is returned in the basis of p."""
    if op.kind is OperatorKind.SCALE_OP:
        # x nabla (x)_n = n (x)_n, so a^{x nabla} scales the n-th falling
        # coefficient by a^n
        fall = convert_basis(p, Basis.FALLING)
        out = [c * op.a ** n for n, c in enumerate(fall.coeffs)]
        return convert_basis(BasisPolynomial(Basis.FALLING, out), p.basis)
    basis, weights = _SERIES[op.kind]
    work = convert_basis(p, basis)
    out = _apply_weights(work.coeffs, weights(op, len(work.coeffs)))
    return convert_basis(BasisPolynomial(basis, out), p.basis)


# --- indefinite (inverse) operators ----------------------------------------
#
# Used by the kernel-relative integration/summation checks. Each inverse
# fixes the kernel ambiguity by choosing the preimage with zero constant term.
# An operator t*g(L) with g(0) = 1 inverts as L^{-1} applied after the
# reciprocal series 1/g(L), where L^{-1} lifts c_n to c_(n-1)/n.


def _lift(coeffs: Iterable[Fraction], basis: Basis, target: Basis) -> BasisPolynomial:
    out = [Fraction(0)] + [c / (n + 1) for n, c in enumerate(coeffs)]
    return convert_basis(BasisPolynomial(basis, out), target)


def _reciprocal(f: list[Fraction]) -> list[Fraction]:
    # 1/f for a series with f_0 = 1
    h = [Fraction(1)]
    for m in range(1, len(f)):
        h.append(-sum((f[j] * h[m - j] for j in range(1, m + 1)), Fraction(0)))
    return h[:len(f)]


def _series_inverse(p: BasisPolynomial, basis: Basis,
                    ratio: Callable[[int], Fraction]) -> BasisPolynomial:
    # the operator is L g(L); ratio generates g as in _ratio_series
    work = convert_basis(p, basis)
    h = _reciprocal(_ratio_series(len(work.coeffs), ratio))
    return _lift(_apply_weights(work.coeffs, h), basis, p.basis)


def antiderivative(p: BasisPolynomial) -> BasisPolynomial:
    """d^{-1} p with zero constant of integration."""
    return _lift(convert_basis(p, Basis.MONOMIAL).coeffs, Basis.MONOMIAL, p.basis)


def indefinite_sum(p: BasisPolynomial) -> BasisPolynomial:
    """D^{-1} p (forward-difference preimage) vanishing at x = 0."""
    return _lift(convert_basis(p, Basis.FALLING).coeffs, Basis.FALLING, p.basis)


def log1p_derivative_inverse(p: BasisPolynomial) -> BasisPolynomial:
    """(log(1+d))^{-1} p, normalized to zero constant term."""
    # log(1+t)/t = sum_j (-1)^j t^j / (j+1)
    return _series_inverse(p, Basis.MONOMIAL, lambda j: Fraction(-j, j + 1))


def expdiff_minus1_inverse(p: BasisPolynomial) -> BasisPolynomial:
    """(e^D - 1)^{-1} p, normalized to zero constant term."""
    # (e^t - 1)/t = sum_j t^j / (j+1)!
    return _series_inverse(p, Basis.FALLING, lambda j: Fraction(1, j + 1))
