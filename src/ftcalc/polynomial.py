"""Multi-basis polynomial arithmetic and the finite operator calculus.

A BasisPolynomial stores exact rational coefficients against one of three
bases: monomial x^n, falling factorial (x)_n, rising factorial x^(rising n).

Every kernel runs on integers: it turns its input into numerators over their
lcm denominator once, loops on Python ints and builds one Fraction per output
coefficient. A conversion is one pass over a triangle of Stirling numbers to
or from the monomial basis, and of Lah numbers between the factorial bases.

Each basis is the basic sequence of its own lowering operator, L b_n =
n b_(n-1): d on x^n, the forward difference D on (x)_n and the backward
difference nabla on x^(rising n). Every operator except scale_op commutes
with shifts, hence is a power series in each of them (Rota, Kahaner &
Odlyzko, "Finite operator calculus", 1973), and is one row of a table: its
EGF weights W, read as sum_j W_j L^j / j!, in every basis where they have a
closed form. One binomial kernel applies a row in the input's own basis; an
input in a basis the row lacks converts to the row's first basis and back.
The shift on x^n and e^{aD} on (x)_n have weights a^j in their own basis,
a Taylor shift of the coefficient vector, and run as integer Horner passes
instead. The series terminate because L is nilpotent on polynomials.
scale_op, a^{x nabla}, is diagonal on the falling basis instead.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import partial
from itertools import accumulate, repeat
from typing import Callable, Iterable, Sequence, Union

from .combinatorics import (
    bernoulli, lah, lah_row, stirling_first_unsigned, stirling_row, stirling_second,
)

Scalar = Union[Fraction, int, float]


class Basis(str, Enum):
    MONOMIAL = "monomial"
    FALLING = "falling"
    RISING = "rising"


class BasisMismatchError(ValueError):
    pass


def _normalize(coeffs: Iterable) -> tuple[Fraction, ...]:
    out = [c if type(c) is Fraction else Fraction(c) for c in coeffs]
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
        if not isinstance(self.basis, Basis):
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
        step = {Basis.MONOMIAL: 0, Basis.FALLING: -1, Basis.RISING: 1}[self.basis]
        if isinstance(x, float):
            acc, basis_val = 0.0, 1.0
            for n, c in enumerate(self.coeffs):
                acc += float(c) * basis_val
                basis_val = basis_val * (x + step * n)
            return acc
        # Horner on integers over D q^deg, for x = u/q and c_n = N_n/D:
        # acc_n = N_n q^(deg-n) + (u + step n q) acc_(n+1)
        x = Fraction(x)
        u, q = x.numerator, x.denominator
        nums, den = _integers(self.coeffs)
        acc, qn = 0, 1
        for n in reversed(range(len(nums))):
            acc = acc * (u + step * n * q) + nums[n] * qn
            qn *= q
        return Fraction(acc * q, den * qn)

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


def _scale_coeffs(p: BasisPolynomial, basis: Basis, a: Fraction) -> BasisPolynomial:
    # the n-th coefficient of p in basis times a^n, returned in the basis of p
    work = convert_basis(p, basis)
    return convert_basis(BasisPolynomial(basis, [c * a ** n for n, c in enumerate(work.coeffs)]),
                         p.basis)


def scale_argument(p: BasisPolynomial, a: Scalar) -> BasisPolynomial:
    """q with q(x) = p(a*x), returned in the basis of p."""
    return _scale_coeffs(p, Basis.MONOMIAL, Fraction(a))


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
        if not isinstance(self.k, int):
            raise ValueError(f"{self.kind.value} power must be an int, got {self.k!r}")
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


def _apply_weights(coeffs: tuple[Fraction, ...], weights: Sequence[int], q: int) -> list[Fraction]:
    """sum_j (W_j / j!) L^j on coefficients in a basis with L b_n = n b_(n-1).

    The EGF weights are W_j = weights[j] / q, so the sum is the correlation
    out_i = sum_j binom(i+j, j) W_j c_(i+j). It runs on integers over the
    lcm denominator of coeffs: a row holds binom(i+j, j) weights[j] and steps
    in i by the exact ratio (i+j)/i. Only the span of nonzero weights is
    stepped and multiplied, so d^k costs O(1) per coefficient.
    """
    nz = [j for j, w in enumerate(weights) if w]
    if not nz:
        return []
    lo, hi, n = nz[0], nz[-1] + 1, len(coeffs)
    row = weights[lo:hi]
    nums, d = _integers(coeffs)
    out = []
    for i in range(1, n - lo + 1):
        out.append(Fraction(sum(map(operator.mul, row, nums[i - 1 + lo:i - 1 + hi])), d * q))
        row = list(map(operator.floordiv, map(operator.mul, row, range(i + lo, min(i + hi, n))),
                       repeat(i)))
    return out


def _column(table: Callable[[int, int], int], sign: int, op: OperatorExpr,
            coeffs: tuple[Fraction, ...]) -> list[Fraction]:
    # k! T(j,k) are the EGF weights of f(t)^k for f = -log(1-t), e^t - 1 and
    # t/(1-t) (T = c, S, L), and of L^k itself for T = operator.eq, the
    # identity table; the factor sign^(j-k) with sign -1 gives -f(-t)
    k, f = op.k, math.factorial(op.k)
    return _apply_weights(coeffs, [f * sign ** (j - k) * table(j, k) if j >= k else 0
                                   for j in range(len(coeffs))], 1)


def _powers(step: int, op: OperatorExpr, coeffs: tuple[Fraction, ...]) -> list[Fraction]:
    # (a)_j or a^(rising j) for step -1 or 1: the EGF weights of (1+t)^a and
    # (1-t)^(-a), over q^n for a = p/q
    p, q, n = op.a.numerator, op.a.denominator, len(coeffs)
    out = accumulate((p + step * j * q for j in range(n - 1)), operator.mul, initial=1)
    return _apply_weights(coeffs, [w * q ** (n - j) for j, w in zip(range(n), out)], q ** n)


def _taylor_shift(op: OperatorExpr, coeffs: tuple[Fraction, ...]) -> Sequence[Fraction]:
    """e^{aL} for a = op.a on coefficients in a basis with L b_n = n b_(n-1):
    out_i = sum_j binom(i+j, j) a^j c_(i+j), the coefficients of p(x + a)
    for p = sum_j c_j x^j.

    For a = u/q, p(x + a) q^(n-1) = sum_j r_j (y + u)^j at y = q x, with
    integers r_j = c_j q^(n-1-j) over the lcm denominator of coeffs. Horner's
    Taylor shift by u (von zur Gathen & Gerhard, "Fast algorithms for Taylor
    shifts and certain difference equations", ISSAC 1997, method H) takes
    r_j += u r_(j+1) over the Pascal triangle; its updates on one
    antidiagonal are independent, so each antidiagonal is one slice step.
    """
    if not op.a:
        return coeffs
    n = len(coeffs)
    u, q = op.a.numerator, op.a.denominator
    qpow = list(accumulate(repeat(q, n - 1), operator.mul, initial=1))
    nums, den = _integers(coeffs)
    r = list(map(operator.mul, nums, reversed(qpow)))
    for lo in reversed(range(n - 1)):
        r[lo:n - 1] = map(operator.add, r[lo:n - 1], map(operator.mul, r[lo + 1:], repeat(u)))
    den *= qpow[-1]
    return [Fraction(c * w, den) for c, w in zip(r, qpow)]


# kind -> {basis: the op applied to coefficients in that basis}. Every entry
# but the Taylor shifts is the binomial kernel on the op's EGF weights in
# that basis, as integers over a common denominator. The rows follow from
# d = log(1+D) = -log(1-nabla), D = e^d - 1 = nabla/(1-nabla), nabla =
# 1 - e^(-d) = D/(1+D) and E^a = e^{ad} = (1+D)^a = (1-nabla)^(-a); E^a on
# x^n and e^{aD} on (x)_n both have weights a^j in their own basis, a
# Taylor shift of the coefficient vector.
_POWER = partial(_column, operator.eq, 1)
_SERIES: dict[OperatorKind, dict[Basis, Callable[[OperatorExpr, tuple[Fraction, ...]],
                                                 Sequence[Fraction]]]] = {
    OperatorKind.DERIVATIVE: {Basis.MONOMIAL: _POWER,
                              Basis.FALLING: partial(_column, stirling_first_unsigned, -1),
                              Basis.RISING: partial(_column, stirling_first_unsigned, 1)},
    OperatorKind.FORWARD_DIFFERENCE: {Basis.FALLING: _POWER,
                                      Basis.MONOMIAL: partial(_column, stirling_second, 1),
                                      Basis.RISING: partial(_column, lah, 1)},
    OperatorKind.BACKWARD_DIFFERENCE: {Basis.RISING: _POWER,
                                       Basis.FALLING: partial(_column, lah, -1),
                                       Basis.MONOMIAL: partial(_column, stirling_second, -1)},
    OperatorKind.LOG1P_DERIVATIVE: {Basis.MONOMIAL: partial(_column, stirling_first_unsigned, -1)},
    OperatorKind.EXPDIFF_MINUS1: {Basis.FALLING: partial(_column, stirling_second, 1)},
    OperatorKind.SHIFT: {Basis.MONOMIAL: _taylor_shift, Basis.FALLING: partial(_powers, -1),
                         Basis.RISING: partial(_powers, 1)},
    OperatorKind.EXP_SHIFT: {Basis.FALLING: _taylor_shift},
    OperatorKind.BINOM_SHIFT: {Basis.MONOMIAL: partial(_powers, -1)},
}


def apply_operator(op: OperatorExpr, p: BasisPolynomial) -> BasisPolynomial:
    """Apply op to p exactly; the result is returned in the basis of p."""
    if op.kind is OperatorKind.SCALE_OP:
        # x nabla (x)_n = n (x)_n, so a^{x nabla} scales (x)_n by a^n
        return _scale_coeffs(p, Basis.FALLING, op.a)
    rows = _SERIES[op.kind]
    basis = p.basis if p.basis in rows else next(iter(rows))
    work = convert_basis(p, basis)
    return convert_basis(BasisPolynomial(basis, rows[basis](op, work.coeffs)), p.basis)


# --- indefinite (inverse) operators ----------------------------------------
#
# Used by the kernel-relative integration/summation checks. Each inverse
# fixes the kernel ambiguity by choosing the preimage with zero constant term.
# An operator t*g(L) with g(0) = 1 inverts as L^{-1} applied after the
# reciprocal series 1/g(L), where L^{-1} lifts c_n to c_(n-1)/n.


def _lift(coeffs: Iterable[Fraction], basis: Basis, target: Basis) -> BasisPolynomial:
    out = [Fraction(0)] + [c / (n + 1) for n, c in enumerate(coeffs)]
    return convert_basis(BasisPolynomial(basis, out), target)


def _series_inverse(p: BasisPolynomial, basis: Basis,
                    weights: Callable[[int], tuple[list[int], int]]) -> BasisPolynomial:
    # the operator is L g(L); weights builds the EGF weights of 1/g(L)
    work = convert_basis(p, basis)
    return _lift(_apply_weights(work.coeffs, *weights(len(work.coeffs))), basis, p.basis)


def antiderivative(p: BasisPolynomial) -> BasisPolynomial:
    """d^{-1} p with zero constant of integration."""
    return _lift(convert_basis(p, Basis.MONOMIAL).coeffs, Basis.MONOMIAL, p.basis)


def indefinite_sum(p: BasisPolynomial) -> BasisPolynomial:
    """D^{-1} p (forward-difference preimage) vanishing at x = 0."""
    return _lift(convert_basis(p, Basis.FALLING).coeffs, Basis.FALLING, p.basis)


def _log1p_reciprocal(n: int) -> tuple[list[int], int]:
    # t/log(1+t) is (e^u - 1)/u, with EGF weights 1/(k+1), at u = log(1+t):
    # W_j = sum_k s(j,k)/(k+1)
    den = math.lcm(*range(1, n + 1))
    return [sum((-1) ** (j - k) * c * (den // (k + 1)) for k, c in enumerate(stirling_row(True, j)))
            for j in range(n)], den


def log1p_derivative_inverse(p: BasisPolynomial) -> BasisPolynomial:
    """(log(1+d))^{-1} p, normalized to zero constant term."""
    return _series_inverse(p, Basis.MONOMIAL, _log1p_reciprocal)


def expdiff_minus1_inverse(p: BasisPolynomial) -> BasisPolynomial:
    """(e^D - 1)^{-1} p, normalized to zero constant term."""
    # t/(e^t - 1) = sum_j B_j t^j / j!
    return _series_inverse(p, Basis.FALLING, lambda n: _integers([bernoulli(j) for j in range(n)]))
