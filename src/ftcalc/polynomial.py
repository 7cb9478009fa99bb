"""Multi-basis polynomial arithmetic and the finite operator calculus.

A BasisPolynomial is an exact rational coefficient vector against one of
three bases: monomial x^n, falling factorial (x)_n, rising factorial
x^(rising n). It stores the vector as integer numerators over one positive
denominator, in lowest terms, and builds Fraction coefficients only when
they are read.

Every kernel reads and writes that integer vector: it loops on Python ints
over the denominator its caller tracks, and hands the numerators to the
next kernel. The kernels it shares with the numeric layer, the difference
table that multiplies an EGF by e^{rx}, one output per input read, and the
Taylor shift, come from combinatorics. A public
operation reduces once, when it builds its result. Each basis has
b_(n+1) = b_n (x + sigma n), sigma = 0, -1, 1, and a conversion is Horner's
rule in the source basis with each step by x + sigma n taken in the target
basis, n^2/2 products of an entry by a small integer (combinatorics._rebase);
the change of basis is integer and unitriangular, so a conversion keeps the
denominator and lowest terms. A product converts
neither factor: on x^n it is one integer convolution, from 10 to 24 terms
on, by the entries' width, one big-int product by Kronecker substitution;
on (x)_n it multiplies the factors' samples at 0..m-1, read off the
difference table, and takes the product's Newton series from the table
again; on x^(rising n) it is the falling product mirrored by x -> -x.

Each basis is the basic sequence of its own lowering operator, L b_n =
n b_(n-1): d on x^n, the forward difference D on (x)_n and the backward
difference nabla on x^(rising n). Every operator except scale_op commutes
with shifts, hence is a power series in each of them (Rota, Kahaner &
Odlyzko, "Finite operator calculus", 1973), and is one row of a table: its
EGF weights W, read as sum_j W_j L^j / j!, in one basis or more. One
kernel applies them in the input's own basis; for a basis the row lacks,
the weights are translated there by the conversion's step read transposed,
and the input is never converted. The kernel runs a single weight, and a
dense span of 40 or more whose W_j / j! share a small denominator F (d^k,
log(1+d) and E^a in their own bases, d and E^a in the factorial ones), by
Horner's rule in L on integers scaled by F: no division until the last
one. Other rows, where F grows like a factorial, as for e^D - 1 off its
basis and the series inverses, it runs as binomial rows stepped by exact
division, whose numbers then stay smaller. Weights a^j in their own basis
(the shift on x^n, e^{aD} on (x)_n) run as integer Taylor shifts instead,
one pass of additions per coefficient, so a caller pays only for those it
reads; so do D = E - 1 and nabla = 1 - E^-1 on x^n and e^D - 1 on (x)_n,
each a shift less the input.
The series terminate because L is nilpotent on polynomials. scale_op,
a^{x nabla}, is diagonal on the falling basis.
"""

from __future__ import annotations

import math
import operator
from collections import namedtuple
from enum import Enum
from fractions import Fraction
from functools import cached_property, partial
from itertools import accumulate, chain, count, islice, repeat, zip_longest
from typing import Callable, Iterable, Sequence

from .combinatorics import (
    Scalar, _argument_ratio, _integers, _pascal, _rebase, _taylor_shift, bernoulli,
)


class Basis(str, Enum):
    MONOMIAL = "monomial"
    FALLING = "falling"
    RISING = "rising"


# b_(n+1)(x) = b_n(x) (x + step n) in each basis
_STEP = {Basis.MONOMIAL: 0, Basis.FALLING: -1, Basis.RISING: 1}


class BasisMismatchError(ValueError):
    pass


class BasisPolynomial:
    """Finite coefficient vector tagged with a basis; canonical form.

    coeffs[n] = nums[n] / den multiplies the n-th basis element. The vector
    is in lowest terms: den > 0, gcd(den, *nums) = 1 and no trailing zero,
    so equality is structural equality. The zero polynomial has no coeffs.
    Instances are immutable: assigning or deleting any attribute raises
    dataclasses.FrozenInstanceError, as for a frozen dataclass.
    """

    basis: Basis
    nums: tuple[int, ...]
    den: int
    __match_args__ = ("basis", "nums", "den")

    def __init__(self, basis: Basis | str, coeffs: Iterable):
        # numerators of reduced fractions over their lcm are in lowest terms
        nums, den = _integers(coeffs, "BasisPolynomial")
        while nums and not nums[-1]:
            nums.pop()
        _init(self, Basis(basis), nums, den)

    @cached_property
    def coeffs(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(a, self.den) for a in self.nums)

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}(basis={self.basis!r}, coeffs={self.coeffs!r})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.basis, self.nums, self.den) == (other.basis, other.nums, other.den)

    def __hash__(self) -> int:
        return hash((self.basis, self.nums, self.den))

    def __setattr__(self, name, value):
        raise _frozen(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise _frozen(f"cannot delete field {name!r}")

    @property
    def degree(self) -> int:
        # degree of the zero polynomial is -1 by convention here
        return len(self.nums) - 1

    def is_zero(self) -> bool:
        return not self.nums

    def coeff(self, n: int) -> Fraction:
        return self.coeffs[n] if 0 <= n < len(self.nums) else Fraction(0)

    def eval(self, x: Scalar) -> Scalar:
        """Value at x: a Fraction for int or Fraction x; for a float x, the exact
        value rounded once (OverflowError past the float range, ValueError at NaN or inf)."""
        step, nums = _STEP[self.basis], self.nums
        # Horner on integers over den q^deg, for x = u/q:
        # acc_n = nums_n q^(deg-n) + (u + step n q) acc_(n+1)
        u, q = _argument_ratio(x, "eval")
        acc, qn = 0, 1
        for n in reversed(range(len(nums))):
            acc = acc * (u + step * n * q) + nums[n] * qn
            qn *= q
        num, den = acc * q, self.den * qn
        # an int true division rounds correctly, with no gcd
        return num / den if isinstance(x, float) else Fraction(num, den)

    def __add__(self, other: "BasisPolynomial") -> "BasisPolynomial":
        if self.basis is not other.basis:
            raise BasisMismatchError("cannot add polynomials in different bases")
        den = math.lcm(self.den, other.den)
        a, b = den // self.den, den // other.den
        return _reduced(self.basis, [x * a + y * b for x, y in
                                     zip_longest(self.nums, other.nums, fillvalue=0)], den)

    def __sub__(self, other: "BasisPolynomial") -> "BasisPolynomial":
        return self + other.scale(-1)

    def scale(self, c: Scalar) -> "BasisPolynomial":
        u, q = _argument_ratio(c, "scale")
        return _reduced(self.basis, [u * a for a in self.nums], q * self.den)

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
        return cls(basis, coeffs)


def _frozen(message: str) -> AttributeError:
    # dataclasses costs a cold process its import of inspect; only this error needs it
    from dataclasses import FrozenInstanceError
    return FrozenInstanceError(message)


def _init(p: BasisPolynomial, basis: Basis, nums: Sequence[int], den: int) -> BasisPolynomial:
    object.__setattr__(p, "basis", basis)
    object.__setattr__(p, "nums", tuple(nums))
    object.__setattr__(p, "den", den)
    return p


def _canonical(basis: Basis, nums: Sequence[int], den: int) -> BasisPolynomial:
    """The polynomial of a vector already in lowest terms, no trailing zero."""
    return _init(object.__new__(BasisPolynomial), basis, nums, den)


def _reduced(basis: Basis, nums: Sequence[int], den: int) -> BasisPolynomial:
    """The polynomial sum_n nums[n]/den b_n for den > 0, in lowest terms.

    The gcd reads both ends first: a common factor rarely survives them, and
    once the running gcd is 1 math.gcd only scans the other arguments.
    """
    n = len(nums)
    while n and not nums[n - 1]:
        n -= 1
    if not n:
        return _canonical(basis, (), 1)
    g = math.gcd(den, nums[0], nums[n - 1], *nums)
    if g == 1:
        return _canonical(basis, nums[:n], den)
    return _canonical(basis, [a // g for a in nums[:n]], den // g)


def poly(basis: Basis | str, coeffs: Iterable) -> BasisPolynomial:
    return BasisPolynomial(Basis(basis), coeffs)


def monomial(coeffs: Iterable) -> BasisPolynomial:
    return BasisPolynomial(Basis.MONOMIAL, coeffs)


def falling_unit(n: int) -> BasisPolynomial:
    """The basis element (x)_n as a falling-basis polynomial."""
    return _canonical(Basis.FALLING, [0] * n + [1], 1)


def _convert(nums: Sequence[int], source: Basis, target: Basis) -> Sequence[int]:
    """Numerators of the same polynomial in the target basis, same denominator."""
    return nums if source is target else _rebase(nums, _STEP[source], _STEP[target])


def _translate(weights: Sequence[int], source: Basis, target: Basis) -> Sequence[int]:
    """The same operator's EGF weights in the target basis, same denominator.

    A shift-invariant T has W_j = [T b_j](0) in a basic sequence b (Rota,
    Kahaner & Odlyzko 1973). For v_j[k] = [T b_k b'_j](0), v_0 = W, W'_j =
    v_j[0], and the step of _rebase read transposed (Bostan, Lecerf & Schost,
    "Tellegen's principle into practice", ISSAC 2003) gives
    v_(j+1)[k] = v_j[k+1] + (tau j - sigma k) v_j[k]. v is kept to the span
    of W and, at step j, to the first n - j entries that W'_j.. still read.
    """
    if source is target:
        return weights
    sigma, tau, n = _STEP[source], _STEP[target], len(weights)
    v = list(weights[:max((k + 1 for k, w in enumerate(weights) if w), default=0)])
    out = []
    for j in range(n):
        del v[n - j:]
        out.append(v[0] if v else 0)
        v.append(0)
        v = list(map(operator.add, v[1:], map(operator.mul, v, count(tau * j, -sigma))))
    return out


def _flip(nums: Sequence[int]) -> list[int]:
    return [-a if n % 2 else a for n, a in enumerate(nums)]


def convert_basis(p: BasisPolynomial, target: Basis | str) -> BasisPolynomial:
    """Re-express p in the target basis; exact, round trips are identities."""
    target = Basis(target)
    if p.basis is target:
        return p
    # an integer unitriangular change of basis keeps the vector in lowest terms
    return _canonical(target, _convert(p.nums, p.basis, target), p.den)


_MIRROR = {Basis.MONOMIAL: Basis.MONOMIAL, Basis.FALLING: Basis.RISING,
           Basis.RISING: Basis.FALLING}


def negate_argument(p: BasisPolynomial) -> BasisPolynomial:
    """Polynomial representing x -> p(-x).

    Monomial stays monomial; falling input yields a rising-basis result and
    vice versa, via x^(rising n) = (-1)^n (-x)_n.
    """
    return _canonical(_MIRROR[p.basis], _flip(p.nums), p.den)


def shift(p: BasisPolynomial, a: Scalar) -> BasisPolynomial:
    """q with q(x) = p(x+a), returned in the basis of p."""
    return apply_operator(shift_op(a), p)


def _scale_coeffs(p: BasisPolynomial, basis: Basis, u: int, q: int) -> BasisPolynomial:
    # the n-th coefficient of p in basis times (u/q)^n = u^n q^(deg-n) / q^deg,
    # returned in the basis of p
    deg = max(p.degree, 0)
    scaled = [c * u ** n * q ** (deg - n) for n, c in enumerate(_convert(p.nums, p.basis, basis))]
    return _reduced(p.basis, _convert(scaled, basis, p.basis), p.den * q ** deg)


def scale_argument(p: BasisPolynomial, a: Scalar) -> BasisPolynomial:
    """q with q(x) = p(a*x), returned in the basis of p."""
    return _scale_coeffs(p, Basis.MONOMIAL, *_argument_ratio(a, "scale_argument"))


def multiply(p: BasisPolynomial, q: BasisPolynomial) -> BasisPolynomial:
    """Exact product of two polynomials given in the same basis, over p.den * q.den.

    No factor is converted. In x^n the numerator vectors are convolved. In
    (x)_n the product's m = deg p + deg q + 1 values at 0..m-1 are the
    products of the factors' samples there, and its Newton series is their
    difference table over j!: evaluation and interpolation on an arithmetic
    progression (Bostan & Schost, J. Complexity 21, 2005), m^2 additions in
    all. Rising input is mirrored to falling by x -> -x and back.
    """
    if p.basis is not q.basis:
        raise BasisMismatchError("multiply requires operands in the same basis")
    if p.is_zero() or q.is_zero():
        return _canonical(p.basis, (), 1)
    if p.basis is Basis.RISING:
        return negate_argument(multiply(negate_argument(p), negate_argument(q)))
    if p.basis is Basis.MONOMIAL:
        return _reduced(p.basis, _convolve(p.nums, q.nums), p.den * q.den)
    m = len(p.nums) + len(q.nums) - 1
    nums, den = _newton(list(map(operator.mul, _falling_samples(p.nums, m),
                                 _falling_samples(q.nums, m))))
    return _reduced(p.basis, nums, p.den * q.den * den)


# Kronecker substitution pays from _KRONECKER_MIN terms on, plus one term
# per _KRONECKER_BYTES bytes of its digit, and at any width from
# _KRONECKER_MAX terms on: in-process on a 2-core Xeon VM with Python 3.11,
# against the schoolbook loop on n x n products of random signed entries, it
# breaks even at n = 8-10 for entries of up to 128 bits (digits of 3-33
# bytes), at n = 14-16 for 256 bits (65 bytes), at n = 22-26 for 1000 bits
# (251 bytes) and at n = 18-24 for 1500-3000 bits, where CPython's
# Karatsuba multiplication speeds up the entry products of both kernels.
_KRONECKER_MIN = 10
_KRONECKER_BYTES = 16
_KRONECKER_MAX = 24


def _convolve(pn: Sequence[int], qn: Sequence[int]) -> list[int]:
    """The product's coefficients out_k = sum_i pn_i qn_(k-i).

    From min(_KRONECKER_MIN + w // _KRONECKER_BYTES, _KRONECKER_MAX) terms
    on, by Kronecker substitution (Harvey, "Faster polynomial multiplication via multipoint
    Kronecker substitution", JSC 44, 2009): each vector is the integer
    sum_i v_i 2^(bi) for a b with |out_k| < 2^(b-1), so one big-int product
    holds every out_k as a balanced digit. With b = 8w, adding 2^(b-1) to
    every digit makes the digits w plain bytes each, packed and unpacked in
    one pass.
    """
    # the loop's cost is one slice product per nonzero entry of pn
    terms, w = min(len(pn) - pn.count(0), len(qn)), 0
    if terms >= _KRONECKER_MIN:
        top = [max(map(abs, v)) or 1 for v in (pn, qn)]
        w = (top[0] * top[1] * min(len(pn), len(qn))).bit_length() // 8 + 1  # bytes per digit
    if terms < min(_KRONECKER_MIN + w // _KRONECKER_BYTES, _KRONECKER_MAX):
        out = [0] * (len(pn) + len(qn) - 1)
        for i, a in enumerate(pn):
            if a:
                out[i:i + len(qn)] = map(operator.add, out[i:], map(operator.mul, qn, repeat(a)))
        return out
    half, m = 1 << (8 * w - 1), len(pn) + len(qn) - 1
    unit = half.to_bytes(w, "little")

    def pack(v: Sequence[int]) -> int:
        # sum_i v_i 2^(8wi): the digits v_i + half, less the digits half
        return (int.from_bytes(b"".join([(a + half).to_bytes(w, "little") for a in v]), "little")
                - int.from_bytes(unit * len(v), "little"))

    digits = (pack(pn) * pack(qn) + int.from_bytes(unit * m, "little")).to_bytes(w * m, "little")
    return [int.from_bytes(digits[i:i + w], "little") - half for i in range(0, w * m, w)]


def _times_exp(v: Iterable[int], r: int, m: int) -> list[int]:
    """h_k for k < m of the EGF of v times e^{rx}: the first m outputs of the
    difference table, reading v only that far; v may stop early, its missing
    terms are zero."""
    return [h for h, _ in islice(_pascal(zip(chain(v, repeat(0)), repeat(1)), r), m)]


def _falling_samples(nums: Iterable[int], m: int) -> list[int]:
    """p(0), ..., p(m-1) for the falling numerators c of p, over p's
    denominator: p(j) = sum_n binom(j,n) n! c_n."""
    return _times_exp(map(operator.mul, nums, accumulate(count(1), operator.mul, initial=1)),
                      1, m)


def _newton(v: Sequence[int]) -> tuple[list[int], int]:
    """The falling numerators of the polynomial of degree < m = len(v) that
    takes the values v at 0..m-1, and their denominator (m-1)!: the
    coefficient of (x)_j is D^j v(0) / j! = D^j v(0) (m-1)!/j! over (m-1)!."""
    ratios = list(accumulate(range(len(v) - 1, 0, -1), operator.mul, initial=1))
    return list(map(operator.mul, _times_exp(v, -1, len(v)), reversed(ratios))), ratios[-1]


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


class OperatorExpr(namedtuple("OperatorExpr", "kind k a")):
    """An operator kind with its power k (power kinds) or parameter a (the rest)."""

    __slots__ = ()
    # _replace builds through _make: validate there too
    _make = classmethod(lambda cls, fields: cls(*fields))

    def __new__(cls, kind: OperatorKind | str, k: int = 1, a: Scalar | None = None):
        kind = OperatorKind(kind)
        if not isinstance(k, int):
            raise ValueError(f"{kind.value} power must be an int, got {k!r}")
        if kind in _POWER_KINDS:
            if k < 0:
                raise ValueError(f"{kind.value} power must be nonnegative")
            if a is not None:
                raise ValueError(f"{kind.value} takes no parameter")
        else:
            if a is None:
                raise ValueError(f"{kind.value} requires parameter a")
            if k != 1:
                raise ValueError(f"{kind.value} takes no power; fold it into a")
            a = Fraction(*_argument_ratio(a, kind.value))
        return super().__new__(cls, kind, k, a)


def derivative(k: int = 1) -> OperatorExpr:
    return OperatorExpr(OperatorKind.DERIVATIVE, k=k)


def forward_difference(k: int = 1) -> OperatorExpr:
    return OperatorExpr(OperatorKind.FORWARD_DIFFERENCE, k=k)


def backward_difference(k: int = 1) -> OperatorExpr:
    return OperatorExpr(OperatorKind.BACKWARD_DIFFERENCE, k=k)


def shift_op(a: Scalar) -> OperatorExpr:
    return OperatorExpr(OperatorKind.SHIFT, a=a)


def log1p_derivative(k: int = 1) -> OperatorExpr:
    return OperatorExpr(OperatorKind.LOG1P_DERIVATIVE, k=k)


def expdiff_minus1(k: int = 1) -> OperatorExpr:
    return OperatorExpr(OperatorKind.EXPDIFF_MINUS1, k=k)


def binom_shift(a: Scalar) -> OperatorExpr:
    return OperatorExpr(OperatorKind.BINOM_SHIFT, a=a)


def exp_shift(a: Scalar) -> OperatorExpr:
    return OperatorExpr(OperatorKind.EXP_SHIFT, a=a)


def scale_op(a: Scalar) -> OperatorExpr:
    return OperatorExpr(OperatorKind.SCALE_OP, a=a)


# Horner's rule pays from a span of _HORNER_MIN weights on: in-process on a
# 2-core Xeon VM with Python 3.11, on the operator rows of 17 to 301
# coefficients whose F passes the size test, with small and with 1000-bit
# numerators, its median time over the rows' was 0.95-1.02 at spans of 24-39,
# 0.69-0.94 at 40-64 and 0.33-0.70 at 190-301.
_HORNER_MIN = 40


def _apply_weights(nums: Sequence[int], weights: Sequence[int]) -> list[int]:
    """sum_j (weights[j] / j!) L^j on numerators in a basis with L b_n = n b_(n-1).

    The sum is the correlation out_i = sum_j binom(i+j, j) weights[j] c_(i+j),
    over the product of the two vectors' denominators; only the span
    lo <= j < hi of nonzero weights is read. Two kernels compute it. By rows:
    a row holds binom(i+j, j) weights[j] and steps in i by the exact ratio
    (i+j)/i, a product, a multiply and a division per entry. By Horner's rule
    (_horner): a product and a multiply by a small index per entry, on the
    weights e_j = weights[j]/j! scaled by F, the lcm of their denominators.
    Horner's products multiply c by F e_j, the rows' by (i+j)!/i! e_j, whose
    bits average about a third of those of (hi-1)! over the triangle. So
    Horner runs one weight, and a span of _HORNER_MIN or more whose F has
    fewer bits than that: d^k, log(1+d) and E^a in their own bases, d and E^a
    in the factorial ones. Factorial denominators, as in e^D - 1 off its
    basis and in the series inverses, stay on the rows.
    """
    n = len(nums)
    nz = [j for j, w in enumerate(weights[:n]) if w]
    if not nz:
        return []
    lo, hi = nz[0], nz[-1] + 1
    if hi - lo == 1 or hi - lo >= _HORNER_MIN:
        scaled = _scaled_weights(weights, lo, hi)
        if scaled:
            return _horner(nums, lo, *scaled)
    row = weights[lo:hi]
    out = []
    for i in range(1, n - lo + 1):
        out.append(sum(map(operator.mul, row, nums[i - 1 + lo:i - 1 + hi])))
        row = list(map(operator.floordiv, map(operator.mul, row, range(i + lo, min(i + hi, n))),
                       repeat(i)))
    return out


def _scaled_weights(weights: Sequence[int], lo: int, hi: int) -> tuple[int, list[int]] | None:
    """F, the lcm of the denominators of e_j = weights[j]/j! for lo <= j < hi,
    and F e_j from j = hi-1 down; None for a span over one weight once F has a
    third of the bits of (hi-1)!, read from the top, where a factorial
    denominator shows first."""
    fact = math.factorial(hi - 1)
    budget, scale, facts = fact.bit_length(), 1, []
    for j in range(hi - 1, lo - 1, -1):
        if weights[j]:
            scale = math.lcm(scale, fact // math.gcd(weights[j], fact))
            if hi - lo > 1 and 3 * scale.bit_length() >= budget:
                return None
        facts.append(fact)
        fact //= j or 1
    return scale, [scale * w // f for w, f in zip(reversed(weights[lo:hi]), facts)]


def _horner(nums: Sequence[int], lo: int, scale: int, top_down: Sequence[int]) -> list[int]:
    """The sum for F = scale and the F e_j in top_down, from the top weight
    down to lo, as g(L) c with g(t) = sum_j e_j t^j by Horner's rule, on
    integers over F: acc_i holds entry i+j of sum_(k>=j) F e_k L^(k-j) c,
    so a step down to j sets acc_i = F e_j c_(i+j) + (i+j+1) acc_i and
    appends F e_j c_(n-1). L^lo and the exact division by F come last."""
    j = lo + len(top_down) - 1
    acc = list(map(operator.mul, nums[j:], repeat(top_down[0])))
    for f in top_down[1:]:
        acc.append(0)
        scaled = map(operator.mul, acc, count(j))
        j -= 1
        acc = list(map(operator.add, map(operator.mul, nums[j:], repeat(f)), scaled) if f
                   else scaled)
    if lo:
        acc = list(map(operator.mul, acc, map(math.perm, count(lo), repeat(lo))))
    return acc if scale == 1 else [a // scale for a in acc]


def _unit(op: OperatorExpr, n: int) -> tuple[list[int], int]:
    # L^k has the weights k! delta_(j,k)
    return [math.factorial(op.k) if j == op.k else 0 for j in range(n)], 1


def _read_in(source: Basis, target: Basis, op: OperatorExpr, n: int) -> tuple[list, int]:
    # the weights of the source's L^k in the target basis, read back as a
    # series in L: for L = f(L') they are those of f(L)^k
    return _translate(_unit(op, n)[0], source, target), 1


def _powers(step: int, op: OperatorExpr, n: int) -> tuple[list[int], int]:
    # (a)_j, a^j or a^(rising j) for step -1, 0 or 1: the EGF weights of
    # (1+t)^a, e^(at) and (1-t)^(-a), over q^(n-1) for a = p/q
    p, q = op.a.numerator, op.a.denominator
    top = max(n - 1, 0)
    out = accumulate((p + step * j * q for j in range(top)), operator.mul, initial=1)
    return [w * q ** (top - j) for j, w in zip(range(n), out)], q ** top


# kind -> {basis: (op, n) -> the op's EGF weights for n coefficients in that
# basis, as integers over a returned denominator}; the first basis is the one
# a row is translated from. The rows follow from d = log(1+D) =
# -log(1-nabla), D = e^d - 1 and E^a = e^{ad} = (1+D)^a = (1-nabla)^(-a):
# log(1+d)^k has the weights of d^k in the falling basis, read in x^n, and
# (e^D - 1)^k those of D^k in the monomial basis, read in (x)_n. Weights a^j
# in their own basis, E^a on x^n and e^{aD} on (x)_n, are a Taylor shift of
# the coefficient vector and run as one, as do the rows of _SHIFT_MINUS_ONE.
_GEOMETRIC = partial(_powers, 0)
_SERIES: dict[OperatorKind, dict[Basis, Callable[[OperatorExpr, int], tuple]]] = {
    OperatorKind.DERIVATIVE: {Basis.MONOMIAL: _unit},
    OperatorKind.FORWARD_DIFFERENCE: {Basis.FALLING: _unit},
    OperatorKind.BACKWARD_DIFFERENCE: {Basis.RISING: _unit},
    OperatorKind.LOG1P_DERIVATIVE: {Basis.MONOMIAL: partial(_read_in, Basis.MONOMIAL, Basis.FALLING)},
    OperatorKind.EXPDIFF_MINUS1: {Basis.FALLING: partial(_read_in, Basis.FALLING, Basis.MONOMIAL)},
    OperatorKind.SHIFT: {Basis.MONOMIAL: _GEOMETRIC, Basis.FALLING: partial(_powers, -1),
                         Basis.RISING: partial(_powers, 1)},
    OperatorKind.EXP_SHIFT: {Basis.FALLING: _GEOMETRIC},
    OperatorKind.BINOM_SHIFT: {Basis.MONOMIAL: partial(_powers, -1)},
}
# (kind, basis) -> a for the first powers that are a (e^{aL} - 1), for a = +-1,
# in that basis: D = E - 1 and nabla = -(E^-1 - 1) on x^n, e^D - 1 on (x)_n.
# They run as one Taylor shift less the input.
_SHIFT_MINUS_ONE = {
    (OperatorKind.FORWARD_DIFFERENCE, Basis.MONOMIAL): 1,
    (OperatorKind.BACKWARD_DIFFERENCE, Basis.MONOMIAL): -1,
    (OperatorKind.EXPDIFF_MINUS1, Basis.FALLING): 1,
}


def apply_operator(op: OperatorExpr, p: BasisPolynomial) -> BasisPolynomial:
    """Apply op to p exactly; the result is returned in the basis of p."""
    if op.kind is OperatorKind.SCALE_OP:
        # x nabla (x)_n = n (x)_n, so a^{x nabla} scales (x)_n by a^n
        return _scale_coeffs(p, Basis.FALLING, *op.a.as_integer_ratio())
    rows = _SERIES[op.kind]
    if rows.get(p.basis) is _GEOMETRIC:
        shifted, factor = _taylor_shift(*op.a.as_integer_ratio(), p.nums)
        nums = list(shifted)
    elif op.k == 1 and (op.kind, p.basis) in _SHIFT_MINUS_ONE:
        a = _SHIFT_MINUS_ONE[op.kind, p.basis]
        shifted, factor = _taylor_shift(a, 1, p.nums)
        nums = [a * (v - c) for v, c in zip(shifted, p.nums)]
    else:
        basis = p.basis if p.basis in rows else next(iter(rows))
        weights, factor = rows[basis](op, len(p.nums))
        nums = _apply_weights(p.nums, _translate(weights, basis, p.basis))
    return _reduced(p.basis, nums, p.den * factor)


# --- indefinite (inverse) operators ----------------------------------------
#
# Used by the kernel-relative integration/summation checks. Each inverse
# fixes the kernel ambiguity by choosing the preimage with zero constant term.
# An operator L g(L) with g(0) = 1 inverts as L^{-1} applied after the
# reciprocal series 1/g(L), where L^{-1} lifts c_n to c_(n-1)/n; d and D
# themselves have g = 1, the unit weight row.


def _series_inverse(p: BasisPolynomial, basis: Basis,
                    weights: Callable[[int], tuple[list[int], int]]) -> BasisPolynomial:
    # the operator is L g(L) in basis; weights builds the EGF weights of
    # 1/g(L). Over m = lcm(1..len(nums)), c_n/(n+1) has numerator c_n m/(n+1).
    nums = _convert(p.nums, p.basis, basis)
    w, q = weights(len(nums))
    m = math.lcm(*range(1, len(nums) + 1))
    out = [0] + [c * (m // (n + 1)) for n, c in enumerate(_apply_weights(nums, w))]
    return _reduced(p.basis, _convert(out, basis, p.basis), p.den * q * m)


_IDENTITY = partial(_unit, derivative(0))


def antiderivative(p: BasisPolynomial) -> BasisPolynomial:
    """d^{-1} p with zero constant of integration."""
    return _series_inverse(p, Basis.MONOMIAL, _IDENTITY)


def indefinite_sum(p: BasisPolynomial) -> BasisPolynomial:
    """D^{-1} p (forward-difference preimage) vanishing at x = 0."""
    return _series_inverse(p, Basis.FALLING, _IDENTITY)


def _log1p_reciprocal(n: int) -> tuple[list[int], int]:
    # t/log(1+t) is (e^u - 1)/u, with EGF weights 1/(k+1), at u = log(1+t):
    # a series in d read in the falling basis, W_j = sum_k s(j,k)/(k+1)
    den = math.lcm(*range(1, n + 1))
    return _translate([den // (k + 1) for k in range(n)], Basis.MONOMIAL, Basis.FALLING), den


def log1p_derivative_inverse(p: BasisPolynomial) -> BasisPolynomial:
    """(log(1+d))^{-1} p, normalized to zero constant term."""
    return _series_inverse(p, Basis.MONOMIAL, _log1p_reciprocal)


def expdiff_minus1_inverse(p: BasisPolynomial) -> BasisPolynomial:
    """(e^D - 1)^{-1} p, normalized to zero constant term."""
    # t/(e^t - 1) = sum_j B_j t^j / j!
    return _series_inverse(p, Basis.FALLING,
                           lambda n: _integers(map(bernoulli, range(n)), "expdiff_minus1_inverse"))
