"""Floating-point transforms on functions.

Newton sums (falling transform from Taylor coefficients), EGF series
(inverse transforms of integer samples), quadrature for the rising transform
(Gauss-Laguerre rules, or mpmath tanh-sinh at 25 digits), fractional
derivatives/differences, and the gamma-function support used by the
verification checks. Every evaluator takes the function it reads: the
Taylor coefficients n -> a_n (fft_fn, fractional_derivative), the integer
samples n -> f(n) (ifft_fn), or the values t -> f(t) (irft_fn, rft_fn,
fractional_difference).

Numeric policy: a series stops once three successive terms fall below the
NumericConfig tolerance relative to its partial sum. When direct
summation misses the stop criterion within truncation_N, the Newton-sum
evaluator applies Wynn's epsilon extrapolation to the partial sums before
giving up; slowly converging Newton series (binom(s,n) tails decay only like
n^(-s-1)) are routine and direct summation alone cannot reach practical
tolerances. The returned error estimate is then the extrapolation's internal
agreement, otherwise the magnitude of the first omitted weighted term.
One reader, _input, reads every Taylor coefficient, sample or point value
exactly, a float as its dyadic value; a call that overflows or a value
that is not a finite number raises NonConvergenceError naming the
evaluator and the input. The fractional operators prepare their series on
one integer vector: the inputs become numerators over one denominator,
the derivative Taylor-shifts them to t, the difference table multiplies
by e^{-rate x}, and fft_fn's Newton sum reads each Taylor coefficient as
an unreduced (numerator, denominator) pair, which its int true division
rounds correctly without a gcd. The shift and the table each compute one
coefficient per coefficient the Newton sum reads, so a sum that stops
early prepares no more. NamedSource defines the named sources of the
command line, which the check suite builds from the same specs.
"""

from __future__ import annotations

import functools
import math
import operator
import re
import threading
from collections import namedtuple
from decimal import MAX_EMAX, MIN_EMIN, Context, Decimal, localcontext
from fractions import Fraction
from itertools import accumulate, count, repeat
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .combinatorics import Scalar, _argument_ratio, bernoulli
from .polynomial import _integers, _pascal, _taylor_shift


class NonConvergenceError(ArithmeticError):
    """Series failed its tail policy within the configured truncation."""


class QuadratureError(ArithmeticError):
    """A quadrature rule or integrand failed, or rft_fn rejected its result."""


class NumericResult(float):
    """A float carrying an error_estimate attribute."""

    error_estimate: float

    def __new__(cls, value: float, error_estimate: float = 0.0):
        obj = super().__new__(cls, value)
        obj.error_estimate = float(error_estimate)
        return obj

    def __repr__(self):
        return f"NumericResult({float(self)!r}, error_estimate={self.error_estimate!r})"


_SOURCE_RE = re.compile(r"^(exp|sin|cos|geometric)\(([^)]+)\)$")


def _parse_param(text: str) -> Fraction:
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"cannot parse source parameter {text!r} as a rational")


class NamedSource:
    """A builtin source usable as Taylor coefficients, integer samples, or a
    callable, depending on the operation that consumes it.

    exp(a): the function e^(a*t); sin(w)/cos(w): sin(w*t)/cos(w*t);
    geometric(r): the sequence/function r^t (Taylor coefficients r^n, i.e.
    the series 1/(1-r*x)); gamma-samples: n! samples / Gamma(t+1) values
    (no Taylor form).
    """

    def __init__(self, spec: str):
        self.spec = spec
        m = _SOURCE_RE.match(spec.strip())
        if m:
            self.kind = m.group(1)
            self.param: Optional[Fraction] = _parse_param(m.group(2))
            try:
                self._float_param: Optional[float] = float(self.param)
            except OverflowError:
                raise ValueError(f"source {spec!r} has a parameter outside the float "
                                 "range") from None
        elif spec.strip() == "gamma-samples":
            self.kind = "gamma-samples"
            self.param = self._float_param = None
        else:
            raise ValueError(
                f"unknown source {spec!r}; expected exp(a), sin(w), cos(w), "
                "geometric(r), or gamma-samples"
            )

    def taylor(self) -> Callable[[int], Fraction]:
        a = self.param
        if self.kind == "exp":
            return lambda n: a ** n / math.factorial(n)
        if self.kind in ("sin", "cos"):
            # sin has the odd coefficients, cos the even, each with sign (-1)^(n // 2)
            odd = self.kind == "sin"
            return lambda n: (Fraction(0) if n % 2 != odd
                              else (-1) ** (n // 2) * a ** n / math.factorial(n))
        if self.kind == "geometric":
            return lambda n: a ** n
        raise ValueError(f"source {self.spec!r} has no Taylor coefficients")

    def samples(self) -> Callable[[int], Scalar]:
        if self.kind == "gamma-samples":
            return math.factorial
        # r^n are both the samples and the Taylor coefficients of geometric(r)
        return self.taylor() if self.kind == "geometric" else self.callable()

    def callable(self) -> Callable[[float], float]:
        a = self._float_param
        if self.kind == "exp":
            return lambda t: math.exp(a * t)
        if self.kind == "sin":
            return lambda t: math.sin(a * t)
        if self.kind == "cos":
            return lambda t: math.cos(a * t)
        if self.kind == "geometric":
            if a <= 0:
                raise ValueError("geometric(r) as a function of a real "
                                 "argument requires r > 0")
            return lambda t: a ** t
        return lambda t: math.gamma(t + 1.0)


class NumericConfig(namedtuple("NumericConfig", "truncation_N tolerance")):
    __slots__ = ()
    # _replace builds through _make: validate there too
    _make = classmethod(lambda cls, fields: cls(*fields))

    def __new__(cls, truncation_N: int = 64, tolerance: float = 1e-10):
        if not isinstance(truncation_N, int) or truncation_N < 1:
            raise ValueError(f"truncation_N must be an int >= 1, got {truncation_N!r}")
        if not (0 < tolerance < math.inf):
            raise ValueError(f"tolerance must be finite and positive, got {tolerance!r}")
        return super().__new__(cls, truncation_N, tolerance)


# Names bench/ still calls, their only caller, until a benchmark change drops
# them: each returns its argument, and rft_fn reads 'adaptive_fallback' as
# 'gauss_laguerre'.
def taylor_source(provider: Callable, radius: Optional[float] = None) -> Callable:
    return provider


def samples_source(provider: Callable) -> Callable:
    return provider


callable_source = samples_source


def QuadratureSpec(scheme: str = "gauss_laguerre") -> str:
    return scheme


# Nodes of the coarse Gauss-Laguerre rule; the fine rule has twice as many,
# and their difference is the error estimate. A rule costs O(n^2) float
# steps in Python: about 10 ms at n = 160 on a 2-core Xeon VM. Its largest
# nodes lie near 4n, and weights of nodes far past x = 700 underflow to 0.
_NODES = 80

# mpmath working precision is process-global state; serialize tanh_sinh use
# so concurrent callers cannot corrupt each other's precision context. The
# lock also guards the node tables of _tanh_sinh_table.
_mp_lock = threading.Lock()

# Halley steps allowed per node. From the starting guesses in
# _laguerre_rule a node takes two, rarely three or four; the cap only ends a
# search that has gone wrong.
_HALLEY_STEPS = 50
# Stands in for an exact zero in the ratio recurrence, whose next step
# divides by it.
_TINY = 1e-300


def _laguerre_rule(n: int, alpha: float):
    """Nodes and weights of the n-point Gauss rule for x^alpha e^(-x) on [0, inf).

    Each node is polished by Halley steps on L_n^(alpha), taking L_n / L_n'
    from the ratio form of the monic three-term recurrence and L'' from the
    Laguerre ODE x y'' = (x - alpha - 1) y' - n y. Zero suppression (dividing
    out the nodes already found) keeps each search off them, so the n nodes
    are distinct. Starting guesses: the `gaulag` formula (Press et al.,
    Numerical Recipes, 4.5) for the first node when alpha <= 1, else the
    left turning point of the Laguerre ODE plus the first Airy zero; each
    later node lies one WKB half-wave past the previous one.

    The weights are the Christoffel numbers Gamma(alpha+1) / sum_{j<n} h_j(x)^2
    of the normalized polynomials h_j = L_j^(alpha) / sqrt(C(j+alpha, j))
    (Gautschi, Orthogonal Polynomials, 2004). Each step of their recurrence
    is scaled by e^(-x/(2n)), which keeps the values in range. Raises
    QuadratureError unless alpha > -1, where the weight is integrable, and the
    nodes come out finite, converged and distinct.
    """
    if not alpha > -1:  # as rft_fn's s - 1 is for s below 2^-53
        raise QuadratureError(f"Gauss-Laguerre rule n={n} needs alpha > -1, got {alpha}")
    monic = [(2 * j + alpha + 1, j * (j + alpha)) for j in range(n)]
    normal = [(a, math.sqrt(b2), 1.0 / math.sqrt((j + 1) * (j + 1 + alpha)))
              for j, (a, b2) in enumerate(monic)]
    log_gamma = math.lgamma(alpha + 1.0)
    kappa, mu = 2 * n + alpha + 1, 1 - alpha * alpha

    def wave(x: float) -> float:
        """Squared local frequency of x^((alpha+1)/2) e^(-x/2) L_n(x)."""
        return kappa / (2 * x) + mu / (4 * x * x) - 0.25

    def newton_step(z: float) -> float:
        """L_n / L_n' at z, from r_j = p_j / p_(j-1) of the monic p_j."""
        r = 1.0
        for a, b2 in monic:
            r = z - a - b2 / r or _TINY
        return z * r / (n * (r + n + alpha))

    def weight(z: float) -> float:
        c = math.exp(-z / (2 * n))
        c2 = c * c
        h, hp, t = 1.0, 0.0, 0.0
        for a, b, ib in normal:
            t = t * c2 + h * h
            h, hp = ((a - z) * h - b * hp) * ib * c, h * c
        return math.exp(log_gamma - math.log(t) + 2 * (n - 1) * math.log(c))

    if alpha > 1:
        turn = -mu / (kappa + math.sqrt(kappa * kappa + mu))
        # turn + |a_1| / wave'(turn)^(1/3), with a_1 = -2.338 the first Airy zero
        z = turn + 2.338 * (2 * turn * turn / (kappa - turn)) ** (1 / 3)
    else:
        z = (1 + alpha) * (3 + 0.92 * alpha) / (1 + 2.4 * n + 1.8 * alpha)
    nodes: list[float] = []
    for i in range(n):
        if i:
            z = nodes[-1]
            half = math.pi / math.sqrt(wave(z))
            q = wave(z + half / 2)
            z += math.pi / math.sqrt(q) if q > 0 else half
        for _ in range(_HALLEY_STEPS):
            u = newton_step(z)
            r = (z - alpha - 1 - n * u) / z  # L'' / L'
            # Halley's step on L_n / prod_j (z - x_j) over the nodes found,
            # with s1, s2 the sums of 1/(z - x_j) and 1/(z - x_j)^2.
            s1 = s2 = 0.0
            for x in nodes:
                e = 1.0 / (z - x)
                s1 += e
                s2 += e * e
            d = 1.0 - u * s1
            delta = 2 * u * d / (d * d - u * r + 1 - u * u * s2)
            z -= delta
            # Halley triples the correct digits: after a step this small
            # the node is at roundoff.
            if abs(delta) <= 1e-8 * z:
                break
        else:
            raise QuadratureError(f"Gauss-Laguerre node {i} of n={n}, alpha={alpha} "
                                  f"did not converge in {_HALLEY_STEPS} Halley steps")
        nodes.append(z)
    xs = tuple(sorted(nodes))
    try:
        ws = tuple(map(weight, xs))
    except OverflowError:
        # the weights sum to Gamma(alpha + 1), which overflows past alpha = 170.6
        raise QuadratureError(f"Gauss-Laguerre rule n={n}, alpha={alpha}: a weight "
                              "overflows a float") from None
    if not (all(map(math.isfinite, xs + ws)) and xs[0] > 0 and min(ws) >= 0
            and all(a < b for a, b in zip(xs, xs[1:]))):
        raise QuadratureError(f"Gauss-Laguerre rule n={n}, alpha={alpha} came out "
                              "non-finite or with repeated nodes")
    return xs, ws


# rft_fn's rules, kept per (n, alpha) for the 32 most recent values of s, as
# each s needs an 80- and a 160-node rule; a rule that raises is not kept
_gauss_laguerre_rule = functools.lru_cache(maxsize=64)(_laguerre_rule)


@functools.lru_cache(maxsize=8)
def _tanh_sinh_table(s_ratio: tuple[int, int]) -> dict:
    """tanh_sinh's node table for s = u/q, kept for the 8 most recent values
    of s: each mpmath node's raw mpf tuple maps to the factors of the
    integrand there that do not depend on f. rft_fn fills it only from the
    second call for its s on, as mpmath's own node cache does, since one
    verify pass uses most values of s once. A table holds about 362 nodes
    (90 KB), and up to 1442 (0.42 MB) for an integrand that is slow to
    converge."""
    return {}


# Relative distance at which two epsilon-table entries count as equal up to
# roundoff. Aitken's step on 12 partial sums of r^n, |r| <= 0.8, leaves its
# exact entries up to 31 machine epsilons apart relative to their size; 128
# leaves a factor of 4 of margin and is still far below the default
# NumericConfig tolerance of 1e-10.
_ROUNDOFF = 128 * 2.0 ** -52


def wynn_epsilon(partial_sums: Sequence[float]) -> tuple[float, float]:
    """Accelerate a sequence of partial sums with Wynn's epsilon algorithm.

    Returns (best_estimate, agreement) where agreement is the distance
    between the two best even-column diagonal entries; columns are truncated
    at the first degenerate (zero-difference or overflowing) cell. Once the
    last two entries of an even column past the partial sums agree to
    roundoff, that column's last entry is returned with their distance: the
    next odd column would divide by roundoff, and the even columns after it
    are noise whose diagonal entries can agree with each other more closely
    than correct ones do.
    """
    cur = [float(s) for s in partial_sums]
    if not cur:
        raise ValueError("need at least one partial sum")
    prev = [0.0] * (len(cur) + 1)
    diag = [cur[-1]]
    col = 0
    while len(cur) > 1:
        nxt: list[float] = []
        for i in range(len(cur) - 1):
            d = cur[i + 1] - cur[i]
            if d == 0:
                break
            v = prev[i + 1] + 1.0 / d
            if not (abs(v) < 1e300):
                break
            nxt.append(v)
        if not nxt:
            break
        prev = cur[: len(nxt) + 1]
        cur = nxt
        col += 1
        if col % 2 == 0:
            diag.append(cur[-1])
            if len(cur) > 1:
                gap = abs(cur[-1] - cur[-2])
                if gap <= _ROUNDOFF * max(abs(cur[-1]), abs(cur[-2])):
                    return cur[-1], gap
    best, err = diag[-1], math.inf
    for a, b in zip(diag, diag[1:]):
        d = abs(b - a)
        if d <= err:
            best, err = b, d
    if len(diag) == 1:
        err = math.inf
    return best, err


_CONSECUTIVE_SMALL = 3


def _sum_with_policy(terms: Iterator[float], cfg: NumericConfig,
                     accelerate: bool, what: str) -> tuple[float, float]:
    """Sum the terms, in order, under cfg; returns (sum, error_estimate).

    Stops after _CONSECUTIVE_SMALL successive terms fall below
    tolerance * max(1, |partial sum|) within truncation_N terms. When the
    stop criterion is unmet and accelerate is set, epsilon extrapolation of
    the partial sums, then of those through the smallest term, is attempted
    before raising NonConvergenceError, which is also raised for a term or
    partial sum outside the float range.
    """
    N = cfg.truncation_N
    acc = 0.0
    small = 0
    nonzero_sums: list[float] = []
    least, least_at = math.inf, 0  # smallest |term|, and the sums through it
    for n in range(N):
        try:
            t = next(terms)
        except OverflowError:
            raise NonConvergenceError(f"{what}: term {n} overflows a float") from None
        acc += t
        if not math.isfinite(acc):
            raise NonConvergenceError(f"{what}: term {n} or the sum through it is not finite")
        if t != 0.0:
            nonzero_sums.append(acc)
            if abs(t) < least:
                least, least_at = abs(t), len(nonzero_sums)
        if nonzero_sums and abs(t) <= cfg.tolerance * max(1.0, abs(acc)):
            small += 1
            if small >= _CONSECUTIVE_SMALL:
                return acc, abs(t)
        else:
            small = 0
    if not nonzero_sums:
        return 0.0, 0.0
    if accelerate and len(nonzero_sums) >= 8:
        best, agree = wynn_epsilon(nonzero_sums)
        if agree <= cfg.tolerance * max(1.0, abs(best)):
            return best, agree
        # Past its smallest term a series may show its inputs' rounding noise,
        # amplified, instead of its sum: retry on the sums through that term,
        # accepted when it agrees with itself and with epsilon on all sums.
        if 8 <= least_at < len(nonzero_sums):
            cut, cut_agree = wynn_epsilon(nonzero_sums[:least_at])
            gap = max(cut_agree, abs(cut - best))
            if gap <= cfg.tolerance * max(1.0, abs(cut)):
                return cut, gap
    raise NonConvergenceError(
        f"{what}: tail policy unmet after {N} terms (last |term| = {abs(t):.3e})"
    )


def _input(provider: Callable[[int], Scalar], n: int, what: str) -> tuple[int, int]:
    """provider(n) as an exact (numerator, positive denominator) pair, a type
    other than int, float and Fraction read through Fraction(). A call that
    overflows, or a value without an exact ratio such as NaN or inf, raises
    NonConvergenceError naming input n; the provider's ValueError propagates."""
    try:
        v = provider(n)
    except OverflowError:
        raise NonConvergenceError(f"{what}: input {n} overflows a float") from None
    try:
        return (v if isinstance(v, (int, float, Fraction)) else Fraction(v)).as_integer_ratio()
    except (OverflowError, ValueError):
        raise NonConvergenceError(f"{what}: input {n} is {v!r}, not a finite number") from None


# Both series below form term n as one exact rational U*c / (D*d 2^e): c/d
# is the coefficient or sample, and U/(D 2^e) is the argument's factor, kept
# as running ints over the argument's ratio u/q. The power of two in
# q = odd 2^k is carried as the exponent e = k n, applied as one left shift
# of the term's denominator, and D holds only the odd part: for a float
# argument, where odd = 1, the steps multiply only U. Python's int true
# division rounds that rational correctly, so each term is the float of its
# exact value, as a Fraction product would give, without a gcd per step.
# Factors like (s)_n and x^n/n! leave the float range long before the terms
# do, so they are never rounded alone.

def _dyadic(q: int) -> tuple[int, int]:
    """(odd, k) with q = odd 2^k, for q > 0."""
    k = (q & -q).bit_length() - 1
    return q >> k, k


def _newton_terms(coeffs: Iterable[tuple[int, int]], u: int, q: int) -> Iterator[float]:
    """(s)_n c/d for s = u/q and the n-th pair (c, d) of coeffs, d > 0 and not
    necessarily in lowest terms: U = prod_{j<n} (u - j q), D 2^e = q^n."""
    odd, k = _dyadic(q)
    U, D, e = 1, 1, 0
    for n, (c, d) in enumerate(coeffs):
        yield U * c / ((D * d) << e)
        U *= u - n * q
        D *= odd
        e += k


def _egf_terms(sample: Callable[[int], Scalar], u: int, q: int,
               what: str) -> Iterator[float]:
    """sample(n) x^n / n! for x = u/q: U = u^n, D 2^e = q^n n!."""
    odd, k = _dyadic(q)
    U, D, e = 1, 1, 0
    for n in count():
        c, d = _input(sample, n, what)
        yield U * c / ((D * d) << e)
        U *= u
        D *= odd * (n + 1)
        e += k


def fft_fn(coeff: Callable[[int], Scalar], s: float,
           cfg: NumericConfig = NumericConfig()) -> NumericResult:
    """Newton-sum falling transform at s of the function whose Taylor
    coefficient of x^n is coeff(n).

    Computes sum_n binom(s,n) n! a_n = sum_n (s)_n a_n; exact finite sum when
    s is a nonnegative integer. There is no path from point values: high-order
    numeric differentiation of a black-box callable is ill-conditioned.
    """
    what = "fft_fn Newton sum"
    return _newton_sum(map(_input, repeat(coeff), count(), repeat(what)), s, cfg, what)


def _newton_sum(coeffs: Iterable[tuple[int, int]], s: float, cfg: NumericConfig,
                what: str) -> NumericResult:
    """fft_fn on (numerator, denominator) pairs; its errors name what."""
    terms = _newton_terms(coeffs, *_argument_ratio(s, what))
    val, est = _sum_with_policy(terms, cfg, accelerate=True, what=what)
    return NumericResult(val, est)


def _egf_series(sample: Callable[[int], Scalar], x: float, cfg: NumericConfig,
                what: str) -> NumericResult:
    """e^{-x} sum_n sample(n) x^n / n!, with the damping applied to the sum.

    The error estimate is the magnitude of the first omitted weighted term
    (meaningful for eventually monotone decaying terms).
    """
    terms = _egf_terms(sample, *_argument_ratio(x, what), what)
    val, est = _sum_with_policy(terms, cfg, accelerate=False, what=what)
    try:
        damp = math.exp(-x)
    except OverflowError:
        damp = math.inf
    if not math.isfinite(damp * val):
        raise NonConvergenceError(f"{what}: e^(-x) times the sum {val:.3e} leaves the "
                                  f"float range at x = {x}")
    return NumericResult(damp * val, damp * est)


def ifft_fn(sample: Callable[[int], Scalar], x: float,
            cfg: NumericConfig = NumericConfig()) -> NumericResult:
    """Inverse falling transform e^{-x} sum_n f(n) x^n / n! of the integer
    samples f(n) = sample(n)."""
    return _egf_series(sample, x, cfg, "ifft_fn EGF series")


def irft_fn(f: Callable[[float], Scalar], x: float,
            cfg: NumericConfig = NumericConfig()) -> NumericResult:
    """Inverse rising transform e^{x} sum_n (-1)^n f(-n) x^n / n!.

    This is the EGF series of the reflected samples n -> f(-n) at -x, so f
    is read at the nonpositive integers -n.
    """
    return _egf_series(lambda n: f(-n), -x, cfg, "irft_fn EGF series")


# rft_fn accepts a value when its error estimate is at most this times
# max(1, |value|), on every scheme.
_RFT_TOLERANCE = 1e-7


def rft_fn(f: Callable[[float], float], s: float,
           scheme: str = "gauss_laguerre") -> NumericResult:
    """Rising transform (1/Gamma(s)) * integral_0^inf f(t) t^(s-1) e^(-t) dt.

    Schemes: 'gauss_laguerre' (the default) sums f over an 80-node and a
    160-node Gauss-Laguerre rule for the weight t^alpha e^(-t), alpha =
    s - 1.0, and divides by Gamma(alpha + 1); the fine sum gives the value
    and its change from the coarse one the error estimate. Below s = 0.5,
    alpha + 1 is s rounded to a multiple of 2^-53, so the value is the
    transform there, within about 2^-53 times its derivative in s.
    'tanh_sinh' is mpmath double-exponential quadrature at 25 digits with
    mpmath's error estimate; it is required when the weighted integrand has
    an algebraically heavy tail that defeats Gauss-Laguerre, at the cost of
    needing an mpmath-safe callable. Below s = 1 it integrates the head t in
    [0, 1] in u = t^s, which takes the branch point of t^(s-1) at 0 out of
    the integrand (Takahasi & Mori 1974; Davis & Rabinowitz 1984, 2.12), so
    s down to 2^-53 returns for f smooth at 0. The tail t >= 1, and from
    s = 1 on the whole range, is integrated in t, where an algebraic tail
    such as t^(s-2) still converges slowly. The part of the integrand that
    does not depend on f, t and its weight at each mpmath node, is kept per s
    in _tanh_sinh_table from the second call for that s on; the values and
    estimates are those of computing it at every call, to the bit. A
    Fraction s is read exactly, on both schemes.

    One check accepts either scheme's result: the value is finite and its
    error estimate is at most 1e-7 * max(1, |value|). Raises QuadratureError
    when a result fails it, a NaN from f included, or a float overflows in a
    rule or its integrand, or f returns a value that is not real, such as a
    complex, or the integrand divides by zero (for s < 1 tanh_sinh evaluates
    f down to t = 1e-29^(1/s), where a pole of f at 0 shows), or below
    s = 2^-53 on 'gauss_laguerre', where alpha rounds to -1; and ValueError
    for an unknown scheme, for s not finite and positive, or past s = 171.62
    on 'gauss_laguerre', which normalizes by a float Gamma(s).
    """
    if scheme == "adaptive_fallback":
        scheme = "gauss_laguerre"
    elif scheme not in ("gauss_laguerre", "tanh_sinh"):
        raise ValueError(f"unknown quadrature scheme {scheme!r}")
    u, q = _argument_ratio(s, "rft_fn")
    if not (s > 0):
        raise ValueError("rft_fn requires s > 0")

    if scheme == "tanh_sinh":
        import mpmath as mp

        with _mp_lock, mp.workdps(25):
            ss = mp.mpf(u) / q  # exact for a float s
            # Below s = 1, t^(s-1) has a branch point at 0. The head t < 1 is
            # then integrated in u = t^s, where t^(s-1) dt = du / s leaves
            # f(t) e^(-t) / s with t = u^(1/s), smooth at u = 0 when f is;
            # the tail t > 1 stays in t. From s = 1 on, the integrand is the
            # plain one throughout. One quad over [0, 1, inf] sums both parts
            # and their estimates; none of its nodes at 25 digits is 1.
            p = 1 / ss
            # a lookup that hits finds s seen before: this call fills the table
            hits = _tanh_sinh_table.cache_info().hits
            table = _tanh_sinh_table((u, q))
            fill = _tanh_sinh_table.cache_info().hits > hits

            def integrand(x):
                # (t, w, head) at node x: the integrand is f(t) w, times p in the head
                entry = table.get(x._mpf_)
                if entry is None:
                    if s < 1 and x < 1:
                        t = x ** p
                        entry = t, mp.exp(-t), True
                    else:
                        entry = x, mp.exp((ss - 1) * mp.ln(x) - x), False
                    if fill:
                        table[x._mpf_] = entry
                t, w, head = entry
                return f(t) * w * p if head else f(t) * w

            try:
                val, err = mp.quad(integrand, [0, 1, mp.inf], error=True)
            except OverflowError:
                raise QuadratureError(f"tanh_sinh: the integrand overflows a float "
                                      f"for s = {s}") from None
            except ZeroDivisionError:
                raise QuadratureError(f"tanh_sinh: the integrand divides by zero "
                                      f"for s = {s}") from None
            if isinstance(val, mp.mpc):
                raise QuadratureError(f"tanh_sinh: the integrand is not real for s = {s}")
            gamma_s = mp.gamma(ss)
            val, err = float(val / gamma_s), float(abs(err) / gamma_s)
    else:
        try:
            math.gamma(s)  # the range check: Gamma(alpha + 1) below is Gamma(s) from 0.5 on
        except OverflowError:
            raise ValueError(f"rft_fn scheme 'gauss_laguerre' needs Gamma(s) to fit a float, "
                             f"s <= 171.62, got s = {s}; use 'tanh_sinh'") from None
        alpha = s - 1.0

        def node_sum(m: int) -> float:
            """sum_i w_i f(x_i) over the m-node rule, skipping w_i = 0."""
            xs, ws = _gauss_laguerre_rule(m, alpha)
            try:
                terms = [w * f(x) for x, w in zip(xs, ws) if w > 0]
                try:
                    return math.fsum(terms)
                except TypeError:  # a term fsum cannot read as a float, such as a complex
                    raise QuadratureError(f"gauss_laguerre: the integrand is not real "
                                          f"for s = {s}") from None
            except OverflowError:
                raise QuadratureError(f"gauss_laguerre: the integrand overflows a float on the "
                                      f"{m}-node rule for s = {s}") from None

        coarse, fine = node_sum(_NODES), node_sum(2 * _NODES)
        # the rules' weights sum to Gamma(alpha + 1), not Gamma(s), below s = 0.5
        gamma_a = math.gamma(alpha + 1.0)
        val, err = fine / gamma_a, abs(fine - coarse) / gamma_a
    if not (math.isfinite(val) and err <= _RFT_TOLERANCE * max(1.0, abs(val))):
        raise QuadratureError(f"{scheme} unconverged for s = {s}: value {val!r}, "
                              f"error estimate {err:.3e}")
    return NumericResult(val, err)


_JET_EXTRA = 32  # Taylor coefficients read past the truncation for the shift to t


def _exact_inputs(value_at: Callable[[int], Scalar], m: int,
                  what: str) -> tuple[list[int], int]:
    """value_at(0), ..., value_at(m-1), each read by _input, as numerators
    over one denominator."""
    return _integers(Fraction(*_input(value_at, n, what)) for n in range(m))


def _damped_newton_sum(egf: Iterable[int], den: int, rate: int, order: float,
                       cfg: NumericConfig, what: str) -> NumericResult:
    """fft_fn at s = order of e^{-rate x} g(x), g given by at least
    truncation_N + 1 EGF coefficients, the numerators egf over den.

    The product is the difference table against (-rate)^n on the
    numerators, fed one numerator per Taylor coefficient the Newton sum
    reads; coefficient k is then h_k / (k! den), handed to the Newton terms
    unreduced. Errors name what.
    """
    dens = accumulate(range(1, cfg.truncation_N + 1), operator.mul, initial=den)
    return _newton_sum(zip(_pascal(egf, -rate), dens), order, cfg, what)


def fractional_derivative(coeff: Callable[[int], Scalar], order: float, t: Scalar = 0,
                          cfg: NumericConfig = NumericConfig()) -> NumericResult:
    """Liouville-type fractional derivative at t of the function f whose
    Taylor coefficient of x^n is coeff(n).

    Realized as the falling transform of e^{-x} f(x + t): shift the Taylor
    coefficients to t, multiply by e^{-x}, Newton-sum at s = order.

    Cost: the series is prepared only as far as the Newton sum reads it.
    The jet of M = N + 33 Taylor coefficients, N = truncation_N, is read
    and scaled in full, as shifted coefficient 0 depends on every jet term;
    then each of the K coefficients the sum reads costs one pass of about
    M additions for the shift to t and one of k for the e^{-x} product,
    about K M + K^2/2 integer additions in all. Their numerators share one
    denominator, with about M (b + log2 M) bits beyond the inputs' own, b
    the bits of t's denominator. For exp(7/8) at order 0.5, where K is
    about 12, on a 2-core VM a float t = 1/3 (b = 54) takes about 20 ms at
    N = 256 and 70 ms at N = 512.
    """
    what = "fractional_derivative"
    at = Fraction(*_argument_ratio(t, what))
    jet, den = _exact_inputs(coeff, cfg.truncation_N + 1 + _JET_EXTRA, what)
    shifted, factor = _taylor_shift(at, jet)
    egf = map(operator.mul, shifted, accumulate(count(1), operator.mul, initial=1))
    return _damped_newton_sum(egf, den * factor, 1, order, cfg, what)


def fractional_difference(f: Callable[[float], float], order: float, t: float = 0.0,
                          cfg: NumericConfig = NumericConfig()) -> NumericResult:
    """Fractional forward difference of f at t via the inverse-BT chain.

    Chain: the samples n -> f(n + t) are the EGF coefficients of
    FFT^{-1}(f(x+t)) e^{x}; multiplying by e^{-2x} realizes
    e^{-x} FFT^{-1}(f(x+t)), and the Newton sum at s = order finishes BT^{-1}.
    """
    what = "fractional_difference"
    _argument_ratio(t, what)
    egf, den = _exact_inputs(lambda n: f(t + n), cfg.truncation_N + 1, what)
    return _damped_newton_sum(egf, den, 2, order, cfg, what)


def gamma_support(x: float) -> float:
    """Gamma(x) for real x (libm gamma); raises ValueError at a pole, for a
    non-finite x and where Gamma(x) overflows a float."""
    _argument_ratio(x, "gamma_support")
    try:
        return math.gamma(x)
    except ValueError:
        raise ValueError(f"gamma pole at x = {x}") from None
    except OverflowError:
        raise ValueError(f"gamma_support: Gamma({x}) overflows a float") from None


def incomplete_gamma_upper(n: int, x: float) -> float:
    """Upper incomplete gamma Gamma(n, x) for integer n >= 1, any finite real x.

    Closed form e^{-x} P(x), P(x) = sum_{k<n} (n-1)!/k! x^k; valid (as the
    analytic continuation) for negative x as well. P(x) is exact, Horner's
    rule on integers over x's ratio u/q, and e^{-x} and the product are
    formed in 30-digit decimal, whose exponent range no factor leaves, then
    rounded once to a float: neither cancellation in P(x) for negative x
    nor a factor beyond the float range costs accuracy. Raises ValueError
    for a non-finite x and only where Gamma(n, x) itself overflows a float;
    a value below the float range returns as 0.0 or a subnormal. The
    integers grow to about n (b + log2 n) bits, b the bits of u and q.
    """
    if not isinstance(n, int) or n < 1:
        raise ValueError("order n must be a positive integer")
    u, q = _argument_ratio(x, "incomplete_gamma_upper")
    # P(x) q^(n-1) = sum_k c_k u^k, c_k = (n-1)!/k! q^(n-1-k)
    acc, c = 1, 1
    for k in reversed(range(n - 1)):
        c *= (k + 1) * q
        acc = acc * u + c
    with localcontext(Context(prec=30, Emax=MAX_EMAX, Emin=MIN_EMIN, traps=[])):
        value = float((-Decimal(u) / q).exp() * acc / Decimal(q) ** (n - 1))
    if not math.isfinite(value):
        raise ValueError(f"incomplete_gamma_upper: Gamma({n}, {x}) overflows a float")
    return value


def zeta_formal_series(s: Scalar, N: int) -> tuple[float, list[float]]:
    """Partial sum and raw terms of the formal Bernoulli/rising-factorial
    series for zeta: -1/(s-1) + sum_{n<N} B_{n+1} (-1)^(n+1)/(n+1)! s^(rising n).

    Makes no convergence claim: the terms eventually grow, and desk
    evaluation shows the partial sums do not approach zeta(s). Callers
    inspect the terms to locate the minimal-term truncation. Each term is
    formed exactly over s's ratio u/q, a float s read as its dyadic value,
    and rounded once. Raises NonConvergenceError naming the first term that
    overflows a float, or when the partial sum does, and ValueError for s = 1
    or s not finite.
    """
    if not isinstance(N, int) or N < 1:
        raise ValueError(f"zeta_formal_series needs an int N >= 1, got {N!r}")
    if s == 1:
        raise ValueError("pole at s = 1")
    u, q = _argument_ratio(s, "zeta_formal_series")
    terms = []
    # s^(rising n) / (n+1)! = rise / scale, both integers
    rise, scale = 1, 1
    for n in range(N):
        scale *= n + 1
        b = bernoulli(n + 1)
        try:
            terms.append((-1) ** (n + 1) * b.numerator * rise / (b.denominator * scale))
        except OverflowError:
            raise NonConvergenceError(f"zeta_formal_series: term {n} at s = {s} overflows "
                                      f"a float") from None
        rise *= u + n * q
        scale *= q
    try:
        return -1.0 / (s - 1.0) + math.fsum(terms), terms
    except OverflowError:
        raise NonConvergenceError(f"zeta_formal_series: the partial sum at s = {s} "
                                  f"overflows a float") from None
