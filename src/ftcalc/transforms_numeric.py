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
NumericConfig tolerance relative to its partial sum, with the last nonzero
one of them as its error estimate. Slowly converging Newton series
(binom(s,n) tails decay only like n^(-s-1)) and divergent ones summable in
Borel's sense are routine, and direct summation cannot reach practical
tolerances on them: the Newton sums also run Levin's u transformation, in
34-digit decimal, when their count of nonzero terms reaches 32, 64, 128,
and so on, and return the order whose estimate is least, if it meets the
tolerance. That estimate adds the change between orders to the change that
rounding can make, first the terms' own and, for the fractional operators,
that of their inputs, each taken to within 2^-53 of its magnitude and
carried through the exact preparation. A sum that Levin's u stops at its
first checkpoint reads 32 nonzero terms, whatever its truncation_N.
The Newton sum, the EGF series and zeta_formal_series take their terms
from one stream, _ratio_terms, which forms each term exactly and rounds
it once; they differ only in the data they pass it. One reader, _input,
reads every Taylor coefficient, sample or point value exactly through
_argument_ratio, the reader of every scalar in both layers; a call that
overflows or a value that reader refuses, NaN or inf, raises
NonConvergenceError naming the evaluator and the input. The
fractional operators prepare their series on one integer vector: the
inputs become numerators over one denominator, the derivative
Taylor-shifts them to t, the difference table multiplies by e^{-rate x},
and fft_fn's Newton sum reads each Taylor coefficient as an unreduced
(numerator, denominator) pair, which its int true division rounds
correctly without a gcd. The shift and the table each compute one
coefficient per coefficient the Newton sum reads, so a sum that stops
early prepares no more. The table takes its inputs as pairs over a
common denominator that grows as they arrive, so the difference, and the
derivative at t = 0, where the shift is the identity, read no input past
the last term the sum reads. NamedSource defines the named sources of the
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
from itertools import accumulate, count, islice, repeat, tee
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .combinatorics import Scalar, _argument_ratio, _over_lcm, _pascal, _taylor_shift, bernoulli


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

# mpmath decimal digits of the tanh_sinh scheme. mpmath keeps one node table
# per precision, so a quad run at this precision elsewhere shares its tables.
_TANH_SINH_DPS = 25

# Halley steps allowed per node. From the starting guesses in
# _laguerre_rule a node takes two, rarely three or four; the cap only ends a
# search that has gone wrong.
_HALLEY_STEPS = 50
# Stands in for an exact zero in the ratio recurrence, whose next step
# divides by it.
_TINY = 1e-300


def _laguerre_rule(n: int, s: float):
    """Nodes and weights of the n-point Gauss rule for the Gamma(s, 1)
    probability measure t^(s-1) e^(-t) dt / Gamma(s) on [0, inf), every
    recurrence quantity formed from s itself.

    Each node is polished by Halley steps on L_n^(s-1), taking L_n / L_n'
    from the ratio form of the monic three-term recurrence and L'' from the
    Laguerre ODE x y'' = (x - s) y' - n y, with the nodes already found
    divided out so the n nodes are distinct. Starting guesses: the `gaulag`
    formula (Press et al., Numerical Recipes, 4.5) for the first node when
    s <= 2, else the left turning point of the Laguerre ODE plus the first
    Airy zero; each later node lies one WKB half-wave past the previous one.

    The weights are the Christoffel numbers 1 / sum_{j<n} h_j(x)^2 of the
    orthonormal h_j = L_j^(s-1) / sqrt(C(j+s-1, j)) (Gautschi, Orthogonal
    Polynomials, 2004), each recurrence step scaled by e^(-x/(2n)) to stay
    in range. Raises QuadratureError naming n and s when a float step fails
    or the rule lacks distinct positive nodes, sum w = 1 or sum w x = s to
    1e-12, which the 80- and 160-node rules meet within 5e-14 from s =
    4.1e-53 to 333.6; just below, only the first moment shows the failure.
    """
    try:
        monic = [(2 * j + s, j * (j - 1 + s)) for j in range(n)]
        normal = [(a, math.sqrt(b2), 1.0 / math.sqrt((j + 1) * (j + s)))
                  for j, (a, b2) in enumerate(monic)]
        kappa, mu = 2 * n + s, s * (2 - s)

        def wave(x: float) -> float:
            """Squared local frequency of x^(s/2) e^(-x/2) L_n(x)."""
            return kappa / (2 * x) + mu / (4 * x * x) - 0.25

        def newton_step(z: float) -> float:
            """L_n / L_n' at z, from r_j = p_j / p_(j-1) of the monic p_j."""
            r = 1.0
            for a, b2 in monic:
                r = z - a - b2 / r or _TINY
            return z * r / (n * (r + (n - 1) + s))

        def weight(z: float) -> float:
            c = math.exp(-z / (2 * n))
            c2 = c * c
            h, hp, t = 1.0, 0.0, 0.0
            for a, b, ib in normal:
                t = t * c2 + h * h
                h, hp = ((a - z) * h - b * hp) * ib * c, h * c
            return math.exp(2 * (n - 1) * math.log(c) - math.log(t))

        if s > 2:
            turn = -mu / (kappa + math.sqrt(kappa * kappa + mu))
            # turn + |a_1| / wave'(turn)^(1/3), with a_1 = -2.338 the first Airy zero
            z = turn + 2.338 * (2 * turn * turn / (kappa - turn)) ** (1 / 3)
        else:
            z = s * (2.08 + 0.92 * s) / (2.4 * n - 0.8 + 1.8 * s)
        nodes: list[float] = []
        for i in range(n):
            if i:
                z = nodes[-1]
                half = math.pi / math.sqrt(wave(z))
                q = wave(z + half / 2)
                z += math.pi / math.sqrt(q) if q > 0 else half
            for _ in range(_HALLEY_STEPS):
                u = newton_step(z)
                r = (z - s - n * u) / z  # L'' / L'
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
                raise QuadratureError(f"node {i} did not converge in {_HALLEY_STEPS} "
                                      "Halley steps")
            nodes.append(z)
        xs = tuple(sorted(nodes))
        ws = tuple(map(weight, xs))
        # a node or weight that is not finite leaves a moment that is not, and fails
        m0, m1 = math.fsum(ws), math.fsum(map(operator.mul, ws, xs))
        if not (xs[0] > 0 and min(ws) >= 0 and all(a < b for a, b in zip(xs, xs[1:]))
                and abs(m0 - 1) <= 1e-12 and abs(m1 - s) <= 1e-12 * s):
            raise QuadratureError(f"came out with repeated nodes or moments {m0!r} and "
                                  f"{m1!r}, not 1 and s")
    except (ArithmeticError, ValueError) as exc:  # QuadratureError is an ArithmeticError
        why = exc if isinstance(exc, QuadratureError) else f"{type(exc).__name__} in a float step"
        raise QuadratureError(f"Gauss-Laguerre rule n={n}, s={s}: {why}") from None
    return xs, ws


# rft_fn's rules, kept per (n, s) for the 32 most recent values of the float
# s, as each s needs an 80- and a 160-node rule; a rule that raises is not kept
_gauss_laguerre_rule = functools.lru_cache(maxsize=64)(_laguerre_rule)


@functools.lru_cache(maxsize=8)
def _tanh_sinh_table(s_ratio: tuple[int, int]) -> dict:
    """tanh_sinh's node table for s = u/q, kept for the 8 most recent values
    of s: each mpmath node's raw mpf tuple maps to the factors of the
    integrand there that do not depend on f. rft_fn fills it only from the
    second call for its s on, as mpmath's own node cache does, since one
    verify pass uses most values of s once. A table holds about 362 nodes
    (90 KB), up to 1442 (0.42 MB) for an integrand that is slow to converge,
    and about 4100 (1 MB) for cos past s = 50, where the tail is split."""
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
    than correct ones do. No Newton sum calls it: they use Levin's u
    transformation (_levin_u).
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
# Levin's u runs when the count of nonzero terms reaches 32, 64, 128, ...,
# and at the last term the truncation reads, on the orders k of
# _levin_orders.
_CHECKPOINT = 32
# The least order k that Levin's u is tried at. Below it the differences
# between orders can agree by chance: at k = 7, on the 8 nonzero terms of
# sin(1) with truncation_N = 16, they put 7e-11 on an error of 3e-10.
_MIN_ORDER = 11
# A float term is its exact value correctly rounded, within 2^-53 of its
# magnitude; the fractional operators take each input to be known as well.
_ROUNDING = 2.0 ** -53
# Levin's arithmetic, 34 digits: the cancellation in its weighted sums
# costs L_k about k 10^-34 times the stability index of _levin_u times the
# partial sums, below a float's rounding while that index stays under 10^15.
_LEVIN = Context(prec=34, Emax=MAX_EMAX, Emin=MIN_EMIN, traps=[])


def _levin_u(terms: Sequence[float], at: Sequence[int],
             noise: Optional[Callable[[list[float]], float]],
             tolerance: float) -> Callable[[int], tuple[float, float, float]]:
    """Levin's u transformation of the series of terms a_0, a_1, ...:

        L_k = sum_(j<=k) c_j s_j / w_j / sum_(j<=k) c_j / w_j,
        c_j = (-1)^j binom(k, j) (j + 1)^(k-1),  w_j = (j + 1) a_j,

    s_j the partial sums (Levin 1973; Weniger 1989, sections 7-8). a_j is
    term at[j] of the series the policy reads, whose other terms are 0.
    Returns the function k -> (L_k, estimate, geometric estimate), k >= 4,
    each costing O(k); an estimate whose truncation part alone exceeds
    tolerance * max(1, |L_k|) is returned as inf.

    Both estimates add a truncation part and a noise part. The noise part
    is the change in L_k that rounding can make, to first order: with
    W_j = (c_j / w_j) / sum c / w, a change in a_j moves L_k by
    sum_(i>=j) W_i through the partial sums, less W_j (s_j - L_k) / a_j
    through w_j. That derivative times the rounding of a_j, 2^-53 |a_j|,
    summed in magnitude, is the part from the terms' own rounding; noise,
    if given, maps the derivatives for all the terms read, 0 past at[k],
    to the part from the rounding of the inputs they are computed from.
    Where the W_j cancel little, this is the stability index sum |W_j|
    (Sidi 2003) times the rounding.

    With d_i = |L_i - L_(i-1)|, the truncation part of the estimate is
    max(d_k, d_(k-1)): d_k alone is about the error of L_(k-1), and misses
    that of an L_k that lands near the limit by chance as the L_i
    oscillate about it. Where the differences shrink steadily, at a ratio
    q <= 1/2 from d_(k-2) to d_(k-1) and from d_(k-1) to d_k, the
    geometric estimate's truncation part is their tail d_k q / (1 - q);
    elsewhere it is infinite. An order that does not transform gives
    (nan, inf, inf): where the terms keep one sign and w_k does not fall,
    the series diverges and L_k is an antilimit, such as the analytic
    continuation of a divergent power series, not a sum.
    """
    with localcontext(_LEVIN):
        a = list(map(Decimal, terms))
        s = list(accumulate(a))
        # c_j / w_j is _levin_weights(k)[j] / a_j
        h = [1 / x for x in a]
        hs = list(map(operator.mul, h, s))
        rounding = Decimal(_ROUNDING)

    def at_order(k: int) -> tuple[float, float, float]:
        if ((terms[k - 1] > 0) == (terms[k] > 0)
                and abs((k + 1) * terms[k]) >= abs(k * terms[k - 1])):
            return math.nan, math.inf, math.inf
        weights = list(map(_levin_weights, range(k, k - 4, -1)))
        with localcontext(_LEVIN):
            dens = [sum(map(operator.mul, c, h)) for c in weights]
            if not all(dens):
                return math.nan, math.inf, math.inf
            L, *earlier = (sum(map(operator.mul, c, hs)) / den for c, den in zip(weights, dens))
            d1, d2, d3 = (abs(x - y) for x, y in zip([L] + earlier, earlier))
            q = max(d1 / d2, d2 / d3) if 0 < 2 * d1 <= d2 and 2 * d2 <= d3 else 1
            truncation = [float(max(d1, d2)), float(d1 * q / (1 - q)) if q < 1 else math.inf]
            limit = tolerance * max(1.0, abs(float(L)))
            if min(truncation) > limit:
                return float(L), math.inf, math.inf
            W = [x * y / dens[0] for x, y in zip(weights[0], h)]
            V = list(accumulate(reversed(W)))[::-1]
            d = [v - w * (y - L) / x for v, w, y, x in zip(V, W, s, a)]
            spread = float(rounding * sum(abs(x * y) for x, y in zip(d, a)))
        if noise:
            # a zero term between a_(j-1) and a_j enters s_j, ..., s_k
            full: list[float] = []
            for j, i in enumerate(at[:k + 1]):
                full += [float(V[j])] * (i - len(full)) + [float(d[j])]
            spread += noise(full)
        return (float(L), *(x + spread if x <= limit else math.inf for x in truncation))

    return at_order


@functools.lru_cache(maxsize=64)
def _levin_weights(k: int) -> list[Decimal]:
    """c_j / (j + 1) = (-1)^j binom(k, j) (j + 1)^(k-2) for j <= k, kept for
    the 64 most recent orders k: the orders that _levin_orders tries recur
    from sum to sum."""
    with localcontext(_LEVIN):
        return list(map(operator.mul, accumulate(range(k), lambda b, j: -b * (k - j) // (j + 1),
                                                 initial=1),
                        (Decimal(j) ** (k - 2) for j in range(1, k + 2))))


def _levin_orders(top: int, below: int, checkpoint: int) -> list[int]:
    """The orders Levin's u tries at a checkpoint where the highest order is
    top: top, then from checkpoint - 1 down in steps of checkpoint / 8 those
    below top, above below (the highest order of the last checkpoint) and
    from _MIN_ORDER on. L_k reads only the terms through k, so no order is
    tried twice."""
    step = checkpoint // 8
    return [top] + [k for k in range(checkpoint - 1, max(below, _MIN_ORDER - 1), -step)
                    if k < top]


def _sum_with_policy(terms: Iterator[float], cfg: NumericConfig, accelerate: bool, what: str,
                     noise: Optional[Callable[[list[float]], float]] = None
                     ) -> tuple[float, float]:
    """Sum the terms, in order, under cfg; returns (sum, error_estimate).

    Stops after _CONSECUTIVE_SMALL successive terms fall below
    tolerance * max(1, |partial sum|) within truncation_N terms; the
    estimate is then the last nonzero term among them, 0 if all are 0.

    With accelerate set, Levin's u transformation (_levin_u) runs on the
    nonzero terms, which skips the structural zeros, when their count
    reaches 32, 64, 128, ..., and at the last term read if there are 12 or
    more. At each such checkpoint it tries the orders of _levin_orders from
    the highest down, and stops going down once an order after one within
    the tolerance does not halve the least estimate. It returns the L_k of
    least estimate within tolerance * max(1, |L_k|), or if there is none,
    of least geometric estimate within it. The estimates carry the terms'
    rounding and, through noise(d) if given, the rounding of the inputs
    the terms are computed from. NonConvergenceError is raised when no stop
    is met, and for a term or partial sum outside the float range.
    """
    N = cfg.truncation_N
    acc = 0.0
    small = 0
    nonzero: list[float] = []
    at: list[int] = []  # the index of each nonzero term
    checkpoint, below = _CHECKPOINT, 0
    for n in range(N):
        try:
            t = next(terms)
        except OverflowError:
            raise NonConvergenceError(f"{what}: term {n} overflows a float") from None
        acc += t
        if not math.isfinite(acc):
            raise NonConvergenceError(f"{what}: term {n} or the sum through it is not finite")
        if t != 0.0:
            nonzero.append(t)
            at.append(n)
        if nonzero and abs(t) <= cfg.tolerance * max(1.0, abs(acc)):
            small += 1
            if small >= _CONSECUTIVE_SMALL:
                return acc, abs(nonzero[-1]) if at[-1] > n - small else 0.0
        else:
            small = 0
        if not (accelerate and (len(nonzero) == checkpoint or n == N - 1)):
            continue
        top = len(nonzero) - 1
        if top >= _MIN_ORDER and top > below:
            levin = _levin_u(nonzero, at, noise, cfg.tolerance)
            best: list = [None, None]  # the least (estimate, L_k) of each kind
            for k in _levin_orders(top, below, checkpoint):
                val, *estimates = levin(k)
                if best[0] and not estimates[0] < best[0][0] / 2:
                    break
                for i, est in enumerate(estimates):
                    if (est <= cfg.tolerance * max(1.0, abs(val))
                            and not (best[i] and best[i][0] <= est)):
                        best[i] = est, val
            if best[0] or best[1]:
                est, val = best[0] or best[1]
                return val, est
            if top + 1 == checkpoint:
                checkpoint *= 2
            below = top
    if not nonzero:
        return 0.0, 0.0
    raise NonConvergenceError(
        f"{what}: tail policy unmet after {N} terms (last |term| = {abs(t):.3e})"
    )


def _input(provider: Callable[[int], Scalar], n: int, what: str) -> tuple[int, int]:
    """provider(n) as an exact (numerator, positive denominator) pair, read by
    _argument_ratio. A call that overflows, or a value that the reader
    refuses, NaN or inf, raises NonConvergenceError naming input n; the
    provider's own ValueError propagates."""
    try:
        v = provider(n)
    except OverflowError:
        raise NonConvergenceError(f"{what}: input {n} overflows a float") from None
    try:
        return _argument_ratio(v, what)
    except ValueError:
        raise NonConvergenceError(f"{what}: input {n} is {v!r}, not a finite number") from None


def _inputs(provider: Callable[[int], Scalar], what: str) -> Iterator[tuple[int, int]]:
    """provider(0), provider(1), ..., each read by _input when it is."""
    return map(_input, repeat(provider), count(), repeat(what))


# Every series below forms term n as one exact rational U*c / (D*d 2^e): c/d
# is the coefficient, sample or Bernoulli number, and U/(D 2^e) is the
# argument's factor, kept as running ints over the argument's ratio u/q. The
# power of two in q = odd 2^k is carried as the exponent e = k n, applied as
# one left shift of the term's denominator, and D holds the odd part of q^n
# times the integers of the factor's denominator: for a float argument,
# where odd = 1, those integers alone. Python's int true division rounds
# that rational correctly, so each term is the float of its exact value, as
# a Fraction product would give, without a gcd per step. Factors like
# (s)_n and x^n/n! leave the float range long before the terms do, so they
# are never rounded alone.

def _ratio_terms(pairs: Iterable[tuple[int, int]], muls: Iterable[int], u: int, q: int,
                 step: int) -> Iterator[float]:
    """Term n = U c / (Q d) for the n-th pair (c, d) of pairs, d > 0 and not
    necessarily in lowest terms: U = prod_{j<n} (u + step j q) and
    Q = q^n m_0 ... m_(n-1) for the elements m_j of muls. The Newton sum
    passes step -1 and 1s, for (s)_n; the EGF series step 0 and 1, 2, ...,
    for x^n/n!; the zeta series step 1 and 2, 3, ..., for
    s^(rising n)/(n+1)!. A pair is read only when its term is."""
    k = (q & -q).bit_length() - 1  # q = odd 2^k
    odd, U, D, e, du = q >> k, 1, 1, 0, step * q
    for (c, d), m in zip(pairs, muls):
        yield U * c / ((D * d) << e)
        U *= u
        u += du
        D *= odd * m
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
    return _newton_sum(_inputs(coeff, what), s, cfg, what)


def _newton_sum(coeffs: Iterable[tuple[int, int]], s: float, cfg: NumericConfig,
                what: str, noise: Optional[Callable[[list[float]], float]] = None
                ) -> NumericResult:
    """fft_fn on (numerator, denominator) pairs; noise, if given, is the
    noise function of _sum_with_policy. Its errors name what."""
    terms = _ratio_terms(coeffs, repeat(1), *_argument_ratio(s, what), -1)
    val, est = _sum_with_policy(terms, cfg, True, what, noise)
    return NumericResult(val, est)


def _egf_series(sample: Callable[[int], Scalar], x: float, cfg: NumericConfig,
                what: str) -> NumericResult:
    """e^{-x} sum_n sample(n) x^n / n!, with the damping applied to the sum.

    The error estimate is the magnitude of the first omitted weighted term
    (meaningful for eventually monotone decaying terms).
    """
    terms = _ratio_terms(_inputs(sample, what), count(1), *_argument_ratio(x, what), 0)
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
    160-node Gauss-Laguerre rule of the Gamma(s, 1) probability measure,
    kept per (n, s) with s rounded once to a float; the fine sum gives the
    value and its change from the coarse one the error estimate. The pair
    is built from s = 4.1e-53 to 333.6. 'tanh_sinh' is mpmath
    double-exponential quadrature at 25 digits with mpmath's error
    estimate; it is required when the weighted integrand has an
    algebraically heavy tail that defeats Gauss-Laguerre, at the cost of
    needing an mpmath-safe callable, and reads a Fraction s exactly. Below
    s = 1 it integrates the head t in [0, 1] in u = t^s, which takes the
    branch point of t^(s-1) at 0 out of the integrand (Takahasi & Mori
    1974; Davis & Rabinowitz 1984, 2.12), so s down to 2^-53 returns for f
    smooth at 0. The tail t >= 1, and from s = 1 on the whole range, is
    integrated in t, where an algebraic tail such as t^(s-2) still
    converges slowly; past s = 2 it is split at the weight's peak s - 1 and
    3 sqrt(s) on either side. The part of the integrand that does not depend
    on f, t and its weight at each mpmath node, is kept per s in
    _tanh_sinh_table from the second call for that s on; the values and
    estimates are those of computing it at every call, to the bit.

    One check accepts either scheme's result: the value is finite and its
    error estimate is at most 1e-7 * max(1, |value|). Raises QuadratureError
    when a result fails it, a NaN from f included, or a float overflows in
    the integrand, or f returns a value that is not real, such as a
    complex, or the integrand divides by zero (for s < 1 tanh_sinh evaluates
    f down to t = 1e-29^(1/s), where a pole of f at 0 shows), or a
    Gauss-Laguerre rule fails for s, naming n and s; and ValueError for an
    unknown scheme, or for s not finite and positive, or past the float
    range on 'gauss_laguerre'.
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

        with _mp_lock, mp.workdps(_TANH_SINH_DPS):
            ss = mp.mpf(u) / q  # exact for a float s
            # Below s = 1, t^(s-1) has a branch point at 0. The head t < 1 is
            # then integrated in u = t^s, where t^(s-1) dt = du / s leaves
            # f(t) e^(-t) / s with t = u^(1/s), smooth at u = 0 when f is;
            # the tail t > 1 stays in t. From s = 1 on, the integrand is the
            # plain one throughout. One quad over [0, 1, inf] sums both parts
            # and their estimates; none of its nodes at 25 digits is 1. Past
            # s = 2 the tail also splits at the weight's peak, of width ~sqrt(s).
            split = (ss - 1 + k * mp.sqrt(ss) for k in (-3, 0, 3)) if s > 2 else ()
            points = [0, 1, *(t for t in split if t > 1), mp.inf]
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
                val, err = mp.quad(integrand, points, error=True)
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
            s_float = u / q  # the rules are kept per float s
        except OverflowError:
            raise ValueError("rft_fn: gauss_laguerre needs s within the float range") from None

        def node_sum(m: int) -> float:
            """sum_i w_i f(x_i) over the m-node rule, skipping w_i = 0."""
            xs, ws = _gauss_laguerre_rule(m, s_float)
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
        val, err = fine, abs(fine - coarse)
    if not (math.isfinite(val) and err <= _RFT_TOLERANCE * max(1.0, abs(val))):
        raise QuadratureError(f"{scheme} unconverged for s = {s}: value {val!r}, "
                              f"error estimate {err:.3e}")
    return NumericResult(val, err)


# Taylor coefficients read past the truncation for the shift to a t other
# than 0; at t = 0 the jet is read only as far as the Newton sum reads it.
_JET_EXTRA = 32


def _shifted(c: list[float], r: float) -> Iterator[float]:
    """The coefficients of sum_i c_i (x + r)^i, in floats, by Horner's
    shift: after pass i coefficient i is final, and is yielded."""
    c = c[:]
    for i in range(len(c)):
        for j in range(len(c) - 2, i - 1, -1):
            c[j] += r * c[j + 1]
        yield c[i]


def _damped_newton_sum(egf: Iterable[tuple[int, int]], rate: int, order: float,
                       cfg: NumericConfig, what: str, rounding: Iterable[float]) -> NumericResult:
    """fft_fn at s = order of e^{-rate x} g(x), g given by its EGF
    coefficients as (numerator, denominator) pairs, read one per Taylor
    coefficient the Newton sum reads.

    The product is the difference table against (-rate)^n, whose
    coefficient k is h_k over D_k, the lcm of the first k + 1 denominators;
    Taylor coefficient k is then h_k / (k! D_k), handed to the Newton terms
    unreduced. rounding bounds the noise of each EGF coefficient from the
    rounding of the inputs, read as _input_noise reads it. Errors name what.
    """
    factorials = accumulate(count(1), operator.mul, initial=1)
    pairs = ((h, den * f) for (h, den), f in zip(_pascal(egf, -rate), factorials))
    return _newton_sum(pairs, order, cfg, what, _input_noise(rounding, rate, order))


def _input_noise(rounding: Iterable[float], rate: int,
                 order: float) -> Callable[[list[float]], float]:
    """The noise function of _sum_with_policy for the Newton sum at
    s = order of e^{-rate x} g(x), the EGF coefficients of g having the
    noise bounds rounding, read only as far as a call needs them.

    Term k is binom(s, k) h_k, so a change in EGF coefficient n moves a
    result with derivatives d_k in the terms by G_n = sum_k d_k binom(s, k)
    binom(k, n) (-rate)^(k-n), the coefficients of
    sum_k d_k binom(s, k) (x - rate)^k; the bound is sum_n |G_n| rounding_n.
    """
    bounds: list[float] = []
    rounding = iter(rounding)
    s = float(order)

    def noise(d: list[float]) -> float:
        bounds.extend(islice(rounding, max(0, len(d) - len(bounds))))
        binomials = accumulate(range(len(d)), lambda b, k: b * (s - k) / (k + 1), initial=1.0)
        G = _shifted(list(map(operator.mul, d, binomials)), -rate)
        return sum(abs(x * y) for x, y in zip(G, bounds))

    return noise


def _magnitude(num: int, den: int) -> float:
    """|num / den| as a float, inf past the float range."""
    try:
        return abs(num) / den
    except OverflowError:
        return math.inf


def _input_rounding(inputs: Iterable[tuple[int, int]]) -> Iterator[float]:
    """2^-53 times the magnitude of each (numerator, denominator) input."""
    return (_ROUNDING * _magnitude(c, d) for c, d in inputs)


def _egf_rounding(jet_rounding: Iterable[float], t: float) -> Iterator[float]:
    """Bounds on the noise of the EGF coefficients of f(x + t), from those
    on f's Taylor coefficients: through the shift by |t|, which reads every
    bound when the first is read, then times n! for EGF coefficient n. At
    t = 0 there is no shift, and bound n is read when EGF bound n is."""
    if t:
        jet_rounding = _shifted(list(jet_rounding), abs(t))
    factorials = accumulate(count(1), operator.mul, initial=1.0)
    for x, f in zip(jet_rounding, factorials):
        yield x * f if x else 0.0


def fractional_derivative(coeff: Callable[[int], Scalar], order: float, t: Scalar = 0,
                          cfg: NumericConfig = NumericConfig()) -> NumericResult:
    """Liouville-type fractional derivative at t of the function f whose
    Taylor coefficient of x^n is coeff(n).

    Realized as the falling transform of e^{-x} f(x + t): shift the Taylor
    coefficients to t, multiply by e^{-x}, Newton-sum at s = order. Each
    Taylor coefficient is taken to be known to 2^-53 of its magnitude, as a
    float input is, whatever its type, for the noise part of the estimate
    of Levin's u.

    Cost: the series is prepared only as far as the Newton sum reads it.
    At t = 0 the shift is the identity, and each Taylor coefficient is read
    only when the sum reaches it: K coefficients for a sum of K terms, and
    about K^2/2 integer additions for the e^{-x} product, on numerators over
    the lcm of the denominators read so far. At any other t the jet of
    M = N + 33 Taylor coefficients, N = truncation_N, is read and scaled in
    full, as shifted coefficient 0 depends on every jet term; then each of
    the K coefficients the sum reads costs one pass of about M additions for
    the shift and one of k for the e^{-x} product, about K M + K^2/2 integer
    additions in all. Their numerators share one denominator, with about
    M (b + log2 M) bits beyond the inputs' own, b the bits of t's
    denominator. For exp(7/8) at order 0.5, where K is about 12, on a
    2-core VM a float t = 1/3 (b = 54) takes about 13 ms at N = 256 and
    52 ms at N = 512, and t = 0 about 0.08 ms at either.
    """
    what = "fractional_derivative"
    u, q = _argument_ratio(t, what)
    jet = _inputs(coeff, what)
    if u:
        jet = list(islice(jet, cfg.truncation_N + 1 + _JET_EXTRA))
        nums, den = _over_lcm(jet)
        shifted, factor = _taylor_shift(u, q, nums)
        taylor = zip(shifted, repeat(den * factor))
    else:
        jet, taylor = tee(jet)
    factorials = accumulate(count(1), operator.mul, initial=1)
    egf = ((c * f, d) for (c, d), f in zip(taylor, factorials))
    return _damped_newton_sum(egf, 1, order, cfg, what,
                              _egf_rounding(_input_rounding(jet), _magnitude(u, q)))


def fractional_difference(f: Callable[[float], float], order: float, t: float = 0.0,
                          cfg: NumericConfig = NumericConfig()) -> NumericResult:
    """Fractional forward difference of f at t via the inverse-BT chain.

    Chain: the samples n -> f(n + t) are the EGF coefficients of
    FFT^{-1}(f(x+t)) e^{x}; multiplying by e^{-2x} realizes
    e^{-x} FFT^{-1}(f(x+t)), and the Newton sum at s = order finishes BT^{-1}.
    Each sample is taken to be known to 2^-53 of its magnitude, as a float
    is, whatever its type, for the noise part of the estimate of Levin's u.

    Cost: sample n is read only when the Newton sum reaches term n, so a
    sum of K terms reads K samples and takes about K^2/2 integer additions
    for the e^{-2x} product, on numerators over the lcm of the denominators
    read so far.
    """
    what = "fractional_difference"
    _argument_ratio(t, what)
    samples, read = tee(_inputs(lambda n: f(t + n), what))
    return _damped_newton_sum(samples, 2, order, cfg, what, _input_rounding(read))


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
    pairs = (((-1) ** (n + 1) * b.numerator, b.denominator)
             for n, b in enumerate(map(bernoulli, count(1))))
    terms: list[float] = []
    try:
        for t in islice(_ratio_terms(pairs, count(2), u, q, 1), N):
            terms.append(t)
    except OverflowError:
        raise NonConvergenceError(f"zeta_formal_series: term {len(terms)} at s = {s} "
                                  f"overflows a float") from None
    try:
        return -1.0 / (s - 1.0) + math.fsum(terms), terms
    except OverflowError:
        raise NonConvergenceError(f"zeta_formal_series: the partial sum at s = {s} "
                                  f"overflows a float") from None
