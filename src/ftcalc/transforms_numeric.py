"""Floating-point transforms on functions.

Newton sums (falling transform of Taylor sources), EGF series (inverse
transforms of integer samples), Gauss-Laguerre quadrature for the rising
transform, fractional derivatives/differences, and the gamma-function
support used by the verification checks.

Numeric policy: a series stops once three successive terms fall below the
NumericConfig tolerance relative to its partial sum. When direct
summation misses the stop criterion within truncation_N, the Newton-sum
evaluator applies Wynn's epsilon extrapolation to the partial sums before
giving up; slowly converging Newton series (binom(s,n) tails decay only like
n^(-s-1)) are routine and direct summation alone cannot reach practical
tolerances. The returned error estimate is then the extrapolation's internal
agreement, otherwise the magnitude of the first omitted weighted term.
The fractional operators prepare their series exactly for every input, a
float read as its dyadic value, on one integer vector: the inputs become
numerators over one denominator, the derivative Taylor-shifts them to t,
one difference-table pass multiplies by e^{-rate x}, and fft_fn's Newton
sum reads each Taylor coefficient as an unreduced (numerator, denominator)
pair, which its int true division rounds correctly without a gcd.
"""

from __future__ import annotations

import math
import operator
import threading
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate, count
from typing import Callable, Iterable, Iterator, Sequence, Union

from .combinatorics import bernoulli, rising_factorial
from .polynomial import _integers, _taylor_shift, shift_op
from .transforms_exact import _pascal

Number = Union[int, float, Fraction]


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


@dataclass(frozen=True)
class SeriesSource:
    """Supplier of Taylor coefficients, integer samples, or point values.

    kind 'taylor': provider(n) is the coefficient a_n of x^n (exact or float).
    kind 'integer_samples': provider(n) is f(n) for nonnegative integers.
    kind 'callable': provider(x) is f(x) at real arguments.
    radius is a validity hint for taylor providers (positive, may be inf).
    """

    kind: str
    provider: Callable
    radius: float = math.inf

    def __post_init__(self):
        if self.kind not in ("taylor", "integer_samples", "callable"):
            raise ValueError(f"unknown source kind {self.kind!r}")
        if not (self.radius > 0):
            raise ValueError("radius hint must be positive")


def taylor_source(provider: Callable[[int], Number], radius: float = math.inf) -> SeriesSource:
    return SeriesSource("taylor", provider, radius)


def samples_source(provider: Callable[[int], Number]) -> SeriesSource:
    return SeriesSource("integer_samples", provider)


def callable_source(provider: Callable[[float], float]) -> SeriesSource:
    return SeriesSource("callable", provider)


@dataclass(frozen=True)
class NumericConfig:
    truncation_N: int = 64
    tolerance: float = 1e-10

    def __post_init__(self):
        if self.truncation_N < 1:
            raise ValueError("truncation_N must be >= 1")
        if not (self.tolerance > 0):
            raise ValueError("tolerance must be positive")


@dataclass(frozen=True)
class QuadratureSpec:
    """The rft_fn scheme: 'gauss_laguerre' (the default), 'adaptive_fallback'
    or 'tanh_sinh'."""

    scheme: str = "gauss_laguerre"

    def __post_init__(self):
        if self.scheme not in ("gauss_laguerre", "adaptive_fallback", "tanh_sinh"):
            raise ValueError(f"unknown quadrature scheme {self.scheme!r}")


# Nodes of the coarse Gauss-Laguerre rule; the fine rule has twice as many,
# and their difference is the error estimate. A rule costs O(n^2) float
# steps in Python: about 10 ms at n = 160 on a 2-core Xeon VM. Its largest
# nodes lie near 4n, and weights of nodes far past x = 700 underflow to 0.
_NODES = 80

_node_cache: dict = {}
_node_lock = threading.Lock()

# mpmath working precision is process-global state; serialize tanh_sinh use
# so concurrent callers cannot corrupt each other's precision context.
_mp_lock = threading.Lock()

# Halley steps allowed per node. From the starting guesses in
# _laguerre_rule a node takes two, rarely three or four; the cap only ends a
# search that has gone wrong.
_HALLEY_STEPS = 50
# Stands in for an exact zero in the ratio recurrence, whose next step
# divides by it.
_TINY = 1e-300


def _gauss_laguerre_rule(n: int, alpha: float):
    key = (n, alpha)
    rule = _node_cache.get(key)
    if rule is None:
        with _node_lock:
            rule = _node_cache.get(key)
            if rule is None:
                rule = _node_cache[key] = _laguerre_rule(n, alpha)
    return rule


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
    partial sum outside the float range and for a NaN input to a term.
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
        except FloatingPointError:
            raise NonConvergenceError(f"{what}: term {n} is not a number") from None
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


def _ratio(v: Number) -> tuple[int, int]:
    """v as an exact (numerator, positive denominator) pair of ints.

    Raises OverflowError for an infinite float and FloatingPointError for a
    NaN or another value without an exact ratio, which _sum_with_policy
    reports as a term outside the float range and as a term that is not a
    number.
    """
    try:
        if not isinstance(v, (int, float, Fraction)):
            v = Fraction(v)
        return v.as_integer_ratio()
    except ValueError:
        raise FloatingPointError(f"{v!r} has no integer ratio") from None


def _argument_ratio(x: Number, what: str) -> tuple[int, int]:
    try:
        return Fraction(x).as_integer_ratio()
    except (OverflowError, ValueError):
        raise ValueError(f"{what} needs a finite argument, got {x!r}") from None


# Both series below form term n as one exact rational U*c / (D*d): c/d is
# the coefficient or sample, and U/D is the argument's factor, kept as a
# running pair of ints over the argument's ratio u/q (q a power of two for
# a float). Python's int true division rounds that rational correctly, so
# each term is the float of its exact value, as a Fraction product would
# give, without a gcd per step. Factors like (s)_n and x^n/n! leave the
# float range long before the terms do, so they are never rounded alone.

def _newton_terms(coeffs: Iterable[tuple[int, int]], u: int, q: int) -> Iterator[float]:
    """(s)_n c/d for s = u/q and the n-th pair (c, d) of coeffs, d > 0 and not
    necessarily in lowest terms: U = prod_{j<n} (u - j q), D = q^n."""
    U, D = 1, 1
    for n, (c, d) in enumerate(coeffs):
        yield U * c / (D * d)
        U *= u - n * q
        D *= q


def _egf_terms(sample: Callable[[int], Number], u: int, q: int) -> Iterator[float]:
    """sample(n) x^n / n! for x = u/q: U = u^n, D = q^n n!."""
    U, D = 1, 1
    for n in count():
        c, d = _ratio(sample(n))
        yield U * c / (D * d)
        U *= u
        D *= q * (n + 1)


def fft_fn(src: SeriesSource, s: float, cfg: NumericConfig = NumericConfig()) -> NumericResult:
    """Newton-sum falling transform of a Taylor source at s.

    Computes sum_n binom(s,n) n! a_n = sum_n (s)_n a_n; exact finite sum when
    s is a nonnegative integer. Requires a taylor source: high-order numeric
    differentiation of a black-box callable is ill-conditioned, so there is
    no callable path here.
    """
    if src.kind != "taylor":
        raise ValueError("fft_fn requires a 'taylor' SeriesSource")
    return _newton_sum(map(_ratio, map(src.provider, count())), s, cfg)


def _newton_sum(coeffs: Iterable[tuple[int, int]], s: float,
                cfg: NumericConfig) -> NumericResult:
    """fft_fn on coefficients given as (numerator, denominator) pairs."""
    what = "fft_fn Newton sum"
    terms = _newton_terms(coeffs, *_argument_ratio(s, what))
    val, est = _sum_with_policy(terms, cfg, accelerate=True, what=what)
    return NumericResult(val, est)


def _egf_series(sample: Callable[[int], Number], x: float, cfg: NumericConfig,
                what: str) -> NumericResult:
    """e^{-x} sum_n sample(n) x^n / n!, with the damping applied to the sum.

    The error estimate is the magnitude of the first omitted weighted term
    (meaningful for eventually monotone decaying terms).
    """
    terms = _egf_terms(sample, *_argument_ratio(x, what))
    val, est = _sum_with_policy(terms, cfg, accelerate=False, what=what)
    try:
        damp = math.exp(-x)
    except OverflowError:
        damp = math.inf
    if not math.isfinite(damp * val):
        raise NonConvergenceError(f"{what}: e^(-x) times the sum {val:.3e} leaves the "
                                  f"float range at x = {x}")
    return NumericResult(damp * val, damp * est)


def ifft_fn(src: SeriesSource, x: float, cfg: NumericConfig = NumericConfig()) -> NumericResult:
    """Inverse falling transform e^{-x} sum_n f(n) x^n / n! of integer samples."""
    if src.kind != "integer_samples":
        raise ValueError("ifft_fn requires an 'integer_samples' SeriesSource")
    return _egf_series(src.provider, x, cfg, "ifft_fn EGF series")


def irft_fn(src: SeriesSource, x: float, cfg: NumericConfig = NumericConfig()) -> NumericResult:
    """Inverse rising transform e^{x} sum_n (-1)^n f(-n) x^n / n!.

    This is the EGF series of the reflected samples n -> f(-n) at -x, so
    the source must be callable at the nonpositive integers -n.
    """
    if src.kind != "callable":
        raise ValueError("irft_fn requires a 'callable' SeriesSource")
    f = src.provider
    return _egf_series(lambda n: f(-n), -x, cfg, "irft_fn EGF series")


# rft_fn accepts a value when its error estimate is at most this times
# max(1, |value|), on every scheme.
_RFT_TOLERANCE = 1e-7


def rft_fn(f: Callable[[float], float], s: float,
           quad: QuadratureSpec = QuadratureSpec()) -> NumericResult:
    """Rising transform (1/Gamma(s)) * integral_0^inf f(t) t^(s-1) e^(-t) dt.

    Schemes: 'gauss_laguerre' (the default) and 'adaptive_fallback' both sum
    f over an 80-node and a 160-node Gauss-Laguerre rule, the first for the
    generalized weight t^(s-1) e^(-t), the second for e^(-t) with t^(s-1)
    folded into each node's weight; the fine sum is the value and its change
    from the coarse one the error estimate. 'tanh_sinh' is mpmath
    double-exponential quadrature with mpmath's error estimate; it is
    required when the weighted integrand has an algebraically heavy tail
    that defeats Gauss-Laguerre, at the cost of needing an mpmath-safe
    callable.

    One check accepts every scheme's result: the value is finite and its
    error estimate is at most 1e-7 * max(1, |value|). Raises QuadratureError
    when a result fails it, a NaN from f included, or a float overflows in a
    rule or its integrand, and ValueError past s = 171.62 for the two
    Gauss-Laguerre schemes, which normalize by a float Gamma(s).
    """
    if not (s > 0):
        raise ValueError("rft_fn requires s > 0")

    if quad.scheme == "tanh_sinh":
        import mpmath as mp

        with _mp_lock, mp.workdps(25):
            ss = mp.mpf(s)
            try:
                val, err = mp.quad(
                    lambda t: f(t) * mp.exp((ss - 1) * mp.ln(t) - t),
                    [0, 1, mp.inf], error=True,
                )
            except OverflowError:
                raise QuadratureError(f"tanh_sinh: the integrand overflows a float "
                                      f"for s = {s}") from None
            gamma_s = mp.gamma(ss)
            val, err = float(val / gamma_s), float(abs(err) / gamma_s)
    else:
        try:
            gamma_s = math.gamma(s)
        except OverflowError:
            raise ValueError(f"rft_fn scheme {quad.scheme!r} needs Gamma(s) to fit a float, "
                             f"s <= 171.62, got s = {s}; use 'tanh_sinh'") from None
        if quad.scheme == "gauss_laguerre":
            alpha, weight = s - 1.0, lambda x, w: w
        else:
            # adaptive_fallback forms w t^(s-1) in log space: t^(s-1) alone
            # overflows at the largest nodes from s = 112 on, where w has
            # underflowed or nearly so.
            alpha, weight = 0.0, lambda x, w: math.exp(math.log(w) + (s - 1.0) * math.log(x))

        def node_sum(m: int) -> float:
            """sum_i weight(x_i, w_i) f(x_i) over the m-node rule, skipping w_i = 0."""
            xs, ws = _gauss_laguerre_rule(m, alpha)
            try:
                return math.fsum(weight(x, w) * f(x) for x, w in zip(xs, ws) if w > 0)
            except OverflowError:
                raise QuadratureError(f"{quad.scheme}: the integrand overflows a float on the "
                                      f"{m}-node rule for s = {s}") from None

        coarse, fine = node_sum(_NODES), node_sum(2 * _NODES)
        val, err = fine / gamma_s, abs(fine - coarse) / gamma_s
    if not (math.isfinite(val) and err <= _RFT_TOLERANCE * max(1.0, abs(val))):
        raise QuadratureError(f"{quad.scheme} unconverged for s = {s}: value {val!r}, "
                              f"error estimate {err:.3e}")
    return NumericResult(val, err)


_JET_EXTRA = 32  # Taylor coefficients read past the truncation for the shift to t


def _exact_inputs(value_at: Callable[[int], Number], m: int,
                  what: str) -> tuple[list[int], int]:
    """value_at(0), ..., value_at(m-1) as numerators over one denominator, a
    float read as its dyadic value; a call that overflows or a non-finite
    value raises NonConvergenceError naming its index."""
    values = []
    for n in range(m):
        try:
            v = value_at(n)
        except OverflowError:
            raise NonConvergenceError(f"{what}: input {n} overflows a float") from None
        try:
            values.append(Fraction(v))
        except (OverflowError, ValueError):
            raise NonConvergenceError(f"{what}: input {n} is {v!r}, not a finite number") from None
    return _integers(values)


def _damped_newton_sum(egf: Sequence[int], den: int, rate: int, order: float,
                       cfg: NumericConfig) -> NumericResult:
    """fft_fn at s = order of e^{-rate x} g(x), g given by its EGF
    coefficients egf[n] / den (missing ones are zero).

    The product is one difference-table pass against (-rate)^n on the
    numerators; Taylor coefficient k is then h_k / (k! den), handed to the
    Newton terms unreduced.
    """
    count = cfg.truncation_N + 1
    damped = _pascal(egf, -rate, count)
    return _newton_sum(zip(damped, accumulate(range(1, count), operator.mul, initial=den)),
                       order, cfg)


def fractional_derivative(src: SeriesSource, order: float, t: Number = 0,
                          cfg: NumericConfig = NumericConfig()) -> NumericResult:
    """Liouville-type fractional derivative of f at t from its Taylor source.

    Realized as the falling transform of e^{-x} f(x + t): shift the Taylor
    coefficients to t, multiply by e^{-x}, Newton-sum at s = order.

    Cost: the shift and the e^{-x} pass each take about N^2/2 integer steps,
    an addition and at most a product with a small int, for N =
    truncation_N. Their numerators share one denominator, with about
    N (b + log2 N) bits beyond the inputs' own, b the bits of t's
    denominator, so the cost grows as N^3 (b + log N). On a 2-core VM a
    float t = 1/3 (b = 54) takes about 0.1 s at N = 256 and 0.8 s at
    N = 512; t = Fraction(1, 3) about 0.15 s at N = 512.
    """
    if src.kind != "taylor":
        raise ValueError("fractional_derivative requires a 'taylor' SeriesSource")
    what = "fractional_derivative"
    at = Fraction(*_argument_ratio(t, what))
    count = cfg.truncation_N + 1
    jet, den = _exact_inputs(src.provider, count + _JET_EXTRA, what)
    shifted, factor = _taylor_shift(shift_op(at), jet)
    egf = list(map(operator.mul, shifted[:count],
                   accumulate(range(1, count), operator.mul, initial=1)))
    return _damped_newton_sum(egf, den * factor, 1, order, cfg)


def fractional_difference(f: Callable[[float], float], order: float, t: float = 0.0,
                          cfg: NumericConfig = NumericConfig()) -> NumericResult:
    """Fractional forward difference of f at t via the inverse-BT chain.

    Chain: the samples n -> f(n + t) are the EGF coefficients of
    FFT^{-1}(f(x+t)) e^{x}; multiplying by e^{-2x} realizes
    e^{-x} FFT^{-1}(f(x+t)), and the Newton sum at s = order finishes BT^{-1}.
    """
    egf, den = _exact_inputs(lambda n: f(t + n), cfg.truncation_N + 1, "fractional_difference")
    return _damped_newton_sum(egf, den, 2, order, cfg)


def gamma_support(x: float) -> float:
    """Gamma(x) for real x away from the poles (Lanczos-backed libm gamma)."""
    try:
        return math.gamma(x)
    except ValueError:
        raise ValueError(f"gamma pole at x = {x}") from None


def incomplete_gamma_upper(n: int, x: float) -> float:
    """Upper incomplete gamma Gamma(n, x) for integer n >= 1, any real x.

    Closed form (n-1)! e^{-x} sum_{k<n} x^k/k!; valid (as the analytic
    continuation) for negative x as well.
    """
    if n < 1:
        raise ValueError("order n must be a positive integer")
    acc = math.fsum(x ** k / math.factorial(k) for k in range(n))
    return math.factorial(n - 1) * math.exp(-x) * acc


def zeta_formal_series(s: float, N: int) -> tuple[float, list[float]]:
    """Partial sum and raw terms of the formal Bernoulli/rising-factorial
    series for zeta: -1/(s-1) + sum_{n<N} B_{n+1} (-1)^(n+1)/(n+1)! s^(rising n).

    Makes no convergence claim: the terms eventually grow, and desk
    evaluation shows the partial sums do not approach zeta(s). Callers
    inspect the terms to locate the minimal-term truncation. Raises
    NonConvergenceError naming the first term that is not a finite float.
    """
    if N < 1:
        raise ValueError("need N >= 1 terms")
    if s == 1:
        raise ValueError("pole at s = 1")
    terms = []
    for n in range(N):
        b = bernoulli(n + 1)
        w = Fraction((-1) ** (n + 1)) * b / math.factorial(n + 1)
        term = float(w) * rising_factorial(float(s), n)
        if not math.isfinite(term):
            raise NonConvergenceError(f"zeta_formal_series: term {n} at s = {s} is "
                                      f"{term!r}, not a finite float")
        terms.append(term)
    return -1.0 / (s - 1.0) + math.fsum(terms), terms
