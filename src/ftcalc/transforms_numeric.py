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
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Sequence, Union

from .combinatorics import bernoulli, rising_factorial
from .polynomial import Basis, BasisPolynomial, shift
from .transforms_exact import _binomial, _signs

Number = Union[int, float, Fraction]


class NonConvergenceError(ArithmeticError):
    """Series failed its tail policy within the configured truncation."""


class QuadratureError(ArithmeticError):
    """Node doubling changed the quadrature result by more than tolerance."""


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
    nodes: int = 80
    scheme: str = "gauss_laguerre"  # or "adaptive_fallback", "tanh_sinh"

    def __post_init__(self):
        if self.nodes < 2:
            raise ValueError("nodes must be >= 2")
        if self.scheme not in ("gauss_laguerre", "adaptive_fallback", "tanh_sinh"):
            raise ValueError(f"unknown quadrature scheme {self.scheme!r}")
        if self.scheme != "tanh_sinh" and self.nodes > _MAX_NODES // 2:
            raise ValueError(f"{self.scheme} needs nodes <= {_MAX_NODES // 2}: its n- and "
                             f"2n-node rules must fit in {_MAX_NODES} nodes, got {self.nodes}")


# Largest Gauss-Laguerre rule built. A rule costs O(n^2) float steps in
# Python: about 10 ms at n = 160 and 30 ms at n = 256 on a 2-core Xeon VM.
# Its largest nodes lie near 4n, and weights of nodes far past x = 700
# underflow to 0.
_MAX_NODES = 256

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
    QuadratureError unless the nodes come out finite, converged and distinct.
    """
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


def wynn_epsilon(partial_sums: Sequence[complex]) -> tuple[complex, float]:
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
    sums = list(partial_sums)
    if not sums:
        raise ValueError("need at least one partial sum")
    prev: list[complex] = [0j] * (len(sums) + 1)
    cur: list[complex] = [complex(s) for s in sums]
    diag = [cur[-1]]
    col = 0
    while len(cur) > 1:
        nxt: list[complex] = []
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


def _sum_with_policy(term_at: Callable[[int], float], cfg: NumericConfig,
                     accelerate: bool, what: str) -> tuple[float, float]:
    """Sum term_at(0..) under cfg; returns (sum, error_estimate).

    Stops after _CONSECUTIVE_SMALL successive terms fall below
    tolerance * max(1, |partial sum|) within truncation_N terms. When the
    stop criterion is unmet and accelerate is set, epsilon extrapolation of
    the partial sums is attempted before raising NonConvergenceError.
    """
    N = cfg.truncation_N
    acc = 0.0
    small = 0
    seen_nonzero = False
    sums: list[float] = []
    nonzero_sums: list[float] = []
    for n in range(N):
        t = term_at(n)
        if not math.isfinite(t):
            raise NonConvergenceError(f"{what}: term {n} is not finite")
        acc += t
        sums.append(acc)
        if t != 0.0:
            seen_nonzero = True
            nonzero_sums.append(acc)
        if seen_nonzero and abs(t) <= cfg.tolerance * max(1.0, abs(acc)):
            small += 1
            if small >= _CONSECUTIVE_SMALL:
                return acc, abs(t)
        else:
            small = 0
    if not seen_nonzero:
        return 0.0, 0.0
    if accelerate and len(nonzero_sums) >= 8:
        best, agree = wynn_epsilon(nonzero_sums)
        if agree <= cfg.tolerance * max(1.0, abs(best)):
            return best.real, agree
    raise NonConvergenceError(
        f"{what}: tail policy unmet after {N} terms (last |term| = {abs(t):.3e})"
    )


def fft_fn(src: SeriesSource, s: float, cfg: NumericConfig = NumericConfig()) -> NumericResult:
    """Newton-sum falling transform of a Taylor source at s.

    Computes sum_n binom(s,n) n! a_n = sum_n (s)_n a_n; exact finite sum when
    s is a nonnegative integer. Requires a taylor source: high-order numeric
    differentiation of a black-box callable is ill-conditioned, so there is
    no callable path here.
    """
    if src.kind != "taylor":
        raise ValueError("fft_fn requires a 'taylor' SeriesSource")
    a = src.provider
    # (s)_n overflows float64 near n = 171 even when the full term is tiny,
    # so each term is formed as an exact Fraction product and rounded once.
    s_frac = Fraction(s)
    ff_cache = [Fraction(1)]

    def term(n: int) -> float:
        while len(ff_cache) <= n:
            m = len(ff_cache)
            ff_cache.append(ff_cache[-1] * (s_frac - (m - 1)))
        return float(ff_cache[n] * Fraction(a(n)))

    val, est = _sum_with_policy(term, cfg, accelerate=True, what="fft_fn Newton sum")
    return NumericResult(val, est)


def _egf_series(sample: Callable[[int], Number], x: float, cfg: NumericConfig,
                what: str) -> NumericResult:
    """e^{-x} sum_n sample(n) x^n / n!, with the damping applied to the sum.

    x^n/n! underflows to exact zero long before factorial-scale samples stop
    mattering; each term is formed exactly and rounded once. The error
    estimate is the magnitude of the first omitted weighted term (meaningful
    for eventually monotone decaying terms).
    """
    damp = math.exp(-x)
    x_frac = Fraction(x)
    pw = [Fraction(1)]

    def term(n: int) -> float:
        while len(pw) <= n:
            m = len(pw)
            pw.append(pw[-1] * x_frac / m)
        return float(pw[n] * Fraction(sample(n)))

    val, est = _sum_with_policy(term, cfg, accelerate=False, what=what)
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


def rft_fn(f: Callable[[float], float], s: float,
           quad: QuadratureSpec = QuadratureSpec(), tolerance: float = 1e-7) -> NumericResult:
    """Rising transform (1/Gamma(s)) * integral_0^inf f(t) t^(s-1) e^(-t) dt.

    Schemes: 'gauss_laguerre' (generalized weight, the default; the result is
    cross-checked against a doubled rule), 'adaptive_fallback' (plain
    Gauss-Laguerre on f(t) t^(s-1) with node doubling until stable), and
    'tanh_sinh' (mpmath double-exponential quadrature; required when the
    weighted integrand has an algebraically heavy tail that defeats
    Gauss-Laguerre, at the cost of needing an mpmath-safe callable).

    Raises QuadratureError when refinement moves the result by more than
    tolerance * max(1, |value|) or a float overflows in a rule or its
    integrand, and ValueError past s = 171.62 for the two Gauss-Laguerre
    schemes, which normalize by a float Gamma(s).
    """
    if not (s > 0):
        raise ValueError("rft_fn requires s > 0")

    if quad.scheme == "tanh_sinh":
        import mpmath as mp

        with _mp_lock, mp.workdps(25):
            ss = mp.mpf(s)
            val, err = mp.quad(
                lambda t: f(t) * t ** (ss - 1) * mp.e ** (-t),
                [0, 1, mp.inf], error=True,
            )
            gamma_s = mp.gamma(ss)
            return NumericResult(float(val / gamma_s), float(abs(err) / gamma_s))

    try:
        gamma_s = math.gamma(s)
    except OverflowError:
        raise ValueError(f"rft_fn scheme {quad.scheme!r} needs Gamma(s) to fit a float, "
                         f"s <= 171.62, got s = {s}; use 'tanh_sinh'") from None

    if quad.scheme == "gauss_laguerre":
        n = quad.nodes

        def estimate(m: int) -> float:
            xs, ws = _gauss_laguerre_rule(m, s - 1.0)
            return math.fsum(w * f(x) for x, w in zip(xs, ws))

        coarse, fine = estimate(n), estimate(2 * n)
        val = fine / gamma_s
        diff = abs(fine - coarse) / gamma_s
        if not math.isfinite(val) or diff > tolerance * max(1.0, abs(val)):
            raise QuadratureError(
                f"gauss_laguerre unstable at {n}->{2*n} nodes (moved {diff:.3e})"
            )
        return NumericResult(val, diff)

    # adaptive_fallback: plain Laguerre nodes on f(t) t^(s-1), doubling
    n = quad.nodes
    prev = None
    while n <= _MAX_NODES:
        xs, ws = _gauss_laguerre_rule(n, 0.0)
        try:
            cur = math.fsum(w * f(x) * x ** (s - 1.0) for x, w in zip(xs, ws))
        except OverflowError:
            raise QuadratureError(f"adaptive_fallback: t^(s-1) overflows a float at the "
                                  f"largest of {n} nodes, t = {xs[-1]:.4g}, for s = {s}; "
                                  "use 'tanh_sinh'") from None
        if prev is not None and math.isfinite(cur):
            diff = abs(cur - prev) / gamma_s
            if diff <= tolerance * max(1.0, abs(cur) / gamma_s):
                return NumericResult(cur / gamma_s, diff)
        prev = cur
        n *= 2
    raise QuadratureError(f"adaptive_fallback did not stabilize within {_MAX_NODES} nodes")


def _shifted_taylor(a: Callable[[int], Number], t: Number, count: int, extra: int = 32):
    """Taylor coefficients of u -> f(u + t) from those of f, truncated.

    a'_k = sum_{i >= k} binom(i, k) a_i t^(i-k), cut at count + extra source
    terms. When a yields ints or Fractions and t is rational this is the
    exact monomial shift of the truncated jet, padded back to count.
    """
    M = count + extra
    src = [a(i) for i in range(M)]
    if not isinstance(t, float) and all(not isinstance(v, float) for v in src):
        out = list(shift(BasisPolynomial(Basis.MONOMIAL, src), t).coeffs[:count])
        return out + [Fraction(0)] * (count - len(out))
    tt = float(t)
    out = []
    for k in range(count):
        acc, pw = 0.0, 1.0
        for i in range(k, M):
            acc += math.comb(i, k) * float(src[i]) * pw
            pw *= tt
        out.append(acc)
    return out


def _exp_neg_convolve(coeffs: Sequence) -> list:
    """Cauchy product of e^{-x} with the given coefficient sequence.

    Exact on ints and Fractions, as the inverse binomial transform of the EGF
    coefficients n! c_n; any float input makes the whole product float.
    """
    if all(not isinstance(v, float) for v in coeffs):
        egf = [math.factorial(n) * c for n, c in enumerate(coeffs)]
        return [h / math.factorial(k)
                for k, h in enumerate(_binomial(egf, _signs(len(egf)), range(len(egf))))]
    signed = [(-1) ** m / math.factorial(m) for m in range(len(coeffs))]
    return [math.fsum(signed[m] * float(coeffs[k - m]) for m in range(k + 1))
            for k in range(len(coeffs))]


def fractional_derivative(src: SeriesSource, order: float, t: Number = 0,
                          cfg: NumericConfig = NumericConfig()) -> NumericResult:
    """Liouville-type fractional derivative of f at t from its Taylor source.

    Realized as the falling transform of e^{-x} f(x + t): shift the Taylor
    coefficients to t, convolve with e^{-x}, Newton-sum at s = order.
    """
    if src.kind != "taylor":
        raise ValueError("fractional_derivative requires a 'taylor' SeriesSource")
    count = cfg.truncation_N + 1
    if t == 0:
        base = [src.provider(i) for i in range(count)]
    else:
        base = _shifted_taylor(src.provider, t, count)
    weighted = _exp_neg_convolve(base)
    return fft_fn(taylor_source(lambda n: weighted[n]), order, cfg)


def fractional_difference(f: Callable[[float], float], order: float, t: float = 0.0,
                          cfg: NumericConfig = NumericConfig()) -> NumericResult:
    """Fractional forward difference of f at t via the inverse-BT chain.

    Chain: samples n -> f(n + t) form an EGF; multiplying twice by e^{-x}
    (coefficient convolution) realizes e^{-x} FFT^{-1}(f(x+t)); the Newton
    sum at s = order finishes BT^{-1}.
    """
    count = cfg.truncation_N + 1
    egf = [f(t + n) / math.factorial(n) for n in range(count)]
    inner = _exp_neg_convolve(egf)   # Taylor of FFT^{-1}(f(x+t))
    outer = _exp_neg_convolve(inner)  # times e^{-x} again
    return fft_fn(taylor_source(lambda n: outer[n]), order, cfg)


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
    inspect the terms to locate the minimal-term truncation.
    """
    if N < 1:
        raise ValueError("need N >= 1 terms")
    if s == 1:
        raise ValueError("pole at s = 1")
    terms = []
    for n in range(N):
        b = bernoulli(n + 1)
        w = Fraction((-1) ** (n + 1)) * b / math.factorial(n + 1)
        terms.append(float(w) * rising_factorial(float(s), n))
    return -1.0 / (s - 1.0) + math.fsum(terms), terms
