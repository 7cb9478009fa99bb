"""Tests for the numeric transform layer.

Closed forms drive every accuracy assertion: exponentials map to powers
under the Newton sum, monomials map to rising factorials under the weighted
integral, and the fractional operators have elementary eigenvalues. The
convergence machinery (tail policy, acceleration, error reporting) is
tested separately from accuracy.
"""

import math
from fractions import Fraction
from itertools import count, islice, product

import mpmath as mp
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ftcalc.cli import NamedSource
from ftcalc.combinatorics import rising_factorial
from ftcalc.transforms_numeric import (
    NonConvergenceError,
    NumericConfig,
    NumericResult,
    QuadratureError,
    QuadratureSpec,
    callable_source,
    fft_fn,
    fractional_derivative,
    fractional_difference,
    gamma_support,
    ifft_fn,
    incomplete_gamma_upper,
    irft_fn,
    rft_fn,
    samples_source,
    taylor_source,
    wynn_epsilon,
    zeta_formal_series,
)
from ftcalc.transforms_numeric import _laguerre_rule
from ftcalc import transforms_numeric


def exp_taylor(a):
    return taylor_source(lambda n: a ** n / math.factorial(n))


@pytest.mark.parametrize("a", [0.5, -0.5, 1.0, 0.25])
@pytest.mark.parametrize("s", [0.5, 1.0, 2.3, 3.7])
def test_fft_fn_exponential(a, s):
    """FFT(e^{at})(s) = (1+a)^s via the binomial series."""
    r = fft_fn(exp_taylor(a), s)
    assert abs(r - (1 + a) ** s) < 1e-9


def test_fft_fn_integer_argument_exact():
    """At integer s the Newton sum is finite and hits the value on the nose."""
    r = fft_fn(exp_taylor(1.0), 3.0)
    assert abs(r - 8.0) < 1e-12


@pytest.mark.parametrize("x", [0.1, 0.5, 0.9, -0.5])
def test_ifft_fn_gamma_samples(x):
    """IFFT of n! samples is e^{-x}/(1-x) inside the unit interval.

    The samples stay integer so the per-term products cross n = 170 without
    float overflow.
    """
    src = samples_source(math.factorial)
    r = ifft_fn(src, x, NumericConfig(truncation_N=400, tolerance=1e-12))
    assert abs(r - math.exp(-x) / (1 - x)) < 1e-9


@pytest.mark.parametrize("a", [2.0, 0.5, 3.0])
@pytest.mark.parametrize("x", [0.3, 1.0, 2.5])
def test_ifft_fn_geometric_samples(a, x):
    """IFFT of a^n samples is e^{(a-1)x}."""
    r = ifft_fn(samples_source(lambda n: a ** n), x, NumericConfig(truncation_N=128, tolerance=1e-13))
    assert abs(r - math.exp((a - 1) * x)) < 1e-9 * max(1.0, math.exp((a - 1) * x))


@pytest.mark.parametrize("n", range(9))
@pytest.mark.parametrize("s", [0.5, 1.5, 2.5, 3.7])
def test_rft_fn_monomials(n, s):
    """The weighted integral of t^n is the rising factorial s^(n)."""
    r = rft_fn(lambda t: t ** n, s)
    want = float(rising_factorial(Fraction(s).limit_denominator(10 ** 6), n))
    assert abs(r - want) <= 1e-7 * max(1.0, abs(want))


@pytest.mark.parametrize("a,s", [(1.0, 0.5), (1.0, 1.5), (3.0, 2.5)])
def test_rft_fn_exponential(a, s):
    """f(t) = e^{-at} integrates to (1+a)^{-s}."""
    r = rft_fn(lambda t: math.exp(-a * t), s)
    assert abs(r - (1 + a) ** (-s)) < 1e-7


def test_rft_fn_schemes_agree():
    """All three schemes land on 2^{-s} for a smooth integer-order case."""
    f = lambda t: math.exp(-t)
    vals = [rft_fn(f, 2.0, QuadratureSpec(scheme=sch))
            for sch in ("gauss_laguerre", "adaptive_fallback", "tanh_sinh")]
    assert max(vals) - min(vals) < 1e-7
    assert abs(vals[0] - 0.25) < 1e-9


def test_adaptive_fallback_rejects_endpoint_kink():
    """Plain Laguerre nodes cannot resolve the t^{s-1} kink for fractional s."""
    with pytest.raises(QuadratureError):
        rft_fn(lambda t: math.exp(-t), 1.5, QuadratureSpec(scheme="adaptive_fallback"))


def test_rft_fn_unknown_scheme():
    with pytest.raises(ValueError):
        rft_fn(lambda t: 1.0, 1.0, QuadratureSpec(scheme="simpson"))


@pytest.mark.parametrize("n,alpha", [*product((8, 32), (0.0, -0.5, -0.99, 1.7, 49.0)), (64, -0.5)])
def test_laguerre_rule_matches_mpmath(n, alpha):
    """Nodes and weights agree with mpmath's 30-digit generalized Gauss-Laguerre rule."""
    xs, ws = _laguerre_rule(n, alpha)
    with mp.workdps(30):
        want_x, want_w = mp.gauss_quadrature(n, "glaguerre", alpha=alpha)
        assert max(abs(x - wx) / wx for x, wx in zip(xs, want_x)) <= 1e-13
        assert max(abs(w - ww) / ww for w, ww in zip(ws, want_w)) <= 2e-13


@pytest.mark.parametrize("n", [2, 80, 160, 256])
@pytest.mark.parametrize("alpha", [-0.99, -0.7, 0.0, 2.7, 19.0, 99.0])
def test_laguerre_rule_integrates_moments(n, alpha):
    """n finite, strictly increasing nodes; weights positive unless they
    underflow past x = 700; sum w x^k = Gamma(alpha+k+1) for k < min(17, 2n)."""
    xs, ws = _laguerre_rule(n, alpha)
    assert len(xs) == len(ws) == n
    assert all(map(math.isfinite, xs + ws))
    assert all(a < b for a, b in zip(xs, xs[1:]))
    assert all(w > 0 or (w == 0 and x > 700) for x, w in zip(xs, ws))
    for k in range(min(17, 2 * n)):
        want = mp.gamma(alpha + k + 1)
        got = math.fsum(w * x ** k for x, w in zip(xs, ws))
        assert abs(got - want) <= 1e-13 * want


def test_laguerre_rule_refuses_unconverged_nodes(monkeypatch):
    monkeypatch.setattr(transforms_numeric, "_HALLEY_STEPS", 0)
    with pytest.raises(QuadratureError, match="did not converge"):
        _laguerre_rule(4, 0.5)


@pytest.mark.parametrize("s", [0.01, 20.0, 100.0, 150.0])
def test_rft_fn_monomials_at_far_arguments(s):
    """The default rule stays exact on low monomials for s near 0 and large s."""
    for n in range(4):
        want = rising_factorial(s, n)
        assert abs(rft_fn(lambda t: t ** n, s) - want) <= 1e-12 * want


# (scheme, s) -> what rft_fn of e^(-t/2) gives at large s and past the float
# range of Gamma(s) = Gamma(171.62...): tanh_sinh normalizes in mpmath and
# returns 1.5^(-s); the Gauss-Laguerre schemes raise a documented error.
_LARGE_S = {
    ("tanh_sinh", 115): None, ("tanh_sinh", 171): None,
    ("tanh_sinh", 172): None, ("tanh_sinh", 200): None,
    ("gauss_laguerre", 115): None, ("gauss_laguerre", 171): None,
    ("gauss_laguerre", 172): ValueError, ("gauss_laguerre", 200): ValueError,
    # t^(s-1) alone overflows at the largest nodes from s = 112; the weight
    # w t^(s-1) does not
    ("adaptive_fallback", 115): None, ("adaptive_fallback", 171): None,
    ("adaptive_fallback", 172): ValueError, ("adaptive_fallback", 200): ValueError,
}


@pytest.mark.parametrize("scheme,s", sorted(_LARGE_S))
def test_rft_fn_large_s_returns_or_raises_documented_error(scheme, s):
    f = lambda t: math.exp(-t / 2)
    spec = QuadratureSpec(scheme=scheme)
    error = _LARGE_S[scheme, s]
    if error is None:
        want = 1.5 ** -s
        assert abs(rft_fn(f, s, spec) - want) <= 1e-12 * want
    else:
        with pytest.raises(error, match="171.62"):
            rft_fn(f, s, spec)


def test_adaptive_fallback_reports_integrand_overflow():
    """e^(2t) overflows a float at the largest nodes: the integral diverges."""
    with pytest.raises(QuadratureError, match="integrand overflows"):
        rft_fn(lambda t: math.exp(2 * t), 1.5, QuadratureSpec(scheme="adaptive_fallback"))


def test_gauss_laguerre_reports_integrand_overflow():
    """The default scheme sums its nodes under the same guard as adaptive_fallback."""
    with pytest.raises(QuadratureError, match="gauss_laguerre: the integrand overflows"):
        rft_fn(lambda t: math.exp(2 * t), 1.5)


@pytest.mark.parametrize("f,match,scheme", [
    (lambda t: mp.exp(2 * t), "unconverged", "tanh_sinh"),  # diverges: mpmath returns inf
    (lambda t: mp.nan, "unconverged", "tanh_sinh"),
    (lambda t: math.nan, "unconverged", "tanh_sinh"),
    (lambda t: math.nan, "unconverged", "gauss_laguerre"),
    (lambda t: math.nan, "unconverged", "adaptive_fallback"),
    # plain Laguerre nodes cannot resolve the t^(s-1) kink at s = 1.5
    (lambda t: math.exp(-t), "unconverged", "adaptive_fallback"),
    (lambda t: math.exp(t / 2), "integrand overflows", "tanh_sinh"),  # a float overflow
])
def test_tanh_sinh_rejects_divergent_and_nan_integrands(f, match, scheme):
    """Every scheme, tanh_sinh included, rejects a result by one acceptance
    check and reports it with one error text."""
    with pytest.raises(QuadratureError, match=f"^{scheme}(: the)? {match}"):
        rft_fn(f, 1.5, QuadratureSpec(scheme=scheme))


def test_rft_fn_below_float_resolution_of_s_is_documented_error():
    """Below s = 2^-53, s - 1 rounds to -1, where the rule's weight is not integrable."""
    with pytest.raises(QuadratureError, match="alpha > -1"):
        rft_fn(math.cos, 1e-300)


def test_laguerre_rule_refuses_overflowing_weights():
    """The weights sum to Gamma(alpha + 1), past the float range at alpha = 175."""
    with pytest.raises(QuadratureError, match="overflows"):
        _laguerre_rule(8, 175.0)


@pytest.mark.parametrize("a,x", [(0.5, 0.7), (0.25, 1.3), (-1.0, 0.4)])
def test_irft_fn_binomial_family(a, x):
    """IRFT of s -> (1-a)^{-s} recovers e^{ax}."""
    src = callable_source(lambda s: (1 - a) ** (-s))
    r = irft_fn(src, x, NumericConfig(truncation_N=128, tolerance=1e-13))
    assert abs(r - math.exp(a * x)) < 1e-9


@pytest.mark.parametrize("f", [lambda s: 0.5 ** s, lambda s: (1 + s) ** 2,
                               lambda s: Fraction(3, 4) ** s])
@pytest.mark.parametrize("x", [0.0, 0.7, -1.3, 2.5, 1 / 3])
def test_irft_fn_is_ifft_fn_of_reflected_samples(f, x):
    """IRFT(f)(x) is IFFT(n -> f(-n))(-x), value and estimate to the bit."""
    r = irft_fn(callable_source(f), x)
    q = ifft_fn(samples_source(lambda n: f(-n)), -x)
    assert (float(r), r.error_estimate) == (float(q), q.error_estimate)


def test_irft_fn_requires_callable_source():
    """The series needs f at negative arguments, so samples are rejected."""
    with pytest.raises(ValueError, match="callable"):
        irft_fn(samples_source(lambda n: 2.0 ** (-n)), 0.5)


@pytest.mark.parametrize("a", [2.0, 1.0, 3.0])
@pytest.mark.parametrize("s", [0.5, 1.5])
def test_fractional_derivative_exponential_eigenvalue(a, s):
    """The half-derivative of e^{au} at 0 is a^s."""
    r = fractional_derivative(exp_taylor(a), s)
    assert abs(r - a ** s) < 1e-8


def test_fractional_derivative_at_nonzero_point():
    r = fractional_derivative(exp_taylor(2.0), 0.5, t=0.3)
    assert abs(r - math.sqrt(2.0) * math.exp(0.6)) < 1e-8


def test_fractional_derivative_integer_orders():
    """Order 0 is the identity and order 1 the plain derivative."""
    src = exp_taylor(0.5)
    assert abs(fractional_derivative(src, 0.0) - 1.0) < 1e-10
    assert abs(fractional_derivative(src, 1.0) - 0.5) < 1e-10


def _ref_exp_neg_convolve(coeffs):
    """The direct Cauchy product with e^{-x}, in Fractions."""
    return [sum((Fraction((-1) ** m, math.factorial(m)) * coeffs[k - m] for m in range(k + 1)),
                start=Fraction(0)) for k in range(len(coeffs))]


def _ref_shifted_taylor(a, t, count, extra=32):
    """The direct Fraction sum a'_k = sum_{i >= k} binom(i, k) a_i t^(i-k)."""
    src = [a(i) for i in range(count + extra)]
    return [sum((math.comb(i, k) * src[i] * Fraction(t) ** (i - k) for i in range(k, len(src))),
                start=Fraction(0)) for k in range(count)]


_PREPARATION_INPUTS = {
    "int": lambda n: (-1) ** n * (n % 7 + 1),
    "fraction": lambda n: Fraction(2) ** n / math.factorial(n) - Fraction(n % 3, n + 1),
    # a cubic: its shifted jet ends early
    "polynomial": lambda n: Fraction(n + 1, 2) if n < 4 else 0,
    "float": lambda n: math.sin(n + 1) * 2.0 ** (n % 5 - 2),
}


def _prepared(monkeypatch, operator, *args):
    """The Taylor coefficients that a fractional operator hands to the Newton
    sum, as (numerator, denominator) pairs of ints, read as Fractions."""
    seen = []
    monkeypatch.setattr(transforms_numeric, "_newton_sum",
                        lambda a, s, cfg: seen.append((a, cfg.truncation_N)))
    operator(*args)
    a, N = seen[0]
    pairs = list(islice(a, N + 1))
    assert all(type(c) is int and type(d) is int and d > 0 for c, d in pairs)
    return [Fraction(c, d) for c, d in pairs]


@pytest.mark.parametrize("K", [0, 1, 2, 65, 161])
@pytest.mark.parametrize("kind", sorted(_PREPARATION_INPUTS))
def test_exact_preparation_matches_direct_sums(monkeypatch, K, kind):
    """The exact preparation of both fractional operators equals its defining
    sums on the inputs read as Fractions, value and type: e^{-x} times the
    jet shifted to t, and e^{-x} twice times the EGF of the samples. The
    truncation is N = K terms past the first, at least one."""
    a = _PREPARATION_INPUTS[kind]
    exact = lambda n: Fraction(a(n))
    cfg = NumericConfig(truncation_N=max(K, 1))
    count = cfg.truncation_N + 1
    for t in (0, 1, Fraction(1, 5)):
        got = _prepared(monkeypatch, fractional_derivative, taylor_source(a), 0.5, t, cfg)
        assert got == _ref_exp_neg_convolve(_ref_shifted_taylor(exact, t, count))
        assert all(type(v) is Fraction for v in got)
    egf = [exact(n) / math.factorial(n) for n in range(count)]
    got = _prepared(monkeypatch, fractional_difference, a, 0.5, 0, cfg)
    assert got == _ref_exp_neg_convolve(_ref_exp_neg_convolve(egf))
    assert all(type(v) is Fraction for v in got)


@pytest.mark.parametrize("t", [0.0, 0.3, -1.25])
def test_float_inputs_read_as_their_fractions(t):
    """Both operators read a float input as its dyadic value: floats and the
    same inputs given as Fractions give the same value and estimate to the bit."""
    coeff = lambda n: 0.5 ** n / math.factorial(n)
    got = _outcome(lambda: fractional_derivative(taylor_source(coeff), 0.5, t))
    assert got[0] != "NonConvergenceError"
    assert got == _outcome(lambda: fractional_derivative(
        taylor_source(lambda n: Fraction(coeff(n))), 0.5, Fraction(t)))
    f = lambda u: math.exp(u / 3)
    got = _outcome(lambda: fractional_difference(f, 0.5, t))
    assert got[0] != "NonConvergenceError"
    assert got == _outcome(lambda: fractional_difference(lambda u: Fraction(f(u)), 0.5, t))


@pytest.mark.parametrize("a,t,want", [
    (2.0, 0.0, 1.0),
    (3.0, 0.0, math.sqrt(2.0)),
    (3.0, 1.0, math.sqrt(2.0) * 3.0),
])
def test_fractional_difference_geometric(a, t, want):
    """Delta^{1/2} a^u = (a-1)^{1/2} a^u."""
    r = fractional_difference(lambda u: a ** u, 0.5, t=t)
    assert abs(r - want) < 1e-8


def test_fractional_difference_integer_order():
    f = lambda u: 2.0 ** u
    r = fractional_difference(f, 1.0, t=0.0)
    assert abs(r - 1.0) < 1e-10  # Delta 2^u = 2^u at u = 0


@pytest.mark.parametrize("n", [1, 2, 3, 5])
@pytest.mark.parametrize("x", [0.5, 1.0, 2.0])
def test_incomplete_gamma_closed_form(n, x):
    """Gamma(n,x) = (n-1)! e^{-x} sum_{k<n} x^k/k! at integer n."""
    want = math.factorial(n - 1) * math.exp(-x) * sum(x ** k / math.factorial(k) for k in range(n))
    assert abs(incomplete_gamma_upper(n, x) - want) < 1e-12 * max(1.0, want)


def test_gamma_support_values():
    assert abs(gamma_support(0.5) - math.sqrt(math.pi)) < 1e-12
    assert abs(gamma_support(5.0) - 24.0) < 1e-10
    assert abs(gamma_support(-0.5) + 2 * math.sqrt(math.pi)) < 1e-10
    for pole in (0.0, -1.0, -3.0):
        with pytest.raises(ValueError):
            gamma_support(pole)


def test_zeta_formal_series_contract():
    """The formal series reports its terms; the value is -1/(s-1) + sum."""
    val, terms = zeta_formal_series(2.0, 8)
    assert len(terms) == 8
    assert abs(val - (-1.0 + math.fsum(terms))) < 1e-12
    assert terms[0] == 0.5
    assert abs(terms[1] - 1.0 / 6.0) < 1e-15
    assert terms[2] == 0.0


@pytest.mark.parametrize("s,N,term", [(2.0, 171, 170), (2.0, 200, 170), (1e300, 5, 2)])
def test_zeta_formal_series_rejects_non_finite_terms(s, N, term):
    """s^(rising n) leaves the float range, and 0 times it is NaN."""
    with pytest.raises(NonConvergenceError, match=f"term {term} "):
        zeta_formal_series(s, N)


def test_zeta_formal_series_known_partial():
    val, _ = zeta_formal_series(2.0, 3)
    assert abs(val + 1.0 / 3.0) < 1e-12


@given(st.floats(min_value=-0.8, max_value=0.8).filter(lambda r: abs(r) > 0.05))
@example(r=0.5277109322723843)  # noise columns after Aitken's exact one agreed to 1.7e-4
@example(r=0.7662459856918022)  # Aitken's exact entries 19 epsilons apart
@settings(deadline=None)
def test_wynn_epsilon_geometric(r):
    """The epsilon algorithm sums geometric tails essentially exactly."""
    partial = []
    acc = 0.0
    for n in range(12):
        acc += r ** n
        partial.append(acc)
    val, err = wynn_epsilon(partial)
    assert abs(val - 1.0 / (1.0 - r)) < 1e-9
    assert err >= 0.0


def test_wynn_epsilon_alternating_harmonic():
    """Acceleration beats the raw partial sums of log 2 by many digits."""
    partial = []
    acc = 0.0
    for n in range(16):
        acc += (-1.0) ** n / (n + 1)
        partial.append(acc)
    val, _ = wynn_epsilon(partial)
    raw_gap = abs(partial[-1] - math.log(2.0))
    assert abs(val - math.log(2.0)) < raw_gap * 1e-6


def test_wynn_epsilon_short_input():
    val, err = wynn_epsilon([3.0])
    assert val == 3.0


def test_source_kind_validation():
    with pytest.raises(ValueError, match="taylor"):
        fft_fn(samples_source(lambda n: 1.0), 0.5)
    with pytest.raises(ValueError, match="integer_samples"):
        ifft_fn(taylor_source(lambda n: 1.0), 0.5)


def test_divergent_newton_sum_raises():
    """A constant Taylor sequence makes the Newton sum blow up."""
    with pytest.raises(NonConvergenceError):
        fft_fn(taylor_source(lambda n: 1.0), 2.5, NumericConfig(truncation_N=48, tolerance=1e-12))


def test_newton_sum_retries_epsilon_up_to_its_smallest_term():
    """e^{-x} times the float jet of e^{2x}: the rounding of the jet, amplified
    about 3x per term, makes the Newton terms at s = 1.5 grow again past term
    35, and epsilon on all 64 partial sums disagrees by 6e-5. On the sums
    through the smallest term it gives 2^1.5, as epsilon on all sums does."""
    jet = [Fraction(2.0 ** n / math.factorial(n)) for n in range(65)]
    damped = _ref_exp_neg_convolve(jet)
    r = fft_fn(taylor_source(damped.__getitem__), 1.5)
    assert abs(r - 2.0 ** 1.5) < 1e-11
    assert abs(r - 2.0 ** 1.5) <= 2 * r.error_estimate


def test_newton_sum_retry_needs_agreement_with_all_sums():
    """The order-2.7 derivative series of cos(u/2) at -3/2 is a binomial series
    outside its radius. Epsilon on the sums through its smallest term (57)
    agrees with itself to 6e-11 but is 5.7e-9 off, 5e-9 from epsilon on all
    64 sums: the retry is refused."""
    src = taylor_source(NamedSource("cos(1/2)").taylor())
    with pytest.raises(NonConvergenceError, match="tail policy unmet"):
        fractional_derivative(src, 2.7, Fraction(-3, 2))


def test_ifft_outside_radius_raises():
    src = samples_source(lambda n: float(math.factorial(n)))
    with pytest.raises(NonConvergenceError):
        ifft_fn(src, 1.5, NumericConfig(truncation_N=64, tolerance=1e-10))


def test_numeric_result_shape():
    r = fft_fn(exp_taylor(0.5), 1.5)
    assert isinstance(r, float)
    assert isinstance(r, NumericResult)
    assert math.isfinite(r.error_estimate)
    assert r.error_estimate >= 0.0
    assert "error_estimate" in repr(r)


# ---- the series term route

def _ref_fft_fn(src, s, cfg=NumericConfig()):
    """The Fraction route for the Newton sum: (s)_n as a cached Fraction
    product, each term rounded once by float(Fraction)."""
    s_frac = Fraction(s)
    ff = [Fraction(1)]

    def term(n):
        while len(ff) <= n:
            ff.append(ff[-1] * (s_frac - (len(ff) - 1)))
        return float(ff[n] * Fraction(src.provider(n)))

    val, est = transforms_numeric._sum_with_policy(map(term, count()), cfg, True,
                                                   "fft_fn Newton sum")
    return NumericResult(val, est)


def _ref_egf_series(sample, x, cfg, what):
    """The Fraction route for e^{-x} sum_n sample(n) x^n / n!."""
    x_frac = Fraction(x)
    pw = [Fraction(1)]

    def term(n):
        while len(pw) <= n:
            pw.append(pw[-1] * x_frac / len(pw))
        return float(pw[n] * Fraction(sample(n)))

    val, est = transforms_numeric._sum_with_policy(map(term, count()), cfg, False, what)
    damp = math.exp(-x)
    return NumericResult(damp * val, damp * est)


def _ref_ifft_fn(src, x, cfg=NumericConfig()):
    return _ref_egf_series(src.provider, x, cfg, "ifft_fn EGF series")


def _ref_irft_fn(src, x, cfg=NumericConfig()):
    f = src.provider
    return _ref_egf_series(lambda n: f(-n), -x, cfg, "irft_fn EGF series")


def _outcome(call):
    """The value and estimate as float.hex, or the NonConvergenceError text."""
    try:
        r = call()
    except NonConvergenceError as exc:
        return "NonConvergenceError", str(exc)
    return float(r).hex(), r.error_estimate.hex()


# op -> provider type -> (source, reference-route op)
_ROUTES = {
    "fft_fn": (fft_fn, _ref_fft_fn, taylor_source, {
        # finitely many terms: a Newton sum of non-decaying ints diverges
        "int": lambda n: (n % 3 - 1) * 2 ** n if n < 10 else 0,
        "fraction": lambda n: Fraction(-1, 3) ** n / math.factorial(n),
        "float": lambda n: 0.5 ** n / math.factorial(n),
    }),
    "ifft_fn": (ifft_fn, _ref_ifft_fn, samples_source, {
        "int": lambda n: (-2) ** n + n,
        "fraction": lambda n: Fraction(3, 4) ** n,
        "float": lambda n: math.cos(0.5 * n),
    }),
    "irft_fn": (irft_fn, _ref_irft_fn, callable_source, {
        "int": lambda t: (1 + t) ** 2,
        "fraction": lambda t: Fraction(3, 4) ** t,
        "float": lambda t: 0.5 ** t,
    }),
}
_ARGUMENTS = (0.3, 1 / 3, 0.5, 2.7, -1.5)


@pytest.mark.parametrize("x", _ARGUMENTS)
@pytest.mark.parametrize("kind", ["int", "fraction", "float"])
@pytest.mark.parametrize("op", sorted(_ROUTES))
def test_series_terms_match_fraction_route(op, kind, x):
    """Each term is the correctly rounded float of the same rational the
    Fraction route rounds, so value and estimate agree to the bit."""
    fn, ref, make_source, providers = _ROUTES[op]
    src = make_source(providers[kind])
    got = _outcome(lambda: fn(src, x))
    assert got == _outcome(lambda: ref(src, x))
    assert got[0] != "NonConvergenceError"


# e^{t/2} for Fraction and float coefficients. An int jet is a polynomial,
# whose series here decays too slowly for the default config: both routes
# must then raise the same error.
_FRACTIONAL_PROVIDERS = {
    "int": lambda n: (3, -2)[n] if n < 2 else 0,
    "fraction": lambda n: Fraction(1, 2) ** n / math.factorial(n),
    "float": lambda n: 0.5 ** n / math.factorial(n),
}


@pytest.mark.parametrize("order", _ARGUMENTS)
@pytest.mark.parametrize("kind", sorted(_FRACTIONAL_PROVIDERS))
def test_fractional_derivative_matches_fraction_route(monkeypatch, kind, order):
    src = taylor_source(_FRACTIONAL_PROVIDERS[kind])
    got = _outcome(lambda: fractional_derivative(src, order))
    monkeypatch.setattr(transforms_numeric, "fft_fn", _ref_fft_fn)
    assert got == _outcome(lambda: fractional_derivative(src, order))
    assert (got[0] == "NonConvergenceError") == (kind == "int")


def test_known_overflow_cases_raise_nonconvergence():
    """A Newton sum whose terms leave the float range, and an EGF series whose
    partial sums do before the damping brings them back, raise the documented
    error naming the term instead of a raw OverflowError."""
    half = Fraction(1, 2)
    with pytest.raises(NonConvergenceError, match="term 199 overflows"):
        fft_fn(taylor_source(lambda n: half ** n), 0.3, NumericConfig(truncation_N=256))
    with pytest.raises(NonConvergenceError, match="term 458"):
        ifft_fn(samples_source(lambda n: 1), 800.0, NumericConfig(truncation_N=512))


def test_infinite_taylor_coefficient_raises_nonconvergence():
    src = taylor_source(lambda n: math.inf if n == 3 else 1.0 / math.factorial(n))
    with pytest.raises(NonConvergenceError, match="term 3 overflows"):
        fft_fn(src, 0.5)


def _nan_at(k, value):
    return lambda n: math.nan if n == k else value(n)


@pytest.mark.parametrize("evaluate", [
    lambda: fft_fn(taylor_source(_nan_at(3, lambda n: 1.0 / math.factorial(n))), 0.5),
    lambda: ifft_fn(samples_source(_nan_at(3, lambda n: 1.0)), 0.5),
    lambda: irft_fn(callable_source(_nan_at(-3, lambda n: 1.0)), 0.5),
])
def test_nan_term_raises_nonconvergence(evaluate):
    """A NaN coefficient or sample is named like an infinite one, not leaked
    as the ValueError of float.as_integer_ratio."""
    with pytest.raises(NonConvergenceError, match="term 3 is not a number"):
        evaluate()


def test_provider_value_error_propagates():
    def provider(n):
        raise ValueError("provider refuses")

    for evaluate in (lambda: fft_fn(taylor_source(provider), 0.5),
                     lambda: ifft_fn(samples_source(provider), 0.5),
                     lambda: irft_fn(callable_source(provider), 0.5)):
        with pytest.raises(ValueError, match="provider refuses"):
            evaluate()


@pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan])
def test_series_reject_non_finite_arguments(x):
    with pytest.raises(ValueError, match="finite argument"):
        fft_fn(exp_taylor(0.5), x)
    with pytest.raises(ValueError, match="finite argument"):
        ifft_fn(samples_source(math.factorial), x)


def test_egf_damping_out_of_range_raises_nonconvergence():
    """The series of 0^n sums to 1, but e^1000 times it is no float."""
    with pytest.raises(NonConvergenceError, match="float range"):
        ifft_fn(samples_source(lambda n: 0 ** n), -1000.0)


_SOURCE_SPECS = st.one_of(
    st.just("gamma-samples"),
    st.builds("{}({})".format, st.sampled_from(["exp", "sin", "cos", "geometric"]),
              st.fractions(min_value=-4, max_value=4, max_denominator=8)),
)
_POINTS = st.one_of(
    st.integers(-4000, 4000).map(lambda k: k / 4),   # dyadic
    st.integers(-3000, 3000).map(lambda k: k / 3),   # non-dyadic
    st.floats(min_value=-1000, max_value=1000),
)


@given(op=st.sampled_from(["fft", "ifft", "irft", "rft", "derivative", "difference"]),
       spec=_SOURCE_SPECS, at=_POINTS, order=st.floats(min_value=-4, max_value=4),
       N=st.integers(1, 512),
       scheme=st.sampled_from(["gauss_laguerre", "adaptive_fallback", "tanh_sinh"]))
@example(op="rft", spec="exp(2)", at=1.5, order=0.5, N=64, scheme="gauss_laguerre")
@example(op="difference", spec="exp(20)", at=0.0, order=0.5, N=64, scheme="gauss_laguerre")
@example(op="difference", spec="exp(1/2)", at=0.0, order=0.5, N=200, scheme="gauss_laguerre")
# a float integrand that overflows at tanh-sinh's far nodes
@example(op="rft", spec="exp(1/2)", at=1.5, order=0.5, N=64, scheme="tanh_sinh")
@example(op="rft", spec="gamma-samples", at=2.0, order=0.5, N=64, scheme="tanh_sinh")
@settings(max_examples=40, deadline=None)
def test_series_evaluators_keep_their_contract(op, spec, at, order, N, scheme):
    """On the CLI's named sources, each series evaluator, rft_fn on each of
    its schemes and both fractional operators (at the point at) return a
    finite NumericResult or raise NonConvergenceError, QuadratureError or
    ValueError."""
    src = NamedSource(spec)
    cfg = NumericConfig(truncation_N=N)
    try:
        if op == "fft":
            r = fft_fn(taylor_source(src.taylor()), at, cfg)
        elif op == "ifft":
            r = ifft_fn(samples_source(src.samples()), at, cfg)
        elif op == "irft":
            r = irft_fn(callable_source(src.callable()), at, cfg)
        elif op == "rft":
            r = rft_fn(src.callable(), at, QuadratureSpec(scheme=scheme))
        elif op == "derivative":
            # the point as the CLI passes it, a rational; the exact shift by a
            # float with a 2^-1000 denominator takes minutes at N = 512
            t = Fraction(at).limit_denominator(1000)
            r = fractional_derivative(taylor_source(src.taylor()),
                                      order, t, cfg)
        else:
            r = fractional_difference(src.callable(), order, at, cfg)
    except (NonConvergenceError, QuadratureError, ValueError):
        return
    assert isinstance(r, NumericResult)
    assert math.isfinite(r) and math.isfinite(r.error_estimate)
