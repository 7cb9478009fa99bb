"""Tests for the numeric transform layer.

Closed forms drive every accuracy assertion: exponentials map to powers
under the Newton sum, monomials map to rising factorials under the weighted
integral, and the fractional operators have elementary eigenvalues. The
convergence machinery (tail policy, acceleration, error reporting) is
tested separately from accuracy.
"""

import math
from fractions import Fraction
from itertools import count, product

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
from ftcalc.transforms_numeric import _exp_neg_convolve, _laguerre_rule, _shifted_taylor
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
    vals = [rft_fn(f, 2.0, QuadratureSpec(nodes=80, scheme=sch))
            for sch in ("gauss_laguerre", "adaptive_fallback", "tanh_sinh")]
    assert max(vals) - min(vals) < 1e-7
    assert abs(vals[0] - 0.25) < 1e-9


def test_adaptive_fallback_rejects_endpoint_kink():
    """Plain Laguerre nodes cannot resolve the t^{s-1} kink for fractional s."""
    with pytest.raises(QuadratureError):
        rft_fn(lambda t: math.exp(-t), 1.5, QuadratureSpec(nodes=16, scheme="adaptive_fallback"))


def test_rft_fn_unknown_scheme():
    with pytest.raises(ValueError):
        rft_fn(lambda t: 1.0, 1.0, QuadratureSpec(nodes=10, scheme="simpson"))


@pytest.mark.parametrize("scheme", ["gauss_laguerre", "adaptive_fallback"])
def test_quadrature_spec_rejects_nodes_past_two_rules(scheme):
    """Both node schemes pair an n-node rule with a 2n-node one within 256
    nodes, so n = 128 is the largest count they can honour."""
    assert abs(rft_fn(lambda t: math.exp(-t), 2.0, QuadratureSpec(128, scheme)) - 0.25) < 1e-9
    with pytest.raises(ValueError, match="nodes <= 128"):
        QuadratureSpec(nodes=129, scheme=scheme)


def test_quadrature_spec_tanh_sinh_ignores_nodes():
    assert QuadratureSpec(nodes=200, scheme="tanh_sinh").nodes == 200


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
    """The direct Cauchy product with e^{-x}: in Fractions, or in floats, with
    each signed reciprocal factorial formed per term, when any input is a float."""
    if any(isinstance(v, float) for v in coeffs):
        return [math.fsum(((-1) ** m / math.factorial(m)) * float(coeffs[k - m])
                          for m in range(k + 1)) for k in range(len(coeffs))]
    return [sum((Fraction((-1) ** m, math.factorial(m)) * coeffs[k - m] for m in range(k + 1)),
                start=Fraction(0)) for k in range(len(coeffs))]


def _ref_shifted_taylor(a, t, count, extra=32):
    """The direct Fraction sum a'_k = sum_{i >= k} binom(i, k) a_i t^(i-k)."""
    src = [a(i) for i in range(count + extra)]
    return [sum((math.comb(i, k) * src[i] * Fraction(t) ** (i - k) for i in range(k, len(src))),
                start=Fraction(0)) for k in range(count)]


_EXACT_SEQUENCES = {
    "int": lambda n: (-1) ** n * (n % 7 + 1),
    "fraction": lambda n: Fraction(2) ** n / math.factorial(n) - Fraction(n % 3, n + 1),
    # a cubic: its shifted jet ends early and is padded back to count
    "polynomial": lambda n: Fraction(n + 1, 2) if n < 4 else 0,
}


@pytest.mark.parametrize("K", [0, 1, 2, 65, 161])
@pytest.mark.parametrize("kind", sorted(_EXACT_SEQUENCES))
def test_exact_preparation_matches_direct_sums(K, kind):
    """The exact branches of the fractional-derivative preparation equal
    their defining sums, value and type."""
    a = _EXACT_SEQUENCES[kind]
    coeffs = [a(n) for n in range(K)]
    got = _exp_neg_convolve(coeffs)
    assert got == _ref_exp_neg_convolve(coeffs)
    assert all(type(v) is Fraction for v in got)
    for t in (1, Fraction(1, 5)):
        got = _shifted_taylor(a, t, K)
        assert got == _ref_shifted_taylor(a, t, K)
        assert all(type(v) is Fraction for v in got)


@pytest.mark.parametrize("K", [1, 2, 65, 161])
def test_float_convolution_matches_direct_sums(K):
    """The float branch of the e^{-x} product is bit-identical to its defining
    sum, on float and on mixed int/float input."""
    floats = [math.sin(n + 1) * 2.0 ** (n % 5 - 2) for n in range(K)]
    mixed = [n % 4 - 1 if n % 2 else 1.0 / (n + 1) for n in range(K)]
    for coeffs in (floats, mixed):
        got = _exp_neg_convolve(coeffs)
        assert got == _ref_exp_neg_convolve(coeffs)
        assert all(type(v) is float for v in got)


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


@given(op=st.sampled_from(["fft", "ifft", "irft"]), spec=_SOURCE_SPECS, at=_POINTS,
       N=st.integers(1, 512))
@settings(max_examples=40, deadline=None)
def test_series_evaluators_keep_their_contract(op, spec, at, N):
    """On the CLI's named sources, each series evaluator returns a finite
    NumericResult or raises NonConvergenceError or ValueError."""
    src = NamedSource(spec)
    cfg = NumericConfig(truncation_N=N)
    try:
        if op == "fft":
            r = fft_fn(taylor_source(src.taylor(), src.taylor_radius()), at, cfg)
        elif op == "ifft":
            r = ifft_fn(samples_source(src.samples()), at, cfg)
        else:
            r = irft_fn(callable_source(src.callable()), at, cfg)
    except (NonConvergenceError, ValueError):
        return
    assert isinstance(r, NumericResult)
    assert math.isfinite(r) and math.isfinite(r.error_estimate)
