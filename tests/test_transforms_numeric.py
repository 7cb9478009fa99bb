"""Tests for the numeric transform layer.

Closed forms drive every accuracy assertion: exponentials map to powers
under the Newton sum, monomials map to rising factorials under the weighted
integral, and the fractional operators have elementary eigenvalues. The
convergence machinery (tail policy, acceleration, error reporting) is
tested separately from accuracy.
"""

import math
import re
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from itertools import count, islice, product

import mpmath as mp
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ftcalc.combinatorics import bernoulli, rising_factorial
from ftcalc.polynomial import monomial, shift
from ftcalc.transforms_numeric import (
    NamedSource,
    NonConvergenceError,
    NumericConfig,
    NumericResult,
    QuadratureError,
    fft_fn,
    fractional_derivative,
    fractional_difference,
    gamma_support,
    ifft_fn,
    incomplete_gamma_upper,
    irft_fn,
    rft_fn,
    wynn_epsilon,
    zeta_formal_series,
)
from ftcalc.transforms_numeric import _laguerre_rule
from ftcalc import transforms_numeric


def exp_taylor(a):
    return lambda n: a ** n / math.factorial(n)


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
    r = ifft_fn(math.factorial, x, NumericConfig(truncation_N=400, tolerance=1e-12))
    assert abs(r - math.exp(-x) / (1 - x)) < 1e-9


@pytest.mark.parametrize("a", [2.0, 0.5, 3.0])
@pytest.mark.parametrize("x", [0.3, 1.0, 2.5])
def test_ifft_fn_geometric_samples(a, x):
    """IFFT of a^n samples is e^{(a-1)x}."""
    r = ifft_fn(lambda n: a ** n, x, NumericConfig(truncation_N=128, tolerance=1e-13))
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
    """Both schemes land on 2^{-s} for a smooth integer-order case."""
    f = lambda t: math.exp(-t)
    vals = [rft_fn(f, 2.0, sch) for sch in ("gauss_laguerre", "tanh_sinh")]
    assert max(vals) - min(vals) < 1e-7
    assert abs(vals[0] - 0.25) < 1e-9


def test_benchmark_names_are_the_plain_calls():
    """The benchmark scripts still wrap their functions in taylor_source,
    samples_source and callable_source, and their schemes in QuadratureSpec,
    some of them 'adaptive_fallback': each wrapped call gives the plain
    call's value and estimate to the bit."""
    from ftcalc.transforms_numeric import (
        QuadratureSpec, callable_source, samples_source, taylor_source,
    )

    def bits(r):
        return float(r).hex(), r.error_estimate.hex()

    g = NamedSource("exp(1/2)")
    for s in (0.3, 2.0, 1 / 3):
        assert bits(fft_fn(taylor_source(g.taylor(), 2.0), s)) == bits(fft_fn(g.taylor(), s))
        assert bits(ifft_fn(samples_source(g.samples()), s)) == bits(ifft_fn(g.samples(), s))
        assert bits(irft_fn(callable_source(g.callable()), s)) == bits(irft_fn(g.callable(), s))
    for o, t in product((0.5, 1 / 3), (0, 0.25)):
        assert (bits(fractional_derivative(taylor_source(g.taylor()), o, t))
                == bits(fractional_derivative(g.taylor(), o, t)))
    assert QuadratureSpec() == "gauss_laguerre"
    fallback = QuadratureSpec(scheme="adaptive_fallback")
    for f in (lambda t: math.exp(-t / 2), math.cos):
        for s in (1e-14, 0.5, 2.0, 3.0, 171):
            if f is math.cos and s == 171:
                continue  # unconverged on either name
            assert bits(rft_fn(f, s, fallback)) == bits(rft_fn(f, s))


def test_rft_fn_unknown_scheme():
    with pytest.raises(ValueError):
        rft_fn(lambda t: 1.0, 1.0, "simpson")


# alpha is the exponent of mpmath's glaguerre weight t^alpha e^(-t); the rule
# under test is that of the probability measure of s = alpha + 1.
@pytest.mark.parametrize("n,alpha", [*product((8, 32), (0.0, -0.5, -0.99, 1.7, 49.0)), (64, -0.5)])
def test_laguerre_rule_matches_mpmath(n, alpha):
    """Nodes and weights agree with mpmath's 30-digit generalized Gauss-Laguerre
    rule for the weight t^(s-1) e^(-t), its weights divided by Gamma(s)."""
    s = alpha + 1
    xs, ws = _laguerre_rule(n, s)
    with mp.workdps(30):
        want_x, want_w = mp.gauss_quadrature(n, "glaguerre", alpha=mp.mpf(s) - 1)
        assert max(abs(x - wx) / wx for x, wx in zip(xs, want_x)) <= 1e-13
        assert max(abs(w - ww / mp.gamma(s)) / (ww / mp.gamma(s))
                   for w, ww in zip(ws, want_w)) <= 2e-13


@pytest.mark.parametrize("n", [2, 80, 160, 256])
@pytest.mark.parametrize("alpha", [-0.99, -0.7, 0.0, 2.7, 19.0, 99.0])
def test_laguerre_rule_integrates_moments(n, alpha):
    """At s = alpha + 1: n finite, strictly increasing nodes; weights positive
    unless they underflow past x = 700; sum w x^k is the k-th moment of the
    Gamma(s, 1) law, the rising factorial s^(k), for k < min(17, 2n)."""
    s = alpha + 1
    xs, ws = _laguerre_rule(n, s)
    assert len(xs) == len(ws) == n
    assert all(map(math.isfinite, xs + ws))
    assert all(a < b for a, b in zip(xs, xs[1:]))
    assert all(w > 0 or (w == 0 and x > 700) for x, w in zip(xs, ws))
    for k in range(min(17, 2 * n)):
        want = mp.rf(s, k)
        got = math.fsum(w * x ** k for x, w in zip(xs, ws))
        assert abs(got - want) <= 1e-13 * want


def test_laguerre_rule_refuses_unconverged_nodes(monkeypatch):
    monkeypatch.setattr(transforms_numeric, "_HALLEY_STEPS", 0)
    with pytest.raises(QuadratureError, match=r"^Gauss-Laguerre rule n=4, s=1\.5: node 0 did not "
                                              "converge"):
        _laguerre_rule(4, 1.5)


@pytest.mark.parametrize("s,n", [(2e-53, 160), (340.0, 160), (1e6, 80)])
def test_laguerre_rules_outside_their_range_raise_naming_n_and_s(s, n):
    """rft_fn's 80- and 160-node pair holds its moments from s = 4.1e-53 to
    333.6. Just below, the first moment comes out wrong with no float error,
    and the rule's own moment check refuses it; above, a float step fails.
    Each raises QuadratureError naming the rule and s, never a bare
    ZeroDivisionError, ValueError or OverflowError."""
    with pytest.raises(QuadratureError, match=rf"^Gauss-Laguerre rule n={n}, s={s!r}: "):
        rft_fn(math.cos, s)


def test_rft_fn_s_past_the_float_range_is_documented_error():
    """An int s too large for a float raises, not a raw OverflowError."""
    with pytest.raises((QuadratureError, ValueError), match="float range"):
        rft_fn(math.cos, 10 ** 400)


@pytest.mark.parametrize("s", [0.01, 20.0, 100.0, 150.0])
def test_rft_fn_monomials_at_far_arguments(s):
    """The default rule stays exact on low monomials for s near 0 and large s."""
    for n in range(4):
        want = rising_factorial(s, n)
        assert abs(rft_fn(lambda t: t ** n, s) - want) <= 1e-12 * want


@pytest.mark.parametrize("scheme,s", product(("gauss_laguerre", "tanh_sinh"),
                                             (115, 171, 172, 200, 333.6)))
def test_rft_fn_large_s_returns_or_raises_documented_error(scheme, s):
    """Past the float range of Gamma(s) = Gamma(171.62...) both schemes return
    1.5^(-s) for e^(-t/2), up to the top of the Gauss-Laguerre pair's range:
    tanh_sinh normalizes in mpmath, and the Gauss-Laguerre rules are those of
    the probability measure, whose weights sum to 1."""
    want = 1.5 ** -s
    assert abs(rft_fn(lambda t: math.exp(-t / 2), s, scheme) - want) <= 1e-12 * want


def test_gauss_laguerre_reports_integrand_overflow():
    """e^(2t) overflows a float at the largest nodes: the integral diverges."""
    with pytest.raises(QuadratureError, match="gauss_laguerre: the integrand overflows"):
        rft_fn(lambda t: math.exp(2 * t), 1.5)


@pytest.mark.parametrize("f,match,scheme", [
    (lambda t: mp.exp(2 * t), "unconverged", "tanh_sinh"),  # diverges: mpmath returns inf
    (lambda t: mp.nan, "unconverged", "tanh_sinh"),
    (lambda t: math.nan, "unconverged", "tanh_sinh"),
    (lambda t: math.nan, "unconverged", "gauss_laguerre"),
    (lambda t: math.exp(t / 2), "integrand overflows", "tanh_sinh"),  # a float overflow
    (lambda t: mp.sqrt(t - 2), "integrand is not real for s = 1.5$", "tanh_sinh"),
    (lambda t: complex(t, 1), "integrand is not real for s = 1.5$", "gauss_laguerre"),
])
def test_tanh_sinh_rejects_divergent_and_nan_integrands(f, match, scheme):
    """Both schemes, tanh_sinh included, reject a result by one acceptance
    check and reports it with one error text; so is an integrand value that
    is not real."""
    with pytest.raises(QuadratureError, match=f"^{scheme}(: the)? {match}"):
        rft_fn(f, 1.5, scheme)


def test_rft_fn_below_float_resolution_of_s_is_documented_error():
    """Far below the rules' range, at s = 1e-300, a float step of the rule
    divides by zero, and QuadratureError names the rule and s."""
    with pytest.raises(QuadratureError, match=r"^Gauss-Laguerre rule n=80, s=1e-300: "):
        rft_fn(math.cos, 1e-300)


@pytest.mark.parametrize("s", [2 ** -53, 1e-14, 1e-10, 1e-6, 0.1, 0.49, 0.5, Fraction(99, 100),
                               1e-15, 1e-12, 1e-8, 4.1e-53])
def test_gauss_laguerre_near_zero_matches_closed_form(s):
    """The rules are built from s itself, so no bit of a small s is lost:
    cos is within 1e-13 of 2^(-s/2) cos(s pi/4), and sin, t and t^2, whose
    transforms are about s, are within 1e-13 relative of 2^(-s/2) sin(s pi/4),
    s and s(s + 1), down to the bottom of the pair's range at 4.1e-53.
    Rules built for fl(s - 1) + 1 put sin 8.0e-4 off at s = 1e-15."""
    x = float(s)
    assert abs(rft_fn(math.cos, s) - 2 ** (-x / 2) * math.cos(x * math.pi / 4)) <= 1e-13
    for f, want in ((math.sin, 2 ** (-x / 2) * math.sin(x * math.pi / 4)),
                    (lambda t: t, x), (lambda t: t * t, x * (x + 1))):
        assert abs(rft_fn(f, s) - want) <= 1e-13 * want


@pytest.mark.parametrize("a", [1.0, 0.5])
@pytest.mark.parametrize("s", [2 ** -53, 1e-14, 1e-10, 1e-6])
def test_gauss_laguerre_near_zero_matches_exponential_closed_form(a, s):
    """The same on e^(-at), whose transform is (1 + a)^(-s)."""
    assert abs(rft_fn(lambda t: math.exp(-a * t), s) - (1 + a) ** -s) <= 1e-13


@pytest.mark.parametrize("f,s,want", [
    *((lambda t: mp.exp(-t / 2), s, 1.5 ** -s) for s in (2 ** -53, 1e-14, 1e-6, 0.1, 1 / 3, 0.5)),
    *((mp.cos, s, 2 ** (-s / 2) * math.cos(s * math.pi / 4)) for s in (1e-6, 0.1)),
])
def test_tanh_sinh_small_s_matches_closed_form(f, s, want):
    """Below s = 1 the head is integrated in u = t^s, where t^(s-1) dt = du / s,
    so tanh_sinh returns the transform down to s = 2^-53."""
    assert abs(rft_fn(f, s, "tanh_sinh") - want) <= 1e-12


@pytest.mark.parametrize("f", [lambda t: mp.e ** (-t / 2), lambda t: mp.e ** t / (mp.e ** t - 1)],
                         ids=["exp(-t/2)", "zeta"])
@pytest.mark.parametrize("s", [1, 1.5, 2, 3.2, 115])
def test_tanh_sinh_from_s_1_is_the_plain_integral(f, s):
    """From s = 1 on, the head is not mapped: value and estimate are those of
    one 25-digit quad of f(t) t^(s-1) e^(-t) over [0, 1, inf], to the bit;
    past s = 2 the tail is split further at s - 1 - 3 sqrt(s), s - 1 and
    s - 1 + 3 sqrt(s), those of them above 1. Where that fails the acceptance
    check (the zeta integrand diverges at s = 1), the rejection names the
    same value and estimate. Each case runs twice, so the second call reads
    the node table the first left."""
    with mp.workdps(25):
        ss = mp.mpf(s)
        peak, width = ss - 1, 3 * mp.sqrt(ss)
        split = [t for t in (peak - width, peak, peak + width) if t > 1] if s > 2 else []
        val, err = mp.quad(lambda t: f(t) * mp.exp((ss - 1) * mp.ln(t) - t),
                           [0, 1, *split, mp.inf], error=True)
        val, err = float(val / mp.gamma(ss)), float(abs(err) / mp.gamma(ss))
    for _ in range(2):
        if err <= 1e-7 * max(1.0, abs(val)):
            r = rft_fn(f, s, "tanh_sinh")
            assert (float(r).hex(), r.error_estimate.hex()) == (val.hex(), err.hex())
        else:
            message = f"value {val!r}, error estimate {err:.3e}"
            with pytest.raises(QuadratureError, match=re.escape(message)):
                rft_fn(f, s, "tanh_sinh")


@pytest.mark.parametrize("s", [50, 100, 200])
def test_tanh_sinh_large_s_matches_closed_form(s):
    """Past s = 2 the weight t^(s-1) e^(-t) peaks at t = s - 1, and the quad
    splits there: cos is within 1e-12 of 2^(-s/2) cos(s pi/4), where one
    interval over the peak put it 1.6e-2 off at s = 100."""
    want = 2 ** (-s / 2) * math.cos(s * math.pi / 4)
    assert abs(rft_fn(mp.cos, s, "tanh_sinh") - want) <= 1e-12


def test_tanh_sinh_reports_a_pole_of_f_at_zero():
    """Below s = 1 the head evaluates f so near 0 that e^t - 1 is 0 at 25
    digits; the integral diverges there, and the error names the division."""
    with pytest.raises(QuadratureError, match="^tanh_sinh: the integrand divides by zero"):
        rft_fn(lambda t: mp.e ** t / (mp.e ** t - 1), 0.5, "tanh_sinh")


def _tanh_sinh_outcome(f, s):
    """rft_fn's value and estimate in float hex, or the text of its error."""
    try:
        r = rft_fn(f, s, "tanh_sinh")
    except QuadratureError as exc:
        return str(exc)
    return float(r).hex(), r.error_estimate.hex()


@pytest.mark.parametrize("f", [lambda t: mp.exp(-t / 2), mp.cos, math.cos,
                               lambda t: mp.e ** t / (1 + t)],
                         ids=["exp(-t/2)", "mp.cos", "math.cos", "e^t/(1+t)"])
@pytest.mark.parametrize("s", [2 ** -53, 1e-6, 1 / 3, 0.5, 0.75, 1, 2, 3.2, 115])
def test_tanh_sinh_node_table_keeps_every_bit(f, s):
    """The first call for an s leaves its node table empty, the second fills
    it and the third reads it; all three give the cold call's value and
    estimate, or its error, to the bit."""
    transforms_numeric._tanh_sinh_table.cache_clear()
    cold = _tanh_sinh_outcome(f, s)
    assert transforms_numeric._tanh_sinh_table(Fraction(s).as_integer_ratio()) == {}
    assert _tanh_sinh_outcome(f, s) == _tanh_sinh_outcome(f, s) == cold


def test_tanh_sinh_node_table_survives_a_raising_integrand():
    """A pole of f at 0 raises from inside the quad while the table fills;
    the next good call at that s reads the table and gives the cold bits."""
    table = transforms_numeric._tanh_sinh_table
    table.cache_clear()
    good = lambda t: mp.exp(-t / 2)
    cold = _tanh_sinh_outcome(good, 0.5)
    pole = lambda t: mp.e ** t / (mp.e ** t - 1)
    for _ in range(2):
        assert _tanh_sinh_outcome(pole, 0.5).startswith("tanh_sinh: the integrand divides by zero")
    assert table((1, 2))
    assert _tanh_sinh_outcome(good, 0.5) == cold


def test_tanh_sinh_node_table_is_bounded():
    """A sweep over 12 values of s, two calls each, keeps the tables of the
    8 most recent, and a value of s whose table was evicted gives the same
    bits again."""
    table = transforms_numeric._tanh_sinh_table
    table.cache_clear()
    f = lambda t: mp.exp(-t / 2)
    sweep = [1 + i / 4 for i in range(12)]
    first = [[_tanh_sinh_outcome(f, s) for _ in range(2)] for s in sweep]
    assert table.cache_info().currsize == 8
    assert all(a == b for a, b in first)
    assert [_tanh_sinh_outcome(f, s) for s in sweep[:3]] == [a for a, _ in first[:3]]


def test_tanh_sinh_node_table_is_thread_safe():
    """Four threads on the same s, with its table cold and thread switches
    frequent, get the serial bits."""
    table = transforms_numeric._tanh_sinh_table
    table.cache_clear()
    f = lambda t: mp.exp(-t / 2)
    serial = _tanh_sinh_outcome(f, 1 / 3)
    table.cache_clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            outcomes = list(pool.map(lambda _: _tanh_sinh_outcome(f, 1 / 3), range(8), timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert outcomes == [serial] * 8


def test_tanh_sinh_takes_a_fraction_s():
    """A Fraction s reads as its ratio, as on the Gauss-Laguerre scheme; one
    with a float value gives that float's bits."""
    f = lambda t: mp.exp(-t / 2)
    assert abs(rft_fn(f, Fraction(1, 3), "tanh_sinh") - 1.5 ** (-1 / 3)) <= 1e-12
    assert abs(rft_fn(math.cos, Fraction(1, 3)) - 2 ** (-1 / 6) * math.cos(math.pi / 12)) <= 1e-9
    assert _tanh_sinh_outcome(f, Fraction(1, 2)) == _tanh_sinh_outcome(f, 0.5)


def test_gauss_laguerre_rule_cache_is_bounded(monkeypatch):
    """A sweep over 100 values of s keeps at most 64 rules, two per s, and a
    value of s whose rules were evicted gives the same bits again."""
    monkeypatch.setattr(transforms_numeric, "_NODES", 4)  # cheap rules, exact on t^2
    cache = transforms_numeric._gauss_laguerre_rule
    cache.cache_clear()
    sweep = [0.5 + i / 100 for i in range(100)]
    first = [rft_fn(lambda t: t * t, s) for s in sweep]
    assert cache.cache_info().currsize <= 64
    assert all(abs(r - s * (s + 1)) <= 1e-12 * s * (s + 1) for r, s in zip(first, sweep))
    again = [rft_fn(lambda t: t * t, s) for s in sweep[:3]]
    assert ([(float(r).hex(), r.error_estimate.hex()) for r in again]
            == [(float(r).hex(), r.error_estimate.hex()) for r in first[:3]])


@pytest.mark.parametrize("a,x", [(0.5, 0.7), (0.25, 1.3), (-1.0, 0.4)])
def test_irft_fn_binomial_family(a, x):
    """IRFT of s -> (1-a)^{-s} recovers e^{ax}."""
    r = irft_fn(lambda s: (1 - a) ** (-s), x, NumericConfig(truncation_N=128, tolerance=1e-13))
    assert abs(r - math.exp(a * x)) < 1e-9


@pytest.mark.parametrize("f", [lambda s: 0.5 ** s, lambda s: (1 + s) ** 2,
                               lambda s: Fraction(3, 4) ** s])
@pytest.mark.parametrize("x", [0.0, 0.7, -1.3, 2.5, 1 / 3])
def test_irft_fn_is_ifft_fn_of_reflected_samples(f, x):
    """IRFT(f)(x) is IFFT(n -> f(-n))(-x), value and estimate to the bit."""
    r = irft_fn(f, x)
    q = ifft_fn(lambda n: f(-n), -x)
    assert (float(r), r.error_estimate) == (float(q), q.error_estimate)


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
    coeff = exp_taylor(0.5)
    assert abs(fractional_derivative(coeff, 0.0) - 1.0) < 1e-10
    assert abs(fractional_derivative(coeff, 1.0) - 0.5) < 1e-10


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
                        lambda a, s, cfg, what, noise: seen.append((a, cfg.truncation_N)))
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
        got = _prepared(monkeypatch, fractional_derivative, a, 0.5, t, cfg)
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
    got = _outcome(lambda: fractional_derivative(coeff, 0.5, t))
    assert got[0] != "NonConvergenceError"
    assert got == _outcome(lambda: fractional_derivative(
        lambda n: Fraction(coeff(n)), 0.5, Fraction(t)))
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


@pytest.mark.parametrize("n,x", [(172, 700.0), (171, -10.0), (200, 1000.0), (40, -10.0),
                                 (5, 1 / 3)])
def test_incomplete_gamma_where_a_factor_overflows(n, x):
    """Gamma(n, x) is returned wherever it fits a float, though (n-1)!,
    e^{-x} or x^(n-1) alone would overflow one: Gamma(172, 700) is about
    4e182 while 171! and 700^171 are not floats."""
    with mp.workdps(30):
        want = mp.gammainc(n, mp.mpf(x))
    got = incomplete_gamma_upper(n, x)
    assert abs(got - want) <= 1e-13 * abs(want)


def test_gamma_support_values():
    assert abs(gamma_support(0.5) - math.sqrt(math.pi)) < 1e-12
    assert abs(gamma_support(5.0) - 24.0) < 1e-10
    assert abs(gamma_support(-0.5) + 2 * math.sqrt(math.pi)) < 1e-10
    for pole in (0.0, -1.0, -3.0):
        with pytest.raises(ValueError, match="pole"):
            gamma_support(pole)
    for x in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="finite argument"):
            gamma_support(x)
    for x in (171.7, 1e6):
        with pytest.raises(ValueError, match="overflows a float"):
            gamma_support(x)
    for x in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="finite argument"):
            incomplete_gamma_upper(2, x)
    for n, x in ((3, -1000.0), (400, 1e3)):
        with pytest.raises(ValueError, match=r"Gamma\(\d+, .*\) overflows a float"):
            incomplete_gamma_upper(n, x)
    for n in (0, 2.5, 1.0):
        with pytest.raises(ValueError, match="positive integer"):
            incomplete_gamma_upper(n, 1.0)


def test_zeta_formal_series_contract():
    """The formal series reports its terms; the value is -1/(s-1) + sum."""
    val, terms = zeta_formal_series(2.0, 8)
    assert len(terms) == 8
    assert abs(val - (-1.0 + math.fsum(terms))) < 1e-12
    assert terms[0] == 0.5
    assert abs(terms[1] - 1.0 / 6.0) < 1e-15
    assert terms[2] == 0.0
    for N in (0, 2.5, 3.0):
        with pytest.raises(ValueError, match="N >= 1"):
            zeta_formal_series(2.0, N)


@pytest.mark.parametrize("s,N,term", [(2.0, 260, 259), (2.0, 300, 259), (1e300, 5, 3)])
def test_zeta_formal_series_rejects_non_finite_terms(s, N, term):
    """The first term whose exact value leaves the float range: B_260 at
    s = 2, where every term is (-1)^(n+1) B_(n+1); at s = 1e300 the term
    B_4/4! s^(rising 3), as B_3 = 0 makes term 2 exactly 0."""
    with pytest.raises(NonConvergenceError, match=f"term {term} .* overflows a float"):
        zeta_formal_series(s, N)


def test_zeta_formal_series_terms_are_exact_values_rounded_once():
    """At s = 2 the n-th term is (-1)^(n+1) B_(n+1) exactly: the float
    products once overflowed at n = 170 and met B_171 = 0 as 0 * inf."""
    _, terms = zeta_formal_series(2.0, 259)
    assert terms == [float((-1) ** (n + 1) * bernoulli(n + 1)) for n in range(259)]
    assert zeta_formal_series(Fraction(1, 3), 40)[1] == [
        float((-1) ** (n + 1) * bernoulli(n + 1) * rising_factorial(Fraction(1, 3), n)
              / math.factorial(n + 1)) for n in range(40)]


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


def test_divergent_newton_sum_raises():
    """A constant Taylor sequence makes the Newton sum blow up."""
    with pytest.raises(NonConvergenceError):
        fft_fn(lambda n: 1.0, 2.5, NumericConfig(truncation_N=48, tolerance=1e-12))


def test_newton_sum_of_a_rounded_jet_stops_before_its_noise():
    """e^{-x} times the float jet of e^{2x}, given as exact Fractions: the
    rounding of the jet, amplified about 3x per term, makes the Newton terms
    at s = 1.5 grow again past term 35. Levin's u at the orders before that
    noise gives 2^1.5, and the differences between orders, which the noise
    moves, keep the estimate at the error's size."""
    jet = [Fraction(2.0 ** n / math.factorial(n)) for n in range(65)]
    damped = _ref_exp_neg_convolve(jet)
    r = fft_fn(damped.__getitem__, 1.5)
    assert abs(r - 2.0 ** 1.5) < 1e-11
    assert abs(r - 2.0 ** 1.5) <= 2 * r.error_estimate


def test_newton_sum_retry_needs_agreement_with_all_sums():
    """The order-2.7 derivative series of cos(u/2) at -3/2 is a binomial series
    outside its radius: e^{-x} cos((x - 3/2)/2) has the ratio -1 +- i/2, of
    modulus above 1, whose two oscillating modes Levin's u does not model.
    No order meets the tolerance, so it raises; a value it returned would
    have to match (1/2)^2.7 cos(-3/4 + 2.7 pi/2) within its estimate."""
    coeff = NamedSource("cos(1/2)").taylor()
    try:
        r = fractional_derivative(coeff, 2.7, Fraction(-3, 2))
    except NonConvergenceError as exc:
        assert "tail policy unmet" in str(exc)
    else:
        assert abs(r - 0.5 ** 2.7 * math.cos(-0.75 + 2.7 * math.pi / 2)) <= r.error_estimate


def _borel_geometric(r, s):
    """The Borel sum e^{1/r} r^s Gamma(s + 1, 1/r) of sum_n (s)_n r^n, r > 0."""
    r = mp.mpf(r)
    return float(mp.e ** (1 / r) * r ** s * mp.gammainc(s + 1, 1 / r))


@pytest.mark.parametrize("source,s,cfg,closed_form", [
    # divergent, summed by Levin's u before the terms' rounding swamps it
    ("geometric(1/2)", 0.3, NumericConfig(truncation_N=256), lambda: _borel_geometric(0.5, 0.3)),
    ("geometric(1/3)", 2.7, NumericConfig(), lambda: _borel_geometric(1 / 3, 2.7)),
    # the rounding of terms that grow like 2^n n! leaves about 5e-10
    ("geometric(2)", 0.3, NumericConfig(tolerance=1e-8), lambda: _borel_geometric(2, 0.3)),
    # binom(0.3, n) falls like n^-1.3: the direct stop needs far more terms
    ("exp(1)", 0.3, NumericConfig(truncation_N=256), lambda: 2.0 ** 0.3),
    # the direct stop on a structural zero
    ("sin(1/2)", 0.5, NumericConfig(), lambda: ((1 + 0.5j) ** 0.5).imag),
])
def test_newton_sum_within_its_estimate_of_closed_form(source, s, cfg, closed_form):
    """Each value is within its error estimate, plus 4 ulp, of its closed
    form, and each estimate is positive."""
    r = fft_fn(NamedSource(source).taylor(), s, cfg)
    want = closed_form()
    assert abs(r - want) <= r.error_estimate + 4 * math.ulp(want)
    assert r.error_estimate > 0


def test_newton_sum_not_borel_summable_raises():
    """sum_n (0.3)_n (-1/2)^n keeps one sign and grows like n!: its Borel
    transform has a singularity on [0, inf), and Levin's u does not settle."""
    with pytest.raises(NonConvergenceError):
        fft_fn(NamedSource("geometric(-1/2)").taylor(), 0.3, NumericConfig(truncation_N=256))


def test_logarithmic_newton_sum_returns_within_its_estimate():
    """exp(-1) at s = 1.5 is (1 - 1)^1.5 = 0, a sum of terms of one sign that
    fall like n^-2.5: a value must lie within its estimate of 0."""
    try:
        r = fft_fn(NamedSource("exp(-1)").taylor(), 1.5, NumericConfig(truncation_N=256))
    except NonConvergenceError:
        return
    assert abs(r) <= r.error_estimate


def test_newton_sum_reads_to_its_first_checkpoint():
    """fft_fn of e^t at s = 0.3 stops at 32 nonzero terms with truncation
    256: it reads at most 64 Taylor coefficients, not all 256."""
    reads = []
    coeff = NamedSource("exp(1)").taylor()
    r = fft_fn(lambda n: reads.append(n) or coeff(n), 0.3, NumericConfig(truncation_N=256))
    assert abs(r - 2.0 ** 0.3) <= r.error_estimate + 4 * math.ulp(2.0 ** 0.3)
    assert len(reads) <= 64


@pytest.mark.parametrize("s, want", [(5, 121.0), (0.5, 0.0625), (3, 1.0)])
def test_zero_coefficients_between_terms_do_not_end_the_newton_sum(s, want):
    """1 + x^4 has three zero coefficients between its terms, and its Newton
    sum is the finite (s)_0 + (s)_4: 1 + 120 at s = 5, 1 - 15/16 at s = 1/2,
    and 1 at s = 3, where (3)_4 = 0."""
    r = fft_fn(lambda n: 1 if n in (0, 4) else 0, s)
    assert (float(r), r.error_estimate) == (want, 0.0)


def test_zero_samples_between_terms_do_not_end_the_egf_series():
    """Samples (n-1)(n-2)(n-3) vanish at n = 1, 2, 3; the inverse transform
    is x^3 - 3x^2 + 6x - 6, -3.625 at x = 1/2."""
    r = ifft_fn(lambda n: (n - 1) * (n - 2) * (n - 3), 0.5)
    assert abs(r + 3.625) <= r.error_estimate


@pytest.mark.parametrize("s", [0, 3, 3.0, Fraction(20)])
def test_newton_sum_at_an_integer_s_reads_s_plus_4_terms(s):
    """At an integer s >= 0, (s)_n vanishes past n = s: the sum of the
    (s)_n / n! of e^t reads s + 4 coefficients and is 2^s exactly."""
    reads = []
    coeff = NamedSource("exp(1)").taylor()
    r = fft_fn(lambda n: reads.append(n) or coeff(n), s, NumericConfig(truncation_N=256))
    assert (float(r), r.error_estimate) == (2.0 ** s, 0.0)
    assert reads == list(range(int(s) + 4))


def test_ifft_outside_radius_raises():
    with pytest.raises(NonConvergenceError):
        ifft_fn(lambda n: float(math.factorial(n)), 1.5, NumericConfig(truncation_N=64, tolerance=1e-10))


def test_numeric_result_shape():
    r = fft_fn(exp_taylor(0.5), 1.5)
    assert isinstance(r, float)
    assert isinstance(r, NumericResult)
    assert math.isfinite(r.error_estimate)
    assert r.error_estimate >= 0.0
    assert "error_estimate" in repr(r)


# ---- the series term route

def _ref_fft_fn(coeff, s, cfg=NumericConfig(), what="fft_fn Newton sum", noise=None):
    """The Fraction route for the Newton sum: (s)_n as a cached Fraction
    product, each term rounded once by float(Fraction), summed under the
    same policy with the same input noise."""
    s_frac = Fraction(s)
    ff = [Fraction(1)]

    def term(n):
        while len(ff) <= n:
            ff.append(ff[-1] * (s_frac - (len(ff) - 1)))
        return float(ff[n] * Fraction(coeff(n)))

    val, est = transforms_numeric._sum_with_policy(map(term, count()), cfg, True, what, noise)
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


def _ref_ifft_fn(sample, x, cfg=NumericConfig()):
    return _ref_egf_series(sample, x, cfg, "ifft_fn EGF series")


def _ref_irft_fn(f, x, cfg=NumericConfig()):
    return _ref_egf_series(lambda n: f(-n), -x, cfg, "irft_fn EGF series")


def _outcome(call):
    """The value and estimate as float.hex, or the NonConvergenceError text."""
    try:
        r = call()
    except NonConvergenceError as exc:
        return "NonConvergenceError", str(exc)
    return float(r).hex(), r.error_estimate.hex()


# op -> (op, reference-route op, provider type -> provider)
_ROUTES = {
    "fft_fn": (fft_fn, _ref_fft_fn, {
        # finitely many terms: a Newton sum of non-decaying ints diverges
        "int": lambda n: (n % 3 - 1) * 2 ** n if n < 10 else 0,
        "fraction": lambda n: Fraction(-1, 3) ** n / math.factorial(n),
        "float": lambda n: 0.5 ** n / math.factorial(n),
    }),
    "ifft_fn": (ifft_fn, _ref_ifft_fn, {
        "int": lambda n: (-2) ** n + n,
        "fraction": lambda n: Fraction(3, 4) ** n,
        "float": lambda n: math.cos(0.5 * n),
    }),
    "irft_fn": (irft_fn, _ref_irft_fn, {
        "int": lambda t: (1 + t) ** 2,
        "fraction": lambda t: Fraction(3, 4) ** t,
        "float": lambda t: 0.5 ** t,
    }),
}
_ARGUMENTS = (0.3, 1 / 3, 0.5, 2.7, -1.5, Fraction(5, 12), Fraction(-7, 24))


@pytest.mark.parametrize("x", _ARGUMENTS)
@pytest.mark.parametrize("kind", ["int", "fraction", "float"])
@pytest.mark.parametrize("op", sorted(_ROUTES))
def test_series_terms_match_fraction_route(op, kind, x):
    """Each term is the correctly rounded float of the same rational the
    Fraction route rounds, so value and estimate agree to the bit."""
    fn, ref, providers = _ROUTES[op]
    f = providers[kind]
    got = _outcome(lambda: fn(f, x))
    assert got == _outcome(lambda: ref(f, x))
    assert got[0] != "NonConvergenceError"


# e^{t/2} for Fraction and float coefficients. An int jet is a polynomial,
# whose series here decays too slowly for the default config: both routes
# must then raise the same error.
_FRACTIONAL_PROVIDERS = {
    "int": lambda n: (3, -2)[n] if n < 2 else 0,
    "fraction": lambda n: Fraction(1, 2) ** n / math.factorial(n),
    "float": lambda n: 0.5 ** n / math.factorial(n),
}


def _ref_newton_sum(coeffs, s, cfg, what, noise=None):
    """The Fraction route over the (numerator, denominator) pairs the
    fractional operators prepare, each read when its term is: the terms are
    formed in order, n = 0, 1, 2, ..."""
    pairs = iter(coeffs)
    return _ref_fft_fn(lambda n: Fraction(*next(pairs)), s, cfg, what, noise)


@pytest.mark.parametrize("order", _ARGUMENTS)
@pytest.mark.parametrize("kind", sorted(_FRACTIONAL_PROVIDERS))
def test_fractional_derivative_matches_fraction_route(monkeypatch, kind, order):
    coeff = _FRACTIONAL_PROVIDERS[kind]
    got = _outcome(lambda: fractional_derivative(coeff, order))
    monkeypatch.setattr(transforms_numeric, "_newton_sum", _ref_newton_sum)
    assert got == _outcome(lambda: fractional_derivative(coeff, order))
    # the int jet's terms fall like n^(-order): its series diverges up to
    # order 1 and converges to 0 past it
    assert (got[0] == "NonConvergenceError") == (kind == "int" and order <= 1)
    if kind == "int" and order > 1:
        r = fractional_derivative(coeff, order)
        assert abs(r) <= r.error_estimate


def _ref_prepared_outcome(value_at, m, what, pairs_of, rounding_of, rate, s, cfg, lazy):
    """The reference route's outcome on eagerly prepared pairs: the inputs
    value_at(0..m-1) read as Fractions, then pairs_of(inputs) summed by
    _ref_newton_sum with the input noise of rounding_of(inputs). An input
    that overflows is named as the fractional operators name it: at once,
    or with lazy set, only when the sum reaches its pair, the inputs before
    it prepared in full."""
    inputs = []
    fault = None
    for n in range(m):
        try:
            inputs.append(Fraction(value_at(n)))
        except OverflowError:
            fault = f"{what}: input {n} overflows a float"
            if not lazy:
                return "NonConvergenceError", fault
            break
    noise = transforms_numeric._input_noise(rounding_of(inputs), rate, s, what)

    def pairs():
        yield from pairs_of(inputs)
        if fault:
            raise NonConvergenceError(fault)

    return _outcome(lambda: _ref_newton_sum(pairs(), s, cfg, what, noise))


def _rounding_of(values):
    """Each input known to 2^-53 of its magnitude, as the fractional
    operators take it."""
    return [2.0 ** -53 * abs(float(v)) for v in values]


def _ref_damped_pairs(egf, den, rate, count):
    """(h_k, k! den) for h_k = sum_n binom(k,n) (-rate)^(k-n) egf[n], the
    direct sum of the EGF product with e^{-rate x}, for k < count."""
    return [(sum(math.comb(k, n) * (-rate) ** (k - n) * egf[n] for n in range(k + 1)),
             math.factorial(k) * den) for k in range(count)]


def _ref_derivative_pairs(jet, t, count):
    """The whole jet shifted to t by the public shift, then damped."""
    shifted = shift(monomial(jet), t)
    nums = list(shifted.nums[:count]) + [0] * (count - len(shifted.nums))
    egf = [math.factorial(k) * c for k, c in enumerate(nums)]
    return _ref_damped_pairs(egf, shifted.den, 1, count)


def _ref_difference_pairs(samples, count):
    """The samples over their lcm denominator, damped twice."""
    den = math.lcm(*(v.denominator for v in samples))
    return _ref_damped_pairs([v.numerator * (den // v.denominator) for v in samples],
                             den, 2, count)


# t -> f for the difference; its samples f(t + n) are exact (3/2)^n, or
# floats near 1.5^(t+n)
_DIFFERENCE_FUNCTIONS = {
    "fraction": lambda t: lambda u: Fraction(3, 2) ** round(u - t),
    "float": lambda t: lambda u: 1.5 ** float(u),
}


@pytest.mark.parametrize("N", [1, 2, 64, 256])
@pytest.mark.parametrize("t", [0, 0.0, Fraction(0), 1 / 3, Fraction(1, 3), Fraction(-2, 5)],
                         ids=repr)
def test_fractional_operators_match_eager_preparation(N, t):
    """Both fractional operators prepare only the Taylor coefficients their
    Newton sum reads, and at t = 0 read only those inputs. At every t and N,
    value and estimate, or the error text, equal the reference route's on
    pairs prepared in full beforehand: for the derivative the whole jet
    shifted by the public shift, for the difference its samples, each
    multiplied by e^{-rate x} through the direct binomial sum."""
    cfg = NumericConfig(truncation_N=N)
    count = N + 1
    for kind, provider in sorted(_FRACTIONAL_PROVIDERS.items()):
        got = _outcome(lambda: fractional_derivative(provider, 0.5, t, cfg))
        want = _ref_prepared_outcome(provider, count + 32, "fractional_derivative",
                                     lambda jet: _ref_derivative_pairs(jet, t,
                                                                       min(count, len(jet))),
                                     lambda jet: transforms_numeric._egf_rounding(
                                         _rounding_of(jet), abs(float(t))), 1, 0.5, cfg,
                                     lazy=not t)
        assert got == want, kind
        if kind == "fraction" and N == 64:
            assert got[0] != "NonConvergenceError"
    for kind, function_at in sorted(_DIFFERENCE_FUNCTIONS.items()):
        f = function_at(t)
        got = _outcome(lambda: fractional_difference(f, 0.5, t, cfg))
        want = _ref_prepared_outcome(lambda n: f(t + n), count, "fractional_difference",
                                     lambda samples: _ref_difference_pairs(samples,
                                                                           len(samples)),
                                     _rounding_of, 2, 0.5, cfg, lazy=True)
        assert got == want, kind
        if N == 64:
            assert got[0] != "NonConvergenceError"


def _reads(monkeypatch, operator, provider, *args):
    """(inputs read, terms summed) by one call of a fractional operator:
    the provider's calls, and the terms the Newton sum drew from
    _ratio_terms."""
    calls, terms = [], []
    ratio_terms = transforms_numeric._ratio_terms

    def counted(*data):
        for term in ratio_terms(*data):
            terms.append(term)
            yield term

    monkeypatch.setattr(transforms_numeric, "_ratio_terms", counted)
    operator(lambda n: calls.append(n) or provider(n), *args)
    return len(calls), len(terms)


def test_fractional_operators_read_only_the_inputs_their_sum_uses(monkeypatch):
    """At t = 0 and N = 512 each operator reads at most one input past the
    last term its Newton sum reads, where eager preparation read all 545
    Taylor coefficients, or all 513 samples, before the first term."""
    cfg = NumericConfig(truncation_N=512)
    coeff = NamedSource("exp(1/2)").taylor()
    read, summed = _reads(monkeypatch, fractional_derivative, coeff, 0.5, 0, cfg)
    assert read <= summed + 1 and summed < 64
    read, summed = _reads(monkeypatch, fractional_difference, lambda u: math.exp(u / 3),
                          0.5, 0, cfg)
    assert read <= summed + 1 and summed < 64


def test_fault_past_the_last_input_read_is_not_raised():
    """A NaN at input 100 that the Newton sum never reaches, at N = 512 and
    t = 0, leaves the result as it is on a clean provider, as fft_fn and
    ifft_fn leave theirs; a NaN within the inputs read is still named."""
    cfg = NumericConfig(truncation_N=512)
    coeff = NamedSource("exp(1/2)").taylor()
    f = lambda u: math.exp(u / 3)
    for operator, clean in ((fractional_derivative, coeff), (fractional_difference, f)):
        want = _outcome(lambda: operator(clean, 0.5, 0, cfg))
        assert want[0] != "NonConvergenceError"
        named = ("NonConvergenceError",
                 f"{operator.__name__}: input 5 is nan, not a finite number")
        for at, expected in ((100, want), (5, named)):
            faulty = lambda n: math.nan if n == at else clean(n)
            assert _outcome(lambda: operator(faulty, 0.5, 0, cfg)) == expected


def test_known_overflow_cases_raise_nonconvergence():
    """A Newton sum whose terms would leave the float range at term 199 is
    summed by Levin's u first, to its Borel sum; an EGF series whose partial
    sums leave the float range before the damping brings them back raises
    the documented error naming the term instead of a raw OverflowError."""
    half = Fraction(1, 2)
    r = fft_fn(lambda n: half ** n, 0.3, NumericConfig(truncation_N=256))
    want = _borel_geometric(0.5, 0.3)
    assert abs(r - want) <= r.error_estimate + 4 * math.ulp(want)
    with pytest.raises(NonConvergenceError, match="term 458"):
        ifft_fn(lambda n: 1, 800.0, NumericConfig(truncation_N=512))


def test_infinite_taylor_coefficient_raises_nonconvergence():
    coeff = lambda n: math.inf if n == 3 else 1.0 / math.factorial(n)
    with pytest.raises(NonConvergenceError, match="input 3 is inf, not a finite number"):
        fft_fn(coeff, 0.5)


def _nan_at(k, value):
    return lambda n: math.nan if n == k else value(n)


@pytest.mark.parametrize("evaluate", [
    lambda: fft_fn(_nan_at(3, lambda n: 1.0 / math.factorial(n)), 0.5),
    lambda: ifft_fn(_nan_at(3, lambda n: 1.0), 0.5),
    lambda: irft_fn(_nan_at(-3, lambda n: 1.0), 0.5),
])
def test_nan_term_raises_nonconvergence(evaluate):
    """A NaN coefficient or sample is named like an infinite one, not leaked
    as the ValueError of float.as_integer_ratio."""
    with pytest.raises(NonConvergenceError, match="input 3 is nan, not a finite number"):
        evaluate()


# evaluator -> its call on a provider of Taylor coefficients, samples or
# point values; irft_fn reads its provider at -n
_PROVIDER_READERS = {
    "fft_fn": lambda f: fft_fn(f, 0.5),
    "ifft_fn": lambda f: ifft_fn(f, 0.5),
    "irft_fn": lambda f: irft_fn(f, 0.5),
    "fractional_derivative": lambda f: fractional_derivative(f, 0.5),
    "fractional_difference": lambda f: fractional_difference(f, 0.5),
}


def _overflow():
    raise OverflowError("math range error")


@pytest.mark.parametrize("fault,text", [
    (lambda: math.nan, "is nan, not a finite number"),
    (lambda: math.inf, "is inf, not a finite number"),
    (_overflow, "overflows a float"),
], ids=["nan", "inf", "OverflowError"])
@pytest.mark.parametrize("name", sorted(_PROVIDER_READERS))
def test_provider_fault_names_evaluator_and_input(name, fault, text):
    """Every evaluator reads its provider through one reader: a NaN, an
    infinity or a call that overflows at input 3 raises NonConvergenceError
    naming the evaluator and the input."""
    provider = lambda x: fault() if abs(x) == 3 else 1.0
    with pytest.raises(NonConvergenceError, match=rf"^{name}\b[^:]*: input 3 {text}$"):
        _PROVIDER_READERS[name](provider)


def test_provider_value_error_propagates():
    def provider(n):
        raise ValueError("provider refuses")

    for evaluate in (lambda: fft_fn(provider, 0.5),
                     lambda: ifft_fn(provider, 0.5),
                     lambda: irft_fn(provider, 0.5)):
        with pytest.raises(ValueError, match="provider refuses"):
            evaluate()


@pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan])
def test_series_reject_non_finite_arguments(x):
    with pytest.raises(ValueError, match="^fft_fn.*finite argument"):
        fft_fn(exp_taylor(0.5), x)
    with pytest.raises(ValueError, match="^ifft_fn.*finite argument"):
        ifft_fn(math.factorial, x)
    with pytest.raises(ValueError, match="^rft_fn.*finite argument"):
        rft_fn(math.exp, x)
    with pytest.raises(ValueError, match="^fractional_difference.*finite argument"):
        fractional_difference(math.exp, 0.5, t=x)
    # a non-finite order is the Newton sum's argument, named by the operator
    with pytest.raises(ValueError, match="^fractional_derivative needs a finite argument"):
        fractional_derivative(exp_taylor(0.5), x)
    with pytest.raises(ValueError, match="^fractional_difference needs a finite argument"):
        fractional_difference(math.exp, x)


@pytest.mark.parametrize("field,value", [("truncation_N", 2.5), ("truncation_N", 0),
                                         ("tolerance", math.inf), ("tolerance", math.nan),
                                         ("tolerance", 0.0)])
def test_numeric_config_rejects_invalid_fields(field, value):
    """truncation_N is an int >= 1 and tolerance finite and positive; an
    infinite tolerance would stop every series after three terms."""
    with pytest.raises(ValueError, match=f"^{field} must be"):
        NumericConfig(**{field: value})
    with pytest.raises(ValueError, match=f"^{field} must be"):
        NumericConfig()._replace(**{field: value})


def test_egf_damping_out_of_range_raises_nonconvergence():
    """The series of 0^n sums to 1, but e^1000 times it is no float."""
    with pytest.raises(NonConvergenceError, match="float range"):
        ifft_fn(lambda n: 0 ** n, -1000.0)


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
       scheme=st.sampled_from(["gauss_laguerre", "tanh_sinh"]))
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
            r = fft_fn(src.taylor(), at, cfg)
        elif op == "ifft":
            r = ifft_fn(src.samples(), at, cfg)
        elif op == "irft":
            r = irft_fn(src.callable(), at, cfg)
        elif op == "rft":
            r = rft_fn(src.callable(), at, scheme)
        elif op == "derivative":
            r = fractional_derivative(src.taylor(), order, at, cfg)
        else:
            r = fractional_difference(src.callable(), order, at, cfg)
    except (NonConvergenceError, QuadratureError, ValueError):
        return
    assert isinstance(r, NumericResult)
    assert math.isfinite(r) and math.isfinite(r.error_estimate)
