"""Acceptance gate: the fourteen primary criteria, one test and one printed
pass/fail line per criterion.

Every criterion re-derives its expected values here (closed forms, literal
sums, series division) instead of trusting the library's own internals, and
runs at the stated trial counts and tolerances. Run with `pytest -v` to see
one line per criterion; printed verdict lines appear with `-s` and in
failure output.
"""

import math
import time
from fractions import Fraction
from random import Random

from ftcalc import cli, verify_suite
from ftcalc.combinatorics import (
    bernoulli,
    falling_factorial,
    rising_factorial,
    stirling_first_signed,
    stirling_second,
)
from ftcalc.polynomial import (
    Basis,
    apply_operator,
    binom_shift,
    convert_basis,
    derivative,
    exp_shift,
    expdiff_minus1,
    falling_unit,
    forward_difference,
    log1p_derivative,
    monomial,
    multiply,
    negate_argument,
    poly,
    scale_argument,
    scale_op,
    shift,
)
from ftcalc.special_polynomials import (
    charlier_orthogonality_sum,
    laguerre,
    touchard,
    z_poly,
)
from ftcalc.transforms_exact import (
    binomial_convolution,
    binomial_transform,
    fft_poly,
    hadamard_ifft,
    ifft_poly,
    inverse_binomial_transform,
    irft_poly,
    rft_poly,
)
from ftcalc.transforms_numeric import (
    NumericConfig,
    callable_source,
    fft_fn,
    fractional_derivative,
    fractional_difference,
    ifft_fn,
    incomplete_gamma_upper,
    irft_fn,
    rft_fn,
    samples_source,
    taylor_source,
)

BASES = (Basis.MONOMIAL, Basis.FALLING, Basis.RISING)
SERIES_CFG = NumericConfig(truncation_N=512, tolerance=1e-12)


def report(num, label, ok):
    print(f"criterion {num:02d} {label}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num:02d} ({label}) failed"


def rand_frac(rng):
    return Fraction(rng.randint(-9, 9), rng.randint(1, 9))


def rand_poly(rng, max_degree, basis=None):
    b = basis if basis is not None else rng.choice(BASES)
    deg = rng.randint(0, max_degree)
    return poly(b, [rand_frac(rng) for _ in range(deg + 1)])


def test_criterion_01_exact_round_trips():
    """ifft(fft) and irft(rft) are the identity on 300 seeded polynomials."""
    rng = Random("acceptance:1")
    ok = True
    for _ in range(300):
        p = rand_poly(rng, 20)
        ok = ok and convert_basis(ifft_poly(fft_poly(p)), p.basis) == p
        ok = ok and convert_basis(irft_poly(rft_poly(p)), p.basis) == p
    report(1, "exact round trips", ok)


def test_criterion_02_reflection():
    """RFT(f)(x) = FFT(f reflected)(-x) at random rational points."""
    rng = Random("acceptance:2")
    ok = True
    for _ in range(100):
        p = rand_poly(rng, 12)
        r = rft_poly(p)
        f = fft_poly(negate_argument(p))
        for _ in range(10):
            x = rand_frac(rng)
            ok = ok and r.eval(x) == f.eval(-x)
    report(2, "reflection identity", ok)


def test_criterion_03_commutation_suite():
    """The four operator commutations hold exactly for k <= 3."""
    rng = Random("acceptance:3")
    ok = True
    for _ in range(100):
        p = rand_poly(rng, 10)
        k = rng.randint(1, 3)
        ok = ok and fft_poly(apply_operator(derivative(k), p)) == \
            apply_operator(forward_difference(k), fft_poly(p))
        ok = ok and ifft_poly(apply_operator(forward_difference(k), p)) == \
            apply_operator(derivative(k), ifft_poly(p))
        ok = ok and ifft_poly(apply_operator(derivative(k), p)) == \
            apply_operator(log1p_derivative(k), ifft_poly(p))
        ok = ok and fft_poly(apply_operator(forward_difference(k), p)) == \
            apply_operator(expdiff_minus1(k), fft_poly(p))
    report(3, "operator commutations", ok)


def test_criterion_04_series_reconstruction():
    """Touchard and dual expansions recover polynomials at four centers."""
    rng = Random("acceptance:4")
    centers = [Fraction(0), Fraction(1), Fraction(-2), Fraction(1, 2)]
    ok = True
    for _ in range(25):
        p = convert_basis(rand_poly(rng, 10), Basis.MONOMIAL)
        deg = max(p.degree, 0)
        for x0 in centers:
            sum_t = monomial([0])
            sum_z = monomial([0])
            for k in range(deg + 1):
                ck = apply_operator(log1p_derivative(k), p).eval(x0) / math.factorial(k)
                dk = apply_operator(expdiff_minus1(k), p).eval(x0) / math.factorial(k)
                sum_t = sum_t + shift(touchard(k), -x0).scale(ck)
                sum_z = sum_z + convert_basis(shift(z_poly(k), -x0), Basis.MONOMIAL).scale(dk)
            ok = ok and sum_t == p and sum_z == p
    report(4, "series reconstructions", ok)


def test_criterion_05_charlier_orthogonality():
    """Poisson-weighted Charlier sums: e * n! on the diagonal, 0 off it."""
    worst = 0.0
    for n in range(6):
        for m in range(6):
            got = charlier_orthogonality_sum(n, m, 1.0, 60)
            want = math.e * math.factorial(n) if n == m else 0.0
            worst = max(worst, abs(got - want))
    report(5, "charlier orthogonality", worst <= 1e-8)


def test_criterion_06_egf_convolution():
    """Cauchy-product EGF coefficients equal conv at k <= 30; conv(1,.) = BT."""
    rng = Random("acceptance:6")
    K = 30
    ok = True
    for _ in range(10):
        F = convert_basis(rand_poly(rng, 5), Basis.MONOMIAL)
        G = convert_basis(rand_poly(rng, 5), Basis.MONOMIAL)
        # independent route: multiply the truncated EGFs as power series
        A = monomial([F.eval(Fraction(n)) / math.factorial(n) for n in range(K + 1)])
        B = monomial([G.eval(Fraction(n)) / math.factorial(n) for n in range(K + 1)])
        C = multiply(A, B)
        for k in range(K + 1):
            want = C.coeff(k) * math.factorial(k)
            ok = ok and binomial_convolution(F, G, k) == want
        one = lambda n: Fraction(1)
        for k in range(K + 1):
            ok = ok and binomial_convolution(one, G, k) == binomial_transform(G, k)
    report(6, "egf product vs convolution", ok)


def test_criterion_07_scaling_and_shifting():
    """Dilation and shift conjugate to their operator forms for the stated a."""
    rng = Random("acceptance:7")
    params = [Fraction(2), Fraction(-1), Fraction(1, 2), Fraction(3, 4)]
    ok = True
    for a in params:
        for _ in range(25):
            p = rand_poly(rng, 8)
            ok = ok and fft_poly(scale_argument(p, a)) == \
                apply_operator(scale_op(a), fft_poly(p))
            ok = ok and fft_poly(shift(p, a)) == \
                apply_operator(exp_shift(a), fft_poly(p))
            ok = ok and ifft_poly(shift(p, a)) == \
                apply_operator(binom_shift(a), ifft_poly(p))
            # outer-shift series: expanding in the parameter reproduces a shift
            x0 = rand_frac(rng)
            F = fft_poly(p)
            acc = Fraction(0)
            cur = F
            for n in range(F.degree + 2):
                acc += falling_factorial(a, n) * cur.eval(x0) / math.factorial(n)
                cur = apply_operator(forward_difference(1), cur)
            ok = ok and acc == F.eval(x0 + a)
            G = ifft_poly(p)
            acc = Fraction(0)
            cur = G
            for n in range(G.degree + 2):
                acc += a ** n * cur.eval(x0) / math.factorial(n)
                cur = apply_operator(derivative(1), cur)
            ok = ok and acc == G.eval(x0 + a)
    report(7, "scaling and shifting operators", ok)


def test_criterion_08_hadamard_and_chain():
    """hadamard_ifft equals multiply-then-ifft; integer chain via BT inverse."""
    rng = Random("acceptance:8")
    ok = True
    for _ in range(100):
        f = rand_poly(rng, 8, Basis.FALLING)
        g = rand_poly(rng, 8, Basis.FALLING)
        ok = ok and hadamard_ifft(f, g) == ifft_poly(multiply(f, g))
    for _ in range(10):
        F = rand_poly(rng, 5, Basis.MONOMIAL)
        G = rand_poly(rng, 5, Basis.MONOMIAL)
        lhs = fft_poly(multiply(F, G))
        fF, fG = fft_poly(F), fft_poly(G)
        conv = lambda n: binomial_convolution(
            lambda i: fF.eval(Fraction(i)), lambda j: fG.eval(Fraction(j)), n)
        for k in range(13):
            ok = ok and lhs.eval(Fraction(k)) == inverse_binomial_transform(conv, k)
    report(8, "hadamard product and integer chain", ok)


def test_criterion_09_table3_rows():
    """The full transform-pair table: numeric rows at stated grids, exact rows
    with zero error for n, m <= 8."""
    ok = True
    # factorial samples vs damped geometric closed form
    for x in [k / 10 for k in range(1, 10)]:
        got = ifft_fn(samples_source(math.factorial), x, SERIES_CFG)
        ok = ok and abs(got - math.exp(-x) / (1.0 - x)) <= 1e-9
    # exponential sources vs powers
    for a in (Fraction(2), Fraction(3, 2)):
        src = taylor_source(lambda n, a=a: (a - 1) ** n / math.factorial(n))
        for s in (0.5, 1.0, 2.3):
            ok = ok and abs(fft_fn(src, s, SERIES_CFG) - float(a) ** s) <= 1e-9
    # sine and cosine sources vs polar closed forms
    for w in (0.5, 1.0):
        wf = Fraction(w)
        sin_src = taylor_source(
            lambda n, wf=wf: Fraction(0) if n % 2 == 0
            else (-1) ** ((n - 1) // 2) * wf ** n / math.factorial(n))
        cos_src = taylor_source(
            lambda n, wf=wf: Fraction(0) if n % 2
            else (-1) ** (n // 2) * wf ** n / math.factorial(n))
        for s in (0.5, 1.0, 2.3):
            mod = (w * w + 1.0) ** (s / 2)
            arg = s * math.atan(w)
            ok = ok and abs(fft_fn(sin_src, s, SERIES_CFG) - mod * math.sin(arg)) <= 1e-6
            ok = ok and abs(fft_fn(cos_src, s, SERIES_CFG) - mod * math.cos(arg)) <= 1e-6
    # damped power row at integer arguments: a scaled Kronecker delta
    for n in range(9):
        coeffs = [Fraction(0)] * n + [Fraction((-1) ** j, math.factorial(j))
                                      for j in range(18)]
        for m in range(9):
            total = sum((math.comb(m, k) * math.factorial(k) * coeffs[k]
                         for k in range(m + 1)), start=Fraction(0))
            want = Fraction(math.factorial(n)) if m == n else Fraction(0)
            ok = ok and total == want
    # exact rows
    for n in range(9):
        xn = monomial([Fraction(0)] * n + [Fraction(1)])
        ok = ok and fft_poly(xn) == falling_unit(n)
        ok = ok and fft_poly(falling_unit(n)) == z_poly(n)
        ok = ok and z_poly(n) == poly(
            Basis.FALLING, [stirling_first_signed(n, k) for k in range(n + 1)])
        ok = ok and fft_poly(touchard(n)) == convert_basis(xn, Basis.FALLING)
        ok = ok and ifft_poly(xn) == touchard(n)
        zsum = poly(Basis.FALLING, [0])
        tsum = monomial([0])
        for k in range(n + 1):
            zsum = zsum + z_poly(k).scale(stirling_first_signed(n, k))
            tsum = tsum + touchard(k).scale(stirling_second(n, k))
        ok = ok and fft_poly(z_poly(n)) == zsum
        ok = ok and fft_poly(tsum) == convert_basis(touchard(n), Basis.FALLING)
    for n in range(9):
        for m in range(9):
            xnm = monomial([Fraction(0)] * (n + m) + [Fraction(1)])
            lhs = fft_poly(multiply(xnm, negate_argument(laguerre(n, Fraction(m)))))
            rhs = multiply(falling_unit(n + m), falling_unit(n)).scale(
                Fraction(1, math.factorial(n)))
            ok = ok and lhs == rhs
    report(9, "transform-pair table rows", ok)


def test_criterion_10_quadrature_fidelity():
    """80-node quadrature of monomials matches rising factorials to 1e-7."""
    worst = 0.0
    for n in range(9):
        for s in (0.5, 1.5, 2.5, 3.7):
            got = rft_fn(lambda t, n=n: t ** n, s)
            worst = max(worst, abs(got - rising_factorial(s, n)))
    report(10, "quadrature fidelity", worst <= 1e-7)


def test_criterion_11_fractional_calculus():
    """Half derivative of e^{2u}, the half-twice ladder, half difference of 2^u."""
    e2 = taylor_source(lambda n: Fraction(2) ** n / math.factorial(n))
    ok = abs(fractional_derivative(e2, 0.5) - math.sqrt(2.0)) <= 1e-8
    # ladder: re-expand the half-derivative and take another half order
    M = 18
    inner = NumericConfig(truncation_N=160, tolerance=1e-13)
    half = [float(fractional_derivative(e2, m + 0.5, cfg=inner)) / math.factorial(m)
            for m in range(M)]
    twice = fractional_derivative(
        taylor_source(lambda m: half[m] if m < M else 0.0), 0.5,
        cfg=NumericConfig(truncation_N=M, tolerance=1e-7))
    first = fractional_derivative(e2, 1.0)
    ok = ok and abs(twice - first) <= 1e-6
    ok = ok and abs(fractional_difference(lambda u: 2.0 ** u, 0.5) - 1.0) <= 1e-8
    report(11, "fractional calculus", ok)


def test_criterion_12_incomplete_gamma_and_summation():
    """Shifted-factorial series vs incomplete gamma; series-integral duality."""
    import mpmath as mp

    ok = True
    for n in (1, 2, 3):
        f = lambda k, n=n: Fraction(math.factorial(k), math.factorial(k + n))
        g = lambda s, n=n: rising_factorial(Fraction(s), -n)
        for x in (0.5, 1.0, 2.0):
            got = ifft_fn(samples_source(f), x, SERIES_CFG)
            want = x ** (-n) * (1.0 - incomplete_gamma_upper(n, x) / math.factorial(n - 1))
            ok = ok and abs(got - want) <= 1e-9
            got = irft_fn(callable_source(g), x, SERIES_CFG)
            want = x ** (-n) * (1.0 - incomplete_gamma_upper(n, -x) / math.factorial(n - 1))
            ok = ok and abs(got - want) <= 1e-9
    cfg = NumericConfig(truncation_N=256, tolerance=1e-12)
    for r, T in ((0.5, 56.0), (Fraction(1, 3), 42.0)):
        src = samples_source(lambda n, r=Fraction(r): r ** n)
        val = float(mp.quad(lambda t: float(ifft_fn(src, float(t), cfg)), [0, T]))
        ok = ok and abs(val - 1.0 / (1.0 - float(r))) <= 1e-8
    report(12, "incomplete gamma and summation", ok)


def test_criterion_13_bernoulli_structure():
    """Series division of e^x by e^x - 1 reproduces the Bernoulli pattern."""
    N = 12
    e = [Fraction(1, math.factorial(n)) for n in range(N + 2)]
    b = [Fraction(1, math.factorial(m + 1)) for m in range(N + 2)]
    c = []
    for n in range(N + 2):
        acc = e[n] - sum((c[j] * b[n - j] for j in range(n)), start=Fraction(0))
        c.append(acc / b[0])
    ok = c[0] == 1
    for n in range(N + 1):
        want = bernoulli(n + 1) * Fraction((-1) ** (n + 1), math.factorial(n + 1))
        ok = ok and c[n + 1] == want
    report(13, "bernoulli series structure", ok)


def test_criterion_14_verify_suite_meta(capsys):
    """Every mapped item has a check; the full suite passes within a minute."""
    registered = {s.name for s in verify_suite.list_checks()}
    ok = bool(verify_suite.COVERAGE)
    for item, checks in verify_suite.COVERAGE.items():
        ok = ok and bool(checks) and all(name in registered for name in checks)
    t0 = time.perf_counter()
    rc = cli.main(["verify"])
    elapsed = time.perf_counter() - t0
    capsys.readouterr()
    ok = ok and rc == 0 and elapsed <= 60.0
    with capsys.disabled():
        print(f"\n[suite ran in {elapsed:.1f}s, exit code {rc}]")
    report(14, "verification suite meta", ok)
