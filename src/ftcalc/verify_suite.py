"""Registry of named, independently runnable identity checks.

Each check validates one identity or table row of the transform calculus,
either exactly (rational arithmetic, zero tolerance) or numerically
(float evaluators against closed-form oracles). Checks are deterministic
given a seed and never raise on mathematical failure (they report fail).

A check is a table row registered with ``_register``: name, layer,
description, tolerance and config, plus a body that draws one trial's
inputs from ``rng`` and yields the ``(lhs, rhs)`` pairs that must agree.
The row's ``cases`` are its trials (``cfg["trials"]`` random draws, or a
grid of fixed arguments). ``run_check`` alone loops over them, keeps the
worst gap and gives the verdict. To add a check, register a body, or a
family builder such as ``_commutation``, where it should run. Its name says
what it covers (``eq48_53_...`` covers eq48 and eq53, ``table2_row1_...``
and ``table3_gamma_row`` their table rows), and ``COVERAGE`` is derived
from the names; the few items a name cannot say are linked at the end.

Informational checks record measured discrepancies for identities whose
stated form disagrees with independent derivation; they always pass and
carry a null tolerance. Their findings live in the report detail field.
They, eq69 and eq91 have custom bodies (``cases=None``) that return all
pairs, the trial count and the detail at once.

The bodies that call mpmath import it themselves, so a run that selects
none of them never loads it.
"""

from __future__ import annotations

import fnmatch
import functools
import math
import re
import time
from collections import namedtuple
from fractions import Fraction
from itertools import product
from random import Random
from typing import Optional, Sequence

from .combinatorics import (
    bernoulli,
    falling_factorial,
    rising_factorial,
    stirling_first_signed,
    stirling_second,
)
from .polynomial import (
    Basis,
    BasisPolynomial,
    antiderivative,
    apply_operator,
    binom_shift,
    convert_basis,
    derivative,
    exp_shift,
    expdiff_minus1,
    expdiff_minus1_inverse,
    falling_unit,
    forward_difference,
    indefinite_sum,
    log1p_derivative,
    log1p_derivative_inverse,
    monomial,
    multiply,
    negate_argument,
    poly,
    scale_argument,
    scale_op,
    shift,
)
from .special_polynomials import (
    charlier,
    charlier_orthogonality_sum,
    laguerre,
    touchard,
    z_poly,
)
from .transforms_exact import (
    binomial_convolution,
    binomial_transform,
    coefficient_extract,
    egf_product_coeffs,
    fft_poly,
    hadamard_ifft,
    ifft_poly,
    inverse_binomial_transform,
    irft_poly,
    rft_poly,
)
from .transforms_numeric import (
    _TANH_SINH_DPS,
    NamedSource,
    NumericConfig,
    fft_fn,
    fractional_derivative,
    fractional_difference,
    gamma_support,
    ifft_fn,
    incomplete_gamma_upper,
    irft_fn,
    rft_fn,
    zeta_formal_series,
)


# layer is "exact" or "numeric"
CheckSpec = namedtuple("CheckSpec", "name layer config description")


class CheckReport(namedtuple("CheckReport", "name status max_abs_error tolerance trials seed "
                             "elapsed_ms layer informational detail", defaults=(False, None))):
    """One check's verdict. status is "pass", "fail" or "error"; tolerance is
    0.0 for an exact check and None for an informational one."""

    __slots__ = ()

    def to_dict(self) -> dict:
        return self._asdict()


_REGISTRY: dict = {}  # name -> (spec, body, cases, note)
COVERAGE: dict = {}  # source item -> the checks that exercise it, in registration order


def _repeat(cfg):
    """Cases of a random-input row: cfg["trials"] independent draws."""
    return [()] * cfg["trials"]


def _each_nm(cfg):
    return product(range(cfg["max_n"] + 1), repeat=2)


def _each_nk(cfg):
    return product(range(cfg["max_n"] + 1), range(1, cfg["max_k"] + 1))


def _grid(*axes):
    """Cases over the product of fixed argument axes."""
    return lambda cfg: product(*axes)


def _covered(name: str) -> list:
    """The source items a check's name covers: eqA_B_... covers eqA and eqB,
    table2_rowN_... covers table2_rowN, and table3_<item>_row table3_<item>."""
    m = re.fullmatch(r"eq(\d+)(?:_(\d+))?_.+", name)
    if m:
        return [f"eq{n}" for n in m.groups() if n]
    m = re.fullmatch(r"(table2_row\d+)_.+|(table3_.+)_row", name)
    return [m[1] or m[2]] if m else []


def _register(name: str, layer: str, description: str, tolerance: Optional[float],
              cases=_repeat, note: Optional[str] = None, **config):
    """Register a row; a None tolerance marks it informational.

    The body takes (rng, cfg, *case) and yields the pairs of one trial; with
    cases=None it takes (rng, cfg) and returns (pairs, trials, detail) for
    the whole check. note is the report detail of a row with cases.
    """
    def deco(body):
        if name in _REGISTRY:
            raise ValueError(f"duplicate check name {name!r}")
        items = _covered(name)
        if not items:
            raise ValueError(f"check name {name!r} covers no source item")
        spec = CheckSpec(name=name, layer=layer, config={**config, "tolerance": tolerance},
                         description=description)
        _REGISTRY[name] = (spec, body, cases, note)
        for item in items:
            COVERAGE.setdefault(item, []).append(name)
        return body
    return deco


def _rand_frac(rng: Random) -> Fraction:
    return Fraction(rng.randint(-9, 9), rng.randint(1, 9))


def _rand_poly(rng: Random, max_degree: int, basis: Basis = Basis.MONOMIAL) -> BasisPolynomial:
    deg = rng.randint(0, max_degree)
    return poly(basis, [_rand_frac(rng) for _ in range(deg + 1)])


def _power(n: int) -> BasisPolynomial:
    """x^n in the monomial basis."""
    return monomial([Fraction(0)] * n + [Fraction(1)])


def _poly_gap(p: BasisPolynomial, q: BasisPolynomial) -> Fraction:
    """Largest absolute monomial-coefficient difference (exact).

    Canonical forms are equal exactly when the polynomials are, so an equal
    pair costs one tuple compare (and a conversion if the bases differ);
    only a mismatch pays for the monomial difference.
    """
    if convert_basis(p, q.basis) == q:
        return Fraction(0)
    d = convert_basis(p, Basis.MONOMIAL) - convert_basis(q, Basis.MONOMIAL)
    return max(abs(c) for c in d.coeffs)


# ---------------------------------------------------------------- exact layer

def _definition(transform, factorial):
    """transform(p)(x0) equals sum_n p_n factorial(x0, n)."""
    def body(rng, cfg):
        p = _rand_poly(rng, cfg["degree"])
        x0 = _rand_frac(rng)
        direct = sum(
            (p.coeff(n) * factorial(x0, n) for n in range(p.degree + 1)),
            start=Fraction(0),
        )
        yield transform(p).eval(x0), direct
    return body


def _roundtrip(fwd, inv):
    """inv undoes fwd and fwd undoes inv, in every basis."""
    def body(rng, cfg):
        p = _rand_poly(rng, cfg["degree"], rng.choice(list(Basis)))
        yield inv(fwd(p)), p
        yield fwd(inv(p)), p
    return body


def _reflection(outer, inner):
    """outer(p) at x equals inner of the reflected argument at -x."""
    def body(rng, cfg):
        p = _rand_poly(rng, cfg["degree"])
        lhs = outer(p)
        rhs = inner(negate_argument(p))
        for _ in range(cfg["points"]):
            x0 = _rand_frac(rng)
            yield lhs.eval(x0), rhs.eval(-x0)
    return body


_register("eq1_fft_definition", "exact",
          "falling transform carries each monomial coefficient onto the matching "
          "falling-factorial term", 0.0, trials=100, degree=20)(
    _definition(fft_poly, falling_factorial))
_register("eq2_ifft_roundtrip", "exact",
          "inverse falling transform undoes the falling transform and vice versa",
          0.0, trials=100, degree=20)(_roundtrip(fft_poly, ifft_poly))
_register("eq3_rft_definition", "exact",
          "rising transform carries each monomial coefficient onto the matching "
          "rising-factorial term", 0.0, trials=100, degree=20)(
    _definition(rft_poly, rising_factorial))
_register("eq4_irft_roundtrip", "exact",
          "inverse rising transform undoes the rising transform and vice versa",
          0.0, trials=100, degree=20)(_roundtrip(rft_poly, irft_poly))
_register("eq10_reflection", "exact",
          "rising transform at x equals the falling transform of the reflected "
          "argument evaluated at -x", 0.0, trials=100, degree=12, points=10)(
    _reflection(rft_poly, fft_poly))
_register("eq11_dual_reflection", "exact",
          "falling transform at x equals the rising transform of the reflected "
          "argument evaluated at -x", 0.0, trials=100, degree=12, points=10)(
    _reflection(fft_poly, rft_poly))


@_register("eq12_13_linearity", "exact",
           "both transforms are linear over rational scalars", 0.0,
           trials=100, degree=12)
def _chk_eq12(rng, cfg):
    p, q = _rand_poly(rng, cfg["degree"]), _rand_poly(rng, cfg["degree"])
    a, b = _rand_frac(rng), _rand_frac(rng)
    combo = p.scale(a) + q.scale(b)
    for transform in (fft_poly, rft_poly):
        yield transform(combo), transform(p).scale(a) + transform(q).scale(b)


@_register("eq14_15_monomial_action", "exact",
           "derivatives of monomials and differences of falling factorials share "
           "the same diagonal coefficient action", 0.0, cases=_each_nk, max_n=10, max_k=3)
def _chk_eq14(rng, cfg, n, k):
    xs = _power(n)
    fu = falling_unit(n)
    lhs = fft_poly(apply_operator(derivative(k), xs))
    yield lhs, apply_operator(forward_difference(k), fu)
    yield lhs, (falling_unit(n - k).scale(falling_factorial(Fraction(n), k)) if n >= k
                else poly(Basis.FALLING, [0]))
    yield (ifft_poly(apply_operator(forward_difference(k), fu)),
           apply_operator(derivative(k), xs))


def _commutation(transform, op_in, op_out):
    """transform(op_in^k p) equals op_out^k applied to transform(p)."""
    def body(rng, cfg):
        p = _rand_poly(rng, cfg["degree"])
        k = rng.randint(1, cfg["max_k"])
        yield (transform(apply_operator(op_in(k), p)),
               apply_operator(op_out(k), transform(p)))
    return body


_register("eq16_fft_derivative_commutation", "exact",
          "falling transform swaps k-fold derivatives for k-fold forward differences",
          0.0, trials=100, degree=10, max_k=3)(
    _commutation(fft_poly, derivative, forward_difference))
_register("eq17_ifft_difference_commutation", "exact",
          "inverse falling transform swaps k-fold forward differences for derivatives",
          0.0, trials=100, degree=10, max_k=3)(
    _commutation(ifft_poly, forward_difference, derivative))
_register("eq18_ifft_derivative_log_operator", "exact",
          "inverse falling transform turns derivatives into powers of log(1+D)",
          0.0, trials=100, degree=10, max_k=3)(
    _commutation(ifft_poly, derivative, log1p_derivative))
_register("eq19_fft_difference_exp_operator", "exact",
          "falling transform turns forward differences into powers of exp(D)-1",
          0.0, trials=100, degree=10, max_k=3)(
    _commutation(fft_poly, forward_difference, expdiff_minus1))


@_register("eq20_21_indefinite_kernel", "exact",
           "with zero-at-origin normalization the transforms swap antiderivatives "
           "and indefinite sums exactly", 0.0, trials=100, degree=10, max_k=2)
def _chk_eq20(rng, cfg):
    p = _rand_poly(rng, cfg["degree"])
    k = rng.randint(1, cfg["max_k"])
    for transform, inner, outer in ((fft_poly, antiderivative, indefinite_sum),
                                    (ifft_poly, indefinite_sum, antiderivative)):
        u, v = p, transform(p)
        for _ in range(k):
            u, v = inner(u), outer(v)
        yield transform(u), v


@_register("eq22_23_series_inverse_kernel", "exact",
           "series inverses of log(1+D) and exp(D)-1 agree with the transformed "
           "antiderivative and indefinite sum", 0.0, trials=100, degree=10)
def _chk_eq22(rng, cfg):
    p = _rand_poly(rng, cfg["degree"])
    r = log1p_derivative_inverse(ifft_poly(p))
    yield ifft_poly(antiderivative(p)), r
    yield apply_operator(log1p_derivative(1), r), ifft_poly(p)
    v = expdiff_minus1_inverse(fft_poly(p))
    yield fft_poly(indefinite_sum(p)), v
    yield apply_operator(expdiff_minus1(1), v), fft_poly(p)


def _expansion(transform, basis, op):
    """The basis coefficients of transform(p) are op^k p at the origin over k!."""
    def body(rng, cfg):
        p = _rand_poly(rng, cfg["degree"])
        F = convert_basis(transform(p), basis)
        for k in range(F.degree + 1):
            yield F.coeff(k), apply_operator(op(k), p).eval(Fraction(0)) / math.factorial(k)
    return body


_register("eq25_operator_expansion", "exact",
          "monomial coefficients of the falling transform are log(1+D) powers "
          "at the origin over k factorial", 0.0, trials=100, degree=10)(
    _expansion(fft_poly, Basis.MONOMIAL, log1p_derivative))
_register("eq26_dual_operator_expansion", "exact",
          "falling coefficients of the inverse transform are exp(D)-1 powers "
          "at the origin over k factorial", 0.0, trials=100, degree=10)(
    _expansion(ifft_poly, Basis.FALLING, expdiff_minus1))


@_register("eq27_28_ladder", "exact",
           "log(1+D) lowers Touchard polynomials and exp(D)-1 lowers the dual "
           "family with falling-factorial weights", 0.0, cases=_each_nk, max_n=8, max_k=3)
def _chk_eq27(rng, cfg, n, k):
    w = falling_factorial(Fraction(n), k)
    yield (apply_operator(log1p_derivative(k), touchard(n)),
           touchard(n - k).scale(w) if n >= k else monomial([0]))
    yield (apply_operator(expdiff_minus1(k), z_poly(n)),
           z_poly(n - k).scale(w) if n >= k else poly(Basis.FALLING, [0]))


def _ladders(p: BasisPolynomial) -> list[tuple[BasisPolynomial, BasisPolynomial]]:
    """The k-th powers of log(1+D) and exp(D)-1 applied to p, k = 0..deg p,
    one step at a time."""
    lp = ep = p
    out = []
    for _ in range(max(p.degree, 0) + 1):
        out.append((lp, ep))
        lp = apply_operator(log1p_derivative(1), lp)
        ep = apply_operator(expdiff_minus1(1), ep)
    return out


def _reconstructions(ladders, x0: Fraction, move) -> tuple:
    """Touchard and dual expansions about x0 of the p whose _ladders are
    given; move re-centres each sum, once, since it is linear."""
    sumT = monomial([0])
    sumZ = poly(Basis.FALLING, [0])
    for k, (lp, ep) in enumerate(ladders):
        sumT = sumT + touchard(k).scale(lp.eval(x0) / math.factorial(k))
        sumZ = sumZ + z_poly(k).scale(ep.eval(x0) / math.factorial(k))
    return move(sumT), convert_basis(move(sumZ), Basis.MONOMIAL)


@_register("eq29_30_series_reconstruction", "exact",
           "polynomials are recovered from their Touchard and dual expansions "
           "about the origin", 0.0, trials=100, degree=10)
def _chk_eq29(rng, cfg):
    p = _rand_poly(rng, cfg["degree"])
    for rebuilt in _reconstructions(_ladders(p), Fraction(0), lambda q: q):
        yield rebuilt, p


@_register("eq31_32_shifted_reconstruction", "exact",
           "the Touchard and dual expansions also recover polynomials about "
           "shifted centers", 0.0, trials=40, degree=10)
def _chk_eq31(rng, cfg):
    p = _rand_poly(rng, cfg["degree"])
    ladders = _ladders(p)
    for x0 in (Fraction(0), Fraction(1), Fraction(-2), Fraction(1, 2)):
        for rebuilt in _reconstructions(ladders, x0, lambda q: shift(q, -x0)):
            yield rebuilt, p


_SHIFTS = (Fraction(2), Fraction(-1), Fraction(1, 2), Fraction(3, 4))


@_register("eq33_34_shifting", "exact",
           "argument shifts become exp(aDelta) after the falling transform and "
           "(1+D)^a after its inverse", 0.0, trials=100, degree=8)
def _chk_eq33(rng, cfg):
    p = _rand_poly(rng, cfg["degree"])
    a = rng.choice(_SHIFTS)
    yield fft_poly(shift(p, a)), apply_operator(exp_shift(a), fft_poly(p))
    yield ifft_poly(shift(p, a)), apply_operator(binom_shift(a), ifft_poly(p))


@_register("eq35_36_outer_shift", "exact",
           "transforming the shift parameter itself turns the exponential shift "
           "series into a plain argument shift", 0.0, trials=60, degree=8)
def _chk_eq35(rng, cfg):
    p = _rand_poly(rng, cfg["degree"])
    x0, a0 = _rand_frac(rng), _rand_frac(rng)
    for transform, op, weight in ((fft_poly, forward_difference, falling_factorial),
                                  (ifft_poly, derivative, lambda a, n: a ** n)):
        F = transform(p)
        acc = Fraction(0)
        cur = F
        for n in range(F.degree + 2):
            acc += weight(a0, n) * cur.eval(x0) / math.factorial(n)
            cur = apply_operator(op(1), cur)
        yield acc, F.eval(x0 + a0)


@_register("eq37_charlier_laguerre_shift", "exact",
           "the transform of a shifted power matches its binomial expansion, a "
           "Laguerre value, and a sign-normalized Charlier value", 0.0,
           note="Charlier leg uses prefactor a^n (holds for all n)", trials=30, max_n=8)
def _chk_eq37(rng, cfg):
    a = rng.choice([Fraction(1), Fraction(2), Fraction(1, 2)])
    n = rng.randint(0, cfg["max_n"])
    lhs = fft_poly(shift(_power(n), a))
    yield lhs, poly(Basis.FALLING, [math.comb(n, k) * a ** (n - k) for k in range(n + 1)])
    x0 = _rand_frac(rng)
    yield lhs.eval(x0), math.factorial(n) * laguerre(n, x0 - n).eval(-a)
    # sign-normalized: a^n c_n(x, -a); the (-a)^n prefactor printed in
    # some statements of this identity only matches at even n
    yield lhs.eval(x0), a ** n * charlier(n, x0, -a)


@_register("eq38_charlier_laguerre_dual", "exact",
           "the inverse transform of a shifted falling factorial matches its "
           "expansion, a Laguerre polynomial, and a Charlier value", 0.0,
           note="Charlier leg uses prefactor x^n (holds for all n)", trials=30, max_n=8)
def _chk_eq38(rng, cfg):
    a = rng.choice([Fraction(1), Fraction(2), Fraction(1, 2)])
    n = rng.randint(0, cfg["max_n"])
    lhs = ifft_poly(shift(falling_unit(n), a))
    yield lhs, monomial([math.comb(n, k) * falling_factorial(a, n - k) for k in range(n + 1)])
    yield lhs, negate_argument(laguerre(n, a - n)).scale(math.factorial(n))
    x0 = _rand_frac(rng)
    if x0 != 0:
        yield lhs.eval(x0), x0 ** n * charlier(n, a, -x0)


@_register("eq40_41_basis_shift", "exact",
           "multiplying by a power or falling factorial shifts the transform "
           "argument", 0.0, trials=60, degree=6, max_n=5)
def _chk_eq40(rng, cfg):
    g = _rand_poly(rng, cfg["degree"])
    n = rng.randint(0, cfg["max_n"])
    xs = _power(n)
    yield (fft_poly(multiply(xs, g)),
           multiply(falling_unit(n), shift(fft_poly(g), Fraction(-n))))
    yield (ifft_poly(multiply(falling_unit(n), convert_basis(g, Basis.FALLING))),
           multiply(xs, ifft_poly(shift(g, Fraction(n)))))


def _egf_weighted_newton(q: BasisPolynomial, k: int, sign: int) -> Fraction:
    """Newton sum at integer k of the Taylor coefficients of e^{sign*x} q(x)."""
    qm = convert_basis(q, Basis.MONOMIAL)
    total = Fraction(0)
    for n in range(k + 1):
        c = sum(
            (qm.coeff(j) * Fraction(sign ** (n - j), math.factorial(n - j))
             for j in range(min(n, qm.degree) + 1)),
            start=Fraction(0),
        )
        total += math.comb(k, n) * math.factorial(n) * c
    return total


@_register("eq43_44_binomial_transform", "exact",
           "the binomial transform of integer samples equals the Newton sum of "
           "the exponential generating function route", 0.0, trials=40,
           degree=5, max_point=12)
def _chk_eq43(rng, cfg):
    p = _rand_poly(rng, cfg["degree"])
    k = rng.randint(0, cfg["max_point"])
    yield binomial_transform(p, k), _egf_weighted_newton(ifft_poly(p), k, +1)


@_register("eq45_46_bt_inverse", "exact",
           "the alternating inverse binomial transform inverts the binomial "
           "transform and matches its generating-function route", 0.0,
           trials=40, degree=5, max_point=10)
def _chk_eq45(rng, cfg):
    p = _rand_poly(rng, cfg["degree"])
    k = rng.randint(0, cfg["max_point"])
    yield inverse_binomial_transform(lambda n: binomial_transform(p, n), k), p.eval(Fraction(k))
    yield inverse_binomial_transform(p, k), _egf_weighted_newton(ifft_poly(p), k, -1)


@_register("eq47_conv_commutes", "exact",
           "binomial convolution at integer points is symmetric in its arguments",
           0.0, trials=40, degree=5, max_point=12)
def _chk_eq47(rng, cfg):
    f = _rand_poly(rng, cfg["degree"])
    g = _rand_poly(rng, cfg["degree"])
    k = rng.randint(0, cfg["max_point"])
    yield binomial_convolution(f, g, k), binomial_convolution(g, f, k)


@_register("eq48_53_conv_egf_product", "exact",
           "binomial convolution values are the coefficients of the product of "
           "exponential generating functions", 0.0, trials=30, degree=5, terms=31)
def _chk_eq48(rng, cfg):
    f = _rand_poly(rng, cfg["degree"])
    g = _rand_poly(rng, cfg["degree"])
    prod = egf_product_coeffs(f, g, cfg["terms"])
    for k in range(cfg["terms"]):
        yield prod[k], binomial_convolution(f, g, k)


@_register("eq50_conv_bt", "exact",
           "convolving with the constant sequence one reproduces the binomial "
           "transform", 0.0, trials=40, degree=5, max_point=20)
def _chk_eq50(rng, cfg):
    g = _rand_poly(rng, cfg["degree"])
    k = rng.randint(0, cfg["max_point"])
    yield binomial_convolution(lambda n: Fraction(1), g, k), binomial_transform(g, k)


@_register("eq51_52_consecutive_conv", "exact",
           "iterated self-convolutions give generating-function powers, and the "
           "power of a series is recovered through the convolution chain", 0.0,
           trials=20, degree=3, max_point=9)
def _chk_eq51(rng, cfg):
    K = cfg["max_point"]
    f = _rand_poly(rng, cfg["degree"])
    conv1 = [binomial_convolution(f, f, k) for k in range(K + 1)]
    conv2 = [binomial_convolution(lambda n: conv1[n], f, k) for k in range(K + 1)]
    u = [f.eval(Fraction(j)) / math.factorial(j) for j in range(K + 1)]
    pw = u[:]
    for it in (conv1, conv2):
        pw = [sum((pw[i] * u[k - i] for i in range(k + 1)), start=Fraction(0))
              for k in range(K + 1)]
        for k in range(K + 1):
            yield it[k], math.factorial(k) * pw[k]
    # power-of-series route: coefficients of f(x)^n from the chain
    F = lambda k: math.factorial(k) * f.coeff(k)
    chain = [binomial_convolution(F, F, k) for k in range(K + 1)]
    chain2 = [binomial_convolution(lambda n: chain[n], F, k) for k in range(K + 1)]
    square = multiply(f, f)
    cube = multiply(square, f)
    for k in range(K + 1):
        yield chain[k] / math.factorial(k), square.coeff(k)
        yield chain2[k] / math.factorial(k), cube.coeff(k)


@_register("eq55_scaling", "exact",
           "argument scaling becomes the backward-difference scaling operator "
           "after the falling transform", 0.0, trials=100, degree=8)
def _chk_eq55(rng, cfg):
    p = _rand_poly(rng, cfg["degree"])
    a = rng.choice(_SHIFTS)
    yield fft_poly(scale_argument(p, a)), apply_operator(scale_op(a), fft_poly(p))


@_register("eq56_laguerre_product", "exact",
           "the inverse transform of a falling-factorial product is a power "
           "times a generalized Laguerre polynomial", 0.0, cases=_each_nm, max_n=5)
def _chk_eq56(rng, cfg, n, m):
    yield (ifft_poly(multiply(falling_unit(n), falling_unit(m))),
           multiply(_power(n), negate_argument(laguerre(m, Fraction(n - m)))
                    .scale(math.factorial(m))))


@_register("eq57_falling_linearization", "exact",
           "products of falling factorials relinearize with binomial-weighted "
           "falling factorials", 0.0, cases=_each_nm, max_n=6)
def _chk_eq57(rng, cfg, n, m):
    direct = poly(Basis.FALLING, [0])
    for k in range(min(n, m) + 1):
        w = math.comb(n, k) * math.comb(m, k) * math.factorial(k)
        direct = direct + falling_unit(n + m - k).scale(Fraction(w))
    yield multiply(falling_unit(n), falling_unit(m)), direct


def _pairing_sum(f: BasisPolynomial, g: BasisPolynomial) -> BasisPolynomial:
    """sum_k d^k F d^k G x^k / k! for F, G the inverse falling transforms of f, g."""
    F, G = ifft_poly(f), ifft_poly(g)
    acc = monomial([])
    for k in range(min(F.degree, G.degree) + 1):
        dF, dG = apply_operator(derivative(k), F), apply_operator(derivative(k), G)
        acc = acc + multiply(multiply(dF, dG), _power(k).scale(Fraction(1, math.factorial(k))))
    return acc


@_register("eq58_59_hadamard", "exact",
           "the derivative-pairing sum computes the inverse transform of a "
           "product and the product of transforms", 0.0, trials=60, degree=8)
def _chk_eq58(rng, cfg):
    f = _rand_poly(rng, cfg["degree"])
    g = _rand_poly(rng, cfg["degree"])
    yield hadamard_ifft(f, g), _pairing_sum(f, g)
    # the pairing sum runs over the pre-images of the two factors
    yield multiply(fft_poly(f), fft_poly(g)), fft_poly(_pairing_sum(fft_poly(f), fft_poly(g)))


@_register("eq60_61_integer_chain", "exact",
           "the transform of a product is the inverse binomial transform of the "
           "convolution of transforms at integer points", 0.0, trials=30,
           degree=5, max_point=12)
def _chk_eq60(rng, cfg):
    F = _rand_poly(rng, cfg["degree"])
    G = _rand_poly(rng, cfg["degree"])
    lhs_poly = fft_poly(multiply(F, G))
    points = range(cfg["max_point"] + 1)
    # each transform sampled once, each convolution value built once
    fF, fG = ([fft_poly(H).eval(Fraction(i)) for i in points] for H in (F, G))
    conv = [binomial_convolution(fF.__getitem__, fG.__getitem__, n) for n in points]
    for k in points:
        yield lhs_poly.eval(Fraction(k)), inverse_binomial_transform(conv.__getitem__, k)


@_register("eq62_63_coefficient_extraction", "exact",
           "power series coefficients come out of the weighted Newton sum and "
           "rebuild the polynomial", 0.0, trials=60, degree=10)
def _chk_eq62(rng, cfg):
    p = _rand_poly(rng, cfg["degree"])
    rebuilt = [coefficient_extract(p, n) for n in range(p.degree + 3)]
    for n, got in enumerate(rebuilt):
        yield got, p.coeff(n)
    yield monomial(rebuilt), p


def _weighted_sum(family, weight, n: int, zero: BasisPolynomial) -> BasisPolynomial:
    """sum_k weight(n, k) family(k) for k = 0..n."""
    out = zero
    for k in range(n + 1):
        out = out + family(k).scale(weight(n, k))
    return out


@_register("eq78_79_theta_representation", "exact",
           "the inverse transform replaces monomials by Touchard polynomials, "
           "and the transform undoes it", 0.0, trials=60, degree=10)
def _chk_eq78(rng, cfg):
    p = _rand_poly(rng, cfg["degree"])
    theta = _weighted_sum(touchard, lambda _n, k: p.coeff(k), p.degree, monomial([0]))
    yield ifft_poly(p), theta
    yield fft_poly(theta), p


@_register("eq91_bernoulli_structure", "exact",
           "series division of exp(x) by exp(x)-1 reproduces the signed "
           "Bernoulli coefficient pattern", 0.0, cases=None, terms=12)
def _chk_eq91(rng, cfg):
    N = cfg["terms"]
    # C(x) = x e^x/(e^x - 1): ordinary division by B(x) = (e^x - 1)/x
    e = [Fraction(1, math.factorial(n)) for n in range(N + 2)]
    b = [Fraction(1, math.factorial(m + 1)) for m in range(N + 2)]
    c = []
    for n in range(N + 2):
        acc = e[n] - sum((c[j] * b[n - j] for j in range(n)), start=Fraction(0))
        c.append(acc / b[0])
    # Laurent coefficient of x^n in e^x/(e^x-1) is c[n+1]; c[0] is the 1/x one
    pairs = [(c[0], 1)] + [
        (c[n + 1], bernoulli(n + 1) * Fraction((-1) ** (n + 1), math.factorial(n + 1)))
        for n in range(N + 1)]
    return pairs, N + 1, None


def _grid_row(name: str, description: str, *routes):
    """Register an exact row over n = 0..max_n; each route (lhs, rhs) maps n to a pair."""
    _register(name, "exact", description, 0.0,
              cases=lambda cfg: product(range(cfg["max_n"] + 1)), max_n=8)(
        lambda rng, cfg, n: [(lhs(n), rhs(n)) for lhs, rhs in routes])


_grid_row("table3_monomial_row", "powers map to falling factorials",
          (lambda n: fft_poly(_power(n)), falling_unit))
_grid_row("table3_falling_row",
          "falling factorials map to the signed-Stirling dual polynomials",
          (lambda n: fft_poly(falling_unit(n)), z_poly),
          (z_poly, lambda n: poly(Basis.FALLING,
                                  [stirling_first_signed(n, k) for k in range(n + 1)])))
_grid_row("table3_z_image_row",
          "the dual polynomials transform into their own signed-Stirling recombination",
          (lambda n: fft_poly(z_poly(n)),
           lambda n: _weighted_sum(z_poly, stirling_first_signed, n, poly(Basis.FALLING, [0]))))
_grid_row("table3_touchard_row", "Touchard polynomials transform back to powers",
          (lambda n: fft_poly(touchard(n)), _power),
          (lambda n: ifft_poly(_power(n)), touchard))
_grid_row("table3_touchard_sum_row",
          "Stirling-weighted Touchard sums transform to the next Touchard polynomial",
          (lambda n: fft_poly(_weighted_sum(touchard, stirling_second, n, monomial([0]))),
           touchard))


@_register("table3_power_exp_row", "exact",
           "the damped power row is a scaled Kronecker delta at integer "
           "arguments", 0.0, cases=_each_nm, max_n=8)
def _chk_t3_power_exp(rng, cfg, n, m):
    # Taylor coefficients of x^n e^{-x}
    coeffs = [Fraction(0)] * n + [
        Fraction((-1) ** j, math.factorial(j)) for j in range(cfg["max_n"] + 1 - n + 8)
    ]
    total = sum((math.comb(m, k) * math.factorial(k) * coeffs[k] for k in range(m + 1)),
                start=Fraction(0))
    yield total, Fraction(math.factorial(n)) if m == n else Fraction(0)


@_register("table3_laguerre_row", "exact",
           "power-times-Laguerre inputs map to normalized falling-factorial "
           "products (indices as forced by the product identity)", 0.0,
           cases=_each_nm, note="second factor carries index n (not m) with 1/n! weight",
           max_n=5)
def _chk_t3_laguerre(rng, cfg, n, m):
    yield (fft_poly(multiply(_power(n + m), negate_argument(laguerre(n, Fraction(m))))),
           multiply(falling_unit(n + m), falling_unit(n)).scale(
               Fraction(1, math.factorial(n))))


# --------------------------------------------------------------- numeric layer

def _relative(got, want) -> tuple:
    """A pair whose gap is the relative error |got - want| / max(1, |want|)."""
    return abs(got - want) / max(1.0, abs(want)), 0.0


_SERIES_CFG = NumericConfig(truncation_N=256, tolerance=1e-12)


@_register("eq5_newton_sum_duality", "numeric",
           "the Newton sum at integer arguments matches exact transform "
           "evaluation to float rounding", 1e-12, trials=25, degree=10)
def _chk_eq5(rng, cfg):
    p = _rand_poly(rng, cfg["degree"])
    F = fft_poly(p)
    for si in (0, 1, 2, 5, 8):
        yield _relative(fft_fn(p.coeff, float(si)), float(F.eval(si)))


@_register("eq6_ifft_series", "numeric",
           "the damped series evaluator agrees with the exact inverse transform "
           "of polynomial samples", 1e-8, trials=30, degree=6)
def _chk_eq6(rng, cfg):
    p = _rand_poly(rng, cfg["degree"])
    q = ifft_poly(p)
    x = rng.uniform(0.2, 4.0)
    got = ifft_fn(lambda n: p.eval(Fraction(n)), x, _SERIES_CFG)
    yield _relative(got, q.eval(x))


@_register("eq7_quadrature_monomials", "numeric",
           "quadrature of monomials reproduces rising factorials of the "
           "transform argument", 1e-7,
           cases=lambda cfg: product(range(cfg["max_n"] + 1), (0.5, 1.5, 2.5, 3.7)),
           max_n=8)
def _chk_eq7(rng, cfg, n, s):
    yield rft_fn(lambda t: t ** n, s), rising_factorial(s, n)


@_register("eq8_mellin_consistency", "numeric",
           "the normalized quadrature agrees with an independent tanh-sinh "
           "integration of the same weighted integral", 1e-8,
           cases=_grid((lambda t: math.exp(-t), lambda t: 1.0 / (1.0 + t)), (0.6, 1.5)))
def _chk_eq8(rng, cfg, f, s):
    lhs = rft_fn(f, s) * gamma_support(s)
    g = lambda t: f(t) * t ** (s - 1.0) * math.exp(-t)
    import mpmath as mp

    # at rft_fn's tanh_sinh precision, so the oracle and the tanh_sinh rows
    # share one set of mpmath node tables; at 25 digits the oracle is ~1e-16
    # from the closed forms (4e-15 at 20)
    with mp.workdps(_TANH_SINH_DPS):
        rhs = float(mp.quad(lambda t: g(float(t)), [0, 1, mp.inf]))
    yield lhs, rhs


@_register("eq9_irft_series", "numeric",
           "the growing series evaluator inverts the exact rising transform of "
           "polynomials", 1e-8, trials=30, degree=6)
def _chk_eq9(rng, cfg):
    p = _rand_poly(rng, cfg["degree"])
    R = rft_poly(p)
    x = rng.uniform(0.2, 3.0)
    got = irft_fn(lambda s: R.eval(Fraction(s)), x, _SERIES_CFG)
    yield _relative(got, p.eval(x))


@_register("eq24_summation_integral", "numeric",
           "integrating the damped series evaluator over the half line "
           "reproduces the sum of the samples", 1e-8,
           cases=lambda cfg: ((Fraction(1, 2), 56.0), (Fraction(1, 3), 42.0)))
def _chk_eq24(rng, cfg, r, T):
    import mpmath as mp

    integrand = lambda t: float(ifft_fn(lambda n: r ** n, float(t), _SERIES_CFG))
    yield float(mp.quad(integrand, [0, T])), 1.0 / (1.0 - float(r))


@_register("eq39_charlier_orthogonality", "numeric",
           "Poisson-weighted Charlier sums are diagonal with the factorial "
           "normalization", 1e-8, cases=_each_nm, max_n=5, terms=60, a=1.0)
def _chk_eq39(rng, cfg, n, m):
    a = cfg["a"]
    want = math.exp(a) * math.factorial(n) / a ** n if n == m else 0.0
    yield charlier_orthogonality_sum(n, m, a, cfg["terms"]), want


@functools.cache
def _laplace_rft(s: float):
    """The tanh-sinh rising transform of e^t/(1+t) at s; eq67 and its
    informational check read the same values."""
    import mpmath as mp

    return rft_fn(lambda t: mp.exp(t) / (1 + t), s, "tanh_sinh")


@_register("eq67_laplace_rft", "numeric",
           "the rising transform of the exponentially weighted Laplace image "
           "reproduces the reflected gamma value", 1e-6, cases=_grid((0.25, 0.5, 0.75)))
def _chk_eq67(rng, cfg, s):
    yield _laplace_rft(s), gamma_support(1.0 - s)


@_register("eq69_fractional_derivative", "numeric",
           "half and fractional derivatives of exponentials match their closed "
           "forms and the half-twice ladder", 1e-8, cases=None)
def _chk_eq69(rng, cfg):
    e1, e2, e3 = (NamedSource(f"exp({b})").taylor() for b in (1, 2, 3))
    pairs = [
        (fractional_derivative(e2, 0.5), math.sqrt(2)),
        (fractional_derivative(e1, 1.0, t=1), math.e),
        (fractional_derivative(e3, 0.5, t=Fraction(1, 5)), math.sqrt(3) * math.exp(0.6)),
    ]
    # half applied twice against the plain first derivative; the inner calls
    # supply the Taylor coefficients of the half-derivative as a function of
    # the expansion point, so their absolute noise is amplified by the outer
    # falling factorials and the re-expansion must stay short
    M = 18
    inner = NumericConfig(truncation_N=160, tolerance=1e-13)
    half = [float(fractional_derivative(e2, m + 0.5, cfg=inner)) / math.factorial(m)
            for m in range(M)]
    twice = fractional_derivative(lambda m: half[m] if m < M else 0.0, 0.5,
                                  cfg=NumericConfig(truncation_N=M, tolerance=1e-7))
    pairs.append((twice, fractional_derivative(e2, 1.0)))
    return pairs, 4, None


@_register("eq70_fractional_difference", "numeric",
           "half and integer fractional differences of exponentials match their "
           "closed forms", 1e-8,
           cases=lambda cfg: ((2.0, 0.5, 0.0, 1.0), (3.0, 1.0, 0.0, 2.0), (2.0, 2.0, 1.0, 2.0)))
def _chk_eq70(rng, cfg, base, order, t, want):
    yield fractional_difference(lambda u: base ** u, order, t=t), want


def _incomplete_gamma(evaluate, sign: float):
    """evaluate(n, x) equals x^-n (1 - Gamma(n, sign*x) / (n-1)!)."""
    def body(rng, cfg, n, x):
        want = x ** (-n) * (1.0 - incomplete_gamma_upper(n, sign * x) / math.factorial(n - 1))
        yield evaluate(n, x), want
    return body


_register("eq80_incomplete_gamma", "numeric",
          "the damped series of reciprocal shifted factorials matches the "
          "incomplete-gamma closed form", 1e-9, cases=_grid((1, 2, 3), (0.5, 1.0, 2.0)))(
    _incomplete_gamma(lambda n, x: ifft_fn(
        lambda k: Fraction(math.factorial(k), math.factorial(k + n)), x, _SERIES_CFG), 1.0))
_register("eq84_irft_incomplete_gamma", "numeric",
          "the growing series of negative-index rising factorials matches the "
          "reflected incomplete-gamma closed form", 1e-9,
          cases=_grid((1, 2, 3), (0.5, 1.0, 2.0)))(
    _incomplete_gamma(lambda n, x: irft_fn(
        lambda s: rising_factorial(Fraction(s), -n), x, _SERIES_CFG), -1.0))


@_register("table2_row1_power_shift", "numeric",
           "multiplying by a fractional power shifts the transform argument "
           "with a gamma ratio", 1e-7, cases=_grid((0.7, 1.9)), a=1.3)
def _chk_t2_row1(rng, cfg, s):
    import mpmath as mp

    a = cfg["a"]
    # tanh_sinh because t^a has a branch point at 0
    lhs = rft_fn(lambda t: t ** a * mp.exp(-t), s, "tanh_sinh")
    yield lhs, gamma_support(s + a) / gamma_support(s) * rft_fn(
        lambda t: mp.exp(-t), s + a, "tanh_sinh")


@_register("table2_row2_scaling", "numeric",
           "argument scaling becomes a power prefactor with an exponential "
           "reweighting", 1e-7, cases=_grid((0.7, 1.9)), a=2.0)
def _chk_t2_row2(rng, cfg, s):
    a = cfg["a"]
    lhs = rft_fn(lambda t: math.exp(-a * t), s)
    yield lhs, a ** (-s) * rft_fn(lambda t: math.exp((1.0 - 1.0 / a) * t) * math.exp(-t), s)
    yield lhs, (1.0 + a) ** (-s)


@_register("table3_gamma_row", "numeric",
           "factorial samples sum to the damped geometric closed form", 1e-9,
           cases=_grid([k / 10 for k in range(1, 10)]))
def _chk_t3_gamma(rng, cfg, x):
    got = ifft_fn(math.factorial, x, NumericConfig(truncation_N=512, tolerance=1e-12))
    yield got, math.exp(-x) / (1.0 - x)


@_register("table3_gamma_y_row", "numeric",
           "shifted-factorial samples sum to the damped power closed form "
           "(target gamma argument offset by one)", 1e-9,
           cases=lambda cfg: ((y, f, x)
                              for y, f in ((0.5, lambda n: math.gamma(n + 1.5)),
                                           (2, lambda n: math.factorial(n + 2)))
                              for x in (0.2, 0.5, 0.8)),
           note="samples f(n)=Gamma(n+y+1) force the image Gamma(x+y+1)")
def _chk_t3_gamma_y(rng, cfg, y, f, x):
    got = ifft_fn(f, x, _SERIES_CFG)
    yield got, gamma_support(y + 1.0) * math.exp(-x) / (1.0 - x) ** (y + 1.0)


@_register("table3_exponential_row", "numeric",
           "exponential Taylor sources produce the power closed form", 1e-9,
           cases=_grid((Fraction(2), Fraction(3, 2)), (0.5, 1.0, 2.3)))
def _chk_t3_exp(rng, cfg, a, s):
    src = NamedSource(f"exp({a - 1})")
    yield fft_fn(src.taylor(), s, _SERIES_CFG), float(a) ** s


def _trig_row(trig, tan_scaled: bool):
    """fft of the Taylor source of trig(w t) against its polar closed form;
    a tan-scaled row feeds trig(tan(w) t) and expects trig(w s) / cos(w)^s.
    The source's spec names the float rate by its exact ratio."""

    def body(rng, cfg, w, s):
        if tan_scaled:
            rate, want = math.tan(w), trig(w * s) / math.cos(w) ** s
        else:
            rate, want = w, (w * w + 1.0) ** (s / 2) * trig(s * math.atan(w))
        src = NamedSource(f"{trig.__name__}({Fraction(rate)})")
        yield fft_fn(src.taylor(), s, _SERIES_CFG), want
    return body


_register("table3_sin_row", "numeric",
          "sine Taylor sources produce the polar-form closed expression", 1e-6,
          cases=_grid((0.5, 1.0), (0.5, 1.0, 2.3)))(_trig_row(math.sin, False))
_register("table3_cos_row", "numeric",
          "cosine Taylor sources produce the polar-form closed expression", 1e-6,
          cases=_grid((0.5, 1.0), (0.5, 1.0, 2.3)))(_trig_row(math.cos, False))
_register("table3_sin_tan_row", "numeric",
          "tangent-scaled sine sources produce the secant-power closed form "
          "(series converges for tan w below one)", 1e-6,
          cases=_grid((0.3, 0.5, 0.7), (0.5, 1.0, 2.3)))(_trig_row(math.sin, True))
_register("table3_cos_tan_row", "numeric",
          "tangent-scaled cosine sources produce the secant-power closed form "
          "(series converges for tan w below one)", 1e-6,
          cases=_grid((0.3, 0.5, 0.7), (0.5, 1.0, 2.3)))(_trig_row(math.cos, True))


# ------------------------------------------------------- informational checks

@_register("eq67_last_argument_info", "numeric",
           "records which Mellin argument convention matches the quadrature "
           "value of the weighted Laplace image", None, cases=None)
def _chk_eq67_info(rng, cfg):
    printed = corrected = 0.0
    for s in (0.25, 0.5):
        q = float(_laplace_rft(s))
        printed = max(printed, abs(q - gamma_support(-s - 1.0)))
        corrected = max(corrected, abs(q - gamma_support(1.0 - s)))
    detail = (f"argument -s-1 misses by {printed:.3e}; "
              f"argument 1-s agrees within {corrected:.3e}")
    return [], 2, detail


@_register("eq89_expansion_info", "numeric",
           "records how the alternating product-expansion sum compares with the "
           "diagonal difference form under both shift readings", None, cases=None,
           terms=45)
def _chk_eq89_info(rng, cfg):
    # for x <= 2 every term past k = 45 is below 1e-23, under half an ulp of
    # either sum, so 45 shifted pairs give the floats that 90 give
    d_shift_first = d_transform_first = 0.0
    for _ in range(10):
        f = _rand_poly(rng, 4)
        g = _rand_poly(rng, 4)
        If, Ig = ifft_poly(f), ifft_poly(g)
        shifted = [(ifft_poly(shift(f, Fraction(k))), ifft_poly(shift(g, Fraction(k))))
                   for k in range(cfg["terms"])]
        for x in (0.3, 1.0, 2.0):
            lhs_a = lhs_b = 0.0
            for k, (Sf, Sg) in enumerate(shifted):
                wk = (-x) ** k / math.factorial(k)
                lhs_a += wk * Sf.eval(x) * Sg.eval(x)
                lhs_b += wk * If.eval(x + k) * Ig.eval(x + k)
            rhs = 0.0
            cf, cg = f, g
            for k in range(max(f.degree, g.degree, 0) + 1):
                rhs += ((-1) ** k * float(cf.eval(Fraction(0))) *
                        float(cg.eval(Fraction(0))) * x ** k / math.factorial(k))
                cf = apply_operator(forward_difference(1), cf)
                cg = apply_operator(forward_difference(1), cg)
            rhs *= math.exp(-x)
            d_shift_first = max(d_shift_first, abs(lhs_a - rhs))
            d_transform_first = max(d_transform_first, abs(lhs_b - rhs))
    detail = (f"shift-then-transform reading agrees within {d_shift_first:.3e}; "
              f"transform-then-shift reading misses by {d_transform_first:.3e}")
    return [], 10, detail


@_register("eq90_91_zeta_info", "numeric",
           "records the quadrature value of the zeta integrand against the "
           "divergent behavior of the formal Bernoulli series", None, cases=None)
def _chk_zeta_info(rng, cfg):
    import mpmath as mp

    # e^t / (e^t - 1) with one exp
    quad_val = float(rft_fn(lambda t: 1 / (1 - mp.exp(-t)), 2.0, "tanh_sinh"))
    zeta2 = float(mp.zeta(2))
    _partial, terms = zeta_formal_series(2.0, 24)
    k_min = min(range(1, len(terms)), key=lambda i: abs(terms[i]) or math.inf)
    best_partial = -1.0 + math.fsum(terms[: k_min + 1])
    detail = (f"integral form gives {quad_val:.9f} (zeta(2)={zeta2:.9f}, "
              f"gap {abs(quad_val - zeta2):.2e}); formal series truncated at its "
              f"smallest term gives {best_partial:.4f}, gap {abs(best_partial - zeta2):.2e}")
    return [], 1, detail


# ------------------------------------------------------------------ public API

def list_checks() -> Sequence[CheckSpec]:
    return [entry[0] for entry in _REGISTRY.values()]


def run_check(name: str, seed: int = 0) -> CheckReport:
    if name not in _REGISTRY:
        raise KeyError(f"unknown check {name!r}")
    spec, body, cases, note = _REGISTRY[name]
    tolerance = spec.config["tolerance"]
    informational = tolerance is None
    rng = Random(f"{name}:{seed}")
    t0 = time.perf_counter()
    try:
        if cases is None:  # custom body: all pairs, trial count and detail at once
            pairs, trials, detail = body(rng, spec.config)
        else:
            trial_cases = list(cases(spec.config))
            pairs = (pair for case in trial_cases for pair in body(rng, spec.config, *case))
            trials, detail = len(trial_cases), note
        worst = 0
        for lhs, rhs in pairs:
            gap = _poly_gap(lhs, rhs) if isinstance(lhs, BasisPolynomial) else abs(lhs - rhs)
            if worst == worst and not gap <= worst:  # a NaN gap, once taken, stays
                worst = gap
        err = float(worst)
        # an exact row's tolerance is 0.0, which a Fraction gap compares with exactly
        status = "pass" if informational or worst <= tolerance else "fail"
    except Exception as exc:  # infrastructure failure, not a math verdict
        status, err, trials, detail = "error", math.inf, 0, f"{type(exc).__name__}: {exc}"
    return CheckReport(name=name, status=status, max_abs_error=err,
                       tolerance=tolerance, trials=trials, seed=seed,
                       elapsed_ms=int((time.perf_counter() - t0) * 1000), layer=spec.layer,
                       informational=informational, detail=detail)


def run_all(filter: Optional[str] = None, seed: int = 0) -> Sequence[CheckReport]:
    return [run_check(n, seed) for n in _REGISTRY
            if filter is None or fnmatch.fnmatchcase(n, filter)]


def render_text(reports: Sequence[CheckReport]) -> str:
    lines = []
    for r in reports:
        tol = "info" if r.tolerance is None else f"{r.tolerance:.1e}"
        flag = "INFO" if r.informational else r.status.upper()
        lines.append(f"{r.name:<38} {flag:<5} err={r.max_abs_error:<12.3e} "
                     f"tol={tol:<8} trials={r.trials:<4} {r.elapsed_ms}ms")
    passed = sum(1 for r in reports if r.status == "pass")
    lines.append(f"{passed}/{len(reports)} checks passed")
    return "\n".join(lines)


# The source items that a check covers without its name saying so.
for _item, _checks in {"eq6": ["table3_gamma_row"], "eq49": ["eq48_53_conv_egf_product"],
                       "eq54": ["eq55_scaling"],
                       "table3_complex_exp": ["table3_sin_row", "table3_cos_row"]}.items():
    if not _REGISTRY.keys() >= set(_checks):
        raise ValueError(f"{_item} is linked to an unregistered check in {_checks}")
    COVERAGE.setdefault(_item, []).extend(_checks)
