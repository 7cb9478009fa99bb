"""numeric_eval: the float evaluators on the CLI's named sources.

Every op is checked against a closed form. Arguments are dyadic (0.5, 1.5)
and non-dyadic (0.3, 1/3, 2.7); non-dyadic ones grow the Fraction
denominators the evaluators build internally. The seed picks the sign of
most source parameters, which leaves each op's cost unchanged, and shuffles
the op order.

Two ops are known defects and stay in the mix so that a fix shows in
fail_ratio: fft_fn on geometric(1/2) at s = 0.3 with truncation_N = 256, and
ifft_fn of the constant 1 (geometric(1)) at x = 800; both raise
OverflowError from float(Fraction).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from random import Random
from typing import Callable, Optional

import oracles as O

DYADIC = (0.5, 1.5)
NONDYADIC = (0.3, 1 / 3, 2.7)
# Acceptance tolerance per evaluator family: the tolerance the identity
# suite applies to the same evaluator (table-3 series rows, eq7/rft_fn's own
# default, eq69/eq70), relative to max(1, |reference|).
TOL_SERIES = 1e-9
TOL_QUAD = 1e-7
TOL_FRACTIONAL = 1e-8
# (scheme, source kind, source parameter, s); Gauss-Laguerre rules are built
# per (nodes, s - 1), so set-up warms exactly these.
RFT_CASES = (
    ("gauss_laguerre", "exp", -0.5, 0.5), ("gauss_laguerre", "exp", -0.5, 0.3),
    ("gauss_laguerre", "exp", -0.5, 2.7), ("gauss_laguerre", "cos", 0.5, 1.5),
    ("adaptive_fallback", "exp", -0.5, 2.0), ("adaptive_fallback", "cos", 0.5, 3.0),
    ("tanh_sinh", "exp", -0.5, 0.5), ("tanh_sinh", "exp", -0.5, 1 / 3),
)


def setup(size: str = "full") -> None:
    """Import the numeric layer and build the quadrature rules a pass uses."""
    from ftcalc import transforms_numeric as tn
    for scheme, kind, a, s in RFT_CASES:
        tn.rft_fn(callable_of(kind, a, scheme == "tanh_sinh"), s, tn.QuadratureSpec(scheme=scheme))


# ---- named sources, as the CLI defines them

def taylor_of(kind: str, a: Fraction) -> Callable[[int], Fraction]:
    if kind == "exp":
        return lambda n: a ** n / math.factorial(n)
    if kind == "sin":
        return lambda n: (Fraction(0) if n % 2 == 0
                          else (-1) ** ((n - 1) // 2) * a ** n / math.factorial(n))
    if kind == "cos":
        return lambda n: Fraction(0) if n % 2 else (-1) ** (n // 2) * a ** n / math.factorial(n)
    if kind == "geometric":
        return lambda n: a ** n
    raise ValueError(kind)


def samples_of(kind: str, a: Optional[Fraction]) -> Callable[[int], object]:
    if kind == "exp":
        return lambda n: math.exp(float(a) * n)
    if kind == "cos":
        return lambda n: math.cos(float(a) * n)
    if kind == "geometric":
        return lambda n: a ** n
    if kind == "gamma-samples":
        return math.factorial
    raise ValueError(kind)


def callable_of(kind: str, a: float, mp_safe: bool = False) -> Callable:
    if mp_safe:  # tanh_sinh evaluates at mpmath arguments
        import mpmath as mp
        if kind == "exp":
            return lambda t: mp.exp(a * t)
        raise ValueError(kind)
    if kind == "exp":
        return lambda t: math.exp(a * t)
    if kind == "cos":
        return lambda t: math.cos(a * t)
    if kind == "geometric":
        return lambda t: a ** t
    raise ValueError(kind)


@dataclass
class NumOp:
    span: str
    call: Callable[[], object]
    ref: Callable[[], float]
    tol: float
    known_defect: bool = False


def build_ops(rng: Random) -> list[NumOp]:
    from ftcalc import transforms_numeric as tn

    ops: list[NumOp] = []
    def signed(a: str) -> Fraction:
        return rng.choice((1, -1)) * Fraction(a)

    cfg = tn.NumericConfig()

    # fft_fn: Newton sums of Taylor sources
    for s in DYADIC + NONDYADIC:
        a = signed("1/3")
        cls = "dyadic" if s in DYADIC else "nondyadic"
        ops.append(NumOp(f"transforms_numeric.fft_fn.{cls}",
                         lambda a=a, s=s: tn.fft_fn(tn.taylor_source(taylor_of("exp", a)), s, cfg),
                         lambda a=a, s=s: O.source_fft("exp", float(a), s), TOL_SERIES))
    for kind, s in (("sin", 0.5), ("cos", 0.3), ("geometric", 0.5), ("geometric", 2.7)):
        a = Fraction(1, 3) if kind == "geometric" else signed("1/2")
        cls = "dyadic" if s in DYADIC else "nondyadic"
        ops.append(NumOp(f"transforms_numeric.fft_fn.{cls}",
                         lambda k=kind, a=a, s=s: tn.fft_fn(tn.taylor_source(taylor_of(k, a)), s, cfg),
                         lambda k=kind, a=a, s=s: O.source_fft(k, float(a), s), TOL_SERIES))
    # e^t to 256 terms, sum (s)_n / n! = 2^s: the Wynn path, and the case
    # where the exact (s)_n products grow fastest at non-dyadic s
    for s in (0.5, 0.3):
        cls = "dyadic" if s in DYADIC else "nondyadic"
        ops.append(NumOp(f"transforms_numeric.fft_fn.{cls}",
                         lambda s=s: tn.fft_fn(tn.taylor_source(taylor_of("exp", Fraction(1))), s,
                                               tn.NumericConfig(truncation_N=256)),
                         lambda s=s: 2.0 ** s, TOL_SERIES))
    half = Fraction(1, 2)
    ops.append(NumOp("transforms_numeric.fft_fn.nondyadic",
                     lambda: tn.fft_fn(tn.taylor_source(taylor_of("geometric", half), 2.0), 0.3,
                                       tn.NumericConfig(truncation_N=256)),
                     lambda: O.source_fft("geometric", 0.5, 0.3), TOL_SERIES, known_defect=True))

    # ifft_fn: damped EGF series of integer samples
    for kind, x in (("exp", 0.5), ("exp", 0.3), ("exp", 2.7), ("geometric", 1.5),
                    ("cos", 1.5), ("gamma-samples", 1 / 3)):
        a = None if kind == "gamma-samples" else signed("1/2")
        ops.append(NumOp("transforms_numeric.ifft_fn.small_x",
                         lambda k=kind, a=a, x=x: tn.ifft_fn(tn.samples_source(samples_of(k, a)), x, cfg),
                         lambda k=kind, a=a, x=x: O.source_ifft(k, float(a or 0), x), TOL_SERIES))
    one = Fraction(1)
    for kind, a, x, n in (("geometric", one, 20.0, 64), ("geometric", half, 20.0, 64),
                          ("geometric", one, 200.0, 512)):
        ops.append(NumOp("transforms_numeric.ifft_fn.large_x",
                         lambda k=kind, a=a, x=x, n=n: tn.ifft_fn(
                             tn.samples_source(samples_of(k, a)), x, tn.NumericConfig(truncation_N=n)),
                         lambda k=kind, a=a, x=x: O.source_ifft(k, float(a), x), TOL_SERIES))
    ops.append(NumOp("transforms_numeric.ifft_fn.large_x",
                     lambda: tn.ifft_fn(tn.samples_source(samples_of("geometric", one)), 800.0,
                                        tn.NumericConfig(truncation_N=512)),
                     lambda: 1.0, TOL_SERIES, known_defect=True))

    # irft_fn: reflected EGF series of a callable
    for kind, x in (("exp", 0.5), ("exp", 0.3), ("exp", 2.7), ("geometric", 1 / 3), ("cos", 1.5)):
        a = float(rng.choice((2, 3))) if kind == "geometric" else float(signed("1/2"))
        ops.append(NumOp("transforms_numeric.irft_fn",
                         lambda k=kind, a=a, x=x: tn.irft_fn(tn.callable_source(callable_of(k, a)), x, cfg),
                         lambda k=kind, a=a, x=x: O.source_irft(k, a, x), TOL_SERIES))

    # rft_fn: each quadrature scheme
    for scheme, kind, a, s in RFT_CASES:
        ops.append(NumOp(f"transforms_numeric.rft_fn.{scheme}",
                         lambda sc=scheme, k=kind, a=a, s=s: tn.rft_fn(
                             callable_of(k, a, sc == "tanh_sinh"), s, tn.QuadratureSpec(scheme=sc)),
                         lambda k=kind, a=a, s=s: O.source_rft(k, a, s), TOL_QUAD))

    # fractional calculus on exponentials: D^s e^{at} = a^s e^{at},
    # Delta^s e^{at} = e^{at} (e^a - 1)^s
    for order, t in ((0.5, Fraction(0)), (0.3, Fraction(0)), (1.5, Fraction(1, 3))):
        a = Fraction(1, 2)
        ops.append(NumOp("transforms_numeric.fractional_derivative",
                         lambda a=a, o=order, t=t: tn.fractional_derivative(
                             tn.taylor_source(taylor_of("exp", a)), o, t, cfg),
                         lambda a=a, o=order, t=t: float(a) ** o * math.exp(float(a * t)),
                         TOL_FRACTIONAL))
    for order, t in ((0.5, 0.0), (0.3, 0.5), (1.5, 0.0)):
        a = float(rng.choice((0.5, 1 / 3)))
        ops.append(NumOp("transforms_numeric.fractional_difference",
                         lambda a=a, o=order, t=t: tn.fractional_difference(
                             callable_of("exp", a), o, t, cfg),
                         lambda a=a, o=order, t=t: math.exp(a * t) * (math.exp(a) - 1.0) ** o,
                         TOL_FRACTIONAL))

    # Wynn epsilon on the alternating series for log 2
    sums = [math.fsum((-1) ** n / (n + 1) for n in range(m + 1)) for m in range(24)]
    ops.append(NumOp("transforms_numeric.wynn_epsilon",
                     lambda: tn.wynn_epsilon(sums)[0].real, lambda: math.log(2.0), TOL_SERIES))

    rng.shuffle(ops)
    return ops


def make_pass(rec, seed: int, size: str = "full"):
    ops = build_ops(Random(f"numeric_eval:{seed}"))
    refs = [op.ref() for op in ops]

    def one_pass(index: int) -> None:
        for op, ref in zip(ops, refs):
            rec.call(op.span, op.call, lambda v, ref=ref, tol=op.tol: O.close(float(v), ref, tol),
                     known_defect=op.known_defect)

    return one_pass
