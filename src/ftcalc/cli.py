"""Command-line frontend.

Subcommands: convert (basis changes), transform (exact polynomial or numeric
source transforms), special (named polynomial families and number sequences),
fractional (derivative/difference), zeta (formal series terms), verify (the
identity check suite).

Polynomial input is either inline JSON or a path to a JSON file; rational
values print as strings so exact output survives a round trip. Exit codes:
0 success (verify: all checks passed), 1 mathematical failure or failing
checks, 2 usage errors.

The numeric layer and the check suite are imported by the subcommands that
use them, so convert, exact transform and special start without them. Only
the check suite and tanh-sinh quadrature load mpmath.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from fractions import Fraction
from typing import Callable, Optional

from .combinatorics import bernoulli, stirling_first_signed, stirling_second
from .polynomial import Basis, BasisPolynomial, convert_basis
from .special_polynomials import charlier, laguerre, touchard, z_poly
from .transforms_exact import fft_poly, ifft_poly, irft_poly, rft_poly

_EXACT_OPS = {"fft": fft_poly, "ifft": ifft_poly, "rft": rft_poly, "irft": irft_poly}

_SOURCE_RE = re.compile(r"^(exp|sin|cos|geometric)\(([^)]+)\)$")


def _read_polynomial(spec: str) -> BasisPolynomial:
    if spec.lstrip().startswith("{"):
        raw = spec
    else:
        with open(spec, "r", encoding="utf-8") as fh:
            raw = fh.read()
    return BasisPolynomial.from_json(json.loads(raw))


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
        elif spec.strip() == "gamma-samples":
            self.kind = "gamma-samples"
            self.param = None
        else:
            raise ValueError(
                f"unknown source {spec!r}; expected exp(a), sin(w), cos(w), "
                "geometric(r), or gamma-samples"
            )

    def taylor(self) -> Callable[[int], Fraction]:
        a = self.param
        if self.kind == "exp":
            return lambda n: a ** n / math.factorial(n)
        if self.kind == "sin":
            return lambda n: (Fraction(0) if n % 2 == 0
                              else (-1) ** ((n - 1) // 2) * a ** n / math.factorial(n))
        if self.kind == "cos":
            return lambda n: (Fraction(0) if n % 2
                              else (-1) ** (n // 2) * a ** n / math.factorial(n))
        if self.kind == "geometric":
            return lambda n: a ** n
        raise ValueError(f"source {self.spec!r} has no Taylor coefficients")

    def samples(self) -> Callable[[int], Fraction]:
        a = self.param
        if self.kind == "exp":
            return lambda n: math.exp(float(a) * n)
        if self.kind == "sin":
            return lambda n: math.sin(float(a) * n)
        if self.kind == "cos":
            return lambda n: math.cos(float(a) * n)
        if self.kind == "geometric":
            return lambda n: a ** n
        return lambda n: math.factorial(n)

    def callable(self) -> Callable[[float], float]:
        a = float(self.param) if self.param is not None else None
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


def _emit(obj) -> None:
    # a NaN or infinity would print as a JavaScript literal, which is not JSON
    print(json.dumps(obj, indent=2, allow_nan=False))


def _float_flag(text: str, flag: str) -> float:
    """The float of a rational or decimal flag value; the error names the flag."""
    try:
        return float(Fraction(text))
    except (ValueError, ZeroDivisionError, OverflowError):
        raise ValueError(f"{flag} needs a rational or decimal within the float range, "
                         f"got {text!r}") from None


def _frac_str(v) -> str:
    return str(Fraction(v)) if not isinstance(v, float) else repr(v)


def _cmd_convert(args) -> int:
    p = _read_polynomial(args.input)
    _emit(convert_basis(p, Basis(args.to)).to_json())
    return 0


def _cmd_transform(args) -> int:
    if not args.numeric:
        if args.input is None:
            raise ValueError("exact transform needs a polynomial argument")
        p = _read_polynomial(args.input)
        _emit(_EXACT_OPS[args.op](p).to_json())
        return 0

    if args.source is None or args.at is None:
        raise ValueError("--numeric requires --source and --at")
    from .transforms_numeric import (
        NumericConfig, QuadratureSpec, callable_source, fft_fn, ifft_fn, irft_fn, rft_fn,
        samples_source, taylor_source,
    )

    src = NamedSource(args.source)
    cfg = NumericConfig(truncation_N=args.truncation)
    s = _float_flag(args.at, "--at")
    if args.op == "fft":
        value = fft_fn(taylor_source(src.taylor()), s, cfg)
    elif args.op == "ifft":
        value = ifft_fn(samples_source(src.samples()), s, cfg)
    elif args.op == "irft":
        if src.kind == "gamma-samples":
            raise ValueError("irft reads its source at t = -1, -2, ...; gamma-samples is "
                             "Gamma(t+1), which has a pole at t = -1")
        value = irft_fn(callable_source(src.callable()), s, cfg)
    else:
        value = rft_fn(src.callable(), s, QuadratureSpec(scheme=args.scheme))
    _emit({"op": args.op, "source": args.source, "at": s,
           "value": float(value), "error_estimate": value.error_estimate})
    return 0


def _cmd_special(args) -> int:
    fam = args.family
    n = args.n
    if fam == "touchard":
        _emit(touchard(n).to_json())
    elif fam == "z":
        _emit(z_poly(n).to_json())
    elif fam == "laguerre":
        alpha = Fraction(args.alpha if args.alpha is not None else 0)
        _emit(laguerre(n, alpha).to_json())
    elif fam == "charlier":
        if args.x is None or args.a is None:
            raise ValueError("charlier needs --x and --a")
        v = charlier(n, Fraction(args.x), Fraction(args.a))
        _emit({"family": "charlier", "n": n, "x": args.x, "a": args.a,
               "value": _frac_str(v)})
    elif fam == "stirling1":
        if args.k is None:
            raise ValueError("stirling1 needs --k")
        _emit({"family": "stirling1", "n": n, "k": args.k,
               "value": str(stirling_first_signed(n, args.k)),
               "note": "signed convention"})
    elif fam == "stirling2":
        if args.k is None:
            raise ValueError("stirling2 needs --k")
        _emit({"family": "stirling2", "n": n, "k": args.k,
               "value": str(stirling_second(n, args.k))})
    else:  # bernoulli
        _emit({"family": "bernoulli", "n": n, "value": str(bernoulli(n))})
    return 0


def _cmd_fractional(args) -> int:
    from .transforms_numeric import (
        NumericConfig, fractional_derivative, fractional_difference, taylor_source,
    )

    src = NamedSource(args.source)
    cfg = NumericConfig(truncation_N=args.truncation)
    order = _float_flag(args.order, "--order")
    at = _float_flag(args.at, "--at")
    if args.kind == "derivative":
        value = fractional_derivative(
            taylor_source(src.taylor()), order, Fraction(args.at), cfg)
    else:
        value = fractional_difference(src.callable(), order, at, cfg)
    _emit({"kind": args.kind, "order": order, "at": at,
           "source": args.source, "value": float(value),
           "error_estimate": value.error_estimate})
    return 0


def _cmd_zeta(args) -> int:
    from .transforms_numeric import zeta_formal_series

    s = _float_flag(args.s, "--s")
    partial, terms = zeta_formal_series(s, args.terms)
    _emit({"s": s, "terms_requested": args.terms, "partial_sum": partial,
           "terms": terms,
           "note": "formal rising-factorial series; the partial sums need "
                   "not approach zeta(s)"})
    return 0


def _cmd_verify(args) -> int:
    from . import verify_suite

    reports = verify_suite.run_all(filter=args.filter, seed=args.seed)
    if not reports:
        print(f"no checks match filter {args.filter!r}", file=sys.stderr)
        return 1
    print(verify_suite.render_text(reports))
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump([r.to_dict() for r in reports], fh, indent=2)
    return 0 if all(r.status == "pass" for r in reports) else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="ftcalc",
                                 description="factorial-basis transform calculator")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("convert", help="change polynomial basis")
    p.add_argument("input", help="polynomial JSON (inline or file path)")
    p.add_argument("--to", required=True, choices=["monomial", "falling", "rising"])
    p.set_defaults(fn=_cmd_convert)

    p = sub.add_parser("transform", help="apply a transform")
    p.add_argument("input", nargs="?", help="polynomial JSON for the exact path")
    p.add_argument("--op", required=True, choices=["fft", "ifft", "rft", "irft"])
    p.add_argument("--numeric", action="store_true",
                   help="numeric evaluation of a named source at a point")
    p.add_argument("--source", help="exp(a) | sin(w) | cos(w) | geometric(r) | gamma-samples")
    p.add_argument("--at", help="evaluation argument (rational or decimal)")
    p.add_argument("--truncation", type=int, default=64, help="series truncation bound")
    p.add_argument("--scheme", default="gauss_laguerre",
                   choices=["gauss_laguerre", "adaptive_fallback", "tanh_sinh"])
    p.set_defaults(fn=_cmd_transform)

    p = sub.add_parser("special", help="special polynomials and numbers")
    p.add_argument("--family", required=True,
                   choices=["touchard", "z", "laguerre", "charlier",
                            "stirling1", "stirling2", "bernoulli"])
    p.add_argument("--n", required=True, type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--alpha", help="Laguerre parameter (rational)")
    p.add_argument("--a", help="Charlier parameter (rational, nonzero)")
    p.add_argument("--x", help="Charlier argument (rational)")
    p.set_defaults(fn=_cmd_special)

    p = sub.add_parser("fractional", help="fractional derivative or difference")
    p.add_argument("--kind", required=True, choices=["derivative", "difference"])
    p.add_argument("--order", required=True, help="fractional order (rational or decimal)")
    p.add_argument("--at", default="0", help="expansion/evaluation point")
    p.add_argument("--source", required=True,
                   help="exp(a) | sin(w) | cos(w) | geometric(r)")
    p.add_argument("--truncation", type=int, default=64)
    p.set_defaults(fn=_cmd_fractional)

    p = sub.add_parser("zeta", help="formal zeta series terms (informational)")
    p.add_argument("--s", required=True, help="argument (not 1)")
    p.add_argument("--terms", type=int, default=8)
    p.set_defaults(fn=_cmd_zeta)

    p = sub.add_parser("verify", help="run the identity check suite")
    p.add_argument("--filter", help="glob over check names")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", help="also write the report list to this path")
    p.set_defaults(fn=_cmd_verify)
    return ap


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except (ValueError, ArithmeticError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
