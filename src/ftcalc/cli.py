"""Command-line frontend.

Subcommands: convert (basis changes), transform (exact polynomial or numeric
source transforms), special (named polynomial families and number sequences),
fractional (derivative/difference), zeta (formal series terms), verify (the
identity check suite).

Polynomial input is either inline JSON or a path to a JSON file; rational
values print as strings so exact output survives a round trip. Exit codes:
0 success (verify: all checks passed), 1 mathematical failure or failing
checks, 2 usage errors, a flag its subcommand needs among them.

Importing this module loads no ftcalc layer; each subcommand imports the
layers it runs when it runs. convert, exact transform, the touchard, z,
laguerre and charlier families and verify load the polynomial layer. The
numeric transform, fractional and zeta load only the numeric layer and the
combinatorial tables under it, and the stirling1, stirling2 and bernoulli
numbers only the tables. Only tanh-sinh quadrature and the
six checks that need it (eq8_mellin_consistency, eq24_summation_integral,
eq67_laplace_rft and eq67_last_argument_info, which reads its values,
table2_row1_power_shift and eq90_91_zeta_info) load mpmath. A --source spec
is read by the numeric layer's NamedSource, imported with it.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction


class _UsageError(ValueError):
    """A flag or argument its subcommand needs is missing: exit 2, as for
    the errors argparse finds."""


def _read_polynomial(spec: str):
    """The BasisPolynomial given inline as JSON or in the JSON file spec names."""
    from .polynomial import BasisPolynomial

    if spec.lstrip().startswith("{"):
        raw = spec
    else:
        with open(spec, "r", encoding="utf-8") as fh:
            raw = fh.read()
    return BasisPolynomial.from_json(json.loads(raw))


def _emit(obj) -> None:
    # a NaN or infinity would print as a JavaScript literal, which is not JSON
    print(json.dumps(obj, indent=2, allow_nan=False))


def _rational_flag(text: str, flag: str) -> Fraction:
    """The exact value of a rational or decimal flag; the error names the flag."""
    from .combinatorics import _argument_ratio

    try:
        return Fraction(*_argument_ratio(text, flag))
    except ValueError:
        raise ValueError(f"{flag} needs a rational or decimal, got {text!r}") from None


def _join_negative_values(argv: list[str]) -> list[str]:
    """argv with each token that reads as a negative number, such as -1/2 or
    -1e-3, joined to the --flag before it as --flag=value: argparse takes it for a flag."""
    out: list[str] = []
    for token in argv:
        flag = out[-1] if out else ""
        if flag[:2] == "--" and len(flag) > 2 and "=" not in flag and token[:1] == "-":
            try:
                _rational_flag(token, flag)
            except ValueError:
                pass
            else:
                out[-1] = f"{flag}={token}"
                continue
        out.append(token)
    return out


def _float_flag(text: str, flag: str) -> float:
    """_rational_flag's value rounded to a float; the error names the flag."""
    try:
        return float(_rational_flag(text, flag))
    except (ValueError, OverflowError):
        raise ValueError(f"{flag} needs a rational or decimal within the float range, "
                         f"got {text!r}") from None


def _int_flag(low: int):
    """An argparse type for an int flag of at least low, so that a value out
    of range is a usage error that names the flag, as a non-int one is."""
    def read(text: str) -> int:
        if (value := int(text)) < low:
            raise argparse.ArgumentTypeError(f"needs an int >= {low}, got {value}")
        return value
    read.__name__ = "int"  # argparse's message for a non-int: "invalid int value"
    return read


def _cmd_convert(args) -> int:
    from .polynomial import Basis, convert_basis

    p = _read_polynomial(args.input)
    _emit(convert_basis(p, Basis(args.to)).to_json())
    return 0


def _cmd_transform(args) -> int:
    if not args.numeric:
        if args.input is None:
            raise _UsageError("exact transform needs a polynomial argument")
        from . import transforms_exact

        p = _read_polynomial(args.input)
        _emit(getattr(transforms_exact, f"{args.op}_poly")(p).to_json())
        return 0

    if args.source is None or args.at is None:
        raise _UsageError("--numeric requires --source and --at")
    from .transforms_numeric import NamedSource, NumericConfig, fft_fn, ifft_fn, irft_fn, rft_fn

    src = NamedSource(args.source)
    cfg = NumericConfig(truncation_N=args.truncation)
    s = _float_flag(args.at, "--at")
    if args.op == "fft":
        value = fft_fn(src.taylor(), s, cfg)
    elif args.op == "ifft":
        value = ifft_fn(src.samples(), s, cfg)
    elif args.op == "irft":
        if src.kind == "gamma-samples":
            raise ValueError("irft reads its source at t = -1, -2, ...; gamma-samples is "
                             "Gamma(t+1), which has a pole at t = -1")
        value = irft_fn(src.callable(), s, cfg)
    else:
        value = rft_fn(src.callable(), s, args.scheme)
    _emit({"op": args.op, "source": args.source, "at": s,
           "value": float(value), "error_estimate": value.error_estimate})
    return 0


def _cmd_special(args) -> int:
    fam = args.family
    n = args.n
    if fam in ("stirling1", "stirling2") and args.k is None:
        raise _UsageError(f"{fam} needs --k")
    if fam == "charlier" and (args.x is None or args.a is None):
        raise _UsageError("charlier needs --x and --a")
    if fam in ("stirling1", "stirling2", "bernoulli"):
        from .combinatorics import bernoulli, stirling_first_signed, stirling_second
    else:
        from .special_polynomials import charlier, laguerre, touchard, z_poly

    if fam == "touchard":
        _emit(touchard(n).to_json())
    elif fam == "z":
        _emit(z_poly(n).to_json())
    elif fam == "laguerre":
        alpha = _rational_flag(args.alpha, "--alpha") if args.alpha is not None else 0
        _emit(laguerre(n, alpha).to_json())
    elif fam == "charlier":
        v = charlier(n, _rational_flag(args.x, "--x"), _rational_flag(args.a, "--a"))
        _emit({"family": "charlier", "n": n, "x": args.x, "a": args.a, "value": str(v)})
    elif fam == "stirling1":
        _emit({"family": "stirling1", "n": n, "k": args.k,
               "value": str(stirling_first_signed(n, args.k)),
               "note": "signed convention"})
    elif fam == "stirling2":
        _emit({"family": "stirling2", "n": n, "k": args.k,
               "value": str(stirling_second(n, args.k))})
    else:  # bernoulli
        _emit({"family": "bernoulli", "n": n, "value": str(bernoulli(n))})
    return 0


def _cmd_fractional(args) -> int:
    from .transforms_numeric import (
        NamedSource, NumericConfig, fractional_derivative, fractional_difference,
    )

    src = NamedSource(args.source)
    cfg = NumericConfig(truncation_N=args.truncation)
    order = _float_flag(args.order, "--order")
    at = _float_flag(args.at, "--at")
    if args.kind == "derivative":
        value = fractional_derivative(src.taylor(), order, _rational_flag(args.at, "--at"), cfg)
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
            rows = [r.to_dict() for r in reports]
            for row in rows:  # strict JSON has no inf (an error report) or NaN (a NaN gap)
                if not math.isfinite(row["max_abs_error"]):
                    row["max_abs_error"] = None
            json.dump(rows, fh, indent=2, allow_nan=False)
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
    p.add_argument("--truncation", type=_int_flag(1), default=64, help="series truncation bound")
    p.add_argument("--scheme", default="gauss_laguerre",
                   choices=["gauss_laguerre", "tanh_sinh"])
    p.set_defaults(fn=_cmd_transform)

    p = sub.add_parser("special", help="special polynomials and numbers")
    p.add_argument("--family", required=True,
                   choices=["touchard", "z", "laguerre", "charlier",
                            "stirling1", "stirling2", "bernoulli"])
    p.add_argument("--n", required=True, type=_int_flag(0))
    p.add_argument("--k", type=_int_flag(0))
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
    p.add_argument("--truncation", type=_int_flag(1), default=64, help="series truncation bound")
    p.set_defaults(fn=_cmd_fractional)

    p = sub.add_parser("zeta", help="formal zeta series terms (informational)")
    p.add_argument("--s", required=True, help="argument (not 1)")
    p.add_argument("--terms", type=_int_flag(1), default=8)
    p.set_defaults(fn=_cmd_zeta)

    p = sub.add_parser("verify", help="run the identity check suite")
    p.add_argument("--filter", help="glob over check names")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", help="also write the report list to this path")
    p.set_defaults(fn=_cmd_verify)
    return ap


def main(argv=None) -> int:
    if hasattr(sys, "set_int_max_str_digits"):
        # the process prints and parses exact values whole, past the
        # 4300-digit int <-> str cap of CPython 3.10.7+ and 3.11
        sys.set_int_max_str_digits(0)
    parser = build_parser()
    try:
        args = parser.parse_args(_join_negative_values(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except (ValueError, ArithmeticError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, _UsageError) else 1


if __name__ == "__main__":
    sys.exit(main())
