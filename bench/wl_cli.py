"""cli_cold: one fresh `python -m ftcalc.cli` process per invocation.

This is the only workload that pays the imports on every op, and it also
rebuilds the Stirling and Bernoulli tables and the Gauss-Laguerre rules
from empty in each process. Each output is compared with the same call made
in this process, outside the timed region.
"""

from __future__ import annotations

import fnmatch
import json
from fractions import Fraction
from random import Random

import harness
from wl_exact import rand_poly

SIZES = {
    "full": {"degree": 20, "stirling_n": 300, "bernoulli_n": 200, "filter": "table3_*"},
    "tiny": {"degree": 4, "stirling_n": 30, "bernoulli_n": 20, "filter": "table3_monomial_row"},
}
SETUP_CODE = "import ftcalc.cli"


def setup(size: str = "full") -> None:
    """A warm interpreter in this process is only needed for the in-process
    comparisons; the timed set-up is a fresh interpreter importing the CLI."""
    import ftcalc.cli  # noqa: F401


def _invocations(rng: Random, size: str) -> list[tuple[str, list[str], object]]:
    """(subcommand label, CLI arguments, check of the parsed stdout)."""
    from ftcalc import combinatorics as comb
    from ftcalc import polynomial as poly
    from ftcalc import transforms_exact as te
    from ftcalc import transforms_numeric as tn
    from ftcalc import verify_suite as vs
    import wl_numeric

    cfg = SIZES[size]
    out = []

    p = rand_poly(rng, rng.choice(("monomial", "falling", "rising")), cfg["degree"])
    target = rng.choice([b for b in ("monomial", "falling", "rising") if b != p.basis.value])
    want = poly.convert_basis(p, target).to_json()
    out.append(("convert", ["convert", json.dumps(p.to_json()), "--to", target],
                lambda text, want=want: json.loads(text) == want))

    q = rand_poly(rng, rng.choice(("monomial", "falling", "rising")), cfg["degree"])
    op = rng.choice(("fft", "ifft", "rft", "irft"))
    want = getattr(te, f"{op}_poly")(q).to_json()
    out.append(("transform_exact", ["transform", json.dumps(q.to_json()), "--op", op],
                lambda text, want=want: json.loads(text) == want))

    a = rng.choice(("1/2", "1/3"))
    s = rng.choice(("0.3", "1/3", "2.7"))
    want = float(tn.fft_fn(tn.taylor_source(wl_numeric.taylor_of("exp", Fraction(a))),
                           float(Fraction(s))))
    out.append(("transform_numeric_fft",
                ["transform", "--numeric", "--op", "fft", "--source", f"exp({a})", "--at", s],
                lambda text, want=want: json.loads(text)["value"] == want))

    s = rng.choice(("0.5", "1.5", "2.7"))
    want = float(tn.rft_fn(wl_numeric.callable_of("exp", -0.5), float(Fraction(s))))
    out.append(("transform_numeric_rft",
                ["transform", "--numeric", "--op", "rft", "--source", "exp(-1/2)", "--at", s],
                lambda text, want=want: json.loads(text)["value"] == want))

    n = cfg["stirling_n"]
    k = rng.randint(1, n - 1)
    want = str(comb.stirling_second(n, k))
    out.append(("special_stirling2",
                ["special", "--family", "stirling2", "--n", str(n), "--k", str(k)],
                lambda text, want=want: json.loads(text)["value"] == want))

    n = cfg["bernoulli_n"]
    want = str(comb.bernoulli(n))
    out.append(("special_bernoulli", ["special", "--family", "bernoulli", "--n", str(n)],
                lambda text, want=want: json.loads(text)["value"] == want))

    order = rng.choice(("0.5", "0.3"))
    a = rng.choice(("1/2", "2/3"))
    want = float(tn.fractional_derivative(
        tn.taylor_source(wl_numeric.taylor_of("exp", Fraction(a))), float(Fraction(order)),
        Fraction(0)))
    out.append(("fractional",
                ["fractional", "--kind", "derivative", "--order", order, "--source", f"exp({a})"],
                lambda text, want=want: json.loads(text)["value"] == want))

    zs = rng.choice(("2", "3", "5/2"))
    want = tn.zeta_formal_series(float(Fraction(zs)), 8)
    out.append(("zeta", ["zeta", "--s", zs, "--terms", "8"],
                lambda text, want=want: (json.loads(text)["partial_sum"], json.loads(text)["terms"])
                == (want[0], want[1])))

    pattern = cfg["filter"]
    count = sum(1 for spec in vs.list_checks() if fnmatch.fnmatchcase(spec.name, pattern))
    out.append(("verify_filter", ["verify", "--filter", pattern],
                lambda text, count=count: text.strip().splitlines()[-1]
                == f"{count}/{count} checks passed"))
    return out


def make_pass(rec, seed: int, size: str = "full"):
    def one_pass(index: int) -> None:
        rng = Random(f"cli_cold:{seed}:{index}")
        for label, args, check in _invocations(rng, size):
            rec.call(f"cli.cold.{label}", lambda args=args: _invoke(args),
                     lambda text, check=check: check(text))

    return one_pass


def _invoke(args: list[str]) -> str:
    proc = harness.run_child(["-m", "ftcalc.cli", *args])
    if proc.returncode != 0:
        raise RuntimeError(f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
    return proc.stdout


IMPORT_MODULES = ("combinatorics", "polynomial", "special_polynomials", "transforms_exact",
                  "transforms_numeric", "verify_suite", "cli")


def import_probe(rec) -> None:
    """cli.import.<module>: a fresh interpreter importing one module;
    cli.interpreter: a fresh interpreter doing nothing."""
    rec.call("cli.interpreter", lambda: harness.child_interval("pass"), bool)
    for mod in IMPORT_MODULES:
        rec.call(f"cli.import.{mod}", lambda mod=mod: harness.child_interval(f"import ftcalc.{mod}"),
                 bool)
