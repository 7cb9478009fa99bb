"""suite: one serial pass of every registered identity check, as
`ftcalc verify` runs it.

The checks sample their inputs from the verify seed, and their cost follows
the sampled degrees: serial passes at verify seeds 1-4 took 14.8-19.4 s on a
2-core machine. So every pass runs what `ftcalc verify` runs: verify seed 0,
in registry order (the order decides which check first grows the shared
combinatorial tables and quadrature rules). The benchmark seed changes
nothing here; runs at different seeds repeat the same work.
"""

from __future__ import annotations

# the checks that per-layer metrics name, plus cheap ones of both layers: the
# suite at the size the benchmark's own tests use
TINY_CHECKS = ("eq1_fft_definition", "eq10_reflection", "eq5_newton_sum_duality",
               "eq31_32_shifted_reconstruction", "eq69_fractional_derivative",
               "eq48_53_conv_egf_product", "eq29_30_series_reconstruction",
               "eq60_61_integer_chain", "eq25_operator_expansion", "eq89_expansion_info")
VERIFY_SEED = 0
# A pass takes about half a run; a second one would reuse the combinatorial
# tables the first built and measure different work.
MAX_PASSES = 1


def setup(size: str = "full") -> None:
    from ftcalc import verify_suite  # noqa: F401


def make_pass(rec, seed: int, size: str = "full"):
    from ftcalc import verify_suite as vs

    names = [spec.name for spec in vs.list_checks()]
    if size == "tiny":
        names = [n for n in names if n in TINY_CHECKS]

    def one_pass(index: int) -> None:
        for name in names:
            rec.call(f"verify_suite.check.{name}", lambda: vs.run_check(name, VERIFY_SEED),
                     lambda r: r.status == "pass")

    return one_pass


def check_layers() -> dict[str, str]:
    """Check name -> "exact" or "numeric"."""
    from ftcalc import verify_suite as vs
    return {spec.name: spec.layer for spec in vs.list_checks()}
