"""ftcalc benchmark: four closed-loop workloads, one call or child process at
a time, every output checked.

    python3 bench/run.py --workload {suite,exact_highdeg,numeric_eval,cli_cold}
                         --seed N --seconds S --trace {0,1}

Run it from the root of a source checkout; ftcalc is imported from `src/`.
The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the line before it is the run
header. With `--trace 0` the metrics are the end-to-end ones of
BENCHMARK.json, with `--trace 1` the per-layer ones, and the spans are
written to `.bench_out/` at exit.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import harness  # noqa: E402

WORKLOADS = ("suite", "exact_highdeg", "numeric_eval", "cli_cold")
SETUP_REPEATS = 3
SETUP_MIN_S = 2.0
SETUP_MAX_REPEATS = 15
OUT_DIR = ROOT / ".bench_out"

SUITE_CHECK_METRICS = ("eq31_32_shifted_reconstruction", "eq69_fractional_derivative",
                       "eq48_53_conv_egf_product", "eq29_30_series_reconstruction",
                       "eq60_61_integer_chain", "eq25_operator_expansion", "eq89_expansion_info")
SPAN_LAYERS = ("polynomial", "transforms_exact", "special_polynomials", "transforms_numeric",
               "verify_suite", "cli")
NUMERIC_FAMILIES = ("fft_fn", "ifft_fn", "irft_fn", "rft_fn", "fractional")


def _module(workload: str):
    import wl_cli
    import wl_exact
    import wl_numeric
    import wl_suite
    return {"suite": wl_suite, "exact_highdeg": wl_exact, "numeric_eval": wl_numeric,
            "cli_cold": wl_cli}[workload]


def setup_seconds(workload: str, size: str, probe: "harness.SpeedProbe") -> tuple[float, float]:
    """Median (at reference speed, as measured) over fresh interpreters doing
    the workload's set-up: imports plus warm-up (tables, quadrature rules).
    Cheap set-ups are repeated more, until SETUP_MIN_S of wall time."""
    mod = _module(workload)
    code = getattr(mod, "SETUP_CODE", f"import {mod.__name__}; {mod.__name__}.setup({size!r})")
    runs: list[tuple[float, float]] = []
    t0 = time.perf_counter()
    while len(runs) < SETUP_REPEATS or (time.perf_counter() - t0 < SETUP_MIN_S
                                        and len(runs) < SETUP_MAX_REPEATS):
        runs.append(probe.scale(*harness.child_interval(code)))
    return (harness.median(scaled for _raw, scaled in runs),
            harness.median(raw for raw, _scaled in runs))


def measure(workload: str, seed: int, seconds: float, size: str,
            probe: "harness.SpeedProbe") -> tuple[dict, dict, list]:
    """The untraced run: end-to-end metrics, the same timings as wall time
    (for the header) and the recorded ops."""
    mod = _module(workload)
    setup_s, setup_raw = setup_seconds(workload, size, probe)
    mod.setup(size)
    rec = harness.Recorder(harness.Tracer(False), probe)
    passes = harness.run_passes(rec, mod.make_pass(rec, seed, size), seconds,
                                getattr(mod, "MIN_PASSES", 1), getattr(mod, "MAX_PASSES", None))
    rec.finalize()
    rss = harness.peak_rss_mb(children=workload == "cli_cold")
    return (_end_to_end(rec, passes, setup_s, rss, raw=False),
            _end_to_end(rec, passes, setup_raw, rss, raw=True), rec.ops)


def _end_to_end(rec, passes, setup_s: float, rss: float, raw: bool) -> dict:
    times_ms = [(op.raw if raw else op.seconds) * 1e3 for op in rec.ops]
    return {
        "setup_s": (setup_s, "s"),
        "work_s": (harness.median(harness.pass_seconds(rec, passes, raw)), "s"),
        "op_p50_ms": (harness.percentile(times_ms, 50), "ms"),
        "op_p90_ms": (harness.percentile(times_ms, 90), "ms"),
        "peak_rss_mb": (rss, "MB"),
    }


def _probe_child(probe: "harness.SpeedProbe") -> dict:
    """Cold-table costs, measured in a fresh interpreter so that nothing this
    process already built is reused; rescaled like every other timing."""
    code = (
        "import json, time\n"
        "from fractions import Fraction\n"
        "from ftcalc import combinatorics as c\n"
        "t = time.perf_counter(); c.stirling_second(300, 1); c.stirling_first_unsigned(300, 1)\n"
        "stir = time.perf_counter() - t\n"
        "t = time.perf_counter(); c.bernoulli(200); bern = time.perf_counter() - t\n"
        "ff = []\n"
        "for i in range(200):\n"
        "    t = time.perf_counter(); c.falling_factorial(Fraction(7, 3), 30)\n"
        "    ff.append(time.perf_counter() - t)\n"
        "from ftcalc import transforms_numeric as tn\n"
        "f = lambda u: 1.0\n"
        "t = time.perf_counter(); tn.rft_fn(f, 0.7); cold = time.perf_counter() - t\n"
        "t = time.perf_counter(); tn.rft_fn(f, 0.7); warm = time.perf_counter() - t\n"
        "print(json.dumps({'stir': stir, 'bern': bern, 'ff': sorted(ff)[100],\n"
        "                  'rules': cold - warm}))\n"
    )
    t0 = time.perf_counter()
    out = harness.child_json(code)
    slowdown = probe.factor(t0, time.perf_counter())
    return {k: v / slowdown for k, v in out.items()}


def traced(workload: str, seed: int, seconds: float, size: str,
           probe: "harness.SpeedProbe") -> tuple[dict, "harness.Recorder"]:
    """The traced run: the requested workload untraced and traced (their
    difference is the tracing overhead), then one traced pass of each other
    workload, so that every per-layer metric is measured in every traced run.
    Returns the per-layer metrics and the recorder holding ops and spans."""
    import wl_cli

    for name in WORKLOADS:
        _module(name).setup(size)
    budget = seconds / 4.0
    rec = harness.Recorder(harness.Tracer(False), probe)
    untraced = harness.run_passes(rec, _module(workload).make_pass(rec, seed, size), budget)

    rec.tracer = tracer = harness.Tracer(True)
    passes: dict[str, list[range]] = {}
    for name in WORKLOADS:
        one_pass = _module(name).make_pass(rec, seed, size)
        with tracer.span(f"bench.{name}"):
            passes[name] = harness.run_passes(rec, one_pass, budget if name == workload else 0.0)
    with tracer.span("bench.import_probe"):
        wl_cli.import_probe(rec)
    cold = _probe_child(probe)
    rec.finalize()
    return layer_metrics(workload, rec, untraced, passes, cold), rec


def layer_metrics(workload: str, rec: "harness.Recorder", untraced: list[range],
                  passes: dict[str, list[range]], cold: dict) -> dict:
    import wl_suite

    scale = lambda t0, t1: harness.rescale(rec.probe, t0, t1)[1]  # noqa: E731
    overhead = (harness.median(harness.pass_seconds(rec, passes[workload]))
                - harness.median(harness.pass_seconds(rec, untraced)))
    metrics: dict[str, tuple[float, str]] = {
        "combinatorics.stirling_grow_ms": (cold["stir"] * 1e3, "ms"),
        "combinatorics.bernoulli_grow_ms": (cold["bern"] * 1e3, "ms"),
        "combinatorics.falling_factorial_us": (cold["ff"] * 1e6, "us"),
        "transforms_numeric.rule_setup_ms": (cold["rules"] * 1e3, "ms"),
        "bench.trace_overhead_s": (overhead, "s"),
    }
    durations = rec.tracer.durations(scale)
    for name, spans in durations.items():
        if name.startswith("bench.") or name.startswith("verify_suite.check."):
            continue
        metrics[f"{name}_ms"] = (harness.median(spans) * 1e3, "ms")
    layers = wl_suite.check_layers()
    per_check = {name.rsplit(".", 1)[1]: harness.median(spans)
                 for name, spans in durations.items() if name.startswith("verify_suite.check.")}
    for kind in ("exact", "numeric"):
        metrics[f"verify_suite.{kind}_checks_s"] = (
            sum(t for n, t in per_check.items() if layers[n] == kind), "s")
    for name in SUITE_CHECK_METRICS:
        metrics[f"verify_suite.check.{name}_ms"] = (per_check[name] * 1e3, "ms")
    traced_ops = rec.ops[passes[WORKLOADS[0]][0].start:]
    for fam in NUMERIC_FAMILIES:
        ops = [op for op in traced_ops if op.name.startswith(f"transforms_numeric.{fam}")]
        metrics[f"transforms_numeric.{fam}.fail_ratio"] = (
            sum(not op.ok for op in ops) / len(ops), "ratio")
    selfs = rec.tracer.self_times(scale)
    for layer in SPAN_LAYERS:
        busy, calls = selfs[layer]
        metrics[f"{layer}.self_s"] = (busy / len(passes[_home(layer)]), "s")
        metrics[f"{layer}.calls"] = (calls, "count")
    return metrics


def _home(layer: str) -> str:
    """The workload whose passes a layer's self time is divided by."""
    return {"verify_suite": "suite", "transforms_numeric": "numeric_eval",
            "cli": "cli_cold"}.get(layer, "exact_highdeg")


def main(argv=None, size: str = "full") -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "ftcalc" / "__init__.py").is_file():
        print(f"error: no ftcalc sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2

    header = harness.run_header(args.workload, args.seed, args.seconds, bool(args.trace))
    t0 = time.perf_counter()
    with harness.SpeedProbe() as probe:
        if args.trace:
            metrics, rec = traced(args.workload, args.seed, args.seconds, size, probe)
            ops = rec.ops
        else:
            metrics, wall_metrics, ops = measure(args.workload, args.seed, args.seconds, size,
                                                 probe)
    if args.trace:
        rec.tracer.write(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl")
    else:
        header["wall_clock_metrics"] = {k: v for k, (v, _u) in wall_metrics.items()}
    if probe.durs:
        header["speed_factor"] = {"median": harness.median(probe.durs) / harness.KERNEL_REF_S,
                                  "min": min(probe.durs) / harness.KERNEL_REF_S,
                                  "samples": len(probe.durs)}
    header["wall_s"] = time.perf_counter() - t0
    header["loadavg_end"] = list(os.getloadavg())

    failed = [op for op in ops if not op.ok]
    seen: dict[tuple, int] = {}
    for op in failed:
        tag = "known defect" if op.known_defect and not op.wrong else "FAIL"
        key = (tag, op.name, op.detail)
        seen[key] = seen.get(key, 0) + 1
    for (tag, name, detail), count in seen.items():
        print(f"{tag} x{count}: {name}: {detail}", file=sys.stderr)
    correct = not any(op.wrong or not op.known_defect for op in failed)
    print(json.dumps({"header": header}))
    print(json.dumps({
        "correct": correct,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
