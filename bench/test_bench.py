"""The benchmark's own tests: metric names, oracles and the refusal to run
without sources. Run with `python -m pytest bench` from the checkout root;
the tiny-size runs take about two minutes on a 2-core machine."""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import harness
import oracles as O
import run

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _tiny(workload: str, trace: int) -> dict:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = run.main(["--workload", workload, "--seed", "3", "--seconds", "1",
                       "--trace", str(trace)], size="tiny")
    assert rc == 0
    lines = buf.getvalue().strip().splitlines()
    header = json.loads(lines[-2])["header"]
    assert header["workload"] == workload and header["seed"] == 3
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_emits_end_to_end_metrics(workload):
    result = _tiny(workload, 0)
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert result["correct"] and result["attempted"] >= 1
    if workload == "numeric_eval":
        # the two known OverflowError defects are kept in the mix
        assert result["failed"] >= 2
    else:
        assert result["failed"] == 0


def test_tiny_traced_run_emits_per_layer_metrics():
    result = _tiny("numeric_eval", 1)
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    spans = (run.OUT_DIR / "spans-numeric_eval-seed3.jsonl").read_text().splitlines()
    first = json.loads(spans[0])
    assert set(first) == {"span_id", "parent", "name", "op_id", "start", "end"}


def _poly(basis, coeffs):
    from ftcalc.polynomial import BasisPolynomial
    return BasisPolynomial(basis, coeffs)


def test_exact_oracle_flags_a_perturbed_coefficient():
    from ftcalc.polynomial import apply_operator, convert_basis, OperatorExpr
    p = _poly("monomial", [Fraction(n % 7 - 3, n % 5 + 1) for n in range(12)])
    x = 123456789
    good = convert_basis(p, "falling")
    assert O.pval(good, x) == O.pval(p, x)
    coeffs = list(good.coeffs)
    coeffs[5] += Fraction(1, 10**9)
    assert O.pval(_poly("falling", coeffs), x) != O.pval(p, x)

    op = apply_operator(OperatorExpr("exp_shift", a=Fraction(2, 3)), p)
    assert O.pval(op, x) == O.operator_value("exp_shift", Fraction(2, 3), p, x)
    bent = list(op.coeffs)
    bent[0] -= 1
    assert O.pval(_poly("monomial", bent), x) != O.operator_value(
        "exp_shift", Fraction(2, 3), p, x)


def test_numeric_oracle_flags_a_wrong_value():
    ref = 2.0 ** 0.3
    assert O.close(ref + 1e-12, ref, 1e-9)
    assert not O.close(ref * (1 + 1e-7), ref, 1e-9)
    assert not O.close(float("nan"), ref, 1e-9)
    rec = harness.Recorder(harness.Tracer(False))
    rec.call("transforms_numeric.fft_fn.nondyadic", lambda: ref * 1.001,
             lambda v: O.close(v, ref, 1e-9))
    rec.call("transforms_numeric.fft_fn.nondyadic", lambda: 1 / 0, lambda v: True)
    wrong, raised = rec.ops
    assert not wrong.ok and wrong.wrong
    assert not raised.ok and not raised.wrong and raised.detail.startswith("ZeroDivisionError")


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload", "suite",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""
