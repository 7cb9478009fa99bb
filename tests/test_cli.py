"""End-to-end tests for the command line interface.

main() is driven in-process with argv lists; stdout is parsed back as JSON
where the command emits JSON. Exit code conventions: 0 success, 1 math or
verification failure, 2 usage error.
"""

import json
import math
import os
import subprocess
import sys

import pytest

import ftcalc
from ftcalc.cli import main

X_SQUARED = '{"basis":"monomial","coeffs":["0","0","1"]}'


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def loads(text):
    """json.loads without the NaN and Infinity literals that it accepts by default."""
    return json.loads(text, parse_constant=_reject_constant)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_convert_monomial_to_falling(capsys):
    code, out, _ = run(capsys, "convert", X_SQUARED, "--to", "falling")
    assert code == 0
    assert loads(out) == {"basis": "falling", "coeffs": ["0", "1", "1"]}


def test_convert_roundtrip_byte_identical(capsys):
    """Converting out and back reproduces the canonical output exactly."""
    code, fwd, _ = run(capsys, "convert", X_SQUARED, "--to", "falling")
    assert code == 0
    code, back, _ = run(capsys, "convert", fwd, "--to", "monomial")
    assert code == 0
    code, direct, _ = run(capsys, "convert", X_SQUARED, "--to", "monomial")
    assert code == 0
    assert back == direct


def test_convert_reads_polynomial_from_file(capsys, tmp_path):
    path = tmp_path / "p.json"
    path.write_text(X_SQUARED, encoding="utf-8")
    code, out, _ = run(capsys, "convert", str(path), "--to", "rising")
    assert code == 0
    assert loads(out) == {"basis": "rising", "coeffs": ["0", "-1", "1"]}


def test_convert_missing_file_is_error(capsys):
    code, _, err = run(capsys, "convert", "/no/such/file.json", "--to", "falling")
    assert code == 1
    assert "error:" in err


def test_convert_malformed_json_is_error(capsys):
    code, _, err = run(capsys, "convert", '{"basis": "monomial"', "--to", "falling")
    assert code == 1
    assert "error:" in err


def test_transform_fft_exact(capsys):
    code, out, _ = run(capsys, "transform", X_SQUARED, "--op", "fft")
    assert code == 0
    assert loads(out) == {"basis": "falling", "coeffs": ["0", "0", "1"]}


def test_transform_ifft_inverts_fft(capsys):
    _, fft_out, _ = run(capsys, "transform", X_SQUARED, "--op", "fft")
    code, back, _ = run(capsys, "transform", fft_out, "--op", "ifft")
    assert code == 0
    assert loads(back) == json.loads(X_SQUARED)


def test_transform_exact_requires_polynomial(capsys):
    code, _, err = run(capsys, "transform", "--op", "fft")
    assert code == 1
    assert "polynomial" in err


def test_transform_numeric_ifft_gamma(capsys):
    code, out, _ = run(capsys, "transform", "--numeric", "--op", "ifft",
                       "--source", "gamma-samples", "--at", "0.5", "--truncation", "256")
    assert code == 0
    blob = loads(out)
    assert blob["op"] == "ifft"
    assert abs(blob["value"] - math.exp(-0.5) / 0.5) < 1e-9
    assert blob["error_estimate"] >= 0.0


def test_transform_numeric_fft_exp(capsys):
    code, out, _ = run(capsys, "transform", "--numeric", "--op", "fft",
                       "--source", "exp(1)", "--at", "1/2")
    assert code == 0
    assert abs(loads(out)["value"] - math.sqrt(2.0)) < 1e-10


def test_transform_numeric_rft_scheme_flag(capsys):
    code, out, _ = run(capsys, "transform", "--numeric", "--op", "rft",
                       "--source", "exp(-1)", "--at", "1.5", "--scheme", "tanh_sinh")
    assert code == 0
    assert abs(loads(out)["value"] - 2.0 ** -1.5) < 1e-7


def test_transform_numeric_rft_past_gamma_range_is_error(capsys):
    """Gamma(200) overflows a float: a named limit, not a bare math range error."""
    code, out, err = run(capsys, "transform", "--numeric", "--op", "rft",
                         "--source", "exp(-1/2)", "--at", "200")
    assert code == 1
    assert out == ""
    assert "math range error" not in err
    assert "171.62" in err


def test_transform_numeric_rft_divergent_integrand_is_error(capsys):
    """e^(2t) overflows a float at the large nodes of the default scheme."""
    code, out, err = run(capsys, "transform", "--numeric", "--op", "rft",
                         "--source", "exp(2)", "--at", "1.5")
    assert code == 1
    assert out == ""
    assert "gauss_laguerre: the integrand overflows" in err


def test_transform_numeric_rft_tanh_sinh_overflow_is_error(capsys):
    """The float e^(t/2) overflows at tanh-sinh's far nodes."""
    code, out, err = run(capsys, "transform", "--numeric", "--op", "rft",
                         "--source", "exp(1/2)", "--at", "1.5", "--scheme", "tanh_sinh")
    assert code == 1
    assert out == ""
    assert "tanh_sinh: the integrand overflows" in err


def test_transform_numeric_needs_source_and_at(capsys):
    code, _, err = run(capsys, "transform", "--numeric", "--op", "fft")
    assert code == 1
    assert "--source" in err


def test_transform_numeric_divergent_is_error_not_traceback(capsys):
    code, _, err = run(capsys, "transform", "--numeric", "--op", "ifft",
                       "--source", "gamma-samples", "--at", "1.5")
    assert code == 1
    assert "error:" in err


@pytest.mark.parametrize("argv, flag", [
    (("transform", "--numeric", "--op", "rft", "--source", "exp(-1)", "--at", "1e400"), "--at"),
    (("fractional", "--kind", "derivative", "--order", "1e400", "--source", "exp(1)"),
     "--order"),
    (("fractional", "--kind", "difference", "--order", "0.5", "--source", "exp(1)",
      "--at", "1e400"), "--at"),
    (("zeta", "--s", "1e400"), "--s"),
    (("zeta", "--s", "1/0"), "--s"),
])
def test_number_flag_out_of_float_range_names_the_flag(capsys, argv, flag):
    """A numeric flag whose value has no float is refused with the flag's name,
    not a bare conversion message."""
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: {flag} needs a rational or decimal within the float range")
    assert "too large" not in err


@pytest.mark.parametrize("argv, flag", [
    (("special", "--family", "charlier", "--n", "2", "--x", "1/0", "--a", "1"), "--x"),
    (("special", "--family", "charlier", "--n", "2", "--x", "abc", "--a", "1"), "--x"),
    (("special", "--family", "charlier", "--n", "2", "--x", "3", "--a", "1/0"), "--a"),
    (("special", "--family", "laguerre", "--n", "2", "--alpha", "abc"), "--alpha"),
])
def test_rational_flag_names_the_flag(capsys, argv, flag):
    """An unreadable rational flag of special is refused with the flag's name."""
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: {flag} needs a rational or decimal, got")


@pytest.mark.parametrize("argv", [
    ("transform", "--numeric", "--op", "irft", "--source", "exp(1e400)", "--at", "0.5"),
    ("transform", "--numeric", "--op", "ifft", "--source", "exp(1e400)", "--at", "0.5"),
    ("transform", "--numeric", "--op", "rft", "--source", "exp(1e400)", "--at", "0.5"),
    ("fractional", "--kind", "difference", "--order", "0.5", "--source", "exp(1e400)"),
])
def test_source_parameter_out_of_float_range_names_the_source(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err == "error: source 'exp(1e400)' has a parameter outside the float range\n"


def test_scheme_flag_offers_no_adaptive_fallback(capsys):
    """The command line offers the two schemes by their own names, not rft_fn's
    alias 'adaptive_fallback' for gauss_laguerre."""
    code, out, _ = run(capsys, "transform", "--numeric", "--op", "rft", "--source", "cos(1)",
                       "--at", "1e-14", "--scheme", "adaptive_fallback")
    assert code == 2
    assert out == ""


def test_transform_numeric_irft_gamma_samples_names_the_pole(capsys):
    """irft reads the source at t = -1, where Gamma(t+1) has its pole."""
    code, out, err = run(capsys, "transform", "--numeric", "--op", "irft",
                         "--source", "gamma-samples", "--at", "0.5")
    assert code == 1
    assert out == ""
    assert "pole at t = -1" in err
    assert "math domain error" not in err


def test_bad_source_spec(capsys):
    code, _, err = run(capsys, "fractional", "--kind", "derivative",
                       "--order", "0.5", "--source", "sinh(1)")
    assert code == 1
    assert "error:" in err


def test_special_touchard(capsys):
    code, out, _ = run(capsys, "special", "--family", "touchard", "--n", "2")
    assert code == 0
    assert loads(out) == {"basis": "monomial", "coeffs": ["0", "1", "1"]}


def test_special_laguerre_rational_alpha(capsys):
    code, out, _ = run(capsys, "special", "--family", "laguerre", "--n", "2",
                       "--alpha", "1/2")
    assert code == 0
    assert loads(out)["coeffs"] == ["15/8", "-5/2", "1/2"]


def test_special_charlier_value(capsys):
    code, out, _ = run(capsys, "special", "--family", "charlier", "--n", "2",
                       "--x", "3", "--a", "1")
    assert code == 0
    assert loads(out)["value"] == "1"


def test_special_charlier_missing_params(capsys):
    code, _, err = run(capsys, "special", "--family", "charlier", "--n", "2")
    assert code == 1
    assert "charlier" in err


def test_special_stirling_and_bernoulli(capsys):
    code, out, _ = run(capsys, "special", "--family", "stirling2", "--n", "4", "--k", "2")
    assert code == 0
    assert loads(out)["value"] == "7"
    code, out, _ = run(capsys, "special", "--family", "stirling1", "--n", "4", "--k", "3")
    assert code == 0
    assert loads(out)["value"] == "-6"
    code, out, _ = run(capsys, "special", "--family", "bernoulli", "--n", "12")
    assert code == 0
    assert loads(out)["value"] == "-691/2730"


def test_special_unknown_family_is_usage_error(capsys):
    code, _, _ = run(capsys, "special", "--family", "hermite", "--n", "2")
    assert code == 2


def test_fractional_derivative_sqrt2(capsys):
    code, out, _ = run(capsys, "fractional", "--kind", "derivative",
                       "--order", "1/2", "--source", "exp(2)")
    assert code == 0
    assert abs(loads(out)["value"] - math.sqrt(2.0)) < 1e-10


def test_fractional_difference_unit(capsys):
    code, out, _ = run(capsys, "fractional", "--kind", "difference",
                       "--order", "0.5", "--source", "geometric(2)")
    assert code == 0
    assert abs(loads(out)["value"] - 1.0) < 1e-8


def test_fractional_difference_long_truncation(capsys):
    """Delta^(1/2) e^(u/2) at 0 is (e^(1/2) - 1)^(1/2), from 200 samples
    whose n! lie far past the float range."""
    code, out, _ = run(capsys, "fractional", "--kind", "difference", "--order", "0.5",
                       "--source", "exp(1/2)", "--truncation", "200")
    assert code == 0
    assert abs(loads(out)["value"] - math.sqrt(math.exp(0.5) - 1.0)) < 1e-10


def test_fractional_difference_overflowing_sample_is_error(capsys):
    code, out, err = run(capsys, "fractional", "--kind", "difference", "--order", "0.5",
                         "--source", "exp(20)")
    assert code == 1
    assert out == ""
    assert "fractional_difference: input 36 overflows a float" in err


def test_zeta_terms(capsys):
    code, out, _ = run(capsys, "zeta", "--s", "2", "--terms", "3")
    assert code == 0
    blob = loads(out)
    assert blob["terms_requested"] == 3
    assert len(blob["terms"]) == 3
    assert abs(blob["partial_sum"] + 1.0 / 3.0) < 1e-12
    assert "note" in blob


@pytest.mark.parametrize("argv,term", [(("--s", "2", "--terms", "260"), 259),
                                       (("--s", "1e300", "--terms", "5"), 3),
                                       (("--s", "2", "--terms", "300"), 259)])
def test_zeta_non_finite_term_is_error(capsys, argv, term):
    """Terms past the float range once printed NaN, or an fsum error, as output."""
    code, out, err = run(capsys, "zeta", *argv)
    assert code == 1
    assert out == ""
    assert f"zeta_formal_series: term {term} " in err


def test_zeta_terms_through_259_are_finite(capsys):
    code, out, _ = run(capsys, "zeta", "--s", "2", "--terms", "259")
    assert code == 0
    assert len(loads(out)["terms"]) == 259


def test_verify_single_check(capsys):
    code, out, _ = run(capsys, "verify", "--filter", "eq39*")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2
    assert "eq39_charlier_orthogonality" in lines[0]
    assert "PASS" in lines[0]
    assert lines[1] == "1/1 checks passed"


def test_verify_no_match_fails(capsys):
    code, _, err = run(capsys, "verify", "--filter", "zzz*")
    assert code == 1
    assert "no checks match" in err


def test_verify_json_report(capsys, tmp_path):
    path = tmp_path / "report.json"
    code, _, _ = run(capsys, "verify", "--filter", "eq1_*", "--json", str(path))
    assert code == 0
    blob = json.loads(path.read_text(encoding="utf-8"))
    assert isinstance(blob, list) and blob
    assert blob[0]["name"].startswith("eq1")
    assert all(r["status"] == "pass" for r in blob)


def test_usage_errors_exit_2(capsys):
    assert run(capsys, "transform", X_SQUARED, "--op", "laplace")[0] == 2
    assert run(capsys, "nonsense")[0] == 2
    assert run(capsys)[0] == 2


def test_console_entry_point_importable():
    from ftcalc import cli

    assert callable(cli.main)


def _loaded(code, modules):
    """Run code in one fresh interpreter; return which of the named modules
    are then loaded."""
    code += f"\nimport sys\nprint(sorted(m for m in {modules!r} if m in sys.modules))\n"
    src = os.path.dirname(os.path.dirname(ftcalc.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    return proc.stdout.splitlines()[-1]


def _loaded_after(argvs, modules):
    """Run each argv through main() in one fresh interpreter; return which
    of the named modules are then loaded."""
    code = "from ftcalc.cli import main\n"
    code += "".join(f"assert main({argv!r}) == 0\n" for argv in argvs)
    return _loaded(code, modules)


def test_numeric_layer_loads_no_exact_transforms():
    """transforms_numeric takes its integer kernels from polynomial alone."""
    assert _loaded("import ftcalc.transforms_numeric", ("ftcalc.transforms_exact",)) == "[]"


def test_exact_subcommands_load_no_numeric_layer():
    """convert, exact transform and special import neither scipy, mpmath nor the suite."""
    argvs = [["convert", X_SQUARED, "--to", "falling"],
             ["transform", X_SQUARED, "--op", "rft"],
             ["special", "--family", "touchard", "--n", "3"]]
    modules = ("scipy", "mpmath", "ftcalc.verify_suite", "ftcalc.transforms_numeric")
    assert _loaded_after(argvs, modules) == "[]"


@pytest.mark.parametrize("argv,loaded", [
    (["transform", "--numeric", "--op", "fft", "--source", "exp(1/2)", "--at", "0.3"], "[]"),
    (["transform", "--numeric", "--op", "rft", "--source", "exp(-1/2)", "--at", "1.5"], "[]"),
    (["fractional", "--kind", "derivative", "--order", "1/2", "--source", "exp(2)"], "[]"),
    (["zeta", "--s", "2", "--terms", "3"], "[]"),
    (["verify", "--filter", "table3_monomial_row"], "[]"),
    (["verify", "--filter", "eq67_laplace_rft"], "['mpmath']"),
])
def test_numeric_subcommands_load_no_scipy(argv, loaded):
    """Numeric subcommands never load scipy or numpy; only the checks that
    call it load mpmath (the default Gauss-Laguerre scheme does not)."""
    assert _loaded_after([argv], ("mpmath", "numpy", "scipy")) == loaded


@pytest.mark.parametrize("argv", [
    ["convert", X_SQUARED, "--to", "falling"],
    ["transform", X_SQUARED, "--op", "fft"],
    ["special", "--family", "laguerre", "--n", "3"],
    ["fractional", "--kind", "difference", "--order", "1/2", "--source", "exp(1/2)"],
    ["zeta", "--s", "2", "--terms", "3"],
    ["verify", "--filter", "table3_monomial_row"],
])
def test_subcommands_load_no_dataclasses(argv):
    """Records are declared without dataclasses, whose import pulls in inspect."""
    assert _loaded_after([argv], ("dataclasses", "inspect")) == "[]"
