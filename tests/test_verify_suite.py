"""Tests for the verification harness itself.

The identities the checks encode are exercised elsewhere; here the contract
under test is the harness: registry coverage, deterministic reports, the
never-raise error channel, filtering and rendering.
"""

import json
import math
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ftcalc import verify_suite
from ftcalc.polynomial import Basis, convert_basis, monomial, poly
from ftcalc.verify_suite import (
    COVERAGE,
    CheckReport,
    CheckSpec,
    list_checks,
    render_text,
    run_all,
    run_check,
)


def test_registry_is_substantial():
    """Every row is registered: a row dropped from the table fails here."""
    specs = list_checks()
    assert len(specs) == 69
    assert all(isinstance(s, CheckSpec) for s in specs)
    names = [s.name for s in specs]
    assert len(names) == len(set(names))
    assert sum(s.layer == "exact" for s in specs) == 45
    assert sum(s.layer == "numeric" for s in specs) == 24
    info = {s.name for s in specs if s.config["tolerance"] is None}
    assert info == {"eq67_last_argument_info", "eq89_expansion_info", "eq90_91_zeta_info"}


def test_every_coverage_entry_is_registered():
    """Each mapped item points at real checks; no key is left unbacked."""
    registered = {s.name for s in list_checks()}
    assert COVERAGE, "coverage table must not be empty"
    for item, checks in COVERAGE.items():
        assert checks, f"{item} has no checks"
        for name in checks:
            assert name in registered, f"{item} names unknown check {name}"


def test_coverage_is_derived_from_the_check_names():
    """Each name says what it covers; four cross-links say what no name can."""
    assert len(COVERAGE) == 89
    assert COVERAGE["eq12"] == COVERAGE["eq13"] == ["eq12_13_linearity"]
    assert COVERAGE["eq91"] == ["eq91_bernoulli_structure", "eq90_91_zeta_info"]
    assert COVERAGE["table2_row1"] == ["table2_row1_power_shift"]
    assert COVERAGE["table3_gamma"] == ["table3_gamma_row"]
    assert COVERAGE["table3_gamma_y"] == ["table3_gamma_y_row"]
    assert COVERAGE["eq6"] == ["eq6_ifft_series", "table3_gamma_row"]
    assert COVERAGE["eq49"] == ["eq48_53_conv_egf_product"]
    assert COVERAGE["eq54"] == ["eq55_scaling"]
    assert COVERAGE["table3_complex_exp"] == ["table3_sin_row", "table3_cos_row"]


def test_register_refuses_a_name_that_covers_nothing():
    with pytest.raises(ValueError, match="covers no source item"):
        verify_suite._register("foo_check", "exact", "covers nothing", 0.0)(
            lambda rng, cfg: [])
    assert "foo_check" not in verify_suite._REGISTRY


def test_layers_are_known():
    assert {s.layer for s in list_checks()} <= {"exact", "numeric"}


def test_exact_checks_declare_zero_tolerance():
    for s in list_checks():
        tol = s.config.get("tolerance")
        if s.layer == "exact" and tol is not None:
            assert tol == 0.0


def test_run_check_unknown_name():
    with pytest.raises(KeyError):
        run_check("eq999_not_a_check")


def test_run_check_report_contract():
    r = run_check("eq1_fft_definition")
    assert isinstance(r, CheckReport)
    assert r.status == "pass"
    assert r.max_abs_error == 0.0
    assert r.tolerance == 0.0
    assert r.trials >= 1
    assert r.elapsed_ms >= 0.0
    assert r.layer == "exact"


def test_run_check_deterministic():
    """Same name and seed reproduce the same report apart from timing."""
    a = run_check("eq10_reflection", seed=7)
    b = run_check("eq10_reflection", seed=7)
    strip = lambda r: r._replace(elapsed_ms=0.0)
    assert strip(a) == strip(b)


def test_run_check_seed_changes_samples_not_verdict():
    for seed in (0, 1, 2):
        assert run_check("eq2_ifft_roundtrip", seed=seed).status == "pass"


def test_run_check_routes_exceptions_to_error_status(monkeypatch):
    """Math failures inside a check surface as reports, never as raises."""
    spec = CheckSpec(name="boom_check", layer="exact", config={"tolerance": 0.0},
                     description="synthetic failure")

    def boom(rng, cfg):
        raise ArithmeticError("synthetic blowup")

    monkeypatch.setitem(verify_suite._REGISTRY, "boom_check",
                        (spec, boom, lambda cfg: [()], None))
    r = run_check("boom_check")
    assert r.status == "error"
    assert r.max_abs_error == math.inf
    assert "ArithmeticError" in r.detail


def test_eq67_rows_share_their_quadratures(monkeypatch):
    """eq67 and its informational row read each tanh-sinh value once, and
    either row alone computes the values it needs."""
    calls = []

    def counted(*args):
        calls.append(args[1])
        return rft_fn(*args)

    rft_fn = verify_suite.rft_fn
    monkeypatch.setattr(verify_suite, "rft_fn", counted)
    verify_suite._laplace_rft.cache_clear()
    info = run_check("eq67_last_argument_info")
    assert info.status == "pass" and sorted(calls) == [0.25, 0.5]
    assert run_check("eq67_laplace_rft").status == "pass"
    assert sorted(calls) == [0.25, 0.5, 0.75]
    assert run_check("eq67_last_argument_info").detail == info.detail
    assert len(calls) == 3


def _run_synthetic(monkeypatch, layer, tolerance, lhs, rhs, before=()):
    """Register a one-trial row whose sides are lhs and rhs, after the pairs
    before, and run it."""
    spec = CheckSpec(name="synthetic_row", layer=layer, config={"tolerance": tolerance},
                     description="synthetic disagreement")
    body = lambda rng, cfg: [*before, (lhs, rhs)]
    monkeypatch.setitem(verify_suite._REGISTRY, "synthetic_row",
                        (spec, body, lambda cfg: [()], None))
    return run_check("synthetic_row")


def test_exact_row_with_a_gap_fails(monkeypatch):
    p = monomial([Fraction(1), Fraction(2, 3)])
    q = monomial([Fraction(1), Fraction(1, 3)])
    r = _run_synthetic(monkeypatch, "exact", 0.0, p, q)
    assert r.status == "fail"
    assert r.max_abs_error == 1 / 3
    assert r.trials == 1


def _ref_gap(p, q):
    """max |difference| of the monomial coefficients, 0 for none."""
    a, b = (convert_basis(x, Basis.MONOMIAL) for x in (p, q))
    return max((abs(a.coeff(k) - b.coeff(k)) for k in range(max(a.degree, b.degree) + 1)),
               default=Fraction(0))


gap_coeffs = st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=9), max_size=8)


@pytest.mark.parametrize("p_basis, q_basis", list(product(Basis, Basis)))
@given(a=gap_coeffs, b=gap_coeffs, equal=st.booleans())
def test_poly_gap_is_the_monomial_gap(p_basis, q_basis, a, b, equal):
    """The canonical-form shortcut gives the gap of the monomial forms, for
    equal pairs and for pairs that differ, in every ordered pair of bases."""
    p = poly(p_basis, a)
    q = convert_basis(p, q_basis) if equal else poly(q_basis, b)
    gap = verify_suite._poly_gap(p, q)
    assert gap == _ref_gap(p, q) and isinstance(gap, Fraction)


def test_exact_verdict_uses_the_exact_gap(monkeypatch):
    """A gap whose float is 0.0 still fails: the verdict reads the Fraction."""
    tiny = Fraction(1, 10 ** 400)
    assert float(tiny) == 0.0
    r = _run_synthetic(monkeypatch, "exact", 0.0, Fraction(1) + tiny, Fraction(1))
    assert r.status == "fail"
    assert r.max_abs_error == 0.0


def test_numeric_row_over_tolerance_fails(monkeypatch):
    r = _run_synthetic(monkeypatch, "numeric", 1e-9, 1.0, 1.0 + 1e-6)
    assert r.status == "fail"
    assert r.tolerance == 1e-9
    assert abs(r.max_abs_error - 1e-6) < 1e-12
    assert _run_synthetic(monkeypatch, "numeric", 1e-9, 1.0, 1.0).status == "pass"


def test_numeric_row_with_a_nan_gap_fails(monkeypatch):
    """max(0, nan) is 0: a NaN gap must fail the row, not vanish from it."""
    for pairs in ([(math.nan, 1.0)], [(1.0, 1.0), (math.nan, 1.0)],
                  [(math.nan, 1.0), (1.0, 1.0)]):
        r = _run_synthetic(monkeypatch, "numeric", 1e-9, *pairs[-1], pairs[:-1])
        assert r.status == "fail"
        assert math.isnan(r.max_abs_error)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_eq89_terms_past_45_round_away(monkeypatch, seed):
    """For x <= 2 the shifted pairs past k = 45 are below half an ulp of
    either sum, so 90 pairs report what the row's 45 do."""
    name = "eq89_expansion_info"
    spec, body, cases, note = verify_suite._REGISTRY[name]
    assert spec.config["terms"] == 45
    at_45 = run_check(name, seed)
    monkeypatch.setitem(verify_suite._REGISTRY, name,
                        (spec._replace(config={**spec.config, "terms": 90}), body, cases, note))
    at_90 = run_check(name, seed)
    assert at_45.status == at_90.status == "pass"
    assert at_45.detail == at_90.detail


def test_informational_checks_never_fail():
    r = run_check("eq90_91_zeta_info")
    assert r.informational
    assert r.status == "pass"
    assert r.tolerance is None
    assert r.detail


def test_run_all_filter():
    reports = run_all(filter="eq39*")
    assert [r.name for r in reports] == ["eq39_charlier_orthogonality"]
    assert run_all(filter="zzz_no_such*") == []


def test_run_all_filter_subset_matches_serial_runs():
    via_all = run_all(filter="table3_monomial_row")[0]
    direct = run_check("table3_monomial_row")
    assert via_all.name == direct.name
    assert via_all.status == direct.status
    assert via_all.max_abs_error == direct.max_abs_error


def test_report_to_dict_is_json_ready():
    r = run_check("eq3_rft_definition")
    blob = json.dumps(r.to_dict())
    back = json.loads(blob)
    assert back["name"] == "eq3_rft_definition"
    assert back["status"] == "pass"
    assert list(back) == ["name", "status", "max_abs_error", "tolerance", "trials", "seed",
                          "elapsed_ms", "layer", "informational", "detail"]


def test_render_text_shape():
    reports = run_all(filter="eq2_*")
    text = render_text(reports)
    lines = text.strip().splitlines()
    assert len(lines) == len(reports) + 1
    assert "checks passed" in lines[-1]
    for r, line in zip(reports, lines):
        assert r.name in line
        assert r.status.upper() in line
