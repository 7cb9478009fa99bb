"""exact_highdeg: every public exact op on seeded random rational polynomials.

Degrees are named by class (d20, d50, d100, d300) so that the small sizes
used by the benchmark's own tests report under the same metric names.
Quadratic ops run at d20/d100/d300, cubic ones at d20/d50, and the
sample-driven sequence ops at d20/d100. At d20 every op runs in all three
bases; above it each op runs once, in a fixed basis where it does real work
(it converts through another basis). A pass then holds about 150 ops and
takes 6-13 s of wall time on a 2-core machine; a run holds at least two,
so that the pass median is not a single sample.
"""

from __future__ import annotations

from fractions import Fraction
from random import Random

import oracles as O

MIN_PASSES = 2
# degree class -> degree, per size
SIZES = {
    "full": {"d20": 20, "d50": 50, "d100": 100, "d300": 300},
    "tiny": {"d20": 3, "d50": 4, "d100": 5, "d300": 6},
}
QUADRATIC = ("d20", "d100", "d300")
CUBIC = ("d20", "d50")
SEQUENCE = ("d20", "d100")

OPERATORS = ("derivative", "forward_difference", "log1p_derivative",
             "expdiff_minus1", "binom_shift", "exp_shift")
PARAM_KINDS = ("binom_shift", "exp_shift")
# basis used by each op above d20
ONE_BASIS = {
    "convert_basis": "monomial", "shift": "monomial", "derivative": "falling",
    "forward_difference": "monomial", "log1p_derivative": "monomial",
    "expdiff_minus1": "falling", "binom_shift": "monomial", "exp_shift": "falling",
    "fft_poly": "falling", "ifft_poly": "monomial", "rft_poly": "falling",
    "irft_poly": "monomial", "backward_difference": "monomial", "scale_op": "monomial",
    "log1p_inverse": "falling", "expdiff_inverse": "monomial",
}
# d20 ops are cheap and their cost varies with the drawn coefficients, so
# each runs on this many polynomials per basis
D20_REPEATS = 2
NEXT_BASIS = {"monomial": "falling", "falling": "rising", "rising": "monomial"}
BASES = ("monomial", "falling", "rising")


def setup(size: str = "full") -> None:
    """Import the exact layers and grow the Stirling tables to the largest
    degree a pass converts."""
    from ftcalc import combinatorics, polynomial, special_polynomials, transforms_exact  # noqa: F401
    top = max(SIZES[size].values())
    combinatorics.stirling_second(top, 1)
    combinatorics.stirling_first_unsigned(top, 1)


def rand_frac(rng: Random) -> Fraction:
    # as the identity suite draws coefficients
    return Fraction(rng.randint(-9, 9), rng.randint(1, 9))


def rand_poly(rng: Random, basis: str, degree: int):
    from ftcalc.polynomial import BasisPolynomial
    lead = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))
    return BasisPolynomial(basis, [rand_frac(rng) for _ in range(degree)] + [lead])


def rand_point(rng: Random) -> int:
    return rng.randrange(1, O.P)


def make_pass(rec, seed: int, size: str = "full"):
    from ftcalc import polynomial as poly
    from ftcalc import special_polynomials as sp
    from ftcalc import transforms_exact as te

    degs = SIZES[size]

    def one_pass(index: int) -> None:
        rng = Random(f"exact_highdeg:{seed}:{index}")
        x = rand_point(rng)

        def same_value(p, target_basis=None):
            want = O.pval(p, x)
            return lambda r: ((target_basis is None or r.basis.value == target_basis)
                              and O.pval(r, x) == want)

        for label in QUADRATIC:
            d = degs[label]
            for basis in BASES * (D20_REPEATS if label == "d20" else 1):
                def runs(op: str) -> bool:
                    return label == "d20" or ONE_BASIS[op] == basis
                p = rand_poly(rng, basis, d)
                a = rand_frac(rng) or Fraction(1, 2)
                if runs("convert_basis"):
                    tgt = NEXT_BASIS[basis]
                    rec.call(f"polynomial.convert_basis.{label}",
                             lambda: poly.convert_basis(p, tgt), same_value(p, tgt))
                if runs("shift"):
                    want_shift = O.operator_value("shift", a, p, x)
                    rec.call(f"polynomial.shift.{label}", lambda: poly.shift(p, a),
                             lambda r: r.basis is p.basis and O.pval(r, x) == want_shift)
                for kind in OPERATORS:
                    if not runs(kind):
                        continue
                    op = (poly.OperatorExpr(kind, a=a) if kind in PARAM_KINDS
                          else poly.OperatorExpr(kind, k=1))
                    rec.call(f"polynomial.apply_operator.{kind}.{label}",
                             lambda: poly.apply_operator(op, p),
                             lambda r: (r.basis is p.basis and O.pval(r, x)
                                        == O.operator_value(kind, a, p, x)))
                if runs("fft_poly"):
                    rec.call(f"transforms_exact.fft_poly.{label}", lambda: te.fft_poly(p),
                             lambda r: (r.basis.value == "falling"
                                        and O.value_at("monomial", r.coeffs, x) == O.pval(p, x)))
                if runs("ifft_poly"):
                    rec.call(f"transforms_exact.ifft_poly.{label}", lambda: te.ifft_poly(p),
                             lambda r: (r.basis.value == "monomial"
                                        and O.value_at("falling", r.coeffs, x) == O.pval(p, x)))
                if runs("rft_poly") and label != "d300":
                    rec.call(f"transforms_exact.rft_poly.{label}", lambda: te.rft_poly(p),
                             lambda r: (r.basis.value == "rising"
                                        and O.value_at("monomial", r.coeffs, x) == O.pval(p, x)))
                if runs("irft_poly") and label != "d300":
                    rec.call(f"transforms_exact.irft_poly.{label}", lambda: te.irft_poly(p),
                             lambda r: (r.basis.value == "monomial"
                                        and O.value_at("rising", r.coeffs, x) == O.pval(p, x)))
            pm, qm = rand_poly(rng, "monomial", d), rand_poly(rng, "monomial", d)
            rec.call(f"polynomial.multiply_monomial.{label}", lambda: poly.multiply(pm, qm),
                     lambda r: O.pval(r, x) == O.pval(pm, x) * O.pval(qm, x) % O.P)
            alpha = rand_frac(rng)
            rec.call(f"special_polynomials.laguerre.{label}", lambda: sp.laguerre(d, alpha),
                     lambda r: O.pval(r, x) == O.laguerre_value(d, alpha, x))

        for label in CUBIC:
            d = degs[label]
            for basis in ("falling", "rising"):
                if label != "d20" and basis == "rising":
                    continue
                p, q = rand_poly(rng, basis, d), rand_poly(rng, basis, d)
                rec.call(f"polynomial.multiply_{basis}.{label}", lambda: poly.multiply(p, q),
                         lambda r: r.basis is p.basis
                         and O.pval(r, x) == O.pval(p, x) * O.pval(q, x) % O.P)
            for basis in BASES * (D20_REPEATS if label == "d20" else 1):
                def runs(op: str) -> bool:
                    return label == "d20" or ONE_BASIS[op] == basis
                p = rand_poly(rng, basis, d)
                a = rand_frac(rng) or Fraction(1, 2)
                if runs("backward_difference"):
                    rec.call(f"polynomial.apply_operator.backward_difference.{label}",
                             lambda: poly.apply_operator(poly.OperatorExpr("backward_difference", k=1), p),
                             lambda r: O.pval(r, x) == O.operator_value("backward_difference", a, p, x))
                if runs("scale_op"):
                    rec.call(f"polynomial.apply_operator.scale_op.{label}",
                             lambda: poly.apply_operator(poly.OperatorExpr("scale_op", a=a), p),
                             lambda r: O.pval(r, x) == O.operator_value("scale_op", a, p, x))
                if runs("log1p_inverse"):
                    rec.call(f"polynomial.series_inverse.log1p.{label}",
                             lambda: poly.log1p_derivative_inverse(p),
                             lambda r: O.operator_value("log1p_derivative", None, r, x) == O.pval(p, x))
                if runs("expdiff_inverse"):
                    rec.call(f"polynomial.series_inverse.expdiff.{label}",
                             lambda: poly.expdiff_minus1_inverse(p),
                             lambda r: O.operator_value("expdiff_minus1", None, r, x) == O.pval(p, x))
            f, g = rand_poly(rng, "falling", d), rand_poly(rng, "monomial", d)
            rec.call(f"transforms_exact.hadamard_ifft.{label}", lambda: te.hadamard_ifft(f, g),
                     lambda r: (r.basis.value == "monomial" and O.value_at("falling", r.coeffs, x)
                                == O.pval(f, x) * O.pval(g, x) % O.P))
            # K = d output coefficients from two degree-d/5 inputs
            u, v = rand_poly(rng, "falling", max(d // 5, 1)), rand_poly(rng, "monomial", max(d // 5, 1))
            rec.call(f"transforms_exact.egf_product_coeffs.{label}",
                     lambda: te.egf_product_coeffs(u, v, d),
                     lambda r: [O.res(h) for h in r] == [O.binom_conv_value(u, v, k) for k in range(d)])

        for label in SEQUENCE:
            d = degs[label]
            f, g = rand_poly(rng, "rising", d), rand_poly(rng, "monomial", d)
            rec.call(f"transforms_exact.binomial_convolution.{label}",
                     lambda: te.binomial_convolution(f, g, d),
                     lambda r: O.res(r) == O.binom_conv_value(f, g, d))
            rec.call(f"transforms_exact.newton_from_samples.{label}",
                     lambda: te.newton_from_samples(f, d), same_value(f, "falling"))
            # f has degree d, so its x^d coefficient is its leading coefficient
            rec.call(f"transforms_exact.coefficient_extract.{label}",
                     lambda: te.coefficient_extract(f, d),
                     lambda r: O.res(r) == O.res(f.coeffs[-1]))

        n = degs["d50"]
        cx, ca = rand_frac(rng), rand_frac(rng) or Fraction(1, 3)
        rec.call("special_polynomials.charlier", lambda: sp.charlier(n, cx, ca),
                 lambda r: O.res(r) == O.charlier_value(n, cx, ca))

    return one_pass
