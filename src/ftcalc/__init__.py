"""ftcalc: falling/rising factorial transform calculus.

Exact transforms and operator calculus on rational-coefficient polynomials,
floating-point transforms on functions (Newton sums, EGF series, generalized
Gauss-Laguerre quadrature), fractional derivatives/differences, and a
verification suite of named identity checks.
"""

from __future__ import annotations

from .combinatorics import (
    bernoulli,
    binomial_general,
    falling_factorial,
    rising_factorial,
    stirling_first_signed,
    stirling_first_unsigned,
    stirling_second,
)
from .polynomial import Basis, BasisPolynomial, OperatorExpr, apply_operator, convert_basis

__version__ = "0.1.0"

__all__ = [
    "bernoulli",
    "binomial_general",
    "falling_factorial",
    "rising_factorial",
    "stirling_first_signed",
    "stirling_first_unsigned",
    "stirling_second",
    "Basis",
    "BasisPolynomial",
    "OperatorExpr",
    "apply_operator",
    "convert_basis",
    "__version__",
]
