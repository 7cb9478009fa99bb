"""ftcalc: falling/rising factorial transform calculus.

Exact transforms and operator calculus on rational-coefficient polynomials,
floating-point transforms on functions (Newton sums, EGF series, generalized
Gauss-Laguerre quadrature), fractional derivatives/differences, and a
verification suite of named identity checks.

Importing the package loads none of its modules: each public name below, and
each submodule, is imported on first access (PEP 562), so a process pays
only for the layers it uses.
"""

from __future__ import annotations

from importlib import import_module

__version__ = "0.1.0"

# public name -> the submodule that defines it
_HOMES = {
    "bernoulli": "combinatorics",
    "binomial_general": "combinatorics",
    "falling_factorial": "combinatorics",
    "rising_factorial": "combinatorics",
    "stirling_first_signed": "combinatorics",
    "stirling_first_unsigned": "combinatorics",
    "stirling_second": "combinatorics",
    "Basis": "polynomial",
    "BasisPolynomial": "polynomial",
    "OperatorExpr": "polynomial",
    "apply_operator": "polynomial",
    "convert_basis": "polynomial",
}
_SUBMODULES = ("cli", "combinatorics", "polynomial", "special_polynomials", "transforms_exact",
               "transforms_numeric", "verify_suite")

__all__ = [*_HOMES, "__version__"]


def __getattr__(name: str):
    if name in _SUBMODULES:
        # importing a submodule binds it on the package, so this runs once per name
        return import_module(f"{__name__}.{name}")
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_HOMES[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
