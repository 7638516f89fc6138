"""Exact-arithmetic root-system toolkit.

Builds the nine irreducible families, computes the height distribution of
positive roots together with its companion arithmetic functions, and
machine-verifies the full identity catalog with exact equality.

The names of the identity suite are served on first use (PEP 562):
``python -m rootheight`` imports this package before the CLI, and a command
that runs no check never loads ``rootheight.identities``.
"""

from .errors import (DegreeTooHigh, DivisionByZero, GroupTooLarge, InvalidRank,
                     MethodMismatch, NoTripleFound, NotDivisible,
                     ReconstructionMismatch, RootHeightError, SingularSystem,
                     UnsupportedOrder)
from .exactalg import (CycNum, Polynomial, RationalFunction, cyc_eval,
                       poly_arith, poly_gcd, poly_str, ratfun_normalize)
from .numth import (ArithSeq, cyclotomic_discriminant, cyclotomic_poly,
                    divisors, gcd_count, is_cohen, mobius, psi_poly,
                    ramanujan_sum, ramanujan_sum_checked, totient)
from .rootsys import (DEFAULT_BFS_CAP, CoxeterElement, RootSystem,
                      RootSystemId, b_from_exponents, b_poly, build,
                      cartan_matrix, coxeter_element, default_catalog,
                      dynkin_polys, exponent_poly, factor_exponents,
                      factorization_string, multiplicities, power_sums,
                      weyl_length_gf_bruteforce, weyl_length_gf_product,
                      weyl_order)

__version__ = "0.1.0"

_FROM_IDENTITIES = frozenset((
    "IdentityReport", "MunagiDecomposition", "SingularityData",
    "available_checks", "dynkin_check", "lagrange_all_roots",
    "lagrange_primitive_roots", "mirimanoff_check", "munagi_decompose",
    "run_check", "run_suite", "singularity_check", "singularity_data"))


def __getattr__(name):
    if name in _FROM_IDENTITIES:
        from . import identities
        return getattr(identities, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(globals().keys() | _FROM_IDENTITIES)
