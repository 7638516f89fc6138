"""Exact-arithmetic root-system toolkit.

Builds the nine irreducible families, computes the height distribution of
positive roots together with its companion arithmetic functions, and
machine-verifies the full identity catalog with exact equality.
"""

from .errors import (DegreeTooHigh, DivisionByZero, GroupTooLarge, InvalidRank,
                     MethodMismatch, NoTripleFound, NotDivisible,
                     ReconstructionMismatch, RootHeightError, SingularSystem,
                     UnsupportedOrder)
from .exactalg import (CycNum, Polynomial, RationalFunction, cyc_eval,
                       poly_arith, poly_gcd, poly_str, ratfun_normalize)
from .identities import (IdentityReport, MunagiDecomposition, SingularityData,
                         available_checks, b_from_exponents, b_poly,
                         dynkin_check, exponent_poly, lagrange_all_roots,
                         lagrange_primitive_roots, mirimanoff_check,
                         munagi_decompose, run_check, run_suite,
                         singularity_check, singularity_data)
from .numth import (ArithSeq, cyclotomic_discriminant, cyclotomic_poly,
                    divisors, gcd_count, is_cohen, mobius, psi_poly,
                    ramanujan_sum, ramanujan_sum_checked, totient)
from .rootsys import (DEFAULT_BFS_CAP, CoxeterElement, RootSystem,
                      RootSystemId, build, cartan_matrix, coxeter_element,
                      default_catalog, factor_exponents, factorization_string,
                      multiplicities, power_sums, weyl_length_gf_bruteforce,
                      weyl_length_gf_product, weyl_order)

__version__ = "0.1.0"
