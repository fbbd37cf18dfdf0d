"""Exact-arithmetic verification of two classical partition identities
through telescoping families of weight-preserving bijections.

The package is organized bottom-up:

    qalgebra    exact sparse Laurent polynomials; a truncated q-series is
                a capped LaurentPoly
    partitions  partition objects (zero parts allowed) and EvenField, the
                packed even partition mu of both families, which
                walks MacMahon's boxes
    telescope   generic bijection and telescoping checkers:
                first_match, the one dispatch of every map's rule table,
                bijection_by_class, the one class kernel of both
                families, which checks a map (a bijection, or an
                involution as its own inverse) once per class of the
                bits its checks read, and the set-based check, the
                failure-path oracle of both families; the (sign, z, q)
                weight key weight_of, and certify, which makes every
                Certificate
    macmahon    the square-plus-even-partition families, the step maps
                phi and psi as rule tables and the cancelation's walk,
                composed per class, their certificates on the class
                kernel, and verify_macmahon: the per-index telescoping
                check on one enumeration per box, the lower family off
                its boundary
    andrews12   the staircase triples, the index rule, classification,
                bijection and involutions (each certified on the class
                kernel), sum checks and orbit tracing
    cli         command-line driver and text diagram rendering

Every check is exhaustive over finite or weight-capped slices and returns
a Certificate; nothing is floating point and nothing is sampled.
"""

from .qalgebra import (LaurentPoly, TruncatedSeries, factor_product,
                       gaussian_binomial, rhs_andrews, truncate)
from .partitions import Partition, staircase
from .telescope import (Certificate, IterationBudgetExceeded, MarkedObject,
                        check_graded_bijection, telescoping_sum_check)
from . import andrews12, macmahon

__all__ = [
    "LaurentPoly", "TruncatedSeries", "factor_product", "gaussian_binomial",
    "rhs_andrews", "truncate",
    "Partition", "staircase",
    "Certificate", "IterationBudgetExceeded", "MarkedObject",
    "check_graded_bijection", "telescoping_sum_check",
    "andrews12", "macmahon",
]
