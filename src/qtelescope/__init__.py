"""Exact-arithmetic verification of two classical partition identities
through telescoping families of weight-preserving bijections.

The package is organized bottom-up:

    qalgebra    exact sparse Laurent polynomials; a truncated q-series is
                a capped LaurentPoly
    partitions  partition objects (zero parts allowed), the distinct-part
                enumerator, and EvenField, the packed even partition mu of
                both families, which enumerates and counts the even ones
    telescope   generic bijection and telescoping checkers:
                stream_bijection, the one streaming bijection kernel of
                both families, and the set-based check, its failure-path
                oracle; the (sign, z, q) weight key weight_of,
                weighted_count, and certify, which makes every Certificate
    macmahon    the square-plus-even-partition families, the step maps
                phi and psi and the cancelation's direct map, their
                certificates on the streaming kernel, and
                verify_macmahon: the per-index telescoping check on one
                enumeration per box, the lower family off its boundary
    andrews12   the staircase triples, the index rule, classification,
                bijection (on the streaming kernel), involutions (with a
                kernel of their own), sum checks and orbit tracing
    cli         command-line driver and text diagram rendering

Every check is exhaustive over finite or weight-capped slices and returns
a Certificate; nothing is floating point and nothing is sampled.
"""

from .qalgebra import (LaurentPoly, TruncatedSeries, factor_product,
                       gaussian_binomial, rhs_andrews, truncate)
from .partitions import Partition, enum_distinct_range, staircase
from .telescope import (Certificate, IterationBudgetExceeded, MarkedObject,
                        check_graded_bijection, telescoping_sum_check)
from . import andrews12, macmahon

__all__ = [
    "LaurentPoly", "TruncatedSeries", "factor_product", "gaussian_binomial",
    "rhs_andrews", "truncate",
    "Partition", "enum_distinct_range", "staircase",
    "Certificate", "IterationBudgetExceeded", "MarkedObject",
    "check_graded_bijection", "telescoping_sum_check",
    "andrews12", "macmahon",
]
