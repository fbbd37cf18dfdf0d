"""MacMahon's sum side on LaurentPolys, one dict per weighted count.

The library runs the sum side on packed ints (qalgebra.Kronecker): each
box's counts, the phi and psi telescoping counts and the closed form's
sum are ints, and the Gaussian row is the Pascal recurrence on ints.
These are the same computations as dict arithmetic, kept for the tests
only: the references that every decoded packed value is checked against.
gaussian_binomial here is the memoised recursion on LaurentPolys, and
weighted_count sums the weights of enumerated objects.
"""

from collections import Counter
from functools import lru_cache
from itertools import combinations_with_replacement, repeat

from qtelescope.macmahon import _box_P, _box_Q
from qtelescope.qalgebra import LaurentPoly
from qtelescope.telescope import weight_of

ZERO, ONE = LaurentPoly.zero(), LaurentPoly.one()


def box_counts(box):
    """Weighted counts of a box (side, bound, slots) off its boundary
    slice and on it: the multisets of `slots` parts from 0, 2, .., bound,
    all below the bound off it, one equal to it on it."""
    side, bound, slots = box
    if bound < 0 or slots < 0:
        return ZERO, ZERO
    if not slots:  # the empty partition alone; its first part reads as 0
        alone = LaurentPoly.monomial(1, side, side * side)
        return (alone, ZERO) if bound else (ZERO, alone)

    def count(top, parts, start):
        leaves = combinations_with_replacement(range(0, top + 1, 2), parts)
        weights = Counter(map(sum, leaves, repeat(start)))  # q^(start + |leaf|)
        return LaurentPoly({(side, q): c for q, c in weights.items()})
    return count(bound - 2, slots, side * side), count(bound, slots - 1, side * side + bound)


def phi_telescoping_counts(n, m):
    """(f, g, h, k_min, k_max) of the m-lowering relation, as
    macmahon.phi_telescoping_counts states them."""
    coeff = ONE + LaurentPoly.monomial(1, -1, 2 * m - 1)
    f, g, h = {}, {}, {-m: ZERO}
    for k in range(-m, n + 1):
        off, h[k + 1] = box_counts(_box_P(n, m, k))
        f[k], g[k] = off + h[k + 1], coeff * off
    return f, g, h, -m, n


def psi_telescoping_counts(n):
    """(f, g, h, k_min, k_max) of the n-lowering relation, as
    macmahon.psi_telescoping_counts states them."""
    coeff = ONE + LaurentPoly.monomial(1, 1, 2 * n - 1)
    f, g, h = {}, {}, {n + 1: ZERO}
    for k in range(0, n + 1):
        off, h[k] = box_counts(_box_Q(n, k))
        f[k], g[k] = coeff * off, off + h[k]
    return f, g, h, 0, n


@lru_cache(maxsize=None)
def gaussian_binomial(n, k, step):
    """[n choose k] in base q**step by [n, k] = [n-1, k-1] + q^(step*k) [n-1, k]."""
    if k < 0 or k > n:
        return ZERO
    if k == 0 or k == n:
        return ONE
    shifted = LaurentPoly.monomial(1, 0, step * k) * gaussian_binomial(n - 1, k, step)
    return gaussian_binomial(n - 1, k - 1, step) + shifted


def product_sum_F(n, m):
    """sum_k z^k q^(k^2) [m+n, m+k] in base q^2."""
    total = ZERO
    for k in range(-m, n + 1):
        total = total + LaurentPoly.monomial(1, k, k * k) * gaussian_binomial(m + n, m + k, 2)
    return total


def weighted_count(objs):
    """The sum of the weight monomials of objs, as one LaurentPoly: the
    object-level count that the packed sums and slices are checked against."""
    terms = {}
    for sign, z, q in map(weight_of, objs):
        terms[z, q] = terms.get((z, q), 0) + sign
    return LaurentPoly(terms)
