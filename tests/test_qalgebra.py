"""Laurent polynomial / truncated series arithmetic and closed forms.

Expected values marked as derived were computed from independent oracles
(box-partition enumeration for Gaussian coefficients, subset expansion for
the finite products) and frozen here.
"""

import itertools
import math
import random

import pytest

from qtelescope.qalgebra import (LaurentPoly, TruncatedSeries, factor_product,
                                 gaussian_binomial, rhs_andrews, truncate)


def P(terms):
    return LaurentPoly(terms)


def mono(c, z=0, q=0):
    return LaurentPoly.monomial(c, z, q)


# independent oracles ------------------------------------------------------

def box_partition_sum(rows, cols):
    """Sum of q^|lam| over partitions fitting in a rows x cols box, by
    direct recursive enumeration."""
    coeffs = {}

    def rec(limit, slots, total):
        coeffs[total] = coeffs.get(total, 0) + 1
        if slots == 0:
            return
        for p in range(1, limit + 1):
            rec(p, slots - 1, total + p)

    rec(cols, rows, 0)
    return P({(0, e): c for e, c in coeffs.items()})


def subset_expansion(count, sign, z_exp, q_offset, q_step):
    """Expand the product over all 2^count factor choices."""
    offsets = [q_offset + i * q_step for i in range(count)]
    terms = {}
    for r in range(count + 1):
        for combo in itertools.combinations(offsets, r):
            key = (r * z_exp, sum(combo))
            terms[key] = terms.get(key, 0) + sign ** r
    return P(terms)


def random_poly(rng, max_terms=5, span=4, coeff_bound=9):
    terms = {}
    for _ in range(rng.randrange(max_terms + 1)):
        terms[(rng.randrange(-span, span + 1), rng.randrange(-span, span + 1))] = \
            rng.randrange(-coeff_bound, coeff_bound + 1)
    return P(terms)


def random_series_poly(rng, max_terms=6, degree=12, coeff_bound=5):
    """A z-free polynomial with exponents in [0, degree]."""
    return P({(0, rng.randrange(degree + 1)): rng.randrange(-coeff_bound, coeff_bound + 1)
              for _ in range(rng.randrange(max_terms + 1))})


# addition / multiplication -------------------------------------------------

def test_add_cancellation():
    assert P({(0, 0): 1, (0, 1): 1}) + P({(0, 1): -1}) == LaurentPoly.one()


def test_add_identity():
    p = P({(1, 2): 3, (-1, 0): -4})
    assert LaurentPoly.zero() + p == p


def test_add_disjoint_supports():
    assert mono(1, -1, 1) + mono(1, 1, 1) == P({(-1, 1): 1, (1, 1): 1})


def test_mul_macmahon_rhs_at_one_one():
    lhs = (LaurentPoly.one() + mono(1, -1, 1)) * (LaurentPoly.one() + mono(1, 1, 1))
    assert lhs == P({(0, 0): 1, (1, 1): 1, (-1, 1): 1, (0, 2): 1})


def test_mul_identity_and_absorbing():
    p = P({(2, -3): 5, (0, 0): -1})
    assert p * LaurentPoly.one() == p
    assert p * LaurentPoly.zero() == LaurentPoly.zero()


def test_ring_laws_on_random_values():
    rng = random.Random(20260808)
    for _ in range(200):
        a, b, c = (random_poly(rng) for _ in range(3))
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + (-a) == LaurentPoly.zero()
        assert a - b == a + (-b)


def test_canonical_form_drops_zeros():
    p = P({(0, 0): 0, (1, 1): 2})
    assert len(list(p.terms())) == 1
    assert (p - p).is_zero()
    assert P({}) == LaurentPoly.zero()


def test_equality_is_structural():
    assert P({(0, 1): 1}) == mono(1, 0, 1)
    assert P({(0, 1): 1}) != P({(1, 0): 1})
    assert hash(P({(0, 1): 1})) == hash(mono(1, 0, 1))


def from_sympy(sympy, expr, z, q):
    """A sympy Laurent polynomial in z and q as a LaurentPoly, read term by
    term after clearing negative powers of z by a shift."""
    expr = sympy.expand(expr)
    shift = max([0] + [-e for e in (t.as_powers_dict().get(z, 0) for t in
                                    sympy.Add.make_args(expr))])
    poly = sympy.Poly(sympy.expand(expr * z ** shift), z, q)
    return P({(a - shift, b): int(c) for (a, b), c in poly.terms()})


# gaussian binomials ---------------------------------------------------------

def test_gaussian_examples():
    assert gaussian_binomial(2, 1, 1) == P({(0, 0): 1, (0, 1): 1})
    assert gaussian_binomial(4, 2, 1) == P(
        {(0, 0): 1, (0, 1): 1, (0, 2): 2, (0, 3): 1, (0, 4): 1})
    assert gaussian_binomial(5, 0, 2) == LaurentPoly.one()


def test_gaussian_out_of_range_is_zero():
    assert gaussian_binomial(3, -1, 1).is_zero()
    assert gaussian_binomial(3, 4, 1).is_zero()


def test_gaussian_matches_box_partition_oracle():
    for n in range(9):
        for k in range(n + 1):
            assert gaussian_binomial(n, k, 1) == box_partition_sum(k, n - k)


def test_gaussian_palindromic_nonnegative_counts():
    for n in range(13):
        for k in range(n + 1):
            g = gaussian_binomial(n, k, 1)
            coeffs = {q: c for _z, q, c in g.terms()}
            assert all(c > 0 for c in coeffs.values())
            assert sum(coeffs.values()) == math.comb(n, k)
            deg = k * (n - k)
            assert max(coeffs) == deg and min(coeffs) == 0
            assert all(coeffs.get(e, 0) == coeffs.get(deg - e, 0)
                       for e in range(deg + 1))


def test_gaussian_step_is_exponent_stretch():
    for n in range(8):
        for k in range(n + 1):
            for step in (2, 3):
                assert gaussian_binomial(n, k, step) == P(
                    {(z, q * step): c
                     for z, q, c in gaussian_binomial(n, k, 1).terms()})


def test_gaussian_matches_sympy_product_formula():
    # [n choose k] in base q^step is the product over i = 1..k of
    # (1 - q^(step (n-k+i))) / (1 - q^(step i)), divided out by sympy
    sympy = pytest.importorskip("sympy")
    z, q = sympy.symbols("z q")
    for step in (1, 2):
        for n in range(8):
            for k in range(n + 1):
                ratio = sympy.prod([(1 - q ** (step * (n - k + i))) / (1 - q ** (step * i))
                                    for i in range(1, k + 1)])
                expected = from_sympy(sympy, sympy.cancel(ratio), z, q)
                assert gaussian_binomial(n, k, step) == expected, (n, k, step)


# factor products -------------------------------------------------------------

def test_factor_product_single_factors():
    assert factor_product(1, 1, 1, 1, 2) == P({(0, 0): 1, (1, 1): 1})
    assert factor_product(1, 1, -1, 1, 2) == P({(0, 0): 1, (-1, 1): 1})
    assert factor_product(0, 1, 1, 1, 2) == LaurentPoly.one()


def test_factor_product_matches_subset_expansion():
    for count in range(5):
        for sign in (1, -1):
            for z_exp in (-1, 0, 1):
                assert factor_product(count, sign, z_exp, 1, 2) == \
                    subset_expansion(count, sign, z_exp, 1, 2)


def test_factor_product_matches_sympy_expansion():
    sympy = pytest.importorskip("sympy")
    z, q = sympy.symbols("z q")
    for count in range(6):
        for sign in (1, -1):
            for z_exp in (-2, -1, 0, 1):
                for q_offset, q_step in ((0, 1), (1, 2), (3, 1)):
                    expected = sympy.prod([1 + sign * z ** z_exp * q ** (q_offset + i * q_step)
                                           for i in range(count)])
                    assert factor_product(count, sign, z_exp, q_offset, q_step) == \
                        from_sympy(sympy, expected, z, q), (count, sign, z_exp, q_offset)


def test_factor_product_coefficient_mass():
    # The expansion has 2^count monomials and sign +1 never cancels, so the
    # total coefficient mass (value at z = q = 1) is exactly 2^count.
    for count in range(6):
        p = factor_product(count, 1, 1, 1, 2)
        assert sum(c for _z, _q, c in p.terms()) == 2 ** count
        assert all(c > 0 for _z, _q, c in p.terms())


def test_factor_product_rejects_bad_arguments():
    with pytest.raises(ValueError):
        factor_product(-1, 1, 1, 1, 2)
    with pytest.raises(ValueError):
        factor_product(1, 2, 1, 1, 2)
    with pytest.raises(ValueError):
        factor_product(1, 1, 1, 1, 0)


# the alternating square sum ---------------------------------------------------

def test_rhs_andrews_small_values():
    assert rhs_andrews(0) == LaurentPoly.one()
    assert rhs_andrews(1) == P({(0, 0): 2, (0, 1): -1})
    assert rhs_andrews(2) == P({(0, 0): 2, (0, 3): -2, (0, 4): 1})


def test_rhs_andrews_support():
    for n in range(1, 8):
        exps = [q for _z, q, _c in rhs_andrews(n).terms()]
        assert min(exps) == 0 and max(exps) == n * n
        assert all(z == 0 for z, _q, _c in rhs_andrews(n).terms())


def test_rhs_andrews_two_term_recurrence():
    for n in range(1, 9):
        lhs = rhs_andrews(n) + mono(1, 0, 2 * n - 1) * rhs_andrews(n - 1)
        assert lhs == mono(2, 0, 0)


# truncation --------------------------------------------------------------------

def test_truncate_examples():
    s = truncate(rhs_andrews(2), 3)
    assert s.coeffs() == {0: 2, 3: -2}
    assert truncate(LaurentPoly.zero(), 10).is_zero()
    assert truncate(P({(0, 0): 1, (0, 5): 1}), 5).coeffs() == {0: 1, 5: 1}


def test_truncate_rejects_z_and_negative_exponents():
    with pytest.raises(ValueError):
        truncate(mono(1, 1, 0), 5)
    with pytest.raises(ValueError):
        truncate(mono(1, 0, -1), 5)


def test_series_arithmetic_uses_min_cap():
    a = TruncatedSeries(10, {0: 1, 9: 2})
    b = TruncatedSeries(5, {0: 1, 4: 1})
    assert (a + b).cap == 5
    assert (a + b).coeffs() == {0: 2, 4: 1}
    assert (a - a).is_zero()


def test_series_poly_multiplication_shifts_and_drops():
    s = TruncatedSeries(6, {0: 1, 1: -1})
    shifted = s.mul_poly(mono(1, 0, 5))
    assert shifted.coeffs() == {5: 1, 6: -1}
    with pytest.raises(ValueError):
        s.mul_poly(mono(1, 1, 0))
    with pytest.raises(ValueError):
        s.mul_poly(mono(1, 0, -2))


def test_series_is_truncated_polynomial_arithmetic():
    rng = random.Random(20261018)
    for _ in range(300):
        a, b, p = (random_series_poly(rng) for _ in range(3))
        c1, c2 = rng.randrange(13), rng.randrange(13)
        cap = min(c1, c2)
        assert truncate(a, c1) + truncate(b, c2) == truncate(a + b, cap)
        assert truncate(a, c1) - truncate(b, c2) == truncate(a - b, cap)
        assert truncate(a, c1).mul_poly(p) == truncate(a * p, c1)
        window = rng.choice([None, *range(-1, 14)])
        limit = cap if window is None else min(cap, window)
        differ = [e for e in range(limit + 1) if a.coeff(0, e) != b.coeff(0, e)]
        assert truncate(a, c1).first_mismatch(truncate(b, c2), window) == \
            (differ[0] if differ else None)
        coeffs = {q: c for _z, q, c in a.terms()}
        assert TruncatedSeries(c1, coeffs).coeffs() == \
            {e: c for e, c in coeffs.items() if e <= c1}


def test_series_first_mismatch():
    a = TruncatedSeries(8, {0: 2, 3: -2})
    b = TruncatedSeries(8, {0: 2, 3: -2, 5: 7})
    assert a.first_mismatch(b) == 5
    assert a.first_mismatch(b, window=4) is None
    assert a.first_mismatch(a) is None

