"""Tour of the exact arithmetic layer: sparse Laurent polynomials in (z, q),
truncated q-series, Gaussian binomials, and finite shifted-factorial products.

Run: python demos/laurent_arithmetic.py
"""

from qtelescope.qalgebra import (LaurentPoly, TruncatedSeries, factor_product,
                                 gaussian_binomial, rhs_andrews, truncate)

mono = LaurentPoly.monomial

print("=" * 64)
print("Exact Laurent polynomial arithmetic")
print("=" * 64)

a = LaurentPoly.one() + mono(1, -1, 1)          # 1 + q/z
b = LaurentPoly.one() + mono(1, 1, 1)           # 1 + zq
print(f"a          = {a}")
print(f"b          = {b}")
print(f"a * b      = {a * b}")
print(f"a - a      = {a - a}")
print(f"(a*b)(1,1) = {sum(c for _z, _q, c in (a * b).terms())}   "
      "(sum of coefficients)")

print()
print("Coefficients are arbitrary-precision integers:")
big = mono(10 ** 40, 0, 1) * mono(10 ** 40, 0, 1)
print(f"  (10^40 q)^2 = {big}")

print()
print("=" * 64)
print("Gaussian binomials by the division-free Pascal recurrence")
print("=" * 64)
for n, k in [(2, 1), (4, 2), (6, 3)]:
    print(f"  [{n},{k}]_q   = {gaussian_binomial(n, k, 1)}")
print("Base q^2 is the same polynomial with stretched exponents:")
print(f"  [4,2]_q2  = {gaussian_binomial(4, 2, 2)}")
stretched = LaurentPoly({(z, 2 * q): c
                         for z, q, c in gaussian_binomial(4, 2, 1).terms()})
print(f"  stretched = {stretched}")

print()
print("=" * 64)
print("Finite products of (1 + z^a q^b) factors")
print("=" * 64)
for count in range(4):
    print(f"  {count} factors of (1 + z q^(2i+1)): "
          f"{factor_product(count, 1, 1, 1, 2)}")

print()
print("=" * 64)
print("The alternating square sum and its two-term recurrence")
print("=" * 64)
for n in range(5):
    print(f"  n={n}: {rhs_andrews(n)}")
print("Check: value(n) + q^(2n-1) * value(n-1) == 2 for every n >= 1")
for n in range(1, 8):
    combo = rhs_andrews(n) + mono(1, 0, 2 * n - 1) * rhs_andrews(n - 1)
    assert combo == mono(2, 0, 0)
print("  holds exactly for n = 1..7")

print()
print("=" * 64)
print("Truncated series")
print("=" * 64)
s = truncate(rhs_andrews(3), 6)
print(f"  rhs(3) truncated at 6:  {s}")
t = TruncatedSeries(6, {0: 2})
print(f"  difference from 2:      {s - t}")
print(f"  shifted by q^2:         {s.mul_poly(mono(1, 0, 2))}")
