"""Walk through the Andrews verification: staircase triples, the four-class
split, the n-lowering bijection with its markers, the boundary involutions,
and the truncated-series identity checks.

Run: python demos/andrews_problem12.py
"""

from qtelescope.andrews12 import (F_trunc, Triple, andrews_orbit, classify,
                                  domain_slice, enum_P, involution,
                                  involution_certificate, phi,
                                  phi_certificate, verify_andrews, weight_of)
from qtelescope.cli import render_diagram
from qtelescope.partitions import Partition, staircase
from qtelescope.qalgebra import LaurentPoly, rhs_andrews, truncate

print("=" * 64)
print("The triple families of n = 3")
print("=" * 64)
for k in range(4):
    members = enum_P(3, k, 12)
    print(f"  P(3,{k}) up to weight 12: {len(members):3d} triples, "
          f"staircase tau = {staircase(3 - k)}")

print()
print("=" * 64)
print("Classification and the bijection at (n, k) = (3, 1)")
print("=" * 64)
for lam, mu in [((), (2,)), ((4,), ()), ((4, 3), ()), ((), ())]:
    t = Triple(staircase(2), Partition(lam), Partition(mu))
    tag = classify(3, 1, t)
    print(f"  {str(t.tau):>6} {str(t.lam):>6} {str(t.mu):>4}  "
          f"class {tag.value:<9} ->  {phi(3, 1, t)!r}")

print()
print("One full orbit, rendered (the n = 2 staircase rule):")
start = Triple(staircase(2), Partition(()), Partition(()))
for label, value in andrews_orbit(2, 0, start):
    print(f"  {label}:")
    for line in render_diagram(value).splitlines():
        print(f"    {line}")

print()
print("=" * 64)
print("The boundary involution at (n, k) = (2, 2)")
print("=" * 64)
for x in domain_slice(2, 2, 6):
    y = involution(2, 2, x)
    marker = "fixed" if x == y else f"pairs with {y!r} "
    print(f"  {x!r}  weight {LaurentPoly.monomial(*weight_of(x))}  {marker}")

print()
print("=" * 64)
print("Certificates and the identity")
print("=" * 64)
print(f"  {phi_certificate(4, 1, 30).summary()}")
print(f"  {involution_certificate(4, 4, 30).summary()}")
for n in range(5):
    cap = n * n + 15
    print(f"  F_{n} truncated: {F_trunc(n, min(cap, 12))}")
for n in range(5):
    cap = n * n + 15
    same = F_trunc(n, cap) == truncate(rhs_andrews(n), cap)
    print(f"  F_{n} equals the alternating square sum on [0,{cap}]: {same}")
for which in ("identity", "rec_fn", "gn"):
    print(f"  {verify_andrews(3, 24, which).summary()}")
