"""Walk through the MacMahon verification: the pair families, both step
maps with their weight bookkeeping, the telescoping relation, the direct
bijection built by cancelation, and the identity certificates.

Run: python demos/macmahon_walkthrough.py
"""

from qtelescope.macmahon import (cancelation_certificate, enum_P,
                                 phi_certificate, phi_step,
                                 phi_telescoping_counts, psi_certificate,
                                 telescoping_phi, verify_macmahon)
from qtelescope.qalgebra import LaurentPoly
from qtelescope.telescope import telescoping_sum_check, weight_of


def monomial(x):
    """An object's weight key, shown as its Laurent monomial."""
    return LaurentPoly.monomial(*weight_of(x))


print("=" * 64)
print("The families at n = 2, m = 1")
print("=" * 64)
boundary = {}
counts = phi_telescoping_counts(2, 1)[0]  # f(k), the weighted count of P(2,1,k)
for k in range(-1, 3):
    pairs = enum_P(2, 1, k)
    print(f"  P(2,1,{k:+d}): {len(pairs):2d} pairs, "
          f"weighted count = {counts[k]}")
    # G(2,1,k): the pairs of P(2,1,k) whose largest part equals 2 + 2k
    boundary[k] = [(x.side, x.mu.parts) for x in pairs if x.mu.first == 2 + 2 * k]
for k, pairs in boundary.items():
    print(f"  G(2,1,{k:+d}): {pairs}")

print()
print("=" * 64)
print("One application of each step map")
print("=" * 64)
g_below = [x for x in enum_P(1, 1, -1) if x.mu.first == 0]  # G(1,1,-1)
for x in enum_P(1, 1, 0) + g_below:
    k = x.side if x.side == 0 else x.side + 1
    case, out = phi_step(1, 1, k, x)
    print(f"  phi case {case}: {x.side, x.mu.parts} "
          f"(weight {monomial(x)}) -> {out} (weight {monomial(out)})")

print()
print("=" * 64)
print("The telescoping relation at n = m = 2")
print("=" * 64)
f, g, h, k_min, k_max = phi_telescoping_counts(2, 2)
for k in range(k_min, k_max + 1):
    print(f"  k={k:+d}:  f={f[k]}   h={h[k]}")
cert = telescoping_sum_check(f, g, h, k_max=k_max, k_min=k_min,
                             check="macmahon-phi-sum", params={"n": 2, "m": 2})
print(f"  telescoping certificate: {cert.status}")

print()
print("=" * 64)
print("Cancelation: iterating the map until it lands")
print("=" * 64)
n = m = 2
domain = [x for k in range(-m, n + 1) for x in enum_P(n, m, k)]
for a in domain[:6]:
    orbit = [("A", a)]
    while orbit[-1][0] != "B":
        orbit.append(telescoping_phi(n, m, orbit[-1]))
    chain = "  ->  ".join(f"{tag}:{val!r}" for tag, val in orbit)
    print(f"  {chain}")
print(f"  ... ({len(domain)} orbits in total)")
cert = cancelation_certificate(3, 3)
print(f"  direct bijection at n = m = 3: {cert.status} "
      f"({cert.domain_size} -> {cert.codomain_size})")

print()
print("=" * 64)
print("Certificates over the verification grid")
print("=" * 64)
for n in range(4):
    for m in range(4):
        print(f"  {verify_macmahon(n, m).summary()}")
print(f"  {phi_certificate(3, 2, 1).summary()}")
print(f"  {psi_certificate(4, 2).summary()}")
