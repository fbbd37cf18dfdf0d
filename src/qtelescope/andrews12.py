"""Triples (staircase, distinct-part, even-part) and the constructions that
verify the polynomial form of Andrews' parity identity,

    sum_{k=0}^{n} (q^(n-k+1); q)_{2k} / (q^2; q^2)_k * q^C(n-k,2)
        = (-1)^n q^(n^2) sum_{j=-n}^{n} (-1)^j q^(-j^2),

coefficient by coefficient.  The k-th summand is the signed weighted count
of the family

    P(n,k) = { (tau, lam, mu) : tau the staircase with n-k rows (zero part
               included), lam strictly decreasing with parts in
               [n-k+1, n+k], mu even with largest part <= 2k }

with weight (-1)^len(lam) * q^(|tau| + |lam| + |mu|).  The index rule
(lowering_map): for 0 <= k <= n-2 a weight-preserving bijection phi lowers
n by one (picking up markers q^(2n-1) / q^(2n-3)); for n >= 2 and
k in {n-1, n} a sign-reversing involution with invariant set P(n-1,k-1)
does the same job; no map lowers any other (n, k).  Summing over k gives

    F_n + (q^(2n-1) - 1) F_{n-1} - q^(2n-3) F_{n-2} = 0,

which pins F_n to the alternating square sum above.  F_trunc counts F_n by
weight; the bijection and the involutions run on enumerated triples.  The
public maps phi and involution share one input check (the index rule, then
membership in their common domain); the involution certificate runs the
unchecked body and tests each image's membership once.
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass
from functools import lru_cache
from typing import Union

from .partitions import (Partition, enum_distinct_range, enum_even_capped,
                         staircase)
from .qalgebra import LaurentPoly, TruncatedSeries, rhs_andrews, truncate
from .telescope import (REASON_NOT_IN_CODOMAIN, Certificate, MarkedObject,
                        WeightKey, certify, check_graded_bijection, weight_of)


@dataclass(frozen=True, slots=True)
class Triple:
    """A staircase tau, a distinct-part lam, and an even-part mu.

    Signed weight: (-1)^len(lam) * q^(|tau| + |lam| + |mu|).
    """

    tau: Partition
    lam: Partition
    mu: Partition

    @property
    def total_weight(self) -> int:
        return self.tau.weight + self.lam.weight + self.mu.weight

    @property
    def sign(self) -> int:
        return -1 if self.lam.length % 2 else 1

    def weight(self) -> WeightKey:
        return self.sign, 0, self.total_weight

    def to_json_obj(self) -> dict:
        return {"tau": self.tau.to_json_obj(), "lambda": self.lam.to_json_obj(),
                "mu": self.mu.to_json_obj()}


TripleValue = Union[Triple, MarkedObject]


class ClassTag(enum.Enum):
    """Which of the four pieces of the domain / codomain split a triple is in."""

    EMBEDDED = "embedded"
    A = "A"
    B = "B"
    C = "C"
    A_PRIME = "A'"
    B_PRIME = "B'"
    C_PRIME = "C'"
    D = "D"


def in_P(n: int, k: int, t: Triple) -> bool:
    """Membership in P(n,k); False outside 0 <= k <= n."""
    if n < 0 or k < 0 or k > n:
        return False
    if t.tau.parts != tuple(range(n - k - 1, -1, -1)):  # staircase(n - k)
        return False
    if not t.lam.has_distinct_parts():
        return False
    if t.lam.parts and (t.lam.last < n - k + 1 or t.lam.first > n + k):
        return False
    return t.mu.has_even_parts() and t.mu.first <= 2 * k


def enum_P(n: int, k: int, cap: int) -> list[Triple]:
    """All members of P(n,k) with total weight <= cap, in certificate order:
    by total weight, then lam, then mu, each lexicographic.

    Built grade by grade from the capped enumerators, with mu grouped by
    weight once, so nothing over the cap is built and nothing is sorted.
    """
    if n < 0 or k < 0 or k > n:
        return []
    tau = staircase(n - k)
    budget = cap - tau.weight
    lams = enum_distinct_range(n - k + 1, n + k, budget)
    mus_by_weight = [[] for _ in range(budget + 1)]
    for mu in enum_even_capped(2 * k, budget):
        mus_by_weight[mu.weight].append(mu)
    return [Triple(tau, lam, mu) for grade in range(budget + 1) for lam in lams
            if lam.weight <= grade for mu in mus_by_weight[grade - lam.weight]]


def classify(n: int, k: int, t: Triple) -> ClassTag:
    """Place a member of P(n,k) into its domain class; ValueError for a
    non-member.

    The four predicates are mutually exclusive and exhaustive, keyed on
    whether the two largest admissible lam values n+k and n+k-1 occur and
    on whether mu sits on its boundary 2k.
    """
    if not in_P(n, k, t):
        raise ValueError(f"{t} is not in P({n},{k})")
    return _class_of(n, k, t)


def _class_of(n: int, k: int, t: Triple) -> ClassTag:
    """`classify` with no check: t must be in P(n,k)."""
    top = t.lam.contains(n + k)
    second = t.lam.contains(n + k - 1)
    if top and second:
        return ClassTag.C
    if top != second:
        return ClassTag.B
    if t.mu.first == 2 * k:
        return ClassTag.A
    return ClassTag.EMBEDDED


def classify_image(n: int, k: int, t: Triple) -> ClassTag:
    """Place a member of P(n-2,k) into its codomain class.

    Keyed on whether the two smallest admissible values n-k and n-k-1
    occur in lam and on whether mu sits on its boundary 2k.
    """
    if not in_P(n - 2, k, t):
        raise ValueError(f"{t} is not in P({n - 2},{k})")
    low = t.lam.contains(n - k)
    lower = t.lam.contains(n - k - 1)
    if low and lower:
        return ClassTag.C_PRIME if t.mu.first == 2 * k else ClassTag.D
    if low != lower:
        return ClassTag.B_PRIME
    return ClassTag.A_PRIME


def lowering_map(n: int, k: int) -> str:
    """The index rule: the name of the map that lowers (n, k); ValueError if none does."""
    if 0 <= k <= n - 2:
        return "phi"
    if n >= 2 and k in (n - 1, n):
        return "involution"
    raise ValueError(f"no map lowers n={n}, k={k}")


def _require_map(name: str, n: int, k: int) -> None:
    """ValueError unless the index rule names `name` at (n, k)."""
    if lowering_map(n, k) != name:
        raise ValueError(f"{name} does not lower n={n}, k={k}")


def _in_domain(n: int, k: int, x: TripleValue) -> bool:
    """Membership in the maps' domain at (n, k): P(n,k), or a marked input
    (marker q^(2n-1), no z, payload in P(n-1,k-1))."""
    if isinstance(x, MarkedObject):
        return (x.marker_q == 2 * n - 1 and x.marker_z == 0
                and in_P(n - 1, k - 1, x.payload))
    return in_P(n, k, x)


def _require_input(name: str, n: int, k: int, x: TripleValue) -> None:
    """ValueError unless the index rule names `name` at (n, k) and x is in
    the maps' domain there."""
    _require_map(name, n, k)
    if not _in_domain(n, k, x):
        raise ValueError(f"{x} is not in the domain of {name} at n={n}, k={k}")


def phi(n: int, k: int, x: TripleValue) -> TripleValue:
    """The n-lowering bijection at index k (0 <= k <= n-2).

    Domain: P(n,k) together with marker-(2n-1) copies of P(n-1,k-1).
    Codomain: P(n-1,k-1) together with marker-(2n-3) copies of P(n-2,k).
    Every case preserves the signed weight, markers included:

      embedded: the triple already lies in P(n-1,k-1); identity
      A:        drop two staircase rows and the first row of mu (this
                covers k = 0, where P(n,0) is the bare staircase)
      B:        drop two staircase rows; the one part from {n+k, n+k-1}
                shrinks by 2k
      C:        drop two staircase rows; both top parts shrink by 2k and
                mu gains a new part 2k
      marked:   drop two staircase rows; lam gains parts n-k and n-k-1

    ValueError unless the index rule names phi at (n, k) and x is in its
    domain.
    """
    _require_input("phi", n, k, x)
    marker_out = 2 * n - 3
    if isinstance(x, MarkedObject):
        t = x.payload
        lam = t.lam.with_part(n - k).with_part(n - k - 1)
        return MarkedObject(marker_out, Triple(t.tau.drop_first_rows(2), lam, t.mu))
    t = x
    tag = _class_of(n, k, t)
    tau2 = t.tau.drop_first_rows(2)
    if tag is ClassTag.EMBEDDED:
        return t
    if tag is ClassTag.A:
        return MarkedObject(marker_out, Triple(tau2, t.lam, t.mu.drop_first()))
    if tag is ClassTag.B:
        part = n + k if t.lam.contains(n + k) else n + k - 1
        return MarkedObject(marker_out,
                            Triple(tau2, t.lam.replace_part(part, part - 2 * k), t.mu))
    lam = t.lam.replace_part(n + k, n - k).replace_part(n + k - 1, n - k - 1)
    return MarkedObject(marker_out, Triple(tau2, lam, t.mu.with_part(2 * k)))


def involution(n: int, k: int, x: TripleValue) -> TripleValue:
    """The sign-reversing involution at index k in {n-1, n}, n >= 2.

    Acts on P(n,k) together with marker-(2n-1) copies of P(n-1,k-1).
    With toggle = 2k and marker part 2n-1:

      (a) toggle in lam: move it to mu
      (b) toggle in mu but not lam: move one copy back to lam
      (c) no toggle anywhere and lam starts with 2n-1: strip that part
          and emit the marker
      (d) marked input: absorb the marker, insert part 2n-1 into lam
      (e) otherwise fixed; the fixed set is exactly the embedded copy
          of P(n-1,k-1)

    The toggle rules fire before the marker exchange.  Non-fixed points
    pair up with equal unsigned weight and opposite sign.  ValueError
    unless the index rule names the involution at (n, k) and x is in its
    domain.
    """
    _require_input("involution", n, k, x)
    return _involute(n, k, x)


def _involute(n: int, k: int, x: TripleValue) -> TripleValue:
    """Rules (a)-(e) of `involution` with no check: x must be in its domain."""
    toggle = 2 * k
    marker_part = 2 * n - 1
    if isinstance(x, MarkedObject):
        t = x.payload
        return Triple(t.tau, t.lam.with_part(marker_part), t.mu)
    t = x
    if t.lam.contains(toggle):
        return Triple(t.tau, t.lam.without_part(toggle), t.mu.with_part(toggle))
    if t.mu.contains(toggle):
        return Triple(t.tau, t.lam.with_part(toggle), t.mu.without_part(toggle))
    if t.lam.first == marker_part:
        return MarkedObject(marker_part,
                            Triple(t.tau, t.lam.without_part(marker_part), t.mu))
    return t


def andrews_orbit(n: int, k: int, x: TripleValue) -> list[tuple[str, TripleValue]]:
    """Follow one element through successive maps until it lands unmarked.

    Marked images (2n-3, t) re-enter the construction one level down, as
    marked (2(n-1)-1, t) inputs at index k+1.  The chain ends after an
    involution, at an unmarked image, or at a lowered index that no map
    lowers; ValueError if no map lowers (n, k).
    """
    steps: list[tuple[str, TripleValue]] = [("start", x)]
    name = lowering_map(n, k)
    while True:
        x = (phi if name == "phi" else involution)(n, k, x)
        steps.append((f"{name}({n},{k})", x))
        if name == "involution" or not isinstance(x, MarkedObject):
            return steps
        n, k = n - 1, k + 1
        try:
            name = lowering_map(n, k)
        except ValueError:
            return steps


# slices and certificates --------------------------------------------------

def _marked_slice(a: tuple, marker: int, b: tuple, cap: int) -> list[TripleValue]:
    """P(a) plus marker-`marker` copies of P(b), all of weight <= cap."""
    return enum_P(*a, cap) + [MarkedObject(marker, t) for t in enum_P(*b, cap - marker)]


def domain_slice(n: int, k: int, cap: int) -> list[TripleValue]:
    """P(n,k) plus marker-(2n-1) copies of P(n-1,k-1), all of weight <= cap."""
    return _marked_slice((n, k), 2 * n - 1, (n - 1, k - 1), cap)


def phi_certificate(n: int, k: int, cap: int) -> Certificate:
    """Exhaustive weight-graded bijection check of phi on a capped slice."""
    _require_map("phi", n, k)
    codomain = _marked_slice((n - 1, k - 1), 2 * n - 3, (n - 2, k), cap)
    return check_graded_bijection(
        lambda x: phi(n, k, x), domain_slice(n, k, cap), codomain, weight_of,
        cap=cap, check="andrews-phi", params={"n": n, "k": k})


def involution_certificate(n: int, k: int, cap: int) -> Certificate:
    """Check the involution laws on a capped slice.

    Verifies that every image lies in the map's domain, that applying the
    map twice is the identity, that non-fixed points pair with equal
    unsigned weight and opposite sign, and that the fixed set is exactly
    the embedded copy of P(n-1,k-1).  An empty slice would verify
    vacuously, so it raises ValueError.
    """
    started = time.monotonic()
    _require_map("involution", n, k)
    slice_ = domain_slice(n, k, cap)
    if not slice_:
        raise ValueError(f"empty domain: andrews-involution {dict(n=n, k=k)}")
    embedded = set(enum_P(n - 1, k - 1, cap))
    return certify("andrews-involution", {"n": n, "k": k}, started,
                   _involution_failure(n, k, slice_, embedded), cap=cap,
                   domain_size=len(slice_), codomain_size=len(embedded))


def _involution_failure(n, k, slice_, embedded):
    # Only the images are tested for membership, each once; the slice is
    # the capped domain by construction.  No check is lost: in a verified
    # certificate the map is involutive on the slice, and every image is in
    # the domain and has its element's weight, so it is within the cap.  So
    # the images are exactly the slice, and testing each image tests each
    # element once.
    fixed = set()
    for x in slice_:
        y = _involute(n, k, x)
        if not _in_domain(n, k, y):
            return x, y, REASON_NOT_IN_CODOMAIN
        back = _involute(n, k, y)
        if back != x:
            return x, y, "not-involutive"
        if y == x:
            fixed.add(x)
            continue
        (sign_x, *grade_x), (sign_y, *grade_y) = weight_of(x), weight_of(y)
        if grade_y != grade_x:
            return x, y, "weight-mismatch"
        if sign_y != -sign_x:
            return x, y, "sign-not-reversed"
    if fixed != embedded:
        return min(fixed ^ embedded, key=repr), None, "fixed-set-mismatch"
    return None


# the weighted sums ---------------------------------------------------------

@lru_cache(maxsize=64)
def F_trunc(n: int, cap: int) -> TruncatedSeries:
    """Signed weighted count of the union of all P(n,k), truncated at cap.

    Counted by weight with integer additions only, no product formula: per
    k, a histogram takes coin-change steps over mu's even parts 2, ..., 2k,
    then signed subset-sum steps over lam's parts n-k+1, ..., n+k, and is
    added in at the staircase weight C(n-k,2).
    """
    if n < 0 or cap < 0:
        raise ValueError("n and cap must be nonnegative")
    coeffs = [0] * (cap + 1)
    for k in range(n + 1):
        tau_weight = (n - k) * (n - k - 1) // 2
        if tau_weight > cap:
            continue
        hist = [1] + [0] * (cap - tau_weight)
        for part in range(2, 2 * k + 1, 2):
            for w in range(part, len(hist)):
                hist[w] += hist[w - part]
        for part in range(n - k + 1, n + k + 1):
            for w in range(len(hist) - 1, part - 1, -1):
                hist[w] -= hist[w - part]
        for w, count in enumerate(hist, tau_weight):
            coeffs[w] += count
    return TruncatedSeries(cap, dict(enumerate(coeffs)))


def sum_checks(n: int) -> list[str]:
    """The sum-level checks that apply at n, in certificate order: identity
    at every n >= 0, rec_fn (it reads F_{n-2}) from 2, gn (F_{n-1}) from 1."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return [which for which, least_n in (("identity", 0), ("rec_fn", 2), ("gn", 1))
            if n >= least_n]


def verify_andrews(n: int, cap: int, which: str) -> Certificate:
    """Check one of the sum-level consequences at truncation cap.

    which = "identity": F_n equals the alternating square sum on [0, cap]
    which = "rec_fn":   F_n + (q^(2n-1) - 1) F_{n-1} - q^(2n-3) F_{n-2} = 0
    which = "gn":       F_n + q^(2n-1) F_{n-1} = 2
    The recurrence forms are compared on the window [0, cap - (2n-1)],
    which params.window records; mul_poly keeps the cap, so the products
    are exact on all of [0, cap] and the window is only conservative.
    Raises ValueError unless sum_checks(n) lists which and cap >= n^2.
    """
    if which not in sum_checks(n):
        raise ValueError(f"{which!r} is not a sum check at n={n}: {sum_checks(n)}")
    if cap < n * n:
        raise ValueError(f"cap must be at least n^2 = {n * n}")
    started = time.monotonic()
    if which == "identity":
        lhs = F_trunc(n, cap)
        rhs = truncate(rhs_andrews(n), cap)
        check = "andrews-identity"
    elif which == "rec_fn":
        shift = LaurentPoly.monomial(1, 0, 2 * n - 1) - LaurentPoly.one()
        lhs = (F_trunc(n, cap)
               + F_trunc(n - 1, cap).mul_poly(shift)
               - F_trunc(n - 2, cap).mul_poly(LaurentPoly.monomial(1, 0, 2 * n - 3)))
        rhs = TruncatedSeries(cap)
        check = "andrews-rec-fn"
    else:
        lhs = (F_trunc(n, cap)
               + F_trunc(n - 1, cap).mul_poly(LaurentPoly.monomial(1, 0, 2 * n - 1)))
        rhs = TruncatedSeries.constant(2, cap)
        check = "andrews-gn"
    window = cap if which == "identity" else cap - (2 * n - 1)
    mismatch = lhs.first_mismatch(rhs, window)
    failure = None
    if mismatch is not None:
        failure = ({"q_exp": mismatch},
                   {"lhs": lhs.coeff(mismatch), "rhs": rhs.coeff(mismatch)},
                   "coefficient-mismatch")
    return certify(check, {"n": n, "which": which, "window": window}, started,
                   failure, cap=cap)
