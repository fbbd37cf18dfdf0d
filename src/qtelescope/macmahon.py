"""Square/even-partition pairs, the two families of weight-preserving maps
on them, and the full verification of MacMahon's finite product identity

    sum_k z^k q^(k^2) [m+n, m+k]_(q^2)  =  (-q/z; q^2)_m (-zq; q^2)_n.

Four finite families of pairs (square side, even partition) are involved:

    P(n,m,k): side k, largest even part <= 2m+2k, at most n-k parts
    G(n,m,k): the boundary slice of P where the largest part equals 2m+2k
    Q(n,k):   side k, at most k parts, largest part <= 2n-2k
    H(n,k):   the boundary slice of Q where the largest part equals 2n-2k

The largest part of the empty partition reads as 0, so a boundary slice
whose boundary value is 0 contains the pair with empty second component.

The map phi_step lowers m by one, psi_step lowers n by one; both shuffle
the boundary slices, so that at each index k

    f(k) + h(k) = g(k) + h(k+1)

with f, g the weighted counts of the two sides and h that of the boundary
slice.  Summing over k telescopes h away and yields the two recurrences.
verify_macmahon runs this per-index check (telescope.telescoping_sum_check)
on counts from one exhaustive enumeration of every P and Q family, then
checks the closed-form identity.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Union

from .partitions import Partition, enum_even_bounded
from .qalgebra import (ONE, ZERO, LaurentPoly, factor_product,
                       gaussian_binomial)
from .telescope import (Certificate, MarkedObject, WeightKey,
                        cancelation_psi, certify, check_graded_bijection,
                        telescoping_sum_check, weight_of, weighted_count)


@dataclass(frozen=True, slots=True)
class MacPair:
    """A square partition (stored as its signed side) with an even partition.

    Weight monomial: z^side * q^(side^2 + |mu|).
    """

    side: int
    mu: Partition

    def weight(self) -> WeightKey:
        return 1, self.side, self.side * self.side + self.mu.weight

    def to_json_obj(self) -> dict:
        return {"side": self.side, "mu": self.mu.to_json_obj()}


MacValue = Union[MacPair, MarkedObject]


# family membership -----------------------------------------------------

def in_P(n: int, m: int, k: int, x: MacPair) -> bool:
    return (x.side == k and -m <= k <= n and x.mu.has_even_parts()
            and x.mu.first <= 2 * m + 2 * k and x.mu.length <= n - k)


def in_G(n: int, m: int, k: int, x: MacPair) -> bool:
    return in_P(n, m, k, x) and x.mu.first == 2 * m + 2 * k


def in_Q(n: int, k: int, x: MacPair) -> bool:
    return (x.side == k and 0 <= k and x.mu.has_even_parts()
            and x.mu.length <= k and x.mu.first <= 2 * n - 2 * k)


def in_H(n: int, k: int, x: MacPair) -> bool:
    return in_Q(n, k, x) and x.mu.first == 2 * n - 2 * k


# enumeration ------------------------------------------------------------

def enum_P(n: int, m: int, k: int) -> list[MacPair]:
    """All of P(n,m,k); empty for k outside [-m, n]."""
    if not (-m <= k <= n):
        return []
    return [MacPair(k, mu) for mu in enum_even_bounded(2 * m + 2 * k, n - k)]


def enum_G(n: int, m: int, k: int) -> list[MacPair]:
    bound = 2 * m + 2 * k
    return [x for x in enum_P(n, m, k) if x.mu.first == bound]


def enum_Q(n: int, k: int) -> list[MacPair]:
    """All of Q(n,k); empty for k outside [0, n]."""
    if not (0 <= k <= n):
        return []
    return [MacPair(k, mu) for mu in enum_even_bounded(2 * n - 2 * k, k)]


def enum_H(n: int, k: int) -> list[MacPair]:
    bound = 2 * n - 2 * k
    return [x for x in enum_Q(n, k) if x.mu.first == bound]


# the two step maps ------------------------------------------------------

def phi_step(n: int, m: int, k: int, x: MacPair) -> tuple[int, MacValue]:
    """One application of the m-lowering map at index k.

    Input must lie in P(n,m,k) or G(n,m,k-1); m >= 1.  Returns (case, value):
      case 1: boundary pair, lands in G(n,m,k) unchanged
      case 2: interior pair, lands in P(n,m-1,k) unchanged
      case 3: G(n,m,k-1) pair; the side grows by one, the first row of mu
              goes away, and the output carries marker q^(2m-1)/z
    """
    if m < 1:
        raise ValueError("phi_step requires m >= 1")
    if isinstance(x, MarkedObject):
        raise ValueError("marked objects are not in the domain of phi_step")
    if x.side == k and in_P(n, m, k, x):
        if x.mu.first == 2 * m + 2 * k:
            return 1, x
        return 2, x
    if x.side == k - 1 and in_G(n, m, k - 1, x):
        out = MacPair(k, x.mu.drop_first())
        return 3, MarkedObject(2 * m - 1, out, marker_z=-1)
    raise ValueError(f"{x} is not in P({n},{m},{k}) or G({n},{m},{k - 1})")


def psi_step(n: int, k: int, x: MacPair) -> tuple[int, MacValue]:
    """One application of the n-lowering map at index k.

    Input must lie in Q(n,k) or H(n,k+1); n >= 1.  Returns (case, value):
      case 1: boundary pair, lands in H(n,k) unchanged
      case 2: interior pair, lands in Q(n-1,k) unchanged
      case 3: H(n,k+1) pair; the side shrinks by one, the first row of mu
              goes away, and the output carries marker z*q^(2n-1)
    """
    if n < 1:
        raise ValueError("psi_step requires n >= 1")
    if isinstance(x, MarkedObject):
        raise ValueError("marked objects are not in the domain of psi_step")
    if x.side == k and in_Q(n, k, x):
        if x.mu.first == 2 * n - 2 * k:
            return 1, x
        return 2, x
    if x.side == k + 1 and in_H(n, k + 1, x):
        out = MacPair(k, x.mu.drop_first())
        return 3, MarkedObject(2 * n - 1, out, marker_z=1)
    raise ValueError(f"{x} is not in Q({n},{k}) or H({n},{k + 1})")


# certificates -----------------------------------------------------------

def phi_certificate(n: int, m: int, k: int) -> Certificate:
    """Exhaustive bijection check of phi_step at one index (finite sets)."""
    domain = enum_P(n, m, k) + enum_G(n, m, k - 1)
    codomain = (enum_P(n, m - 1, k)
                + [MarkedObject(2 * m - 1, x, marker_z=-1)
                   for x in enum_P(n, m - 1, k)]
                + enum_G(n, m, k))
    return check_graded_bijection(
        lambda x: phi_step(n, m, k, x)[1], domain, codomain, weight_of,
        cap=None, check="macmahon-phi", params={"n": n, "m": m, "k": k})


def psi_certificate(n: int, k: int) -> Certificate:
    """Exhaustive bijection check of psi_step at one index (finite sets)."""
    domain = enum_Q(n, k) + enum_H(n, k + 1)
    codomain = (enum_Q(n - 1, k)
                + [MarkedObject(2 * n - 1, x, marker_z=1)
                   for x in enum_Q(n - 1, k)]
                + enum_H(n, k))
    return check_graded_bijection(
        lambda x: psi_step(n, k, x)[1], domain, codomain, weight_of,
        cap=None, check="macmahon-psi", params={"n": n, "k": k})


def _tally(family: list[MacPair], bound: int):
    """Weighted counts of one index's family and of its boundary slice, the
    pairs whose largest part equals bound."""
    return (weighted_count(family),
            weighted_count([x for x in family if x.mu.first == bound]))


def phi_telescoping_counts(n: int, m: int):
    """(f, g, h, k_min, k_max) for the m-lowering telescoping relation.

    f(k) counts P(n,m,k), g(k) = (1 + q^(2m-1)/z) * count of P(n,m-1,k),
    and h(k) counts G(n,m,k-1), which vanishes at k_min = -m and beyond
    k_max = n.  Each P family is enumerated once, G(n,m,k) being read off
    the list of P(n,m,k); each list is dropped before the next is built, so
    peak memory is one index's list.
    """
    coeff = ONE + LaurentPoly.monomial(1, -1, 2 * m - 1)
    f, g, h = {}, {}, {-m: ZERO}
    for k in range(-m, n + 1):
        f[k], h[k + 1] = _tally(enum_P(n, m, k), 2 * m + 2 * k)
        g[k] = coeff * weighted_count(enum_P(n, m - 1, k))
    return f, g, h, -m, n


def psi_telescoping_counts(n: int):
    """(f, g, h, k_min, k_max) for the n-lowering telescoping relation.

    Oriented for the generic checker: f(k) = (1 + z*q^(2n-1)) * count of
    Q(n-1,k), g(k) counts Q(n,k), h(k) counts H(n,k), read off the list
    of Q(n,k).  Each Q family is enumerated once.
    """
    coeff = ONE + LaurentPoly.monomial(1, 1, 2 * n - 1)
    f, g, h = {}, {}, {n + 1: ZERO}
    for k in range(0, n + 1):
        f[k] = coeff * weighted_count(enum_Q(n - 1, k))
        g[k], h[k] = _tally(enum_Q(n, k), 2 * n - 2 * k)
    return f, g, h, 0, n


def _pair_count(counts: dict) -> int:
    """The number of pairs a weighted count stands for: its value at
    z = q = 1, since every pair weighs one monomial with coefficient +1."""
    return sum(c for poly in counts.values() for _z, _q, c in poly.terms())


def product_sum_F(n: int, m: int) -> LaurentPoly:
    """Closed-form left-hand side: sum_k z^k q^(k^2) [m+n, m+k] in base q^2."""
    total = LaurentPoly.zero()
    for k in range(-m, n + 1):
        term = LaurentPoly.monomial(1, k, k * k) * gaussian_binomial(m + n, m + k, 2)
        total = total + term
    return total


def _recurrence_failure(name: str, f, g, h, k_min, k_max):
    sub = telescoping_sum_check(f, g, h, k_max=k_max, k_min=k_min)
    return None if sub.verified else (name, sub.counterexample,
                                      "sub-identity-violated")


def verify_macmahon(n: int, m: int) -> Certificate:
    """Verify the identity and both enumerated recurrences at one (n, m).

    Three exact polynomial checks, each skipped only where its index
    range makes it vacuous:
      (a) m-lowering recurrence: the per-index telescoping relation of
          phi on the enumerated P families                     (m >= 1)
      (b) n-lowering recurrence: the same for psi on the Q families
                                                               (n >= 1)
      (c) the closed-form identity: weighted sum = product of factors
    Summing the per-index relation over k gives the recurrence, so a
    failed one reports the telescoping sub-check's counterexample, which
    names the index k.
    """
    if n < 0 or m < 0:
        raise ValueError("n and m must be nonnegative")
    started = time.monotonic()
    failure = None
    if m >= 1:
        counts = phi_telescoping_counts(n, m)
        domain_size = _pair_count(counts[0])
        # g holds every P(n,m-1,k) pair twice: bare and marked
        codomain_size = _pair_count(counts[1]) // 2
        failure = _recurrence_failure("m-lowering recurrence", *counts)
    else:
        domain_size = codomain_size = sum(len(enum_P(n, 0, k))
                                          for k in range(n + 1))
    if failure is None and n >= 1:
        failure = _recurrence_failure("n-lowering recurrence",
                                      *psi_telescoping_counts(n))
    if failure is None:
        lhs = product_sum_F(n, m)
        rhs = factor_product(m, 1, -1, 1, 2) * factor_product(n, 1, 1, 1, 2)
        if lhs != rhs:
            failure = ("product identity", {"lhs": str(lhs), "rhs": str(rhs)},
                       "sub-identity-violated")
    return certify("macmahon", {"n": n, "m": m}, started, failure,
                   domain_size=domain_size, codomain_size=codomain_size)


# cancelation: the direct bijection obtained by iterating phi -------------

def telescoping_phi(n: int, m: int, tagged: tuple[str, MacPair]):
    """One step of the combined map on the tagged union of all indices.

    Elements are ("A", pair) for pair in P(n,m,side) or ("H", pair) for
    pair in G(n,m,side) viewed at index side+1.  Outputs tagged ("B", _)
    once the orbit lands in the union of targets.
    """
    tag, pair = tagged
    if tag == "A":
        k = pair.side
    elif tag == "H":
        k = pair.side + 1
    else:
        raise ValueError(f"unexpected tag {tag!r}")
    case, out = phi_step(n, m, k, pair)
    if case == 1:
        return ("H", out)
    return ("B", out)


def cancelation_certificate(n: int, m: int) -> Certificate:
    """Build the direct map by iterating phi and verify it is a bijection.

    Every pair in the union of the P(n,m,k) is driven through the tagged
    union until it first lands in a target; the budget is the size of the
    whole union plus one.
    """
    domain = [x for k in range(-m, n + 1) for x in enum_P(n, m, k)]
    h_part = [x for k in range(-m, n + 1) for x in enum_G(n, m, k)]
    budget = len(domain) + len(h_part) + 1
    direct: dict[MacPair, MacValue] = {}
    for a in domain:
        landed = cancelation_psi(
            lambda t: telescoping_phi(n, m, t), ("A", a),
            lambda t: t[0] == "B", budget)
        direct[a] = landed[1]
    codomain = [x for k in range(-m, n + 1) for x in enum_P(n, m - 1, k)]
    codomain = codomain + [MarkedObject(2 * m - 1, x, marker_z=-1) for x in codomain]
    return check_graded_bijection(
        direct.__getitem__, domain, codomain, weight_of,
        cap=None, check="macmahon-cancelation", params={"n": n, "m": m})
