"""Square/even-partition pairs, the two families of weight-preserving maps
on them, and the full verification of MacMahon's finite product identity

    sum_k z^k q^(k^2) [m+n, m+k]_(q^2)  =  (-q/z; q^2)_m (-zq; q^2)_n.

Every family is a box (side, bound, slots): the pairs with square side
`side` whose even partition has largest part <= bound and at most `slots`
parts.  P(n,m,k) is the box (k, 2m+2k, n-k) and Q(n,k) the box
(k, 2n-2k, k); a negative bound or slot count is exactly an index out of
range (k outside [-m, n] for P, [0, n] for Q), and the box is then empty.
The boundary slices G(n,m,k) and H(n,k) are the pairs of the box whose
largest part equals its bound (the empty partition's reads as 0).

phi_step lowers m by one, psi_step lowers n by one, by one construction:
a pair of the index's own box is its own image, and a boundary pair of the
neighbouring box (k-1 for phi, k+1 for psi) loses its first row and
carries a marker.  So at each index k

    f(k) + h(k) = g(k) + h(k+1)

with f, g the weighted counts of the two sides and h that of the boundary
slice.  Summing over k telescopes h away and yields the two recurrences.

The two paths see the boxes differently.  The bijection path (the step
certificates and cancelation) builds every pair of a box and reads its
boundary slice off that list.  The sum path needs weights only: _box_counts
walks every even partition of a box once, keeping each leaf's |mu| and
whether its first part is the bound, and builds no pair.  verify_macmahon
runs the per-index check (telescope.telescoping_sum_check) on those counts,
then checks the closed-form identity.  The walk visits every leaf, so the
sum side stays an enumeration, independent of the Pascal recurrence behind
gaussian_binomial.
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
                        telescoping_sum_check, weight_of)


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
Box = tuple[int, int, int]  # (side, bound, slots), see the module docstring


# boxes ------------------------------------------------------------------

def _box_P(n: int, m: int, k: int) -> Box:
    return k, 2 * m + 2 * k, n - k


def _box_Q(n: int, k: int) -> Box:
    return k, 2 * n - 2 * k, k


def _in_box(box: Box, x: MacValue) -> bool:
    side, bound, slots = box
    return (isinstance(x, MacPair) and x.side == side
            and x.mu.has_even_parts() and x.mu.first <= bound
            and x.mu.length <= slots)


def _enum_box(box: Box) -> list[MacPair]:
    side, bound, slots = box
    if bound < 0 or slots < 0:
        return []
    return [MacPair(side, mu) for mu in enum_even_bounded(bound, slots)]


def _boundary(box: Box, pairs: list[MacPair]) -> list[MacPair]:
    """The pairs of a list of the box whose largest part equals its bound."""
    return [x for x in pairs if x.mu.first == box[1]]


def enum_P(n: int, m: int, k: int) -> list[MacPair]:
    """All of P(n,m,k); empty for k outside [-m, n]."""
    return _enum_box(_box_P(n, m, k))


def enum_Q(n: int, k: int) -> list[MacPair]:
    """All of Q(n,k); empty for k outside [0, n]."""
    return _enum_box(_box_Q(n, k))


# the two step maps ------------------------------------------------------

def _step(box: Box, neighbour: Box, marker: tuple[int, int],
          x: MacValue) -> tuple[int, MacValue]:
    """The step map at one index: a pair of box is its own image, a
    boundary pair of the neighbouring box loses its first row, takes the
    side of box and carries the marker (marker_q, marker_z).  Anything
    else, a MarkedObject included, is rejected here with ValueError."""
    if _in_box(box, x):
        return (1 if x.mu.first == box[1] else 2), x
    if _in_box(neighbour, x) and x.mu.first == neighbour[1]:
        out = MacPair(box[0], x.mu.drop_first())
        return 3, MarkedObject(marker[0], out, marker_z=marker[1])
    raise ValueError(f"{x} is neither in {box} nor on the boundary of {neighbour}")


def phi_step(n: int, m: int, k: int, x: MacPair) -> tuple[int, MacValue]:
    """One application of the m-lowering map at index k.

    Input must lie in P(n,m,k) or G(n,m,k-1); n >= 0, m >= 1.  Returns
    (case, value):
      case 1: boundary pair, lands in G(n,m,k) unchanged
      case 2: interior pair, lands in P(n,m-1,k) unchanged
      case 3: G(n,m,k-1) pair; the side grows by one, the first row of mu
              goes away, and the output carries marker q^(2m-1)/z
    """
    if n < 0 or m < 1:
        raise ValueError("phi_step requires n >= 0 and m >= 1")
    return _step(_box_P(n, m, k), _box_P(n, m, k - 1), (2 * m - 1, -1), x)


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
    return _step(_box_Q(n, k), _box_Q(n, k + 1), (2 * n - 1, 1), x)


# certificates -----------------------------------------------------------

def _slice_certificate(map_fn, enum, box, here, neighbour, lower, marker,
                       check: str, params: dict) -> Certificate:
    """Bijection check of a step map at one index; enum and box take a family
    index (enum_P and _box_P, or enum_Q and _box_Q).  Domain: here, then the
    boundary of neighbour.  Codomain: lower bare and marked, then the
    boundary of here.  Each box is enumerated once."""
    pairs = enum(*here)
    domain = pairs + _boundary(box(*neighbour), enum(*neighbour))
    lowered = enum(*lower)
    codomain = (lowered + [MarkedObject(marker[0], x, marker_z=marker[1])
                           for x in lowered] + _boundary(box(*here), pairs))
    del pairs, lowered  # only domain and codomain stay alive for the check
    return check_graded_bijection(map_fn, domain, codomain, weight_of,
                                  cap=None, check=check, params=params)


def phi_certificate(n: int, m: int, k: int) -> Certificate:
    """Exhaustive bijection check of phi_step at one index (finite sets)."""
    return _slice_certificate(lambda x: phi_step(n, m, k, x)[1], enum_P, _box_P,
                              (n, m, k), (n, m, k - 1), (n, m - 1, k), (2 * m - 1, -1),
                              "macmahon-phi", {"n": n, "m": m, "k": k})


def psi_certificate(n: int, k: int) -> Certificate:
    """Exhaustive bijection check of psi_step at one index (finite sets)."""
    return _slice_certificate(lambda x: psi_step(n, k, x)[1], enum_Q, _box_Q,
                              (n, k), (n, k + 1), (n - 1, k), (2 * n - 1, 1),
                              "macmahon-psi", {"n": n, "k": k})


# weighted counts: one walk per box, no pairs -----------------------------

def _walk(hist: list[int], limit: int, slots: int, weight: int) -> None:
    """Count every even partition with parts <= limit and at most `slots`
    parts, each into hist at `weight` plus its own weight."""
    hist[weight] += 1
    if slots:
        for part in range(2, limit + 1, 2):
            _walk(hist, part, slots - 1, weight + part)


def _box_counts(box: Box) -> tuple[LaurentPoly, LaurentPoly]:
    """Weighted counts of a box and of its boundary slice, from one walk over
    its even partitions that keeps only each leaf's |mu|, filed under the
    boundary when the leaf's first part equals the bound (the empty
    partition's reads as 0).  No pair is built."""
    side, bound, slots = box
    if bound < 0 or slots < 0:
        return ZERO, ZERO
    inner, edge = [0] * (bound * slots + 1), [0] * (bound * slots + 1)
    (edge if bound == 0 else inner)[0] += 1  # the empty partition
    if slots:
        for first in range(2, bound + 1, 2):
            _walk(edge if first == bound else inner, first, slots - 1, first)

    def shifted(hist):  # z^side q^(side^2 + w) per leaf of weight w
        return LaurentPoly({(side, side * side + w): c
                            for w, c in enumerate(hist) if c})

    return shifted([a + b for a, b in zip(inner, edge)]), shifted(edge)


def phi_telescoping_counts(n: int, m: int):
    """(f, g, h, k_min, k_max) for the m-lowering telescoping relation.

    f(k) counts P(n,m,k), g(k) = (1 + q^(2m-1)/z) * count of P(n,m-1,k),
    and h(k) counts G(n,m,k-1), which vanishes at k_min = -m and beyond
    k_max = n.  Each P box is walked once, G(n,m,k) being counted on the
    walk over P(n,m,k); no pair is built.
    """
    coeff = ONE + LaurentPoly.monomial(1, -1, 2 * m - 1)
    f, g, h = {}, {}, {-m: ZERO}
    for k in range(-m, n + 1):
        f[k], h[k + 1] = _box_counts(_box_P(n, m, k))
        g[k] = coeff * _box_counts(_box_P(n, m - 1, k))[0]
    return f, g, h, -m, n


def psi_telescoping_counts(n: int):
    """(f, g, h, k_min, k_max) for the n-lowering telescoping relation.

    Oriented for the generic checker: f(k) = (1 + z*q^(2n-1)) * count of
    Q(n-1,k), g(k) counts Q(n,k), h(k) counts H(n,k), counted on the walk
    over Q(n,k).  Each Q box is walked once.
    """
    coeff = ONE + LaurentPoly.monomial(1, 1, 2 * n - 1)
    f, g, h = {}, {}, {n + 1: ZERO}
    for k in range(0, n + 1):
        f[k] = coeff * _box_counts(_box_Q(n - 1, k))[0]
        g[k], h[k] = _box_counts(_box_Q(n, k))
    return f, g, h, 0, n


def _pair_count(counts) -> int:
    """The number of pairs some weighted counts stand for: their value at
    z = q = 1, since every pair weighs one monomial with coefficient +1."""
    return sum(c for poly in counts for _z, _q, c in poly.terms())


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
        domain_size = _pair_count(counts[0].values())
        # g holds every P(n,m-1,k) pair twice: bare and marked
        codomain_size = _pair_count(counts[1].values()) // 2
        failure = _recurrence_failure("m-lowering recurrence", *counts)
    else:
        domain_size = codomain_size = _pair_count(
            _box_counts(_box_P(n, 0, k))[0] for k in range(n + 1))
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
    """Verify that the direct map obtained by iterating phi is a bijection.

    The checker drives each pair in the union of the P(n,m,k) through the
    tagged union until it first lands in a target, as it reaches the pair;
    the budget is the size of the whole union plus one.
    """
    domain = [x for k in range(-m, n + 1) for x in enum_P(n, m, k)]
    boundary = sum(x.mu.first == _box_P(n, m, x.side)[1] for x in domain)
    budget = len(domain) + boundary + 1

    def direct(a: MacPair) -> MacValue:
        return cancelation_psi(lambda t: telescoping_phi(n, m, t), ("A", a),
                               lambda t: t[0] == "B", budget)[1]

    codomain = [x for k in range(-m, n + 1) for x in enum_P(n, m - 1, k)]
    codomain = codomain + [MarkedObject(2 * m - 1, x, marker_z=-1) for x in codomain]
    return check_graded_bijection(
        direct, domain, codomain, weight_of,
        cap=None, check="macmahon-cancelation", params={"n": n, "m": m})
