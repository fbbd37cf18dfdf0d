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
certificates and cancelation) runs on a packed form, one int per pair (see
_Layout): each box is enumerated as ints and its boundary slice read off
that list, membership is one AND-and-compare plus a length bound, and each
step map is one rule (_step_rule) whose moving case is a constant shift.
The certificates decode a pair only for a counterexample.  The public
enum_P, enum_Q, phi_step, psi_step and telescoping_phi take and return
MacPairs: they check the input, encode it, run the packed rule and decode
the result.  The sum
path needs weights only: _box_counts walks every even partition of a box
once, keeping each leaf's |mu| and whether its first part is the bound, and
builds no pair.  verify_macmahon runs the per-index check
(telescope.telescoping_sum_check) on those counts, then checks the
closed-form identity.  The walk visits every leaf, so the sum side stays an
enumeration, independent of the Pascal recurrence behind gaussian_binomial.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional, Union

# enum_even_bounded and weight_of are not called here; they stay importable
# from this module, where perfbench/tracer.py wraps them
from .partitions import Partition, enum_even_bounded  # noqa: F401
from .qalgebra import (ONE, ZERO, LaurentPoly, factor_product,
                       gaussian_binomial)
from .telescope import (Certificate, MarkedObject, WeightKey,  # noqa: F401
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


# the packed form -------------------------------------------------------------

_MARKED = 1  # the flag bit of a marked pair
_SIDE = 1  # where the side field starts


class _Layout:
    """Where the fields of the packed form sit, for pairs with sides in
    [lo, hi] and at most `slots` parts, marked with `marker` (q, z).

    From bit 0 up: the marked flag; side - lo and mu's length, `width` bits
    each; then the multiplicities of mu's parts 2, 4, 6, ..., `width` bits
    each and unbounded above.  A field holds max(hi - lo, slots), so no
    step between two sides of [lo, hi] carries or borrows across a field.
    """

    __slots__ = ("lo", "marker", "width", "field", "length", "mu")

    def __init__(self, lo: int, hi: int, slots: int, marker=(0, 0)):
        self.lo, self.marker = lo, marker
        self.width = max(hi - lo, slots, 1).bit_length()
        self.field = (1 << self.width) - 1
        self.length = _SIDE + self.width
        self.mu = _SIDE + 2 * self.width

    def mu_part(self, p: int) -> int:
        """One mu part p, an even part >= 2: the unit of its multiplicity field."""
        return 1 << self.mu + (p // 2 - 1) * self.width


def _step_layout(box: Box, neighbour: Box, marker: tuple[int, int]) -> _Layout:
    """The layout of a step map: it fits both boxes' sides and slots."""
    sides = box[0], neighbour[0]
    return _Layout(min(sides), max(sides), max(box[2], neighbour[2], 0), marker)


def _encode(x: MacValue, lay: _Layout) -> Optional[int]:
    """The pair x, bare or with the layout's marker, in the packed form of
    `lay`; None where x has no packed form: another marker, a side outside
    the layout, more parts than a field holds, an odd or zero part."""
    flag = 0
    if isinstance(x, MarkedObject) and (x.marker_q, x.marker_z) == lay.marker:
        flag, x = _MARKED, x.payload
    if not isinstance(x, MacPair):
        return None
    side, mu = x.side - lay.lo, x.mu
    if not (0 <= side <= lay.field and mu.length <= lay.field
            and mu.has_even_parts()):
        return None
    return (flag + (side << _SIDE) + (mu.length << lay.length)
            + sum(map(lay.mu_part, mu.parts)))


def _decoder(lay: _Layout) -> Callable[[int], MacValue]:
    """The inverse of _encode at `lay`.  Equal mus of the pairs it decodes
    are one shared Partition."""
    field, width = lay.field, lay.width

    @lru_cache(maxsize=None)
    def mu_of(mults: int) -> Partition:
        parts, part = [], 2
        while mults:
            parts += [part] * (mults & field)
            mults >>= width
            part += 2
        return Partition(tuple(reversed(parts)))

    def decode(x: int) -> MacValue:
        pair = MacPair((x >> _SIDE & field) + lay.lo, mu_of(x >> lay.mu))
        if x & _MARKED:
            return MarkedObject(lay.marker[0], pair, marker_z=lay.marker[1])
        return pair
    return decode


def _weight_key(lay: _Layout) -> Callable[[int], WeightKey]:
    """weight_of on the packed form of `lay`, computed from the fields; the
    weight of each mu met is worked out once."""
    field, width, lo = lay.field, lay.width, lay.lo
    marker_q, marker_z = lay.marker

    @lru_cache(maxsize=None)
    def mu_weight(mults: int) -> int:
        q, part = 0, 2
        while mults:
            q += part * (mults & field)
            mults >>= width
            part += 2
        return q

    def weight(x: int) -> WeightKey:
        side = (x >> _SIDE & field) + lo
        q = side * side + mu_weight(x >> lay.mu)
        return (1, side + marker_z, q + marker_q) if x & _MARKED else (1, side, q)
    return weight


def _box_test(box: Box, lay: _Layout) -> tuple[int, int, int]:
    """(forbidden, expected, limit): a packed x is in the box iff
    x & forbidden == expected and its length field is at most limit.  The
    bits left free are the length and the multiplicities of the parts
    2 .. bound; the flag is 0 and the side the box's.  Never true where the
    box is empty or its side is outside `lay`."""
    side, bound, slots = box
    if bound < 0 or slots < 0 or not 0 <= side - lay.lo <= lay.field:
        return 0, 1, 0  # x & 0 is never 1
    free = lay.field << lay.length | ((1 << bound // 2 * lay.width) - 1) << lay.mu
    return ~free, side - lay.lo << _SIDE, slots << lay.length


def _edge_test(bound: int, lay: _Layout) -> Callable[[int], bool]:
    """The boundary test of a box with this bound, on the packed form: mu
    has a part `bound`, or, when bound is 0, mu is empty."""
    if bound > 0:
        mask = lay.field * lay.mu_part(bound)
        return lambda x: x & mask != 0
    mask = lay.field << lay.length
    return lambda x: x & mask == 0


def _enum_packed(box: Box, lay: _Layout) -> list[int]:
    """All pairs of the box, packed at `lay`, in enum_even_bounded's order
    (mu lexicographic, each partition before its extensions).  No Partition
    is built."""
    side, bound, slots = box
    if bound < 0 or slots < 0:
        return []
    row = 1 << lay.length  # one more part

    @lru_cache(maxsize=None)
    def tails(limit: int, room: int) -> list[int]:
        out = [0]
        if room:
            for part in range(2, limit + 1, 2):
                head = row + lay.mu_part(part)
                out += [head + t for t in tails(part, room - 1)]
        return out

    base = side - lay.lo << _SIDE
    return [base + t for t in tails(bound, slots)]


def _step_rule(box: Box, neighbour: Box, lay: _Layout) -> Callable[[int], int]:
    """The step map at one index, on the packed form: a pair of box is its
    own image, and a boundary pair of the neighbouring box takes one
    constant shift: its first row goes (an empty mu has none), it takes the
    side of box and the flag is set.  ValueError for anything else."""
    forbidden, expected, limit = _box_test(box, lay)
    n_forbidden, n_expected, n_limit = _box_test(neighbour, lay)
    on_edge = _edge_test(neighbour[1], lay)
    length = lay.field << lay.length
    first_row = lay.mu_part(neighbour[1]) + (1 << lay.length) if neighbour[1] > 0 else 0
    shift = _MARKED + (box[0] - neighbour[0] << _SIDE) - first_row

    def step(x: int) -> int:
        if x & forbidden == expected and x & length <= limit:
            return x
        if x & n_forbidden == n_expected and x & length <= n_limit and on_edge(x):
            return x + shift
        raise ValueError(_not_in_domain(_decoder(lay)(x), box, neighbour))
    return step


def _not_in_domain(x, box: Box, neighbour: Box) -> str:
    return f"{x} is neither in {box} nor on the boundary of {neighbour}"


# the public families and step maps --------------------------------------------

def _enum_box(box: Box) -> list[MacPair]:
    lay = _Layout(box[0], box[0], max(box[2], 0))
    return list(map(_decoder(lay), _enum_packed(box, lay)))


def enum_P(n: int, m: int, k: int) -> list[MacPair]:
    """All of P(n,m,k); empty for k outside [-m, n]."""
    return _enum_box(_box_P(n, m, k))


def enum_Q(n: int, k: int) -> list[MacPair]:
    """All of Q(n,k); empty for k outside [0, n]."""
    return _enum_box(_box_Q(n, k))


def _phi_index(n: int, m: int, k: int) -> tuple[Box, Box, tuple[int, int]]:
    """The box of phi_step at index k, its neighbour and its marker (q, z)."""
    if n < 0 or m < 1:
        raise ValueError("phi_step requires n >= 0 and m >= 1")
    return _box_P(n, m, k), _box_P(n, m, k - 1), (2 * m - 1, -1)


def _psi_index(n: int, k: int) -> tuple[Box, Box, tuple[int, int]]:
    """The box of psi_step at index k, its neighbour and its marker (q, z)."""
    if n < 1:
        raise ValueError("psi_step requires n >= 1")
    return _box_Q(n, k), _box_Q(n, k + 1), (2 * n - 1, 1)


def _apply(box: Box, neighbour: Box, marker: tuple[int, int],
           x: MacValue) -> tuple[int, MacValue]:
    """A step map on a pair: encode it, run the packed rule, decode the
    image and read the case off it."""
    lay = _step_layout(box, neighbour, marker)
    packed = _encode(x, lay)
    if packed is None:
        raise ValueError(_not_in_domain(x, box, neighbour))
    y = _step_rule(box, neighbour, lay)(packed)
    case = 3 if y & _MARKED else 1 if _edge_test(box[1], lay)(y) else 2
    return case, _decoder(lay)(y)


def phi_step(n: int, m: int, k: int, x: MacPair) -> tuple[int, MacValue]:
    """One application of the m-lowering map at index k.

    Input must lie in P(n,m,k) or G(n,m,k-1); n >= 0, m >= 1.  Returns
    (case, value):
      case 1: boundary pair, lands in G(n,m,k) unchanged
      case 2: interior pair, lands in P(n,m-1,k) unchanged
      case 3: G(n,m,k-1) pair; the side grows by one, the first row of mu
              goes away, and the output carries marker q^(2m-1)/z
    """
    return _apply(*_phi_index(n, m, k), x)


def psi_step(n: int, k: int, x: MacPair) -> tuple[int, MacValue]:
    """One application of the n-lowering map at index k.

    Input must lie in Q(n,k) or H(n,k+1); n >= 1.  Returns (case, value):
      case 1: boundary pair, lands in H(n,k) unchanged
      case 2: interior pair, lands in Q(n-1,k) unchanged
      case 3: H(n,k+1) pair; the side shrinks by one, the first row of mu
              goes away, and the output carries marker z*q^(2n-1)
    """
    return _apply(*_psi_index(n, k), x)


# certificates -----------------------------------------------------------

def _slice_certificate(box: Box, neighbour: Box, marker: tuple[int, int],
                       lower: Box, check: str, params: dict) -> Certificate:
    """Bijection check of a step map at one index, on the packed form.
    Domain: box, then the boundary of neighbour.  Codomain: lower bare and
    marked, then the boundary of box.  Each box is enumerated once."""
    lay = _step_layout(box, neighbour, marker)
    pairs = _enum_packed(box, lay)
    domain = pairs + list(filter(_edge_test(neighbour[1], lay),
                                 _enum_packed(neighbour, lay)))
    lowered = _enum_packed(lower, lay)
    codomain = (lowered + [x + _MARKED for x in lowered]
                + list(filter(_edge_test(box[1], lay), pairs)))
    del pairs, lowered  # only domain and codomain stay alive for the check
    return check_graded_bijection(_step_rule(box, neighbour, lay), domain, codomain,
                                  _weight_key(lay), cap=None, check=check,
                                  params=params, present=_decoder(lay))


def phi_certificate(n: int, m: int, k: int) -> Certificate:
    """Exhaustive bijection check of phi_step at one index (finite sets)."""
    return _slice_certificate(*_phi_index(n, m, k), _box_P(n, m - 1, k),
                              "macmahon-phi", {"n": n, "m": m, "k": k})


def psi_certificate(n: int, k: int) -> Certificate:
    """Exhaustive bijection check of psi_step at one index (finite sets)."""
    return _slice_certificate(*_psi_index(n, k), _box_Q(n - 1, k),
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

def _cancelation_rule(n: int, m: int):
    """(layout, telescoping_phi on its packed form, the boundary test of the
    box of a packed pair's own side) for the cancelation at (n, m)."""
    lay = _Layout(-m, n + 1, n + m + 1, _phi_index(n, m, 0)[2])
    field = lay.field
    # both lists are indexed by the side field, side + m
    steps = [_step_rule(*_phi_index(n, m, k)[:2], lay) for k in range(-m, n + 2)]
    edges = [_edge_test(_box_P(n, m, k)[1], lay) for k in range(-m, n + 1)]

    def on_edge(x: int) -> bool:
        return edges[x >> _SIDE & field](x)

    def step(tagged: tuple[str, int]) -> tuple[str, int]:
        tag, x = tagged
        y = steps[(x >> _SIDE & field) + (tag == "H")](x)
        return ("H" if not y & _MARKED and on_edge(y) else "B"), y
    return lay, step, on_edge


def telescoping_phi(n: int, m: int, tagged: tuple[str, MacPair]):
    """One step of the combined map on the tagged union of all indices.

    Elements are ("A", pair) for pair in P(n,m,side) or ("H", pair) for
    pair in G(n,m,side) viewed at index side+1, where phi_step runs.  The
    image is tagged "H" where it is case 1 (an unmarked pair on the
    boundary of its own box) and "B" once the orbit lands in the union of
    targets.
    """
    tag, pair = tagged
    if tag not in ("A", "H"):
        raise ValueError(f"unexpected tag {tag!r}")
    k = pair.side + (tag == "H")
    box, neighbour, _ = _phi_index(n, m, k)
    lay, step, _ = _cancelation_rule(n, m)
    packed = _encode(pair, lay)
    if packed is None or k > n + 1:
        raise ValueError(_not_in_domain(pair, box, neighbour))
    out, y = step((tag, packed))
    return out, _decoder(lay)(y)


def cancelation_certificate(n: int, m: int) -> Certificate:
    """Verify that the direct map obtained by iterating phi is a bijection.

    Runs telescoping_phi on the packed form.  The checker drives each pair
    in the union of the P(n,m,k) through the tagged union until it first
    lands in a target, as it reaches the pair; the budget is the size of
    the union plus its boundary pairs plus one.
    """
    lay, step, on_edge = _cancelation_rule(n, m)
    ks = range(-m, n + 1)
    domain = [x for k in ks for x in _enum_packed(_box_P(n, m, k), lay)]
    budget = len(domain) + sum(map(on_edge, domain)) + 1

    def direct(a: int) -> int:
        return cancelation_psi(step, ("A", a), lambda t: t[0] == "B", budget)[1]

    codomain = [x for k in ks for x in _enum_packed(_box_P(n, m - 1, k), lay)]
    codomain += [x + _MARKED for x in codomain]
    return check_graded_bijection(
        direct, domain, codomain, _weight_key(lay), cap=None,
        check="macmahon-cancelation", params={"n": n, "m": m},
        present=_decoder(lay))
