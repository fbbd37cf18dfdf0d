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

phi_step lowers m by one, psi lowers n by one, by one construction:
a pair of the index's own box is its own image, and a boundary pair of the
neighbouring box (k-1 for phi, k+1 for psi) loses its first row and
carries a marker.  So at each index k

    f(k) + h(k) = g(k) + h(k+1)

with f, g the weighted counts of the two sides and h that of the boundary
slice.  Summing over k telescopes h away and yields the two recurrences.

The two paths see the boxes differently.  The bijection path (the step
certificates and cancelation) runs on a packed form, one int per pair (see
_Layout; mu is a partitions.EvenField): one helper, _groups, walks each
box, or its boundary slice generated from its first part, as groups of
ints, which _enum_packed flattens, _count_classes counts by class and
_box_size counts by partitions.box_size; a box's membership is one
guard (_masks), an AND-and-compare plus a length bound.  Each step map
is a table of two rows (_step_table) of those guards, read by
telescope.first_match, as Andrews' maps are;
the cancelation's walk (_walk) is composed once per class of each box
into one rule (_composed).  The certificates run in the bijection kernel
both families share, telescope.bijection_by_class
(_bijection_certificate): once per class x & R of each walk of the
domain, R the bits its checks read, each walk with its rule and its
member, the first match of the codomain's guards where its images
land, against the map's inverse, which takes a marked pair's shift back
by an image's flag and side field, and the weights read by _key, which
folds side, flag, marker and mu's weight into one int.  The classes are counted off _groups' (head, tails)
pairs, each tail list classed once, and no pair is built.  Each codomain
is stated once, as walks (box, flag), the box's pairs plus the flag; its
guards, its size and the oracle's list all come from them.  Where the kernel fails, check_graded_bijection reruns on
lists of both sides as the oracle and weighs the decoded pairs with
weight_of, decoding a pair only for a counterexample.  The public
enum_P and phi_step take and return MacPairs: phi_step checks the input,
encodes it, runs the packed rule and decodes the result;
telescoping_phi steps through phi_step and retags its case.  The sum
path needs weights only: one enumeration per leaf family, in C, and the
lower family is the box off its boundary, which is the next box's
boundary less its bound (_box_counts); no pair is built.  Each count is
one int, packed (qalgebra.Kronecker) by the layout of its (n, m), which
_sum_layout reads off the boxes' largest leaf weights and leaf counts:
the Counter of leaf weights goes straight into its slots, and g's
marked copy (psi's f) is a shift and an add.  verify_macmahon runs the
per-index check (telescope.telescoping_sum_check) on those ints, then,
in the same packing, compares the closed form's Gaussian sum,
gaussian_row's Pascal recurrence on ints, with the packed product of the
two factor_products, and last the enumerated totals with the Gaussian
sums, the one at (n, m) computed once for both.  A failed check decodes
the packed values it compared to name its counterexample; the public
phi_telescoping_counts and psi_telescoping_counts are decodes of the
same packed computations.  Every leaf is counted, so the sum side stays
an enumeration, independent of the Pascal recurrence behind the closed
form.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass
from functools import partial
from itertools import chain, combinations_with_replacement
from operator import lshift
from typing import Callable, Iterable, Iterator, Optional, Union

from .partitions import EvenField, Memo, Partition, box_size
from .qalgebra import Kronecker, factor_product, gaussian_row
from .telescope import (NEVER, Certificate, IterationBudgetExceeded, MarkedObject, Rule,
                        WeightKey, bijection_by_class, certify, check_graded_bijection,
                        first_match, rule_call, telescoping_sum_check)


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
    [lo, hi], at most `slots` parts and parts at most `bound`, marked with
    `marker` (q, z).

    From bit 0 up: the marked flag; side - lo and mu's length, `width` bits
    each; then mu, an EvenField of `width`-bit multiplicities.  A field
    holds max(hi - lo, slots), so no step between two sides of [lo, hi]
    carries or borrows across a field.  `span` is the bit above mu's fields
    for the parts up to the bound: every pair of the layout packs below it.
    """

    __slots__ = ("lo", "marker", "field", "length", "mu", "span")

    def __init__(self, lo: int, hi: int, slots: int, bound: int, marker=(0, 0)):
        self.lo, self.marker = lo, marker
        width = max(hi - lo, slots, 1).bit_length()
        self.field = (1 << width) - 1
        self.length = _SIDE + width
        self.mu = EvenField(_SIDE + 2 * width, width)
        self.span = self.mu.unit(max(bound, 0) // 2 * 2 + 2)


def _step_layout(box: Box, neighbour: Box, marker: tuple[int, int]) -> _Layout:
    """The layout of a step map: it fits both boxes' sides, slots and
    bounds."""
    sides = box[0], neighbour[0]
    return _Layout(min(sides), max(sides), max(box[2], neighbour[2], 0),
                   max(box[1], neighbour[1]), marker)


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
    return flag + (side << _SIDE) + (mu.length << lay.length) + lay.mu.encode(mu.parts)


def _decoder(lay: _Layout) -> Callable[[int], MacValue]:
    """The inverse of _encode at `lay`.  Equal mus of the pairs it decodes
    are one shared Partition."""
    field, mu_of, at = lay.field, lay.mu.decode, lay.mu.at

    def decode(x: int) -> MacValue:
        mu = mu_of[x >> at]
        if mu is None:  # a negative int packs no pair
            return {"packed": x}
        pair = MacPair((x >> _SIDE & field) + lay.lo, mu)
        if x & _MARKED:
            return MarkedObject(lay.marker[0], pair, marker_z=lay.marker[1])
        return pair
    return decode


def _masks(box: Box, lay: _Layout, flag: int) -> tuple:
    """The guard (forbidden, expected, (length, 0, limit)) of the box's
    pairs with the flag `flag`: a packed x passes it iff x & forbidden ==
    expected and its length field, x & length, is at most limit.  The
    bits left free are the length and the multiplicities of the parts 2
    .. bound, so expected is the side field and the flag.  The limit is
    the slots, or 0 at bound 0, where mu is empty.  NEVER where the box is
    empty or its side is outside `lay`."""
    side, bound, slots = box
    if bound < 0 or slots < 0 or not 0 <= side - lay.lo <= lay.field:
        return NEVER
    length = lay.field << lay.length
    return (~(length | lay.mu.unit(bound + 2) - lay.mu.unit(2)),
            (side - lay.lo << _SIDE) + flag, (length, 0, (slots if bound else 0) << lay.length))


def _edge(bound: int, lay: _Layout) -> tuple[int, int, int]:
    """(mask, least, most): a packed x is on the boundary of a box with
    this bound iff least <= x & mask <= most.  That is, mu has a part
    `bound` (its multiplicity is not 0), or, when bound is 0, mu is empty
    (its length is 0)."""
    if bound > 0:
        mask = lay.field * lay.mu.unit(bound)
        return mask, 1, mask
    return lay.field << lay.length, 0, 0


def _groups(walks: Iterable[tuple[Box, bool]],
            lay: _Layout) -> Iterator[tuple[int, list[int]]]:
    """The pairs of the walks (box, edge), packed at `lay`: each box (with
    `edge`, its boundary slice) as mu's EvenField.chunks walks it, with
    the side field added to each head."""
    row = 1 << lay.length
    for (side, bound, slots), edge in walks:
        base = side - lay.lo << _SIDE
        for head, tails in lay.mu.chunks(bound, slots, row, edge):
            yield base + head, tails


def _enum_packed(box: Box, lay: _Layout, edge: bool = False) -> Iterator[int]:
    """All pairs of the box (or its boundary slice), packed at `lay`, one
    at a time: _groups flattened."""
    return (head + t for head, tails in _groups([(box, edge)], lay) for t in tails)


def _count_classes(walks: Iterable[tuple[Box, bool]], lay: _Layout, reads: int) -> Counter:
    """How many pairs _groups yields in each class x & reads, for reads a
    union of whole fields, counted from the groups without building a
    pair.  No field of a pair overflows, so (head + t) & reads == (head &
    reads) + (t & reads): each memoised tail list is classed once, in C,
    kept by its identity for the call, and each head's class is added to
    its counts."""
    classes, known = Counter(), {}
    for head, tails in _groups(walks, lay):
        tail_classes = known.get(id(tails))
        if tail_classes is None:  # the list is kept, so its id is not reused
            tail_classes = known[id(tails)] = tails, Counter(map(reads.__and__, tails))
        head &= reads
        for t, count in tail_classes[1].items():
            classes[head + t] += count
    return classes


def _box_size(box: Box, edge: bool = False) -> int:
    """The number of pairs _enum_packed yields, partitions.box_size.  A
    boundary slice is the box with one slot fewer, the first part being
    the bound, or at bound 0 the box itself, its empty mu alone."""
    _side, bound, slots = box
    if edge and bound:
        slots -= 1
    return box_size(bound, slots)


def _step_table(box: Box, neighbour: Box, lay: _Layout) -> list[tuple]:
    """The step map at one index as rows (case, guard, shift), each guard a
    bare box's _masks: a pair of box is its own image, and one on the
    neighbour's boundary (_edge, a second range) loses its first row (an
    empty mu has none), takes the side of box and is flagged."""
    side, bound, _ = neighbour
    first_row = lay.mu.unit(bound) + (1 << lay.length) if bound > 0 else 0
    return [("box", _masks(box, lay, 0), 0),
            ("boundary", (*_masks(neighbour, lay, 0), _edge(bound, lay)),
             _MARKED + (box[0] - side << _SIDE) - first_row)]


def _index_rule(box: Box, neighbour: Box, lay: _Layout) -> Rule:
    """The step map at one index as its rule: _step_table's first match."""
    return first_match((guard, shift) for _, guard, shift in _step_table(box, neighbour, lay))


def _step(box: Box, neighbour: Box, lay: _Layout) -> Callable[[int], int]:
    """_index_rule as a call, ValueError outside the domain (rule_call)."""
    decode = _decoder(lay)
    return rule_call(_index_rule(box, neighbour, lay),
                     lambda x: _not_in_domain(decode(x), box, neighbour))


def _not_in_domain(x, box: Box, neighbour: Box) -> str:
    return f"{x} is neither in {box} nor on the boundary of {neighbour}"


# the public families and step maps --------------------------------------------

def _enum_box(box: Box) -> list[MacPair]:
    lay = _Layout(box[0], box[0], max(box[2], 0), box[1])
    return list(map(_decoder(lay), _enum_packed(box, lay)))


def enum_P(n: int, m: int, k: int) -> list[MacPair]:
    """All of P(n,m,k); empty for k outside [-m, n]."""
    return _enum_box(_box_P(n, m, k))


def _phi_index(n: int, m: int, k: int) -> tuple[Box, Box, tuple[int, int]]:
    """The box of phi_step at index k, its neighbour and its marker (q, z)."""
    if n < 0 or m < 1:
        raise ValueError("phi_step requires n >= 0 and m >= 1")
    return _box_P(n, m, k), _box_P(n, m, k - 1), (2 * m - 1, -1)


def _psi_index(n: int, k: int) -> tuple[Box, Box, tuple[int, int]]:
    """The box of psi at index k, its neighbour and its marker (q, z)."""
    if n < 1:
        raise ValueError("psi requires n >= 1")
    return _box_Q(n, k), _box_Q(n, k + 1), (2 * n - 1, 1)


def _apply(box: Box, neighbour: Box, marker: tuple[int, int],
           x: MacValue) -> tuple[int, MacValue]:
    """A step map on a pair: encode it, run the packed rule, decode the
    image and read the case off it."""
    lay = _step_layout(box, neighbour, marker)
    packed = _encode(x, lay)
    if packed is None:
        raise ValueError(_not_in_domain(x, box, neighbour))
    y = _step(box, neighbour, lay)(packed)
    edge, least, most = _edge(box[1], lay)
    case = 3 if y & _MARKED else 1 if least <= y & edge <= most else 2
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


# certificates -----------------------------------------------------------

def _key(lay: _Layout) -> Callable[[int], int]:
    """The class kernel's one read of a packed pair's weight, as the int
    (q << scale) + z + offset, where 0 <= z + offset < 2^scale for every
    side field and flag: q is side^2 + |mu|, z the side, plus the marker
    when flagged."""
    field, lo, (marker_q, marker_z) = lay.field, lay.lo, lay.marker
    zs = lo, lo + field, lo + marker_z, lo + field + marker_z
    offset, scale = -min(zs), (max(zs) - min(zs)).bit_length()
    at, mu_weight = lay.mu.at, Memo(lay.mu.weight)

    def key(x: int) -> int:
        side, flag = (x >> _SIDE & field) + lo, x & _MARKED
        return ((side * side + flag * marker_q + mu_weight[x >> at] << scale)
                + side + flag * marker_z + offset)
    return key


def _bijection_certificate(walks: list, step: Callable[[int], int], codomain: list,
                           shifts: list, lay: _Layout, check: str, params: dict) -> Certificate:
    """The bijection check of a packed map from the domain's walks ((box,
    edge), the map's rule there, the side fields its images land on) to
    the codomain's walks (box, flag), once per class of each walk's pairs
    (_count_classes) in telescope.bijection_by_class.  Each codomain walk
    is one guard, the box's _masks with its flag, built once; a walk's
    member is the first match of the guards at the side fields it lands
    on, the only ones its images are tested against.  Its R holds the flag
    and side field, which index the inverse, its rule's read and its
    member's, narrowed below lay.span, so it is nonnegative.  Every bit R
    leaves out is a whole mu field, which adds its parts to the weight
    (_key).  The inverse takes a marked image less shifts[its side field]
    and any other image as itself.  Where the kernel fails,
    check_graded_bijection reruns against the call `step`, weighs decoded
    pairs and names the counterexample."""
    started = time.monotonic()
    field, flag_side = lay.field, _MARKED | lay.field << _SIDE
    guards = [(_masks(box, lay, flag), (box, flag)) for box, flag in codomain]

    def by_class(walk: tuple[Box, bool], rule: Rule, lands: tuple[int, ...]) -> tuple:
        member = first_match((guard, to) for guard, to in guards
                             if guard is not NEVER and guard[1] >> _SIDE in lands)
        reads = (flag_side | rule[1] | member[1]) & lay.span - 1
        return rule, reads, member, _count_classes([walk], lay, reads)

    size = bijection_by_class(
        (by_class(*walk) for walk in walks),
        ([back for shift in shifts[:field + 1] for back in (0, shift)], flag_side),
        _key(lay), sum(_box_size(box) for box, _ in codomain))
    if size is not None:
        return certify(check, params, started, domain_size=size, codomain_size=size)
    domain = chain.from_iterable(_enum_packed(box, lay, edge) for (box, edge), *_ in walks)
    return check_graded_bijection(
        step, domain, [x + flag for box, flag in codomain for x in _enum_packed(box, lay)],
        check=check, params=params, present=_decoder(lay))


def _slice_certificate(box: Box, neighbour: Box, marker: tuple[int, int],
                       check: str, params: dict) -> Certificate:
    """Bijection check of a step map at one index, on the packed form.
    Domain: box, then the boundary of neighbour.  Codomain: box, and the
    box off its boundary, (side, bound - 2, slots), marked, both at box's
    side, where every image lands.  The domain is counted by class, each
    box walked once and the boundary from its first part; the codomain is
    counted and tested by masks."""
    side, bound, slots = box
    lay = _step_layout(box, neighbour, marker)
    rule, lands = _index_rule(box, neighbour, lay), (side - lay.lo,)
    return _bijection_certificate(
        [((box, False), rule, lands), ((neighbour, True), rule, lands)],
        _step(box, neighbour, lay), [(box, 0), ((side, bound - 2, slots), _MARKED)],
        [_step_table(box, neighbour, lay)[-1][2]] * (lay.field + 1), lay, check, params)


def phi_certificate(n: int, m: int, k: int) -> Certificate:
    """Exhaustive bijection check of phi_step at one index (finite sets),
    checked by class; see _slice_certificate."""
    return _slice_certificate(*_phi_index(n, m, k), "macmahon-phi", {"n": n, "m": m, "k": k})


def psi_certificate(n: int, k: int) -> Certificate:
    """Exhaustive bijection check of psi, the n-lowering step map, at one
    index (finite sets), checked by class; see _slice_certificate."""
    return _slice_certificate(*_psi_index(n, k), "macmahon-psi", {"n": n, "k": k})


# weighted counts: one enumeration per leaf family, packed, no pairs ----------

class _SumLayout(Kronecker):
    """A sum side's packing and its leaf families: families[top, parts],
    a Memo, packs the count of the multisets of `parts` parts from 0, 2,
    .., top by weight q^(sum), each leaf made and summed in C."""

    __slots__ = ("families",)

    def __init__(self, z_lo: int, top: int, bound: int):
        super().__init__(z_lo, top, bound)
        width = self.width

        def family(key: tuple[int, int]) -> int:
            top, parts = key
            weights = Counter(map(sum, combinations_with_replacement(range(0, top + 1, 2), parts)))
            # each count c of a weight q into its slot: c << width * q
            return sum(map(lshift, weights.values(), map(width.__mul__, weights)))
        self.families = Memo(family)


def _sum_layout(n: int, m: int) -> _SumLayout:
    """The packing of the sum side's counts at (n, m), from the boxes it
    enumerates, the P(n,m,k) and Q(n,k): z from -m - 1 (phi's marker
    lowers z by one); q up to a box's largest leaf weight, side^2 +
    bound*slots, plus a marker q^(2m-1) or q^(2n-1); coefficients up to
    twice the boxes' leaves (_box_size), as g holds its box off the
    boundary twice.  The closed form fits too: the Gaussian sum at (n, m)
    and the product of its two factors reach q^(m^2 + n^2), the largest
    leaf weight of P(n,m,n-m), and coefficients 2^(m+n), the P boxes'
    leaves; the Pascal entries on the way and the sum at (n, 0) stay
    below both."""
    boxes = [_box_P(n, m, k) for k in range(-m, n + 1)] + [_box_Q(n, k) for k in range(n + 1)]
    top = max(side * side + bound * slots for side, bound, slots in boxes)
    leaves = sum(map(_box_size, boxes))
    return _SumLayout(-m - 1, top + 2 * max(m, n), 2 * leaves)


def _box_counts(box: Box, lay: _SumLayout) -> tuple[int, int]:
    """Weighted counts of a box off its boundary slice and on it, packed
    by lay.  An even partition is its multiset of `slots` parts from 0, 2,
    .., bound, zeros padding it: off the boundary all are below the bound,
    on it one is the bound.  Each is a family of lay, raised to the box;
    the boundary's is the next box's family off its boundary."""
    side, bound, slots = box
    if bound < 0 or slots < 0:
        return 0, 0
    base = lay.at(side - lay.z_lo, side * side)  # z^side q^(side^2)
    if not slots:  # the empty partition alone; its first part reads as 0
        return (1 << base, 0) if bound else (0, 1 << base)
    families = lay.families
    return (families[bound - 2, slots] << base,
            families[bound, slots - 1] << base + lay.width * bound)


def _phi_counts(n: int, m: int, lay: _SumLayout):
    """phi_telescoping_counts, packed by lay."""
    f, g, h = {}, {}, {-m: 0}
    marker = lay.at(1, 1 - 2 * m)  # q^(2m-1)/z, a right shift by this
    for k in range(-m, n + 1):
        off, h[k + 1] = _box_counts(_box_P(n, m, k), lay)
        f[k], g[k] = off + h[k + 1], off + (off >> marker)
    return f, g, h, -m, n


def _psi_counts(n: int, lay: _SumLayout):
    """psi_telescoping_counts, packed by lay."""
    f, g, h = {}, {}, {n + 1: 0}
    marker = lay.at(1, 2 * n - 1)  # z*q^(2n-1)
    for k in range(0, n + 1):
        off, h[k] = _box_counts(_box_Q(n, k), lay)
        f[k], g[k] = off + (off << marker), off + h[k]
    return f, g, h, 0, n


def _decoded(counts, lay: Kronecker):
    """Telescoping counts with each packed count decoded."""
    f, g, h, k_min, k_max = counts
    return (*({k: lay.unpack(x) for k, x in side.items()} for side in (f, g, h)),
            k_min, k_max)


def phi_telescoping_counts(n: int, m: int):
    """(f, g, h, k_min, k_max) for the m-lowering telescoping relation.

    f(k) counts P(n,m,k), g(k) = (1 + q^(2m-1)/z) * count of P(n,m-1,k),
    and h(k) counts G(n,m,k-1), which vanishes at k_min = -m and beyond
    k_max = n.  All three come from P(n,m,k): G(n,m,k) is its boundary, and
    P(n,m-1,k) the box off it.
    """
    lay = _sum_layout(n, m)
    return _decoded(_phi_counts(n, m, lay), lay)


def psi_telescoping_counts(n: int):
    """(f, g, h, k_min, k_max) for the n-lowering telescoping relation.

    Oriented for the generic checker: f(k) = (1 + z*q^(2n-1)) * count of
    Q(n-1,k), g(k) counts Q(n,k), h(k) counts H(n,k).  All three come from
    Q(n,k): H(n,k) is its boundary, and Q(n-1,k) the box off it.
    """
    lay = _sum_layout(n, 0)
    return _decoded(_psi_counts(n, lay), lay)


def _gaussian_sum(n: int, m: int, lay: Kronecker) -> int:
    """sum_k z^k q^(k^2) [m+n, m+k]_(q^2), packed by lay: entry j of the
    Gaussian row at z^(j-m), which lay must hold (z_lo <= -m)."""
    return sum(entry << lay.at(j - m - lay.z_lo, (j - m) ** 2)
               for j, entry in enumerate(gaussian_row(m + n, 2, lay)))


def _recurrence_failure(name: str, counts, lay: Kronecker):
    """The relation check on the counts packed by lay, which decodes a
    counterexample's polynomials."""
    f, g, h, k_min, k_max = counts
    sub = telescoping_sum_check(f, g, h, k_max=k_max, k_min=k_min, present=lay.unpack)
    return None if sub.verified else (name, sub.counterexample,
                                      "sub-identity-violated")


def _closed_form_failure(n: int, m: int, lay: _SumLayout, p_total: int,
                         q_total: Optional[int]):
    """The closed form, in the sum side's own packing lay: the Gaussian
    sum at (n, m) against the product of the two factors, then against the
    P(n,m,k) total, and the Q(n,k) total (None at n = 0) against the
    Gaussian sum at (n, 0), which at m = 0 is the one at (n, m).  Each
    factor packed from z_lo, their product is offset by z^(-2 z_lo), -z_lo
    rows more than the sum, which is raised to meet it; a factor lay does
    not pack, or a product it may not hold, is compared as polynomials.
    The relations hold whatever a shared family counts; only the totals
    tie the families to their leaves."""
    minus, plus = factor_product(m, 1, -1, 1, 2), factor_product(n, 1, 1, 1, 2)
    closed = _gaussian_sum(n, m, lay)
    product = lay.pack_product(minus, plus)
    if product is None:
        holds = lay.unpack(closed) == minus * plus
    else:
        holds = product == closed << lay.at(-lay.z_lo, 0)
    if not holds:
        return ("product identity", {"lhs": str(lay.unpack(closed)), "rhs": str(minus * plus)},
                "sub-identity-violated")
    totals = [("P total", p_total, closed)]
    if q_total is not None:
        totals.append(("Q total", q_total, _gaussian_sum(n, 0, lay) if m else closed))
    for name, total, gaussian in totals:
        if total != gaussian:
            return (name, {"enumerated": str(lay.unpack(total)),
                           "closed form": str(lay.unpack(gaussian))}, "sub-identity-violated")
    return None


def verify_macmahon(n: int, m: int) -> Certificate:
    """Verify the identity and both enumerated recurrences at one (n, m).

    Four exact polynomial checks, each skipped only where its index
    range makes it vacuous:
      (a) m-lowering recurrence: the per-index telescoping relation of
          phi on the enumerated P families                     (m >= 1)
      (b) n-lowering recurrence: the same for psi on the Q families
                                                               (n >= 1)
      (c) the closed-form identity: weighted sum = product of factors
      (d) the enumerated totals of the P and (n >= 1) Q families against
          the closed form's Gaussian sums
    Summing the per-index relation over k gives the recurrence, so a
    failed one reports the telescoping sub-check's counterexample, which
    names the index k.  Every check compares packed ints in the one
    packing of (n, m) (qalgebra.Kronecker, laid out by _sum_layout), the
    Gaussian sum at (n, m) computed once for (c) and (d)
    (_closed_form_failure); a failed one decodes them to name the
    counterexample.
    """
    if n < 0 or m < 0:
        raise ValueError("n and m must be nonnegative")
    started = time.monotonic()
    lay, failure, q_total = _sum_layout(n, m), None, None
    counts = _phi_counts(n, m, lay)
    p_total = sum(counts[0].values())
    codomain_size = lay.at_one(p_total)
    if m >= 1:
        # g holds every P(n,m-1,k) pair twice: bare and marked
        codomain_size = lay.at_one(sum(counts[1].values())) // 2
        failure = _recurrence_failure("m-lowering recurrence", counts, lay)
    if failure is None and n >= 1:
        counts = _psi_counts(n, lay)
        q_total = sum(counts[1].values())
        failure = _recurrence_failure("n-lowering recurrence", counts, lay)
    if failure is None:
        failure = _closed_form_failure(n, m, lay, p_total, q_total)
    return certify("macmahon", {"n": n, "m": m}, started, failure,
                   domain_size=lay.at_one(p_total), codomain_size=codomain_size)


# cancelation: the direct bijection obtained by iterating phi -------------

def _walk(a: int, levels: list, edges: list, field: int, budget: int) -> tuple[int, int]:
    """telescoping_phi's walk from the packed pair a: x steps by the level
    (call, read) at its side field, the next one while x is a bare image on
    its box's edge.  (Where it lands, the union of a, each image, read and
    edge mask met); ValueError, or after budget steps no_landing(budget, ("A", a))."""
    x, up, seen = a, 0, a
    for _ in range(budget):
        step, read = levels[(x >> _SIDE & field) + up]
        y = step(x)
        edge, least, most = edges[y >> _SIDE & field]
        seen |= read | y | edge
        if y & _MARKED or not least <= y & edge <= most:
            return y, seen
        x, up = y, 1
    raise IterationBudgetExceeded.no_landing(budget, ("A", a))


def _composed(walk: Callable[[int], tuple[int, int]], read: int) -> Rule:
    """The direct map on a box as a rule composed per class c = x & read, R:
    shifts[c] is c's landing less c, exact where c's walk reads nothing off
    R and no image carries or borrows out of it (seen & ~R == 0), so x walks
    to (x & ~R) | c's image; KeyError elsewhere and where the walk raises."""
    def shift(c: int) -> int:
        try:
            image, seen = walk(c)
        except (ValueError, IterationBudgetExceeded):
            raise KeyError(c) from None
        if seen & ~read:
            raise KeyError(c)
        return image - c
    return Memo(shift), read


def telescoping_phi(n: int, m: int, tagged: tuple[str, MacPair]):
    """One step of the combined map on the tagged union of all indices.

    Elements are ("A", pair) for pair in P(n,m,side) or ("H", pair) for
    pair in G(n,m,side) viewed at index side+1.  phi_step runs at that
    index; the image is tagged "H" where it is case 1 (an unmarked pair on
    the boundary of its own box) and "B" once the orbit lands in the union
    of targets.
    """
    tag, pair = tagged
    if tag not in ("A", "H"):
        raise ValueError(f"unexpected tag {tag!r}")
    case, value = phi_step(n, m, pair.side + (tag == "H"), pair)
    return ("H" if case == 1 else "B"), value


def cancelation_certificate(n: int, m: int) -> Certificate:
    """Verify that the direct map obtained by iterating phi is a bijection.

    Runs telescoping_phi on the packed form, a walk on ints (_walk) from
    each pair of the union of the P(n,m,k), its budget the union's size
    plus its boundary pairs plus one.  It is checked by class as the step
    certificates are, the walk composed on each box (_composed), read by the
    flag, the side and its step's, the next step's and its edge's reads,
    onto (P(n,m-1,k), 0) and (P(n,m-1,k), _MARKED); a pair of box k lands at
    side k bare or at side k + 1 marked.  The oracle runs against the
    walk per element; an orbit that leaves every box or runs out of budget
    fails at its start, sought on a raise.
    """
    started = time.monotonic()
    lay = _Layout(-m, n + 1, n + m + 1, 2 * (n + m), _phi_index(n, m, 0)[2])
    # per side field and one past it: the step, its box's edge and the shift
    # the inverse takes back from a marked image (an orbit moves once)
    indices = [_phi_index(n, m, s + lay.lo)[:2] for s in range(lay.field + 2)]
    levels = [(_step(*index, lay), _index_rule(*index, lay)[1]) for index in indices]
    edges, field = [_edge(box[1], lay) for box, _ in indices], lay.field
    shifts = [_step_table(*index, lay)[-1][2] for index in indices]
    boxes = [_box_P(n, m, k) for k in range(-m, n + 1)]
    codomain = [(_box_P(n, m - 1, k), flag) for flag in (0, _MARKED) for k in range(-m, n + 1)]
    domain_size = sum(map(_box_size, boxes))
    codomain_size = sum(_box_size(box) for box, _ in codomain)
    budget = domain_size + sum(_box_size(box, edge=True) for box in boxes) + 1
    walk = partial(_walk, levels=levels, edges=edges, field=field, budget=budget)
    walks = [((box, False), _composed(walk, _MARKED | field << _SIDE | levels[s][1]
                                      | levels[s + 1][1] | edges[s][0]), (s, s + 1))
             for s, box in enumerate(boxes)]  # box s has side field s, and lands at s or s + 1
    try:
        return _bijection_certificate(walks, lambda a: walk(a)[0], codomain, shifts, lay,
                                      "macmahon-cancelation", {"n": n, "m": m})
    except (ValueError, IterationBudgetExceeded):
        decode = _decoder(lay)
        for a in chain.from_iterable(_enum_packed(box, lay) for box in boxes):
            try:  # the first orbit that raises
                walk(a)
            except ValueError as fault:
                failure = decode(a), str(fault), "orbit-leaves-every-box"
            except IterationBudgetExceeded:
                failure = (decode(a), str(IterationBudgetExceeded.no_landing(
                    budget, ("A", decode(a)))), "orbit-exceeds-budget")
            else:
                continue
            return certify("macmahon-cancelation", {"n": n, "m": m}, started, failure,
                           domain_size=domain_size, codomain_size=codomain_size)
        raise
