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
_Layout; mu is a partitions.EvenField): mu's packed enumerator walks each
box one int at a time and generates a boundary slice from its first part,
or counts either without walking it; membership is one AND-and-compare
plus a length bound, and each step map is one closure (_step_rule) that
reads both boxes' masks and the boundary's inline and whose moving case
is a constant shift.  The cancelation's direct map is a walk on ints: a
pair steps at its own index and, while its image is bare and on its
box's boundary, at the next, each rule read off a table by the side
field; where the walk runs out of budget, it raises
IterationBudgetExceeded.no_landing.  The step and cancelation
certificates stream in the one bijection kernel,
telescope.stream_bijection (_bijection_certificate): one pass over the
domain's EvenField chunks against the map's inverse, which takes a marked
pair's shift back, with the codomain counted and tested by masks, both
tables indexed by an image's flag and side field, and the weights read
off the fields by _reader, whose head folds side, flag and marker into
one int key; only the map is called.  Each codomain is stated once, as
walks (box, flag), the box's pairs plus the flag; its mask table
(_codomain_table), its size and the oracle's list all come from them.
Where the kernel fails, check_graded_bijection reruns on lists of both
sides as the oracle and weighs the decoded pairs with weight_of.
The certificates decode a pair only for a counterexample.  The public
enum_P and phi_step take and return MacPairs: phi_step checks the input,
encodes it, runs the packed rule and decodes the result;
telescoping_phi steps through phi_step and retags its case.  The sum
path needs weights only: one enumeration per box, in C, and the lower
family is the box off its boundary (_box_counts); no pair
is built.  verify_macmahon runs the per-index check
(telescope.telescoping_sum_check) on those counts, then checks the closed
form.  Every leaf is counted, so the sum side stays an enumeration,
independent of the Pascal recurrence behind gaussian_binomial.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass
from itertools import chain, combinations_with_replacement, repeat
from typing import Callable, Iterator, Optional, Union

from .partitions import EvenField, Memo, Partition
from .qalgebra import (ONE, ZERO, LaurentPoly, factor_product,
                       gaussian_binomial)
from .telescope import (Certificate, IterationBudgetExceeded, MarkedObject,
                        WeightKey, certify, check_graded_bijection,
                        stream_bijection, telescoping_sum_check)


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
    each; then mu, an EvenField of `width`-bit multiplicities.  A field
    holds max(hi - lo, slots), so no step between two sides of [lo, hi]
    carries or borrows across a field.
    """

    __slots__ = ("lo", "marker", "field", "length", "mu")

    def __init__(self, lo: int, hi: int, slots: int, marker=(0, 0)):
        self.lo, self.marker = lo, marker
        width = max(hi - lo, slots, 1).bit_length()
        self.field = (1 << width) - 1
        self.length = _SIDE + width
        self.mu = EvenField(_SIDE + 2 * width, width)


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
    return flag + (side << _SIDE) + (mu.length << lay.length) + lay.mu.encode(mu.parts)


def _decoder(lay: _Layout) -> Callable[[int], MacValue]:
    """The inverse of _encode at `lay`.  Equal mus of the pairs it decodes
    are one shared Partition."""
    field, mu_of, at = lay.field, lay.mu.decode, lay.mu.at

    def decode(x: int) -> MacValue:
        mu = mu_of(x >> at)
        if mu is None:  # a negative int packs no pair
            return {"packed": x}
        pair = MacPair((x >> _SIDE & field) + lay.lo, mu)
        if x & _MARKED:
            return MarkedObject(lay.marker[0], pair, marker_z=lay.marker[1])
        return pair
    return decode


_NEVER = (0, 1, 0)  # the masks of no pair: x & 0 is never 1


def _masks(box: Box, lay: _Layout) -> tuple[int, int, int]:
    """(forbidden, expected, limit): a packed x is in the box iff x &
    forbidden == expected and its length field, x & (lay.field <<
    lay.length), is at most limit.  The bits left free are the length and
    the multiplicities of the parts 2 .. bound; the flag is 0 and the side
    the box's, so expected is the side field alone.  The limit is the
    slots, or 0 at bound 0, where mu is empty.  _NEVER where the box is
    empty or its side is outside `lay`."""
    side, bound, slots = box
    if bound < 0 or slots < 0 or not 0 <= side - lay.lo <= lay.field:
        return _NEVER
    length = lay.field << lay.length
    return (~(length | lay.mu.unit(bound + 2) - lay.mu.unit(2)),
            side - lay.lo << _SIDE, (slots if bound else 0) << lay.length)


def _edge(bound: int, lay: _Layout) -> tuple[int, int, int]:
    """(mask, least, most): a packed x is on the boundary of a box with
    this bound iff least <= x & mask <= most.  That is, mu has a part
    `bound` (its multiplicity is not 0), or, when bound is 0, mu is empty
    (its length is 0)."""
    if bound > 0:
        mask = lay.field * lay.mu.unit(bound)
        return mask, 1, mask
    return lay.field << lay.length, 0, 0


def _enum_packed(box: Box, lay: _Layout, edge: bool = False) -> Iterator[int]:
    """All pairs of the box, packed at `lay`, one at a time, in
    lexicographic order of mu's parts (each partition before its
    extensions); with `edge`, its boundary slice only, generated from its
    first part.  No Partition is built."""
    side, bound, slots = box
    base = side - lay.lo << _SIDE
    return (base + t for t in lay.mu.iter(bound, slots, bound * slots,
                                          1 << lay.length, edge))


def _box_size(box: Box, lay: _Layout, edge: bool = False) -> int:
    """The number of pairs _enum_packed yields, counted without them."""
    _side, bound, slots = box
    return lay.mu.count(bound, slots, bound * slots, edge)


def _step_rule(box: Box, neighbour: Box, lay: _Layout) -> Callable[[int], int]:
    """The step map at one index, on the packed form: a pair of box is its
    own image, and a boundary pair of the neighbouring box takes one
    constant shift: its first row goes (an empty mu has none), it takes the
    side of box and the flag is set.  ValueError for anything else.  Both
    boxes' _masks and the neighbour's _edge are read inline."""
    forbidden, expected, limit = _masks(box, lay)
    n_forbidden, n_expected, n_limit = _masks(neighbour, lay)
    edge, least, most = _edge(neighbour[1], lay)
    length, shift = lay.field << lay.length, _step_shift(box, neighbour, lay)
    decode = _decoder(lay)

    def step(x: int) -> int:
        if x & forbidden == expected and x & length <= limit:
            return x
        if (x & n_forbidden == n_expected and x & length <= n_limit
                and least <= x & edge <= most):
            return x + shift
        raise ValueError(_not_in_domain(decode(x), box, neighbour))
    return step


def _step_shift(box: Box, neighbour: Box, lay: _Layout) -> int:
    """The constant shift of the step map's moving case."""
    first_row = lay.mu.unit(neighbour[1]) + (1 << lay.length) if neighbour[1] > 0 else 0
    return _MARKED + (box[0] - neighbour[0] << _SIDE) - first_row


def _not_in_domain(x, box: Box, neighbour: Box) -> str:
    return f"{x} is neither in {box} nor on the boundary of {neighbour}"


# the public families and step maps --------------------------------------------

def _enum_box(box: Box) -> list[MacPair]:
    lay = _Layout(box[0], box[0], max(box[2], 0))
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
    y = _step_rule(box, neighbour, lay)(packed)
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

def _codomain_table(codomain: list[tuple[Box, int]],
                    lay: _Layout) -> list[tuple[int, int, int]]:
    """stream_bijection's codomain test, indexed by an image's flag and
    side field, y & (_MARKED | lay.field << _SIDE): each walk (box,
    flag) of the codomain puts the box's _masks, the flag expected on top,
    at its side field plus the flag; every other entry is _NEVER."""
    table = [_NEVER] * (2 * lay.field + 2)
    for box, flag in codomain:
        forbidden, expected, limit = masks = _masks(box, lay)
        if masks is not _NEVER:
            table[expected + flag] = forbidden, expected + flag, limit
    return table


def _reader(lay: _Layout, bound: int) -> tuple:
    """stream_bijection's reader of a packed pair's weight: the key (q <<
    scale) + z + offset, where 0 <= z + offset < 2^scale for every side
    field and flag.  head, a Memo, reads side^2 + marker_q (flagged) and
    side + marker_z (flagged) off the flag and side field; mu's weight
    comes in EvenField.halves(bound)."""
    field, lo, (marker_q, marker_z) = lay.field, lay.lo, lay.marker
    zs = lo, lo + field, lo + marker_z, lo + field + marker_z
    offset, scale = -min(zs), (max(zs) - min(zs)).bit_length()

    def head(bits: int) -> int:
        side, flag = (bits >> _SIDE) + lo, bits & _MARKED
        return (side * side + flag * marker_q << scale) + side + flag * marker_z + offset
    return (_MARKED | field << _SIDE, Memo(head), lay.mu.at, *lay.mu.halves(bound), scale)


def _bijection_certificate(step: Callable[[int], int], walks: list[tuple[Box, bool]],
                           codomain: list[tuple[Box, int]], shifts: list[int],
                           lay: _Layout, check: str, params: dict) -> Certificate:
    """The bijection check of a packed map from the domain's walks (box,
    edge), each a box (or with `edge` its boundary) walked in
    EvenField.chunks as _enum_packed walks it, to the codomain's walks
    (box, flag), streamed in telescope.stream_bijection.  An image's flag
    and side field index both the codomain's _codomain_table and the
    inverse: a marked y less shifts[its side field], any other y itself.
    Where the stream fails, the set-based check_graded_bijection reruns on
    fresh lists of both sides, weighs the decoded pairs with weight_of and
    names the counterexample."""
    started = time.monotonic()
    field, row = lay.field, 1 << lay.length
    flag_side = _MARKED | field << _SIDE
    # split mu's fields in the middle of the largest walk's parts
    widest = max(walks, key=lambda walk: _box_size(walk[0], lay, walk[1]))[0]
    groups = ((head + (side - lay.lo << _SIDE), tails)
              for (side, bound, slots), edge in walks
              for head, tails in lay.mu.chunks(bound, slots, bound * slots, row, edge))
    size = stream_bijection(
        groups, step, (_codomain_table(codomain, lay), flag_side, field << lay.length),
        ([back for shift in shifts[:field + 1] for back in (0, shift)], flag_side),
        _reader(lay, widest[1]), sum(_box_size(box, lay) for box, _ in codomain))
    if size is not None:
        return certify(check, params, started, domain_size=size, codomain_size=size)
    domain = chain.from_iterable(_enum_packed(box, lay, edge) for box, edge in walks)
    return check_graded_bijection(
        step, domain, [x + flag for box, flag in codomain for x in _enum_packed(box, lay)],
        check=check, params=params, present=_decoder(lay))


def _slice_certificate(box: Box, neighbour: Box, marker: tuple[int, int],
                       check: str, params: dict) -> Certificate:
    """Bijection check of a step map at one index, on the packed form.
    Domain: box, then the boundary of neighbour.  Codomain: box, and the
    box off its boundary, (side, bound - 2, slots), marked.  The domain
    streams, each box walked once and the boundary from its first part;
    the codomain is counted and tested by masks."""
    side, bound, slots = box
    lay = _step_layout(box, neighbour, marker)
    return _bijection_certificate(
        _step_rule(box, neighbour, lay), [(box, False), (neighbour, True)],
        [(box, 0), ((side, bound - 2, slots), _MARKED)],
        [_step_shift(box, neighbour, lay)] * (lay.field + 1), lay, check, params)


def phi_certificate(n: int, m: int, k: int) -> Certificate:
    """Exhaustive bijection check of phi_step at one index (finite sets),
    streamed; see _slice_certificate."""
    return _slice_certificate(*_phi_index(n, m, k), "macmahon-phi", {"n": n, "m": m, "k": k})


def psi_certificate(n: int, k: int) -> Certificate:
    """Exhaustive bijection check of psi, the n-lowering step map, at one
    index (finite sets), streamed; see _slice_certificate."""
    return _slice_certificate(*_psi_index(n, k), "macmahon-psi", {"n": n, "k": k})


# weighted counts: one enumeration per box, no pairs ---------------------

def _box_counts(box: Box) -> tuple[LaurentPoly, LaurentPoly]:
    """Weighted counts of a box off its boundary slice and on it.  An even
    partition is its multiset of `slots` parts from 0, 2, .., bound, zeros
    padding it: off the boundary all are below the bound, on it one is the
    bound.  itertools makes each leaf, summed and counted in C."""
    side, bound, slots = box
    if bound < 0 or slots < 0:
        return ZERO, ZERO
    if not slots:  # the empty partition alone; its first part reads as 0
        alone = LaurentPoly.monomial(1, side, side * side)
        return (alone, ZERO) if bound else (ZERO, alone)

    def count(top: int, parts: int, start: int) -> LaurentPoly:
        leaves = combinations_with_replacement(range(0, top + 1, 2), parts)
        weights = Counter(map(sum, leaves, repeat(start)))  # q^(start + |leaf|)
        return LaurentPoly({(side, q): c for q, c in weights.items()})
    return count(bound - 2, slots, side * side), count(bound, slots - 1, side * side + bound)


def phi_telescoping_counts(n: int, m: int):
    """(f, g, h, k_min, k_max) for the m-lowering telescoping relation.

    f(k) counts P(n,m,k), g(k) = (1 + q^(2m-1)/z) * count of P(n,m-1,k),
    and h(k) counts G(n,m,k-1), which vanishes at k_min = -m and beyond
    k_max = n.  All three come from P(n,m,k): G(n,m,k) is its boundary, and
    P(n,m-1,k) the box off it.
    """
    coeff = ONE + LaurentPoly.monomial(1, -1, 2 * m - 1)
    f, g, h = {}, {}, {-m: ZERO}
    for k in range(-m, n + 1):
        off, h[k + 1] = _box_counts(_box_P(n, m, k))
        f[k], g[k] = off + h[k + 1], coeff * off
    return f, g, h, -m, n


def psi_telescoping_counts(n: int):
    """(f, g, h, k_min, k_max) for the n-lowering telescoping relation.

    Oriented for the generic checker: f(k) = (1 + z*q^(2n-1)) * count of
    Q(n-1,k), g(k) counts Q(n,k), h(k) counts H(n,k).  All three come from
    Q(n,k): H(n,k) is its boundary, and Q(n-1,k) the box off it.
    """
    coeff = ONE + LaurentPoly.monomial(1, 1, 2 * n - 1)
    f, g, h = {}, {}, {n + 1: ZERO}
    for k in range(0, n + 1):
        off, h[k] = _box_counts(_box_Q(n, k))
        f[k], g[k] = coeff * off, off + h[k]
    return f, g, h, 0, n


def _pair_count(counts) -> int:
    """The number of pairs some weighted counts stand for: their value at
    z = q = 1, since every pair weighs one monomial with coefficient +1."""
    return sum(poly.at_one() for poly in counts)


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
            chain.from_iterable(_box_counts(_box_P(n, 0, k)) for k in range(n + 1)))
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

def _cancelation_tables(n: int, m: int):
    """(layout, step rules, boundaries, shifts) of the cancelation at
    (n, m), one entry per side field (side + m): the step rule at that
    index, its box's _edge and its step's shift.  The direct map's int
    walk reads the rule and the boundary by an image's side field, plus
    one for a bare boundary image, which steps at the next index.  An
    orbit is its pair alone or, from a boundary pair, one marked step onto
    the next side, so the inverse, unchecked, takes a marked image's shift
    back: shifts[y's side field].  The tables run one side past the side
    field, so no image, however faulty, indexes past their end."""
    lay = _Layout(-m, n + 1, n + m + 1, _phi_index(n, m, 0)[2])
    indices = [_phi_index(n, m, s + lay.lo)[:2] for s in range(lay.field + 2)]
    return (lay, [_step_rule(box, neighbour, lay) for box, neighbour in indices],
            [_edge(box[1], lay) for box, _ in indices],
            [_step_shift(box, neighbour, lay) for box, neighbour in indices])


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

    Runs telescoping_phi on the packed form, as a walk on ints: each pair
    in the union of the P(n,m,k) steps at its own index, read off the
    _cancelation_tables by its side field, and while its image is bare
    and on its box's boundary (tagged "H"), the image steps at the next
    index; the orbit lands on the first other image.  After `budget`
    steps, the size of the union plus its boundary pairs plus one, both
    counted, the walk raises IterationBudgetExceeded.no_landing(budget,
    ("A", a)), the text of the tagged walk from ("A", a).  The check
    streams as the step certificates do (_bijection_certificate): the
    union of the P(n,m,k) against the direct map's inverse and the
    codomain walks (P(n,m-1,k), 0) and (P(n,m-1,k), _MARKED) for every k,
    counted and tested by masks.  An orbit that leaves every box or runs
    out of budget fails at its start, sought on a raise.
    """
    started = time.monotonic()
    lay, steps, edges, shifts = _cancelation_tables(n, m)
    field = lay.field
    boxes = [_box_P(n, m, k) for k in range(-m, n + 1)]
    codomain = [(_box_P(n, m - 1, k), flag) for flag in (0, _MARKED) for k in range(-m, n + 1)]
    domain_size = sum(_box_size(box, lay) for box in boxes)
    codomain_size = sum(_box_size(box, lay) for box, _ in codomain)
    budget = domain_size + sum(_box_size(box, lay, edge=True) for box in boxes) + 1

    def direct(a: int) -> int:
        x, up = a, 0  # up: 1 where x is an "H" pair, which steps at the next index
        for _ in range(budget):
            y = steps[(x >> _SIDE & field) + up](x)
            if y & _MARKED:
                return y
            edge, least, most = edges[y >> _SIDE & field]
            if not least <= y & edge <= most:
                return y
            x, up = y, 1
        raise IterationBudgetExceeded.no_landing(budget, ("A", a))

    try:
        return _bijection_certificate(
            direct, [(box, False) for box in boxes], codomain, shifts, lay,
            "macmahon-cancelation", {"n": n, "m": m})
    except (ValueError, IterationBudgetExceeded):
        for a in chain.from_iterable(_enum_packed(box, lay) for box in boxes):
            try:  # the first orbit that raises
                direct(a)
            except (ValueError, IterationBudgetExceeded) as fault:
                reason = ("orbit-leaves-every-box" if isinstance(fault, ValueError)
                          else "orbit-exceeds-budget")
                return certify("macmahon-cancelation", {"n": n, "m": m}, started,
                               (_decoder(lay)(a), str(fault), reason),
                               domain_size=domain_size, codomain_size=codomain_size)
        raise
