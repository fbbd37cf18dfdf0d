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
weight, the sum over k in Horner form on one list; the maps run on
enumerated triples.

The maps, membership and the capped enumerator are stated once, on a
packed form: one int per element, whose fields are marker_q, tau's row
count, lam as a bitmask and mu as a partitions.EvenField (see _Layout).
A slice is a tuple of parts (n, k, marker), each marker-`marker` copies
of P(n,k): P(n,k) itself is ((n, k, 0),), and _domain, _codomain and
_embedded state each side of each map once.  One grouped walk (_groups),
one enumerator (_enum_packed) and one class counter (_count_classes),
whose one class at R = 0 is the slice's size, take a slice, each from
its parts' factors, lam and mu built packed with no Partition, each as
counts by (weight, its bits & R) (_factors); _slice_masks states its
membership, one mask pair per part, and _member reads those pairs as
the guards of a first-match rule, as the maps read theirs.
Each map is one ordered table of cases (_phi_table, _involution_table):
a row holds the case, a guard x & mask == value and a constant shift of
the int; phi's rows add the image class and its guard.  Each guard holds
its domain part's mask pair (_within), so an int that passes no guard is
not in the domain.  The first-match dispatch of both families,
telescope.first_match, derives from a table the rule (guard, then +
shift, as (shifts, read); KeyError where no guard passes), phi's inverse
(_phi_back: image guard, then - shift) and the class classify reports;
_step is a rule as a call (telescope.rule_call), ValueError outside.
The certificates run end to end on packed ints and decode an element to
a Triple / MarkedObject only for a counterexample.  Each is checked once
per class of the bits its checks read, R (_reads): the slice's elements
are counted by x & R from its factors, with no element built, and each
class is checked on one int in the kernel MacMahon's certificates share
(telescope.bijection_by_class): phi's bijection laws in _phi_by_class,
and the involution's laws in _involution_by_class, the rule as its own
inverse and the domain as its own codomain, with the rule, its inverse
and the member read off the class and its image, and weight and sign
through one reader (_key).  Where a kernel fails, the
set-based check (check_graded_bijection, _involution_failure) reruns as
the oracle on the enumerated slice, against the rule as a call (_step),
weighs the decoded elements with weight_of and names the
counterexample; a negative int, which no rule of a sound map yields, is
shown as {"packed": x}.  The public functions take and return Triples:
they check the input's shape, encode it, run the packed rule and decode
the result.  The public maps phi and involution share one input check:
the index rule, then the rule's own refusal of an element outside their
common domain (_step).  classify answers only where the index rule
names phi.  The involution certificate tests each class's image for
membership once, before the rule takes it back.  The decoders' parts
and the first-match rules are each cached per layout in a
partitions.Memo.
"""

from __future__ import annotations

import enum
import time
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache, reduce
from operator import or_, sub
from typing import Callable, Iterator, Optional, Union

from .partitions import EvenField, Memo, Partition, staircase
from .qalgebra import LaurentPoly, TruncatedSeries, rhs_andrews, truncate
from .telescope import (NEVER, REASON_NOT_IN_CODOMAIN, Certificate, MarkedObject, Rule,
                        WeightKey, bijection_by_class, certify, check_graded_bijection,
                        first_match, passes, rule_call, weight_of)


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
    """The case of phi an element is in: P(n,k)'s four classes and the marked
    copy in its domain; the embedded case and A', B', C', D in its codomain."""

    EMBEDDED = "embedded"
    A = "A"
    B = "B"
    C = "C"
    MARKED = "marked"
    A_PRIME = "A'"
    B_PRIME = "B'"
    C_PRIME = "C'"
    D = "D"


# the packed form -------------------------------------------------------------

class _Layout:
    """Where the fields of the packed form sit, for elements and rule
    constants of weight at most `bound`.

    From bit 0 up: marker_q (0 when unmarked) and tau's row count, `width`
    bits each; lam as a bitmask, bit p set when p is a part, `bound + 2`
    bits; then mu, an EvenField of `width`-bit multiplicities.  A field
    holds bound + 2: more than any marker, any row count (a staircase of
    weight w has at most w + 1 rows) and twice any multiplicity within the
    bound, so no rule step on an element of weight <= bound carries into
    the next field.  `span` is the bit above mu's fields for the parts up
    to the bound: every element of weight <= bound packs below it.
    """

    __slots__ = ("width", "field", "rows", "lam", "lam_field", "mu", "span")

    def __init__(self, bound: int):
        self.width = (bound + 2).bit_length()
        self.field = (1 << self.width) - 1
        self.rows = self.width
        self.lam = 2 * self.width
        self.lam_field = ((1 << bound + 2) - 1) << self.lam
        self.mu = EvenField(self.lam + bound + 2, self.width)
        self.span = self.mu.unit(bound // 2 * 2 + 2)

    def part(self, p: int) -> int:
        """The bit of the lam part p."""
        return 1 << self.lam + p


def _layout(n: int, cap: int) -> _Layout:
    """The layout for elements of weight <= cap under the rules at n, whose
    constants (lam parts and markers) are at most 2n."""
    return _Layout(max(cap, 2 * n, 0))


def _key(lay: _Layout) -> Callable[[int], int]:
    """The kernels' one read of a packed x's signed weight, off its fields,
    as the int weight << 1 | parity of lam's length: the marker, C(rows,
    2), lam's parts and mu's (EvenField.weight)."""
    field, rows_at, lam_at, lam_field = lay.field, lay.rows, lay.lam, lay.lam_field

    def key(x: int) -> int:
        rows, lam = x >> rows_at & field, (x & lam_field) >> lam_at
        weight = ((x & field) + rows * (rows - 1) // 2 + lay.mu.weight(x >> lay.mu.at)
                  + sum(p for p in range(lam.bit_length()) if lam >> p & 1))
        return weight << 1 | lam.bit_count() & 1
    return key


def _encode(x: TripleValue, lay: _Layout) -> Optional[int]:
    """The Triple or marked Triple x in the packed form of `lay`; None where
    x has no packed form: a marker with z or with q = 0, a tau that is not
    a staircase, a lam with a repeated or zero part, a mu with an odd or
    zero part.  ValueError where a field overflows `lay`."""
    marker = 0
    if isinstance(x, MarkedObject):
        if x.marker_z or not x.marker_q:
            return None
        marker, x = x.marker_q, x.payload
    rows = x.tau.length
    if (x.tau.parts != tuple(range(rows - 1, -1, -1))
            or not x.lam.has_distinct_parts() or not x.mu.has_even_parts()):
        return None
    mu = x.mu.parts
    if (max(marker, rows, *map(mu.count, mu)) > lay.field
            or lay.part(x.lam.first) > lay.lam_field):
        raise ValueError(f"{x} does not fit the packed layout")
    return (marker + (rows << lay.rows) + sum(map(lay.part, x.lam.parts))
            + lay.mu.encode(mu))


def _decoder(lay: _Layout) -> Callable[[int], TripleValue]:
    """The inverse of _encode at `lay`.  Equal taus, lams and mus of the
    elements it decodes are one shared Partition."""
    field, mu_of, at = lay.field, lay.mu.decode, lay.mu.at

    def lam(bits: int) -> Partition:
        return Partition(tuple(p for p in range(bits.bit_length() - 1, 0, -1)
                               if bits >> p & 1))

    lam_of, tau_of = Memo(lam), Memo(staircase)

    def decode(x: int) -> TripleValue:
        mu = mu_of[x >> at]
        if mu is None:  # a negative int packs no triple
            return {"packed": x}
        t = Triple(tau_of[x >> lay.rows & field],
                   lam_of[(x & lay.lam_field) >> lay.lam], mu)
        marker = x & field
        return MarkedObject(marker, t) if marker else t
    return decode


def _pack(n: int, x: TripleValue) -> tuple[Optional[int], Optional[_Layout]]:
    """(x packed, the layout): the layout fits x's weight and the rules at
    n; None in place of x where it has no packed form."""
    payload = x.payload if isinstance(x, MarkedObject) else x
    if not isinstance(payload, Triple):
        return None, None
    lay = _layout(n, weight_of(x)[2])
    return _encode(x, lay), lay


Part = tuple[int, int, int]  # (n, k, marker): marker-`marker` copies (no z) of P(n,k)


def _domain(n: int, k: int) -> tuple[Part, ...]:
    """The maps' domain at (n, k): P(n,k), and marker 2n-1 over P(n-1,k-1)."""
    return (n, k, 0), (n - 1, k - 1, 2 * n - 1)


def _codomain(n: int, k: int) -> tuple[Part, ...]:
    """phi's codomain at (n, k): P(n-1,k-1), and marker 2n-3 over P(n-2,k)."""
    return (n - 1, k - 1, 0), (n - 2, k, 2 * n - 3)


def _embedded(n: int, k: int) -> tuple[Part, ...]:
    """The involution's fixed set at (n, k): P(n-1,k-1)."""
    return (n - 1, k - 1, 0),


def _slice_masks(parts: tuple[Part, ...], lay: _Layout) -> list[tuple[int, int]]:
    """One (forbidden, expected) pair per part: a packed x is in the part
    (n, k, marker), with no weight cap, iff x & forbidden == expected.  The
    bits left free are lam's parts n-k+1 .. n+k and the multiplicities of
    mu's parts 2 .. 2k; the marker field must read `marker` and the row
    count n-k.  An empty part (k < 0 or k > n) is NEVER, no marker added
    (at n = 0 the marker 2n-1 is -1, and NEVER less 1 passes every int)."""
    masks = []
    for n, k, marker in parts:
        if k < 0 or k > n:
            masks.append(NEVER)
            continue
        free = (lay.lam_field & ((1 << 2 * k) - 1) * lay.part(n - k + 1)
                | lay.mu.unit(2 * k + 2) - lay.mu.unit(2))
        masks.append((~free, marker + ((n - k) << lay.rows)))
    return masks


def _member(parts: tuple[Part, ...], lay: _Layout) -> tuple[Memo, int]:
    """The slice `parts`' membership as a first-match rule (memo, read),
    each part's _slice_masks pair its guard: a packed x is in the slice,
    with no weight cap, iff memo[x & read] raises no KeyError
    (telescope.passes), and then it is x's part."""
    return first_match(zip(_slice_masks(parts, lay), parts))


def _factors(n: int, k: int, cap: int, lay: _Layout, reads: int = -1):
    """(lams, mus by weight) of the members of P(n,k) with total weight
    <= cap: lams a Counter of (weight, lam & reads), lam packed as its
    bits, and for each weight a dict {mu & reads: count}, mu packed with
    the row count; each in lexicographic order; empty where P(n,k) is
    empty or its staircase alone passes the cap.

    Both are built packed, one part p at a time in ascending order, by
    adding p to each member that stays within the budget, as counts by
    class.  That is exact for any reads that hold whole fields of mu: a
    lam part is one bit and a mu part adds one to its field, so adding
    either carries nowhere, and (x + unit) & reads == (x & reads) + (unit
    & reads).  At reads -1 each count is 1, and each dict's keys are the
    members themselves.  lam takes p at most once, so it extends the
    members as they were.  mu takes p again and again, so its counts by
    weight extend in ascending weight, each from the counts p below it,
    which have already taken p.  Either way the members with largest part
    p follow all those with smaller parts, in the order of what p is added
    to, so both stay lexicographic, and each member's weight is known as
    it is built."""
    rows = n - k
    budget = cap - rows * (rows - 1) // 2
    if n < 0 or k < 0 or k > n or budget < 0:
        return Counter(), []
    lams = Counter({(0, 0): 1})
    for p in range(n - k + 1, min(n + k, budget) + 1):
        bit, room = lay.part(p) & reads, budget - p
        for (weight, bits), count in [item for item in lams.items() if item[0][0] <= room]:
            lams[weight + p, bits + bit] += count
    mus_by_weight = [{rows << lay.rows & reads: 1}] + [{} for _ in range(budget)]
    for p in range(2, min(2 * k, budget) + 1, 2):
        unit = lay.mu.unit(p) & reads
        for weight in range(budget - p + 1):  # ascending, so each takes p again
            into = mus_by_weight[weight + p]
            for mu, count in mus_by_weight[weight].items():
                into[mu + unit] = into.get(mu + unit, 0) + count
    return lams, mus_by_weight


def _groups(parts: tuple[Part, ...], cap: int,
            lay: _Layout) -> Iterator[tuple[int, dict[int, int]]]:
    """The elements of the slice `parts` with total weight <= cap, packed
    at `lay`, in certificate order, as nonempty groups (head, mus): the
    elements head + mu for mu in mus, all of one total weight.  The parts
    come in order; a head is the marker plus lam packed alone, each mu is
    packed with the row count."""
    for n, k, marker in parts:
        lams, mus_by_weight = _factors(n, k, cap - marker, lay)
        yield from ((lam + marker, mus_by_weight[grade - weight])
                    for grade in range(len(mus_by_weight)) for weight, lam in lams
                    if weight <= grade and mus_by_weight[grade - weight])


def _enum_packed(parts: tuple[Part, ...], cap: int, lay: _Layout) -> Iterator[int]:
    """All elements of the slice `parts` with total weight <= cap, packed
    at `lay`, one at a time, in certificate order: part by part, then by
    total weight, then lam, then mu, each lexicographic.

    Built grade by grade from the capped enumerators, mu packed and grouped
    by weight once, so nothing over the cap is built and nothing is sorted.
    """
    return (head + mu for head, mus in _groups(parts, cap, lay) for mu in mus)


def _count_classes(parts: tuple[Part, ...], cap: int, lay: _Layout, reads: int) -> Counter:
    """How many elements _enum_packed yields in each class x & reads,
    counted from each part's factors without pairing them and with no lam
    or mu held, each counted by (weight, its bits & reads) (_factors).  A
    head and a mu use disjoint bits, so (head + mu) & reads == head & reads
    | mu & reads: the mus' counts go into running counts by weight, and
    the heads of lam weight w take the counts of the mus of weight <=
    budget - w.  At reads 0 the one class, 0, counts the slice."""
    classes = Counter()
    for n, k, marker in parts:
        lams, mus_by_weight = _factors(n, k, cap - marker, lay, reads)
        heads = [[] for _ in mus_by_weight]  # by the mu weight left
        for (weight, lam), count in lams.items():
            heads[-1 - weight].append((lam + marker & reads, count))
        mus = Counter()  # the classes of the mus met so far
        for by_weight, by_head in zip(mus_by_weight, heads):
            mus.update(by_weight)
            for head, count in by_head:
                for mu, times in mus.items():
                    classes[head | mu] += count * times
    return classes


def _within(guard: tuple[int, int], part: tuple[int, int]) -> tuple[int, int]:
    """The guard (mask, value) narrowed to a part's _slice_masks pair
    (forbidden, expected): x passes it iff x passes the guard and is in the
    part.  NEVER where the two fix a bit to different values, or the part
    is empty, so that no int passes both."""
    (mask, value), (forbidden, expected) = guard, part
    if part == NEVER or forbidden & value != expected & mask:
        return NEVER
    return mask | forbidden, value | expected


def _phi_table(n: int, k: int, lay: _Layout) -> list[tuple]:
    """`phi`'s cases in dispatch order, one row each: (case, guard, shift,
    image case, image guard), a guard (mask, value) passed by x & mask ==
    value.  The first row whose guard an int passes is its case and adds
    its shift, and an int that passes none is not in phi's domain: each
    guard holds its domain part's _slice_masks pair (_within), the
    embedded case's is P(n-1,k-1)'s and the marked case's is the marked
    part's alone.  The first row whose image guard an element of the
    codomain passes is its image case and takes the shift back; there the
    marker reads exactly 2n-3.  No guard tests that mu has a part 2k: the
    embedded case comes before A, and D before C'.  At k = 0 the embedded
    case, the marked part (both P(n-1,-1), empty) and B and C (lam has no
    parts) are NEVER."""
    field, mu_2k = lay.field, lay.mu.unit(2 * k) if k else 0  # one mu part 2k
    top, second = lay.part(n + k), lay.part(n + k - 1)
    low, lower = lay.part(n - k), lay.part(n - k - 1)
    tops, lows, out = top | second, field | low | lower, 2 * n - 3
    lowered = out - (2 << lay.rows)  # marker 2n-3, two staircase rows fewer
    own, marked = _slice_masks(_domain(n, k), lay)
    (embedded,) = _slice_masks(_embedded(n, k), lay)
    return [  # case, guard, shift, image case, image guard
        (ClassTag.EMBEDDED, embedded, 0, ClassTag.EMBEDDED, (field, 0)),
        (ClassTag.A, _within((tops, 0), own), lowered - mu_2k,
         ClassTag.A_PRIME, (lows, out)),
        (ClassTag.B, _within((tops, top), own), lowered - top + low,
         ClassTag.B_PRIME, (lows, out + low)),
        (ClassTag.B, _within((tops, second), own), lowered - second + lower,
         ClassTag.B_PRIME, (lows, out + lower)),
        (ClassTag.MARKED, marked, lowered - (2 * n - 1) + low + lower,
         ClassTag.D, (lows | field * mu_2k, out + low + lower)),
        (ClassTag.C, _within((tops, top + second), own),
         lowered - top - second + low + lower + mu_2k,
         ClassTag.C_PRIME, (lows, out + low + lower)),
    ]


def _involution_table(n: int, k: int, lay: _Layout) -> list[tuple]:
    """Rules (a)-(e) of `involution` in dispatch order, one row each: (rule,
    guard, shift), read like _phi_table's, each guard within its domain
    part (_within): (d)'s is the marked part, the others P(n,k).  Once the
    toggle 2k is not in lam, a part 2n-1 is lam's first part.  (b), the
    toggle in mu, is what the rows before it leave of P(n,k)."""
    field, marker_part = lay.field, lay.part(2 * n - 1)
    toggle, toggle_mults = lay.part(2 * k), field * lay.mu.unit(2 * k)
    to_mu, absorb = lay.mu.unit(2 * k) - toggle, marker_part - (2 * n - 1)
    own, marked = _slice_masks(_domain(n, k), lay)
    return [
        ("d", _within((field, 2 * n - 1), marked), absorb),
        ("a", _within((toggle, toggle), own), to_mu),
        ("c", _within((toggle_mults | marker_part, marker_part), own), -absorb),
        ("e", _within((toggle_mults, 0), own), 0),
        ("b", _within((0, 0), own), -to_mu),
    ]


def _reads(lay: _Layout, *masks: int) -> int:
    """R, the bits that a class kernel's checks read: the union of `masks`
    (the rule's read, its inverse's, each member's read, which holds the
    marker field of every nonempty part) with the row-count field, whose
    C(rows, 2) is the one part of the weight that does not add across
    bits, narrowed below lay.span.  Every other bit of an element adds its
    part to the weight and to lam's parity and is read by nothing else.

    So where a shift moves a class c = x & R to d = c + shift with no
    carry out of R, d & ~R == 0 (which a negative d fails), every x of the
    class goes to (x & ~R) | d, and each check on the image reads d alike
    for the whole class: membership, the inverse's shift, and the weight
    and sign change, since the bits f outside R add the same to _key's
    weight and flip lam's parity alike in c | f and in d | f."""
    return reduce(or_, masks, lay.field << lay.rows) & lay.span - 1


def _phi_rule(n: int, k: int, lay: _Layout) -> Rule:
    """`phi` as its rule (shifts, read), the first row x passes; KeyError
    outside the domain, whose masks the guards hold."""
    return first_match((guard, shift) for _, guard, shift, _, _ in _phi_table(n, k, lay))


def _phi_back(n: int, k: int, lay: _Layout) -> Rule:
    """phi's inverse as the shifts it takes back, (shifts, read): an
    element y of phi's codomain is the image of y - shifts[y & read], the
    shift of the first row whose image guard y passes."""
    return first_match((image, shift) for _, _, shift, _, image in _phi_table(n, k, lay))


def _involution_rule(n: int, k: int, lay: _Layout) -> Rule:
    """`involution` as its rule (shifts, read), read as _phi_rule's."""
    return first_match((guard, shift) for _, guard, shift in _involution_table(n, k, lay))


def _step(name: str, n: int, k: int, lay: _Layout) -> Callable[[int], int]:
    """The map `name` at (n, k), its rule as a call (telescope.rule_call):
    ValueError outside the domain, at every bit from the span up too."""
    decode = _decoder(lay)
    return rule_call((_phi_rule if name == "phi" else _involution_rule)(n, k, lay),
                     lambda x: f"{decode(x)} is not in the domain of {name} at n={n}, k={k}")


# the public maps on triples ---------------------------------------------------

def in_P(n: int, k: int, t: Triple) -> bool:
    """Membership in P(n,k); False outside 0 <= k <= n."""
    x, lay = _pack(n, t)
    return x is not None and passes(_member(((n, k, 0),), lay), x)


def enum_P(n: int, k: int, cap: int) -> list[Triple]:
    """All members of P(n,k) with total weight <= cap, in certificate order:
    by total weight, then lam, then mu, each lexicographic."""
    lay = _layout(n, cap)
    return list(map(_decoder(lay), _enum_packed(((n, k, 0),), cap, lay)))


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


def classify(n: int, k: int, t: Triple) -> ClassTag:
    """The domain class of a member of P(n,k), keyed on which of lam's
    largest admissible parts n+k, n+k-1 occur and on whether mu has a part
    2k: the case of _phi_table it falls in.  ValueError unless the index
    rule names phi at (n, k) and t is in P(n,k)."""
    _require_map("phi", n, k)
    if not in_P(n, k, t):
        raise ValueError(f"{t} is not in P({n},{k})")
    x, lay = _pack(n, t)
    case_of, read = first_match((guard, case) for case, guard, *_ in _phi_table(n, k, lay))
    return case_of[x & read]


def _apply(name: str, n: int, k: int, x: TripleValue) -> TripleValue:
    """The map `name` at (n, k) on a Triple or MarkedObject: check, encode,
    run the packed rule, which refuses an element outside the domain,
    decode."""
    _require_map(name, n, k)
    packed, lay = _pack(n, x)
    if packed is None:
        raise ValueError(f"{x} is not in the domain of {name} at n={n}, k={k}")
    return _decoder(lay)(_step(name, n, k, lay)(packed))


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
    return _apply("phi", n, k, x)


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
    return _apply("involution", n, k, x)


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

def domain_slice(n: int, k: int, cap: int) -> list[TripleValue]:
    """P(n,k) plus marker-(2n-1) copies of P(n-1,k-1), all of weight <= cap."""
    lay = _layout(n, cap)
    return list(map(_decoder(lay), _enum_packed(_domain(n, k), cap, lay)))


def phi_certificate(n: int, k: int, cap: int) -> Certificate:
    """Exhaustive weight-graded bijection check of phi on a capped slice,
    run on the packed form.

    The check runs once per class of the bits it reads (_phi_by_class).
    Where that fails, the set-based check_graded_bijection reruns on both
    slices, against phi's _step, which refuses any element outside its
    domain, weighs the decoded elements with weight_of and names the
    counterexample."""
    started = time.monotonic()
    _require_map("phi", n, k)
    lay = _layout(n, cap)
    params = {"n": n, "k": k}
    size = _phi_by_class(n, k, cap, lay)
    if size is not None:
        return certify("andrews-phi", params, started, cap=cap, domain_size=size,
                       codomain_size=size)
    return check_graded_bijection(
        _step("phi", n, k, lay), _enum_packed(_domain(n, k), cap, lay),
        _enum_packed(_codomain(n, k), cap, lay), cap=cap, check="andrews-phi",
        params=params, present=_decoder(lay))


def _phi_by_class(n: int, k: int, cap: int, lay: _Layout) -> Optional[int]:
    """The domain slice's size where phi is a weight-preserving bijection
    onto the capped codomain; None where any check fails.

    The checks run once per class c = x & R of the slice (_reads: phi's
    read, its inverse's and the codomain member's), in the kernel of both
    families, telescope.bijection_by_class, on d = c + shifts[c & read]
    (_phi_rule): no carry out of R; d in the codomain (its _member); the
    inverse takes d back to c (_phi_back); and d has c's weight and sign
    (_key).  Then each x of the class goes into the codomain with its
    weight and back to x, so phi is injective from the slice into the
    capped codomain, and onto it where the slice's size, nonzero, is the
    codomain's count."""
    rule, back = _phi_rule(n, k, lay), _phi_back(n, k, lay)
    member = _member(_codomain(n, k), lay)
    reads = _reads(lay, rule[1], back[1], member[1])
    return bijection_by_class(
        [(rule, reads, member, _count_classes(_domain(n, k), cap, lay, reads))],
        back, _key(lay), _count_classes(_codomain(n, k), cap, lay, 0)[0])


def involution_certificate(n: int, k: int, cap: int) -> Certificate:
    """Check the involution laws on a capped slice, run on the packed form.

    Verifies that every image lies in the map's domain, that applying the
    map twice is the identity, that non-fixed points pair with equal
    unsigned weight and opposite sign, and that the fixed set is exactly
    the embedded copy of P(n-1,k-1).  An empty slice would verify
    vacuously, so it raises ValueError.

    The check runs once per class of the bits it reads
    (_involution_by_class).  Where that fails, the set-based
    _involution_failure reruns on the slice and names the counterexample.
    """
    started = time.monotonic()
    _require_map("involution", n, k)
    lay = _layout(n, cap)
    sizes = _involution_by_class(n, k, cap, lay)
    if sizes is not None:
        return certify("andrews-involution", {"n": n, "k": k}, started, cap=cap,
                       domain_size=sizes[0], codomain_size=sizes[1])
    slice_ = list(_enum_packed(_domain(n, k), cap, lay))
    if not slice_:
        raise ValueError(f"empty domain: andrews-involution {dict(n=n, k=k)}")
    embedded = set(_enum_packed(_embedded(n, k), cap, lay))
    failure = _involution_failure(slice_, embedded, _step("involution", n, k, lay),
                                  _member(_domain(n, k), lay), lay)
    return certify("andrews-involution", {"n": n, "k": k}, started, failure,
                   cap=cap, domain_size=len(slice_), codomain_size=len(embedded))


def _involution_by_class(n: int, k: int, cap: int,
                         lay: _Layout) -> Optional[tuple[int, int]]:
    """(slice size, fixed count) where the involution laws hold on the
    capped slice; None where any check fails.

    The laws run once per class c = x & R of the slice (_reads: the
    rule's read, the domain member's and the embedded one's) in the kernel
    of both families, telescope.bijection_by_class, with the domain as
    its own codomain and the rule (_involution_rule) as its own inverse.
    So the kernel's inverse check is the involution law: the rule takes
    d = c + shifts[c & read], which must be in the domain, back to c.
    The key is _key with lam's parity flipped at the rising end of each
    pair (shifts[x & read] > 0), so the kernel's key check is the sign
    reversal: d has c's weight and the other sign.  Rising-ness reads
    only x & read, inside R, so the bits R leaves out still change both
    keys alike.  Then a class must be fixed exactly where it is a member
    of _embedded, P(n-1,k-1), whose read R holds, and the fixed count must
    be _embedded's capped count: the fixed set is the embedded one."""
    shifts, read = _involution_rule(n, k, lay)
    member, embedded = _member(_domain(n, k), lay), _member(_embedded(n, k), lay)
    reads = _reads(lay, read, member[1], embedded[1])
    classes, key = _count_classes(_domain(n, k), cap, lay, reads), _key(lay)
    size = bijection_by_class(
        [((shifts, read), reads, member, classes)], (Memo(lambda bits: -shifts[bits]), read),
        lambda x: key(x) ^ (shifts[x & read] > 0), sum(classes.values()))
    if size is None:
        return None
    fixed = {c: times for c, times in classes.items() if not shifts[c & read]}
    count = sum(fixed.values())
    if (fixed.keys() != {c for c in classes if passes(embedded, c)}
            or count != _count_classes(_embedded(n, k), cap, lay, 0)[0]):
        return None
    return size, count


def _involution_failure(slice_, embedded, step, member, lay):
    # Only the images are tested for membership, each once, by one read
    # of the domain's _member; the slice is the capped domain by
    # construction.  No check is lost: in a verified certificate the map
    # is involutive on the slice, and every image is in the domain and has
    # its element's weight, so it is within the cap.  So the images are
    # exactly the slice, and testing each image tests each element once.
    # Weights are weight_of on the decoded elements.  A counterexample is
    # decoded, and the least element of a fixed-set mismatch is the least
    # by the repr of its decoded form.
    decode, fixed = _decoder(lay), set()
    for x in slice_:
        y = step(x)
        if not passes(member, y):
            return decode(x), decode(y), REASON_NOT_IN_CODOMAIN
        if step(y) != x:
            return decode(x), decode(y), "not-involutive"
        if y == x:
            fixed.add(x)
            continue
        sign_x, z_x, q_x = weight_of(decode(x))
        sign_y, z_y, q_y = weight_of(decode(y))
        if (z_y, q_y) != (z_x, q_x):
            return decode(x), decode(y), "weight-mismatch"
        if sign_y != -sign_x:
            return decode(x), decode(y), "sign-not-reversed"
    if fixed != embedded:
        return min(map(decode, fixed ^ embedded), key=repr), None, "fixed-set-mismatch"
    return None


# the weighted sums ---------------------------------------------------------

@lru_cache(maxsize=64)
def F_trunc(n: int, cap: int) -> TruncatedSeries:
    """Signed weighted count of the union of all P(n,k), truncated at cap.

    Integer additions only, no product formula: F_n = sum_k q^C(n-k,2) T_k,
    T_k the signed lam x mu count of P(n,k) without its staircase, summed
    in Horner form.  T_{k+1} is T_k times (1 - q^(n-k))(1 - q^(n+k+1)) /
    (1 - q^(2k+2)): lam gains two parts and mu one.  One list on [0, cap]
    starts at 1, the staircase at k = n; for j = n-1 down to 0 it takes
    that ratio at k = j (two subset-sum steps, slice ops reading the old
    values, then a coin change, ascending) and gains q^C(n-j,2) if <= cap.
    At j = 0 it is F_n.
    """
    if n < 0 or cap < 0:
        raise ValueError("n and cap must be nonnegative")
    acc = [1] + [0] * cap
    for j in range(n - 1, -1, -1):
        for part in (n - j, n + j + 1):
            acc[part:] = map(sub, acc[part:], acc[:-part])
        coin = 2 * j + 2
        for w in range(coin, cap + 1):
            acc[w] += acc[w - coin]
        tau = (n - j) * (n - j - 1) // 2
        if tau <= cap:
            acc[tau] += 1
    return TruncatedSeries.from_list(acc)


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
