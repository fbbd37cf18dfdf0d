"""The certificates' element kernels, kept as references for the class
kernel that replaced them, telescope.bijection_by_class, which
andrews12._phi_by_class, andrews12._involution_by_class and
macmahon._bijection_certificate call.

Each checks one element at a time and keeps only counters.
stream_bijection is the one flat pass of a bijection: stream_phi runs it
over an Andrews domain's groups with phi's rule, and stream_macmahon over
MacMahon's walks with their rules.  stream_involution checks the
involution's laws with the rule read inline.  Each reads an element's
signed weight through a reader, a memoised head table plus `halves`
of mu's fields (`reader` for Andrews, `macmahon_reader`), as the
element kernels read it; the class kernel reads it through andrews12._key
and macmahon._key.
"""

from typing import Iterable, Optional

from qtelescope import andrews12, macmahon
from qtelescope.partitions import Memo
from qtelescope.telescope import Rule, first_match, passes


def stream_bijection(walks: Iterable[tuple[Rule, Iterable[tuple[int, Iterable[int]]]]],
                     member: tuple, back: tuple, reader: tuple, size: int) -> Optional[int]:
    """The domain's size where a map is a weight-preserving bijection of
    packed ints onto the codomain, checked in one flat pass that holds no
    element; None where any check fails.

    The domain comes as walks (rule, groups), in the oracle's order, its
    elements base + t for t in tails of each nonempty group (base, tails).
    For each x, y = x + shifts[x & read] by its walk's rule (shifts, read),
    which must not refuse x (KeyError), must be a member of the codomain:
    with (memo, read) = member, a first-match rule of the codomain's
    guards, memo[y & read] raises no KeyError.  The inverse must take y
    back to x: with (shifts, read) = back, y - shifts[y & read] == x.  A
    moved y must keep x's weight: with (below, head, at, mask, split, low,
    high, scale) = reader, the int key of v's signed weight is head[v &
    below] + (low[mu & mask] + high[mu >> split] << scale), mu = v >> at,
    and y's must be x's.  The elements of a group share their bits under
    `below`, so x's head is read once a group.  At the end the domain must
    be nonempty and of the codomain's counted `size`.

    That is sound for any inverse: an inverse that undoes the map on every
    element makes it injective, and an injective map into a finite set of
    its own size is a bijection.  A wrong inverse can only fail a good
    map, and the oracle overrules that.  The rules meet the elements in the
    oracle's order, so any exception but a KeyError is the oracle's.
    """
    member, member_read = member
    inverse, inverse_read = back
    below, head, at, mask, split, low, high, scale = reader
    count = 0
    try:
        for (shifts, read), groups in walks:
            for base, tails in groups:
                x_head = head[base + next(iter(tails)) & below]
                for t in tails:
                    x = base + t
                    y = x + shifts[x & read]
                    member[y & member_read]
                    if y - inverse[y & inverse_read] != x:
                        return None
                    if y != x:
                        y_mu, x_mu = y >> at, x >> at
                        if (head[y & below] + (low[y_mu & mask] + high[y_mu >> split] << scale)
                                != x_head + (low[x_mu & mask] + high[x_mu >> split] << scale)):
                            return None
                count += len(tails)
    except KeyError:
        return None
    return count if count and count == size else None


def halves(field, bound: int) -> tuple[int, int, Memo, Memo]:
    """(mask, shift, low, high): the weight of a packed mu m >= 0 of the
    EvenField `field` is low[m & mask] + high[m >> shift], each half's
    weight a Memo.  The split falls between two fields, about halfway
    through the parts up to `bound`, so that both memos stay small where
    most mus are met once; it is exact for any m."""
    shift = max(bound // 4, 1) * field.width
    return ((1 << shift) - 1, shift, Memo(field.weight),
            Memo(lambda high: field.weight(high << shift)))


def reader(lay, k) -> tuple:
    """(below, head, at, mask, split, low, high, 1): the signed weight of a
    packed x as weight << 1 | parity of lam's length, read as head[x &
    below] + (low[mu & mask] + high[mu >> split] << 1) with mu = x >> at
    (see stream_bijection).  head reads the marker, C(rows, 2)
    and lam's weight and parity off the bits below mu; mu's weight comes
    in halves(2k)."""
    field, rows_at, lam_at = lay.field, lay.rows, lay.lam

    def head(bits: int) -> int:
        rows, lam = bits >> rows_at & field, bits >> lam_at
        weight = (bits & field) + rows * (rows - 1) // 2 + sum(
            p for p in range(lam.bit_length()) if lam >> p & 1)
        return weight << 1 | lam.bit_count() & 1
    return ((1 << lay.mu.at) - 1, Memo(head), lay.mu.at, *halves(lay.mu, 2 * k), 1)


def stream_phi(n, k, cap, lay) -> Optional[int]:
    """The domain slice's size where phi is a weight-preserving bijection
    onto the capped codomain, by stream_bijection; None where a check
    fails, a refused element among them."""
    codomain = andrews12._codomain(n, k)
    return stream_bijection(
        [(andrews12._phi_rule(n, k, lay), andrews12._groups(andrews12._domain(n, k), cap, lay))],
        andrews12._member(codomain, lay), andrews12._phi_back(n, k, lay), reader(lay, k),
        andrews12._count_classes(codomain, cap, lay, 0)[0])


def stream_involution(n, k, cap, lay) -> Optional[tuple[int, int]]:
    """(slice size, fixed count) where the involution laws hold on the
    capped slice, checked one element at a time; None where any check
    fails.  A fixed x must pass the embedded masks and the fixed count
    must be the embedded count; a rising x's image must be in the domain,
    fall back to x and have x's weight and the other sign; and 2 * rising
    + fixed must be the size."""
    shifts, read = andrews12._involution_rule(n, k, lay)
    member = andrews12._member(andrews12._domain(n, k), lay)
    ((forbidden_e, expected_e),) = andrews12._slice_masks(andrews12._embedded(n, k), lay)
    below, head, at, mask, split, low, high, scale = reader(lay, k)

    def key(v):
        mu = v >> at
        return head[v & below] + (low[mu & mask] + high[mu >> split] << scale)

    size = fixed = rising = 0
    try:
        for x in andrews12._enum_packed(andrews12._domain(n, k), cap, lay):
            size += 1
            shift = shifts[x & read]
            if not shift:
                if x & forbidden_e != expected_e:
                    return None
                fixed += 1
            elif shift > 0:
                y = x + shift
                if (not passes(member, y) or shifts[y & read] != -shift
                        or key(y) != key(x) ^ 1):
                    return None
                rising += 1
    except KeyError:
        return None
    if (not size or 2 * rising + fixed != size
            or fixed != andrews12._count_classes(andrews12._embedded(n, k), cap, lay, 0)[0]):
        return None
    return size, fixed


def macmahon_reader(lay, bound: int) -> tuple:
    """stream_bijection's reader of a packed MacMahon pair's weight: the
    key (q << scale) + z + offset, where 0 <= z + offset < 2^scale for
    every side field and flag.  head, a Memo, reads side^2 + marker_q
    (flagged) and side + marker_z (flagged) off the flag and side field;
    mu's weight comes in halves(bound)."""
    field, lo, (marker_q, marker_z) = lay.field, lay.lo, lay.marker
    zs = lo, lo + field, lo + marker_z, lo + field + marker_z
    offset, scale = -min(zs), (max(zs) - min(zs)).bit_length()

    def head(bits: int) -> int:
        side, flag = (bits >> macmahon._SIDE) + lo, bits & macmahon._MARKED
        return (side * side + flag * marker_q << scale) + side + flag * marker_z + offset
    return (macmahon._MARKED | field << macmahon._SIDE, Memo(head), lay.mu.at,
            *halves(lay.mu, bound), scale)


def stream_macmahon(walks, codomain, shifts, lay) -> Optional[int]:
    """The domain's size where a MacMahon map is a weight-preserving
    bijection onto the codomain, by stream_bijection; None where a check
    fails.  It takes the arguments of macmahon._bijection_certificate: the
    domain's walks ((box, edge), rule, the side fields it lands on), the
    codomain's walks (box, flag), the inverse's shifts by side field and
    the layout.  Every image is tested against the first match of the
    whole codomain's guards, and the inverse takes a marked image less the
    shift of its side field, any other image as itself."""
    field = lay.field
    flag_side = macmahon._MARKED | field << macmahon._SIDE
    # split mu's fields in the middle of the largest walk's parts
    widest = max((walk for walk, *_ in walks), key=lambda walk: macmahon._box_size(*walk))[0]
    return stream_bijection(
        [(rule, macmahon._groups([walk], lay)) for walk, rule, *_ in walks],
        first_match((macmahon._masks(box, lay, flag), (box, flag)) for box, flag in codomain),
        ([back for shift in shifts[:field + 1] for back in (0, shift)], flag_side),
        macmahon_reader(lay, widest[1]), sum(macmahon._box_size(box) for box, _ in codomain))
