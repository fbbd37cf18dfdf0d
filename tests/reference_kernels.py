"""The Andrews certificates' element kernels, kept as references for the
class kernels that replaced them (andrews12._phi_by_class and
_involution_by_class).

Each checks one element at a time and keeps only counters: stream_phi
runs telescope.stream_bijection over the domain's groups with phi's
rule, and stream_involution checks the involution's laws with the rule
read inline.  Both read an element's signed weight through `reader`, a
memoised head table plus EvenField.halves, as the element kernels read
it; the class kernels read it through andrews12._key.
"""

from typing import Optional

from qtelescope import andrews12
from qtelescope.partitions import Memo
from qtelescope.telescope import stream_bijection


def reader(lay, k) -> tuple:
    """(below, head, at, mask, split, low, high, 1): the signed weight of a
    packed x as weight << 1 | parity of lam's length, read as head[x &
    below] + (low[mu & mask] + high[mu >> split] << 1) with mu = x >> at
    (see telescope.stream_bijection).  head reads the marker, C(rows, 2)
    and lam's weight and parity off the bits below mu; mu's weight comes
    in EvenField.halves(2k)."""
    field, rows_at, lam_at = lay.field, lay.rows, lay.lam

    def head(bits: int) -> int:
        rows, lam = bits >> rows_at & field, bits >> lam_at
        weight = (bits & field) + rows * (rows - 1) // 2 + sum(
            p for p in range(lam.bit_length()) if lam >> p & 1)
        return weight << 1 | lam.bit_count() & 1
    return ((1 << lay.mu.at) - 1, Memo(head), lay.mu.at, *lay.mu.halves(2 * k), 1)


def stream_phi(n, k, cap, lay) -> Optional[int]:
    """The domain slice's size where phi is a weight-preserving bijection
    onto the capped codomain, by stream_bijection; None where a check
    fails, a refused element among them."""
    codomain = andrews12._codomain(n, k)
    # stream_bijection's codomain test also reads a length field: none here
    return stream_bijection(
        [(andrews12._phi_rule(n, k, lay), andrews12._groups(andrews12._domain(n, k), cap, lay))],
        ([(*masks, 0) for masks in andrews12._slice_table(codomain, lay)], lay.field, 0),
        andrews12._phi_back(n, k, lay), reader(lay, k),
        andrews12._count_packed(codomain, cap, lay))


def stream_involution(n, k, cap, lay) -> Optional[tuple[int, int]]:
    """(slice size, fixed count) where the involution laws hold on the
    capped slice, checked one element at a time; None where any check
    fails.  A fixed x must pass the embedded masks and the fixed count
    must be the embedded count; a rising x's image must be in the domain,
    fall back to x and have x's weight and the other sign; and 2 * rising
    + fixed must be the size."""
    shifts, read = andrews12._involution_rule(n, k, lay)
    table, field = andrews12._slice_table(andrews12._domain(n, k), lay), lay.field
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
                forbidden, expected = table[y & field]
                if (y & forbidden != expected or shifts[y & read] != -shift
                        or key(y) != key(x) ^ 1):
                    return None
                rising += 1
    except KeyError:
        return None
    if (not size or 2 * rising + fixed != size
            or fixed != andrews12._count_packed(andrews12._embedded(n, k), cap, lay)):
        return None
    return size, fixed
