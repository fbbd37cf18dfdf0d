"""Partition objects and the distinct-part and even-part references of
tests/reference_enumerators.py, checked against a naive
brute-force generator that knows nothing about the library's descent order;
EvenField, the packed even partition, checked against those enumerators.
"""

import itertools
import math

import pytest

from qtelescope.partitions import CHUNK, EMPTY, EvenField, Partition, box_size, staircase
from qtelescope.qalgebra import LaurentPoly, gaussian_binomial

from partition_edits import (drop_first, drop_first_rows, replace_part, with_part,
                             without_part)
import reference_enumerators
from reference_enumerators import enum_distinct_range, enum_even_bounded, enum_even_capped
from reference_kernels import halves


def brute_all_partitions(max_part, weight_cap, max_len=None):
    """Every nonincreasing tuple of positive parts <= max_part with weight
    <= weight_cap (and at most max_len parts if given)."""
    slots = weight_cap if max_len is None else max_len
    found = [()]

    def rec(prefix, limit, budget, left):
        for p in range(1, min(limit, budget) + 1):
            if left == 0:
                return
            t = prefix + (p,)
            found.append(t)
            rec(t, p, budget - p, left - 1)

    rec((), max_part, weight_cap, slots)
    return found


# the Partition object -------------------------------------------------------

def test_zero_parts_are_significant():
    assert Partition((0,)) != EMPTY
    assert Partition((0,)).weight == 0
    assert Partition((0,)).length == 1


def test_rejects_bad_part_lists():
    with pytest.raises(ValueError):
        Partition((1, 2))
    with pytest.raises(ValueError):
        Partition((3, -1))


def test_predicates():
    assert EMPTY.has_distinct_parts() and EMPTY.has_even_parts()
    assert Partition((3, 2)).has_distinct_parts()
    assert not Partition((2, 2)).has_distinct_parts()
    assert not Partition((1, 0)).has_distinct_parts()
    assert Partition((4, 2, 2)).has_even_parts()
    assert not Partition((3,)).has_even_parts()
    assert not Partition((2, 0)).has_even_parts()


def test_first_defaults_to_zero():
    assert EMPTY.first == 0
    assert Partition((5, 2)).first == 5


def test_row_edits():
    p = Partition((4, 2, 2))
    assert drop_first(p) == Partition((2, 2))
    assert drop_first(EMPTY) == EMPTY
    assert with_part(p, 4) == Partition((4, 4, 2, 2))
    assert with_part(p, 6) == Partition((6, 4, 2, 2))
    assert without_part(p, 2) == Partition((4, 2))
    assert replace_part(p, 4, 1) == Partition((2, 2, 1))
    with pytest.raises(ValueError):
        without_part(p, 3)
    with pytest.raises(ValueError):
        drop_first_rows(p, 4)


def test_json_forms():
    assert Partition((2, 1, 0)).to_json_obj() == [2, 1, 0]


# staircases ------------------------------------------------------------------

def test_staircase_examples():
    assert staircase(3) == Partition((2, 1, 0))
    assert staircase(1) == Partition((0,))
    assert staircase(0) == EMPTY


def test_staircase_weight_is_triangular():
    for r in range(10):
        assert staircase(r).weight == r * (r - 1) // 2
        assert staircase(r).length == r


# enum_distinct_range -----------------------------------------------------------

def test_distinct_range_examples():
    assert {p.parts for p in enum_distinct_range(1, 2, 3)} == {(), (1,), (2,), (2, 1)}
    assert [p.parts for p in enum_distinct_range(3, 2, 0)] == [()]
    assert {p.parts for p in enum_distinct_range(2, 3, 5)} == {(), (2,), (3,), (3, 2)}


def test_distinct_range_against_brute_force():
    for lo in range(1, 4):
        for hi in range(lo - 1, lo + 5):
            got = {p.parts for p in enum_distinct_range(lo, hi, sum(range(lo, hi + 1)))}
            want = {t for t in brute_all_partitions(max(hi, 0), max(hi, 0) * 6)
                    if len(set(t)) == len(t) and all(lo <= x <= hi for x in t)}
            assert got == want
            assert len(got) == 2 ** max(hi - lo + 1, 0)


def test_distinct_range_is_the_capped_subsets_in_lexicographic_order():
    for lo in range(13):
        for hi in range(lo - 1, 13):
            values = range(hi, lo - 1, -1)
            subsets = sorted(c for r in range(len(values) + 1)
                             for c in itertools.combinations(values, r))
            for cap in range(-1, sum(values) + 1):
                got = [p.parts for p in enum_distinct_range(lo, hi, cap)]
                assert got == [c for c in subsets if sum(c) <= cap], (lo, hi, cap)


def test_distinct_range_builds_only_what_it_returns(monkeypatch):
    built = []

    class CountedPartition(Partition):
        __slots__ = ()

        def __post_init__(self):
            built.append(self)

    monkeypatch.setattr(reference_enumerators, "Partition", CountedPartition)
    result = enum_distinct_range(2, 21, 40)
    assert len(built) == len(result) < 2 ** 20


def test_enumerations_are_duplicate_free_and_sorted():
    for enum in (enum_distinct_range(2, 6, 20), enum_even_bounded(6, 3),
                 enum_even_capped(4, 9)):
        parts = [p.parts for p in enum]
        assert parts == sorted(parts)
        assert len(parts) == len(set(parts))


def test_even_enumerators_are_lexicographic_on_a_grid():
    # The module's ordering contract, which certificates rely on, holds
    # without a final sort: the recursive generators yield in order.
    for max_part in range(0, 13, 2):
        for max_len in range(8):
            parts = [p.parts for p in enum_even_bounded(max_part, max_len)]
            assert parts == sorted(parts), (max_part, max_len)
        for weight_cap in range(40):
            parts = [p.parts for p in enum_even_capped(max_part, weight_cap)]
            assert parts == sorted(parts), (max_part, weight_cap)


# enum_even_bounded ---------------------------------------------------------------

def test_even_bounded_examples():
    assert {p.parts for p in enum_even_bounded(2, 1)} == {(), (2,)}
    assert [p.parts for p in enum_even_bounded(0, 5)] == [()]
    assert {p.parts for p in enum_even_bounded(4, 2)} == {
        (), (2,), (4,), (2, 2), (4, 2), (4, 4)}


def test_even_bounded_against_brute_force():
    for max_part in (0, 2, 4, 6):
        for max_len in range(4):
            got = {p.parts for p in enum_even_bounded(max_part, max_len)}
            want = {t for t in brute_all_partitions(max_part, max_part * max_len,
                                                    max_len)
                    if all(x % 2 == 0 for x in t)}
            assert got == want


def test_even_bounded_box_count():
    for a in range(9):
        for b in range(9):
            assert len(enum_even_bounded(2 * a, b)) == math.comb(a + b, b)


def test_even_bounded_weighted_sum_is_gaussian():
    # sum of q^|mu| over mu with parts <= 2(m+k), length <= n-k equals the
    # base-q^2 Gaussian coefficient [m+n, m+k].
    for m in range(6):
        for n in range(6):
            for k in range(-m, n + 1):
                acc = {}
                for mu in enum_even_bounded(2 * (m + k), n - k):
                    acc[(0, mu.weight)] = acc.get((0, mu.weight), 0) + 1
                assert LaurentPoly(acc) == gaussian_binomial(m + n, m + k, 2)


# enum_even_capped -----------------------------------------------------------------

def test_even_capped_examples():
    assert {p.parts for p in enum_even_capped(2, 6)} == {
        (), (2,), (2, 2), (2, 2, 2)}
    assert [p.parts for p in enum_even_capped(2, 0)] == [()]
    assert {p.parts for p in enum_even_capped(4, 4)} == {(), (2,), (4,), (2, 2)}


def test_even_capped_against_brute_force():
    for max_part in (0, 2, 4, 8):
        for cap in range(11):
            got = {p.parts for p in enum_even_capped(max_part, cap)}
            want = {t for t in brute_all_partitions(max_part, cap)
                    if all(x % 2 == 0 for x in t)}
            assert got == want


def test_enumerator_outputs_satisfy_their_predicates():
    for p in enum_distinct_range(2, 7, 27):
        assert p.has_distinct_parts()
    for p in enum_even_bounded(8, 3):
        assert p.has_even_parts() and p.first <= 8 and p.length <= 3
    for p in enum_even_capped(6, 12):
        assert p.has_even_parts() and p.first <= 6 and p.weight <= 12


# EvenField -------------------------------------------------------------------------

FIELDS = [(0, 1), (0, 3), (5, 2), (9, 4)]  # (at, width)


def decoded(field, packed):
    return [field.decode[x >> field.at] for x in packed]


def walked(field, *box):
    """The ints of field.chunks(*box), flattened."""
    return [head + t for head, tails in field.chunks(*box) for t in tails]


@pytest.mark.parametrize("at, width", FIELDS)
def test_packed_enumerator_is_the_bounded_reference(at, width):
    field = EvenField(at, width)
    for bound in range(0, 11, 2):
        for slots in range(2 ** width):
            packed = walked(field, bound, slots)
            assert decoded(field, packed) == enum_even_bounded(bound, slots), \
                (bound, slots)
    assert walked(field, -2, 3) == walked(field, 4, -1) == []


def test_packed_enumerator_with_both_bounds_and_a_row():
    # row counts the parts in the bits below the field, as a length field does
    at, row = 4, 1
    field = EvenField(at, 3)
    for bound in (0, 2, 6):
        for slots in range(4):
            packed = walked(field, bound, slots, row)
            want = enum_even_bounded(bound, slots)
            assert decoded(field, packed) == want, (bound, slots)
            assert [x & (1 << at) - 1 for x in packed] == [mu.length for mu in want]


@pytest.mark.parametrize("at, width", FIELDS)
def test_decode_and_weight_are_the_partition(at, width):
    field = EvenField(at, width)
    for mu in enum_even_capped(12, 2 * (2 ** width - 1)):  # multiplicities fit
        x = field.encode(mu.parts)
        assert x & (1 << at) - 1 == 0
        assert field.decode[x >> at] == mu
        assert field.weight(x >> at) == mu.weight
        for bound in (0, 4, 12, 30):  # the halves split anywhere, and are exact
            mask, shift, low, high = halves(field, bound)
            assert low[x >> at & mask] + high[x >> at >> shift] == mu.weight
    # equal mus decode to one shared Partition
    assert field.decode[1] is field.decode[1]


@pytest.mark.parametrize("at, width", FIELDS)
def test_streaming_enumerator_is_the_list(at, width):
    # Boxes past the chunk size walk their top parts; `edge` keeps the
    # partitions whose largest part is the bound (the empty one's reads as 0).
    field, row = EvenField(at, width), 1 if at else 0
    for bound in range(-2, 11, 2):
        for slots in range(-1, 2 ** width):
            packed = walked(field, bound, slots, row)
            edge = [x for x in packed if field.decode[x >> at].first == max(bound, 0)]
            assert walked(field, bound, slots, row, True) == edge, (bound, slots)


@pytest.mark.parametrize("edge", [False, True])
@pytest.mark.parametrize("at, width", FIELDS)
def test_chunks_hold_the_box_size_in_lists_of_at_most_CHUNK(at, width, edge):
    # box_size both sizes a box and decides where a tail list starts; boxes
    # up to bound 14 reach past CHUNK (C(7 + 15, 15) = 170,544 at width 4).
    field = EvenField(at, width)
    for bound in range(0, 15, 2):
        for slots in range(2 ** width):
            lists = [tails for _head, tails in field.chunks(bound, slots, 1, edge)]
            assert sum(map(len, lists)) == box_size(
                bound, slots - 1 if edge and bound else slots), (bound, slots)
            assert max(map(len, lists), default=0) <= CHUNK, (bound, slots)


def test_decode_and_weight_are_total_on_ints():
    # A negative int packs no partition; reading it must not loop.
    field = EvenField(3, 2)
    assert field.decode[-5] is None and field.weight(-5) is None
    assert field.decode[0] == EMPTY and field.weight(0) == 0
