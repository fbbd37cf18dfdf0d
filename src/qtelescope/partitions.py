"""Integer partitions with explicit zero parts, the distinct-part
enumerator, and EvenField, the packed form of an even-part partition that
both families carry.

Zero parts are first-class: (0) and the empty partition are different
objects, and staircases always end in a zero part when nonempty.  Each
enumerator is a recursion that yields in lexicographic order of the part
tuple, so its list needs no sort and downstream certificates are
byte-stable; each prunes a branch once it passes the weight cap.  Even
partitions are enumerated on their packed form only, which also streams
and counts (EvenField.chunks, iter and count).  Memo is the subscripted
cache the bijection kernels read weights through.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterator, Optional


@dataclass(frozen=True, slots=True)
class Partition:
    """A nonincreasing finite tuple of nonnegative integers.

    Zero parts are allowed and significant: they count toward the length
    but not the weight.
    """

    parts: tuple[int, ...] = ()

    def __post_init__(self):
        prev = None
        for p in self.parts:
            if p < 0:
                raise ValueError(f"negative part {p}")
            if prev is not None and p > prev:
                raise ValueError(f"parts not nonincreasing: {self.parts}")
            prev = p

    @property
    def weight(self) -> int:
        return sum(self.parts)

    @property
    def length(self) -> int:
        """Number of parts, zero parts included."""
        return len(self.parts)

    @property
    def first(self) -> int:
        """Largest part; 0 for the empty partition."""
        return self.parts[0] if self.parts else 0

    def is_empty(self) -> bool:
        return not self.parts

    def has_distinct_parts(self) -> bool:
        """Strictly decreasing positive parts (the empty partition qualifies)."""
        return all(p > 0 for p in self.parts) and all(
            a > b for a, b in zip(self.parts, self.parts[1:]))

    def has_even_parts(self) -> bool:
        """All parts positive and even (the empty partition qualifies)."""
        return all(p > 0 and p % 2 == 0 for p in self.parts)

    def __str__(self) -> str:
        return "()" if not self.parts else "(" + ",".join(map(str, self.parts)) + ")"

    def to_json_obj(self) -> list[int]:
        return list(self.parts)


EMPTY = Partition(())


def staircase(r: int) -> Partition:
    """The partition (r-1, r-2, ..., 1, 0) with exactly r parts; r = 0 gives ()."""
    if r < 0:
        raise ValueError("row count must be nonnegative")
    return Partition(tuple(range(r - 1, -1, -1)))


def enum_distinct_range(lo: int, hi: int, weight_cap: int) -> list[Partition]:
    """All strictly decreasing partitions with parts in [lo, hi] and weight <= weight_cap.

    A branch is pruned once its weight passes the cap, so no partition over
    the cap is built.  An empty range (hi < lo) yields exactly [()]; a
    negative cap yields [].
    """
    if weight_cap < 0:
        return []

    def rec(limit: int, budget: int) -> Iterator[tuple[int, ...]]:
        yield ()
        for p in range(lo, min(limit, budget) + 1):
            for rest in rec(p - 1, budget - p):
                yield (p,) + rest

    return [Partition(parts) for parts in rec(hi, weight_cap)]


CHUNK = 512  # the longest tail list a streaming walk keeps


class Memo(dict):
    """fn's values, each computed once: memo[x] is fn(x).  The kernels
    read weights through a subscript of one, which costs less than a
    call."""

    __slots__ = ("fn",)

    def __init__(self, fn: Callable[[int], int]):
        super().__init__()
        self.fn = fn

    def __missing__(self, key: int) -> int:
        value = self[key] = self.fn(key)
        return value


class EvenField:
    """An even-part partition packed into an int: the multiplicities of its
    parts 2, 4, 6, ..., `width` bits each from bit `at` up, the last one
    unbounded.  `decode` (cached) and `weight` read those fields shifted
    down, x >> at: equal mus decode to one shared Partition.  A negative
    int packs no partition; both give None for it.

    `chunks` (and `iter`, built on it) and `count` share one recursion over
    the first part, memoised on (largest part, parts left, weight left);
    the counts, which depend on nothing else, are kept once per field and
    serve every box.  `chunks` keeps only tail lists of at most CHUNK
    elements and walks the parts above them, so it holds no whole box.
    """

    __slots__ = ("at", "width", "decode", "_counts")

    def __init__(self, at: int, width: int):
        self.at, self.width = at, width
        self._counts: dict[tuple[int, int, int], int] = {}
        field = (1 << width) - 1

        @lru_cache(maxsize=None)
        def decode(mults: int) -> Optional[Partition]:
            if mults < 0:
                return None
            parts, part = (), 2
            while mults:
                parts = (part,) * (mults & field) + parts
                mults, part = mults >> width, part + 2
            return Partition(parts)

        self.decode = decode

    def weight(self, mults: int) -> Optional[int]:
        """The weight of the packed mu `mults`, read off its multiplicities;
        uncached, as andrews12._factors weighs each mu it builds once."""
        if mults < 0:
            return None
        field, width = (1 << self.width) - 1, self.width
        q, part = 0, 2
        while mults:
            q += part * (mults & field)
            mults, part = mults >> width, part + 2
        return q

    def halves(self, bound: int) -> tuple[int, int, Memo, Memo]:
        """(mask, shift, low, high): the weight of a packed mu m >= 0 is
        low[m & mask] + high[m >> shift], each half's weight a Memo.  The
        split falls between two fields, about halfway through the parts up
        to `bound`, so that both memos stay small where most mus are met
        once; it is exact for any m."""
        shift = max(bound // 4, 1) * self.width
        return ((1 << shift) - 1, shift, Memo(self.weight),
                Memo(lambda high: self.weight(high << shift)))

    def unit(self, p: int) -> int:
        """One part p, an even part >= 2: the unit of its multiplicity field."""
        return 1 << self.at + (p // 2 - 1) * self.width

    def encode(self, parts) -> int:
        """Even parts >= 2, packed; each multiplicity must fit its field."""
        return sum(map(self.unit, parts))

    def iter(self, bound: int, slots: int, cap: int, row: int = 0,
             edge: bool = False) -> Iterator[int]:
        """Every even-part partition with largest part <= bound, at most
        `slots` parts and weight <= cap, packed, with `row` added once per
        part, one at a time, in lexicographic order of the part tuple;
        with `edge`, only those whose largest part is `bound` (the empty
        partition's reads as 0), generated from that first part.  No
        Partition is built."""
        for head, tails in self.chunks(bound, slots, cap, row, edge):
            for t in tails:
                yield head + t

    def chunks(self, bound: int, slots: int, cap: int, row: int = 0,
               edge: bool = False) -> Iterator[tuple[int, list[int]]]:
        """`iter`'s partitions as (head, tails) pairs, in order: the sums
        head + t for t in tails, a list of at most CHUNK ints."""
        root = self._root(bound, slots, cap, row, edge)
        return iter(()) if root is None else self._chunks({}, row, *root)

    def count(self, bound: int, slots: int, cap: int, edge: bool = False) -> int:
        """The number of partitions `iter` yields, counted without them."""
        root = self._root(bound, slots, cap, 0, edge)
        return 0 if root is None else self._count(*root[1:])

    def _root(self, bound, slots, cap, row, edge):
        """(head, limit, room, budget) of the walk; None where it is empty."""
        head = 0
        if edge and bound > 0:  # the first part is the bound
            head, slots, cap = row + self.unit(bound), slots - 1, cap - bound
        return None if min(bound, slots, cap) < 0 else (head, bound, slots, cap)

    @staticmethod
    def _key(limit: int, room: int, budget: int) -> tuple[int, int, int]:
        # one key per set: at most budget // 2 parts fit, and `room` parts
        # <= limit weigh at most limit * room
        room = min(room, budget // 2)
        return limit, room, min(budget, limit * room)

    def _count(self, limit: int, room: int, budget: int) -> int:
        key = self._key(limit, room, budget)
        out = self._counts.get(key)
        if out is None:
            limit, room, budget = key
            out = self._counts[key] = 1 + sum(
                self._count(part, room - 1, budget - part)
                for part in range(2, min(limit, budget) + 1, 2))
        return out

    def _tails(self, memo: dict, row: int, limit: int, room: int,
               budget: int) -> list[int]:
        key = self._key(limit, room, budget)
        out = memo.get(key)
        if out is None:
            limit, room, budget = key
            out = memo[key] = [0]
            for part in range(2, min(limit, budget) + 1, 2):
                head = row + self.unit(part)
                out += [head + t for t in self._tails(memo, row, part, room - 1,
                                                      budget - part)]
        return out

    def _chunks(self, lists: dict, row: int, head: int, limit: int, room: int,
                budget: int) -> Iterator[tuple[int, list[int]]]:
        """(head, tails) pairs whose sums head + t are the walk's elements in
        order: a subtree of at most CHUNK elements is one memoised list."""
        if self._count(limit, room, budget) <= CHUNK:
            yield head, self._tails(lists, row, limit, room, budget)
            return
        limit, room, budget = self._key(limit, room, budget)
        yield head, [0]
        for part in range(2, min(limit, budget) + 1, 2):
            yield from self._chunks(lists, row, head + row + self.unit(part),
                                    part, room - 1, budget - part)
