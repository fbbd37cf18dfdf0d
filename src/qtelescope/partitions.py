"""Integer partitions with explicit zero parts, and EvenField, the packed
form of an even-part partition that both families carry.

Zero parts are first-class: (0) and the empty partition are different
objects, and staircases always end in a zero part when nonempty.  Even
partitions in a box, largest part <= bound and at most `slots` parts,
are walked on their packed form only (EvenField.chunks, MacMahon's
boxes), by one recursion that yields in lexicographic order of the part
tuple, so its list needs no sort and downstream certificates are
byte-stable; box_size counts a box.  andrews12 builds its own slices'
factors packed (_factors).  Memo is the one cache of a function's values
per layout: the kernels' weight reads, the decoders and the rules'
first-match tables are each a subscript of one (the walk keeps its own
memo of tails).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
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


CHUNK = 512  # the longest tail list a streaming walk keeps


def box_size(bound: int, slots: int) -> int:
    """The number of even partitions with largest part <= bound and at
    most `slots` parts, the multisets of `slots` parts from 0, 2, ..,
    bound: C(bound/2 + slots, slots); 0 when either is negative."""
    return comb(bound // 2 + slots, slots) if min(bound, slots) >= 0 else 0


class Memo(dict):
    """fn's values, each computed once: memo[x] is fn(x), and an exception
    fn raises propagates uncached.  A subscript of one costs less than a
    call."""

    __slots__ = ("fn",)

    def __init__(self, fn: Callable):
        super().__init__()
        self.fn = fn

    def __missing__(self, key):
        value = self[key] = self.fn(key)
        return value


class EvenField:
    """An even-part partition packed into an int: the multiplicities of its
    parts 2, 4, 6, ..., `width` bits each from bit `at` up, the last one
    unbounded.  `decode`, a Memo read as decode[x >> at], and `weight` read
    those fields shifted down: equal mus decode to one shared Partition.
    A negative int packs no partition; both give None for it.

    `chunks` walks a box by one recursion over the first part.  It keeps
    only tail lists of at most CHUNK elements, memoised on (largest part,
    parts left) for one walk, and walks the parts above them, so it holds
    no whole box; box_size decides where a list starts.
    """

    __slots__ = ("at", "width", "decode")

    def __init__(self, at: int, width: int):
        self.at, self.width = at, width
        field = (1 << width) - 1

        def decode(mults: int) -> Optional[Partition]:
            if mults < 0:
                return None
            parts, part = (), 2
            while mults:
                parts = (part,) * (mults & field) + parts
                mults, part = mults >> width, part + 2
            return Partition(parts)

        self.decode = Memo(decode)

    def weight(self, mults: int) -> Optional[int]:
        """The weight of the packed mu `mults`, read off its multiplicities;
        uncached, as the kernels' weight reads memoise it."""
        if mults < 0:
            return None
        field, width = (1 << self.width) - 1, self.width
        q, part = 0, 2
        while mults:
            q += part * (mults & field)
            mults, part = mults >> width, part + 2
        return q

    def unit(self, p: int) -> int:
        """One part p, an even part >= 2: the unit of its multiplicity field."""
        return 1 << self.at + (p // 2 - 1) * self.width

    def encode(self, parts) -> int:
        """Even parts >= 2, packed; each multiplicity must fit its field."""
        return sum(map(self.unit, parts))

    def chunks(self, bound: int, slots: int, row: int = 0,
               edge: bool = False) -> Iterator[tuple[int, list[int]]]:
        """Every even-part partition with largest part <= bound and at most
        `slots` parts, packed, with `row` added once per part, in
        lexicographic order of the part tuple, as (head, tails) pairs: the
        sums head + t for t in tails, a list of at most CHUNK ints; with
        `edge`, only those whose largest part is `bound` (the empty
        partition's reads as 0), generated from that first part.  No
        Partition is built."""
        head = 0
        if edge and bound > 0:  # the first part is the bound
            head, slots = row + self.unit(bound), slots - 1
        if min(bound, slots) < 0:
            return iter(())
        return self._chunks({}, row, head, bound, slots)

    def _tails(self, memo: dict, row: int, limit: int, room: int) -> list[int]:
        out = memo.get((limit, room))
        if out is None:
            out = memo[limit, room] = [0]
            for part in range(2, limit + 1, 2) if room else ():
                head = row + self.unit(part)
                out += [head + t for t in self._tails(memo, row, part, room - 1)]
        return out

    def _chunks(self, lists: dict, row: int, head: int, limit: int,
                room: int) -> Iterator[tuple[int, list[int]]]:
        """(head, tails) pairs whose sums head + t are the walk's elements in
        order: a subtree of at most CHUNK elements is one memoised list."""
        if box_size(limit, room) <= CHUNK:
            yield head, self._tails(lists, row, limit, room)
            return
        yield head, [0]
        for part in range(2, limit + 1, 2):
            yield from self._chunks(lists, row, head + row + self.unit(part),
                                    part, room - 1)
