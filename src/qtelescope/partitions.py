"""Integer partitions with explicit zero parts, and the enumerators used
by the verification drivers.

Zero parts are first-class: (0) and the empty partition are different
objects, and staircases always end in a zero part when nonempty.  Each
enumerator is a recursion that yields in lexicographic order of the part
tuple, so its list needs no sort and downstream certificates are
byte-stable; the weight-capped ones prune a branch once it passes the cap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator


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

    def contains(self, value: int) -> bool:
        return value in self.parts

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


def enum_even_bounded(max_part: int, max_len: int) -> list[Partition]:
    """All even-part partitions with largest part <= max_part, at most max_len parts."""
    if max_part % 2 != 0 or max_part < 0:
        raise ValueError("max_part must be even and nonnegative")
    if max_len < 0:
        raise ValueError("max_len must be nonnegative")

    def rec(limit: int, slots: int) -> Iterator[tuple[int, ...]]:
        yield ()
        if slots == 0:
            return
        for p in range(2, limit + 1, 2):
            for rest in rec(p, slots - 1):
                yield (p,) + rest

    return [Partition(parts) for parts in rec(max_part, max_len)]


def enum_even_capped(max_part: int, weight_cap: int) -> list[Partition]:
    """All even-part partitions with largest part <= max_part and weight <= weight_cap.

    The length is unbounded; the weight cap is what keeps the set finite.
    """
    if max_part % 2 != 0 or max_part < 0:
        raise ValueError("max_part must be even and nonnegative")
    if weight_cap < 0:
        return []

    def rec(limit: int, budget: int) -> Iterator[tuple[int, ...]]:
        yield ()
        for p in range(2, min(limit, budget) + 1, 2):
            for rest in rec(p, budget - p):
                yield (p,) + rest

    return [Partition(parts) for parts in rec(max_part, weight_cap)]
