"""Partition-level enumerators of the even-part partitions, as plain
recursions on part tuples.

The library walks even partitions on their packed form
(partitions.EvenField), so these serve the tests only: the references
that the packed enumerator, the families built on it and the Gaussian
coefficients are checked against.  Each yields in lexicographic order of
the part tuple.
"""

from typing import Iterator

from qtelescope.partitions import Partition


def _even_parts(limit: int, slots: int, budget: int) -> Iterator[tuple[int, ...]]:
    """Even-part tuples with parts <= limit, at most `slots` parts and
    weight <= budget, in lexicographic order."""
    yield ()
    if slots:
        for p in range(2, min(limit, budget) + 1, 2):
            for rest in _even_parts(p, slots - 1, budget - p):
                yield (p,) + rest


def enum_even_bounded(max_part: int, max_len: int) -> list[Partition]:
    """All even-part partitions with largest part <= max_part, at most max_len parts."""
    if max_part % 2 != 0 or max_part < 0:
        raise ValueError("max_part must be even and nonnegative")
    if max_len < 0:
        raise ValueError("max_len must be nonnegative")
    return [Partition(p) for p in _even_parts(max_part, max_len, max_part * max_len)]


def enum_even_capped(max_part: int, weight_cap: int) -> list[Partition]:
    """All even-part partitions with largest part <= max_part and weight <= weight_cap.

    The length is unbounded; the weight cap is what keeps the set finite.
    """
    if max_part % 2 != 0 or max_part < 0:
        raise ValueError("max_part must be even and nonnegative")
    if weight_cap < 0:
        return []
    return [Partition(p) for p in _even_parts(max_part, weight_cap // 2, weight_cap)]
