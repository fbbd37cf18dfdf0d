"""Row and part edits on Partitions, as free functions.

The library's maps edit partitions on their packed forms, so these edits
serve the tests only: the Triple- and MacPair-level oracles that state
each map case by case, and the faults of the negative controls.
"""

from qtelescope.partitions import Partition


def drop_first(p: Partition) -> Partition:
    """Remove the first (largest) row; on the empty partition this is a no-op."""
    return Partition(p.parts[1:])


def drop_first_rows(p: Partition, count: int) -> Partition:
    if count > p.length:
        raise ValueError(f"cannot drop {count} rows from {p.parts}")
    return Partition(p.parts[count:])


def with_part(p: Partition, value: int) -> Partition:
    """Insert a part, keeping the tuple nonincreasing."""
    if value < 0:
        raise ValueError("parts must be nonnegative")
    out = list(p.parts)
    i = 0
    while i < len(out) and out[i] >= value:
        i += 1
    out.insert(i, value)
    return Partition(tuple(out))


def without_part(p: Partition, value: int) -> Partition:
    """Remove one copy of a part; raises if absent."""
    out = list(p.parts)
    out.remove(value)
    return Partition(tuple(out))


def replace_part(p: Partition, old: int, new: int) -> Partition:
    """Remove one copy of `old` and insert `new`."""
    return with_part(without_part(p, old), new)
