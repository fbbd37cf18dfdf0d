"""Partition-level enumerators of the even-part and the distinct-part
partitions, as plain recursions on part tuples, and the per-index
weighted-count DP.

The library walks partitions on their packed form (partitions.EvenField,
and andrews12._factors for both factors of an Andrews slice), so these
serve the tests only: the references that the packed enumerators, the
families built on them and the Gaussian coefficients are checked
against.  Each yields in lexicographic order of the part tuple.
F_trunc_per_k and F_trunc_carried are the two references that
andrews12.F_trunc's Horner form is checked against: a fresh histogram
per k, and one histogram carried across k.  coeffs reads a
truncated series as the dict the tests compare.
"""

from operator import add, sub
from typing import Iterator

from qtelescope.partitions import Partition
from qtelescope.qalgebra import TruncatedSeries


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


def F_trunc_per_k(n: int, cap: int) -> TruncatedSeries:
    """andrews12.F_trunc with a fresh histogram per k: coin-change steps over
    mu's even parts 2, ..., 2k, then signed subset-sum steps over lam's
    parts n-k+1, ..., n+k, added in at the staircase weight C(n-k,2)."""
    if n < 0 or cap < 0:
        raise ValueError("n and cap must be nonnegative")
    coeffs = [0] * (cap + 1)
    for k in range(n + 1):
        tau_weight = (n - k) * (n - k - 1) // 2
        if tau_weight > cap:
            continue
        hist = [1] + [0] * (cap - tau_weight)
        for part in range(2, 2 * k + 1, 2):
            for w in range(part, len(hist)):
                hist[w] += hist[w - part]
        for part in range(n - k + 1, n + k + 1):
            for w in range(len(hist) - 1, part - 1, -1):
                hist[w] -= hist[w - part]
        for w, count in enumerate(hist, tau_weight):
            coeffs[w] += count
    return TruncatedSeries(cap, dict(enumerate(coeffs)))


def F_trunc_carried(n: int, cap: int) -> TruncatedSeries:
    """andrews12.F_trunc with one histogram on [0, cap] carried across k.
    After index k it is the signed lam x mu count of P(n,k) without its
    staircase: lam gains the parts n-k+1 and n+k (subset-sum steps, slice
    ops reading the old values) and mu the part 2k (coin change,
    ascending); it is added in at C(n-k,2) if <= cap."""
    if n < 0 or cap < 0:
        raise ValueError("n and cap must be nonnegative")
    coeffs = [0] * (cap + 1)
    hist = [1] + [0] * cap
    for k in range(n + 1):
        if k:
            for part in (n - k + 1, n + k):
                hist[part:] = map(sub, hist[part:], hist[:-part])
            for w in range(2 * k, cap + 1):
                hist[w] += hist[w - 2 * k]
        tau = (n - k) * (n - k - 1) // 2
        if tau <= cap:
            coeffs[tau:] = map(add, coeffs[tau:], hist)
    return TruncatedSeries(cap, dict(enumerate(coeffs)))


def coeffs(series: TruncatedSeries) -> dict[int, int]:
    """The nonzero coefficients of a truncated series, by exponent."""
    return {q: c for _z, q, c in series.poly.terms()}
