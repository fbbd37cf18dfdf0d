"""Generic machinery for checking weight-preserving bijections on graded
families and the telescoping relation their index sum induces.

All checks are exhaustive over explicitly enumerated, weight-capped slices
and report their verdict as a Certificate (machine-readable, with a concrete
counterexample on failure), built by the one helper certify.  Nothing here
is probabilistic.  weight_of is the single notion of weight: an object's
signed monomial as the int key (sign, z_exp, q_exp); weighted_count sums a
family's keys into one LaurentPoly.  macmahon.verify_macmahon runs
telescoping_sum_check per index on counts from macmahon._box_counts: one
weight-only enumeration per box, the lower family its non-boundary leaves.

A bijection certificate of either family streams in one flat kernel,
stream_bijection: one pass over the packed domain's groups against the
map's inverse, taken inline as a table of shifts, a codomain table of
masks and the codomain's counted size, with each weight read one way off
the packed fields; only the map is called, and only counters are kept.
The involution certificate keeps its own kernel for its own laws
(andrews12._stream_involution).  The set-based check_graded_bijection,
which holds both sides, stays as the oracle: where a kernel fails, the
certificate reruns it to name the counterexample, so either path gives
the same certificate.  The oracle weighs each element with weight_of on
its presented (decoded) form, so it shares no field arithmetic with the
kernels.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Iterable, Mapping, Optional

from .qalgebra import LaurentPoly

REASON_NOT_IN_CODOMAIN = "not-in-codomain"
REASON_COLLISION = "collision"
REASON_WEIGHT_MISMATCH = "weight-mismatch"
REASON_NOT_SURJECTIVE = "not-surjective"

WeightKey = tuple[int, int, int]  # (sign, z_exp, q_exp), see weight_of


class IterationBudgetExceeded(RuntimeError):
    """The cancelation iteration did not land in the target set in time.

    Always indicates a defect in the supplied map (a cycle or an unbounded
    orbit), never a legitimate outcome.
    """

    @classmethod
    def no_landing(cls, max_iter: int, start) -> IterationBudgetExceeded:
        """The error of an orbit from `start` that did not land within
        max_iter applications."""
        return cls(f"no landing within {max_iter} applications starting "
                   f"from {start!r}")


@dataclass(frozen=True, slots=True)
class MarkedObject:
    """A combinatorial object carrying a formal weight marker.

    The marker contributes q^marker_q * z^marker_z to the weight and leaves
    the sign untouched; marker_q == 0 with marker_z == 0 would be the
    unmarked case, which is represented by the bare payload instead.
    """

    marker_q: int
    payload: Any
    marker_z: int = 0

    def __post_init__(self):
        if self.marker_q < 0:
            raise ValueError("marker weight must be nonnegative")

    def to_json_obj(self):
        return {"marker_q": self.marker_q, "marker_z": self.marker_z,
                "payload": _jsonable(self.payload)}


def weight_of(x) -> WeightKey:
    """The (sign, z_exp, q_exp) key of an object's signed weight monomial,
    in the argument order of LaurentPoly.monomial; a marker adds marker_z
    and marker_q to the exponents and no sign."""
    if isinstance(x, MarkedObject):
        sign, z, q = weight_of(x.payload)
        return sign, z + x.marker_z, q + x.marker_q
    return x.weight()


def weighted_count(objs: Iterable) -> LaurentPoly:
    """The sum of the weight monomials of objs, as one LaurentPoly."""
    terms: dict[tuple[int, int], int] = {}
    for sign, z, q in map(weight_of, objs):
        terms[z, q] = terms.get((z, q), 0) + sign
    return LaurentPoly(terms)


def _jsonable(obj):
    if hasattr(obj, "to_json_obj"):
        return obj.to_json_obj()
    if isinstance(obj, (list, tuple)):
        return [_jsonable(x) for x in obj]
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    return obj


@dataclass(frozen=True)
class Certificate:
    """Verdict of one exhaustive check over a capped slice.

    status is "verified" only if every sub-check passed on the full slice;
    otherwise it is "failed" and counterexample holds the offending object,
    its image (or the mismatching values), and a reason code.
    """

    check: str
    params: dict = field(default_factory=dict)
    cap: Optional[int] = None
    status: str = "verified"
    domain_size: int = 0
    codomain_size: int = 0
    counterexample: Optional[dict] = None
    elapsed_ms: int = 0

    @property
    def verified(self) -> bool:
        return self.status == "verified"

    def to_json_obj(self) -> dict:
        out = {
            "check": self.check,
            "params": _jsonable(self.params),
            "cap": self.cap,
            "status": self.status,
            "domain_size": self.domain_size,
            "codomain_size": self.codomain_size,
            "elapsed_ms": self.elapsed_ms,
        }
        if self.counterexample is not None:
            out["counterexample"] = _jsonable(self.counterexample)
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), sort_keys=True)

    def summary(self) -> str:
        flag = "ok " if self.verified else "FAIL"
        args = " ".join(f"{k}={v}" for k, v in self.params.items())
        line = f"[{flag}] {self.check} {args}".rstrip()
        if self.cap is not None:
            line += f" cap={self.cap}"
        if not self.verified and self.counterexample:
            line += f" reason={self.counterexample.get('reason')}"
        return line


def certify(check: str, params: Mapping, started: float,
            failure: Optional[tuple] = None, *, cap: Optional[int] = None,
            domain_size: int = 0, codomain_size: int = 0) -> Certificate:
    """Build the certificate of a check begun at time.monotonic() `started`.

    failure is None for a verified check, else the (element, image, reason)
    of its first counterexample.
    """
    cert = Certificate(check=check, params=dict(params), cap=cap,
                       domain_size=domain_size, codomain_size=codomain_size,
                       elapsed_ms=int((time.monotonic() - started) * 1000))
    if failure is None:
        return cert
    element, image, reason = failure
    return replace(cert, status="failed", counterexample={
        "element": element, "image": image, "reason": reason})


def check_graded_bijection(map_fn: Callable[[Any], Any],
                           domain: Iterable,
                           codomain: Iterable,
                           *,
                           cap: Optional[int] = None,
                           check: str = "graded-bijection",
                           params: Optional[Mapping] = None,
                           present: Callable[[Any], Any] = lambda x: x) -> Certificate:
    """Exhaustively verify that map_fn is a weight-preserving bijection.

    domain and codomain must be complete enumerations of the two sides up
    to the weight cap.  Verifies, in order: every image lies in the
    codomain, images are pairwise distinct, each image's signed weight
    equals its preimage's, and every codomain element is hit.  An empty
    domain would verify vacuously, so it raises ValueError.

    present turns an element into the object a counterexample shows (for
    an encoded family, its decoder), and weight_of weighs that presented
    form; of the codomain elements missed, the one reported is the least
    by the repr of its presented form.
    """
    started = time.monotonic()
    domain = list(domain)
    if not domain:
        raise ValueError(f"empty domain: {check} {dict(params or {})}")
    codomain = list(codomain)
    codomain_set = set(codomain)
    if len(codomain_set) != len(codomain):
        raise ValueError("codomain enumeration contains duplicates")
    return certify(check, params or {}, started,
                   _bijection_failure(map_fn, domain, codomain_set, present),
                   cap=cap, domain_size=len(domain),
                   codomain_size=len(codomain))


def stream_bijection(groups: Iterable[tuple[int, list[int]]],
                     step: Callable[[int], int], codomain: tuple, back: tuple,
                     reader: tuple, size: int) -> Optional[int]:
    """The domain's size where `step` is a weight-preserving bijection of
    packed ints onto the codomain, checked in one flat pass that holds no
    element; None where any check fails.

    The domain comes as nonempty groups (base, tails), its elements base +
    t for t in tails, in the oracle's order.  For each x, y = step(x) must
    pass the codomain test: with (table, index, length) = codomain and
    (forbidden, expected, limit) = table[y & index], y & forbidden ==
    expected and y & length <= limit.  The inverse must take y back to x: with (shifts,
    read) = back, y - shifts[y & read] == x.  A moved y must keep x's
    weight: with (below, head, at, mask, split, low, high, scale) =
    reader, the int key of v's signed weight is head[v & below] + (low[mu
    & mask] + high[mu >> split] << scale), mu = v >> at, and y's must be
    x's.  The elements of a group share their bits under `below`, so x's
    head is read once a group.  At the end the domain must be nonempty and
    of the codomain's counted `size`.

    That is sound for any inverse: an inverse that undoes the map on every
    element makes it injective, and an injective map into a finite set of
    its own size is a bijection.  A wrong inverse can only fail a good
    map, and the oracle overrules that.  Only `step` is called, on the
    elements in the oracle's order, so an exception it raises is the
    oracle's.
    """
    table, index, length = codomain
    shifts, read = back
    below, head, at, mask, split, low, high, scale = reader
    count = 0
    for base, tails in groups:
        x_head = head[base + tails[0] & below]
        for t in tails:
            x = base + t
            y = step(x)
            forbidden, expected, limit = table[y & index]
            if y & forbidden != expected or y & length > limit or y - shifts[y & read] != x:
                return None
            if y != x:
                y_mu, x_mu = y >> at, x >> at
                if (head[y & below] + (low[y_mu & mask] + high[y_mu >> split] << scale)
                        != x_head + (low[x_mu & mask] + high[x_mu >> split] << scale)):
                    return None
        count += len(tails)
    return count if count and count == size else None


def _bijection_failure(map_fn, domain, codomain_set, present):
    seen: dict[Any, Any] = {}
    for x in domain:
        y = map_fn(x)
        if y not in codomain_set:
            return present(x), present(y), REASON_NOT_IN_CODOMAIN
        if y in seen:
            return ({"first": present(seen[y]), "second": present(x)}, present(y),
                    REASON_COLLISION)
        seen[y] = x
        if weight_of(present(x)) != weight_of(present(y)):
            return present(x), present(y), REASON_WEIGHT_MISMATCH
    if len(seen) < len(codomain_set):
        missed = (present(y) for y in codomain_set if y not in seen)
        return None, min(missed, key=repr), REASON_NOT_SURJECTIVE
    return None


def telescoping_sum_check(f_counts: Mapping[int, LaurentPoly],
                          g_counts: Mapping[int, LaurentPoly],
                          h_counts: Mapping[int, LaurentPoly],
                          k_max: int,
                          k_min: int = 0,
                          check: str = "telescoping-sum",
                          params: Optional[Mapping] = None) -> Certificate:
    """Verify f(k) + h(k) = g(k) + h(k+1) for every index k_min..k_max,
    and the telescoping boundary conditions: h vanishes at k_min and at
    every k > k_max.

    The counts are weighted counts per index k (missing keys mean zero).
    sum(f) = sum(g) follows and is not checked again: summing the
    per-index relation over k_min..k_max gives
    sum(f) + h(k_min) = sum(g) + h(k_max+1), and both h terms are zero.
    """
    started = time.monotonic()
    return certify(check, params or {}, started,
                   _telescoping_failure(f_counts, g_counts, h_counts,
                                        k_min, k_max),
                   domain_size=len(f_counts), codomain_size=len(g_counts))


def _telescoping_failure(f_counts, g_counts, h_counts, k_min, k_max):
    zero = LaurentPoly.zero()

    def at(counts, k):
        return counts.get(k, zero)

    if not at(h_counts, k_min).is_zero():
        return {"k": k_min}, str(at(h_counts, k_min)), "h-nonzero-at-start"
    for k in h_counts:
        if k > k_max and not h_counts[k].is_zero():
            return {"k": k}, str(h_counts[k]), "h-nonzero-beyond-kmax"
    for k in range(k_min, k_max + 1):
        lhs = at(f_counts, k) + at(h_counts, k)
        rhs = at(g_counts, k) + at(h_counts, k + 1)
        if lhs != rhs:
            return ({"k": k}, {"lhs": str(lhs), "rhs": str(rhs)},
                    "index-relation-violated")
    return None
