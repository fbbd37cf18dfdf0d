"""Generic machinery for checking weight-preserving bijections on graded
families and the telescoping relation their index sum induces.

All checks are exhaustive over explicitly enumerated, weight-capped slices
and report their verdict as a Certificate (machine-readable, with a concrete
counterexample on failure), built by the one helper certify.  Nothing here
is probabilistic.  weight_of is the single notion of weight: an object's
signed monomial as the int key (sign, z_exp, q_exp).
macmahon.verify_macmahon runs telescoping_sum_check per index on counts
from macmahon._box_counts, one weight-only enumeration per leaf family,
the lower family a box's non-boundary leaves, each count packed into one
int (qalgebra.Kronecker), and then ties the enumerated totals to the
closed form.

Every map of both families is a table of rows (guard, shift) on packed
ints, read by the one dispatch first_match as a rule (shifts, read): x
goes to x + shifts[x & read], and rule_call makes it a call.  Every
family's membership is rows of the same guards, one per part, read by
first_match as a member: x is in the family where a guard passes
(passes), and NEVER is the guard of an empty part.  Each certificate is
checked once per class of the bits its checks read, in one kernel,
bijection_by_class, each walk of the domain with its rule, its
codomain's member and its class counts: the bijections of both families (MacMahon's steps
and cancelation, Andrews' phi) and the Andrews involution, whose rule is
its own inverse (andrews12._involution_by_class).  The set-based
check_graded_bijection, which holds both sides, stays as the oracle:
where the kernel fails, the certificate reruns it to name the
counterexample, so either path gives the same certificate.  The oracle
weighs each element with weight_of on its presented (decoded) form, so
it shares no field arithmetic with the kernels.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field, replace
from functools import reduce
from operator import or_
from typing import Any, Callable, Iterable, Mapping, Optional

from .partitions import Memo
from .qalgebra import LaurentPoly

REASON_NOT_IN_CODOMAIN = "not-in-codomain"
REASON_COLLISION = "collision"
REASON_WEIGHT_MISMATCH = "weight-mismatch"
REASON_NOT_SURJECTIVE = "not-surjective"

WeightKey = tuple[int, int, int]  # (sign, z_exp, q_exp), see weight_of
Rule = tuple[Mapping[int, int], int]  # (shifts, read): x goes to x + shifts[x & read]


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


NEVER = (0, 1)  # the guard no int passes: x & 0 is never 1


def first_match(rows: Iterable[tuple[tuple, Any]]) -> tuple[Memo, int]:
    """First-match dispatch on rows (guard, out): (memo, read), memo[x &
    read] the out of the first row whose guard x passes, KeyError where
    none: x passes (mask, value, *ranges) iff x & mask == value and lo <=
    x & m <= hi for each range (m, lo, hi).  read is the union of the
    guards' masks, so the memo keeps each x & read met."""
    rows = list(rows)

    def first(bits: int):
        for (mask, value, *ranges), out in rows:
            if bits & mask == value and all(lo <= bits & m <= hi for m, lo, hi in ranges):
                return out
        raise KeyError(bits)
    masks = (part for (mask, _, *ranges), _ in rows for part, *_ in ((mask,), *ranges))
    return Memo(first), reduce(or_, masks, 0)


def passes(rule: tuple[Mapping, int], x: int) -> bool:
    """Whether x passes a guard of the first-match rule (memo, read):
    memo[x & read] raises no KeyError."""
    memo, read = rule
    try:
        memo[x & read]
    except KeyError:
        return False
    return True


def rule_call(rule: Rule, refusal: Callable[[int], str]) -> Callable[[int], int]:
    """The rule (shifts, read) as a call, for the public maps and the
    oracles: x + shifts[x & read], ValueError(refusal(x)) where x passes
    none of its guards."""
    shifts, read = rule

    def step(x: int) -> int:
        try:
            return x + shifts[x & read]
        except KeyError:
            raise ValueError(refusal(x)) from None
    return step


def bijection_by_class(walks: Iterable[tuple[Rule, int, tuple[Mapping, int], Mapping[int, int]]],
                       back: Rule, key: Callable[[int], int], size: int) -> Optional[int]:
    """The domain's size where a map is a weight-preserving bijection of
    packed ints onto the codomain, checked once per class of the bits its
    checks read; None where any check fails.

    The domain comes as walks (rule, R, member, classes), classes[c] the
    number of the walk's elements x with x & R == c, and member the
    codomain's membership as a first-match rule (memo, read) of guards
    (first_match), which the images of the walk are tested against.  With
    (shifts, read) = rule, each class c goes to d = c + shifts[c & read],
    which must not be refused (KeyError), must not carry or borrow out of
    R (d & ~R == 0, which a negative d fails), must be a member: memo[d &
    read] raises no KeyError; the inverse must take d back to c: with
    (shifts, read) = back, d - shifts[d & read] == c; and d's weight key
    must be c's.  At the end the domain must be nonempty and of the
    codomain's counted `size`.

    That is exact where R is nonnegative, no element has a bit at or
    above R's top, R holds every bit below it that the rule, the inverse
    and the member read, and the bits R leaves out change any two keys
    alike: key(c | f) == key(d | f) exactly where key(c) == key(d) (they
    add to the weight, and flip the parity of Andrews' lam, the same in
    both).  Then each x of a class is c | f with f = x & ~R, which no
    check reads, so x goes to y = d | f, each check reads y as it reads d,
    and y has x's key where d has c's.  So each x goes into the codomain
    with its weight and back to x: the map is injective into the
    codomain, and a bijection where the sizes agree.  A wrong inverse can
    only fail a good map, and the oracle overrules that.
    """
    inverse, inverse_read = back
    count = 0
    try:
        for (shifts, read), reads, (member, member_read), classes in walks:
            for c, times in classes.items():
                d = c + shifts[c & read]
                member[d & member_read]
                if (d & ~reads or d - inverse[d & inverse_read] != c
                        or d != c and key(d) != key(c)):
                    return None
                count += times
    except KeyError:
        return None
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


def telescoping_sum_check(f_counts: Mapping[int, Any],
                          g_counts: Mapping[int, Any],
                          h_counts: Mapping[int, Any],
                          k_max: int,
                          k_min: int = 0,
                          check: str = "telescoping-sum",
                          params: Optional[Mapping] = None,
                          present: Callable[[Any], Any] = lambda x: x) -> Certificate:
    """Verify f(k) + h(k) = g(k) + h(k+1) for every index k_min..k_max,
    and the telescoping boundary conditions: h vanishes at k_min and at
    every k > k_max.

    The counts are weighted counts per index k (missing keys mean zero):
    LaurentPolys, or, where every index is present, any values that add,
    compare and are false at zero, such as packed ints (qalgebra.Kronecker).
    present turns a value into the polynomial a counterexample shows (for
    packed ints, their unpack).
    sum(f) = sum(g) follows and is not checked again: summing the
    per-index relation over k_min..k_max gives
    sum(f) + h(k_min) = sum(g) + h(k_max+1), and both h terms are zero.
    """
    started = time.monotonic()
    return certify(check, params or {}, started,
                   _telescoping_failure(f_counts, g_counts, h_counts,
                                        k_min, k_max, present),
                   domain_size=len(f_counts), codomain_size=len(g_counts))


def _telescoping_failure(f_counts, g_counts, h_counts, k_min, k_max, present):
    zero = LaurentPoly.zero()

    def at(counts, k):
        return counts.get(k, zero)

    if at(h_counts, k_min):
        return {"k": k_min}, str(present(at(h_counts, k_min))), "h-nonzero-at-start"
    for k in h_counts:
        if k > k_max and h_counts[k]:
            return {"k": k}, str(present(h_counts[k])), "h-nonzero-beyond-kmax"
    for k in range(k_min, k_max + 1):
        lhs = at(f_counts, k) + at(h_counts, k)
        rhs = at(g_counts, k) + at(h_counts, k + 1)
        if lhs != rhs:
            return ({"k": k}, {"lhs": str(present(lhs)), "rhs": str(present(rhs))},
                    "index-relation-violated")
    return None
