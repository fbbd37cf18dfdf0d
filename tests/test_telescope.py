"""The generic checkers (graded bijection, the class kernel, telescoping
sum), the element kernel of tests/reference_kernels.py and the
cancelation walk of tests/reference_cancelation.py.

Positive cases use tiny synthetic families; every failure reason has a
negative control that must produce a failure certificate with a concrete
counterexample.
"""

import json
from dataclasses import dataclass

import pytest

from qtelescope.macmahon import phi_telescoping_counts, psi_telescoping_counts
from qtelescope.partitions import Memo
from qtelescope.qalgebra import LaurentPoly
from qtelescope.telescope import (Certificate, IterationBudgetExceeded,
                                  MarkedObject, bijection_by_class, check_graded_bijection,
                                  first_match, rule_call, telescoping_sum_check, weight_of)

from reference_cancelation import cancelation_psi
from reference_kernels import stream_bijection
from reference_sums import weighted_count


@dataclass(frozen=True)
class Named:
    """An element shown by its name, weighed by its weight key."""

    name: str
    key: tuple

    def weight(self):
        return self.key

    def to_json_obj(self):
        return self.name


def by_table(table):
    """present for elements named in `table`: each as its Named object."""
    return lambda x: Named(x, table[x])


# check_graded_bijection -----------------------------------------------------

def test_identity_map_verifies():
    family = ["a", "b", "c"]
    weights = {"a": (1, 0, 0), "b": (1, 0, 1), "c": (-1, 1, 2)}
    cert = check_graded_bijection(lambda x: x, family, family, cap=5,
                                  present=by_table(weights))
    assert cert.verified
    assert cert.domain_size == 3 and cert.codomain_size == 3


def test_collision_is_reported():
    weights = {"a": (1, 0, 0), "b": (1, 0, 0), "x": (1, 0, 0), "y": (1, 0, 0)}
    cert = check_graded_bijection(lambda _: "x", ["a", "b"], ["x", "y"],
                                  present=by_table(weights))
    assert not cert.verified
    assert cert.counterexample["reason"] == "collision"
    assert cert.counterexample["image"] == Named("x", (1, 0, 0))


def test_image_outside_codomain_is_reported():
    weights = {"a": (1, 0, 0), "x": (1, 0, 0), "z": (1, 0, 0)}
    cert = check_graded_bijection(lambda _: "z", ["a"], ["x"],
                                  present=by_table(weights))
    assert not cert.verified
    assert cert.counterexample["reason"] == "not-in-codomain"


def test_weight_mismatch_is_reported():
    weights = {"a": (1, 0, 1), "x": (1, 0, 2)}
    cert = check_graded_bijection(lambda _: "x", ["a"], ["x"],
                                  present=by_table(weights))
    assert not cert.verified
    assert cert.counterexample["reason"] == "weight-mismatch"


def test_sign_flip_counts_as_weight_mismatch():
    weights = {"a": (1, 0, 1), "x": (-1, 0, 1)}
    cert = check_graded_bijection(lambda _: "x", ["a"], ["x"],
                                  present=by_table(weights))
    assert not cert.verified
    assert cert.counterexample["reason"] == "weight-mismatch"


def test_missed_codomain_element_is_reported():
    weights = {"a": (1, 0, 0), "x": (1, 0, 0), "y": (1, 0, 0)}
    cert = check_graded_bijection(lambda _: "x", ["a"], ["x", "y"],
                                  present=by_table(weights))
    assert not cert.verified
    assert cert.counterexample["reason"] == "not-surjective"
    assert cert.counterexample["image"] == Named("y", (1, 0, 0))


def test_duplicate_codomain_enumeration_is_rejected():
    weights = {"a": (1, 0, 0), "x": (1, 0, 0)}
    with pytest.raises(ValueError):
        check_graded_bijection(lambda _: "x", ["a"], ["x", "x"],
                               present=by_table(weights))


def test_empty_domain_is_rejected():
    with pytest.raises(ValueError, match="empty domain"):
        check_graded_bijection(lambda x: x, [], [], present=by_table({}))


# stream_bijection, the element kernel kept as the class kernel's reference,
# on a toy family of ints -------------------------------------------------------
#
# The domain is x = a << 4 | 1 and the codomain y = a << 4 | 2 for a in
# 0..7: a 4-bit tag below a.  The true map adds 1; a map is handed over
# in rule form keyed on x itself (read -1).  The weight key is a // 2, so
# a = 0, 1 share one weight.  The inverse is keyed on y itself too, so a
# test can name any preimage.

TOY_DOMAIN = [a << 4 | 1 for a in range(8)]


def toy_stream(step=lambda x: x + 1, preimages=None, size=8, groups=None):
    member = first_match([((~(7 << 4), 2), "tag 2, a <= 7")])
    if preimages is None:
        preimages = {x + 1: x for x in TOY_DOMAIN}
    shifts = {y: y - x for y, x in preimages.items()}
    # key: head 0, plus low[a & 1] + high[a >> 1] = a // 2, at scale 0
    reader = (15, Memo(lambda bits: 0), 4, 1, 1, Memo(lambda low: 0), Memo(lambda high: high), 0)
    if groups is None:
        groups = [(1, [0, 16, 32, 48]), (65, [0, 16, 32, 48])]
    rule = Memo(lambda x: step(x) - x), -1
    return stream_bijection([(rule, groups)], member, (shifts, -1), reader, size)


def test_stream_bijection_verifies_a_weight_preserving_bijection():
    assert toy_stream() == 8


def test_stream_bijection_refuses_an_image_outside_the_codomain():
    assert toy_stream(step=lambda x: x + 2 if x == 17 else x + 1) is None


def test_stream_bijection_refuses_a_wrong_preimage():
    # a = 0 and a = 1 share a weight, so only the inverse can see it
    assert toy_stream(preimages={2: 17, 18: 1, **{x + 1: x for x in TOY_DOMAIN[2:]}}) is None


def swapped_stream(a, b):
    """toy_stream where the elements a and b swap images, and the inverse
    swaps to match."""
    x, y = a << 4 | 1, b << 4 | 1
    swapped = {x: y + 1, y: x + 1}
    preimages = {image: element for element, image in swapped.items()}
    preimages.update((z + 1, z) for z in TOY_DOMAIN if z not in swapped)
    return toy_stream(step=lambda z: swapped.get(z, z + 1), preimages=preimages)


def test_stream_bijection_refuses_a_changed_weight():
    # a = 0 and a = 2 differ in weight: only the weight check can see the
    # swap, as the same swap of a = 0 and a = 1, of one weight, verifies
    assert swapped_stream(0, 2) is None
    assert swapped_stream(0, 1) == 8


def test_stream_bijection_refuses_a_size_off_by_one():
    assert toy_stream(size=7) is None
    assert toy_stream(size=9) is None


def test_stream_bijection_refuses_an_empty_domain():
    assert toy_stream(groups=[], size=0) is None


def test_stream_bijection_refuses_an_element_its_rule_refuses():
    def refusing(x):
        if x == 33:
            raise KeyError(x)
        return x + 1

    assert toy_stream(step=refusing) is None


# bijection_by_class on the toy family ------------------------------------------
#
# R is the tag and the low bit of a, which the weight key a // 2 does not
# read: the classes are a's parity, four elements each, and the bits of a
# above it, free in the member's guards, add the same to the key of an
# element and of its image.  The inverse takes the rule's shift back.

TOY_MASKS = [(~(6 << 4 | 3), parity) for parity in (0, 16)]  # a's parity, tag bits 2, 3 clear


def toy_by_class(shift=1, size=8, key=lambda v: v >> 5):
    classes = {1: 4, 17: 4}  # x & 31 of the toy domain: a even, a odd
    # the codomain: TOY_MASKS, and the tag's low two bits, a range, at most
    # 2; the images are tag 2
    member = first_match(((*masks, (3, 0, 2)), masks[1]) for masks in TOY_MASKS)
    return bijection_by_class([((Memo(lambda c: shift), -1), 31, member, classes)],
                              (Memo(lambda y: shift), -1), key, size)


def test_bijection_by_class_verifies_a_weight_preserving_bijection():
    assert toy_by_class() == 8


def test_bijection_by_class_refuses_a_carry_out_of_R():
    # a even goes to tag 2 with a odd, and back; a odd carries into a's
    # bits above R, which the member leaves free.  With every element of
    # one weight, that is the one check it fails.
    assert toy_by_class(shift=17, key=lambda v: 0) is None


def test_bijection_by_class_refuses_an_image_its_member_does_not_hold():
    # tag 6 sets a bit the guards forbid: a KeyError, not a verdict
    assert toy_by_class(shift=5) is None


def test_bijection_by_class_refuses_an_image_over_its_guard_s_limit():
    # tag 3 passes each guard's mask and value, but its low bits are over
    # the range's limit 2; the inverse takes it back and the weight is kept
    masks_alone, read = first_match((masks, masks[1]) for masks in TOY_MASKS)
    assert [masks_alone[d & read] for d in (3, 19)] == [0, 16]
    assert toy_by_class(shift=2) is None


def test_bijection_by_class_refuses_a_size_off_by_one():
    assert toy_by_class(size=7) is None
    assert toy_by_class(size=9) is None


# the one first-match dispatch and the call form of a rule -----------------------

# x = a << 4 | tag: tag 1 with a <= 3 moves up by 16, any other tag 1 stays
TOY_RULE = first_match([((15, 1, (-16, 0, 3 << 4)), 16), ((15, 1), 0)])


def test_first_match_reads_each_guard_as_a_conjunction():
    shifts, read = TOY_RULE
    assert read == 15 | -16
    assert [shifts[a << 4 | 1 & read] for a in range(6)] == [16, 16, 16, 16, 0, 0]
    with pytest.raises(KeyError):
        shifts[2 & read]


def test_rule_call_refuses_with_its_text():
    step = rule_call(TOY_RULE, lambda x: f"no rule for {x}")
    assert step(1) == 17 and step(65) == 65
    with pytest.raises(ValueError, match="^no rule for 2$"):
        step(2)


# weight keys ------------------------------------------------------------------

@dataclass(frozen=True)
class Signed:
    key: tuple

    def weight(self):
        return self.key


def test_marker_adds_exponents_and_keeps_sign():
    x = Signed((-1, 2, 5))
    assert weight_of(x) == (-1, 2, 5)
    for marker_z in (1, -1):
        marked = MarkedObject(3, x, marker_z=marker_z)
        assert weight_of(marked) == (-1, 2 + marker_z, 8)
        # the key is the monomial z^marker_z q^3 times the payload's
        assert (LaurentPoly.monomial(*weight_of(marked))
                == LaurentPoly.monomial(1, marker_z, 3)
                * LaurentPoly.monomial(*weight_of(x)))


def test_weighted_count_drops_cancelled_terms():
    family = [Signed((1, 0, 1)), Signed((-1, 0, 1)), Signed((1, 1, 0)),
              MarkedObject(1, Signed((-1, 1, 0)), marker_z=-1)]
    assert weighted_count(family) == LaurentPoly.monomial(1, 1, 0) \
        - LaurentPoly.monomial(1, 0, 1)
    assert weighted_count([]) == LaurentPoly.zero()


def test_the_bijection_check_weighs_presented_elements():
    # The elements are ints, which have no weight of their own: present
    # gives each its Signed object, and weight_of weighs that.  0 and 2 present with one weight, 1 with another.
    keys = {0: (1, 0, 1), 1: (1, 0, 2), 2: (1, 0, 1)}

    def present(x):
        return Signed(keys[x])

    cert = check_graded_bijection(lambda x: x + 1, [0], [1], present=present)
    assert cert.counterexample == {"element": Signed((1, 0, 1)),
                                   "image": Signed((1, 0, 2)),
                                   "reason": "weight-mismatch"}
    cert = check_graded_bijection(lambda x: x + 2, [0], [2], present=present)
    assert cert.verified


# telescoping_sum_check --------------------------------------------------------

def one(q=0, z=0, c=1):
    return LaurentPoly.monomial(c, z, q)


def test_f_equals_g_with_zero_h():
    f = {k: one(q=k) for k in range(4)}
    cert = telescoping_sum_check(f, dict(f), {}, k_max=3)
    assert cert.verified


def test_genuine_telescoping_instance():
    # f(k) = g(k) + h(k+1) - h(k) with h supported on 1..3
    h = {0: LaurentPoly.zero(), 1: one(q=1), 2: one(q=2), 3: one(q=3),
         4: LaurentPoly.zero()}
    g = {k: one(q=2 * k, c=2) for k in range(4)}
    f = {k: g[k] + h.get(k + 1, LaurentPoly.zero()) - h[k] for k in range(4)}
    cert = telescoping_sum_check(f, g, h, k_max=3)
    assert cert.verified


def test_perturbed_coefficient_fails_with_index():
    h = {1: one(q=1)}
    g = {0: one(q=0), 1: one(q=5)}
    f = {0: g[0] + one(q=1), 1: g[1] - one(q=1)}
    assert telescoping_sum_check(f, g, h, k_max=1).verified
    g_bad = dict(g)
    g_bad[1] = g[1] + one(q=9)
    cert = telescoping_sum_check(f, g_bad, h, k_max=1)
    assert not cert.verified
    assert cert.counterexample["reason"] == "index-relation-violated"
    assert cert.counterexample["element"] == {"k": 1}


def test_nonzero_h_at_start_fails():
    cert = telescoping_sum_check({0: one()}, {0: one()}, {0: one(q=2)}, k_max=0)
    assert not cert.verified
    assert cert.counterexample["reason"] == "h-nonzero-at-start"


def test_nonzero_h_beyond_kmax_fails():
    cert = telescoping_sum_check({0: one()}, {0: one()}, {5: one(q=2)}, k_max=2)
    assert not cert.verified
    assert cert.counterexample["reason"] == "h-nonzero-beyond-kmax"


def test_negative_k_min_is_supported():
    f = {k: one(q=abs(k)) for k in range(-2, 3)}
    cert = telescoping_sum_check(f, dict(f), {}, k_max=2, k_min=-2)
    assert cert.verified


@pytest.mark.parametrize("counts", [
    lambda: phi_telescoping_counts(2, 2), lambda: phi_telescoping_counts(3, 1),
    lambda: psi_telescoping_counts(3)], ids=["phi-2-2", "phi-3-1", "psi-3"])
def test_every_single_bump_fails_a_per_index_or_boundary_check(counts):
    # The sum check is implied by these, so each one-coefficient fault in
    # real counts must be caught by one of them: a bump of f(k) or g(k)
    # breaks the relation at k, one of h(k) inside the range the relation
    # at k - 1, and one of h at either end its boundary condition.
    f, g, h, k_min, k_max = counts()
    assert telescoping_sum_check(f, g, h, k_max=k_max, k_min=k_min).verified
    bumps = [(side, k) for side in (0, 1) for k in range(k_min, k_max + 1)]
    bumps += [(2, k) for k in range(k_min, k_max + 2)]
    for side, k in bumps:
        sides = [dict(f), dict(g), dict(h)]
        sides[side][k] = sides[side].get(k, LaurentPoly.zero()) + one()
        cert = telescoping_sum_check(*sides, k_max=k_max, k_min=k_min)
        if side == 2 and k == k_min:
            reason, at = "h-nonzero-at-start", k
        elif side == 2 and k == k_max + 1:
            reason, at = "h-nonzero-beyond-kmax", k
        else:
            reason, at = "index-relation-violated", k - (side == 2)
        assert cert.counterexample["reason"] == reason
        assert cert.counterexample["element"] == {"k": at}


# cancelation ---------------------------------------------------------------------

def test_immediate_landing_takes_one_step():
    steps = []

    def phi(x):
        steps.append(x)
        return x + 1

    assert cancelation_psi(phi, 0, lambda v: v >= 1, max_iter=10) == 1
    assert len(steps) == 1


def test_three_step_chain():
    # 0 -> h1 -> h2 -> b: lands after exactly three applications
    table = {0: "h1", "h1": "h2", "h2": "b"}
    calls = []

    def phi(x):
        calls.append(x)
        return table[x]

    assert cancelation_psi(phi, 0, lambda v: v == "b", max_iter=10) == "b"
    assert calls == [0, "h1", "h2"]


def test_two_cycle_exhausts_budget():
    table = {0: "h1", "h1": "h2", "h2": "h1"}
    with pytest.raises(IterationBudgetExceeded):
        cancelation_psi(lambda x: table[x], 0, lambda v: v == "b", max_iter=50)


def test_budget_must_be_positive():
    with pytest.raises(ValueError):
        cancelation_psi(lambda x: x, 0, lambda v: True, max_iter=0)


# certificates ---------------------------------------------------------------------

def test_certificate_json_schema():
    cert = check_graded_bijection(lambda x: x, ["a"], ["a"], cap=7, check="demo",
                                  params={"n": 1}, present=by_table({"a": (1, 0, 0)}))
    obj = json.loads(cert.to_json())
    assert set(obj) == {"check", "params", "cap", "status", "domain_size",
                        "codomain_size", "elapsed_ms"}
    assert obj["check"] == "demo" and obj["cap"] == 7
    assert obj["status"] == "verified"


def test_failure_certificate_carries_counterexample():
    weights = {"a": (1, 0, 1), "x": (1, 0, 2)}
    cert = check_graded_bijection(lambda _: "x", ["a"], ["x"],
                                  present=by_table(weights))
    obj = json.loads(cert.to_json())
    assert obj["status"] == "failed"
    assert set(obj["counterexample"]) == {"element", "image", "reason"}


def test_marked_object_rejects_negative_marker():
    with pytest.raises(ValueError):
        MarkedObject(-1, "payload")


def test_summary_lines():
    good = Certificate(check="demo", params={"n": 2})
    assert good.summary() == "[ok ] demo n=2"
    bad = Certificate(check="demo", params={"n": 2}, status="failed",
                      counterexample={"reason": "collision"})
    assert bad.summary().startswith("[FAIL] demo n=2")
    assert "collision" in bad.summary()
