"""The streaming certificates against their set-based oracles.

Every bijection-side certificate checks its slice in one kernel that
keeps only counters, once per class of the bits its checks read,
telescope.bijection_by_class: MacMahon's with each walk of the domain
and its map's rule, and Andrews' through andrews12._phi_by_class and
_involution_by_class, whose rule is its own inverse; where the kernel
fails, the certificate reruns the set-based checker
(telescope.check_graded_bijection, or andrews12._involution_failure for
the involution), which names the counterexample.  These tests hold the
two paths together: a verified
certificate never reaches the oracle, each certificate is the one the
oracle alone would give, a fault that only the weight or sign shows
fails each kernel, each inverse is two-sided, exceptions are the
oracle's, the cancelation's composed rules and its walk per element
give what the tagged walk gives, the step rule gives what membership
and boundary closures composed give, a rule fault fails instead of
hanging or raising, and a large slice stays small in memory.
"""

import json
import os
import subprocess
import sys
import textwrap
from itertools import chain
from pathlib import Path

import pytest

from qtelescope import andrews12, macmahon
from qtelescope.telescope import NEVER, passes, weight_of

import test_andrews12 as andrews_tests
from bare_failure_path import as_rule, faulty, in_rule_form, stepping, toggles_two
import test_macmahon as macmahon_tests
from reference_cancelation import cancelation_psi

SRC = str(Path(__file__).resolve().parent.parent / "src")


def without_timing(cert):
    row = cert.to_json_obj()
    del row["elapsed_ms"]
    return row


def refuse_oracle(monkeypatch):
    """Make the oracles raise: a certificate that reaches one fails."""
    def refuse(*args, **kwargs):
        raise AssertionError("the oracle ran")

    for module in (macmahon, andrews12):
        monkeypatch.setattr(module, "check_graded_bijection", refuse)
    monkeypatch.setattr(andrews12, "_involution_failure", refuse)


# every kernel, by the module that calls it; each returns None where a
# check fails
KERNELS = {macmahon: ("bijection_by_class",),
           andrews12: ("_phi_by_class", "_involution_by_class")}


def force_oracle(monkeypatch):
    """Switch the class kernels off: every certificate is the oracle's."""
    for module, names in KERNELS.items():
        for name in names:
            monkeypatch.setattr(module, name, lambda *a, **k: None)


def both_paths(monkeypatch, certificate):
    """(the class kernel's certificate, the oracle's), timing left out."""
    streamed = without_timing(certificate())
    with monkeypatch.context() as patch:
        force_oracle(patch)
        return streamed, without_timing(certificate())


def andrews_certificate(n, k, cap):
    name = andrews12.lowering_map(n, k)
    return (andrews12.phi_certificate if name == "phi"
            else andrews12.involution_certificate)(n, k, cap)


GRID = ([("macmahon-phi", n, m, k) for n in range(4) for m in range(1, 4)
         for k in range(-m, n + 1)]
        + [("macmahon-psi", n, k) for n in range(1, 6) for k in range(n + 1)]
        + [("macmahon-cancelation", n, m) for n in range(4) for m in range(1, 4)]
        + [("andrews", n, k, cap) for n in range(2, 7) for k in range(n + 1)
           for cap in (n * n, 30)])


def certificate_of(row):
    kind, *args = row
    return {"macmahon-phi": macmahon.phi_certificate,
            "macmahon-psi": macmahon.psi_certificate,
            "macmahon-cancelation": macmahon.cancelation_certificate,
            "andrews": andrews_certificate}[kind](*args)


def test_certificates_verify_on_the_streaming_path_alone(monkeypatch):
    with monkeypatch.context() as patch:
        refuse_oracle(patch)
        streamed = [without_timing(certificate_of(row)) for row in GRID]
    assert all(row["status"] == "verified" for row in streamed)
    with monkeypatch.context() as patch:
        force_oracle(patch)
        assert [without_timing(certificate_of(row)) for row in GRID] == streamed


def test_golden_involution_control_is_the_oracles(monkeypatch):
    from test_golden import _involution_control

    streamed, oracle = both_paths(monkeypatch, _involution_control)
    assert streamed == oracle
    assert streamed["status"] == "failed"


# each fault of the mutation tables gives the oracle's certificate -------------

@pytest.mark.parametrize("name, case, n, k, cap, fault, reason, where",
                         andrews_tests.MUTATIONS,
                         ids=[f"{m[0]}-{m[1]}" for m in andrews_tests.MUTATIONS])
def test_each_andrews_fault_gives_the_oracles_certificate(monkeypatch, name, case, n, k,
                                                          cap, fault, reason, where):
    body = {"phi": "_phi_rule", "involution": "_involution_rule"}[name]
    case_of = {"phi": andrews_tests.phi_case,
               "involution": andrews_tests.involution_case}[name]

    def broken(nn, kk, x, y):
        return fault(nn, kk, x, y) if case_of(nn, kk, x) == case else y

    monkeypatch.setattr(andrews12, body,
                        andrews_tests.faulty_rule(getattr(andrews12, body), broken))
    streamed, oracle = both_paths(monkeypatch, lambda: andrews_certificate(n, k, cap))
    assert streamed == oracle
    assert streamed["counterexample"]["reason"] == reason


@pytest.mark.parametrize("step, case, fault, reason, where",
                         macmahon_tests.STEP_MUTATIONS,
                         ids=[f"{m[0]}-{m[1]}" for m in macmahon_tests.STEP_MUTATIONS])
def test_each_step_fault_gives_the_oracles_certificate(monkeypatch, step, case, fault,
                                                       reason, where):
    index, certificate, case_of, _domain, marker = macmahon_tests.STEPS[step]

    def broken(x, y):
        return fault(x, y, marker) if case_of(*index, x) == case else y

    monkeypatch.setattr(macmahon, "_index_rule",
                        macmahon_tests.faulty_rule(macmahon._index_rule, broken))
    streamed, oracle = both_paths(monkeypatch, lambda: certificate(*index))
    assert streamed == oracle
    assert streamed["counterexample"]["reason"] == reason


# weight-only faults: each kernel's weight and sign check, which the kernels
# read through macmahon._key or andrews12._key ---------------------------------

def kernel_results(monkeypatch, module, name):
    """Spy on a kernel: the list of what it returned, one entry a call."""
    results, kernel = [], getattr(module, name)

    def spy(*args):
        results.append(kernel(*args))
        return results[-1]

    monkeypatch.setattr(module, name, spy)
    return results


def rewired(true_rule, images):
    """An Andrews rule factory like true_rule whose rule sends x to
    images[x] where images has it, in the rule's form (shifts, read)."""
    def factory(*args):
        step = stepping(true_rule(*args))
        return as_rule(lambda x: images[x] if x in images else step(x))
    return factory


def rewired_back(true_back, preimages):
    """A factory of phi's inverse shifts (shifts, read) like
    andrews12._phi_back whose inverse sends y to preimages[y] where
    preimages has it: its read is every bit, so it is keyed on y itself."""
    def factory(*args):
        back, read = true_back(*args)

        class Rewired(dict):
            def __missing__(self, y):
                return y - preimages[y] if y in preimages else back[y & read]
        return Rewired(), -1
    return factory


def pick(elements, related):
    """The first pair (a, b) of elements, in their order, with related(a, b)."""
    return next((a, b) for a in elements for b in elements if related(a, b))


def decoded_weight(lay):
    """weight_of on the decoded form of a packed Andrews element."""
    decode = andrews12._decoder(lay)
    return lambda x: weight_of(decode(x))


def q_only(w, v):
    return w[0] == v[0] and w[2] != v[2]


def sign_only(w, v):
    return w[0] != v[0] and w[2] == v[2]


@pytest.mark.parametrize("differs", [q_only, sign_only], ids=["q", "sign"])
def test_an_andrews_phi_weight_fault_fails_the_kernel(monkeypatch, differs):
    # Two elements that differ in q alone, or in sign alone, swap images,
    # and the inverse swaps to match: every image stays in the codomain
    # and goes back to its element, so only the weight check can see it.
    n, k, cap = 5, 2, 30
    lay = andrews12._layout(n, cap)
    step, weight = andrews12._step("phi", n, k, lay), decoded_weight(lay)
    domain = list(andrews12._enum_packed(andrews12._domain(n, k), cap, lay))
    moved = [x for x in domain if step(x) != x]
    a, b = pick(moved, lambda a, b: differs(weight(a), weight(b)))
    monkeypatch.setattr(andrews12, "_phi_rule", rewired(
        andrews12._phi_rule, {a: step(b), b: step(a)}))
    monkeypatch.setattr(andrews12, "_phi_back", rewired_back(
        andrews12._phi_back, {step(b): a, step(a): b}))
    results = kernel_results(monkeypatch, andrews12, "_phi_by_class")
    streamed, oracle = both_paths(monkeypatch, lambda: andrews_certificate(n, k, cap))
    assert results == [None]
    assert streamed == oracle
    assert streamed["counterexample"]["reason"] == "weight-mismatch"


@pytest.mark.parametrize("differs, reason", [(q_only, "weight-mismatch"),
                                             (sign_only, "sign-not-reversed")],
                         ids=["q", "sign"])
def test_an_involution_weight_fault_fails_the_kernel(monkeypatch, differs, reason):
    # Two pairs {a, a'} and {c, c'} rewire to {a, c'} and {c, a'}, where a
    # and c differ in q alone (the new pairs keep opposite signs) or in
    # sign alone (the new pairs keep their weight): the rule stays an
    # involution on the slice with the same fixed set.
    n, k, cap = 4, 4, 30
    lay = andrews12._layout(n, cap)
    step, weight = andrews12._step("involution", n, k, lay), decoded_weight(lay)
    slice_ = list(andrews12._enum_packed(andrews12._domain(n, k), cap, lay))
    moved = [x for x in slice_ if step(x) != x]
    a, c = pick(moved, lambda a, c: differs(weight(a), weight(c)) and c != step(a))
    monkeypatch.setattr(andrews12, "_involution_rule", rewired(
        andrews12._involution_rule,
        {a: step(c), step(c): a, c: step(a), step(a): c}))
    results = kernel_results(monkeypatch, andrews12, "_involution_by_class")
    streamed, oracle = both_paths(monkeypatch, lambda: andrews_certificate(n, k, cap))
    assert results == [None]
    assert streamed == oracle
    assert streamed["counterexample"]["reason"] == reason


def test_an_involution_fault_at_falling_elements_fails_the_kernel(monkeypatch):
    # Two falling elements of one weight swap images: every image keeps
    # its weight and sign and stays in the domain, and only the
    # involution law, the kernel's inverse check with the rule as its own
    # inverse, sees that the rule no longer takes their images back.
    n, k, cap = 4, 4, 30
    lay = andrews12._layout(n, cap)
    step, weight = andrews12._step("involution", n, k, lay), decoded_weight(lay)
    slice_ = list(andrews12._enum_packed(andrews12._domain(n, k), cap, lay))
    falling = [x for x in slice_ if step(x) < x]
    a, b = pick(falling, lambda a, b: a != b and weight(a) == weight(b))
    monkeypatch.setattr(andrews12, "_involution_rule", rewired(
        andrews12._involution_rule, {a: step(b), b: step(a)}))
    results = kernel_results(monkeypatch, andrews12, "_involution_by_class")
    streamed, oracle = both_paths(monkeypatch, lambda: andrews_certificate(n, k, cap))
    assert results == [None]
    assert streamed == oracle
    assert streamed["counterexample"]["reason"] == "not-involutive"


def test_an_involution_fault_moving_embedded_points_fails_the_kernel(monkeypatch):
    # Embedded fixed points toggle the part 2 between lam and mu: the rule
    # stays an involution on the slice, and each moved pair keeps its
    # weight, flips its sign and stays in the domain.  The kernel's laws
    # hold; what fails it is that the moved classes pass the embedded
    # masks, and the fixed count falls short of the embedded count.
    n, k, cap = 3, 2, 20
    monkeypatch.setattr(andrews12, "_involution_rule",
                        in_rule_form(faulty(toggles_two))(andrews12._involution_rule))
    results = kernel_results(monkeypatch, andrews12, "_involution_by_class")
    streamed, oracle = both_paths(monkeypatch, lambda: andrews_certificate(n, k, cap))
    assert results == [None]
    assert streamed == oracle
    assert streamed["counterexample"]["reason"] == "fixed-set-mismatch"


def test_an_involution_fault_fixing_a_moving_pair_fails_the_kernel(monkeypatch):
    # The first rising element and its image both become fixed: the rule
    # stays an involution on the slice, and the kernel's laws hold, but it
    # fixes two points outside P(n-1,k-1).  The fixed classes' test
    # against the embedded masks is what fails it.
    n, k, cap = 4, 4, 30
    lay = andrews12._layout(n, cap)
    step = andrews12._step("involution", n, k, lay)
    slice_ = list(andrews12._enum_packed(andrews12._domain(n, k), cap, lay))
    a = next(x for x in slice_ if step(x) > x)
    monkeypatch.setattr(andrews12, "_involution_rule", rewired(
        andrews12._involution_rule, {a: a, step(a): step(a)}))
    results = kernel_results(monkeypatch, andrews12, "_involution_by_class")
    streamed, oracle = both_paths(monkeypatch, lambda: andrews_certificate(n, k, cap))
    assert results == [None]
    assert streamed == oracle
    assert streamed["counterexample"]["reason"] == "fixed-set-mismatch"


@pytest.mark.parametrize("part", ["q", "z"])
@pytest.mark.parametrize("certificate, index, index_of", [
    (macmahon.phi_certificate, (3, 2, 1), "_phi_index"),
    (macmahon.psi_certificate, (4, 2), "_psi_index"),
    (macmahon.cancelation_certificate, (2, 2), "_phi_index"),
], ids=["phi", "psi", "cancelation"])
def test_a_macmahon_marker_fault_fails_the_kernel(monkeypatch, certificate, index,
                                                  index_of, part):
    # The kernel's inverse is inline, a marked image less its shift, so no
    # two images can swap and still go back.  A marker off by q^2 (or by
    # z) is the weight-only fault: the rule, the masks and the shift, so
    # membership and invertibility, are the true ones, and only the marked
    # images' weights are wrong.
    true_index = getattr(macmahon, index_of)

    def off(*args):
        box, neighbour, (marker_q, marker_z) = true_index(*args)
        return box, neighbour, ((marker_q + 2, marker_z) if part == "q"
                                else (marker_q, marker_z + 1))

    monkeypatch.setattr(macmahon, index_of, off)
    results = kernel_results(monkeypatch, macmahon, "bijection_by_class")
    streamed, oracle = both_paths(monkeypatch, lambda: certificate(*index))
    assert results == [None]
    assert streamed == oracle
    assert streamed["counterexample"]["reason"] == "weight-mismatch"


# the exceptions are the oracle's ----------------------------------------------

def _refuse_one_element(monkeypatch):
    """The step rule refuses the fourth pair of phi_certificate(2, 2, 0)'s
    domain with a ValueError of its own."""
    box, neighbour, marker = macmahon._phi_index(2, 2, 0)
    lay = macmahon._step_layout(box, neighbour, marker)
    refused = list(macmahon._enum_packed(box, lay))[3]

    def refusing(x, y, lay_):
        if x == refused:
            raise ValueError(f"refused {x}")
        return y

    monkeypatch.setattr(macmahon, "_index_rule",
                        in_rule_form(faulty(refusing))(macmahon._index_rule))


def _cycle(monkeypatch):
    """An H-tagged pair stays as it is: the cancelation's orbit cycles."""
    monkeypatch.setattr(macmahon, "_index_rule", in_rule_form(faulty(
        lambda x, y, lay: x if y & macmahon._MARKED else y))(macmahon._index_rule))


# name -> (a fault to patch in, or None; the raising call)
RAISING = {
    "macmahon-phi-empty": (None, lambda: macmahon.phi_certificate(2, 1, 5)),
    "macmahon-psi-empty": (None, lambda: macmahon.psi_certificate(2, 4)),
    "macmahon-phi-m0": (None, lambda: macmahon.phi_certificate(2, 0, 0)),
    "cancelation-m0": (None, lambda: macmahon.cancelation_certificate(2, 0)),
    "andrews-phi-empty": (None, lambda: andrews12.phi_certificate(4, 1, -1)),
    "andrews-involution-empty": (None, lambda: andrews12.involution_certificate(2, 2, -1)),
    "andrews-involution-index": (None, lambda: andrews12.involution_certificate(3, 1, 20)),
    "map-refuses-an-element": (_refuse_one_element,
                               lambda: macmahon.phi_certificate(2, 2, 0)),
}


@pytest.mark.parametrize("name", RAISING)
def test_exceptions_propagate_as_the_oracles(monkeypatch, name):
    fault, certificate = RAISING[name]
    if fault is not None:
        fault(monkeypatch)
    with pytest.raises(ValueError) as streamed:
        certificate()
    with monkeypatch.context() as patch:
        force_oracle(patch)
        with pytest.raises(streamed.type) as oracle:
            certificate()
    assert str(streamed.value) == str(oracle.value)


# a cancelation fault fails as the oracle's ------------------------------------

def _second_first_row(monkeypatch):
    """A case-1 pair of phi at m = 1 gains a second first row: its orbit
    leaves every box."""
    monkeypatch.setattr(macmahon, "_index_rule", macmahon_tests.faulty_rule(
        macmahon._index_rule, macmahon_tests.second_first_row(1)))


# name -> (the fault, the index, the failure's reason)
CANCELATION_FAULTS = {
    "cycle": (_cycle, (2, 2), "orbit-exceeds-budget"),
    "leaves-every-box": (_second_first_row, (1, 1), "orbit-leaves-every-box"),
}


@pytest.mark.parametrize("name", CANCELATION_FAULTS)
def test_cancelation_faults_give_the_oracles_certificate(monkeypatch, name):
    fault, index, reason = CANCELATION_FAULTS[name]
    fault(monkeypatch)
    streamed, oracle = both_paths(monkeypatch,
                                  lambda: macmahon.cancelation_certificate(*index))
    assert streamed == oracle
    assert streamed["status"] == "failed"
    assert streamed["counterexample"]["reason"] == reason


# each inverse is two-sided ----------------------------------------------------

def test_andrews_phi_inverse_is_two_sided():
    for n in range(2, 7):
        for k in range(n - 1):
            for cap in range(0, 31, 3):
                lay = andrews12._layout(n, cap)
                step = andrews12._step("phi", n, k, lay)
                back, read = andrews12._phi_back(n, k, lay)
                inverse = lambda y: y - back[y & read]  # as _phi_by_class reads it
                domain = (n, k, 0), (n - 1, k - 1, 2 * n - 1)
                codomain = (n - 1, k - 1, 0), (n - 2, k, 2 * n - 3)
                member = andrews12._member(domain, lay)
                for x in andrews12._enum_packed(domain, cap, lay):
                    assert inverse(step(x)) == x, (n, k, cap, x)
                for y in andrews12._enum_packed(codomain, cap, lay):
                    assert passes(member, inverse(y)), (n, k, cap, y)
                    assert step(inverse(y)) == y, (n, k, cap, y)


def _step_sides(box, neighbour, lower, lay):
    enum = macmahon._enum_packed
    domain = chain(enum(box, lay), enum(neighbour, lay, edge=True))
    lowered = list(enum(lower, lay))
    codomain = chain(lowered, [x + macmahon._MARKED for x in lowered],
                     enum(box, lay, edge=True))
    return domain, codomain


def packed_inverse(shifts, lay):
    """The inverse stream_bijection reads off macmahon's table: a marked
    pair takes the shift of its side field back, any other pair is its own
    preimage."""
    field = lay.field
    return lambda y: y - shifts[y >> macmahon._SIDE & field] if y & macmahon._MARKED else y


def test_macmahon_step_inverse_is_two_sided():
    indices = ([(macmahon._phi_index(n, m, k), macmahon._box_P(n, m - 1, k))
                for n in range(5) for m in range(1, 5) for k in range(-m, n + 2)]
               + [(macmahon._psi_index(n, k), macmahon._box_Q(n - 1, k))
                  for n in range(1, 7) for k in range(-1, n + 1)])
    for (box, neighbour, marker), lower in indices:
        lay = macmahon._step_layout(box, neighbour, marker)
        step = macmahon._step(box, neighbour, lay)
        inverse = packed_inverse([macmahon._step_table(box, neighbour, lay)[-1][2]]
                                 * (lay.field + 1), lay)
        domain, codomain = _step_sides(box, neighbour, lower, lay)
        for x in domain:
            assert inverse(step(x)) == x, (box, neighbour, x)
        for y in codomain:
            assert step(inverse(y)) == y, (box, neighbour, y)


def cancelation_levels(n, m):
    """(layout, levels, edges, shifts) of the cancelation at (n, m), as
    cancelation_certificate builds them, one entry per side field and one
    past it: the step at that index as (its call, its rule's read), its
    box's edge, and the shift of its moving row."""
    lay = macmahon._Layout(-m, n + 1, n + m + 1, 2 * (n + m), macmahon._phi_index(n, m, 0)[2])
    indices = [macmahon._phi_index(n, m, s + lay.lo)[:2] for s in range(lay.field + 2)]
    return (lay, [(macmahon._step(*index, lay), macmahon._index_rule(*index, lay)[1])
                  for index in indices],
            [macmahon._edge(box[1], lay) for box, _ in indices],
            [macmahon._step_table(*index, lay)[-1][2] for index in indices])


def tagged_rule(n, m):
    """(layout, telescoping_phi on the packed form, the shifts of its
    inverse) at (n, m), read off cancelation_levels: the reference the
    certificate's composed rules and its walk are held to.  A tagged
    element is ("A", x) or ("H", x), an "H" pair stepping at the next
    index; an image is tagged "H" where it is bare and on its box's
    boundary, and "B", landed, otherwise."""
    lay, levels, edges, shifts = cancelation_levels(n, m)
    side, marked = macmahon._SIDE, macmahon._MARKED

    def step(tagged):
        tag, x = tagged
        y = levels[(x >> side & lay.field) + (tag == "H")][0](x)
        edge, least, most = edges[y >> side & lay.field]
        return ("H" if not y & marked and least <= y & edge <= most else "B"), y
    return lay, step, shifts


def landed(tagged):
    return tagged[0] == "B"


def streamed_rules(monkeypatch, n, m):
    """The rules cancelation_certificate(n, m) hands its kernel, one a box
    of the union, in order: the direct map composed on each box."""
    rules, kernel = [], macmahon.bijection_by_class

    def spy(walks, *args):
        walks = list(walks)
        rules.extend(rule for rule, *_ in walks)
        return kernel(walks, *args)

    with monkeypatch.context() as patch:
        patch.setattr(macmahon, "bijection_by_class", spy)
        macmahon.cancelation_certificate(n, m)
    return rules


def composed(rule, a):
    """a's image under a composed rule, or "refused" where the rule
    refuses a's class."""
    shifts, read = rule
    try:
        return a + shifts[a & read]
    except KeyError:
        return "refused"


def test_cancelation_inverse_is_two_sided(monkeypatch):
    # The composed rules are the tagged walk, and the inverse undoes them
    # on the union and they undo the inverse on the codomain.
    for n in range(4):
        for m in range(1, 4):
            lay, step, shifts = tagged_rule(n, m)
            inverse = packed_inverse(shifts, lay)
            boxes = [macmahon._box_P(n, m, k) for k in range(-m, n + 1)]
            rules = dict(zip(boxes, streamed_rules(monkeypatch, n, m)))

            def direct(a):  # by the composed rule of a's box
                image = composed(rules[macmahon._box_P(n, m, (a >> macmahon._SIDE & lay.field)
                                                       + lay.lo)], a)
                assert image == cancelation_psi(step, ("A", a), landed, 100)[1], (n, m, a)
                return image

            def union(mm):  # every pair of the P(n,mm,k), k in -m .. n
                return [x for k in range(-m, n + 1)
                        for x in macmahon._enum_packed(macmahon._box_P(n, mm, k), lay)]

            for x in union(m):
                assert inverse(direct(x)) == x, (n, m, x)
            lowered = union(m - 1)
            for y in lowered + [x + macmahon._MARKED for x in lowered]:
                assert direct(inverse(y)) == y, (n, m, y)


# the composed rules, the walk and the step rule against the references ----------

def walk_outcome(walk, a):
    """The image of a under walk, or the class and text of what it raised."""
    try:
        return walk(a)
    except (ValueError, macmahon.IterationBudgetExceeded) as fault:
        return type(fault), str(fault)


@pytest.mark.parametrize("name", [None, *CANCELATION_FAULTS])
def test_the_cancelation_walk_is_the_tagged_walk(monkeypatch, name):
    # Every pair of the union, under the true rule and under each fault:
    # the walk per element gives the tagged cancelation_psi walk's image,
    # or raises as it does, with the same budget and text; its box's
    # composed rule gives that image, and refuses where the walk raises.
    if name is not None:
        CANCELATION_FAULTS[name][0](monkeypatch)
    raised = 0
    for n in range(5):
        for m in range(1, 5):
            lay, step, _shifts = tagged_rule(n, m)
            levels, edges = cancelation_levels(n, m)[1:3]
            boxes = [macmahon._box_P(n, m, k) for k in range(-m, n + 1)]
            budget = 1 + sum(1 for box in boxes for _ in macmahon._enum_packed(box, lay)) + sum(
                1 for box in boxes for _ in macmahon._enum_packed(box, lay, edge=True))

            def tagged(a):
                return cancelation_psi(step, ("A", a), landed, budget)[1]

            def walk(a):
                return macmahon._walk(a, levels, edges, lay.field, budget)[0]

            for box, rule in zip(boxes, streamed_rules(monkeypatch, n, m)):
                for a in macmahon._enum_packed(box, lay):
                    expected = walk_outcome(tagged, a)
                    assert walk_outcome(walk, a) == expected, (n, m, a)
                    assert composed(rule, a) == (
                        "refused" if isinstance(expected, tuple) else expected), (n, m, a)
                    raised += isinstance(expected, tuple)
    assert (raised > 0) == (name is not None)


def composed_step_rule(box, neighbour, lay):
    """The step map as membership and boundary closures composed it: each
    box's _masks, the boundary test of the neighbour's bound and the
    moving row's shift."""
    def member(b):
        guard = macmahon._masks(b, lay, 0)
        if guard == NEVER:
            return lambda x: False
        forbidden, expected, (length, _, limit) = guard
        return lambda x: x & forbidden == expected and x & length <= limit

    in_box, in_neighbour = member(box), member(neighbour)
    if neighbour[1] > 0:  # mu has a part equal to the bound
        mask = lay.field * lay.mu.unit(neighbour[1])
        on_edge = lambda x: x & mask != 0
    else:  # mu is empty
        mask = lay.field << lay.length
        on_edge = lambda x: x & mask == 0
    shift = macmahon._step_table(box, neighbour, lay)[-1][2]

    def step(x):
        if in_box(x):
            return x
        if in_neighbour(x) and on_edge(x):
            return x + shift
        raise ValueError(macmahon._not_in_domain(macmahon._decoder(lay)(x), box, neighbour))
    return step


def test_the_fused_step_rule_is_the_composed_one():
    # Every int of both boxes, bare and flagged, and with its side field
    # one below and one above: the rule's call form gives the same image,
    # or the same ValueError.
    indices = ([macmahon._phi_index(n, m, k)
                for n in range(4) for m in range(1, 4) for k in range(-m, n + 2)]
               + [macmahon._psi_index(n, k) for n in range(1, 6) for k in range(-1, n + 2)])
    one_side = 1 << macmahon._SIDE
    for box, neighbour, marker in indices:
        lay = macmahon._step_layout(box, neighbour, marker)
        fused = macmahon._step(box, neighbour, lay)
        composed = composed_step_rule(box, neighbour, lay)
        pairs = chain(macmahon._enum_packed(box, lay), macmahon._enum_packed(neighbour, lay))
        for x in pairs:
            for y in (x, x + macmahon._MARKED):
                for z in (y - one_side, y, y + one_side):
                    assert macmahon_tests.outcome(lambda: fused(z)) == \
                        macmahon_tests.outcome(lambda: composed(z)), (box, neighbour, z)


# a rule fault fails its certificate; it does not hang it ------------------------

def run_child(code, timeout=60):
    """Run code in a fresh interpreter on this checkout's src; its stdout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", textwrap.dedent(code)], env=env,
                          capture_output=True, text=True, timeout=timeout, check=True)
    return done.stdout


LOSE_A_TWO = f"""
    import sys
    sys.path.insert(0, {str(Path(__file__).resolve().parent)!r})
    from bare_failure_path import in_rule_form
    from qtelescope import andrews12, macmahon

    def lose_a_two(true_rule):  # a fixed point loses one mu part 2
        def factory(*args):
            lay, step = args[-1], true_rule(*args)

            def broken(x):
                y = step(x)
                return y - lay.mu.unit(2) if y == x else y
            return broken
        return factory
"""


@pytest.mark.parametrize("patch, call", [
    ("andrews12._involution_rule = in_rule_form(lose_a_two)(andrews12._involution_rule)",
     "andrews12.involution_certificate(3, 2, 20)"),
    ("macmahon._index_rule = in_rule_form(lose_a_two)(macmahon._index_rule)",
     "macmahon.phi_certificate(2, 2, 0)"),
], ids=["involution", "macmahon-phi"])
def test_a_negative_image_fails_its_certificate(patch, call):
    # An empty mu that loses a part 2 packs to a negative int, which the
    # decoders used to loop on; it is presented as the bare int.
    cert = json.loads(run_child(LOSE_A_TWO + f"""
    {patch}
    print({call}.to_json())
    """, timeout=30))
    assert cert["status"] == "failed"
    counterexample = cert["counterexample"]
    assert counterexample["reason"] == "not-in-codomain"
    assert set(counterexample["image"]) == {"packed"}
    assert counterexample["image"]["packed"] < 0


# memory -----------------------------------------------------------------------

@pytest.mark.skipif(not Path("/proc/self/status").exists(),
                    reason="reads the peak from /proc/self/status")
def test_a_large_involution_slice_stays_small():
    # 579,660 elements: holding the slice, a set and the fixed set took
    # 83 MB.  The child reads VmHWM, its own peak RSS: Linux carries a
    # forking parent's peak into the child's ru_maxrss across exec.
    peak_kb = int(run_child("""
        from qtelescope import andrews12

        assert andrews12.involution_certificate(6, 6, 50).verified
        with open("/proc/self/status") as status:
            print(next(line.split()[1] for line in status if line.startswith("VmHWM:")))
    """, timeout=120))
    assert peak_kb < 40 * 1024, peak_kb
