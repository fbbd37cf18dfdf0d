"""The class kernels against the element kernels they replaced, and the
checks that keep each class read exact.

andrews12._phi_by_class and _involution_by_class check a certificate
once per class x & R of the bits its checks read (andrews12._reads),
counted from the slice's factors (andrews12._count_classes).  These tests
hold them to the element kernels kept in reference_kernels: the class
counts are the enumeration's, the verdicts are the references' on the
Andrews grid of the certificate digests and under every mutant of the
mutation sweep, and a shift that carries out of R makes the kernel give
up, so that the oracle decides.  The MacMahon cancelation's rule, its walk
composed once per class of its box (macmahon._composed), is refused in
the same way where a step's image carries or borrows out of the box's R.
"""

from collections import Counter

import pytest

from qtelescope import andrews12, macmahon

from reference_kernels import stream_involution, stream_phi
from test_certificate_digests import andrews_slices
from test_mutation_sweep import SWEEPS, shifted_row
from test_streaming import (both_paths, cancelation_levels, composed, kernel_results,
                            streamed_rules)


def lowered_slices():
    """(map, n, k, cap) for each slice of the digests' Andrews grid that a
    map lowers."""
    slices = []
    for n, k, cap in andrews_slices():
        try:
            slices.append((andrews12.lowering_map(n, k), n, k, cap))
        except ValueError:
            pass
    return slices


# map -> (the class kernel's name, the element kernel it replaced)
KERNELS = {"phi": ("_phi_by_class", stream_phi),
           "involution": ("_involution_by_class", stream_involution)}


def verdicts(name, n, k, cap):
    """(the class kernel's result, the reference's) on one slice; both
    read None where the rule refuses an element outside its domain."""
    kernel, reference = KERNELS[name]
    lay = andrews12._layout(n, cap)
    return getattr(andrews12, kernel)(n, k, cap, lay), reference(n, k, cap, lay)


def test_class_counts_are_the_enumerations(monkeypatch):
    # Every count the kernels take on the grid, at the R of its
    # certificate and at R = span - 1, where each element is a class.
    taken, true_count = [], andrews12._count_classes

    def spy(*args):
        taken.append(args)
        return true_count(*args)

    monkeypatch.setattr(andrews12, "_count_classes", spy)
    for name, n, k, cap in lowered_slices():
        getattr(andrews12, KERNELS[name][0])(n, k, cap, andrews12._layout(n, cap))
    assert len(taken) == len(lowered_slices())
    for parts, cap, lay, reads in taken:
        elements = list(andrews12._enum_packed(parts, cap, lay))
        assert true_count(parts, cap, lay, reads) == Counter(map(reads.__and__, elements)), \
            (parts, cap, reads)
        # every element packs below the span (test_packed_ints_lie_below_the_span)
        assert true_count(parts, cap, lay, lay.span - 1) == Counter(elements), (parts, cap)


@pytest.mark.parametrize("name", KERNELS)
def test_class_kernels_give_the_references_verdicts_on_the_grid(name):
    checked = 0
    for map_name, n, k, cap in lowered_slices():
        if map_name == name:
            kernel, reference = verdicts(name, n, k, cap)
            assert kernel == reference, (n, k, cap)
            checked += kernel is not None
    assert checked > 0


@pytest.mark.parametrize("sweep", ["andrews-phi", "andrews-involution"])
def test_class_kernels_give_the_references_verdicts_under_every_mutant(monkeypatch, sweep):
    _, _, grid, mutants = SWEEPS[sweep]
    name = sweep.removeprefix("andrews-")
    count = failed = 0
    for mutant, attribute, replacement in mutants():
        with monkeypatch.context() as patch:
            patch.setattr(andrews12, attribute, replacement)
            found = [verdicts(name, *index) for index in grid]
        assert all(kernel == reference for kernel, reference in found), mutant
        count += 1
        failed += any(kernel is None for kernel, _ in found)
    assert count == failed > 0  # each mutant fails the kernels somewhere


# a shift that carries out of R ------------------------------------------------

def shifted_case(table, case, unit):
    """A table factory like `table` whose rows of `case` shift by
    unit(n, k, lay) more."""
    def factory(n, k, lay):
        return [(c, guard, shift + unit(n, k, lay) if c == case else shift, *image)
                for c, guard, shift, *image in table(n, k, lay)]
    return factory


def kept_reads(monkeypatch):
    """The list of the R each kernel's _reads returns, one entry a call."""
    reads, true_reads = [], andrews12._reads

    def spy(*args):
        reads.append(true_reads(*args))
        return reads[-1]

    monkeypatch.setattr(andrews12, "_reads", spy)
    return reads


@pytest.mark.parametrize("name, table, case, bit, sign, reason", [
    # class A's image also loses lam part n-k+1, which no check reads:
    # the class's image borrows from a bit outside R, and the oracle's
    # first class-A element, which has no such part, leaves the codomain
    ("phi", "_phi_table", andrews12.ClassTag.A,
     lambda n, k, lay: lay.part(n - k + 1), -1, "not-in-codomain"),
    # rule (a)'s image also gains the bit at the span, above every field:
    # the oracle first meets a (b) element, whose image no longer comes back
    ("involution", "_involution_table", "a", lambda n, k, lay: lay.span, 1,
     "not-involutive"),
], ids=["phi-borrows", "involution-above-span"])
def test_a_carry_out_of_R_goes_to_the_oracle(monkeypatch, name, table, case, bit, sign,
                                             reason):
    n, k, cap = (5, 2, 30) if name == "phi" else (4, 4, 30)
    reads = kept_reads(monkeypatch)
    monkeypatch.setattr(andrews12, table, shifted_case(
        getattr(andrews12, table), case, lambda *index: sign * bit(*index)))
    assert verdicts(name, n, k, cap) == (None, None)
    assert not reads[0] & bit(n, k, andrews12._layout(n, cap))
    results = kernel_results(monkeypatch, andrews12, KERNELS[name][0])
    streamed, oracle = both_paths(monkeypatch, lambda: getattr(
        andrews12, f"{name}_certificate")(n, k, cap))
    assert results == [None]
    assert streamed == oracle
    assert streamed["counterexample"]["reason"] == reason


@pytest.mark.parametrize("unit, reason", [
    # the moving row also adds a mu part 2, below the bound of every box
    # of bound 6 or more, whose R leaves part 2 out: the image carries out
    (lambda lay: lay.mu.unit(2), "not-in-codomain"),
    # the moving row drops one more from the length: a pair with one part
    # has none left, and its image borrows across the length field
    (lambda lay: -(1 << lay.length), "not-in-codomain"),
], ids=["carries-a-mu-part", "borrows-across-the-length"])
def test_a_composition_out_of_R_goes_to_the_oracle(monkeypatch, unit, reason):
    n = m = 3
    monkeypatch.setattr(macmahon, "_step_table", shifted_row(macmahon._step_table, -1, unit))
    lay, levels, edges, _ = cancelation_levels(n, m)
    boxes = [macmahon._box_P(n, m, k) for k in range(-m, n + 1)]
    refused = 0
    for box, rule in zip(boxes, streamed_rules(monkeypatch, n, m)):
        for a in macmahon._enum_packed(box, lay):
            # the walk of a alone lands; only the composition is refused
            image = macmahon._walk(a, levels, edges, lay.field, 1000)[0]
            assert composed(rule, a) in (image, "refused"), a
            refused += composed(rule, a) == "refused"
    assert refused > 0
    results = kernel_results(monkeypatch, macmahon, "stream_bijection")
    streamed, oracle = both_paths(monkeypatch, lambda: macmahon.cancelation_certificate(n, m))
    assert results == [None]
    assert streamed == oracle
    assert streamed["counterexample"]["reason"] == reason
