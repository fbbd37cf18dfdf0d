"""The class kernels against the element kernels they replaced, and the
checks that keep each class read exact.

andrews12._phi_by_class and _involution_by_class check a certificate
once per class x & R of the bits its checks read (andrews12._reads),
counted from the slice's factors (andrews12._count_classes).  MacMahon's
step and cancelation certificates do the same, each walk of the domain
with its own R (macmahon._bijection_certificate), counted from the box
walk's groups (macmahon._count_classes); they and Andrews' phi share one
kernel, telescope.bijection_by_class.  These tests hold the kernels to
the element kernels kept in reference_kernels: the class counts are the
enumeration's, the verdicts are the references' on the grid of the
certificate digests and under every mutant of the mutation sweep, and a
shift that carries out of R makes the kernel give up, so that the oracle
decides.  The MacMahon cancelation's rule, its walk composed once per
class of its box (macmahon._composed), is refused in the same way where
a step's image carries or borrows out of the box's R.
"""

from collections import Counter
from functools import cache
from itertools import chain

import pytest

from qtelescope import andrews12, macmahon

from reference_kernels import stream_involution, stream_macmahon, stream_phi
from test_certificate_digests import andrews_slices, grid
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
    # certificate (or at R = 0, the size of a codomain or fixed set), and
    # at R = span - 1, where each element is a class.
    taken, true_count = [], andrews12._count_classes

    def spy(*args):
        taken.append(args)
        return true_count(*args)

    monkeypatch.setattr(andrews12, "_count_classes", spy)
    for name, n, k, cap in lowered_slices():
        getattr(andrews12, KERNELS[name][0])(n, k, cap, andrews12._layout(n, cap))
    assert len([reads for *_, reads in taken if reads]) == len(lowered_slices())
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


# MacMahon's step and cancelation ----------------------------------------------

def macmahon_calls():
    """The MacMahon step and cancelation certificates of the digests' grid,
    indices one past each end, as (call, name)."""
    return [(call, name) for call, name in grid()
            if name.startswith(("macmahon.phi", "macmahon.psi", "macmahon.cancelation"))]


def outcome(call):
    """What call returns, or the class and text of the ValueError it raises."""
    try:
        return call()
    except ValueError as error:
        return ValueError, str(error)


@cache
def counted_on_the_grid():
    """(walks, layout, R, the counts) of every class count the MacMahon
    certificates of the grid take."""
    taken, true_count = [], macmahon._count_classes

    def spy(walks, lay, reads):
        taken.append((walks, lay, reads, true_count(walks, lay, reads)))
        return taken[-1][-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(macmahon, "_count_classes", spy)
        for call, _ in macmahon_calls():
            outcome(call)
    return taken


def test_macmahon_class_counts_are_the_enumerations():
    taken = counted_on_the_grid()
    assert len(taken) > len(macmahon_calls())
    for walks, lay, reads, counts in taken:
        pairs = chain.from_iterable(macmahon._enum_packed(box, lay, edge) for box, edge in walks)
        assert counts == Counter(map(reads.__and__, pairs)), (walks, reads)


@cache
def kernel_walks_on_the_grid():
    """(module, walk, span) for each walk (rule, R, member, classes) that
    the class kernel takes on the digests' grid, from both families, and
    the span of its certificate's layout."""
    taken, spans = [], []
    certificates = {andrews12: ("_phi_by_class", "_involution_by_class"),
                    macmahon: ("_bijection_certificate",)}
    with pytest.MonkeyPatch.context() as patch:
        for module, names in certificates.items():
            def kernel(walks, *args, module=module, true_kernel=module.bijection_by_class):
                walks = list(walks)
                taken.extend((module, walk, spans[-1]) for walk in walks)
                return true_kernel(walks, *args)

            patch.setattr(module, "bijection_by_class", kernel)
            for name in names:
                def certificate(*args, true_certificate=getattr(module, name)):
                    spans.append(next(arg.span for arg in args if hasattr(arg, "span")))
                    return true_certificate(*args)

                patch.setattr(module, name, certificate)
        for call, _ in grid():
            outcome(call)
    return taken


def test_every_R_is_nonnegative_below_the_span_and_holds_its_walk_s_reads():
    # R is narrowed below the layout's span, which every element packs
    # below, and holds every bit below the span that its walk's rule and
    # member read, as the kernel's exactness needs
    taken = kernel_walks_on_the_grid()
    assert {module for module, *_ in taken} == {andrews12, macmahon}
    for module, ((_, read), reads, (_, member_read), _), span in taken:
        assert 0 <= reads < span, (module.__name__, reads)
        assert (read | member_read) & ~reads & span - 1 == 0, (module.__name__, reads)
    for walks, lay, _, _ in counted_on_the_grid():
        for box, edge in walks:
            assert all(0 <= x < lay.span for x in macmahon._enum_packed(box, lay, edge)), box


def test_the_public_step_refuses_an_int_with_higher_bits():
    # the kernel's R is narrowed below the span; the rule's read, which the
    # public call reads, is not
    box, neighbour, marker = macmahon._phi_index(3, 2, 1)
    lay = macmahon._step_layout(box, neighbour, marker)
    step = macmahon._step(box, neighbour, lay)
    for x in chain(macmahon._enum_packed(box, lay),
                   macmahon._enum_packed(neighbour, lay, edge=True)):
        step(x)
        with pytest.raises(ValueError, match="is neither in"):
            step(x + lay.span)


def macmahon_verdicts(monkeypatch, call):
    """(the class kernel's result, the reference's) for each bijection
    check that call() makes; a kernel that raises reads as the class and
    text of what it raised, as the reference does."""
    found = []
    true_kernel, true_certificate = macmahon.bijection_by_class, macmahon._bijection_certificate

    def certificate(walks, step, codomain, shifts, lay, *args):
        reference = outcome(lambda: stream_macmahon(walks, codomain, shifts, lay))
        kernel = []

        def spy(*kernel_args):
            kernel.append(outcome(lambda: true_kernel(*kernel_args)))
            if isinstance(kernel[-1], tuple):
                raise kernel[-1][0](kernel[-1][1])
            return kernel[-1]

        with monkeypatch.context() as patch:
            patch.setattr(macmahon, "bijection_by_class", spy)
            try:
                return true_certificate(walks, step, codomain, shifts, lay, *args)
            finally:
                found.append((*kernel, reference))

    with monkeypatch.context() as patch:
        patch.setattr(macmahon, "_bijection_certificate", certificate)
        outcome(call)
    return found


def test_the_macmahon_class_kernel_gives_the_references_verdicts_on_the_grid(monkeypatch):
    checked = 0
    for call, name in macmahon_calls():
        for kernel, reference in macmahon_verdicts(monkeypatch, call):
            assert kernel == reference, name
            checked += kernel is not None
    assert checked > 0


@pytest.mark.parametrize("sweep", ["macmahon-phi", "macmahon-psi", "macmahon-cancelation"])
def test_the_macmahon_class_kernel_gives_the_references_verdicts_under_every_mutant(
        monkeypatch, sweep):
    _, certificate, grid_, mutants = SWEEPS[sweep]
    count = failed = 0
    for mutant, attribute, replacement in mutants():
        with monkeypatch.context() as patch:
            patch.setattr(macmahon, attribute, replacement)
            found = [verdict for index in grid_
                     for verdict in macmahon_verdicts(patch, lambda: certificate(*index))]
        assert found and all(kernel == reference for kernel, reference in found), mutant
        count += 1
        failed += any(kernel is None for kernel, _ in found)
    assert count == failed > 0  # each mutant fails the kernel somewhere


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
    results = kernel_results(monkeypatch, macmahon, "bijection_by_class")
    streamed, oracle = both_paths(monkeypatch, lambda: macmahon.cancelation_certificate(n, m))
    assert results == [None]
    assert streamed == oracle
    assert streamed["counterexample"]["reason"] == reason


def test_a_step_carry_out_of_R_goes_to_the_oracle(monkeypatch):
    # phi at (3, 3, 1): the moving row also adds a mu part 2, below the
    # bound 6 of the neighbour's boundary, which no check reads, so every
    # marked image carries out of its class's R
    n, m, k = 3, 3, 1
    monkeypatch.setattr(macmahon, "_step_table", shifted_row(
        macmahon._step_table, -1, lambda lay: lay.mu.unit(2)))
    assert macmahon_verdicts(monkeypatch, lambda: macmahon.phi_certificate(n, m, k)) == \
        [(None, None)]
    reads, true_count = [], macmahon._count_classes

    def spy(walks, lay, walk_reads):
        reads.append(not walk_reads & lay.mu.unit(2))
        return true_count(walks, lay, walk_reads)

    monkeypatch.setattr(macmahon, "_count_classes", spy)
    results = kernel_results(monkeypatch, macmahon, "bijection_by_class")
    streamed, oracle = both_paths(monkeypatch, lambda: macmahon.phi_certificate(n, m, k))
    assert results == [None]
    assert reads and all(reads)
    assert streamed == oracle
    # the image of a pair whose first row was its one part holds a part 2
    # with a length of 0, which the oracle's enumerated codomain has not
    assert streamed["counterexample"]["reason"] == "not-in-codomain"
