"""The square/even-partition families, both step maps, and the identity
verification driver.  Hand-worked step images and weight algebra are frozen;
bijection certificates run over the complete finite sets.
"""

import gc
import tracemalloc

import pytest

from qtelescope.macmahon import (MacPair, _apply, _box_Q, _enum_box, _psi_index,
                                 cancelation_certificate, enum_P,
                                 phi_certificate, phi_step,
                                 phi_telescoping_counts,
                                 psi_certificate, psi_telescoping_counts,
                                 telescoping_phi, verify_macmahon)
from qtelescope.partitions import EvenField, Partition
from qtelescope.qalgebra import LaurentPoly, factor_product, gaussian_binomial
from qtelescope.telescope import MarkedObject, telescoping_sum_check, weight_of

from bare_failure_path import as_rule, stepping
from partition_edits import drop_first
from reference_cancelation import cancelation_psi
from reference_enumerators import enum_even_bounded
import reference_sums
from reference_sums import weighted_count


def pair(side, *mu):
    return MacPair(side, Partition(mu))


def enum_Q(n, k):
    """All of Q(n,k), decoded from the packed box; empty for k outside [0, n]."""
    return _enum_box(_box_Q(n, k))


def psi_step(n, k, x):
    """(case, image) of psi at index k on a pair, as phi_step gives phi's:
    case 1 lands in H(n,k), case 2 in Q(n-1,k), case 3 is an H(n,k+1) pair
    that loses its first row, its side one smaller, marked z*q^(2n-1)."""
    return _apply(*_psi_index(n, k), x)


def mono(c, z=0, q=0):
    return LaurentPoly.monomial(c, z, q)


def decoded_box_counts(box, lay):
    """macmahon._box_counts, packed by lay, decoded."""
    import qtelescope.macmahon as mac

    return tuple(map(lay.unpack, mac._box_counts(box, lay)))


def product_sum_F(n, m):
    """The closed form's left-hand side sum_k z^k q^(k^2) [m+n, m+k] in base
    q^2, as verify_macmahon packs it in the layout of (n, m), decoded."""
    import qtelescope.macmahon as mac

    lay = mac._sum_layout(n, m)
    return lay.unpack(mac._gaussian_sum(n, m, lay))


def G(n, m, k):
    """G(n,m,k): the pairs of P(n,m,k) whose largest part equals 2m+2k."""
    return [x for x in enum_P(n, m, k) if x.mu.first == 2 * m + 2 * k]


def H(n, k):
    """H(n,k): the pairs of Q(n,k) whose largest part equals 2n-2k."""
    return [x for x in enum_Q(n, k) if x.mu.first == 2 * n - 2 * k]


def enumerated_F(n, m):
    """sum_k of the weighted P(n,m,k) counts, read off the telescoping counts."""
    return sum(phi_telescoping_counts(n, m)[0].values(), LaurentPoly.zero())


def enumerated_F_initial(n):
    """sum_k of the weighted Q(n,k) counts, read off the telescoping counts."""
    return sum(psi_telescoping_counts(n)[1].values(), LaurentPoly.zero())


# enumeration ----------------------------------------------------------------

def test_enum_P_examples():
    assert {(x.side, x.mu.parts) for x in enum_P(1, 1, 0)} == {(0, ()), (0, (2,))}
    assert weighted_count(enum_P(1, 1, 0)) == mono(1) + mono(1, 0, 2)
    assert [x for x in enum_P(1, 1, -1)] == [pair(-1)]
    assert weight_of(pair(-1)) == (1, -1, 1)


def test_enum_Q_examples():
    for n in range(1, 5):
        assert enum_Q(n, 0) == [pair(0)]
    assert set(enum_Q(2, 1)) == {pair(1), pair(1, 2)}


def test_out_of_range_indices_give_empty_sets():
    assert enum_P(2, 1, 3) == []
    assert enum_P(2, 1, -2) == []
    assert enum_Q(3, 4) == []
    assert enum_Q(3, -1) == []
    assert G(3, 2, -3) == []
    assert H(4, 5) == []


def test_boundary_families():
    # The boundary slice keeps only pairs whose largest part hits the bound;
    # when that bound is 0 the empty partition itself sits on the boundary.
    assert G(1, 1, 0) == [pair(0, 2)]
    assert G(1, 1, -1) == [pair(-1)]
    assert H(2, 1) == [pair(1, 2)]
    assert H(2, 2) == [pair(2)]
    assert H(3, 0) == []


def test_weighted_count_is_the_gaussian_summand():
    # Independent double count: the weighted P family equals the closed form
    # z^k q^(k^2) [m+n, m+k] in base q^2.
    for n in range(6):
        for m in range(6):
            for k in range(-m, n + 1):
                closed = mono(1, k, k * k) * gaussian_binomial(m + n, m + k, 2)
                assert weighted_count(enum_P(n, m, k)) == closed


def oracle_count(objs):
    """weighted_count the long way: one LaurentPoly per object, summed."""
    return sum((LaurentPoly.monomial(*weight_of(x)) for x in objs),
               LaurentPoly.zero())


def test_weighted_count_matches_per_object_oracle():
    families = []
    for n in range(5):
        for k in range(n + 2):
            q = enum_Q(n, k)
            marked = [MarkedObject(2 * n + 1, x, marker_z=1) for x in q]
            families += [q, H(n, k), q + marked]
        for m in range(5):
            for k in range(-m - 1, n + 2):
                p = enum_P(n, m, k)
                marked = [MarkedObject(2 * m + 1, x, marker_z=-1) for x in p]
                families += [p, G(n, m, k), p + marked]
    for family in families:
        assert weighted_count(family) == oracle_count(family)


# the sum path's enumeration -----------------------------------------------------

def test_box_walk_matches_the_enumerated_pairs():
    # The weight-only enumeration against weighted_count over the enumerated
    # pairs, the boundary slice rebuilt from its bound (2m+2k for G, 2n-2k
    # for H), on every box the sum path can ask for and one index beyond
    # each end.  Off the boundary, a box is the family one bound lower:
    # P(n,m-1,k) and Q(n-1,k), which the sum path reads off it.
    import qtelescope.macmahon as mac

    kinds = set()
    for n in range(6):
        for m in range(6):
            for k in range(-m - 1, n + 2):
                box = mac._box_P(n, m, k)
                kinds.add((box[1] < 0 or box[2] < 0, box[1] == 0, box[2] == 0))
                edge = G(n, m, k)
                off = [x for x in enum_P(n, m, k) if x not in edge]
                assert off == enum_P(n, m - 1, k), (n, m, k)
                assert decoded_box_counts(box, mac._sum_layout(n, m)) == (
                    weighted_count(off), weighted_count(edge)), (n, m, k)
        for k in range(-1, n + 2):
            box = mac._box_Q(n, k)
            kinds.add((box[1] < 0 or box[2] < 0, box[1] == 0, box[2] == 0))
            edge = H(n, k)
            off = [x for x in enum_Q(n, k) if x not in edge]
            assert off == enum_Q(n - 1, k), (n, k)
            assert decoded_box_counts(box, mac._sum_layout(n, 0)) == (
                weighted_count(off), weighted_count(edge)), (n, k)
    # out of range, bound 0, slots 0, and both 0 at once were all walked
    assert {(True, False, False), (False, True, False), (False, False, True),
            (False, True, True)} <= kinds


def test_packed_sums_match_the_dict_reference():
    # Every decoded packed value against tests/reference_sums.py, the same
    # sums on LaurentPolys: each box the sum path walks (and one index
    # beyond each end: out of range, bound 0, slots 0), the phi and psi
    # telescoping counts and the closed form's sum, for all n, m <= 6.
    import qtelescope.macmahon as mac

    for n in range(7):
        for m in range(7):
            lay = mac._sum_layout(n, m)
            for k in range(-m - 1, n + 2):
                box = mac._box_P(n, m, k)
                assert decoded_box_counts(box, lay) == reference_sums.box_counts(box), box
            for k in range(-1, n + 2):
                box = mac._box_Q(n, k)
                assert decoded_box_counts(box, lay) == reference_sums.box_counts(box), box
            assert phi_telescoping_counts(n, m) == reference_sums.phi_telescoping_counts(n, m)
            assert product_sum_F(n, m) == reference_sums.product_sum_F(n, m), (n, m)
        assert psi_telescoping_counts(n) == reference_sums.psi_telescoping_counts(n)


@pytest.mark.parametrize("N", range(15))
def test_box_enumeration_is_the_gaussian_binomial(N):
    # Beyond the pair oracle's reach: the box (side, 2j, N-j) holds the even
    # partitions in a j x (N-j) rectangle, weighed z^side q^(side^2)
    # [N, j]_(q^2) in all.  The box counts never read gaussian_binomial.
    # The packing holds side >= -N, weights side^2 + 2j(N-j) < N^2 and
    # C(N, j) <= 2^N leaves.
    import qtelescope.macmahon as mac

    lay = mac._SumLayout(-N, N * N, 1 << N)
    for j in range(N + 1):
        side = j - N // 2
        off, on = mac._box_counts((side, 2 * j, N - j), lay)
        assert lay.unpack(off + on) == mono(1, side, side * side) * gaussian_binomial(N, j, 2), j


def test_box_size_is_the_number_of_pairs_walked():
    # The leaf formula against the packed walk, off the chunk size and past
    # it, on the boundary slice too: out of range, bound 0 and slots 0.
    import qtelescope.macmahon as mac

    for bound in range(-2, 17, 2):
        for slots in range(-1, 7):
            box, lay = (0, bound, slots), mac._Layout(0, 0, max(slots, 0), bound)
            for edge in (False, True):
                assert mac._box_size(box, edge) == len(list(mac._enum_packed(box, lay, edge))), \
                    (box, edge)


def test_verify_enumerates_each_box_once(monkeypatch):
    # The boxes walked are the P(n,m,k), k in [-m, n] (at m = 0 the P(n,0,k)
    # that size the domain), then for n >= 1 the Q(n,k), k in [0, n], each
    # once; their counts hold 2^(n+m) + 2^n pairs (2^m at n = 0), though
    # the leaves walked are fewer (test_verify_enumerates_each_leaf_family_once).
    import qtelescope.macmahon as mac

    true_box_counts, walked = mac._box_counts, []

    def spy(box, lay):
        counts = true_box_counts(box, lay)
        walked.append((box, tuple(map(lay.unpack, counts))))
        return counts

    monkeypatch.setattr(mac, "_box_counts", spy)
    for n in range(6):
        for m in range(6):
            walked.clear()
            assert mac.verify_macmahon(n, m).verified
            expected = [mac._box_P(n, m, k) for k in range(-m, n + 1)]
            if n >= 1:
                expected += [mac._box_Q(n, k) for k in range(n + 1)]
            assert [box for box, _ in walked] == expected, (n, m)
            leaves = sum(c for _, counts in walked for poly in counts
                         for _z, _q, c in poly.terms())
            assert leaves == 2 ** (n + m) + (2 ** n if n else 0), (n, m)


def _count_leaves(monkeypatch):
    """A spy on the leaf enumerator of the sum side: the list it returns
    holds one count, of the leaves yielded so far."""
    import qtelescope.macmahon as mac

    true_leaves, walked = mac.combinations_with_replacement, [0]

    def spy(pool, parts):
        for leaf in true_leaves(pool, parts):
            walked[0] += 1
            yield leaf

    monkeypatch.setattr(mac, "combinations_with_replacement", spy)
    return walked


def test_verify_enumerates_each_leaf_family_once(monkeypatch):
    # A box's boundary less its bound is the next box's family off its
    # boundary, and at m = 0 the P(n,0,k) are the Q(n,n-k) moved, so the
    # distinct families hold 2^(n+m-1) leaves for the P boxes and 2^(n-1)
    # for the Q boxes, each walked once; a slots-0 box walks no leaf.
    import qtelescope.macmahon as mac

    walked = _count_leaves(monkeypatch)
    for n in range(7):
        for m in range(7):
            walked[0] = 0
            assert mac.verify_macmahon(n, m).verified
            P = 2 ** (n + m - 1) if n + m else 0
            Q = 2 ** (n - 1) if n and m else 0
            assert walked[0] == P + Q, (n, m)
            walked[0] = 0
            phi_telescoping_counts(n, m)
            assert walked[0] == P, (n, m)
        walked[0] = 0
        psi_telescoping_counts(n)
        assert walked[0] == (2 ** (n - 1) if n else 0), n
    walked[0] = 0
    mac.verify_macmahon(8, 8)
    assert walked[0] == 32_896  # 2^15 + 2^7, where two walks per box made 65,790


def test_verify_builds_no_pair(monkeypatch):
    import qtelescope.macmahon as mac

    def refuse(*args):
        raise AssertionError("the sum path enumerated objects")

    monkeypatch.setattr(EvenField, "chunks", refuse)  # the packed path's walker
    for name in ("_enum_packed", "enum_P", "_enum_box"):
        monkeypatch.setattr(mac, name, refuse)
    for n in range(5):
        for m in range(5):
            cert = mac.verify_macmahon(n, m)
            assert cert.verified, cert.to_json()
            assert cert.domain_size == 2 ** (n + m)


# phi_step ---------------------------------------------------------------------

def test_phi_cases_at_1_1_0():
    case, out = phi_step(1, 1, 0, pair(0, 2))
    assert (case, out) == (1, pair(0, 2))
    case, out = phi_step(1, 1, 0, pair(0))
    assert (case, out) == (2, pair(0))
    case, out = phi_step(1, 1, 0, pair(-1))
    assert case == 3
    assert out == MarkedObject(1, pair(0), marker_z=-1)
    assert weight_of(out) == weight_of(pair(-1))


def test_phi_case3_row_removal_and_weight():
    # G(2,2,0) contains (S_0, (4)); its image grows the square and drops the row.
    case, out = phi_step(2, 2, 1, pair(0, 4))
    assert case == 3
    assert out == MarkedObject(3, pair(1), marker_z=-1)
    assert weight_of(pair(0, 4)) == (1, 0, 4)
    assert weight_of(out) == (1, 0, 4)


def test_phi_rejects_bad_inputs():
    with pytest.raises(ValueError):
        phi_step(1, 0, 0, pair(0))
    with pytest.raises(ValueError):
        phi_step(-1, 1, -1, pair(-1))     # n < 0, though the box is not empty
    with pytest.raises(ValueError):
        phi_step(1, 1, 0, pair(2))
    with pytest.raises(ValueError):
        phi_step(1, 1, 0, MarkedObject(1, pair(0), marker_z=-1))


def test_phi_cases_are_mutually_exclusive():
    # Dispatch is by the square side, so no input can satisfy two cases.
    for n in range(4):
        for m in range(1, 4):
            for k in range(-m, n + 1):
                members = enum_P(n, m, k) + G(n, m, k - 1)
                assert len(set(members)) == len(members)
                for x in members:
                    in_p = x.side == k
                    in_g = x.side == k - 1
                    assert in_p != in_g


def paper_P(n, m, k, x):
    """x in P(n,m,k): -m <= k <= n, side k, even parts, largest part at
    most 2m+2k, at most n-k parts."""
    mu = x.mu
    return (-m <= k <= n and x.side == k and mu.has_even_parts()
            and mu.first <= 2 * m + 2 * k and mu.length <= n - k)


def paper_Q(n, k, x):
    """x in Q(n,k): 0 <= k <= n, side k, even parts, at most k parts,
    largest part at most 2n-2k."""
    mu = x.mu
    return (0 <= k <= n and x.side == k and mu.has_even_parts()
            and mu.length <= k and mu.first <= 2 * n - 2 * k)


def assert_step_domain(step, candidates, in_domain, in_neighbour):
    """step accepts exactly the candidates in_domain says, with case 3
    exactly on the neighbouring boundary slice, and raises on the rest."""
    for x in candidates:
        try:
            case, _ = step(x)
        except ValueError:
            assert not in_domain(x), x
        else:
            assert in_domain(x) and (case == 3) == in_neighbour(x), x


def test_phi_step_domain_is_P_and_the_lower_boundary():
    for n in range(4):
        for m in range(1, 4):
            mus = enum_even_bounded(2 * (n + m) + 2, n + m + 1)
            for k in range(-m - 1, n + 2):
                def in_G_below(x):
                    return (paper_P(n, m, k - 1, x)
                            and x.mu.first == 2 * m + 2 * (k - 1))
                assert_step_domain(
                    lambda x: phi_step(n, m, k, x),
                    [MacPair(side, mu) for side in range(k - 2, k + 3) for mu in mus],
                    lambda x: paper_P(n, m, k, x) or in_G_below(x), in_G_below)


def test_psi_step_domain_is_Q_and_the_upper_boundary():
    for n in range(1, 5):
        mus = enum_even_bounded(2 * n + 2, n + 1)
        for k in range(-1, n + 2):
            def in_H_above(x):
                return paper_Q(n, k + 1, x) and x.mu.first == 2 * n - 2 * (k + 1)
            assert_step_domain(
                lambda x: psi_step(n, k, x),
                [MacPair(side, mu) for side in range(k - 2, k + 3) for mu in mus],
                lambda x: paper_Q(n, k, x) or in_H_above(x), in_H_above)


# psi_step -----------------------------------------------------------------------

def test_psi_cases_at_2_1():
    case, out = psi_step(2, 1, pair(1, 2))
    assert (case, out) == (1, pair(1, 2))
    case, out = psi_step(2, 1, pair(1))
    assert (case, out) == (2, pair(1))
    case, out = psi_step(2, 1, pair(2))
    assert case == 3
    assert out == MarkedObject(3, pair(1), marker_z=1)
    assert weight_of(pair(2)) == (1, 2, 4)
    assert weight_of(out) == (1, 2, 4)


def test_psi_rejects_bad_inputs():
    with pytest.raises(ValueError):
        psi_step(0, 0, pair(0))
    with pytest.raises(ValueError):
        psi_step(2, 1, pair(0, 6))


# bijection certificates --------------------------------------------------------

def test_phi_bijection_certificates_small_grid():
    for n in range(4):
        for m in range(1, 4):
            for k in range(-m, n + 1):
                cert = phi_certificate(n, m, k)
                assert cert.verified, cert.to_json()
                assert cert.domain_size == cert.codomain_size


def test_psi_bijection_certificates_small_grid():
    for n in range(1, 5):
        for k in range(n + 1):
            cert = psi_certificate(n, k)
            assert cert.verified, cert.to_json()


def test_step_certificates_enumerate_each_box_once(monkeypatch):
    # A verified step certificate walks its box once and the neighbour's
    # boundary once, from its first part; the codomain is only counted.
    # The walks are EvenField.chunks calls, whose (bound, slots) are the box's.
    import qtelescope.macmahon as mac

    walked = []
    true_chunks = EvenField.chunks

    def counted(self, bound, slots, row=0, edge=False):
        walked.append((bound, slots, edge))
        return true_chunks(self, bound, slots, row, edge)

    monkeypatch.setattr(EvenField, "chunks", counted)
    for certificate, (box, neighbour, _marker) in (
            (lambda: phi_certificate(3, 2, 1), mac._phi_index(3, 2, 1)),
            (lambda: psi_certificate(4, 2), mac._psi_index(4, 2))):
        walked.clear()
        assert certificate().verified
        assert walked == [(*box[1:], False), (*neighbour[1:], True)]


def test_box_enumeration_keeps_no_memory_once_its_list_is_dropped():
    # The enumerator's memo must go when it returns, not when the cycle
    # collector next runs: with gc off, a leaked memo holds about 1.5 MB here.
    import qtelescope.macmahon as mac

    lay = mac._Layout(0, 0, 8, 16)
    gc_was_enabled = gc.isenabled()
    gc.disable()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        pairs = list(mac._enum_packed((0, 16, 8), lay))
        assert len(pairs) == 12870  # C(16, 8)
        del pairs
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
        if gc_was_enabled:
            gc.enable()
    assert kept < 64 * 1024, kept


def test_phi_certificate_detects_a_broken_map():
    from qtelescope.telescope import check_graded_bijection

    n, m, k = 2, 1, 0
    domain = enum_P(n, m, k) + G(n, m, k - 1)
    codomain = (enum_P(n, m - 1, k)
                + [MarkedObject(2 * m - 1, x, marker_z=-1)
                   for x in enum_P(n, m - 1, k)]
                + G(n, m, k))

    def broken(x):
        case, out = phi_step(n, m, k, x)
        if case == 3:  # re-route one marked image to a wrong payload
            return MarkedObject(out.marker_q, pair(k, 2, 2), marker_z=-1)
        return out

    cert = check_graded_bijection(broken, domain, codomain,
                                  check="macmahon-phi", params={})
    assert not cert.verified
    assert cert.counterexample is not None


# one broken case at a time: each step certificate sees every case ---------------

def phi_case(n, m, k, x):
    """The case of phi_step's docstring that x falls in, from the paper's sets."""
    if paper_P(n, m, k, x):
        return 1 if x.mu.first == 2 * m + 2 * k else 2
    assert paper_P(n, m, k - 1, x) and x.mu.first == 2 * m + 2 * (k - 1), x
    return 3


def psi_case(n, k, x):
    """The case of psi_step's docstring that x falls in, from the paper's sets."""
    if paper_Q(n, k, x):
        return 1 if x.mu.first == 2 * n - 2 * k else 2
    assert paper_Q(n, k + 1, x) and x.mu.first == 2 * n - 2 * (k + 1), x
    return 3


# step name -> (index, certificate, case of an input, domain, marker (q, z))
STEPS = {
    "phi_step": ((3, 2, 1), phi_certificate, phi_case,
                 lambda: enum_P(3, 2, 1) + G(3, 2, 0), (3, -1)),
    "psi_step": ((4, 2), psi_certificate, psi_case,
                 lambda: enum_Q(4, 2) + H(4, 3), (7, 1)),
}


def _marked_copy(x, y, marker):
    return MarkedObject(marker[0], x, marker_z=marker[1])


# (step, case, fault(x, true image, marker), reason, where the counterexample
# shows the broken case: its element or the second element of a collision)
STEP_MUTATIONS = [
    (step, case, fault, reason, where)
    for step in STEPS
    for case, fault, reason, where in [
        (1, _marked_copy,  # a boundary pair is lowered as if interior
         "not-in-codomain", "element"),
        (2, _marked_copy,  # an interior pair picks up the marker
         "weight-mismatch", "element"),
        (3, lambda x, y, marker: y.payload,  # the image loses its marker
         "collision", "second"),
    ]
]


def faulty_rule(true_rule, fault):
    """A packed step rule factory like true_rule whose rule decodes its
    element and image, applies the MacPair-level fault(x, y) and encodes
    the result back, handed over in rule form."""
    import qtelescope.macmahon as mac

    def factory(box, neighbour, lay):
        step, decode = stepping(true_rule(box, neighbour, lay)), mac._decoder(lay)
        return as_rule(lambda x: mac._encode(fault(decode(x), decode(step(x))), lay))
    return factory


@pytest.mark.parametrize("step, case, fault, reason, where", STEP_MUTATIONS,
                         ids=[f"{m[0]}-{m[1]}" for m in STEP_MUTATIONS])
def test_step_certificate_sees_a_fault_in_each_case(monkeypatch, step, case,
                                                    fault, reason, where):
    import qtelescope.macmahon as mac

    index, certificate, case_of, domain, marker = STEPS[step]
    assert certificate(*index).verified
    assert case in {case_of(*index, x) for x in domain()}

    def broken(x, y):
        return fault(x, y, marker) if case_of(*index, x) == case else y

    monkeypatch.setattr(mac, "_index_rule", faulty_rule(mac._index_rule, broken))
    cert = certificate(*index)
    assert not cert.verified
    counterexample = cert.counterexample
    assert counterexample["reason"] == reason
    shown = (counterexample["element"]["second"] if where == "second"
             else counterexample[where])
    assert case_of(*index, shown) == case, counterexample


def test_cancelation_cycle_exceeds_the_budget(monkeypatch):
    import qtelescope.macmahon as mac

    assert mac.cancelation_certificate(2, 2).verified

    def cycling(x, y):  # an H-tagged pair stays as it is: case 1, so H again
        return x if isinstance(y, MarkedObject) else y

    monkeypatch.setattr(mac, "_index_rule", faulty_rule(mac._index_rule, cycling))
    cert = mac.cancelation_certificate(2, 2)
    assert not cert.verified
    counterexample = cert.counterexample
    assert counterexample["reason"] == "orbit-exceeds-budget"
    assert counterexample["element"] == pair(-2)  # the first orbit's start
    assert counterexample["image"].startswith("no landing within 25 applications")
    assert "starting from ('A', MacPair(side=-2, " in counterexample["image"]  # the pair, not its int


def second_first_row(m):
    """A fault of phi at (n, m): a pair on its own box's boundary, which is
    its own image, gains a second first row."""
    def fault(x, y):
        if y == x and x.mu.first == 2 * m + 2 * x.side > 0:
            return MacPair(x.side, Partition((x.mu.first,) + x.mu.parts))
        return y
    return fault


def test_cancelation_orbit_leaving_every_box_fails(monkeypatch):
    # (0, (2,)) is on the boundary of P(1,1,0) and grows to (0, (2, 2)), on
    # that boundary still, so its orbit steps at index 1, which refuses it
    import qtelescope.macmahon as mac

    monkeypatch.setattr(mac, "_index_rule", faulty_rule(mac._index_rule, second_first_row(1)))
    cert = mac.cancelation_certificate(1, 1)
    assert not cert.verified
    counterexample = cert.counterexample
    assert counterexample["reason"] == "orbit-leaves-every-box"
    assert counterexample["element"] == pair(0, 2)
    assert counterexample["image"] == (f"{pair(0, 2, 2)} is neither in (1, 4, 0) "
                                       "nor on the boundary of (0, 2, 1)")


# the packed form against the MacPair-level oracle --------------------------------

def box_P(n, m, k):
    return k, 2 * m + 2 * k, n - k


def box_Q(n, k):
    return k, 2 * n - 2 * k, k


def oracle_enum(box):
    side, bound, slots = box
    if bound < 0 or slots < 0:
        return []
    return [MacPair(side, mu) for mu in enum_even_bounded(bound, slots)]


def oracle_in_box(box, x):
    side, bound, slots = box
    return (isinstance(x, MacPair) and x.side == side
            and x.mu.has_even_parts() and x.mu.first <= bound
            and x.mu.length <= slots)


def oracle_step(box, neighbour, marker, x):
    """The step map on MacPairs, as phi_step's and psi_step's docstrings
    state it: a pair of box is its own image, a boundary pair of the
    neighbouring box loses its first row, takes box's side and the marker."""
    if oracle_in_box(box, x):
        return (1 if x.mu.first == box[1] else 2), x
    if oracle_in_box(neighbour, x) and x.mu.first == neighbour[1]:
        out = MacPair(box[0], drop_first(x.mu))
        return 3, MarkedObject(marker[0], out, marker_z=marker[1])
    raise ValueError(f"{x} is neither in {box} nor on the boundary of {neighbour}")


def oracle_phi(n, m, k, x):
    if n < 0 or m < 1:
        raise ValueError("phi_step requires n >= 0 and m >= 1")
    return oracle_step(box_P(n, m, k), box_P(n, m, k - 1), (2 * m - 1, -1), x)


def oracle_psi(n, k, x):
    if n < 1:
        raise ValueError("psi requires n >= 1")
    return oracle_step(box_Q(n, k), box_Q(n, k + 1), (2 * n - 1, 1), x)


def oracle_slice_certificate(step, box, neighbour, lower, marker, check, params):
    """A step certificate on objects: every pair built, hashed and mapped."""
    from qtelescope.telescope import check_graded_bijection

    pairs = oracle_enum(box)
    domain = pairs + [x for x in oracle_enum(neighbour) if x.mu.first == neighbour[1]]
    lowered = oracle_enum(lower)
    codomain = (lowered
                + [MarkedObject(marker[0], x, marker_z=marker[1]) for x in lowered]
                + [x for x in pairs if x.mu.first == box[1]])
    return check_graded_bijection(lambda x: step(x)[1], domain, codomain,
                                  check=check, params=params)


def oracle_telescoping(n, m, tagged):
    tag, x = tagged
    if tag not in ("A", "H"):
        raise ValueError(f"unexpected tag {tag!r}")
    case, out = oracle_phi(n, m, x.side + (tag == "H"), x)
    return ("H" if case == 1 else "B"), out


def oracle_cancelation(n, m):
    from qtelescope.telescope import check_graded_bijection

    domain = [x for k in range(-m, n + 1) for x in oracle_enum(box_P(n, m, k))]
    budget = (len(domain) + 1
              + sum(x.mu.first == box_P(n, m, x.side)[1] for x in domain))

    def direct(a):
        return cancelation_psi(lambda t: oracle_telescoping(n, m, t), ("A", a),
                               lambda t: t[0] == "B", budget)[1]

    codomain = [x for k in range(-m, n + 1) for x in oracle_enum(box_P(n, m - 1, k))]
    codomain += [MarkedObject(2 * m - 1, x, marker_z=-1) for x in codomain]
    return check_graded_bijection(direct, domain, codomain,
                                  check="macmahon-cancelation", params={"n": n, "m": m})


def outcome(make):
    """The JSON of a certificate without its timing, the value of a call,
    or the text of the ValueError it raised."""
    try:
        result = make()
    except ValueError as exc:
        return "ValueError", str(exc)
    if hasattr(result, "to_json_obj"):
        return {k: v for k, v in result.to_json_obj().items() if k != "elapsed_ms"}
    return result


def near(x, marker):
    """x and pairs one edit away from it: the side moved, a row added on top
    or at the bottom, the first row dropped, an odd part, and x marked
    (where the marker is a valid one)."""
    mu = x.mu.parts
    return [x, MacPair(x.side - 1, x.mu), MacPair(x.side + 1, x.mu),
            MacPair(x.side, Partition(((mu[0] if mu else 0) + 2,) + mu)),
            MacPair(x.side, Partition(mu + (2,))), MacPair(x.side, drop_first(x.mu)),
            MacPair(x.side, Partition(mu + (1,)))] + (
                [MarkedObject(marker[0], x, marker_z=marker[1])] if marker[0] > 0 else [])


@pytest.mark.parametrize("n", range(7))
def test_packed_phi_matches_the_object_path(n):
    # Every index from k = -m-1 to n+1: k = -m is the box of bound 0, whose
    # only pair (empty mu) is on its boundary, and k = -m+1 the index whose
    # neighbour has bound 0, so its boundary pair has no row to lose.
    for m in range(5):
        for k in range(-m - 1, n + 2):
            marker = (2 * m - 1, -1)
            candidates = {y for x in oracle_enum(box_P(n, m, k)) + oracle_enum(box_P(n, m, k - 1))
                          for y in near(x, marker)}
            for x in candidates:
                assert outcome(lambda: phi_step(n, m, k, x)) == outcome(
                    lambda: oracle_phi(n, m, k, x)), (n, m, k, x)
                if isinstance(x, MacPair) and x.side in (k, k - 1):
                    t = ("A" if x.side == k else "H", x)
                    assert outcome(lambda: telescoping_phi(n, m, t)) == outcome(
                        lambda: oracle_telescoping(n, m, t)), (n, m, t)
            if m >= 1:
                assert outcome(lambda: phi_certificate(n, m, k)) == outcome(
                    lambda: oracle_slice_certificate(
                        lambda x: oracle_phi(n, m, k, x), box_P(n, m, k),
                        box_P(n, m, k - 1), box_P(n, m - 1, k), marker,
                        "macmahon-phi", {"n": n, "m": m, "k": k})), (n, m, k)
        if m >= 1:
            assert outcome(lambda: cancelation_certificate(n, m)) == outcome(
                lambda: oracle_cancelation(n, m)), (n, m)


@pytest.mark.parametrize("n", range(7))
def test_packed_psi_matches_the_object_path(n):
    # k = n-1 is the index whose neighbour Q(n,n) has bound 0
    for k in range(-1, n + 2):
        marker = (2 * n - 1, 1)
        candidates = {y for x in oracle_enum(box_Q(n, k)) + oracle_enum(box_Q(n, k + 1))
                      for y in near(x, marker)}
        for x in candidates:
            assert outcome(lambda: psi_step(n, k, x)) == outcome(
                lambda: oracle_psi(n, k, x)), (n, k, x)
        if n >= 1:
            assert outcome(lambda: psi_certificate(n, k)) == outcome(
                lambda: oracle_slice_certificate(
                    lambda x: oracle_psi(n, k, x), box_Q(n, k), box_Q(n, k + 1),
                    box_Q(n - 1, k), marker, "macmahon-psi", {"n": n, "k": k})), (n, k)


def test_bound_zero_boxes():
    # P(n,m,-m) holds only (-m, ()), on its boundary; at k = -m+1 that pair is
    # the neighbour's boundary and moves up with its empty mu.  Q(n,n) is the
    # same for psi at k = n and k = n-1.
    for n in range(4):
        for m in range(1, 4):
            assert phi_step(n, m, -m, pair(-m)) == (1, pair(-m))
            assert phi_step(n, m, -m + 1, pair(-m)) == (
                3, MarkedObject(2 * m - 1, pair(-m + 1), marker_z=-1))
            assert phi_certificate(n, m, -m).verified
            assert phi_certificate(n, m, -m + 1).verified
    for n in range(1, 5):
        assert psi_step(n, n, pair(n)) == (1, pair(n))
        assert psi_step(n, n - 1, pair(n)) == (
            3, MarkedObject(2 * n - 1, pair(n - 1), marker_z=1))
        assert psi_certificate(n, n - 1).verified


def test_a_bound_zero_box_holds_its_empty_mu_at_length_0_only():
    # At bound 0 mu is empty, so its length field is 0 too: the empty mu
    # with length field 1 passes the box's AND-and-compare, its limit
    # refuses it, and so does the step map at that box.
    import qtelescope.macmahon as mac

    for box, neighbour, marker in (mac._phi_index(3, 2, -2), mac._psi_index(4, 4)):
        assert box[1] == 0
        lay = mac._step_layout(box, neighbour, marker)
        alone = mac._encode(pair(box[0]), lay)
        longer = alone + (1 << lay.length)
        forbidden, expected, (length, _, limit) = mac._masks(box, lay, 0)
        assert alone & forbidden == expected and alone & length <= limit
        assert longer & forbidden == expected and longer & length > limit
        step = mac._step(box, neighbour, lay)
        assert step(alone) == alone
        with pytest.raises(ValueError):
            step(longer)


def test_certificates_check_the_step_parameters_first():
    # phi needs m >= 1 and n >= 0, psi n >= 1, whatever the index
    for make in (lambda: phi_certificate(2, 0, 1), lambda: phi_certificate(-1, 1, 5),
                 lambda: cancelation_certificate(2, 0)):
        with pytest.raises(ValueError, match="phi_step requires"):
            make()
    with pytest.raises(ValueError, match="psi requires"):
        psi_certificate(0, 0)


# telescoping relations ------------------------------------------------------------

def test_phi_telescoping_sum_checks():
    for n in range(4):
        for m in range(1, 4):
            f, g, h, k_min, k_max = phi_telescoping_counts(n, m)
            cert = telescoping_sum_check(f, g, h, k_max=k_max, k_min=k_min,
                                         check="macmahon-phi-sum",
                                         params={"n": n, "m": m})
            assert cert.verified, cert.to_json()


def test_psi_telescoping_sum_checks():
    for n in range(1, 6):
        f, g, h, k_min, k_max = psi_telescoping_counts(n)
        cert = telescoping_sum_check(f, g, h, k_max=k_max, k_min=k_min,
                                     check="macmahon-psi-sum",
                                     params={"n": n})
        assert cert.verified, cert.to_json()


def test_phi_telescoping_instance_n_m_2():
    f, g, h, k_min, k_max = phi_telescoping_counts(2, 2)
    assert telescoping_sum_check(f, g, h, k_max=k_max, k_min=k_min).verified
    # negative control: perturbing one g coefficient must fail
    g_bad = dict(g)
    g_bad[0] = g[0] + mono(1, 0, 7)
    cert = telescoping_sum_check(f, g_bad, h, k_max=k_max, k_min=k_min)
    assert not cert.verified


def test_telescoping_sums_agree_with_recurrences():
    # sum f = sum g is exactly the m-lowering recurrence at the sum level
    for n, m in [(2, 1), (3, 2)]:
        f, g, _h, k_min, k_max = phi_telescoping_counts(n, m)
        total_f = LaurentPoly.zero()
        total_g = LaurentPoly.zero()
        for k in range(k_min, k_max + 1):
            total_f = total_f + f.get(k, LaurentPoly.zero())
            total_g = total_g + g.get(k, LaurentPoly.zero())
        assert total_f == enumerated_F(n, m)
        assert total_g == (LaurentPoly.one() + mono(1, -1, 2 * m - 1)) \
            * enumerated_F(n, m - 1)
        assert total_f == total_g


# verify_macmahon --------------------------------------------------------------------

def test_identity_at_1_1_is_the_frozen_polynomial():
    frozen = LaurentPoly({(-1, 1): 1, (0, 0): 1, (0, 2): 1, (1, 1): 1})
    assert product_sum_F(1, 1) == frozen
    assert factor_product(1, 1, -1, 1, 2) * factor_product(1, 1, 1, 1, 2) == frozen


def test_verify_examples():
    assert verify_macmahon(1, 1).verified
    assert verify_macmahon(0, 0).verified
    assert verify_macmahon(4, 4).verified


def test_verify_rejects_negative_indices():
    with pytest.raises(ValueError):
        verify_macmahon(-1, 0)


def test_verify_failure_names_the_sub_identity(monkeypatch):
    import qtelescope.macmahon as mac

    true_product = factor_product
    monkeypatch.setattr(mac, "factor_product",
                        lambda *a: true_product(*a) + mono(1, 0, 9))
    cert = mac.verify_macmahon(1, 1)
    assert not cert.verified
    assert cert.counterexample["element"] == "product identity"
    assert cert.counterexample["reason"] == "sub-identity-violated"
    # q^9 is past the span of the sum layout at (1, 1), which stops at q^4,
    # so the factors are compared as polynomials
    assert cert.counterexample["image"] == {
        "lhs": str(product_sum_F(1, 1)),
        "rhs": str((true_product(1, 1, -1, 1, 2) + mono(1, 0, 9))
                   * (true_product(1, 1, 1, 1, 2) + mono(1, 0, 9)))}


def _spy_products(monkeypatch):
    """The values Kronecker.pack_product returns, in order: an int where
    the product was packed, None where it is compared as polynomials."""
    from qtelescope.qalgebra import Kronecker

    true_pack_product, returned = Kronecker.pack_product, []

    def spy(self, *factors):
        returned.append(true_pack_product(self, *factors))
        return returned[-1]

    monkeypatch.setattr(Kronecker, "pack_product", spy)
    return returned


@pytest.mark.parametrize("change, packed", [
    (lambda f: f + mono(1, -3, 1), False),  # below z^-(m+1), the layout's z_lo
    (lambda f: f + mono(1, 0, -1), False),  # below q^0
    (lambda f: f + mono(1, -2, 1), True),   # at z_lo: it packs, the product fits
    (lambda f: f * 15, False),  # each packs, but 30 * 30 overflows a 5-bit slot
], ids=["below-z_lo", "below-q0", "at-z_lo", "times-15"])
def test_verify_compares_a_wrong_factor_packed_or_as_polynomials(monkeypatch, change,
                                                                 packed):
    # At (1, 1) the sum layout packs z from z^-2, q up to q^4 and
    # coefficients below 2^4.  A wrong factor fails the closed form either
    # way, with the same counterexample; a product that may overflow a slot
    # is never packed, where it could alias the sum.
    import qtelescope.macmahon as mac

    true_product, returned = factor_product, _spy_products(monkeypatch)
    monkeypatch.setattr(mac, "factor_product", lambda *a: change(true_product(*a)))
    cert = mac.verify_macmahon(1, 1)
    assert [value is not None for value in returned] == [packed]
    assert cert.counterexample == {
        "element": "product identity", "reason": "sub-identity-violated",
        "image": {"lhs": str(product_sum_F(1, 1)),
                  "rhs": str(change(true_product(1, 1, -1, 1, 2))
                             * change(true_product(1, 1, 1, 1, 2)))}}


def test_verify_compares_an_unpackable_product_that_holds_as_polynomials(monkeypatch):
    # q^-1 in one factor and q in the other: no packing holds the first, but
    # the product, and the identity, hold
    import qtelescope.macmahon as mac

    true_product, returned = factor_product, _spy_products(monkeypatch)
    monkeypatch.setattr(mac, "factor_product",
                        lambda count, sign, z, *a: true_product(count, sign, z, *a)
                        * mono(1, 0, z))
    assert mac.verify_macmahon(1, 1).verified
    assert returned == [None]


def test_verify_packs_each_check_in_one_layout(monkeypatch):
    # The relations, the product and both totals share the one packing of
    # (n, m), and one Gaussian sum at (n, m) serves the product and the P
    # total: one Kronecker a call, and gaussian_row at m+n, then at n for
    # the Q total (n, m >= 1; at m = 0 the sum at (n, m) is the one at n).
    import qtelescope.macmahon as mac
    from qtelescope.qalgebra import Kronecker

    true_init, true_row, made, rows = Kronecker.__init__, mac.gaussian_row, [], []

    def init(self, *args):
        made.append(args)
        true_init(self, *args)

    def row(n, *args):
        rows.append(n)
        return true_row(n, *args)

    monkeypatch.setattr(Kronecker, "__init__", init)
    monkeypatch.setattr(mac, "gaussian_row", row)
    for n in range(5):
        for m in range(5):
            made.clear()
            rows.clear()
            assert mac.verify_macmahon(n, m).verified
            assert len(made) == 1, (n, m)
            assert rows == [m + n] + [n] * (n >= 1 and m >= 1), (n, m)


def _assert_recurrence_failure(cert, element, k):
    assert not cert.verified
    assert cert.counterexample["element"] == element
    assert cert.counterexample["reason"] == "sub-identity-violated"
    image = cert.counterexample["image"]
    assert image["element"] == {"k": k}
    assert image["reason"] == "index-relation-violated"


def _drop_one_leaf(monkeypatch, box, pairs):
    """Make the enumeration of `box` miss the monomial of the last of
    `pairs`, which lie off its boundary."""
    import qtelescope.macmahon as mac

    true_box_counts = mac._box_counts
    missed = mono(-1, *weight_of(pairs[-1])[1:])

    def perturbed(b, lay):
        off, boundary = true_box_counts(b, lay)
        return (off + lay.pack(missed), boundary) if b == box else (off, boundary)

    monkeypatch.setattr(mac, "_box_counts", perturbed)


def test_verify_failure_names_the_index_of_the_m_lowering_recurrence(monkeypatch):
    import qtelescope.macmahon as mac

    n, m, k = 2, 2, 1
    _drop_one_leaf(monkeypatch, mac._box_P(n, m, k), enum_P(n, m - 1, k))
    _assert_recurrence_failure(mac.verify_macmahon(n, m),
                               "m-lowering recurrence", k)


def test_verify_failure_names_the_index_of_the_n_lowering_recurrence(monkeypatch):
    import qtelescope.macmahon as mac

    n, k = 3, 1
    _drop_one_leaf(monkeypatch, mac._box_Q(n, k), enum_Q(n - 1, k))
    _assert_recurrence_failure(mac.verify_macmahon(n, 1),
                               "n-lowering recurrence", k)


@pytest.mark.parametrize("family, lower", [("P", 4), ("Q", 0)])
def test_verify_ties_each_family_total_to_the_closed_form(monkeypatch, family, lower):
    # Every leaf family of more than one leaf loses its last leaf: a box's
    # boundary and its neighbour's family off the boundary still agree, so
    # both relations and the closed form hold, and only the totals see it.
    # At (4, 4) a P family has bound/2 + parts = 7, a Q family 3.
    import qtelescope.macmahon as mac

    true_leaves = mac.combinations_with_replacement
    size = {"P": 7, "Q": 3}[family]

    def lossy(pool, parts):
        leaves = list(true_leaves(pool, parts))
        return leaves[:-1] if len(leaves) > 1 and len(pool) - 1 + parts == size else leaves

    monkeypatch.setattr(mac, "combinations_with_replacement", lossy)
    cert = mac.verify_macmahon(4, 4)
    assert not cert.verified
    assert cert.counterexample["element"] == f"{family} total"
    assert cert.counterexample["reason"] == "sub-identity-violated"
    image = cert.counterexample["image"]
    assert image["closed form"] == str(product_sum_F(4, lower))
    assert image["enumerated"] != image["closed form"]
    assert cert.domain_size == (244 if family == "P" else 256)


def test_enumerated_and_closed_forms_agree():
    for n in range(5):
        for m in range(5):
            assert enumerated_F(n, m) == product_sum_F(n, m)
    for n in range(5):
        assert enumerated_F_initial(n) == product_sum_F(n, 0)


# cancelation ---------------------------------------------------------------------

def test_cancelation_produces_verified_bijection():
    for n, m in [(1, 1), (2, 2), (3, 3), (4, 4)]:
        cert = cancelation_certificate(n, m)
        assert cert.verified, cert.to_json()


def test_cancelation_orbits_have_length_one_or_two():
    n = m = 2
    domain = [x for k in range(-m, n + 1) for x in enum_P(n, m, k)]
    for a in domain:
        tagged = telescoping_phi(n, m, ("A", a))
        if tagged[0] == "B":
            continue
        assert tagged[0] == "H"
        tagged = telescoping_phi(n, m, tagged)
        assert tagged[0] == "B"


def test_telescoping_phi_builds_one_step_rule(monkeypatch):
    # telescoping_phi is phi_step at the pair's own index, so one call
    # builds that index's step rule and no other.
    import qtelescope.macmahon as mac

    true_rule, built = mac._index_rule, []

    def spy(*args):
        built.append(args[:2])
        return true_rule(*args)

    monkeypatch.setattr(mac, "_index_rule", spy)
    for n in range(4):
        for m in range(1, 4):
            for k in range(-m, n + 1):
                for a in enum_P(n, m, k):
                    tags = ["A"] + (["H"] if a.mu.first == 2 * m + 2 * k else [])
                    for tag in tags:
                        built.clear()
                        telescoping_phi(n, m, (tag, a))
                        index = k + (tag == "H")
                        assert built == [(mac._box_P(n, m, index),
                                          mac._box_P(n, m, index - 1))], (n, m, tag, a)


def test_cancelation_preserves_weights_elementwise():
    n = m = 3
    domain = [x for k in range(-m, n + 1) for x in enum_P(n, m, k)]
    images = []
    for a in domain:
        landed = cancelation_psi(lambda t: telescoping_phi(n, m, t), ("A", a),
                                 lambda t: t[0] == "B", max_iter=len(domain) + 1)
        assert weight_of(landed[1]) == weight_of(a)
        images.append(landed[1])
    assert len(set(images)) == len(images)


# serialization ---------------------------------------------------------------------

def test_pair_json_form():
    assert pair(-2, 4, 2).to_json_obj() == {"side": -2, "mu": [4, 2]}
