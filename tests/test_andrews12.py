"""Staircase triples: membership, the four-class split, the n-lowering
bijection, the boundary involutions, and the truncated sum checks.

Hand-worked images and weights are frozen; class predicates are re-derived
from scratch here (not via classify) so exhaustiveness and disjointness are
checked against raw definitions.
"""

import itertools
from bisect import bisect_right

import pytest

from qtelescope.andrews12 import (ClassTag, F_trunc, Triple, classify,
                                  domain_slice, enum_P, in_P, involution,
                                  involution_certificate, phi, phi_certificate,
                                  verify_andrews, weight_of)
from qtelescope import andrews12, telescope
from qtelescope.partitions import EMPTY, Partition, staircase
from qtelescope.qalgebra import LaurentPoly, TruncatedSeries, rhs_andrews, truncate
from qtelescope.telescope import MarkedObject

from bare_failure_path import as_rule, stepping
from partition_edits import (drop_first, drop_first_rows, replace_part, with_part,
                             without_part)
from reference_enumerators import (F_trunc_carried, F_trunc_per_k, _even_parts, coeffs,
                                   enum_distinct_range, enum_even_capped)
from reference_sums import weighted_count


def T(tau, lam=(), mu=()):
    return Triple(Partition(tuple(tau)), Partition(tuple(lam)),
                  Partition(tuple(mu)))


def mark(w, t):
    return MarkedObject(w, t)


def mono(c, q):
    return LaurentPoly.monomial(c, 0, q)


# membership and enumeration --------------------------------------------------

def test_singleton_column():
    for n in range(5):
        members = enum_P(n, 0, 40)
        assert members == [Triple(staircase(n), EMPTY, EMPTY)]


def test_boundary_staircases():
    # k = n-1 forces tau = (0); k = n forces tau = ().
    assert in_P(3, 2, T((0,), (3,), (2,)))
    assert in_P(3, 3, T((), (6, 1), (4, 2)))
    assert not in_P(3, 3, T((0,), (6, 1), (4, 2)))
    assert not in_P(3, 2, T((), (3,), (2,)))


def test_membership_rejections():
    assert not in_P(2, 3, T((), (1,)))          # k > n
    assert not in_P(3, 1, T((1, 0), (5,)))      # part above n+k
    assert not in_P(3, 1, T((1, 0), (2,)))      # part below n-k+1
    assert not in_P(3, 1, T((1, 0), (), (4,)))  # even part above 2k
    assert not in_P(3, 1, T((1, 0), (), (1,)))  # odd part in mu


def test_enum_P_respects_joint_weight_cap():
    members = enum_P(1, 1, 6)
    assert len(members) == 12
    assert all(t.total_weight <= 6 for t in members)
    assert len({t for t in members}) == 12
    assert all(in_P(1, 1, t) for t in members)


def test_enum_P_out_of_range():
    assert enum_P(2, 3, 10) == []
    assert enum_P(1, -1, 10) == []
    assert enum_P(6, 0, 5) == []  # the staircase alone weighs 15


def enum_P_by_filter_and_sort(n, k, cap):
    """The slice built the plain way: every distinct-part lam of the window,
    the ones over the cap filtered out, the whole slice sorted."""
    if n < 0 or k < 0 or k > n:
        return []
    tau = staircase(n - k)
    window = range(n + k, n - k, -1)
    lams = [Partition(c) for r in range(2 * k + 1)
            for c in itertools.combinations(window, r)]
    mus = sorted(enum_even_capped(2 * k, cap - tau.weight), key=lambda p: p.weight)
    mu_weights = [p.weight for p in mus]
    out = [Triple(tau, lam, mu) for lam in lams if tau.weight + lam.weight <= cap
           for mu in mus[:bisect_right(mu_weights, cap - tau.weight - lam.weight)]]
    out.sort(key=lambda t: (t.total_weight, t.tau.parts, t.lam.parts, t.mu.parts))
    return out


def test_enum_P_is_the_filtered_sorted_slice():
    # Caps over 36 add slices of up to 4.5 million triples (n = k = 7 at
    # cap 64) and about a minute of run time; the caps kept already put
    # many lam and mu in one grade.
    for n in range(8):
        for k in range(-1, n + 2):
            for cap in (-1, 0, 1, n * n, n * n + 15, 40):
                if cap > 36:
                    continue
                want = enum_P_by_filter_and_sort(n, k, cap)
                assert enum_P(n, k, cap) == want, (n, k, cap)


def test_signed_sums_match_series():
    # Column sums truncated at 6: the k = 1 column of n = 1 contributes 1 - q.
    acc = TruncatedSeries(6)
    for t in enum_P(1, 1, 6):
        acc = acc + TruncatedSeries(6, {t.total_weight: t.sign})
    assert acc == TruncatedSeries(6, {0: 1, 1: -1})


def test_signed_sum_of_slices_matches_per_object_oracle():
    for n, k, cap in [(2, 0, 10), (3, 1, 20), (3, 2, 20), (4, 3, 25),
                      (4, 4, 25)]:
        slice_ = domain_slice(n, k, cap)
        oracle = sum((LaurentPoly.monomial(*weight_of(x)) for x in slice_),
                     LaurentPoly.zero())
        assert weighted_count(slice_) == oracle, (n, k, cap)


# classification ----------------------------------------------------------------

def raw_domain_flags(n, k, t):
    top = n + k in t.lam.parts
    second = n + k - 1 in t.lam.parts
    return {
        ClassTag.A: not top and not second and t.mu.first == 2 * k,
        ClassTag.B: top != second,
        ClassTag.C: top and second,
        ClassTag.EMBEDDED: not top and not second and t.mu.first <= 2 * k - 2,
    }


def raw_image_flags(n, k, t):
    low = n - k in t.lam.parts
    lower = n - k - 1 in t.lam.parts
    return {
        ClassTag.A_PRIME: not low and not lower,
        ClassTag.B_PRIME: low != lower,
        ClassTag.C_PRIME: low and lower and t.mu.first == 2 * k,
        ClassTag.D: low and lower and t.mu.first < 2 * k,
    }


def first_match(rows):
    """telescope.first_match's dispatch as a call: x goes to the out of the
    first row whose guard it passes, read as the rules read it."""
    memo, read = telescope.first_match(rows)
    return lambda x: memo[x & read]


def image_class(n, k, t):
    """The codomain class of t in P(n-2,k): the image case of _phi_table's
    first row whose image guard phi's marked image (2n-3, t) passes, read
    through first_match as _phi_back reads the table."""
    x, lay = andrews12._pack(n, t)
    return first_match(
        (image, case) for *_, case, image in andrews12._phi_table(n, k, lay))(x + 2 * n - 3)


def test_classify_examples():
    assert classify(3, 1, T((1, 0), (), (2,))) is ClassTag.A
    assert classify(3, 1, T((1, 0), (4,))) is ClassTag.B
    assert classify(3, 1, T((1, 0), (3,))) is ClassTag.B
    assert classify(3, 1, T((1, 0), (4, 3))) is ClassTag.C
    assert classify(3, 1, T((1, 0))) is ClassTag.EMBEDDED


def test_domain_classification_partition(cap=30):
    for n in range(2, 7):
        for k in range(0, n - 1):  # at k = 0 the bare staircase is class A
            embedded = []
            for t in enum_P(n, k, cap):
                flags = raw_domain_flags(n, k, t)
                assert sum(flags.values()) == 1, (n, k, t)
                assert flags[classify(n, k, t)]
                if classify(n, k, t) is ClassTag.EMBEDDED:
                    embedded.append(t)
            assert set(embedded) == set(enum_P(n - 1, k - 1, cap))


def test_codomain_classification_partition(cap=30):
    for n in range(2, 7):
        for k in range(0, n - 1):
            for t in enum_P(n - 2, k, cap):
                flags = raw_image_flags(n, k, t)
                assert sum(flags.values()) == 1, (n, k, t)
                assert flags[image_class(n, k, t)]


def test_classes_exist_only_where_phi_lowers():
    # the classes are phi's cases: where the index rule names no phi, such
    # as (3,3), (1,1), (1,0) and (0,0), there are none
    members = 0
    for n in range(-1, 6):
        for k in range(-1, n + 2):
            if paper_map(n, k) == "phi":
                continue
            for t in enum_P(n, k, 12):
                members += 1
                with pytest.raises(ValueError, match="lower"):
                    classify(n, k, t)
    assert members


def test_classify_rejects_non_members():
    with pytest.raises(ValueError):
        classify(3, 0, T((1, 0)))         # tau is not staircase(3)
    with pytest.raises(ValueError):
        classify(3, 1, T((), (1,)))


# the bijection -------------------------------------------------------------------

def test_phi_staircase_rule_at_k0():
    assert phi(2, 0, T((1, 0))) == mark(1, T(()))
    assert phi(3, 0, T((2, 1, 0))) == mark(3, T((0,)))
    assert phi(4, 0, T((3, 2, 1, 0))) == mark(5, T((1, 0)))


def test_phi_case_images_frozen():
    # class B: the single top part shrinks by 2k
    assert phi(3, 1, T((1, 0), (4,))) == mark(3, T((), (2,)))
    assert phi(3, 1, T((1, 0), (3,))) == mark(3, T((), (1,)))
    # class A: drop two staircase rows and the first row of mu
    assert phi(3, 1, T((1, 0), (), (2,))) == mark(3, T(()))
    # class C: both top parts shrink, mu gains a part 2k
    assert phi(3, 1, T((1, 0), (4, 3))) == mark(3, T((), (2, 1), (2,)))
    # embedded: identity
    t = T((1, 0))
    assert phi(3, 1, t) == t
    # marked input: lam gains the parts n-k and n-k-1
    assert phi(3, 1, mark(5, T((1, 0)))) == mark(3, T((), (2, 1)))


def test_phi_preserves_weight_and_parity():
    for n in range(2, 6):
        for k in range(0, n - 1):
            for x in domain_slice(n, k, 25):
                y = phi(n, k, x)
                assert weight_of(y) == weight_of(x), (n, k, x, y)


def test_phi_rejects_out_of_range_and_non_members():
    with pytest.raises(ValueError):
        phi(3, 2, T((0,), (3,)))          # k > n-2
    with pytest.raises(ValueError):
        phi(3, 1, T((1, 0), (9,)))        # not a member
    with pytest.raises(ValueError):
        phi(3, 1, mark(4, T((1, 0))))     # wrong marker weight


def test_phi_certificates_small_grid():
    for n in range(2, 5):
        for k in range(0, n - 1):
            cert = phi_certificate(n, k, 25)
            assert cert.verified, cert.to_json()


def test_phi_certificate_monotone_in_cap():
    assert phi_certificate(3, 1, 12).verified
    for cap in (3, 9, 17, 30):
        assert phi_certificate(4, 1, cap).verified
    # below the staircase weight 3 the slice is empty: nothing to certify
    with pytest.raises(ValueError, match="empty domain"):
        phi_certificate(4, 1, 0)


def test_phi_certificate_detects_perturbation():
    from qtelescope.telescope import check_graded_bijection

    n, k, cap = 3, 1, 20
    codomain = (list(enum_P(n - 1, k - 1, cap))
                + [MarkedObject(2 * n - 3, t)
                   for t in enum_P(n - 2, k, cap - (2 * n - 3))])

    def broken(x):
        y = phi(n, k, x)
        if isinstance(y, MarkedObject) and y.payload.lam.parts == (2,):
            return MarkedObject(y.marker_q, T((), (1,)))
        return y

    cert = check_graded_bijection(broken, domain_slice(n, k, cap), codomain,
                                  cap=cap, check="andrews-phi", params={"n": n, "k": k})
    assert not cert.verified
    assert cert.counterexample["reason"] in ("weight-mismatch", "collision",
                                             "not-in-codomain")


# the involutions -----------------------------------------------------------------

def test_involution_pairs_at_2_2():
    a = T((), (4, 1))
    b = T((), (1,), (4,))
    assert involution(2, 2, a) == b
    assert involution(2, 2, b) == a
    sign_a, z_a, q_a = weight_of(a)
    assert weight_of(b) == (-sign_a, z_a, q_a)
    assert involution(2, 2, T((), (3,))) == mark(3, T(()))
    assert involution(2, 2, mark(3, T(()))) == T((), (3,))
    assert involution(2, 2, T((), (2, 1), (2,))) == T((), (2, 1), (2,))


def test_involution_when_both_copies_present():
    # lam and mu both holding the toggle part: the lam copy moves first,
    # and the image (toggle only in mu) toggles straight back.
    x = T((), (4, 1), (4,))
    y = involution(2, 2, x)
    assert y == T((), (1,), (4, 4))
    assert involution(2, 2, y) == x


def test_involution_toggle_beats_marker_exchange():
    # lam = (3, 2) at (n, k) = (2, 1): part 2 toggles; 3 stays put.
    x = T((0,), (3, 2))
    y = involution(2, 1, x)
    assert y == T((0,), (3,), (2,))
    assert involution(2, 1, y) == x


def test_involution_marker_exchange_at_k_n_minus_1():
    x = T((0,), (3,))
    assert involution(2, 1, x) == mark(3, T((0,)))
    assert involution(2, 1, mark(3, T((0,)))) == x
    assert involution(2, 1, T((0,))) == T((0,))


def test_involution_certificates():
    for n in range(2, 5):
        for k in (n - 1, n):
            cert = involution_certificate(n, k, 25)
            assert cert.verified, cert.to_json()


def test_involution_rejects_bad_indices():
    with pytest.raises(ValueError):
        involution(1, 1, T((), (1,)))
    with pytest.raises(ValueError):
        involution(3, 1, T((1, 0), (3,)))


@pytest.mark.parametrize("n, k, cap", [(3, 2, 20), (4, 4, 30), (5, 4, 30)],
                         ids=["3-2-20", "4-4-30", "5-4-30"])
def test_involution_certificate_tests_membership_once_per_class(monkeypatch, n, k, cap):
    # The class kernel tests an image's membership by one read of the
    # member it is handed, the domain's _member, which it reads for nothing
    # else: the rules read the domain only through guards narrowed from its
    # masks.  Counting the member's reads counts the domain tests.  The
    # kernel tests the image of each class (x & R for the R of _reads)
    # once, far fewer than the elements.
    calls, reads, members = 0, [], []
    true_kernel, true_reads = andrews12.bijection_by_class, andrews12._reads

    class Counted:
        def __init__(self, memo):
            self.memo = memo

        def __getitem__(self, bits):
            nonlocal calls
            calls += 1
            return self.memo[bits]

    def counted_kernel(walks, *args):
        walks = list(walks)
        members.extend(member for _, _, member, _ in walks)
        return true_kernel([(rule, r, (Counted(memo), read), classes)
                            for rule, r, (memo, read), classes in walks], *args)

    def kept_reads(*args):
        reads.append(true_reads(*args))
        return reads[-1]

    monkeypatch.setattr(andrews12, "bijection_by_class", counted_kernel)
    monkeypatch.setattr(andrews12, "_reads", kept_reads)
    cert = involution_certificate(n, k, cap)
    assert cert.verified
    lay = andrews12._layout(n, cap)
    domain = andrews12._domain(n, k)
    slice_ = list(andrews12._enum_packed(domain, cap, lay))
    assert [read for _, read in members] == [andrews12._member(domain, lay)[1]]
    assert all(telescope.passes(members[0], x) for x in slice_)
    assert len(slice_) == cert.domain_size
    assert calls == len({x & reads[0] for x in slice_}) < cert.domain_size // 10


def test_involution_net_weight_equals_embedded():
    for n in range(2, 5):
        for k in (n - 1, n):
            cap = 25
            net = weighted_count(domain_slice(n, k, cap))
            embedded = weighted_count(enum_P(n - 1, k - 1, cap))
            assert net == embedded


# the index rule and the maps' domains -------------------------------------------

def paper_map(n, k):
    """The index rule as the module docstring states it."""
    if 0 <= k <= n - 2:
        return "phi"
    if n >= 2 and k in (n - 1, n):
        return "involution"
    return None


def test_lowering_map_is_the_index_rule():
    for n in range(-1, 8):
        for k in range(-2, n + 3):
            if paper_map(n, k) is None:
                with pytest.raises(ValueError):
                    andrews12.lowering_map(n, k)
            else:
                assert andrews12.lowering_map(n, k) == paper_map(n, k), (n, k)


def paper_P(n, k, t):
    """t in P(n,k), from the module docstring: 0 <= k <= n, tau the
    staircase with n-k rows (zero part included), lam strictly decreasing
    with parts in [n-k+1, n+k], mu even with largest part <= 2k."""
    lam, mu = t.lam.parts, t.mu.parts
    return (0 <= k <= n
            and t.tau.parts == tuple(range(n - k - 1, -1, -1))
            and all(a > b for a, b in zip(lam, lam[1:]))
            and all(n - k + 1 <= p <= n + k for p in lam)
            and all(p % 2 == 0 and 0 < p <= 2 * k for p in mu))


def paper_domain(n, k, x):
    """P(n,k) together with marker-(2n-1) copies of P(n-1,k-1)."""
    if isinstance(x, MarkedObject):
        return (x.marker_q, x.marker_z) == (2 * n - 1, 0) and paper_P(n - 1, k - 1, x.payload)
    return paper_P(n, k, x)


def domain_neighbourhood(n, k):
    """Triples one step outside P(n,k) and P(n-1,k-1) on every side: tau
    with n-k-1 .. n-k+1 rows, lam with at most two parts in [n-k, n+k+1] or
    a repeated part, mu with one even part up to 2k+2 or an odd part; each
    also unmarked and under markers 2n-3, 2n-1, 2n+1 with marker_z -1, 0, 1."""
    taus = [staircase(r) for r in range(max(n - k - 1, 0), n - k + 2)]
    whole_range = sum(range(n + k + 2))
    lams = [lam for lam in enum_distinct_range(max(n - k, 0), n + k + 1, whole_range)
            if lam.length <= 2]
    lams.append(Partition((n + k + 1, n + k + 1)))
    mus = [Partition((p,) if p else ()) for p in range(0, 2 * k + 3, 2)] + [Partition((1,))]
    triples = [Triple(tau, lam, mu) for tau in taus for lam in lams for mu in mus]
    return triples + [MarkedObject(w, t, marker_z=z) for t in triples
                      for w in (2 * n - 3, 2 * n - 1, 2 * n + 1) if w >= 0
                      for z in (-1, 0, 1)]


@pytest.mark.parametrize("name", ["phi", "involution"])
def test_maps_accept_exactly_their_domain(name):
    step = {"phi": phi, "involution": involution}[name]
    for n in range(5):
        for k in range(-1, n + 2):
            in_domain = paper_map(n, k) == name
            accepted = set()
            for x in domain_neighbourhood(n, k):
                try:
                    step(n, k, x)
                except ValueError:
                    assert not (in_domain and paper_domain(n, k, x)), (n, k, x)
                else:
                    assert in_domain and paper_domain(n, k, x), (n, k, x)
                    accepted.add(type(x))
            if in_domain:  # the neighbourhood reaches both parts of the domain
                assert accepted == ({Triple, MarkedObject} if k else {Triple}), (n, k)


def packed_neighbourhood(n, k, cap, lay):
    """Packed ints around the maps' domain and phi's codomain at (n, k):
    each element of both slices at `cap`, bare and under the markers 2n-3
    and 2n-1 (at k = 0 the marked ones over P(n,0) are the copies of the
    empty P(n-1,-1)), and each of those one unit off in the marker, the
    row count, one lam part n-k-1 .. n+k+1 or one mu part 2 .. 2k+4: one
    past each end of the parts' ranges."""
    field = lay.field
    slices = andrews12._domain(n, k) + andrews12._codomain(n, k)
    bare = {x - (x & field) for x in andrews12._enum_packed(slices, cap, lay)}
    marked = {x + marker for x in bare for marker in (0, 2 * n - 3, 2 * n - 1)}
    units = ([1, 1 << lay.rows] + [lay.part(p) for p in range(max(n - k - 1, 1), n + k + 2)]
             + [lay.mu.unit(p) for p in range(2, 2 * k + 5, 2)])
    return sorted(marked | {x + sign * unit for x in marked for unit in units
                            for sign in (1, -1) if x + sign * unit >= 0})


@pytest.mark.parametrize("name", ["phi", "involution"])
def test_each_rule_refuses_every_non_member_with_its_maps_text(name):
    # The packed rule alone tests membership: each guard holds its domain
    # part's masks.  Each int it refuses decodes to a non-member of the
    # domain, and it refuses with the public map's text for that element,
    # which the public map itself gives at n <= 4 (the public calls are
    # most of the test's time); each member it maps as the public map does.
    public = {"phi": phi, "involution": involution}[name]
    refused = 0
    for n in range(2, 7):
        for k in range(n + 1):
            if paper_map(n, k) != name:
                continue
            cap = (n - k) * (n - k - 1) // 2 + 2 * n - 1  # the marked part's least weight
            lay = andrews12._layout(n, cap)
            rule, decode = andrews12._step(name, n, k, lay), andrews12._decoder(lay)
            for c in packed_neighbourhood(n, k, cap, lay):
                x = decode(c)
                if paper_domain(n, k, x):
                    assert decode(rule(c)) == public(n, k, x), (n, k, x)
                    continue
                text = f"{x} is not in the domain of {name} at n={n}, k={k}"
                with pytest.raises(ValueError) as packed:
                    rule(c)
                assert str(packed.value) == text, (n, k, x)
                if n <= 4:
                    with pytest.raises(ValueError) as triple:
                        public(n, k, x)
                    assert str(triple.value) == text, (n, k, x)
                refused += 1
    assert refused > 0


# one broken case at a time: each certificate sees every case of its map ---------

def phi_case(n, k, x):
    """The case of phi's docstring that x falls in, from the raw predicates."""
    if isinstance(x, MarkedObject):
        return "marked"
    if k == 0:
        return "k=0"
    flags = raw_domain_flags(n, k, x)
    return next(tag for tag, flag in flags.items() if flag).value


def involution_case(n, k, x):
    """The rule (a)-(e) of the involution's docstring that x falls under."""
    toggle = 2 * k
    if isinstance(x, MarkedObject):
        return "d"
    if toggle in x.lam.parts:
        return "a"
    if toggle in x.mu.parts:
        return "b"
    if x.lam.first == 2 * n - 1:
        return "c"
    return "e"


@pytest.mark.parametrize("name", ["phi", "involution"])
def test_each_table_row_is_its_docstring_case(name):
    # the case a table's first match gives each element of the domain is
    # the one its map's docstring names (phi's A covers k = 0); phi's image
    # of each case is in that case's image class
    table_of = {"phi": andrews12._phi_table, "involution": andrews12._involution_table}[name]
    case_of = {"phi": phi_case, "involution": involution_case}[name]
    for n in range(2, 6):
        for k in range(n + 1):
            if paper_map(n, k) != name:
                continue
            for cap in (n * n, 30):
                lay = andrews12._layout(n, cap)
                table = table_of(n, k, lay)
                row_case = first_match((guard, case) for case, guard, *_ in table)
                for x in domain_slice(n, k, cap):
                    case, expected = row_case(andrews12._encode(x, lay)), case_of(n, k, x)
                    assert getattr(case, "value", case) == {"k=0": "A"}.get(expected, expected), \
                        (n, k, cap, x)
                if name == "phi":
                    assert_images_in_their_class(n, k, cap, table, lay)


def assert_images_in_their_class(n, k, cap, table, lay):
    """phi's image of each case is in that case's image class."""
    row_case = first_match((guard, case) for case, guard, *_ in table)
    image_case = first_match((image, case) for *_, case, image in table)
    image_of = {case: image for case, _, _, image, _ in table}
    step = andrews12._step("phi", n, k, lay)
    for x in andrews12._enum_packed(andrews12._domain(n, k), cap, lay):
        assert image_case(step(x)) is image_of[row_case(x)], (n, k, cap, x)


def faulty_rule(true_rule, fault):
    """A packed rule factory like true_rule whose map decodes its element
    and image, applies the Triple-level fault(n, k, x, y) and encodes the
    result back, handed over in the rule's form (shifts, read)."""
    def factory(n, k, lay):
        step, decode = stepping(true_rule(n, k, lay)), andrews12._decoder(lay)

        def broken(x):
            return andrews12._encode(fault(n, k, decode(x), decode(step(x))), lay)
        return as_rule(broken)
    return factory


def _toggle_two(x):
    if 2 in x.lam.parts:
        return Triple(x.tau, without_part(x.lam, 2), with_part(x.mu, 2))
    if 2 in x.mu.parts:
        return Triple(x.tau, with_part(x.lam, 2), without_part(x.mu, 2))
    return x


# (map, case, n, k, cap, fault(n, k, x, true image), reason, where the
# counterexample shows the broken case: its element, its image, or the
# second element of a collision)
MUTATIONS = [
    ("phi", "k=0", 3, 0, 20,  # the wrong outgoing marker
     lambda n, k, x, y: MarkedObject(2 * n - 1, y.payload),
     "not-in-codomain", "element"),
    ("phi", "embedded", 4, 2, 30,  # lowered like class A, without its mu row
     lambda n, k, x, y: MarkedObject(2 * n - 3, Triple(drop_first_rows(x.tau, 2), x.lam, x.mu)),
     "weight-mismatch", "element"),
    ("phi", "A", 4, 2, 30,  # the image loses its marker
     lambda n, k, x, y: y.payload,
     "not-in-codomain", "element"),
    ("phi", "B", 4, 2, 30,  # the top part does not shrink
     lambda n, k, x, y: MarkedObject(y.marker_q, Triple(y.payload.tau, x.lam, x.mu)),
     "not-in-codomain", "element"),
    ("phi", "C", 4, 2, 30,  # mu does not gain its part 2k
     lambda n, k, x, y: MarkedObject(y.marker_q, Triple(y.payload.tau, y.payload.lam, x.mu)),
     "weight-mismatch", "element"),
    ("phi", "marked", 4, 2, 30,  # lam does not gain n-k and n-k-1: class A's image
     lambda n, k, x, y: MarkedObject(y.marker_q, Triple(y.payload.tau, x.payload.lam, x.payload.mu)),
     "collision", "second"),
    ("involution", "a", 3, 2, 20,  # the toggle is copied to mu, not moved
     lambda n, k, x, y: Triple(x.tau, x.lam, with_part(x.mu, 2 * k)),
     "not-involutive", "image"),
    ("involution", "b", 3, 2, 20,  # the toggle is copied to lam, not moved
     lambda n, k, x, y: Triple(x.tau, with_part(x.lam, 2 * k), x.mu),
     "not-involutive", "element"),
    # the toggle moves to lam as part n+k+1, outside the map's domain; a
    # second rule-(b) row, so it names itself (an explicit id wins over ids=)
    pytest.param("involution", "b", 3, 2, 20,
                 lambda n, k, x, y: Triple(y.tau, with_part(x.lam, n + k + 1), y.mu),
                 "not-in-codomain", "element", id="involution-b-leaves-domain"),
    ("involution", "c", 3, 2, 20,  # the part 2n-1 is stripped without its marker
     lambda n, k, x, y: y.payload,
     "not-involutive", "element"),
    ("involution", "d", 3, 2, 20,  # the marker is absorbed without its part
     lambda n, k, x, y: x.payload,
     "not-involutive", "image"),
    ("involution", "e", 3, 2, 20,  # fixed points toggle on part 2, the toggle of k = 1
     lambda n, k, x, y: _toggle_two(x),
     "fixed-set-mismatch", "element"),
]


@pytest.mark.parametrize("name, case, n, k, cap, fault, reason, where", MUTATIONS,
                         ids=[f"{m[0]}-{m[1]}" for m in MUTATIONS])
def test_certificate_sees_a_fault_in_each_case(monkeypatch, name, case, n, k, cap,
                                               fault, reason, where):
    body = {"phi": "_phi_rule", "involution": "_involution_rule"}[name]  # what the certificate calls
    case_of = {"phi": phi_case, "involution": involution_case}[name]
    certificate = {"phi": phi_certificate, "involution": involution_certificate}[name]
    assert certificate(n, k, cap).verified
    assert case in {case_of(n, k, x) for x in domain_slice(n, k, cap)}

    def broken(nn, kk, x, y):
        return fault(nn, kk, x, y) if case_of(nn, kk, x) == case else y

    monkeypatch.setattr(andrews12, body, faulty_rule(getattr(andrews12, body), broken))
    cert = certificate(n, k, cap)
    assert not cert.verified
    counterexample = cert.counterexample
    assert counterexample["reason"] == reason
    shown = (counterexample["element"]["second"] if where == "second"
             else counterexample[where])
    assert case_of(n, k, shown) == case, counterexample


# the packed rules against the Triple-level oracle ------------------------------

def oracle_phi(n, k, x):
    """phi on Triples, case by case as its docstring states it."""
    marker_out = 2 * n - 3
    if isinstance(x, MarkedObject):
        t = x.payload
        lam = with_part(with_part(t.lam, n - k), n - k - 1)
        return MarkedObject(marker_out, Triple(drop_first_rows(t.tau, 2), lam, t.mu))
    t = x
    top, second = n + k in t.lam.parts, n + k - 1 in t.lam.parts
    tau2 = drop_first_rows(t.tau, 2)
    if top and second:
        lam = replace_part(replace_part(t.lam, n + k, n - k), n + k - 1, n - k - 1)
        return MarkedObject(marker_out, Triple(tau2, lam, with_part(t.mu, 2 * k)))
    if top or second:
        part = n + k if top else n + k - 1
        return MarkedObject(marker_out,
                            Triple(tau2, replace_part(t.lam, part, part - 2 * k), t.mu))
    if t.mu.first == 2 * k:
        return MarkedObject(marker_out, Triple(tau2, t.lam, drop_first(t.mu)))
    return t


def oracle_involution(n, k, x):
    """The involution on Triples, rules (a)-(e) as its docstring states them."""
    toggle = 2 * k
    marker_part = 2 * n - 1
    if isinstance(x, MarkedObject):
        t = x.payload
        return Triple(t.tau, with_part(t.lam, marker_part), t.mu)
    t = x
    if toggle in t.lam.parts:
        return Triple(t.tau, without_part(t.lam, toggle), with_part(t.mu, toggle))
    if toggle in t.mu.parts:
        return Triple(t.tau, with_part(t.lam, toggle), without_part(t.mu, toggle))
    if t.lam.first == marker_part:
        return MarkedObject(marker_part,
                            Triple(t.tau, without_part(t.lam, marker_part), t.mu))
    return t


@pytest.mark.parametrize("n", range(2, 6))
def test_packed_rules_match_the_triple_oracle(n):
    # Every cap up to 30 has its own layout; below n = 2 no map lowers.
    for k in range(n + 1):
        name = andrews12.lowering_map(n, k)
        oracle = {"phi": oracle_phi, "involution": oracle_involution}[name]
        for cap in range(31):
            lay = andrews12._layout(n, cap)
            rule, decode = andrews12._step(name, n, k, lay), andrews12._decoder(lay)
            for x in domain_slice(n, k, cap):
                assert decode(rule(andrews12._encode(x, lay))) == oracle(n, k, x), \
                    (n, k, cap, x)


def test_packed_membership_is_the_paper_domain():
    # At the layout of each element's own weight and at a cap's layout; an
    # element with no packed form (a repeated lam part, an odd mu part, a
    # marker with z) is in no domain.
    for n in range(5):
        for k in range(-1, n + 2):
            for x in domain_neighbourhood(n, k):
                packed, own = andrews12._pack(n, x)
                at_cap = andrews12._layout(n, 40)
                for lay, p in ((own, packed), (at_cap, andrews12._encode(x, at_cap))):
                    member = p is not None and telescope.passes(
                        andrews12._member(andrews12._domain(n, k), lay), p)
                    assert member == paper_domain(n, k, x), (n, k, x)


def test_slice_helpers_agree_on_every_slice():
    # The domain, codomain and embedded slice: the counter counts what the
    # enumerator yields, each element passes the masks of its own part and
    # of no other, and the slice's member reads it its own part.  At n <= 1
    # some parts are empty, and at n = 0 the domain's marker 2n-1 is -1: an
    # empty part's masks must stay NEVER.
    for n in range(7):
        for k in range(-1, n + 2):
            for cap in sorted({0, n * n, 30}):
                lay = andrews12._layout(n, cap)
                for parts in (andrews12._domain(n, k), andrews12._codomain(n, k),
                              andrews12._embedded(n, k)):
                    elements = list(andrews12._enum_packed(parts, cap, lay))
                    assert andrews12._count_classes(parts, cap, lay, 0)[0] == len(elements), \
                        (n, k, cap, parts)
                    masks = andrews12._slice_masks(parts, lay)
                    owners = [[i for i, (forbidden, expected) in enumerate(masks)
                               if x & forbidden == expected] for x in elements]
                    parts_of = [i for i, part in enumerate(parts)
                                for _ in andrews12._enum_packed((part,), cap, lay)]
                    assert owners == [[i] for i in parts_of], (n, k, cap, parts)
                    member, read = andrews12._member(parts, lay)
                    assert [member[x & read] for x in elements] == \
                        [parts[i] for i in parts_of], (n, k, cap, parts)


def test_factors_are_the_reference_enumerations():
    # _factors builds lam and mu packed; the references build part tuples,
    # packed here after they are built.  Order and weights are compared
    # too.  A lexicographic enumeration cut at a cap is the enumeration
    # there, and so is its prefix up to a largest part, so mu is
    # enumerated once, at the largest cap and part, and lam once per
    # (n, k).  A packed lam is its bitmask shifted to the lam field, and a
    # packed mu its multiplicities at the layout's width shifted to the mu
    # field.
    top = 9 * 9 + 15
    all_mus = [(sum(mu), mu) for mu in _even_parts(2 * 9, top // 2, top)]
    packed_mus = {}  # (k, width) -> mus packed from bit 0, by weight

    def mus_of(k, width):
        if (k, width) not in packed_mus:
            # the mus with parts <= 2k are a prefix, up to the first (2k + 1,)
            prefix = all_mus[:bisect_right(all_mus, (2 * k + 1,), key=lambda wm: wm[1])]
            unit = {p: 1 << (p // 2 - 1) * width for p in range(2, 2 * k + 1, 2)}.__getitem__
            by_weight = packed_mus[k, width] = [[] for _ in range(top + 1)]
            for weight, mu in prefix:
                by_weight[weight].append(sum(map(unit, mu)))
        return packed_mus[k, width]

    for n in range(10):
        caps = (0, 1, n, n * n, n * n + 15)
        for k in range(-1, n + 2):
            rows = n - k
            budgets = [cap - rows * (rows - 1) // 2 for cap in caps]
            lams = []
            if 0 <= k <= n:
                lams = [(lam.weight, sum(map((1).__lshift__, lam.parts)))
                        for lam in enum_distinct_range(n - k + 1, n + k, max(budgets))]
            for cap, budget in zip(caps, budgets):
                lay = andrews12._layout(n, cap)
                expected = ([], [])
                if lams and budget >= 0:
                    row, at = rows << lay.rows, lay.mu.at
                    expected = ([(weight, lam << lay.lam) for weight, lam in lams
                                 if weight <= budget],
                                [[row + (mu << at) for mu in mus]
                                 for mus in mus_of(k, lay.width)[:budget + 1]])
                # lam comes as counts by (weight, bits), mu as counts by
                # bits for each weight, each count 1 at reads -1
                lams_counted, mus = andrews12._factors(n, k, cap, lay)
                assert (list(lams_counted), list(map(list, mus))) == expected, (n, k, cap)
                assert set(itertools.chain(lams_counted.values(),
                                           *(by_weight.values() for by_weight in mus))) \
                    <= {1}, (n, k, cap)


def test_packed_ints_lie_below_the_span():
    # Every element the enumerator yields and every image a rule returns
    # packs below the layout's span.  No int with a bit at or above the span
    # passes a mask of a slice's part: each forbids every such bit and
    # expects none, or is NEVER.  So no image the certificates take back
    # has one, and the map refuses it.
    for n in range(7):
        for k in range(-1, n + 2):
            for cap in sorted({0, n * n, 30}):
                lay = andrews12._layout(n, cap)
                name = paper_map(n, k)
                for parts in (andrews12._domain(n, k), andrews12._codomain(n, k),
                              andrews12._embedded(n, k)):
                    for forbidden, expected in andrews12._slice_masks(parts, lay):
                        assert (forbidden, expected) == telescope.NEVER or (
                            forbidden | lay.span - 1 == -1 and 0 <= expected < lay.span), \
                            (n, k, cap, parts)
                    elements = list(andrews12._enum_packed(parts, cap, lay))
                    assert all(0 <= x < lay.span for x in elements), (n, k, cap, parts)
                    if name and parts == andrews12._domain(n, k):
                        step = andrews12._step(name, n, k, lay)
                        assert all(0 <= step(x) < lay.span for x in elements), (n, k, cap)
                        for x in elements[:50]:
                            with pytest.raises(ValueError):
                                step(x + lay.span)


# truncated sums --------------------------------------------------------------------

def test_F_trunc_frozen_values():
    assert F_trunc(0, 10) == TruncatedSeries(10, {0: 1})
    assert F_trunc(1, 10) == TruncatedSeries(10, {0: 2, 1: -1})
    assert F_trunc(2, 10) == TruncatedSeries(10, {0: 2, 3: -2, 4: 1})


def test_F_trunc_equals_slice_sum():
    # The pooled computation must agree with summing enum_P objects directly.
    for n in range(4):
        cap = n * n + 10
        acc = TruncatedSeries(cap)
        for k in range(n + 1):
            for t in enum_P(n, k, cap):
                acc = acc + TruncatedSeries(cap, {t.total_weight: t.sign})
        assert acc == F_trunc(n, cap)


def F_enumerated(n, cap):
    """The oracle for F_trunc: enumerate lam and mu, pool each by weight."""
    terms = {}
    for k in range(n + 1):
        tau_weight = staircase(n - k).weight
        if tau_weight > cap:
            continue
        mu_hist = {}
        for mu in enum_even_capped(2 * k, cap - tau_weight):
            mu_hist[mu.weight] = mu_hist.get(mu.weight, 0) + 1
        lam_hist = {}
        for lam in enum_distinct_range(n - k + 1, n + k, sum(range(n - k + 1, n + k + 1))):
            if tau_weight + lam.weight <= cap:
                sign = -1 if lam.length % 2 else 1
                lam_hist[lam.weight] = lam_hist.get(lam.weight, 0) + sign
        for lam_w, lam_count in lam_hist.items():
            for mu_w, mu_count in mu_hist.items():
                w = tau_weight + lam_w + mu_w
                if w <= cap:
                    terms[w] = terms.get(w, 0) + lam_count * mu_count
    return TruncatedSeries(cap, terms)


@pytest.mark.parametrize("n", range(9))
def test_F_trunc_matches_enumeration(n):
    # Small caps leave out the summands whose staircase alone exceeds the cap.
    # A triple's weight does not depend on the cap, so the enumeration at
    # the largest cap, cut at a smaller one, is the enumeration at that cap.
    caps = (0, 1, n * n, n * n + 15, n * n + 30)
    enumerated = coeffs(F_enumerated(n, max(caps)))
    for cap in caps:
        expected = {e: c for e, c in enumerated.items() if e <= cap}
        assert coeffs(F_trunc(n, cap)) == expected, cap


def test_F_trunc_chain_matches_the_per_k_dp():
    # Caps below the staircase weights and below lam's parts too, which the
    # enumeration oracle does not reach at these n.
    for n in range(25):
        for cap in sorted({0, 1, 2, n, n * n, n * n + 15}):
            assert F_trunc(n, cap) == F_trunc_per_k(n, cap), (n, cap)


def test_F_trunc_matches_the_carried_histogram():
    # Every cap up to past the tail, so each staircase monomial and each
    # part of lam and mu enters at a cap of its own.
    for n in range(13):
        for cap in range(n * n + 20):
            assert F_trunc(n, cap) == F_trunc_carried(n, cap), (n, cap)


def test_F_trunc_cut_at_a_smaller_cap_is_F_trunc_there():
    for n in range(13):
        wide = coeffs(F_trunc(n, n * n + 20))
        for cap in range(n * n + 20):
            expected = {e: c for e, c in wide.items() if e <= cap}
            assert coeffs(F_trunc(n, cap)) == expected, (n, cap)


def test_F_trunc_matches_sympy_summands():
    # Each summand (q^(n-k+1);q)_{2k} / (q^2;q^2)_k * q^C(n-k,2), divided out.
    sympy = pytest.importorskip("sympy")
    q = sympy.Symbol("q")

    def poch(a, base, length):
        return sympy.prod([1 - a * base ** i for i in range(length)])

    for n in range(9):
        cap = n * n + 15
        total = sum(sympy.cancel(poch(q ** (n - k + 1), q, 2 * k)
                                 / poch(q ** 2, q ** 2, k))
                    * q ** ((n - k) * (n - k - 1) // 2) for k in range(n + 1))
        poly = sympy.Poly(sympy.expand(total), q)
        expected = {e: int(c) for (e,), c in poly.terms() if e <= cap}
        assert coeffs(F_trunc(n, cap)) == expected, n


def test_F_trunc_tail_cancels_above_n_squared():
    for n in range(6):
        series = F_trunc(n, n * n + 15)
        assert all(e <= n * n for e in coeffs(series))


def test_sum_level_consequence_both_routes():
    # combinatorial route
    for n in range(2, 6):
        cap = n * n + 15
        window = cap - (2 * n - 1)
        lhs = F_trunc(n, cap) + F_trunc(n - 1, cap).mul_poly(mono(1, 2 * n - 1))
        rhs = F_trunc(n - 1, cap) + F_trunc(n - 2, cap).mul_poly(mono(1, 2 * n - 3))
        assert lhs.first_mismatch(rhs, window) is None
    # closed-form route, exact polynomials
    for n in range(2, 8):
        lhs = rhs_andrews(n) + mono(1, 2 * n - 1) * rhs_andrews(n - 1)
        rhs = rhs_andrews(n - 1) + mono(1, 2 * n - 3) * rhs_andrews(n - 2)
        assert lhs == rhs


# verify_andrews ----------------------------------------------------------------------

def test_verify_examples():
    assert verify_andrews(2, 20, "identity").verified
    assert verify_andrews(2, 20, "rec_fn").verified
    assert verify_andrews(1, 20, "gn").verified


def test_verify_reaches_n_20():
    for n in range(21):
        cap = n * n + 15
        for which, n_min in (("identity", 0), ("gn", 1), ("rec_fn", 2)):
            if n >= n_min:
                assert verify_andrews(n, cap, which).verified, (n, which)


def test_verify_reaches_n_60():
    cap = 60 * 60 + 15
    for which in andrews12.sum_checks(60):
        assert verify_andrews(60, cap, which).verified, which
    assert F_trunc(60, cap) == truncate(rhs_andrews(60), cap)


def test_verify_records_effective_window():
    cert = verify_andrews(3, 24, "rec_fn")
    assert cert.params["window"] == 24 - 5


def test_verify_preconditions():
    with pytest.raises(ValueError):
        verify_andrews(2, 3, "identity")       # cap below n^2
    with pytest.raises(ValueError):
        verify_andrews(1, 20, "rec_fn")        # needs n >= 2
    with pytest.raises(ValueError):
        verify_andrews(0, 20, "gn")            # needs n >= 1
    with pytest.raises(ValueError):
        verify_andrews(2, 20, "nonsense")


def test_sum_checks_apply_from_their_first_n():
    assert andrews12.sum_checks(0) == ["identity"]
    assert andrews12.sum_checks(1) == ["identity", "gn"]
    assert andrews12.sum_checks(5) == ["identity", "rec_fn", "gn"]
    with pytest.raises(ValueError):
        andrews12.sum_checks(-1)
    for n in range(4):
        for which in ("identity", "rec_fn", "gn", "nonsense"):
            if which in andrews12.sum_checks(n):
                assert verify_andrews(n, n * n + 10, which).verified
            else:
                with pytest.raises(ValueError):
                    verify_andrews(n, n * n + 10, which)


def test_identity_mismatch_reports_first_exponent(monkeypatch):
    def perturbed(n):
        return rhs_andrews(n) + mono(1, 2)

    monkeypatch.setattr(andrews12, "rhs_andrews", perturbed)
    cert = verify_andrews(2, 20, "identity")
    assert not cert.verified
    assert cert.counterexample["element"] == {"q_exp": 2}
    assert cert.counterexample["reason"] == "coefficient-mismatch"


def test_triple_json_form():
    t = T((1, 0), (4,), (2, 2))
    assert t.to_json_obj() == {"tau": [1, 0], "lambda": [4], "mu": [2, 2]}
