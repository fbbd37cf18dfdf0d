"""The failure path on the bare standard library.

Each case puts a fault into one name of the library, and its certificate
must come back failed, with the expected reason, instead of raising.
There is one case per failure reason that a control in the tests reaches
in a library certificate, and one per failed sub-check of
verify_macmahon, each named by the sub-check's own reason.  Together they
run the failure path behind a failed certificate: the Andrews phi oracle
(telescope.check_graded_bijection, weighing with weight_of), the Andrews
involution's set-based check (andrews12._involution_failure), the
MacMahon step certificate's oracle, the MacMahon cancelation's search
for the orbit that raises, and the sum checks of both families: the
MacMahon recurrences, which decode their packed counts, the telescoping
check on psi's decoded counts, the closed form, and the enumerated
totals against it.  The closed form is compared in the sum side's packing
where both factors pack and their product fits, else as polynomials: at
(1, 1) a term q^9 in each factor is past the packing's q^4, so it goes to
the polynomials, while a term z^-2 q packs (z_lo is -m - 1) and fails the
packed comparison.  The faults act on the packed ints the rules see, or on the
leaves the sums enumerate, so they need no test helper and no package
outside the standard library.

    PYTHONPATH=src python -S tests/bare_failure_path.py

prints each certificate's summary and its JSON, counterexample included,
and exits 0 when every certificate fails as expected.
tests/test_reachability.py drives these same cases.
"""

import sys

from qtelescope import andrews12, macmahon
from qtelescope.partitions import Memo
from qtelescope.qalgebra import LaurentPoly
from qtelescope.telescope import telescoping_sum_check, weight_of


def gains_a_part_2(x, y, lay):
    """A moved Andrews element's image gains one mu part 2."""
    return y + lay.mu.unit(2) if y != x else y


def toggles_two(x, y, lay):
    """A fixed point of the Andrews involution toggles the part 2 between
    lam and mu, the toggle of k = 1: the fixed set shrinks."""
    if y != x:
        return y
    if x & lay.part(2):
        return x - lay.part(2) + lay.mu.unit(2)
    if x & lay.field * lay.mu.unit(2):
        return x + lay.part(2) - lay.mu.unit(2)
    return x


def marked_stays(x, y, lay):
    """A MacMahon pair whose image would be marked is its own image: the
    cancelation's orbit cycles."""
    return x if y & macmahon._MARKED else y


def loses_its_marker(x, y, lay):
    """A MacMahon image keeps all but its marker: it is another pair's own
    image."""
    return y & ~macmahon._MARKED


def second_first_row(m):
    """A fault of phi at m: a MacMahon pair on its own box's boundary,
    which is its own image, gains a second first row."""
    def fault(x, y, lay):
        bound = 2 * m + 2 * ((x >> macmahon._SIDE & lay.field) + lay.lo)
        if y == x and bound > 0 and x & lay.field * lay.mu.unit(bound):
            return x + lay.mu.unit(bound) + (1 << lay.length)
        return y
    return fault


def faulty(fault):
    """The fault as a change to a rule factory (its last argument the
    layout): the rule sends x to fault(x, the true image, the layout)."""
    def wrap(true_factory):
        def factory(*args):
            step, lay = true_factory(*args), args[-1]
            return lambda x: fault(x, step(x), lay)
        return factory
    return wrap


def stepping(rule):
    """A rule, the table (shifts, read), as a call on the packed ints of
    its domain, as the kernels read it: KeyError where it refuses x."""
    shifts, read = rule
    return lambda x: x + shifts[x & read]


def as_rule(broken):
    """A map of packed ints in a rule's form (shifts, read): the shifts
    are read on all of x, and x + shifts[x] is broken(x)."""
    return Memo(lambda x: broken(x) - x), -1


def in_rule_form(change):
    """A change to a rule factory of calls, such as faulty(fault), made to
    a rule factory of either family (its last argument the layout): the
    true rule is read as a call, and the changed call is handed back as a
    rule."""
    def wrap(true_rule):
        def factory(*args):
            step = stepping(true_rule(*args))
            return as_rule(change(lambda *_: step)(*args))
        return factory
    return wrap


def crossed_pairs(cap):
    """A change to the involution's rule factory at weight cap `cap`: two
    of its pairs {a, a'} and {c, c'}, where a and c have one weight and
    opposite signs, become {a, c'} and {c, a'}.  The rule stays an
    involution with the same fixed set, and each new pair keeps its weight
    and its sign."""
    def wrap(true_factory):
        def factory(n, k, lay):
            step, decode = true_factory(n, k, lay), andrews12._decoder(lay)
            slice_ = andrews12._enum_packed(andrews12._domain(n, k), cap, lay)
            moved = [(x, weight_of(decode(x))) for x in slice_ if step(x) != x]
            a, c = next((a, c) for a, (sign, _, q) in moved for c, (other, _, r) in moved
                        if q == r and sign != other and c != step(a))
            swaps = {a: step(c), step(c): a, c: step(a), step(a): c}
            return lambda x: swaps[x] if x in swaps else step(x)
        return factory
    return wrap


def miscounts(box, c, boundary=False):
    """A change to the MacMahon box counts: the box off its boundary (with
    `boundary`, on it) counts c more pairs of weight z^side q^(side^2), the
    weight of its pair with the empty mu."""
    side = box[0]

    def wrap(true_counts):
        def counts(b, lay):
            off, on = true_counts(b, lay)
            if b != box:
                return off, on
            extra = lay.pack(LaurentPoly.monomial(c, side, side * side))
            return (off, on + extra) if boundary else (off + extra, on)
        return counts
    return wrap


def drops_the_last_leaf(true_leaves):
    """A change to the leaf enumerator of the MacMahon sums: every leaf
    family of more than one leaf loses its last.  A box's boundary and its
    neighbour's family off the boundary still agree, so only the totals
    against the closed form see it."""
    def leaves(pool, parts):
        found = list(true_leaves(pool, parts))
        return found[:-1] if len(found) > 1 else found
    return leaves


def psi_sum_certificate(n):
    """The telescoping check on the decoded counts of psi at n."""
    f, g, h, k_min, k_max = macmahon.psi_telescoping_counts(n)
    return telescoping_sum_check(f, g, h, k_max=k_max, k_min=k_min)


def plus_term(z, q):
    """A change to a closed form: it gains one term z^z q^q."""
    def wrap(true_form):
        return lambda *args: true_form(*args) + LaurentPoly.monomial(1, z, q)
    return wrap


# (expected reason, module, name, change, certificate): module.name is
# change(its true value) while certificate() runs
CASES = [
    ("weight-mismatch", andrews12, "_phi_rule", in_rule_form(faulty(gains_a_part_2)),
     lambda: andrews12.phi_certificate(5, 2, 30)),
    ("not-involutive", andrews12, "_involution_rule", in_rule_form(faulty(gains_a_part_2)),
     lambda: andrews12.involution_certificate(4, 4, 30)),
    ("sign-not-reversed", andrews12, "_involution_rule", in_rule_form(crossed_pairs(30)),
     lambda: andrews12.involution_certificate(4, 4, 30)),
    ("fixed-set-mismatch", andrews12, "_involution_rule", in_rule_form(faulty(toggles_two)),
     lambda: andrews12.involution_certificate(3, 2, 20)),
    ("coefficient-mismatch", andrews12, "rhs_andrews", plus_term(0, 2),
     lambda: andrews12.verify_andrews(2, 20, "identity")),
    ("not-in-codomain", macmahon, "_index_rule", in_rule_form(faulty(marked_stays)),
     lambda: macmahon.phi_certificate(3, 2, 1)),
    ("collision", macmahon, "_index_rule", in_rule_form(faulty(loses_its_marker)),
     lambda: macmahon.psi_certificate(4, 2)),
    ("orbit-exceeds-budget", macmahon, "_index_rule", in_rule_form(faulty(marked_stays)),
     lambda: macmahon.cancelation_certificate(2, 2)),
    ("orbit-leaves-every-box", macmahon, "_index_rule",
     in_rule_form(faulty(second_first_row(1))),
     lambda: macmahon.cancelation_certificate(1, 1)),
    # compared as polynomials
    ("sub-identity-violated", macmahon, "factor_product", plus_term(0, 9),
     lambda: macmahon.verify_macmahon(1, 1)),
    # compared packed
    ("sub-identity-violated", macmahon, "factor_product", plus_term(-2, 1),
     lambda: macmahon.verify_macmahon(1, 1)),
    ("sub-identity-violated", macmahon, "combinations_with_replacement", drops_the_last_leaf,
     lambda: macmahon.verify_macmahon(4, 4)),
    ("index-relation-violated", macmahon, "_box_counts", miscounts(macmahon._box_P(2, 2, 1), -1),
     lambda: macmahon.verify_macmahon(2, 2)),
    ("index-relation-violated", macmahon, "_box_counts", miscounts(macmahon._box_Q(3, 1), -1),
     lambda: macmahon.verify_macmahon(3, 1)),
    ("h-nonzero-beyond-kmax", macmahon, "_box_counts",
     miscounts(macmahon._box_P(2, 2, 2), 1, boundary=True), lambda: macmahon.verify_macmahon(2, 2)),
    ("h-nonzero-at-start", macmahon, "_box_counts",
     miscounts(macmahon._box_Q(3, 0), 1, boundary=True), lambda: psi_sum_certificate(3)),
]


def reason_of(cert):
    """The reason a certificate failed (None if it did not); for a failed
    sub-check that names its own reason, as a recurrence does, that one."""
    if cert.verified:
        return None
    image = cert.counterexample["image"]
    return image["reason"] if isinstance(image, dict) and "reason" in image \
        else cert.counterexample["reason"]


def main() -> int:
    wrong = 0
    for reason, module, name, change, certificate in CASES:
        true_value = getattr(module, name)
        setattr(module, name, change(true_value))
        try:
            cert = certificate()
        finally:
            setattr(module, name, true_value)
        got = reason_of(cert)
        print(f"{cert.summary()}  (expected reason={reason})\n    {cert.to_json()}")
        wrong += got != reason
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
