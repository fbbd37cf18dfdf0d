"""The failure path on the bare standard library.

Each case puts a fault into one name of the library, and its certificate
must come back failed, with the expected reason, instead of raising.
There is one case per failure reason that a control in the tests reaches
in a library certificate.  Together they run the failure path behind a
failed certificate: the Andrews phi oracle
(telescope.check_graded_bijection, weighing with weight_of), the Andrews
involution's set-based check (andrews12._involution_failure), the
MacMahon step certificate's oracle, the MacMahon cancelation's search
for the orbit that raises, and the sum checks of both families.  The
faults act on the packed ints the rules see, so they need no test
helper and no package outside the standard library.

    PYTHONPATH=src python -S tests/bare_failure_path.py

prints each certificate's summary and its JSON, counterexample included,
and exits 0 when every certificate fails as expected.
tests/test_reachability.py drives these same cases.
"""

import sys

from qtelescope import andrews12, macmahon
from qtelescope.qalgebra import LaurentPoly
from qtelescope.telescope import weight_of


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


def plus_q(q):
    """A change to a closed form: it gains one term q^q."""
    def wrap(true_form):
        return lambda *args: true_form(*args) + LaurentPoly.monomial(1, 0, q)
    return wrap


# (expected reason, module, name, change, certificate): module.name is
# change(its true value) while certificate() runs
CASES = [
    ("weight-mismatch", andrews12, "_phi_rule", faulty(gains_a_part_2),
     lambda: andrews12.phi_certificate(5, 2, 30)),
    ("not-involutive", andrews12, "_involution_rule", faulty(gains_a_part_2),
     lambda: andrews12.involution_certificate(4, 4, 30)),
    ("sign-not-reversed", andrews12, "_involution_rule", crossed_pairs(30),
     lambda: andrews12.involution_certificate(4, 4, 30)),
    ("fixed-set-mismatch", andrews12, "_involution_rule", faulty(toggles_two),
     lambda: andrews12.involution_certificate(3, 2, 20)),
    ("coefficient-mismatch", andrews12, "rhs_andrews", plus_q(2),
     lambda: andrews12.verify_andrews(2, 20, "identity")),
    ("not-in-codomain", macmahon, "_step_rule", faulty(marked_stays),
     lambda: macmahon.phi_certificate(3, 2, 1)),
    ("collision", macmahon, "_step_rule", faulty(loses_its_marker),
     lambda: macmahon.psi_certificate(4, 2)),
    ("orbit-exceeds-budget", macmahon, "_step_rule", faulty(marked_stays),
     lambda: macmahon.cancelation_certificate(2, 2)),
    ("orbit-leaves-every-box", macmahon, "_step_rule", faulty(second_first_row(1)),
     lambda: macmahon.cancelation_certificate(1, 1)),
    ("sub-identity-violated", macmahon, "factor_product", plus_q(9),
     lambda: macmahon.verify_macmahon(1, 1)),
]


def main() -> int:
    wrong = 0
    for reason, module, name, change, certificate in CASES:
        true_value = getattr(module, name)
        setattr(module, name, change(true_value))
        try:
            cert = certificate()
        finally:
            setattr(module, name, true_value)
        got = None if cert.verified else cert.counterexample["reason"]
        print(f"{cert.summary()}  (expected reason={reason})\n    {cert.to_json()}")
        wrong += got != reason
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
