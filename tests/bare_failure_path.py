"""The failure path on the bare standard library.

A rule is patched to a fault for each of the four certificate kinds, and
each certificate must come back failed, with the expected reason, instead
of raising.  That runs the failure path behind a failed certificate: the
Andrews phi oracle (telescope.check_graded_bijection, weighing with
weight_of), the Andrews involution's set-based check
(andrews12._involution_failure), the MacMahon step certificate's oracle
and the MacMahon cancelation's search for the orbit that runs out of
budget.

    PYTHONPATH=src python -S tests/bare_failure_path.py

Exits 0 when every certificate fails as expected.
"""

import sys

from qtelescope import andrews12, macmahon


def gains_a_part_2(x, y, lay):
    """A moved Andrews element's image gains one mu part 2."""
    return y + lay.mu.unit(2) if y != x else y


def marked_stays(x, y, lay):
    """A MacMahon pair whose image would be marked is its own image: the
    cancelation's orbit cycles."""
    return x if y & macmahon._MARKED else y


# (module, rule factory, fault, certificate, expected reason)
CASES = [
    (andrews12, "_phi_rule", gains_a_part_2,
     lambda: andrews12.phi_certificate(5, 2, 30), "weight-mismatch"),
    (andrews12, "_involution_rule", gains_a_part_2,
     lambda: andrews12.involution_certificate(4, 4, 30), "not-involutive"),
    (macmahon, "_step_rule", marked_stays,
     lambda: macmahon.phi_certificate(3, 2, 1), "not-in-codomain"),
    (macmahon, "_step_rule", marked_stays,
     lambda: macmahon.cancelation_certificate(2, 2), "orbit-exceeds-budget"),
]


def faulty(true_factory, fault):
    """A rule factory like true_factory (its last argument the layout)
    whose rule sends x to fault(x, the true image, the layout)."""
    def factory(*args):
        step, lay = true_factory(*args), args[-1]
        return lambda x: fault(x, step(x), lay)
    return factory


def main() -> int:
    wrong = 0
    for module, name, fault, certificate, reason in CASES:
        true_factory = getattr(module, name)
        setattr(module, name, faulty(true_factory, fault))
        try:
            cert = certificate()
        finally:
            setattr(module, name, true_factory)
        got = None if cert.verified else cert.counterexample["reason"]
        print(f"{cert.summary()}  (expected reason={reason})")
        wrong += got != reason
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
