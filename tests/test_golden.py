"""Golden certificates: the JSON of a pinned set of certificates, timing
left out, must not change.

Covers `verify macmahon` on 0 <= n, m <= 4, `verify andrews` on n <= 5 at
the default cap, one certificate per check-bijection kind, the MacMahon
cancelation certificate at n = m = 3, and the failure certificates of the
negative controls (graded bijection, involution, Andrews identity,
telescoping sum).

Regenerate the golden file only when a certificate is meant to change:
    PYTHONPATH=src python tests/test_golden.py
"""

import json
from pathlib import Path
from unittest import mock

from qtelescope import andrews12, macmahon
from qtelescope.macmahon import MacPair
from qtelescope.partitions import Partition
from qtelescope.qalgebra import LaurentPoly, rhs_andrews
from qtelescope.telescope import (MarkedObject, check_graded_bijection,
                                  telescoping_sum_check)

from bare_failure_path import as_rule, stepping

GOLDEN = Path(__file__).with_name("golden_certificates.json")


def _andrews_certificates():
    certs = []
    for n in range(6):
        cap = n * n + 15
        certs.append(andrews12.verify_andrews(n, cap, "identity"))
        if n >= 2:
            certs.append(andrews12.verify_andrews(n, cap, "rec_fn"))
        if n >= 1:
            certs.append(andrews12.verify_andrews(n, cap, "gn"))
    return certs


def _bijection_control():
    n, m, k = 2, 1, 0
    # G(n,m,j): the pairs of P(n,m,j) whose largest part equals 2m+2j
    domain = (macmahon.enum_P(n, m, k)
              + [x for x in macmahon.enum_P(n, m, k - 1)
                 if x.mu.first == 2 * m + 2 * (k - 1)])
    codomain = (macmahon.enum_P(n, m - 1, k)
                + [MarkedObject(1, x, marker_z=-1)
                   for x in macmahon.enum_P(n, m - 1, k)]
                + [x for x in macmahon.enum_P(n, m, k)
                   if x.mu.first == 2 * m + 2 * k])
    first = domain[0]

    def broken(x):
        if x == first:
            return MarkedObject(1, MacPair(k, Partition((2, 2))), marker_z=-1)
        return macmahon.phi_step(n, m, k, x)[1]

    return check_graded_bijection(broken, domain, codomain, check="macmahon-phi")


def _telescoping_control():
    f, g, h, k_min, k_max = macmahon.phi_telescoping_counts(2, 2)
    g_bad = dict(g)
    g_bad[1] = g[1] + LaurentPoly.monomial(1, 0, 3)
    return telescoping_sum_check(f, g_bad, h, k_max=k_max, k_min=k_min)


def _involution_control():
    true_rule = andrews12._involution_rule

    def broken_rule(nn, kk, lay):
        step, decode = stepping(true_rule(nn, kk, lay)), andrews12._decoder(lay)

        def broken(x):
            t = decode(x)
            if isinstance(t, andrews12.Triple) and t.lam.parts == (3,) \
                    and t.mu.is_empty():
                return andrews12._encode(t, lay)
            return step(x)
        return as_rule(broken)

    with mock.patch.object(andrews12, "_involution_rule", broken_rule):
        return andrews12.involution_certificate(2, 2, 12)


def _identity_control():
    def shifted(nn):
        return rhs_andrews(nn) + LaurentPoly.monomial(1, 0, 2)

    with mock.patch.object(andrews12, "rhs_andrews", shifted):
        return andrews12.verify_andrews(2, 20, "identity")


def golden_certificates() -> dict:
    """Every pinned certificate as JSON, keyed by group, elapsed_ms dropped."""
    groups = {
        "verify-macmahon": [macmahon.verify_macmahon(n, m)
                            for n in range(5) for m in range(5)],
        "verify-andrews": _andrews_certificates(),
        "check-bijection": [macmahon.phi_certificate(2, 1, 0),
                            macmahon.psi_certificate(2, 1),
                            andrews12.phi_certificate(3, 1, 20),
                            andrews12.involution_certificate(2, 2, 20)],
        "cancelation": [macmahon.cancelation_certificate(3, 3)],
        "negative-controls": [_bijection_control(), _involution_control(),
                              _identity_control(), _telescoping_control()],
    }
    out = {}
    for name, certs in groups.items():
        rows = []
        for cert in certs:
            row = cert.to_json_obj()
            del row["elapsed_ms"]
            rows.append(row)
        out[name] = rows
    return out


def render() -> str:
    return json.dumps(golden_certificates(), sort_keys=True, indent=1) + "\n"


def test_certificates_match_golden_file():
    assert render() == GOLDEN.read_text()


if __name__ == "__main__":
    GOLDEN.write_text(render())
