"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Every check is exact (zero tolerance); truncated-series checks state their
comparison window explicitly.  Run with `pytest tests/test_acceptance.py -v -s`
to see the per-criterion lines.
"""

import math
import time

from qtelescope import andrews12, cli, macmahon
from qtelescope.andrews12 import (ClassTag, F_trunc, Triple, classify, enum_P,
                                  verify_andrews)
from qtelescope.macmahon import (MacPair, cancelation_certificate,
                                 phi_certificate, phi_telescoping_counts,
                                 psi_certificate, psi_telescoping_counts,
                                 verify_macmahon)
from qtelescope.partitions import Partition, staircase
from qtelescope.qalgebra import (LaurentPoly, TruncatedSeries, factor_product,
                                 gaussian_binomial, rhs_andrews, truncate)
from qtelescope.telescope import (MarkedObject, check_graded_bijection,
                                  telescoping_sum_check)

from bare_failure_path import as_rule, stepping
from reference_enumerators import enum_distinct_range, enum_even_bounded, enum_even_capped
from test_andrews12 import image_class
from test_macmahon import product_sum_F


def report(number, name, failures, extra=""):
    status = "FAIL" if failures else "PASS"
    line = f"criterion {number:2d} [{status}] {name}"
    if extra:
        line += f" ({extra})"
    print(line)
    assert not failures, f"criterion {number} failed: {failures[:3]}"


def mono(c, z=0, q=0):
    return LaurentPoly.monomial(c, z, q)


def enumerated_F(n, m):
    """sum_k of the weighted P(n,m,k) counts, read off the telescoping counts."""
    return sum(phi_telescoping_counts(n, m)[0].values(), LaurentPoly.zero())


def enumerated_F_initial(n):
    """sum_k of the weighted Q(n,k) counts, read off the telescoping counts."""
    return sum(psi_telescoping_counts(n)[1].values(), LaurentPoly.zero())


def test_criterion_01_macmahon_identity_grid():
    started = time.monotonic()
    failures = []
    for n in range(7):
        for m in range(7):
            lhs = product_sum_F(n, m)
            rhs = factor_product(m, 1, -1, 1, 2) * factor_product(n, 1, 1, 1, 2)
            if lhs != rhs:
                failures.append((n, m))
    elapsed = time.monotonic() - started
    assert elapsed < 10.0
    report(1, "MacMahon identity exact on 0 <= n, m <= 6", failures,
           f"{elapsed:.2f}s")


def test_criterion_02_macmahon_recurrences_from_enumerations():
    failures = []
    for n in range(6):
        for m in range(1, 6):
            lhs = enumerated_F(n, m)
            rhs = (LaurentPoly.one() + mono(1, -1, 2 * m - 1)) \
                * enumerated_F(n, m - 1)
            if lhs != rhs:
                failures.append(("m-lowering", n, m))
    for n in range(1, 7):
        lhs = enumerated_F_initial(n)
        rhs = (LaurentPoly.one() + mono(1, 1, 2 * n - 1)) \
            * enumerated_F_initial(n - 1)
        if lhs != rhs:
            failures.append(("n-lowering", n))
    report(2, "both recurrences exact from enumerated sets", failures)


def test_criterion_03_macmahon_bijection_certificates():
    failures = []
    for n in range(6):
        for m in range(1, 6):
            for k in range(-m, n + 1):
                cert = phi_certificate(n, m, k)
                if not cert.verified:
                    failures.append(("phi", n, m, k, cert.counterexample))
    for n in range(1, 7):
        for k in range(n + 1):
            cert = psi_certificate(n, k)
            if not cert.verified:
                failures.append(("psi", n, k, cert.counterexample))
    report(3, "phi/psi bijection certificates on complete finite sets",
           failures)


def test_criterion_04_andrews_identity():
    started = time.monotonic()
    failures = []
    for n in range(7):
        cap = n * n + 15
        if F_trunc(n, cap) != truncate(rhs_andrews(n), cap):
            failures.append(n)
    if F_trunc(1, 16) != TruncatedSeries(16, {0: 2, 1: -1}):
        failures.append("F_1")
    if F_trunc(2, 19) != TruncatedSeries(19, {0: 2, 3: -2, 4: 1}):
        failures.append("F_2")
    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    report(4, "Andrews identity coefficientwise on [0, n^2+15], n <= 6",
           failures, f"{elapsed:.2f}s")


def test_criterion_05_andrews_recurrences():
    failures = []
    for n in range(2, 7):
        cert = verify_andrews(n, n * n + 15, "rec_fn")
        if not cert.verified:
            failures.append(("rec_fn", n, cert.counterexample))
    for n in range(1, 7):
        cert = verify_andrews(n, n * n + 15, "gn")
        if not cert.verified:
            failures.append(("gn", n, cert.counterexample))
    report(5, "three-term recurrence and two-term companion on the "
              "effective windows", failures)


def test_criterion_06_andrews_bijection_certificates():
    failures = []
    for n in range(2, 6):
        for k in range(0, n - 1):
            cert = andrews12.phi_certificate(n, k, 30)
            if not cert.verified:
                failures.append((n, k, cert.counterexample))
    # pinned regression: the staircase rule at n = 2 sends the unique
    # member of the k = 0 column to marker 1 over the empty triple
    start = Triple(staircase(2), Partition(()), Partition(()))
    image = andrews12.phi(2, 0, start)
    expected = MarkedObject(1, Triple(Partition(()), Partition(()),
                                      Partition(())))
    if image != expected:
        failures.append(("pinned n=2 k=0", image))
    report(6, "n-lowering bijection certified on cap-30 slices, "
              "2 <= n <= 5", failures)


def test_criterion_07_involution_certificates():
    failures = []
    for n in range(2, 7):
        for k in (n - 1, n):
            cert = andrews12.involution_certificate(n, k, 30)
            if not cert.verified:
                failures.append((n, k, cert.counterexample))
    report(7, "boundary involutions certified on cap-30 slices, "
              "2 <= n <= 6", failures)


def test_criterion_08_cancelation_engine():
    cert = cancelation_certificate(3, 3)
    failures = [] if cert.verified else [cert.counterexample]
    report(8, "iterated map terminates and certifies as a direct bijection "
              "at n = m = 3", failures)


def brute_partitions(max_part, weight_cap, max_len=None):
    slots = weight_cap if max_len is None else max_len
    found = [()]

    def rec(prefix, limit, budget, left):
        for p in range(1, min(limit, budget) + 1):
            if left == 0:
                return
            t = prefix + (p,)
            found.append(t)
            rec(t, p, budget - p, left - 1)

    rec((), max_part, weight_cap, slots)
    return found


def test_criterion_09_property_suites():
    failures = []
    # classification exhaustiveness and disjointness, domain side
    for n in range(2, 7):
        for k in range(1, n - 1):
            embedded = set()
            for t in enum_P(n, k, 30):
                top = n + k in t.lam.parts
                second = n + k - 1 in t.lam.parts
                flags = [not top and not second and t.mu.first == 2 * k,
                         top != second,
                         top and second,
                         not top and not second and t.mu.first <= 2 * k - 2]
                if sum(flags) != 1:
                    failures.append(("domain-split", n, k, t))
                if classify(n, k, t) is ClassTag.EMBEDDED:
                    embedded.add(t)
            if embedded != set(enum_P(n - 1, k - 1, 30)):
                failures.append(("embedded-mismatch", n, k))
    # codomain side, in the order of the flags below
    images = [ClassTag.A_PRIME, ClassTag.B_PRIME, ClassTag.C_PRIME, ClassTag.D]
    for n in range(2, 7):
        for k in range(0, n - 1):
            for t in enum_P(n - 2, k, 30):
                low = n - k in t.lam.parts
                lower = n - k - 1 in t.lam.parts
                flags = [not low and not lower,
                         low != lower,
                         low and lower and t.mu.first == 2 * k,
                         low and lower and t.mu.first < 2 * k]
                if sum(flags) != 1:
                    failures.append(("codomain-split", n, k, t))
                if not flags[images.index(image_class(n, k, t))]:
                    failures.append(("codomain-class", n, k, t))
    # enumerator completeness against the naive recursive oracle
    for max_part in (0, 2, 4):
        for cap in range(9):
            got = {p.parts for p in enum_even_capped(max_part, cap)}
            want = {t for t in brute_partitions(max_part, cap)
                    if all(x % 2 == 0 for x in t)}
            if got != want:
                failures.append(("even-capped", max_part, cap))
    for max_part in (0, 2, 4):
        for max_len in range(4):
            got = {p.parts for p in enum_even_bounded(max_part, max_len)}
            want = {t for t in brute_partitions(max_part, max_part * max_len,
                                                max_len)
                    if all(x % 2 == 0 for x in t)}
            if got != want:
                failures.append(("even-bounded", max_part, max_len))
    for lo in (1, 2):
        for hi in range(lo - 1, lo + 4):
            got = {p.parts for p in enum_distinct_range(lo, hi, sum(range(lo, hi + 1)))}
            want = {t for t in brute_partitions(max(hi, 0), 40)
                    if len(set(t)) == len(t) and all(lo <= x <= hi for x in t)}
            if got != want:
                failures.append(("distinct-range", lo, hi))
    # Gaussian palindromicity and box-partition counts
    for n in range(13):
        for k in range(n + 1):
            g = gaussian_binomial(n, k, 1)
            coeffs = {q: c for _z, q, c in g.terms()}
            deg = k * (n - k)
            if sum(coeffs.values()) != math.comb(n, k):
                failures.append(("gaussian-mass", n, k))
            if any(coeffs.get(e, 0) != coeffs.get(deg - e, 0)
                   for e in range(deg + 1)):
                failures.append(("gaussian-palindrome", n, k))
    for a in range(9):
        for b in range(9):
            if len(enum_even_bounded(2 * a, b)) != math.comb(a + b, b):
                failures.append(("box-count", a, b))
    report(9, "classification, enumerator-completeness and Gaussian "
              "property suites", failures)


def test_criterion_10_negative_controls(monkeypatch, tmp_path):
    failures = []

    # (i) a perturbed bijection must fail with a concrete counterexample
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
        out = macmahon.phi_step(n, m, k, x)[1]
        if x == first:
            return MarkedObject(1, MacPair(k, Partition((2, 2))), marker_z=-1)
        return out

    cert = check_graded_bijection(broken, domain, codomain, check="macmahon-phi")
    if cert.verified or cert.counterexample is None:
        failures.append("graded-bijection control")

    # (ii) a perturbed coefficient must fail the telescoping sum check
    f, g, h, k_min, k_max = macmahon.phi_telescoping_counts(2, 2)
    g_bad = dict(g)
    g_bad[1] = g[1] + mono(1, 0, 3)
    cert = telescoping_sum_check(f, g_bad, h, k_max=k_max, k_min=k_min)
    if cert.verified or cert.counterexample is None:
        failures.append("telescoping control")

    # (iii) a perturbed involution must fail its certificate
    true_rule = andrews12._involution_rule

    def broken_rule(nn, kk, lay):
        step, decode = stepping(true_rule(nn, kk, lay)), andrews12._decoder(lay)

        def broken_involution(x):
            t = decode(x)
            if isinstance(t, Triple) and t.lam.parts == (3,) and t.mu.is_empty():
                return andrews12._encode(t, lay)  # silently freeze one non-fixed point
            return step(x)
        return as_rule(broken_involution)

    monkeypatch.setattr(andrews12, "_involution_rule", broken_rule)
    cert = andrews12.involution_certificate(2, 2, 12)
    monkeypatch.setattr(andrews12, "_involution_rule", true_rule)
    if cert.verified or cert.counterexample is None:
        failures.append("involution control")

    # (iv) a perturbed closed form must fail the identity check
    monkeypatch.setattr(andrews12, "rhs_andrews",
                        lambda nn: rhs_andrews(nn) + mono(1, 0, 2))
    cert = verify_andrews(2, 20, "identity")
    monkeypatch.setattr(andrews12, "rhs_andrews", rhs_andrews)
    if cert.verified or cert.counterexample is None:
        failures.append("identity control")

    # (v) F_trunc's Horner form with one wrong factor, 1 - q^(n+j) for
    # 1 - q^(n+j+1), must fail every sum check at every n it is run at
    def wrong_factor(nn, cap):
        acc = [1] + [0] * cap
        for j in range(nn - 1, -1, -1):
            for part in (nn - j, nn + j):
                acc[part:] = [a - b for a, b in zip(acc[part:], acc[:-part])]
            for w in range(2 * j + 2, cap + 1):
                acc[w] += acc[w - 2 * j - 2]
            tau = (nn - j) * (nn - j - 1) // 2
            if tau <= cap:
                acc[tau] += 1
        return TruncatedSeries(cap, dict(enumerate(acc)))

    monkeypatch.setattr(andrews12, "F_trunc", wrong_factor)
    for n in range(1, 7):
        for which in andrews12.sum_checks(n):
            cert = verify_andrews(n, n * n + 15, which)
            if cert.verified or cert.counterexample is None:
                failures.append(("wrong F_trunc factor", n, which))
    monkeypatch.setattr(andrews12, "F_trunc", F_trunc)

    # (vi) the CLI exits nonzero when any certificate fails
    from qtelescope.telescope import Certificate
    failed = Certificate(check="macmahon", params={"n": 0, "m": 0},
                         status="failed",
                         counterexample={"element": None, "image": None,
                                         "reason": "sub-identity-violated"})
    monkeypatch.setattr(cli.macmahon, "verify_macmahon", lambda a, b: failed)
    import io
    code = cli.run(["verify", "macmahon", "--n", "0", "--m", "0"],
                   out=io.StringIO())
    if code != 1:
        failures.append("cli exit code")

    report(10, "perturbed maps and coefficients produce failure "
               "certificates and nonzero exit", failures)
