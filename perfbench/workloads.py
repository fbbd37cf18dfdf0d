"""The benchmark's workloads, how one call is made, and the output check.

A workload is a fixed list of independent calls.  Each call is a tuple of
strings: a `qtelescope` CLI argument list, or `("library", name, *ints)`
for a certificate that has no CLI verb.  Every call runs in-process
through `qtelescope.cli.run(argv, out=...)` (or the library function) and
returns JSON certificate lines, which `check_call` compares with the
values recorded in `expected.json`.

Run `PYTHONPATH=src python3 perfbench/workloads.py` from the repository
root to print a freshly recorded `expected.json` (it runs every call once).
"""

from __future__ import annotations

import io
import json
import sys
import traceback
from pathlib import Path

from qtelescope import cli, macmahon

LIBRARY = "library"
EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"

WORKLOADS: dict[str, list[tuple[str, ...]]] = {
    # One `verify macmahon` per grid point: boxed even-partition
    # enumeration, weighted counting and the Laurent closed forms.
    "macmahon-grid": [("verify", "macmahon", "--n", str(n), "--m", str(m))
                      for n in range(9) for m in range(9)],
    # One `verify andrews` per n at the default cap n^2 + 15: the capped
    # and distinct-range enumerators, F_trunc and truncated series.
    "andrews-series": [("verify", "andrews", "--n", str(n)) for n in range(9)],
    # Object-level checks: every map, membership test and weight of a
    # whole slice; no weighted_count and no F_trunc.
    "bijection-slices": [
        ("check-bijection", "andrews-involution", "--n", "5", "--k", "5",
         "--cap", "40"),
        ("check-bijection", "andrews-involution", "--n", "5", "--k", "4",
         "--cap", "40"),
        ("check-bijection", "andrews-phi", "--n", "7", "--k", "3",
         "--cap", "60"),
        ("check-bijection", "macmahon-phi", "--n", "8", "--m", "8",
         "--k", "0"),
        ("check-bijection", "macmahon-psi", "--n", "12", "--k", "6"),
        (LIBRARY, "cancelation_certificate", "7", "7"),
    ],
}

# Fields compared with the recorded certificate.  elapsed_ms and any
# stats field are timing; the Andrews sum-level checks report sizes of 0
# that are due to be filled in, so their sizes are not compared either.
COMPARED = ("check", "params", "cap", "status", "domain_size", "codomain_size")
UNSIZED_CHECKS = {"andrews-identity", "andrews-rec-fn", "andrews-gn"}


def call_id(call: tuple[str, ...]) -> str:
    return " ".join(call)


def invoke(call: tuple[str, ...]):
    """Make one call; return (exit code, JSON-lines text), or None if it raised.

    Only the call itself runs here, so that a pass timer around it measures
    the program and not the output check.
    """
    try:
        if call[0] == LIBRARY:
            cert = getattr(macmahon, call[1])(*map(int, call[2:]))
            return (0 if cert.verified else 1), cert.to_json() + "\n"
        buf = io.StringIO()
        code = cli.run([*call, "--format", "json"], out=buf)
        return code, buf.getvalue()
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return None


def comparable(cert: dict) -> dict:
    keys = COMPARED
    if cert.get("check") in UNSIZED_CHECKS:
        keys = tuple(k for k in COMPARED if not k.endswith("_size"))
    return {k: cert.get(k) for k in keys}


def cert_ok(cert: dict, expected: dict) -> bool:
    if "counterexample" in cert or comparable(cert) != expected:
        return False
    if cert["check"] == "macmahon":
        # Independent of the recording: P(n,m) has one pair per subset of
        # the n + m factors of the product side.
        params = cert["params"]
        return cert["domain_size"] == 2 ** (params["n"] + params["m"])
    return True


def check_call(outcome, expected: list[dict]) -> int:
    """Number of the call's expected certificates that did not come back right."""
    if outcome is None or outcome[0] != 0:
        return len(expected)
    try:
        certs = [json.loads(line) for line in outcome[1].splitlines() if line]
    except json.JSONDecodeError:
        return len(expected)
    if len(certs) != len(expected):
        return len(expected)
    return sum(not cert_ok(c, e) for c, e in zip(certs, expected))


def load_expected() -> dict[str, list[dict]]:
    with open(EXPECTED_PATH) as fh:
        return json.load(fh)


def record() -> dict[str, list[dict]]:
    recorded = {}
    for calls in WORKLOADS.values():
        for call in calls:
            outcome = invoke(call)
            if outcome is None or outcome[0] != 0:
                raise SystemExit(f"cannot record a failing call: {call_id(call)}")
            recorded[call_id(call)] = [comparable(json.loads(line))
                                       for line in outcome[1].splitlines()
                                       if line]
    return recorded


if __name__ == "__main__":
    json.dump(record(), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
