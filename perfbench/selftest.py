"""Self-test of the benchmark: the output check is not vacuous, and traced
counts repeat exactly.

    PYTHONPATH=src python3 perfbench/selftest.py

Takes about a minute.  Exits 1 on the first claim that does not hold.
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

from qtelescope import andrews12, macmahon

import tracer
from worker import Runner
from workloads import cert_ok, comparable

HERE = Path(__file__).resolve().parent


def failed_after_traced_pass(workload: str, calls: int) -> int:
    """Failures in an untraced pass that follows a traced one."""
    runner = Runner(workload, seed=0)
    runner.calls = runner.calls[:calls]
    tracing = tracer.Tracer()
    tracing.install()
    try:
        runner.one_pass()
    finally:
        tracing.uninstall()
    runner.one_pass()
    return runner.failed


def failed_in_pass(workload: str, calls: int, owner=None, name=None, tamper=None) -> int:
    """Failures in one pass over the first calls of a workload, with
    owner.name optionally replaced by a version whose certificate is tampered."""
    runner = Runner(workload, seed=0)
    runner.calls = runner.calls[:calls]
    original = getattr(owner, name) if owner else None
    if owner:
        setattr(owner, name, lambda *a: tamper(original(*a)))
    try:
        runner.one_pass()
    finally:
        if owner:
            setattr(owner, name, original)
    return runner.failed


def raise_value_error(cert):
    raise ValueError("injected")


def check(claim: str, holds: bool):
    print(("ok    " if holds else "FAIL  ") + claim)
    if not holds:
        sys.exit(1)


def output_check_is_not_vacuous():
    flip = lambda c: dataclasses.replace(c, status="failed")  # noqa: E731
    wrong_size = lambda c: dataclasses.replace(c, domain_size=c.domain_size + 1)  # noqa: E731
    check("untampered macmahon and andrews passes have no failures",
          failed_in_pass("macmahon-grid", 12) == 0
          and failed_in_pass("andrews-series", 5) == 0)
    check("a flipped macmahon status counts as failed",
          failed_in_pass("macmahon-grid", 12, macmahon, "verify_macmahon", flip) == 12)
    check("a flipped andrews status counts as failed",
          failed_in_pass("andrews-series", 5, andrews12, "verify_andrews", flip) == 12)
    check("a wrong macmahon domain_size counts as failed",
          failed_in_pass("macmahon-grid", 12, macmahon, "verify_macmahon", wrong_size) == 12)
    check("a call that raises counts all its certificates as failed",
          failed_in_pass("andrews-series", 5, andrews12, "verify_andrews",
                         raise_value_error) == 12)
    check("passes during and after tracing have no failures",
          failed_after_traced_pass("macmahon-grid", 12) == 0
          and failed_after_traced_pass("andrews-series", 5) == 0
          and failed_after_traced_pass("bijection-slices", 6) == 0)
    cert = macmahon.verify_macmahon(2, 1).to_json_obj()
    cert["domain_size"] += 1
    check("macmahon domain_size is checked against 2^(n+m), not only the recording",
          not cert_ok(cert, comparable(cert)))


def traced_counts(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"traced run of {workload} was not correct")
    return {name: m["value"] for name, m in result["metrics"].items()
            if tracer.is_count(name)}


def traced_counts_repeat():
    for workload in ("macmahon-grid", "andrews-series", "bijection-slices"):
        first, second = traced_counts(workload, 1), traced_counts(workload, 2)
        drifted = sorted(k for k in first if first[k] != second.get(k))
        check(f"{workload}: {len(first)} traced counts repeat across two runs"
              f" and seeds{': ' + ', '.join(drifted) if drifted else ''}",
              not drifted and first.keys() == second.keys())


if __name__ == "__main__":
    output_check_is_not_vacuous()
    traced_counts_repeat()
