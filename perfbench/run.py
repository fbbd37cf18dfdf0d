"""The qtelescope certifier benchmark.  See perfbench/README.md.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  NAME is one of the workloads in
workloads.py, or `all` to run each in turn.  Human-readable lines come
first; the last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  With --trace 0 the metrics are
the end-to-end ones; with --trace 1 they are the per-layer ones.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

from calibrate import Calibrator

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("macmahon-grid", "andrews-series", "bijection-slices")
SETUP_ARGV = ["-m", "qtelescope.cli", "verify", "macmahon", "--n", "0", "--m", "0"]
SETUP_OUTPUT = "[ok ] macmahon n=0 m=0"
# Fresh interpreter starts timed per run; one more before them is untimed.
SETUP_STARTS = 15
# A run of one workload ends within 180 s; the child gets what is left.
RUN_LIMIT_S = 170.0


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def measure_setup() -> tuple[float, float, int]:
    """Median time of fresh `verify macmahon --n 0 --m 0` runs, in reference
    and wall seconds, and how many of the runs failed."""
    times, failed = [], 0
    calibrator = Calibrator()
    for i in range(SETUP_STARTS + 1):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, *SETUP_ARGV], cwd=ROOT,
                              env=child_env(), capture_output=True, text=True)
        elapsed = time.perf_counter() - start
        if proc.returncode != 0 or proc.stdout.strip() != SETUP_OUTPUT:
            failed += 1
        if i:
            times.append(elapsed)
            calibrator.sample(elapsed)
    wall = median(times)
    return calibrator.scale(wall), wall, failed


def run_worker(workload: str, seed: int, seconds: float, trace: bool,
               deadline: float) -> dict:
    argv = [sys.executable, str(HERE / "worker.py"), workload, str(seed),
            str(seconds), "1" if trace else "0"]
    proc = subprocess.run(argv, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                          text=True, timeout=max(deadline - time.monotonic(), 1.0))
    if proc.returncode != 0:
        raise SystemExit(f"worker for {workload} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def provenance(seed: int) -> dict:
    commit = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    found = re.search(r'^version\s*=\s*"([^"]+)"',
                      (ROOT / "pyproject.toml").read_text(), re.MULTILINE)
    return {"seed": seed, "python": platform.python_version(),
            "qtelescope": found.group(1) if found else "unknown",
            "commit": commit, "nproc": os.cpu_count()}


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(out: dict, setup_s: float) -> dict:
    return {
        "setup_s": metric(setup_s, "s"),
        "pass_s": metric(median(out["pass_s"]), "s"),
        "peak_rss_mb": metric(out["peak_rss_kb"] / 1024, "MB"),
    }


def per_layer(out: dict) -> dict:
    overhead = median(out["traced_pass_s"]) / median(out["pass_s"])
    return {**out["layers"], "trace.overhead_ratio": metric(overhead, "ratio")}


def run_one(workload: str, seed: int, seconds: float, trace: bool,
            deadline: float) -> tuple[dict, int, int]:
    setup_s, setup_wall_s, setup_failed = (0.0, 0.0, 0) if trace else measure_setup()
    out = run_worker(workload, seed, seconds, trace, deadline)
    attempted = out["attempted"] + (0 if trace else SETUP_STARTS + 1)
    failed = out["failed"] + setup_failed
    metrics = per_layer(out) if trace else end_to_end(out, setup_s)
    print(f"{workload}: {len(out['pass_s'])} passes"
          + (f", {len(out['traced_pass_s'])} traced" if trace else "")
          + f", {attempted} certificates attempted, {failed} failed")
    for name, m in metrics.items():
        print(f"  {name:<48} {m['value']:.6g} {m['unit']}")
    if not trace:
        print(f"  {'fail_frac':<48} {failed / attempted:.6g} ratio")
        print(f"  wall-clock medians: setup {setup_wall_s:.6g} s,"
              f" pass {median(out['pass_wall_s']):.6g} s")
    return metrics, attempted, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOAD_NAMES, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "qtelescope" / "cli.py").is_file():
        print(f"error: no qtelescope sources under {SRC}", file=sys.stderr)
        return 2
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    deadline = time.monotonic() + RUN_LIMIT_S * len(names)
    print("provenance " + json.dumps(provenance(args.seed)))
    metrics, attempted, failed = {}, 0, 0
    for name in names:
        got, n_attempted, n_failed = run_one(name, args.seed, args.seconds,
                                             bool(args.trace), deadline)
        prefix = f"{name}." if len(names) > 1 else ""
        metrics.update({prefix + k: v for k, v in got.items()})
        attempted += n_attempted
        failed += n_failed
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
