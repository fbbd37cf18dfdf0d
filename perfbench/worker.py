"""Run one workload's passes in this process and print one JSON line.

    python3 perfbench/worker.py WORKLOAD SEED SECONDS TRACE

`run.py` starts this in a child process of its own per workload, so that
the process's peak RSS belongs to that workload alone.  Each pass clears
the lru_caches first (every CLI invocation is a fresh process that pays
them in full) and makes the workload's calls in an order drawn from the
seed.  With TRACE = 1, untraced and traced passes alternate, and the
per-layer figures come from the traced ones.
"""

from __future__ import annotations

import json
import random
import resource
import sys
import time

from calibrate import Calibrator
from tracer import CACHES, Tracer, summarise
from workloads import WORKLOADS, call_id, check_call, invoke, load_expected


class Runner:
    def __init__(self, workload: str, seed: int):
        self.calls = WORKLOADS[workload]
        self.expected = load_expected()
        self.rng = random.Random(seed)
        self.attempted = 0
        self.failed = 0

    def one_pass(self) -> tuple[float, float]:
        """Time one pass over the calls, then check what came back.

        Returns the pass time in reference seconds and in wall seconds.
        """
        for cache in CACHES.values():
            cache.cache_clear()
        order = list(self.calls)
        self.rng.shuffle(order)
        calibrator = Calibrator()
        wall = 0.0
        outcomes = []
        for call in order:
            start = time.perf_counter()
            outcomes.append(invoke(call))
            elapsed = time.perf_counter() - start
            wall += elapsed
            calibrator.sample(elapsed)
        for call, outcome in zip(order, outcomes):
            expected = self.expected[call_id(call)]
            self.attempted += len(expected)
            self.failed += check_call(outcome, expected)
        return calibrator.scale(wall), wall


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    runner = Runner(workload, seed)
    pass_s: list[float] = []
    wall_s: list[float] = []
    traced_s: list[float] = []
    layers: list[dict] = []
    started = time.perf_counter()
    longest = 0.0
    while True:
        iteration = time.perf_counter()
        scaled, wall = runner.one_pass()
        pass_s.append(scaled)
        wall_s.append(wall)
        if trace:
            tracer = Tracer()
            tracer.install()
            if tracer.missing and not layers:
                print("not traced, no longer in qtelescope: "
                      + ", ".join(tracer.missing), file=sys.stderr)
            try:
                scaled, wall = runner.one_pass()
            finally:
                tracer.uninstall()
            traced_s.append(scaled)
            layers.append(tracer.layer_metrics(wall))
        now = time.perf_counter()
        longest = max(longest, now - iteration)
        if now - started + longest > seconds:
            break
    result = {
        "pass_s": pass_s,
        "pass_wall_s": wall_s,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if trace:
        result["traced_pass_s"] = traced_s
        result["layers"] = summarise(layers)
    return result


if __name__ == "__main__":
    name, seed, seconds, trace = sys.argv[1:5]
    print(json.dumps(run(name, int(seed), float(seconds), trace == "1")))
