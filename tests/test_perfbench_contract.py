"""The benchmark's contract with the library: perfbench/tracer.py and
perfbench/workloads.py import and read qtelescope names at import time,
and every benchmark call must return the certificates recorded in
perfbench/expected.json.  A rename in the library that breaks either makes
every benchmark operation fail, so it is checked here on every
andrews-series call and a small share of the other workloads.  Among them
is the Andrews phi slice, whose recorded sizes pin what `andrews12.enum_P`
builds there.  The tracer clears and reads the caches of
`qalgebra.gaussian_binomial` and `andrews12.F_trunc`, so both must stay
module-level `functools.lru_cache` functions.  The tracer wraps names it
finds by attribute lookup and only notes the ones that are gone, so the
set of names it misses is pinned here.
"""

import importlib.util
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = load("tracer")
workloads = load("workloads")

CALLS = ([call for call in workloads.WORKLOADS["macmahon-grid"]
          if int(call[3]) <= 4 and int(call[5]) <= 4]
         + workloads.WORKLOADS["andrews-series"]
         + [call for call in workloads.WORKLOADS["bijection-slices"]
            if call[1] in ("macmahon-phi", "macmahon-psi")
            or call[1:] == ("andrews-phi", "--n", "7", "--k", "3", "--cap", "60")])


@pytest.mark.parametrize("call", CALLS, ids=workloads.call_id)
def test_benchmark_call_returns_the_recorded_certificates(call):
    for cache in tracer.CACHES.values():
        cache.cache_clear()
    expected = workloads.load_expected()[workloads.call_id(call)]
    assert workloads.check_call(workloads.invoke(call), expected) == 0


def test_tracer_finds_every_traced_name_the_library_still_has():
    traced = tracer.Tracer()
    try:
        traced.install()
        assert traced.missing == ["qtelescope.macmahon.enum_even_bounded",
                                  "qtelescope.andrews12.enum_even_capped",
                                  "qtelescope.macmahon.enum_G",
                                  "qtelescope.macmahon.enum_Q",
                                  "qtelescope.macmahon.enum_H",
                                  "qtelescope.macmahon.weighted_count",
                                  "qtelescope.macmahon.psi_step",
                                  "qtelescope.macmahon.weight_of",
                                  "qtelescope.macmahon.cancelation_psi"]
    finally:
        traced.uninstall()
