"""Per-layer tracing from outside the program.

`Tracer.install()` replaces public functions of the qtelescope modules by
timing wrappers and `uninstall()` puts the originals back.  A wrapper is
installed under the name the *calling* module looks up at call time:
`macmahon.enum_even_bounded` and `andrews12.enum_distinct_range` were
bound by `from .partitions import ...`, so patching `partitions` alone
would miss them.  `gaussian_binomial` recurses through its own module
global, so it is wrapped only at its `macmahon` call site and only
top-level calls are counted.

Coarse calls (certificates, enumerators, weighted counts, F_trunc, the
closed forms, series arithmetic) each get a span: name, start, end,
parent.  Per-object hot calls (the maps, membership tests, weight_of,
cancelation orbits) are aggregated into a count and a time.  Every
wrapper keeps a frame on one stack, so a call's self time is its duration
minus the time of the wrapped calls it made, spans and hot calls alike.
Work in unwrapped helpers (LaurentPoly arithmetic, Partition
construction) is charged to the nearest wrapped caller.
"""

from __future__ import annotations

import time
from statistics import median

from qtelescope import andrews12, cli, macmahon, qalgebra
from qtelescope.qalgebra import LaurentPoly, TruncatedSeries
from qtelescope.telescope import IterationBudgetExceeded

MODULES = ("partitions", "qalgebra", "telescope", "macmahon", "andrews12", "cli")

# lru_caches read through the originals, so they survive wrapping.
CACHES = {"qalgebra.gaussian_binomial": qalgebra.gaussian_binomial,
          "andrews12.F_trunc": andrews12.F_trunc}


def _length(args, result):
    return len(result)


def _first_arg_length(args, result):
    return len(args[0])


def _domain(args, result):
    return result.domain_size


def _both_sides(args, result):
    return result.domain_size + result.codomain_size


# (owner, attribute, group, size function or None).  A span's group names
# the per-layer metric it feeds; its module is the group's first part.
SPANS = [
    (macmahon, "enum_even_bounded", "partitions.enum_even_bounded", _length),
    (andrews12, "enum_even_capped", "partitions.enum_even_capped", _length),
    (andrews12, "enum_distinct_range", "partitions.enum_distinct_range", _length),
    (macmahon, "gaussian_binomial", "qalgebra.closed_form", None),
    (macmahon, "factor_product", "qalgebra.closed_form", None),
    (andrews12, "rhs_andrews", "qalgebra.closed_form", None),
    (andrews12, "truncate", "qalgebra.closed_form", None),
    (TruncatedSeries, "__add__", "qalgebra.series", None),
    (TruncatedSeries, "__sub__", "qalgebra.series", None),
    (TruncatedSeries, "mul_poly", "qalgebra.series", None),
    (TruncatedSeries, "first_mismatch", "qalgebra.series", None),
    (macmahon, "check_graded_bijection", "telescope.check_graded_bijection", _both_sides),
    (andrews12, "check_graded_bijection", "telescope.check_graded_bijection", _both_sides),
    (macmahon, "enum_P", "macmahon.enum_P", _length),
    (macmahon, "enum_G", "macmahon.enum_G", _length),
    (macmahon, "enum_Q", "macmahon.enum_Q", _length),
    (macmahon, "enum_H", "macmahon.enum_H", _length),
    (macmahon, "weighted_count", "macmahon.weighted_count", _first_arg_length),
    (macmahon, "verify_macmahon", "macmahon.certificate", _domain),
    (macmahon, "phi_certificate", "macmahon.certificate", _domain),
    (macmahon, "psi_certificate", "macmahon.certificate", _domain),
    (macmahon, "cancelation_certificate", "macmahon.certificate", _domain),
    (andrews12, "F_trunc", "andrews12.F_trunc", None),
    (andrews12, "enum_P", "andrews12.enum_P", _length),
    (andrews12, "involution_certificate", "andrews12.involution_certificate", None),
    (andrews12, "phi_certificate", "andrews12.certificate", None),
    (andrews12, "verify_andrews", "andrews12.certificate", None),
    (andrews12, "domain_slice", "andrews12.certificate", None),
    (cli, "run", "cli.run", None),
]

# (owner, attribute, group): called once per object, so counted, not spanned.
HOT = [
    (macmahon, "phi_step", "macmahon.step"),
    (macmahon, "psi_step", "macmahon.step"),
    (macmahon, "weight_of", "macmahon.weight_of"),
    (macmahon, "cancelation_psi", "telescope.cancelation_psi"),
    (andrews12, "phi", "andrews12.map"),
    (andrews12, "involution", "andrews12.map"),
    (andrews12, "in_P", "andrews12.in_P"),
    (andrews12, "weight_of", "andrews12.weight_of"),
]

# Every LaurentPoly is built by its constructor or by one of these
# operators, which call __new__ directly.  __new__ itself is not patched:
# CPython cannot restore a class's original __new__ once it is replaced.
LAURENT_CONSTRUCTORS = ("__init__", "__add__", "__neg__", "__mul__", "__rmul__")


class Tracer:
    """Spans and counters of one traced pass: install, run the pass, uninstall."""

    def __init__(self):
        self._patches: list[tuple[object, str, object]] = []
        self.missing: list[str] = []
        # span: [group, start, end, parent index, self seconds, size]
        self.spans: list[list] = []
        # group -> [calls, self seconds]
        self.hot: dict[str, list] = {}
        # frame: [seconds covered by wrapped children, own span index or -1]
        self._stack: list[list] = [[0.0, -1]]
        self.laurent_constructed = 0
        self.psi_steps = 0
        self.psi_budget_exceeded = 0

    # -- wrappers ---------------------------------------------------------

    def _span(self, group, fn, size):
        stack, spans, clock = self._stack, self.spans, time.perf_counter

        def wrapper(*args, **kwargs):
            index = len(spans)
            record = [group, 0.0, 0.0, stack[-1][1], 0.0, 0]
            spans.append(record)
            frame = [0.0, index]
            stack.append(frame)
            start = record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = record[2] = clock()
                stack.pop()
                stack[-1][0] += end - start
                record[4] = end - start - frame[0]
            if size is not None:
                record[5] = size(args, result)
            return result
        return wrapper

    def _hot(self, group, fn):
        stack, clock = self._stack, time.perf_counter
        totals = self.hot.setdefault(group, [0, 0.0])

        def wrapper(*args, **kwargs):
            frame = [0.0, stack[-1][1]]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stack[-1][0] += elapsed
                totals[0] += 1
                totals[1] += elapsed - frame[0]
        return wrapper

    def _counted_psi(self, fn):
        def cancelation_psi(phi, start, b_membership, max_iter):
            def step(x):
                self.psi_steps += 1
                return phi(x)
            try:
                return fn(step, start, b_membership, max_iter)
            except IterationBudgetExceeded:
                self.psi_budget_exceeded += 1
                raise
        return cancelation_psi

    def _counted_laurent(self, fn):
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            if result is not NotImplemented:
                self.laurent_constructed += 1
            return result
        return wrapper

    # -- install / uninstall ------------------------------------------------

    def _patch(self, owner, name, wrap):
        original = vars(owner).get(name)
        if original is None:
            self.missing.append(f"{owner.__name__}.{name}")
            return
        self._patches.append((owner, name, original))
        setattr(owner, name, wrap(original))

    def install(self):
        """Wrap every traced name; names qtelescope no longer has go to `missing`."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        for owner, name, group, size in SPANS:
            self._patch(owner, name, lambda fn: self._span(group, fn, size))
        for owner, name, group in HOT:
            if name == "cancelation_psi":
                self._patch(owner, name,
                            lambda fn: self._hot(group, self._counted_psi(fn)))
            else:
                self._patch(owner, name, lambda fn: self._hot(group, fn))
        for name in LAURENT_CONSTRUCTORS:
            self._patch(LaurentPoly, name, self._counted_laurent)

    def uninstall(self):
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    # -- per-layer metrics ----------------------------------------------------

    def layer_metrics(self, pass_s: float) -> dict[str, float]:
        """Per-layer figures of the pass just traced, from spans and counters.

        Counts are per pass and deterministic; times are seconds of this pass.
        """
        calls: dict[str, int] = {}
        self_s: dict[str, float] = {}
        size: dict[str, int] = {}
        for group, _start, _end, _parent, own, n in self.spans:
            calls[group] = calls.get(group, 0) + 1
            self_s[group] = self_s.get(group, 0.0) + own
            size[group] = size.get(group, 0) + n
        for group, (n, own) in self.hot.items():
            calls[group] = calls.get(group, 0) + n
            self_s[group] = self_s.get(group, 0.0) + own

        def c(*groups):
            return sum(calls.get(g, 0) for g in groups)

        def s(*groups):
            return sum(self_s.get(g, 0.0) for g in groups)

        def z(*groups):
            return sum(size.get(g, 0) for g in groups)

        def ratio(num, den):
            return num / den if den else 0.0

        def hit_ratio(name):
            info = CACHES[name].cache_info()
            return ratio(info.hits, info.hits + info.misses)

        g_index = {i for i, sp in enumerate(self.spans) if sp[0] == "macmahon.enum_G"}
        scanned_for_g = sum(sp[5] for sp in self.spans
                            if sp[0] == "macmahon.enum_P" and sp[3] in g_index)
        mac_enum = ("macmahon.enum_P", "macmahon.enum_G",
                    "macmahon.enum_Q", "macmahon.enum_H")
        out: dict[str, float] = {}
        for name in ("enum_even_bounded", "enum_even_capped", "enum_distinct_range"):
            group = "partitions." + name
            out[group + ".calls"] = c(group)
            out[group + ".objects"] = z(group)
            out[group + ".self_s"] = s(group)
        out.update({
            "qalgebra.closed_form.calls": c("qalgebra.closed_form"),
            "qalgebra.closed_form.self_s": s("qalgebra.closed_form"),
            "qalgebra.gaussian_binomial.hit_ratio": hit_ratio("qalgebra.gaussian_binomial"),
            "qalgebra.series.calls": c("qalgebra.series"),
            "qalgebra.series.self_s": s("qalgebra.series"),
            "qalgebra.laurent.constructed": self.laurent_constructed,
            "telescope.check_graded_bijection.calls": c("telescope.check_graded_bijection"),
            "telescope.check_graded_bijection.elements": z("telescope.check_graded_bijection"),
            "telescope.check_graded_bijection.self_s": s("telescope.check_graded_bijection"),
            "telescope.cancelation_psi.calls": c("telescope.cancelation_psi"),
            "telescope.cancelation_psi.steps_per_call":
                ratio(self.psi_steps, c("telescope.cancelation_psi")),
            "telescope.cancelation_psi.budget_exceeded": self.psi_budget_exceeded,
            "telescope.cancelation_psi.self_s": s("telescope.cancelation_psi"),
            "macmahon.enum.calls": c(*mac_enum),
            "macmahon.enum.objects": z(*mac_enum),
            "macmahon.enum.self_s": s(*mac_enum),
            "macmahon.enum_G.kept_ratio": ratio(z("macmahon.enum_G"), scanned_for_g),
            "macmahon.enum.per_domain_pair":
                ratio(z("macmahon.enum_P", "macmahon.enum_Q"), z("macmahon.certificate")),
            "macmahon.weighted_count.calls": c("macmahon.weighted_count"),
            "macmahon.weighted_count.objects": z("macmahon.weighted_count"),
            "macmahon.weighted_count.self_s": s("macmahon.weighted_count"),
            "macmahon.step.calls": c("macmahon.step"),
            "macmahon.step.self_s": s("macmahon.step"),
            "andrews12.F_trunc.calls": c("andrews12.F_trunc"),
            "andrews12.F_trunc.hit_ratio": hit_ratio("andrews12.F_trunc"),
            "andrews12.F_trunc.self_s": s("andrews12.F_trunc"),
            "andrews12.enum_P.calls": c("andrews12.enum_P"),
            "andrews12.enum_P.objects": z("andrews12.enum_P"),
            "andrews12.enum_P.self_s": s("andrews12.enum_P"),
            "andrews12.map.calls": c("andrews12.map"),
            "andrews12.map.self_s": s("andrews12.map"),
            "andrews12.in_P.per_map_call": ratio(c("andrews12.in_P"), c("andrews12.map")),
            "andrews12.involution_certificate.self_s": s("andrews12.involution_certificate"),
            "cli.self_s": s("cli.run"),
        })
        for module in MODULES:
            own = sum(v for g, v in self_s.items() if g.split(".")[0] == module)
            out[module + ".self_share"] = ratio(own, pass_s)
        return out


def unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_share", "per_call", "per_map_call", "per_domain_pair")):
        return "ratio"
    return "count"


def is_count(name: str) -> bool:
    """Whether a per-layer metric is a count or a ratio of counts, which repeat exactly."""
    return (unit(name) != "s" and not name.endswith("_share")
            and not name.startswith("trace."))


def summarise(passes: list[dict[str, float]]) -> dict[str, dict]:
    """One metric per name over the traced passes of a run.

    Counts must repeat exactly from pass to pass; times are medians.
    """
    out = {}
    for name in passes[0]:
        values = [p[name] for p in passes]
        if is_count(name):
            if any(v != values[0] for v in values):
                raise RuntimeError(f"traced count {name} drifted: {values}")
            value = values[0]
        else:
            value = median(values)
        out[name] = {"value": value, "unit": unit(name)}
    return out
