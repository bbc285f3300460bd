"""Per-layer tracing from outside the toolkit.

The tracer replaces public functions of the toolkit's modules by wrappers,
through the module attributes that every caller looks up at call time
(``wts.eval_lambda(...)``, and plain global lookups inside a module).  A
spanned function records a span (name, parent span, start, end) in memory;
a counted function only bumps a counter, because timing it would cost more
than the function itself.  ``uninstall`` restores the originals.

Self time of a span is its duration minus the durations of its direct
children.  ``layer_metrics`` turns one traced round into the per-layer
metrics the benchmark reports.
"""

from __future__ import annotations

import functools
import importlib
from time import perf_counter

PACKAGE = "cyclicity"

SPANNED = {
    "cli": ("run_command",),
    "criterion": ("criterion_partials", "divergence_verdict", "theorem_scan_point",
                  "classify_arc", "arc_contribution"),
    "boundary": ("complementary_arcs", "arc_arrays", "cantor_nonshort_candidates",
                 "cantor_measure", "distance_to_set"),
    "weights": ("inv_tw_integral",),
    "geometry": ("solve_gamma", "gamma_criterion_partial"),
    "auxfun": ("witness_amplitude_search", "gamma_integral_is_convergent"),
    "phragmen": ("harmonic_measure_mc", "sigma"),
}
COUNTED = {
    "weights": ("eval_lambda", "effective_w"),
    "auxfun": ("keldysh_log_boundary",),
}
ARC_ENUMERATORS = ("boundary.complementary_arcs", "boundary.arc_arrays",
                   "boundary.cantor_nonshort_candidates")


def _arc_count(result) -> int:
    # arc_arrays returns (a, b) arrays; the others return lists of arcs
    return len(result[0]) if isinstance(result, tuple) else len(result)


class Tracer:
    def __init__(self):
        self.originals: list[tuple[object, str, object]] = []
        self._reset()

    def _reset(self) -> None:
        # the wrappers capture these containers, so they are replaced only
        # between rounds, before new wrappers are made
        self.spans: list[list] = []  # [name, parent index, start, end]
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}
        self.arcs = 0
        self.paths = 0
        self.capped = 0

    # -- wrappers ------------------------------------------------------------

    def _spanned(self, name: str, fn):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, stack[-1] if stack else -1, perf_counter(), 0.0])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][3] = perf_counter()
            self._on_result(name, result)
            return result

        return wrapper

    def _counted(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    def _on_result(self, name: str, result) -> None:
        if name in ARC_ENUMERATORS:
            # arc_arrays delegates to complementary_arcs: count the outer call only
            parent = self.spans[self.stack[-1]][0] if self.stack else None
            if parent not in ARC_ENUMERATORS:
                self.arcs += _arc_count(result)
        elif name == "phragmen.harmonic_measure_mc":
            self.paths += result.paths
            self.capped += result.capped_paths

    # -- install ---------------------------------------------------------------

    def install(self) -> None:
        if self.originals:
            raise RuntimeError("tracer already installed")
        self._reset()
        for table, make in ((SPANNED, self._spanned), (COUNTED, self._counted)):
            for mod_name, fn_names in table.items():
                module = importlib.import_module(f"{PACKAGE}.{mod_name}")
                for fn_name in fn_names:
                    fn = getattr(module, fn_name)
                    self.originals.append((module, fn_name, fn))
                    setattr(module, fn_name, make(f"{mod_name}.{fn_name}", fn))

    def uninstall(self) -> None:
        for module, fn_name, fn in reversed(self.originals):
            setattr(module, fn_name, fn)
        self.originals = []

    # -- aggregation -------------------------------------------------------------

    def totals(self) -> dict[str, dict[str, float]]:
        """Per function name: calls, inclusive seconds and self seconds."""
        child = [0.0] * len(self.spans)
        for name, parent, t0, t1 in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: dict[str, dict[str, float]] = {}
        for idx, (name, _parent, t0, t1) in enumerate(self.spans):
            agg = out.setdefault(name, {"calls": 0, "incl": 0.0, "self": 0.0})
            agg["calls"] += 1
            agg["incl"] += t1 - t0
            agg["self"] += t1 - t0 - child[idx]
        return out


PER_LAYER = (
    # (metric, unit)
    ("cli.jobs", "count"),
    ("cli.run_command_s", "s"),
    ("cli.overhead_s", "s"),
    ("criterion.partials_calls", "count"),
    ("criterion.partials_s", "s"),
    ("criterion.verdict_calls", "count"),
    ("criterion.verdict_s", "s"),
    ("criterion.scan_point_s", "s"),
    ("criterion.classify_arc_calls", "count"),
    ("criterion.arc_listing_s", "s"),
    ("boundary.arcs_enumerated", "count"),
    ("boundary.arc_enum_s", "s"),
    ("boundary.cantor_measure_calls", "count"),
    ("boundary.cantor_measure_s", "s"),
    ("boundary.distance_calls", "count"),
    ("boundary.distance_s", "s"),
    ("weights.inv_tw_integral_calls", "count"),
    ("weights.inv_tw_integral_s", "s"),
    ("weights.eval_lambda_calls", "count"),
    ("weights.effective_w_calls", "count"),
    ("geometry.solve_gamma_calls", "count"),
    ("geometry.solve_gamma_s", "s"),
    ("geometry.gamma_solves_per_s", "1/s"),
    ("geometry.gamma_partial_calls", "count"),
    ("geometry.gamma_partial_s", "s"),
    ("auxfun.witness_search_s", "s"),
    ("auxfun.convergence_guard_s", "s"),
    ("auxfun.boundary_data_calls", "count"),
    ("phragmen.hm_mc_calls", "count"),
    ("phragmen.hm_mc_s", "s"),
    ("phragmen.paths_per_s", "1/s"),
    ("phragmen.capped_paths", "count"),
    ("phragmen.sigma_s", "s"),
    ("run.cpu_s", "s"),
    ("run.trace_overhead_s", "s"),
)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced round (the run.* metrics excepted).

    ``*_s`` is self time, except ``cli.run_command_s`` and
    ``auxfun.convergence_guard_s``, which are inclusive: the first is the whole
    job as the trace sees it, and the guard does its work in child spans.
    """
    t = tracer.totals()
    zero = {"calls": 0, "incl": 0.0, "self": 0.0}

    def get(name: str) -> dict[str, float]:
        return t.get(name, zero)

    def rate(count: float, seconds: float) -> float:
        return count / seconds if seconds > 0.0 else 0.0

    solve = get("geometry.solve_gamma")
    hm = get("phragmen.harmonic_measure_mc")
    return {
        "cli.jobs": get("cli.run_command")["calls"],
        "cli.run_command_s": get("cli.run_command")["incl"],
        "cli.overhead_s": get("cli.run_command")["self"],
        "criterion.partials_calls": get("criterion.criterion_partials")["calls"],
        "criterion.partials_s": get("criterion.criterion_partials")["self"],
        "criterion.verdict_calls": get("criterion.divergence_verdict")["calls"],
        "criterion.verdict_s": get("criterion.divergence_verdict")["self"],
        "criterion.scan_point_s": get("criterion.theorem_scan_point")["self"],
        "criterion.classify_arc_calls": get("criterion.classify_arc")["calls"],
        "criterion.arc_listing_s": get("criterion.classify_arc")["self"] + get("criterion.arc_contribution")["self"],
        "boundary.arcs_enumerated": tracer.arcs,
        "boundary.arc_enum_s": sum(get(n)["self"] for n in ARC_ENUMERATORS),
        "boundary.cantor_measure_calls": get("boundary.cantor_measure")["calls"],
        "boundary.cantor_measure_s": get("boundary.cantor_measure")["self"],
        "boundary.distance_calls": get("boundary.distance_to_set")["calls"],
        "boundary.distance_s": get("boundary.distance_to_set")["self"],
        "weights.inv_tw_integral_calls": get("weights.inv_tw_integral")["calls"],
        "weights.inv_tw_integral_s": get("weights.inv_tw_integral")["self"],
        "weights.eval_lambda_calls": tracer.counts.get("weights.eval_lambda", 0),
        "weights.effective_w_calls": tracer.counts.get("weights.effective_w", 0),
        "geometry.solve_gamma_calls": solve["calls"],
        "geometry.solve_gamma_s": solve["self"],
        "geometry.gamma_solves_per_s": rate(solve["calls"], solve["incl"]),
        "geometry.gamma_partial_calls": get("geometry.gamma_criterion_partial")["calls"],
        "geometry.gamma_partial_s": get("geometry.gamma_criterion_partial")["self"],
        "auxfun.witness_search_s": get("auxfun.witness_amplitude_search")["self"],
        "auxfun.convergence_guard_s": get("auxfun.gamma_integral_is_convergent")["incl"],
        "auxfun.boundary_data_calls": tracer.counts.get("auxfun.keldysh_log_boundary", 0),
        "phragmen.hm_mc_calls": hm["calls"],
        "phragmen.hm_mc_s": hm["self"],
        "phragmen.paths_per_s": rate(tracer.paths, hm["incl"]),
        "phragmen.capped_paths": tracer.capped,
        "phragmen.sigma_s": get("phragmen.sigma")["self"],
    }
