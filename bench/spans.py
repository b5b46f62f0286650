"""Benchmark-side spans around calls into the public functions of each layer.

Nothing inside `lyapcert` is edited: `instrument` swaps module and class
attributes for timing wrappers and puts the originals back on exit.  The
library looks these names up at call time, so its own calls go through
the wrappers.  Spans (name, start, end, parent) are kept in memory; the
metrics are computed from them after the run.
"""

from __future__ import annotations

import contextlib
import statistics
import time
from collections import Counter

# span name -> layer (module of src/lyapcert that owns the function)
LAYER = {
    "run_verify_dt": "pipeline",
    "run_verify_ct": "pipeline",
    "validate_coverage": "system",
    "search_horizon": "verifier",
    "verify_continuous": "verifier",
    "check_invariance": "verifier",
    "build_certified_region": "verifier",
    "wave": "verifier",
    "verify_box": "verifier",
    "verify_local": "localyap",
    "estimate_level": "levelset",
    "obstacle_samples": "levelset",
    "boundary_samples": "levelset",
    "level_lower_bound": "levelset",
    "assess_branch": "bounds",
    "hessian.decrease": "bounds",
    "hessian.sum_iter": "bounds",
    "hessian.flow": "bounds",
    "lower_bound_over_box": "bounds",
    "enumerate_box_branches": "system",
}

# pipeline phase spans: (run span, function span) -> phase metric
PHASES = {
    ("run_verify_dt", "validate_coverage"): "pipeline.coverage_s",
    ("run_verify_dt", "search_horizon"): "pipeline.horizon_s",
    ("run_verify_dt", "verify_local"): "pipeline.local_s",
    ("run_verify_dt", "estimate_level"): "pipeline.level_s",
    ("run_verify_dt", "check_invariance"): "pipeline.audit_s",
    ("run_verify_ct", "verify_continuous"): "pipeline.ct_verify_s",
    ("run_verify_ct", "estimate_level"): "pipeline.ct_level_s",
    ("run_verify_ct", "check_invariance"): "pipeline.ct_audit_s",
}
VERIFICATION_PHASES = ("pipeline.horizon_s", "pipeline.ct_verify_s")
SELF_LAYERS = ("pipeline", "verifier", "bounds", "system", "levelset", "localyap")


class Tracer:
    """In-memory spans and counters."""

    def __init__(self):
        self.spans = []  # [name, start_ns, end_ns, parent index or -1]
        self.stack = []
        self.counts = Counter()
        self.branches = []  # branch patterns per enumerate_box_branches call
        self.level_delta_min = None

    @contextlib.contextmanager
    def span(self, name):
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter_ns(), 0, self.stack[-1] if self.stack else -1])
        self.stack.append(idx)
        try:
            yield
        finally:
            self.stack.pop()
            self.spans[idx][2] = time.perf_counter_ns()

    def wrap(self, name, fn, on_result=None):
        def wrapper(*args, **kwargs):
            with self.span(name):
                out = fn(*args, **kwargs)
            if on_result is not None:
                on_result(out, args, kwargs)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def counting(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            fn(*args, **kwargs)

        return wrapper

    # -- derived numbers ---------------------------------------------------

    def durations(self, name):
        return [(e - s) / 1e9 for n, s, e, _ in self.spans if n == name]

    def phase_seconds(self):
        out = {metric: 0.0 for metric in PHASES.values()}
        for name, start, end, parent in self.spans:
            if parent < 0:
                continue
            metric = PHASES.get((self.spans[parent][0], name))
            if metric is not None:
                out[metric] += (end - start) / 1e9
        return out

    def self_seconds(self):
        """Span duration minus the part covered by child spans, summed per layer."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out = {layer: 0.0 for layer in SELF_LAYERS}
        for i, (name, start, end, _) in enumerate(self.spans):
            layer = LAYER.get(name)
            if layer in out:
                out[layer] += (end - start - child_ns[i]) / 1e9
        return out

    def outermost(self, name):
        """Durations of spans of `name` whose parent is not also `name`."""
        return [
            (e - s) / 1e9
            for n, s, e, p in self.spans
            if n == name and (p < 0 or self.spans[p][0] != name)
        ]


def _patch(stack, owner, attr, value):
    original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
    setattr(owner, attr, value)
    stack.callback(setattr, owner, attr, original)


@contextlib.contextmanager
def instrument(tracer: Tracer, calls: bool):
    """Wrap the pipeline phases, and with `calls` every call-level function
    and the Interval/Dual2 constructors."""
    from lyapcert import ad, bounds, interval, levelset, pipeline, system, verifier

    def on_level(out, args, kwargs):
        tracer.counts["levelset.obstacles"] += out.n_obstacle
        tracer.counts["levelset.boundary"] += out.n_boundary

    def estimate_level(*args, **kwargs):
        tracer.level_delta_min = args[4]  # tells refined W bounds from coarse ones
        return original_level(*args, **kwargs)

    original_level = pipeline.estimate_level
    with contextlib.ExitStack() as stack:
        for name, fn, extra in (
            ("validate_coverage", pipeline.validate_coverage, None),
            ("search_horizon", pipeline.search_horizon, None),
            ("verify_local", pipeline.verify_local, None),
            ("estimate_level", estimate_level, on_level),
            ("check_invariance", pipeline.check_invariance, None),
            ("verify_continuous", pipeline.verify_continuous, None),
        ):
            _patch(stack, pipeline, name, tracer.wrap(name, fn, extra))
        if not calls:
            yield tracer
            return

        def on_box(out, args, kwargs):
            tracer.counts["verifier.boxes"] += 1
            tracer.counts["verifier.certified"] += int(out.certified)

        def on_branches(out, args, kwargs):
            tracer.branches.append(len(out))

        def on_wbound(out, args, kwargs):
            tracer.counts["bounds.wbound.calls"] += 1
            tracer.counts["bounds.wbound.none"] += int(out is None)

        def on_level_bound(out, args, kwargs):
            sub = args[2] if len(args) > 2 else kwargs.get("subdivide_to")
            if sub is not None and sub < tracer.level_delta_min:
                tracer.counts["levelset.refined"] += 1

        def on_wave(out, args, kwargs):
            tracer.counts["verifier.waves"] += 1

        box_wrapper = tracer.wrap("verify_box", verifier.verify_box, on_box)
        _patch(stack, verifier, "verify_box", box_wrapper)
        brc = tracer.wrap("build_certified_region", verifier.build_certified_region)
        _patch(stack, verifier, "build_certified_region", brc)
        evaluator = verifier._BoxEvaluator
        _patch(stack, evaluator, "map", tracer.wrap("wave", evaluator.__dict__["map"], on_wave))
        assess = tracer.wrap("assess_branch", bounds.assess_branch)
        _patch(stack, bounds, "assess_branch", assess)
        _patch(stack, verifier, "assess_branch", assess)
        enum = tracer.wrap("enumerate_box_branches", system.enumerate_box_branches, on_branches)
        _patch(stack, system, "enumerate_box_branches", enum)
        _patch(stack, verifier, "enumerate_box_branches", enum)
        for cls, name in (
            (bounds.DecreaseMap, "hessian.decrease"),
            (bounds.SumOfIteratesMap, "hessian.sum_iter"),
            (bounds.DerivativeAlongFlowMap, "hessian.flow"),
        ):
            _patch(stack, cls, "interval_hessian", tracer.wrap(name, cls.__dict__["interval_hessian"]))
        wb = tracer.wrap("lower_bound_over_box", bounds.WContext.__dict__["lower_bound_over_box"], on_wbound)
        _patch(stack, bounds.WContext, "lower_bound_over_box", wb)
        for name in ("obstacle_samples", "boundary_samples"):
            _patch(stack, levelset, name, tracer.wrap(name, getattr(levelset, name)))
        llb = tracer.wrap("level_lower_bound", levelset.level_lower_bound, on_level_bound)
        _patch(stack, levelset, "level_lower_bound", llb)
        _patch(stack, interval.Interval, "__init__", tracer.counting("interval.objects", interval.Interval.__init__))
        _patch(stack, ad.Dual2, "__init__", tracer.counting("ad.dual2_objects", ad.Dual2.__init__))
        yield tracer


def _mean_us(values):
    return 1e6 * statistics.fmean(values) if values else 0.0


def call_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics of one call-traced certification."""
    c = tracer.counts
    boxes = c["verifier.boxes"]
    region_s = sum(tracer.durations("build_certified_region"))
    branches = tracer.branches
    adjacency = tracer.durations("obstacle_samples") + tracer.durations("boundary_samples")
    out = {
        "interval.objects": c["interval.objects"],
        "ad.dual2_objects": c["ad.dual2_objects"],
        "bounds.hessian_us.decrease": _mean_us(tracer.durations("hessian.decrease")),
        "bounds.hessian_us.sum_iter": _mean_us(tracer.durations("hessian.sum_iter")),
        "bounds.hessian_us.flow": _mean_us(tracer.durations("hessian.flow")),
        "bounds.assess_branch.calls": len(tracer.durations("assess_branch")),
        "bounds.assess_branch_us": _mean_us(tracer.durations("assess_branch")),
        "bounds.wbound.calls": c["bounds.wbound.calls"],
        "bounds.wbound_us": _mean_us(tracer.outermost("lower_bound_over_box")),
        "bounds.wbound.none_ratio": c["bounds.wbound.none"] / max(1, c["bounds.wbound.calls"]),
        "system.box_branches.calls": len(tracer.durations("enumerate_box_branches")),
        "system.box_branches_us": _mean_us(tracer.durations("enumerate_box_branches")),
        "system.branches_per_box": statistics.fmean(branches) if branches else 0.0,
        "verifier.boxes": boxes,
        "verifier.waves": c["verifier.waves"],
        "verifier.certified_ratio": c["verifier.certified"] / max(1, boxes),
        "verifier.box_us": _mean_us(tracer.durations("verify_box")),
        "verifier.boxes_per_s": boxes / region_s if region_s > 0 else 0.0,
        "levelset.obstacles": c["levelset.obstacles"],
        "levelset.boundary": c["levelset.boundary"],
        "levelset.adjacency_s": sum(adjacency),
        "levelset.refined": c["levelset.refined"],
    }
    for layer, seconds in tracer.self_seconds().items():
        out[f"{layer}.self_s"] = seconds
    return out
