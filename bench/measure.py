"""Child process of the benchmark: one fresh interpreter per measurement.

    python3 bench/measure.py setup --workload NAME --variant V --reps R
    python3 bench/measure.py cert  --workload NAME --variant V --seed N --attempt K [--lib reference]
    python3 bench/measure.py trace --workload NAME --variant V --seed N

Each mode prints one JSON object as its last line of standard output.
`lyapcert` is imported inside the modes, so that `setup` can time it.
`cert` and `trace` import it from the directory of `--lib` (see
workloads.LIBS); `setup` imports both libraries in turn.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path

from workloads import LIBS, WORKLOADS, config_doc


def _load(workload, variant, lib="current"):
    """What set-up covers: parse the config and build the systems."""
    from lyapcert import RunConfig

    cfg = RunConfig.from_dict(config_doc(lib, workload, variant))
    cfg.discrete_system()
    if workload.continuous:
        cfg.continuous_system()
    return cfg


def mode_setup(args):
    """Set-up times of the current and the reference library, alternately.

    The order is reference, current, reference, ... with `args.reps`
    current repetitions, so that every current time lies between two
    reference times.  numpy is imported first and not timed: loading it
    from a fresh interpreter costs about as much as all of set-up, and
    that cost follows the host's file and page cache, not this library.
    Each repetition drops the `lyapcert` modules from `sys.modules`, so
    that `import lyapcert` runs their module code again.
    """
    import numpy  # noqa: F401

    workload = WORKLOADS[args.workload]
    times = {"current": [], "reference": []}
    for lib in ["reference"] + ["current", "reference"] * args.reps:
        for name in [m for m in sys.modules if m == "lyapcert" or m.startswith("lyapcert.")]:
            del sys.modules[name]
        sys.path.insert(0, str(LIBS[lib]))
        t0 = time.perf_counter()
        import lyapcert  # (timed on purpose)

        _load(workload, args.variant, lib)
        times[lib].append(time.perf_counter() - t0)
        sys.path.remove(str(LIBS[lib]))
        if Path(lyapcert.__file__).parent.parent != LIBS[lib]:
            raise RuntimeError(f"imported {lyapcert.__file__} for the {lib} library")
    return {"setup_s_all": times["current"], "reference_setup_s_all": times["reference"]}


def certify(cfg, workload, tracer=None):
    """One workload operation: loaded config -> final report(s)."""
    from lyapcert import pipeline

    def span(name):
        return tracer.span(name) if tracer is not None else contextlib.nullcontext()

    with span("run_verify_dt"):
        reports = [pipeline.run_verify_dt(cfg)]
    if workload.continuous:
        with span("run_verify_ct"):
            reports.append(pipeline.run_verify_ct(cfg, reports[0].to_dict()))
    return reports


def _cpu_seconds():
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime


def _checked(cfg, workload, variant, reports, rng):
    from checks import check_stage

    failures = []
    for stage, report, verdict in zip(("dt", "ct"), reports, workload.variants[variant].verdicts):
        failures += check_stage(stage, report, cfg, rng, verdict)
    return failures


def _fingerprint(reports):
    from checks import stage_fingerprint

    return {stage: stage_fingerprint(r) for stage, r in zip(("dt", "ct"), reports)}


class Runner:
    """Runs and checks certifications; counts attempts and failures."""

    def __init__(self, cfg, workload, variant, seed, first_attempt=0):
        self.cfg = cfg
        self.workload = workload
        self.variant = variant
        self.seed = seed
        self.first_attempt = first_attempt  # the checks draw from (seed, attempt number)
        self.attempted = 0
        self.failures = []
        self.fingerprint = None

    def run(self, tracer=None):
        """One checked certification: (reports, wall_s, cpu_s); reports is None if it raised.

        A run that raises or fails a check is recorded in `failures`; its
        times still count, since the work was done.
        """
        import numpy as np

        rng = np.random.default_rng([self.seed, self.first_attempt + self.attempted])
        self.attempted += 1
        t0, c0 = time.perf_counter(), _cpu_seconds()
        try:
            reports = certify(self.cfg, self.workload, tracer)
        except Exception:  # a raising run is a failed run, not a crash of the benchmark
            self.failures.append(traceback.format_exc(limit=3))
            return None, None, None
        wall, cpu = time.perf_counter() - t0, _cpu_seconds() - c0
        problems = _checked(self.cfg, self.workload, self.variant, reports, rng)
        fp = _fingerprint(reports)
        if self.fingerprint is None:
            self.fingerprint = fp
        elif fp != self.fingerprint:
            problems.append("fingerprint differs between repetitions of one run")
        if problems:
            self.failures.append("; ".join(problems))
        return reports, wall, cpu

    def summary(self):
        import numpy as np

        return {
            "attempted": self.attempted,
            "failed": len(self.failures),
            "failures": self.failures[:10],
            "fingerprint": self.fingerprint,
            "numpy": np.__version__,
        }


def mode_reference(workload, variant):
    """One certification by the reference library: its times and fingerprint.

    It is not the program under test, so it gets no output checks; the
    caller compares its fingerprint with baseline.json instead.
    """
    cfg = _load(workload, variant, "reference")
    t0, c0 = time.perf_counter(), _cpu_seconds()
    reports = certify(cfg, workload)
    return {
        "certify_s": time.perf_counter() - t0,
        "cpu_s": _cpu_seconds() - c0,
        "fingerprint": _fingerprint(reports),
    }


def mode_cert(args):
    """One checked certification, attempt number `args.attempt` of a timed run."""
    workload = WORKLOADS[args.workload]
    if args.lib == "reference":
        return mode_reference(workload, args.variant)
    cfg = _load(workload, args.variant)
    runner = Runner(cfg, workload, args.variant, args.seed, args.attempt)
    reports, wall, cpu = runner.run()
    out = runner.summary()
    if reports is not None:
        me = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        final = reports[-1]
        cert = final.certificate
        out["metrics"] = {
            "certify_s": wall,
            "cpu_s": cpu,
            "peak_rss_mb": (me + kids) / 1024.0,
            "doa_level": final.level.Lbar if final.level is not None else 0.0,
            "certified_frac": cert.good_volume / cert.search_volume,
        }
    return out


def mode_trace(args):
    from micro import run_micro
    from spans import VERIFICATION_PHASES, Tracer, call_metrics, instrument

    workload = WORKLOADS[args.workload]
    cfg = _load(workload, args.variant)
    runner = Runner(cfg, workload, args.variant, args.seed)
    own_workers = cfg.workers
    other_workers = 2 if own_workers == 1 else 1

    def phase_run(workers):
        """(reports, wall_s, phase seconds) of a run with pipeline-phase spans only."""
        cfg.workers = workers
        tracer = Tracer()
        with instrument(tracer, calls=False):
            reports, wall, _ = runner.run(tracer)
        return reports, wall, tracer.phase_seconds()

    runs = {w: phase_run(w) for w in (own_workers, other_workers)}
    cfg.workers = 1
    tracer = Tracer()
    with instrument(tracer, calls=True):
        _, traced_wall, _ = runner.run(tracer)
    cfg.workers = own_workers

    out = runner.summary()
    reports, _, phases = runs[own_workers]
    if any(r is None for r, _, _ in runs.values()) or traced_wall is None:
        return out
    untraced_w1 = runs[1][1]
    verification = {w: sum(runs[w][2][k] for k in VERIFICATION_PHASES) for w in (1, 2)}
    metrics = dict(phases)
    metrics.update(call_metrics(tracer))
    metrics["verifier.pool_speedup"] = verification[1] / verification[2]
    metrics["trace.overhead_s"] = traced_wall - untraced_w1
    metrics.update(run_micro(cfg, args.seed, reports[0]))
    out["metrics"] = metrics
    out["walls"] = {"untraced_w1": untraced_w1, "traced_w1": traced_wall}
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("mode", choices=("setup", "cert", "trace"))
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--variant", default="bench")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--attempt", type=int, default=0, help="number of the certification in its run")
    parser.add_argument("--reps", type=int, default=1, help="set-up repetitions")
    parser.add_argument("--lib", choices=sorted(LIBS), default="current", help="library that `cert` runs")
    args = parser.parse_args(argv)
    out = {"setup": mode_setup, "cert": mode_cert, "trace": mode_trace}[args.mode](args)
    print(json.dumps(out))


if __name__ == "__main__":
    sys.exit(main())
