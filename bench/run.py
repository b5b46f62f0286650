"""Time-to-certificate benchmark for lyapcert.

Run from the root of a checkout:

    python3 bench/run.py --workload poly2d --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload guard2d --seed 1 --seconds 30 --trace 1
    python3 bench/run.py --smoke               # every workload, coarse, both modes
    python3 bench/run.py --workload poly2d --full --trace 1   # larger configs

`--trace 0` runs the workload in a closed loop for `--seconds`: each
certification in a fresh measuring process, alternating with
certifications by a frozen reference copy of the library, with set-up
repetitions between them.  It prints the end-to-end metrics of
BENCHMARK.json, with timings taken relative to the adjacent reference
runs (see README.md).  `--trace 1` makes one traced run and prints the
per-layer metrics.  Every certification is checked (see checks.py).
The last line of standard output is the JSON result; the line before it,
prefixed `record:`, holds the fingerprint and the raw numbers.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import LIBS, WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = LIBS["current"]
SETUP_REPS = 4  # set-up repetitions of the current library before each of its certifications
RUN_TIMEOUT_S = 170  # a timed run must end within 180 s; "full" runs take longer


class BenchError(Exception):
    pass


def _children(specs, workload, variant, timeout=RUN_TIMEOUT_S):
    """Run bench/measure.py once per spec, all at the same time, each in a fresh
    interpreter; return their JSON lines.  A spec is (mode, lib, extra args).
    Every child has ended when this returns or raises."""
    procs = []
    try:
        for mode, lib, extra in specs:
            env = dict(os.environ)
            env["PYTHONPATH"] = os.pathsep.join(p for p in (str(LIBS[lib]), env.get("PYTHONPATH")) if p)
            cmd = [sys.executable, str(BENCH / "measure.py"), mode, "--workload", workload]
            cmd += ["--variant", variant, "--lib", lib, *map(str, extra)]
            procs.append(subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True))
        outs = []
        for proc, (mode, lib, _) in zip(procs, specs):
            try:
                stdout, _ = proc.communicate(timeout=None if variant == "full" else timeout)
            except subprocess.TimeoutExpired as exc:
                raise BenchError(f"{mode} child timed out after {timeout:.0f} s") from exc
            lines = stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                raise BenchError(f"{mode} child ({lib} library) exited with code {proc.returncode}")
            outs.append(json.loads(lines[-1]))
        return outs
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()


def _child(mode, workload, variant, lib="current", timeout=RUN_TIMEOUT_S, **args):
    """One measure.py child; `args` become its options (seed=1 -> --seed 1)."""
    extra = [x for k, v in args.items() for x in (f"--{k}", v)]
    return _children([(mode, lib, extra)], workload, variant, timeout)[0]


def _git_sha():
    if not (ROOT / ".git").exists():
        return "unavailable"
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=30,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unavailable"


def _spec():
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise BenchError(f"{path.name} not found at the checkout root")
    with open(path) as fh:
        return json.load(fh)


def _baseline(workload, variant):
    """{"fingerprint": ..., "reference_s": ...} of the seed commit, or {}."""
    path = BENCH / "baseline.json"
    if not path.is_file():
        return {}
    with open(path) as fh:
        return json.load(fh).get(workload, {}).get(variant, {})


def _relative(values, refs):
    """Each value over the reference value measured beside it."""
    return [v / r for v, r in zip(values, refs) if v is not None]


def _setup_relative(setup):
    """Each current set-up time over the mean of the reference times just before and after it."""
    ref = setup["reference_setup_s_all"]
    return [t / ((a + b) / 2) for t, a, b in zip(setup["setup_s_all"], ref, ref[1:])]


def timed_run(workload, seed, seconds, variant, reps=SETUP_REPS):
    """Closed loop of checked certifications for `seconds`, one fresh process each.

    Every certification runs at the same time as one by the frozen
    reference copy of the library, both on the same CPU(s), which the
    kernel shares between them in slices of milliseconds: both see the
    same host speed, however it drifts.  A certification's CPU time over
    that of its reference is its speed relative to the reference.  Set-up
    repetitions of the two libraries alternate in one process instead,
    since each takes only tens of milliseconds.  The run's median ratios
    are scaled by the reference's own times on the benchmark's host
    (`reference_s` in baseline.json), or, for variants without one, by
    the run's median reference times.  A round (set-up, then the pair of
    certifications) starts only if it should end within `seconds`; a run
    makes at least one.  The run uses as many CPUs as the workload has
    workers.  Returns the run's summary in the shape of a measure.py
    child's.
    """
    workers = WORKLOADS[workload].variants[variant].overrides.get("run.workers", 1)
    all_cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, sorted(all_cpus)[:workers])  # the children inherit it
    try:
        return _paired_loop(workload, seed, seconds, variant, reps)
    finally:
        os.sched_setaffinity(0, all_cpus)


def _paired_loop(workload, seed, seconds, variant, reps):
    start = time.perf_counter()
    baseline = _baseline(workload, variant)

    def remaining():
        return max(1.0, RUN_TIMEOUT_S - (time.perf_counter() - start))

    refs, setups, certs, rounds = [], [], [], []
    while True:
        t0 = time.perf_counter()
        setups.append(_child("setup", workload, variant, reps=reps, timeout=remaining()))
        cert_args = ["--seed", seed, "--attempt", len(certs)]
        cert, ref = _children(
            [("cert", "current", cert_args), ("cert", "reference", [])], workload, variant, remaining()
        )
        if "fingerprint" in baseline and ref["fingerprint"] != baseline["fingerprint"]:
            raise BenchError("the reference library's result differs from its fingerprint in baseline.json")
        certs.append(cert)
        refs.append(ref)
        rounds.append(time.perf_counter() - t0)
        if time.perf_counter() - start + statistics.median(rounds) > seconds:
            break

    first = next((c["fingerprint"] for c in certs if c["fingerprint"] is not None), None)
    failures, failed = [], 0
    for c in certs:
        failures += c["failures"]
        drifted = c["fingerprint"] is not None and c["fingerprint"] != first
        if drifted:
            failures.append("fingerprint differs from that of the run's first certification")
        failed += bool(c["failed"] or drifted)
    done = [c["metrics"] for c in certs if "metrics" in c]
    raw = {
        "certify_s_all": [c["metrics"]["certify_s"] if "metrics" in c else None for c in certs],
        "cpu_s_all": [c["metrics"]["cpu_s"] if "metrics" in c else None for c in certs],
        "setup_s_all": [t for s in setups for t in s["setup_s_all"]],
        "reference_certify_s_all": [r["certify_s"] for r in refs],
        "reference_cpu_s_all": [r["cpu_s"] for r in refs],
        "reference_setup_s_all": [t for s in setups for t in s["reference_setup_s_all"]],
    }
    cpu_ratio = _relative(raw["cpu_s_all"], raw["reference_cpu_s_all"])
    relative = {
        # wall times of a pair sharing a CPU say little about either alone;
        # a single-process certification's wall time follows its CPU time
        "certify_s": cpu_ratio,
        "cpu_s": cpu_ratio,
        "setup_s": [r for s in setups for r in _setup_relative(s)],
    }
    scale = baseline.get("reference_s") or {
        name: statistics.median(raw[f"reference_{name}_all"]) for name in relative
    }
    out = {
        "attempted": len(certs),
        "failed": failed,
        "failures": failures[:10],
        "fingerprint": first,
        "numpy": certs[0]["numpy"],
        **raw,
        "relative_all": relative,
    }
    if done:
        out["metrics"] = {name: scale[name] * statistics.median(r) for name, r in relative.items()}
        out["metrics"].update(
            peak_rss_mb=max(m["peak_rss_mb"] for m in done),
            doa_level=done[-1]["doa_level"],
            certified_frac=done[-1]["certified_frac"],
        )
    return out


def run_once(workload, seed, seconds, trace, variant, reps=SETUP_REPS):
    """One benchmark run: returns (record, result)."""
    spec = _spec()
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    if trace:
        child = _child("trace", workload, variant, seed=seed)
    else:
        child = timed_run(workload, seed, seconds, variant, reps)
    # no metrics when a certification the metrics need raised; the result
    # then still reports attempted and failed
    measured = child.get("metrics", {})
    missing = [m["name"] for m in wanted if m["name"] not in measured]
    if measured and missing:
        raise BenchError(f"metrics not measured: {missing}")
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in wanted if measured}

    baseline = _baseline(workload, variant).get("fingerprint")
    record = {
        "workload": workload,
        "variant": variant,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "environment": {
            "git_sha": _git_sha(),
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": child.get("numpy"),
        },
        "fingerprint": child.get("fingerprint"),
        "fingerprint_matches_baseline": (
            None if baseline is None else baseline == child.get("fingerprint")
        ),
        "failures": child.get("failures"),
        "measured": measured,
        "raw": {k: v for k, v in child.items() if k.endswith("_all") or k == "walls"},
    }
    result = {
        "correct": child["failed"] == 0 and bool(metrics),
        "attempted": child["attempted"],
        "failed": child["failed"],
        "metrics": metrics,
    }
    return record, result


def smoke(workloads, seed):
    """Each workload at its coarse variant, both modes; every metric must appear."""
    ok = True
    for name in workloads:
        for trace in (0, 1):
            try:
                record, result = run_once(name, seed, 1.0, trace, "smoke", reps=1)
                for failure in record["failures"]:
                    print(f"smoke {name} trace={trace}: {failure}", file=sys.stderr)
                good = result["correct"]
            except BenchError as exc:
                print(f"smoke {name} trace={trace}: {exc}", file=sys.stderr)
                good = False
            print(f"smoke {name} trace={trace}: {'ok' if good else 'FAILED'}")
            ok &= good
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="coarse floors, seconds per workload")
    parser.add_argument("--full", action="store_true", help="the larger, slower configs")
    args = parser.parse_args(argv)

    if not (SRC / "lyapcert" / "__init__.py").is_file():
        print(f"error: no lyapcert sources under {SRC}", file=sys.stderr)
        return 2
    try:
        if args.smoke:
            return smoke([args.workload] if args.workload else sorted(WORKLOADS), args.seed)
        if args.workload is None:
            parser.error("--workload is required")
        variant = "full" if args.full else "bench"
        record, result = run_once(args.workload, args.seed, args.seconds, args.trace, variant)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print("record: " + json.dumps(record))
    print(json.dumps(result))
    if not result["metrics"]:
        print(f"error: no certification completed: {record['failures']}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
