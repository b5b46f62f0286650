"""Benchmark workloads: bundled configs, each scaled to a few seconds per run.

One workload operation is a full certification: from a loaded `RunConfig`
to the final report (for `flow3d`, `run_verify_dt` and then
`run_verify_ct` on that report).  The certified problem is fixed per
workload; the seed only draws the boxes and points the checks and the
microbenchmarks use.

This module imports only the standard library, so that the set-up process
can time `import lyapcert` on its own.
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass
from pathlib import Path

KL = "kl-stable-on-W"

_BENCH = Path(__file__).resolve().parent
# Directories that hold a `lyapcert` package: the library under test, and a
# frozen copy of it (the seed commit's `src/lyapcert`) that timed runs
# alternate with, so that the host's changing speed cancels out of the
# timings (see README.md, "Steadiness").
LIBS = {"current": _BENCH.parent / "src", "reference": _BENCH / "reference"}


@dataclass(frozen=True)
class Variant:
    """Config overrides (dotted `section.key` paths) and the verdicts they give."""

    overrides: dict
    verdicts: tuple  # expected verdict of each stage: (dt,) or (dt, ct)


@dataclass(frozen=True)
class Workload:
    name: str
    config: str  # file name under src/lyapcert/configs
    continuous: bool  # run the continuous-time validation after the dt run
    why: str
    variants: dict  # "bench", "smoke" and "full" -> Variant


# The "bench" variants are what the timed runs use.  They are coarser than
# the "full" variants (the bundled configs, or close to them) so that several certifications fit in
# one timed run; "smoke" variants take about a second and only check that
# every metric is produced.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="poly2d",
            config="example_2d.json",
            continuous=False,
            why=(
                "single-region 2D polynomial map at M=4, workers=1: the deepest "
                "DecreaseMap composition and the W bounds of the invariance "
                "audit dominate; branch logic does almost nothing"
            ),
            variants={
                "bench": Variant(
                    {
                        "search.S": {"lo": [-0.7, -0.9], "hi": [0.7, 0.9]},
                        "search.delta_min": 0.04,
                        "search.N1": {"lo": [-0.2, -0.2], "hi": [0.2, 0.2]},
                        "search.boundary_spacing": 0.02,
                        "run.workers": 1,
                    },
                    (KL,),
                ),
                "smoke": Variant(
                    {
                        "search.delta_min": 0.1,
                        "search.N1": {"lo": [-0.2, -0.2], "hi": [0.2, 0.2]},
                        "search.boundary_spacing": 0.1,
                        "run.quality_gate": 0.0,
                        "run.workers": 1,
                    },
                    ("certified-A-only",),
                ),
                "full": Variant({"run.workers": 1}, (KL,)),
            },
        ),
        Workload(
            name="guard2d",
            config="example_piecewise.json",
            continuous=False,
            why=(
                "two-piece 2D map discontinuous on x2 = 0, workers=1: boxes "
                "straddling the guard exercise branch enumeration, multi-branch "
                "assess_branch and the point jump"
            ),
            variants={
                "bench": Variant({"search.delta_min": 0.05, "run.workers": 1}, (KL,)),
                "smoke": Variant({"search.delta_min": 0.1, "run.workers": 1}, ("certified-A-only",)),
                "full": Variant({"search.delta_min": 0.0125, "run.workers": 1}, (KL,)),
            },
        ),
        Workload(
            name="flow3d",
            config="example_3d.json",
            continuous=True,
            why=(
                "3D flow, dt run then ct validation, workers=2: the only workload "
                "with the process pool, the nested-dual flow map, 3D boundary "
                "sampling and a non-trivial local certificate"
            ),
            variants={
                "bench": Variant(
                    {
                        "search.S": {"lo": [-0.5, -0.5, -0.6], "hi": [0.5, 0.5, 0.6]},
                        "search.delta_min": 0.08,
                        "search.N1": {"lo": [-0.4, -0.4, -0.5], "hi": [0.4, 0.4, 0.5]},
                        "search.P_local": [[5.5556, 0, 0], [0, 5.5556, 0], [0, 0, 4.5]],
                        "search.local_delta_min": 0.05,
                        "search.boundary_spacing": 0.08,
                        "run.seed_split": [5, 5, 6],
                        "run.workers": 2,
                    },
                    (KL, KL),
                ),
                "smoke": Variant(
                    {
                        "search.S": {"lo": [-0.4, -0.4, -0.4], "hi": [0.4, 0.4, 0.4]},
                        "search.delta_min": 0.15,
                        "search.N1": {"lo": [-0.3, -0.3, -0.3], "hi": [0.3, 0.3, 0.3]},
                        "search.P_local": [[5.5556, 0, 0], [0, 5.5556, 0], [0, 0, 3.9]],
                        "search.local_delta_min": 0.15,
                        "search.boundary_spacing": 0.3,
                        "run.quality_gate": 0.0,
                        "run.seed_split": [4, 4, 4],
                        "run.workers": 2,
                    },
                    ("certified-A-only", "certified-A-only"),
                ),
                "full": Variant({"search.boundary_spacing": 0.08, "run.workers": 2}, (KL, KL)),
            },
        ),
    )
}


def config_doc(lib: str, workload: Workload, variant: str) -> dict:
    """The config bundled with library `lib` ("current" or "reference"), with the variant's overrides."""
    path = LIBS[lib] / "lyapcert" / "configs" / workload.config
    with open(path) as fh:
        doc = json.load(fh)
    for dotted, value in workload.variants[variant].overrides.items():
        section, key = dotted.split(".")
        doc.setdefault(section, {})[key] = copy.deepcopy(value)
    return doc
