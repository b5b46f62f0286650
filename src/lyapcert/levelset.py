"""Largest sublevel set of W inside the certified (possibly non-convex) region.

Two families of samples constrain the level from below: undecided boxes
adjacent to certified ones (inner obstacles) and a fine sampling of the
search-set boundary.  Each sample contributes a rigorous lower bound on
min W over its box; the estimate is the minimum over both families.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .bounds import WContext
from .geometry import HyperRect, SampleLedger, SampleRecord


@dataclass
class LevelEstimate:
    Lbar1: float  # inner-obstacle bound (inf when no obstacles)
    Lbar2: float  # search-set boundary bound
    Lbar: float
    n_obstacle: int = 0
    n_boundary: int = 0
    skipped: int = 0
    skipped_overlaps: bool = False  # a skipped sample's box meets {W <= Lbar}
    contains_local_set: Optional[bool] = None

    @property
    def usable(self) -> bool:
        return (
            self.Lbar > 0.0
            and math.isfinite(self.Lbar)
            and not self.skipped_overlaps
            and self.contains_local_set is not False
        )


def _outside_local(x, local) -> bool:
    if local is None:
        return True
    return float(np.asarray(x) @ local.P_L @ np.asarray(x)) > local.level_L


def obstacle_samples(
    ledger: SampleLedger, delta_min: float, local=None
) -> list:
    """Terminal undecided boxes that touch a certified box.

    The ledger holds terminal boxes only (refined parents are replaced by
    their children), so every undecided record is an obstacle candidate;
    most sit at the resolution floor, flagged ones may be coarser.  Boxes
    are adjacent when the componentwise center distance is at most the
    sum of the per-axis extents; samples inside the local invariant set
    do not constrain the level set and are skipped.
    """
    if not ledger.good or not ledger.wrong:
        return []
    good_centers = np.array([r.spoint for r in ledger.good])
    good_tau = np.array([r.tau for r in ledger.good])
    out = []
    for rec in ledger.wrong:
        if not _outside_local(rec.spoint, local):
            continue
        gap = np.abs(good_centers - rec.spoint) - (good_tau + rec.tau)
        if np.any(np.all(gap <= 1e-12, axis=1)):
            out.append(rec)
    return out


def boundary_samples(S: HyperRect, spacing: float, ledger: SampleLedger) -> list:
    """Grid of flat boxes on the faces of S, kept where they touch good boxes.

    A sample on a face is degenerate along the face normal and extends
    `spacing` along the remaining axes.
    """
    if not (spacing > 0.0):
        raise ValueError("spacing must be positive")
    n = S.n
    lo, hi = S.lower, S.upper
    samples = []
    for axis in range(n):
        for side_val in (lo[axis], hi[axis]):
            axes = [i for i in range(n) if i != axis]
            grids = []
            for i in axes:
                count = max(1, int(math.ceil((hi[i] - lo[i]) / spacing)) + 1)
                grids.append(np.linspace(lo[i], hi[i], count))
            mesh = np.meshgrid(*grids, indexing="ij") if axes else []
            coords = (
                np.stack([m.ravel() for m in mesh], axis=1)
                if axes
                else np.zeros((1, 0))
            )
            for row in coords:
                center = np.empty(n)
                center[axis] = side_val
                for k, i in enumerate(axes):
                    center[i] = row[k]
                delta = np.zeros(2 * n)
                for i in axes:
                    delta[2 * i] = spacing
                    delta[2 * i + 1] = -spacing
                box = HyperRect(center, delta)
                samples.append(
                    SampleRecord(box.center, box.delta, box.tau, None, None)
                )
    if not ledger.good:
        return samples
    good_centers = np.array([r.spoint for r in ledger.good])
    good_tau = np.array([r.tau for r in ledger.good])
    kept = []
    for rec in samples:
        gap = np.abs(good_centers - rec.spoint) - (good_tau + rec.tau)
        if np.any(np.all(gap <= 1e-12, axis=1)):
            kept.append(rec)
    return kept


def level_lower_bound(
    wctx: WContext, box: HyperRect, subdivide_to: Optional[float] = None
) -> Optional[float]:
    """Rigorous lower bound on min W over the box (None when not computable)."""
    return wctx.lower_bound_over_box(box, subdivide_to=subdivide_to)


def estimate_level(
    wctx: WContext,
    ledger: SampleLedger,
    S: HyperRect,
    spacing: float,
    delta_min: float,
    local=None,
) -> LevelEstimate:
    """Assemble the level estimate from obstacle and boundary samples.

    Samples whose bound computation fails are excluded from the min but
    tracked: if any skipped box can intersect the resulting sublevel set,
    the estimate refuses to support a verdict.  The local invariant set
    must itself fit inside the sublevel set (checked on sampled boundary
    points of the local ellipsoid).
    """
    if not ledger.good:
        raise ValueError("level estimation needs a non-empty certified region")

    obstacles = obstacle_samples(ledger, delta_min, local)
    boundary = boundary_samples(S, spacing, ledger)

    skipped = []

    def min_bound(records, refine_to=None):
        """Two-phase minimum: cheap bounds for all samples in one batch
        first, refined evaluation only for samples that could still lower
        the minimum."""
        boxes = [rec.box() for rec in records]
        coarse = []
        for box, lb in zip(boxes, wctx.lower_bounds(boxes, subdivide_to=delta_min)):
            if lb is None:
                skipped.append(box)
            else:
                coarse.append((lb, box))
        if refine_to is None:
            return min((lb for lb, _ in coarse), default=math.inf)
        coarse.sort(key=lambda t: t[0])
        best = math.inf
        for lb, box in coarse:
            if lb >= best:
                break  # refined bounds only increase; the minimum is settled
            tight = level_lower_bound(wctx, box, refine_to)
            best = min(best, tight if tight is not None else lb)
        return best

    # evaluating obstacle bounds on a sub-resolution grid tames interval
    # dependency; the certified geometry itself is untouched
    Lbar1 = min_bound(obstacles, refine_to=delta_min / 4.0)
    Lbar2 = min_bound(boundary)
    Lbar = min(Lbar1, Lbar2)

    overlaps = False
    if math.isfinite(Lbar) and skipped:
        overlaps = any(
            rng is None or rng.lo <= Lbar for rng in wctx.interval_values_over_boxes(skipped)
        )

    contains_local = None
    if local is not None and math.isfinite(Lbar):
        contains_local = _local_set_inside_level(wctx, local, Lbar)

    return LevelEstimate(
        Lbar1=Lbar1,
        Lbar2=Lbar2,
        Lbar=Lbar,
        n_obstacle=len(obstacles),
        n_boundary=len(boundary),
        skipped=len(skipped),
        skipped_overlaps=overlaps,
        contains_local_set=contains_local,
    )


def _local_set_inside_level(wctx: WContext, local, Lbar: float, samples: int = 512) -> bool:
    """Sampled audit that the local ellipsoid sits inside {W <= Lbar}."""
    P = np.asarray(local.P_L, dtype=float)
    n = P.shape[0]
    rng = np.random.default_rng(7)
    U = rng.normal(size=(samples, n))
    U /= np.linalg.norm(U, axis=1, keepdims=True)
    # map the unit sphere onto the ellipsoid boundary {x'Px = level}
    L = np.linalg.cholesky(np.linalg.inv(P))
    pts = math.sqrt(local.level_L) * (U @ L.T)
    for x in pts:
        if wctx.value(x) > Lbar:
            return False
    return True
