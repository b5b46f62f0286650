"""Largest sublevel set of W inside the certified (possibly non-convex) region.

Two families of samples constrain the level from below: undecided boxes
adjacent to certified ones (inner obstacles) and a fine sampling of the
search-set boundary.  Each sample contributes a rigorous lower bound on
min W over its box; the estimate is the minimum over both families.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .bounds import WContext
from .geometry import BoxArray, HyperRect, SampleLedger, SampleRecord, tau_of


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


# most box pairs one touch test compares at once; bounds its memory
_TOUCH_PAIRS = 4096


def _touching(centers, tau, good_centers, good_tau) -> np.ndarray:
    """Which boxes (rows of `centers`, `tau`) touch a good box: on every
    axis the centre distance exceeds the sum of the half-widths by at most
    1e-12."""
    hit = np.zeros(len(centers), bool)
    cols = max(1, min(len(good_centers), _TOUCH_PAIRS))
    rows = _TOUCH_PAIRS // cols
    for s in range(0, len(centers), rows):
        c, t = centers[s : s + rows, None], tau[s : s + rows, None]
        for g in range(0, len(good_centers), cols):
            gap = np.abs(good_centers[g : g + cols] - c) - (good_tau[g : g + cols] + t)
            hit[s : s + rows] |= np.all(gap <= 1e-12, axis=2).any(axis=1)
    return hit


def _arrays(records):
    return np.array([r.spoint for r in records]), np.array([r.tau for r in records])


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
    open_ = [
        rec
        for rec in ledger.wrong
        if local is None or float(rec.spoint @ local.P_L @ rec.spoint) > local.level_L
    ]
    hit = _touching(*_arrays(open_), *_arrays(ledger.good))
    return [rec for rec, h in zip(open_, hit) if h]


def boundary_samples(S: HyperRect, spacing: float, ledger: SampleLedger) -> list:
    """Grid of flat boxes on the faces of S, kept where they touch good boxes.

    A sample on a face is degenerate along the face normal and extends
    `spacing` along the remaining axes.  A face is tested only against the
    good boxes that reach it (the touch test's own term for the face
    normal), which keeps the same samples.
    """
    if not (spacing > 0.0):
        raise ValueError("spacing must be positive")
    n = S.n
    lo, hi = S.lower, S.upper
    good_c, good_t = _arrays(ledger.good)
    samples = []
    for axis in range(n):
        axes = [i for i in range(n) if i != axis]
        grids = [
            np.linspace(lo[i], hi[i], max(1, int(math.ceil((hi[i] - lo[i]) / spacing)) + 1))
            for i in axes
        ]
        mesh = np.meshgrid(*grids, indexing="ij") if axes else []
        coords = np.stack([m.ravel() for m in mesh], axis=1) if axes else np.zeros((1, 0))
        delta = np.zeros(2 * n)
        for i in axes:
            delta[2 * i], delta[2 * i + 1] = spacing, -spacing
        tau = tau_of(delta)
        for side_val in (lo[axis], hi[axis]):
            centers = np.insert(coords, axis, side_val, axis=1)
            if ledger.good:
                reach = np.abs(good_c[:, axis] - side_val) - (good_t[:, axis] + tau[axis]) <= 1e-12
                taus = np.broadcast_to(tau, centers.shape)
                centers = centers[_touching(centers, taus, good_c[reach], good_t[reach])]
            samples += [SampleRecord(c, delta.copy(), tau.copy(), None, None) for c in centers]
    return samples


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
    prefetch: Sequence[SampleRecord] = (),
) -> LevelEstimate:
    """Assemble the level estimate from obstacle and boundary samples.

    Samples whose bound computation fails are excluded from the min but
    tracked: if any skipped box can intersect the resulting sublevel set,
    the estimate refuses to support a verdict.  The local invariant set
    must itself fit inside the sublevel set (checked on sampled boundary
    points of the local ellipsoid).  One pass bounds the obstacles, the
    boundary samples and the boxes of the records `prefetch` (those an
    invariance audit that follows bounds) at `delta_min`, and the obstacle
    with the smallest W at its centre at `delta_min / 4`; a second pass
    bounds the other obstacles the refinement loop can visit
    (_refined_min).  The context keeps the bounds (WContext.lower_bounds_at).
    """
    if not ledger.good:
        raise ValueError("level estimation needs a non-empty certified region")

    obstacles = BoxArray.of_records(obstacle_samples(ledger, delta_min, local))
    boundary = BoxArray.of_records(boundary_samples(S, spacing, ledger))
    samples = BoxArray.concat([obstacles, boundary])
    refine_to = delta_min / 4.0
    lowest = _lowest_centre(wctx, obstacles)
    prefetch = BoxArray.of_records(prefetch)
    lowest_box = obstacles.take([lowest] if lowest is not None else [])
    requests = BoxArray.concat([samples, prefetch, lowest_box])
    subs = [delta_min] * (len(samples) + len(prefetch)) + [refine_to] * len(lowest_box)
    coarse = wctx.lower_bounds_at(requests, subs)[: len(samples)]
    skipped = samples.take([k for k, lb in enumerate(coarse) if lb is None])

    # evaluating obstacle bounds on a sub-resolution grid tames interval
    # dependency; the certified geometry itself is untouched
    Lbar1 = _refined_min(wctx, obstacles, coarse[: len(obstacles)], refine_to, lowest)
    Lbar2 = min((lb for lb in coarse[len(obstacles) :] if lb is not None), default=math.inf)
    Lbar = min(Lbar1, Lbar2)

    overlaps = False
    if math.isfinite(Lbar) and len(skipped):
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


def _lowest_centre(wctx: WContext, boxes: BoxArray) -> Optional[int]:
    """The index of the box with the smallest W value at its centre (None
    if no value is known): its refined bound usually sets Lbar1."""
    values = wctx.values(boxes.centers) if len(boxes) else []
    known = [(w, k) for k, w in enumerate(values) if not isinstance(w, Exception)]
    return min(known)[1] if known else None


def _refined_min(
    wctx: WContext, boxes: BoxArray, coarse: list, refine_to: float, lowest: Optional[int]
) -> float:
    """Smallest obstacle bound: the boxes in increasing order of their
    coarse bound, each bounded again at `refine_to`, until the next coarse
    bound cannot lower the minimum.  The boxes the loop can visit
    (_candidates) are refined first in one batch; the loop reads their
    bounds and refines any other box it visits itself, so the result does
    not depend on the candidates."""
    ranked = sorted(((lb, k) for k, lb in enumerate(coarse) if lb is not None), key=lambda t: t[0])
    wctx.lower_bounds(
        boxes.take(_candidates(wctx, boxes, ranked, refine_to, lowest)), subdivide_to=refine_to
    )
    best = math.inf
    for lb, k in ranked:
        if lb >= best:
            break  # refined bounds only increase; the minimum is settled
        tight = level_lower_bound(wctx, boxes[k], refine_to)
        best = min(best, tight if tight is not None else lb)
    return best


def _candidates(wctx: WContext, boxes: BoxArray, ranked: list, refine_to: float, lowest) -> list:
    """The indices of the boxes of `ranked` ((coarse bound, index) pairs in
    increasing order) up to box `lowest`, and those after it whose coarse
    bound lies below what the loop takes for `lowest`: its refined bound,
    or its coarse one when it has none.  After the loop visits `lowest`
    its minimum is at most that value, so these are all the boxes it can
    visit.  No candidates when `lowest` has no coarse bound."""
    at = next((i for i, (_, k) in enumerate(ranked) if k == lowest), None)
    if at is None:
        return []
    tight = wctx.lower_bounds(boxes.take([lowest]), subdivide_to=refine_to)[0]
    top = tight if tight is not None else ranked[at][0]
    return [k for i, (lb, k) in enumerate(ranked) if i <= at or lb < top]


def _local_set_inside_level(wctx: WContext, local, Lbar: float, samples: int = 512) -> bool:
    """Sampled audit that the local ellipsoid sits inside {W <= Lbar}; a
    point whose W fails counts as outside."""
    P = np.asarray(local.P_L, dtype=float)
    n = P.shape[0]
    rng = np.random.default_rng(7)
    U = rng.normal(size=(samples, n))
    U /= np.linalg.norm(U, axis=1, keepdims=True)
    # map the unit sphere onto the ellipsoid boundary {x'Px = level}
    L = np.linalg.cholesky(np.linalg.inv(P))
    pts = math.sqrt(local.level_L) * (U @ L.T)
    return not any(isinstance(w, Exception) or w > Lbar for w in wctx.values(pts))
