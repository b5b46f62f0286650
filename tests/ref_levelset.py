"""The level estimate's sample selection as per-record loops.

obstacle_samples and boundary_samples as the library had them before the
touch test ran over arrays, kept verbatim (renamed) as the reference that
the library's selection must match record for record.  This module is
apart from oracles.py, which the benchmark's output checks import.
"""

import math

import numpy as np

from lyapcert.geometry import HyperRect, SampleRecord


def _outside_local(x, local) -> bool:
    if local is None:
        return True
    return float(np.asarray(x) @ local.P_L @ np.asarray(x)) > local.level_L


def ref_obstacle_samples(ledger, delta_min, local=None) -> list:
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


def ref_boundary_samples(S, spacing, ledger) -> list:
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


def ref_lbar1(wctx, records, delta_min):
    """Lbar1 by the loop estimate_level ran before W bounds were kept per
    run: one coarse pass over the obstacles, then each obstacle in
    increasing order of its coarse bound bounded again on its own at
    delta_min / 4, until the next coarse bound cannot lower the minimum.
    Returns (Lbar1, the boxes the loop bounded again)."""
    boxes = [rec.box() for rec in records]
    coarse = []
    for box, lb in zip(boxes, wctx.lower_bounds(boxes, subdivide_to=delta_min)):
        if lb is not None:
            coarse.append((lb, box))
    coarse.sort(key=lambda t: t[0])
    best = math.inf
    visited = []
    for lb, box in coarse:
        if lb >= best:
            break
        visited.append(box)
        tight = wctx.lower_bound_over_box(box, delta_min / 4.0)
        best = min(best, tight if tight is not None else lb)
    return best, visited
