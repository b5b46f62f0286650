"""The certified-region search as a per-box loop.

build_certified_region, its seed grid, refine2, longest_axes, the box
decision and the per-box coefficient reduction of assess_boxes as the
library had them before waves became box arrays, kept (renamed) as the
reference that the library's ledgers must match bit for bit.  Branch
enumeration and the batched Hessian pass are the library's own.  This
module is apart from oracles.py, which the benchmark's output checks
import.
"""

import itertools

import numpy as np

from lyapcert.bounds import (
    BoundCoefficients,
    BranchBounds,
    _values_and_grads,
    by_branch,
    certificate_slack,
)
from lyapcert.errors import BranchOverflowError, CoverageError
from lyapcert.geometry import HyperRect, SampleLedger, SampleRecord, interval_batch
from lyapcert.interval import require_no_nan
from lyapcert.system import DomainExit
from lyapcert.verifier import _EVAL_ERRORS, BoxOutcome, _point_jump


def ref_from_bounds(lo, hi) -> HyperRect:
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    center = 0.5 * (lo + hi)
    delta = np.empty(2 * lo.shape[0])
    delta[0::2] = hi - center
    delta[1::2] = lo - center
    return HyperRect(center, delta)


def ref_refine2(box, dims=None) -> list:
    if dims is None:
        dims = [i for i in range(box.n) if box.hi_offsets[i] > box.lo_offsets[i]]
    dims = sorted(set(int(d) for d in dims))
    if not dims:
        raise ValueError("refinement needs at least one axis")
    for d in dims:
        if box.hi_offsets[d] <= box.lo_offsets[d]:
            raise ValueError(f"axis {d} is degenerate and cannot be refined")

    children = []
    for choice in itertools.product((0, 1), repeat=len(dims)):
        center = box.center.copy()
        delta = box.delta.copy()
        for d, pick_hi in zip(dims, choice):
            off = box.hi_offsets[d] if pick_hi else box.lo_offsets[d]
            center[d] += 0.5 * off
            delta[2 * d] = 0.5 * box.hi_offsets[d]
            delta[2 * d + 1] = 0.5 * box.lo_offsets[d]
        children.append(HyperRect(center, delta))
    return children


def ref_longest_axes(box) -> list:
    ext = box.upper - box.lower
    m = float(ext.max())
    return [i for i in range(box.n) if ext[i] >= m - 1e-15]


def ref_assess_boxes(fmap, boxes) -> list:
    boxes = [boxes[k] for k in range(len(boxes))]
    centers = np.array([box.center for box in boxes])
    ivec = interval_batch(boxes)
    with np.errstate(over="ignore", invalid="ignore"):
        values, grads = _values_and_grads(fmap, centers)
        hess = fmap.interval_hessian(ivec)
        mags = hess.magnitude()
    require_no_nan(hess.lo, hess.hi)
    out = []
    for k, box in enumerate(boxes):
        H, tau = np.ascontiguousarray(mags[k]), box.tau
        a, b = float(np.sum(np.abs(grads[k]))), float(0.5 * tau @ H @ tau)
        out.append(BranchBounds(float(values[k]), BoundCoefficients(a, b)))
    return out


def ref_decide(ctx, box, branches, found, k) -> BoxOutcome:
    if isinstance(branches, BranchOverflowError):
        return BoxOutcome(False, None, None, "branch-overflow")
    if isinstance(branches, _EVAL_ERRORS):
        return BoxOutcome(False, None, None, "domain-error")
    if isinstance(branches, DomainExit):
        refinable = not ctx.center_exits(box.center)
        return BoxOutcome(False, None, None, "left-domain", refinable=refinable)
    if isinstance(branches, CoverageError):
        return BoxOutcome(False, None, None, "no-region")
    assessments = [found[k, b][0] for b in branches]
    if any(isinstance(a, _EVAL_ERRORS) for a in assessments):
        return BoxOutcome(False, None, None, "domain-error")
    values = [a.value for a in assessments]
    eps = _point_jump(ctx, box.center, branches, values)
    gamma = certificate_slack([a.split for a in assessments], eps, box.max_abs_delta)
    F = float(max(values))
    return BoxOutcome(F < -gamma, F, gamma, None)


def ref_seed_boxes(cfg) -> list:
    if cfg.seed_split is None:
        return [cfg.S]
    splits = cfg.seed_split
    lo, hi = cfg.S.lower, cfg.S.upper
    edges = [np.linspace(lo[i], hi[i], splits[i] + 1) for i in range(cfg.S.n)]
    boxes = []
    for idx in itertools.product(*(range(k) for k in splits)):
        blo = [edges[i][idx[i]] for i in range(cfg.S.n)]
        bhi = [edges[i][idx[i] + 1] for i in range(cfg.S.n)]
        boxes.append(ref_from_bounds(blo, bhi))
    return boxes


def ref_build_certified_region(cfg, ctx):
    """(ledger, explored) of the per-box wave loop."""
    ledger = SampleLedger()
    explored = 0
    queue = ref_seed_boxes(cfg)
    while queue:
        branches, found = by_branch(ctx, queue, _EVAL_ERRORS, ref_assess_boxes)
        outcomes = [
            ref_decide(ctx, queue[k], seqs, found, k) for k, seqs in enumerate(branches)
        ]
        next_queue = []
        for box, out in zip(queue, outcomes):
            explored += 1
            if out.certified:
                ledger.good.append(
                    SampleRecord(box.center, box.delta, box.tau, out.F_value, out.gamma)
                )
            elif box.max_abs_delta > cfg.delta_min and out.refinable:
                dims = ref_longest_axes(box) if cfg.split_longest_only else None
                next_queue.extend(ref_refine2(box, dims))
            else:
                ledger.wrong.append(
                    SampleRecord(
                        box.center, box.delta, box.tau, out.F_value, out.gamma, out.flag
                    )
                )
        queue = next_queue
    ledger.sort()
    return ledger, explored
