"""Rigorous per-box variation bounds for the certified decrease test.

For a scalar map F restricted to one composition branch, this module
computes

* the gradient coefficient  a = ||grad F(x_s)||_1  at the sample point,
* the Taylor remainder bound  b = 1/2 tau' |H| tau  with H an interval
  enclosure of the Hessian of F over the whole box (the box is convex, so
  it contains every intermediate segment point).

Together with the branch jump eps these assemble the per-sample slack
``a * max|delta| + b + eps``; certifying F(x_s) < -slack extends F < 0
over the whole box.

The 1-norm on gradients is the dual of the infinity norm used for box
distances; that pairing is what makes the Hoelder step sound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .ad import Dual, Dual2, dual_seeds, dual2_seeds, hessian_of
from .errors import LyapcertError
from .geometry import BoxArray, HyperRect, interval_batch
from .interval import Interval, IntervalArray, require_no_nan
from .system import (
    CandidateV,
    DomainExit,
    PiecewiseSystem,
    _one,
    apply_field,
    enumerate_boxes_branches,
    point_trajectories,
    quad_form,
)

@dataclass(frozen=True)
class BoundCoefficients:
    """|F(x) - F(x_s)| <= a * ||x - x_s||_inf + b over the box."""

    a: float
    b: float

    def __post_init__(self):
        if self.a < 0.0 or self.b < 0.0:
            raise ValueError("bound coefficients must be non-negative")


def certificate_slack(coeffs: Sequence[BoundCoefficients], eps: float, xi: float) -> float:
    """max_a * xi + max_b + eps over the branch coefficients."""
    if not coeffs:
        raise ValueError("need coefficients for at least one branch")
    a = max(c.a for c in coeffs)
    b = max(c.b for c in coeffs)
    return a * xi + b + eps


def gradient_coefficient(grad) -> float:
    """||grad||_1, the dual norm of the box distance."""
    return float(gradient_coefficients(np.asarray(grad, dtype=float)[None])[0])


def remainder_bound(hess, tau) -> float:
    """1/2 tau' |H| tau with componentwise magnitude upper bounds; `hess` is
    the float matrix of the Hessian enclosure's magnitudes."""
    hess, tau = np.asarray(hess, dtype=float), np.asarray(tau, dtype=float)
    return float(remainder_bounds(hess[None], tau[None])[0])


def gradient_coefficients(grads) -> np.ndarray:
    """gradient_coefficient of every row of `grads`, shape (N, n)."""
    return np.sum(np.ascontiguousarray(np.abs(grads)), axis=1)


def remainder_bounds(hess, tau) -> np.ndarray:
    """remainder_bound of every row: Hessian magnitudes of shape (N, n, n)
    and tau of shape (N, n).  The products are taken over C-ordered
    copies, since numpy sums them in an order that follows the memory
    layout; a row is a (1, n) @ (n, n) product and then a dot product,
    whatever the other rows."""
    H = np.ascontiguousarray(hess, dtype=float)
    tau = np.ascontiguousarray(tau, dtype=float)
    return ((0.5 * tau)[:, None, :] @ H @ tau[:, :, None]).reshape(len(tau))


# -- branch-restricted scalar maps ------------------------------------------


def _branch_rows(branch, steps: int, what: str) -> np.ndarray:
    """One region sequence, or R of them, as an (R, steps) int matrix."""
    rows = np.atleast_2d(np.array(branch, dtype=np.intp))
    if rows.ndim != 2 or rows.shape[1] != steps:
        raise ValueError(f"branch length must {what}")
    return rows


class _BranchMap:
    """A scalar map of x along fixed branches; a subclass supplies `_eval`
    over any payload sequence, and its own `interval_hessian`.

    `branch` is one region sequence (a tuple), or an (R, steps) int matrix
    whose row k fixes the regions of entry k of batched payloads of R
    entries.  One row serves a batch of any size, and plain floats
    (`value`, `value_and_grad`).  Each step runs through apply_field,
    so entry k is bit for bit what the one-row map of its sequence gives
    for it alone, or the pass raises DomainError (stitch_rows).
    """

    def value(self, x) -> float:
        return float(self._eval([float(v) for v in x]))

    def value_and_grad(self, x):
        out = self._eval(dual_seeds([float(v) for v in x]))
        if not isinstance(out, Dual):
            return float(out), np.zeros(len(x))
        return float(out.value), np.array(out.grad, dtype=float)

    def interval_value(self, ivec):
        """Enclosures of the map over N boxes (an IntervalArray of shape
        (n, N)), shape (N,); constant when the map does not depend on x."""
        with np.errstate(over="ignore", invalid="ignore"):  # overflow gives inf, as for floats
            out = self._eval(list(ivec))
        return out if isinstance(out, IntervalArray) else ivec[0].constant(out)

    def _dual2_pass(self, ivec, with_range):
        """The interval Hessian over N boxes (hessian_of); with `with_range`,
        (enclosure, Hessian), the enclosure being the value part of the same
        second-order dual pass."""
        out = self._eval(dual2_seeds(list(ivec)))
        hess = hessian_of(out, ivec)
        if not with_range:
            return hess
        value = out.value if isinstance(out, Dual2) else out
        return (value if isinstance(value, IntervalArray) else ivec[0].constant(value)), hess


class DecreaseMap(_BranchMap):
    """F(x) = V(G^M(x)) - rho_c V(x) with the region fixed at every step."""

    def __init__(self, sys: PiecewiseSystem, V: CandidateV, M: int, branch):
        self.sys = sys
        self.V = V
        self.M = M
        self.branch = _branch_rows(branch, M, "equal the horizon")

    def _eval(self, values):
        state = list(values)
        for regions in self.branch.T:
            state = apply_field(self.sys, regions, state)
        return quad_form(self.V.P, state) - self.V.rho_c * quad_form(self.V.P, values)

    def interval_hessian(self, ivec, with_range=False):
        return self._dual2_pass(ivec, with_range)


class SumOfIteratesMap(_BranchMap):
    """W(x) = sum_{j<M} V(G^j(x)) with the region fixed at every step."""

    def __init__(self, sys: PiecewiseSystem, V: CandidateV, M: int, branch):
        self.sys = sys
        self.V = V
        self.M = M
        self.branch = _branch_rows(branch, M - 1, "be M - 1 (steps between iterates)")

    def _eval(self, values):
        state = list(values)
        total = quad_form(self.V.P, state)
        for regions in self.branch.T:
            state = apply_field(self.sys, regions, state)
            total = total + quad_form(self.V.P, state)
        return total

    def interval_hessian(self, ivec, with_range=False):
        return self._dual2_pass(ivec, with_range)


class DerivativeAlongFlowMap(_BranchMap):
    """F(x) = grad W(x) . f(x), the time derivative of W along a flow.

    W is the sum-of-iterates function of the discretized map along
    `branch`; f is the continuous-time field of `region`, an int, or one
    region per branch row.  An inner layer of first-order duals produces
    grad W symbolically in whatever payload algebra the outer evaluation
    runs in, which buys the extra derivative order needed for the Hessian
    of F.
    """

    def __init__(
        self,
        ct_sys: PiecewiseSystem,
        dt_sys: PiecewiseSystem,
        V: CandidateV,
        M: int,
        region,
        branch,
    ):
        self.ct_sys = ct_sys
        self.W = SumOfIteratesMap(dt_sys, V, M, branch)
        self.region = np.array(region, dtype=np.intp).reshape(-1)
        if len(self.region) != len(self.W.branch):
            raise ValueError("need one flow region per branch row")

    def _eval(self, values):
        total = self.W._eval(dual_seeds(list(values)))
        flow = apply_field(self.ct_sys, self.region, list(values))
        acc = None
        for k in range(len(values)):
            term = total.grad[k] * flow[k]
            acc = term if acc is None else acc + term
        return acc

    def interval_hessian(self, ivec, with_range=False):
        return self._dual2_pass(ivec, with_range)


# -- per-branch assessment ----------------------------------------------------


@dataclass
class BranchBounds:
    value: float  # F at the sample point along this branch
    split: BoundCoefficients


def _values_and_grads(fmap, centers: np.ndarray):
    """F and grad F at every row of `centers` (shape (N, n)), as float arrays."""
    N, n = centers.shape
    out = fmap._eval(dual_seeds([centers[:, i] for i in range(n)]))
    grads = np.zeros((N, n))
    if not isinstance(out, Dual):
        return np.broadcast_to(np.asarray(out, dtype=float), (N,)), grads
    for i, g in enumerate(out.grad):
        grads[:, i] = g
    return np.broadcast_to(np.asarray(out.value, dtype=float), (N,)), grads


def assess_boxes(fmap, boxes, with_range: bool = False) -> list:
    """assess_branch for many boxes (a BoxArray, or HyperRects) in one
    batched evaluation of the map.

    The values and gradients at the sample points are computed over float
    arrays and the Hessian enclosures over an IntervalArray, one entry per
    box; the coefficients of all boxes are reduced at once, each row with
    the operations of gradient_coefficient and remainder_bound.  Entry k is bit for
    bit what assess_branch gives for boxes[k] alone, so a result never
    depends on the other boxes of the batch.  A DomainError anywhere in the
    batch is raised for the whole batch.  With `with_range`, entry k is
    (assessment, (lo, hi)): the map's enclosure over the box, the value
    part of the Hessian's dual pass.
    """
    boxes = BoxArray.of(boxes)
    ivec = interval_batch(boxes)
    with np.errstate(over="ignore", invalid="ignore"):  # overflow gives inf, as for floats
        values, grads = _values_and_grads(fmap, boxes.centers)
        if with_range:
            rng, hess = fmap.interval_hessian(ivec, with_range=True)
        else:
            hess = fmap.interval_hessian(ivec)
        mags = hess.magnitude()
        require_no_nan(hess.lo, hess.hi)
        a = gradient_coefficients(grads)
        b = remainder_bounds(mags, boxes.tau)
    out = [
        BranchBounds(value, BoundCoefficients(ak, bk))
        for value, ak, bk in zip(values.tolist(), a.tolist(), b.tolist())
    ]
    if not with_range:
        return out
    require_no_nan(rng.lo, rng.hi)
    return list(zip(out, zip(rng.lo.tolist(), rng.hi.tolist())))


# `method` and `pairing` are accepted and ignored: bench/micro.py passes them
def assess_branch(fmap, box: HyperRect, method=None, pairing=None) -> BranchBounds:
    """Sample value and variation coefficients of one branch over one box."""
    return assess_boxes(fmap, [box])[0]


def assess_ranges(fmap, boxes) -> list:
    """(assessment, (lo, hi) enclosure) per box, from one batched dual pass."""
    return assess_boxes(fmap, boxes, with_range=True)


def interval_values(fmap, boxes) -> list:
    """(lo, hi) of the map's interval enclosure over each box, in one batch."""
    rng = fmap.interval_value(interval_batch(boxes))
    require_no_nan(rng.lo, rng.hi)
    return list(zip(rng.lo.tolist(), rng.hi.tolist()))


def batch_or_each(batch, items: Sequence, errors, group=None) -> list:
    """batch(items), or, when that raises one of `errors`, the results of
    smaller batches: one per distinct group(item) in order of first
    appearance when `group` is given, and halves of any batch that still
    raises, down to single items.  An item that raises one of `errors`
    alone has the error in place of its result; [] for no items, without a
    call.

    Results are per item and independent of the batch's makeup, so the
    retry changes which items fail, not the results of the others.
    """
    if not items:
        return []
    try:
        return batch(items)
    except errors as exc:
        if len(items) == 1:
            return [exc]
    parts = {}
    for i, item in enumerate(items):
        parts.setdefault(group(item) if group is not None else None, []).append(i)
    if len(parts) == 1:
        half = len(items) // 2
        parts = {0: range(half), 1: range(half, len(items))}
    out = [None] * len(items)
    for idx in parts.values():
        for i, res in zip(idx, batch_or_each(batch, [items[i] for i in idx], errors)):
            out[i] = res
    return out


def on_rows(ctx, boxes: BoxArray, rows: Sequence, errors, evaluation) -> list:
    """evaluation(ctx.map_for(branches), row boxes) over the (box index,
    branch) pairs `rows` as one batch, through batch_or_each with `errors`,
    retried per branch sequence."""

    def batch(part):
        return evaluation(ctx.map_for([seq for _, seq in part]), boxes.take([k for k, _ in part]))

    return batch_or_each(batch, rows, errors, group=lambda row: row[1])


def by_branch(ctx, boxes, errors, *evaluations):
    """ctx.boxes_branches(boxes), and for each (box index, branch) one
    result per evaluation, evaluation(branch map, boxes), for boxes a
    BoxArray or HyperRects.

    The (box, branch) pairs of the pass are the rows of one branch map,
    ctx.map_for(branches), and each evaluation runs once over all of them
    (on_rows): a failed result is its error and leaves the box's other
    results in place.  Rows are independent, so a result does not depend
    on the rest of the pass.  A box whose branches could not be enumerated
    has no keys."""
    boxes = BoxArray.of(boxes)
    branches = ctx.boxes_branches(boxes)
    live = [(k, seqs) for k, seqs in enumerate(branches) if not isinstance(seqs, Exception)]
    keys = [(k, seq) for k, seqs in live for seq in seqs]
    found = [on_rows(ctx, boxes, keys, errors, evaluation) for evaluation in evaluations]
    return branches, dict(zip(keys, zip(*found)))


# -- W as a bounded map --------------------------------------------------------


def w_point_values(dsys: PiecewiseSystem, V: CandidateV, M: int, X) -> list:
    """W(x) = sum_{j<M} V(G^j(x)) following the literal dynamics, at every
    row of X: the float, or the error the row's own trajectory raises.

    The trajectories step together; the V terms are V.value of each state
    row, summed in order, so every entry is bit for bit its one-point value.
    """
    states, errors = point_trajectories(dsys, X, M - 1)
    total = np.array([V.value(x) for x in states[0]])
    for state in states[1:]:
        total += [V.value(x) for x in state]
    return [errors.get(k, w) for k, w in enumerate(total.tolist())]


def w_point_value(dsys: PiecewiseSystem, V: CandidateV, M: int, x) -> float:
    """W(x) = sum_{j<M} V(G^j(x)) following the literal dynamics."""
    return _one(w_point_values(dsys, V, M, [x])[0])


# failures that leave a W bound or enclosure of a box undetermined
_W_ERRORS = (LyapcertError, DomainExit, OverflowError)

# most pieces a box is cut into for its W bound; a box that would need more
# gets no bound (None), like a box whose bound cannot be computed
_MAX_PIECES = 4096


def _refinement(radius: float, axes: int, subdivide_to: Optional[float]):
    """(levels, pieces) of the 2-refinement of a box of radius max|delta|
    with `axes` axes of positive extent until no offset exceeds
    `subdivide_to`: each level halves every offset and doubles the pieces
    once per axis it splits.  Counting stops at the first count above
    _MAX_PIECES."""
    levels, count = 0, 1
    if subdivide_to is not None and radius > subdivide_to * (1 + 1e-9):
        reach = radius
        while axes and reach > subdivide_to * (1 + 1e-9) and count <= _MAX_PIECES:
            levels, count, reach = levels + 1, count * 2**axes, 0.5 * reach
    return levels, count


class WContext:
    """The sum-of-iterates Lyapunov function with per-box rigorous bounds.

    A box's W bound depends only on the box and the resolution, so the
    context keeps every bound it computes (`lower_bounds`), keyed by the
    box's exact float bits and `subdivide_to`: one run bounds a box at a
    resolution once, whichever pass asks first.
    """

    def __init__(
        self,
        dsys: PiecewiseSystem,
        V: CandidateV,
        M: int,
        domain=None,
        cap: int = 64,
        pairing=None,  # accepted and ignored: bench/micro.py passes it
    ):
        self.dsys = dsys
        self.V = V
        self.M = M
        self.domain = domain
        self.cap = cap
        self._bounds = {}  # (subdivide_to, box bits) -> bound

    def value(self, x) -> float:
        return w_point_value(self.dsys, self.V, self.M, x)

    def values(self, X) -> list:
        """W at every row of X, or the error of that row (w_point_values)."""
        return w_point_values(self.dsys, self.V, self.M, X)

    def boxes_branches(self, boxes: BoxArray) -> list:
        """The branch sequences of the M - 1 steps between W's iterates."""
        return enumerate_boxes_branches(self.dsys, boxes, self.M - 1, self.domain, self.cap)

    def map_for(self, branches):
        """The W map with one row per branch sequence."""
        return SumOfIteratesMap(self.dsys, self.V, self.M, branches)

    def lower_bound_over_box(self, box: HyperRect, subdivide_to: Optional[float] = None):
        """Rigorous lower bound on min W over the box; None if not computable.

        Combines two sound bounds and keeps the larger: the per-branch
        sample bound W(x_s) - a max|delta| - b (any point of the box
        follows one of the feasible branches) and the plain interval lower
        endpoint.  Coarse boxes may be subdivided down to `subdivide_to`
        purely for bound evaluation, which tames interval dependency; the
        bound is then the minimum over the pieces, None if any piece has none
        or if the box would take more than _MAX_PIECES pieces.
        """
        return self.lower_bounds([box], subdivide_to)[0]

    def lower_bounds(self, boxes, subdivide_to: Optional[float] = None) -> list:
        """lower_bound_over_box for every box (a BoxArray, or HyperRects),
        in one pass (lower_bounds_at)."""
        boxes = BoxArray.of(boxes)
        return self.lower_bounds_at(boxes, [subdivide_to] * len(boxes))

    def lower_bounds_at(self, boxes: BoxArray, subs: Sequence) -> list:
        """lower_bound_over_box(boxes[k], subs[k]) for every box: the
        bounds already known, and the others batched over all their pieces
        in one pass."""
        keys = list(zip(subs, boxes.keys()))
        todo = {}
        for k, key in enumerate(keys):
            if key not in self._bounds:
                todo.setdefault(key, k)
        if todo:
            rows = list(todo.values())
            pieces, owner = self._pieces(boxes.take(rows), [subs[k] for k in rows])
            bounds = self._piece_bounds(pieces)
            ends = np.cumsum(np.bincount(owner, minlength=len(rows))).tolist()
            for key, start, end in zip(todo, [0] + ends, ends):
                own = bounds[start:end]
                self._bounds[key] = None if not own or any(lb is None for lb in own) else min(own)
        return [self._bounds[key] for key in keys]

    def _pieces(self, boxes: BoxArray, subs: Sequence):
        """The pieces of every box: the box, or its 2-refinement, level by
        level, down to its `subdivide_to`; none when that takes more than
        _MAX_PIECES.  Returns the pieces, box by box, and the index of the
        box of each piece."""
        axes = np.count_nonzero(boxes.hi_offsets > boxes.lo_offsets, axis=1).tolist()
        plan = [_refinement(*row) for row in zip(boxes.radius.tolist(), axes, subs)]
        levels = np.array([lv if count <= _MAX_PIECES else -1 for lv, count in plan], dtype=int)
        owner = np.flatnonzero(levels >= 0)
        pieces = boxes.take(owner)
        for level in range(levels.max(initial=0)):
            split = levels[owner] > level
            parts = pieces.take(split)
            fan = 2 ** np.count_nonzero(parts.hi_offsets > parts.lo_offsets, axis=1)
            owner = np.concatenate([owner[~split], np.repeat(owner[split], fan)])
            pieces = BoxArray.concat([pieces.take(~split), parts.refine()])
        order = np.argsort(owner, kind="stable")
        return pieces.take(order), owner[order]

    def _piece_bounds(self, boxes: BoxArray) -> list:
        """Per piece, the larger of the sample bound and the enclosure's
        lower end, both from one dual pass; a row whose assessment fails
        takes its enclosure from the plain interval evaluation."""
        branches, found = by_branch(self, boxes, _W_ERRORS, assess_ranges)
        failed = [key for key, (res,) in found.items() if isinstance(res, _W_ERRORS)]
        plain = dict(zip(failed, on_rows(self, boxes, failed, _W_ERRORS, interval_values)))
        radius = boxes.radius.tolist()
        out = []
        for k, seqs in enumerate(branches):
            if isinstance(seqs, Exception):
                out.append(None)
                continue
            results = [found[k, seq][0] for seq in seqs]
            best = None
            if not any(isinstance(res, _W_ERRORS) for res in results):
                xi = radius[k]
                for bb, _ in results:
                    lb = bb.value - bb.split.a * xi - bb.split.b
                    best = lb if best is None else min(best, lb)
            ranges = [
                plain[k, seq] if isinstance(res, _W_ERRORS) else res[1]
                for seq, res in zip(seqs, results)
            ]
            lo = _hull_lo(ranges)
            if lo is not None and math.isfinite(lo):
                best = lo if best is None else max(best, lo)
            out.append(best)
        return out

    def interval_values_over_boxes(self, boxes) -> list:
        """Per box (a BoxArray, or HyperRects), the hull of the interval images over all feasible
        branches (None on failure), in one batch."""
        branches, found = by_branch(self, boxes, _W_ERRORS, interval_values)
        out = []
        for k, seqs in enumerate(branches):
            ranges = [] if isinstance(seqs, Exception) else [found[k, seq][0] for seq in seqs]
            lo = _hull_lo(ranges)
            out.append(None if lo is None else Interval(lo, max(hi for _, hi in ranges)))
        return out


def _hull_lo(ranges):
    """Lower end of the hull of (lo, hi) pairs; None if any failed."""
    if not ranges or any(isinstance(rng, _W_ERRORS) for rng in ranges):
        return None
    return min(lo for lo, _ in ranges)
