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

from .ad import Dual, dual_seeds, dual2_seeds, hessian_of
from .errors import LyapcertError
from .geometry import HyperRect, interval_batch, refine2
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


def box_radius(box: HyperRect) -> float:
    """Largest ||x - x_s||_inf over the box."""
    return box.max_abs_delta


def gradient_coefficient(grad: np.ndarray) -> float:
    """||grad||_1, the dual norm of the box distance."""
    return float(np.sum(np.abs(grad)))


def remainder_bound(hess, tau: np.ndarray) -> float:
    """1/2 tau' |H| tau with componentwise magnitude upper bounds.

    `hess` is the float matrix of the Hessian enclosure's magnitudes.  The
    matrix products are taken over a C-ordered copy, since numpy sums them
    in an order that follows the memory layout.
    """
    H = np.ascontiguousarray(hess, dtype=float)
    return float(0.5 * tau @ H @ tau)


# -- branch-restricted scalar maps ------------------------------------------


class _BranchMap:
    """A scalar map of x along one fixed branch; a subclass supplies
    `_eval` over any payload sequence, and its own `interval_hessian`."""

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


class DecreaseMap(_BranchMap):
    """F(x) = V(G^M(x)) - rho_c V(x) with the region fixed at every step."""

    def __init__(self, sys: PiecewiseSystem, V: CandidateV, M: int, branch: Sequence[int]):
        if len(branch) != M:
            raise ValueError("branch length must equal the horizon")
        self.sys = sys
        self.V = V
        self.M = M
        self.branch = tuple(branch)

    def _eval(self, values):
        state = list(values)
        for idx in self.branch:
            state = apply_field(self.sys, idx, state)
        return quad_form(self.V.P, state) - self.V.rho_c * quad_form(self.V.P, values)

    def interval_hessian(self, ivec):
        return hessian_of(self._eval(dual2_seeds(list(ivec))), ivec)


class SumOfIteratesMap(_BranchMap):
    """W(x) = sum_{j<M} V(G^j(x)) with the region fixed at every step."""

    def __init__(self, sys: PiecewiseSystem, V: CandidateV, M: int, branch: Sequence[int]):
        if len(branch) != M - 1:
            raise ValueError("branch length must be M - 1 (steps between iterates)")
        self.sys = sys
        self.V = V
        self.M = M
        self.branch = tuple(branch)

    def _eval(self, values):
        state = list(values)
        total = quad_form(self.V.P, state)
        for idx in self.branch:
            state = apply_field(self.sys, idx, state)
            total = total + quad_form(self.V.P, state)
        return total

    def interval_hessian(self, ivec):
        return hessian_of(self._eval(dual2_seeds(list(ivec))), ivec)


class DerivativeAlongFlowMap(_BranchMap):
    """F(x) = grad W(x) . f(x), the time derivative of W along a flow.

    W is the sum-of-iterates function of the discretized map; f is one
    region's continuous-time field.  An inner layer of first-order duals
    produces grad W symbolically in whatever payload algebra the outer
    evaluation runs in, which buys the extra derivative order needed for
    the Hessian of F.
    """

    def __init__(
        self,
        ct_sys: PiecewiseSystem,
        dt_sys: PiecewiseSystem,
        V: CandidateV,
        M: int,
        region: int,
        branch: Sequence[int],
    ):
        if len(branch) != M - 1:
            raise ValueError("branch length must be M - 1")
        self.ct_sys = ct_sys
        self.dt_sys = dt_sys
        self.V = V
        self.M = M
        self.region = region
        self.branch = tuple(branch)

    def _eval(self, values):
        inner = dual_seeds(list(values))
        state = list(inner)
        total = quad_form(self.V.P, state)
        for idx in self.branch:
            state = apply_field(self.dt_sys, idx, state)
            total = total + quad_form(self.V.P, state)
        flow = apply_field(self.ct_sys, self.region, list(values))
        acc = None
        for k in range(len(values)):
            term = total.grad[k] * flow[k]
            acc = term if acc is None else acc + term
        return acc

    def interval_hessian(self, ivec):
        return hessian_of(self._eval(dual2_seeds(list(ivec))), ivec)


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


def assess_boxes(fmap, boxes: Sequence[HyperRect]) -> list:
    """assess_branch for many boxes in one batched evaluation of the map.

    The values and gradients at the sample points are computed over float
    arrays and the Hessian enclosures over an IntervalArray, one entry per
    box; the coefficients are then reduced box by box.  Entry k is bit for
    bit what assess_branch gives for boxes[k] alone, so a result never
    depends on the other boxes of the batch.  A DomainError anywhere in the
    batch is raised for the whole batch.
    """
    centers = np.array([box.center for box in boxes])
    with np.errstate(over="ignore", invalid="ignore"):  # overflow gives inf, as for floats
        values, grads = _values_and_grads(fmap, centers)
        hess = fmap.interval_hessian(interval_batch(boxes))
        mags = hess.magnitude()
    require_no_nan(hess.lo, hess.hi)
    return [
        BranchBounds(
            float(values[k]),
            BoundCoefficients(gradient_coefficient(grads[k]), remainder_bound(mags[k], box.tau)),
        )
        for k, box in enumerate(boxes)
    ]


# `method` and `pairing` are accepted and ignored: bench/micro.py passes them
def assess_branch(fmap, box: HyperRect, method=None, pairing=None) -> BranchBounds:
    """Sample value and variation coefficients of one branch over one box."""
    return assess_boxes(fmap, [box])[0]


def interval_values(fmap, boxes: Sequence[HyperRect]) -> list:
    """(lo, hi) of the map's interval enclosure over each box, in one batch."""
    rng = fmap.interval_value(interval_batch(boxes))
    require_no_nan(rng.lo, rng.hi)
    return list(zip(rng.lo.tolist(), rng.hi.tolist()))


def batch_or_each(batch, one, items: Sequence, errors) -> list:
    """batch(items), or, when that raises one of `errors`, one(item) for
    each item, with the error in place of the result of an item that
    raises one of them as well.

    Results are per item and independent of the batch's makeup, so the
    retry changes which items fail, not the results of the others.
    """
    try:
        return batch(items)
    except errors as exc:
        if len(items) == 1:
            return [exc]
    out = []
    for item in items:
        try:
            out.append(one(item))
        except errors as exc:
            out.append(exc)
    return out


def group_by_branch(branches_of: dict) -> dict:
    """{branch: [keys]} from {key: [branches]}, keys in their original order."""
    groups = {}
    for key, branches in branches_of.items():
        for b in branches:
            groups.setdefault(b, []).append(key)
    return groups


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


def _refinement(box: HyperRect, subdivide_to: Optional[float]):
    """(levels, pieces) of the 2-refinement of the box until no offset
    exceeds `subdivide_to`: each level halves every offset and doubles the
    pieces once per axis it splits.  Counting stops at the first count
    above _MAX_PIECES."""
    levels, count = 0, 1
    if subdivide_to is not None and box.max_abs_delta > subdivide_to * (1 + 1e-9):
        axes = int(np.count_nonzero(box.hi_offsets > box.lo_offsets))
        reach = box.max_abs_delta
        while axes and reach > subdivide_to * (1 + 1e-9) and count <= _MAX_PIECES:
            levels, count, reach = levels + 1, count * 2**axes, 0.5 * reach
    return levels, count


class WContext:
    """The sum-of-iterates Lyapunov function with per-box rigorous bounds."""

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

    def value(self, x) -> float:
        return w_point_value(self.dsys, self.V, self.M, x)

    def values(self, X) -> list:
        """W at every row of X, or the error of that row (w_point_values)."""
        return w_point_values(self.dsys, self.V, self.M, X)

    def map_for(self, branch):
        return SumOfIteratesMap(self.dsys, self.V, self.M, branch)

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

    def lower_bounds(
        self, boxes: Sequence[HyperRect], subdivide_to: Optional[float] = None
    ) -> list:
        """lower_bound_over_box for every box, batched over all their pieces."""
        pieces = [self._pieces(box, subdivide_to) for box in boxes]
        bounds = self._piece_bounds([p for ps in pieces for p in ps])
        out = []
        pos = 0
        for ps in pieces:
            own = bounds[pos : pos + len(ps)]
            pos += len(ps)
            out.append(None if not own or any(lb is None for lb in own) else min(own))
        return out

    def _pieces(self, box: HyperRect, subdivide_to: Optional[float]) -> list:
        """The box, or its 2-refinement, level by level, down to
        `subdivide_to`; no pieces when that takes more than _MAX_PIECES."""
        levels, count = _refinement(box, subdivide_to)
        if count > _MAX_PIECES:
            return []
        pieces = [box]
        for _ in range(levels):
            pieces = [child for piece in pieces for child in refine2(piece)]
        return pieces

    def _by_branch(self, boxes: Sequence[HyperRect], assess: bool = False):
        """The branches of each box, and for each (box index, branch) its
        (lo, hi) enclosure and, if `assess`, its assessment, one batch
        per branch; an error marks a failed evaluation, a missing key a
        box whose branches could not be enumerated."""
        enumerated = enumerate_boxes_branches(self.dsys, boxes, self.M - 1, self.domain, self.cap)
        branches_of = {
            k: seqs for k, seqs in enumerate(enumerated) if not isinstance(seqs, _W_ERRORS)
        }
        found = {}
        for seq, keys in group_by_branch(branches_of).items():
            fmap = self.map_for(seq)
            group = [boxes[k] for k in keys]
            ranges = batch_or_each(
                lambda bs: interval_values(fmap, bs),
                lambda b: interval_values(fmap, [b])[0],
                group,
                _W_ERRORS,
            )
            assessed = [None] * len(keys)
            if assess:
                assessed = batch_or_each(
                    lambda bs: assess_boxes(fmap, bs),
                    lambda b: assess_branch(fmap, b),
                    group,
                    _W_ERRORS,
                )
            for k, rng, bb in zip(keys, ranges, assessed):
                found[k, seq] = (rng, bb)
        return branches_of, found

    def _piece_bounds(self, boxes: list) -> list:
        branches_of, found = self._by_branch(boxes, assess=True)
        out = []
        for k, box in enumerate(boxes):
            if k not in branches_of:
                out.append(None)
                continue
            ranges, assessments = zip(*(found[k, seq] for seq in branches_of[k]))
            best = None
            if not any(isinstance(bb, _W_ERRORS) for bb in assessments):
                xi = box_radius(box)
                for bb in assessments:
                    lb = bb.value - bb.split.a * xi - bb.split.b
                    best = lb if best is None else min(best, lb)
            lo = _hull_lo(ranges)
            if lo is not None and math.isfinite(lo):
                best = lo if best is None else max(best, lo)
            out.append(best)
        return out

    def interval_values_over_boxes(self, boxes: Sequence[HyperRect]) -> list:
        """Per box, the hull of the interval images over all feasible
        branches (None on failure), one batch per branch."""
        branches_of, found = self._by_branch(boxes)
        out = []
        for k in range(len(boxes)):
            ranges = [found[k, seq][0] for seq in branches_of.get(k, ())]
            lo = _hull_lo(ranges)
            out.append(None if lo is None else Interval(lo, max(hi for _, hi in ranges)))
        return out


def _hull_lo(ranges):
    """Lower end of the hull of (lo, hi) pairs; None if any failed."""
    if not ranges or any(isinstance(rng, _W_ERRORS) for rng in ranges):
        return None
    return min(lo for lo, _ in ranges)
