"""Rigorous per-box variation bounds for the certified decrease test.

For a scalar map F restricted to one composition branch, this module
computes

* the gradient coefficient  a = ||grad F(x_s)||_1  at the sample point,
* the Taylor remainder bound  b = 1/2 tau' |H| tau  with H an interval
  enclosure of the Hessian of F over the whole box (the box is convex, so
  it contains every intermediate segment point), and
* an alternative single-coefficient bound that folds the remainder into
  an interval-valued gradient, sometimes less conservative.

Together with the branch jump eps these assemble the per-sample slack
``a * max|delta| + b + eps``; certifying F(x_s) < -slack extends F < 0
over the whole box.

The 1-norm on gradients is the dual of the infinity norm used for box
distances; the pairing is what makes the Hoelder step sound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .ad import Dual, dual_seeds, dual2_seeds, hessian_of
from .errors import LyapcertError
from .geometry import HyperRect, interval_batch, refine2
from .interval import Interval, IntervalArray, IntervalMatrix, require_no_nan
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

SPLIT = "split"
COMBINED = "combined"
BEST = "best"

# norm pairings for the gradient term: the box distance ||x - x_s|| and the
# gradient norm must be duals for the Hoelder step; both choices are sound
PAIR_LINF = "linf-l1"  # ||x-x_s||_inf <= max|delta|, gradients in 1-norm
PAIR_L2 = "l2"  # ||x-x_s||_2 <= ||tau||_2, gradients in 2-norm


@dataclass(frozen=True)
class BoundCoefficients:
    """|F(x) - F(x_s)| <= a * ||x - x_s||_inf + b over the box."""

    a: float
    b: float
    method: str

    def __post_init__(self):
        if self.a < 0.0 or self.b < 0.0:
            raise ValueError("bound coefficients must be non-negative")
        if self.method == COMBINED and self.b != 0.0:
            raise ValueError("combined bounds fold the remainder into a")


def certificate_slack(coeffs: Sequence[BoundCoefficients], eps: float, xi: float) -> float:
    """max_a * xi + max_b + eps over the branch coefficients."""
    if not coeffs:
        raise ValueError("need coefficients for at least one branch")
    a = max(c.a for c in coeffs)
    b = max(c.b for c in coeffs)
    return a * xi + b + eps


def box_radius(box: HyperRect, pairing: str = PAIR_LINF) -> float:
    """Largest ||x - x_s|| over the box in the pairing's distance norm."""
    if pairing == PAIR_L2:
        return float(np.linalg.norm(box.tau))
    return box.max_abs_delta


def gradient_coefficient(grad: np.ndarray, pairing: str = PAIR_LINF) -> float:
    if pairing == PAIR_L2:
        return float(np.linalg.norm(grad))
    return float(np.sum(np.abs(grad)))


def remainder_bound(hess, tau: np.ndarray) -> float:
    """1/2 tau' |H| tau with componentwise magnitude upper bounds.

    `hess` is an IntervalMatrix or the float matrix of its magnitudes.  The
    matrix products are taken over a C-ordered copy, since numpy sums them
    in an order that follows the memory layout.
    """
    if isinstance(hess, IntervalMatrix):
        hess = hess.magnitudes()
    H = np.ascontiguousarray(hess, dtype=float)
    return float(0.5 * tau @ H @ tau)


def _combined_magnitudes(grads, hess, lo_off, hi_off):
    """Per box k and axis j, the magnitude of grads[k, j] + 1/2 sum_i
    offs_i H_ij with offs_i = [lo_off[k, i], hi_off[k, i]], summed over i
    in order for all boxes and axes at once.

    grads, lo_off and hi_off have shape (N, n); hess is an IntervalArray
    of shape (N, n, n).  Returns the magnitudes as an (N, n) array, or
    raises ValueError for a NaN one (inf - inf after an overflow).
    """
    rows = IntervalArray(hess.lo.transpose(1, 2, 0), hess.hi.transpose(1, 2, 0))  # (i, j, box)
    v = IntervalArray.point(grads.T)
    for i in range(grads.shape[1]):
        v = v + IntervalArray(lo_off[:, i], hi_off[:, i]) * rows[i] * 0.5
    mags = v.magnitude().T
    require_no_nan(mags)
    return mags


def _dual_norm(mags, pairing: str) -> float:
    if pairing == PAIR_L2:
        return float(np.linalg.norm(mags))
    return float(sum(mags))


def combined_coefficient(
    grad0: np.ndarray, hess: IntervalMatrix, box: HyperRect, pairing: str = PAIR_LINF
) -> float:
    """Upper bound of ||grad F(x_s) + 1/2 (x - x_s)' H|| over the box."""
    lo = np.array([[[e.lo for e in row] for row in hess.rows]])
    hi = np.array([[[e.hi for e in row] for row in hess.rows]])
    grads = np.array([grad0], dtype=float)
    H = IntervalArray(lo, hi)
    mags = _combined_magnitudes(grads, H, box.lo_offsets[None], box.hi_offsets[None])
    return _dual_norm(mags[0].tolist(), pairing)


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
        return _interval_of(self._eval(list(ivec)), ivec)


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


def _interval_of(out, ivec):
    """A map's value as an interval of the argument's payload kind.

    `ivec` is an IntervalVector (one box) or an IntervalArray of shape
    (n, N) (N boxes); a map that does not depend on x yields a constant.
    """
    if isinstance(out, (Interval, IntervalArray)):
        return out
    if isinstance(ivec, IntervalArray):
        return ivec[0].constant(out)
    return Interval.point(float(out))


# -- per-branch assessment ----------------------------------------------------


@dataclass
class BranchBounds:
    value: float  # F at the sample point along this branch
    split: BoundCoefficients
    combined: Optional[BoundCoefficients]


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


def assess_boxes(
    fmap, boxes: Sequence[HyperRect], method: str = SPLIT, pairing: str = PAIR_LINF
) -> list:
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
        combined = None
        if method in (COMBINED, BEST):
            lo_off = np.array([box.lo_offsets for box in boxes])
            hi_off = np.array([box.hi_offsets for box in boxes])
            combined = _combined_magnitudes(grads, hess, lo_off, hi_off)
    require_no_nan(hess.lo, hess.hi)
    out = []
    for k, box in enumerate(boxes):
        split = BoundCoefficients(
            gradient_coefficient(grads[k], pairing), remainder_bound(mags[k], box.tau), SPLIT
        )
        comb = None
        if combined is not None:
            comb = BoundCoefficients(_dual_norm(combined[k].tolist(), pairing), 0.0, COMBINED)
        out.append(BranchBounds(float(values[k]), split, comb))
    return out


def assess_branch(
    fmap, box: HyperRect, method: str = SPLIT, pairing: str = PAIR_LINF
) -> BranchBounds:
    """Sample value and variation coefficients of one branch over one box."""
    return assess_boxes(fmap, [box], method, pairing)[0]


def interval_values(fmap, boxes: Sequence[HyperRect]) -> list:
    """(lo, hi) of the map's interval enclosure over each box, in one batch."""
    with np.errstate(over="ignore", invalid="ignore"):
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


class WContext:
    """The sum-of-iterates Lyapunov function with per-box rigorous bounds."""

    def __init__(
        self,
        dsys: PiecewiseSystem,
        V: CandidateV,
        M: int,
        domain=None,
        cap: int = 64,
        pairing: str = PAIR_LINF,
    ):
        self.dsys = dsys
        self.V = V
        self.M = M
        self.domain = domain
        self.cap = cap
        self.pairing = pairing

    def value(self, x) -> float:
        return w_point_value(self.dsys, self.V, self.M, x)

    def values(self, X) -> list:
        """W at every row of X, or the error of that row (w_point_values)."""
        return w_point_values(self.dsys, self.V, self.M, X)

    def map_for(self, branch):
        return SumOfIteratesMap(self.dsys, self.V, self.M, branch)

    def lower_bound_over_box(
        self, box: HyperRect, method: str = SPLIT, subdivide_to: Optional[float] = None
    ):
        """Rigorous lower bound on min W over the box; None if not computable.

        Combines two sound bounds and keeps the larger: the per-branch
        sample bound W(x_s) - a max|delta| - b (any point of the box
        follows one of the feasible branches) and the plain interval lower
        endpoint.  Coarse boxes may be subdivided down to `subdivide_to`
        purely for bound evaluation, which tames interval dependency; the
        bound is then the minimum over the pieces, None if any piece has none.
        """
        return self.lower_bounds([box], method, subdivide_to)[0]

    def lower_bounds(
        self, boxes: Sequence[HyperRect], method: str = SPLIT, subdivide_to: Optional[float] = None
    ) -> list:
        """lower_bound_over_box for every box, batched over all their pieces."""
        pieces = [self._pieces(box, subdivide_to) for box in boxes]
        bounds = self._piece_bounds([p for ps in pieces for p in ps], method)
        out = []
        pos = 0
        for ps in pieces:
            own = bounds[pos : pos + len(ps)]
            pos += len(ps)
            out.append(None if any(lb is None for lb in own) else min(own))
        return out

    def _pieces(self, box: HyperRect, subdivide_to: Optional[float]) -> list:
        """The box, or its recursive 2-refinement down to `subdivide_to`."""
        if subdivide_to is not None and box.max_abs_delta > subdivide_to * (1 + 1e-9):
            try:
                children = refine2(box)
            except ValueError:
                children = None
            if children:
                return [p for child in children for p in self._pieces(child, subdivide_to)]
        return [box]

    def _by_branch(self, boxes: Sequence[HyperRect], method: Optional[str] = None):
        """The branches of each box, and for each (box index, branch) its
        (lo, hi) enclosure and, given a method, its assessment, one batch
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
            if method is not None:
                assessed = batch_or_each(
                    lambda bs: assess_boxes(fmap, bs, method, self.pairing),
                    lambda b: assess_branch(fmap, b, method, self.pairing),
                    group,
                    _W_ERRORS,
                )
            for k, rng, bb in zip(keys, ranges, assessed):
                found[k, seq] = (rng, bb)
        return branches_of, found

    def _piece_bounds(self, boxes: list, method: str) -> list:
        branches_of, found = self._by_branch(boxes, method)
        out = []
        for k, box in enumerate(boxes):
            if k not in branches_of:
                out.append(None)
                continue
            ranges, assessments = zip(*(found[k, seq] for seq in branches_of[k]))
            best = None
            if not any(isinstance(bb, _W_ERRORS) for bb in assessments):
                xi = box_radius(box, self.pairing)
                for bb in assessments:
                    coeffs = bb.split if bb.combined is None else min(
                        (bb.split, bb.combined), key=lambda c: c.a * xi + c.b
                    )
                    lb = bb.value - coeffs.a * xi - coeffs.b
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
