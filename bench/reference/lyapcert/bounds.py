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

from .ad import Dual, Dual2, dual_seeds, dual2_seeds
from .errors import LyapcertError
from .geometry import HyperRect, refine2
from .interval import Interval, IntervalMatrix, IntervalVector
from .system import CandidateV, DomainExit, PiecewiseSystem, apply_field, quad_form

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


def remainder_bound(hess: IntervalMatrix, tau: np.ndarray) -> float:
    """1/2 tau' |H| tau with componentwise magnitude upper bounds."""
    H = np.asarray(hess.magnitudes(), dtype=float)
    return float(0.5 * tau @ H @ tau)


def combined_coefficient(
    grad0: np.ndarray, hess: IntervalMatrix, box: HyperRect, pairing: str = PAIR_LINF
) -> float:
    """Upper bound of ||grad F(x_s) + 1/2 (x - x_s)' H|| over the box."""
    n = box.n
    offs = [Interval(float(box.lo_offsets[i]), float(box.hi_offsets[i])) for i in range(n)]
    mags = []
    for j in range(n):
        v = Interval.point(float(grad0[j]))
        for i in range(n):
            v = v + offs[i] * hess[i, j] * 0.5
        mags.append(v.magnitude())
    if pairing == PAIR_L2:
        return float(np.linalg.norm(mags))
    return float(sum(mags))


# -- branch-restricted scalar maps ------------------------------------------


class DecreaseMap:
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

    def value(self, x) -> float:
        return float(self._eval([float(v) for v in x]))

    def value_and_grad(self, x):
        out = self._eval(dual_seeds([float(v) for v in x]))
        if not isinstance(out, Dual):
            return float(out), np.zeros(len(x))
        return float(out.value), np.array(out.grad, dtype=float)

    def interval_value(self, ivec: IntervalVector) -> Interval:
        out = self._eval(list(ivec))
        return out if isinstance(out, Interval) else Interval.point(float(out))

    def interval_hessian(self, ivec: IntervalVector) -> IntervalMatrix:
        out = self._eval(dual2_seeds(list(ivec)))
        return _hess_of(out, len(ivec))


class SumOfIteratesMap:
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

    def value(self, x) -> float:
        return float(self._eval([float(v) for v in x]))

    def value_and_grad(self, x):
        out = self._eval(dual_seeds([float(v) for v in x]))
        if not isinstance(out, Dual):
            return float(out), np.zeros(len(x))
        return float(out.value), np.array(out.grad, dtype=float)

    def interval_value(self, ivec: IntervalVector) -> Interval:
        out = self._eval(list(ivec))
        return out if isinstance(out, Interval) else Interval.point(float(out))

    def interval_hessian(self, ivec: IntervalVector) -> IntervalMatrix:
        out = self._eval(dual2_seeds(list(ivec)))
        return _hess_of(out, len(ivec))


class DerivativeAlongFlowMap:
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

    def value(self, x) -> float:
        out = self._eval([float(v) for v in x])
        return float(out)

    def value_and_grad(self, x):
        out = self._eval(dual_seeds([float(v) for v in x]))
        if not isinstance(out, Dual):
            return float(out), np.zeros(len(x))
        return float(out.value), np.array(out.grad, dtype=float)

    def interval_value(self, ivec: IntervalVector) -> Interval:
        out = self._eval(list(ivec))
        return out if isinstance(out, Interval) else Interval.point(float(out))

    def interval_hessian(self, ivec: IntervalVector) -> IntervalMatrix:
        out = self._eval(dual2_seeds(list(ivec)))
        return _hess_of(out, len(ivec))


def _hess_of(out, n: int) -> IntervalMatrix:
    if not isinstance(out, Dual2):
        z = Interval.point(0.0)
        return IntervalMatrix([[z] * n for _ in range(n)])
    return IntervalMatrix(
        [
            [h if isinstance(h, Interval) else Interval.point(h) for h in row]
            for row in out.hess
        ]
    )


# -- per-branch assessment ----------------------------------------------------


@dataclass
class BranchBounds:
    value: float  # F at the sample point along this branch
    split: BoundCoefficients
    combined: Optional[BoundCoefficients]


def assess_branch(
    fmap, box: HyperRect, method: str = SPLIT, pairing: str = PAIR_LINF
) -> BranchBounds:
    """Sample value and variation coefficients of one branch over one box."""
    value, grad = fmap.value_and_grad(box.center)
    hess = fmap.interval_hessian(box.to_interval_vector())
    split = BoundCoefficients(
        gradient_coefficient(grad, pairing), remainder_bound(hess, box.tau), SPLIT
    )
    combined = None
    if method in (COMBINED, BEST):
        combined = BoundCoefficients(
            combined_coefficient(grad, hess, box, pairing), 0.0, COMBINED
        )
    return BranchBounds(value, split, combined)


def F_ct_and_bounds(
    ct_sys: PiecewiseSystem,
    dt_sys: PiecewiseSystem,
    V: CandidateV,
    M: int,
    box: HyperRect,
    region: int,
    branch: Sequence[int],
    method: str = SPLIT,
) -> BranchBounds:
    """Convenience wrapper: d/dt of the composed Lyapunov function with bounds."""
    fmap = DerivativeAlongFlowMap(ct_sys, dt_sys, V, M, region, branch)
    return assess_branch(fmap, box, method)


# -- W as a bounded map --------------------------------------------------------


def w_point_value(dsys: PiecewiseSystem, V: CandidateV, M: int, x) -> float:
    """W(x) = sum_{j<M} V(G^j(x)) following the literal dynamics."""
    from .system import resolve_region, step

    state = np.asarray(x, dtype=float)
    total = V.value(state)
    for _ in range(M - 1):
        state = step(dsys, state, resolve_region(dsys, state))
        total += V.value(state)
    return float(total)


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

    def box_branches(self, box: HyperRect):
        from .system import enumerate_box_branches

        return enumerate_box_branches(self.dsys, box, self.M - 1, self.domain, self.cap)

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
        purely for bound evaluation, which tames interval dependency.
        """
        if subdivide_to is not None and box.max_abs_delta > subdivide_to * (1 + 1e-9):
            try:
                children = refine2(box)
            except ValueError:
                children = None
            if children:
                best = None
                for child in children:
                    lb = self.lower_bound_over_box(child, method, subdivide_to)
                    if lb is None:
                        return None
                    best = lb if best is None else min(best, lb)
                return best
        best = None
        try:
            branches = self.box_branches(box)
        except (LyapcertError, DomainExit):
            return None
        xi = box_radius(box, self.pairing)
        try:
            for seq in branches:
                bb = assess_branch(self.map_for(seq), box, method, self.pairing)
                coeffs = bb.split if bb.combined is None else min(
                    (bb.split, bb.combined), key=lambda c: c.a * xi + c.b
                )
                lb = bb.value - coeffs.a * xi - coeffs.b
                best = lb if best is None else min(best, lb)
        except (LyapcertError, DomainExit):
            best = None
        try:
            enclosure = None
            for seq in branches:
                rng = self.map_for(seq).interval_value(box.to_interval_vector())
                enclosure = rng if enclosure is None else enclosure.hull(rng)
            if enclosure is not None and math.isfinite(enclosure.lo):
                best = enclosure.lo if best is None else max(best, enclosure.lo)
        except (LyapcertError, DomainExit):
            pass
        return best

    def interval_value_over_box(self, box: HyperRect):
        """Hull of the interval images over all feasible branches; None on failure."""
        try:
            out = None
            for seq in self.box_branches(box):
                rng = self.map_for(seq).interval_value(box.to_interval_vector())
                out = rng if out is None else out.hull(rng)
            return out
        except (LyapcertError, DomainExit):
            return None
