"""Sampling certificate engine.

A work queue of boxes starts from the search set (or a seed grid); each
box is tested with the per-sample inequality F(x_s) < -slack.  Rejected
boxes refine into 2^n children until the resolution floor; what remains
undecided is reported, never rescued.  Waves are processed breadth-first,
each as one batched evaluation whose outcomes come back in queue order.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .bounds import (
    WContext,
    assess_boxes,
    assess_branch,
    batch_or_each,
    box_radius,
    certificate_slack,
    group_by_branch,
    DecreaseMap,
    DerivativeAlongFlowMap,
)
from .errors import BranchOverflowError, CoverageError, DomainError, TieError
from .geometry import (
    HyperRect,
    SampleLedger,
    SampleRecord,
    interval_batch,
    longest_axes,
    refine2,
)
from .interval import IntervalArray
from .localyap import LocalCertificate
from .system import (
    CandidateV,
    DomainExit,
    PiecewiseSystem,
    center_trajectory_exits,
    enumerate_box_branches,  # noqa: F401  (importable from here as well)
    enumerate_boxes_branches,
    enumerate_branches,
    quad_form,
    region_of,
    regions_intersecting_boxes,
)


@dataclass
class VerifyConfig:
    """Inputs of one certified-region search."""

    S: HyperRect
    delta_min: float
    M: int
    M_max: int
    rho_c: float
    quality_gate: float = 0.5
    seed_split: Optional[Sequence[int]] = None
    branch_cap: int = 64
    split_longest_only: bool = False
    domain: Optional[HyperRect] = None  # default: S dilated by its own offsets

    def __post_init__(self):
        if not (0.0 < self.delta_min <= self.S.max_abs_delta):
            raise ValueError("delta_min must be in (0, max|delta(S)|]")
        if not (1 <= self.M <= self.M_max):
            raise ValueError("need 1 <= M <= M_max")
        if not (0.0 < self.rho_c < 1.0):
            raise ValueError("rho_c must lie in (0, 1)")
        if self.seed_split is not None:
            self.seed_split = [int(k) for k in self.seed_split]
            if len(self.seed_split) != self.S.n or any(k < 1 for k in self.seed_split):
                raise ValueError("seed_split needs one positive count per axis")
        if self.domain is None:
            # widest validity domain any sample needs: S dilated by the
            # offsets of the largest sampling unit, which is S itself
            self.domain = HyperRect(self.S.center, 2.0 * self.S.delta)


@dataclass(frozen=True)
class WDescription:
    """Sum-of-iterates Lyapunov function: P, contraction factor, horizon."""

    P: np.ndarray
    rho_c: float
    M: int

    def candidate(self) -> CandidateV:
        return CandidateV(self.P, self.rho_c)


@dataclass
class Certificate:
    ledger: SampleLedger
    M_final: int
    W: Optional[WDescription]
    verdict: str  # "certified-on-A" or "halted"
    explored: int
    good_volume: float
    search_volume: float

    @property
    def good(self):
        return self.ledger.good

    @property
    def wrong(self):
        return self.ledger.wrong


# -- evaluation contexts ----------------------------------------------------


class DecreaseContext:
    """Discrete-time decrease test F = V(G^M(x)) - rho V(x)."""

    def __init__(self, sys: PiecewiseSystem, V: CandidateV, M: int, domain, cap: int):
        self.sys = sys
        self.V = V
        self.M = M
        self.domain = domain
        self.cap = cap

    def boxes_branches(self, boxes: Sequence[HyperRect]) -> list:
        return enumerate_boxes_branches(self.sys, boxes, self.M, self.domain, self.cap)

    def map_for(self, branch):
        return DecreaseMap(self.sys, self.V, self.M, branch)

    def point_branches(self, x):
        return enumerate_branches(self.sys, x, self.M, self.cap)

    def center_exits(self, box: HyperRect) -> bool:
        return center_trajectory_exits(self.sys, box.center, self.M, self.domain)


class FlowDerivativeContext:
    """Continuous-time test F = d/dt W along the flow."""

    def __init__(
        self,
        ct_sys: PiecewiseSystem,
        dt_sys: PiecewiseSystem,
        V: CandidateV,
        M: int,
        domain,
        cap: int,
    ):
        self.ct_sys = ct_sys
        self.dt_sys = dt_sys
        self.V = V
        self.M = M
        self.domain = domain
        self.cap = cap

    def boxes_branches(self, boxes: Sequence[HyperRect]) -> list:
        """(flow region, sequence) pairs per box, or the box's error: a
        flow-region guard error first, then the sequence enumeration's,
        then the cap on the pairs."""
        out = regions_intersecting_boxes(self.ct_sys, boxes, literal=True)
        keys = [k for k, regions in enumerate(out) if not isinstance(regions, Exception)]
        seqs_of = enumerate_boxes_branches(
            self.dt_sys, [boxes[k] for k in keys], self.M - 1, self.domain, self.cap
        )
        for k, seqs in zip(keys, seqs_of):
            if isinstance(seqs, Exception):
                out[k] = seqs
                continue
            pairs = [(r, s) for r in out[k] for s in seqs]
            if len(pairs) > self.cap:
                pairs = BranchOverflowError(
                    f"{len(pairs)} region/branch combinations exceed cap {self.cap}"
                )
            out[k] = pairs
        return out

    def map_for(self, branch):
        region, seq = branch
        return DerivativeAlongFlowMap(
            self.ct_sys, self.dt_sys, self.V, self.M, region, seq
        )

    def point_branches(self, x):
        regions = region_of(self.ct_sys, x)
        seqs = enumerate_branches(self.dt_sys, x, self.M - 1, self.cap)
        return [(r, s) for r in regions for s in seqs]

    def center_exits(self, box: HyperRect) -> bool:
        return center_trajectory_exits(self.dt_sys, box.center, self.M, self.domain)


def _point_jump(ctx, box, branches, values) -> float:
    """Jump gap of the map at the sample point itself.

    Branch patterns active at the point are a subset of the box-feasible
    ones; off-boundary samples have a single pattern and no jump.  The
    per-branch Taylor bounds already cover variation across the box, so
    only the point jump enters the slack.
    """
    if len(values) <= 1:
        return 0.0
    try:
        at_point = set(ctx.point_branches(box.center))
    except (TieError, BranchOverflowError, CoverageError, DomainError):
        return float(max(values) - min(values))
    vals = [v for b, v in zip(branches, values) if b in at_point]
    if len(vals) <= 1:
        return 0.0
    return float(max(vals) - min(vals))


# evaluation failures that flag a box `domain-error`
_EVAL_ERRORS = (DomainError, OverflowError)


@dataclass
class BoxOutcome:
    certified: bool
    F_value: Optional[float]
    gamma: Optional[float]
    flag: Optional[str]
    refinable: bool = True


def verify_boxes(ctx, boxes: Sequence[HyperRect]) -> list:
    """Certify each box or report why it could not be certified.

    Branch patterns are enumerated for all boxes in one interval walk;
    then every branch is assessed for all boxes that can follow it in one
    batched evaluation.
    A batch that meets a DomainError, or the OverflowError of a float
    power, is assessed again box by box, so only the boxes at fault are
    flagged `domain-error`.  Each outcome is the same whatever the other
    boxes in the call are.
    """
    outcomes = [None] * len(boxes)
    branches_of = {}
    for k, (box, branches) in enumerate(zip(boxes, ctx.boxes_branches(boxes))):
        if isinstance(branches, BranchOverflowError):
            outcomes[k] = BoxOutcome(False, None, None, "branch-overflow")
        elif isinstance(branches, _EVAL_ERRORS):
            outcomes[k] = BoxOutcome(False, None, None, "domain-error")
        elif isinstance(branches, DomainExit):
            # refinement shrinks the enclosure, but not a trajectory that has
            # already left through the sample point itself
            outcomes[k] = BoxOutcome(
                False, None, None, "left-domain", refinable=not ctx.center_exits(box)
            )
        elif isinstance(branches, CoverageError):
            outcomes[k] = BoxOutcome(False, None, None, "no-region")
        else:
            branches_of[k] = branches
    assessed = {}
    for b, keys in group_by_branch(branches_of).items():
        fmap = ctx.map_for(b)
        results = batch_or_each(
            lambda bs: assess_boxes(fmap, bs),
            lambda box: assess_branch(fmap, box),
            [boxes[k] for k in keys],
            _EVAL_ERRORS,
        )
        assessed.update(((k, b), bb) for k, bb in zip(keys, results))
    for k, branches in branches_of.items():
        assessments = [assessed[k, b] for b in branches]
        if any(isinstance(a, _EVAL_ERRORS) for a in assessments):
            outcomes[k] = BoxOutcome(False, None, None, "domain-error")
        else:
            outcomes[k] = _decide(ctx, boxes[k], branches, assessments)
    return outcomes


def _decide(ctx, box, branches, assessments) -> BoxOutcome:
    values = [a.value for a in assessments]
    eps = _point_jump(ctx, box, branches, values)
    gamma = certificate_slack([a.split for a in assessments], eps, box_radius(box))
    F = float(max(values))
    return BoxOutcome(F < -gamma, F, gamma, None)


# `method` and `pairing` are accepted and ignored: bench/micro.py passes them
def verify_box(ctx, box: HyperRect, method=None, pairing=None) -> BoxOutcome:
    """Certify one box or report why it could not be certified."""
    return verify_boxes(ctx, [box])[0]


# -- wave evaluation -----------------------------------------------------------


class _BoxEvaluator:
    """Maps the boxes of one wave to their outcomes in one batched call."""

    def __init__(self, ctx):
        self.ctx = ctx

    def map(self, boxes):
        return verify_boxes(self.ctx, boxes)


# -- multi-resolution construction --------------------------------------------


def _seed_boxes(cfg: VerifyConfig):
    if cfg.seed_split is None:
        return [cfg.S]
    splits = cfg.seed_split
    lo, hi = cfg.S.lower, cfg.S.upper
    edges = [np.linspace(lo[i], hi[i], splits[i] + 1) for i in range(cfg.S.n)]
    boxes = []
    for idx in itertools.product(*(range(k) for k in splits)):
        blo = [edges[i][idx[i]] for i in range(cfg.S.n)]
        bhi = [edges[i][idx[i] + 1] for i in range(cfg.S.n)]
        boxes.append(HyperRect.from_bounds(blo, bhi))
    return boxes


def build_certified_region(cfg: VerifyConfig, ctx, M_label: Optional[int] = None) -> Certificate:
    """Breadth-first multi-resolution search for the certified union of boxes."""
    ledger = SampleLedger()
    explored = 0
    queue = _seed_boxes(cfg)
    evaluator = _BoxEvaluator(ctx)
    while queue:
        outcomes = evaluator.map(queue)
        next_queue = []
        for box, out in zip(queue, outcomes):
            explored += 1
            if out.certified:
                ledger.good.append(
                    SampleRecord(box.center, box.delta, box.tau, out.F_value, out.gamma)
                )
            elif box.max_abs_delta > cfg.delta_min and out.refinable:
                dims = longest_axes(box) if cfg.split_longest_only else None
                next_queue.extend(refine2(box, dims))
            else:
                ledger.wrong.append(
                    SampleRecord(
                        box.center, box.delta, box.tau, out.F_value, out.gamma, out.flag
                    )
                )
        queue = next_queue
    ledger.sort()
    return Certificate(
        ledger=ledger,
        M_final=M_label if M_label is not None else cfg.M,
        W=None,
        verdict="certified-on-A",
        explored=explored,
        good_volume=ledger.good_volume(),
        search_volume=cfg.S.volume,
    )


def _hole_allowance_volume(cfg: VerifyConfig) -> float:
    """Volume granted to the unavoidable undecided hole around the origin."""
    half = np.minimum(4.0 * cfg.delta_min, 0.5 * (cfg.S.upper - cfg.S.lower))
    return float(np.prod(2.0 * half))


def quality_ok(cfg: VerifyConfig, cert: Certificate) -> bool:
    denom = max(cert.search_volume - _hole_allowance_volume(cfg), 1e-300)
    return cert.good_volume / denom >= cfg.quality_gate


def search_horizon(cfg: VerifyConfig, sys: PiecewiseSystem, V: CandidateV) -> Certificate:
    """Increase the decrease horizon until the certified region is acceptable.

    Runs the multi-resolution construction at each horizon; a horizon is
    accepted when the certified volume fraction passes the quality gate.
    Exhausting the cap returns a halted certificate (hint: the candidate
    function itself should be changed).
    """
    last = None
    for M in range(cfg.M, cfg.M_max + 1):
        ctx = DecreaseContext(sys, V, M, cfg.domain, cfg.branch_cap)
        cert = build_certified_region(cfg, ctx, M_label=M)
        if last is not None:
            cert.explored += last.explored
        if quality_ok(cfg, cert):
            cert.W = WDescription(V.P.copy(), V.rho_c, M)
            return cert
        last = cert
    last.verdict = "halted"
    return last


def verify_continuous(
    cfg: VerifyConfig,
    ct_sys: PiecewiseSystem,
    dt_sys: PiecewiseSystem,
    W: WDescription,
) -> Certificate:
    """Re-certify an existing W for the continuous-time dynamics (dW/dt < 0)."""
    ctx = FlowDerivativeContext(
        ct_sys, dt_sys, W.candidate(), W.M, cfg.domain, cfg.branch_cap
    )
    cert = build_certified_region(cfg, ctx, M_label=W.M)
    cert.W = W
    if not quality_ok(cfg, cert):
        cert.verdict = "halted"
    return cert


# -- invariance assembly -------------------------------------------------------


def _boxes_inside_level(boxes: Sequence[HyperRect], P: np.ndarray, level: float) -> list:
    """Does the interval enclosure of x'Px over each box stay <= level?"""
    out = quad_form(np.asarray(P, float), list(interval_batch(boxes)))
    hi = out.hi if isinstance(out, IntervalArray) else np.full(len(boxes), float(out))
    return (hi <= level).tolist()


def check_invariance(
    ledger: SampleLedger,
    wctx: WContext,
    level: float,
    local: Optional[LocalCertificate],
    subdivide_to: Optional[float] = None,
) -> tuple:
    """Structural audit that {W <= level} minus the local set is certified.

    Every undecided box must either sit inside the local invariant set or
    be excluded from the sublevel set by its own rigorous lower bound on
    W.  The tests run in this order, each as one batched pass over the
    boxes no earlier test has cleared: inside the local ellipsoid, the
    W bound at `subdivide_to`, at `subdivide_to / 4`, and the plain
    interval enclosure.  Returns (ok, gap_records).
    """
    open_ = list(ledger.wrong)
    if local is not None and open_:
        inside = _boxes_inside_level([r.box() for r in open_], local.P_L, local.level_L)
        open_ = [rec for rec, ok in zip(open_, inside) if not ok]
    subs = [subdivide_to] if subdivide_to is None else [subdivide_to, subdivide_to / 4.0]
    for sub in subs:
        if open_:
            bounds = wctx.lower_bounds([r.box() for r in open_], subdivide_to=sub)
            open_ = [
                rec for rec, b in zip(open_, bounds) if not (b is not None and b >= level - 1e-12)
            ]
    if open_:
        ranges = wctx.interval_values_over_boxes([r.box() for r in open_])
        open_ = [
            rec for rec, rng in zip(open_, ranges) if not (rng is not None and rng.lo > level)
        ]
    ok = not open_ and local is not None
    return ok, open_
