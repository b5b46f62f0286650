"""Sampling certificate engine.

A work queue of boxes starts from the search set (or a seed grid); each
box is tested with the per-sample inequality F(x_s) < -slack.  Rejected
boxes refine into 2^n children until the resolution floor; what remains
undecided is reported, never rescued.  Waves are processed breadth-first
and results merged in queue order, so ledgers are identical for any
worker count.
"""

from __future__ import annotations

import concurrent.futures
import itertools
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .bounds import (
    BEST,
    COMBINED,
    PAIR_L2,
    PAIR_LINF,
    SPLIT,
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
    enumerate_box_branches,
    enumerate_branches,
    quad_form,
    reach_box,
    region_of,
    regions_intersecting,
)


@dataclass
class VerifyConfig:
    """Inputs of one certified-region search."""

    S: HyperRect
    delta_min: float
    M: int
    M_max: int
    rho_c: float
    mode: str = "discrete"
    bound_method: str = SPLIT
    norm_pairing: str = PAIR_LINF
    workers: int = 1
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
        if self.bound_method not in (SPLIT, COMBINED, BEST):
            raise ValueError(f"unknown bound method {self.bound_method!r}")
        if self.norm_pairing not in (PAIR_LINF, PAIR_L2):
            raise ValueError(f"unknown norm pairing {self.norm_pairing!r}")
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

    def box_branches(self, box: HyperRect):
        return enumerate_box_branches(self.sys, box, self.M, self.domain, self.cap)

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

    def box_branches(self, box: HyperRect):
        regions = regions_intersecting(self.ct_sys, box, literal=True)
        seqs = enumerate_box_branches(self.dt_sys, box, self.M - 1, self.domain, self.cap)
        pairs = [(r, s) for r in regions for s in seqs]
        if len(pairs) > self.cap:
            raise BranchOverflowError(
                f"{len(pairs)} region/branch combinations exceed cap {self.cap}"
            )
        return pairs

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


@dataclass
class BoxOutcome:
    certified: bool
    F_value: Optional[float]
    gamma: Optional[float]
    flag: Optional[str]
    refinable: bool = True


def verify_boxes(
    ctx, boxes: Sequence[HyperRect], method: str = SPLIT, pairing: str = PAIR_LINF
) -> list:
    """Certify each box or report why it could not be certified.

    Branch patterns are enumerated box by box; then every branch is
    assessed for all boxes that can follow it in one batched evaluation.
    A batch that meets a DomainError is assessed again box by box, so only
    the boxes at fault are flagged.  Each outcome is the same whatever the
    other boxes in the call are.
    """
    outcomes = [None] * len(boxes)
    branches_of = {}
    for k, box in enumerate(boxes):
        try:
            branches_of[k] = ctx.box_branches(box)
        except BranchOverflowError:
            outcomes[k] = BoxOutcome(False, None, None, "branch-overflow")
        except DomainError:
            outcomes[k] = BoxOutcome(False, None, None, "domain-error")
        except DomainExit:
            # refinement shrinks the enclosure, but not a trajectory that has
            # already left through the sample point itself
            outcomes[k] = BoxOutcome(
                False, None, None, "left-domain", refinable=not ctx.center_exits(box)
            )
        except CoverageError:
            outcomes[k] = BoxOutcome(False, None, None, "no-region")
    assessed = {}
    for b, keys in group_by_branch(branches_of).items():
        fmap = ctx.map_for(b)
        results = batch_or_each(
            lambda bs: assess_boxes(fmap, bs, method, pairing),
            lambda box: assess_branch(fmap, box, method, pairing),
            [boxes[k] for k in keys],
            DomainError,
        )
        assessed.update(((k, b), bb) for k, bb in zip(keys, results))
    for k, branches in branches_of.items():
        assessments = [assessed[k, b] for b in branches]
        if any(a is None for a in assessments):
            outcomes[k] = BoxOutcome(False, None, None, "domain-error")
        else:
            outcomes[k] = _decide(ctx, boxes[k], branches, assessments, method, pairing)
    return outcomes


def _decide(ctx, box, branches, assessments, method, pairing) -> BoxOutcome:
    values = [a.value for a in assessments]
    eps = _point_jump(ctx, box, branches, values)
    xi = box_radius(box, pairing)
    gamma = certificate_slack([a.split for a in assessments], eps, xi)
    if method in (COMBINED, BEST):
        gamma_c = certificate_slack([a.combined for a in assessments], eps, xi)
        gamma = gamma_c if method == COMBINED else min(gamma, gamma_c)
    F = float(max(values))
    return BoxOutcome(F < -gamma, F, gamma, None)


def verify_box(
    ctx, box: HyperRect, method: str = SPLIT, pairing: str = PAIR_LINF
) -> BoxOutcome:
    """Certify one box or report why it could not be certified."""
    return verify_boxes(ctx, [box], method, pairing)[0]


# -- parallel box evaluation --------------------------------------------------

_WORKER_STATE = None


def _init_worker(ctx, method, pairing):
    global _WORKER_STATE
    _WORKER_STATE = (ctx, method, pairing)


def _worker_verify(boxes):
    ctx, method, pairing = _WORKER_STATE
    return verify_boxes(ctx, boxes, method, pairing)


class _BoxEvaluator:
    """Maps boxes to outcomes, optionally across a process pool.

    With a pool, each worker gets one contiguous chunk of the boxes.
    Results always come back in input order, and no outcome depends on
    the chunking, so artifacts do not depend on the worker count.
    """

    def __init__(self, ctx, method: str, pairing: str, workers: int):
        self.ctx = ctx
        self.method = method
        self.pairing = pairing
        self.pool = None
        if workers > 1:
            self.pool = concurrent.futures.ProcessPoolExecutor(
                max_workers=workers,
                initializer=_init_worker,
                initargs=(ctx, method, pairing),
            )
            self.workers = workers

    def map(self, boxes):
        if self.pool is None:
            return verify_boxes(self.ctx, boxes, self.method, self.pairing)
        cuts = [len(boxes) * i // self.workers for i in range(self.workers + 1)]
        chunks = [boxes[a:b] for a, b in zip(cuts, cuts[1:]) if a < b]
        return [out for part in self.pool.map(_worker_verify, chunks) for out in part]

    def close(self):
        if self.pool is not None:
            self.pool.shutdown()
            self.pool = None


# -- multi-resolution construction --------------------------------------------


def _seed_boxes(cfg: VerifyConfig):
    if cfg.seed_split is None:
        return [cfg.S]
    splits = [int(k) for k in cfg.seed_split]
    if len(splits) != cfg.S.n or any(k < 1 for k in splits):
        raise ValueError("seed_split needs one positive count per axis")
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
    evaluator = _BoxEvaluator(ctx, cfg.bound_method, cfg.norm_pairing, cfg.workers)
    try:
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
    finally:
        evaluator.close()
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


# -- reachability fallback ------------------------------------------------------


def _enclosure_covered(lo, hi, targets, tol: float) -> bool:
    """Does a union of boxes cover [lo, hi]?  Decided by recursive splitting."""
    lo = np.asarray(lo, float)
    hi = np.asarray(hi, float)
    for t in targets:
        if np.all(lo >= t.lower - 1e-12) and np.all(hi <= t.upper + 1e-12):
            return True
    ext = hi - lo
    axis = int(np.argmax(ext))
    if ext[axis] <= tol:
        return False
    mid = 0.5 * (lo[axis] + hi[axis])
    lo2 = lo.copy()
    hi1 = hi.copy()
    hi1[axis] = mid
    lo2[axis] = mid
    near = [t for t in targets if np.all(t.upper >= lo - 1e-12) and np.all(t.lower <= hi + 1e-12)]
    return _enclosure_covered(lo, hi1, near, tol) and _enclosure_covered(lo2, hi, near, tol)


def reach_covered(
    sys: PiecewiseSystem,
    n2_boxes: Sequence[HyperRect],
    target_boxes: Sequence[HyperRect],
    delta_min: float,
) -> bool:
    """One-step images of the hole boxes must land inside the target union.

    Hole boxes whose image enclosure is not covered refine and retry until
    the resolution floor; an uncovered image at the floor decides False.
    """
    targets = list(target_boxes)
    queue = list(n2_boxes)
    while queue:
        box = queue.pop()
        ok = True
        for ridx in regions_intersecting(sys, box):
            img = reach_box(sys, box, ridx)
            if not _enclosure_covered(img.lower(), img.upper(), targets, delta_min / 8.0):
                ok = False
                break
        if ok:
            continue
        if box.max_abs_delta > delta_min:
            queue.extend(refine2(box))
        else:
            return False
    return True
