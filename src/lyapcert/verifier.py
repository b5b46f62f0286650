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
    assess_branch,  # noqa: F401  (importable from here as well)
    by_branch,
    certificate_slack,
    DecreaseMap,
    DerivativeAlongFlowMap,
)
from .errors import BranchOverflowError, CoverageError, DomainError, TieError
from .geometry import BoxArray, HyperRect, SampleLedger, SampleRecord, interval_batch
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

    def boxes_branches(self, boxes: BoxArray) -> list:
        return enumerate_boxes_branches(self.sys, boxes, self.M, self.domain, self.cap)

    def map_for(self, branches):
        """The decrease map with one row per branch sequence."""
        return DecreaseMap(self.sys, self.V, self.M, branches)

    def point_branches(self, x):
        return enumerate_branches(self.sys, x, self.M, self.cap)

    def center_exits(self, center) -> bool:
        return center_trajectory_exits(self.sys, center, self.M, self.domain)


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

    def boxes_branches(self, boxes) -> list:
        """(flow region, sequence) pairs per box, or the box's error: a
        flow-region guard error first, then the sequence enumeration's,
        then the cap on the pairs."""
        boxes = BoxArray.of(boxes)
        out = regions_intersecting_boxes(self.ct_sys, boxes, literal=True)
        keys = [k for k, regions in enumerate(out) if not isinstance(regions, Exception)]
        seqs_of = enumerate_boxes_branches(
            self.dt_sys, boxes.take(keys), self.M - 1, self.domain, self.cap
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

    def map_for(self, branches):
        """The flow map with one row per (flow region, sequence) pair."""
        regions = [r for r, _ in branches]
        seqs = [s for _, s in branches]
        return DerivativeAlongFlowMap(self.ct_sys, self.dt_sys, self.V, self.M, regions, seqs)

    def point_branches(self, x):
        regions = region_of(self.ct_sys, x)
        seqs = enumerate_branches(self.dt_sys, x, self.M - 1, self.cap)
        return [(r, s) for r in regions for s in seqs]

    def center_exits(self, center) -> bool:
        return center_trajectory_exits(self.dt_sys, center, self.M, self.domain)


def _point_jump(ctx, center, branches, values) -> float:
    """Jump gap of the map at the sample point itself.

    Branch patterns active at the point are a subset of the box-feasible
    ones; off-boundary samples have a single pattern and no jump.  The
    per-branch Taylor bounds already cover variation across the box, so
    only the point jump enters the slack.
    """
    if len(values) <= 1:
        return 0.0
    try:
        at_point = set(ctx.point_branches(center))
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


@dataclass
class BoxOutcomes:
    """The outcomes of N boxes, a sequence of BoxOutcome: entry k of each
    field is box k's."""

    certified: np.ndarray  # bool
    F_value: list
    gamma: list
    flag: list
    refinable: np.ndarray  # bool

    def __len__(self) -> int:
        return len(self.flag)

    def __getitem__(self, k: int) -> BoxOutcome:
        certified, refinable = bool(self.certified[k]), bool(self.refinable[k])
        return BoxOutcome(certified, self.F_value[k], self.gamma[k], self.flag[k], refinable)


def verify_boxes(ctx, boxes) -> BoxOutcomes:
    """Certify each box (of a BoxArray, or HyperRects) or report why it
    could not be certified.

    Branch patterns are enumerated for all boxes in one interval walk;
    then every (box, branch) pair is assessed in one batched evaluation
    (by_branch).  A pair whose evaluation fails (a NaN in its value,
    gradient or Hessian) has a DomainError, which flags its box
    `domain-error`.  Each outcome is the same whatever the other boxes in
    the call are.

    A box with one branch and no error is decided by array operations,
    F = F(x_s) and gamma = a * max|delta| + b + 0.0 (certificate_slack
    with no jump); the others box by box (_decide).
    """
    boxes = BoxArray.of(boxes)
    branches, found = by_branch(ctx, boxes, assess_boxes)
    N = len(boxes)
    out = BoxOutcomes(np.zeros(N, bool), [None] * N, [None] * N, [None] * N, np.ones(N, bool))
    radius = boxes.radius
    plain, bounds = [], []
    for k, seqs in enumerate(branches):
        if not isinstance(seqs, Exception) and len(seqs) == 1:
            bb = found[k, seqs[0]][0]
            if not isinstance(bb, DomainError):
                plain.append(k)
                bounds.append((bb.value, bb.split.a, bb.split.b))
                continue
        _decide(ctx, boxes.centers[k], float(radius[k]), seqs, found, k, out)
    if plain:
        F, a, b = np.array(bounds).T
        with np.errstate(over="ignore", invalid="ignore"):  # overflow gives inf, as for floats
            gamma = a * radius[plain] + b + 0.0
        out.certified[plain] = F < -gamma
        for k, f, g in zip(plain, F.tolist(), gamma.tolist()):
            out.F_value[k], out.gamma[k] = f, g
    return out


def _decide(ctx, center, xi, branches, found, k, out: BoxOutcomes):
    """Entry k of `out` from box k's branches, or the error that stopped
    their enumeration, and their assessments in `found` (by_branch)."""
    if isinstance(branches, BranchOverflowError):
        out.flag[k] = "branch-overflow"
    elif isinstance(branches, DomainError):
        out.flag[k] = "domain-error"
    elif isinstance(branches, DomainExit):
        # refinement shrinks the enclosure, but not a trajectory that has
        # already left through the sample point itself
        out.flag[k] = "left-domain"
        out.refinable[k] = not ctx.center_exits(center)
    elif isinstance(branches, CoverageError):
        out.flag[k] = "no-region"
    else:
        assessments = [found[k, b][0] for b in branches]
        if any(isinstance(a, DomainError) for a in assessments):
            out.flag[k] = "domain-error"
            return
        values = [a.value for a in assessments]
        eps = _point_jump(ctx, center, branches, values)
        gamma = certificate_slack([a.split for a in assessments], eps, xi)
        F = float(max(values))
        out.certified[k], out.F_value[k], out.gamma[k] = F < -gamma, F, gamma


# `method` and `pairing` are accepted and ignored: bench/micro.py passes them
def verify_box(ctx, box: HyperRect, method=None, pairing=None) -> BoxOutcome:
    """Certify one box or report why it could not be certified."""
    return verify_boxes(ctx, [box])[0]


# -- wave evaluation -----------------------------------------------------------


class _BoxEvaluator:
    """Maps the boxes of one wave to their outcomes in one batched call."""

    def __init__(self, ctx):
        self.ctx = ctx

    def map(self, boxes: BoxArray) -> BoxOutcomes:
        return verify_boxes(self.ctx, boxes)


# -- multi-resolution construction --------------------------------------------


def _seed_boxes(cfg: VerifyConfig) -> BoxArray:
    if cfg.seed_split is None:
        return BoxArray.of([cfg.S])
    splits = cfg.seed_split
    lo, hi = cfg.S.lower, cfg.S.upper
    edges = [np.linspace(lo[i], hi[i], splits[i] + 1) for i in range(cfg.S.n)]
    idx = np.array(list(itertools.product(*(range(k) for k in splits))))
    blo = np.stack([edges[i][idx[:, i]] for i in range(cfg.S.n)], axis=1)
    bhi = np.stack([edges[i][idx[:, i] + 1] for i in range(cfg.S.n)], axis=1)
    return BoxArray.from_bounds(blo, bhi)


def build_certified_region(cfg: VerifyConfig, ctx, M_label: Optional[int] = None) -> Certificate:
    """Breadth-first multi-resolution search for the certified union of boxes.

    Each wave is a BoxArray: its boxes are decided in one batched call,
    those that are neither certified nor at the resolution floor (nor
    stuck, refinable False) are refined together, and the others go to
    the ledger in queue order."""
    ledger = SampleLedger()
    explored = 0
    queue = _seed_boxes(cfg)
    evaluator = _BoxEvaluator(ctx)
    while len(queue):
        out = evaluator.map(queue)
        explored += len(queue)
        split = ~out.certified & out.refinable & (queue.radius > cfg.delta_min)
        tau = queue.tau
        for k in np.flatnonzero(~split).tolist():
            rec = SampleRecord(
                queue.centers[k], queue.deltas[k], tau[k], out.F_value[k], out.gamma[k], out.flag[k]
            )
            (ledger.good if out.certified[k] else ledger.wrong).append(rec)
        parents = queue.take(split)
        queue = parents.refine(parents.longest() if cfg.split_longest_only else None)
    ledger.sort()
    return Certificate(
        ledger=ledger,
        M_final=M_label if M_label is not None else cfg.M,
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
    if not quality_ok(cfg, cert):
        cert.verdict = "halted"
    return cert


# -- invariance assembly -------------------------------------------------------


def _boxes_inside_level(boxes: BoxArray, P: np.ndarray, level: float) -> list:
    """Does the interval enclosure of x'Px over each box stay <= level?"""
    out = quad_form(np.asarray(P, float), list(interval_batch(boxes)))
    hi = out.hi if isinstance(out, IntervalArray) else np.full(len(boxes), float(out))
    return (hi <= level).tolist()


def audit_rows(ledger: SampleLedger, local: Optional[LocalCertificate]) -> list:
    """The undecided records whose box the interval enclosure does not put
    inside the local ellipsoid: those the invariance audit bounds."""
    rows = list(ledger.wrong)
    if local is None or not rows:
        return rows
    inside = _boxes_inside_level(BoxArray.of_records(rows), local.P_L, local.level_L)
    return [rec for rec, ok in zip(rows, inside) if not ok]


def check_invariance(
    ledger: SampleLedger,
    wctx: WContext,
    level: float,
    local: Optional[LocalCertificate],
    subdivide_to: Optional[float] = None,
    rows: Optional[list] = None,
) -> tuple:
    """Structural audit that {W <= level} minus the local set is certified.

    Every undecided box must either sit inside the local invariant set or
    be excluded from the sublevel set by its own rigorous lower bound on
    W.  The tests run in this order, each as one batched pass over the
    boxes no earlier test has cleared: inside the local ellipsoid
    (audit_rows, unless its `rows` are given), the W bound at
    `subdivide_to`, at `subdivide_to / 4`, and the plain interval
    enclosure.  Returns (ok, gap_records).
    """
    open_ = audit_rows(ledger, local) if rows is None else list(rows)
    subs = [subdivide_to] if subdivide_to is None else [subdivide_to, subdivide_to / 4.0]
    for sub in subs:
        if open_:
            bounds = wctx.lower_bounds(BoxArray.of_records(open_), subdivide_to=sub)
            open_ = [
                rec for rec, b in zip(open_, bounds) if not (b is not None and b >= level - 1e-12)
            ]
    if open_:
        ranges = wctx.interval_values_over_boxes(BoxArray.of_records(open_))
        open_ = [rec for rec, rng in zip(open_, ranges) if not (rng is not None and rng.lo > level)]
    ok = not open_ and local is not None
    return ok, open_
