"""Piecewise system model: regions, iteration, branch tracking, jumps.

A system is a list of regions, each a conjunction of guard inequalities
with its own vector field.  Point iteration resolves the active region by
the literal guards; branch enumeration forks wherever membership is
ambiguous so that every composition pattern realizable near a sample is
covered.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import BranchOverflowError, CoverageError, DomainError, TieError
from .expr import Expr, VectorField, eval_any, eval_interval, eval_real, shift_vars
from .expr import Bin, Const, Var
from .geometry import HyperRect
from .interval import Interval, IntervalVector

DISCRETE = "discrete"
CONTINUOUS = "continuous"

_RELATIONS = ("<=", "<", ">=", ">")


@dataclass(frozen=True)
class Guard:
    """Constraint `expr rel 0` delimiting a region."""

    expr: Expr
    rel: str

    def __post_init__(self):
        if self.rel not in _RELATIONS:
            raise ValueError(f"unknown relation {self.rel!r}")

    def holds_literal(self, value: float) -> bool:
        if self.rel == "<=":
            return value <= 0.0
        if self.rel == "<":
            return value < 0.0
        if self.rel == ">=":
            return value >= 0.0
        return value > 0.0

    def holds_closure(self, value: float) -> bool:
        # strict relations relax to their closure: boundaries count for
        # both neighbors, matching the closure regularization of the map
        if self.rel in ("<=", "<"):
            return value <= 0.0
        return value >= 0.0

    def feasible_interval(self, rng: Interval, literal: bool = False) -> bool:
        """Can some point of the range satisfy the guard?

        Closure semantics (default) count a touched boundary for both
        sides; literal semantics require an actual satisfying point, which
        matters for strict guards when a box only touches the boundary.
        """
        if literal:
            if self.rel == "<":
                return rng.lo < 0.0
            if self.rel == "<=":
                return rng.lo <= 0.0
            if self.rel == ">":
                return rng.hi > 0.0
            return rng.hi >= 0.0
        if self.rel in ("<=", "<"):
            return rng.lo <= 0.0
        return rng.hi >= 0.0


@dataclass(frozen=True)
class Region:
    guards: tuple
    field: VectorField


@dataclass(frozen=True)
class PiecewiseSystem:
    n: int
    mode: str  # "discrete" or "continuous"
    regions: tuple

    def __post_init__(self):
        if self.mode not in (DISCRETE, CONTINUOUS):
            raise ValueError(f"unknown mode {self.mode!r}")
        for r in self.regions:
            if r.field.dim_in != self.n or r.field.dim_out != self.n:
                raise ValueError("region field dimensions must match the system")


@dataclass(frozen=True)
class CandidateV:
    """Quadratic candidate x'Px with linear contraction rho(s) = rho_c * s."""

    P: np.ndarray
    rho_c: float

    def __post_init__(self):
        P = np.asarray(self.P, dtype=float)
        object.__setattr__(self, "P", P)
        if P.ndim != 2 or P.shape[0] != P.shape[1]:
            raise ValueError("P must be square")
        if not np.allclose(P, P.T, atol=1e-10):
            raise ValueError("P must be symmetric")
        if np.min(np.linalg.eigvalsh(P)) <= 0.0:
            raise ValueError("P must be positive definite")
        if not (0.0 < self.rho_c < 1.0):
            raise ValueError("rho_c must lie in (0, 1)")

    def value(self, x) -> float:
        x = np.asarray(x, dtype=float)
        return float(x @ self.P @ x)


def quad_form(P: np.ndarray, vec: Sequence):
    """x'Px over any payload algebra; squares use the tight even-power rule."""
    n = len(vec)
    acc = None
    for i in range(n):
        pii = float(P[i, i])
        if pii != 0.0:
            term = _square(vec[i]) * pii
            acc = term if acc is None else acc + term
        for j in range(i + 1, n):
            pij = float(P[i, j])
            if pij != 0.0:
                term = (vec[i] * vec[j]) * (2.0 * pij)
                acc = term if acc is None else acc + term
    return 0.0 if acc is None else acc


def _square(v):
    if isinstance(v, float):
        return v * v
    if hasattr(v, "pow_int"):
        return v.pow_int(2)
    return v * v


# -- region membership -----------------------------------------------------


def region_of(sys: PiecewiseSystem, x) -> tuple:
    """Indices of all regions active at x, boundaries counting for both sides."""
    x = [float(v) for v in x]
    out = []
    for i, region in enumerate(sys.regions):
        if all(g.holds_closure(eval_real(g.expr, x)) for g in region.guards):
            out.append(i)
    if not out:
        raise CoverageError(f"state {x} is covered by no region")
    return tuple(out)


def literal_regions(sys: PiecewiseSystem, x) -> tuple:
    x = [float(v) for v in x]
    out = []
    for i, region in enumerate(sys.regions):
        if all(g.holds_literal(eval_real(g.expr, x)) for g in region.guards):
            out.append(i)
    return tuple(out)


def resolve_region(sys: PiecewiseSystem, x) -> int:
    """The region governing the dynamics at x.

    Unique closure-active region if there is one; on a boundary the
    literal guards decide (exactly one strict side owns the point).
    """
    closure = region_of(sys, x)
    if len(closure) == 1:
        return closure[0]
    literal = literal_regions(sys, x)
    if len(literal) == 1:
        return literal[0]
    raise TieError(f"ambiguous region at {list(map(float, x))}: candidates {closure}")


def regions_intersecting(sys: PiecewiseSystem, box, literal: bool = False) -> tuple:
    """Regions whose guards are interval-satisfiable over the box.

    May over-approximate; that direction is sound for branch coverage.
    With `literal=True` a region qualifies only if some point of the box
    can actually follow its dynamics (strict guards exclude a box that
    merely touches their boundary).
    """
    ivec = box.to_interval_vector() if isinstance(box, HyperRect) else box
    out = []
    for i, region in enumerate(sys.regions):
        ok = True
        for g in region.guards:
            if not g.feasible_interval(eval_interval(g.expr, ivec), literal):
                ok = False
                break
        if ok:
            out.append(i)
    return tuple(out)


# -- iteration ---------------------------------------------------------------


def step(sys: PiecewiseSystem, x, forced_region: Optional[int] = None) -> np.ndarray:
    """One discrete step; forcing selects the field on guard boundaries."""
    _require_discrete(sys)
    x = [float(v) for v in x]
    if forced_region is None:
        idx = resolve_region(sys, x)
    else:
        idx = forced_region
        if idx not in region_of(sys, x):
            raise ValueError(f"region {idx} is not active at {x}")
    field = sys.regions[idx].field
    return np.array([eval_real(c, x) for c in field.components])


def apply_field(sys: PiecewiseSystem, region_idx: int, values: Sequence):
    """Apply one region's field in any payload algebra."""
    field = sys.regions[region_idx].field
    return [eval_any(c, values) for c in field.components]


def iterate(sys: PiecewiseSystem, x, M: int, branch: Optional[Sequence] = None):
    """M-step image together with the region used at each step.

    Entries of `branch` may be None, in which case the step resolves its
    own region (raising on genuine ties).
    """
    _require_discrete(sys)
    state = np.asarray(x, dtype=float)
    used = []
    for k in range(M):
        forced = None
        if branch is not None and k < len(branch):
            forced = branch[k]
        if forced is None:
            forced = resolve_region(sys, state)
        state = step(sys, state, forced)
        used.append(forced)
    return state, tuple(used)


def enumerate_branches(sys: PiecewiseSystem, x_s, M: int, cap: int = 64) -> list:
    """All composition patterns realizable arbitrarily close to x_s.

    Forks over every region active at the sample point itself; subsequent
    steps follow the literal dynamics (points leave a crossed boundary
    for the strict side immediately, so no further forking is needed).
    """
    _require_discrete(sys)
    if M == 0:
        return [()]
    first = region_of(sys, x_s)
    if len(first) > cap:
        raise BranchOverflowError(f"{len(first)} region ties exceed cap {cap}")
    out = []
    for idx in first:
        state = step(sys, x_s, idx)
        seq = [idx]
        for _ in range(M - 1):
            nxt = resolve_region(sys, state)
            state = step(sys, state, nxt)
            seq.append(nxt)
        out.append(tuple(seq))
    return sorted(set(out))


def decrease_value(
    sys: PiecewiseSystem, V: CandidateV, M: int, x, branch: Optional[Sequence] = None
) -> float:
    """V(G^M(x)) - rho_c * V(x) along one branch."""
    end, _ = iterate(sys, x, M, branch)
    return V.value(end) - V.rho_c * V.value(x)


def branch_jump(sys: PiecewiseSystem, V: CandidateV, M: int, x_s) -> float:
    """Largest gap between branch values of the decrease map at x_s.

    Zero whenever only one composition pattern is active near the point.
    """
    branches = enumerate_branches(sys, x_s, M)
    if len(branches) <= 1:
        return 0.0
    values = [decrease_value(sys, V, M, x_s, b) for b in branches]
    return float(max(values) - min(values))


# -- construction helpers ----------------------------------------------------


def euler_discretize(sys: PiecewiseSystem, h: float) -> PiecewiseSystem:
    """Forward-Euler discretization x + h*f(x), region structure unchanged."""
    if sys.mode != CONTINUOUS:
        raise ValueError("euler_discretize expects a continuous-time system")
    if not (h > 0.0):
        raise ValueError("step size h must be positive")
    regions = []
    for r in sys.regions:
        comps = tuple(
            Bin("+", Var(i), Bin("*", Const(float(h)), c))
            for i, c in enumerate(r.field.components)
        )
        regions.append(Region(r.guards, VectorField(sys.n, comps)))
    return PiecewiseSystem(sys.n, DISCRETE, tuple(regions))


def translate_system(sys: PiecewiseSystem, x0) -> PiecewiseSystem:
    """Move the equilibrium x0 to the origin.

    Fields and guards are rewritten in the shifted coordinates; discrete
    maps additionally subtract x0 so the new map fixes 0.
    """
    x0 = np.asarray(x0, dtype=float)
    regions = []
    for r in sys.regions:
        guards = tuple(Guard(shift_vars(g.expr, x0), g.rel) for g in r.guards)
        comps = []
        for i, c in enumerate(r.field.components):
            e = shift_vars(c, x0)
            if sys.mode == DISCRETE and x0[i] != 0.0:
                if x0[i] > 0.0:
                    e = Bin("-", e, Const(float(x0[i])))
                else:
                    e = Bin("+", e, Const(float(-x0[i])))
            comps.append(e)
        regions.append(Region(guards, VectorField(sys.n, tuple(comps))))
    return PiecewiseSystem(sys.n, sys.mode, tuple(regions))


def validate_coverage(sys: PiecewiseSystem, S: HyperRect, samples: int = 1000, seed: int = 0):
    """Sampled check that the regions cover S with at most boundary ties."""
    rng = np.random.default_rng(seed)
    lo, hi = S.lower, S.upper
    X = rng.uniform(lo, hi, size=(samples, S.n))
    for x in X:
        region_of(sys, x)  # raises CoverageError on a gap


# -- interval paths ----------------------------------------------------------


def interval_step(sys: PiecewiseSystem, region_idx: int, ivec: IntervalVector) -> IntervalVector:
    field = sys.regions[region_idx].field
    out = []
    for c in field.components:
        rng = eval_interval(c, ivec)
        out.append(rng)
    return IntervalVector(out)


def reach_box(sys: PiecewiseSystem, box: HyperRect, region_idx: int) -> IntervalVector:
    """Enclosure of the one-step image of the box under one region's field."""
    _require_discrete(sys)
    return interval_step(sys, region_idx, box.to_interval_vector())


def enumerate_box_branches(
    sys: PiecewiseSystem,
    box: HyperRect,
    M: int,
    domain: Optional[HyperRect] = None,
    cap: int = 64,
) -> list:
    """Composition patterns feasible anywhere in the box, by interval stepping.

    Forks at every step on all regions whose guards are interval-satisfiable
    over the current state enclosure; this covers every pattern realized by
    any point of the box (a superset, which is the sound direction).
    Intermediate enclosures must stay inside `domain` when given.
    """
    _require_discrete(sys)
    dom = domain.to_interval_vector() if domain is not None else None
    states = [(box.to_interval_vector(), ())]
    for step_idx in range(M):
        nxt = []
        for ivec, seq in states:
            for idx in regions_intersecting(sys, ivec, literal=True):
                image = interval_step(sys, idx, ivec)
                if dom is not None and step_idx < M - 1 and not dom.encloses(image):
                    raise DomainExit(
                        f"state enclosure left the declared domain at step {step_idx + 1}"
                    )
                nxt.append((image, seq + (idx,)))
                if len(nxt) > cap:
                    raise BranchOverflowError(
                        f"more than {cap} branch sequences over the box"
                    )
        if not nxt:
            raise CoverageError("box enclosure intersects no region")
        states = nxt
    return sorted(set(seq for _, seq in states))


class DomainExit(Exception):
    """Interval trajectory left the declared validity domain."""


def center_trajectory_exits(
    sys: PiecewiseSystem, x, M: int, domain: Optional[HyperRect]
) -> bool:
    """Does the literal trajectory of x leave the domain within M-1 steps?

    Used to decide whether refining a domain-exiting box can help: the
    sample point stays on some child's boundary, so a trajectory that has
    already left keeps at least one child undecidable.
    """
    if domain is None:
        return False
    state = np.asarray(x, dtype=float)
    try:
        for _ in range(M - 1):
            state = step(sys, state, resolve_region(sys, state))
            if not domain.contains_point(state):
                return True
    except (TieError, CoverageError, DomainError):
        return False
    return False


def _require_discrete(sys: PiecewiseSystem):
    if sys.mode != DISCRETE:
        raise ValueError("operation requires a discrete-time system")
