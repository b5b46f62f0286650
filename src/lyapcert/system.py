"""Piecewise system model: regions, iteration, branch tracking, jumps.

A system is a list of regions, each a conjunction of guard inequalities
with its own vector field.  Point iteration resolves the active region by
the literal guards; branch enumeration forks wherever membership is
ambiguous so that every composition pattern realizable near a sample is
covered.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import BranchOverflowError, CoverageError, DomainError, LyapcertError, TieError
from .expr import Expr, VectorField, eval_any, eval_interval, eval_real, shift_vars
from .expr import Bin, Const, Var
from .geometry import HyperRect, interval_batch
from .interval import IntervalArray
from .scalars import lift_like, stitch_rows, take_rows

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

    def feasible_interval(self, rng: IntervalArray, literal: bool = False):
        """Can some point of the range satisfy the guard?  One bool per
        entry of the range.

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
        object.__setattr__(self, "P", self.check_P(self.P))
        if not (0.0 < self.rho_c < 1.0):
            raise ValueError("rho_c must lie in (0, 1)")

    @staticmethod
    def check_P(P) -> np.ndarray:
        """P as a float matrix; ValueError unless it is square, finite,
        symmetric and positive definite."""
        P = np.asarray(P, dtype=float)
        if P.ndim != 2 or P.shape[0] != P.shape[1]:
            raise ValueError("P must be square")
        if not np.all(np.isfinite(P)):
            raise ValueError("P must have finite entries")
        if not np.allclose(P, P.T, atol=1e-10):
            raise ValueError("P must be symmetric")
        if np.min(np.linalg.eigvalsh(P)) <= 0.0:
            raise ValueError("P must be positive definite")
        return P

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


def regions_intersecting(sys: PiecewiseSystem, box: HyperRect, literal: bool = False) -> tuple:
    """Regions whose guards are interval-satisfiable over the box.

    May over-approximate; that direction is sound for branch coverage.
    With `literal=True` a region qualifies only if some point of the box
    can actually follow its dynamics (strict guards exclude a box that
    merely touches their boundary).
    """
    return _one(regions_intersecting_boxes(sys, [box], literal)[0])


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


def apply_field(sys: PiecewiseSystem, regions: np.ndarray, values: Sequence):
    """Apply region regions[k]'s field to entry k of batched payloads, in
    any payload algebra; a single region serves a batch of any size.

    When the entries share one region, its field runs on all of them.
    Otherwise each region's field runs on its own entries (take_rows) and
    the components are stitched back (stitch_rows), so that every entry
    goes through exactly the operations of its region alone.  A component
    that gives a plain number is lifted into the payload kind of the
    inputs, so that later steps take the same operations on every entry.
    """

    def field(r, vals):
        out = (eval_any(c, vals) for c in sys.regions[r].field.components)
        return [lift_like(vals[0], v) if isinstance(v, numbers.Real) else v for v in out]

    if (regions == regions[0]).all():
        return field(int(regions[0]), values)
    # sorted(set(...)), not np.unique, which imports numpy.ma on first use
    rows = [np.flatnonzero(regions == r) for r in sorted(set(regions.tolist()))]
    parts = [field(int(regions[sel[0]]), [take_rows(v, sel) for v in values]) for sel in rows]
    return [stitch_rows(comp, rows, len(regions)) for comp in zip(*parts)]


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


# -- interval paths ----------------------------------------------------------


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
    return _one(enumerate_boxes_branches(sys, [box], M, domain, cap)[0])


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


# -- batched walks -------------------------------------------------------------
#
# Boxes (the entries of an IntervalArray) and points (the rows of a float
# array) are walked together, each expression evaluated once over all of
# them.  An item whose evaluation fails holds a NaN and gets a DomainError,
# and the others go on: each item gets bit for bit the numbers of its own
# one-item walk, whatever else is in the batch, and failures are checked
# in the one-item order.  A plain-number step that fails (a constant
# divisor 0, a constant power that overflows) raises for the whole batch;
# it fails every item alike, and each gets it as a DomainError.


def _one(result):
    """The result of a one-item batched call; raises the item's error."""
    if isinstance(result, Exception):
        raise result
    return result


def _region_masks(sys: PiecewiseSystem, count: int, guard_values, holds):
    """Per region and item, do the region's guards hold?  A bool array
    (regions, count), and {item: error} for items whose guard evaluation
    failed.

    `guard_values(expr, items)` gives a guard's values at some items and
    {position: error}; `holds(guard, values)` tests them.  As in the
    one-item walks, a guard is evaluated only where the earlier guards of
    its region hold, and an item stops at its first error.
    """
    masks = np.zeros((len(sys.regions), count), bool)
    live = np.ones(count, bool)
    errors = {}
    for r, region in enumerate(sys.regions):
        mask = live.copy()
        for g in region.guards:
            sel = np.flatnonzero(mask)
            if not sel.size:
                break
            values, errs = guard_values(g.expr, sel)
            mask[sel] = holds(g, values)
            for j, exc in errs.items():
                errors[int(sel[j])] = exc
                mask[sel[j]] = live[sel[j]] = False
        masks[r] = mask
    return masks & live, errors


# -- over boxes


# the error of an item whose evaluation marked a NaN
_FAILED = "evaluation left its domain"


def domain_errors(failed, message: str = _FAILED) -> dict:
    """{entry: DomainError(message)} for the entries where the bool array
    `failed` holds: those whose evaluation marked a NaN."""
    return {j: DomainError(message) for j in np.flatnonzero(failed).tolist()}


# what a plain-number step raises; it fails every item of a batch alike
_PLAIN_FAILURES = (DomainError, OverflowError)


def _enclose(exprs, ivals: IntervalArray):
    """Interval images of `exprs` over each entry of `ivals` (shape (n, K)).

    Returns an IntervalArray of shape (len(exprs), K) and {entry: error},
    a DomainError for each entry whose image holds a NaN endpoint.
    """
    lo = np.zeros((len(exprs), ivals.lo.shape[1]))
    hi = np.zeros_like(lo)
    message = _FAILED
    try:
        for i, e in enumerate(exprs):
            out = eval_interval(e, ivals)
            lo[i], hi[i] = out.lo, out.hi
    except _PLAIN_FAILURES as exc:
        lo[:], hi[:], message = np.nan, np.nan, str(exc)
    return IntervalArray(lo, hi), domain_errors(np.isnan(lo).any(axis=0) | np.isnan(hi).any(axis=0), message)


def _feasible_regions(sys: PiecewiseSystem, ivals: IntervalArray, literal: bool):
    """_region_masks over the entries of `ivals` by interval feasibility."""

    def guard_values(expr, sel):
        rng, errors = _enclose([expr], ivals[:, sel])
        return rng[0], errors

    return _region_masks(
        sys, ivals.lo.shape[1], guard_values, lambda g, rng: g.feasible_interval(rng, literal)
    )


def regions_intersecting_boxes(sys: PiecewiseSystem, boxes, literal: bool = False) -> list:
    """regions_intersecting for every box (of a BoxArray, or HyperRects): a
    tuple of regions, or the error."""
    masks, errors = _feasible_regions(sys, interval_batch(boxes), literal)
    return [
        errors[k] if k in errors else tuple(np.flatnonzero(masks[:, k]).tolist())
        for k in range(len(boxes))
    ]


def enumerate_boxes_branches(
    sys: PiecewiseSystem,
    boxes,
    M: int,
    domain: Optional[HyperRect] = None,
    cap: int = 64,
) -> list:
    """enumerate_box_branches for every box (of a BoxArray, or HyperRects),
    in one interval walk.

    The state enclosures of the boxes that share a branch sequence step as
    one IntervalArray.  Sequences are visited in sorted order, which is the
    one-box order of a box's states, and a box drops out at its first
    failure.  Entry k is the sorted list of sequences of boxes[k], or the
    error enumerate_box_branches raises for it.
    """
    _require_discrete(sys)
    failed = np.zeros(len(boxes), bool)
    out = [[] for _ in range(len(boxes))]

    def fail(k, exc):
        failed[k] = True
        out[k] = exc

    groups = {(): (np.arange(len(boxes)), interval_batch(boxes))} if len(boxes) else {}
    for step_idx in range(M):
        check_domain = domain is not None and step_idx < M - 1
        count = np.zeros(len(boxes), int)
        nxt = {}
        for seq in sorted(groups):
            keys, ivals = groups[seq]
            live = ~failed[keys]
            keys, ivals = keys[live], ivals[:, live]
            masks, errors = _feasible_regions(sys, ivals, literal=True)
            for j, exc in errors.items():
                fail(keys[j], exc)
            for idx, mask in enumerate(masks):
                sel = np.flatnonzero(mask & ~failed[keys])
                if not sel.size:
                    continue
                image, errors = _enclose(sys.regions[idx].field.components, ivals[:, sel])
                ks = keys[sel]
                for j, exc in errors.items():
                    fail(ks[j], exc)
                if check_domain:
                    inside = np.all(
                        (domain.lower[:, None] <= image.lo) & (image.hi <= domain.upper[:, None]),
                        axis=0,
                    )
                    for k in ks[~inside & ~failed[ks]]:
                        fail(k, DomainExit(
                            f"state enclosure left the declared domain at step {step_idx + 1}"
                        ))
                ok = ~failed[ks]
                count[ks[ok]] += 1
                over = ok & (count[ks] > cap)
                for k in ks[over]:
                    fail(k, BranchOverflowError(f"more than {cap} branch sequences over the box"))
                keep = ok & ~over
                nxt[seq + (idx,)] = (ks[keep], image[:, keep])
        for k in np.flatnonzero(~failed & (count == 0)):
            fail(k, CoverageError("box enclosure intersects no region"))
        groups = nxt
    for seq in sorted(groups):
        for k in groups[seq][0]:
            if not failed[k]:
                out[k].append(seq)
    return out


# -- over points


def _eval_points(exprs, X: np.ndarray):
    """Values of `exprs` at the rows of X (shape (N, n)), as an array
    (len(exprs), N), and {row: error}, a DomainError for each row whose
    values hold a NaN.  Float arrays round like eval_real.
    """
    vals = np.zeros((len(exprs), X.shape[0]))
    message = _FAILED
    try:
        with np.errstate(all="ignore"):
            for i, e in enumerate(exprs):
                vals[i] = eval_any(e, list(X.T))
    except _PLAIN_FAILURES as exc:
        vals[:], message = np.nan, str(exc)
    return vals, domain_errors(np.isnan(vals).any(axis=0), message)


def _closure_regions(sys: PiecewiseSystem, X: np.ndarray):
    """region_of at the rows of X, as _region_masks."""

    def guard_values(expr, sel):
        vals, errors = _eval_points([expr], X[sel])
        return vals[0], errors

    return _region_masks(sys, len(X), guard_values, lambda g, v: g.holds_closure(v))


def _resolve_points(sys: PiecewiseSystem, X: np.ndarray):
    """resolve_region at every row of X: region indices and {row: error}."""
    closure, errors = _closure_regions(sys, X)
    idx = closure.argmax(axis=0) if len(closure) else np.zeros(len(X), int)
    for k in np.flatnonzero(closure.sum(axis=0) != 1).tolist():
        if k in errors:
            continue
        try:  # no region, or a boundary: as resolve_region decides it
            idx[k] = resolve_region(sys, X[k])
        except LyapcertError as exc:
            errors[k] = exc
    return idx, errors


def validate_coverage(sys: PiecewiseSystem, S: HyperRect, samples: int = 1000, seed: int = 0):
    """Sampled check that the regions cover S with at most boundary ties.

    Raises the error of the first sample point that has one: a DomainError
    where a guard's value fails, else the CoverageError of region_of.
    """
    rng = np.random.default_rng(seed)
    X = rng.uniform(S.lower, S.upper, size=(samples, S.n))
    closure, errors = _closure_regions(sys, X)
    for k in range(samples):
        if k in errors:
            raise DomainError(f"{errors[k]} at state {X[k].tolist()}")
        if not closure[:, k].any():
            raise CoverageError(f"state {X[k].tolist()} is covered by no region")


def point_trajectories(sys: PiecewiseSystem, X, steps: int):
    """The literal trajectories of the rows of X, stepped together.

    Returns the states [X_0, ..., X_steps] (arrays of shape (N, n)) and
    {row: error}, the first error resolve_region or step raises along
    that row's own trajectory; the later states of such a row are
    meaningless.  Rows step grouped by region, with the field evaluated
    over float columns.
    """
    if steps > 0:
        _require_discrete(sys)
    state = np.array(X, dtype=float)
    states = [state]
    errors = {}
    failed = np.zeros(len(state), bool)
    for _ in range(steps):
        live = np.flatnonzero(~failed)
        idx, errs = _resolve_points(sys, state[live])
        errors.update((int(live[j]), exc) for j, exc in errs.items())
        resolved = np.ones(live.size, bool)
        resolved[list(errs)] = False
        nxt = np.zeros_like(state)
        for r in sorted(set(idx[resolved].tolist())):
            rows = live[resolved & (idx == r)]
            vals, errs = _eval_points(sys.regions[r].field.components, state[rows])
            nxt[rows] = vals.T
            errors.update((int(rows[j]), exc) for j, exc in errs.items())
        failed[list(errors)] = True
        state = nxt
        states.append(state)
    return states, errors
