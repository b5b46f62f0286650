"""Local Lyapunov function near the origin.

The dynamics are linearized at the equilibrium, a quadratic Lyapunov
function is obtained from the discrete Lyapunov equation (solved through
its Kronecker form), and its validity for the nonlinear system on a
user-chosen neighborhood is re-checked with the same sampling engine used
everywhere else.  The largest sublevel set of the quadratic inside the
neighborhood is the local invariant set that plugs the hole the sampling
certificate leaves around the origin.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .bounds import batch_or_each
from .errors import NotLocallyStableError
from .expr import eval_grad, eval_real
from .geometry import HyperRect, interval_batch
from .interval import IntervalArray, require_no_nan
from .system import (
    CandidateV,
    PiecewiseSystem,
    _enclose,
    _one,
    quad_form,
    region_of,
    regions_intersecting_boxes,
)

_EQUILIBRIUM_TOL = 1e-9
_RESIDUAL_TOL = 1e-8


@dataclass
class LocalCertificate:
    """Verified quadratic Lyapunov function and its invariant level set."""

    A_lin: list  # one matrix per region adjacent to the origin
    P_L: np.ndarray
    N1: HyperRect
    level_L: float
    verified: bool
    note: Optional[str] = None


def linearize(sys: PiecewiseSystem, tol: float = _EQUILIBRIUM_TOL) -> list:
    """Jacobians at the origin of every region adjacent to it.

    The origin must be a fixed point of each adjacent field (discrete
    maps) to within `tol`.
    """
    zero = np.zeros(sys.n)
    mats = []
    for idx in region_of(sys, zero):
        field = sys.regions[idx].field
        vals = [eval_real(c, zero) for c in field.components]
        err = float(np.max(np.abs(vals)))
        if err > tol:
            raise NotLocallyStableError(
                f"origin is not an equilibrium of region {idx} (|G(0)| = {err:.3g})"
            )
        rows = [eval_grad(c, zero)[1] for c in field.components]
        mats.append(np.array(rows, dtype=float))
    return mats


def solve_discrete_lyapunov(A: np.ndarray, Q: Optional[np.ndarray] = None) -> np.ndarray:
    """Solve A'PA - P = -Q through the Kronecker linear system.

    Requires the spectral radius of A below one; the result is symmetrized
    and checked to residual 1e-8.
    """
    A = np.asarray(A, dtype=float)
    n = A.shape[0]
    if Q is None:
        Q = np.eye(n)
    Q = np.asarray(Q, dtype=float)
    rho = float(np.max(np.abs(np.linalg.eigvals(A))))
    if rho >= 1.0:
        raise NotLocallyStableError(f"spectral radius {rho:.6g} >= 1")
    K = np.kron(A.T, A.T) - np.eye(n * n)
    vecP = np.linalg.solve(K, -Q.reshape(n * n))
    P = vecP.reshape(n, n)
    P = 0.5 * (P + P.T)
    residual = float(np.max(np.abs(A.T @ P @ A - P + Q)))
    if residual > _RESIDUAL_TOL:
        raise NotLocallyStableError(f"Lyapunov solve residual {residual:.3g}")
    return P


def common_lyapunov(mats: Sequence[np.ndarray], Q: Optional[np.ndarray] = None) -> np.ndarray:
    """Common quadratic Lyapunov matrix for several stable linear pieces.

    Solves the summed Kronecker system sum_i (A_i'PA_i - P) = -N*Q and
    verifies A_i'PA_i - P < 0 for every piece; when the check fails a
    user-supplied matrix is required instead.
    """
    mats = [np.asarray(A, dtype=float) for A in mats]
    n = mats[0].shape[0]
    if Q is None:
        Q = np.eye(n)
    for A in mats:
        rho = float(np.max(np.abs(np.linalg.eigvals(A))))
        if rho >= 1.0:
            raise NotLocallyStableError(f"spectral radius {rho:.6g} >= 1")
    K = sum(np.kron(A.T, A.T) for A in mats) - len(mats) * np.eye(n * n)
    vecP = np.linalg.solve(K, -len(mats) * np.asarray(Q, float).reshape(n * n))
    P = vecP.reshape(n, n)
    P = 0.5 * (P + P.T)
    if np.min(np.linalg.eigvalsh(P)) <= 0.0:
        raise NotLocallyStableError("summed Lyapunov system produced an indefinite P")
    for A in mats:
        if np.max(np.linalg.eigvalsh(A.T @ P @ A - P)) >= 0.0:
            raise NotLocallyStableError(
                "no common decrease across the linearized pieces; supply P_L manually"
            )
    return P


def max_level_in_box(P: np.ndarray, N1: HyperRect) -> float:
    """Largest c with {x'Px <= c} inside the box (box must contain 0).

    The ellipsoid extent along axis i is sqrt(c * (P^-1)_ii); asymmetric
    boxes use the smaller of the two sides.
    """
    P = np.asarray(P, dtype=float)
    Pinv_diag = np.diag(np.linalg.inv(P))
    r = np.minimum(N1.upper, -N1.lower)
    if np.any(r <= 0.0):
        raise ValueError("neighborhood must contain the origin in its interior")
    return float(np.min(r * r / Pinv_diag))


def local_search_config(N1: HyperRect, delta_min: float, rho_local: float):
    """The VerifyConfig of verify_local's one-step decrease search on N1."""
    from .verifier import VerifyConfig

    return VerifyConfig(S=N1, delta_min=delta_min, M=1, M_max=1, rho_c=rho_local)


def verify_local(
    dsys: PiecewiseSystem,
    P_L: np.ndarray,
    N1: HyperRect,
    delta_min: float,
    rho_local: float = 0.999,
) -> LocalCertificate:
    """Check that the quadratic works for the nonlinear map on N1.

    Runs the sampling engine for the one-step decrease of x'P_Lx on N1.
    Whatever hole remains must map into the invariant level set itself
    (enclosures of the one-step images keep V_L below the level), so the
    level set is invariant: certified points contract, hole points stay.
    """
    from .verifier import DecreaseContext, build_certified_region

    level = max_level_in_box(P_L, N1)
    mats = linearize(dsys)
    V_local = CandidateV(np.asarray(P_L, dtype=float), rho_local)
    cfg = local_search_config(N1, delta_min, rho_local)
    ctx = DecreaseContext(dsys, V_local, 1, cfg.domain, cfg.branch_cap)
    cert = build_certified_region(cfg, ctx)

    P = np.asarray(P_L, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):  # overflow gives inf, as for floats
        escapes = _hole_escapes(dsys, [rec.box() for rec in cert.ledger.wrong], P, level)
    return LocalCertificate(
        A_lin=[m.tolist() for m in mats],
        P_L=P,
        N1=N1,
        level_L=level,
        verified=not escapes,
        note="undecided region near the origin escapes the level set" if escapes else None,
    )


def _each_on_failure(batch, items) -> list:
    """batch(items), redone item by item when it raises an error that a
    batch raises as a whole: ValueError (a NaN endpoint) or OverflowError
    (a float power); see batch_or_each."""
    if not items:
        return []
    return batch_or_each(batch, lambda item: batch([item])[0], items, (ValueError, OverflowError))


def _hole_escapes(dsys, boxes, P, level) -> bool:
    """Does a box that meets the level set have a one-step image (under a
    region its guards allow) on which x'Px exceeds the level?

    The answer, or the error raised, is that of a loop over the boxes in
    order and over each box's regions in order, which stops at the first
    escape; the enclosures come from one batch for all boxes and one per
    region.
    """

    def quad(ivals, end):  # one endpoint of x'Px over each entry of ivals
        q = quad_form(P, list(ivals))
        if not isinstance(q, IntervalArray):
            return [float(q)] * ivals.lo.shape[1]
        require_no_nan(q.lo, q.hi)
        return getattr(q, end).tolist()

    def images_escape(region, ks):
        image, errors = _enclose(region.field.components, interval_batch([boxes[k] for k in ks]))
        return [errors.get(j, hi > level) for j, hi in enumerate(quad(image, "hi"))]

    def regions_of(ks):
        return regions_intersecting_boxes(dsys, [boxes[k] for k in ks])

    keys = range(len(boxes))
    lows = _each_on_failure(lambda ks: quad(interval_batch([boxes[k] for k in ks]), "lo"), keys)
    touching = [k for k in keys if isinstance(lows[k], Exception) or lows[k] <= level]
    regions = dict(zip(touching, _each_on_failure(regions_of, touching)))
    escapes = {}
    for r, region in enumerate(dsys.regions):
        ks = [k for k in touching if isinstance(regions[k], tuple) and r in regions[k]]
        outs = _each_on_failure(lambda sel: images_escape(region, sel), ks)
        escapes.update(((k, r), out) for k, out in zip(ks, outs))
    return any(
        _one(lows[k]) <= level and any(_one(escapes[k, r]) for r in _one(regions[k])) for k in keys
    )
