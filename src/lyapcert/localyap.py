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

from .errors import NotLocallyStableError
from .expr import eval_grad, eval_real
from .geometry import BoxArray, HyperRect, interval_batch
from .interval import IntervalArray
from .system import (
    CandidateV,
    PiecewiseSystem,
    _enclose,
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
        escapes = _hole_escapes(dsys, BoxArray.of_records(cert.ledger.wrong), P, level)
    return LocalCertificate(
        A_lin=[m.tolist() for m in mats],
        P_L=P,
        N1=N1,
        level_L=level,
        verified=not escapes,
        note="undecided region near the origin escapes the level set" if escapes else None,
    )


def _hole_escapes(dsys, boxes, P, level) -> bool:
    """Does a box (of a BoxArray, or HyperRects) that may meet the level
    set have a one-step image (under a region its guards allow) on which
    x'Px may exceed the level?

    Each step is one batch over the boxes it concerns.  A failure counts
    against the certificate: a box whose enclosure of x'Px holds a NaN may
    meet the level set, and one whose regions or image fail escapes.
    """
    boxes = BoxArray.of(boxes)
    if not len(boxes):
        return False

    def quad(ivals):  # the enclosure of x'Px over each entry of ivals
        q = quad_form(P, list(ivals))
        return q if isinstance(q, IntervalArray) else ivals[0].constant(q)

    touching = np.flatnonzero(~(quad(interval_batch(boxes)).lo > level))
    regions = regions_intersecting_boxes(dsys, boxes.take(touching))
    if any(isinstance(regs, Exception) for regs in regions):
        return True
    for r, region in enumerate(dsys.regions):
        ks = [k for k, regs in zip(touching, regions) if r in regs]
        if ks:
            image, errors = _enclose(region.field.components, interval_batch(boxes.take(ks)))
            if errors or not np.all(quad(image).hi <= level):
                return True
    return False
