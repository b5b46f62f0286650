"""Output checks and fingerprints for one certification.

The checks use the test suite's oracles (`tests/oracles.py`): a plain
numpy simulation of the piecewise dynamics, not the interval or dual
code under test.  Every check draws its boxes and points from the
generator passed in, so a seed fixes them.
"""

from __future__ import annotations

import hashlib
import math
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
import oracles  # noqa: E402

GOOD_BOXES = 256  # certified boxes sampled per check
POINTS_PER_BOX = 32
LEVEL_POINTS = 4096  # uniform points in S for the sublevel-set check
FD_STEP = 1e-6
BOX_TOL = 1e-12


def _quad(P, X):
    return np.einsum("ij,jk,ik->i", X, P, X)


def flow_derivative_batch(ct_sys, dsys, P, M, X):
    """dW/dt = grad W . f, with grad W by central differences of `oracles.w_batch`."""
    f = oracles.simulate_batch(ct_sys, X, 1)  # one "step" of a flow system is f(x)
    out = np.zeros(X.shape[0])
    for i in range(X.shape[1]):
        e = np.zeros(X.shape[1])
        e[i] = FD_STEP
        dW = (oracles.w_batch(dsys, P, M, X + e) - oracles.w_batch(dsys, P, M, X - e)) / (2 * FD_STEP)
        out += dW * f[:, i]
    return out


def _points_in_good_boxes(cert, rng):
    good = cert.good
    idx = rng.choice(len(good), size=min(GOOD_BOXES, len(good)), replace=False)
    return np.concatenate([oracles.sample_box(good[k].box(), POINTS_PER_BOX, rng) for k in idx])


def _inside_any(X, lower, upper, chunk=512):
    inside = np.zeros(X.shape[0], dtype=bool)
    for s in range(0, X.shape[0], chunk):
        x = X[s : s + chunk, None, :]
        hit = np.all((x >= lower - BOX_TOL) & (x <= upper + BOX_TOL), axis=2)
        inside[s : s + chunk] = hit.any(axis=1)
    return inside


def check_stage(stage, report, cfg, rng, expected_verdict):
    """Failure messages for one report: empty when every check passes.

    stage is "dt" (decrease F = V(G^M x) - rho V(x)) or "ct" (F = dW/dt).
    """
    failures = []
    if report.verdict != expected_verdict:
        failures.append(f"{stage}: verdict {report.verdict!r}, expected {expected_verdict!r}")
    dsys = cfg.discrete_system()
    P = np.asarray(cfg.P, dtype=float)
    M = report.M_final
    cert = report.certificate

    if cert.good:
        X = _points_in_good_boxes(cert, rng)
        if stage == "dt":
            F = oracles.decrease_batch(dsys, P, cfg.rho_c, M, X)
        else:
            F = flow_derivative_batch(cfg.continuous_system(), dsys, P, M, X)
        bad = int(np.sum(F >= 0))
        if bad:
            failures.append(f"{stage}: {bad} sampled points of certified boxes have F >= 0")

    if report.verdict == "kl-stable-on-W":
        Lbar = report.level.Lbar
        X = rng.uniform(cfg.S.lower, cfg.S.upper, size=(LEVEL_POINTS, cfg.S.n))
        X = X[oracles.w_batch(dsys, P, M, X) < Lbar * (1.0 - 1e-9)]
        lower = np.array([r.box().lower for r in cert.good])
        upper = np.array([r.box().upper for r in cert.good])
        ok = _inside_any(X, lower, upper)
        PL = np.asarray(report.local.P_L, dtype=float)
        ok |= _quad(PL, X) <= report.local.level_L
        bad = int(np.sum(~ok))
        if bad:
            failures.append(
                f"{stage}: {bad} sampled points with W < Lbar lie outside good and local boxes"
            )
    return failures


# -- fingerprints ---------------------------------------------------------------


def ledger_sha256(cert) -> str:
    """sha256 of the sorted ledger: every box with its F, gamma and flag."""
    h = hashlib.sha256()
    for kind, recs in (("good", cert.good), ("wrong", cert.wrong)):
        for r in sorted(recs, key=lambda rec: rec.sort_key()):
            row = (kind, r.spoint.tolist(), r.delta.tolist(), r.F_value, r.gamma, r.flag)
            h.update(repr(row).encode())
    return h.hexdigest()


def _json_number(x):
    """Non-finite floats as strings, so that records stay strict JSON."""
    return x if x is None or math.isfinite(x) else repr(x)


def stage_fingerprint(report) -> dict:
    level = report.level
    return {
        "ledger_sha256": ledger_sha256(report.certificate),
        "M_final": report.M_final,
        "explored": report.counts["explored"],
        "good": report.counts["good"],
        "wrong": report.counts["wrong"],
        "Lbar1": None if level is None else _json_number(level.Lbar1),
        "Lbar2": None if level is None else _json_number(level.Lbar2),
        "Lbar": None if level is None else _json_number(level.Lbar),
        "verdict": report.verdict,
    }

