"""Run orchestration: discrete pipeline, continuous validation, exports.

The discrete pipeline searches a decrease horizon, builds a local
Lyapunov certificate near the origin, estimates the largest usable level
set of the composed Lyapunov function, and audits the set inclusions
before claiming stability on the sublevel set.  The continuous entry
point re-certifies an existing candidate against the flow derivative.
"""

from __future__ import annotations

import csv
import json
import os
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .bounds import WContext
from .config import RunConfig
from .errors import ConfigError, LyapcertError, NotLocallyStableError
from .geometry import SampleRecord
from .levelset import LevelEstimate, estimate_level
from .localyap import LocalCertificate, common_lyapunov, linearize, verify_local
from .system import CONTINUOUS, CandidateV, validate_coverage
from .verifier import (
    Certificate,
    WDescription,
    audit_rows,
    check_invariance,
    search_horizon,
    verify_continuous,
)

REPORT_VERSION = "1"

VERDICT_KL = "kl-stable-on-W"
VERDICT_A_ONLY = "certified-A-only"
VERDICT_HALTED = "halted"

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_PARTIAL = 2


@dataclass
class RunReport:
    version: str
    config_digest: str
    M_final: int
    verdict: str
    certificate: Certificate
    local: Optional[LocalCertificate]
    level: Optional[LevelEstimate]
    timings: dict
    counts: dict
    notes: list = field(default_factory=list)
    config: Optional[dict] = None

    @property
    def exit_code(self) -> int:
        return EXIT_OK if self.verdict == VERDICT_KL else EXIT_PARTIAL

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        def rec_dict(rec: SampleRecord, with_flag=False):
            d = {
                "c": rec.spoint.tolist(),
                "delta": rec.delta.tolist(),
                "F": rec.F_value,
                "gamma": rec.gamma,
            }
            if with_flag:
                d["flag"] = rec.flag
            return d

        local = None
        if self.local is not None:
            local = {
                "A_lin": self.local.A_lin,
                "P_L": np.asarray(self.local.P_L).tolist(),
                "level_L": self.local.level_L,
                "N1_lo": self.local.N1.lower.tolist(),
                "N1_hi": self.local.N1.upper.tolist(),
                "verified": self.local.verified,
                "note": self.local.note,
            }
        level = None
        if self.level is not None:
            level = {
                "Lbar1": self.level.Lbar1,
                "Lbar2": self.level.Lbar2,
                "Lbar": self.level.Lbar,
                "n_obstacle": self.level.n_obstacle,
                "n_boundary": self.level.n_boundary,
                "skipped": self.level.skipped,
            }
        return {
            "version": self.version,
            "config_digest": self.config_digest,
            "M_final": self.M_final,
            "verdict": self.verdict,
            "good": [rec_dict(r) for r in self.certificate.good],
            "wrong": [rec_dict(r, with_flag=True) for r in self.certificate.wrong],
            "local": local,
            "level": level,
            "timings": self.timings,
            "counts": self.counts,
            "notes": self.notes,
            "config": self.config,
        }

    def save(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh)

    @staticmethod
    def load_dict(path) -> dict:
        with open(path) as fh:
            return json.load(fh)


def _numbers(value, count) -> bool:
    return isinstance(value, list) and len(value) == count and all(
        isinstance(v, (int, float)) for v in value
    )


def _matrix(value, n) -> bool:
    return n >= 1 and isinstance(value, list) and len(value) == n and all(
        _numbers(row, n) for row in value
    )


def _read_local(local: dict, n: Optional[int]):
    """Check a verified `local` section for what _load_local reads."""
    P_L = local.get("P_L")
    n = n if n is not None else len(P_L) if isinstance(P_L, list) else 0
    A_lin = local.get("A_lin")
    if not (isinstance(A_lin, list) and A_lin and all(_matrix(A, n) for A in A_lin)):
        raise ConfigError("malformed report: local A_lin needs dim x dim number matrices")
    if not _matrix(P_L, n):
        raise ConfigError("malformed report: local P_L is not a dim x dim number matrix")
    try:
        CandidateV.check_P(P_L)
    except ValueError as exc:
        raise ConfigError(f"malformed report: local P_L: {exc}") from exc
    if not (_numbers(local.get("N1_lo"), n) and _numbers(local.get("N1_hi"), n)):
        raise ConfigError("malformed report: local N1_lo, N1_hi need dim numbers")
    if not _numbers([local.get("level_L")], 1):
        raise ConfigError("malformed report: local level_L is not a number")


def read_report(doc, n: Optional[int] = None) -> Optional[int]:
    """Check `doc` as a stored report for what levelset, verify-ct and
    export read: ConfigError("malformed report: ...") unless it is an
    object whose M_final, if any, is a positive integer, whose `local` and
    `level` are null or objects, and whose `good` and `wrong` are lists of
    records with lists `c` of n numbers and `delta` of 2n (n: the given
    dimension, else that of the first record, returned; None if none).
    A verified `local` needs dim x dim number matrices `A_lin` and a
    positive definite `P_L`, bounds `N1_lo`, `N1_hi` and a number
    `level_L`; a `level.Lbar`, if any, must be a number."""
    if not isinstance(doc, dict):
        raise ConfigError("malformed report: not a JSON object")
    M = doc.get("M_final")
    if M is not None and (type(M) is not int or M < 1):
        raise ConfigError(f"malformed report: M_final {M!r} is not a positive integer")
    for key in ("local", "level"):
        if not isinstance(doc.get(key) or {}, dict):
            raise ConfigError(f"malformed report: {key} is not an object")
    for key in ("good", "wrong"):
        if not isinstance(doc.get(key), list):
            raise ConfigError(f"malformed report: {key} is not a list")
        for i, rec in enumerate(doc[key]):
            c, delta = (rec.get(k) if isinstance(rec, dict) else None for k in ("c", "delta"))
            n = len(c) if n is None and isinstance(c, list) else n
            if not (_numbers(c, n) and _numbers(delta, 2 * n)):
                raise ConfigError(f"malformed report: {key}[{i}] needs c, delta of n, 2n numbers")
    local = doc.get("local") or {}
    if local.get("verified"):
        _read_local(local, n)
    Lbar = (doc.get("level") or {}).get("Lbar")
    if Lbar is not None and not _numbers([Lbar], 1):
        raise ConfigError(f"malformed report: level Lbar {Lbar!r} is not a number")
    return n


def _local_certificate(cfg: RunConfig, dsys, notes) -> Optional[LocalCertificate]:
    if cfg.N1 is None:
        notes.append("no local neighborhood configured; origin hole stays open")
        return None
    try:
        if cfg.P_local is not None:
            P_L = np.asarray(cfg.P_local, dtype=float)
        else:
            mats = linearize(dsys)
            P_L = common_lyapunov(mats)
        cert = verify_local(dsys, P_L, cfg.N1, cfg.local_delta_min, cfg.rho_local)
        if not cert.verified:
            notes.append(f"local candidate not verified: {cert.note}")
        return cert
    except NotLocallyStableError as exc:
        notes.append(f"no local certificate: {exc}")
        return None


def _assemble_verdict(cert, wctx, local, level, notes, delta_min, rows) -> str:
    if cert.verdict == "halted":
        return VERDICT_HALTED
    if local is None or not local.verified:
        return VERDICT_A_ONLY
    if level is None or not level.usable:
        notes.append("level estimate unusable; stability claim restricted to A")
        return VERDICT_A_ONLY
    ok, gaps = check_invariance(cert.ledger, wctx, level.Lbar, local, delta_min, rows)
    if not ok:
        notes.append(
            f"{len(gaps)} undecided boxes may intersect the sublevel set"
        )
        return VERDICT_A_ONLY
    return VERDICT_KL


def _finish(cfg: RunConfig, cert, wctx, local, timings: dict, notes: list, t0: float) -> RunReport:
    """The level estimate (unless the search halted), the audit, and the report."""
    level = rows = None
    if cert.verdict != "halted":
        t = time.perf_counter()
        if local is not None and local.verified:
            # the boxes an audit would bound join the level's W-bound pass
            rows = audit_rows(cert.ledger, local)
        level = estimate_level(
            wctx,
            cert.ledger,
            cfg.S,
            cfg.boundary_spacing,
            cfg.delta_min,
            local,
            prefetch=rows or (),
        )
        timings["level"] = time.perf_counter() - t

    t = time.perf_counter()
    verdict = _assemble_verdict(cert, wctx, local, level, notes, cfg.delta_min, rows)
    timings["audit"] = time.perf_counter() - t
    timings["total"] = time.perf_counter() - t0

    return RunReport(
        version=REPORT_VERSION,
        config_digest=cfg.digest(),
        M_final=cert.M_final,
        verdict=verdict,
        certificate=cert,
        local=local,
        level=level,
        timings=timings,
        counts={
            "explored": cert.explored,
            "good": len(cert.good),
            "wrong": len(cert.wrong),
        },
        notes=notes,
        config=cfg.to_dict(),
    )


def run_verify_dt(cfg: RunConfig) -> RunReport:
    """Full discrete-time pipeline (continuous inputs are Euler-discretized)."""
    timings = {}
    notes = []
    t0 = time.perf_counter()

    dsys = cfg.discrete_system()
    t = time.perf_counter()
    validate_coverage(dsys, cfg.S)
    timings["coverage"] = time.perf_counter() - t
    vcfg = cfg.verify_config()
    V = cfg.candidate()

    t = time.perf_counter()
    cert = search_horizon(vcfg, dsys, V)
    timings["construct_A"] = time.perf_counter() - t

    local = None
    wctx = None
    if cert.verdict != "halted":
        t = time.perf_counter()
        local = _local_certificate(cfg, dsys, notes)
        timings["local"] = time.perf_counter() - t
        wctx = WContext(dsys, V, cert.M_final, None, vcfg.branch_cap)
    else:
        notes.append("horizon search halted; select another candidate function")
    return _finish(cfg, cert, wctx, local, timings, notes, t0)


def run_verify_ct(cfg: RunConfig, prior: dict) -> RunReport:
    """Validate the Lyapunov function of a prior discrete run for the flow."""
    timings = {}
    notes = []
    t0 = time.perf_counter()

    if cfg.mode != CONTINUOUS:
        raise ConfigError("continuous validation needs a continuous-mode config")
    read_report(prior, cfg.dim)
    if prior.get("config_digest") != cfg.digest():
        raise ConfigError("prior report was produced by a different configuration")
    if prior.get("verdict") == VERDICT_HALTED:
        raise ConfigError("prior report halted; nothing to validate")

    ct_sys = cfg.continuous_system()
    dsys = cfg.discrete_system()
    t = time.perf_counter()
    validate_coverage(ct_sys, cfg.S)
    timings["coverage"] = time.perf_counter() - t
    M = _prior_horizon(prior)
    W = WDescription(cfg.P, cfg.rho_c, M)
    vcfg = cfg.verify_config()

    t = time.perf_counter()
    cert = verify_continuous(vcfg, ct_sys, dsys, W)
    timings["construct_Ac"] = time.perf_counter() - t
    if cert.verdict == "halted":
        notes.append("flow derivative not negative enough; select another candidate W")

    local = _load_local(prior)
    if local is not None:
        local.note = (local.note or "") + " (validated via the discretized map)"
        notes.append("local set verified for the Euler-discretized dynamics")

    wctx = WContext(dsys, cfg.candidate(), M, None, vcfg.branch_cap)
    return _finish(cfg, cert, wctx, local, timings, notes, t0)


def _load_local(prior: dict) -> Optional[LocalCertificate]:
    from .geometry import HyperRect

    spec = prior.get("local")
    if not spec or not spec.get("verified"):
        return None
    return LocalCertificate(
        A_lin=spec["A_lin"],
        P_L=np.asarray(spec["P_L"], dtype=float),
        N1=HyperRect.from_bounds(spec["N1_lo"], spec["N1_hi"]),
        level_L=float(spec["level_L"]),
        verified=True,
        note=spec.get("note"),
    )


def _prior_horizon(prior: dict) -> int:
    if prior.get("M_final") is None:
        raise ConfigError("malformed report: no M_final")
    return prior["M_final"]


def recompute_level(cfg: RunConfig, prior: dict, spacing: Optional[float] = None) -> LevelEstimate:
    """Re-run the level estimation over a stored ledger."""
    read_report(prior, cfg.dim)
    if prior.get("config_digest") != cfg.digest():
        raise ConfigError("report was produced by a different configuration")
    if spacing is not None and not (spacing > 0.0):
        raise ConfigError("spacing must be positive")
    dsys = cfg.discrete_system()
    M = _prior_horizon(prior)
    ledger = _ledger_from_report(prior)
    vcfg = cfg.verify_config()
    wctx = WContext(dsys, cfg.candidate(), M, None, vcfg.branch_cap)
    local = _load_local(prior)
    return estimate_level(
        wctx,
        ledger,
        cfg.S,
        spacing if spacing is not None else cfg.boundary_spacing,
        cfg.delta_min,
        local,
    )


def _ledger_from_report(prior: dict):
    from .geometry import SampleLedger, tau_of

    ledger = SampleLedger()
    for key in ("good", "wrong"):
        for d in prior[key]:
            c, delta = np.asarray(d["c"], float), np.asarray(d["delta"], float)
            rec = SampleRecord(c, delta, tau_of(delta), d.get("F"), d.get("gamma"), d.get("flag"))
            getattr(ledger, key).append(rec)
    return ledger


# -- exports --------------------------------------------------------------------


def export_plot_data(report: dict, out_dir, fmt: str = "csv", grid: int = 120):
    """Write box, level-contour, and trajectory data for external plotting."""
    n = read_report(report) or 0
    os.makedirs(out_dir, exist_ok=True)
    cfg = RunConfig.from_dict(report["config"]) if report.get("config") else None
    paths = []

    rows = []
    for status, key in (("good", "good"), ("wrong", "wrong")):
        for d in report.get(key, []):
            rows.append(
                list(d["c"])
                + list(d["delta"])
                + [d.get("F"), d.get("gamma"), d.get("flag") if key == "wrong" else None, status]
            )
    header = (
        [f"c{i+1}" for i in range(n)]
        + [f"d{i+1}" for i in range(2 * n)]
        + ["F_value", "gamma", "flag", "status"]
    )
    paths.append(_write_table(out_dir, "boxes", header, rows, fmt))

    if cfg is not None and report.get("level") and report["level"].get("Lbar") is not None:
        lbar = report["level"]["Lbar"]
        dsys = cfg.discrete_system()
        wctx = WContext(dsys, cfg.candidate(), _prior_horizon(report))
        lo, hi = cfg.S.lower, cfg.S.upper
        xs = np.linspace(lo[0], hi[0], grid)
        ys = np.linspace(lo[1], hi[1], grid) if cfg.dim > 1 else [0.0]
        grid_xy = [(x, y) for x in xs for y in ys]
        pts = np.zeros((len(grid_xy), cfg.dim))
        pts[:, 0] = [x for x, _ in grid_xy]
        if cfg.dim > 1:
            pts[:, 1] = [y for _, y in grid_xy]
        rows = []
        for (x, y), w in zip(grid_xy, wctx.values(pts)):
            if isinstance(w, LyapcertError):
                continue  # no W value at this point
            if isinstance(w, Exception):
                raise w
            rows.append([x, y, w, int(w <= lbar)])
        paths.append(
            _write_table(out_dir, "levelset", ["x1", "x2", "W", "inside"], rows, fmt)
        )

    if cfg is not None and cfg.trajectory_seeds:
        from .system import resolve_region, step

        dsys = cfg.discrete_system()
        rows = []
        for sid, seed in enumerate(cfg.trajectory_seeds):
            state = np.asarray(seed, float)
            for k in range(60):
                rows.append([sid, k] + state.tolist())
                try:
                    state = step(dsys, state, resolve_region(dsys, state))
                except LyapcertError:
                    break
        header = ["seed", "step"] + [f"x{i+1}" for i in range(cfg.dim)]
        paths.append(_write_table(out_dir, "trajectories", header, rows, fmt))

    return paths


def _write_table(out_dir, name, header, rows, fmt):
    if fmt == "csv":
        path = os.path.join(out_dir, f"{name}.csv")
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)
    elif fmt == "json":
        path = os.path.join(out_dir, f"{name}.json")
        with open(path, "w") as fh:
            json.dump([dict(zip(header, row)) for row in rows], fh)
    else:
        raise ConfigError(f"unknown export format {fmt!r}")
    return path
