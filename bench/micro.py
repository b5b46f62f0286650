"""Seeded per-layer microbenchmarks on fixed box sets drawn from a workload's S.

The seed fixes the boxes and intervals; the library only sees them as
inputs.  Each figure is the median over a few passes of the time per call.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from lyapcert import (
    DecreaseContext,
    DecreaseMap,
    DerivativeAlongFlowMap,
    HyperRect,
    Interval,
    SumOfIteratesMap,
    VerifyConfig,
    WContext,
    assess_branch,
    boundary_samples,
    enumerate_box_branches,
    eval_interval,
    obstacle_samples,
    verify_box,
)
from lyapcert.errors import LyapcertError
from lyapcert.system import DomainExit

BOXES = 32
INTERVAL_PAIRS = 2048
PASSES = 3
MIN_PASS_S = 0.05


def _per_call(run_pass, n_items):
    """Median seconds per item over PASSES passes of at least MIN_PASS_S each."""
    per = []
    for _ in range(PASSES):
        n = 0
        t0 = time.perf_counter()
        while True:
            run_pass()
            n += n_items
            elapsed = time.perf_counter() - t0
            if elapsed >= MIN_PASS_S:
                break
        per.append(elapsed / n)
    return statistics.median(per)


def box_set(S: HyperRect, half_width: float, count: int, rng):
    """Boxes of the given half-width centred uniformly in S."""
    centers = rng.uniform(S.lower, S.upper, size=(count, S.n))
    delta = np.ravel(np.column_stack([np.full(S.n, half_width), np.full(S.n, -half_width)]))
    return [HyperRect(c, delta.copy()) for c in centers]


def _interval_ops(S, rng):
    lo = rng.uniform(S.lower.min(), S.upper.max(), size=(INTERVAL_PAIRS, 2))
    width = rng.uniform(0.0, 0.1, size=(INTERVAL_PAIRS, 2))
    xs = [Interval(a, a + w) for a, w in zip(lo[:, 0], width[:, 0])]
    ys = [Interval(a, a + w) for a, w in zip(lo[:, 1], width[:, 1])]
    pairs = list(zip(xs, ys))

    def add():
        for a, b in pairs:
            a + b

    def mul():
        for a, b in pairs:
            a * b

    def power():
        for a in xs:
            a.pow_int(3)

    return {
        "interval.add_ns": 1e9 * _per_call(add, len(pairs)),
        "interval.mul_ns": 1e9 * _per_call(mul, len(pairs)),
        "interval.pow_ns": 1e9 * _per_call(power, len(xs)),
    }


def _feasible(dsys, boxes, M, domain):
    """(box, first branch pattern of length M) for boxes whose enumeration succeeds."""
    out = []
    for box in boxes:
        try:
            out.append((box, enumerate_box_branches(dsys, box, M, domain)[0]))
        except (LyapcertError, DomainExit):
            continue
    return out


def _time_calls(calls):
    """Microseconds per call of a list of zero-argument callables (0 when empty)."""
    if not calls:
        return 0.0

    def run_pass():
        for call in calls:
            call()

    return 1e6 * _per_call(run_pass, len(calls))


def run_micro(cfg, seed: int, report) -> dict:
    """All microbenchmarks for one workload; `report` supplies the ledger scans."""
    rng = np.random.default_rng([seed, 7])
    dsys = cfg.discrete_system()
    V = cfg.candidate()
    M = report.M_final
    domain = VerifyConfig(S=cfg.S, delta_min=cfg.delta_min, M=M, M_max=M, rho_c=cfg.rho_c).domain
    boxes = box_set(cfg.S, cfg.delta_min, BOXES, rng)
    ivec = {id(b): b.to_interval_vector() for b in boxes}  # built once, outside the timing

    out = _interval_ops(cfg.S, rng)
    comps = dsys.regions[0].field.components
    out["expr.eval_interval_us"] = _time_calls(
        [lambda e=e, iv=ivec[id(b)]: eval_interval(e, iv) for b in boxes for e in comps]
    )

    dec = [(b, DecreaseMap(dsys, V, M, br)) for b, br in _feasible(dsys, boxes, M, domain)]
    out["micro.hessian_us.decrease"] = _time_calls(
        [lambda f=f, iv=ivec[id(b)]: f.interval_hessian(iv) for b, f in dec]
    )
    out["micro.assess_branch_us"] = _time_calls(
        [lambda f=f, b=b: assess_branch(f, b, cfg.bound_method, cfg.norm_pairing) for b, f in dec]
    )
    # branch patterns between the M iterates of W (length M - 1)
    head = _feasible(dsys, boxes, M - 1, domain)
    out["micro.hessian_us.sum_iter"] = _time_calls(
        [
            lambda f=SumOfIteratesMap(dsys, V, M, br), iv=ivec[id(b)]: f.interval_hessian(iv)
            for b, br in head
        ]
    )
    flow = []
    if cfg.mode == "continuous":
        ct_sys = cfg.continuous_system()
        flow = [
            lambda f=DerivativeAlongFlowMap(ct_sys, dsys, V, M, 0, br), iv=ivec[id(b)]: (
                f.interval_hessian(iv)
            )
            for b, br in head
        ]
    out["micro.hessian_us.flow"] = _time_calls(flow)

    ctx = DecreaseContext(dsys, V, M, domain, 64)
    out["micro.verify_box_us"] = _time_calls(
        [lambda b=b: verify_box(ctx, b, cfg.bound_method, cfg.norm_pairing) for b in boxes]
    )
    wctx = WContext(dsys, V, M, None, 64, cfg.norm_pairing)
    out["micro.wbound_us"] = _time_calls([lambda b=b: wctx.lower_bound_over_box(b) for b in boxes])

    ledger = report.certificate.ledger
    local = report.local
    out["micro.obstacle_scan_ms"] = 1e3 * _per_call(
        lambda: obstacle_samples(ledger, cfg.delta_min, local), 1
    )
    out["micro.boundary_scan_ms"] = 1e3 * _per_call(
        lambda: boundary_samples(cfg.S, cfg.boundary_spacing, ledger), 1
    )
    return out
