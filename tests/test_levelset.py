import json
import math
import struct

import numpy as np
import pytest

from lyapcert import CandidateV, HyperRect, levelset
from lyapcert.bounds import WContext
from lyapcert.geometry import SampleLedger, SampleRecord, tau_of
from lyapcert.levelset import (
    boundary_samples,
    estimate_level,
    level_lower_bound,
    obstacle_samples,
)
from lyapcert.config import RunConfig
from lyapcert.localyap import LocalCertificate
from lyapcert.pipeline import run_verify_dt
from lyapcert.verifier import (
    DecreaseContext,
    VerifyConfig,
    audit_rows,
    build_certified_region,
    check_invariance,
)

from conftest import CONFIG_DIR
from oracles import sample_box, w_batch
from ref_levelset import ref_boundary_samples, ref_lbar1, ref_obstacle_samples


def _record(center, half, F=None, gamma=None, flag=None):
    center = np.asarray(center, dtype=float)
    delta = np.column_stack([half, -np.asarray(half, float)]).ravel()
    return SampleRecord(center, delta, tau_of(delta), F, gamma, flag)


def test_obstacle_selection_adjacency():
    ledger = SampleLedger()
    ledger.good.append(_record([0.0, 0.0], [0.1, 0.1]))
    ledger.wrong.append(_record([0.2, 0.0], [0.1, 0.1]))  # touching
    ledger.wrong.append(_record([0.8, 0.8], [0.1, 0.1]))  # far away
    picked = obstacle_samples(ledger, 0.1)
    assert len(picked) == 1
    assert picked[0].spoint == pytest.approx([0.2, 0.0])


def test_obstacle_selection_matches_bruteforce(poly2d_sys):
    V = CandidateV(np.diag([10.0, 1.0]), 0.85)
    cfg = VerifyConfig(
        S=HyperRect([0, 0], [1.0, -1.0, 1.3, -1.3]),
        delta_min=0.1,
        M=4,
        M_max=4,
        rho_c=0.85,
    )
    cert = build_certified_region(cfg, DecreaseContext(poly2d_sys, V, 4, cfg.domain, 64))
    picked = obstacle_samples(cert.ledger, cfg.delta_min)
    brute = []
    for w in cert.wrong:
        for g in cert.good:
            if np.all(np.abs(w.spoint - g.spoint) <= w.tau + g.tau + 1e-12):
                brute.append(tuple(w.spoint))
                break
    assert sorted(tuple(r.spoint) for r in picked) == sorted(brute)


def test_obstacles_respect_local_exclusion():
    ledger = SampleLedger()
    ledger.good.append(_record([0.1, 0.0], [0.05, 0.05]))
    ledger.wrong.append(_record([0.02, 0.0], [0.05, 0.05]))  # inside the local set
    local = LocalCertificate(
        A_lin=[],
        P_L=np.eye(2),
        N1=HyperRect([0, 0], [0.5, -0.5, 0.5, -0.5]),
        level_L=0.25,
        verified=True,
    )
    assert obstacle_samples(ledger, 0.1, local) == []


def test_boundary_sample_shapes():
    ledger = SampleLedger()
    # good box covering everything so the filter keeps all samples
    ledger.good.append(_record([0.0, 0.0], [1.5, 1.5]))
    S = HyperRect([0, 0], [1.5, -1.5, 1.5, -1.5])
    samples = boundary_samples(S, 0.01, ledger)
    deltas = {tuple(np.round(r.delta, 6)) for r in samples}
    assert (0.0, 0.0, 0.01, -0.01) in deltas  # vertical faces
    assert (0.01, -0.01, 0.0, 0.0) in deltas  # horizontal faces
    for r in samples:
        assert abs(r.spoint[0]) == 1.5 or abs(r.spoint[1]) == 1.5


def test_boundary_samples_1d():
    ledger = SampleLedger()
    ledger.good.append(_record([0.0], [1.0]))
    S = HyperRect([0.0], [1.0, -1.0])
    samples = boundary_samples(S, 0.25, ledger)
    pts = sorted(r.spoint[0] for r in samples)
    assert pts == [-1.0, 1.0]
    for r in samples:
        assert r.box().max_abs_delta == 0.0


def _bits(records):
    """Each record's arrays as bytes, with its other fields, in order."""
    return [
        tuple(np.asarray(a, float).tobytes() for a in (r.spoint, r.delta, r.tau))
        + (r.F_value, r.gamma, r.flag)
        for r in records
    ]


EDGE_S = HyperRect.from_bounds([0.0, 0.0], [1.0, 9.0])


def _edge_ledger():
    """Good boxes at x = 0 and undecided ones whose x gap to them, and
    good boxes whose x gap to the face x = 0 of EDGE_S, is exactly +-1e-12
    or one ulp beyond; rows at different y do not meet.  One more good box
    touches EDGE_S only at its corner (1, 9), and one more undecided box
    has its centre on the boundary of the local set {x'x <= 0.0625}."""
    ledger = SampleLedger()
    cases = [(2.0**-50, 1e-12), (2.0**-50, np.nextafter(1e-12, 1)), (2.0**-40, -1e-12)]
    for row, (t, d) in enumerate(cases):
        y = 3.0 * row
        for side in (1.0, -1.0):
            c = side * (2 * t + d)
            assert abs(0.0 - c) - (t + t) == d
            ledger.wrong.append(_record([c, y], [t, 0.1]))
        assert abs(-(2 * t + d) - 0.0) - (2 * t + 0.0) == d
        ledger.good.append(_record([0.0, y], [t, 0.1]))
        ledger.good.append(_record([-(2 * t + d), y + 0.5], [2 * t, 0.1]))
    ledger.good.append(_record([1.05, 9.05], [0.05, 0.05]))
    ledger.wrong.append(_record([0.0, 0.25], [2.0**-50, 0.15]))  # on x'x = 0.0625
    return ledger


def _dyadic_ledger(n, count, seed):
    """Boxes of two sizes on a dyadic grid in [-1, 1]^n, alternately good
    and undecided; they may touch, overlap or lie apart."""
    rng = np.random.default_rng(seed)
    ledger = SampleLedger()
    for k in range(count):
        h = float(rng.choice([0.25, 0.125]))
        c = -1.0 + h * (2 * rng.integers(0, int(round(1 / h)), n) + 1)
        (ledger.good if k % 2 else ledger.wrong).append(_record(c, [h] * n))
    return ledger


def _selection_cases(cubic1d_sys, poly2d_sys):
    """(S, spacing, ledger, local set) on 1-D, 2-D and 3-D ledgers."""
    S1 = HyperRect([0.0], [1.0, -1.0])
    cfg1 = VerifyConfig(S=S1, delta_min=0.02, M=1, M_max=1, rho_c=0.9)
    V1 = CandidateV(np.eye(1), 0.9)
    cert1 = build_certified_region(cfg1, DecreaseContext(cubic1d_sys, V1, 1, cfg1.domain, 64))
    S2 = HyperRect([0, 0], [1.0, -1.0, 1.3, -1.3])
    cfg2 = VerifyConfig(S=S2, delta_min=0.1, M=4, M_max=4, rho_c=0.85)
    V2 = CandidateV(np.diag([10.0, 1.0]), 0.85)
    cert2 = build_certified_region(cfg2, DecreaseContext(poly2d_sys, V2, 4, cfg2.domain, 64))
    S3 = HyperRect.from_bounds([-1.0] * 3, [1.0] * 3)
    only_wrong = _dyadic_ledger(3, 40, 5)
    only_wrong.good = []

    def local(P, level):
        n = len(P)
        N1 = HyperRect.from_bounds([-0.5] * n, [0.5] * n)
        return LocalCertificate(A_lin=[], P_L=np.diag(P), N1=N1, level_L=level, verified=True)

    return [
        (S1, 0.01, cert1.ledger, local([1.0], 0.09)),
        (S2, 0.05, cert2.ledger, local([10.0, 1.0], 0.2)),
        (EDGE_S, 0.25, _edge_ledger(), local([1.0, 1.0], 0.0625)),
        (S3, 0.2, _dyadic_ledger(3, 120, 4), local([1.0, 2.0, 3.0], 0.3)),
        (S3, 0.5, only_wrong, None),
    ]


@pytest.mark.parametrize("pairs", [None, 1, 10**9])
def test_level_samples_match_per_record_loops(monkeypatch, pairs, cubic1d_sys, poly2d_sys):
    if pairs is not None:  # chunks of one box pair, and one chunk for all
        monkeypatch.setattr(levelset, "_TOUCH_PAIRS", pairs)
    for S, spacing, ledger, local in _selection_cases(cubic1d_sys, poly2d_sys):
        for loc in (None, local):
            got = obstacle_samples(ledger, 0.1, loc)
            assert _bits(got) == _bits(ref_obstacle_samples(ledger, 0.1, loc))
        got = boundary_samples(S, spacing, ledger)
        assert _bits(got) == _bits(ref_boundary_samples(S, spacing, ledger))


def test_touch_edge_is_one_ulp():
    ledger = _edge_ledger()
    picked = {tuple(r.spoint) for r in obstacle_samples(ledger, 0.1)}
    assert {tuple(r.spoint) for r in ledger.wrong} - picked == {
        (side * (2 * 2.0**-50 + np.nextafter(1e-12, 1)), 3.0) for side in (1.0, -1.0)
    }
    face = {r.spoint[1] for r in boundary_samples(EDGE_S, 0.25, ledger) if r.spoint[0] == 0.0}
    assert {0.5, 6.5} <= face and not {3.5, 3.75} & face
    corner = {tuple(r.spoint) for r in boundary_samples(EDGE_S, 0.25, ledger) if r.spoint[1] > 8}
    assert corner == {(1.0, 8.75), (1.0, 9.0), (0.75, 9.0)}


def test_level_lower_bound_arithmetic(switched_sys):
    # degenerate box reproduces the point value exactly for smooth W
    V = CandidateV(np.eye(2), 0.999)
    wctx = WContext(switched_sys, V, 3)
    pt = HyperRect([0.5, 0.3], [0.0, 0.0, 0.0, 0.0])
    lb = level_lower_bound(wctx, pt)
    assert lb == pytest.approx(wctx.value([0.5, 0.3]), rel=1e-9)


def test_level_lower_bound_is_lower(poly2d_sys):
    V = CandidateV(np.diag([10.0, 1.0]), 0.85)
    wctx = WContext(poly2d_sys, V, 4)
    rng = np.random.default_rng(12)
    for _ in range(20):
        c = rng.uniform(-0.7, 0.7, 2)
        h = rng.uniform(0.01, 0.2, 2)
        box = HyperRect(c, [h[0], -h[0], h[1], -h[1]])
        lb = level_lower_bound(wctx, box)
        vals = w_batch(poly2d_sys, V.P, 4, sample_box(box, 3000, rng))
        assert lb <= vals.min() + 1e-12


def test_estimate_level_1d_pipeline(cubic1d_sys):
    # map with extra equilibria near +-0.913: genuine interior obstacles
    V = CandidateV(np.eye(1), 0.9)
    cfg = VerifyConfig(
        S=HyperRect([0.0], [1.0, -1.0]), delta_min=0.02, M=1, M_max=1, rho_c=0.9
    )
    cert = build_certified_region(cfg, DecreaseContext(cubic1d_sys, V, 1, cfg.domain, 64))
    wctx = WContext(cubic1d_sys, V, 1)
    local = LocalCertificate(
        A_lin=[[[0.5]]],
        P_L=np.eye(1),
        N1=HyperRect([0.0], [0.3, -0.3]),
        level_L=0.09,
        verified=True,
    )
    est = estimate_level(wctx, cert.ledger, cfg.S, 0.01, cfg.delta_min, local)
    assert est.n_obstacle > 0
    assert 0 < est.Lbar <= est.Lbar1
    assert est.Lbar <= est.Lbar2
    # W = x^2 here; the sublevel set must avoid the uncertified region
    r = math.sqrt(est.Lbar)
    for rec in cert.wrong:
        box = rec.box()
        inside_local = abs(rec.spoint[0]) <= 0.3
        if not inside_local:
            assert box.lower[0] >= r - 1e-9 or box.upper[0] <= -r + 1e-9


def test_estimate_finer_run_does_not_decrease(cubic1d_sys):
    V = CandidateV(np.eye(1), 0.9)
    bars = []
    for dmin, spacing in ((0.04, 0.02), (0.02, 0.01)):
        cfg = VerifyConfig(
            S=HyperRect([0.0], [1.0, -1.0]), delta_min=dmin, M=1, M_max=1, rho_c=0.9
        )
        cert = build_certified_region(
            cfg, DecreaseContext(cubic1d_sys, V, 1, cfg.domain, 64)
        )
        wctx = WContext(cubic1d_sys, V, 1)
        local = LocalCertificate(
            A_lin=[[[0.5]]],
            P_L=np.eye(1),
            N1=HyperRect([0.0], [0.3, -0.3]),
            level_L=0.09,
            verified=True,
        )
        est = estimate_level(wctx, cert.ledger, cfg.S, spacing, dmin, local)
        bars.append(est.Lbar)
    assert bars[1] >= bars[0] - 1e-12


def test_estimate_rejects_empty_certified():
    ledger = SampleLedger()
    wctx = None
    with pytest.raises(ValueError):
        estimate_level(wctx, ledger, HyperRect([0.0], [1.0, -1.0]), 0.1, 0.1)


def test_empty_obstacles_gives_inf_sentinel(contract1d_sys):
    V = CandidateV(np.eye(1), 0.9)
    cfg = VerifyConfig(
        S=HyperRect([0.0], [1.0, -1.0]), delta_min=0.02, M=1, M_max=1, rho_c=0.9
    )
    cert = build_certified_region(cfg, DecreaseContext(contract1d_sys, V, 1, cfg.domain, 64))
    wctx = WContext(contract1d_sys, V, 1)
    local = LocalCertificate(
        A_lin=[[[0.5]]],
        P_L=np.eye(1),
        N1=HyperRect([0.0], [0.5, -0.5]),
        level_L=0.25,
        verified=True,
    )
    est = estimate_level(wctx, cert.ledger, cfg.S, 0.05, cfg.delta_min, local)
    # the only undecided boxes hide inside the local set
    assert math.isinf(est.Lbar1)
    assert est.Lbar == est.Lbar2 == pytest.approx(1.0, rel=1e-9)


@pytest.fixture(scope="module")
def poly2d_run():
    """example_2d on a smaller S at delta_min 0.04: three obstacles are
    bounded again at delta_min / 4 before the minimum is settled."""
    doc = json.loads((CONFIG_DIR / "example_2d.json").read_text())
    doc["search"].update(
        S={"lo": [-0.7, -0.9], "hi": [0.7, 0.9]},
        delta_min=0.04,
        N1={"lo": [-0.2, -0.2], "hi": [0.2, 0.2]},
        boundary_spacing=0.02,
    )
    cfg = RunConfig.from_dict(doc)
    report = run_verify_dt(cfg)
    return cfg, report


def _fresh_wctx(cfg, report):
    return WContext(cfg.discrete_system(), cfg.candidate(), report.M_final, None, 64)


@pytest.mark.parametrize("candidates", ["batched", "none"])
def test_lbar1_matches_per_box_loop(poly2d_run, candidates, monkeypatch):
    """Lbar1 and the obstacles bounded again equal those of the per-box
    loop, whether the loop reads bounds refined in one batch or, with no
    candidates, refines each box it visits itself."""
    cfg, report = poly2d_run
    ledger, local = report.certificate.ledger, report.local
    obstacles = obstacle_samples(ledger, cfg.delta_min, local)
    ref, visited = ref_lbar1(_fresh_wctx(cfg, report), obstacles, cfg.delta_min)
    assert len(visited) >= 2

    calls = []
    original = levelset.level_lower_bound

    def counted(wctx, box, subdivide_to=None):
        calls.append((box.center.tobytes(), subdivide_to))
        return original(wctx, box, subdivide_to)

    monkeypatch.setattr(levelset, "level_lower_bound", counted)
    if candidates == "none":
        # nothing is refined ahead of the loop, which refines each box itself
        monkeypatch.setattr(levelset, "_lowest_centre", lambda wctx, boxes: None)
        monkeypatch.setattr(levelset, "_candidates", lambda *args: [])
    est = estimate_level(
        _fresh_wctx(cfg, report), ledger, cfg.S, cfg.boundary_spacing, cfg.delta_min, local
    )
    assert struct.pack("<d", est.Lbar1) == struct.pack("<d", ref)
    assert est.Lbar1 == report.level.Lbar1
    # one call per obstacle the loop visits, in the loop's order
    assert calls == [(box.center.tobytes(), cfg.delta_min / 4.0) for box in visited]


def test_level_and_audit_share_two_w_passes(poly2d_run, monkeypatch):
    """The level makes one W-bound pass at delta_min over obstacles,
    boundary samples and the audit's boxes, and one at delta_min / 4 over
    its candidates; the audit that follows reads its bounds."""
    from lyapcert import bounds as bounds_module

    cfg, report = poly2d_run
    ledger, local = report.certificate.ledger, report.local
    passes = []
    original = bounds_module.by_branch

    def counted(ctx, boxes, *args):
        passes.append(len(boxes))
        return original(ctx, boxes, *args)

    monkeypatch.setattr(bounds_module, "by_branch", counted)
    wctx = _fresh_wctx(cfg, report)
    rows = audit_rows(ledger, local)
    est = estimate_level(
        wctx,
        ledger,
        cfg.S,
        cfg.boundary_spacing,
        cfg.delta_min,
        local,
        prefetch=rows,
    )
    assert len(passes) == 2
    ok, gaps = check_invariance(ledger, wctx, est.Lbar, local, cfg.delta_min, rows)
    assert len(passes) == 2 and ok and not gaps
    assert (est.Lbar1, est.Lbar2, est.Lbar) == (
        report.level.Lbar1,
        report.level.Lbar2,
        report.level.Lbar,
    )
