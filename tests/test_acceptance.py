"""Acceptance criteria, one test per criterion.

Each test prints a PASS/FAIL line (visible with -s or -rA).  The heavy
end-to-end runs execute once per session and are shared.  Criterion 4's
level-set band is a known-unattainable target for sound bounds at the
stated resolution; see the decisions ledger.  It is marked xfail(strict)
so the defect stays visible without masking real regressions.
"""

import json
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from lyapcert import CandidateV, HyperRect
from lyapcert.bounds import DecreaseMap, assess_branch
from lyapcert.config import RunConfig
from lyapcert.expr import (
    eval_batch,
    eval_grad,
    eval_hess_interval,
    eval_interval,
    eval_real,
    parse_expr,
)
from lyapcert.localyap import max_level_in_box, solve_discrete_lyapunov
from lyapcert.pipeline import recompute_level, run_verify_ct, run_verify_dt
from lyapcert.system import (
    PiecewiseSystem,
    Region,
    branch_jump,
    decrease_value,
)
from lyapcert.expr import VectorField
from lyapcert.verifier import DecreaseContext, VerifyConfig, build_certified_region

from conftest import CONFIG_DIR, one_box
from oracles import decrease_batch, fd_gradient, sample_box

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
from checks import stage_fingerprint  # noqa: E402  (one definition of the ledger hash)

FINGERPRINTS = Path(__file__).resolve().parent / "fingerprints.json"

PAPER_SAMPLES_2D = 2012


def _report(name, ok, detail=""):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} {detail}")


# -- shared end-to-end runs ---------------------------------------------------


@pytest.fixture(scope="session")
def run_2d_by_workers():
    out = {}
    for workers in (1, 4, 16):
        cfg = RunConfig.from_file(CONFIG_DIR / "example_2d.json")
        cfg.workers = workers
        t0 = time.perf_counter()
        out[workers] = (run_verify_dt(cfg), time.perf_counter() - t0)
    return out


@pytest.fixture(scope="session")
def run_piecewise():
    cfg = RunConfig.from_file(CONFIG_DIR / "example_piecewise.json")
    t0 = time.perf_counter()
    rep = run_verify_dt(cfg)
    return rep, time.perf_counter() - t0


@pytest.fixture(scope="session")
def run_piecewise_2_workers():
    cfg = RunConfig.from_file(CONFIG_DIR / "example_piecewise.json")
    cfg.workers = 2
    return run_verify_dt(cfg)


@pytest.fixture(scope="session")
def run_powertrain():
    cfg = RunConfig.from_file(CONFIG_DIR / "example_powertrain.json")
    t0 = time.perf_counter()
    rep = run_verify_dt(cfg)
    return rep, time.perf_counter() - t0


@pytest.fixture(scope="session")
def run_3d():
    cfg = RunConfig.from_file(CONFIG_DIR / "example_3d.json")
    t0 = time.perf_counter()
    rep_dt = run_verify_dt(cfg)
    rep_ct = run_verify_ct(cfg, rep_dt.to_dict())
    return rep_dt, rep_ct, time.perf_counter() - t0


# -- criterion 1: branch values and jump of the motivating example -------------


def test_criterion1_branch_goldens(switched_sys):
    t0 = time.perf_counter()
    V = CandidateV(np.eye(2), 0.999)
    f1 = decrease_value(switched_sys, V, 3, [1, 0], [0, None, None]) + V.rho_c
    f2 = decrease_value(switched_sys, V, 3, [1, 0], [1, None, None]) + V.rho_c
    eps = branch_jump(switched_sys, V, 3, [1, 0])
    elapsed = time.perf_counter() - t0
    ok = (
        abs(f1 - 0.5091) <= 5e-4
        and abs(f2 - 0.0439) <= 5e-4
        and abs(eps - 0.4652) <= 5e-4
        and elapsed < 1.0
    )
    _report("criterion 1", ok, f"F1={f1:.6f} F2={f2:.6f} eps={eps:.6f} ({elapsed:.2f}s)")
    assert abs(f1 - 0.5091) <= 5e-4
    assert abs(f2 - 0.0439) <= 5e-4
    assert abs(eps - 0.4652) <= 5e-4
    assert elapsed < 1.0


# -- criterion 2: local Lyapunov goldens ---------------------------------------


def test_criterion2_local_goldens():
    t0 = time.perf_counter()
    P2 = solve_discrete_lyapunov(np.diag([0.5, -0.5]))
    A3 = np.array([[0.9, -0.1, 0.0], [0.1, 0.9, 0.0], [0.0, 0.0, 0.0]])
    P3 = solve_discrete_lyapunov(A3)
    lv2 = max_level_in_box(P2, HyperRect([0, 0], [0.1, -0.1, 0.1, -0.1]))
    lvp = max_level_in_box(
        np.diag([26668.0, 55558.0]), HyperRect([0, 0], [0.35, -0.35, 0.35, -0.35])
    )
    lv3 = max_level_in_box(
        P3, HyperRect([0, 0, 0], [0.6, -0.6, 0.6, -0.6, 0.9, -0.9])
    )
    elapsed = time.perf_counter() - t0
    checks = [
        np.allclose(P2, np.eye(2) * 4 / 3, rtol=1e-3),
        np.allclose(np.diag(P3), [5.5556, 5.5556, 1.0], rtol=1e-3),
        abs(lv2 - 0.0133) <= 5e-5,  # 0.013333.. at the quoted print precision
        abs(lvp - 3266.8) <= 3266.8 * 1e-3,
        abs(lv3 - 0.81) <= 0.81 * 1e-3,
    ]
    _report("criterion 2", all(checks) and elapsed < 1.0,
            f"levels=({lv2:.5f}, {lvp:.1f}, {lv3:.4f}) ({elapsed:.2f}s)")
    assert all(checks)
    assert elapsed < 1.0


# -- criterion 3: 2D end-to-end -------------------------------------------------


@pytest.mark.slow
def test_criterion3_2d_end_to_end(run_2d_by_workers):
    rep, elapsed = run_2d_by_workers[1]
    lv = rep.level
    failed_tests = rep.counts["explored"] - rep.counts["good"]
    checks = {
        "M_final=4": rep.M_final == 4,
        "nonempty A": rep.counts["good"] > 0,
        "Lbar in band": 9.2933 * 0.85 <= lv.Lbar <= 9.2933 * 1.15,
        "Lbar2 in band": 11.4642 * 0.85 <= lv.Lbar2 <= 11.4642 * 1.15,
        "samples within 2x": PAPER_SAMPLES_2D / 2 <= failed_tests <= PAPER_SAMPLES_2D * 2,
        "runtime < 5 min": elapsed < 300.0,
    }
    _report(
        "criterion 3",
        all(checks.values()),
        f"M={rep.M_final} Lbar={lv.Lbar:.4f} Lbar2={lv.Lbar2:.4f} "
        f"failed_tests={failed_tests} ({elapsed:.0f}s) {checks}",
    )
    for name, ok in checks.items():
        assert ok, name


# -- criterion 4: piecewise end-to-end -------------------------------------------


def test_criterion4_piecewise(run_piecewise):
    rep, elapsed = run_piecewise
    lv = rep.level
    checks = {
        "M_final=3": rep.M_final == 3,
        "underestimation": lv.Lbar <= 2.805 + 1e-6,
        "runtime < 5 min": elapsed < 300.0,
    }
    _report("criterion 4 (attainable clauses)", all(checks.values()),
            f"M={rep.M_final} Lbar={lv.Lbar:.4f} ({elapsed:.0f}s)")
    for name, ok in checks.items():
        assert ok, name


@pytest.mark.xfail(
    strict=True,
    reason="sound two-sided branch bounds leave the guard segment x2=0, "
    "x1 >~ 1.17 undecided (it contains genuine decrease failures), capping "
    "the honest level bound below the quoted band; see the decisions ledger",
)
def test_criterion4_level_band(run_piecewise):
    rep, _ = run_piecewise
    lv = rep.level
    _report("criterion 4 (level band)", 2.3208 * 0.85 <= lv.Lbar <= 2.3208 * 1.15,
            f"Lbar={lv.Lbar:.4f} target band [{2.3208*0.85:.4f}, {2.3208*1.15:.4f}]")
    assert 2.3208 * 0.85 <= lv.Lbar <= 2.3208 * 1.15


# -- criterion 5: 3D end-to-end ---------------------------------------------------


@pytest.mark.slow
def test_criterion5_3d(run_3d):
    rep_dt, rep_ct, elapsed = run_3d
    lv_dt, lv_ct = rep_dt.level, rep_ct.level
    checks = {
        "M_final=2": rep_dt.M_final == 2,
        "dt Lbar in band": 1.8459 * 0.85 <= lv_dt.Lbar <= 1.8459 * 1.15,
        "ct Lbar1 direction": lv_ct.Lbar1 >= lv_dt.Lbar1 - 1e-9,
        "ct Lbar1 in band": 2.0253 * 0.85 <= lv_ct.Lbar1 <= 2.0253 * 1.15,
        "final Lbar unchanged": abs(lv_ct.Lbar - lv_dt.Lbar) <= 0.15 * lv_dt.Lbar,
        "runtime < 15 min": elapsed < 900.0,
    }
    _report(
        "criterion 5",
        all(checks.values()),
        f"dt Lbar={lv_dt.Lbar:.4f} ct Lbar1={lv_ct.Lbar1:.4f} ct Lbar={lv_ct.Lbar:.4f} "
        f"({elapsed:.0f}s) {checks}",
    )
    for name, ok in checks.items():
        assert ok, name


# -- criterion 6: powertrain (30 minute budget) -------------------------------------


def test_criterion6_powertrain(run_powertrain):
    rep, elapsed = run_powertrain
    cfg = RunConfig.from_file(CONFIG_DIR / "example_powertrain.json")
    assert elapsed < 1800.0
    # undecided boxes are reported explicitly, never rescued
    assert rep.counts["wrong"] > 0
    assert all("c" in d for d in rep.to_dict()["wrong"])
    # every certified box passes the sign oracle
    dsys = cfg.discrete_system()
    rng = np.random.default_rng(2024)
    for rec in rep.certificate.good:
        pts = sample_box(rec.box(), 1000, rng)
        F = decrease_batch(dsys, cfg.P, cfg.rho_c, rep.M_final, pts)
        assert np.all(F < 0)
    lv = rep.level
    ok = lv.Lbar <= 0.0209 * 1.15
    _report("criterion 6", ok, f"Lbar={lv.Lbar:.6g} wrong={rep.counts['wrong']} ({elapsed:.0f}s)")
    assert ok


# -- criterion 7: certified-region soundness ----------------------------------------


def _random_polynomial_system(rng, dim):
    A = rng.normal(size=(dim, dim))
    A *= rng.uniform(0.3, 0.6) / max(np.max(np.abs(np.linalg.eigvals(A))), 1e-9)
    comps = []
    for i in range(dim):
        terms = [
            f"{A[i, j]:+.6f}*x{j+1}" for j in range(dim) if abs(A[i, j]) > 1e-12
        ]
        for _ in range(rng.integers(1, 3)):
            c = rng.uniform(-0.15, 0.15)
            js = rng.integers(1, dim + 1, size=int(rng.integers(2, 4)))
            terms.append(f"{c:+.6f}*" + "*".join(f"x{j}" for j in js))
        comps.append(parse_expr(" ".join(terms), dim))
    sys_ = PiecewiseSystem(dim, "discrete", (Region((), VectorField(dim, tuple(comps))),))
    P = solve_discrete_lyapunov(A)
    return sys_, P


def _soundness_of_certified(sys_, P, rho, M, cert, rng, n_pts=1000):
    violations = 0
    for rec in cert.good:
        pts = sample_box(rec.box(), n_pts, rng)
        F = decrease_batch(sys_, P, rho, M, pts)
        violations += int(np.sum(F >= 0))
    return violations


@pytest.mark.slow
def test_criterion7_soundness(run_2d_by_workers, run_piecewise, run_3d):
    rng = np.random.default_rng(99)
    total_violations = 0
    total_certified = 0

    # bundled runs (ledgers already computed)
    bundles = []
    rep2d, _ = run_2d_by_workers[1]
    cfg2d = RunConfig.from_dict(rep2d.config)
    bundles.append((cfg2d.discrete_system(), cfg2d.P, cfg2d.rho_c, rep2d))
    reppw, _ = run_piecewise
    cfgpw = RunConfig.from_dict(reppw.config)
    bundles.append((cfgpw.discrete_system(), cfgpw.P, cfgpw.rho_c, reppw))
    rep3d, _, _ = run_3d
    cfg3d = RunConfig.from_dict(rep3d.config)
    bundles.append((cfg3d.discrete_system(), cfg3d.P, cfg3d.rho_c, rep3d))
    # powertrain at a coarse resolution to keep the suite fast
    cfgpt = RunConfig.from_file(CONFIG_DIR / "example_powertrain.json")
    cfgpt.delta_min = 0.025
    cfgpt.workers = 1
    reppt = run_verify_dt(cfgpt)
    bundles.append((cfgpt.discrete_system(), cfgpt.P, cfgpt.rho_c, reppt))

    for dsys, P, rho, rep in bundles:
        v = _soundness_of_certified(dsys, P, rho, rep.M_final, rep.certificate, rng)
        total_violations += v
        total_certified += len(rep.certificate.good)

    # randomized polynomial systems
    for k in range(20):
        dim = 1 + k % 3
        sys_, P = _random_polynomial_system(rng, dim)
        V = CandidateV(P, 0.95)
        half = 0.5
        S = HyperRect(np.zeros(dim), np.column_stack([[half] * dim, [-half] * dim]).ravel())
        cfg = VerifyConfig(S=S, delta_min=half / 8, M=1, M_max=1, rho_c=0.95)
        cert = build_certified_region(cfg, DecreaseContext(sys_, V, 1, cfg.domain, 64))
        total_violations += _soundness_of_certified(sys_, P, 0.95, 1, cert, rng)
        total_certified += len(cert.good)

    ok = total_violations == 0 and total_certified > 500
    _report("criterion 7", ok, f"certified={total_certified} violations={total_violations}")
    assert total_violations == 0
    assert total_certified > 500


# -- criterion 8: bound soundness ------------------------------------------------------


@pytest.mark.slow
def test_criterion8_bound_soundness():
    rng = np.random.default_rng(123)
    n_cases = 200
    for case in range(n_cases):
        dim = 1 + case % 3
        sys_, P = _random_polynomial_system(rng, dim)
        V = CandidateV(P, rng.uniform(0.5, 0.999))
        M = int(rng.integers(1, 4))
        c = rng.uniform(-0.4, 0.4, dim)
        h = rng.uniform(0.01, 0.2, dim)
        box = HyperRect(c, np.column_stack([h, -h]).ravel())
        fmap = DecreaseMap(sys_, V, M, (0,) * M)
        bb = assess_branch(fmap, box)
        val, grad = fmap.value_and_grad(box.center)
        pts = sample_box(box, 10000, rng)
        F = decrease_batch(sys_, V.P, V.rho_c, M, pts)
        dist = np.max(np.abs(pts - box.center), axis=1)
        assert np.all(np.abs(F - bb.value) <= bb.split.a * dist + bb.split.b + 1e-12), case
        lin = val + (pts - box.center) @ grad
        assert np.all(np.abs(F - lin) <= bb.split.b + 1e-12), case
    _report("criterion 8", True, f"{n_cases} cases x 10^4 points")


# -- criterion 9: interval and derivative suites -----------------------------------------


def test_criterion9_interval_and_ad():
    rng = np.random.default_rng(321)
    # inclusion property at 10^4 points per case
    for _ in range(20):
        dim = int(rng.integers(1, 4))
        e = _random_expr(rng, dim)
        lo = rng.uniform(-1.2, 0.2, dim)
        hi = lo + rng.uniform(0.2, 1.0, dim)
        enclosure = eval_interval(e, one_box(lo, hi))
        pts = rng.uniform(lo, hi, size=(10000, dim))
        vals = eval_batch(e, pts)
        assert np.all(vals >= enclosure.lo) and np.all(vals <= enclosure.hi)
    # gradient versus finite differences
    for _ in range(100):
        dim = int(rng.integers(1, 4))
        e = _random_expr(rng, dim)
        x = rng.uniform(-1.0, 1.0, dim)
        _, g = eval_grad(e, x)
        g_fd = fd_gradient(lambda p: eval_real(e, p), x)
        assert np.max(np.abs(g - g_fd)) <= 1e-6 * max(1.0, np.max(np.abs(g)))
    # Hessian enclosure contains pointwise numeric Hessians
    from oracles import fd_hessian

    for _ in range(20):
        dim = int(rng.integers(1, 4))
        e = _random_expr(rng, dim)
        lo = rng.uniform(-1.0, 0.0, dim)
        hi = lo + rng.uniform(0.1, 0.6, dim)
        _, _, hess = eval_hess_interval(e, one_box(lo, hi))
        for _ in range(3):
            x = rng.uniform(lo, hi)
            H = fd_hessian(lambda p: eval_real(e, p), x)
            for i in range(dim):
                for j in range(dim):
                    slack = 1e-4 * max(1.0, abs(H[i, j]))
                    assert hess.lo[0, i, j] - slack <= H[i, j] <= hess.hi[0, i, j] + slack
    _report("criterion 9", True, "inclusion, gradient, Hessian suites")


def _random_expr(rng, dim):
    terms = []
    for _ in range(int(rng.integers(2, 5))):
        c = rng.uniform(-2, 2)
        powers = rng.integers(0, 3, dim)
        term = f"{c:.6f}"
        for i, p in enumerate(powers):
            if p:
                term += f"*x{i+1}^{p}"
        terms.append(term)
    return parse_expr(" + ".join(terms), dim)


# -- criterion 10: determinism across worker counts ----------------------------------------


def test_criterion10_determinism(run_2d_by_workers, run_piecewise, run_piecewise_2_workers):
    def signature(rep):
        cert = rep.certificate
        return (
            [(*r.spoint, *r.delta, r.F_value, r.gamma) for r in cert.good],
            [(*r.spoint, *r.delta, r.F_value, r.gamma, r.flag) for r in cert.wrong],
            rep.level.Lbar,
            rep.level.Lbar1,
            rep.level.Lbar2,
        )

    sig1 = signature(run_2d_by_workers[1][0])
    sig4 = signature(run_2d_by_workers[4][0])
    sig16 = signature(run_2d_by_workers[16][0])
    # multi-branch groups and pool chunks of the piecewise example
    pw1 = signature(run_piecewise[0])
    pw2 = signature(run_piecewise_2_workers)
    ok = sig1 == sig4 == sig16 and pw1 == pw2
    _report(
        "criterion 10",
        ok,
        f"ledgers identical across workers 1/4/16 (2D) and 1/2 (piecewise): {ok}",
    )
    assert sig1 == sig4
    assert sig1 == sig16
    assert pw1 == pw2


# -- emitted-set containment: {W <= Lbar} really sits inside A union L -----------


def test_sublevel_containment_2d(run_2d_by_workers):
    rep, _ = run_2d_by_workers[1]
    cfg = RunConfig.from_dict(rep.config)
    dsys = cfg.discrete_system()
    lbar = rep.level.Lbar
    local = rep.local
    rng = np.random.default_rng(55)
    from oracles import w_batch

    pts = rng.uniform(cfg.S.lower, cfg.S.upper, size=(60_000, 2))
    W = w_batch(dsys, cfg.P, rep.M_final, pts)
    inside = pts[W <= lbar]
    assert inside.shape[0] >= 10_000
    inside = inside[:10_000]

    good_c = np.array([r.spoint for r in rep.certificate.good])
    good_t = np.array([r.tau for r in rep.certificate.good])
    P_L = np.asarray(local.P_L)
    uncovered = 0
    for x in inside:
        if x @ P_L @ x <= local.level_L:
            continue
        if np.any(np.all(np.abs(good_c - x) <= good_t + 1e-12, axis=1)):
            continue
        uncovered += 1
    _report("sublevel containment (2D)", uncovered == 0, f"uncovered={uncovered}/10000")
    assert uncovered == 0


# -- fingerprints: the bundled configs' results stay as recorded -----------------


def fingerprint(rep) -> dict:
    """stage_fingerprint with the level's sample counts."""
    return {
        **stage_fingerprint(rep),
        "n_obstacle": rep.level.n_obstacle,
        "n_boundary": rep.level.n_boundary,
    }


def test_fingerprints(run_2d_by_workers, run_piecewise, run_powertrain, run_3d):
    """Ledgers (sha256 of every box with F, gamma and flag), counts, M_final,
    levels and verdicts of the bundled configs equal tests/fingerprints.json.
    A change that moves a result re-records the file and says why."""
    reports = {
        "example_2d/dt": run_2d_by_workers[1][0],
        "example_piecewise/dt": run_piecewise[0],
        "example_powertrain/dt": run_powertrain[0],
        "example_3d/dt": run_3d[0],
        "example_3d/ct": run_3d[1],
    }
    record = json.loads(FINGERPRINTS.read_text())
    assert sorted(record) == sorted(reports)
    moved = [
        f"{name}: {field} is {got.get(field)!r}, recorded {want!r}"
        for name, rep in reports.items()
        for got in [fingerprint(rep)]
        for field, want in record[name].items()
        if got.get(field) != want
    ]
    moved += [
        f"{name}: {field} is not recorded"
        for name, rep in reports.items()
        for field in fingerprint(rep).keys() - record[name].keys()
    ]
    assert not moved, "\n".join(moved)


def test_levelset_recomputes_the_stored_level(run_2d_by_workers, run_piecewise):
    """`levelset` (pipeline.recompute_level) on a stored report gives the
    report's own level, though the full run also bounded the audit's boxes
    in its level pass and the levelset path does not."""
    for report in (run_2d_by_workers[1][0], run_piecewise[0]):
        doc = json.loads(json.dumps(report.to_dict()))
        cfg = RunConfig.from_dict(doc["config"])
        est = recompute_level(cfg, doc)
        got = [est.Lbar1, est.Lbar2, est.Lbar, est.n_obstacle, est.n_boundary]
        want = [doc["level"][k] for k in ("Lbar1", "Lbar2", "Lbar", "n_obstacle", "n_boundary")]
        assert got == want
