import numpy as np
import pytest

from lyapcert import CandidateV, HyperRect
from lyapcert.bounds import WContext
from lyapcert.geometry import SampleLedger, SampleRecord, tau_of
from lyapcert.verifier import (
    DecreaseContext,
    VerifyConfig,
    build_certified_region,
    check_invariance,
    search_horizon,
    verify_box,
    verify_continuous,
    WDescription,
)

from oracles import decrease_batch, sample_box


def _ctx(sys, P, rho, M, domain=None, cap=64):
    return DecreaseContext(sys, CandidateV(np.asarray(P, float), rho), M, domain, cap)


def test_verify_box_hand_case(contract1d_sys):
    # F(x) = -0.65 x^2 on x+ = 0.5x with V = x^2, rho = 0.9
    ctx = _ctx(contract1d_sys, np.eye(1), 0.9, 1)
    out = verify_box(ctx, HyperRect([1.0], [0.1, -0.1]))
    assert out.certified
    assert out.F_value == pytest.approx(-0.65)
    assert out.gamma < 0.65
    # far enough from the origin the margin disappears
    out0 = verify_box(ctx, HyperRect([0.05], [0.1, -0.1]))
    assert not out0.certified


def test_verify_box_respects_slack_sign(contract1d_sys):
    # slack exceeding |F| must reject even with F < 0
    ctx = _ctx(contract1d_sys, np.eye(1), 0.9, 1)
    out = verify_box(ctx, HyperRect([0.3], [0.5, -0.5]))
    assert not out.certified
    assert out.F_value < 0 < out.gamma


def test_construct_region_1d_hole(contract1d_sys):
    cfg = VerifyConfig(
        S=HyperRect([0.0], [1.0, -1.0]), delta_min=0.01, M=1, M_max=1, rho_c=0.9
    )
    cert = build_certified_region(cfg, _ctx(contract1d_sys, np.eye(1), 0.9, 1, cfg.domain))
    assert cert.good and cert.wrong
    # hole around the origin no wider than a few resolution cells
    edges = [abs(r.spoint[0]) + r.box().max_abs_delta for r in cert.wrong]
    assert max(edges) <= 4 * cfg.delta_min
    # everything else is covered
    assert cert.good_volume + sum(r.box().volume for r in cert.wrong) == pytest.approx(
        cert.search_volume, rel=1e-9
    )


def test_degenerate_search_set_goes_wrong(contract1d_sys):
    with pytest.raises(ValueError):
        VerifyConfig(S=HyperRect([0.5], [0.0, 0.0]), delta_min=0.01, M=1, M_max=1, rho_c=0.9)


def test_horizon_search_halts_on_identity():
    # x+ = x never contracts: every horizon fails and the search halts
    from lyapcert.expr import VectorField, parse_expr
    from lyapcert.system import PiecewiseSystem, Region

    ident = PiecewiseSystem(
        1, "discrete", (Region((), VectorField(1, (parse_expr("x1", 1),))),)
    )
    cfg = VerifyConfig(
        S=HyperRect([0.0], [1.0, -1.0]), delta_min=0.05, M=1, M_max=2, rho_c=0.9
    )
    cert = search_horizon(cfg, ident, CandidateV(np.eye(1), 0.9))
    assert cert.verdict == "halted"
    assert not cert.good


def test_certified_boxes_pass_sign_oracle(poly2d_sys):
    V = CandidateV(np.diag([10.0, 1.0]), 0.85)
    cfg = VerifyConfig(
        S=HyperRect([0, 0], [1.0, -1.0, 1.3, -1.3]),
        delta_min=0.08,
        M=4,
        M_max=4,
        rho_c=0.85,
    )
    cert = build_certified_region(cfg, DecreaseContext(poly2d_sys, V, 4, cfg.domain, 64))
    rng = np.random.default_rng(77)
    assert cert.good
    for rec in cert.good:
        pts = sample_box(rec.box(), 200, rng)
        F = decrease_batch(poly2d_sys, V.P, V.rho_c, 4, pts)
        assert np.all(F < 0)


def test_seed_grid(contract1d_sys):
    cfg = VerifyConfig(
        S=HyperRect([0.0], [1.0, -1.0]),
        delta_min=0.02,
        M=1,
        M_max=1,
        rho_c=0.9,
        seed_split=[4],
    )
    cert = build_certified_region(cfg, _ctx(contract1d_sys, np.eye(1), 0.9, 1, cfg.domain))
    assert cert.good_volume + sum(r.box().volume for r in cert.wrong) == pytest.approx(2.0)


@pytest.mark.parametrize("field", ["0.5*x1^3", "x1^2"])  # overflow in the enumeration, the bounds
def test_overflowing_box_fails_alone(field):
    from lyapcert.expr import VectorField, parse_expr
    from lyapcert.system import PiecewiseSystem, Region
    from lyapcert.verifier import verify_boxes

    sys1 = PiecewiseSystem(1, "discrete", (Region((), VectorField(1, (parse_expr(field, 1),))),))
    good, huge = HyperRect([0.5], [0.1, -0.1]), HyperRect([1e110], [1e109, -1e109])
    ctx = _ctx(sys1, np.eye(1), 0.9, 1, HyperRect([0.0], [2.0, -2.0]))
    first, second = verify_boxes(ctx, [good, huge])
    assert first == verify_box(ctx, good) and first.certified
    assert not second.certified and second.flag == "domain-error"
    wctx = WContext(sys1, CandidateV(np.eye(1), 0.9), 2)
    assert wctx.lower_bounds([good, huge]) == [wctx.lower_bound_over_box(good), None]


def test_check_invariance_reports_gaps(switched_sys):
    V = CandidateV(np.eye(2), 0.999)
    wctx = WContext(switched_sys, V, 3)
    ledger = SampleLedger()
    # a fat undecided box right where W is small
    delta = np.array([0.1, -0.1, 0.1, -0.1])
    ledger.wrong.append(
        SampleRecord(np.array([0.4, 0.4]), delta, tau_of(delta), 1.0, 2.0)
    )
    ok, gaps = check_invariance(ledger, wctx, level=5.0, local=None)
    assert not ok and len(gaps) == 1
    # same box is irrelevant for a tiny level set
    ok2, gaps2 = check_invariance(ledger, wctx, level=0.05, local=None)
    assert not ok2  # still false: no local certificate
    assert len(gaps2) == 0


def test_continuous_verifier_hand_case():
    # xdot = -x with W = x^2: dW/dt = -2x^2 < 0 away from 0
    from lyapcert.expr import VectorField, parse_expr
    from lyapcert.system import PiecewiseSystem, Region, euler_discretize

    ct = PiecewiseSystem(
        1, "continuous", (Region((), VectorField(1, (parse_expr("-x1", 1),))),)
    )
    dt = euler_discretize(ct, 0.1)
    cfg = VerifyConfig(
        S=HyperRect([0.0], [1.0, -1.0]), delta_min=0.02, M=1, M_max=1, rho_c=0.999
    )
    cert = verify_continuous(cfg, ct, dt, WDescription(np.eye(1), 0.999, 1))
    assert cert.verdict == "certified-on-A"
    edges = [abs(r.spoint[0]) + r.box().max_abs_delta for r in cert.wrong]
    assert max(edges) <= 4 * cfg.delta_min
    rng = np.random.default_rng(5)
    for rec in cert.good[:50]:
        for x in sample_box(rec.box(), 100, rng):
            assert -2 * x[0] ** 2 < 0


def test_continuous_verifier_halts_on_unstable():
    from lyapcert.expr import VectorField, parse_expr
    from lyapcert.system import PiecewiseSystem, Region, euler_discretize

    ct = PiecewiseSystem(
        1, "continuous", (Region((), VectorField(1, (parse_expr("x1", 1),))),)
    )
    dt = euler_discretize(ct, 0.1)
    cfg = VerifyConfig(
        S=HyperRect([0.0], [1.0, -1.0]), delta_min=0.05, M=1, M_max=1, rho_c=0.999
    )
    cert = verify_continuous(cfg, ct, dt, WDescription(np.eye(1), 0.999, 1))
    assert cert.verdict == "halted"
