import struct

import numpy as np
import pytest

from lyapcert import CandidateV, HyperRect, parse_expr
from lyapcert.bounds import WContext
from lyapcert.geometry import SampleLedger, SampleRecord, tau_of
from lyapcert.system import Guard, PiecewiseSystem, Region
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

from conftest import _field
from oracles import decrease_batch, sample_box
from ref_verifier import ref_build_certified_region


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


@pytest.mark.parametrize("const", ["x1/(1 - 1)", "0*1e200^2"])  # a divisor 0, a power that overflows
def test_plain_number_failure_fails_every_box(const):
    # a constant step that fails raises for the whole batch, alike for
    # every box: each box is a domain-error box, and a guard holding it
    # fails the coverage check with an error line's DomainError
    from lyapcert.errors import DomainError
    from lyapcert.expr import VectorField, parse_expr
    from lyapcert.system import Guard, PiecewiseSystem, Region, validate_coverage
    from lyapcert.verifier import verify_boxes

    field = VectorField(1, (parse_expr(f"0.5*x1 + {const}", 1),))
    sys1 = PiecewiseSystem(1, "discrete", (Region((), field),))
    boxes = [HyperRect([0.5], [0.1, -0.1]), HyperRect([-0.3], [0.2, -0.2])]
    ctx = _ctx(sys1, np.eye(1), 0.9, 1, HyperRect([0.0], [2.0, -2.0]))
    assert [out.flag for out in verify_boxes(ctx, boxes)] == ["domain-error"] * 2
    assert WContext(sys1, CandidateV(np.eye(1), 0.9), 2).lower_bounds(boxes) == [None, None]
    guard = Guard(parse_expr(f"x1 + {const}", 1), "<=")
    guarded = PiecewiseSystem(1, "discrete", (Region((guard,), field),))
    with pytest.raises(DomainError):
        validate_coverage(guarded, HyperRect([0.0], [1.0, -1.0]), 10)


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


# -- the wave loop against the per-box reference --------------------------------


def _bits(x):
    return None if x is None else struct.pack("<d", x)


def _record_bits(rec):
    return (
        rec.spoint.tobytes(),
        rec.delta.tobytes(),
        rec.tau.tobytes(),
        _bits(rec.F_value),
        _bits(rec.gamma),
        rec.flag,
    )


def _wave_cases(name, request):
    """(VerifyConfig, context, flags the ledger must show) of one case."""
    eye, square = np.eye(1), HyperRect([0, 0], [1, -1, 1, -1])
    if name == "cubic1d":
        cfg = VerifyConfig(S=HyperRect([0.0], [1.0, -1.0]), delta_min=0.01, M=1, M_max=1, rho_c=0.9)
        return cfg, _ctx(request.getfixturevalue("cubic1d_sys"), eye, 0.9, 1, cfg.domain), set()
    if name in ("switched2d", "branch-overflow"):
        cap = 1 if name == "branch-overflow" else 64
        cfg = VerifyConfig(S=square, delta_min=0.05, M=3, M_max=3, rho_c=0.999)
        sys_ = request.getfixturevalue("switched_sys")
        ctx = _ctx(sys_, np.diag([1.0, 2.0]), 0.999, 3, cfg.domain, cap)
        return cfg, ctx, {"branch-overflow"} if cap == 1 else set()
    if name == "domain-error":
        x2 = parse_expr("x2", 2)
        sys_ = PiecewiseSystem(2, "discrete", (
            Region((Guard(x2, ">="),), _field(2, "0.5*x1", "-0.8*x2 - x1^2")),
            Region((Guard(x2, "<"),), _field(2, "0.5*x1 + x1*x2", "-0.8*x2 + 0.1*sqrt(x1^2)")),
        ))
        cfg = VerifyConfig(S=square, delta_min=0.1, M=2, M_max=2, rho_c=0.999)
        return cfg, _ctx(sys_, np.diag([1.0, 2.0]), 0.999, 2, cfg.domain), {"domain-error"}
    if name == "left-domain":
        S = HyperRect([0.0], [1.0, -1.0])
        cfg = VerifyConfig(S=S, delta_min=0.01, M=3, M_max=3, rho_c=0.9, domain=S)
        return cfg, _ctx(request.getfixturevalue("cubic1d_sys"), eye, 0.9, 3, S), {"left-domain"}
    if name == "3d":
        f = _field(3, "0.5*x1 + 0.1*x2*x3", "0.6*x2 - 0.2*x1^2", "0.4*x3 + 0.1*x1*x2")
        sys_ = PiecewiseSystem(3, "discrete", (Region((), f),))
        cfg = VerifyConfig(
            S=HyperRect([0, 0, 0], [0.8, -0.8, 0.8, -0.8, 0.8, -0.8]),
            delta_min=0.1, M=1, M_max=1, rho_c=0.9, seed_split=[2, 1, 3],
        )
        return cfg, _ctx(sys_, np.eye(3), 0.9, 1, cfg.domain), set()
    poly = request.getfixturevalue("poly2d_sys")
    V = np.diag([10.0, 1.0])
    if name == "longest":
        S = HyperRect([0.1, 0], [1.0, -0.5, 1.3, -1.3])
        cfg = VerifyConfig(S=S, delta_min=0.05, M=2, M_max=2, rho_c=0.85, split_longest_only=True)
        return cfg, _ctx(poly, V, 0.85, 2, cfg.domain), set()
    assert name == "degenerate"
    S = HyperRect([0.3, 0.0], [0.5, -0.5, 0.0, 0.0])
    cfg = VerifyConfig(S=S, delta_min=0.02, M=2, M_max=2, rho_c=0.85)
    return cfg, _ctx(poly, V, 0.85, 2, cfg.domain), set()


@pytest.mark.parametrize(
    "name",
    [
        "cubic1d",
        "switched2d",
        "3d",
        "longest",
        "degenerate",
        "domain-error",
        "left-domain",
        "branch-overflow",
    ],
)
def test_wave_loop_matches_per_box_reference(name, request):
    """Ledgers (every box with F, gamma and flag), the explored count and
    the good volume of the array wave loop equal those of the per-box
    loop it replaced, bit for bit."""
    cfg, ctx, flags = _wave_cases(name, request)
    cert = build_certified_region(cfg, ctx)
    ref, explored = ref_build_certified_region(cfg, ctx)
    assert cert.explored == explored
    for got, want in ((cert.good, ref.good), (cert.wrong, ref.wrong)):
        assert [_record_bits(r) for r in got] == [_record_bits(r) for r in want]
    assert _bits(cert.good_volume) == _bits(sum(r.box().volume for r in ref.good))
    assert flags <= {r.flag for r in cert.wrong}
    if name == "left-domain":  # some boxes stop refining: their centre's trajectory has left
        stuck = [r for r in cert.wrong if r.box().max_abs_delta > cfg.delta_min]
        assert any(r.flag == "left-domain" for r in stuck)
    if name == "switched2d":  # boxes on x2 = 0 follow several branch sequences
        boxes = [r.box() for r in cert.good + cert.wrong]
        assert any(len(seqs) > 1 for seqs in ctx.boxes_branches(boxes))
