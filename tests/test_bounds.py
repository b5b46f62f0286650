import numpy as np
import pytest

from lyapcert import CandidateV, HyperRect
from lyapcert.bounds import (
    BoundCoefficients,
    DecreaseMap,
    DerivativeAlongFlowMap,
    WContext,
    assess_branch,
    box_radius,
    certificate_slack,
    combined_coefficient,
    gradient_coefficient,
    remainder_bound,
    w_point_value,
)
from lyapcert.expr import eval_hess_interval, parse_expr
from lyapcert.system import euler_discretize

from oracles import decrease_batch, fd_gradient, sample_box


def test_gradient_coefficient_quadratic(switched_sys):
    # F(x) = x'x - 0 has gradient (2, 2) at (1, 1); dual norm of inf is 1-norm
    assert gradient_coefficient(np.array([2.0, 2.0])) == 4.0
    assert gradient_coefficient(np.array([3.0, -1.0, 0.5])) == 4.5
    assert gradient_coefficient(np.array([2.0, 2.0]), "l2") == pytest.approx(np.hypot(2, 2))


def test_gradient_coefficient_against_fd(switched_sys):
    V = CandidateV(np.eye(2), 0.999)
    fmap = DecreaseMap(switched_sys, V, 3, (0, 1, 0))
    x = np.array([1.0, 0.0])
    val, grad = fmap.value_and_grad(x)
    assert val == pytest.approx(0.5091 - 0.999, abs=5e-4)
    g_fd = fd_gradient(lambda p: fmap.value(p), x)
    assert np.max(np.abs(grad - g_fd)) <= 1e-6 * max(1.0, np.max(np.abs(grad)))


def test_remainder_bound_constant_hessian():
    e = parse_expr("x1^2 + x2^2", 2)
    from lyapcert.interval import Interval, IntervalVector

    box = IntervalVector([Interval(0, 1), Interval(0, 1)])
    _, _, hess = eval_hess_interval(e, box)
    b = remainder_bound(hess, np.array([0.5, 0.5]))
    assert b == pytest.approx(0.5, rel=1e-10)


def test_remainder_bound_ignores_memory_layout():
    # numpy sums tau @ H @ tau in an order that follows H's memory layout;
    # for these magnitudes a Fortran-ordered H moved the bound by one ulp
    H = np.array(
        [[0.013458754237823046, 0.007813114007004275], [0.0026445563032930354, 0.003139228145364278]]
    )
    tau = np.array([1.4580206835369587, 1.9602583164499647])
    view = np.ascontiguousarray(H.T).T
    assert view.flags.f_contiguous and not view.flags.c_contiguous
    assert np.array_equal(view, H)
    assert remainder_bound(view, tau) == remainder_bound(H.copy(), tau)


def test_remainder_bound_linear_is_zero():
    e = parse_expr("3*x1 - x2", 2)
    from lyapcert.interval import Interval, IntervalVector

    _, _, hess = eval_hess_interval(e, IntervalVector([Interval(-1, 1), Interval(-1, 1)]))
    assert remainder_bound(hess, np.array([1.0, 1.0])) == 0.0


def test_remainder_bound_covers_cubic_residual():
    # residual of the first-order expansion of x^3 on [0, 1] around 0.5
    e = parse_expr("x1^3", 1)
    from lyapcert.interval import Interval, IntervalVector

    _, _, hess = eval_hess_interval(e, IntervalVector([Interval(0, 1)]))
    b = remainder_bound(hess, np.array([0.5]))
    xs, dfdx = 0.5, 3 * 0.25
    rng = np.random.default_rng(0)
    pts = rng.uniform(0, 1, 10000)
    residual = np.abs(pts**3 - xs**3 - dfdx * (pts - xs))
    assert b >= residual.max()


def test_certificate_slack_arithmetic():
    coeffs = [BoundCoefficients(4.0, 0.5, "split")]
    assert certificate_slack(coeffs, 0.0, 0.5) == pytest.approx(2.5)
    assert certificate_slack(coeffs, 0.4652, 0.5) == pytest.approx(2.9652)
    both = coeffs + [BoundCoefficients(1.0, 0.9, "split")]
    assert certificate_slack(both, 0.0, 0.5) == pytest.approx(4.0 * 0.5 + 0.9)
    with pytest.raises(ValueError):
        certificate_slack([], 0.0, 0.5)


def test_slack_monotone():
    rng = np.random.default_rng(4)
    for _ in range(100):
        a, b, eps, xi = rng.uniform(0, 3, 4)
        base = certificate_slack([BoundCoefficients(a, b, "split")], eps, xi)
        for da, db, de, dxi in np.eye(4) * 0.1:
            bumped = certificate_slack(
                [BoundCoefficients(a + da, b + db, "split")], eps + de, xi + dxi
            )
            assert bumped >= base - 1e-12


def test_combined_coefficient_cases(unit_box2):
    from lyapcert.interval import Interval, IntervalMatrix

    zero = IntervalMatrix([[Interval(0, 0)] * 2] * 2)
    assert combined_coefficient(np.array([3.0, -1.0]), zero, unit_box2) == pytest.approx(4.0)
    const = BoundCoefficients(0.0, 0.0, "split")
    assert const.a == 0.0


def test_combined_never_beats_split_by_muchon_quadratics(poly2d_sys):
    # on random boxes the combined slack must be comparable: each is sound,
    # so both must dominate the true variation; flag when neither wins
    V = CandidateV(np.diag([10.0, 1.0]), 0.999)
    rng = np.random.default_rng(8)
    wins = {"split": 0, "combined": 0, "tie": 0}
    for _ in range(100):
        c = rng.uniform(-0.5, 0.5, 2)
        h = rng.uniform(0.02, 0.15, 2)
        box = HyperRect(c, [h[0], -h[0], h[1], -h[1]])
        bb = assess_branch(DecreaseMap(poly2d_sys, V, 2, (0, 0)), box, "best")
        xi = box_radius(box)
        g_split = bb.split.a * xi + bb.split.b
        g_comb = bb.combined.a * xi
        if abs(g_split - g_comb) <= 1e-9:
            wins["tie"] += 1
        elif g_split < g_comb:
            wins["split"] += 1
        else:
            wins["combined"] += 1
    assert wins["split"] + wins["combined"] + wins["tie"] == 100


def _bound_soundness_case(sys, V, M, branch, box, rng, n_pts=2000):
    fmap = DecreaseMap(sys, V, M, branch)
    bb = assess_branch(fmap, box, "split")
    xs = box.center
    xi = box.max_abs_delta
    pts = sample_box(box, n_pts, rng)
    F_pts = decrease_batch(sys, V.P, V.rho_c, M, pts)
    # oracle follows literal dynamics; restrict to points whose literal
    # branch matches the assessed branch
    F_xs = bb.value
    dist = np.max(np.abs(pts - xs), axis=1)
    lhs = np.abs(F_pts - F_xs)
    rhs = bb.split.a * dist + bb.split.b + 1e-12
    return lhs, rhs, F_pts, pts


def test_bound_soundness_smooth_system(poly2d_sys):
    V = CandidateV(np.diag([10.0, 1.0]), 0.999)
    rng = np.random.default_rng(21)
    for _ in range(25):
        c = rng.uniform(-0.6, 0.6, 2)
        h = rng.uniform(0.01, 0.2, 2)
        box = HyperRect(c, [h[0], -h[0], h[1], -h[1]])
        lhs, rhs, _, _ = _bound_soundness_case(poly2d_sys, V, 3, (0, 0, 0), box, rng)
        assert np.all(lhs <= rhs)


def test_remainder_form_soundness(poly2d_sys):
    # |F(x) - F(xs) - grad.(x - xs)| <= b
    V = CandidateV(np.eye(2), 0.9)
    rng = np.random.default_rng(22)
    for _ in range(25):
        c = rng.uniform(-0.5, 0.5, 2)
        h = rng.uniform(0.01, 0.15, 2)
        box = HyperRect(c, [h[0], -h[0], h[1], -h[1]])
        fmap = DecreaseMap(poly2d_sys, V, 2, (0, 0))
        val, grad = fmap.value_and_grad(box.center)
        bb = assess_branch(fmap, box, "split")
        pts = sample_box(box, 2000, rng)
        F_pts = decrease_batch(poly2d_sys, V.P, V.rho_c, 2, pts)
        lin = val + (pts - box.center) @ grad
        assert np.all(np.abs(F_pts - lin) <= bb.split.b + 1e-12)


def test_remainder_shrinks_under_refinement(poly2d_sys):
    from lyapcert.geometry import refine2

    V = CandidateV(np.eye(2), 0.9)
    fmap = DecreaseMap(poly2d_sys, V, 2, (0, 0))
    parent = HyperRect([0.3, -0.2], [0.2, -0.2, 0.2, -0.2])
    b_parent = assess_branch(fmap, parent, "split").split.b
    for child in refine2(parent):
        b_child = assess_branch(fmap, child, "split").split.b
        assert b_child <= b_parent + 1e-12


def test_w_point_value_matches_oracle(switched_sys):
    V = CandidateV(np.eye(2), 0.999)
    rng = np.random.default_rng(23)
    from oracles import w_batch

    pts = rng.uniform(-1.2, 1.2, size=(200, 2))
    expected = w_batch(switched_sys, np.eye(2), 3, pts)
    for x, w in zip(pts, expected):
        assert w_point_value(switched_sys, V, 3, x) == pytest.approx(w, rel=1e-12)


def test_w_lower_bound_over_box(switched_sys):
    V = CandidateV(np.eye(2), 0.999)
    wctx = WContext(switched_sys, V, 3)
    rng = np.random.default_rng(24)
    from oracles import w_batch

    for _ in range(20):
        c = rng.uniform(-1.0, 1.0, 2)
        h = rng.uniform(0.02, 0.15, 2)
        box = HyperRect(c, [h[0], -h[0], h[1], -h[1]])
        lb = wctx.lower_bound_over_box(box)
        assert lb is not None
        vals = w_batch(switched_sys, np.eye(2), 3, sample_box(box, 3000, rng))
        assert lb <= vals.min() + 1e-12


def test_flow_derivative_map_hand_case():
    # W = x^2 along xdot = -x gives dW/dt = -2x^2
    from lyapcert.expr import VectorField
    from lyapcert.system import PiecewiseSystem, Region

    f_ct = VectorField(1, (parse_expr("-x1", 1),))
    ct = PiecewiseSystem(1, "continuous", (Region((), f_ct),))
    dt = euler_discretize(ct, 0.1)
    V = CandidateV(np.eye(1), 0.999)
    fmap = DerivativeAlongFlowMap(ct, dt, V, 1, 0, ())
    assert fmap.value([1.0]) == pytest.approx(-2.0)
    assert fmap.value([0.0]) == 0.0
    val, grad = fmap.value_and_grad([0.7])
    assert val == pytest.approx(-2 * 0.49)
    assert grad[0] == pytest.approx(-4 * 0.7)


def test_flow_derivative_against_trajectory(ct3d_sys):
    # dW/dt along a short numeric trajectory of the flow
    dt = euler_discretize(ct3d_sys, 0.1)
    P = np.diag([1.2345679, 1.2345679, 1.04123282])
    V = CandidateV(P, 0.999)
    fmap = DerivativeAlongFlowMap(ct3d_sys, dt, V, 2, 0, (0,))
    x0 = np.array([0.3, -0.2, 0.25])
    h = 1e-5
    from lyapcert.expr import eval_real

    def flow_step(x, dtau):
        g = np.array([eval_real(c, x) for c in ct3d_sys.regions[0].field.components])
        return x + dtau * g

    w0 = w_point_value(dt, V, 2, x0)
    w1 = w_point_value(dt, V, 2, flow_step(x0, h))
    dw_numeric = (w1 - w0) / h
    assert fmap.value(x0) == pytest.approx(dw_numeric, rel=1e-3)


def test_flow_derivative_hessian_encloses_fd():
    from lyapcert.expr import VectorField
    from lyapcert.system import PiecewiseSystem, Region
    from lyapcert.interval import IntervalVector
    from oracles import fd_hessian

    f_ct = VectorField(2, (parse_expr("-x1 + x2^2", 2), parse_expr("-2*x2", 2)))
    ct = PiecewiseSystem(2, "continuous", (Region((), f_ct),))
    dt = euler_discretize(ct, 0.1)
    V = CandidateV(np.eye(2), 0.999)
    fmap = DerivativeAlongFlowMap(ct, dt, V, 2, 0, (0,))
    box = HyperRect([0.4, -0.3], [0.1, -0.1, 0.1, -0.1])
    hess = fmap.interval_hessian(box.to_interval_vector())
    rng = np.random.default_rng(31)
    for _ in range(5):
        x = rng.uniform(box.lower, box.upper)
        H = fd_hessian(lambda p: fmap.value(p), x)
        for i in range(2):
            for j in range(2):
                slack = 1e-4 * max(1.0, abs(H[i, j]))
                assert hess[i, j].lo - slack <= H[i, j] <= hess[i, j].hi + slack
