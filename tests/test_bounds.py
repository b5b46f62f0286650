import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lyapcert import CandidateV, HyperRect
from lyapcert.ad import dual2_seeds, hessian_of
from lyapcert.bounds import (
    _BranchMap,
    assess_boxes,
    BoundCoefficients,
    DecreaseMap,
    DerivativeAlongFlowMap,
    WContext,
    assess_branch,
    certificate_slack,
    gradient_coefficient,
    gradient_coefficients,
    remainder_bound,
    remainder_bounds,
    w_point_value,
)
from lyapcert.expr import eval_hess_interval, parse_expr
from lyapcert.geometry import BoxArray
from lyapcert.system import euler_discretize

from conftest import one_box, value_and_grad
from oracles import decrease_batch, fd_gradient, sample_box


def test_gradient_coefficient_quadratic(switched_sys):
    # F(x) = x'x - 0 has gradient (2, 2) at (1, 1); dual norm of inf is 1-norm
    assert gradient_coefficient(np.array([2.0, 2.0])) == 4.0
    assert gradient_coefficient(np.array([3.0, -1.0, 0.5])) == 4.5


def test_gradient_coefficient_against_fd(switched_sys):
    V = CandidateV(np.eye(2), 0.999)
    fmap = DecreaseMap(switched_sys, V, 3, (0, 1, 0))
    x = np.array([1.0, 0.0])
    val, grad = value_and_grad(fmap, x)
    assert val == pytest.approx(0.5091 - 0.999, abs=5e-4)
    g_fd = fd_gradient(lambda p: fmap.value(p), x)
    assert np.max(np.abs(grad - g_fd)) <= 1e-6 * max(1.0, np.max(np.abs(grad)))


def test_remainder_bound_constant_hessian():
    e = parse_expr("x1^2 + x2^2", 2)
    _, _, hess = eval_hess_interval(e, one_box([0, 0], [1, 1]))
    b = remainder_bound(hess.magnitude()[0], np.array([0.5, 0.5]))
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
    _, _, hess = eval_hess_interval(e, one_box([-1, -1], [1, 1]))
    assert remainder_bound(hess.magnitude()[0], np.array([1.0, 1.0])) == 0.0


def test_remainder_bound_covers_cubic_residual():
    # residual of the first-order expansion of x^3 on [0, 1] around 0.5
    e = parse_expr("x1^3", 1)
    _, _, hess = eval_hess_interval(e, one_box([0], [1]))
    b = remainder_bound(hess.magnitude()[0], np.array([0.5]))
    xs, dfdx = 0.5, 3 * 0.25
    rng = np.random.default_rng(0)
    pts = rng.uniform(0, 1, 10000)
    residual = np.abs(pts**3 - xs**3 - dfdx * (pts - xs))
    assert b >= residual.max()


def test_certificate_slack_arithmetic():
    coeffs = [BoundCoefficients(4.0, 0.5)]
    assert certificate_slack(coeffs, 0.0, 0.5) == pytest.approx(2.5)
    assert certificate_slack(coeffs, 0.4652, 0.5) == pytest.approx(2.9652)
    both = coeffs + [BoundCoefficients(1.0, 0.9)]
    assert certificate_slack(both, 0.0, 0.5) == pytest.approx(4.0 * 0.5 + 0.9)
    with pytest.raises(ValueError):
        certificate_slack([], 0.0, 0.5)


def test_slack_monotone():
    rng = np.random.default_rng(4)
    for _ in range(100):
        a, b, eps, xi = rng.uniform(0, 3, 4)
        base = certificate_slack([BoundCoefficients(a, b)], eps, xi)
        for da, db, de, dxi in np.eye(4) * 0.1:
            bumped = certificate_slack(
                [BoundCoefficients(a + da, b + db)], eps + de, xi + dxi
            )
            assert bumped >= base - 1e-12


class _LinearMap(_BranchMap):
    """F(x) = 3 x1 - x2: gradient (3, -1) and a zero Hessian everywhere."""

    def _eval(self, values):
        return 3.0 * values[0] - values[1]

    def interval_hessian(self, ivec):
        return hessian_of(self._eval(dual2_seeds(list(ivec))), ivec)


def test_combined_coefficient_cases(unit_box2):
    # with a zero Hessian the coefficients are the gradient's 1-norm and no
    # remainder; the retired "combined" method and "l2" pairing change nothing
    bb = assess_boxes(_LinearMap(), [unit_box2])[0]
    assert (bb.split.a, bb.split.b) == (4.0, 0.0)
    assert assess_branch(_LinearMap(), unit_box2, "combined", "l2") == bb
    const = BoundCoefficients(0.0, 0.0)
    assert const.a == 0.0


def _bound_soundness_case(sys, V, M, branch, box, rng, n_pts=2000):
    fmap = DecreaseMap(sys, V, M, branch)
    bb = assess_branch(fmap, box)
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
        val, grad = value_and_grad(fmap, box.center)
        bb = assess_branch(fmap, box)
        pts = sample_box(box, 2000, rng)
        F_pts = decrease_batch(poly2d_sys, V.P, V.rho_c, 2, pts)
        lin = val + (pts - box.center) @ grad
        assert np.all(np.abs(F_pts - lin) <= bb.split.b + 1e-12)


def test_remainder_shrinks_under_refinement(poly2d_sys):
    from lyapcert.geometry import refine2

    V = CandidateV(np.eye(2), 0.9)
    fmap = DecreaseMap(poly2d_sys, V, 2, (0, 0))
    parent = HyperRect([0.3, -0.2], [0.2, -0.2, 0.2, -0.2])
    b_parent = assess_branch(fmap, parent).split.b
    for child in refine2(parent):
        b_child = assess_branch(fmap, child).split.b
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
    val, grad = value_and_grad(fmap, [0.7])
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
                assert hess.lo[0, i, j] - slack <= H[i, j] <= hess.hi[0, i, j] + slack


def test_w_bound_refuses_unbounded_refinement():
    # reaching 0.05 from a half-width of 1e109 takes about 2^361 pieces;
    # the count is known before any is made, so the box is skipped at once
    import time

    from lyapcert.bounds import _MAX_PIECES, _refinement
    from lyapcert.expr import VectorField
    from lyapcert.system import PiecewiseSystem, Region

    sys1 = PiecewiseSystem(1, "discrete", (Region((), VectorField(1, (parse_expr("0.5*x1^3", 1),))),))
    wctx = WContext(sys1, CandidateV(np.eye(1), 0.9), 2)
    huge = HyperRect([1e110], [1e109, -1e109])
    t0 = time.perf_counter()
    assert wctx.lower_bounds([huge], subdivide_to=0.05) == [None]
    assert time.perf_counter() - t0 < 1.0
    # within the budget the count is exact: 2^(axes * levels), here with
    # two of three axes split
    box = HyperRect([0.0, 0.0, 0.0], [0.8, -0.8, 0.8, -0.8, 0.0, 0.0])
    plans = [_refinement(box.max_abs_delta, 2, s) for s in (None, 0.8, 0.4, 0.1)]
    assert plans == [(0, 1), (0, 1), (1, 4), (3, 64)]
    pieces, owner = wctx._pieces(BoxArray.of([box]), [0.1])
    assert len(pieces) == 64 and not owner.any()
    assert _refinement(box.max_abs_delta, 2, 0.8 / 2**7)[1] > _MAX_PIECES  # 4^7 pieces
    # a box inside the budget is bounded as before; one beyond it is not
    good = HyperRect([0.5], [0.1, -0.1])
    fine = wctx.lower_bounds([good], subdivide_to=0.1 / 2**10)[0]
    assert fine is not None and fine <= wctx.value([0.5])
    assert wctx.lower_bounds([good, huge], subdivide_to=0.1 / 2**10) == [fine, None]
    assert wctx.lower_bounds([good], subdivide_to=0.1 / 2**13) == [None]


def _layout(x: np.ndarray, kind: str) -> np.ndarray:
    """x with the same entries in another memory layout: C order, Fortran
    order, every other entry of a larger array, or a transposed copy seen
    through its transpose."""
    if kind == "fortran":
        return np.asfortranarray(x)
    if kind == "strided":
        big = np.zeros(tuple(2 * d for d in x.shape))
        view = big[tuple(slice(None, None, 2) for _ in x.shape)]
        view[...] = x
        return view
    if kind == "transposed":
        return np.ascontiguousarray(x.T).T
    return x


@settings(max_examples=120, deadline=None)
@given(
    n=st.integers(1, 6),
    count=st.integers(1, 9),
    seed=st.integers(0, 2**32 - 1),
    layouts=st.tuples(*[st.sampled_from(["c", "fortran", "strided", "transposed"])] * 3),
)
def test_array_coefficients_equal_per_row(n, count, seed, layouts):
    """The array reductions of assess_boxes give, row by row, the bits of
    the one-box formulas they replaced, and of gradient_coefficient and
    remainder_bound, whatever the memory layout of their operands."""
    rng = np.random.default_rng(seed)

    def magnitudes(*shape):
        return rng.uniform(0.0, 1.0, shape) * 10.0 ** rng.integers(-12, 12, shape)

    grads = _layout(magnitudes(count, n) * rng.choice([-1.0, 1.0], (count, n)), layouts[0])
    hess = magnitudes(count, n, n)
    hess = _layout(hess + hess.transpose(0, 2, 1), layouts[1])
    tau = _layout(magnitudes(count, n), layouts[2])
    a, b = gradient_coefficients(grads), remainder_bounds(hess, tau)
    for k in range(count):
        H, t = np.ascontiguousarray(hess[k]), np.ascontiguousarray(tau[k])
        one_box = (float(np.sum(np.abs(grads[k]))), float(0.5 * t @ H @ t))
        rows = (gradient_coefficient(grads[k]), remainder_bound(hess[k], tau[k]))
        for got, want, row in zip((a[k], b[k]), one_box, rows):
            assert got.tobytes() == np.float64(want).tobytes() == np.float64(row).tobytes()
