import numpy as np
import pytest

from lyapcert.errors import DomainError, ParseError
from lyapcert.expr import (
    eval_batch,
    eval_grad,
    eval_hess_interval,
    eval_interval,
    eval_real,
    parse_expr,
    pretty,
)
from lyapcert.interval import IntervalArray

from conftest import one_box
from oracles import fd_gradient, fd_hessian


def test_parse_and_eval_basic():
    e = parse_expr("0.5*x1 + x1*x2", 2)
    assert eval_real(e, [1.0, 0.0]) == pytest.approx(0.5)
    assert eval_real(e, [1.0, -1.0]) == pytest.approx(-0.5)


def test_power_symmetry():
    e = parse_expr("x1^2 - x2^2", 2)
    assert eval_real(e, [1.0, 1.0]) == 0.0


def test_unbalanced_paren_position():
    with pytest.raises(ParseError) as err:
        parse_expr("x3*(", 3)
    assert err.value.column == 4


def test_unknown_variable():
    with pytest.raises(ParseError):
        parse_expr("x3 + 1", 2)


def test_exponent_must_be_integer():
    with pytest.raises(ParseError):
        parse_expr("x1^2.5", 1)
    with pytest.raises(ParseError):
        parse_expr("x1^(2)", 1)


def test_scientific_notation_and_whitespace():
    e = parse_expr("  1.5e-1*x1+ 2E2 ", 1)
    assert eval_real(e, [2.0]) == pytest.approx(0.3 + 200.0)


def test_precedence_unary_minus_power():
    e = parse_expr("-x1^2", 1)
    assert eval_real(e, [3.0]) == pytest.approx(-9.0)


def test_eval_domain_errors():
    with pytest.raises(DomainError):
        eval_real(parse_expr("x1/x2", 2), [1.0, 0.0])
    with pytest.raises(DomainError):
        eval_real(parse_expr("sqrt(x1)", 1), [-1.0])


def test_constant_expression():
    e = parse_expr("3.25", 1)
    assert eval_real(e, [99.0]) == 3.25
    v, g = eval_grad(e, [99.0])
    assert v == 3.25 and g[0] == 0.0


def test_second_component_golden():
    # -0.8*x2 - x1^2 at (1, 0) gives the quoted -1
    e = parse_expr("-0.8*x2 - x1^2", 2)
    assert eval_real(e, [1.0, 0.0]) == pytest.approx(-1.0)


def test_roundtrip_pretty():
    samples = [
        "0.5*x1 + x1*x2",
        "-0.8*x2 - x1^2",
        "sqrt(x1*(1 - x1)) + abs(x2)/3",
        "(x1 + x2)^3 - 2/(x2 - 5)",
        "-(x1 - x2)*(x1 + x2)",
    ]
    for text in samples:
        e = parse_expr(text, 2)
        assert parse_expr(pretty(e), 2) == e


def test_eval_interval_simple():
    e = parse_expr("x1^2", 1)
    r = eval_interval(e, one_box([-1], [2]))
    assert r.lo.shape == (1,)
    assert r.lo[0] == pytest.approx(0.0, abs=1e-15)
    assert r.hi[0] == pytest.approx(4.0, rel=1e-12)
    e2 = parse_expr("x1 + x2", 2)
    r2 = eval_interval(e2, one_box([0, 0], [1, 1]))
    assert r2.lo[0] == pytest.approx(0.0, abs=1e-15) and r2.hi[0] == pytest.approx(2.0, rel=1e-12)
    # three boxes at once, and a constant over each of them
    boxes = IntervalArray(np.array([[-1.0, 0.0, 1.0]]), np.array([[2.0, 3.0, 4.0]]))
    r3 = eval_interval(e, boxes)
    assert r3.lo[2] == pytest.approx(1.0, rel=1e-12) and r3.hi[1] == pytest.approx(9.0, rel=1e-12)
    two = eval_interval(parse_expr("2", 1), boxes)
    assert two.lo.tolist() == two.hi.tolist() == [2.0, 2.0, 2.0]


def test_eval_interval_contains_samples():
    # dense sampling of the box confirms containment of the image
    e = parse_expr("-0.8*x2 - x1^2", 2)
    r = eval_interval(e, one_box([0.9, -0.1], [1.1, 0.1]))
    assert r.lo[0] <= -1.0 <= r.hi[0]
    rng = np.random.default_rng(0)
    X = np.column_stack([rng.uniform(0.9, 1.1, 2000), rng.uniform(-0.1, 0.1, 2000)])
    vals = eval_batch(e, X)
    assert np.all(vals >= r.lo) and np.all(vals <= r.hi)


def test_interval_evaluation_overflow_is_silent():
    # overflow gives inf, as it does for floats, with no numpy warning
    # (which the test configuration turns into an error)
    e = parse_expr("x1*x1 - 1", 1)
    box = one_box([9e199], [1.1e200])
    assert eval_interval(e, box).hi[0] == np.inf
    val, grad, hess = eval_hess_interval(e, box)
    assert val.lo[0] == np.inf and grad.hi[0, 0] == pytest.approx(2.2e200)
    assert hess.lo[0, 0, 0] == pytest.approx(2.0)


def test_eval_grad_quadratic():
    e = parse_expr("x1^2 + x2^2", 2)
    v, g = eval_grad(e, [1.0, 2.0])
    assert v == pytest.approx(5.0)
    assert g == pytest.approx([2.0, 4.0])


def _random_polynomial(rng, dim, with_sqrt=False):
    terms = []
    for _ in range(rng.integers(2, 5)):
        c = rng.uniform(-2, 2)
        powers = rng.integers(0, 3, dim)
        term = f"{c:.6f}"
        for i, p in enumerate(powers):
            if p > 0:
                term += f"*x{i+1}^{p}"
        terms.append(term)
    text = " + ".join(terms)
    if with_sqrt:
        text = f"sqrt(({text})^2 + 1.5) + ({text})"
    return parse_expr(text, dim)


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(11)
    for k in range(100):
        dim = int(rng.integers(1, 4))
        e = _random_polynomial(rng, dim, with_sqrt=(k % 3 == 0))
        x = rng.uniform(-1.5, 1.5, dim)
        v, g = eval_grad(e, x)
        g_fd = fd_gradient(lambda p: eval_real(e, p), x)
        scale = max(1.0, float(np.max(np.abs(g))))
        assert np.max(np.abs(g - g_fd)) <= 1e-6 * scale


def test_hessian_encloses_numeric_hessians():
    rng = np.random.default_rng(13)
    for _ in range(30):
        dim = int(rng.integers(1, 4))
        e = _random_polynomial(rng, dim)
        lo = rng.uniform(-1.5, 0.0, dim)
        hi = lo + rng.uniform(0.1, 0.8, dim)
        val, grad, hess = eval_hess_interval(e, one_box(lo, hi))
        assert val.lo.shape == (1,) and grad.lo.shape == (dim, 1)
        for _ in range(5):
            x = rng.uniform(lo, hi)
            H = fd_hessian(lambda p: eval_real(e, p), x)
            for i in range(dim):
                for j in range(dim):
                    entry = hess[0, i, j]
                    slack = 1e-5 * max(1.0, abs(H[i, j]))
                    assert entry.lo - slack <= H[i, j] <= entry.hi + slack


def test_hessian_constant_cases():
    e = parse_expr("x1^2 + x2^2", 2)
    box = one_box([-3, 0], [5, 1])
    _, _, hess = eval_hess_interval(e, box)
    assert hess.lo.shape == (1, 2, 2)
    assert hess.lo[0, 0, 0] == pytest.approx(2.0, rel=1e-12)
    assert hess.hi[0, 0, 0] == pytest.approx(2.0, rel=1e-12)
    assert hess.lo[0, 0, 1] == 0.0 and hess.hi[0, 0, 1] == 0.0

    lin = parse_expr("3*x1 - 2*x2", 2)
    _, _, hess = eval_hess_interval(lin, box)
    assert not hess.lo.any() and not hess.hi.any()
    # an expression that does not depend on x
    val, grad, hess = eval_hess_interval(parse_expr("1.5", 2), box)
    assert (val.lo.tolist(), grad.lo.shape, hess.lo.shape) == ([1.5], (2, 1), (1, 2, 2))
    assert not grad.hi.any() and not hess.hi.any()


def test_hessian_cubic_range():
    e = parse_expr("x1^3", 1)
    _, _, hess = eval_hess_interval(e, one_box([0], [1]))
    # second derivative 6x spans [0, 6]
    assert hess.lo[0, 0, 0] <= 0.0 + 1e-12
    assert hess.hi[0, 0, 0] >= 6.0 - 1e-9


def test_abs_guard_only_semantics():
    e = parse_expr("abs(x1)", 1)
    assert eval_real(e, [-2.0]) == 2.0
    with pytest.raises(DomainError):
        eval_grad(e, [0.0])
    v, g = eval_grad(e, [-2.0])
    assert v == 2.0 and g[0] == -1.0
