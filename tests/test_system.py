import numpy as np
import pytest

from lyapcert import CandidateV, HyperRect
from lyapcert.errors import CoverageError, TieError
from lyapcert.expr import parse_expr
from lyapcert.expr import VectorField
from lyapcert.system import (
    Guard,
    PiecewiseSystem,
    Region,
    branch_jump,
    decrease_value,
    enumerate_box_branches,
    enumerate_branches,
    euler_discretize,
    iterate,
    region_of,
    regions_intersecting,
    step,
    translate_system,
    validate_coverage,
)

from oracles import sample_box


def test_region_membership(switched_sys):
    assert region_of(switched_sys, [1, 0.5]) == (0,)
    assert region_of(switched_sys, [1, 0]) == (0, 1)
    assert region_of(switched_sys, [1, -0.5]) == (1,)


def test_step_forced(switched_sys):
    assert step(switched_sys, [1, 0], 0) == pytest.approx([0.5, -1.0])
    assert step(switched_sys, [1, 0], 1) == pytest.approx([0.5, 0.0])
    assert step(switched_sys, [0, 0], 0) == pytest.approx([0, 0])
    assert step(switched_sys, [0, 0], 1) == pytest.approx([0, 0])


def test_step_rejects_inactive_forcing(switched_sys):
    with pytest.raises(ValueError):
        step(switched_sys, [1, 0.5], 1)


def test_iterate_golden_chains(switched_sys):
    xa, ba = iterate(switched_sys, [1, 0], 3, [0, None, None])
    assert xa == pytest.approx([-0.125, -0.7025])
    assert ba == (0, 1, 0)
    xb, bb = iterate(switched_sys, [1, 0], 3, [1, None, None])
    assert xb == pytest.approx([0.0625, 0.2])
    assert bb == (1, 0, 1)
    x0, _ = iterate(switched_sys, [0, 0], 5, [0])
    assert x0 == pytest.approx([0, 0])


def test_iterate_matches_manual_steps(switched_sys):
    rng = np.random.default_rng(1)
    for _ in range(50):
        x = rng.uniform(-1.2, 1.2, 2)
        branch = tuple(int(b) for b in rng.integers(0, 2, 3))
        try:
            manual = x
            for idx in branch:
                manual = step(switched_sys, manual, idx)
        except ValueError:
            continue  # forced region not active somewhere along the chain
        got, used = iterate(switched_sys, x, 3, branch)
        assert got == pytest.approx(manual)
        assert used == branch


def test_enumerate_branches(switched_sys):
    assert enumerate_branches(switched_sys, [1, 0], 3) == [(0, 1, 0), (1, 0, 1)]
    assert len(enumerate_branches(switched_sys, [0.7, 0.3], 3)) == 1
    # both fields fix the origin, so the fork collapses to identical values
    zero_branches = enumerate_branches(switched_sys, [0, 0], 3)
    assert len(zero_branches) == 2
    for b in zero_branches:
        end, _ = iterate(switched_sys, [0, 0], 3, b)
        assert end == pytest.approx([0, 0])


def test_decrease_values_and_jump(switched_sys):
    V = CandidateV(np.eye(2), 0.999)
    f1 = decrease_value(switched_sys, V, 3, [1, 0], [0, None, None])
    f2 = decrease_value(switched_sys, V, 3, [1, 0], [1, None, None])
    assert f1 + 0.999 == pytest.approx(0.5091, abs=5e-4)
    assert f2 + 0.999 == pytest.approx(0.0439, abs=5e-4)
    assert branch_jump(switched_sys, V, 3, [1, 0]) == pytest.approx(0.4652, abs=5e-4)
    assert branch_jump(switched_sys, V, 3, [0.7, 0.3]) == 0.0
    assert branch_jump(switched_sys, V, 3, [0, 0]) == pytest.approx(0.0, abs=1e-15)
    assert decrease_value(switched_sys, V, 3, [0, 0], [0]) == 0.0


def test_regions_intersecting(switched_sys):
    inside = HyperRect([0.5, 0.5], [0.1, -0.1, 0.1, -0.1])
    assert regions_intersecting(switched_sys, inside) == (0,)
    straddle = HyperRect([0.5, 0.0], [0.1, -0.1, 0.1, -0.1])
    assert regions_intersecting(switched_sys, straddle) == (0, 1)
    # closure convention: a box ending exactly at the boundary still meets
    # the strict complement region
    touch = HyperRect([0.5, -0.05], [0.1, -0.1, 0.05, -0.05])
    assert regions_intersecting(switched_sys, touch) == (0, 1)
    assert regions_intersecting(switched_sys, touch, literal=True) == (0, 1)
    above = HyperRect([0.5, 0.05], [0.1, -0.1, 0.05, -0.05])
    assert regions_intersecting(switched_sys, above, literal=True) == (0,)


def test_regions_intersecting_superset_of_sampled(switched_sys):
    rng = np.random.default_rng(2)
    for _ in range(30):
        c = rng.uniform(-1, 1, 2)
        box = HyperRect(c, [0.2, -0.2, 0.2, -0.2])
        allowed = set(regions_intersecting(switched_sys, box))
        for x in sample_box(box, 50, rng):
            assert set(region_of(switched_sys, x)) <= allowed


def test_coverage_sampled(switched_sys):
    S = HyperRect([0, 0], [1.5, -1.5, 1.5, -1.5])
    validate_coverage(switched_sys, S, samples=2000)


def test_coverage_violation_detected():
    gap = Region(
        (Guard(parse_expr("x1 - 10", 1), ">="),),
        VectorField(1, (parse_expr("0.5*x1", 1),)),
    )
    sys_gap = PiecewiseSystem(1, "discrete", (gap,))
    with pytest.raises(CoverageError):
        region_of(sys_gap, [0.0])


def test_tie_error_on_open_boundary():
    up = Region((Guard(parse_expr("x1", 1), ">"),), VectorField(1, (parse_expr("0.5*x1", 1),)))
    dn = Region((Guard(parse_expr("x1", 1), "<"),), VectorField(1, (parse_expr("0.25*x1", 1),)))
    sys_open = PiecewiseSystem(1, "discrete", (up, dn))
    with pytest.raises(TieError):
        step(sys_open, [0.0])


def test_euler_discretize(ct3d_sys):
    dsys = euler_discretize(ct3d_sys, 0.1)
    assert dsys.mode == "discrete"
    from lyapcert.expr import eval_real

    assert [eval_real(c, [0, 0, 0]) for c in dsys.regions[0].field.components] == [0, 0, 0]
    with pytest.raises(ValueError):
        euler_discretize(ct3d_sys, -0.1)


def test_translate_system():
    f = VectorField(1, (parse_expr("0.5*x1 + 0.5", 1),))  # fixed point at 1
    sys1 = PiecewiseSystem(1, "discrete", (Region((), f),))
    shifted = translate_system(sys1, [1.0])
    from lyapcert.expr import eval_real

    assert eval_real(shifted.regions[0].field.components[0], [0.0]) == pytest.approx(0.0)
    assert eval_real(shifted.regions[0].field.components[0], [0.2]) == pytest.approx(0.1)


def test_box_branch_enumeration(switched_sys):
    straddle = HyperRect([1.0, 0.0], [0.05, -0.05, 0.05, -0.05])
    seqs = enumerate_box_branches(switched_sys, straddle, 3)
    assert (0, 1, 0) in seqs and (1, 0, 1) in seqs
    interior = HyperRect([0.7, 0.4], [0.05, -0.05, 0.05, -0.05])
    assert enumerate_box_branches(switched_sys, interior, 3) == [(0, 1, 0)]


def test_jump_gap_sign_properties(switched_sys):
    V = CandidateV(np.eye(2), 0.999)
    rng = np.random.default_rng(14)
    for _ in range(300):
        x = rng.uniform(-1.2, 1.2, 2)
        gap = branch_jump(switched_sys, V, 3, x)
        assert gap >= 0.0
        if len(enumerate_branches(switched_sys, x, 3)) == 1:
            assert gap == 0.0


def test_coverage_sampled_dense(switched_sys):
    S = lc_hyperrect([0, 0], [1.5, -1.5, 1.5, -1.5])
    validate_coverage(switched_sys, S, samples=10_000)


def lc_hyperrect(center, delta):
    from lyapcert import HyperRect

    return HyperRect(center, delta)


def test_enclose_failing_boxes_fail_alone():
    # one box whose float power overflows, one outside the domain of sqrt,
    # and two that evaluate: one of them overflows to inf in a product,
    # which numpy would warn about outside the drivers' error state; each
    # failing box holds a NaN and gets a DomainError
    import warnings

    from lyapcert.errors import DomainError
    from lyapcert.geometry import interval_batch
    from lyapcert.system import _enclose

    exprs = [parse_expr("sqrt(x1) + x1^5", 1), parse_expr("x1*x1*x1*x1*x1*x1*x1", 1)]
    boxes = [
        HyperRect([1e70], [1e69, -1e69]),
        HyperRect([-1.5], [0.5, -0.5]),
        HyperRect([0.75], [0.25, -0.25]),
        HyperRect([1.5e50], [0.5e50, -0.5e50]),
    ]
    ivals = interval_batch(boxes)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rng, errors = _enclose(exprs, ivals)
        alone = [_enclose(exprs, ivals[:, j : j + 1]) for j in (2, 3)]
    assert sorted(errors) == [0, 1]
    assert all(isinstance(errors[j], DomainError) for j in (0, 1))
    assert all(np.isnan(rng.lo[:, j]).any() or np.isnan(rng.hi[:, j]).any() for j in (0, 1))
    for j, (one, one_errors) in zip((2, 3), alone):
        assert one_errors == {}
        assert rng.lo[:, j].tolist() == one.lo[:, 0].tolist()
        assert rng.hi[:, j].tolist() == one.hi[:, 0].tolist()
    assert rng.hi[1, 3] == np.inf and np.isfinite(rng.hi[0, 3])
