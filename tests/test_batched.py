"""Batched evaluation against the scalar Interval path, bit for bit.

The batched code (IntervalArray payloads, assess_boxes, verify_boxes,
WContext.lower_bounds) must give every box exactly the numbers the
one-box Interval evaluation gives, whatever else is in the batch.  The
scalar reference below is the per-box assessment written directly over
Interval payloads: the point value and gradient from float duals, the
Hessian from IntervalVector duals, then the same reductions.
"""

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lyapcert import CandidateV, HyperRect, RunConfig
from lyapcert.bounds import (
    BEST,
    COMBINED,
    PAIR_L2,
    PAIR_LINF,
    SPLIT,
    BoundCoefficients,
    BranchBounds,
    DecreaseMap,
    DerivativeAlongFlowMap,
    SumOfIteratesMap,
    WContext,
    assess_boxes,
    box_radius,
    certificate_slack,
    combined_coefficient,
    gradient_coefficient,
    interval_values,
    remainder_bound,
)
from lyapcert.errors import BranchOverflowError, CoverageError, DomainError, LyapcertError
from lyapcert.geometry import interval_batch, refine2
from lyapcert.interval import Interval, IntervalArray
from lyapcert.system import DomainExit, euler_discretize
from lyapcert.verifier import (
    BoxOutcome,
    DecreaseContext,
    _point_jump,
    verify_box,
    verify_boxes,
)

from conftest import CONFIG_DIR, _field
from oracles import sample_box

# numpy reports overflow and 0 * inf where Python floats stay silent; the
# batched drivers silence it, the operation-level tests here do the same
pytestmark = pytest.mark.filterwarnings(
    "ignore:overflow encountered:RuntimeWarning", "ignore:invalid value encountered:RuntimeWarning"
)

METHODS = (SPLIT, COMBINED, BEST)
PAIRINGS = (PAIR_LINF, PAIR_L2)


def bits(x):
    return struct.pack("<d", float(x))


def same(a, b):
    """Equal floats, with the sign of zero (any NaN equals any NaN)."""
    return bits(a) == bits(b) or (math.isnan(a) and math.isnan(b))


# -- the scalar reference ------------------------------------------------------


def scalar_assess(fmap, box, method, pairing):
    value, grad = fmap.value_and_grad(box.center)
    hess = fmap.interval_hessian(box.to_interval_vector())
    split = BoundCoefficients(
        gradient_coefficient(grad, pairing), remainder_bound(hess, box.tau), SPLIT
    )
    combined = None
    if method in (COMBINED, BEST):
        combined = BoundCoefficients(combined_coefficient(grad, hess, box, pairing), 0.0, COMBINED)
    return BranchBounds(value, split, combined)


def scalar_verify(ctx, box, method, pairing):
    try:
        branches = ctx.box_branches(box)
    except BranchOverflowError:
        return BoxOutcome(False, None, None, "branch-overflow")
    except DomainError:
        return BoxOutcome(False, None, None, "domain-error")
    except DomainExit:
        return BoxOutcome(False, None, None, "left-domain", refinable=not ctx.center_exits(box))
    except CoverageError:
        return BoxOutcome(False, None, None, "no-region")
    try:
        assessments = [scalar_assess(ctx.map_for(b), box, method, pairing) for b in branches]
    except DomainError:
        return BoxOutcome(False, None, None, "domain-error")
    values = [a.value for a in assessments]
    eps = _point_jump(ctx, box, branches, values)
    xi = box_radius(box, pairing)
    gamma = certificate_slack([a.split for a in assessments], eps, xi)
    if method in (COMBINED, BEST):
        gamma_c = certificate_slack([a.combined for a in assessments], eps, xi)
        gamma = gamma_c if method == COMBINED else min(gamma, gamma_c)
    F = float(max(values))
    return BoxOutcome(F < -gamma, F, gamma, None)


def scalar_lower_bound(wctx, box, method=SPLIT, subdivide_to=None):
    if subdivide_to is not None and box.max_abs_delta > subdivide_to * (1 + 1e-9):
        try:
            children = refine2(box)
        except ValueError:
            children = None
        if children:
            best = None
            for child in children:
                lb = scalar_lower_bound(wctx, child, method, subdivide_to)
                if lb is None:
                    return None
                best = lb if best is None else min(best, lb)
            return best
    best = None
    try:
        branches = wctx.box_branches(box)
    except (LyapcertError, DomainExit):
        return None
    xi = box_radius(box, wctx.pairing)
    try:
        for seq in branches:
            bb = scalar_assess(wctx.map_for(seq), box, method, wctx.pairing)
            coeffs = bb.split if bb.combined is None else min(
                (bb.split, bb.combined), key=lambda c: c.a * xi + c.b
            )
            lb = bb.value - coeffs.a * xi - coeffs.b
            best = lb if best is None else min(best, lb)
    except (LyapcertError, DomainExit):
        best = None
    try:
        enclosure = None
        for seq in branches:
            rng = wctx.map_for(seq).interval_value(box.to_interval_vector())
            enclosure = rng if enclosure is None else enclosure.hull(rng)
        if enclosure is not None and math.isfinite(enclosure.lo):
            best = enclosure.lo if best is None else max(best, enclosure.lo)
    except (LyapcertError, DomainExit):
        pass
    return best


def interval_array(lo, hi):
    return IntervalArray(np.array(lo, dtype=float), np.array(hi, dtype=float))


def same_outcome(a, b):
    return (
        a.certified == b.certified
        and a.flag == b.flag
        and a.refinable == b.refinable
        and (a.F_value is None) == (b.F_value is None)
        and (a.F_value is None or same(a.F_value, b.F_value))
        and (a.gamma is None or same(a.gamma, b.gamma))
    )


def same_bound(a, b):
    return (a is None and b is None) or (a is not None and b is not None and same(a, b))


# -- IntervalArray operations ----------------------------------------------------

SPECIALS = [0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, 1.0, -1.0, 0.1, -0.1]
finite = st.one_of(st.sampled_from(SPECIALS), st.floats(-1e60, 1e60))  # x**4 stays finite
intervals = st.tuples(finite, finite).map(lambda p: (min(p), max(p)))

BINARY = {
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "mul": lambda a, b: a * b,
    "div": lambda a, b: a / b,
}
UNARY = {
    "neg": lambda a: -a,
    "abs": abs,
    "sqrt": lambda a: a.sqrt(),
    **{f"pow{k}": (lambda a, k=k: a.pow_int(k)) for k in range(5)},
}
WITH_REAL = {
    "add_c": lambda a, c: a + c,
    "radd_c": lambda a, c: c + a,
    "sub_c": lambda a, c: a - c,
    "rsub_c": lambda a, c: c - a,
    "mul_c": lambda a, c: a * c,
    "rmul_c": lambda a, c: c * a,
    "div_c": lambda a, c: a / c,
    "rdiv_c": lambda a, c: c / a,
}


def _check_batched(op, operands):
    """op over IntervalArrays equals op over each row of Intervals."""
    expected = []
    for row in operands:
        try:
            expected.append(op(*[Interval(*x) if isinstance(x, tuple) else x for x in row]))
        except DomainError:
            expected.append(None)
    ok = [k for k, e in enumerate(expected) if e is not None]

    def batch(rows):
        cols = list(zip(*rows))
        args = [
            interval_array([x[0] for x in c], [x[1] for x in c])
            if isinstance(c[0], tuple)
            else c[0]
            for c in cols
        ]
        return op(*args)

    if len(ok) < len(operands):
        with pytest.raises(DomainError):
            batch(operands)
    if not ok:
        return
    got = batch([operands[k] for k in ok])
    for pos, k in enumerate(ok):
        assert same(got.lo[pos], expected[k].lo) and same(got.hi[pos], expected[k].hi), (
            operands[k],
            (got.lo[pos], got.hi[pos]),
            expected[k],
        )


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(sorted(BINARY)),
    st.lists(st.tuples(intervals, intervals), min_size=1, max_size=12),
)
def test_interval_array_binary_ops(name, pairs):
    _check_batched(BINARY[name], pairs)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(UNARY)), st.lists(intervals, min_size=1, max_size=12))
def test_interval_array_unary_ops(name, xs):
    _check_batched(UNARY[name], [(x,) for x in xs])


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(sorted(WITH_REAL)),
    st.lists(intervals, min_size=1, max_size=12),
    finite,
)
def test_interval_array_real_operand_ops(name, xs, c):
    # one real operand shared by the whole batch, as constants are
    _check_batched(WITH_REAL[name], [(x, c) for x in xs])


def test_interval_array_zero_times_inf():
    inf = math.inf
    pairs = [
        ((0.0, 0.0), (-inf, inf)),
        ((0.0, 1.0), (1.0, inf)),
        ((-inf, 0.0), (0.0, 0.0)),
        ((-inf, inf), (2.0, 3.0)),
        ((-inf, -1.0), (-2.0, inf)),
        ((1.0, 2.0), (3.0, 4.0)),
    ]
    _check_batched(BINARY["mul"], pairs)
    whole = interval_array([0.0], [0.0]) * interval_array([-inf], [inf])
    assert whole.lo[0] == -inf and whole.hi[0] == inf


# inputs on which numpy's power and the C library's pow round differently
POW_TRAPS = {
    2: [0.687611213910762, 1.9686715461435784, -1.3747364402296864],
    3: [1.793148023862388, 1.4562890744004129, 0.6946276624427896],
    4: [1.3346519384386983, 0.04186150271377764, 1.130025025444696],
}


@pytest.mark.parametrize("k", sorted(POW_TRAPS))
def test_batched_powers_use_scalar_pow(k):
    from lyapcert.expr import eval_batch, eval_real, parse_expr

    xs = POW_TRAPS[k]
    assert any(not same(p, x**k) for p, x in zip(np.power(xs, k), xs))
    got = IntervalArray.point(xs).pow_int(k)
    values = eval_batch(parse_expr(f"x1^{k}", 1), np.array(xs)[:, None])
    for pos, x in enumerate(xs):
        ref = Interval.point(x).pow_int(k)
        assert same(got.lo[pos], ref.lo) and same(got.hi[pos], ref.hi)
        assert same(values[pos], eval_real(parse_expr(f"x1^{k}", 1), [x]))


def test_interval_array_mixed_signs_defer_abs_sign():
    # strict_sign needs one sign for the whole batch; abs of a dual over
    # a batch of mixed signs raises, and the drivers then go box by box
    from lyapcert.ad import dual2_seeds

    seeds = dual2_seeds([interval_array([-2.0, 1.0], [-1.0, 2.0])])
    with pytest.raises(DomainError):
        abs(seeds[0])


# -- per-box assessment -------------------------------------------------------------


def _maps(switched_sys):
    V = CandidateV(np.diag([1.0, 2.0]), 0.999)
    ct = euler_ct()
    yield "decrease", DecreaseMap(switched_sys, V, 3, (1, 0, 0))
    yield "sum_iter", SumOfIteratesMap(switched_sys, V, 3, (0, 1))
    yield "flow", DerivativeAlongFlowMap(ct, euler_discretize(ct, 0.1), V, 2, 0, (0,))


def euler_ct():
    from lyapcert.system import PiecewiseSystem, Region

    return PiecewiseSystem(2, "continuous", (Region((), _field(2, "-x1 + x2^2", "-2*x2 + x1*x2")),))


def _boxes(rng, count):
    """Seeded boxes: random ones, ones straddling 0, ones touching x2 = 0."""
    out = []
    for _ in range(count):
        c = rng.uniform(-1.0, 1.0, 2)
        h = rng.uniform(0.01, 0.3, 2)
        out.append(HyperRect(c, [h[0], -h[0], h[1], -h[1]]))
    out.append(HyperRect([0.0, 0.0], [0.2, -0.2, 0.1, -0.1]))  # straddles both axes
    out.append(HyperRect([0.05, -0.02], [0.1, -0.1, 0.05, -0.05]))
    out.append(HyperRect([0.4, 0.1], [0.1, -0.1, 0.1, -0.1]))  # lower x2 edge on the guard
    out.append(HyperRect([-0.3, -0.125], [0.125, -0.125, 0.125, -0.125]))  # upper edge on it
    out.append(HyperRect([0.7, 0.0], [0.05, -0.05, 0.0, 0.0]))  # flat, on the guard
    return out


def _assert_assessment_matches(fmap, boxes, method, pairing):
    batched = assess_boxes(fmap, boxes, method, pairing)
    hess = fmap.interval_hessian(interval_batch(boxes))
    ranges = interval_values(fmap, boxes)
    for k, box in enumerate(boxes):
        ref = scalar_assess(fmap, box, method, pairing)
        got = batched[k]
        assert same(got.value, ref.value)
        assert same(got.split.a, ref.split.a) and same(got.split.b, ref.split.b)
        assert (got.combined is None) == (ref.combined is None)
        if ref.combined is not None:
            assert same(got.combined.a, ref.combined.a)
        H = fmap.interval_hessian(box.to_interval_vector())
        n = box.n
        for i in range(n):
            for j in range(n):
                assert same(hess.lo[k, i, j], H[i, j].lo) and same(hess.hi[k, i, j], H[i, j].hi)
        rng = fmap.interval_value(box.to_interval_vector())
        assert same(ranges[k][0], rng.lo) and same(ranges[k][1], rng.hi)
    return batched, ranges


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("pairing", PAIRINGS)
def test_assess_boxes_matches_scalar(switched_sys, method, pairing):
    rng = np.random.default_rng(41)
    for kind, fmap in _maps(switched_sys):
        boxes = _boxes(rng, 10)
        batched, ranges = _assert_assessment_matches(fmap, boxes, method, pairing)
        # sampled values of the map lie inside the batched enclosures and
        # within the Taylor bound around the sample point
        for box, bb, (lo, hi) in zip(boxes, batched, ranges):
            for x in sample_box(box, 40, rng):
                v = fmap.value(x)
                assert lo <= v <= hi, kind
                dist = np.max(np.abs(x - box.center)) if pairing == PAIR_LINF else np.linalg.norm(
                    x - box.center
                )
                assert abs(v - bb.value) <= bb.split.a * dist + bb.split.b + 1e-12, kind


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("pairing", PAIRINGS)
def test_assess_boxes_zero_times_inf_in_map(method, pairing):
    from lyapcert.system import PiecewiseSystem, Region

    sys_ = PiecewiseSystem(1, "discrete", (Region((), _field(1, "x1*x1*x1*x1*x1")),))
    fmap = DecreaseMap(sys_, CandidateV(np.eye(1), 0.9), 1, (0,))
    near = HyperRect([0.5], [0.1, -0.1])
    # x^5 as a product overflows to inf at the upper end of [0, 1e70], so
    # the Hessian chain multiplies inf by the seed's zero Hessian (0 * inf)
    far = HyperRect([5e69], [5e69, -5e69])
    hess = fmap.interval_hessian(interval_batch([far, near]))
    assert (hess.lo[0, 0, 0], hess.hi[0, 0, 0]) == (-math.inf, math.inf)
    try:
        scalar_assess(fmap, far, method, pairing)
    except ValueError:  # a NaN gradient makes a NaN point interval
        with pytest.raises(ValueError):
            assess_boxes(fmap, [far, near], method, pairing)
    else:
        _assert_assessment_matches(fmap, [far, near], method, pairing)
    # over [9e69, 1.1e70] both endpoints overflow and inf - inf follows:
    # the scalar path refuses the NaN endpoint, and so does the batch
    both = HyperRect([1e70], [1e69, -1e69])
    with pytest.raises(ValueError):
        scalar_assess(fmap, both, method, pairing)
    with pytest.raises(ValueError):
        assess_boxes(fmap, [near, both], method, pairing)


@settings(max_examples=25, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.floats(-1.2, 1.2),
            st.floats(-1.2, 1.2),
            st.floats(0.0, 0.4),
            st.floats(1e-3, 0.4),
        ),
        min_size=1,
        max_size=6,
    ),
    st.sampled_from(METHODS),
    st.sampled_from(PAIRINGS),
    st.sampled_from(["decrease", "sum_iter", "flow"]),
)
def test_assess_boxes_matches_scalar_hypothesis(switched_sys, specs, method, pairing, kind):
    fmap = dict(_maps(switched_sys))[kind]
    boxes = [HyperRect([c1, c2], [h1, -h1, h2, -h2]) for c1, c2, h1, h2 in specs]
    _assert_assessment_matches(fmap, boxes, method, pairing)


# -- whole boxes and W bounds ------------------------------------------------------


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("pairing", PAIRINGS)
def test_verify_boxes_matches_scalar(switched_sys, method, pairing):
    ctx = DecreaseContext(switched_sys, CandidateV(np.eye(2), 0.999), 3, None, 64)
    boxes = _boxes(np.random.default_rng(43), 12)
    batched = verify_boxes(ctx, boxes, method, pairing)
    for box, got in zip(boxes, batched):
        assert same_outcome(got, scalar_verify(ctx, box, method, pairing))
        assert same_outcome(got, verify_box(ctx, box, method, pairing))


def test_w_lower_bounds_match_scalar(switched_sys):
    rng = np.random.default_rng(44)
    boxes = _boxes(rng, 4)
    for pairing in PAIRINGS:
        wctx = WContext(switched_sys, CandidateV(np.eye(2), 0.999), 3, None, 64, pairing)
        for method in METHODS:
            for sub in (None, 0.1):
                got = wctx.lower_bounds(boxes, method, sub)
                for box, lb in zip(boxes, got):
                    assert same_bound(lb, scalar_lower_bound(wctx, box, method, sub))
                    assert same_bound(lb, wctx.lower_bound_over_box(box, method, sub))
        ranges = wctx.interval_values_over_boxes(boxes)
        for box, got in zip(boxes, ranges):
            ref = None
            for seq in wctx.box_branches(box):
                rng = wctx.map_for(seq).interval_value(box.to_interval_vector())
                ref = rng if ref is None else ref.hull(rng)
            one = wctx.interval_values_over_boxes([box])[0]
            for r in (ref, one):
                assert same(got.lo, r.lo) and same(got.hi, r.hi)


def test_powertrain_batch_with_domain_errors():
    """Boxes near x1 = 1 of the powertrain field, where sqrt(x1*(1 - x1))
    and its derivative leave their domain, batched with boxes that do not."""
    cfg = RunConfig.from_file(CONFIG_DIR / "example_powertrain.json")
    dsys = cfg.discrete_system()
    ctx = DecreaseContext(dsys, cfg.candidate(), 1, None, 64)
    # (centre, half-width) along x1 - 0.7975; c + h = 0.2025 puts the upper
    # edge on x1 = 1, where sqrt has a value but no derivative
    specs = [(c, 0.0125) for c in np.linspace(0.0, 0.18, 7)]
    specs += [(0.19, 0.0125), (0.1975, 0.005), (0.2, 0.0025), (0.22, 0.0125)]
    boxes = [HyperRect([c, 0.02, -0.01], [h, -h, 0.0125, -0.0125, 0.0125, -0.0125]) for c, h in specs]
    batched = verify_boxes(ctx, boxes)
    reference = [scalar_verify(ctx, box, SPLIT, PAIR_LINF) for box in boxes]
    for got, ref, box in zip(batched, reference, boxes):
        assert same_outcome(got, ref)
        assert same_outcome(got, verify_box(ctx, box))
    flags = [out.flag for out in batched]
    assert "domain-error" in flags and None in flags
    # the mix must include boxes whose branch enumeration succeeded but whose
    # derivatives left the domain, so the batch itself failed and was retried
    enumerated = []
    for box, out in zip(boxes, batched):
        if out.flag == "domain-error":
            try:
                enumerated.append(ctx.box_branches(box))
            except DomainError:
                pass
    assert enumerated
