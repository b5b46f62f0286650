"""Batched evaluation against scalar references, bit for bit.

The batched code (IntervalArray payloads, assess_boxes, verify_boxes,
WContext.lower_bounds, the batched branch enumeration and the batched
point walks) must give every box and point exactly the numbers, or the
error, that the one-item evaluation gives, whatever else is in the batch.
The scalar references below are the per-item code written directly over
RefInterval (the test-local scalar interval of oracles.py, with its own
copy of the endpoint formulas) and float payloads: the box walk that
forks on interval guards, the point walk through resolve_region and
step, the per-box assessment (the point value and gradient from float
duals, the Hessian from second-order duals over RefIntervals, then the
same reductions) and the box-by-box hole audit of the local certificate.
The second-order duals of the reference keep their gradient and Hessian
as tuples of separate payloads, entry by entry (TupleDual2); the
library's Dual2 stacks them, and must give every entry the same bits.
"""

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lyapcert import CandidateV, HyperRect, RunConfig, parse_expr
from lyapcert.ad import Dual2, dual2_seeds, tril
from lyapcert.bounds import (
    BoundCoefficients,
    BranchBounds,
    DecreaseMap,
    DerivativeAlongFlowMap,
    SumOfIteratesMap,
    WContext,
    _W_ERRORS,
    assess_boxes,
    assess_branch,
    assess_ranges,
    batch_or_each,
    by_branch,
    certificate_slack,
    gradient_coefficient,
    interval_values,
    remainder_bound,
)
from lyapcert.errors import BranchOverflowError, CoverageError, DomainError, LyapcertError
from lyapcert.expr import (
    Abs,
    Bin,
    Const,
    Neg,
    Pow,
    Sqrt,
    Var,
    eval_any,
    eval_hess_interval,
)
from lyapcert.geometry import BoxArray, interval_batch, refine2
from lyapcert.interval import IntervalArray
from lyapcert.scalars import div_, lift_like, pow_, sqrt_, strict_sign
from lyapcert.system import (
    DomainExit,
    Guard,
    PiecewiseSystem,
    Region,
    euler_discretize,
    quad_form,
)
from lyapcert import bounds as bounds_module, verifier as verifier_module
from lyapcert.verifier import (
    _EVAL_ERRORS,
    BoxOutcome,
    DecreaseContext,
    FlowDerivativeContext,
    _point_jump,
    verify_box,
    verify_boxes,
)

from conftest import CONFIG_DIR, _field
from oracles import RefInterval, sample_box

# numpy reports overflow and 0 * inf where Python floats stay silent; the
# batched drivers silence it, the operation-level tests here do the same
pytestmark = pytest.mark.filterwarnings(
    "ignore:overflow encountered:RuntimeWarning", "ignore:invalid value encountered:RuntimeWarning"
)

# the retired bound options: the one-box calls still accept them, and must
# give exactly what they give without them
METHODS = ("split", "combined", "best")
PAIRINGS = ("linf-l1", "l2")


def bits(x):
    return struct.pack("<d", float(x))


def same(a, b):
    """Equal floats, with the sign of zero (any NaN equals any NaN)."""
    return bits(a) == bits(b) or (math.isnan(a) and math.isnan(b))


# -- the scalar reference ------------------------------------------------------


def ref_lift(template, c):
    """lift_like, with a RefInterval payload lifted to a RefInterval point."""
    if isinstance(template, RefInterval):
        return c if isinstance(c, RefInterval) else RefInterval.point(float(c))
    return lift_like(template, c)


def ref_sign(v):
    """strict_sign, for RefInterval payloads too."""
    if isinstance(v, RefInterval):
        return 1 if v.lo > 0.0 else (-1 if v.hi < 0.0 else None)
    return strict_sign(v)


def ref_box(box):
    """A box as a list of RefIntervals, one per axis."""
    return [RefInterval(a, b) for a, b in zip(box.lower.tolist(), box.upper.tolist())]


def ref_point(out):
    """An evaluation's result as a RefInterval (a constant as a point)."""
    return out if isinstance(out, RefInterval) else RefInterval.point(float(out))


def ref_eval(e, ivec):
    """An expression's enclosure over a list of RefIntervals."""
    return ref_point(eval_any(e, ivec))


class TupleDual2:
    """Second-order dual number with the gradient and the symmetric Hessian
    as tuples of payloads, one chain-rule formula per entry."""

    __slots__ = ("value", "grad", "hess")

    def __init__(self, value, grad, hess):
        self.value = value
        self.grad = tuple(grad)
        self.hess = tuple(tuple(row) for row in hess)

    def lift(self, c):
        n = len(self.grad)
        zero = ref_lift(self.value, 0.0)
        zrow = (zero,) * n
        return TupleDual2(ref_lift(self.value, c), (zero,) * n, (zrow,) * n)

    def _coerce(self, other):
        if isinstance(other, TupleDual2):
            return other
        return self.lift(other)

    def __add__(self, other):
        o = self._coerce(other)
        g = tuple(a + b for a, b in zip(self.grad, o.grad))
        h = tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(self.hess, o.hess))
        return TupleDual2(self.value + o.value, g, h)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        g = tuple(a - b for a, b in zip(self.grad, o.grad))
        h = tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(self.hess, o.hess))
        return TupleDual2(self.value - o.value, g, h)

    def __rsub__(self, other):
        return self._coerce(other).__sub__(self)

    def __mul__(self, other):
        o = self._coerce(other)
        n = len(self.grad)
        v, w = self.value, o.value
        g = tuple(v * o.grad[i] + w * self.grad[i] for i in range(n))
        rows = [
            [
                v * o.hess[i][j]
                + w * self.hess[i][j]
                + self.grad[i] * o.grad[j]
                + self.grad[j] * o.grad[i]
                for j in range(i + 1)
            ]
            for i in range(n)
        ]
        return TupleDual2(v * w, g, _mirror(rows, n))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        n = len(self.grad)
        q = div_(self.value, o.value)
        qg = tuple(div_(self.grad[i] - q * o.grad[i], o.value) for i in range(n))
        rows = [
            [
                div_(
                    self.hess[i][j] - qg[i] * o.grad[j] - qg[j] * o.grad[i] - q * o.hess[i][j],
                    o.value,
                )
                for j in range(i + 1)
            ]
            for i in range(n)
        ]
        return TupleDual2(q, qg, _mirror(rows, n))

    def __rtruediv__(self, other):
        return self._coerce(other).__truediv__(self)

    def __neg__(self):
        g = tuple(-x for x in self.grad)
        h = tuple(tuple(-x for x in row) for row in self.hess)
        return TupleDual2(-self.value, g, h)

    def __abs__(self):
        s = ref_sign(self.value)
        if s is None:
            raise DomainError("abs is not differentiable at a sign change")
        return self if s > 0 else -self

    def sqrt(self):
        n = len(self.grad)
        s = sqrt_(self.value)
        two_s = s + s
        sg = tuple(div_(g, two_s) for g in self.grad)
        rows = [
            [div_(self.hess[i][j] - (sg[i] * sg[j] + sg[i] * sg[j]), two_s) for j in range(i + 1)]
            for i in range(n)
        ]
        return TupleDual2(s, sg, _mirror(rows, n))

    def pow_int(self, k):
        if k == 0:
            return self.lift(1.0)
        if k == 1:
            return self
        n = len(self.grad)
        u = k * pow_(self.value, k - 1)
        w = ref_lift(self.value, 2.0) if k == 2 else (k * (k - 1)) * pow_(self.value, k - 2)
        g = tuple(u * gi for gi in self.grad)
        rows = [
            [u * self.hess[i][j] + w * (self.grad[i] * self.grad[j]) for j in range(i + 1)]
            for i in range(n)
        ]
        return TupleDual2(pow_(self.value, k), g, _mirror(rows, n))


def _mirror(lower_rows, n):
    return tuple(
        tuple(lower_rows[i][j] if j <= i else lower_rows[j][i] for j in range(n)) for i in range(n)
    )


def tuple_dual2_seeds(payloads):
    n = len(payloads)
    seeds = []
    for i, p in enumerate(payloads):
        one, zero = ref_lift(p, 1.0), ref_lift(p, 0.0)
        zrow = (zero,) * n
        seeds.append(TupleDual2(p, tuple(one if j == i else zero for j in range(n)), (zrow,) * n))
    return seeds


def scalar_hessian(fmap, box):
    """The map's Hessian over one box from tuple duals over RefIntervals,
    as rows of RefIntervals."""
    n = box.n
    out = fmap._eval(tuple_dual2_seeds(ref_box(box)))
    if not isinstance(out, TupleDual2):
        return [[RefInterval.point(0.0)] * n for _ in range(n)]
    return out.hess


def scalar_range(fmap, box):
    """The map's enclosure over one box from RefIntervals.

    The flow map seeds the library's first-order duals, which cannot lift
    a constant into a RefInterval; its enclosure is the value part of the
    tuple duals instead, which takes the same operations on the values,
    with constants lifted to point intervals.
    """
    if isinstance(fmap, DerivativeAlongFlowMap):
        out = fmap._eval(tuple_dual2_seeds(ref_box(box)))
        return ref_point(out.value if isinstance(out, TupleDual2) else out)
    return ref_point(fmap._eval(ref_box(box)))


def scalar_regions_intersecting(sys_, ivec, literal=False):
    out = []
    for i, region in enumerate(sys_.regions):
        if all(g.feasible_interval(ref_eval(g.expr, ivec), literal) for g in region.guards):
            out.append(i)
    return tuple(out)


def scalar_box_branches(sys_, box, M, domain=None, cap=64):
    """The one-box walk: fork on every region whose guards are feasible."""
    dom = ref_box(domain) if domain is not None else None
    states = [(ref_box(box), ())]
    for step_idx in range(M):
        nxt = []
        for ivec, seq in states:
            for idx in scalar_regions_intersecting(sys_, ivec, literal=True):
                image = [ref_eval(c, ivec) for c in sys_.regions[idx].field.components]
                if (
                    dom is not None
                    and step_idx < M - 1
                    and not all(d.encloses(x) for d, x in zip(dom, image))
                ):
                    raise DomainExit(
                        f"state enclosure left the declared domain at step {step_idx + 1}"
                    )
                nxt.append((image, seq + (idx,)))
                if len(nxt) > cap:
                    raise BranchOverflowError(f"more than {cap} branch sequences over the box")
        if not nxt:
            raise CoverageError("box enclosure intersects no region")
        states = nxt
    return sorted(set(seq for _, seq in states))


def scalar_ctx_branches(ctx, box):
    """The branches of one box under a verification or W context."""
    if isinstance(ctx, FlowDerivativeContext):
        regions = scalar_regions_intersecting(ctx.ct_sys, ref_box(box), literal=True)
        seqs = scalar_box_branches(ctx.dt_sys, box, ctx.M - 1, ctx.domain, ctx.cap)
        pairs = [(r, s) for r in regions for s in seqs]
        if len(pairs) > ctx.cap:
            raise BranchOverflowError(
                f"{len(pairs)} region/branch combinations exceed cap {ctx.cap}"
            )
        return pairs
    if isinstance(ctx, WContext):
        return scalar_box_branches(ctx.dsys, box, ctx.M - 1, ctx.domain, ctx.cap)
    return scalar_box_branches(ctx.sys, box, ctx.M, ctx.domain, ctx.cap)


def scalar_w_point(dsys, V, M, x):
    from lyapcert.system import resolve_region, step

    state = np.asarray(x, dtype=float)
    total = V.value(state)
    for _ in range(M - 1):
        state = step(dsys, state, resolve_region(dsys, state))
        total += V.value(state)
    return float(total)


def outcome_of(fn, *args):
    """fn(*args), or the exception it raises."""
    try:
        return fn(*args)
    except (LyapcertError, DomainExit, OverflowError) as exc:
        return exc


def same_result(got, ref):
    """Equal results, or errors of the same type with the same message.  The
    message of a RefInterval operation's error names its operand, where the
    library's names none, so for those only the types must match."""
    if isinstance(ref, Exception):
        return type(got) is type(ref) and (str(got) == str(ref) or "RefInterval(" in str(ref))
    if isinstance(ref, float):
        return isinstance(got, float) and same(got, ref)
    return got == ref


def scalar_assess(fmap, box):
    value, grad = fmap.value_and_grad(box.center)
    mags = [[e.magnitude() for e in row] for row in scalar_hessian(fmap, box)]
    return BranchBounds(
        value, BoundCoefficients(gradient_coefficient(grad), remainder_bound(mags, box.tau))
    )


def scalar_verify(ctx, box):
    try:
        branches = scalar_ctx_branches(ctx, box)
    except BranchOverflowError:
        return BoxOutcome(False, None, None, "branch-overflow")
    except DomainError:
        return BoxOutcome(False, None, None, "domain-error")
    except DomainExit:
        refinable = not ctx.center_exits(box.center)
        return BoxOutcome(False, None, None, "left-domain", refinable=refinable)
    except CoverageError:
        return BoxOutcome(False, None, None, "no-region")
    try:
        assessments = [scalar_assess(ctx.map_for([b]), box) for b in branches]
    except DomainError:
        return BoxOutcome(False, None, None, "domain-error")
    values = [a.value for a in assessments]
    eps = _point_jump(ctx, box.center, branches, values)
    gamma = certificate_slack([a.split for a in assessments], eps, box.max_abs_delta)
    F = float(max(values))
    return BoxOutcome(F < -gamma, F, gamma, None)


def scalar_lower_bound(wctx, box, subdivide_to=None):
    if subdivide_to is not None and box.max_abs_delta > subdivide_to * (1 + 1e-9):
        try:
            children = refine2(box)
        except ValueError:
            children = None
        if children:
            best = None
            for child in children:
                lb = scalar_lower_bound(wctx, child, subdivide_to)
                if lb is None:
                    return None
                best = lb if best is None else min(best, lb)
            return best
    best = None
    try:
        branches = scalar_ctx_branches(wctx, box)
    except (LyapcertError, DomainExit):
        return None
    xi = box.max_abs_delta
    try:
        for seq in branches:
            bb = scalar_assess(wctx.map_for([seq]), box)
            lb = bb.value - bb.split.a * xi - bb.split.b
            best = lb if best is None else min(best, lb)
    except (LyapcertError, DomainExit):
        best = None
    try:
        enclosure = None
        for seq in branches:
            rng = scalar_range(wctx.map_for([seq]), box)
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
    """op over IntervalArrays equals op over each row of RefIntervals."""
    expected = []
    for row in operands:
        try:
            expected.append(op(*[RefInterval(*x) if isinstance(x, tuple) else x for x in row]))
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

    # the batched, interval and pointwise paths all give numpy's bits
    xs = POW_TRAPS[k]
    assert any(not same(p, x**k) for p, x in zip(np.power(xs, k), xs))
    got = IntervalArray.point(xs).pow_int(k)
    values = eval_batch(parse_expr(f"x1^{k}", 1), np.array(xs)[:, None])
    for pos, x in enumerate(xs):
        ref = RefInterval.point(x).pow_int(k)
        assert same(got.lo[pos], ref.lo) and same(got.hi[pos], ref.hi)
        assert same(values[pos], eval_real(parse_expr(f"x1^{k}", 1), [x]))
        assert same(values[pos], np.power(x, k))


def test_interval_array_mixed_signs_defer_abs_sign():
    # strict_sign needs one sign for the whole batch; abs of a dual over
    # a batch of mixed signs raises, and the drivers then go box by box
    from lyapcert.ad import dual2_seeds

    seeds = dual2_seeds([interval_array([-2.0, 1.0], [-1.0, 2.0])])
    with pytest.raises(DomainError):
        abs(seeds[0])


# -- stacked second-order duals ---------------------------------------------------------

CONSTS = [0.0, -0.0, 1.0, -1.5, 2.0, 0.3, 1e-300, 1e300]


def random_expr(rng, n, depth):
    """A random expression over x1..xn: + - * /, sqrt, abs, ^0..^5, negation,
    and constants on either side of a binary operation."""
    if depth == 0 or rng.random() < 0.2:
        if rng.random() < 0.3:
            return Const(float(rng.choice(CONSTS)))
        return Var(int(rng.integers(n)))
    kind = rng.integers(6)
    sub = lambda: random_expr(rng, n, depth - 1)  # noqa: E731
    if kind <= 2:
        return Bin(str(rng.choice(list("+-*/"))), sub(), sub())
    if kind == 3:
        return Pow(sub(), int(rng.integers(6)))
    return [Neg, Sqrt, Abs][int(rng.integers(3))](sub())


def expr_strategy(n):
    leaves = st.one_of(
        st.builds(Var, st.integers(0, n - 1)), st.builds(Const, st.sampled_from(CONSTS))
    )
    return st.recursive(
        leaves,
        lambda sub: st.one_of(
            st.builds(Bin, st.sampled_from("+-*/"), sub, sub),
            st.builds(Pow, sub, st.integers(0, 5)),
            st.builds(Neg, sub),
            st.builds(Sqrt, sub),
            st.builds(Abs, sub),
        ),
        max_leaves=10,
    )


def dual2_outcome(fn, seeds):
    """fn(seeds), or the DomainError, ValueError or OverflowError (of a
    float power) it raises."""
    try:
        return fn(seeds)
    except (DomainError, ValueError, OverflowError) as exc:
        return exc


def same_interval(got, ref):
    """Sign-exact equality of an IntervalArray with a RefInterval or IntervalArray reference."""
    ends = lambda x: np.ravel(x.lo).tolist() + np.ravel(x.hi).tolist()  # noqa: E731
    return all(same(a, b) for a, b in zip(ends(got), ends(ref)))


def same_floats(got, ref):
    """Sign-exact equality of float arrays, a float broadcasting over its shape."""
    got = np.asarray(got, dtype=float)
    ref = np.broadcast_to(ref, got.shape)
    return all(same(a, b) for a, b in zip(got.ravel().tolist(), ref.ravel().tolist()))


def assert_same_dual2(got, ref):
    """A stacked Dual2 equals a TupleDual2 entry for entry, or both raise
    the same error (type and message)."""
    if isinstance(ref, Exception):
        assert type(got) is type(ref) and str(got) == str(ref), (got, ref)
        return
    assert not isinstance(got, Exception), (got, ref)
    if not isinstance(ref, TupleDual2):
        assert not isinstance(got, Dual2) and same(got, ref)
        return
    n = len(ref.grad)
    pos = tril(n)[2]
    eq = same_interval if isinstance(got.value, IntervalArray) else same_floats
    assert eq(got.value, ref.value)
    for i in range(n):
        assert eq(got.grad[i], ref.grad[i]), i
        for j in range(n):
            assert eq(got.hess[pos[i, j]], ref.hess[i][j]), (i, j)


# endpoints at a signed zero, where the order of a product's operands
# decides the sign of a zero endpoint (np.minimum and np.maximum give the
# second of two equal zeros)
SIGNED_ZEROS = [(-1.0, -0.0), (-1.0, 0.0), (-0.0, 1.0), (0.0, 1.0), (-0.0, 0.0), (-0.0, -0.0)]


def random_payloads(rng, n, N, scale=1.0):
    """n coordinate IntervalArrays over N boxes: random ones, ones that
    straddle or touch 0, points, ones with a signed-zero endpoint, and
    (scaled) ones that overflow."""
    c = rng.uniform(-2.0, 2.0, (n, N)) * scale
    h = rng.choice([0.0, 1e-3, 0.1, 1.0], (n, N)) * scale
    c[:, 0] = 0.0
    c[:, 1 % N] = h[:, 1 % N]
    lo, hi = c - h, c + h
    for i in range(n):
        lo[i, -1], hi[i, -1] = SIGNED_ZEROS[rng.integers(len(SIGNED_ZEROS))]
    return IntervalArray(lo, hi)


def assert_stacked_matches(expr, payloads):
    """expr over stacked duals equals expr over tuple duals, for a batch of
    IntervalArrays, for float arrays, and for each box of the batch (a
    batch of one, against tuple duals over RefIntervals)."""
    fn = lambda seeds: eval_any(expr, seeds)  # noqa: E731
    # IntervalArrays, then float arrays (exact derivatives at the lower corners)
    for rows in (list(payloads), list(payloads.lo)):
        got = dual2_outcome(fn, dual2_seeds(rows))
        assert_same_dual2(got, dual2_outcome(fn, tuple_dual2_seeds(rows)))
    n, N = payloads.lo.shape
    for k in range(N):
        box = payloads[:, k : k + 1]
        ivec = [RefInterval(a, b) for a, b in zip(box.lo[:, 0].tolist(), box.hi[:, 0].tolist())]
        ref = dual2_outcome(fn, tuple_dual2_seeds(ivec))
        got = dual2_outcome(fn, dual2_seeds(list(box)))
        # the RefInterval reference refuses a NaN endpoint as soon as one
        # is made; the one-entry arrays refuse it when it is used or read
        if isinstance(ref, ValueError):
            continue
        if isinstance(ref, (DomainError, OverflowError)):
            assert type(got) is type(ref), (expr, box)
            continue
        assert_same_dual2(got, ref)
        value, grad, hess = eval_hess_interval(expr, box)
        if isinstance(ref, TupleDual2):
            assert same_interval(value, ref.value)
            for i in range(n):
                assert same_interval(grad[i], ref.grad[i])
                for j in range(n):
                    assert same_interval(hess[0, i, j], ref.hess[i][j])


@pytest.mark.parametrize("n", [1, 2, 3])
def test_stacked_dual2_matches_tuple_reference(n):
    rng = np.random.default_rng(80 + n)
    kinds = set()
    for _ in range(150):
        expr = random_expr(rng, n, 4)
        payloads = random_payloads(rng, n, 5, scale=float(rng.choice([1.0, 1e70])))
        assert_stacked_matches(expr, payloads)
        ref = dual2_outcome(lambda s: eval_any(expr, s), tuple_dual2_seeds(list(payloads)))
        kinds.add(type(ref).__name__)
    assert {"TupleDual2", "DomainError", "float"} <= kinds


@pytest.mark.parametrize(
    "text",
    [
        "x2*(x1*x2)",
        "x1*(x1*x2)",
        "(x1 - x2)*(x1*x2)",
        "(x1*x2)^3 - x1*x2^2",
        "(x1*x2)/(x2 - 3)",
        "sqrt(x1*x2 + 2)*x1",
    ],
)
def test_stacked_dual2_signed_zeros(text):
    # every pair of intervals with a signed-zero endpoint: products of
    # non-point gradients keep the sign of a zero endpoint only when their
    # operands come in the reference's order
    pairs = [(a, b) for a in SIGNED_ZEROS + [(-2.0, 1.0)] for b in SIGNED_ZEROS + [(-2.0, 1.0)]]
    lo = np.array([[a[0], b[0]] for a, b in pairs]).T.copy()
    hi = np.array([[a[1], b[1]] for a, b in pairs]).T.copy()
    assert_stacked_matches(parse_expr(text, 2), IntervalArray(lo, hi))


@settings(max_examples=80, deadline=None)
@given(
    st.integers(1, 3).flatmap(lambda n: st.tuples(expr_strategy(n), st.just(n))),
    st.integers(0, 2**32 - 1),
)
def test_stacked_dual2_matches_tuple_reference_hypothesis(expr_n, seed):
    expr, n = expr_n
    rng = np.random.default_rng(seed)
    scale = float(rng.choice([1.0, 1e40, 1e70]))
    assert_stacked_matches(expr, random_payloads(rng, n, 4, scale))


@pytest.mark.parametrize(
    "text, other, center, delta, error",
    [
        # x^5 - x^5 over a box where both ends of x^5 overflow: inf - inf
        ("(x1*x1*x1*x1*x1 - x1*x1*x1*x1*x1)*x1", [0.5], [1e70], [1e69, -1e69], ValueError),
        ("(x1*x1*x1*x1*x1 - x1*x1*x1*x1*x1)^2", [0.5], [1e70], [1e69, -1e69], ValueError),
        ("x1/(x1 + x2)", [0.5, 0.5], [0.0, 0.0], [0.1, -0.1, 0.1, -0.1], DomainError),
        ("sqrt(x1 - 1)", [1.5], [0.5], [0.1, -0.1], DomainError),
        ("abs(x1*x2)", [0.5, 0.5], [0.0, 1.0], [0.1, -0.1, 0.1, -0.1], DomainError),
        # sqrt at 0, whose gradient is NaN in x2 only (1e308*x2 = 10, whose
        # square's gradient overflows at both ends): entry by entry, the
        # x1 entry meets the divisor [0, ...] first, a DomainError
        (
            "sqrt(x1^2 + (1e308*x2)*(1e308*x2) - (1e308*x2)*(1e308*x2))",
            [0.5, 1e-310],
            [0.0, 1e-307],
            [0.0, 0.0, 0.0, 0.0],
            DomainError,
        ),
    ],
)
def test_stacked_dual2_errors(text, other, center, delta, error):
    """A batch that fails in one box (`center`, `delta`) beside one that does not."""
    n = len(other)
    expr = parse_expr(text, n)
    beside = HyperRect(other, [0.1, -0.1] + [0.0, 0.0] * (n - 1))
    payloads = interval_batch([beside, HyperRect(center, delta)])
    fn = lambda seeds: eval_any(expr, seeds)  # noqa: E731
    ref = dual2_outcome(fn, tuple_dual2_seeds(list(payloads)))
    assert isinstance(ref, error)
    assert_same_dual2(dual2_outcome(fn, dual2_seeds(list(payloads))), ref)
    assert_stacked_matches(expr, payloads)


@pytest.mark.parametrize("n", [2, 3])
def test_stacked_dual2_under_first_order_duals(n):
    """The flow map nests first-order duals over second-order ones."""
    rng = np.random.default_rng(90 + n)
    for _ in range(6):
        texts = [f"-x{i + 1} + 0.3*x{(i + 1) % n + 1}^2" for i in range(n)]
        texts[0] += " - 0.2*x1*x2"
        ct = PiecewiseSystem(n, "continuous", (Region((), _field(n, *texts)),))
        V = CandidateV(np.diag(rng.uniform(0.5, 2.0, n)), 0.999)
        M = int(rng.integers(2, 4))
        fmap = DerivativeAlongFlowMap(ct, euler_discretize(ct, 0.1), V, M, 0, (0,) * (M - 1))
        payloads = random_payloads(rng, n, 6, scale=0.5)
        ref = dual2_outcome(fmap._eval, tuple_dual2_seeds(list(payloads)))
        assert isinstance(ref, TupleDual2)
        assert_same_dual2(dual2_outcome(fmap._eval, dual2_seeds(list(payloads))), ref)


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


def _assert_assessment_matches(fmap, boxes, method=None, pairing=None):
    batched = assess_boxes(fmap, boxes)
    hess = fmap.interval_hessian(interval_batch(boxes))
    ranges = interval_values(fmap, boxes)
    for k, box in enumerate(boxes):
        ref = scalar_assess(fmap, box)
        # the same box alone, through the one-box call with retired options
        for got in (batched[k], assess_branch(fmap, box, method, pairing)):
            assert same(got.value, ref.value)
            assert same(got.split.a, ref.split.a) and same(got.split.b, ref.split.b)
        H = scalar_hessian(fmap, box)
        one = fmap.interval_hessian(box.to_interval_vector())
        n = box.n
        for i in range(n):
            for j in range(n):
                assert same(hess.lo[k, i, j], H[i][j].lo) and same(hess.hi[k, i, j], H[i][j].hi)
                assert same(one.lo[0, i, j], H[i][j].lo) and same(one.hi[0, i, j], H[i][j].hi)
        rng = scalar_range(fmap, box)
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
                dist = np.max(np.abs(x - box.center))
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
        scalar_assess(fmap, far)
    except ValueError:  # a NaN gradient makes a NaN point interval
        with pytest.raises(ValueError):
            assess_boxes(fmap, [far, near])
        with pytest.raises(ValueError):
            assess_branch(fmap, far, method, pairing)
    else:
        _assert_assessment_matches(fmap, [far, near], method, pairing)
    # over [9e69, 1.1e70] both endpoints overflow and inf - inf follows:
    # the scalar path refuses the NaN endpoint, and so does the batch
    both = HyperRect([1e70], [1e69, -1e69])
    with pytest.raises(ValueError):
        scalar_assess(fmap, both)
    with pytest.raises(ValueError):
        assess_boxes(fmap, [near, both])
    with pytest.raises(ValueError):
        assess_branch(fmap, both, method, pairing)


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
    st.sampled_from(["decrease", "sum_iter", "flow"]),
)
def test_assess_boxes_matches_scalar_hypothesis(switched_sys, specs, kind):
    fmap = dict(_maps(switched_sys))[kind]
    boxes = [HyperRect([c1, c2], [h1, -h1, h2, -h2]) for c1, c2, h1, h2 in specs]
    _assert_assessment_matches(fmap, boxes)


# -- whole boxes and W bounds ------------------------------------------------------


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("pairing", PAIRINGS)
def test_verify_boxes_matches_scalar(switched_sys, method, pairing):
    ctx = DecreaseContext(switched_sys, CandidateV(np.eye(2), 0.999), 3, None, 64)
    boxes = _boxes(np.random.default_rng(43), 12)
    batched = verify_boxes(ctx, boxes)
    for box, got in zip(boxes, batched):
        assert same_outcome(got, scalar_verify(ctx, box))
        assert same_outcome(got, verify_box(ctx, box, method, pairing))


def test_w_lower_bounds_match_scalar(switched_sys):
    rng = np.random.default_rng(44)
    boxes = _boxes(rng, 4)
    V = CandidateV(np.eye(2), 0.999)
    wctx = WContext(switched_sys, V, 3, None, 64)
    for sub in (None, 0.1):
        got = wctx.lower_bounds(boxes, sub)
        for box, lb in zip(boxes, got):
            assert same_bound(lb, scalar_lower_bound(wctx, box, sub))
            assert same_bound(lb, wctx.lower_bound_over_box(box, sub))
        # the retired pairing argument of WContext changes nothing
        for pairing in PAIRINGS:
            legacy = WContext(switched_sys, V, 3, None, 64, pairing).lower_bounds(boxes, sub)
            assert all(same_bound(a, b) for a, b in zip(legacy, got))
    ranges = wctx.interval_values_over_boxes(boxes)
    for box, got in zip(boxes, ranges):
        ref = None
        for seq in scalar_ctx_branches(wctx, box):
            rng = scalar_range(wctx.map_for([seq]), box)
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
    reference = [scalar_verify(ctx, box) for box in boxes]
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
                enumerated.append(scalar_ctx_branches(ctx, box))
            except DomainError:
                pass
    assert enumerated


# -- one branch map over the (box, branch) rows of a pass ------------------------------


def grouped_by_branch(ctx, boxes, errors, *evaluations):
    """by_branch with one batch per branch sequence, over the boxes that
    can follow it, each retried box by box through batch_or_each: the
    reference for the one batch over all (box, branch) rows of a pass."""
    boxes = BoxArray.of(boxes)
    branches = ctx.boxes_branches(boxes)
    groups = {}
    for k, seqs in enumerate(branches):
        for seq in () if isinstance(seqs, Exception) else seqs:
            groups.setdefault(seq, []).append(k)
    found = {}
    for seq, keys in groups.items():
        fmap, group = ctx.map_for([seq]), boxes.take(keys)
        results = [batch_or_each(lambda bs: ev(fmap, bs), group, errors) for ev in evaluations]
        found.update(((k, seq), res) for k, *res in zip(keys, *results))
    return branches, found


def same_item(got, ref):
    """Equal per-row results: the same bits, or errors of one type and message."""
    if isinstance(ref, Exception):
        return type(got) is type(ref) and str(got) == str(ref)
    if isinstance(ref, BranchBounds):
        return (
            isinstance(got, BranchBounds)
            and same(got.value, ref.value)
            and same(got.split.a, ref.split.a)
            and same(got.split.b, ref.split.b)
        )
    if isinstance(ref[0], BranchBounds):  # (assessment, (lo, hi))
        return same_item(got[0], ref[0]) and same_item(got[1], ref[1])
    return all(same(a, b) for a, b in zip(got, ref))  # (lo, hi)


def assert_same_pass(got, ref):
    branches, found = got
    ref_branches, ref_found = ref
    assert [repr(b) for b in branches] == [repr(b) for b in ref_branches]
    assert found.keys() == ref_found.keys()
    for key, results in ref_found.items():
        assert all(same_item(a, b) for a, b in zip(found[key], results)), key


def same_range(got, ref):
    return (got is None and ref is None) or (
        got is not None and ref is not None and same(got.lo, ref.lo) and same(got.hi, ref.hi)
    )


def _guard_sys(mode, up, down):
    """Two regions split at x2 = 0 (x2 >= 0 and x2 < 0) with the given fields."""
    x2 = parse_expr("x2", 2)
    regions = (Region((Guard(x2, ">="),), _field(2, *up)), Region((Guard(x2, "<"),), _field(2, *down)))
    return PiecewiseSystem(2, mode, regions)


SWITCHED = (("0.5*x1", "-0.8*x2 - x1^2"), ("0.5*x1 + x1*x2", "-0.8*x2"))
ROW_SYSTEMS = {
    "switched": SWITCHED,
    # the upper region's constant x2 component is a plain float: beside the
    # lower region's interval payloads it does not stitch, and the rows are
    # retried alone
    "constant": (("0.5*x1", "0.25"), SWITCHED[1]),
    # sqrt(x1^2) has a value over a box around x1 = 0 but no derivative: only
    # the lower region's rows of such a box fail
    "domain": (SWITCHED[0], ("0.5*x1 + x1*x2", "-0.8*x2 + 0.1*sqrt(x1^2)")),
}


def _passes(sys_, V, M, boxes):
    """(context, errors, evaluations, run, equality) of the verifier, the W
    bounds and the W ranges: `run` gives the results, and by_branch(context,
    boxes, errors, *evaluations) is the pass it makes.  Each run of the W
    bounds has a context of its own, so that it reads no bound another run
    left in the context's memo."""
    dctx = DecreaseContext(sys_, V, M, None, 64)
    wctx = WContext(sys_, V, M, None, 64)

    def w_bounds():
        fresh = WContext(sys_, V, M, None, 64)
        return fresh.lower_bounds(boxes) + fresh.lower_bounds(boxes, 0.2)

    return [
        (dctx, _EVAL_ERRORS, (assess_boxes,), lambda: verify_boxes(dctx, boxes), same_outcome),
        (wctx, _W_ERRORS, (assess_ranges,), w_bounds, same_bound),
        (
            wctx,
            _W_ERRORS,
            (interval_values,),
            lambda: WContext(sys_, V, M, None, 64).interval_values_over_boxes(boxes),
            same_range,
        ),
    ]


def _assert_rows_match_groups(monkeypatch, passes, boxes):
    """Each pass and its result, by the one row batch and by the per-sequence
    reference in its place, bit for bit."""
    for ctx, errors, evaluations, run, same_result_of in passes:
        got = run()
        with monkeypatch.context() as m:
            m.setattr(bounds_module, "by_branch", grouped_by_branch)
            m.setattr(verifier_module, "by_branch", grouped_by_branch)
            ref = run()
        assert len(got) == len(ref)
        assert all(same_result_of(a, b) for a, b in zip(got, ref))
        assert_same_pass(
            by_branch(ctx, boxes, errors, *evaluations),
            grouped_by_branch(ctx, boxes, errors, *evaluations),
        )


def _calls(ctx, boxes, errors, evaluation):
    """by_branch with one evaluation, the rows, as (box index, branch) keys,
    of each of its calls, and the indices of the calls that raised."""
    calls, maps, raised = [], [], set()
    index = {key: k for k, key in enumerate(BoxArray.of(boxes).keys())}
    map_for = ctx.map_for

    def recording(branches):
        maps.append(list(branches))
        return map_for(branches)

    def counted(fmap, bs):
        calls.append([(index[key], seq) for key, seq in zip(BoxArray.of(bs).keys(), maps[-1])])
        try:
            return evaluation(fmap, bs)
        except errors:
            raised.add(len(calls) - 1)
            raise

    ctx.map_for = recording
    try:
        return by_branch(ctx, boxes, errors, counted), calls, raised
    finally:
        del ctx.map_for


@pytest.mark.parametrize("kind", sorted(ROW_SYSTEMS))
def test_branch_rows_match_per_sequence_groups(kind, monkeypatch):
    sys_ = _guard_sys("discrete", *ROW_SYSTEMS[kind])
    V = CandidateV(np.diag([1.0, 2.0]), 0.999)
    boxes = _boxes(np.random.default_rng(45), 8)
    _assert_rows_match_groups(monkeypatch, _passes(sys_, V, 3, boxes), boxes)

    dctx = DecreaseContext(sys_, V, 3, None, 64)
    (_, found), calls, raised = _calls(dctx, boxes, _EVAL_ERRORS, assess_boxes)
    rows = np.array([seq for _, seq in found])
    # boxes on and across x2 = 0 put both regions into one step's column
    assert any(len(set(col)) > 1 for col in rows.T)
    assert calls[0] == list(found)  # one evaluation for the whole pass
    if kind == "switched":
        assert len(calls) == 1
        return
    # the merged batch raised; each sequence's rows were retried as one
    # batch, in order of first appearance, and a batch that still raised
    # was halved down to the rows that raise alone
    groups = {}
    for key in found:
        groups.setdefault(key[1], []).append(key)
    whole = [call for call in calls[1:] if call in groups.values()]
    assert whole == list(groups.values())
    assert all(len({seq for _, seq in call}) == 1 for call in calls[1:])
    errs = {key: res[0] for key, res in found.items() if isinstance(res[0], Exception)}
    if kind == "constant":
        assert not errs  # no sequence's batch needs a stitch
        assert calls[1:] == whole
        return
    assert errs and all(1 in seq for _, seq in errs)
    for i, call in enumerate(calls[1:], 1):
        parents = [p for j, p in enumerate(calls[:i]) if j in raised]
        halves = [(p[: len(p) // 2], p[len(p) // 2 :]) for p in parents]
        assert call in whole or any(call in pair for pair in halves)
    assert all([key] in calls for key in errs)  # each failing row ends alone
    # a box with a failed row keeps the results of its other rows
    failed = {k for k, _ in errs}
    assert any(key[0] in failed and key not in errs for key in found)


def test_flow_rows_match_per_sequence_groups(monkeypatch):
    ct = _guard_sys("continuous", ("-x1 + x2^2", "-2*x2 + x1*x2"), ("-x1", "-2*x2 - x1^2"))
    V = CandidateV(np.diag([1.0, 2.0]), 0.999)
    ctx = FlowDerivativeContext(ct, euler_discretize(ct, 0.1), V, 3, None, 64)
    boxes = _boxes(np.random.default_rng(46), 8)
    run = lambda: verify_boxes(ctx, boxes)  # noqa: E731
    _assert_rows_match_groups(monkeypatch, [(ctx, _EVAL_ERRORS, (assess_boxes,), run, same_outcome)], boxes)
    (_, found), calls, _ = _calls(ctx, boxes, _EVAL_ERRORS, assess_boxes)
    assert calls == [list(found)]
    assert {r for _, (r, _) in found} == {0, 1}  # rows of both flow regions in one batch


def test_branch_map_rows(switched_sys):
    """A tuple builds the one-row map; row k of a matrix is the one-row map
    of its sequence, evaluated on entry k alone."""
    V = CandidateV(np.diag([1.0, 2.0]), 0.999)
    ct = euler_ct()
    dt = euler_discretize(ct, 0.1)
    rng = np.random.default_rng(47)
    boxes = _boxes(rng, 6)
    ivec = interval_batch(boxes)
    pairs = [
        (DecreaseMap(switched_sys, V, 3, (1, 0, 0)), DecreaseMap(switched_sys, V, 3, [[1, 0, 0]])),
        (SumOfIteratesMap(switched_sys, V, 3, (0, 1)), SumOfIteratesMap(switched_sys, V, 3, [[0, 1]])),
        (SumOfIteratesMap(switched_sys, V, 1, ()), SumOfIteratesMap(switched_sys, V, 1, np.zeros((1, 0)))),
        (DerivativeAlongFlowMap(ct, dt, V, 2, 0, (0,)), DerivativeAlongFlowMap(ct, dt, V, 2, [0], [[0]])),
    ]
    for one, row in pairs:
        for a, b in zip(assess_boxes(one, boxes), assess_boxes(row, boxes)):
            assert same_item(a, b)
        for a, b in zip(interval_values(one, boxes), interval_values(row, boxes)):
            assert same_item(a, b)
        h1, h2 = one.interval_hessian(ivec), row.interval_hessian(ivec)
        assert h1.lo.tobytes() == h2.lo.tobytes() and h1.hi.tobytes() == h2.hi.tobytes()
        assert same(one.value(boxes[0].center), row.value(boxes[0].center))

    seqs = [tuple(s) for s in rng.integers(0, 2, size=(len(boxes), 3)).tolist()]
    rows = DecreaseMap(switched_sys, V, 3, seqs)
    hess = rows.interval_hessian(ivec)
    for k, (box, seq) in enumerate(zip(boxes, seqs)):
        alone = DecreaseMap(switched_sys, V, 3, seq)
        assert same_item(assess_boxes(rows, boxes)[k], assess_boxes(alone, [box])[0])
        assert same_item(interval_values(rows, boxes)[k], interval_values(alone, [box])[0])
        h = alone.interval_hessian(box.to_interval_vector())
        assert hess.lo[k].tobytes() == h.lo[0].tobytes() and hess.hi[k].tobytes() == h.hi[0].tobytes()

    with pytest.raises(ValueError):
        DecreaseMap(switched_sys, V, 3, [[0, 1]])
    with pytest.raises(ValueError):
        DerivativeAlongFlowMap(ct, dt, V, 2, [0, 0], [[0]])


# -- batched branch enumeration -------------------------------------------------------


def _two_piece(up_rel, down_rel):
    """switched_sys with the strictness of its two guards on x2 chosen."""
    from lyapcert.system import Guard, PiecewiseSystem, Region

    x2 = parse_expr("x2", 2)
    up = Region((Guard(x2, up_rel),), _field(2, "0.5*x1", "-0.8*x2 - x1^2"))
    down = Region((Guard(x2, down_rel),), _field(2, "0.5*x1 + x1*x2", "-0.8*x2"))
    return PiecewiseSystem(2, "discrete", (up, down))


def _sqrt_sys():
    """Two regions with sqrt in a guard and in a field, and a gap.

    Region 0 needs x2 >= 0 and then sqrt(x1 + 1) > 0.5, a guard that
    leaves its domain for x1 < -1 and leaves x2 >= 0, x1 <= -0.75
    uncovered; region 1 (x2 < 0) takes sqrt(x1 + 0.9) in its field.
    """
    from lyapcert.system import Guard, PiecewiseSystem, Region

    up = Region(
        (Guard(parse_expr("x2", 2), ">="), Guard(parse_expr("sqrt(x1 + 1) - 0.5", 2), ">")),
        _field(2, "0.5*x1 + 0.3*x2", "-0.8*x2 + 0.2*x1^2"),
    )
    down = Region(
        (Guard(parse_expr("x2", 2), "<"),),
        _field(2, "0.6*x1 + 0.1*sqrt(x1 + 0.9)", "-0.7*x2 + 0.1*x1"),
    )
    return PiecewiseSystem(2, "discrete", (up, down))


def _enum_boxes(rng):
    """Random boxes over [-1.3, 1.3]^2, and boxes that straddle, touch or
    lie flat on x2 = 0."""
    out = _boxes(rng, 40)
    for c1 in (-1.1, -0.8, -0.3, 0.6, 1.1):
        out.append(HyperRect([c1, 0.0], [0.1, -0.1, 0.1, -0.1]))  # straddles
        out.append(HyperRect([c1, 0.1], [0.1, -0.1, 0.1, -0.1]))  # touches from above
        out.append(HyperRect([c1, -0.1], [0.1, -0.1, 0.1, -0.1]))  # touches from below
        out.append(HyperRect([c1, 0.0], [0.1, -0.1, 0.0, 0.0]))  # flat on the guard
    out += [HyperRect(c, [0.3, -0.3, 0.3, -0.3]) for c in rng.uniform(-1.3, 1.3, (10, 2))]
    out += [HyperRect([-0.9, c2], [0.05, -0.05, 0.05, -0.05]) for c2 in (0.1, 0.5)]  # gap of _sqrt_sys
    return out


# (M, domain, cap): plain walks, walks that leave a tight domain, and caps
# of 1 and 2 that boxes straddling the guard exceed
WALKS = [
    (1, None, 64),
    (3, None, 64),
    (3, HyperRect([0.0, 0.0], [1.0, -1.0, 1.0, -1.0]), 64),
    (3, None, 1),
    (2, HyperRect([0.0, 0.0], [1.2, -1.2, 1.2, -1.2]), 2),
]


def _assert_enumeration_matches(sys_, boxes, walks):
    from lyapcert.system import enumerate_box_branches, enumerate_boxes_branches

    kinds = set()
    for M, domain, cap in walks:
        batched = enumerate_boxes_branches(sys_, boxes, M, domain, cap)
        assert len(batched) == len(boxes)
        for box, got in zip(boxes, batched):
            ref = outcome_of(scalar_box_branches, sys_, box, M, domain, cap)
            one = outcome_of(enumerate_box_branches, sys_, box, M, domain, cap)
            assert same_result(got, ref), (box, M, domain, cap, got, ref)
            assert same_result(one, ref), (box, M, domain, cap, one, ref)
            assert same_result(got, one), (box, M, domain, cap, got, one)
            kinds.add(type(ref).__name__)
    return kinds


@pytest.mark.parametrize("rels", [(">=", "<"), (">", "<="), (">=", "<=")])
def test_enumerate_boxes_branches_matches_scalar(rels):
    kinds = _assert_enumeration_matches(_two_piece(*rels), _enum_boxes(np.random.default_rng(61)), WALKS)
    assert {"list", "DomainExit", "BranchOverflowError"} <= kinds


def test_enumerate_boxes_branches_failure_order():
    # guard domain errors, image domain errors and boxes covered by no
    # region, mixed with the failures of the walks above: each box must
    # report the failure its own walk meets first
    kinds = _assert_enumeration_matches(_sqrt_sys(), _enum_boxes(np.random.default_rng(62)), WALKS)
    assert {"list", "DomainError", "CoverageError", "DomainExit", "BranchOverflowError"} <= kinds


def test_enumerate_boxes_branches_state_order():
    # a box straddling x1 = 0 has the states (0,) and (1,) after one step;
    # at the next, (0,) leaves the domain and (1,) meets a guard domain
    # error, so the box's failure depends on the order of its states
    from lyapcert.system import Guard, PiecewiseSystem, Region

    x1 = parse_expr("x1", 1)
    sys_ = PiecewiseSystem(
        1,
        "discrete",
        (
            Region((Guard(x1, ">="),), _field(1, "x1 + 2")),
            Region((Guard(x1, "<"), Guard(parse_expr("sqrt(x1 + 2)", 1), ">=")), _field(1, "x1 - 2")),
        ),
    )
    boxes = [HyperRect([c], [h, -h]) for c, h in ((0.0, 0.1), (0.5, 0.1), (-0.5, 0.1), (0.02, 0.05))]
    domain = HyperRect([0.0], [3.0, -3.0])
    kinds = _assert_enumeration_matches(sys_, boxes, [(3, domain, 64), (3, None, 64)])
    assert {"list", "DomainExit", "DomainError"} <= kinds
    assert isinstance(outcome_of(scalar_box_branches, sys_, boxes[0], 3, domain), DomainExit)
    assert isinstance(outcome_of(scalar_box_branches, sys_, boxes[0], 3), DomainError)


def test_enumerate_boxes_branches_powertrain_domain_errors():
    from lyapcert.system import enumerate_boxes_branches

    cfg = RunConfig.from_file(CONFIG_DIR / "example_powertrain.json")
    dsys = cfg.discrete_system()
    # along x1 - 0.7975: upper edges past 0.2025 put sqrt(x1*(1 - x1)) out of its domain
    specs = [(c, 0.0125) for c in np.linspace(0.0, 0.26, 14)]
    boxes = [HyperRect([c, 0.02, -0.01], [h, -h, 0.0125, -0.0125, 0.0125, -0.0125]) for c, h in specs]
    kinds = _assert_enumeration_matches(dsys, boxes, [(1, None, 64), (2, None, 64)])
    assert {"list", "DomainError"} <= kinds
    assert enumerate_boxes_branches(dsys, [], 2) == []


X5 = "x1*x1*x1*x1*x1"
# both endpoints of x^5 overflow, and inf - inf follows: a NaN endpoint,
# which the scalar path refuses at once; the operations after it must not
# turn it back into a number (a product with it would be the whole line,
# and the hull of a quotient would leave it out)
NAN_CASES = [((f"({X5} - {X5}){tail}",), [1e70], [1e69, -1e69]) for tail in ("", "*x1", "^2", "^0")]
NAN_CASES.append(
    (
        (f"({X5} - x2*x2*x2*x2*x2)/(x1 + 2)", "x2"),
        [0.5e70, 1.05e70],  # x1 in [0, 1e70], x2 in [1e70, 1.1e70]
        [0.5e70, -0.5e70, 0.05e70, -0.05e70],
    )
)


@pytest.mark.parametrize("texts, center, delta", NAN_CASES)
def test_enumerate_boxes_branches_nan_enclosure(texts, center, delta):
    from lyapcert.system import PiecewiseSystem, Region, enumerate_boxes_branches

    n = len(texts)
    sys_ = PiecewiseSystem(n, "discrete", (Region((), _field(n, *texts)),))
    both = HyperRect(center, delta)
    with pytest.raises(ValueError):
        scalar_box_branches(sys_, both, 1)
    with pytest.raises(ValueError):
        enumerate_boxes_branches(sys_, [HyperRect([0.5] * n, [0.1, -0.1] * n), both], 1)


def test_enumerate_boxes_branches_nan_guard():
    from lyapcert.system import Guard, PiecewiseSystem, Region, enumerate_boxes_branches

    # abs of [-inf, NaN] must not become [0, inf]
    guard = Guard(parse_expr(f"abs({X5} - x2*x2*x2*x2*x2) - 1", 2), ">=")
    sys_ = PiecewiseSystem(2, "discrete", (Region((guard,), _field(2, "x1", "x2")),))
    box = HyperRect(*NAN_CASES[-1][1:])
    with pytest.raises(ValueError):
        scalar_box_branches(sys_, box, 1)
    with pytest.raises(ValueError):
        enumerate_boxes_branches(sys_, [box], 1)


def test_flow_context_branches_match_scalar():
    from lyapcert.system import Guard, PiecewiseSystem, Region

    x2 = parse_expr("x2", 2)
    ct = PiecewiseSystem(
        2,
        "continuous",
        (
            Region((Guard(x2, ">="),), _field(2, "-x1 + x2^2", "-2*x2")),
            Region((Guard(x2, "<"),), _field(2, "-x1", "-2*x2 + x1*x2")),
        ),
    )
    dt = euler_discretize(ct, 0.1)
    boxes = _enum_boxes(np.random.default_rng(63))
    V = CandidateV(np.eye(2), 0.999)
    kinds = set()
    tight = HyperRect([0.0, 0.0], [1.0, -1.0, 1.0, -1.0])
    for M, domain, cap in [(3, None, 64), (3, None, 2), (3, tight, 64)]:
        ctx = FlowDerivativeContext(ct, dt, V, M, domain, cap)
        for box, got in zip(boxes, ctx.boxes_branches(boxes)):
            ref = outcome_of(scalar_ctx_branches, ctx, box)
            assert same_result(got, ref), (box, got, ref)
            kinds.add(type(ref).__name__)
    assert {"list", "BranchOverflowError", "DomainExit"} <= kinds


# -- batched point walks ------------------------------------------------------------


def _tie_sys():
    """x2 > 0 and x2 < 0 only: x2 = 0 is a tie; x2 = 0.5 steps onto it."""
    from lyapcert.system import Guard, PiecewiseSystem, Region

    x2 = parse_expr("x2", 2)
    return PiecewiseSystem(
        2,
        "discrete",
        (
            Region((Guard(x2, ">"),), _field(2, "0.5*x1", "x2 - 0.5")),
            Region((Guard(x2, "<"),), _field(2, "0.5*x1", "-0.5*x2")),
        ),
    )


def _points(rng):
    """Random points, points on the guard x2 = 0 and points one step before it."""
    X = rng.uniform(-1.3, 1.3, (150, 2))
    on_guard = np.column_stack([rng.uniform(-1.3, 1.3, 20), np.zeros(20)])
    before = np.column_stack([rng.uniform(-1.3, 1.3, 10), np.full(10, 0.5)])
    return np.vstack([X, on_guard, before, [[0.0, 0.0], [-0.0, -0.0]]])


@pytest.mark.parametrize(
    "make_sys", [lambda: _two_piece(">=", "<"), lambda: _two_piece(">", "<="), _sqrt_sys, _tie_sys]
)
def test_w_point_values_match_scalar(make_sys):
    from lyapcert.bounds import w_point_value, w_point_values

    sys_ = make_sys()
    V = CandidateV(np.diag([1.0, 2.0]), 0.999)
    X = _points(np.random.default_rng(71))
    kinds = set()
    for M in (1, 2, 4):
        got = w_point_values(sys_, V, M, X)
        from_ctx = WContext(sys_, V, M).values(X)
        for x, w, wc in zip(X, got, from_ctx):
            ref = outcome_of(scalar_w_point, sys_, V, M, x)
            assert same_result(w, ref), (x, M, w, ref)
            assert same_result(wc, ref)
            assert same_result(outcome_of(w_point_value, sys_, V, M, x), ref)
            kinds.add(type(ref).__name__)
    assert "float" in kinds
    if make_sys is _tie_sys:
        assert "TieError" in kinds
    if make_sys is _sqrt_sys:
        assert {"CoverageError", "DomainError"} <= kinds


def test_validate_coverage_raises_the_scalar_error():
    from lyapcert.system import region_of, validate_coverage

    sys_ = _sqrt_sys()
    for S, kind in (
        (HyperRect([0.0, 0.0], [1.0, -1.0, 1.0, -1.0]), CoverageError),  # gap, no guard errors
        (HyperRect([0.0, 0.0], [1.3, -1.3, 1.3, -1.3]), LyapcertError),
    ):
        X = np.random.default_rng(5).uniform(S.lower, S.upper, size=(300, 2))
        ref = None
        for x in X:
            ref = outcome_of(region_of, sys_, x)
            if isinstance(ref, Exception):
                break
        assert isinstance(ref, kind)
        assert same_result(outcome_of(validate_coverage, sys_, S, 300, 5), ref)
    covered = HyperRect([0.0, 0.0], [1.5, -1.5, 1.5, -1.5])
    assert validate_coverage(_two_piece(">=", "<"), covered, 300) is None


def test_local_set_audit_reaches_errors_like_the_point_loop():
    from types import SimpleNamespace

    from lyapcert.levelset import _local_set_inside_level

    sys_ = _sqrt_sys()  # the unit circle crosses its gap (x2 >= 0, x1 <= -0.75)
    V = CandidateV(np.diag([1.0, 2.0]), 0.999)
    wctx = WContext(sys_, V, 3)
    local = SimpleNamespace(P_L=np.eye(2), level_L=1.0)
    # the audit's points, as _local_set_inside_level draws them
    rng = np.random.default_rng(7)
    U = rng.normal(size=(512, 2))
    U /= np.linalg.norm(U, axis=1, keepdims=True)
    refs = [outcome_of(scalar_w_point, sys_, V, 3, x) for x in U]
    first_error = next(k for k, r in enumerate(refs) if isinstance(r, Exception))
    assert first_error > 1 and isinstance(refs[first_error], LyapcertError)
    assert any(isinstance(r, CoverageError) for r in refs)
    top = max(refs[:first_error])

    def scalar_audit(Lbar):
        for r in refs:
            if isinstance(r, Exception):
                raise r
            if r > Lbar:
                return False
        return True

    # below `top` a point before the first error exceeds Lbar; at `top`
    # the loop reaches that error
    for Lbar in (0.0, np.nextafter(top, 0.0), top, math.inf):
        got = outcome_of(_local_set_inside_level, wctx, local, Lbar)
        assert same_result(got, outcome_of(scalar_audit, Lbar)), Lbar


# -- the local certificate's hole audit ------------------------------------------------


def scalar_hole_escapes(dsys, boxes, P, level):
    """The box-by-box hole audit of verify_local over RefIntervals."""
    for box in boxes:
        ivec = ref_box(box)
        low = quad_form(P, ivec)
        if not (low.lo if isinstance(low, RefInterval) else low) <= level:
            continue
        for ridx in scalar_regions_intersecting(dsys, ivec):
            v = quad_form(P, [ref_eval(c, ivec) for c in dsys.regions[ridx].field.components])
            if (v.hi if isinstance(v, RefInterval) else v) > level:
                return True
    return False


def _overflow_sys():
    """x1^5 - x1^5 is inf - inf for boxes near x1 = 1e70."""
    field = _field(2, f"{X5} - {X5} + 0.5*x1", "0.5*x2")
    return PiecewiseSystem(2, "discrete", (Region((), field),))


def _escape_or_error_sys():
    """Above x2 = 0 the image of x1 ~ 0.5 leaves {|x| <= 0.7}; below it,
    sqrt(x1 - 1) leaves its domain."""
    x2 = parse_expr("x2", 2)
    return PiecewiseSystem(
        2,
        "discrete",
        (
            Region((Guard(x2, ">="),), _field(2, "2*x1", "x2")),
            Region((Guard(x2, "<"),), _field(2, "sqrt(x1 - 1)", "x2")),
        ),
    )


@pytest.mark.parametrize(
    "make_sys", [lambda: _two_piece(">=", "<"), _sqrt_sys, _overflow_sys, _escape_or_error_sys]
)
def test_hole_audit_matches_box_loop(make_sys):
    from lyapcert.localyap import _hole_escapes

    def outcome(fn, *args):
        try:
            return fn(*args)
        except (LyapcertError, ValueError, OverflowError) as exc:
            return exc

    sys_ = make_sys()
    rng = np.random.default_rng(76)
    boxes = _enum_boxes(rng) + [
        HyperRect([1e70, 0.0], [1e69, -1e69, 0.1, -0.1]),  # an image with a NaN endpoint
        HyperRect([1e200, 1e200], [1e199, -1e199, 1e199, -1e199]),  # squares overflow
        # 2 x^2 is inf at both ends, x1 x2 (-4) is -inf: x'Px is inf - inf
        HyperRect([1.3e154, 1.3e154], [1e150, -1e150, 1e150, -1e150]),
        # meets both regions of _escape_or_error_sys: the first escapes,
        # the second leaves the domain of sqrt
        HyperRect([0.5, 0.0], [0.1, -0.1, 0.1, -0.1]),
    ]
    kinds = set()
    Ps = (np.eye(2), np.array([[2.0, -2.0], [-2.0, 2.0]]), np.diag([0.0, 1.0]), np.zeros((2, 2)))
    for P in Ps:
        for level in (0.05, 0.5, 2.0):
            # orders and subsets in which an escape comes before or after an error
            subsets = [boxes, boxes[::-1]]
            for _ in range(3):
                order = rng.permutation(len(boxes))[: rng.integers(1, len(boxes))]
                subsets.append([boxes[k] for k in order])
            for sub in subsets:
                ref = outcome(scalar_hole_escapes, sys_, sub, P, level)
                with np.errstate(over="ignore", invalid="ignore"):
                    got = outcome(_hole_escapes, sys_, sub, P, level)
                assert same_result(got, ref), (P, level, got, ref)
                kinds.add(ref if isinstance(ref, bool) else type(ref).__name__)
    assert {True, "OverflowError", "ValueError"} <= kinds
    if make_sys is _escape_or_error_sys:
        # a box's regions in order: the escape comes before the error
        assert _hole_escapes(sys_, boxes[-1:], np.eye(2), 0.5) is True
        assert "DomainError" in kinds
    else:
        assert False in kinds
    if make_sys is _sqrt_sys:
        assert "DomainError" in kinds


def test_verify_local_matches_box_loop(switched_sys):
    from lyapcert.localyap import max_level_in_box, verify_local
    from lyapcert.verifier import VerifyConfig, build_certified_region

    N1 = HyperRect([0.0, 0.0], [0.3, -0.3, 0.3, -0.3])
    for P in (np.eye(2), np.diag([1.0, 3.0])):
        cert = verify_local(switched_sys, P, N1, 0.05)
        cfg = VerifyConfig(S=N1, delta_min=0.05, M=1, M_max=1, rho_c=0.999)
        ctx = DecreaseContext(switched_sys, CandidateV(P, 0.999), 1, cfg.domain, cfg.branch_cap)
        wrong = [rec.box() for rec in build_certified_region(cfg, ctx).ledger.wrong]
        assert wrong
        escapes = scalar_hole_escapes(switched_sys, wrong, P, max_level_in_box(P, N1))
        assert cert.verified is not escapes
        note = "undecided region near the origin escapes the level set"
        assert cert.note == (note if escapes else None)


def test_memoised_w_bounds_match_a_fresh_context(switched_sys, monkeypatch):
    """A bound the context kept equals a fresh context's bound for the same
    box in another batch, at both resolutions of the level and the audit,
    and reading it makes no pass."""
    V = CandidateV(np.diag([1.0, 2.0]), 0.999)
    boxes = _boxes(np.random.default_rng(47), 6)
    others = _boxes(np.random.default_rng(48), 3)[:3]  # not the fixed boxes of _boxes
    passes = []
    original = bounds_module.by_branch

    def counted(ctx, bs, *args):
        passes.append(len(bs))
        return original(ctx, bs, *args)

    monkeypatch.setattr(bounds_module, "by_branch", counted)
    for sub in (0.1, 0.1 / 4.0):
        wctx = WContext(switched_sys, V, 3, None, 64)
        first = wctx.lower_bounds(boxes, sub)
        assert len(passes) == 1
        # the same boxes as new objects, reversed: all read from the memo
        copies = [HyperRect(b.center, b.delta) for b in reversed(boxes)]
        assert all(same_bound(a, b) for a, b in zip(wctx.lower_bounds(copies, sub), first[::-1]))
        assert all(same_bound(wctx.lower_bound_over_box(b, sub), lb) for b, lb in zip(boxes, first))
        assert len(passes) == 1
        # a batch with new boxes bounds only those
        wctx.lower_bounds(others + boxes[:2], sub)
        assert passes[-1] == len(wctx._pieces(BoxArray.of(others), [sub] * len(others))[0])
        for k, box in enumerate(boxes):
            fresh = WContext(switched_sys, V, 3, None, 64).lower_bounds([others[k % 3], box], sub)[1]
            assert same_bound(first[k], fresh)
            assert same_bound(first[k], scalar_lower_bound(wctx, box, sub))
        passes.clear()
