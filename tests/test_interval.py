import math
import struct
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lyapcert import HyperRect
from lyapcert.errors import DomainError
from lyapcert.expr import eval_batch, eval_real, parse_expr
from lyapcert.interval import Interval, IntervalArray

from oracles import RefInterval


def test_add_endpoints():
    r = Interval(1, 2) + Interval(3, 5)
    assert r.lo <= 4 <= 7 <= r.hi
    assert r.lo == pytest.approx(4, rel=1e-14)
    assert r.hi == pytest.approx(7, rel=1e-14)


def test_mul_endpoint_products():
    r = Interval(-1, 2) * Interval(3, 4)
    assert r.lo == pytest.approx(-4, rel=1e-14)
    assert r.hi == pytest.approx(8, rel=1e-14)
    assert r.lo <= -4 and r.hi >= 8  # outward


def test_div_by_zero_interval():
    with pytest.raises(DomainError):
        Interval(1, 2) / Interval(0, 1)


def test_div_values():
    r = Interval(1, 2) / Interval(2, 4)
    assert r.lo == pytest.approx(0.25, rel=1e-14)
    assert r.hi == pytest.approx(1.0, rel=1e-14)


def test_sqrt_monotone():
    r = Interval(4, 9).sqrt()
    assert r.lo == pytest.approx(2, rel=1e-14)
    assert r.hi == pytest.approx(3, rel=1e-14)


def test_sqrt_clamps_tiny_negative():
    r = Interval(-1e-13, 4).sqrt()
    assert r.lo == 0.0
    assert r.hi >= 2.0


def test_sqrt_negative_rejected():
    with pytest.raises(DomainError):
        Interval(-2, -1).sqrt()


def test_pow_even_through_zero():
    r = Interval(-1, 2).pow_int(2)
    assert r.lo == 0.0
    assert r.hi == pytest.approx(4, rel=1e-14)


def test_pow_odd():
    r = Interval(-2, 3).pow_int(3)
    assert r.lo == pytest.approx(-8, rel=1e-14)
    assert r.hi == pytest.approx(27, rel=1e-14)


def test_abs_straddling():
    r = abs(Interval(-3, 2))
    assert (r.lo, r.hi) == (0.0, 3.0)


def test_magnitude():
    assert Interval(-3, 2).magnitude() == 3
    assert Interval(0, 0).magnitude() == 0
    assert Interval(1.5, 2.5).magnitude() == 2.5


def test_invalid_construction():
    with pytest.raises(ValueError):
        Interval(2, 1)
    with pytest.raises(ValueError):
        Interval(float("nan"), 1)


def _rand_interval(rng, span=4.0):
    a, b = sorted(rng.uniform(-span, span, 2))
    return Interval(a, b)


def _compose(x, y, z):
    # mixed composition exercising every operation; the zero-free
    # denominator uses the tight even-power rule on the interval path
    if isinstance(x, Interval):
        return (
            abs(x * y - z)
            + (x + 2.0).pow_int(3) / (z.pow_int(2) + 1.0)
            + (x.pow_int(2) + 1.5).sqrt()
        )
    return abs(x * y - z) + (x + 2.0) ** 3 / (z * z + 1.0) + math.sqrt(x * x + 1.5)


def test_containment_random_points():
    # fundamental inclusion: f(x) in F(X) for all x in X
    rng = np.random.default_rng(42)
    for _ in range(10):
        X = [_rand_interval(rng), _rand_interval(rng), _rand_interval(rng)]
        F = _compose(*X)
        pts = np.column_stack([rng.uniform(iv.lo, iv.hi, 1000) for iv in X])
        for px, py, pz in pts:
            val = _compose(float(px), float(py), float(pz))
            assert F.lo <= val <= F.hi


def test_inclusion_monotonicity():
    rng = np.random.default_rng(7)
    for _ in range(50):
        outer = [_rand_interval(rng) for _ in range(3)]
        inner = []
        for iv in outer:
            a = rng.uniform(iv.lo, iv.hi)
            b = rng.uniform(a, iv.hi)
            inner.append(Interval(a, b))
        Fo = _compose(*outer)
        Fi = _compose(*inner)
        assert Fo.lo <= Fi.lo + 1e-12 and Fi.hi <= Fo.hi + 1e-12


def test_degenerate_matches_point_arithmetic():
    rng = np.random.default_rng(3)
    for _ in range(200):
        x, y, z = rng.uniform(-3, 3, 3)
        F = _compose(Interval.point(x), Interval.point(y), Interval.point(z))
        val = _compose(float(x), float(y), float(z))
        scale = max(1.0, abs(val))
        assert F.lo <= val <= F.hi
        assert F.hi - F.lo <= 1e-12 * scale


def test_interval_vector_helpers():
    # one box is the batch of one: an IntervalArray of shape (n, 1)
    box = HyperRect.from_bounds([0, -1], [1, 1]).to_interval_vector()
    assert isinstance(box, IntervalArray) and box.lo.shape == box.hi.shape == (2, 1)
    assert box.lo[:, 0].tolist() == [0.0, -1.0] and box.hi[:, 0].tolist() == [1.0, 1.0]
    assert Interval(-3, 2).magnitude() == 3.0


def bits(x):
    return struct.pack("<d", float(x))


def same_ends(got, ref):
    return (bits(got.lo), bits(got.hi)) == (bits(ref.lo), bits(ref.hi))


def test_interval_is_the_0d_interval_array():
    a, b = Interval(-1, 2), Interval(0.5, 3)
    assert isinstance(a, IntervalArray) and np.ndim(a.lo) == np.ndim(a.hi) == 0
    results = [a + b, a - 1.0, 2.0 * a, 1.0 / b, -a, abs(a), b.sqrt(), a.pow_int(3)]
    results += [a + IntervalArray.point(1.0), IntervalArray.point(1.0) * a, a.constant(2.0)]
    assert all(type(r) is Interval for r in results)
    # an IntervalArray operand gives an IntervalArray of its shape, with
    # each entry the result for that entry alone
    arr = IntervalArray(np.array([-1.0, -0.0, 0.5]), np.array([-0.0, 2.0, 3.0]))
    c = Interval(0.25, 4.0)
    ops = [lambda x, y: x * y, lambda x, y: x - y, lambda x, y: x + y, lambda x, y: x / y]
    for op in ops:
        for left, right in ((arr, c), (c, arr)):
            if right is arr and op is ops[-1]:
                continue  # arr holds divisors containing 0
            got = op(left, right)
            assert type(got) is IntervalArray and got.lo.shape == (3,)
            for k in range(3):
                entry = Interval(arr.lo[k], arr.hi[k])
                ref = op(entry, c) if left is arr else op(c, entry)
                assert (got.lo[k], got.hi[k]) == (ref.lo, ref.hi)


def test_interval_overflow_is_silent():
    # numpy warns on overflow where Python floats do not; Interval does not
    big = Interval(1e308, sys.float_info.max)
    assert (big * 10.0).hi == math.inf and (big + big).hi == math.inf
    with pytest.raises(ValueError):
        big * 10.0 - big * 10.0  # inf - inf: a NaN endpoint


# the reference's edge cases: signed zeros, subnormals, values near the
# largest float and infinities; hypothesis adds arbitrary floats
EDGES = [
    0.0,
    -0.0,
    5e-324,
    -5e-324,
    1e-310,
    -2.2250738585072014e-308,
    sys.float_info.min,
    1e-160,
    1.0,
    -0.1,
    1e154,
    1e200,
    -1e300,
    sys.float_info.max,
    -sys.float_info.max,
    0.5 * sys.float_info.max,
    math.inf,
    -math.inf,
]
edge_floats = st.one_of(st.sampled_from(EDGES), st.floats(allow_nan=False))
edge_intervals = st.tuples(edge_floats, edge_floats).map(sorted)

OPS = {
    "add": lambda a, b, c: a + b,
    "sub": lambda a, b, c: a - b,
    "mul": lambda a, b, c: a * b,
    "div": lambda a, b, c: a / b,
    "add_c": lambda a, b, c: a + c,
    "radd_c": lambda a, b, c: c + a,
    "sub_c": lambda a, b, c: a - c,
    "rsub_c": lambda a, b, c: c - a,
    "mul_c": lambda a, b, c: a * c,
    "rmul_c": lambda a, b, c: c * a,
    "div_c": lambda a, b, c: a / c,
    "rdiv_c": lambda a, b, c: c / a,
    "neg": lambda a, b, c: -a,
    "abs": lambda a, b, c: abs(a),
    "sqrt": lambda a, b, c: a.sqrt(),
    **{f"pow{k}": (lambda a, b, c, k=k: a.pow_int(k)) for k in range(6)},
}


def _outcome(cls, name, a, b, c):
    try:
        return OPS[name](cls(*a), cls(*b), c)
    except (DomainError, ValueError, OverflowError) as exc:
        return type(exc)


def _matches_reference(name, a, b, c):
    """Interval gives the reference's endpoints bit for bit (signs of zero
    included), or raises the same kind of error."""
    ref = _outcome(RefInterval, name, a, b, c)
    got = _outcome(Interval, name, a, b, c)
    if isinstance(ref, type):
        return got is ref
    return type(got) is Interval and same_ends(got, ref)


@settings(max_examples=600, deadline=None)
@given(st.sampled_from(sorted(OPS)), edge_intervals, edge_intervals, edge_floats)
def test_interval_matches_reference_formulas(name, a, b, c):
    # this checks that the formulas are the reference's, not that they are sound
    assert _matches_reference(name, a, b, c)


# every interval with endpoints from a grid of signed zeros, subnormals,
# extremes and infinities: which of two zeros of opposite sign an endpoint
# gets (np.minimum and np.maximum take the second) shows only on such
# ties, which random floats almost never meet
GRID = [-math.inf, -sys.float_info.max, -1.5, -5e-324, -0.0, 0.0, 5e-324, 0.5, 1e200, math.inf]
GRID_INTERVALS = [(a, b) for a in GRID for b in GRID if a <= b]


def test_interval_matches_reference_on_grid():
    mismatches = []
    for name in sorted(OPS):
        binary = name in ("add", "sub", "mul", "div")
        real = name.endswith("_c")
        for a in GRID_INTERVALS:
            for other in GRID_INTERVALS if binary else GRID if real else [None]:
                b, c = (other, 0.0) if binary else ((0.0, 0.0), other if real else 0.0)
                if not _matches_reference(name, a, b, c):
                    mismatches.append((name, a, other))
    assert not mismatches, mismatches[:5]


def _entry_outcome(name, a, b, c):
    """OPS[name] over 0-d Intervals, or the type of the error it raises."""
    try:
        return OPS[name](Interval(*a), Interval(*b), c)
    except (DomainError, ValueError, OverflowError) as exc:
        return type(exc)


# a 1-D array of entries as operands of other shapes and memory layouts;
# the longer ones run through numpy's vector loops as well as their tails
LAYOUTS = [
    lambda x: x,
    lambda x: np.resize(x, 40),  # C-contiguous
    lambda x: np.repeat(np.resize(x, 40), 2)[::2],  # strided
    lambda x: np.resize(x, 80).reshape(2, 40).T,  # a transposed 2-D view
]


grid_or_edge_intervals = st.one_of(st.sampled_from(GRID_INTERVALS), edge_intervals)


@settings(max_examples=1000, deadline=None)
@given(
    st.sampled_from(sorted(OPS)),
    st.lists(st.tuples(grid_or_edge_intervals, grid_or_edge_intervals), min_size=1, max_size=6),
    st.one_of(st.sampled_from(GRID), edge_floats),
)
def test_array_entries_equal_one_entry_results(name, pairs, c):
    # entry k of an IntervalArray operation is, sign-exact, the 0-d
    # Interval result for entry k, whatever else is in the array, in any
    # layout and as a 0-d array; a batch fails as a whole where an entry
    # leaves the domain or overflows, and holds a NaN endpoint where the
    # Interval refuses one
    want = [_entry_outcome(name, a, b, c) for a, b in pairs]
    ends = np.array([(*a, *b) for a, b in pairs])  # columns: a.lo, a.hi, b.lo, b.hi
    cases = [(layout(np.arange(len(pairs))), [layout(x) for x in ends.T]) for layout in LAYOUTS]
    cases += [(np.array(k), [np.array(x) for x in ends[k]]) for k in range(len(pairs))]
    for entry, (a_lo, a_hi, b_lo, b_hi) in cases:
        errors = {want[k] for k in np.unique(entry)} & {DomainError, OverflowError}
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                got = OPS[name](IntervalArray(a_lo, a_hi), IntervalArray(b_lo, b_hi), c)
        except (DomainError, OverflowError) as exc:
            assert type(exc) in errors, (name, a_lo, exc)
            continue
        assert not errors, (name, a_lo, errors)
        for idx in np.ndindex(entry.shape):
            w, got_ends = want[entry[idx]], (got.lo[idx], got.hi[idx])
            if w is ValueError:
                assert any(math.isnan(e) for e in got_ends), (name, idx, got_ends)
            else:
                assert same_ends(Interval(*got_ends), w), (name, idx, got_ends, w)


def test_quotient_hull_leaves_out_inf_over_inf():
    assert Interval(1, math.inf) / Interval(1, math.inf) == Interval(0, math.inf)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_overflowing_power_raises_overflow_error():
    # a finite base whose power overflows raises OverflowError, as Python's
    # ** does, on every path, and numpy's overflow warning stays silent
    x1_cubed = parse_expr("x1^3", 1)
    for power in (
        lambda: Interval(1e200, 2e200).pow_int(2),
        lambda: IntervalArray.point([0.5, 1e200]).pow_int(3),
        lambda: eval_real(x1_cubed, [1e200]),
        lambda: eval_batch(x1_cubed, np.array([[0.5], [1e200]])),
    ):
        with pytest.raises(OverflowError):
            power()
    # an infinite base is no overflow
    assert Interval(-math.inf, 2.0).pow_int(2) == Interval(0.0, math.inf)
    assert eval_real(x1_cubed, [-math.inf]) == -math.inf
