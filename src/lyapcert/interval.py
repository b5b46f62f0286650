"""Outward-rounded interval arithmetic.

Every operation returns an interval that encloses the exact real image of
its operands.  Instead of switching FPU rounding modes, each potentially
inexact endpoint is inflated by a small relative amount after the
operation (4 machine epsilons per endpoint).  This is portable and keeps
soundness; tightness is reduced by a few ulps per operation.

Integer powers get a dedicated even/odd rule so that e.g. the square of a
range containing zero has a zero lower bound; bound quality downstream
depends on this.

There is one implementation of these rules: ``IntervalArray`` holds
intervals in two float arrays of any shape and applies them element by
element, so that a whole wave of boxes is enclosed in one evaluation.  A
box is an array of shape (n, 1), a batch of N boxes one of shape (n, N).
``Interval`` is the 0-d case, a single interval whose endpoints are
checked when it is made; it has no formulas of its own.
"""

from __future__ import annotations

import functools
import math
import numbers
import sys

import numpy as np

from .errors import DomainError

_REL = 4.0 * sys.float_info.epsilon
_FMAX = sys.float_info.max

# sqrt of a slightly negative lower endpoint is clamped to zero instead of
# failing; anything below this is a genuine domain violation.
_SQRT_TOL = 1e-12


def pow_each(x: np.ndarray, k: int) -> np.ndarray:
    """x**k entry by entry with Python's float power.

    numpy's power rounds differently from the C library's pow in the last
    bit on a small share of inputs; using the scalar operator keeps batched
    results equal to one-point float ones.
    """
    return np.array([v**k for v in x.ravel().tolist()], dtype=float).reshape(x.shape)


def _down_each(x: np.ndarray) -> np.ndarray:
    # x - _REL*|x|, which leaves zeros (with their sign) as they are; the
    # clamp keeps infinities from turning into NaN
    return x - np.minimum(_REL * np.abs(x), _FMAX)


def _up_each(x: np.ndarray) -> np.ndarray:
    # negated rather than x + _REL*|x|, which would turn -0.0 into +0.0
    return -_down_each(-x)


def require_no_nan(*arrays):
    """Refuse NaN endpoints (inf - inf after an overflow) with the
    ValueError that the Interval constructor raises for one."""
    if any(np.isnan(a).any() for a in arrays):
        raise ValueError("interval endpoints must not be NaN")


def _first_min(first, *rest):
    """Entry-wise min(...) with Python's choice among equal values (the first)."""
    out = first
    for p in rest:
        out = np.where(p < out, p, out)
    return out


def _first_max(first, *rest):
    out = first
    for p in rest:
        out = np.where(p > out, p, out)
    return out


class IntervalArray:
    """Intervals [lo[k], hi[k]] over float arrays, e.g. one entry per box.

    Every operation applies its endpoint formulas, inflation and special
    cases element by element, so entry k of a result is bit for bit the
    0-d (``Interval``) result for the k-th operands, whatever else is in
    the array.  Operations that are undefined for any entry (division by a
    range containing zero, sqrt of a negative range) raise ``DomainError``
    for the whole array.

    Unlike ``Interval``, the constructor does not check for NaN endpoints
    (inf - inf after an overflow).  Instead no operation turns a NaN
    endpoint into a number: those that could (``*``, ``/``, ``abs``,
    ``pow_int``) raise ValueError for an operand that holds one, and the
    batched drivers refuse a result that holds one.  So a batch raises
    ValueError whenever an ``Interval`` evaluation would for one of its
    entries.
    The arrays are never modified in place, so results may share them.
    Indexing and iteration run over the first axis: an array of shape
    (n, N) is a batch of N boxes seen as n coordinate intervals.
    """

    __slots__ = ("lo", "hi")
    __array_ufunc__ = None  # numpy operands defer to the methods below

    def __init__(self, lo: np.ndarray, hi: np.ndarray):
        self.lo = lo
        self.hi = hi

    @classmethod
    def point(cls, x) -> "IntervalArray":
        x = np.asarray(x, dtype=float)
        return cls(x, x)

    def constant(self, c: float) -> "IntervalArray":
        """The point interval c in every entry of this array's shape."""
        x = np.full(self.lo.shape, float(c))
        return IntervalArray(x, x)

    def __repr__(self) -> str:
        return f"IntervalArray({self.lo!r}, {self.hi!r})"

    def __len__(self) -> int:
        return len(self.lo)

    def __getitem__(self, i) -> "IntervalArray":
        return IntervalArray(self.lo[i], self.hi[i])

    def __iter__(self):
        return (IntervalArray(a, b) for a, b in zip(self.lo, self.hi))

    def magnitude(self) -> np.ndarray:
        return np.maximum(np.abs(self.lo), np.abs(self.hi))

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, IntervalArray):
            return IntervalArray(_down_each(self.lo + other.lo), _up_each(self.hi + other.hi))
        if isinstance(other, numbers.Real):
            c = float(other)
            return IntervalArray(_down_each(self.lo + c), _up_each(self.hi + c))
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, IntervalArray):
            return IntervalArray(_down_each(self.lo - other.hi), _up_each(self.hi - other.lo))
        if isinstance(other, numbers.Real):
            c = float(other)
            return IntervalArray(_down_each(self.lo - c), _up_each(self.hi - c))
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, numbers.Real):
            c = float(other)
            return IntervalArray(_down_each(c - self.hi), _up_each(c - self.lo))
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, IntervalArray):
            p1 = self.lo * other.lo
            p2 = self.lo * other.hi
            p3 = self.hi * other.lo
            p4 = self.hi * other.hi
            lo = _down_each(_first_min(p1, p2, p3, p4))
            hi = _up_each(_first_max(p1, p2, p3, p4))
            # the sum is NaN when a product is (0 * inf), and also when
            # products of both infinite signs meet, whose hull is the whole line
            whole = np.isnan(p1 + p2 + p3 + p4)
            if whole.any():
                require_no_nan(self.lo, self.hi, other.lo, other.hi)
                lo = np.where(whole, -math.inf, lo)
                hi = np.where(whole, math.inf, hi)
            return IntervalArray(lo, hi)
        if isinstance(other, numbers.Real):
            c = float(other)
            if c >= 0.0:
                return IntervalArray(_down_each(self.lo * c), _up_each(self.hi * c))
            return IntervalArray(_down_each(self.hi * c), _up_each(self.lo * c))
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, IntervalArray):
            require_no_nan(self.lo, self.hi, other.lo, other.hi)
            if np.any((other.lo <= 0.0) & (0.0 <= other.hi)):
                raise DomainError("division by an interval containing zero in batch")
            q1 = self.lo / other.lo
            q2 = self.lo / other.hi
            q3 = self.hi / other.lo
            q4 = self.hi / other.hi
            return IntervalArray(
                _down_each(_first_min(q1, q2, q3, q4)), _up_each(_first_max(q1, q2, q3, q4))
            )
        if isinstance(other, numbers.Real):
            c = float(other)
            if c == 0.0:
                raise DomainError("division by zero")
            if c > 0.0:
                return IntervalArray(_down_each(self.lo / c), _up_each(self.hi / c))
            return IntervalArray(_down_each(self.hi / c), _up_each(self.lo / c))
        return NotImplemented

    def __rtruediv__(self, other):
        if isinstance(other, numbers.Real):
            return self.constant(other) / self
        return NotImplemented

    def __neg__(self):
        return IntervalArray(-self.hi, -self.lo)

    def __abs__(self):
        lo, hi = self.lo, self.hi
        require_no_nan(lo, hi)
        pos = lo >= 0.0
        neg = hi <= 0.0
        straddle_hi = np.where(hi > -lo, hi, -lo)
        return IntervalArray(
            np.where(pos, lo, np.where(neg, -hi, 0.0)),
            np.where(pos, hi, np.where(neg, -lo, straddle_hi)),
        )

    def sqrt(self) -> "IntervalArray":
        if np.any(self.lo < -_SQRT_TOL):
            raise DomainError("sqrt of an interval with negative values in batch")
        lo = np.where(0.0 > self.lo, 0.0, self.lo)
        hi = np.where(0.0 > self.hi, 0.0, self.hi)
        return IntervalArray(_down_each(np.sqrt(lo)), _up_each(np.sqrt(hi)))

    def pow_int(self, k: int) -> "IntervalArray":
        """Entry-wise Interval.pow_int, with the same even-power image rule."""
        if not isinstance(k, int) or k < 0:
            raise ValueError("pow_int exponent must be a non-negative integer")
        require_no_nan(self.lo, self.hi)
        if k == 0:
            return self.constant(1.0)
        if k == 1:
            return IntervalArray(self.lo, self.hi)
        if k % 2 == 0:
            a_lo = np.abs(self.lo)
            a_hi = np.abs(self.hi)
            hi_mag = np.where(a_hi > a_lo, a_hi, a_lo)
            lo_mag = np.where(
                (self.lo <= 0.0) & (0.0 <= self.hi), 0.0, np.where(a_hi < a_lo, a_hi, a_lo)
            )
            return IntervalArray(_down_each(pow_each(lo_mag, k)), _up_each(pow_each(hi_mag, k)))
        return IntervalArray(_down_each(pow_each(self.lo, k)), _up_each(pow_each(self.hi, k)))


class Interval(IntervalArray):
    """One closed interval [lo, hi]: the 0-d IntervalArray.

    The endpoints are float64 scalars, and the constructor refuses a NaN
    endpoint and lo > hi.  The operators are IntervalArray's, run under
    the error state of the batched drivers (an overflow gives inf, with no
    warning); a result whose operands are all 0-d is an Interval, so a NaN
    endpoint raises ValueError as soon as it is made.  With an
    IntervalArray operand the result is an IntervalArray of its shape (as
    for IntervalArrays, x * y may then be taken as y * x).
    """

    __slots__ = ()

    def __init__(self, lo, hi):
        lo = np.float64(float(lo))
        hi = np.float64(float(hi))
        if math.isnan(lo) or math.isnan(hi):
            raise ValueError("interval endpoints must not be NaN")
        if lo > hi:
            raise ValueError(f"invalid interval: lo={lo!r} > hi={hi!r}")
        self.lo = lo
        self.hi = hi

    def __repr__(self) -> str:
        return f"Interval({float(self.lo)!r}, {float(self.hi)!r})"

    def __eq__(self, other) -> bool:
        return isinstance(other, Interval) and bool(self.lo == other.lo and self.hi == other.hi)

    def __hash__(self) -> int:
        return hash((float(self.lo), float(self.hi)))

    def contains(self, x: float) -> bool:
        return bool(self.lo <= x <= self.hi)

    def encloses(self, other: "Interval") -> bool:
        return bool(self.lo <= other.lo and other.hi <= self.hi)

    def intersects(self, other: "Interval") -> bool:
        return bool(self.lo <= other.hi and other.lo <= self.hi)

    @property
    def width(self) -> float:
        return float(self.hi - self.lo)

    @property
    def mid(self) -> float:
        return float(0.5 * (self.lo + self.hi))

    def hull(self, other: "Interval") -> "Interval":
        """Smallest interval containing both operands."""
        return Interval(min(self.lo, other.lo), max(self.hi, other.hi))


def _checked(op):
    """op as an Interval method: under the drivers' error state, and a 0-d
    result made an Interval."""

    @functools.wraps(op)
    def method(*args):
        with np.errstate(over="ignore", invalid="ignore"):
            out = op(*args)
        if isinstance(out, IntervalArray) and np.ndim(out.lo) == 0:
            return Interval(out.lo, out.hi)
        return out

    return method


for _name in (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__truediv__",
    "__rtruediv__", "__neg__", "__abs__", "sqrt", "pow_int", "constant",
):
    setattr(Interval, _name, _checked(getattr(IntervalArray, _name)))
