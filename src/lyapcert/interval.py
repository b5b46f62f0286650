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

The last bits are numpy's: endpoints are chosen with ``np.minimum`` and
``np.maximum`` (of two equal zeros, the second operand's), and powers come
from ``np.power`` through ``float_power``, which also serves float and
float-array payloads.  Both give the same bits for an entry at any
position, stride or length, and as 0-d.
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


def float_power(x, k: int):
    """x**k for a float or a float array, by numpy's power.

    As Python's ``**`` does, a finite base whose power overflows raises
    OverflowError (numpy would give inf with a warning).
    """
    try:
        with np.errstate(over="raise"):
            y = np.power(x, k, dtype=float)
    except FloatingPointError as exc:
        raise OverflowError(f"power {k} overflows") from exc
    return y if isinstance(x, np.ndarray) else float(y)


def float_sqrt(x):
    """sqrt of a float or a float array, with values down to -_SQRT_TOL
    taken as 0; DomainError below that."""
    if np.any(x < -_SQRT_TOL):
        raise DomainError("sqrt of a negative value")
    y = np.sqrt(np.maximum(x, 0.0))
    return y if isinstance(x, np.ndarray) else float(y)


def _down_each(x: np.ndarray) -> np.ndarray:
    # x - _REL*|x|; the clamp keeps infinities from turning into NaN
    return x - np.minimum(_REL * np.abs(x), _FMAX)


def _up_each(x: np.ndarray) -> np.ndarray:
    return x + np.minimum(_REL * np.abs(x), _FMAX)


def require_no_nan(*arrays):
    """Refuse NaN endpoints (inf - inf after an overflow) with the
    ValueError that the Interval constructor raises for one."""
    if any(np.isnan(a).any() for a in arrays):
        raise ValueError("interval endpoints must not be NaN")


def _abs_ends(lo, hi):
    """The endpoints of {|x| : lo <= x <= hi}."""
    return np.maximum(np.maximum(lo, -hi), 0.0), np.maximum(-lo, hi)


class IntervalArray:
    """Intervals [lo[k], hi[k]] over float arrays, e.g. one entry per box.

    Every operation applies its endpoint formulas, inflation and special
    cases element by element with numpy's elementwise operations, so
    entry k of a result is bit for bit the 0-d (``Interval``) result for
    the k-th operands, whatever else is in the array and however it is
    laid out.  Operations that are undefined for any entry (division by a
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
            p = (self.lo * other.lo, self.lo * other.hi, self.hi * other.lo, self.hi * other.hi)
            lo = functools.reduce(np.minimum, p)
            hi = functools.reduce(np.maximum, p)
            whole = np.isnan(lo)  # a product is 0 * inf: the hull is the whole line
            if whole.any():
                require_no_nan(self.lo, self.hi, other.lo, other.hi)
                lo = np.where(whole, -math.inf, lo)
                hi = np.where(whole, math.inf, hi)
            return IntervalArray(_down_each(lo), _up_each(hi))
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
            q = [self.lo / other.lo, self.lo / other.hi, self.hi / other.lo, self.hi / other.hi]
            lo = functools.reduce(np.minimum, q)
            if np.isnan(lo).any():
                # an inf/inf quotient takes no part in the hull: it is replaced
                # by the first quotient of its entry that is a number, if any
                fill = functools.reduce(lambda a, b: np.where(np.isnan(a), b, a), q)
                q = [np.where(np.isnan(x), fill, x) for x in q]
                lo = functools.reduce(np.minimum, q)
            return IntervalArray(_down_each(lo), _up_each(functools.reduce(np.maximum, q)))
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
        require_no_nan(self.lo, self.hi)
        return IntervalArray(*_abs_ends(self.lo, self.hi))

    def sqrt(self) -> "IntervalArray":
        return IntervalArray(_down_each(float_sqrt(self.lo)), _up_each(float_sqrt(self.hi)))

    def pow_int(self, k: int) -> "IntervalArray":
        """x**k entry by entry; an even power is taken of |x|, whose lower
        endpoint is 0 where the interval holds 0."""
        if not isinstance(k, int) or k < 0:
            raise ValueError("pow_int exponent must be a non-negative integer")
        require_no_nan(self.lo, self.hi)
        if k == 0:
            return self.constant(1.0)
        if k == 1:
            return IntervalArray(self.lo, self.hi)
        lo, hi = _abs_ends(self.lo, self.hi) if k % 2 == 0 else (self.lo, self.hi)
        return IntervalArray(_down_each(float_power(lo, k)), _up_each(float_power(hi, k)))


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
