"""Outward-rounded interval arithmetic.

Every operation returns an interval that encloses the exact real image of
its operands.  Instead of switching FPU rounding modes, each potentially
inexact endpoint is inflated by a small relative amount after the
operation (4 machine epsilons per endpoint).  This is portable and keeps
soundness; tightness is reduced by a few ulps per operation.

Integer powers get a dedicated even/odd rule so that e.g. the square of a
range containing zero has a zero lower bound; bound quality downstream
depends on this.

``IntervalArray`` holds one interval per box in two float arrays and
applies the same rules element by element, so that a whole wave of boxes
is enclosed in one evaluation.
"""

from __future__ import annotations

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


def _down(x: float) -> float:
    if x == 0.0 or math.isinf(x):
        return x
    return x - _REL * abs(x)


def _up(x: float) -> float:
    if x == 0.0 or math.isinf(x):
        return x
    return x + _REL * abs(x)


class Interval:
    """Closed interval [lo, hi] with outward-rounded arithmetic."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: float, hi: float):
        lo = float(lo)
        hi = float(hi)
        if math.isnan(lo) or math.isnan(hi):
            raise ValueError("interval endpoints must not be NaN")
        if lo > hi:
            raise ValueError(f"invalid interval: lo={lo} > hi={hi}")
        self.lo = lo
        self.hi = hi

    @classmethod
    def point(cls, x: float) -> "Interval":
        x = float(x)
        return cls(x, x)

    # -- basic queries ---------------------------------------------------

    def __repr__(self) -> str:
        return f"Interval({self.lo!r}, {self.hi!r})"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Interval)
            and self.lo == other.lo
            and self.hi == other.hi
        )

    def __hash__(self) -> int:
        return hash((self.lo, self.hi))

    def contains(self, x: float) -> bool:
        return self.lo <= x <= self.hi

    def encloses(self, other: "Interval") -> bool:
        return self.lo <= other.lo and other.hi <= self.hi

    def intersects(self, other: "Interval") -> bool:
        return self.lo <= other.hi and other.lo <= self.hi

    @property
    def width(self) -> float:
        return self.hi - self.lo

    @property
    def mid(self) -> float:
        return 0.5 * (self.lo + self.hi)

    def magnitude(self) -> float:
        """max(|lo|, |hi|): upper bound on |x| over the interval."""
        return max(abs(self.lo), abs(self.hi))

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Interval):
            return Interval(_down(self.lo + other.lo), _up(self.hi + other.hi))
        if isinstance(other, numbers.Real):
            c = float(other)
            return Interval(_down(self.lo + c), _up(self.hi + c))
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Interval):
            return Interval(_down(self.lo - other.hi), _up(self.hi - other.lo))
        if isinstance(other, numbers.Real):
            c = float(other)
            return Interval(_down(self.lo - c), _up(self.hi - c))
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, numbers.Real):
            c = float(other)
            return Interval(_down(c - self.hi), _up(c - self.lo))
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, Interval):
            p1 = self.lo * other.lo
            p2 = self.lo * other.hi
            p3 = self.hi * other.lo
            p4 = self.hi * other.hi
            if math.isnan(p1) or math.isnan(p2) or math.isnan(p3) or math.isnan(p4):
                # 0 * inf: give up tightness, stay sound
                return Interval(-math.inf, math.inf)
            return Interval(_down(min(p1, p2, p3, p4)), _up(max(p1, p2, p3, p4)))
        if isinstance(other, numbers.Real):
            c = float(other)
            if c >= 0.0:
                return Interval(_down(self.lo * c), _up(self.hi * c))
            return Interval(_down(self.hi * c), _up(self.lo * c))
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Interval):
            if other.lo <= 0.0 <= other.hi:
                raise DomainError(f"division by interval containing zero: {other}")
            q1 = self.lo / other.lo
            q2 = self.lo / other.hi
            q3 = self.hi / other.lo
            q4 = self.hi / other.hi
            return Interval(_down(min(q1, q2, q3, q4)), _up(max(q1, q2, q3, q4)))
        if isinstance(other, numbers.Real):
            c = float(other)
            if c == 0.0:
                raise DomainError("division by zero")
            if c > 0.0:
                return Interval(_down(self.lo / c), _up(self.hi / c))
            return Interval(_down(self.hi / c), _up(self.lo / c))
        return NotImplemented

    def __rtruediv__(self, other):
        if isinstance(other, numbers.Real):
            return Interval.point(float(other)) / self
        return NotImplemented

    def __neg__(self):
        return Interval(-self.hi, -self.lo)

    def __abs__(self):
        if self.lo >= 0.0:
            return Interval(self.lo, self.hi)
        if self.hi <= 0.0:
            return Interval(-self.hi, -self.lo)
        return Interval(0.0, max(-self.lo, self.hi))

    def sqrt(self) -> "Interval":
        if self.lo < -_SQRT_TOL:
            raise DomainError(f"sqrt of interval with negative values: {self}")
        lo = max(self.lo, 0.0)
        hi = max(self.hi, 0.0)
        return Interval(_down(math.sqrt(lo)), _up(math.sqrt(hi)))

    def pow_int(self, k: int) -> "Interval":
        """Tight enclosure of x**k with the image rule for even exponents."""
        if not isinstance(k, int) or k < 0:
            raise ValueError("pow_int exponent must be a non-negative integer")
        if k == 0:
            return Interval(1.0, 1.0)
        if k == 1:
            return Interval(self.lo, self.hi)
        if k % 2 == 0:
            hi_mag = self.magnitude()
            if self.lo <= 0.0 <= self.hi:
                lo_mag = 0.0
            else:
                lo_mag = min(abs(self.lo), abs(self.hi))
            return Interval(_down(lo_mag**k), _up(hi_mag**k))
        return Interval(_down(self.lo**k), _up(self.hi**k))

    def hull(self, other: "Interval") -> "Interval":
        """Smallest interval containing both operands."""
        return Interval(min(self.lo, other.lo), max(self.hi, other.hi))


def hull(a: Interval, b: Interval) -> Interval:
    return a.hull(b)


# -- batched intervals -------------------------------------------------------


def pow_each(x: np.ndarray, k: int) -> np.ndarray:
    """x**k entry by entry with Python's float power.

    numpy's power rounds differently from the C library's pow in the last
    bit on a small share of inputs; using the scalar operator keeps batched
    results equal to scalar ones.
    """
    return np.array([v**k for v in x.ravel().tolist()], dtype=float).reshape(x.shape)


def _down_each(x: np.ndarray) -> np.ndarray:
    # x - _REL*|x|, which leaves zeros (with their sign) as they are; the
    # clamp keeps infinities from turning into NaN
    return x - np.minimum(_REL * np.abs(x), _FMAX)


def _up_each(x: np.ndarray) -> np.ndarray:
    # negated rather than x + _REL*|x|, which would turn -0.0 into +0.0
    return -_down_each(-x)


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

    Every operation uses the endpoint formulas, inflation and special
    cases of ``Interval``, element by element, so entry k of a result is
    bit for bit the ``Interval`` result for the k-th operands.  Operations
    that are undefined for any entry (division by a range containing zero,
    sqrt of a negative range) raise ``DomainError`` for the whole array.

    Unlike ``Interval``, the constructor does not check for NaN endpoints
    (inf - inf after an overflow); the batched drivers in ``bounds`` refuse
    a result that holds one.  The arrays are never modified in place, so
    results may share them.
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


class IntervalVector:
    """Fixed-length sequence of intervals (a box in R^n)."""

    __slots__ = ("elems",)

    def __init__(self, elems):
        self.elems = tuple(
            e if isinstance(e, Interval) else Interval.point(e) for e in elems
        )

    @classmethod
    def from_bounds(cls, lo, hi) -> "IntervalVector":
        return cls(tuple(Interval(a, b) for a, b in zip(lo, hi)))

    @classmethod
    def point(cls, x) -> "IntervalVector":
        return cls(tuple(Interval.point(v) for v in x))

    def __len__(self) -> int:
        return len(self.elems)

    def __getitem__(self, i) -> Interval:
        return self.elems[i]

    def __iter__(self):
        return iter(self.elems)

    def __repr__(self) -> str:
        return f"IntervalVector({list(self.elems)!r})"

    def lower(self):
        return [e.lo for e in self.elems]

    def upper(self):
        return [e.hi for e in self.elems]

    def encloses(self, other: "IntervalVector") -> bool:
        return all(a.encloses(b) for a, b in zip(self.elems, other.elems))

    def contains_point(self, x) -> bool:
        return all(e.contains(float(v)) for e, v in zip(self.elems, x))


class IntervalMatrix:
    """Dense grid of intervals (e.g. a Hessian enclosure)."""

    __slots__ = ("rows",)

    def __init__(self, rows):
        self.rows = tuple(
            tuple(e if isinstance(e, Interval) else Interval.point(e) for e in row)
            for row in rows
        )
        if self.rows:
            ncol = len(self.rows[0])
            if any(len(r) != ncol for r in self.rows):
                raise ValueError("ragged interval matrix")

    @property
    def shape(self):
        return (len(self.rows), len(self.rows[0]) if self.rows else 0)

    def __getitem__(self, ij) -> Interval:
        i, j = ij
        return self.rows[i][j]

    def __repr__(self) -> str:
        return f"IntervalMatrix({[list(r) for r in self.rows]!r})"

    def magnitudes(self):
        """Componentwise max-magnitude as nested lists of floats."""
        return [[e.magnitude() for e in row] for row in self.rows]
