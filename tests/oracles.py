"""Independent oracles for the test suite.

Everything here avoids the interval/dual machinery under test: batched
numpy simulation of the piecewise dynamics, central finite differences,
dense random sampling, and RefInterval, a scalar interval type over
Python floats with its own copy of the endpoint formulas.
"""

import functools
import math
import numbers
import sys

import numpy as np

from lyapcert.errors import DomainError
from lyapcert.expr import eval_batch


def simulate_batch(sys, X, M):
    """Iterate a batch of states M steps following the literal guards.

    Ties resolve to the first region whose literal guards hold, matching
    the case-order definition of the piecewise map.
    """
    X = np.asarray(X, dtype=float)
    for _ in range(M):
        nxt = np.empty_like(X)
        assigned = np.zeros(X.shape[0], dtype=bool)
        for region in sys.regions:
            mask = ~assigned
            for g in region.guards:
                vals = eval_batch(g.expr, X)
                if g.rel == "<=":
                    ok = vals <= 0
                elif g.rel == "<":
                    ok = vals < 0
                elif g.rel == ">=":
                    ok = vals >= 0
                else:
                    ok = vals > 0
                mask = mask & ok
            if mask.any():
                img = np.column_stack(
                    [eval_batch(c, X[mask]) for c in region.field.components]
                )
                nxt[mask] = img
                assigned |= mask
        if not assigned.all():
            raise AssertionError("oracle: states not covered by any region")
        X = nxt
    return X


def decrease_batch(sys, P, rho, M, X):
    """F(x) = V(G^M(x)) - rho V(x) for a batch, V(x) = x'Px."""
    X = np.asarray(X, dtype=float)
    P = np.asarray(P, dtype=float)
    Y = simulate_batch(sys, X, M)
    V0 = np.einsum("ij,jk,ik->i", X, P, X)
    VM = np.einsum("ij,jk,ik->i", Y, P, Y)
    return VM - rho * V0


def w_batch(sys, P, M, X):
    """W(x) = sum_{j<M} V(G^j(x)) for a batch."""
    X = np.asarray(X, dtype=float)
    P = np.asarray(P, dtype=float)
    total = np.einsum("ij,jk,ik->i", X, P, X)
    Y = X
    for _ in range(M - 1):
        Y = simulate_batch(sys, Y, 1)
        total = total + np.einsum("ij,jk,ik->i", Y, P, Y)
    return total


def fd_gradient(f, x, h=1e-6):
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (f(x + e) - f(x - e)) / (2 * h)
    return g


def fd_hessian(f, x, h=1e-4):
    x = np.asarray(x, dtype=float)
    n = x.size
    H = np.zeros((n, n))
    f0 = f(x)
    for i in range(n):
        ei = np.zeros(n)
        ei[i] = h
        for j in range(i, n):
            ej = np.zeros(n)
            ej[j] = h
            if i == j:
                H[i, i] = (f(x + ei) - 2 * f0 + f(x - ei)) / h**2
            else:
                H[i, j] = H[j, i] = (
                    f(x + ei + ej) - f(x + ei - ej) - f(x - ei + ej) + f(x - ei - ej)
                ) / (4 * h**2)
    return H


def sample_box(box, n_points, rng):
    return rng.uniform(box.lower, box.upper, size=(n_points, box.n))


# -- the scalar reference interval ---------------------------------------------
#
# The scalar Interval that the library had before IntervalArray became its
# only implementation, as the reference that the library's intervals must
# match bit for bit: the same endpoint formulas, outward inflation and
# special cases, one Python float at a time.  The last bits follow numpy's
# rules, as the library's do: endpoints are chosen with np.minimum and
# np.maximum (of two equal zeros, the second), and powers are np.power's,
# where a finite base whose power is infinite raises OverflowError as
# Python's ** does.

_REL = 4.0 * sys.float_info.epsilon
_FMAX = sys.float_info.max
_SQRT_TOL = 1e-12


def _down(x: float) -> float:
    return x - min(_REL * abs(x), _FMAX)


def _up(x: float) -> float:
    return x + min(_REL * abs(x), _FMAX)


def _least(*xs) -> float:
    return float(functools.reduce(np.minimum, xs))


def _greatest(*xs) -> float:
    return float(functools.reduce(np.maximum, xs))


def _power(x: float, k: int) -> float:
    with np.errstate(over="ignore"):
        y = float(np.power(x, k))
    if math.isinf(y) and math.isfinite(x):
        raise OverflowError(f"power {k} overflows")
    return y


class RefInterval:
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
    def point(cls, x: float) -> "RefInterval":
        x = float(x)
        return cls(x, x)

    # -- basic queries ---------------------------------------------------

    def __repr__(self) -> str:
        return f"RefInterval({self.lo!r}, {self.hi!r})"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RefInterval)
            and self.lo == other.lo
            and self.hi == other.hi
        )

    def __hash__(self) -> int:
        return hash((self.lo, self.hi))

    def encloses(self, other: "RefInterval") -> bool:
        return self.lo <= other.lo and other.hi <= self.hi

    def magnitude(self) -> float:
        """max(|lo|, |hi|): upper bound on |x| over the interval."""
        return max(abs(self.lo), abs(self.hi))

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, RefInterval):
            return RefInterval(_down(self.lo + other.lo), _up(self.hi + other.hi))
        if isinstance(other, numbers.Real):
            c = float(other)
            return RefInterval(_down(self.lo + c), _up(self.hi + c))
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, RefInterval):
            return RefInterval(_down(self.lo - other.hi), _up(self.hi - other.lo))
        if isinstance(other, numbers.Real):
            c = float(other)
            return RefInterval(_down(self.lo - c), _up(self.hi - c))
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, numbers.Real):
            c = float(other)
            return RefInterval(_down(c - self.hi), _up(c - self.lo))
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, RefInterval):
            p1 = self.lo * other.lo
            p2 = self.lo * other.hi
            p3 = self.hi * other.lo
            p4 = self.hi * other.hi
            if math.isnan(p1) or math.isnan(p2) or math.isnan(p3) or math.isnan(p4):
                # 0 * inf: give up tightness, stay sound
                return RefInterval(-math.inf, math.inf)
            return RefInterval(_down(_least(p1, p2, p3, p4)), _up(_greatest(p1, p2, p3, p4)))
        if isinstance(other, numbers.Real):
            c = float(other)
            if c >= 0.0:
                return RefInterval(_down(self.lo * c), _up(self.hi * c))
            return RefInterval(_down(self.hi * c), _up(self.lo * c))
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, RefInterval):
            if other.lo <= 0.0 <= other.hi:
                raise DomainError(f"division by interval containing zero: {other}")
            q = [self.lo / other.lo, self.lo / other.hi, self.hi / other.lo, self.hi / other.hi]
            # inf/inf is NaN: it stands for the first quotient that is a number
            fill = next((x for x in q if not math.isnan(x)), math.nan)
            q = [fill if math.isnan(x) else x for x in q]
            return RefInterval(_down(_least(*q)), _up(_greatest(*q)))
        if isinstance(other, numbers.Real):
            c = float(other)
            if c == 0.0:
                raise DomainError("division by zero")
            if c > 0.0:
                return RefInterval(_down(self.lo / c), _up(self.hi / c))
            return RefInterval(_down(self.hi / c), _up(self.lo / c))
        return NotImplemented

    def __rtruediv__(self, other):
        if isinstance(other, numbers.Real):
            return RefInterval.point(float(other)) / self
        return NotImplemented

    def __neg__(self):
        return RefInterval(-self.hi, -self.lo)

    def __abs__(self):
        # a zero lower endpoint is +0.0
        lo = self.lo if self.lo > 0.0 else -self.hi if self.hi < 0.0 else 0.0
        return RefInterval(lo, _greatest(-self.lo, self.hi))

    def sqrt(self) -> "RefInterval":
        if self.lo < -_SQRT_TOL:
            raise DomainError(f"sqrt of interval with negative values: {self}")
        lo = _greatest(self.lo, 0.0)
        hi = _greatest(self.hi, 0.0)
        return RefInterval(_down(math.sqrt(lo)), _up(math.sqrt(hi)))

    def pow_int(self, k: int) -> "RefInterval":
        """Tight enclosure of x**k with the image rule for even exponents."""
        if not isinstance(k, int) or k < 0:
            raise ValueError("pow_int exponent must be a non-negative integer")
        if k == 0:
            return RefInterval(1.0, 1.0)
        if k == 1:
            return RefInterval(self.lo, self.hi)
        if k % 2 == 0:
            hi_mag = self.magnitude()
            if self.lo <= 0.0 <= self.hi:
                lo_mag = 0.0
            else:
                lo_mag = min(abs(self.lo), abs(self.hi))
            return RefInterval(_down(_power(lo_mag, k)), _up(_power(hi_mag, k)))
        return RefInterval(_down(_power(self.lo, k)), _up(_power(self.hi, k)))

    def hull(self, other: "RefInterval") -> "RefInterval":
        """Smallest interval containing both operands."""
        return RefInterval(min(self.lo, other.lo), max(self.hi, other.hi))
