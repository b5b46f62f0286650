"""Forward-mode automatic differentiation with dual numbers.

``Dual`` carries a value and a gradient (first order); ``Dual2`` adds the
full symmetric Hessian.  The payload type is generic: plain floats give
exact pointwise derivatives, intervals give rigorous enclosures of the
derivatives over a box, and nesting a dual inside another dual yields one
extra derivative order (used for d/dt of a composed Lyapunov function).

Dimensions here are small (n up to ~10), so gradients and Hessians are
plain tuples; no sparsity.
"""

from __future__ import annotations

from .errors import DomainError
from .scalars import div_, lift_like, pow_, sqrt_, strict_sign


def _lift_const(template_dual, c):
    """Constant with the same shape/payload as template_dual."""
    return template_dual.lift(c)


class Dual:
    """First-order dual number: value + gradient of length n."""

    __slots__ = ("value", "grad")

    def __init__(self, value, grad):
        self.value = value
        self.grad = tuple(grad)

    def lift(self, c):
        zero = lift_like(self.value, 0.0)
        return Dual(lift_like(self.value, c), (zero,) * len(self.grad))

    def __repr__(self):
        return f"Dual({self.value!r}, grad={list(self.grad)!r})"

    # -- arithmetic --

    def _coerce(self, other):
        if isinstance(other, Dual):
            return other
        return self.lift(other)

    def __add__(self, other):
        o = self._coerce(other)
        return Dual(self.value + o.value, tuple(a + b for a, b in zip(self.grad, o.grad)))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        return Dual(self.value - o.value, tuple(a - b for a, b in zip(self.grad, o.grad)))

    def __rsub__(self, other):
        return self._coerce(other).__sub__(self)

    def __mul__(self, other):
        o = self._coerce(other)
        v, w = self.value, o.value
        return Dual(v * w, tuple(v * gb + w * ga for ga, gb in zip(self.grad, o.grad)))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        q = div_(self.value, o.value)
        return Dual(q, tuple(div_(ga - q * gb, o.value) for ga, gb in zip(self.grad, o.grad)))

    def __rtruediv__(self, other):
        return self._coerce(other).__truediv__(self)

    def __neg__(self):
        return Dual(-self.value, tuple(-g for g in self.grad))

    def __abs__(self):
        s = strict_sign(self.value)
        if s is None:
            raise DomainError("abs is not differentiable at a sign change")
        return self if s > 0 else -self

    def sqrt(self):
        s = sqrt_(self.value)
        return Dual(s, tuple(div_(g, s + s) for g in self.grad))

    def pow_int(self, k: int):
        if k == 0:
            return self.lift(1.0)
        if k == 1:
            return self
        u = k * pow_(self.value, k - 1)
        return Dual(pow_(self.value, k), tuple(u * g for g in self.grad))


class Dual2:
    """Second-order dual number: value, gradient, symmetric Hessian."""

    __slots__ = ("value", "grad", "hess")

    def __init__(self, value, grad, hess):
        self.value = value
        self.grad = tuple(grad)
        self.hess = tuple(tuple(row) for row in hess)

    def lift(self, c):
        n = len(self.grad)
        zero = lift_like(self.value, 0.0)
        zrow = (zero,) * n
        return Dual2(lift_like(self.value, c), (zero,) * n, (zrow,) * n)

    def __repr__(self):
        return f"Dual2({self.value!r}, grad={list(self.grad)!r})"

    def _coerce(self, other):
        if isinstance(other, Dual2):
            return other
        return self.lift(other)

    def __add__(self, other):
        o = self._coerce(other)
        g = tuple(a + b for a, b in zip(self.grad, o.grad))
        h = tuple(
            tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(self.hess, o.hess)
        )
        return Dual2(self.value + o.value, g, h)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        g = tuple(a - b for a, b in zip(self.grad, o.grad))
        h = tuple(
            tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(self.hess, o.hess)
        )
        return Dual2(self.value - o.value, g, h)

    def __rsub__(self, other):
        return self._coerce(other).__sub__(self)

    def __mul__(self, other):
        o = self._coerce(other)
        n = len(self.grad)
        v, w = self.value, o.value
        g = tuple(v * o.grad[i] + w * self.grad[i] for i in range(n))
        rows = []
        for i in range(n):
            row = []
            for j in range(i + 1):
                row.append(
                    v * o.hess[i][j]
                    + w * self.hess[i][j]
                    + self.grad[i] * o.grad[j]
                    + self.grad[j] * o.grad[i]
                )
            rows.append(row)
        return Dual2(v * w, g, _mirror(rows, n))

    __rmul__ = __mul__

    def __truediv__(self, other):
        # from f = q*g: q'' = (f'' - q'⊗g' - g'⊗q' - q*g'') / g
        o = self._coerce(other)
        n = len(self.grad)
        q = div_(self.value, o.value)
        qg = tuple(div_(self.grad[i] - q * o.grad[i], o.value) for i in range(n))
        rows = []
        for i in range(n):
            row = []
            for j in range(i + 1):
                num = (
                    self.hess[i][j]
                    - qg[i] * o.grad[j]
                    - qg[j] * o.grad[i]
                    - q * o.hess[i][j]
                )
                row.append(div_(num, o.value))
            rows.append(row)
        return Dual2(q, qg, _mirror(rows, n))

    def __rtruediv__(self, other):
        return self._coerce(other).__truediv__(self)

    def __neg__(self):
        g = tuple(-x for x in self.grad)
        h = tuple(tuple(-x for x in row) for row in self.hess)
        return Dual2(-self.value, g, h)

    def __abs__(self):
        s = strict_sign(self.value)
        if s is None:
            raise DomainError("abs is not differentiable at a sign change")
        return self if s > 0 else -self

    def sqrt(self):
        # from f = s^2: s'' = (f'' - 2 s'⊗s') / (2 s)
        n = len(self.grad)
        s = sqrt_(self.value)
        two_s = s + s
        sg = tuple(div_(g, two_s) for g in self.grad)
        rows = []
        for i in range(n):
            row = []
            for j in range(i + 1):
                num = self.hess[i][j] - (sg[i] * sg[j] + sg[i] * sg[j])
                row.append(div_(num, two_s))
            rows.append(row)
        return Dual2(s, sg, _mirror(rows, n))

    def pow_int(self, k: int):
        if k == 0:
            return self.lift(1.0)
        if k == 1:
            return self
        n = len(self.grad)
        u = k * pow_(self.value, k - 1)
        if k == 2:
            w = lift_like(self.value, 2.0)
        else:
            w = (k * (k - 1)) * pow_(self.value, k - 2)
        g = tuple(u * gi for gi in self.grad)
        rows = []
        for i in range(n):
            row = []
            for j in range(i + 1):
                row.append(u * self.hess[i][j] + w * (self.grad[i] * self.grad[j]))
            rows.append(row)
        return Dual2(pow_(self.value, k), g, _mirror(rows, n))


def _mirror(lower_rows, n):
    """Build a full symmetric n x n grid from rows of length i+1."""
    full = []
    for i in range(n):
        row = list(lower_rows[i])
        for j in range(i + 1, n):
            row.append(lower_rows[j][i])
        full.append(tuple(row))
    return tuple(full)


def dual_seeds(payloads):
    """First-order seeds for the variables x_1..x_n given payload values."""
    n = len(payloads)
    seeds = []
    for i, p in enumerate(payloads):
        one = lift_like(p, 1.0)
        zero = lift_like(p, 0.0)
        seeds.append(Dual(p, tuple(one if j == i else zero for j in range(n))))
    return seeds


def dual2_seeds(payloads):
    """Second-order seeds (zero Hessians) for the variables x_1..x_n."""
    n = len(payloads)
    seeds = []
    for i, p in enumerate(payloads):
        one = lift_like(p, 1.0)
        zero = lift_like(p, 0.0)
        zrow = (zero,) * n
        seeds.append(
            Dual2(p, tuple(one if j == i else zero for j in range(n)), (zrow,) * n)
        )
    return seeds
