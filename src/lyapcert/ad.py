"""Forward-mode automatic differentiation with dual numbers.

``Dual`` carries a value and a gradient (first order); ``Dual2`` adds the
symmetric Hessian.  The payload type is generic: plain floats give exact
pointwise derivatives, intervals give rigorous enclosures of the
derivatives over a box, and nesting a dual inside another dual yields one
extra derivative order (used for d/dt of a composed Lyapunov function).

``Dual`` keeps its gradient as a tuple of n payloads.  ``Dual2`` runs on
batched payloads (float or interval arrays, one entry per box) and
stacks them: the gradient is one payload with a leading axis of length
n, the Hessian one payload over the n(n+1)/2 lower-triangle entries, so
a chain rule costs a fixed number of array operations whatever n is.
Each entry is computed from the same operands in the same order as the
entry-by-entry formula, so the stacked results are bit for bit the
per-entry ones.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import DomainError
from .interval import IntervalArray
from .scalars import div_, full_like, lift_like, pow_, sqrt_, stack_like, strict_sign


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


@lru_cache(maxsize=None)
def tril(n: int):
    """(I, J, pos) for the n(n+1)/2 lower-triangle entries of an n x n
    matrix, row by row: entry t is (I[t], J[t]) with J[t] <= I[t], and
    pos[i, j] is the entry that holds (i, j) and (j, i)."""
    I, J = np.tril_indices(n)
    pos = np.zeros((n, n), dtype=np.intp)
    pos[I, J] = pos[J, I] = np.arange(len(I))
    for a in (I, J, pos):
        a.setflags(write=False)  # cached and shared by every caller
    return I, J, pos


class Dual2:
    """Second-order dual number: value, gradient, symmetric Hessian.

    `grad` is one payload whose leading axis runs over the n variables,
    `hess` one whose leading axis runs over the entries tril(n) of the
    lower triangle; each chain rule below is the per-entry formula applied
    to all entries at once.
    """

    __slots__ = ("value", "grad", "hess")

    def __init__(self, value, grad, hess):
        self.value = value
        self.grad = grad
        self.hess = hess

    def lift(self, c):
        return Dual2(lift_like(self.value, c), full_like(self.grad, 0.0), full_like(self.hess, 0.0))

    def __repr__(self):
        return f"Dual2({self.value!r}, grad={self.grad!r})"

    def _coerce(self, other):
        if isinstance(other, Dual2):
            return other
        return self.lift(other)

    def __add__(self, other):
        o = self._coerce(other)
        return Dual2(self.value + o.value, self.grad + o.grad, self.hess + o.hess)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        return Dual2(self.value - o.value, self.grad - o.grad, self.hess - o.hess)

    def __rsub__(self, other):
        return self._coerce(other).__sub__(self)

    def __mul__(self, other):
        o = self._coerce(other)
        I, J, _ = tril(len(self.grad))
        v, w = self.value, o.value
        g = v * o.grad + w * self.grad
        h = v * o.hess + w * self.hess + self.grad[I] * o.grad[J] + self.grad[J] * o.grad[I]
        return Dual2(v * w, g, h)

    __rmul__ = __mul__

    def __truediv__(self, other):
        # from f = q*g: q'' = (f'' - q'⊗g' - g'⊗q' - q*g'') / g
        o = self._coerce(other)
        I, J, _ = tril(len(self.grad))
        q = div_(self.value, o.value)
        qg = div_(self.grad - q * o.grad, o.value)
        h = div_(self.hess - qg[I] * o.grad[J] - qg[J] * o.grad[I] - q * o.hess, o.value)
        return Dual2(q, qg, h)

    def __rtruediv__(self, other):
        return self._coerce(other).__truediv__(self)

    def __neg__(self):
        return Dual2(-self.value, -self.grad, -self.hess)

    def __abs__(self):
        s = strict_sign(self.value)
        if s is None:
            raise DomainError("abs is not differentiable at a sign change")
        return self if s > 0 else -self

    def sqrt(self):
        # from f = s^2: s'' = (f'' - 2 s'⊗s') / (2 s)
        I, J, _ = tril(len(self.grad))
        s = sqrt_(self.value)
        two_s = s + s
        try:
            sg = div_(self.grad, two_s)
        except ValueError:
            # a NaN endpoint in some entry; divided entry by entry, the
            # first entry meets a divisor containing zero before it
            div_(self.grad[0], two_s)
            raise
        p = sg[I] * sg[J]
        return Dual2(s, sg, div_(self.hess - (p + p), two_s))

    def pow_int(self, k: int):
        if k == 0:
            return self.lift(1.0)
        if k == 1:
            return self
        I, J, _ = tril(len(self.grad))
        u = k * pow_(self.value, k - 1)
        w = lift_like(self.value, 2.0) if k == 2 else (k * (k - 1)) * pow_(self.value, k - 2)
        g = u * self.grad
        h = u * self.hess + w * (self.grad[I] * self.grad[J])
        return Dual2(pow_(self.value, k), g, h)


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
    """Second-order seeds (zero Hessians) for the variables x_1..x_n,
    given batched payloads (float or interval arrays of one shape)."""
    n = len(payloads)
    zeros = [0.0] * (n * (n + 1) // 2)
    return [
        Dual2(v, stack_like(v, [float(j == i) for j in range(n)]), stack_like(v, zeros))
        for i, v in enumerate(payloads)
    ]


def hessian_of(out, ivec):
    """The Hessian of a result of evaluating over dual2_seeds(ivec), for N
    boxes ivec (an IntervalArray of shape (n, N)): an IntervalArray of
    shape (N, n, n), zero when the result does not depend on x."""
    n, N = ivec.lo.shape
    if not isinstance(out, Dual2):
        return IntervalArray.point(np.zeros((N, n, n)))
    pos = tril(n)[2]
    return IntervalArray(out.hess.lo.T[:, pos], out.hess.hi.T[:, pos])
