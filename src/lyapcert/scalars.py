"""Generic scalar operations over the value types used by the evaluators.

The expression evaluator and the dual-number chain rules are written once
against these helpers, which dispatch on the payload type: Python floats,
numpy arrays (batched evaluation), interval arrays (enclosures; an
Interval is the 0-d one), and dual numbers.  Batched payloads give,
entry by entry, the same numbers as their one-entry counterparts.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from .errors import DomainError
from .interval import _SQRT_TOL, IntervalArray, pow_each


def sqrt_(v):
    if isinstance(v, np.ndarray):
        if np.any(v < -_SQRT_TOL):
            raise DomainError("sqrt of negative value in batch")
        return np.sqrt(np.where(0.0 > v, 0.0, v))
    if isinstance(v, numbers.Real):
        x = float(v)
        if x < -_SQRT_TOL:
            raise DomainError(f"sqrt of negative value {x}")
        return math.sqrt(max(x, 0.0))
    return v.sqrt()


def pow_(v, k: int):
    if isinstance(v, np.ndarray):
        return pow_each(v, k)
    if isinstance(v, numbers.Real):
        return float(v) ** k
    return v.pow_int(k)


def abs_(v):
    if isinstance(v, np.ndarray):
        return np.abs(v)
    if isinstance(v, numbers.Real):
        return abs(float(v))
    return abs(v)


def div_(a, b):
    if isinstance(b, np.ndarray):
        if np.any(b == 0.0):
            raise DomainError("division by zero in batch")
        return a / b
    if isinstance(b, numbers.Real):
        if float(b) == 0.0:
            raise DomainError("division by zero")
        return a / b
    return a / b  # interval, interval-array and dual payloads raise DomainError themselves


def strict_sign(v):
    """+1 / -1 when the sign of v is unambiguous, else None.

    For batched payloads the sign must be the same in every entry.
    """
    if isinstance(v, np.ndarray):
        if np.all(v > 0.0):
            return 1
        if np.all(v < 0.0):
            return -1
        return None
    if isinstance(v, numbers.Real):
        x = float(v)
        return 1 if x > 0.0 else (-1 if x < 0.0 else None)
    if isinstance(v, IntervalArray):
        if np.all(v.lo > 0.0):
            return 1
        if np.all(v.hi < 0.0):
            return -1
        return None
    return strict_sign(v.value)  # dual numbers: sign of the primal


def lift_like(template, c):
    """Embed the constant c into the same value type as template."""
    if isinstance(template, np.ndarray):
        return float(c)  # broadcasting handles the rest
    if isinstance(template, numbers.Real):
        return float(c)
    if isinstance(template, IntervalArray):
        return template.constant(c)
    return template.lift(c)  # dual numbers lift recursively


def full_like(template, c):
    """The constant c in every entry of a batched payload's shape."""
    if isinstance(template, np.ndarray):
        return np.full(template.shape, float(c))
    return template.constant(c)


def stack_like(template, consts):
    """consts[i] in every entry of the batched template's shape, stacked
    along a new leading axis, in the template's payload kind."""
    x = np.multiply.outer(consts, np.ones(getattr(template, "lo", template).shape))
    return x if isinstance(template, np.ndarray) else IntervalArray(x, x)


def take_rows(v, rows):
    """The entries `rows` (last axis) of a batched payload, in its own kind.

    A plain number is the same for every entry and stays as it is.
    Interval arrays and dual numbers take field by field: they are built
    from their slots, in order."""
    if isinstance(v, numbers.Real):
        return v
    if isinstance(v, np.ndarray):
        return v[..., rows]
    if isinstance(v, tuple):  # the gradient of a Dual
        return tuple(take_rows(g, rows) for g in v)
    return type(v)(*(take_rows(getattr(v, a), rows) for a in v.__slots__))


def stitch_rows(parts, rows, count: int):
    """The batched payload of `count` entries whose entries rows[i] are
    parts[i]: the inverse of take_rows over a partition of the entries.

    Plain numbers stand for every entry of their part.  One number shared
    by all parts stays a number, and numbers among float arrays fill their
    entries, which then take the same bits under every float operation.
    Other parts must have one kind: a number beside an interval or dual
    payload would change the operations that later steps apply to its
    entries, so that, and any other mix, raises DomainError.
    """
    first = parts[0]
    if all(isinstance(p, numbers.Real) for p in parts):
        if len({float(p).hex() for p in parts}) == 1:
            return first
    elif all(isinstance(p, (numbers.Real, np.ndarray)) for p in parts):
        shape = next(p.shape for p in parts if isinstance(p, np.ndarray))
        out = np.empty(shape[:-1] + (count,))
        for p, r in zip(parts, rows):
            out[..., r] = p
        return out
    elif all(type(p) is type(first) for p in parts):
        if isinstance(first, tuple):
            return tuple(stitch_rows(gs, rows, count) for gs in zip(*parts))
        fields = ([getattr(p, a) for p in parts] for a in first.__slots__)
        return type(first)(*(stitch_rows(f, rows, count) for f in fields))
    raise DomainError("branch rows give payloads of different kinds")
