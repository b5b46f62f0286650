"""Generic scalar operations over the value types used by the evaluators.

The expression evaluator and the dual-number chain rules are written once
against these helpers, which dispatch on the payload type: Python floats,
numpy arrays (batched evaluation), intervals, and dual numbers.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from .errors import DomainError

# matches the interval sqrt clamp: slightly negative arguments round to 0
_SQRT_TOL = 1e-12


def sqrt_(v):
    if isinstance(v, np.ndarray):
        if np.any(v < -_SQRT_TOL):
            raise DomainError("sqrt of negative value in batch")
        return np.sqrt(np.maximum(v, 0.0))
    if isinstance(v, numbers.Real):
        x = float(v)
        if x < -_SQRT_TOL:
            raise DomainError(f"sqrt of negative value {x}")
        return math.sqrt(max(x, 0.0))
    return v.sqrt()


def pow_(v, k: int):
    if isinstance(v, np.ndarray):
        return np.power(v, k)
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
    return a / b  # interval / dual payloads raise DomainError themselves


def strict_sign(v):
    """+1 / -1 when the sign of v is unambiguous, else None."""
    if isinstance(v, np.ndarray):
        if np.all(v > 0.0):
            return 1
        if np.all(v < 0.0):
            return -1
        return None
    if isinstance(v, numbers.Real):
        x = float(v)
        return 1 if x > 0.0 else (-1 if x < 0.0 else None)
    if hasattr(v, "lo"):  # interval
        if v.lo > 0.0:
            return 1
        if v.hi < 0.0:
            return -1
        return None
    return strict_sign(v.value)  # dual numbers: sign of the primal


def lift_like(template, c):
    """Embed the constant c into the same value type as template."""
    from .interval import Interval

    if isinstance(template, np.ndarray):
        return float(c)  # broadcasting handles the rest
    if isinstance(template, numbers.Real):
        return float(c)
    if isinstance(template, Interval):
        if isinstance(c, Interval):
            return c
        return Interval.point(float(c))
    return template.lift(c)  # dual numbers lift recursively
