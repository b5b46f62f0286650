"""Hyper-rectangle sampling units and 2-refinement.

A box is stored as a center plus an offset vector of length 2n holding,
per axis, the upper offset (>= 0) at the even slot and the lower offset
(<= 0) at the odd slot.  This asymmetric form lets refinement children
keep their parent's exact extents.  Distances paired with boxes use the
infinity norm throughout, so 2-refinement tiles a box without overlap.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

import numpy as np

from .interval import IntervalArray


class HyperRect:
    """Axis-aligned box around a sample point."""

    __slots__ = ("center", "delta")

    def __init__(self, center, delta):
        self.center = np.asarray(center, dtype=float).copy()
        self.delta = np.asarray(delta, dtype=float).copy()
        n = self.center.shape[0]
        if self.delta.shape != (2 * n,):
            raise ValueError(
                f"offset vector must have length {2*n}, got {self.delta.shape}"
            )
        if np.any(self.delta[0::2] < 0.0) or np.any(self.delta[1::2] > 0.0):
            raise ValueError("upper offsets must be >= 0 and lower offsets <= 0")

    @classmethod
    def from_bounds(cls, lo, hi) -> "HyperRect":
        lo = np.asarray(lo, dtype=float)
        hi = np.asarray(hi, dtype=float)
        center = 0.5 * (lo + hi)
        delta = np.empty(2 * lo.shape[0])
        delta[0::2] = hi - center
        delta[1::2] = lo - center
        return cls(center, delta)

    @property
    def n(self) -> int:
        return self.center.shape[0]

    @property
    def hi_offsets(self) -> np.ndarray:
        return self.delta[0::2]

    @property
    def lo_offsets(self) -> np.ndarray:
        return self.delta[1::2]

    @property
    def lower(self) -> np.ndarray:
        return self.center + self.lo_offsets

    @property
    def upper(self) -> np.ndarray:
        return self.center + self.hi_offsets

    @property
    def tau(self) -> np.ndarray:
        """Per-axis max offset magnitude."""
        return np.maximum(self.hi_offsets, -self.lo_offsets)

    @property
    def max_abs_delta(self) -> float:
        return float(np.max(np.abs(self.delta))) if self.delta.size else 0.0

    @property
    def volume(self) -> float:
        return float(np.prod(self.upper - self.lower))

    def contains_point(self, x) -> bool:
        d = np.asarray(x, dtype=float) - self.center
        return bool(
            np.all(d <= self.hi_offsets + 0.0) and np.all(d >= self.lo_offsets)
        )

    def encloses(self, other: "HyperRect") -> bool:
        return bool(
            np.all(other.lower >= self.lower - 1e-12)
            and np.all(other.upper <= self.upper + 1e-12)
        )

    def to_interval_vector(self) -> IntervalArray:
        """The box as a batch of one: an IntervalArray of shape (n, 1)."""
        return interval_batch([self])

    def vertices(self) -> Iterable[np.ndarray]:
        offs = [(self.hi_offsets[i], self.lo_offsets[i]) for i in range(self.n)]
        for choice in itertools.product(*offs):
            yield self.center + np.array(choice)

    def __repr__(self) -> str:
        return f"HyperRect(center={self.center.tolist()}, delta={self.delta.tolist()})"


def interval_batch(boxes: Sequence[HyperRect]) -> IntervalArray:
    """N boxes as one IntervalArray of shape (n, N): row i is axis i of every box."""
    centers = np.array([b.center for b in boxes])
    lower = centers + np.array([b.lo_offsets for b in boxes])
    upper = centers + np.array([b.hi_offsets for b in boxes])
    return IntervalArray(np.ascontiguousarray(lower.T), np.ascontiguousarray(upper.T))


def tau_of(delta) -> np.ndarray:
    delta = np.asarray(delta, dtype=float)
    return np.maximum(delta[0::2], -delta[1::2])


def max_abs_delta(delta) -> float:
    delta = np.asarray(delta, dtype=float)
    return float(np.max(np.abs(delta))) if delta.size else 0.0


def refine2(box: HyperRect, dims: Optional[Sequence[int]] = None) -> list:
    """Split a box in two along each selected axis (all axes by default).

    Child centers are the midpoints between the parent center and the
    selected vertices; offsets halve on the refined axes.  The children
    tile the parent with disjoint interiors.
    """
    if dims is None:
        dims = [i for i in range(box.n) if box.hi_offsets[i] > box.lo_offsets[i]]
    dims = sorted(set(int(d) for d in dims))
    if not dims:
        raise ValueError("refinement needs at least one axis")
    for d in dims:
        if box.hi_offsets[d] <= box.lo_offsets[d]:
            raise ValueError(f"axis {d} is degenerate and cannot be refined")

    children = []
    for choice in itertools.product((0, 1), repeat=len(dims)):
        center = box.center.copy()
        delta = box.delta.copy()
        for d, pick_hi in zip(dims, choice):
            off = box.hi_offsets[d] if pick_hi else box.lo_offsets[d]
            center[d] += 0.5 * off
            delta[2 * d] = 0.5 * box.hi_offsets[d]
            delta[2 * d + 1] = 0.5 * box.lo_offsets[d]
        children.append(HyperRect(center, delta))
    return children


def longest_axes(box: HyperRect) -> list:
    """Indices of the axes attaining the maximum extent (for n_r < n splits)."""
    ext = box.upper - box.lower
    m = float(ext.max())
    return [i for i in range(box.n) if ext[i] >= m - 1e-15]


@dataclass
class SampleRecord:
    """One tested sample point with its box and certificate data."""

    spoint: np.ndarray
    delta: np.ndarray
    tau: np.ndarray
    F_value: Optional[float]
    gamma: Optional[float]
    flag: Optional[str] = None  # None for plain value failures / successes

    def box(self) -> HyperRect:
        return HyperRect(self.spoint, self.delta)

    def sort_key(self):
        return (tuple(self.spoint.tolist()), tuple(self.delta.tolist()))


@dataclass
class SampleLedger:
    """Certified (good) and undecided (wrong) samples of one search."""

    good: list = field(default_factory=list)
    wrong: list = field(default_factory=list)

    def sort(self):
        self.good.sort(key=SampleRecord.sort_key)
        self.wrong.sort(key=SampleRecord.sort_key)

    def good_volume(self) -> float:
        return sum(r.box().volume for r in self.good)
