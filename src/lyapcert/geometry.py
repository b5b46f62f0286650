"""Hyper-rectangle sampling units and 2-refinement.

A box is stored as a center plus an offset vector of length 2n holding,
per axis, the upper offset (>= 0) at the even slot and the lower offset
(<= 0) at the odd slot.  This asymmetric form lets refinement children
keep their parent's exact extents.  Distances paired with boxes use the
infinity norm throughout, so 2-refinement tiles a box without overlap.

A set of boxes is a BoxArray: the centers and offsets of N boxes as the
rows of two arrays, refined, enclosed and measured with array operations.
HyperRect is the checked single box of user input.
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
        box = BoxArray.from_bounds([lo], [hi])
        return cls(box.centers[0], box.deltas[0])

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


class BoxArray:
    """N boxes as rows: centers of shape (N, n) and offsets of shape (N, 2n),
    each row laid out as a HyperRect's.

    Every quantity of a box (tau, radius, bounds, children) is computed
    row by row with the float operations of its HyperRect, so a row's
    numbers are bit for bit those of the box alone.  The arrays are not
    checked and never modified in place, so sets may share them.
    """

    __slots__ = ("centers", "deltas")

    def __init__(self, centers: np.ndarray, deltas: np.ndarray):
        self.centers = centers
        self.deltas = deltas

    @classmethod
    def of(cls, boxes) -> "BoxArray":
        """A BoxArray as it is, or the boxes of a sequence of HyperRect."""
        if isinstance(boxes, BoxArray):
            return boxes
        return cls._stack([b.center for b in boxes], [b.delta for b in boxes])

    @classmethod
    def of_records(cls, records: Sequence["SampleRecord"]) -> "BoxArray":
        """The boxes of sample records, in order."""
        return cls._stack([r.spoint for r in records], [r.delta for r in records])

    @classmethod
    def _stack(cls, centers: list, deltas: list) -> "BoxArray":
        if not centers:
            return cls(np.zeros((0, 0)), np.zeros((0, 0)))
        return cls(np.array(centers, dtype=float), np.array(deltas, dtype=float))

    @classmethod
    def from_bounds(cls, lo, hi) -> "BoxArray":
        """The boxes with lower corners the rows of `lo`, upper ones of `hi`."""
        lo = np.asarray(lo, dtype=float)
        hi = np.asarray(hi, dtype=float)
        centers = 0.5 * (lo + hi)
        deltas = np.empty((lo.shape[0], 2 * lo.shape[1]))
        deltas[:, 0::2] = hi - centers
        deltas[:, 1::2] = lo - centers
        return cls(centers, deltas)

    @classmethod
    def concat(cls, parts: Sequence["BoxArray"]) -> "BoxArray":
        parts = [p for p in parts if len(p)] or list(parts[:1])
        if len(parts) == 1:
            return parts[0]
        return cls(
            np.concatenate([p.centers for p in parts]), np.concatenate([p.deltas for p in parts])
        )

    def __len__(self) -> int:
        return self.centers.shape[0]

    def __getitem__(self, k: int) -> HyperRect:
        """Box k as a HyperRect over the rows of the arrays, not checked again."""
        box = HyperRect.__new__(HyperRect)
        box.center, box.delta = self.centers[k], self.deltas[k]
        return box

    def take(self, idx) -> "BoxArray":
        """The boxes at the indices (or where the mask is true), in order."""
        return BoxArray(self.centers[idx], self.deltas[idx])

    @property
    def hi_offsets(self) -> np.ndarray:
        return self.deltas[:, 0::2]

    @property
    def lo_offsets(self) -> np.ndarray:
        return self.deltas[:, 1::2]

    @property
    def lower(self) -> np.ndarray:
        return self.centers + self.lo_offsets

    @property
    def upper(self) -> np.ndarray:
        return self.centers + self.hi_offsets

    @property
    def tau(self) -> np.ndarray:
        """Per box and axis the max offset magnitude, shape (N, n)."""
        return np.maximum(self.hi_offsets, -self.lo_offsets)

    @property
    def radius(self) -> np.ndarray:
        """Per box the largest offset magnitude, max |delta|, shape (N,)."""
        if not self.deltas.shape[1]:
            return np.zeros(len(self))
        return np.max(np.abs(self.deltas), axis=1)

    def keys(self) -> list:
        """Per box the bytes of its center and offsets: equal for equal boxes."""
        return [row.tobytes() for row in np.hstack((self.centers, self.deltas))]

    def longest(self) -> np.ndarray:
        """Per box the axes attaining its maximum extent (for n_r < n
        splits), a bool array of shape (N, n)."""
        ext = self.upper - self.lower
        return ext >= ext.max(axis=1, keepdims=True) - 1e-15

    def refine(self, split: Optional[np.ndarray] = None) -> "BoxArray":
        """The children of every box, box by box: box k split in two along
        each axis that row k of `split` (a bool array of shape (N, n))
        marks, by default along each axis of positive extent.

        Child centers are the midpoints between the parent center and the
        selected vertices; offsets halve on the refined axes.  The children
        of a box tile it with disjoint interiors and come in the order of
        itertools.product((0, 1), repeat=axes), 1 for the upper side.
        """
        hi, lo = self.hi_offsets, self.lo_offsets
        if split is None:
            split = hi > lo
        flat = split & ~(hi > lo)
        if flat.any():
            d = int(np.flatnonzero(flat.any(axis=0))[0])
            raise ValueError(f"axis {d} is degenerate and cannot be refined")
        if not len(self):
            return self
        # boxes that split the same axes refine as one block
        codes = split @ (1 << np.arange(split.shape[1]))
        blocks = [np.flatnonzero(codes == c) for c in sorted(set(codes.tolist()))]
        parts = [self._refine_block(rows, np.flatnonzero(split[rows[0]])) for rows in blocks]
        if len(parts) == 1:
            return parts[0]
        owner = [np.repeat(rows, len(p) // len(rows)) for rows, p in zip(blocks, parts)]
        return BoxArray.concat(parts).take(np.argsort(np.concatenate(owner), kind="stable"))

    def _refine_block(self, rows: np.ndarray, dims: np.ndarray) -> "BoxArray":
        """The children of boxes[rows] along the axes `dims`."""
        if not dims.size:
            raise ValueError("refinement needs at least one axis")
        pick = np.array(list(itertools.product((False, True), repeat=dims.size)))
        count = len(pick)
        hi, lo = self.hi_offsets[rows][:, dims], self.lo_offsets[rows][:, dims]
        off = np.where(pick[None], hi[:, None], lo[:, None]).reshape(-1, dims.size)
        centers = np.repeat(self.centers[rows], count, axis=0)
        deltas = np.repeat(self.deltas[rows], count, axis=0)
        centers[:, dims] = centers[:, dims] + 0.5 * off
        deltas[:, 2 * dims] = np.repeat(0.5 * hi, count, axis=0)
        deltas[:, 2 * dims + 1] = np.repeat(0.5 * lo, count, axis=0)
        return BoxArray(centers, deltas)


def interval_batch(boxes) -> IntervalArray:
    """N boxes (a BoxArray, or HyperRects) as one IntervalArray of shape
    (n, N): row i is axis i of every box."""
    boxes = BoxArray.of(boxes)
    return IntervalArray(np.ascontiguousarray(boxes.lower.T), np.ascontiguousarray(boxes.upper.T))


def tau_of(delta) -> np.ndarray:
    delta = np.asarray(delta, dtype=float)
    return np.maximum(delta[0::2], -delta[1::2])


def max_abs_delta(delta) -> float:
    delta = np.asarray(delta, dtype=float)
    return float(np.max(np.abs(delta))) if delta.size else 0.0


def refine2(box: HyperRect, dims: Optional[Sequence[int]] = None) -> list:
    """Split a box in two along each selected axis (all axes of positive
    extent by default): BoxArray.refine of the one box, as HyperRects."""
    boxes = BoxArray.of([box])
    split = None
    if dims is not None:
        split = np.zeros((1, box.n), bool)
        split[0, [int(d) for d in dims]] = True
    children = boxes.refine(split)
    return [HyperRect(c, d) for c, d in zip(children.centers, children.deltas)]


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
        """Sum of the good boxes' volumes, in ledger order."""
        boxes = BoxArray.of_records(self.good)
        return sum(np.prod(boxes.upper - boxes.lower, axis=1).tolist())
