import itertools

import numpy as np
import pytest

from lyapcert.geometry import (
    HyperRect,
    max_abs_delta,
    refine2,
    tau_of,
)


def test_tau_and_max_abs():
    assert tau_of([1, -1, 1.3, -1.3]) == pytest.approx([1, 1.3])
    assert tau_of([0.2, -0.1]) == pytest.approx([0.2])
    assert tau_of([0, 0]) == pytest.approx([0])
    assert max_abs_delta([1, -1, 1.3, -1.3]) == 1.3
    assert max_abs_delta([0.02, -0.02, 0.01, -0.01]) == 0.02
    assert max_abs_delta([0, 0]) == 0


def test_refine2_square():
    box = HyperRect([0, 0], [1, -1, 1, -1])
    kids = refine2(box)
    assert len(kids) == 4
    centers = sorted(tuple(k.center) for k in kids)
    assert centers == [(-0.5, -0.5), (-0.5, 0.5), (0.5, -0.5), (0.5, 0.5)]
    for k in kids:
        assert k.delta == pytest.approx([0.5, -0.5, 0.5, -0.5])


def test_refine2_1d():
    box = HyperRect([0.0], [1.0, -1.0])
    kids = refine2(box)
    assert sorted(k.center[0] for k in kids) == [-0.5, 0.5]


def test_refine2_tiles_parent():
    rng = np.random.default_rng(5)
    for _ in range(20):
        c = rng.uniform(-2, 2, 2)
        hi = rng.uniform(0.1, 1.0, 2)
        lo = -rng.uniform(0.1, 1.0, 2)
        box = HyperRect(c, [hi[0], lo[0], hi[1], lo[1]])
        kids = refine2(box)
        # children stay inside the parent and halve the resolution
        for k in kids:
            assert box.encloses(k)
            assert k.max_abs_delta == pytest.approx(box.max_abs_delta / 2)
        # random points of the parent land in exactly one child interior
        pts = rng.uniform(box.lower, box.upper, size=(500, 2))
        for p in pts:
            hits = sum(k.contains_point(p) for k in kids)
            assert hits >= 1
        # disjoint interiors: shrink each child slightly and check pairwise
        for a, b in itertools.combinations(kids, 2):
            mid_a, mid_b = a.center, b.center
            assert not (a.contains_point(mid_b) and b.contains_point(mid_a))


def test_refine2_subset_of_axes():
    box = HyperRect([0, 0], [1, -1, 2, -2])
    kids = refine2(box, dims=[1])
    assert len(kids) == 2
    for k in kids:
        assert k.hi_offsets[0] == 1.0  # untouched axis
        assert k.hi_offsets[1] == 1.0


def test_refine2_empty_dims_rejected():
    box = HyperRect([0, 0], [1, -1, 1, -1])
    with pytest.raises(ValueError):
        refine2(box, dims=[])


def test_contains_point_boundary():
    box = HyperRect([0, 0], [1, -1, 1, -1])
    assert box.contains_point([0.5, -1.0])
    assert not box.contains_point([1.01, 0.0])
    assert box.contains_point([0.0, 0.0])


def test_delta_vertex_fixpoint():
    # the vertices span exactly the box's offsets along every axis
    box = HyperRect([0.3, -0.2], [0.5, -0.25, 0.1, -0.4])
    diff = np.array(list(box.vertices())) - box.center
    assert diff.max(axis=0) == pytest.approx(box.hi_offsets)
    assert diff.min(axis=0) == pytest.approx(box.lo_offsets)


def test_nested_refinement_stays_inside():
    S = HyperRect([0, 0], [1, -1, 1.3, -1.3])
    boxes = [S]
    for _ in range(3):
        boxes = [k for b in boxes for k in refine2(b)]
    for b in boxes:
        assert S.encloses(b)


def test_invalid_offsets_rejected():
    with pytest.raises(ValueError):
        HyperRect([0.0], [-0.1, -0.2])  # upper offset negative
    with pytest.raises(ValueError):
        HyperRect([0.0], [0.1, 0.2])  # lower offset positive
