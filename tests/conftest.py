import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))  # make oracles importable

from lyapcert import CandidateV, HyperRect, IntervalArray, VectorField, parse_expr
from lyapcert.system import Guard, PiecewiseSystem, Region

CONFIG_DIR = Path(__file__).parent.parent / "src" / "lyapcert" / "configs"


def _field(dim, *texts):
    return VectorField(dim, tuple(parse_expr(t, dim) for t in texts))


def one_box(lo, hi):
    """The box [lo, hi] as a batch of one: an IntervalArray of shape (n, 1)."""
    return IntervalArray(np.array(lo, dtype=float)[:, None], np.array(hi, dtype=float)[:, None])


@pytest.fixture(scope="session")
def switched_sys():
    """Two-region system that is discontinuous across the first axis."""
    up = Region((Guard(parse_expr("x2", 2), ">="),), _field(2, "0.5*x1", "-0.8*x2 - x1^2"))
    down = Region((Guard(parse_expr("x2", 2), "<"),), _field(2, "0.5*x1 + x1*x2", "-0.8*x2"))
    return PiecewiseSystem(2, "discrete", (up, down))


@pytest.fixture(scope="session")
def poly2d_sys():
    """Smooth 2D polynomial map with a stable origin."""
    f = _field(2, "0.5*x1 + x1^2 - x2^2", "-0.5*x2 + x1^2")
    return PiecewiseSystem(2, "discrete", (Region((), f),))


@pytest.fixture(scope="session")
def contract1d_sys():
    f = _field(1, "0.5*x1")
    return PiecewiseSystem(1, "discrete", (Region((), f),))


@pytest.fixture(scope="session")
def cubic1d_sys():
    """1-D map with extra equilibria at +-sqrt(5/6) inside [-1, 1]."""
    f = _field(1, "0.5*x1 + 0.6*x1^3")
    return PiecewiseSystem(1, "discrete", (Region((), f),))


@pytest.fixture(scope="session")
def ct3d_sys():
    f = _field(
        3,
        "x1*(x1^2 + x2^2 - 1) - x2*(x3^2 + 1)",
        "x2*(x1^2 + x2^2 - 1) + x1*(x3^2 + 1)",
        "10*x3*(x3^2 - 1)",
    )
    return PiecewiseSystem(3, "continuous", (Region((), f),))


@pytest.fixture
def V_identity():
    return CandidateV(np.eye(2), 0.999)


@pytest.fixture
def unit_box2():
    return HyperRect([0.0, 0.0], [1.0, -1.0, 1.0, -1.0])
