"""Sampling-based Lyapunov decrease certification and DOA estimation.

Certify that a candidate Lyapunov function decreases along a piecewise
nonlinear system on a compact set by testing finitely many sample boxes
with rigorous interval-arithmetic slack, then estimate a sublevel set of
the resulting Lyapunov function as a subset of the domain of attraction.
"""

from .ad import Dual, Dual2
from .bounds import (
    BoundCoefficients,
    DecreaseMap,
    DerivativeAlongFlowMap,
    SumOfIteratesMap,
    WContext,
    assess_branch,
    certificate_slack,
    gradient_coefficient,
    remainder_bound,
    w_point_value,
)
from .config import RunConfig, config_digest
from .errors import (
    BranchOverflowError,
    ConfigError,
    CoverageError,
    DomainError,
    LyapcertError,
    NotLocallyStableError,
    ParseError,
    TieError,
)
from .expr import (
    VectorField,
    eval_batch,
    eval_grad,
    eval_hess_interval,
    eval_interval,
    eval_real,
    parse_expr,
    pretty,
)
from .geometry import (
    HyperRect,
    SampleLedger,
    SampleRecord,
    max_abs_delta,
    refine2,
    tau_of,
)
from .interval import Interval, IntervalArray
from .levelset import (
    LevelEstimate,
    boundary_samples,
    estimate_level,
    level_lower_bound,
    obstacle_samples,
)
from .localyap import (
    LocalCertificate,
    common_lyapunov,
    linearize,
    max_level_in_box,
    solve_discrete_lyapunov,
    verify_local,
)
from .pipeline import (
    RunReport,
    export_plot_data,
    recompute_level,
    run_verify_ct,
    run_verify_dt,
)
from .system import (
    CandidateV,
    Guard,
    PiecewiseSystem,
    Region,
    branch_jump,
    decrease_value,
    enumerate_box_branches,
    enumerate_branches,
    euler_discretize,
    iterate,
    region_of,
    regions_intersecting,
    step,
    translate_system,
)
from .verifier import (
    Certificate,
    DecreaseContext,
    FlowDerivativeContext,
    VerifyConfig,
    WDescription,
    build_certified_region,
    check_invariance,
    search_horizon,
    verify_box,
    verify_boxes,
    verify_continuous,
)

__version__ = "0.1.0"
