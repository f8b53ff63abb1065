"""Iterative primal-dual methods for linear optimization over separation oracles."""

from .certificates import (
    DualCertificate,
    VerifyReport,
    build_general_certificate,
    build_polar_certificate,
    certificate_from_text,
    certificate_to_text,
    verify_certificate,
)
from .corrective import (
    UpdateStrategy,
    fully_corrective,
    min_norm_point,
    partially_corrective,
    segment_only,
)
from .geometry import project_point_to_segment
from .lp_baseline import (
    InfeasibleLPError,
    LinearProgram,
    LPStop,
    UnboundedLPError,
    cut_loop,
    solve_lp,
)
from .oracle import (
    BallOracle,
    Constraint,
    ConstraintForm,
    Inside,
    PolytopeOracle,
    SeparationOracle,
    Violated,
    box_oracle,
    normalize_polar,
    normalize_unit,
)
from .solver_general import (
    GeneralState,
    run_general,
)
from .solver_polar import (
    PolarMode,
    PolarState,
    run_polar,
)
from .trace import CapOnly, ConvergenceTrace, GapStop, RunResult, StopRule, TraceRow
from .trace import InvariantError

__all__ = [name for name in dir() if not name.startswith("_")]
