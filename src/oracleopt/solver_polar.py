"""Iterative solver for convex sets containing the origin in their interior.

Maintains a target vector f = c / gamma encoding the incumbent-value
inequality <c, x> <= gamma and an aggregated valid inequality <q, x> <= 1
kept as a convex combination of oracle-returned constraints.  Each
iteration either improves the incumbent, shortens the aggregate, or pulls
the aggregate toward the target with a freshly separated constraint.  The
distance ||f - q|| directly certifies an upper bound on the optimum.

The packing variant handles down-closed bodies in the nonnegative orthant:
after every update the aggregate is clipped at the target component-wise,
and a shadow point inside the convex hull of the constraints keeps the dual
certificate intact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

import numpy as np

from . import corrective as corr
from .certificates import build_polar_certificate
from .geometry import as_vector, project_point_to_segment
from .oracle import Constraint, ConstraintForm, Inside, SeparationOracle, normalize_polar
from .trace import CapOnly, RunResult, StopRule, drive, require

# Threshold under which the separating direction is considered degenerate
# and the aggregate is shortened instead; the algorithm's own rule is <= 0,
# and near-zero positive denominators would only produce enormous candidate
# points the oracle rejects anyway.
SHRINK_TOL = 1e-12

_RENORM_EVERY = 100


class PolarMode(Enum):
    STANDARD = "standard"
    PACKING = "packing"


class StepKind(Enum):
    SHRINK = "shrink"
    PRIMAL_IMPROVE = "primal"
    DUAL_CUT = "cut"


@dataclass
class PolarState:
    """Full iterate of the origin-centered solver."""

    t: int
    gamma: float
    c: np.ndarray
    target: np.ndarray  # f = c / gamma
    aggregate: np.ndarray  # q, the maintained valid-inequality vector
    atoms: corr.AtomSet  # polar-normalized rows, matrix of their a; row 0 is the zero row
    weights: np.ndarray  # simplex weights over atoms
    mode: PolarMode
    shadow: Optional[np.ndarray] = None  # packing: weights @ atoms >= aggregate
    oracle_calls: int = 0
    incumbent: Optional[np.ndarray] = None
    cuts: list[Constraint] = field(default_factory=list)
    _residual: tuple = field(default=(None, None, 0.0), init=False, repr=False)

    @property
    def residual(self) -> float:
        """||f - q||, computed once per pair of arrays: both are rebound, never changed."""
        target, aggregate, value = self._residual
        if target is not self.target or aggregate is not self.aggregate:
            value = float(np.linalg.norm(self.target - self.aggregate))
            self._residual = self.target, self.aggregate, value
        return value


@dataclass
class GammaInit:
    gamma1: float
    point: Optional[np.ndarray]
    oracle_calls: int


def initialize_gamma(oracle: SeparationOracle, c, R: float, r_known=None) -> GammaInit:
    """Find a starting objective value backed by a feasible point.

    With a known inner radius the value (r/2)||c|| is certified by the point
    (r / (2 ||c||)) c.  Otherwise scaled-down multiples of c are tested,
    halving the scale each time; the first point inside K has value at least
    (r/2)||c|| even though r stays unknown.
    """
    c = as_vector(c)
    cnorm = float(np.linalg.norm(c))
    if cnorm == 0:
        raise ValueError("objective must be nonzero")
    if r_known is not None:
        gamma1 = 0.5 * r_known * cnorm
        return GammaInit(gamma1, (gamma1 / cnorm**2) * c, 0)
    max_halvings = math.ceil(math.log2(R / 1e-12))
    calls = 0
    for i in range(1, max_halvings + 1):
        x = (R / (2**i * cnorm)) * c
        calls += 1
        if isinstance(oracle.separate(x), Inside):
            return GammaInit(float(c @ x), x, calls)
    raise RuntimeError("no feasible scaled objective point found; K appears empty or R wrong")


def candidate_point(state: PolarState) -> Optional[np.ndarray]:
    """Candidate primal point, or None when the shrink branch must fire."""
    diff = state.target - state.aggregate
    denom = float(diff @ (state.target + state.aggregate))
    if denom <= SHRINK_TOL:
        return None
    return (2.0 / denom) * diff


def dual_bound(state: PolarState, R: float) -> float:
    """Certified upper bound gamma * (1 + ||f - q|| R) on the optimum.

    Valid in packing mode as well: there the aggregate sits below a point of
    the constraint hull and the difference is charged to the nonnegativity
    rows, which leaves the bound unchanged.
    """
    return state.gamma * (1.0 + state.residual * R)


def _polar_row(cons: Constraint, mode: PolarMode) -> Constraint:
    if cons.form is not ConstraintForm.POLAR:
        cons = normalize_polar(cons.a, cons.b, name=cons.name)
    if mode is PolarMode.PACKING and (cons.a < 0).any():
        # Down-closed bodies admit the positive part of any valid row, and
        # clipping keeps the constraint norms bounded by 1/r.
        cons = Constraint(np.maximum(cons.a, 0.0), 1.0, ConstraintForm.POLAR, cons.name)
    return cons


def _ingest_cut(state: PolarState, cons: Constraint) -> int:
    cons = _polar_row(cons, state.mode)
    index = state.atoms.add(cons, cons.a)
    if index == len(state.weights):
        state.weights = np.append(state.weights, 0.0)
        state.cuts.append(cons)
    return index


def polar_step(
    state: PolarState, oracle: SeparationOracle, strategy: corr.UpdateStrategy
) -> StepKind:
    """Advance the state by one iteration; returns which branch fired."""
    state.t += 1
    gamma_before = state.gamma
    residual_before = state.residual

    x = candidate_point(state)
    if x is None:
        kind = StepKind.SHRINK
        anchor = 0
    else:
        if state.mode is PolarMode.PACKING:
            require(x.min() >= -1e-9, "packing query point left the nonnegative orthant")
        result = oracle.separate(x)
        state.oracle_calls += 1
        if isinstance(result, Inside):
            kind = StepKind.PRIMAL_IMPROVE
            gamma_new = float(state.c @ x)
            require(gamma_new >= state.gamma - 1e-9 * (1 + abs(state.gamma)), "gamma fell")
            state.gamma = gamma_new
            state.target = state.c / gamma_new
            state.incumbent = x
            anchor = 0
        else:
            kind = StepKind.DUAL_CUT
            anchor = _ingest_cut(state, result.constraint)

    _update_aggregate(state, anchor, strategy)

    if state.t % _RENORM_EVERY == 0:
        w = np.maximum(state.weights, 0.0)
        state.weights = w / w.sum()

    require(state.gamma >= gamma_before - 1e-9 * (1 + abs(gamma_before)), "gamma fell")
    require(state.residual <= residual_before + 1e-9 * (1 + residual_before), "residual grew")
    return kind


def _update_aggregate(state: PolarState, anchor: int, strategy: corr.UpdateStrategy) -> None:
    f = state.target
    anchor_vec = state.atoms.matrix[anchor]
    packing = state.mode is PolarMode.PACKING

    seg_point, lam = project_point_to_segment(anchor_vec, state.aggregate, f)
    seg_weights = lam * state.weights
    seg_weights[anchor] += 1.0 - lam
    seg_shadow = None
    if packing:
        seg_shadow = lam * state.shadow + (1.0 - lam) * anchor_vec
        seg_result = np.minimum(f, seg_point)
    else:
        seg_result = seg_point

    if strategy.corrective_due(state.t):
        matrix = state.atoms.matrix
        if strategy.kind is corr.StrategyKind.PARTIALLY_CORRECTIVE:
            res = corr.partially_corrective_update(
                f, matrix, seg_weights, anchor, 2 * f.shape[0], recession_nonneg=packing
            )
        else:
            res = corr.min_norm_point(f, matrix, recession_nonneg=packing, start=seg_weights)
        cand_point = np.minimum(f, res.point) if packing else res.point
        cand_dist = float(np.linalg.norm(f - cand_point))
        if cand_dist <= float(np.linalg.norm(f - seg_result)) + 1e-9:
            state.aggregate = cand_point
            state.weights = res.weights
            if packing:
                state.shadow = res.point + res.slack
            return
        # A safeguarded fallback from the subproblem can come back worse;
        # the segment update keeps the convergence guarantee.

    state.aggregate = seg_result
    state.weights = seg_weights
    if packing:
        state.shadow = seg_shadow


def run_polar(
    oracle: SeparationOracle,
    c,
    *,
    gamma1: Optional[float] = None,
    stop: Optional[StopRule] = None,
    max_iters: int = 1000,
    strategy: corr.UpdateStrategy | None = None,
    mode: PolarMode = PolarMode.STANDARD,
    initial_constraints=(),
) -> RunResult:
    """Run the solver until the stop rule fires or the iteration cap hits.

    gamma1 may be given directly (it must be a value attained by some point
    of K), derived from the oracle's inner radius r when it advertises one,
    or found by the halving search against the oracle.  Initial constraints
    join the atom set so corrective steps and certificates can use them.
    """
    c = as_vector(c)
    cnorm = float(np.linalg.norm(c))
    if cnorm == 0:
        raise ValueError("objective must be nonzero")
    R = oracle.radius_outer
    strategy = strategy or corr.segment_only()
    stop = stop or CapOnly()
    if mode is PolarMode.PACKING and np.min(c) < 0:
        raise ValueError("packing mode requires a nonnegative objective")

    incumbent0 = None
    init_calls = 0
    if gamma1 is None:
        init = initialize_gamma(oracle, c, R, r_known=oracle.radius_inner)
        gamma1, incumbent0, init_calls = init.gamma1, init.point, init.oracle_calls
    if gamma1 <= 0:
        raise ValueError("initial objective value must be positive")

    dim = c.shape[0]
    zero_row = Constraint(np.zeros(dim), 1.0, ConstraintForm.POLAR, "zero")
    # One pass over the stacked rows finds those that need normalizing or clipping.
    rows = list(initial_constraints)
    vectors = np.array([row.a for row in rows]).reshape(len(rows), dim)
    redo = np.array([row.form is not ConstraintForm.POLAR for row in rows], dtype=bool)
    redo |= (mode is PolarMode.PACKING) & (vectors < 0).any(axis=1)
    for i in redo.nonzero()[0]:
        rows[i] = _polar_row(rows[i], mode)
        vectors[i] = rows[i].a
    atoms = corr.AtomSet(zero_row, zero_row.a, rows, vectors)
    state = PolarState(
        t=0,
        gamma=float(gamma1),
        c=c,
        target=c / gamma1,
        aggregate=np.zeros(dim),
        atoms=atoms,
        weights=np.eye(1, len(atoms.rows))[0],  # all weight on the zero row
        mode=mode,
        shadow=np.zeros(dim) if mode is PolarMode.PACKING else None,
        oracle_calls=init_calls,
        incumbent=incumbent0,
    )

    trace, converged = drive(
        lambda: polar_step(state, oracle, strategy).value,
        lambda: (state.gamma, dual_bound(state, R), state.residual, state.oracle_calls),
        stop,
        max_iters,
        c,
        state.cuts,
    )
    return RunResult(
        incumbent=state.incumbent,
        gamma=state.gamma,
        bound=dual_bound(state, R),
        certificate=build_polar_certificate(state, R),
        trace=trace,
        converged=converged,
        iterations=state.t,
        state=state,
    )
