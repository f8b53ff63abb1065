"""Iterative solver for general convex bodies inside the R-ball.

The iterate lives in a lifted constraint space: every valid inequality
<a, x> <= b becomes the vector (a, b), the incumbent-value inequality
becomes the target f = (c, gamma), and the solver shortens a maintained
vector p kept as a convex combination of constraint vectors and the negated
target.  The lifted norm of p bounds the optimality gap once the target
carries positive weight.

Internally everything is computed in units where the enclosing ball is the
unit ball and the objective has unit length: constraint right-hand sides
and the incumbent value are divided by R, and query points are scaled back
up before reaching the oracle.  This keeps the iteration exactly invariant
under rescaling of K and makes the per-iteration contraction and the
orthogonality identity of the primal-improvement branch hold for every R,
not just R = 1.  Reported values, certificates, and traces are mapped back
to caller units.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

import numpy as np

from . import corrective as corr
from .certificates import build_ball_certificate, build_general_certificate
from .geometry import as_vector, project_point_to_segment
from .oracle import Constraint, ConstraintForm, Inside, SeparationOracle, normalize_unit
from .trace import CapOnly, RunResult, StopRule, drive, require

# Below this, the candidate extraction divides by a vanishing coefficient;
# the branch that shortens toward the ball row is valid whenever it is <= 0.
ALPHA_TOL = 1e-12

_RENORM_EVERY = 100


class StepKind(Enum):
    SHRINK_BALL = "shrink_ball"
    SHRINK_TARGET = "shrink_target"
    PRIMAL_IMPROVE = "primal"
    DUAL_CUT = "cut"


@dataclass
class GeneralState:
    """Full iterate, stored in enclosing-ball units (see module docstring)."""

    t: int
    gamma: float  # scaled incumbent value; starts at -1
    lam: float  # weight on the negated target
    gap_vec: np.ndarray  # p, length n+1; Euclidean norm = lifted norm
    atom_part: np.ndarray  # sum of nu_i * lifted atom i
    atoms: corr.AtomSet  # caller-unit rows, matrix of their lifted (a, b / R); row 0 is <0, x> <= R
    nu: np.ndarray  # conic weights over atoms, sum(nu) + lam == 1
    cnorm: float
    R: float
    c_unit: np.ndarray
    oracle_calls: int = 0
    incumbent: Optional[np.ndarray] = None
    cuts: list[Constraint] = field(default_factory=list)

    @property
    def gamma_out(self) -> float:
        """Incumbent objective value in caller units."""
        return self.R * self.cnorm * self.gamma

    @property
    def rnorm_gap(self) -> float:
        return float(np.linalg.norm(self.gap_vec))

    def target_lifted(self) -> np.ndarray:
        return np.append(self.c_unit, self.gamma)


def general_dual_bound(state: GeneralState) -> Optional[float]:
    """Upper bound gamma + (2R / lam) * ||p|| on the optimum, in caller units.

    None while the target carries no weight; the bound degrades as 1 / lam
    so tiny weights certify nothing useful.
    """
    if state.lam < 1e-9:
        return None
    return state.gamma_out + (2.0 * state.R / state.lam) * state.cnorm * state.rnorm_gap


def _unit_row(cons: Constraint, R: float) -> Constraint:
    if cons.form is not ConstraintForm.UNIT:
        cons = normalize_unit(cons.a, cons.b, name=cons.name)
    if cons.b > R:
        # A row weaker than the enclosing ball carries no extra information;
        # tightening keeps it valid and preserves the violation.
        cons = Constraint(cons.a, R, ConstraintForm.UNIT, cons.name)
    return cons


def _ingest_cut(state: GeneralState, cons: Constraint) -> int:
    cons = _unit_row(cons, state.R)
    index = state.atoms.add(cons, np.append(cons.a, cons.b / state.R))
    if index == len(state.nu):
        state.nu = np.append(state.nu, 0.0)
        state.cuts.append(cons)
    return index


def _segment_to(state: GeneralState, vec: np.ndarray, atom_idx: Optional[int]) -> float:
    """Move the gap vector to the norm minimizer of [gap_vec, vec].

    atom_idx None means vec is the negated target.  Returns the segment
    coefficient toward vec and updates the maintained decomposition.
    """
    point, theta = project_point_to_segment(state.gap_vec, vec, np.zeros_like(vec))
    state.gap_vec = point
    state.nu *= 1.0 - theta
    state.atom_part = (1.0 - theta) * state.atom_part
    if atom_idx is None:
        state.lam = (1.0 - theta) * state.lam + theta
    else:
        state.lam *= 1.0 - theta
        state.nu[atom_idx] += theta
        state.atom_part += theta * state.atoms.matrix[atom_idx]
    return theta


def general_step(
    state: GeneralState, oracle: SeparationOracle, strategy: corr.UpdateStrategy
) -> StepKind:
    """Advance the state by one iteration; returns which branch fired."""
    state.t += 1
    norm_before = state.rnorm_gap

    alpha = state.gap_vec[-1]
    candidate = None if alpha <= ALPHA_TOL else -state.gap_vec[:-1] / alpha

    if candidate is None:
        kind = StepKind.SHRINK_BALL
        require(float(state.atoms.matrix[0] @ state.gap_vec) <= 1e-9, "ball row is no descent")
        _segment_to(state, state.atoms.matrix[0], 0)
    else:
        value = float(state.c_unit @ candidate)
        if value <= state.gamma:
            kind = StepKind.SHRINK_TARGET
            neg_target = -state.target_lifted()
            require(float(neg_target @ state.gap_vec) <= 1e-9, "target is no descent")
            _segment_to(state, neg_target, None)
        else:
            query = state.R * candidate
            result = oracle.separate(query)
            state.oracle_calls += 1
            if isinstance(result, Inside):
                kind = StepKind.PRIMAL_IMPROVE
                beta = 1.0 + state.lam * (value - state.gamma)
                require(beta >= 1.0 - 1e-12, "gamma fell")
                state.gamma = value
                state.incumbent = query
                # The pre-projection point is exactly the old gap vector over
                # beta; fold the excess weight onto the ball row.
                state.gap_vec = state.gap_vec / beta
                state.nu /= beta
                state.nu[0] += (beta - 1.0) / beta
                state.atom_part = state.atom_part / beta + (
                    (beta - 1.0) / beta
                ) * state.atoms.matrix[0]
                state.lam /= beta
                neg_target = -state.target_lifted()
                ortho = float(state.gap_vec @ neg_target)
                require(abs(ortho) <= 1e-8 * (1.0 + norm_before), "gap not orthogonal to target")
                _segment_to(state, neg_target, None)
            else:
                kind = StepKind.DUAL_CUT
                idx = _ingest_cut(state, result.constraint)
                descent = float(state.atoms.matrix[idx] @ state.gap_vec)
                require(descent <= 1e-9, "the cut is not violated at the query")
                _segment_to(state, state.atoms.matrix[idx], idx)

    if strategy.corrective_due(state.t):
        _corrective_rebuild(state)

    if state.t % _RENORM_EVERY == 0:
        total = float(np.maximum(state.nu, 0.0).sum() + max(state.lam, 0.0))
        state.nu = np.maximum(state.nu, 0.0) / total
        state.lam = max(state.lam, 0.0) / total

    require(state.rnorm_gap <= norm_before + 1e-9 * (1.0 + norm_before), "gap vector grew")
    require(-1e-12 <= state.lam <= 1.0 + 1e-12, "target weight left [0, 1]")
    recon = state.atom_part - state.lam * state.target_lifted()
    stale = np.max(np.abs(recon - state.gap_vec))
    require(stale <= 1e-8 * (1.0 + norm_before), "gap vector left its decomposition")
    return kind


def _corrective_rebuild(state: GeneralState) -> None:
    """Replace the gap vector by the norm minimizer over the admissible hull."""
    neg_target = -state.target_lifted()
    cloud = np.vstack([state.atoms.matrix, neg_target])
    res = corr.min_norm_point(np.zeros(cloud.shape[1]), cloud, start=np.append(state.nu, state.lam))
    cand_norm = float(np.linalg.norm(res.point))
    if cand_norm <= state.rnorm_gap + 1e-9:
        state.gap_vec = res.point
        state.nu = res.weights[:-1].copy()
        state.lam = float(res.weights[-1])
        state.atom_part = state.nu @ state.atoms.matrix


def run_general(
    oracle: SeparationOracle,
    c,
    *,
    R: Optional[float] = None,
    stop: Optional[StopRule] = None,
    max_iters: int = 1000,
    strategy: corr.UpdateStrategy | None = None,
    initial_constraints=(),
) -> RunResult:
    """Run the general-case solver until the stop rule fires or the cap hits.

    Only the enclosing radius R is needed.  The incumbent value starts at
    -R and may remain there if no feasible point is found before the cap.
    """
    c = as_vector(c)
    cnorm = float(np.linalg.norm(c))
    if cnorm == 0:
        raise ValueError("objective must be nonzero")
    R = float(oracle.radius_outer if R is None else R)
    strategy = strategy or corr.segment_only()
    if strategy.kind is corr.StrategyKind.PARTIALLY_CORRECTIVE:
        raise ValueError("the general solver takes segment or fully corrective updates only")
    stop = stop or CapOnly()

    dim = c.shape[0]
    ball_row = Constraint(np.zeros(dim), R, ConstraintForm.RAW, "ball0")
    rows = [_unit_row(cons, R) for cons in initial_constraints]
    atoms = corr.AtomSet(
        ball_row, np.append(np.zeros(dim), 1.0), rows, [np.append(r.a, r.b / R) for r in rows]
    )
    state = GeneralState(
        t=0,
        gamma=-1.0,
        lam=0.0,
        gap_vec=np.append(np.zeros(dim), 1.0),
        atom_part=np.append(np.zeros(dim), 1.0),
        atoms=atoms,
        nu=np.eye(1, len(atoms.rows))[0],  # all weight on the ball row
        cnorm=cnorm,
        R=R,
        c_unit=c / cnorm,
    )

    trivial_bound = cnorm * R  # max of <c, x> over the enclosing ball

    def bound() -> float:
        value = general_dual_bound(state)
        return trivial_bound if value is None else min(value, trivial_bound)

    trace, converged = drive(
        lambda: general_step(state, oracle, strategy).value,
        lambda: (state.gamma_out, bound(), state.rnorm_gap, state.oracle_calls),
        stop,
        max_iters,
        c,
        state.cuts,
    )
    if bound() < trivial_bound:
        certificate = build_general_certificate(state, R)
    else:  # the certificate must prove the bound reported
        certificate = build_ball_certificate(c, R, state.gamma_out)
    return RunResult(
        incumbent=state.incumbent,
        gamma=state.gamma_out,
        bound=certificate.claimed_bound,
        certificate=certificate,
        trace=trace,
        converged=converged,
        iterations=state.t,
        state=state,
    )
