"""Separation-oracle contract, constraint normalization, and test oracles.

A separation oracle either certifies that a query point lies in the convex
body K or returns a linear inequality valid for K and violated at the query.
The analytic oracles here (ball, explicit polytope) back the synthetic
instances and the test suite; combinatorial oracles live in
:mod:`oracleopt.combinatorial`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

import numpy as np

from .geometry import as_vector

# Threshold for "this inequality is violated"; mirrors typical LP feasibility
# tolerances.  Points within the tolerance of the boundary count as inside.
VIOLATION_TOL = 1e-7

_UNIT_TOL = 1e-12


class ConstraintForm(Enum):
    POLAR = "polar"  # right-hand side fixed to 1
    UNIT = "unit"  # normal vector has unit length
    RAW = "raw"  # as provided


@dataclass(frozen=True)
class Constraint:
    """A linear inequality <a, x> <= b.

    The name is a stable identifier used in certificates and traces, e.g.
    "degree:3" or "oddset:1|4|5" for combinatorial rows.
    """

    a: np.ndarray
    b: float
    form: ConstraintForm = ConstraintForm.RAW
    name: str = ""

    def __post_init__(self):
        object.__setattr__(self, "a", as_vector(self.a))
        object.__setattr__(self, "b", float(self.b))
        if self.form is ConstraintForm.POLAR and abs(self.b - 1.0) > _UNIT_TOL:
            raise ValueError("polar-normalized constraint must have b == 1")
        if self.form is ConstraintForm.UNIT:
            norm = np.linalg.norm(self.a)
            if abs(norm - 1.0) > 1e-9:
                raise ValueError("unit-normalized constraint must have ||a|| == 1")

    @property
    def dim(self) -> int:
        return self.a.shape[0]

    def violation(self, x) -> float:
        """Signed violation <a, x> - b at x (positive means violated)."""
        return float(self.a @ as_vector(x)) - self.b


@dataclass(frozen=True)
class Inside:
    """Query point certified to lie in K (up to the violation tolerance)."""


@dataclass(frozen=True)
class Violated:
    constraint: Constraint
    violation: float


SeparationResult = Inside | Violated


def normalize_polar(a, b: float, name: str = "") -> Constraint:
    """Rescale <a, x> <= b to right-hand side 1.

    Requires b > 0: a constraint with b <= 0 would cut off the origin, which
    contradicts the setting where K contains an origin-centered ball.
    """
    a = as_vector(a)
    if b <= VIOLATION_TOL:
        raise ValueError("constraint cuts off origin; polar setting violated")
    return Constraint(a / b, 1.0, ConstraintForm.POLAR, name)


def normalize_unit(a, b: float, name: str = "") -> Constraint:
    """Rescale <a, x> <= b so the normal vector has unit length."""
    a = as_vector(a)
    norm = float(np.linalg.norm(a))
    if norm < _UNIT_TOL:
        raise ValueError("cannot normalize a zero normal vector")
    return Constraint(a / norm, b / norm, ConstraintForm.UNIT, name)


class SeparationOracle:
    """Base separation oracle.

    Subclasses implement separate() and advertise the enclosing radius R;
    the origin-centered inner radius r is optional (solvers fall back to a
    doubling search for the initial objective value when it is unknown).
    """

    dimension: int
    radius_outer: float
    radius_inner: Optional[float] = None

    def separate(self, x) -> SeparationResult:
        raise NotImplementedError


@dataclass
class BallOracle(SeparationOracle):
    """Oracle for K = center + radius * B2, separating by tangent halfspaces."""

    center: np.ndarray
    radius: float
    _count: int = field(default=0, repr=False)

    def __post_init__(self):
        self.center = as_vector(self.center)
        self.radius = float(self.radius)
        if self.radius <= 0:
            raise ValueError("radius must be positive")
        self.dimension = self.center.shape[0]
        self.radius_outer = float(np.linalg.norm(self.center)) + self.radius
        inner = self.radius - float(np.linalg.norm(self.center))
        self.radius_inner = inner if inner > 0 else None

    def separate(self, x) -> SeparationResult:
        x = as_vector(x)
        if x.shape[0] != self.dimension:
            raise ValueError("query dimension mismatch")
        gap = x - self.center
        dist = float(np.linalg.norm(gap))
        if dist <= self.radius + VIOLATION_TOL:
            return Inside()
        a = gap / dist
        b = float(a @ self.center) + self.radius
        self._count += 1
        cons = Constraint(a, b, ConstraintForm.UNIT, f"ball:{self._count}")
        return Violated(cons, dist - self.radius)


class PolytopeOracle(SeparationOracle):
    """Oracle over an explicit list of inequalities, plus optional box bounds.

    Returns the stored constraint with the largest absolute violation; ties
    break toward the lowest constraint index.
    """

    def __init__(self, constraints, box_bounds=None, *, radius_outer, radius_inner=None):
        rows = list(constraints)
        if box_bounds is not None:
            lo, hi = box_bounds
            lo = as_vector(lo)
            hi = as_vector(hi)
            dim = lo.shape[0]
            for i in range(dim):
                e = np.zeros(dim)
                e[i] = 1.0
                if np.isfinite(hi[i]):
                    rows.append(Constraint(e.copy(), float(hi[i]), name=f"ub:{i}"))
                if np.isfinite(lo[i]):
                    rows.append(Constraint(-e, float(-lo[i]), name=f"lb:{i}"))
        if not rows:
            raise ValueError("need at least one constraint or box bound")
        names = [r.name for r in rows if r.name]
        if len(set(names)) < len(names):
            # The solvers keep one atom per name, so a repeat would be ignored.
            raise ValueError("constraint names must be unique")
        self.rows = rows
        self.dimension = rows[0].dim
        if any(r.dim != self.dimension for r in rows):
            raise ValueError("constraint dimensions disagree")
        self.radius_outer = float(radius_outer)
        self.radius_inner = radius_inner
        self._matrix = np.array([r.a for r in rows])
        self._rhs = np.array([r.b for r in rows])

    def separate(self, x) -> SeparationResult:
        x = as_vector(x)
        violations = self._matrix @ x - self._rhs
        idx = int(np.argmax(violations))
        worst = float(violations[idx])
        if worst <= VIOLATION_TOL:
            return Inside()
        return Violated(self.rows[idx], worst)


def box_oracle(lo, hi, radius_inner=None) -> PolytopeOracle:
    """Convenience oracle for an axis-aligned box [lo, hi]^n, in the ball
    through its farthest corner."""
    lo = as_vector(lo)
    hi = as_vector(hi)
    radius_outer = float(np.linalg.norm(np.maximum(np.abs(lo), np.abs(hi))))
    return PolytopeOracle(
        [], box_bounds=(lo, hi), radius_outer=radius_outer, radius_inner=radius_inner
    )
