"""Small dense LP solver and the reference cutting-plane loop.

The simplex here exists for correctness and iteration-count comparisons,
not speed: dense tableau, two phases, Bland's rule for anti-cycling.  It
powers the cut loop, the shared 1%-of-optimum stopping bound, and the
convex-combination sparsifier.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .geometry import as_vector
from .oracle import Constraint, Inside, SeparationOracle
from .trace import ConvergenceTrace, StopRule, TraceRow

_PIVOT_TOL = 1e-9
_COST_TOL = 1e-9


class InfeasibleLPError(Exception):
    pass


class UnboundedLPError(Exception):
    pass


@dataclass
class LinearProgram:
    """Maximize <objective, x> subject to rows (<=), equalities, and bounds.

    Lower bounds must be 0 or -inf; upper bounds may be finite or +inf.
    Callers are expected to pose bounded problems.
    """

    objective: np.ndarray
    rows: list[Constraint] = field(default_factory=list)
    equalities: list[Constraint] = field(default_factory=list)
    lb: np.ndarray | None = None
    ub: np.ndarray | None = None

    def __post_init__(self):
        self.objective = as_vector(self.objective)
        n = self.objective.shape[0]
        self.lb = np.zeros(n) if self.lb is None else np.asarray(self.lb, dtype=float)
        self.ub = np.full(n, np.inf) if self.ub is None else np.asarray(self.ub, dtype=float)
        if not np.all((self.lb == 0) | np.isneginf(self.lb)):
            raise ValueError("lower bounds must be 0 or -inf")


@dataclass
class LPResult:
    x: np.ndarray
    value: float


def solve_lp(lp: LinearProgram) -> LPResult:
    """Solve the LP with a two-phase dense primal simplex under Bland's rule.

    Returns a basic optimal solution.  Raises InfeasibleLPError or
    UnboundedLPError for degenerate inputs.
    """
    n = lp.objective.shape[0]
    free = np.isneginf(lp.lb)

    # Column layout: one column per variable, plus a mirror column for each
    # free variable (x = x+ - x-).
    mirror_of_var = {}
    ncols = n
    for j in range(n):
        if free[j]:
            mirror_of_var[j] = ncols
            ncols += 1

    def expand(a: np.ndarray) -> np.ndarray:
        row = np.zeros(ncols)
        row[:n] = a
        for j, mcol in mirror_of_var.items():
            row[mcol] = -a[j]
        return row

    le_rows = [(expand(r.a), r.b) for r in lp.rows]
    for j in range(n):
        if np.isfinite(lp.ub[j]):
            e = np.zeros(n)
            e[j] = 1.0
            le_rows.append((expand(e), float(lp.ub[j])))
    eq_rows = [(expand(r.a), r.b) for r in lp.equalities]

    objective = expand(lp.objective)
    x_full = _simplex(objective, le_rows, eq_rows, ncols)

    x = x_full[:n].copy()
    for j, mcol in mirror_of_var.items():
        x[j] -= x_full[mcol]
    return LPResult(x, float(lp.objective @ x))


def _simplex(c: np.ndarray, le_rows, eq_rows, ncols: int) -> np.ndarray:
    n_le = len(le_rows)
    n_eq = len(eq_rows)
    m = n_le + n_eq
    if m == 0:
        raise UnboundedLPError("no constraints")

    slack_start = ncols
    total = ncols + n_le  # structural + slack columns; artificials appended below

    A = np.zeros((m, total))
    b = np.zeros(m)
    for i, (row, rhs) in enumerate(le_rows):
        A[i, :ncols] = row
        A[i, slack_start + i] = 1.0
        b[i] = rhs
    for k, (row, rhs) in enumerate(eq_rows):
        A[n_le + k, :ncols] = row
        b[n_le + k] = rhs

    # Flip rows with negative right-hand sides so every row can host a
    # nonnegative basic variable.
    for i in range(m):
        if b[i] < 0:
            A[i] *= -1.0
            b[i] *= -1.0

    # Rows whose slack no longer works as a starting basis get an artificial.
    basis = np.full(m, -1, dtype=int)
    needs_artificial = []
    for i in range(m):
        if i < n_le and A[i, slack_start + i] > 0.5:
            basis[i] = slack_start + i
        else:
            needs_artificial.append(i)

    n_art = len(needs_artificial)
    tableau = np.zeros((m + 1, total + n_art + 1))
    tableau[:m, :total] = A
    tableau[:m, -1] = b
    art_cols = []
    for k, i in enumerate(needs_artificial):
        col = total + k
        tableau[i, col] = 1.0
        basis[i] = col
        art_cols.append(col)

    banned: set[int] = set()
    if n_art:
        # Phase 1: maximize -(sum of artificials); cost row expressed in the
        # starting basis is the negated sum of the artificial rows.
        for i in needs_artificial:
            tableau[-1, :] -= tableau[i, :]
        tableau[-1, art_cols] = 0.0
        _iterate(tableau, basis, banned)
        if tableau[-1, -1] < -1e-7:
            raise InfeasibleLPError("phase-1 optimum is positive")
        banned = set(art_cols)
        # Kick artificials still sitting in the basis.
        for i in range(m):
            if basis[i] in banned:
                pivot_col = -1
                for j in range(total):
                    if j not in banned and abs(tableau[i, j]) > _PIVOT_TOL:
                        pivot_col = j
                        break
                if pivot_col >= 0:
                    _pivot(tableau, i, pivot_col, basis)
        tableau[-1, :] = 0.0

    # Phase 2 cost row: start from -c and eliminate the basic columns.
    tableau[-1, : len(c)] = -c
    for i in range(m):
        coeff = tableau[-1, basis[i]]
        if abs(coeff) > 0:
            tableau[-1, :] -= coeff * tableau[i, :]
    _iterate(tableau, basis, banned)

    x = np.zeros(total + n_art)
    for i in range(m):
        x[basis[i]] = tableau[i, -1]
    return x[:ncols]


def _iterate(tableau: np.ndarray, basis: np.ndarray, banned: set[int]) -> None:
    m = tableau.shape[0] - 1
    width = tableau.shape[1] - 1
    while True:
        enter = -1
        for j in range(width):
            if j in banned:
                continue
            if tableau[-1, j] < -_COST_TOL:
                enter = j
                break  # Bland: smallest improving index
        if enter < 0:
            return
        leave = -1
        best_ratio = np.inf
        for i in range(m):
            coeff = tableau[i, enter]
            if coeff > _PIVOT_TOL:
                ratio = tableau[i, -1] / coeff
                if ratio < best_ratio - _PIVOT_TOL or (
                    abs(ratio - best_ratio) <= _PIVOT_TOL
                    and (leave < 0 or basis[i] < basis[leave])
                ):
                    best_ratio = ratio
                    leave = i
        if leave < 0:
            raise UnboundedLPError("no blocking row for entering column")
        _pivot(tableau, leave, enter, basis)


def _pivot(tableau: np.ndarray, row: int, col: int, basis: np.ndarray) -> None:
    tableau[row, :] /= tableau[row, col]
    pivot_row = tableau[row, :]
    for i in range(tableau.shape[0]):
        if i != row and abs(tableau[i, col]) > 0:
            tableau[i, :] -= tableau[i, col] * pivot_row
    basis[row] = col


@dataclass
class LPStopContext:
    """Fixed pieces of the shared LP stopping bound: initial rows and bounds."""

    rows: list[Constraint]
    lb: np.ndarray | None = None
    ub: np.ndarray | None = None

    def value(self, c, separated) -> float:
        return lp_stop_bound(self.rows, separated, c, lb=self.lb, ub=self.ub)


@dataclass
class CutLoopResult:
    x: np.ndarray
    value: float
    cuts: list[Constraint]
    trace: ConvergenceTrace
    converged: bool


def lp_stop_bound(initial_constraints, separated, c, lb=None, ub=None) -> float:
    """Optimal value of the relaxation given by initial plus separated rows.

    This is the quantity all methods share for the 1%-of-optimum stopping
    test.
    """
    lp = LinearProgram(
        objective=as_vector(c),
        rows=list(initial_constraints) + list(separated),
        lb=lb,
        ub=ub,
    )
    return solve_lp(lp).value


def cut_loop(
    oracle: SeparationOracle,
    c,
    initial_constraints,
    *,
    lb=None,
    ub=None,
    stop: StopRule | None = None,
    max_iters: int = 1000,
) -> CutLoopResult:
    """Reference cutting-plane loop: solve the relaxation, separate, repeat.

    The iteration count is the number of separated inequalities, not simplex
    pivots.  Stops when the oracle declares the LP optimum inside K, when the
    stop rule fires on the LP value, or at the iteration limit.
    """
    c = as_vector(c)
    rows = list(initial_constraints)
    cuts: list[Constraint] = []
    trace = ConvergenceTrace()
    converged = False
    x = np.zeros_like(c)
    value = np.nan

    for _ in range(max_iters + 1):
        lp = LinearProgram(objective=c, rows=rows + cuts, lb=lb, ub=ub)
        try:
            res = solve_lp(lp)
        except UnboundedLPError as exc:
            raise UnboundedLPError("add bounds to initial constraints") from exc
        x, value = res.x, res.value

        if stop is not None and stop.satisfied(gamma=value, bound=value, lp_value=value):
            converged = True
            break

        sep = oracle.separate(x)
        if isinstance(sep, Inside):
            converged = True
            break
        cuts.append(sep.constraint)
        trace.append(
            TraceRow(
                t=len(cuts),
                step="cut",
                gamma=value,
                bound=value,
                residual=sep.violation,
                oracle_calls=len(cuts),
                lp_bound=value,
            )
        )
        if len(cuts) >= max_iters:
            break

    return CutLoopResult(x=x, value=value, cuts=cuts, trace=trace, converged=converged)
