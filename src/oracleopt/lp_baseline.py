"""Dense LP solver and the reference cutting-plane loop.

The simplex is a dense two-phase tableau method under Bland's rule.  Which
optimal vertex it returns sets the cut loop's counts, and its values are the
LP bounds in every trace, so it is kept exact rather than swapped for a
faster method: its inner loops run in numpy but perform the scalar
algorithm's floating-point operations in the same order, and the tests hold
it bit for bit to a plain-Python copy.  It powers the cut loop, the shared
1%-of-optimum stopping bound and the clique-relaxation reference optimum.

The stopping bound needs only the optimal value and gains a few rows per
iteration, so it is warm-started: the new rows join the previous bound's
final tableau and a dual simplex reoptimizes, which may move the value's
last bits.  The cut loop and the reference optimum keep the exact solve.
"""

from __future__ import annotations

import operator
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
    # Final tableau (constraint rows, then the cost row; rhs last), basis and
    # the columns allowed to enter: where a warm start resumes.
    final: tuple | None = field(default=None, repr=False)


def solve_lp(lp: LinearProgram) -> LPResult:
    """Solve the LP with a two-phase dense primal simplex under Bland's rule.

    Returns a basic optimal solution and its final tableau.  Raises
    InfeasibleLPError or UnboundedLPError for degenerate inputs.
    """
    n = lp.objective.shape[0]
    free = np.flatnonzero(np.isneginf(lp.lb))
    bounded = np.flatnonzero(np.isfinite(lp.ub))
    le = np.vstack([_stack(lp.rows, n), np.eye(n)[bounded]])
    le_b = np.concatenate([[r.b for r in lp.rows], lp.ub[bounded]])
    eq_b = np.array([r.b for r in lp.equalities], dtype=float)
    c, le, eq = (_expand(a, free) for a in (lp.objective, le, _stack(lp.equalities, n)))
    return _result(lp, _simplex(c, le, le_b, eq, eq_b))


def _stack(rows, n: int) -> np.ndarray:
    return np.array([r.a for r in rows], dtype=float).reshape(len(rows), n)


def _expand(a: np.ndarray, free: np.ndarray) -> np.ndarray:
    """Append one mirror column per free variable (x = x+ - x-)."""
    n = a.shape[-1]
    out = np.zeros(a.shape[:-1] + (n + len(free),))
    out[..., :n] = a
    out[..., n:] = -a[..., free]
    return out


def _result(lp: LinearProgram, final: tuple) -> LPResult:
    n = lp.objective.shape[0]
    free = np.flatnonzero(np.isneginf(lp.lb))
    tableau, basis, _ = final
    x_full = np.zeros(tableau.shape[1] - 1)
    x_full[basis] = tableau[:-1, -1]
    x = x_full[:n].copy()
    x[free] -= x_full[n : n + len(free)]
    return LPResult(x, float(lp.objective @ x), final)


def _simplex(c, le, le_b, eq, eq_b) -> tuple:
    n_le, ncols = le.shape
    m = n_le + len(eq)
    total = ncols + n_le  # structural + slack columns; artificials appended below

    A = np.zeros((m, total))
    A[:n_le, :ncols] = le
    A[:n_le, ncols:] = np.eye(n_le)
    A[n_le:, :ncols] = eq
    b = np.concatenate([le_b, eq_b])

    # Flip rows with negative right-hand sides so every row can host a
    # nonnegative basic variable.
    flip = b < 0
    A[flip] *= -1.0
    b[flip] *= -1.0

    # Rows whose slack no longer works as a starting basis get an artificial.
    basis = np.arange(ncols, ncols + m)
    needs_artificial = np.flatnonzero(flip | (np.arange(m) >= n_le))
    n_art = len(needs_artificial)
    art_cols = total + np.arange(n_art)
    basis[needs_artificial] = art_cols
    tableau = np.zeros((m + 1, total + n_art + 1))
    tableau[:m, :total] = A
    tableau[:m, -1] = b
    tableau[needs_artificial, art_cols] = 1.0

    allowed = np.ones(total + n_art, dtype=bool)
    if n_art:
        # Phase 1: maximize -(sum of artificials); cost row expressed in the
        # starting basis is the negated sum of the artificial rows.
        for i in needs_artificial:
            tableau[-1, :] -= tableau[i, :]
        tableau[-1, art_cols] = 0.0
        _iterate(tableau, basis, allowed)
        if tableau[-1, -1] < -1e-7:
            raise InfeasibleLPError("phase-1 optimum is positive")
        allowed[art_cols] = False
        # Kick artificials still sitting in the basis.
        for i in np.flatnonzero(basis >= total):
            cols = np.flatnonzero(allowed & (np.abs(tableau[i, :-1]) > _PIVOT_TOL))
            if len(cols):
                _pivot(tableau, i, cols[0], basis)
        tableau[-1, :] = 0.0

    # Phase 2 cost row: start from -c and eliminate the basic columns.  Basic
    # columns stay unit vectors, so the rows to eliminate are known up front.
    tableau[-1, : len(c)] = -c
    for i in np.flatnonzero(np.abs(tableau[-1, basis]) > 0):
        tableau[-1, :] -= tableau[-1, basis[i]] * tableau[i, :]
    _iterate(tableau, basis, allowed)
    return tableau, basis, allowed


def _iterate(tableau: np.ndarray, basis: np.ndarray, allowed: np.ndarray) -> None:
    while True:
        improving = allowed & (tableau[-1, :-1] < -_COST_TOL)
        enter = improving.argmax()  # Bland: smallest improving index
        if not improving[enter]:
            return
        _pivot(tableau, _leaving_row(tableau, enter, basis), enter, basis)


def _leaving_row(tableau: np.ndarray, enter: int, basis: np.ndarray) -> int:
    """Ratio test: the smallest ratio, near-ties to the lowest basic index.

    Near-ties chain, so the winner depends on the running best and the scan
    stays sequential.  It visits only the rows that can block (positive
    coefficient), as Python floats: the same IEEE doubles, without numpy's
    per-element overhead.
    """
    column = tableau[:-1, enter]
    rows = (column > _PIVOT_TOL).nonzero()[0]
    ratios = tableau[rows, -1] / column[rows]
    leave, leave_basic, best_ratio = -1, -1, np.inf
    for i, ratio, basic in zip(rows.tolist(), ratios.tolist(), basis[rows].tolist()):
        if ratio < best_ratio - _PIVOT_TOL or (
            abs(ratio - best_ratio) <= _PIVOT_TOL and (leave < 0 or basic < leave_basic)
        ):
            leave, leave_basic, best_ratio = i, basic, ratio
    if leave < 0:
        raise UnboundedLPError("no blocking row for entering column")
    return leave


def _pivot(tableau: np.ndarray, row: int, col: int, basis: np.ndarray) -> None:
    tableau[row, :] /= tableau[row, col]
    pivot_row = tableau[row]
    coeffs = tableau[:, col].copy()
    coeffs[row] = 0.0
    # Only rows with a nonzero coefficient change, and only columns with a
    # nonzero pivot-row entry plus the rhs: elsewhere the update subtracts a
    # zero, which at most flips the sign of a zero entry, and only the rhs
    # column's zeros ever reach x.
    rows = (np.abs(coeffs) > 0).nonzero()[0]
    cols = pivot_row != 0
    cols[-1] = True
    cols = cols.nonzero()[0]
    tableau[rows[:, None], cols] -= coeffs[rows, None] * pivot_row[cols]
    basis[row] = col


def _dual_iterate(tableau: np.ndarray, basis: np.ndarray, allowed: np.ndarray) -> None:
    """Dual simplex until the rhs is feasible, under Bland's rule for the dual:
    the infeasible row with the smallest basic index leaves, and the column of
    minimum ratio enters, ties to the lowest index."""
    while True:
        infeasible = (tableau[:-1, -1] < -_PIVOT_TOL).nonzero()[0]
        if not len(infeasible):
            return
        row = infeasible[basis[infeasible].argmin()]
        entries = tableau[row, :-1]
        cols = (allowed & (entries < -_PIVOT_TOL)).nonzero()[0]
        if not len(cols):
            raise InfeasibleLPError("no entering column for an infeasible row")
        _pivot(tableau, row, cols[(tableau[-1, cols] / -entries[cols]).argmin()], basis)


@dataclass
class _WarmStart:
    """The last LP-stop solve: its rows, copies of its objective and bounds,
    its final tableau and its value."""

    rows: list = field(default_factory=list)
    fixed: tuple = ()
    final: tuple | None = None
    value: float = np.nan

    def solve(self, lp: LinearProgram) -> float:
        """Optimal value of lp, reoptimized from the kept tableau when lp extends its LP."""
        fixed = (lp.objective, lp.lb, lp.ub)
        if not (
            self.final is not None
            and len(lp.rows) >= len(self.rows)
            and all(map(operator.is_, self.rows, lp.rows))
            and all(map(np.array_equal, self.fixed, fixed))
        ):
            res = solve_lp(lp)
            self.fixed = tuple(v.copy() for v in fixed)  # the caller may change its arrays
            self.rows, self.final, self.value = lp.rows, res.final, res.value
            return res.value
        new = lp.rows[len(self.rows) :]
        if new:
            # Each new row gets its own slack column (zero reduced cost) and
            # has the basic columns eliminated, so the basis stays dual feasible.
            tableau, basis, allowed = self.final
            k, m, width = len(new), len(basis), tableau.shape[1] - 1
            tableau = np.insert(np.insert(tableau, [m] * k, 0.0, axis=0), [width] * k, 0.0, axis=1)
            a = _expand(_stack(new, len(lp.objective)), np.flatnonzero(np.isneginf(lp.lb)))
            tableau[m:-1, : a.shape[1]] = a
            tableau[m:-1, width:-1] = np.eye(k)
            tableau[m:-1, -1] = [r.b for r in new]
            for row in tableau[m:-1]:
                # One kept row after another, in row order, like the phase-2 cost row.
                coeffs = row[basis]
                nz = coeffs.nonzero()[0]
                row[:] = np.subtract.reduce(np.vstack([row, coeffs[nz, None] * tableau[nz]]))
            basis = np.concatenate([basis, width + np.arange(k)])
            allowed = np.concatenate([allowed, np.ones(k, dtype=bool)])
            _dual_iterate(tableau, basis, allowed)
            _iterate(tableau, basis, allowed)  # reduced costs the dual pivots left below -_COST_TOL
            self.final = tableau, basis, allowed
            self.value = _result(lp, self.final).value
        self.rows = lp.rows
        return self.value


@dataclass
class LPStopContext:
    """Fixed pieces of the shared LP stopping bound (initial rows and bounds),
    plus the last bound's final tableau, from which the next one resumes."""

    rows: list[Constraint]
    lb: np.ndarray | None = None
    ub: np.ndarray | None = None
    warm: _WarmStart = field(default_factory=_WarmStart, repr=False, compare=False)

    def value(self, c, separated) -> float:
        return lp_stop_bound(self.rows, separated, c, lb=self.lb, ub=self.ub, warm=self.warm)


@dataclass
class CutLoopResult:
    x: np.ndarray
    value: float
    cuts: list[Constraint]
    trace: ConvergenceTrace
    converged: bool


def lp_stop_bound(initial_constraints, separated, c, lb=None, ub=None, warm=None) -> float:
    """Optimal value of the relaxation given by initial plus separated rows.

    This is the quantity all methods share for the 1%-of-optimum stopping
    test.  When the rows extend those of `warm`'s last call (the same
    Constraint objects, in order), the new ones are appended to its final
    tableau and reoptimized; otherwise, and without `warm`, the LP is solved
    from scratch.
    """
    lp = LinearProgram(
        objective=as_vector(c),
        rows=list(initial_constraints) + list(separated),
        lb=lb,
        ub=ub,
    )
    return (_WarmStart() if warm is None else warm).solve(lp)


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
