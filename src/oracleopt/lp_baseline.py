"""Dense LP solver, the reference cutting-plane loop and the LP stop rule.

The simplex is a dense two-phase tableau method under Bland's rule.  Which
optimal vertex it returns sets the cut loop's counts, and its values are the
LP bounds in every trace, so it is kept exact rather than swapped for a
faster method: its inner loops run in numpy but perform the scalar
algorithm's floating-point operations in the same order, and the tests hold
it bit for bit to a plain-Python copy.  It powers the cut loop, the shared
1%-of-optimum stop rule `LPStop` and the clique-relaxation reference optimum.

The cut loop resumes each LP from the previous one and still gets the cold
solve's tableau, basis and x.  From the slack basis, the cold solve of an
LP plus one row repeats the LP's pivots up to the first ratio test that the
new row changes.  So each solve keeps its pivots (`_Path`), with the entries
they overwrote; the next LP replays only its new row along them, writes the
old entries back down to that pivot and goes on from there.  The first LP
can come solved: the harness solves each instance's initial LP once, and
each cut loop on it resumes from its own copy of that solve's path.

The stopping bound needs only the optimal value and gains a few rows per
iteration, so `LPStop` warm-starts it: the new rows join the previous
bound's final tableau and a dual simplex reoptimizes, which may move the
value's last bits.  The reference optimum keeps the cold solve.  Runs on
one instance can share a memo of these states, so a run that appends the
rows another run appended adopts its state, bit for bit.
"""

from __future__ import annotations

import bisect
import operator
from dataclasses import dataclass, field, replace

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
        if not ((self.lb == 0) | np.isneginf(self.lb)).all():
            raise ValueError("lower bounds must be 0 or -inf")


@dataclass
class LPResult:
    x: np.ndarray
    value: float
    # Final tableau (constraint rows, then the cost row; rhs last), basis and
    # the columns allowed to enter: where a warm start resumes.
    final: tuple | None = field(default=None, repr=False)
    # Phase 2's pivots from the slack basis; None after a phase-1 start.
    path: _Path | None = field(default=None, repr=False)


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
    path = None if len(eq) or (le_b < 0).any() else _Path(len(c), len(bounded))
    return _result(lp, _simplex(c, le, le_b, eq, eq_b, path), path)


def _stack(rows, n: int) -> np.ndarray:
    return np.array([r.a for r in rows], dtype=float).reshape(len(rows), n)


def _expand(a: np.ndarray, free: np.ndarray) -> np.ndarray:
    """Append one mirror column per free variable (x = x+ - x-)."""
    n = a.shape[-1]
    out = np.zeros(a.shape[:-1] + (n + len(free),))
    out[..., :n] = a
    out[..., n:] = -a[..., free]
    return out


def _result(lp: LinearProgram, final: tuple, path=None) -> LPResult:
    n = lp.objective.shape[0]
    free = np.flatnonzero(np.isneginf(lp.lb))
    tableau, basis, _ = final
    x_full = np.zeros(tableau.shape[1] - 1)
    x_full[basis] = tableau[:-1, -1]
    x = x_full[:n].copy()
    x[free] -= x_full[n : n + len(free)]
    return LPResult(x, float(lp.objective @ x), final, path)


def _simplex(c, le, le_b, eq, eq_b, path=None) -> tuple:
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
    _iterate(tableau, basis, allowed, path)
    return tableau, basis, allowed


def _iterate(tableau: np.ndarray, basis: np.ndarray, allowed: np.ndarray, path=None) -> None:
    """Primal simplex pivots under Bland's rule until optimal; `path`, if
    given, records each one."""
    rhs, costs = tableau[:-1, -1], tableau[-1, :-1]
    while True:
        improving = costs < -_COST_TOL
        improving &= allowed
        enter = improving.argmax()  # Bland: smallest improving index
        if not improving[enter]:
            return
        # Ratio test over the rows that can block (positive coefficient), as
        # Python floats: the same IEEE doubles, without numpy's overhead.
        column = tableau[:-1, enter]
        rows = (column > _PIVOT_TOL).nonzero()[0]
        ratios = rhs[rows] / column[rows]
        candidates = list(zip(rows.tolist(), ratios.tolist(), basis[rows].tolist()))
        row = _scan(candidates)[0]
        if row is None:
            raise UnboundedLPError("no blocking row for entering column")
        undo = _pivot(tableau, row, enter, basis)
        if path is not None:
            path.append((int(enter), row, candidates, undo))  # `_Path.settle` reads it


def _scan(candidates, leave=None, basic_leave=-1, best=np.inf) -> tuple:
    """Ratio test: the smallest ratio, near-ties to the lowest basic index.

    Folds (row, ratio, basic) candidates in row order into the running
    (row, basic, ratio) and returns it.  Near-ties chain, so the winner
    depends on the running best and the scan stays sequential.
    """
    for i, ratio, basic in candidates:
        if ratio < best - _PIVOT_TOL or (
            abs(ratio - best) <= _PIVOT_TOL and (leave is None or basic < basic_leave)
        ):
            leave, basic_leave, best = i, basic, ratio
    return leave, basic_leave, best


def _pivot(tableau: np.ndarray, row: int, col: int, basis: np.ndarray) -> tuple:
    """Pivot in place.  Returns, for `_Path`, the columns of the pivot row's
    nonzeros and the rhs, its old entries there and its old basic column,
    the other changed rows, their old entries at those columns and the
    divided pivot-row entries."""
    # Only rows with a nonzero coefficient change, and only columns with a
    # nonzero pivot-row entry plus the rhs: elsewhere the update subtracts a
    # zero, which at most flips the sign of a zero entry, and only the rhs
    # column's zeros ever reach x.  The pivot row's zeros stay as they are.
    pivot_row = tableau[row]
    cols = pivot_row != 0
    cols[-1] = True
    cols = cols.nonzero()[0]
    old_entries, old_basic = pivot_row[cols], basis[row]
    pivot_entries = old_entries / pivot_row[col]
    pivot_row[cols] = pivot_entries
    coeffs = tableau[:, col]
    rows = coeffs.nonzero()[0]
    rows = rows[rows != row]
    block = tableau[rows[:, None], cols]
    tableau[rows[:, None], cols] = block - coeffs[rows, None] * pivot_entries
    basis[row] = col
    return cols, old_entries, old_basic, rows, block, pivot_entries


# Sorts a bound row's slack column after every other column in basic-index
# comparisons across layouts.
_TAIL = 1 << 40


@dataclass(slots=True)
class _Step:
    """One pivot of a `_Path`.  Bound rows and the cost row are numbered
    from the end of the tableau (-1 is the cost row), bound-row slack
    columns and the rhs from its right edge (-1 is the rhs), so that the
    indices hold after rows are inserted before the bound rows."""

    enter: int
    row: int
    cols: np.ndarray  # the pivot row's nonzero columns, and the rhs
    pivot_row: np.ndarray  # its entries there
    old_entries: np.ndarray  # and before the division
    old_basic: int
    rows: np.ndarray  # the other rows the pivot changed
    block: np.ndarray  # their entries at cols before it
    scan: tuple  # the ratio test after the constraint rows: (row, basic key, ratio)
    tail: list  # the bound rows' candidates: (row, ratio, basic key)
    n_rows: int  # constraint rows when recorded


class _Path(list):
    """A phase-2 solve's pivots from the slack basis.  `_iterate` appends a
    raw record per pivot, and `settle` makes `_Step`s of them only when a
    resume needs them."""

    def __init__(self, ncols: int, n_bound: int):
        super().__init__()
        self.ncols, self.n_bound = ncols, n_bound  # structural columns, bound rows
        self.settled = 0  # pivots held as `_Step`s

    def fork(self) -> _Path:
        """A copy for a resume to take over; raw records are shared, never changed."""
        twin = _Path(self.ncols, self.n_bound)
        twin.extend(self)
        return twin

    def settle(self, tableau: np.ndarray) -> None:
        """Turn the raw records of the solve that left `tableau` into steps."""
        height, width = tableau.shape
        n_rows = height - 1 - self.n_bound
        split = self.ncols + n_rows  # first bound-row slack column

        def col(j, tail=0):
            return j if j < split else j - width + tail

        for k in range(self.settled, len(self)):
            enter, row, candidates, (cols, old_entries, old_basic, rows, block, entries) = self[k]
            head = bisect.bisect_left(candidates, (n_rows,))
            leave, basic, ratio = _scan(candidates[:head])
            self[k] = _Step(
                col(enter), row if row < n_rows else row - height,
                np.where(cols < split, cols, cols - width), entries, old_entries,
                col(int(old_basic)), np.where(rows < n_rows, rows, rows - height), block,
                (leave, col(basic, _TAIL), ratio),
                [(i - height, r, col(b, _TAIL)) for i, r, b in candidates[head:]], n_rows,
            )
        self.settled = len(self)

    def replay(self, v: np.ndarray, stop: int) -> np.ndarray:
        """Row v of the initial tableau as it stands before pivot `stop`."""
        for step in self[:stop]:
            coef = v[step.enter]
            if abs(coef) > 0:
                v[step.cols] -= coef * step.pivot_row
        return v

    def branch(self, v: np.ndarray, row: int, basic: int) -> int:
        """Replay a new constraint row v (index `row`, basic column `basic`)
        up to the first pivot whose ratio test it changes, and return that
        pivot's index.  The pivots before it take the row into their scan."""
        for s, step in enumerate(self):
            coef = v[step.enter]
            if coef > _PIVOT_TOL:
                scan = _scan([(row, float(v[-1]) / float(coef), basic)], *step.scan)
                if scan[0] == row:
                    if _scan(step.tail, *scan)[0] != step.row:
                        return s
                    step.scan = scan
            if abs(coef) > 0:
                v[step.cols] -= coef * step.pivot_row
        return len(self)

    def undo(self, tableau: np.ndarray, basis: np.ndarray, stop: int) -> None:
        """Write back what the pivots from `stop` on overwrote, last first."""
        for step in reversed(self[stop:]):
            tableau[step.rows[:, None], step.cols] = step.block
            tableau[step.row, step.cols] = step.old_entries
            basis[step.row % tableau.shape[0]] = step.old_basic % tableau.shape[1]


def _resume(lp: LinearProgram, prev: LPResult | None) -> LPResult:
    """`solve_lp(lp)` for lp = prev's LP plus one last row, resumed along
    prev's pivot path, which it takes over.  Without a path (a phase-1
    start, or no pivots) or with a negative rhs in the new row, a cold solve."""
    path = None if prev is None else prev.path
    if not path or lp.rows[-1].b < 0:
        return solve_lp(lp)
    new = len(lp.rows) - 1  # the new row goes after the constraint rows
    split = path.ncols + new  # and its slack after theirs
    tableau, basis, _ = prev.final
    path.settle(tableau)
    tableau = np.insert(np.insert(tableau, new, 0.0, axis=0), split, 0.0, axis=1)
    basis = np.insert(basis + (basis >= split), new, split)
    free = np.flatnonzero(np.isneginf(lp.lb))

    def initial(i: int) -> np.ndarray:
        v = np.zeros(tableau.shape[1])
        v[: path.ncols] = _expand(as_vector(lp.rows[i].a), free)
        v[path.ncols + i] = 1.0
        v[-1] = lp.rows[i].b
        return v

    row = initial(new)
    stop = path.branch(row, new, split)
    if stop < len(path):
        path.undo(tableau, basis, stop)
        # Rows added after pivot `stop` was recorded are not in its record.
        for i in range(path[stop].n_rows, new):
            tableau[i] = path.replay(initial(i), stop)
        del path[stop:]
        path.settled = stop
    tableau[new] = row
    allowed = np.ones(tableau.shape[1] - 1, dtype=bool)
    _iterate(tableau, basis, allowed, path)
    return _result(lp, (tableau, basis, allowed), path)


def _dual_iterate(tableau: np.ndarray, basis: np.ndarray, allowed: np.ndarray) -> None:
    """Dual simplex until the rhs is feasible, under Bland's rule for the dual:
    the infeasible row with the smallest basic index leaves, and the column of
    minimum ratio enters, ties to the lowest index."""
    rhs, costs = tableau[:-1, -1], tableau[-1, :-1]
    while True:
        infeasible = (rhs < -_PIVOT_TOL).nonzero()[0]
        if not len(infeasible):
            return
        row = infeasible[basis[infeasible].argmin()]
        entries = tableau[row, :-1]
        cols = (allowed & (entries < -_PIVOT_TOL)).nonzero()[0]
        if not len(cols):
            raise InfeasibleLPError("no entering column for an infeasible row")
        _pivot(tableau, row, cols[(costs[cols] / -entries[cols]).argmin()], basis)


# The LP-stop memo keeps the states at most this many rows past the seeded
# LP, within this many tableau bytes.  Variants of a sweep share their early
# cuts: on G(16, 0.55), 157 of 184 repeated states were at most 5 rows deep,
# while the first run's own states reach 16.
_MEMO_DEPTH = 6
_MEMO_BYTES = 2 << 20


@dataclass
class _WarmStart:
    """The last LP-stop solve: its rows, copies of its objective and bounds,
    its final tableau and its value.

    `memo`, if set, is shared by the warm starts seeded from one LP.  Each
    state there has an id, `node` (0 after `seed`), and the memo maps a
    node and the rows appended to it to the state they lead to.  A state
    depends only on the rows that built it, so a run that appends rows
    another run appended before adopts that run's state without a pivot.
    """

    rows: list = field(default_factory=list)
    fixed: tuple = ()
    final: tuple | None = None
    value: float = np.nan
    memo: dict | None = None
    node: int = 0
    depth: int = 0  # rows appended since `seed`

    def seed(self, lp: LinearProgram, res: LPResult) -> float:
        """Keep res, the cold solve of lp, to resume from; returns its value."""
        # Copies: the caller may change its arrays.
        self.fixed = tuple(v.copy() for v in (lp.objective, lp.lb, lp.ub))
        self.rows, self.final, self.value = lp.rows, res.final, res.value
        self.node = self.depth = 0
        return res.value

    def solve(self, lp: LinearProgram) -> float:
        """Optimal value of lp, reoptimized from the kept tableau when lp extends its LP."""
        if not (
            self.final is not None
            and len(lp.rows) >= len(self.rows)
            and all(map(operator.is_, self.rows, lp.rows))
            and all(map(np.array_equal, self.fixed, (lp.objective, lp.lb, lp.ub)))
        ):
            self.memo = None  # no memo node holds a cold solve's state
            return self.seed(lp, solve_lp(lp))
        new = lp.rows[len(self.rows) :]
        if new:
            self.depth += len(new)
            key = hit = None
            if self.memo is not None:
                key = self.node, tuple((r.b.hex(), r.a.tobytes()) for r in new)
                hit = self.memo.get(key)
            if hit:
                self.node, self.final, self.value = hit
            else:
                self.final = _append_rows(self.final, new, lp)
                self.value = _result(lp, self.final).value
                if key:
                    self._remember(key)
        self.rows = lp.rows
        return self.value

    def _remember(self, key: tuple) -> None:
        """Store the state just reached under key; past the budget, detach."""
        stored = sum(final[0].nbytes for _, final, _ in self.memo.values())
        if self.depth > _MEMO_DEPTH or stored + self.final[0].nbytes > _MEMO_BYTES:
            self.memo = None  # later states have no stored parent
            return
        for array in self.final:  # shared from now on; `_append_rows` copies
            array.flags.writeable = False
        self.node = len(self.memo) + 1
        self.memo[key] = self.node, self.final, self.value


def _append_rows(final: tuple, new: list, lp: LinearProgram) -> tuple:
    """The final tableau of lp, from `final`, that of lp without its `new` rows."""
    # Each new row gets its own slack column (zero reduced cost) and has the
    # basic columns eliminated, so the basis stays dual feasible.
    kept, basis, allowed = final
    k, m, width = len(new), len(basis), kept.shape[1] - 1
    tableau = np.zeros((m + k + 1, width + k + 1))
    tableau[:m, :width], tableau[:m, -1] = kept[:-1, :-1], kept[:-1, -1]
    tableau[-1, :width], tableau[-1, -1] = kept[-1, :-1], kept[-1, -1]
    a = _expand(_stack(new, len(lp.objective)), np.flatnonzero(np.isneginf(lp.lb)))
    tableau[m:-1, : a.shape[1]] = a
    np.fill_diagonal(tableau[m:-1, width:-1], 1.0)
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
    return tableau, basis, allowed


@dataclass(eq=False)
class LPStop(StopRule):
    """Stop once the LP over the initial plus separated rows is within 1% of
    the reference optimum: the criterion shared by every method.

    Holds that LP's fixed pieces (initial rows and bounds) and the last
    bound's final tableau, from which the next evaluation resumes.  The
    harness seeds `warm` with its instance's solved initial LP and hands it
    the instance's memo: the states within `_MEMO_DEPTH` rows of that LP,
    up to `_MEMO_BYTES` of tableaux, which every LP-stopped run on the
    instance reads and extends.
    """

    opt_ref: float
    rows: list[Constraint]
    lb: np.ndarray | None = None
    ub: np.ndarray | None = None
    every: int = 1
    warm: _WarmStart = field(default_factory=_WarmStart, repr=False)

    def lp_due(self, t: int) -> bool:
        return t % self.every == 0

    def lp_value(self, c, separated) -> float:
        return lp_stop_bound(self.rows, separated, c, lb=self.lb, ub=self.ub, warm=self.warm)

    def satisfied(self, *, gamma, bound, lp_value) -> bool:
        return lp_value is not None and lp_value <= 1.01 * self.opt_ref + 1e-9


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
    tableau and reoptimized, or, when `warm`'s memo holds the state those
    rows lead to (the same values, appended in the same batches), that
    state is taken without a pivot; otherwise, and without `warm`, the LP
    is solved from scratch, and `warm` leaves its memo.
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
    first: LPResult | None = None,
) -> CutLoopResult:
    """Reference cutting-plane loop: solve the relaxation, separate, repeat.

    The iteration count is the number of separated inequalities, not simplex
    pivots.  Stops when the oracle declares the LP optimum inside K, when the
    stop rule fires on the LP value, or at the iteration limit; a limit of 0
    solves the initial LP and separates nothing.  `first`, `solve_lp`'s
    result for the LP over the initial rows, stands in for that solve: the
    loop resumes from a copy of its pivot path and leaves it as it was.
    """
    c = as_vector(c)
    rows = list(initial_constraints)
    cuts: list[Constraint] = []
    trace = ConvergenceTrace()
    converged = False
    x = np.zeros_like(c)
    value = np.nan
    res = first and replace(first, x=first.x.copy(), path=first.path and first.path.fork())

    for _ in range(max_iters + 1):
        lp = LinearProgram(objective=c, rows=rows + cuts, lb=lb, ub=ub)
        try:
            res = _resume(lp, res) if cuts else res or solve_lp(lp)
        except UnboundedLPError as exc:
            raise UnboundedLPError("add bounds to initial constraints") from exc
        x, value = res.x, res.value

        if stop is not None and stop.satisfied(gamma=value, bound=value, lp_value=value):
            converged = True
            break
        if len(cuts) >= max_iters:
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
            break  # before the LP with the last cut

    return CutLoopResult(x=x, value=value, cuts=cuts, trace=trace, converged=converged)
