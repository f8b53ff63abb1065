import itertools

import numpy as np
import pytest

from oracleopt import harness, lp_baseline
from oracleopt.combinatorial import (
    MatchingOracle,
    StableSetOracle,
    brute_force_matching_opt,
    generate_triangle_instance,
    matching_initial_rows,
    random_gnp,
    stableset_initial_rows,
)
from oracleopt.corrective import fully_corrective, segment_only
from oracleopt.lp_baseline import (
    InfeasibleLPError,
    LinearProgram,
    LPStop,
    UnboundedLPError,
    cut_loop,
    lp_stop_bound,
    solve_lp,
)
from oracleopt.oracle import BallOracle, Constraint
from oracleopt.solver_general import run_general
from oracleopt.solver_polar import PolarMode, run_polar

_PIVOT_TOL = lp_baseline._PIVOT_TOL
_COST_TOL = lp_baseline._COST_TOL


def reference_solve_lp(lp: LinearProgram) -> tuple[np.ndarray, float]:
    """The scalar simplex that `solve_lp` vectorizes, loop for loop.

    Same column layout, phases, Bland's rule and tolerances, with Python
    loops over rows and columns; `solve_lp` must match it bit for bit.
    """
    n = lp.objective.shape[0]
    free = np.isneginf(lp.lb)
    mirror_of_var = {}
    ncols = n
    for j in range(n):
        if free[j]:
            mirror_of_var[j] = ncols
            ncols += 1

    def expand(a):
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
    x_full = _reference_simplex(expand(lp.objective), le_rows, eq_rows, ncols)
    x = x_full[:n].copy()
    for j, mcol in mirror_of_var.items():
        x[j] -= x_full[mcol]
    return x, float(lp.objective @ x)


def _reference_simplex(c, le_rows, eq_rows, ncols):
    n_le = len(le_rows)
    m = n_le + len(eq_rows)
    slack_start = ncols
    total = ncols + n_le
    A = np.zeros((m, total))
    b = np.zeros(m)
    for i, (row, rhs) in enumerate(le_rows):
        A[i, :ncols] = row
        A[i, slack_start + i] = 1.0
        b[i] = rhs
    for k, (row, rhs) in enumerate(eq_rows):
        A[n_le + k, :ncols] = row
        b[n_le + k] = rhs
    for i in range(m):
        if b[i] < 0:
            A[i] *= -1.0
            b[i] *= -1.0
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
    banned = set()
    if n_art:
        for i in needs_artificial:
            tableau[-1, :] -= tableau[i, :]
        tableau[-1, art_cols] = 0.0
        _reference_iterate(tableau, basis, banned)
        if tableau[-1, -1] < -1e-7:
            raise InfeasibleLPError("phase-1 optimum is positive")
        banned = set(art_cols)
        for i in range(m):
            if basis[i] in banned:
                pivot_col = -1
                for j in range(total):
                    if j not in banned and abs(tableau[i, j]) > _PIVOT_TOL:
                        pivot_col = j
                        break
                if pivot_col >= 0:
                    _reference_pivot(tableau, i, pivot_col, basis)
        tableau[-1, :] = 0.0
    tableau[-1, : len(c)] = -c
    for i in range(m):
        coeff = tableau[-1, basis[i]]
        if abs(coeff) > 0:
            tableau[-1, :] -= coeff * tableau[i, :]
    _reference_iterate(tableau, basis, banned)
    x = np.zeros(total + n_art)
    for i in range(m):
        x[basis[i]] = tableau[i, -1]
    return x[:ncols]


def _reference_iterate(tableau, basis, banned):
    m = tableau.shape[0] - 1
    width = tableau.shape[1] - 1
    while True:
        enter = -1
        for j in range(width):
            if j in banned:
                continue
            if tableau[-1, j] < -_COST_TOL:
                enter = j
                break
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
        _reference_pivot(tableau, leave, enter, basis)


def _reference_pivot(tableau, row, col, basis):
    tableau[row, :] /= tableau[row, col]
    pivot_row = tableau[row, :]
    for i in range(tableau.shape[0]):
        if i != row and abs(tableau[i, col]) > 0:
            tableau[i, :] -= tableau[i, col] * pivot_row
    basis[row] = col


FAMILIES = (
    "packing01",
    "near_ties",
    "dyadic",
    "gaussian",
    "equalities",
    "free",
    "negative_rhs",
    "infeasible",
    "unbounded",
)


def random_lp(rng, family: str) -> LinearProgram:
    """A small random LP of one family; some families are degenerate on purpose."""
    n = int(rng.integers(1, 13))
    m = int(rng.integers(0, 30))
    lb = np.zeros(n)
    ub = np.where(rng.random(n) < 0.5, rng.integers(1, 5, n) / 2.0, np.inf)
    c = rng.integers(-2, 6, n).astype(float)
    rows, eqs = [], []
    if family == "packing01":  # stable-set/matching style: 0/1 rows, b = 1
        rows = [Constraint((rng.random(n) < 0.4).astype(float), 1.0) for _ in range(m)]
        ub = np.where(rng.random(n) < 0.7, 1.0, np.inf)
        c = np.where(rng.random(n) < 0.8, 1.0, rng.integers(0, 4, n).astype(float))
    elif family == "near_ties":  # rhs 4e-10 apart: ratios tie in chains under _PIVOT_TOL
        rows = [
            Constraint((rng.random(n) < 0.5).astype(float), 1.0 + 4e-10 * rng.integers(0, 4))
            for _ in range(m)
        ]
    elif family == "dyadic":
        rows = [
            Constraint(rng.integers(-4, 5, n) / 4.0, rng.integers(0, 9) / 4.0) for _ in range(m)
        ]
    elif family == "gaussian":
        rows = [Constraint(rng.normal(size=n), rng.uniform(0.1, 2.0)) for _ in range(m)]
        c = rng.normal(size=n)
    elif family == "equalities":
        x0 = rng.integers(0, 3, n) / 2.0
        rows = [
            Constraint(rng.integers(-2, 3, n) / 2.0, rng.integers(0, 6) / 2.0) for _ in range(m)
        ]
        rows = [r for r in rows if r.a @ x0 <= r.b]
        ub = np.maximum(ub, x0)
        for _ in range(int(rng.integers(1, 4))):
            a = rng.integers(0, 3, n).astype(float)
            eqs.append(Constraint(a, float(a @ x0)))
    elif family == "free":
        lb[rng.random(n) < 0.5] = -np.inf
        rows = [
            Constraint(rng.integers(-2, 3, n).astype(float), float(rng.integers(0, 4)))
            for _ in range(m)
        ]
        for j in np.flatnonzero(np.isneginf(lb)):
            e = np.zeros(n)
            e[j] = -1.0
            rows.append(Constraint(e, float(rng.integers(0, 4))))
    elif family == "negative_rhs":  # covering rows put phase 1 to work
        rows = [Constraint((rng.random(n) < 0.5).astype(float), 1.0) for _ in range(m)]
        rows += [
            Constraint(-(rng.random(n) < 0.5).astype(float), -1.0) for _ in range(m // 3 + 1)
        ]
        ub = np.where(rng.random(n) < 0.7, 1.0, np.inf)
    elif family == "infeasible":
        rows = [
            Constraint(rng.integers(0, 3, n).astype(float), float(rng.integers(1, 4)))
            for _ in range(m)
        ]
        a = rng.integers(1, 3, n).astype(float)
        rows += [Constraint(a, 1.0), Constraint(-a, -1.5)]
        rng.shuffle(rows)
    elif family == "unbounded":
        ub = np.where(rng.random(n) < 0.3, 1.0, np.inf)
        rows = [Constraint(-(rng.random(n) < 0.5).astype(float), 0.0) for _ in range(m)]
        c = np.abs(c) + 1.0
    return LinearProgram(objective=c, rows=rows, equalities=eqs, lb=lb, ub=ub)


def vectorized_solve_lp(lp: LinearProgram) -> tuple[np.ndarray, float]:
    res = solve_lp(lp)
    return res.x, res.value


def outcome(solve, lp):
    try:
        x, value = solve(lp)
    except (InfeasibleLPError, UnboundedLPError) as exc:
        return type(exc).__name__, None, None
    return "optimal", x.tobytes(), value


def highs(lp: LinearProgram):
    linprog = pytest.importorskip("scipy.optimize").linprog
    return linprog(
        -lp.objective,
        A_ub=np.array([r.a for r in lp.rows]) if lp.rows else None,
        b_ub=[r.b for r in lp.rows] or None,
        A_eq=np.array([r.a for r in lp.equalities]) if lp.equalities else None,
        b_eq=[r.b for r in lp.equalities] or None,
        bounds=[
            (None if np.isinf(lo) else lo, None if np.isinf(hi) else hi)
            for lo, hi in zip(lp.lb, lp.ub)
        ],
        method="highs",
    )


def enumerate_vertices_value(c, rows, lb, ub):
    """Reference optimum: try every intersection of n active constraints.

    Rows plus finite bounds form the candidate hyperplanes; feasible
    intersection points are scored directly.
    """
    c = np.asarray(c, dtype=float)
    n = c.shape[0]
    planes = [(np.asarray(r.a, float), float(r.b)) for r in rows]
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        if np.isfinite(ub[j]):
            planes.append((e.copy(), float(ub[j])))
        if np.isfinite(lb[j]):
            planes.append((-e, float(-lb[j])))
    best = None
    for combo in itertools.combinations(range(len(planes)), n):
        A = np.array([planes[i][0] for i in combo])
        b = np.array([planes[i][1] for i in combo])
        try:
            x = np.linalg.solve(A, b)
        except np.linalg.LinAlgError:
            continue
        feasible = all(a @ x <= bb + 1e-9 for a, bb in planes)
        feasible = feasible and np.all(x >= lb - 1e-9) and np.all(x <= ub + 1e-9)
        if feasible:
            val = float(c @ x)
            if best is None or val > best:
                best = val
    return best


class TestSolveLP:
    def test_box_corner(self):
        lp = LinearProgram(objective=np.ones(2), ub=np.ones(2))
        res = solve_lp(lp)
        assert res.value == pytest.approx(2.0)
        assert np.allclose(res.x, [1, 1])

    def test_simplex_vertex(self):
        lp = LinearProgram(
            objective=np.array([1.0, 0.0]),
            rows=[Constraint(np.ones(2), 1.0)],
        )
        res = solve_lp(lp)
        assert res.value == pytest.approx(1.0)
        assert np.allclose(res.x, [1, 0], atol=1e-9)

    def test_free_variables(self):
        lp = LinearProgram(
            objective=np.array([-1.0, 1.0]),
            rows=[Constraint(np.array([0.0, 1.0]), 2.0)],
            lb=np.array([-np.inf, 0.0]),
            ub=np.array([1.0, np.inf]),
        )
        # maximize -x0 + x1 with x0 >= -inf needs a blocking row to stay bounded
        lp.rows.append(Constraint(np.array([-1.0, 0.0]), 3.0))
        res = solve_lp(lp)
        assert res.value == pytest.approx(5.0)

    def test_equality_rows(self):
        lp = LinearProgram(
            objective=np.array([1.0, 0.0]),
            equalities=[Constraint(np.ones(2), 1.0)],
            ub=np.array([0.25, np.inf]),
        )
        res = solve_lp(lp)
        assert res.value == pytest.approx(0.25)
        assert np.allclose(res.x, [0.25, 0.75], atol=1e-9)

    def test_infeasible_detected(self):
        lp = LinearProgram(
            objective=np.ones(1),
            rows=[Constraint(np.array([1.0]), -1.0)],
        )
        with pytest.raises(InfeasibleLPError):
            solve_lp(lp)

    def test_unbounded_detected(self):
        lp = LinearProgram(objective=np.ones(2), rows=[Constraint(np.array([1.0, 0.0]), 1.0)])
        with pytest.raises(UnboundedLPError):
            solve_lp(lp)

    def test_bounded_lp_without_rows_is_zero(self):
        for c in (-np.ones(2), np.zeros(2)):
            res = solve_lp(LinearProgram(objective=c))
            assert res.value == 0.0
            assert np.array_equal(res.x, np.zeros(2))
        assert lp_stop_bound([], [], -np.ones(3)) == 0.0

    def test_unbounded_lp_without_rows_detected(self):
        with pytest.raises(UnboundedLPError, match="no blocking row"):
            solve_lp(LinearProgram(objective=np.array([0.0, 1.0])))

    def test_matches_scalar_reference_bit_for_bit(self):
        rng = np.random.default_rng(2024)
        seen = {}
        for k in range(130 * len(FAMILIES)):
            family = FAMILIES[k % len(FAMILIES)]
            lp = random_lp(rng, family)
            got = outcome(vectorized_solve_lp, lp)
            assert got == outcome(reference_solve_lp, lp), (k, family)
            seen[got[0]] = seen.get(got[0], 0) + 1
        kinds = ("optimal", "InfeasibleLPError", "UnboundedLPError")
        assert min(seen.get(kind, 0) for kind in kinds) >= 50, seen

    def test_near_tie_takes_the_sequential_tie_break(self, monkeypatch):
        # Entering x0 meets ratios 1 + 5e-10 (row 0) and 1 (row 1): within
        # _PIVOT_TOL, so row 0 keeps the lead although row 1 is the argmin.
        lp = LinearProgram(
            objective=np.array([1.0, 0.0]),
            rows=[Constraint(np.array([1.0, 0.0]), 1.0 + 5e-10), Constraint(np.ones(2), 1.0)],
        )
        pivots = []
        real_pivot = lp_baseline._pivot

        def recording_pivot(tableau, row, col, basis):
            pivots.append((row, col))
            return real_pivot(tableau, row, col, basis)

        monkeypatch.setattr(lp_baseline, "_pivot", recording_pivot)
        assert outcome(vectorized_solve_lp, lp) == outcome(reference_solve_lp, lp)
        assert pivots == [(0, 0)]
        assert solve_lp(lp).x[0] == 1.0 + 5e-10

    def test_chained_near_ties_follow_the_running_best(self):
        # Ratios 1, 1 + 1.2e-9, 1 + 6e-10 in rows with basic columns 5, 3, 4:
        # neighbours in sorted order tie, the ends do not.  The scan keeps
        # row 0 over row 1 (not a tie) and then takes row 2 (a tie with a
        # lower basic index): neither the argmin (row 0) nor the lowest basic
        # index (row 1).
        tableau = np.zeros((4, 7))
        tableau[:3, 0] = 1.0
        tableau[[0, 1, 2], [5, 3, 4]] = 1.0
        tableau[:3, -1] = [1.0, 1.0 + 1.2e-9, 1.0 + 6e-10]
        tableau[-1, 0] = -1.0
        basis = np.array([5, 3, 4])
        expected, expected_basis = tableau.copy(), basis.copy()
        _reference_iterate(expected, expected_basis, set())
        lp_baseline._iterate(tableau, basis, np.ones(6, dtype=bool))
        assert basis.tolist() == expected_basis.tolist() == [5, 3, 0]
        assert tableau.tobytes() == expected.tobytes()

    def test_pivot_matches_reference_up_to_signs_of_zeros(self):
        # The pivot skips columns whose pivot-row entry is zero; there the
        # reference subtracts a zero.  Values must agree everywhere and the
        # rhs column, which x is read from, byte for byte, signed zeros too.
        rng = np.random.default_rng(11)
        values = np.array([-2.0, -1.0, -0.0, 0.0, 0.0, 0.5, 1.0, 3.0])
        for _ in range(300):
            tableau = rng.choice(values, size=(int(rng.integers(2, 7)), int(rng.integers(3, 8))))
            row = int(rng.integers(tableau.shape[0] - 1))
            col = int(rng.integers(tableau.shape[1] - 1))
            if tableau[row, col] == 0:
                continue
            expected = tableau.copy()
            basis = np.zeros(tableau.shape[0] - 1, dtype=int)
            expected_basis = basis.copy()
            _reference_pivot(expected, row, col, expected_basis)
            lp_baseline._pivot(tableau, row, col, basis)
            assert np.array_equal(tableau, expected)
            assert tableau[:, -1].tobytes() == expected[:, -1].tobytes()
            assert basis.tolist() == expected_basis.tolist()

    def test_agrees_with_highs(self):
        rng = np.random.default_rng(7)
        for k in range(40 * len(FAMILIES)):
            family = FAMILIES[k % len(FAMILIES)]
            lp = random_lp(rng, family)
            ref = highs(lp)
            expected = {0: "optimal", 2: "InfeasibleLPError", 3: "UnboundedLPError"}[ref.status]
            kind, _, value = outcome(vectorized_solve_lp, lp)
            assert kind == expected, (k, family)
            if kind == "optimal":
                assert value == pytest.approx(-ref.fun, rel=1e-7, abs=1e-7), (k, family)

    def test_matches_vertex_enumeration_on_random_instances(self):
        rng = np.random.default_rng(17)
        for _ in range(60):
            n = int(rng.integers(2, 5))
            m = int(rng.integers(2, 7))
            rows = [
                Constraint(rng.normal(size=n), float(rng.uniform(0.1, 2.0)))
                for _ in range(m)
            ]
            lb = np.zeros(n)
            ub = rng.uniform(0.5, 3.0, size=n)
            c = rng.normal(size=n)
            res = solve_lp(LinearProgram(objective=c, rows=rows, lb=lb, ub=ub))
            ref = enumerate_vertices_value(c, rows, lb, ub)
            assert ref is not None
            assert res.value == pytest.approx(ref, abs=1e-7)


class TestCutLoop:
    def test_ball_with_initial_box(self):
        dim = 2
        rows = []
        for i in range(dim):
            e = np.zeros(dim)
            e[i] = 1.0
            rows.append(Constraint(e.copy(), 1.0))
            rows.append(Constraint(-e, 1.0))
        oracle = BallOracle(np.zeros(dim), 1.0)
        res = cut_loop(
            oracle,
            [1.0, 0.0],
            rows,
            lb=np.full(dim, -np.inf),
            stop=LPStop(1.0, rows),
            max_iters=200,
        )
        assert res.converged
        assert res.value <= 1.01 + 1e-9

    def test_zero_cuts_when_lp_optimum_inside(self):
        oracle = BallOracle(np.zeros(2), 2.0)
        rows = [Constraint(np.array([1.0, 0.0]), 1.0), Constraint(np.array([0.0, 1.0]), 1.0)]
        res = cut_loop(oracle, np.ones(2), rows, ub=np.ones(2), max_iters=50)
        assert res.converged
        assert len(res.cuts) == 0
        assert res.value == pytest.approx(2.0)

    def test_lp_values_nonincreasing(self):
        oracle = BallOracle(np.zeros(3), 1.0)
        rows = []
        for i in range(3):
            e = np.zeros(3)
            e[i] = 1.0
            rows.append(Constraint(e.copy(), 1.0))
            rows.append(Constraint(-e, 1.0))
        res = cut_loop(
            oracle, np.ones(3), rows, lb=np.full(3, -np.inf), stop=LPStop(np.sqrt(3.0), rows),
            max_iters=100,
        )
        values = [row.gamma for row in res.trace]
        assert all(b <= a + 1e-9 for a, b in zip(values, values[1:]))

    def test_unbounded_initial_lp_message(self):
        oracle = BallOracle(np.zeros(2), 1.0)
        with pytest.raises(UnboundedLPError, match="add bounds"):
            cut_loop(oracle, np.ones(2), [], lb=np.full(2, -np.inf), max_iters=5)

    def test_cap_of_zero_separates_nothing_like_the_solvers(self, monkeypatch):
        graph = random_gnp(12, 0.5, 0)
        rows = stableset_initial_rows(graph, "basic")
        c, bounds = np.ones(12), dict(lb=np.zeros(12), ub=np.ones(12))
        calls = []
        real = StableSetOracle.separate
        monkeypatch.setattr(StableSetOracle, "separate", lambda *a: calls.append(1) or real(*a))
        loop = cut_loop(StableSetOracle(graph), c, rows, max_iters=0, **bounds)
        polar = run_polar(
            StableSetOracle(graph), c, gamma1=1.0, mode=PolarMode.PACKING, max_iters=0,
            initial_constraints=rows,
        )
        general = run_general(StableSetOracle(graph), c, max_iters=0, initial_constraints=rows)
        assert calls == []
        assert len(loop.trace) == len(polar.trace) == len(general.trace) == 0
        assert loop.cuts == polar.state.cuts == general.state.cuts == []
        assert not (loop.converged or polar.converged or general.converged)
        # The loop still reports its initial LP; a cap of 1 makes one cut from it.
        initial = solve_lp(LinearProgram(c, rows, **bounds))
        assert loop.x.tobytes() == initial.x.tobytes() and loop.value == initial.value
        one = cut_loop(StableSetOracle(graph), c, rows, max_iters=1, **bounds)
        assert len(one.cuts) == len(one.trace) == len(calls) == 1
        assert one.x.tobytes() == initial.x.tobytes() and one.value == initial.value

    @pytest.mark.parametrize("fields", [
        dict(problem="matching", nodes=15, triangles=16, seed=0, max_set_size=15),
        dict(problem="stableset", nodes=16, density=0.55, seed=3),
        dict(problem="synthetic-ball", dim=3, center_offset=0.3),
    ])
    def test_first_lp_stands_in_for_the_cold_solve(self, fields, monkeypatch):
        config = harness.load_config(None, dict(fields, out=""))
        instance = harness.build_instance(config, need_opt=True)
        stop = LPStop(instance.opt_ref, instance.initial_rows, instance.lb, instance.ub)
        args = (instance.oracle, instance.c, instance.initial_rows)
        kwargs = dict(lb=instance.lb, ub=instance.ub, stop=stop, max_iters=30)
        cold = cut_loop(*args, **kwargs)
        lp = LinearProgram(instance.c, list(instance.initial_rows), lb=instance.lb, ub=instance.ub)
        first = solve_lp(lp)
        path = list(first.path)
        solves = []
        monkeypatch.setattr(lp_baseline, "solve_lp", lambda lp: solves.append(lp) or first)
        for _ in range(2):  # the second loop starts from the same, untouched first LP
            warm = cut_loop(*args, **kwargs, first=first)
            assert solves == [] and warm.cuts
            assert warm.x.tobytes() == cold.x.tobytes() and warm.value == cold.value
            assert [c.a.tobytes() for c in warm.cuts] == [c.a.tobytes() for c in cold.cuts]
            assert warm.trace.to_csv() == cold.trace.to_csv()
            assert list(first.path) == path and first.path.settled == 0


class TestLPStopBound:
    def test_unit_box_all_ones(self):
        for n in (2, 4, 7):
            val = lp_stop_bound([], [], np.ones(n), lb=np.zeros(n), ub=np.ones(n))
            assert val == pytest.approx(float(n))

    def test_triangle_matching_with_blossom_cut(self):
        # K3 edge variables; degree rows alone allow the half-integral point
        # worth 1.5, and the single odd-set row pins the value to 1.
        degree = [
            Constraint(np.array([1.0, 1.0, 0.0]), 1.0),
            Constraint(np.array([1.0, 0.0, 1.0]), 1.0),
            Constraint(np.array([0.0, 1.0, 1.0]), 1.0),
        ]
        blossom = [Constraint(np.ones(3), 1.0)]
        loose = lp_stop_bound(degree, [], np.ones(3), lb=np.zeros(3), ub=np.ones(3))
        tight = lp_stop_bound(degree, blossom, np.ones(3), lb=np.zeros(3), ub=np.ones(3))
        assert loose == pytest.approx(1.5)
        assert tight == pytest.approx(1.0)

    def test_stop_rule_fires_on_threshold(self):
        rule = LPStop(10.0, [])
        assert rule.satisfied(gamma=0, bound=0, lp_value=10.05)
        assert not rule.satisfied(gamma=0, bound=0, lp_value=10.2)


def warm_start_run(rng, family: str):
    """An LP-stop run in miniature: fixed initial rows and bounds, then the
    rows each call appends to the separated list (0 to 3 of mixed kinds:
    0/1 packing rows, nonneg:j rows with b = 0 and Gaussian rows)."""
    n = int(rng.integers(1, 10))
    free = rng.random(n) < 0.5 if family == "free" else np.zeros(n, dtype=bool)
    lb = np.where(free, -np.inf, 0.0)
    ub = np.where(rng.random(n) < 0.6, 1.0, np.inf)
    initial = []
    for j in range(n):  # box the unbounded directions
        e = np.eye(n)[j]
        if np.isinf(ub[j]):
            initial.append(Constraint(e, 2.0))
        if free[j]:
            initial.append(Constraint(-e, 2.0))
    c = np.ones(n) if family == "packing" else rng.normal(size=n)
    steps = []
    for _ in range(int(rng.integers(1, 15))):
        rows = []
        for _ in range(int(rng.integers(0, 4))):
            kind = rng.random()
            if kind < 0.4:
                rows.append(Constraint((rng.random(n) < 0.5).astype(float), 1.0))
            elif kind < 0.6:
                j = int(rng.integers(n))
                rows.append(Constraint(-np.eye(n)[j], 0.0, name=f"nonneg:{j}"))
            else:
                rows.append(Constraint(rng.normal(size=n), float(rng.uniform(-0.5, 2.0))))
        steps.append(rows)
    return c, initial, lb, ub, steps


class TestWarmStartedLPStopBound:
    def test_matches_fresh_solve_and_highs(self, monkeypatch):
        fresh_solves = []
        real_solve = lp_baseline.solve_lp
        monkeypatch.setattr(
            lp_baseline, "solve_lp", lambda lp: fresh_solves.append(lp) or real_solve(lp)
        )
        rng = np.random.default_rng(31)
        calls = infeasible = 0
        for k in range(150):
            c, initial, lb, ub, steps = warm_start_run(rng, ("packing", "gaussian", "free")[k % 3])
            stop = LPStop(0.0, initial, lb, ub)
            separated = []
            for rows in steps:
                separated.extend(rows)
                lp = LinearProgram(objective=c, rows=initial + separated, lb=lb, ub=ub)
                try:
                    fresh = real_solve(lp).value
                except InfeasibleLPError:
                    with pytest.raises(InfeasibleLPError):
                        stop.lp_value(c, separated)
                    infeasible += 1
                    break
                got = stop.lp_value(c, separated)
                calls += 1
                assert abs(got - fresh) <= 1e-12 * (1 + abs(fresh)), (k, got, fresh)
                assert got == pytest.approx(-highs(lp).fun, rel=1e-7, abs=1e-7), k
        assert calls > 900 and infeasible > 0, (calls, infeasible)
        assert len(fresh_solves) == 150  # only each run's first call starts from scratch

    def test_call_without_new_rows_returns_the_kept_value_without_pivots(self, monkeypatch):
        rng = np.random.default_rng(3)
        c, initial, lb, ub, _ = warm_start_run(rng, "gaussian")
        stop = LPStop(0.0, initial, lb, ub)
        separated = [Constraint(rng.normal(size=len(c)), 0.5) for _ in range(3)]
        value = stop.lp_value(c, separated)
        moves = []
        monkeypatch.setattr(lp_baseline, "_pivot", lambda *args: moves.append(args))
        monkeypatch.setattr(lp_baseline, "solve_lp", lambda lp: moves.append(lp))
        assert stop.lp_value(c, separated) == value
        assert moves == []

    @pytest.mark.parametrize(
        "change", ["objective", "objective_in_place", "copied_rows", "fewer_rows"]
    )
    def test_falls_back_to_a_fresh_solve(self, change):
        # K3 edge variables: degree rows, then a blossom row and a bound row.
        degree = [
            Constraint(np.array([1.0, 1.0, 0.0]), 1.0),
            Constraint(np.array([1.0, 0.0, 1.0]), 1.0),
            Constraint(np.array([0.0, 1.0, 1.0]), 1.0),
        ]
        separated = [Constraint(np.ones(3), 1.0), Constraint(np.array([0.0, 0.0, 1.0]), 0.25)]
        bounds = dict(lb=np.zeros(3), ub=np.ones(3))
        stop = LPStop(0.0, degree, **bounds)
        c = np.array([1.0, 2.0, 3.0])
        stop.lp_value(c, separated)
        if change == "objective":
            c = np.array([3.0, 2.0, 1.0])
        elif change == "objective_in_place":
            c[:] = [3.0, 2.0, 1.0]
        elif change == "copied_rows":
            separated = [Constraint(r.a.copy(), r.b) for r in separated[:1]] + [
                Constraint(np.array([1.0, 0.0, 0.0]), 0.5)
            ]
        else:
            separated = separated[:1]
        fresh = solve_lp(LinearProgram(objective=c, rows=degree + separated, **bounds)).value
        assert stop.lp_value(c, separated) == fresh
        assert stop.lp_value(c, separated) == lp_stop_bound(degree, separated, c, **bounds)

    def test_context_reused_across_runs_gives_the_fresh_traces(self):
        graph = generate_triangle_instance(12, 5, 0)
        rows = matching_initial_rows(graph, "basic")
        d = graph.n_edges

        def run(stop, strategy):
            res = run_polar(
                MatchingOracle(graph, max_set_size=graph.n_nodes), np.ones(d), gamma1=1.0,
                mode=PolarMode.PACKING, initial_constraints=rows, stop=stop, max_iters=60,
                strategy=strategy,
            )
            assert any(row.lp_bound is not None for row in res.trace)
            return res.trace.to_csv()

        def stop():
            opt = float(brute_force_matching_opt(graph))
            return LPStop(opt, rows, np.zeros(d), np.ones(d))

        shared = stop()
        for strategy in (segment_only(), fully_corrective(1), segment_only()):
            assert run(shared, strategy) == run(stop(), strategy)


# The polar variants of the criterion-8 sweep: (corrective frequency, init).
POLAR_VARIANTS = [(0, "standard"), (0, "optimal"), (1, "standard"), (1, "optimal"),
                  (10, "standard"), (10, "optimal")]


def recorded_lp_stops(monkeypatch, every, **fields):
    """Each polar variant's LP-stop calls on one shared instance, run by run,
    as (c, separated) per call."""
    harness._shared_instance.cache_clear()
    runs = {}
    real = LPStop.lp_value

    def recording(self, c, separated):
        runs.setdefault(self, []).append((c, list(separated)))
        return real(self, c, separated)

    monkeypatch.setattr(LPStop, "lp_value", recording)
    for freq, init in POLAR_VARIANTS:
        config = dict(fields, out="", method="polar", frequency=freq, init=init,
                      lp_check_every=every)
        harness.run_experiment(harness.load_config(None, config))
    monkeypatch.setattr(LPStop, "lp_value", real)
    return list(runs.values())


def replay(runs, seeded, memo):
    """The LP-stop values of the recorded runs as hex strings, each run
    seeded from `seeded` (an LP and its cold solve), all sharing `memo`."""
    values = []
    for calls in runs:
        warm = lp_baseline._WarmStart()
        warm.seed(*seeded)
        warm.memo = memo
        values.append([warm.solve(LinearProgram(c, seeded[0].rows + separated,
                                                lb=seeded[0].lb, ub=seeded[0].ub)).hex()
                       for c, separated in calls])
    return values


def seeded_lp(problem, **fields):
    """The LP over an instance's initial rows and its read-only cold solve."""
    config = harness.load_config(None, dict(fields, problem=problem, out=""))
    instance = harness.build_instance(config, need_opt=False)
    lp = LinearProgram(instance.c, list(instance.initial_rows), lb=instance.lb, ub=instance.ub)
    res = solve_lp(lp)
    for array in res.final:
        array.flags.writeable = False
    return lp, res


class TestLPStopMemo:
    @pytest.mark.parametrize("every", [1, 3])
    @pytest.mark.parametrize(
        "problem, fields",
        [("stableset", dict(nodes=16, density=0.55, seed=3)),
         ("matching", dict(nodes=15, triangles=16, seed=0, max_set_size=15))],
    )
    def test_memo_on_and_off_give_the_same_values(self, problem, fields, every, monkeypatch):
        runs = recorded_lp_stops(monkeypatch, every, problem=problem, **fields)
        assert len(runs) == len(POLAR_VARIANTS)
        seeded = seeded_lp(problem, **fields)
        appended = []
        real_append = lp_baseline._append_rows
        monkeypatch.setattr(
            lp_baseline, "_append_rows", lambda *args: appended.append(1) or real_append(*args)
        )
        off = replay(runs, seeded, None)
        misses_off = len(appended)
        memo = {}
        on = replay(runs, seeded, memo)
        assert on == off
        assert 0 < len(appended) - misses_off < misses_off  # the memo saved some solves
        for node, final, value in memo.values():
            assert not any(array.flags.writeable for array in final)
            depth = final[0].shape[0] - seeded[1].final[0].shape[0]
            assert 0 < depth <= lp_baseline._MEMO_DEPTH
        assert sorted(node for node, _, _ in memo.values()) == list(range(1, len(memo) + 1))
        # A second pass over the same runs finds every stored state.
        appended.clear()
        assert replay(runs, seeded, memo) == off
        assert len(appended) < misses_off

    def test_stored_arrays_are_read_only(self):
        lp, res = seeded_lp("stableset", nodes=10, density=0.5, seed=1)
        warm = lp_baseline._WarmStart()
        warm.seed(lp, res)
        warm.memo = {}
        cut = Constraint(np.ones(len(lp.objective)), 1.0)
        warm.solve(LinearProgram(lp.objective, lp.rows + [cut], lb=lp.lb, ub=lp.ub))
        [(node, final, value)] = warm.memo.values()
        assert (warm.node, warm.final, warm.value) == (node, final, value)
        for array in final:
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 0

    @pytest.mark.parametrize("change", ["objective", "fewer_rows"])
    def test_cold_fallback_detaches_from_the_memo(self, change):
        lp, res = seeded_lp("stableset", nodes=10, density=0.5, seed=1)
        n = len(lp.objective)
        cuts = [Constraint(np.ones(n), 1.0), Constraint(np.eye(n)[0] + np.eye(n)[1], 0.75)]
        memo = {}
        warm = lp_baseline._WarmStart()
        warm.seed(lp, res)
        warm.memo = memo
        c = lp.objective
        warm.solve(LinearProgram(c, lp.rows + cuts, lb=lp.lb, ub=lp.ub))
        assert len(memo) == 1 and warm.node == 1
        rows = lp.rows + cuts[:1] if change == "fewer_rows" else lp.rows + cuts
        if change == "objective":
            c = np.arange(1.0, n + 1)
        fresh = solve_lp(LinearProgram(c, rows, lb=lp.lb, ub=lp.ub)).value
        assert warm.solve(LinearProgram(c, rows, lb=lp.lb, ub=lp.ub)) == fresh
        assert warm.memo is None and warm.node == 0
        more = rows + [Constraint(np.eye(n)[2], 0.5)]
        fresh = solve_lp(LinearProgram(c, more, lb=lp.lb, ub=lp.ub)).value
        assert warm.solve(LinearProgram(c, more, lb=lp.lb, ub=lp.ub)) == fresh
        assert len(memo) == 1

    def test_memo_stays_within_its_budget(self, monkeypatch):
        # On G(22, 0.55) the sweep's shallow states outgrow the byte budget.
        fields = dict(problem="stableset", nodes=22, density=0.55, seed=0, out="")
        sizes, default = {}, lp_baseline._MEMO_BYTES
        for budget in (default, 1 << 40):
            monkeypatch.setattr(lp_baseline, "_MEMO_BYTES", budget)
            harness._shared_instance.cache_clear()
            values = []
            real = LPStop.lp_value
            monkeypatch.setattr(
                LPStop, "lp_value", lambda *args: values.append(real(*args)) or values[-1]
            )
            for freq, init in POLAR_VARIANTS:
                config = dict(fields, method="polar", frequency=freq, init=init)
                harness.run_experiment(harness.load_config(None, config))
            monkeypatch.setattr(LPStop, "lp_value", real)
            key = tuple(getattr(harness.load_config(None, fields), name)
                        for name in harness._INSTANCE_FIELDS) + (None,)
            memo = harness._shared_instance(key, True).lp_memo
            root = harness._shared_instance(key, True).initial_lp.final[0].shape[0]
            assert all(f[0].shape[0] - root <= lp_baseline._MEMO_DEPTH for _, f, _ in memo.values())
            sizes[budget] = sum(f[0].nbytes for _, f, _ in memo.values()), values
        (kept, values), (unbounded, unbounded_values) = sizes.values()
        assert kept <= default < unbounded
        assert [v.hex() for v in values] == [v.hex() for v in unbounded_values]



def path_steps(path):
    """What a pivot path decides, step by step: the pivot and the ratio test."""
    return [
        (s.enter, s.row, s.cols.tolist(), s.pivot_row.tolist(), s.scan, s.tail) for s in path
    ]


def assert_same_solve(got: lp_baseline.LPResult, cold: lp_baseline.LPResult) -> None:
    """Equal tableau, basis, x and value (signs of zeros in the tableau aside),
    and the same pivot path for the next LP to resume from."""
    (tableau, basis, allowed), (cold_tableau, cold_basis, cold_allowed) = got.final, cold.final
    assert np.array_equal(tableau, cold_tableau)
    assert tableau[:, -1].tobytes() == cold_tableau[:, -1].tobytes()
    assert basis.tolist() == cold_basis.tolist()
    assert np.array_equal(allowed, cold_allowed)
    assert got.x.tobytes() == cold.x.tobytes()
    assert got.value == cold.value
    assert (got.path is None) == (cold.path is None)
    if cold.path is not None:
        got.path.settle(tableau)
        cold.path.settle(cold_tableau)
        assert path_steps(got.path) == path_steps(cold.path)


@pytest.fixture
def resumes(monkeypatch):
    """Checks every LP that `_resume` solves against a cold solve of that LP.

    Counts the `_resume` calls, the cold solves they fall back to, and the
    pivots made inside them and outside (the cold solves)."""
    counts = dict(calls=0, fallbacks=0, resumed_pivots=0, cold_pivots=0)
    side = ["cold_pivots"]
    real_pivot, real_solve = lp_baseline._pivot, lp_baseline.solve_lp
    real_resume = lp_baseline._resume

    def pivot(*args):
        counts[side[0]] += 1
        return real_pivot(*args)

    def solve(lp):
        counts["fallbacks"] += side[0] == "resumed_pivots"
        return real_solve(lp)

    def resume(lp, prev):
        side[0] = "resumed_pivots"
        try:
            got = real_resume(lp, prev)
        finally:
            side[0] = "cold_pivots"
        counts["calls"] += 1
        assert_same_solve(got, real_solve(lp))
        return got

    monkeypatch.setattr(lp_baseline, "_pivot", pivot)
    monkeypatch.setattr(lp_baseline, "solve_lp", solve)
    monkeypatch.setattr(lp_baseline, "_resume", resume)
    return counts


def instance_cut_loop(problem, max_iters=1000, **fields):
    config = harness.load_config(None, dict(problem=problem, out="", **fields))
    instance = harness.build_instance(config, need_opt=True)
    stop = LPStop(instance.opt_ref, instance.initial_rows, instance.lb, instance.ub)
    return cut_loop(
        instance.oracle, instance.c, instance.initial_rows, lb=instance.lb, ub=instance.ub,
        stop=stop, max_iters=max_iters,
    )


class TestResumedCutLoop:
    @pytest.mark.parametrize(
        "problem, fields",
        [
            # The matching-sweep graphs whose cut loop separates.
            ("matching", dict(nodes=15, triangles=t, seed=s, max_set_size=15))
            for t, s in ((10, 0), (10, 1), (11, 1), (15, 0), (16, 0), (17, 0))
        ]
        + [
            ("stableset", dict(nodes=22, density=0.55, seed=s, initial_constraints="basic"))
            for s in (0, 1, 2)
        ]
        # Free variables: every structural column has a mirror column.
        + [("synthetic-ball", dict(dim=d, radius=1.0, center_offset=0.3)) for d in (3, 4)],
        ids=lambda v: "-".join(map(str, v.values())) if isinstance(v, dict) else v,
    )
    def test_every_lp_equals_a_cold_solve(self, resumes, problem, fields):
        res = instance_cut_loop(problem, **fields)
        assert res.converged and res.cuts
        assert resumes["calls"] == len(res.cuts)  # every LP after the first
        assert resumes["fallbacks"] == 0
        # The resume skips most of the pivots that the cold solves make.
        assert resumes["resumed_pivots"] < 0.5 * resumes["cold_pivots"]

    def test_cut_that_joins_a_near_tie_chain_without_a_pivot(self, resumes):
        # max x0 with x0 <= 1 + 2.5e-9 (row 0) and the bound x0 <= 1: the
        # scan takes row 0, then the bound (1 < 1 + 1.5e-9).
        bounds = dict(lb=np.zeros(1), ub=np.ones(1))
        rows = [Constraint(np.array([1.0]), 1.0 + 2.5e-9)]
        first = solve_lp(LinearProgram(np.ones(1), rows, **bounds))
        # The cut x0 <= 1 + 1.2e-9 takes the lead from row 0, and the bound
        # still wins: the cut joins the first pivot's scan and stays basic.
        rows.append(Constraint(np.array([1.0]), 1.0 + 1.2e-9))
        second = lp_baseline._resume(LinearProgram(np.ones(1), rows, **bounds), first)
        assert resumes["resumed_pivots"] == 0
        assert second.x.tolist() == [1.0]
        assert second.path[0].scan[0] == 1  # the cut leads after the constraint rows
        # x0 <= 1 + 1e-10 takes the lead from the cut and near-ties the
        # bound, which it beats on its lower basic index: the resume goes
        # back to the first pivot and pivots on it instead.
        rows.append(Constraint(np.array([1.0]), 1.0 + 1e-10))
        third = lp_baseline._resume(LinearProgram(np.ones(1), rows, **bounds), second)
        assert resumes["resumed_pivots"] == 1
        assert third.x.tolist() == [1.0 + 1e-10]
        assert resumes["calls"] == 2 and resumes["fallbacks"] == 0

    def test_cut_with_negative_rhs_takes_the_cold_phase_1_path(self, resumes):
        # A ball off the origin cuts the box corner (5, 5) with the row
        # (x0 + x1) / sqrt(2) <= 1 - 6 / sqrt(2).
        box = []
        for e in np.eye(2):
            box += [Constraint(e, 5.0), Constraint(-e, 5.0)]
        oracle = BallOracle(np.array([-3.0, -3.0]), 1.0)
        res = cut_loop(oracle, np.ones(2), box, lb=np.full(2, -np.inf), max_iters=6)
        assert res.cuts[0].b < 0
        # Every LP after that cut needs phase 1, so each starts cold.
        assert resumes["calls"] == resumes["fallbacks"] == len(res.cuts) - (not res.converged)
        assert resumes["calls"] >= 2

    def test_loop_stopped_by_its_cap_matches_the_cold_loop(self, resumes, monkeypatch):
        fields = dict(nodes=15, triangles=17, seed=0, max_set_size=15, max_iters=5)
        res = instance_cut_loop("matching", **fields)
        assert not res.converged and len(res.cuts) == 5
        assert resumes["calls"] == 4  # the fifth cut ends the loop before its LP
        monkeypatch.setattr(lp_baseline, "_resume", lambda lp, prev: lp_baseline.solve_lp(lp))
        cold = instance_cut_loop("matching", **fields)
        assert res.x.tobytes() == cold.x.tobytes() and res.value == cold.value
        assert [c.a.tobytes() for c in res.cuts] == [c.a.tobytes() for c in cold.cuts]
        assert res.trace.to_csv() == cold.trace.to_csv()
