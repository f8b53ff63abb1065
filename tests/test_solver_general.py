import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import oracleopt
from oracleopt.certificates import verify_certificate
from oracleopt.corrective import (
    fully_corrective,
    partially_corrective,
    segment_plus_nonneg,
)
from oracleopt.oracle import BallOracle, Constraint, PolytopeOracle
from oracleopt.solver_general import (
    general_dual_bound,
    general_step,
    run_general,
)
from oracleopt.trace import CapOnly, GapStop


class TestGeneralStep:
    def test_first_step_cuts_at_origin(self):
        # K sits away from the origin, so the first candidate (the origin)
        # improves on gamma_1 = -R but fails membership.
        oracle = BallOracle([0.5, 0.0], 0.25)
        res = run_general(oracle, [1.0, 0.0], R=1.0, stop=CapOnly(), max_iters=1)
        assert res.trace[0].step == "cut"
        assert res.gamma == pytest.approx(-1.0)  # no feasible point yet

    def test_shrink_to_ball_branch(self):
        class NeverCalled(BallOracle):
            def separate(self, x):
                raise AssertionError("oracle must not be queried on this branch")

        oracle = NeverCalled(np.zeros(2), 1.0)
        res = run_general(oracle, [1.0, 0.0], R=1.0, stop=CapOnly(), max_iters=0)
        state = res.state
        state.gap_vec = np.array([1.0, 0.0, -1.0])
        state.lam = 0.5
        state.nu = np.array([0.5])
        state.atom_part = state.gap_vec + state.lam * state.target_lifted()
        kind = general_step(state, oracle)
        assert kind.value == "shrink_ball"
        assert state.rnorm_gap < math.sqrt(2.0)

    def test_value_branch_shrinks_toward_target(self):
        class NeverCalled(BallOracle):
            def separate(self, x):
                raise AssertionError("oracle must not be queried on this branch")

        oracle = NeverCalled(np.zeros(2), 1.0)
        res = run_general(oracle, [1.0, 0.0], R=1.0, stop=CapOnly(), max_iters=0)
        state = res.state
        # candidate = (-1, 0) has value below gamma = -1 + something negative
        state.gap_vec = np.array([0.5, 0.0, 0.5])
        state.lam = 0.4
        state.nu = np.array([0.6])
        state.atom_part = state.gap_vec + state.lam * state.target_lifted()
        kind = general_step(state, oracle)
        assert kind.value == "shrink_target"


class TestGeneralDualBound:
    def test_formula(self):
        oracle = BallOracle(np.zeros(2), 1.0)
        res = run_general(oracle, [1.0, 0.0], R=1.0, stop=CapOnly(), max_iters=0)
        state = res.state
        state.lam = 1.0
        state.gamma = 3.0
        state.gap_vec = np.array([0.1, 0.0, 0.0])
        assert general_dual_bound(state) == pytest.approx(3.0 + 2 * 0.1)

    def test_no_bound_without_target_weight(self):
        oracle = BallOracle(np.zeros(2), 1.0)
        res = run_general(oracle, [1.0, 0.0], R=1.0, stop=CapOnly(), max_iters=0)
        assert res.state.lam == 0.0
        assert general_dual_bound(res.state) is None

    def test_guaranteed_rate_on_translated_ball(self):
        oracle = BallOracle([0.5, 0.0], 0.25)
        R, r, opt = 1.0, 0.25, 0.75
        res = run_general(oracle, [1.0, 0.0], R=R, stop=CapOnly(), max_iters=3000)
        threshold = 4096 * R**2 / r**2
        for row in res.trace:
            assert row.residual <= 8.0 / math.sqrt(row.t) + 1e-9
            assert row.gamma <= opt + 1e-6
            if row.t >= threshold:
                assert opt <= row.gamma + 128 * R**2 / (r * math.sqrt(row.t)) + 1e-8


class TestRunGeneral:
    def test_translated_ball_primal_convergence(self):
        oracle = BallOracle([0.3, 0.0], 0.5)
        res = run_general(
            oracle, [1.0, 0.0], R=1.0, stop=CapOnly(), max_iters=3000,
            strategy=fully_corrective(10),
        )
        assert res.gamma == pytest.approx(0.8, rel=0.01)
        assert res.bound >= 0.8 - 1e-6
        assert verify_certificate(res.certificate).passed

    def test_unit_simplex_corner(self):
        rows = [Constraint(np.ones(3), 1.0, name="simplex")]
        lo = [
            Constraint(-np.eye(3)[i], 0.0, name=f"nonneg:{i}") for i in range(3)
        ]
        oracle = PolytopeOracle(rows + lo, radius_outer=1.1)
        res = run_general(
            oracle, [1.0, 0.0, 0.0], R=1.1, stop=CapOnly(), max_iters=3000,
            strategy=fully_corrective(10),
        )
        assert res.gamma == pytest.approx(1.0, rel=0.01)
        assert verify_certificate(res.certificate).passed

    def test_zero_objective_rejected(self):
        oracle = BallOracle(np.zeros(2), 1.0)
        with pytest.raises(ValueError):
            run_general(oracle, [0.0, 0.0])

    def test_objective_scale_invariance(self):
        oracle = BallOracle([0.2, 0.1], 0.4)
        res1 = run_general(oracle, [1.0, 0.0], R=1.0, stop=CapOnly(), max_iters=500)
        res5 = run_general(oracle, [5.0, 0.0], R=1.0, stop=CapOnly(), max_iters=500)
        assert res5.gamma == pytest.approx(5.0 * res1.gamma, rel=1e-9)
        assert res5.bound == pytest.approx(5.0 * res1.bound, rel=1e-9)

    def test_contraction_and_norm_guarantees(self):
        # The lifted-gap norm-squared contracts by its own eighth every
        # iteration, and never exceeds the initial ball row's norm.
        oracle = BallOracle([0.1, -0.2, 0.3], 0.6)
        res = run_general(oracle, [1.0, 2.0, -1.0], R=1.0, stop=CapOnly(), max_iters=800)
        rows = list(res.trace)
        for a, b in zip(rows, rows[1:]):
            assert b.residual**2 <= (1 - a.residual**2 / 8.0) * a.residual**2 + 1e-8
        for row in rows:
            assert row.residual <= 8.0 / math.sqrt(row.t) + 1e-9
            assert row.bound >= row.gamma - 1e-9

    def test_gap_bound_with_known_inner_ball(self):
        # Whenever the gap norm is under r / (8R), the optimum is pinned
        # within 8R (OPT - <c, z>) / r times that norm.
        center = np.array([0.5, 0.0])
        radius = 0.25
        oracle = BallOracle(center, radius)
        R = 1.0
        opt = 0.75
        res = run_general(oracle, [1.0, 0.0], R=R, stop=CapOnly(), max_iters=50000)
        limit = radius / (8 * R)
        seen = 0
        for row in res.trace:
            if row.residual <= limit:
                seen += 1
                allowance = 8 * R * (opt - center[0]) / radius * row.residual
                assert opt <= row.gamma + allowance + 1e-8
        assert seen > 0

    def test_gap_stop_converges(self):
        oracle = BallOracle(np.zeros(2), 1.0)  # origin inside: lam grows fast
        res = run_general(oracle, [1.0, 0.0], R=1.0, stop=GapStop(0.05), max_iters=50000)
        assert res.converged
        assert res.bound <= 1.05 * res.gamma + 1e-9

    def test_weak_initial_rows_clamped_to_ball_bound(self):
        # A row weaker than the enclosing ball is tightened on ingestion so
        # lifted atoms keep bounded norms.
        oracle = BallOracle(np.zeros(2), 1.0)
        weak = Constraint(np.array([2.0, 0.0]), 10.0, name="weak")
        res = run_general(
            oracle, [1.0, 0.0], R=1.0, stop=CapOnly(), max_iters=3,
            initial_constraints=[weak],
        )
        ingested = res.state.atoms[1]
        assert ingested.b == pytest.approx(1.0)
        assert np.linalg.norm(ingested.a) == pytest.approx(1.0)

    @pytest.mark.parametrize("strategy", [partially_corrective(), segment_plus_nonneg()])
    def test_unsupported_strategies_rejected(self, strategy):
        with pytest.raises(ValueError, match="general solver"):
            run_general(BallOracle([0.0, 0.0], 1.0), [1.0, 0.0], strategy=strategy, max_iters=1)

    def test_broken_invariant_raises_under_python_O(self):
        # The oracle answers the origin with x_0 <= 1, which holds there, so the
        # cut step's invariant breaks; python -O strips asserts but not this.
        script = textwrap.dedent(
            """
            import numpy as np
            from oracleopt import InvariantError, run_general
            from oracleopt.oracle import BallOracle, Constraint, Violated

            class Liar(BallOracle):
                def separate(self, x):
                    return Violated(Constraint(np.array([1.0, 0.0]), 1.0, name="x0"), 1.0)

            print("debug", __debug__)
            try:
                run_general(Liar([0.0, 0.0], 1.0), [1.0, 0.0], R=2.0, max_iters=1)
            except InvariantError as exc:
                print("raised:", exc)
            """
        )
        src = str(Path(oracleopt.__file__).resolve().parents[1])
        out = subprocess.run(
            [sys.executable, "-O", "-c", script],
            capture_output=True, text=True, timeout=120, env={**os.environ, "PYTHONPATH": src},
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.splitlines() == [
            "debug False",
            "raised: the cut is not violated at the query",
        ]
