import math
import sys

import numpy as np
import pytest

from oracleopt.certificates import verify_certificate
from oracleopt.corrective import (
    AtomSet,
    fully_corrective,
    partially_corrective,
    segment_only,
)
from oracleopt.oracle import (
    BallOracle,
    Constraint,
    ConstraintForm,
    Inside,
    PolytopeOracle,
    box_oracle,
)
from oracleopt.solver_polar import (
    PolarMode,
    PolarState,
    candidate_point,
    dual_bound,
    initialize_gamma,
    polar_step,
    run_polar,
)
from oracleopt.trace import CapOnly, GapStop


def make_state(gamma, c, q, mode=PolarMode.STANDARD):
    c = np.asarray(c, dtype=float)
    q = np.asarray(q, dtype=float)
    dim = c.shape[0]
    zero = Constraint(np.zeros(dim), 1.0, ConstraintForm.POLAR, "zero")
    return PolarState(
        t=0,
        gamma=gamma,
        c=c,
        target=c / gamma,
        aggregate=q,
        atoms=AtomSet(zero, zero.a),
        weights=np.array([1.0]),
        mode=mode,
        shadow=np.zeros(dim) if mode is PolarMode.PACKING else None,
    )


class AlwaysOutside(BallOracle):
    """Oracle that rejects everything; used to exercise the halving failure."""

    def separate(self, x):
        from oracleopt.oracle import Violated, normalize_unit

        return Violated(normalize_unit(np.ones(self.dimension), -1.0), 1.0)


class TestInitializeGamma:
    def test_halving_search_on_unit_ball(self):
        oracle = BallOracle(np.zeros(2), 1.0)
        init = initialize_gamma(oracle, [1.0, 0.0], R=1.0)
        assert init.gamma1 == pytest.approx(0.5)
        assert init.oracle_calls == 1

    def test_known_inner_radius(self):
        oracle = BallOracle(np.zeros(2), 1.0)
        init = initialize_gamma(oracle, [1.0, 0.0], R=1.0, r_known=1.0)
        assert init.gamma1 == pytest.approx(0.5)
        assert isinstance(oracle.separate(init.point), Inside)

    def test_box_diagonal(self):
        oracle = box_oracle(-np.ones(2), np.ones(2))
        init = initialize_gamma(oracle, [1.0, 1.0], R=math.sqrt(2.0))
        # first halved point is (0.5, 0.5), inside the box
        assert init.gamma1 == pytest.approx(1.0)
        assert np.allclose(init.point, [0.5, 0.5])

    def test_gives_up_when_nothing_is_inside(self):
        oracle = AlwaysOutside(np.zeros(2), 1.0)
        with pytest.raises(RuntimeError, match="appears empty"):
            initialize_gamma(oracle, [1.0, 0.0], R=1.0)


class TestCandidatePoint:
    def test_plain_direction(self):
        state = make_state(1.0, [2.0, 0.0], [0.0, 0.0])
        assert np.allclose(candidate_point(state), [1.0, 0.0])

    def test_shrink_signal(self):
        state = make_state(1.0, [1.0, 0.0], [2.0, 0.0])
        assert candidate_point(state) is None

    def test_general_formula(self):
        state = make_state(1.0, [2.0, 0.0], [0.0, 1.0])
        assert np.allclose(candidate_point(state), [4.0 / 3.0, -2.0 / 3.0])


class TestPolarStep:
    def test_hand_simulated_ball_run(self):
        oracle = BallOracle(np.zeros(2), 1.0)
        state = make_state(0.5, [1.0, 0.0], [0.0, 0.0])
        kind = polar_step(state, oracle, segment_only())
        assert kind.value == "primal"
        assert state.gamma == pytest.approx(1.0)
        assert np.allclose(state.aggregate, [0.0, 0.0])

        kind = polar_step(state, oracle, segment_only())
        assert kind.value == "cut"
        assert np.allclose(state.atoms.rows[-1].a, [1.0, 0.0])
        assert state.atoms.rows[-1].b == 1.0
        # projection of the target onto [cut row, old aggregate] lands on the row
        assert np.allclose(state.aggregate, [1.0, 0.0])
        assert state.residual == pytest.approx(0.0, abs=1e-12)

    def test_shrink_branch_keeps_gamma(self):
        oracle = BallOracle(np.zeros(2), 1.0)
        state = make_state(1.0, [1.0, 0.0], [2.0, 0.0])
        kind = polar_step(state, oracle, segment_only())
        assert kind.value == "shrink"
        assert state.gamma == 1.0
        assert np.linalg.norm(state.aggregate) < 2.0


class TestResidual:
    def test_follows_rebound_arrays(self):
        state = make_state(1.0, [2.0, 0.0], [0.0, 1.0])
        assert state.residual == float(np.linalg.norm([2.0, -1.0]))
        state.aggregate = np.array([2.0, 0.0])
        assert state.residual == 0.0
        state.target = np.array([0.0, 3.0])
        assert state.residual == float(np.linalg.norm([-2.0, 3.0]))

    @pytest.mark.parametrize("strategy", [segment_only(), fully_corrective(1)])
    def test_evaluated_once_per_step(self, strategy, monkeypatch):
        # Once for the starting state, then once for each state a step leaves.
        evaluations = []
        real = np.linalg.norm

        def norm(*args, **kwargs):
            evaluations.append(sys._getframe(1).f_code.co_name == "residual")
            return real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "norm", norm)
        oracle = box_oracle(np.zeros(3), np.ones(3), radius_inner=1.0)
        res = run_polar(oracle, np.ones(3), gamma1=1.0, stop=GapStop(1e-3), max_iters=200,
                        strategy=strategy, mode=PolarMode.PACKING)
        assert res.iterations > 10
        assert sum(evaluations) == res.iterations + 1


class TestDualBound:
    def test_met_target_proves_gamma(self):
        state = make_state(1.0, [1.0, 0.0], [1.0, 0.0])
        assert dual_bound(state, R=5.0) == pytest.approx(1.0)

    def test_formula(self):
        state = make_state(1.0, [1.0, 0.0], [0.9, 0.0])
        assert dual_bound(state, R=2.0) == pytest.approx(1.2)

    def test_tracks_guarantee_on_ball_run(self):
        oracle = BallOracle(np.zeros(3), 1.0)
        res = run_polar(oracle, [1.0, 0.0, 0.0], gamma1=0.5, stop=CapOnly(), max_iters=2000)
        for row in res.trace:
            assert row.bound - row.gamma <= 8 * 1.0 / math.sqrt(row.t) * row.gamma + 1e-8


class TestRunPolar:
    def test_unit_ball_converges_to_one(self):
        oracle = BallOracle(np.zeros(2), 1.0)
        res = run_polar(oracle, [1.0, 0.0], gamma1=0.5, stop=GapStop(0.01), max_iters=1000)
        assert res.converged
        assert res.gamma >= 0.99
        assert res.bound <= 1.01 * res.gamma + 1e-9
        assert verify_certificate(res.certificate).passed
        assert isinstance(oracle.separate(res.incumbent), Inside)

    def test_packing_box_reaches_two(self):
        oracle = box_oracle(np.zeros(2), np.ones(2), radius_inner=1.0)
        res = run_polar(
            oracle,
            [1.0, 1.0],
            gamma1=0.5,
            stop=GapStop(0.01),
            max_iters=3000,
            mode=PolarMode.PACKING,
        )
        assert res.converged
        assert res.gamma == pytest.approx(2.0, rel=0.011)
        assert verify_certificate(res.certificate).passed

    def test_zero_objective_rejected(self):
        oracle = BallOracle(np.zeros(2), 1.0)
        with pytest.raises(ValueError):
            run_polar(oracle, [0.0, 0.0], gamma1=0.5)

    def test_monotone_gamma_and_residual(self):
        oracle = box_oracle(-np.ones(4), np.ones(4), radius_inner=1.0)
        res = run_polar(oracle, np.ones(4), gamma1=1.0, stop=CapOnly(), max_iters=500)
        rows = list(res.trace)
        for a, b in zip(rows, rows[1:]):
            assert b.gamma >= a.gamma - 1e-9
            assert b.residual <= a.residual + 1e-9

    def test_contraction_and_speed_guarantees(self):
        # Distance-squared shrinks by at least its own relative size each
        # iteration, which pins the residual under 4 rho / sqrt(t).
        oracle = BallOracle(np.zeros(2), 0.5)
        r = 0.5
        c = np.array([2.0, 1.0])
        gamma1 = 0.5 * r * float(np.linalg.norm(c))
        res = run_polar(oracle, c, gamma1=gamma1, stop=CapOnly(), max_iters=1500)
        rho = max(1.0 / r, float(np.linalg.norm(c)) / gamma1)
        rows = list(res.trace)
        for a, b in zip(rows, rows[1:]):
            limit = (1 - a.residual**2 / (16 * rho**2)) * a.residual**2
            assert b.residual**2 <= limit + 1e-8
        for row in rows:
            assert row.residual <= 4 * rho / math.sqrt(row.t) + 1e-9

    @pytest.mark.parametrize("strategy", [segment_only(), fully_corrective(1)])
    def test_packing_queries_stay_nonnegative(self, strategy):
        oracle = box_oracle(np.zeros(3), np.ones(3), radius_inner=1.0)
        calls = []
        original = oracle.separate

        def recording(x):
            calls.append(np.min(x))
            return original(x)

        oracle.separate = recording
        res = run_polar(
            oracle,
            np.array([1.0, 0.5, 0.2]),
            gamma1=0.3,
            stop=GapStop(0.05),
            max_iters=2000,
            mode=PolarMode.PACKING,
            strategy=strategy,
        )
        assert res.converged
        assert min(calls) >= -1e-9

    def test_optimal_initialization_has_no_incumbent_point(self):
        oracle = BallOracle(np.zeros(2), 1.0)
        res = run_polar(oracle, [1.0, 0.0], gamma1=1.0, stop=GapStop(0.01), max_iters=500)
        assert res.gamma >= 1.0 - 1e-9
        assert res.converged

    def test_fully_corrective_run_on_random_polytope(self):
        # 40 random halfspaces <a, x> <= 1 plus the box [-1, 1]^5: the segment
        # update needs over a thousand iterations here, the corrective one few.
        n = 5
        rng = np.random.default_rng(0)
        normals = rng.standard_normal((40, n))
        normals /= np.linalg.norm(normals, axis=1, keepdims=True)
        rows = [Constraint(a, 1.0, name=f"half:{i}") for i, a in enumerate(normals)]
        oracle = PolytopeOracle(
            rows, box_bounds=(-np.ones(n), np.ones(n)), radius_outer=math.sqrt(n), radius_inner=1.0
        )
        res = run_polar(
            oracle,
            rng.uniform(0.1, 1.0, n),
            gamma1=0.5,
            stop=GapStop(0.02),
            max_iters=200,
            strategy=fully_corrective(5),
        )
        assert res.converged
        assert verify_certificate(res.certificate).passed
        assert int(np.sum(res.state.weights > 1e-9)) <= n + 1

    def test_partially_corrective_run(self):
        oracle = box_oracle(-np.ones(4), np.ones(4), radius_inner=1.0)
        res = run_polar(
            oracle,
            np.ones(4),
            gamma1=1.0,
            stop=GapStop(0.01),
            max_iters=2000,
            strategy=partially_corrective(k=1),
        )
        assert res.converged
        assert verify_certificate(res.certificate).passed
        assert res.gamma == pytest.approx(4.0, rel=0.011)
