import numpy as np
import pytest

from oracleopt.oracle import (
    BallOracle,
    Constraint,
    Inside,
    PolytopeOracle,
    Violated,
    box_oracle,
    normalize_polar,
    normalize_unit,
)


class TestNormalization:
    def test_polar_rescale(self):
        cons = normalize_polar([2, 0], 2.0)
        assert np.allclose(cons.a, [1, 0])
        assert cons.b == 1.0

    def test_polar_leaves_unit_rhs_alone(self):
        cons = normalize_polar([0, 3], 1.0)
        assert np.allclose(cons.a, [0, 3])

    def test_polar_rejects_origin_cutting_row(self):
        with pytest.raises(ValueError, match="polar setting"):
            normalize_polar([1, 1], 0.0)

    def test_unit_rescale(self):
        cons = normalize_unit([3, 4], 10.0)
        assert np.allclose(cons.a, [0.6, 0.8])
        assert cons.b == pytest.approx(2.0)

    def test_unit_negative_direction(self):
        cons = normalize_unit([0, -2], 0.0)
        assert np.allclose(cons.a, [0, -1])
        assert cons.b == 0.0

    def test_unit_rejects_zero_normal(self):
        with pytest.raises(ValueError):
            normalize_unit([0, 0], 1.0)

    def test_halfspace_preserved_setwise(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            a = rng.normal(size=3)
            b = float(rng.uniform(0.1, 2.0))
            x = rng.normal(size=3) * 2
            raw = np.sign(a @ x - b)
            polar = normalize_polar(a, b)
            unit = normalize_unit(a, b)
            assert np.sign(polar.violation(x)) in (raw, 0.0)
            assert np.sign(unit.violation(x)) in (raw, 0.0)


class TestBallOracle:
    def test_separates_outside_point(self):
        oracle = BallOracle(np.zeros(2), 1.0)
        result = oracle.separate([2, 0])
        assert isinstance(result, Violated)
        assert np.allclose(result.constraint.a, [1, 0])
        assert result.constraint.b == pytest.approx(1.0)

    def test_inside_point(self):
        oracle = BallOracle(np.zeros(2), 1.0)
        assert isinstance(oracle.separate([0.5, 0]), Inside)

    def test_offset_center(self):
        oracle = BallOracle([1.0, 0.0], 1.0)
        result = oracle.separate([3, 0])
        assert isinstance(result, Violated)
        assert np.allclose(result.constraint.a, [1, 0])
        assert result.constraint.b == pytest.approx(2.0)

    def test_advertised_radii(self):
        oracle = BallOracle([0.3, 0.0], 0.5)
        assert oracle.radius_outer == pytest.approx(0.8)
        assert oracle.radius_inner == pytest.approx(0.2)

    def test_returned_rows_valid_and_violated(self):
        rng = np.random.default_rng(13)
        oracle = BallOracle(rng.normal(size=3) * 0.2, 0.7)
        inside_sample = oracle.center + 0.7 * _unit_rows(rng, 200, 3) * rng.uniform(
            0, 1, size=(200, 1)
        )
        for _ in range(50):
            x = rng.normal(size=3) * 2.0
            result = oracle.separate(x)
            if isinstance(result, Inside):
                continue
            assert result.constraint.violation(x) > 1e-7
            slack = inside_sample @ result.constraint.a - result.constraint.b
            assert np.max(slack) <= 1e-9


class TestPolytopeOracle:
    def test_box_separation(self):
        oracle = box_oracle(-np.ones(2), np.ones(2))
        result = oracle.separate([2, 0])
        assert isinstance(result, Violated)
        assert np.allclose(result.constraint.a, [1, 0])
        assert result.violation == pytest.approx(1.0)

    def test_box_inside(self):
        oracle = box_oracle(-np.ones(2), np.ones(2))
        assert isinstance(oracle.separate([0, 0]), Inside)

    def test_max_violation_wins(self):
        oracle = box_oracle(-np.ones(2), np.ones(2))
        result = oracle.separate([2, 3])
        assert isinstance(result, Violated)
        assert np.allclose(result.constraint.a, [0, 1])
        assert result.violation == pytest.approx(2.0)

    def test_tie_breaks_to_lowest_index(self):
        rows = [
            Constraint(np.array([1.0, 0.0]), 1.0, name="first"),
            Constraint(np.array([0.0, 1.0]), 1.0, name="second"),
        ]
        oracle = PolytopeOracle(rows, radius_outer=2.0)
        result = oracle.separate([2.0, 2.0])
        assert result.constraint.name == "first"

    def test_needs_rows_or_bounds(self):
        with pytest.raises(ValueError):
            PolytopeOracle([], radius_outer=1.0)

    def test_repeated_row_names_rejected(self):
        # The solvers keep one atom per row name, so a repeat would never be used.
        rows = [Constraint(a, 1.0, name="h") for a in np.eye(2)]
        with pytest.raises(ValueError, match="unique"):
            PolytopeOracle(rows, radius_outer=2.0)
        clash = [Constraint(np.ones(2), 1.0, name="ub:1")]
        with pytest.raises(ValueError, match="unique"):
            PolytopeOracle(clash, box_bounds=(-np.ones(2), np.ones(2)), radius_outer=2.0)
        unnamed = [Constraint(a, 1.0) for a in np.eye(2)]
        assert len(PolytopeOracle(unnamed, radius_outer=2.0).rows) == 2


def _unit_rows(rng, count, dim):
    rows = rng.normal(size=(count, dim))
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)
