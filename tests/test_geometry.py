import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracleopt.geometry import project_point_to_segment


class TestProjectPointToSegment:
    def test_orthogonal_drop_onto_interior(self):
        point, lam = project_point_to_segment([0, 0], [2, 0], [1, 1])
        assert np.allclose(point, [1, 0])
        assert lam == pytest.approx(0.5)

    def test_degenerate_segment_returns_zero_coefficient(self):
        point, lam = project_point_to_segment([3, 4], [3, 4], [0, 0])
        assert np.allclose(point, [3, 4])
        assert lam == 0.0

    def test_symmetric_diagonal(self):
        point, lam = project_point_to_segment([1, 0], [0, 1], [0, 0])
        assert np.allclose(point, [0.5, 0.5])
        assert lam == pytest.approx(0.5)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            project_point_to_segment([1, 0], [0, 1, 2], [0, 0])

    def test_idempotent_and_never_beyond_endpoints(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            dim = rng.integers(1, 6)
            x, y, z = rng.normal(size=(3, dim))
            point, lam = project_point_to_segment(x, y, z)
            assert 0.0 <= lam <= 1.0
            dist = np.linalg.norm(point - z)
            assert dist <= np.linalg.norm(x - z) + 1e-12
            assert dist <= np.linalg.norm(y - z) + 1e-12
            again, _ = project_point_to_segment(x, y, point)
            assert np.allclose(again, point, atol=1e-12)

    def test_contraction_inequality_under_angle_hypothesis(self):
        # For x, y, z in a rho-ball with <x-y, x-z> >= eps ||x-z||^2, the
        # projection of z onto [x, y] contracts the distance by the factor
        # (1 - eps^2 ||x-z||^2 / (4 rho^2)).
        rng = np.random.default_rng(11)
        eps = 0.5
        checked = 0
        while checked < 300:
            dim = int(rng.integers(1, 8))
            x, y, z = rng.normal(size=(3, dim))
            rho = max(np.linalg.norm(v) for v in (x, y, z))
            xz = float(np.linalg.norm(x - z) ** 2)
            if xz < 1e-12 or float((x - y) @ (x - z)) < eps * xz:
                continue
            checked += 1
            point, _ = project_point_to_segment(x, y, z)
            lhs = float(np.linalg.norm(point - z) ** 2)
            assert lhs <= (1 - eps**2 * xz / (4 * rho**2)) * xz + 1e-9

    @given(
        st.lists(st.floats(0.01, 100.0), min_size=2, max_size=30),
        st.floats(0.0, 10.0),
    )
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_inverse_recursion_growth(self, seq, eta):
        # d_{i+1} <= (1 - eta d_i) d_i forces 1/d_t >= 1/d_1 + (t-1) eta.
        # Build a sequence satisfying the hypothesis by construction.
        d = [seq[0]]
        for raw in seq[1:]:
            cap = (1 - eta * d[-1]) * d[-1]
            if cap <= 0:
                break
            d.append(min(raw, cap))
        t = len(d)
        if t >= 2 and d[-1] > 0:
            assert 1.0 / d[-1] >= 1.0 / d[0] + (t - 1) * eta - 1e-9
