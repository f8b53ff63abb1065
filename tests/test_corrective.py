import numpy as np
import pytest

from oracleopt.corrective import (
    StrategyKind,
    UpdateStrategy,
    fully_corrective,
    min_norm_point,
    nonneg_corrective_update,
    partially_corrective,
    partially_corrective_update,
)
from oracleopt.geometry import project_point_to_segment


def pgd_projection(target, atoms, steps=100_000):
    """Independent reference: projected gradient on the simplex weights."""
    atoms = np.asarray(atoms, dtype=float)
    m = atoms.shape[0]
    gram = atoms @ atoms.T
    lin = atoms @ np.asarray(target, dtype=float)
    lip = 2.0 * float(np.linalg.eigvalsh(gram)[-1]) + 1e-12
    w = np.full(m, 1.0 / m)
    for _ in range(steps):
        grad = 2.0 * (gram @ w - lin)
        w = _project_simplex(w - grad / lip)
    return w @ atoms


def _project_simplex(v):
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    ks = np.arange(1, len(v) + 1)
    rho = ks[u - css / ks > 0][-1]
    theta = css[rho - 1] / rho
    return np.maximum(v - theta, 0.0)


class TestMinNormPoint:
    def test_symmetric_pair(self):
        res = min_norm_point([0.0, 0.0], [[1.0, 0.0], [0.0, 1.0]])
        assert np.allclose(res.point, [0.5, 0.5])
        assert np.allclose(res.weights, [0.5, 0.5])

    def test_vertex_optimal(self):
        res = min_norm_point([2.0, 0.0], [[1.0, 0.0], [0.0, 1.0]])
        assert np.allclose(res.point, [1.0, 0.0], atol=1e-9)

    def test_matches_projected_gradient(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            atoms = rng.normal(size=(6, 4))
            target = rng.normal(size=4)
            res = min_norm_point(target, atoms)
            ref = pgd_projection(target, atoms)
            assert np.linalg.norm(res.point - ref) <= 1e-6

    def test_variational_inequality(self):
        rng = np.random.default_rng(29)
        for _ in range(50):
            m, n = int(rng.integers(2, 9)), int(rng.integers(1, 7))
            atoms = rng.normal(size=(m, n))
            target = rng.normal(size=n)
            res = min_norm_point(target, atoms)
            assert res.converged
            for a in atoms:
                assert float((target - res.point) @ (a - res.point)) <= 1e-6

    def test_support_at_most_dimension_plus_one(self):
        # The active set stays affinely independent, so the weights use at
        # most n + 1 atoms.  Targets inside the hull (small scales) meet the bound.
        rng = np.random.default_rng(37)
        for _ in range(300):
            m, n = int(rng.integers(2, 31)), int(rng.integers(1, 9))
            atoms = rng.normal(size=(m, n))
            target = rng.uniform(0.0, 3.0) * rng.normal(size=n)
            res = min_norm_point(target, atoms)
            assert res.converged
            assert np.sum(res.weights > 1e-9) <= n + 1

    def test_recession_certified_by_weights_and_slack(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            m, n = int(rng.integers(2, 9)), int(rng.integers(1, 7))
            atoms = rng.normal(size=(m, n))
            target = rng.normal(size=n)
            res = min_norm_point(target, atoms, recession_nonneg=True)
            assert res.converged
            assert np.min(res.slack) >= -1e-12
            assert np.allclose(res.weights @ atoms - res.slack, res.point, atol=1e-8)
            # never farther than the plain hull projection
            plain = min_norm_point(target, atoms)
            d_rec = np.linalg.norm(target - res.point)
            d_plain = np.linalg.norm(target - plain.point)
            assert d_rec <= d_plain + 1e-9

    def test_needs_atoms(self):
        with pytest.raises(ValueError):
            min_norm_point([0.0], [])


@pytest.mark.parametrize(
    "make",
    [
        lambda: partially_corrective(k=0),
        lambda: fully_corrective(0),
        lambda: UpdateStrategy(StrategyKind.SEGMENT_ONLY, frequency=0),
        lambda: UpdateStrategy(StrategyKind.SEGMENT_PLUS_NONNEG, frequency=-1),
    ],
    ids=["partially_corrective", "fully_corrective", "segment", "segment_nonneg"],
)
def test_frequency_below_one_rejected(make):
    with pytest.raises(ValueError, match="frequency"):
        make()


class TestCorrectiveUpdates:
    def test_single_atom(self):
        res = min_norm_point([5.0, 5.0], [[0.0, 0.0]])
        assert np.allclose(res.point, [0.0, 0.0])

    def test_two_atoms_at_origin_target(self):
        res = min_norm_point([0.0, 0.0], [[1.0, 0.0], [0.0, 1.0]])
        assert np.allclose(res.point, [0.5, 0.5])

    def test_beats_segment_projection_midrun(self):
        rng = np.random.default_rng(37)
        atoms = rng.normal(size=(8, 5))
        weights = _project_simplex(rng.uniform(size=8))
        q = weights @ atoms
        f = rng.normal(size=5)
        seg, _ = project_point_to_segment(atoms[-1], q, f)
        res = min_norm_point(f, atoms)
        assert np.linalg.norm(f - res.point) <= np.linalg.norm(f - seg) + 1e-9

    def test_partial_with_two_atoms_equals_segment(self):
        atoms = np.array([[1.0, 0.0], [0.0, 1.0]])
        weights = np.array([1.0, 0.0])
        f = np.array([0.4, 0.9])
        res = partially_corrective_update(f, atoms, weights, last_index=1, cap=2)
        seg, _ = project_point_to_segment(atoms[1], atoms[0], f)
        assert np.allclose(res.point, seg, atol=1e-8)

    def test_partial_with_large_cap_equals_full(self):
        rng = np.random.default_rng(41)
        atoms = rng.normal(size=(6, 3))
        weights = _project_simplex(rng.uniform(size=6))
        f = rng.normal(size=3)
        part = partially_corrective_update(f, atoms, weights, last_index=5, cap=6)
        full = min_norm_point(f, atoms)
        assert np.linalg.norm(f - part.point) == pytest.approx(
            np.linalg.norm(f - full.point), abs=1e-8
        )

    def test_partial_cap_between_segment_and_full(self):
        rng = np.random.default_rng(43)
        atoms = rng.normal(size=(10, 4))
        weights = _project_simplex(rng.uniform(size=10))
        q = weights @ atoms
        f = rng.normal(size=4)
        seg, _ = project_point_to_segment(atoms[-1], q, f)
        capped = partially_corrective_update(f, atoms, weights, last_index=9, cap=4)
        full = min_norm_point(f, atoms)
        d_seg = np.linalg.norm(f - seg)
        d_cap = np.linalg.norm(f - capped.point)
        d_full = np.linalg.norm(f - full.point)
        assert d_full - 1e-9 <= d_cap <= d_seg + 1e-9


class TestNonnegCorrectiveUpdate:
    def test_toward_origin_with_nonneg_aggregate_keeps_start(self):
        # Moving toward the zero vector cannot help once everything is
        # componentwise nonnegative: the best scaling is the current point,
        # clipped at the target.
        f = np.array([0.5, 2.0, 0.1])
        q = np.array([1.0, 1.0, 1.0])
        q_new, lam = nonneg_corrective_update(f, q, np.zeros(3))
        assert lam == 0.0
        assert np.allclose(q_new, np.minimum(f, q))

    def test_dominating_aggregate_is_already_free(self):
        # Once the aggregate dominates the target componentwise the orthant
        # distance is zero everywhere it stays dominant; the smallest-lambda
        # tie rule keeps the start of the segment.
        f = np.array([1.0, 1.0])
        q = np.array([2.0, 3.0])
        q_new, lam = nonneg_corrective_update(f, q, np.array([5.0, 4.0]))
        assert lam == 0.0
        dist = np.linalg.norm(f - np.minimum(f, q_new))
        assert dist == pytest.approx(0.0, abs=1e-12)
        assert np.allclose(q_new, f)

    def test_matches_grid_search(self):
        rng = np.random.default_rng(53)
        grid = np.linspace(0.0, 1.0, 1_000_001)
        for _ in range(5):
            f, q, v = rng.normal(size=(3, 5)) + 0.5
            q_new, _ = nonneg_corrective_update(f, q, v)
            got = float(np.linalg.norm(f - q_new))
            pts = q[None, :] + grid[:, None] * (v - q)[None, :]
            vals = np.linalg.norm(np.maximum(f[None, :] - pts, 0.0), axis=1)
            assert got <= float(vals.min()) + 1e-6

    def test_at_least_as_good_as_project_then_clip(self):
        rng = np.random.default_rng(59)
        for _ in range(50):
            f, q, v = rng.normal(size=(3, 4))
            q_new, _ = nonneg_corrective_update(f, q, v)
            seg, _ = project_point_to_segment(q, v, f)
            plain = np.minimum(f, seg)
            assert np.linalg.norm(f - q_new) <= np.linalg.norm(f - plain) + 1e-9
