from unittest import mock

import numpy as np
import pytest

from oracleopt import corrective
from oracleopt.combinatorial import MatchingOracle, generate_triangle_instance, matching_initial_rows
from oracleopt.corrective import (
    AtomSet,
    StrategyKind,
    UpdateStrategy,
    fully_corrective,
    min_norm_point,
    nonneg_corrective_update,
    partially_corrective,
    partially_corrective_update,
)
from oracleopt.geometry import project_point_to_segment
from oracleopt.oracle import Constraint, PolytopeOracle
from oracleopt.solver_general import run_general
from oracleopt.solver_polar import PolarMode, run_polar
from oracleopt.trace import GapStop


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
        "atoms", [[1.0, 2.0], [[1.0, 2.0, 3.0]], [[1.0, np.inf]]], ids=["flat", "wide", "inf"]
    )
    def test_atoms_must_be_finite_rows_of_target_length(self, atoms):
        with pytest.raises(ValueError):
            min_norm_point([0.0, 0.0], atoms)

    @pytest.mark.parametrize("start", [[1.0], [0.5, 0.5, 0.0], [0.0, 0.0]], ids=["short", "long", "zero"])
    def test_start_must_weight_the_atoms(self, start):
        with pytest.raises(ValueError, match="start"):
            min_norm_point([0.0, 0.0], [[1.0, 0.0], [0.0, 1.0]], start=start)

    def test_warm_start_reaches_the_cold_point(self):
        # Full-support starts are cut to their n + 1 heaviest atoms, and the
        # minor cycle runs before any atom enters, so the support bound holds.
        rng = np.random.default_rng(47)
        for _ in range(300):
            m, n = int(rng.integers(2, 31)), int(rng.integers(1, 9))
            atoms = rng.normal(size=(m, n))
            target = rng.uniform(0.0, 3.0) * rng.normal(size=n)
            start = rng.uniform(0.01, 1.0, size=m)
            warm = min_norm_point(target, atoms, start=start / start.sum())
            cold = min_norm_point(target, atoms)
            assert warm.converged
            assert np.linalg.norm(warm.point - cold.point) <= 1e-9
            assert np.sum(warm.weights > 0) <= n + 1
            assert warm.weights.sum() == pytest.approx(1.0, abs=1e-12)
            assert np.allclose(warm.weights @ atoms, warm.point, atol=1e-9)

    def test_one_hot_start_on_atom_zero_is_the_cold_start(self):
        rng = np.random.default_rng(53)
        for _ in range(20):
            atoms = rng.normal(size=(12, 5))
            target = rng.normal(size=5)
            one_hot = np.zeros(12)
            one_hot[0] = 1.0
            warm = min_norm_point(target, atoms, start=one_hot)
            cold = min_norm_point(target, atoms)
            assert np.array_equal(warm.point, cold.point)
            assert np.array_equal(warm.weights, cold.weights)

    def test_recession_ignores_the_start(self):
        rng = np.random.default_rng(59)
        atoms = rng.normal(size=(10, 4))
        target = rng.normal(size=4)
        warm = min_norm_point(target, atoms, recession_nonneg=True, start=np.full(10, 0.1))
        cold = min_norm_point(target, atoms, recession_nonneg=True)
        assert np.array_equal(warm.point, cold.point)
        assert np.array_equal(warm.weights, cold.weights)
        assert np.array_equal(warm.slack, cold.slack)

    @pytest.mark.parametrize("recession", [False, True])
    def test_cycle_safeguard_returns_the_best_iterate(self, recession, monkeypatch):
        # A negative tolerance never converges: every call runs to its cap and
        # returns the best iterate, whose weights (and slack) still give its point.
        rng = np.random.default_rng(73)
        for _ in range(5):
            atoms = rng.normal(size=(8, 3))
            target = rng.normal(size=3)
            converged = min_norm_point(target, atoms, recession_nonneg=recession)
            monkeypatch.setattr(corrective, "_OPT_TOL", -1.0)
            with pytest.warns(UserWarning, match="cycle safeguard"):
                capped = min_norm_point(target, atoms, recession_nonneg=recession)
            monkeypatch.undo()
            assert not capped.converged
            slack = capped.slack if recession else 0.0
            assert np.allclose(capped.weights @ atoms - slack, capped.point, atol=1e-9)
            assert capped.weights.sum() == pytest.approx(1.0, abs=1e-12)
            assert np.linalg.norm(capped.point - converged.point) <= 1e-9


def scalar_step_back(old, new):
    """The scalar fold that `corrective._step_back` replaced, kept as its
    bit-for-bit reference: min_norm_point ran it over the atom weights, then
    over the ray lengths."""
    theta = 1.0
    for j in range(len(old)):
        if new[j] < old[j] - 1e-15:
            theta = min(theta, old[j] / (old[j] - new[j]))
    return max(theta, 0.0)


class TestStepBackParity:
    @pytest.mark.parametrize(
        "old, new",
        [
            ([0.0, -0.0, 0.5], [-1.0, -1.0, 0.0]),  # a zero ratio of either sign comes first
            ([-0.0, 0.0, 0.5], [-1.0, -1.0, 0.0]),
            ([0.5, 0.25, 0.25], [0.0, -0.25, 0.5]),  # two equal ratios
            ([0.5, 0.5], [0.5 - 1e-16, 2.0]),  # a fall within the tolerance
            ([0.3], [0.7]),  # nothing falls
            ([], []),
        ],
    )
    def test_matches_the_scalar_fold(self, old, new):
        old, new = np.array(old), np.array(new)
        assert corrective._step_back(old, new).hex() == float(scalar_step_back(old, new)).hex()

    @pytest.mark.parametrize("packing", [False, True])
    def test_min_norm_point_is_bit_identical_with_the_scalar_fold(self, packing):
        rng = np.random.default_rng(71 + packing)
        steps = []
        real = corrective._step_back

        def counting(old, new):
            steps.append(len(old))
            return real(old, new)

        started = 0
        for trial in range(240):
            m, n = int(rng.integers(2, 25)), int(rng.integers(1, 9))
            # 0/1 rows tie often, as the packing rows of the combinatorial instances do.
            atoms = rng.normal(size=(m, n)) if trial % 2 else rng.integers(0, 2, (m, n)) * 1.0
            target = np.abs(rng.normal(size=n)) * rng.choice([0.5, 1.0, 3.0])
            start = None
            if trial % 3:
                start = np.where(rng.random(m) < 0.5, np.round(rng.random(m), 1), 0.0)
                start[int(rng.integers(m))] += 0.5
                start /= start.sum()
                started += 1
            with mock.patch.object(corrective, "_step_back", counting):
                got = min_norm_point(target, atoms, recession_nonneg=packing, start=start)
            with mock.patch.object(corrective, "_step_back", scalar_step_back):
                ref = min_norm_point(target, atoms, recession_nonneg=packing, start=start)
            for field in ("point", "weights", "slack"):
                a, b = getattr(got, field), getattr(ref, field)
                assert (a is None and b is None) or a.tobytes() == b.tobytes()
            assert got.converged == ref.converged
        assert started >= 150 and len(steps) >= 100
        if packing:
            assert max(steps) > 1


def lstsq_affine_minimizer(shifted, active_atoms, active_rays, recession_nonneg):
    """Reference: the SVD least squares on the bordered KKT system, for every call."""
    S = shifted[active_atoms]
    k = len(active_atoms)
    r = len(active_rays)
    size = k + r + 1
    kkt = np.zeros((size, size))
    rhs = np.zeros(size)
    kkt[:k, :k] = S @ S.T
    if r:
        D = S[:, active_rays]
        kkt[:k, k : k + r] = -D
        kkt[k : k + r, :k] = -D.T
        kkt[k : k + r, k : k + r] = np.eye(r)
    kkt[:k, -1] = 1.0
    kkt[-1, :k] = 1.0
    rhs[-1] = 1.0
    sol, *_ = np.linalg.lstsq(kkt, rhs, rcond=None)
    return sol[:k], sol[k : k + r]


def reference_min_norm_point(*args, **kwargs):
    with mock.patch.object(corrective, "_affine_minimizer", lstsq_affine_minimizer):
        return min_norm_point(*args, **kwargs)


class TestAffineSolveParity:
    """Plain calls factor by Cholesky, packing calls keep the least squares.

    The suite turns warnings into errors, so a call that hits the cycle
    safeguard fails these tests even before `converged` is checked.
    """

    def test_packing_calls_are_bit_identical_to_least_squares(self):
        rng = np.random.default_rng(61)
        with_rays = without_rays = 0
        for trial in range(200):
            m, n = int(rng.integers(2, 25)), int(rng.integers(1, 9))
            atoms = rng.normal(size=(m, n))
            # A target above every atom leaves the rays out.
            target = rng.normal(size=n) + (6.0 if trial % 2 else 0.0)
            got = min_norm_point(target, atoms, recession_nonneg=True)
            ref = reference_min_norm_point(target, atoms, recession_nonneg=True)
            for field in ("point", "weights", "slack"):
                assert getattr(got, field).tobytes() == getattr(ref, field).tobytes()
            assert got.converged == ref.converged
            if np.any(got.slack > 0):
                with_rays += 1
            else:
                without_rays += 1
        assert with_rays >= 50 and without_rays >= 50

    def test_plain_calls_reach_the_reference_point(self):
        rng = np.random.default_rng(67)
        for _ in range(300):
            m, n = int(rng.integers(2, 31)), int(rng.integers(1, 9))
            atoms = rng.normal(size=(m, n))
            target = rng.uniform(0.0, 3.0) * rng.normal(size=n)
            start = rng.uniform(0.01, 1.0, size=m)
            for kwargs in ({}, {"start": start / start.sum()}):
                got = min_norm_point(target, atoms, **kwargs)
                ref = reference_min_norm_point(target, atoms, **kwargs)
                assert got.converged
                assert np.linalg.norm(got.point - ref.point) <= 1e-9
                assert got.weights.sum() == pytest.approx(1.0, abs=1e-12)
                assert np.sum(got.weights > 0) <= n + 1

    def test_plain_calls_keep_their_point_at_any_scale(self):
        # The rank-one term grows with the Gram matrix, so large atoms factor
        # as well as unit ones; the least squares on the bordered system
        # loses the border at these scales and hits the cycle safeguard.
        rng = np.random.default_rng(71)
        for scale in (1e6, 1e9):
            for _ in range(50):
                m, n = int(rng.integers(2, 30)), int(rng.integers(1, 9))
                atoms = rng.normal(size=(m, n))
                target = rng.uniform(0.0, 3.0) * rng.normal(size=n)
                unit = min_norm_point(target, atoms)
                big = min_norm_point(scale * target, scale * atoms)
                assert np.linalg.norm(big.point / scale - unit.point) <= 1e-9

    @pytest.fixture
    def cholesky_failures(self, monkeypatch):
        """Sizes of the matrices np.linalg.cholesky refused during the test."""
        failures = []
        cholesky = np.linalg.cholesky

        def counting_cholesky(a):
            try:
                return cholesky(a)
            except np.linalg.LinAlgError:
                failures.append(a.shape[0])
                raise

        monkeypatch.setattr(np.linalg, "cholesky", counting_cholesky)
        return failures

    @pytest.mark.parametrize(
        "target, atoms, start",
        [
            # exactly repeated atoms, started on both copies of each
            ([0.3, -0.2, 0.1], [[1, 0, 0], [1, 0, 0], [0, 1, 0], [0, 1, 0], [0, 0, 1]],
             [0.2, 0.2, 0.2, 0.2, 0.2]),
            # collinear atoms in 3-d: any three are affinely dependent
            ([0.0, 2.0, -1.0], [[0, 0, 0], [1, 1, 1], [2, 2, 2], [3, 3, 3], [-1, -1, -1]],
             [0.1, 0.3, 0.3, 0.2, 0.1]),
            # coplanar atoms in 3-d: a warm start on four of them
            ([0.4, 0.4, 2.0], [[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0], [0.5, 0.5, 0]],
             [0.25, 0.25, 0.25, 0.25, 0.0]),
        ],
        ids=["repeated", "collinear", "coplanar-warm"],
    )
    def test_degenerate_corrals_fall_back_and_converge(self, target, atoms, start, cholesky_failures):
        atoms = np.asarray(atoms, dtype=float)
        for kwargs in ({}, {"start": start}):
            got = min_norm_point(target, atoms, **kwargs)
            ref = reference_min_norm_point(target, atoms, **kwargs)
            assert got.converged
            assert np.linalg.norm(got.point - ref.point) <= 1e-9
            assert got.weights.sum() == pytest.approx(1.0, abs=1e-12)
        assert cholesky_failures, "no corral needed the least squares fallback"

    def test_singular_matrix_that_passes_cholesky_falls_back(self):
        # The two copies of atom 0 make M singular, yet rounding lets its
        # Cholesky factor through; the solve then fails and must fall back.
        target, atoms, start = [-1.1, -0.4], [[-0.4, 0.2], [0.2, 2.1], [-0.4, 0.2]], [1, 1, 1]
        got = min_norm_point(target, atoms, start=start)
        ref = reference_min_norm_point(target, atoms, start=start)
        assert got.converged
        assert np.linalg.norm(got.point - ref.point) <= 1e-12
        assert got.weights.sum() == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("scale", [1e-6, 1e6])
    def test_plain_and_packing_calls_commute_with_scaling(self, scale):
        # Small atoms used to stop at once (an absolute tolerance floor) and
        # large packing calls to hit the cycle safeguard.
        rng = np.random.default_rng(83)
        for _ in range(40):
            m, n = int(rng.integers(2, 20)), int(rng.integers(3, 8))
            atoms = rng.normal(size=(m, n))
            target = rng.normal(size=n)
            for packing in (False, True):
                unit = min_norm_point(target, atoms, recession_nonneg=packing)
                got = min_norm_point(scale * target, scale * atoms, recession_nonneg=packing)
                assert got.converged
                assert np.linalg.norm(got.point / scale - unit.point) <= 1e-9
                hull_point = got.weights @ (scale * atoms) - (got.slack if packing else 0.0)
                assert np.linalg.norm(hull_point - got.point) <= 1e-9 * scale

    def test_atom_at_the_target_falls_back(self, cholesky_failures):
        # The cold start's one atom is the target: G = 0 has no factor.
        res = min_norm_point([1.0, 2.0], [[1.0, 2.0], [3.0, 0.0]])
        assert cholesky_failures == [1]
        assert res.converged
        assert np.array_equal(res.point, [1.0, 2.0])
        assert np.array_equal(res.weights, [1.0, 0.0])


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


def _random_polytope(n, seed):
    """4n random unit-normal halfspaces <a, x> <= 1 plus the box [-1, 1]^n."""
    rng = np.random.default_rng(seed)
    normals = rng.standard_normal((4 * n, n))
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    c = rng.uniform(0.1, 1.0, n)
    rows = [Constraint(a, 1.0, name=f"half:{i}") for i, a in enumerate(normals)]
    oracle = PolytopeOracle(
        rows, box_bounds=(-np.ones(n), np.ones(n)), radius_outer=float(np.sqrt(n)), radius_inner=1.0
    )
    return oracle, c


# (iterations, oracle calls) to a 1% gap at n = 30, seeds 0, 1, 2, as the
# cold-started min-norm-point scheme gave them; a warm start must not move them.
_CORRECTIVE_COUNTS = {
    "polar_fc1": [(41, 41), (45, 45), (43, 43)],
    "polar_fc10": [(81, 81), (71, 71), (91, 91)],
    "polar_pc": [(41, 41), (45, 45), (46, 46)],
    "general_fc1": [(59, 59), (58, 58), (60, 60)],
    "general_fc10": [(110, 94), (110, 91), (110, 95)],
}
_CORRECTIVE_VARIANTS = {
    "polar_fc1": (run_polar, lambda: fully_corrective(1)),
    "polar_fc10": (run_polar, lambda: fully_corrective(10)),
    "polar_pc": (run_polar, lambda: partially_corrective()),
    "general_fc1": (run_general, lambda: fully_corrective(1)),
    "general_fc10": (run_general, lambda: fully_corrective(10)),
}


@pytest.mark.parametrize("variant", sorted(_CORRECTIVE_COUNTS))
def test_corrective_counts_on_random_polytopes(variant):
    run, strategy = _CORRECTIVE_VARIANTS[variant]
    counts = []
    for seed in range(3):
        oracle, c = _random_polytope(30, seed)
        res = run(oracle, c, stop=GapStop(0.01), max_iters=2000, strategy=strategy())
        assert res.converged
        counts.append((res.iterations, res.state.oracle_calls))
    assert counts == _CORRECTIVE_COUNTS[variant]


class TestAtomSet:
    def test_names_dedup_and_vectors_are_stored_as_given(self):
        rng = np.random.default_rng(0)
        vectors = rng.standard_normal((5, 3))
        atoms = AtomSet(Constraint(np.zeros(3), 1.0, name="zero"), vectors[0])
        assert atoms.add(Constraint(vectors[1], 1.0, name="x"), vectors[1]) == 1
        before = atoms.matrix.copy()
        # A repeated name returns the first index, whatever its vector.
        assert atoms.add(Constraint(vectors[2], 1.0, name="x"), vectors[2]) == 1
        assert atoms.add(Constraint(vectors[3], 1.0, name="zero"), vectors[3]) == 0
        assert atoms.matrix.tobytes() == before.tobytes()
        # Unnamed rows always append, even when equal to a stored one.
        assert atoms.add(Constraint(vectors[1], 1.0), vectors[1]) == 2
        assert atoms.add(Constraint(vectors[1], 1.0), vectors[4]) == 3
        assert [row.name for row in atoms.rows] == ["zero", "x", "", ""]
        assert atoms.matrix.flags.c_contiguous
        assert atoms.matrix.tobytes() == vectors[[0, 1, 1, 4]].tobytes()

    def test_rows_given_at_construction_are_added_in_turn(self):
        rng = np.random.default_rng(1)
        vectors = rng.standard_normal((6, 3))
        names = ["zero", "x", "", "x", "zero", "y"]
        rows = [Constraint(v, 1.0, name=name) for v, name in zip(vectors, names)]
        one_by_one = AtomSet(rows[0], vectors[0])
        for row, vector in zip(rows[1:], vectors[1:]):
            one_by_one.add(row, vector)
        at_once = AtomSet(rows[0], vectors[0], rows[1:], vectors[1:])
        assert at_once.rows == one_by_one.rows
        assert at_once.matrix.tobytes() == one_by_one.matrix.tobytes()
        assert at_once.matrix.flags.c_contiguous
        assert at_once.add(rows[3], vectors[3]) == 1

    def test_solver_matrices_hold_the_normalized_and_lifted_rows(self):
        # Polar packing run: rows are polar-normalized (and clipped at zero).
        graph = generate_triangle_instance(9, 3, 0)
        res = run_polar(
            MatchingOracle(graph, max_set_size=11), np.ones(graph.n_edges), gamma1=1.0,
            stop=GapStop(0.05), max_iters=500, strategy=fully_corrective(1),
            mode=PolarMode.PACKING, initial_constraints=matching_initial_rows(graph, "basic"),
        )
        rows = res.state.atoms.rows
        assert res.state.cuts
        assert res.state.atoms.matrix.tobytes() == np.array([row.a for row in rows]).tobytes()

        # General run: the matrix holds (a, b / R) of each caller-unit row.
        oracle, c = _random_polytope(30, 0)
        res = run_general(oracle, c, stop=GapStop(0.01), max_iters=2000, strategy=fully_corrective(1))
        R, rows = res.state.R, res.state.atoms.rows
        lifted = np.array([np.append(row.a, row.b / R) for row in rows])
        assert res.state.cuts
        assert res.state.atoms.matrix.tobytes() == lifted.tobytes()
