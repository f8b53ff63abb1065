"""Corrective update strategies pluggable into both solvers.

The default solver update projects onto a two-point segment.  The
strategies here trade more work per iteration for faster convergence:
full or partial projection onto the convex hull of all known constraints
(a min-norm-point computation) and an orthant-aware segment update for
packing problems.  Every strategy keeps the segment update's distance
guarantee: its output is never farther from the target than the plain
projection.  AtomSet stores the rows both solvers combine and the matrix
of their vectors that corrective steps and certificates read.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .geometry import as_vector, min_piecewise_quadratic_on_segment
from .oracle import Constraint

_OPT_TOL = 1e-10


class StrategyKind(Enum):
    SEGMENT_ONLY = "segment"
    FULLY_CORRECTIVE = "fully_corrective"
    PARTIALLY_CORRECTIVE = "partially_corrective"
    SEGMENT_PLUS_NONNEG = "segment_nonneg"


@dataclass
class UpdateStrategy:
    """How a solver recomputes its maintained convex combination.

    frequency k means a corrective step runs at the end of every k-th
    iteration.  The partially corrective variant works on at most 2n atoms
    in dimension n.
    """

    kind: StrategyKind = StrategyKind.SEGMENT_ONLY
    frequency: int = 1

    def __post_init__(self):
        if self.frequency < 1:
            raise ValueError("corrective frequency must be >= 1")

    def corrective_due(self, t: int) -> bool:
        if self.kind in (StrategyKind.FULLY_CORRECTIVE, StrategyKind.PARTIALLY_CORRECTIVE):
            return t % self.frequency == 0
        return False


def segment_only() -> UpdateStrategy:
    return UpdateStrategy(StrategyKind.SEGMENT_ONLY)


def fully_corrective(k: int = 1) -> UpdateStrategy:
    return UpdateStrategy(StrategyKind.FULLY_CORRECTIVE, frequency=k)


def partially_corrective(k: int = 1) -> UpdateStrategy:
    return UpdateStrategy(StrategyKind.PARTIALLY_CORRECTIVE, frequency=k)


def segment_plus_nonneg() -> UpdateStrategy:
    return UpdateStrategy(StrategyKind.SEGMENT_PLUS_NONNEG)


class AtomSet:
    """The rows a solver combines; matrix[i] is the vector it combines for rows[i].

    A row whose name is already stored maps to the stored one; unnamed rows
    are never merged.  The matrix is C-contiguous, built in one step from the
    rows given at construction and grown by one row per new row after that,
    so corrective steps and certificates read it as is.
    """

    def __init__(self, row: Constraint, vector: np.ndarray, rows=(), vectors=()):
        """The set of `row`, then of each of `rows` in turn, as `add` would build it."""
        self.rows: list[Constraint] = []
        self._index: dict[str, int] = {}
        kept = [self._keep(r) for r in (row, *rows)]
        matrix = np.vstack((vector, np.reshape(vectors, (len(rows), len(vector)))), dtype=float)
        self.matrix = matrix if all(kept) else matrix[kept]

    def _keep(self, row: Constraint) -> bool:
        """Store row unless its name is stored already."""
        if row.name in self._index:
            return False
        if row.name:
            self._index[row.name] = len(self.rows)
        self.rows.append(row)
        return True

    def add(self, row: Constraint, vector: np.ndarray) -> int:
        """Index of the row named like `row`, appending `row` and `vector` if new."""
        if not self._keep(row):
            return self._index[row.name]
        self.matrix = np.concatenate((self.matrix, vector[None]))
        return len(self.rows) - 1


@dataclass
class MinNormResult:
    point: np.ndarray
    weights: np.ndarray
    slack: np.ndarray | None
    converged: bool


def min_norm_point(target, atoms, recession_nonneg: bool = False, start=None) -> MinNormResult:
    """Project target onto conv(atoms), optionally minus the nonneg orthant.

    Classical min-norm-point scheme: grow an active set of atoms (and, when
    the orthant recession is enabled, coordinate rays), solve the affine
    subproblem exactly, and step back to feasibility when a coefficient
    leaves the simplex.  The weights certify the projection; with the
    recession enabled the returned slack s >= 0 satisfies
    point = weights @ atoms - s.

    `start`, a convex combination over the atoms, seeds the active set with
    its n + 1 heaviest atoms (stable ties, weights renormalized); without it
    the scheme starts from atom 0.  Packing calls (recession enabled) ignore
    it and start cold: the caller's weights carry no slack over the rays.

    Plain calls solve each affine subproblem with one linear solve once a
    Cholesky factor shows the corral affinely independent, and fall back to
    an SVD least squares on the KKT system otherwise.  Packing calls always
    take the least squares: their counts move with the last bit of the
    solution, so they keep its exact results.
    """
    target = as_vector(target)
    matrix = np.asarray(atoms, dtype=float)
    m, n = matrix.shape if matrix.ndim == 2 else (0, 0)
    if m == 0 or n != target.shape[0]:
        raise ValueError(f"need at least one atom, as a row of length {target.shape[0]}")
    if not np.isfinite(matrix).all():
        raise ValueError("atom entries must be finite")
    # Minimize ||shifted^T w + D t||, scaled by 2^-e so that max|shifted| lies
    # in [1/2, 1): exact in floating point, and it makes the tolerances below
    # relative to the atoms' spread.
    shifted = matrix - target
    e = np.frexp(np.abs(shifted).max())[1]
    shifted = np.ldexp(shifted, -e)

    # Active sets: atom indices and, in the recession case, ray coordinates
    # (rays are the negated unit vectors).
    active_atoms = [0]
    w = np.array([1.0])
    if start is not None and not recession_nonneg:
        start = as_vector(start)
        heaviest = np.argsort(-start, kind="stable")[: n + 1]
        active_atoms = np.sort(heaviest[start[heaviest] > 0]).tolist()
        if start.shape[0] != m or not active_atoms:
            raise ValueError(f"start must be {m} weights, at least one positive")
        w = start[active_atoms] / start[active_atoms].sum()
    active_rays: list[int] = []
    tvals = np.zeros(0)

    def current_y() -> np.ndarray:
        y = w @ shifted[active_atoms]
        for k, i in enumerate(active_rays):
            y[i] -= tvals[k]
        return y

    scale = 1.0 + float(np.abs(shifted).max())
    best = None
    max_major = 50 * max(m, n)
    converged = False

    for _ in range(max_major):
        # Minor cycles: move toward the affine minimizer, dropping atoms or
        # rays whose coefficients hit zero.  Running them first turns a warm
        # start into a corral before any atom enters.
        for _ in range(len(active_atoms) + len(active_rays) + 2):
            w_aff, t_aff = _affine_minimizer(shifted, active_atoms, active_rays, recession_nonneg)
            if (w_aff >= -1e-12).all() and (t_aff >= -1e-12).all():
                w = np.maximum(w_aff, 0.0)
                s = w.sum()
                if s > 0:
                    w = w / s
                tvals = np.maximum(t_aff, 0.0)
                break
            theta = _step_back(np.concatenate((w, tvals)), np.concatenate((w_aff, t_aff)))
            w = w + theta * (w_aff - w)
            tvals = tvals + theta * (t_aff - tvals)
            keep = w > 1e-12
            if not keep.all():
                if not keep.any():
                    keep[int(np.argmax(w))] = True  # keep one atom for the simplex
                active_atoms = [a for a, k in zip(active_atoms, keep) if k]
                w = w[keep]
                w = w / w.sum()
            keep_r = tvals > 1e-12
            if not keep_r.all():
                active_rays = [r for r, k in zip(active_rays, keep_r) if k]
                tvals = tvals[keep_r]
        y = current_y()

        yy = float(y @ y)
        if best is None or yy < best[0]:
            # y, w and tvals are rebound, never changed in place; the lists grow.
            best = (yy, y, list(active_atoms), w, list(active_rays), tvals)
        scores = shifted @ y
        enter_atom = int(np.argmin(scores))
        atom_gap = yy - float(scores[enter_atom])
        ray_gap = 0.0
        enter_ray = -1
        if recession_nonneg:
            # Ray -e_i improves iff <y, -e_i> < 0, i.e. y_i > 0.
            enter_ray = int(np.argmax(y))
            ray_gap = float(y[enter_ray])
        tol = _OPT_TOL * scale * scale
        if atom_gap <= tol and ray_gap <= tol:
            converged = True
            break

        if atom_gap >= ray_gap:
            if enter_atom not in active_atoms:
                active_atoms.append(enter_atom)
                w = np.append(w, 0.0)
        else:
            if enter_ray not in active_rays:
                active_rays.append(enter_ray)
                tvals = np.append(tvals, 0.0)

    if not converged:
        warnings.warn("min_norm_point hit its cycle safeguard; returning best point found")
        _, y, active_atoms, w, active_rays, tvals = best

    weights = np.zeros(m)
    weights[active_atoms] = w
    slack = None
    if recession_nonneg:
        slack = np.zeros(n)
        slack[active_rays] = np.ldexp(tvals, e)
    point = target + np.ldexp(y, e)
    return MinNormResult(point=point, weights=weights, slack=slack, converged=converged)


def _step_back(old: np.ndarray, new: np.ndarray) -> float:
    """The longest step in [0, 1] from old toward new that keeps every entry
    nonnegative.  Of 1 and the ratios of the entries that fall, it takes the
    first smallest, as a sequential min() fold would: only the sign of a zero
    ratio depends on that order."""
    falls = new < old - 1e-15
    ratios = np.concatenate(([1.0], old[falls] / (old[falls] - new[falls])))
    return max(float(ratios[ratios.argmin()]), 0.0)


def _affine_minimizer(shifted, active_atoms, active_rays, recession_nonneg):
    """Minimize ||S^T w + D t|| s.t. sum(w) = 1, with w, t unrestricted.

    Plain calls solve M v = 1 with M = G + g 11^T, G = S S^T and g its
    largest diagonal entry, and return w = v / sum(v): G w is then a
    multiple of 1, the optimality condition.  M is positive definite exactly
    when the active atoms are affinely independent, which its Cholesky
    factor certifies; g keeps M as well scaled as G at any scale of the
    atoms.  numpy has no triangular solve, so one LU solve of M (cheaper
    than two on the factor) gives v.  A degenerate set (no factor, or v not
    finite) and every packing call take the SVD least squares on the
    bordered KKT system.  Packing calls keep it even on independent sets:
    their counts move with the last bit of the solution.
    """
    S = shifted[active_atoms]
    k = len(active_atoms)
    gram = S @ S.T
    if not recession_nonneg:
        M = gram + gram.diagonal().max()
        try:
            np.linalg.cholesky(M)
            v = np.linalg.solve(M, np.ones(k))  # rounding can pass a singular M
        except np.linalg.LinAlgError:
            pass
        else:
            w = v / v.sum()
            if np.isfinite(w).all():
                return w, np.zeros(0)
    r = len(active_rays)
    size = k + r + 1
    kkt = np.zeros((size, size))
    rhs = np.zeros(size)
    kkt[:k, :k] = gram
    if r:
        D = S[:, active_rays]  # <s_j, -e_i> = -S[j, i]
        kkt[:k, k : k + r] = -D
        kkt[k : k + r, :k] = -D.T
        kkt[k : k + r, k : k + r] = np.eye(r)
    kkt[:k, -1] = 1.0
    kkt[-1, :k] = 1.0
    rhs[-1] = 1.0
    sol, *_ = np.linalg.lstsq(kkt, rhs, rcond=None)
    return sol[:k], sol[k : k + r]


def partially_corrective_update(
    target, atoms, weights, last_index: int, cap: int, recession_nonneg: bool = False
) -> MinNormResult:
    """Corrective step restricted to the current support plus the newest atom.

    The subset always contains the atoms representing the maintained point
    and the most recent constraint, so the result is never worse than the
    plain segment projection.  The subset is truncated to `cap` atoms by
    largest weight.
    """
    weights = as_vector(weights)
    support = [i for i in range(len(atoms)) if weights[i] > 1e-12]
    if last_index not in support:
        support.append(last_index)
    if len(support) > cap:
        support = sorted(support, key=lambda i: (-weights[i], i))[:cap]
        if last_index not in support:
            support[-1] = last_index
        support = sorted(support)
    sub = np.asarray(atoms)[support]
    res = min_norm_point(target, sub, recession_nonneg=recession_nonneg, start=weights[support])
    full = np.zeros(len(atoms))
    full[support] = res.weights
    return MinNormResult(point=res.point, weights=full, slack=res.slack, converged=res.converged)


def nonneg_corrective_update(f_next, q_t, v) -> tuple[np.ndarray, float]:
    """Orthant-aware segment update for packing problems.

    Minimizes the distance from f_next to q - R^n_+ over q in [q_t, v] and
    returns the clipped point min(f_next, q*) together with the segment
    coefficient.  At least as good as projecting onto the segment first and
    clipping afterwards, since that candidate is in the feasible set here.
    """
    f_next = as_vector(f_next)
    q_star, lam = min_piecewise_quadratic_on_segment(f_next, q_t, v)
    return np.minimum(f_next, q_star), lam
