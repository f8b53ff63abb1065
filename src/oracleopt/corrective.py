"""Corrective update strategies pluggable into both solvers.

The default solver update projects onto a two-point segment.  The
strategies here trade more work per iteration for faster convergence:
full or partial projection onto the convex hull of all known constraints
(a min-norm-point computation) and an orthant-aware segment update for
packing problems.  Every strategy keeps the segment update's distance
guarantee: its output is never farther from the target than the plain
projection.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from .geometry import as_vector, min_piecewise_quadratic_on_segment

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
    iteration; support_cap bounds the atom subset used by the partially
    corrective variant.
    """

    kind: StrategyKind = StrategyKind.SEGMENT_ONLY
    frequency: int = 1
    support_cap: Optional[int] = None

    def __post_init__(self):
        if self.frequency < 1:
            raise ValueError("corrective frequency must be >= 1")
        if self.kind is StrategyKind.PARTIALLY_CORRECTIVE:
            if self.support_cap is not None and self.support_cap < 2:
                raise ValueError("support cap must be >= 2")

    def corrective_due(self, t: int) -> bool:
        if self.kind in (StrategyKind.FULLY_CORRECTIVE, StrategyKind.PARTIALLY_CORRECTIVE):
            return t % self.frequency == 0
        return False


def segment_only() -> UpdateStrategy:
    return UpdateStrategy(StrategyKind.SEGMENT_ONLY)


def fully_corrective(k: int = 1) -> UpdateStrategy:
    return UpdateStrategy(StrategyKind.FULLY_CORRECTIVE, frequency=k)


def partially_corrective(cap: Optional[int] = None, k: int = 1) -> UpdateStrategy:
    return UpdateStrategy(StrategyKind.PARTIALLY_CORRECTIVE, frequency=k, support_cap=cap)


def segment_plus_nonneg() -> UpdateStrategy:
    return UpdateStrategy(StrategyKind.SEGMENT_PLUS_NONNEG)


@dataclass
class MinNormResult:
    point: np.ndarray
    weights: np.ndarray
    slack: np.ndarray | None
    converged: bool


def min_norm_point(target, atoms, recession_nonneg: bool = False) -> MinNormResult:
    """Project target onto conv(atoms), optionally minus the nonneg orthant.

    Classical min-norm-point scheme: grow an active set of atoms (and, when
    the orthant recession is enabled, coordinate rays), solve the affine
    subproblem exactly, and step back to feasibility when a coefficient
    leaves the simplex.  The weights certify the projection; with the
    recession enabled the returned slack s >= 0 satisfies
    point = weights @ atoms - s.
    """
    target = as_vector(target)
    atom_matrix = np.array([as_vector(a) for a in atoms], dtype=float)
    if atom_matrix.size == 0:
        raise ValueError("need at least one atom")
    m, n = atom_matrix.shape
    shifted = atom_matrix - target  # minimize ||shifted^T w + D t||

    # Active sets: atom indices and, in the recession case, ray coordinates
    # (rays are the negated unit vectors).
    active_atoms = [0]
    active_rays: list[int] = []
    w = np.array([1.0])
    tvals = np.zeros(0)

    def current_y() -> np.ndarray:
        y = w @ shifted[active_atoms]
        for k, i in enumerate(active_rays):
            y[i] -= tvals[k]
        return y

    y = current_y()
    scale = 1.0 + float(np.max(np.abs(shifted)))
    best = (float(y @ y), y.copy(), list(active_atoms), w.copy(), list(active_rays), tvals.copy())
    max_major = 50 * max(m, n)
    converged = False

    for _ in range(max_major):
        yy = float(y @ y)
        if yy < best[0]:
            best = (yy, y.copy(), list(active_atoms), w.copy(), list(active_rays), tvals.copy())
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

        # Minor cycles: move toward the affine minimizer, dropping atoms or
        # rays whose coefficients hit zero.
        for _ in range(len(active_atoms) + len(active_rays) + 2):
            w_aff, t_aff = _affine_minimizer(shifted, active_atoms, active_rays)
            if np.all(w_aff >= -1e-12) and np.all(t_aff >= -1e-12):
                w = np.maximum(w_aff, 0.0)
                s = w.sum()
                if s > 0:
                    w = w / s
                tvals = np.maximum(t_aff, 0.0)
                break
            theta = 1.0
            for j in range(len(w)):
                if w_aff[j] < w[j] - 1e-15:
                    theta = min(theta, w[j] / (w[j] - w_aff[j]))
            for k in range(len(tvals)):
                if t_aff[k] < tvals[k] - 1e-15:
                    theta = min(theta, tvals[k] / (tvals[k] - t_aff[k]))
            theta = max(theta, 0.0)
            w = w + theta * (w_aff - w)
            tvals = tvals + theta * (t_aff - tvals)
            keep = w > 1e-12
            if not np.all(keep):
                if np.all(~keep):
                    keep[int(np.argmax(w))] = True  # keep one atom for the simplex
                active_atoms = [a for a, k in zip(active_atoms, keep) if k]
                w = w[keep]
                w = w / w.sum()
            keep_r = tvals > 1e-12
            if not np.all(keep_r):
                active_rays = [r for r, k in zip(active_rays, keep_r) if k]
                tvals = tvals[keep_r]
        y = current_y()

    if not converged:
        warnings.warn("min_norm_point hit its cycle safeguard; returning best point found")
        _, y, active_atoms, w, active_rays, tvals = best

    weights = np.zeros(m)
    for wj, a in zip(w, active_atoms):
        weights[a] += wj
    slack = None
    if recession_nonneg:
        slack = np.zeros(n)
        for tv, i in zip(tvals, active_rays):
            slack[i] += tv
    point = target + y
    return MinNormResult(point=point, weights=weights, slack=slack, converged=converged)


def _affine_minimizer(shifted, active_atoms, active_rays):
    """Minimize ||S^T w + D t|| s.t. sum(w) = 1, with w, t unrestricted."""
    S = shifted[active_atoms]
    k = len(active_atoms)
    r = len(active_rays)
    size = k + r + 1
    kkt = np.zeros((size, size))
    rhs = np.zeros(size)
    kkt[:k, :k] = S @ S.T
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
    sub = [atoms[i] for i in support]
    res = min_norm_point(target, sub, recession_nonneg=recession_nonneg)
    full = np.zeros(len(atoms))
    for wj, i in zip(res.weights, support):
        full[i] = wj
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
