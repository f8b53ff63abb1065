"""Low-level vector geometry shared by all solvers.

Everything here is pure: input coercion, plain Euclidean segment
projection, and the piecewise-quadratic minimization that powers the
non-negativity-aware update of packing problems.
"""

from __future__ import annotations

import numpy as np

# Comparison tolerance for this layer.  Tolerances that drive algorithmic
# decisions (shrink thresholds, oracle violation cutoffs) live in the
# solver and oracle modules.
ABS_TOL = 1e-12


def as_vector(v) -> np.ndarray:
    """Coerce input to a 1-d float array and check that entries are finite."""
    arr = np.asarray(v, dtype=float)
    if arr.ndim != 1:
        arr = arr.reshape(-1)
    if not np.isfinite(arr).all():
        raise ValueError("vector entries must be finite")
    return arr


def _check_same_dim(*vectors: np.ndarray) -> None:
    dims = {v.shape[0] for v in vectors}
    if len(dims) > 1:
        raise ValueError(f"dimension mismatch: {sorted(dims)}")


def project_point_to_segment(x, y, z) -> tuple[np.ndarray, float]:
    """Project z onto the segment [x, y].

    Returns the closest point p and the coefficient lam in [0, 1] with
    p = x + lam * (y - x).  A degenerate segment (x == y) returns lam = 0,
    which keeps downstream bookkeeping deterministic.
    """
    x = as_vector(x)
    y = as_vector(y)
    z = as_vector(z)
    _check_same_dim(x, y, z)
    d = y - x
    dd = float(d @ d)
    if dd <= ABS_TOL * ABS_TOL:
        return x.copy(), 0.0
    lam = float((z - x) @ d) / dd
    lam = min(1.0, max(0.0, lam))
    return x + lam * d, lam


def min_piecewise_quadratic_on_segment(f, u, v) -> tuple[np.ndarray, float]:
    """Minimize lam -> dist(f, p - R^n_+) over [0, 1], where p = u + lam*(v-u).

    The point of p - R^n_+ closest to f is the component-wise minimum of f
    and p.  The objective is piecewise quadratic with at most n + 1 pieces, split at
    the points where a coordinate of the segment crosses f.  Ties resolve to
    the smallest lam.  Returns (segment point, lam).
    """
    f = as_vector(f)
    u = as_vector(u)
    v = as_vector(v)
    _check_same_dim(f, u, v)
    c = f - u
    d = v - u

    def value(lam: float) -> float:
        r = c - lam * d
        r = np.maximum(r, 0.0)
        return float(r @ r)

    breaks = {0.0, 1.0}
    nonzero = np.abs(d) > ABS_TOL
    with np.errstate(divide="ignore", invalid="ignore"):
        crossings = np.where(nonzero, c / np.where(nonzero, d, 1.0), -1.0)
    for lam in crossings[(crossings > 0.0) & (crossings < 1.0)]:
        breaks.add(float(lam))
    knots = sorted(breaks)

    best_lam = 0.0
    best_val = value(0.0)
    for lo, hi in zip(knots[:-1], knots[1:]):
        mid = 0.5 * (lo + hi)
        active = (c - mid * d) > 0.0
        a = float(d[active] @ d[active])
        b = float(c[active] @ d[active])
        candidates = [lo, hi]
        if a > ABS_TOL:
            interior = b / a
            if lo < interior < hi:
                candidates.append(interior)
        for lam in sorted(candidates):
            val = value(lam)
            if val < best_val - ABS_TOL * (1.0 + best_val):
                best_val = val
                best_lam = lam
    return u + best_lam * d, best_lam
