"""Low-level vector geometry shared by all solvers.

Everything here is pure: input coercion and plain Euclidean segment
projection.
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
