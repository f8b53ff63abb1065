"""Construction, verification, and serialization of primal-dual certificates.

A certificate is a nonnegative combination of oracle-returned inequalities
plus one inequality valid for the enclosing ball whose aggregation
dominates the objective and therefore proves an upper bound on the optimum.
It lists only the rows with a nonzero multiplier, since a zero row adds
nothing to the aggregation (corrective steps leave most atoms at zero).
Verification recomputes the aggregation from scratch, checks every listed
row and never trusts solver internals.  The text form writes each row on one
line with its multiplier, so a third party can check it with no solver code.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, fields
from typing import Optional

import numpy as np

from .geometry import as_vector
from .oracle import Constraint

_DECOMP_TOL = 1e-6
_SETTINGS = ("polar", "packing", "general")


class StaleDecompositionError(Exception):
    """The maintained point no longer matches its stored convex combination."""


class CertificateUnavailableError(Exception):
    """The solver state does not certify any bound yet."""


@dataclass
class DualCertificate:
    """Explicit proof that <c, x> <= claimed_bound holds on K."""

    setting: str  # one of _SETTINGS; slack on -x_i <= 0 rows is valid only in "packing"
    objective: np.ndarray
    rows: list[tuple[Constraint, float]]
    ball_normal: np.ndarray  # unit vector
    ball_rhs: float  # <ball_normal, x> <= ball_rhs, valid for R*B2
    ball_coefficient: float
    claimed_bound: float
    gamma: float
    R: float
    nonneg_slack: Optional[np.ndarray] = None  # packing: weights on -x_i <= 0 rows


@dataclass
class VerifyReport:
    multipliers_nonneg: bool
    normal_matches: bool
    rhs_within_bound: bool
    bound_above_gamma: bool
    ball_row_valid: bool
    slack_nonneg: bool = True
    slack_in_packing: bool = True
    rows_in_history: bool = True
    max_normal_error: float = 0.0
    rhs_margin: float = 0.0

    @property
    def passed(self) -> bool:
        return not self.failures()

    def failures(self) -> list[str]:
        """The checks that failed, in field order: every bool field is a check."""
        return [f.name for f in fields(self) if f.type == "bool" and not getattr(self, f.name)]


def build_polar_certificate(state, R: float) -> DualCertificate:
    """Certificate from an origin-centered solver state (standard or packing).

    Multipliers are gamma times the maintained simplex weights; the residual
    direction (f - q) becomes the single enclosing-ball inequality.  In
    packing mode the gap between the aggregate and its in-hull shadow is
    charged to the nonnegativity rows; a state holds a shadow exactly in
    packing mode.
    """
    gamma = state.gamma
    weights = np.asarray(state.weights, dtype=float)
    combo = weights @ state.atoms.matrix
    packing = state.shadow is not None
    reference = state.shadow if packing else state.aggregate

    if abs(weights.sum() - 1.0) > _DECOMP_TOL or np.min(weights) < -_DECOMP_TOL:
        raise StaleDecompositionError("weights left the simplex")
    if np.max(np.abs(combo - reference)) > _DECOMP_TOL:
        raise StaleDecompositionError("stale decomposition")

    diff = state.target - state.aggregate
    norm = float(np.linalg.norm(diff))
    if norm > 1e-15:
        ball_normal = diff / norm
        ball_coeff = gamma * norm
    else:
        ball_normal = np.zeros_like(diff)
        ball_normal[0] = 1.0
        ball_coeff = 0.0

    slack = None
    if packing:
        slack = gamma * (state.shadow - state.aggregate)

    return DualCertificate(
        setting="packing" if packing else "polar",
        objective=state.c.copy(),
        rows=[(atom, m) for atom, m in zip(state.atoms.rows, gamma * weights) if m != 0.0],
        ball_normal=ball_normal,
        ball_rhs=float(R),
        ball_coefficient=ball_coeff,
        claimed_bound=gamma * (1.0 + norm * R),
        gamma=gamma,
        R=float(R),
        nonneg_slack=slack,
    )


def build_general_certificate(state, R: float) -> DualCertificate:
    """Certificate from a general-case solver state.

    Requires a positive mixing weight on the target; the bound degrades as
    its reciprocal.  The head of the maintained gap vector supplies the
    ball inequality, with its right-hand side inflated so that the
    aggregation reproduces the claimed bound exactly.
    """
    lam = state.lam
    if lam < 1e-9:
        raise CertificateUnavailableError("no certificate yet: target weight is zero")
    cnorm = state.cnorm
    gap = state.gap_vec
    gamma_out = state.gamma_out
    rnorm_p = float(np.linalg.norm(gap))
    claimed = gamma_out + (2.0 * R / lam) * cnorm * rnorm_p

    rows = [(atom, m) for atom, m in zip(state.atoms.rows, cnorm * state.nu / lam) if m != 0.0]

    head = -gap[:-1]
    head_norm = float(np.linalg.norm(head))
    if head_norm > 1e-15:
        ball_normal = head / head_norm
        # Inflate the right-hand side so the ball row absorbs the tail of the
        # gap vector; validity needs rhs >= R, which the norm inequality
        # ||head|| + tail <= 2 ||gap|| guarantees.
        ball_rhs = R * (2.0 * rnorm_p - gap[-1]) / head_norm
        ball_coeff = cnorm * head_norm / lam
    else:
        ball_normal = np.zeros(gap.shape[0] - 1)
        ball_normal[0] = 1.0
        ball_rhs = float(R)
        ball_coeff = 0.0

    return DualCertificate(
        setting="general",
        objective=cnorm * state.c_unit,
        rows=rows,
        ball_normal=ball_normal,
        ball_rhs=float(ball_rhs),
        ball_coefficient=float(ball_coeff),
        claimed_bound=float(claimed),
        gamma=float(gamma_out),
        R=float(R),
    )


def build_ball_certificate(c, R: float, gamma: float) -> DualCertificate:
    """The trivial certificate <c, x> <= ||c|| R: the ball row alone, along c."""
    c = as_vector(c)
    cnorm = float(np.linalg.norm(c))
    return DualCertificate(
        setting="general",
        objective=c.copy(),
        rows=[],
        ball_normal=c / cnorm,
        ball_rhs=float(R),
        ball_coefficient=cnorm,
        claimed_bound=cnorm * float(R),
        gamma=float(gamma),
        R=float(R),
    )


def verify_certificate(
    cert: DualCertificate,
    constraint_history=None,
    c=None,
    R: Optional[float] = None,
) -> VerifyReport:
    """Re-derive the aggregated inequality and check it proves the bound.

    Checks: all multipliers are nonnegative, the aggregated normal equals the
    objective, the aggregated right-hand side stays below the claimed bound,
    the bound dominates the reported incumbent value, and the ball row is
    valid for the enclosing ball.  Slack on the rows -x_i <= 0 is allowed
    only in the packing setting, whose bodies lie in the orthant.

    Optionally confirms that every used row appears in the supplied
    constraint history: within 1e-9 absolute on b, and by np.isclose with
    atol=1e-9 on a.  A row with a bit-identical twin in the history is found
    by a hash lookup; only the other rows are scanned against the whole
    history, so checking a certificate read back from text (every row then
    has a twin) costs time linear in the history.
    """
    c = as_vector(c) if c is not None else cert.objective
    R = cert.R if R is None else R

    mults = np.array([m for _, m in cert.rows], dtype=float)
    multipliers_nonneg = bool(
        (mults >= -1e-9).all() and cert.ball_coefficient >= -1e-9
    )
    normal = cert.ball_coefficient * cert.ball_normal
    rhs = cert.ball_coefficient * cert.ball_rhs
    for cons, m in cert.rows:
        normal = normal + m * cons.a
        rhs += m * cons.b
    slack_nonneg = True
    slack_in_packing = cert.nonneg_slack is None or cert.setting == "packing"
    if cert.nonneg_slack is not None:
        slack_nonneg = bool(np.min(cert.nonneg_slack) >= -1e-9)
        normal = normal - cert.nonneg_slack  # multipliers on -x_i <= 0 rows

    max_err = float(np.max(np.abs(normal - c))) if c.size else 0.0
    normal_matches = max_err <= 1e-6
    rhs_margin = cert.claimed_bound - rhs
    rhs_within_bound = rhs <= cert.claimed_bound + 1e-6
    bound_above_gamma = cert.claimed_bound >= cert.gamma - 1e-9
    ball_norm = float(np.linalg.norm(cert.ball_normal))
    ball_row_valid = cert.ball_rhs >= R * ball_norm - 1e-9

    rows_in_history = True
    if constraint_history is not None:
        history = list(constraint_history)
        # A twin passes the scan below only when it is finite (inf - inf is
        # NaN, and NaN is close to nothing); every used row is finite when
        # the aggregation is.
        twins = set()
        if np.isfinite(normal).all() and np.isfinite(rhs):
            twins = {(h.b, h.a.tobytes()) for h in history}
        ha = hb = None
        for cons, m in cert.rows:
            if m == 0.0 or (cons.b, cons.a.tobytes()) in twins:
                continue
            if ha is None:
                ha = np.array([h.a for h in history])
                hb = np.array([h.b for h in history])
            if not history or not (
                np.isclose(cons.a, ha, atol=1e-9).all(axis=1) & (np.abs(cons.b - hb) <= 1e-9)
            ).any():
                rows_in_history = False
                break

    return VerifyReport(
        multipliers_nonneg=multipliers_nonneg,
        normal_matches=normal_matches,
        rhs_within_bound=rhs_within_bound,
        bound_above_gamma=bound_above_gamma,
        ball_row_valid=ball_row_valid,
        slack_nonneg=slack_nonneg,
        slack_in_packing=slack_in_packing,
        rows_in_history=rows_in_history,
        max_normal_error=max_err,
        rhs_margin=float(rhs_margin),
    )


_fmt = "{:.17g}".format
_HEADER = "oracle-opt-certificate 2"
_KEYS = frozenset(("setting", "dimension", "objective", "R", "gamma", "claimed-bound",
                   "ball-normal", "ball-rhs", "ball-coefficient", "slack", "row"))


def _fmt_vec(v: np.ndarray) -> str:
    return " ".join(map(_fmt, v.tolist()))


def certificate_to_text(cert: DualCertificate) -> str:
    """Flat text, format 2: the header and scalar lines, the slack, then one line
    `row <name> <multiplier> <b> <a_1> ... <a_n>` per row of cert.rows, in order.
    An unnamed row is written as row<i>; a name with whitespace raises ValueError."""
    out = io.StringIO()
    out.write(f"{_HEADER}\n")
    out.write(f"setting {cert.setting}\n")
    out.write(f"dimension {cert.objective.shape[0]}\n")
    out.write(f"objective {_fmt_vec(cert.objective)}\n")
    out.write(f"R {_fmt(cert.R)}\n")
    out.write(f"gamma {_fmt(cert.gamma)}\n")
    out.write(f"claimed-bound {_fmt(cert.claimed_bound)}\n")
    out.write(f"ball-normal {_fmt_vec(cert.ball_normal)}\n")
    out.write(f"ball-rhs {_fmt(cert.ball_rhs)}\n")
    out.write(f"ball-coefficient {_fmt(cert.ball_coefficient)}\n")
    if cert.nonneg_slack is not None:
        for i, s in enumerate(cert.nonneg_slack):
            out.write(f"slack {i} {_fmt(s)}\n")
    for i, (cons, mult) in enumerate(cert.rows):
        name = cons.name or f"row{i}"
        if name.split() != [name]:
            raise ValueError(f"the row name {name!r} is not one token without whitespace")
        out.write(f"row {name} {_fmt(mult)} {_fmt(cons.b)} {_fmt_vec(cons.a)}\n")
    return out.getvalue()


def _parse_vec(text: str) -> np.ndarray:
    return np.fromiter(map(float, text.split()), float)


def certificate_from_text(text: str) -> DualCertificate:
    """Parse format 2 as certificate_to_text writes it; else raise ValueError naming the fault.

    Past blank and `#` lines the header comes first.  Each scalar line appears
    once, a slack index at most once and only in the packing setting, and any
    other key is refused.  Rows that share a name are separate rows.
    """
    header, *lines = [s for s in map(str.strip, text.splitlines()) if s and s[0] != "#"] or [""]
    if header != _HEADER:
        raise ValueError(f"the first line must be {_HEADER!r}, not {header!r}")
    values: dict[str, str] = {}
    rows: list[tuple[Constraint, float]] = []
    slack_entries: dict[int, float] = {}
    for line in lines:
        key, _, rest = line.partition(" ")
        if key not in _KEYS:
            raise ValueError(f"unknown line {line!r}")
        try:
            if key == "row":
                name, mult, b, a = rest.split(maxsplit=3)
                rows.append((Constraint(_parse_vec(a), float(b), name=name), float(mult)))
                continue
            if key == "slack":
                idx, val = rest.split()
                name, value = int(idx), float(val)
                table, what = slack_entries, f"slack index {name}"
            else:
                table, name, value, what = values, key, rest, f"the {key!r} line"
        except ValueError:
            raise ValueError(f"malformed line {line!r}") from None
        if name in table:
            raise ValueError(f"the certificate repeats {what}")
        table[name] = value

    def field(key: str, parse=str):
        if key not in values:
            raise ValueError(f"certificate has no {key!r} line")
        try:
            return parse(values[key])
        except ValueError:
            raise ValueError(f"the {key} line {values[key]!r} is not numeric") from None

    dim = field("dimension", int)
    objective = field("objective", _parse_vec)
    ball_normal = field("ball-normal", _parse_vec)
    vectors = [("objective", objective), ("ball-normal", ball_normal)]
    for label, vec in vectors + [(f"row {cons.name!r}", cons.a) for cons, _ in rows]:
        if vec.shape[0] != dim:
            raise ValueError(f"{label} has {vec.shape[0]} entries, but the dimension is {dim}")
    setting = field("setting")
    if setting not in _SETTINGS:
        raise ValueError(f"unknown setting {setting!r}; expected one of {', '.join(_SETTINGS)}")
    slack = None
    if setting == "packing":
        slack = np.zeros(dim)
        for i, s in slack_entries.items():
            if not 0 <= i < dim:
                raise ValueError(f"slack index {i} is outside the dimension {dim}")
            slack[i] = s
    elif slack_entries:
        raise ValueError(f"slack lines need the packing setting, not {setting!r}")
    return DualCertificate(
        setting=setting,
        objective=objective,
        rows=rows,
        ball_normal=ball_normal,
        ball_rhs=field("ball-rhs", float),
        ball_coefficient=field("ball-coefficient", float),
        claimed_bound=field("claimed-bound", float),
        gamma=field("gamma", float),
        R=field("R", float),
        nonneg_slack=slack,
    )
