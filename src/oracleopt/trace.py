"""Per-iteration convergence records and stopping rules shared by all methods."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


class InvariantError(RuntimeError):
    """A solver invariant broke: the iterate no longer proves what it claims."""


def require(ok, what: str) -> None:
    """Raise InvariantError unless ok; unlike assert, this survives python -O."""
    if not ok:
        raise InvariantError(what)


def _fmt(x: float) -> str:
    return f"{x:.17g}"


@dataclass
class TraceRow:
    t: int
    step: str
    gamma: float
    bound: float
    residual: float
    oracle_calls: int
    lp_bound: Optional[float] = None


class ConvergenceTrace:
    """Ordered per-iteration rows; serializes to a plot-ready CSV."""

    HEADER = "t,step,gamma,dual_bound,residual,oracle_calls,lp_bound"

    def __init__(self):
        self.rows: list[TraceRow] = []

    def append(self, row: TraceRow) -> None:
        if self.rows and row.t <= self.rows[-1].t:
            raise ValueError("trace iterations must be strictly increasing")
        self.rows.append(row)

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)

    def __getitem__(self, i):
        return self.rows[i]

    def to_csv(self) -> str:
        lines = [self.HEADER]
        for r in self.rows:
            lp = "" if r.lp_bound is None else _fmt(r.lp_bound)
            lines.append(
                f"{r.t},{r.step},{_fmt(r.gamma)},{_fmt(r.bound)},"
                f"{_fmt(r.residual)},{r.oracle_calls},{lp}"
            )
        return "\n".join(lines) + "\n"

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(self.to_csv())


class StopRule:
    """Base stop rule: run until the iteration cap."""

    def lp_due(self, t: int) -> bool:
        return False

    def lp_value(self, c, separated) -> Optional[float]:
        """The LP value the rule checks, given the separated rows so far."""
        return None

    def satisfied(self, *, gamma: float, bound: float, lp_value: Optional[float]) -> bool:
        return False


class CapOnly(StopRule):
    pass


@dataclass
class GapStop(StopRule):
    """Stop once the certified bound is within a relative gap of the incumbent:
    bound - gamma <= rel * |gamma|."""

    rel: float = 0.01

    def satisfied(self, *, gamma, bound, lp_value) -> bool:
        factor = 1.0 + self.rel if gamma > 0 else 1.0 - self.rel
        return bound <= factor * gamma + 1e-12


def drive(step, observe, stop: StopRule, max_iters: int, c, cuts):
    """Run a solver's iterations until the stop rule fires or the cap hits.

    step() advances the solver by one iteration and returns the label of the
    branch that fired; observe() returns (gamma, bound, residual,
    oracle_calls) for the current iterate.  Wherever the stop rule asks for
    an LP value, it gets the objective and `cuts`, the solver's growing list
    of separated rows.  Returns (trace, converged).
    """
    if max_iters < 0:
        raise ValueError("max_iters must be >= 0")

    def lp_value(t: int) -> Optional[float]:
        return stop.lp_value(c, cuts) if stop.lp_due(t) else None

    trace = ConvergenceTrace()
    if stop.lp_due(0):
        # The shared criterion may already hold on the initial rows alone,
        # in which case the run costs zero iterations, like the cut loop.
        gamma, bound, _, _ = observe()
        if stop.satisfied(gamma=gamma, bound=bound, lp_value=lp_value(0)):
            return trace, True
    for t in range(1, max_iters + 1):
        kind = step()
        gamma, bound, residual, oracle_calls = observe()
        lp_bound = lp_value(t)
        trace.append(TraceRow(t, kind, gamma, bound, residual, oracle_calls, lp_bound))
        if stop.satisfied(gamma=gamma, bound=bound, lp_value=lp_bound):
            return trace, True
    return trace, False


@dataclass
class RunResult:
    """Outcome of a solver run: primal point, value, certificate, trace."""

    incumbent: Optional[object]
    gamma: float
    bound: float
    certificate: Optional[object]
    trace: ConvergenceTrace
    converged: bool
    iterations: int
    state: object = None
