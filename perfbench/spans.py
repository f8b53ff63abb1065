"""Span tracer for the benchmark's traced runs.

The tracer times oracle-opt's layers from outside: it replaces a public
function by a timing wrapper in every oracleopt module namespace that
binds it, so calls that reach the function through ``from ... import``
are seen too.  Methods are wrapped on their class.  Spans (name, module,
start, end, parent, solve id, one measured quantity) are kept in memory;
self time is a span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

# (layer name, defining module, attribute or Class.method, what to note).
# The defining module is what a span's self time is charged to.
TARGETS = (
    ("lp_baseline.solve_lp", "lp_baseline", "solve_lp", "lp_rows"),
    ("lp_baseline.lp_stop_bound", "lp_baseline", "lp_stop_bound", "separated"),
    ("lp_baseline.cut_loop", "lp_baseline", "cut_loop", None),
    ("combinatorial.best_violated_oddset", "combinatorial", "best_violated_oddset", None),
    ("combinatorial.max_weight_clique", "combinatorial", "max_weight_clique", None),
    ("combinatorial.ref_opt", "combinatorial", "brute_force_matching_opt", None),
    ("combinatorial.ref_opt", "combinatorial", "clique_relaxation_opt", None),
    ("oracle.separate", "combinatorial", "MatchingOracle.separate", None),
    ("oracle.separate", "combinatorial", "StableSetOracle.separate", None),
    ("oracle.separate", "oracle", "PolytopeOracle.separate", None),
    ("oracle.separate", "oracle", "BallOracle.separate", None),
    ("corrective.min_norm_point", "corrective", "min_norm_point", "atoms"),
    ("corrective.partially_corrective_update", "corrective", "partially_corrective_update", None),
    ("solver_polar.run_polar", "solver_polar", "run_polar", None),
    ("solver_polar.polar_step", "solver_polar", "polar_step", "step"),
    ("solver_general.run_general", "solver_general", "run_general", None),
    ("solver_general.general_step", "solver_general", "general_step", None),
    ("certificates.build", "certificates", "build_polar_certificate", "cert_rows"),
    ("certificates.build", "certificates", "build_general_certificate", "cert_rows"),
    ("certificates.verify", "certificates", "verify_certificate", None),
    ("certificates.to_text", "certificates", "certificate_to_text", "text_bytes"),
    ("certificates.from_text", "certificates", "certificate_from_text", None),
    ("trace.write_csv", "trace", "ConvergenceTrace.write_csv", None),
    ("harness.build_instance", "harness", "build_instance", None),
    ("harness.run_experiment", "harness", "run_experiment", None),
)

# Modules whose traced self time is reported as a share of the pass.
SHARE_MODULES = (
    "lp_baseline",
    "combinatorial",
    "oracle",
    "corrective",
    "solver_polar",
    "solver_general",
    "certificates",
    "harness",
    "trace",
    "cli",
    "import",
)

NAME, MODULE, START, END, PARENT, SOLVE, NOTE = range(7)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


class Tracer:
    """Collects nested spans in one thread; install() patches, uninstall() restores."""

    def __init__(self):
        self.spans: list[list] = []
        self.solve = -1
        self.missing: list[str] = []
        self._open: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._last_separated: dict[int, int] = {}

    # -- recording ---------------------------------------------------------

    def begin(self, name: str, module: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, module, perf_counter(), 0.0, parent, self.solve, None])
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def end(self, index: int) -> None:
        self.spans[index][END] = perf_counter()
        self._open.pop()

    @contextmanager
    def root(self, name: str, solve: int):
        """A span the benchmark opens itself; spans inside it carry `solve`."""
        self.solve = solve
        index = self.begin(name, "bench")
        try:
            yield
        finally:
            self.end(index)

    def _note(self, kind, index, args, kwargs, result):
        span = self.spans[index]
        if kind == "lp_rows":
            lp = _arg(args, kwargs, 0, "lp")
            span[NOTE] = len(lp.rows) + len(lp.equalities)
        elif kind == "separated":
            grown = len(_arg(args, kwargs, 1, "separated"))
            previous = self._last_separated.get(self.solve)
            span[NOTE] = 1 if previous is not None and grown <= previous else 0
            self._last_separated[self.solve] = grown
        elif kind == "atoms":
            span[NOTE] = len(_arg(args, kwargs, 1, "atoms"))
        elif kind == "step":
            span[NOTE] = getattr(result, "value", str(result))
        elif kind == "cert_rows":
            span[NOTE] = len(result.rows)
        elif kind == "text_bytes":
            span[NOTE] = len(result.encode("utf-8"))

    def _wrapper(self, name, module, fn, note):
        tracer = self

        def traced(*args, **kwargs):
            index = tracer.begin(name, module)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(index)
            if note is not None:
                tracer._note(note, index, args, kwargs, result)
            return result

        return functools.update_wrapper(traced, fn)

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        """Wrap every target wherever an oracleopt module binds it."""
        modules = {
            name.rpartition(".")[2]: mod
            for name, mod in list(sys.modules.items())
            if mod is not None and (name == "oracleopt" or name.startswith("oracleopt."))
        }
        for name, module, attr, note in TARGETS:
            home = modules.get(module)
            owner_name, _, method = attr.partition(".")
            if home is None or not hasattr(home, owner_name):
                self.missing.append(f"{module}.{attr}")
                continue
            if method:
                cls = getattr(home, owner_name)
                original = cls.__dict__.get(method)
                if original is None:
                    self.missing.append(f"{module}.{attr}")
                    continue
                self._patch(cls, method, self._wrapper(name, module, original, note))
                continue
            original = getattr(home, owner_name)
            wrapper = self._wrapper(name, module, original, note)
            for mod in modules.values():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)

    def _patch(self, owner, key, value) -> None:
        self._patches.append((owner, key, vars(owner)[key]))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    # -- output --------------------------------------------------------------

    def dump(self, path) -> None:
        """Write the spans as JSON lines."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def load(path) -> list[list]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


class Totals:
    """Per-layer and per-module sums over one or more span lists."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.note_sum = defaultdict(float)
        self.module_self_s = defaultdict(float)
        self.steps = defaultdict(int)

    def add(self, spans: list[list], in_share=lambda span: True) -> None:
        """Add one process's spans; only spans passing in_share count toward module shares."""
        child_s = [0.0] * len(spans)
        for span in spans:
            if span[PARENT] >= 0:
                child_s[span[PARENT]] += span[END] - span[START]
        for span, covered in zip(spans, child_s):
            name = span[NAME]
            duration = span[END] - span[START]
            self.calls[name] += 1
            self.total_s[name] += duration
            self.self_s[name] += duration - covered
            if in_share(span):
                self.module_self_s[span[MODULE]] += duration - covered
            note = span[NOTE]
            if isinstance(note, str):
                self.steps[note] += 1
            elif note is not None:
                self.note_sum[name] += note

    def mean(self, name: str) -> float:
        return self.note_sum[name] / self.calls[name] if self.calls[name] else 0.0
