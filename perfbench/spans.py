"""Call interception for the benchmark: light latency probes and full tracing.

The package is measured as shipped.  Its modules bind each other's public
functions at import time (``from .milp import build_static_model``), so a
wrapper only sees a call when it replaces the name in the namespace the caller
looks it up in.  :class:`Patcher` therefore swaps a function at every lookup
site: each loaded ``bebcharge`` module, the benchmark's own modules, and (for
methods) the class that owns it, and puts the originals back on ``restore``.

:class:`Tracer` wraps the public boundary of every layer.  Each call pushes a
frame; on return the frame's duration, its self time (duration minus time
spent in traced children) and a per-name counter are recorded, and one span
``(name, start, end, parent, op)`` is kept in memory.  The per-minute truth
model calls (``TruthEnvironment.advance``, ``simulate_exact``) run hundreds of
thousands of times per run, so they are counted and timed but keep no span.
Spans are written out once, when the workload ends.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

# (layer, module that defines it, attribute path).  The layer is the module's
# short name; ``lp`` is the HiGHS boundary, i.e. calls from bebcharge.solver
# into scipy.optimize.linprog.
TRACED: Tuple[Tuple[str, str, str], ...] = (
    ("scenario", "bebcharge.scenario", "discretize"),
    ("scenario", "bebcharge.scenario", "generate_random_scenario"),
    ("graph", "bebcharge.graph", "build_action_graph"),
    ("graph", "bebcharge.graph", "close_edges"),
    ("graph", "bebcharge.graph", "apply_plan_preference"),
    ("milp", "bebcharge.milp", "build_static_model"),
    ("milp", "bebcharge.milp", "add_terminal_cost"),
    ("milp", "bebcharge.milp", "lock_charged_visits"),
    ("milp", "bebcharge.milp", "extract_plan"),
    ("solver", "bebcharge.solver", "branch_and_bound"),
    ("solver", "bebcharge.solver", "solve_lp"),
    ("solver", "bebcharge.solver", "validate_solution"),
    ("solver", "bebcharge.solver", "build_warm_start"),
    ("lp", "bebcharge.solver", "linprog"),
    ("receding_horizon", "bebcharge.receding_horizon", "run_day"),
    ("receding_horizon", "bebcharge.receding_horizon", "plan_horizon"),
    ("receding_horizon", "bebcharge.receding_horizon", "execute_first_step"),
    ("simulation", "bebcharge.simulation", "nominal_plan"),
    ("simulation", "bebcharge.simulation", "monte_carlo"),
    ("simulation", "bebcharge.simulation", "simulate_run"),
    ("simulation", "bebcharge.simulation", "sample_run_noise"),
    ("simulation", "bebcharge.simulation", "perturb_arrivals"),
    ("simulation", "bebcharge.simulation", "billing_oracle"),
    ("simulation", "bebcharge.simulation", "TruthEnvironment.advance"),
    ("charge_model", "bebcharge.charge_model", "simulate_exact"),
)

HOT = frozenset({"simulation.TruthEnvironment.advance", "charge_model.simulate_exact"})

LAYERS = ("scenario", "graph", "milp", "solver", "receding_horizon",
          "simulation", "charge_model")


def _resolve(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


class Patcher:
    """Replace functions at every site their callers look them up in."""

    def __init__(self, extra_modules: Sequence[str] = ()) -> None:
        self._extra = tuple(extra_modules)
        self._undo: List[Tuple[object, str, object]] = []

    def _sites(self):
        # scipy itself is not a site, so linprog is only wrapped where
        # bebcharge.solver calls it
        for name, mod in list(sys.modules.items()):
            if mod is None:
                continue
            if name == "bebcharge" or name.startswith("bebcharge.") or name in self._extra:
                yield mod

    def patch(self, module_name: str, path: str, make: Callable[[Callable], Callable]) -> None:
        owner, attr = _resolve(module_name, path)
        original = getattr(owner, attr)
        wrapper = make(original)
        if "." in path:
            # a method is looked up on its class
            self._undo.append((owner, attr, original))
            setattr(owner, attr, wrapper)
            return
        for mod in self._sites():
            if mod.__dict__.get(attr) is original:
                self._undo.append((mod, attr, original))
                setattr(mod, attr, wrapper)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()


@dataclass
class _Frame:
    start: float
    index: int
    child_s: float = 0.0


@dataclass
class Tracer:
    """Per-name call counts, total and self time, plus spans, for one run.

    ``phase`` separates set-up from the timed rounds; ``op`` is the id of the
    operation in progress and is stamped on every span.  Result hooks collect
    the counts that a function's return value or argument carries (nodes
    explored, model size, fallback use).
    """

    phase: str = "setup"
    op: int = -1
    calls: Dict[Tuple[str, str], int] = field(default_factory=lambda: defaultdict(int))
    total_s: Dict[Tuple[str, str], float] = field(default_factory=lambda: defaultdict(float))
    self_s: Dict[Tuple[str, str], float] = field(default_factory=lambda: defaultdict(float))
    counts: Dict[Tuple[str, str], float] = field(default_factory=lambda: defaultdict(float))
    spans: List[Tuple[str, float, float, int, int]] = field(default_factory=list)
    _stack: List[_Frame] = field(default_factory=list)

    def count(self, key: str, amount: float = 1.0) -> None:
        self.counts[(self.phase, key)] += amount

    def wrap(self, name: str, fn: Callable, hook: Optional[Callable] = None) -> Callable:
        clock = time.perf_counter
        keep_span = name not in HOT
        stack = self._stack
        spans = self.spans
        tracer = self

        def traced(*args, **kwargs):
            parent = stack[-1].index if stack else -1
            index = len(spans) if keep_span else parent
            if keep_span:
                spans.append((name, 0.0, 0.0, parent, tracer.op))
            frame = _Frame(clock(), index)
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - frame.start
                key = (tracer.phase, name)
                tracer.calls[key] += 1
                tracer.total_s[key] += dur
                tracer.self_s[key] += dur - frame.child_s
                if stack:
                    stack[-1].child_s += dur
                if keep_span:
                    spans[index] = (name, frame.start, end, parent, tracer.op)
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- aggregates over one phase -------------------------------------------

    def ms(self, phase: str, *names: str) -> float:
        return 1e3 * sum(self.total_s.get((phase, n), 0.0) for n in names)

    def n(self, phase: str, *names: str) -> int:
        return sum(self.calls.get((phase, n), 0) for n in names)

    def layer_self_ms(self, phase: str, layer: str) -> float:
        return 1e3 * sum(
            v for (p, name), v in self.self_s.items()
            if p == phase and name.split(".", 1)[0] == layer
        )

    def write_spans(self, path: str) -> None:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                    "parent": parent, "op": op}) + "\n")


def _model_size(tracer: Tracer, args, kwargs, result) -> None:
    model = args[0] if args else kwargs["model"]
    tracer.count("milp.solved_models")
    tracer.count("milp.cols", model.n_variables)
    tracer.count("milp.rows", model.n_constraints)
    tracer.count("milp.int_cols", sum(1 for v in model.variables if v.is_integer))
    tracer.count("solver.nodes", result.nodes_explored)
    if result.assignment is None:
        tracer.count("solver.no_incumbent")


def _warm_start(tracer: Tracer, args, kwargs, result) -> None:
    if result is not None:
        tracer.count("solver.warm_start_accepted")


def _graph_size(tracer: Tracer, args, kwargs, result) -> None:
    tracer.count("graph.built")
    tracer.count("graph.edges", result.n_edges)


def _fallback(tracer: Tracer, args, kwargs, result) -> None:
    if result.used_fallback:
        tracer.count("receding_horizon.fallbacks")


HOOKS = {
    "solver.branch_and_bound": _model_size,
    "solver.build_warm_start": _warm_start,
    "graph.build_action_graph": _graph_size,
    "receding_horizon.plan_horizon": _fallback,
}


def install_tracer(tracer: Tracer, patcher: Patcher) -> None:
    """Wrap every function in :data:`TRACED` at all of its lookup sites."""
    for layer, module_name, path in TRACED:
        name = f"{layer}.{path}"
        patcher.patch(
            module_name, path,
            lambda fn, name=name: tracer.wrap(name, fn, HOOKS.get(name)),
        )


class Probes:
    """What the end-to-end metrics and the checks need from inside a run,
    active with tracing on or off: the latency of each ``plan_horizon`` call,
    and each ``simulate_run`` result with its latency (``monte_carlo`` does
    not return its runs).  Each probe costs two clock reads per call.
    """

    def __init__(self) -> None:
        self.tracer: Optional[Tracer] = None
        self._windows: List[float] = []
        self._runs: List[object] = []
        self._run_s: List[float] = []

    def install(self, patcher: Patcher) -> None:
        clock = time.perf_counter

        def time_windows(fn):
            def probe(*args, **kwargs):
                t0 = clock()
                out = fn(*args, **kwargs)
                self._windows.append(clock() - t0)
                return out
            return probe

        def keep_runs(fn):
            def probe(*args, **kwargs):
                t0 = clock()
                out = fn(*args, **kwargs)
                self._run_s.append(clock() - t0)
                self._runs.append(out)
                return out
            return probe

        patcher.patch("bebcharge.receding_horizon", "plan_horizon", time_windows)
        patcher.patch("bebcharge.simulation", "simulate_run", keep_runs)

    def begin_op(self, op: int) -> None:
        if self.tracer is not None:
            self.tracer.op = op

    def end_op(self) -> None:
        if self.tracer is not None:
            self.tracer.op = -1

    def take_windows(self) -> List[float]:
        out, self._windows = self._windows, []
        return out

    def take_runs(self) -> Tuple[List[object], List[float]]:
        out = (self._runs, self._run_s)
        self._runs, self._run_s = [], []
        return out
