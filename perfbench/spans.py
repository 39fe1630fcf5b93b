"""In-memory span tracer that wraps klwalk's public functions.

Each wrapper is installed on the module attribute the caller looks the
function up through (``klwalk.policy.solve_mpe``, ``klwalk._accel.markov_path``
and so on), records a span with its parent, and is removed again by
``uninstall``. Nothing inside the package is edited; the tracer only works
for calls made in this process, which is why traced track runs use one
worker.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from dataclasses import dataclass, field
from typing import Optional

# (module, attribute, span name). One span name may cover several lookups
# of the same function from different callers.
PATCH_POINTS = [
    ("klwalk.cli", "run_experiment", "evaluate.run_experiment"),
    ("klwalk.cli", "summarize", "evaluate.summarize"),
    ("klwalk.cli", "solve_mpe", "spectral.solve_mpe"),
    ("klwalk.cli", "twisted_kernel", "policy.twisted_kernel"),
    ("klwalk.cli", "acoe_residual", "spectral.acoe_residual"),
    ("klwalk.evaluate", "run_tracking_once", "evaluate.run_tracking_once"),
    ("klwalk.evaluate", "build_passive", "world.target_stream"),
    ("klwalk.evaluate", "make_tracking_env", "world.target_stream"),
    ("klwalk.world", "TrackingEnv.stream", "world.target_stream"),
    ("klwalk.evaluate", "run_episode", "online.run_episode"),
    ("klwalk.evaluate", "best_in_hindsight", "evaluate.hindsight"),
    ("klwalk.evaluate", "steady_state_comparator_cost", "evaluate.hindsight"),
    ("klwalk.evaluate", "sample_policy_pool", "evaluate.sample_policy_pool"),
    ("klwalk.evaluate", "pool_best_realized_cost", "evaluate.pool_race"),
    ("klwalk.evaluate", "invariant_distribution", "chains.invariant_distribution"),
    ("klwalk.policy", "invariant_distribution", "chains.invariant_distribution"),
    ("klwalk.online", "optimal_policy", "online.phase_solve"),
    ("klwalk.policy", "solve_mpe", "spectral.solve_mpe"),
    ("klwalk.policy", "twisted_kernel", "policy.twisted_kernel"),
    ("klwalk.spectral", "ergodicity_report", "chains.ergodicity_report"),
    ("klwalk.policy", "ergodicity_report", "chains.ergodicity_report"),
    ("klwalk.chains", "dobrushin_coefficient", "chains.dobrushin_coefficient"),
    ("klwalk._accel", "mpe_power_iteration", "accel.mpe_power_iteration"),
    ("klwalk._accel", "markov_path", "accel.markov_path"),
]

# Spans whose own (self) time is glue between layers rather than a layer's
# work; trace.coverage is the share of wall time outside them.
GLUE = {
    "evaluate.run_experiment",
    "evaluate.run_tracking_once",
    "evaluate.summarize",
    "online.phase_solve",
}


@dataclass
class Span:
    name: str
    parent: Optional["Span"]
    start: float
    end: float = 0.0
    child_s: float = 0.0
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s

    def inside(self, name: str) -> bool:
        node = self.parent
        while node is not None:
            if node.name == name:
                return True
            node = node.parent
        return False


def _describe(name: str, args, result) -> dict:
    """Counts taken at the layer boundary from arguments and results."""
    if name == "spectral.solve_mpe":
        n = args[0].n
        return {"iterations": result.iterations, "n": n, "width": result.bracket_width}
    if name == "accel.markov_path":
        return {"steps": int(args[2].shape[0])}
    if name == "chains.ergodicity_report":
        return {"nbar": result.nbar}
    if name == "evaluate.sample_policy_pool":
        return {"pool": len(result)}
    return {}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._saved: list[tuple[object, str, object]] = []

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself (the CLI op)."""
        self._open(name)
        try:
            yield
        finally:
            self._close()

    def _open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(name, parent, time.perf_counter())
        self._stack.append(span)
        return span

    def _close(self):
        span = self._stack.pop()
        span.end = time.perf_counter()
        if span.parent is not None:
            span.parent.child_s += span.duration
        self.spans.append(span)

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
                span.info = _describe(name, args, result)
                return result
            finally:
                self._close()

        return wrapper

    def install(self):
        for module_name, attr, name in PATCH_POINTS:
            owner = importlib.import_module(module_name)
            for part in attr.split(".")[:-1]:
                owner = getattr(owner, part)
            leaf = attr.split(".")[-1]
            original = getattr(owner, leaf)
            self._saved.append((owner, leaf, original))
            setattr(owner, leaf, self._wrap(name, original))

    def uninstall(self):
        while self._saved:
            owner, leaf, original = self._saved.pop()
            setattr(owner, leaf, original)


def layer_metrics(spans: list[Span], ops: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the spans of ``ops`` traced CLI invocations.

    Times and counts are per op; shares are of the traced op wall time.
    """
    def named(name):
        return [s for s in spans if s.name == name]

    def total(name):
        return sum(s.duration for s in named(name))

    wall = total("cli.main")
    ops = max(ops, 1)

    def share(seconds):
        return 100.0 * seconds / wall if wall > 0 else 0.0

    solves = named("spectral.solve_mpe")
    iterations = sum(s.info.get("iterations", 0) for s in solves)
    solve_s = total("spectral.solve_mpe")
    power_s = total("accel.mpe_power_iteration")
    paths = named("accel.markov_path")
    path_s = total("accel.markov_path")
    reports = named("chains.ergodicity_report")
    dobrushin = named("chains.dobrushin_coefficient")
    # A report was computed (not served from its memo) exactly when the
    # Dobrushin coefficient ran inside it; nbar - 1 reachability products
    # were formed for it.
    computed = {id(d.parent) for d in dobrushin if d.parent is not None}
    products = sum(
        (r.info.get("nbar") or 1) - 1 for r in reports if id(r) in computed
    )
    report_s = total("chains.ergodicity_report")
    inv = named("chains.invariant_distribution")
    pools = named("evaluate.sample_policy_pool")
    pool_checks = sum(1 for s in inv if s.inside("evaluate.sample_policy_pool"))
    pool_drawn = sum(s.info.get("pool", 0) for s in pools)
    episodes_s = total("online.run_episode")
    phase_solves = named("online.phase_solve")
    phase_s = sum(s.duration for s in phase_solves)
    reported_self = sum(s.self_s for s in spans if s.name not in GLUE)

    return {
        "spectral.solve_mpe.calls": (len(solves) / ops, "count"),
        "spectral.solve_mpe.s": (solve_s / ops, "s"),
        "spectral.solve_mpe.share": (share(solve_s), "%"),
        "spectral.solve_mpe.ms_per_call": (1e3 * solve_s / max(len(solves), 1), "ms"),
        "spectral.solve_mpe.iterations": (iterations / ops, "count"),
        "spectral.solve_mpe.iterations_per_call": (iterations / max(len(solves), 1), "count"),
        "spectral.solve_mpe.us_per_iter": (1e6 * power_s / max(iterations, 1), "us"),
        "spectral.solve_mpe.bracket_width_max": (
            max((s.info.get("width", 0.0) for s in solves), default=0.0), "1"),
        "spectral.solve_mpe.bytes_computed": (
            sum(s.info.get("iterations", 0) * 8 * s.info.get("n", 0) ** 2 for s in solves) / ops,
            "B"),
        "spectral.acoe_residual.share": (share(total("spectral.acoe_residual")), "%"),
        "accel.mpe_power_iteration.s": (power_s / ops, "s"),
        "accel.mpe_power_iteration.share_of_solve": (
            100.0 * power_s / solve_s if solve_s > 0 else 0.0, "%"),
        "accel.markov_path.calls": (len(paths) / ops, "count"),
        "accel.markov_path.steps": (sum(s.info.get("steps", 0) for s in paths) / ops, "count"),
        "accel.markov_path.share": (share(path_s), "%"),
        "chains.ergodicity_report.calls": (len(reports) / ops, "count"),
        "chains.ergodicity_report.s": (report_s / ops, "s"),
        "chains.ergodicity_report.share": (share(report_s), "%"),
        "chains.ergodicity_report.products": (products / ops, "count"),
        "chains.dobrushin_coefficient.s": (total("chains.dobrushin_coefficient") / ops, "s"),
        "chains.invariant_distribution.calls": (len(inv) / ops, "count"),
        "chains.invariant_distribution.share": (share(total("chains.invariant_distribution")), "%"),
        "policy.twisted_kernel.calls": (len(named("policy.twisted_kernel")) / ops, "count"),
        "policy.twisted_kernel.s": (total("policy.twisted_kernel") / ops, "s"),
        "online.phases": (len(phase_solves) / ops, "count"),
        "online.run_episode.share": (share(episodes_s), "%"),
        "online.step_loop_self.share": (share(episodes_s - phase_s), "%"),
        "online.solver_share_of_episode": (
            100.0 * phase_s / episodes_s if episodes_s > 0 else 0.0, "%"),
        "world.target_stream.share": (share(total("world.target_stream")), "%"),
        "evaluate.hindsight.share": (share(total("evaluate.hindsight")), "%"),
        "evaluate.sample_policy_pool.share": (share(total("evaluate.sample_policy_pool")), "%"),
        "evaluate.pool.accept_ratio": (pool_drawn / pool_checks if pool_checks else 0.0, "1"),
        "evaluate.pool_race.share": (share(total("evaluate.pool_race")), "%"),
        "cli.self_s": (sum(s.self_s for s in named("cli.main")) / ops, "s"),
        "trace.op_wall_s": (wall / ops, "s"),
        "trace.coverage": (100.0 * reported_self / wall if wall > 0 else 0.0, "%"),
    }
