"""The timed part of one benchmark invocation, run in a fresh process.

``run.py`` starts this with BLAS pinned to one thread and klwalk importable,
and reads back the JSON it writes to ``<work>/body.json``.
"""

from __future__ import annotations

import importlib.util
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
from pathlib import Path

from spans import Tracer, layer_metrics
from workloads import (
    DEFAULT_SEED,
    DEFECT,
    DEFECT_BUDGET_FACTOR,
    DEFECT_BUDGET_SIDE,
    LARGE,
    CheckFailed,
    SolveOp,
    call_cli,
    make_op,
)

ROOT = Path(__file__).resolve().parent.parent
OPS_PER_PART = 100_000  # op indices of measuring process k start at k * OPS_PER_PART


def machine_facts() -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    commit = "unknown"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
        commit = done.stdout.strip() or commit
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "commit": commit,
    }


class Tally:
    """Attempted and failed ops (a track run counts as one op) and whether
    every op that completed produced correct output."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.notes: list[str] = []

    def record(self, op, result, reference: bool = False):
        self.attempted += op.runs
        if result.rc != 0:
            self.failed += op.runs
            self.notes.append(f"op failed: {op.dir.name}: rc {result.rc} {result.error}")
            return
        try:
            bad_runs = op.check(result, reference)
        except (CheckFailed, OSError, ValueError, KeyError) as exc:
            bad_runs = [str(exc)] * op.runs
        for message in bad_runs:
            self.notes.append(f"check failed: {op.dir.name}: {message}")
        if bad_runs:
            self.failed += len(bad_runs)
            self.correct = False


def peak_rss_mb() -> float:
    """Peak RSS of this process (the track ops run with one worker, so klwalk
    starts no process of its own)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(args, tally: Tally, work: Path) -> dict:
    """Closed loop, one op at a time, until the ops have taken --seconds."""
    latencies = []
    index = args.part * OPS_PER_PART
    while sum(latencies) < args.seconds:
        op = make_op(args.workload, args.seed, index, work)
        result = call_cli(op.argv())
        latencies.append(result.seconds)
        tally.record(op, result, reference=args.seed == DEFAULT_SEED and index == 0)
        shutil.rmtree(op.dir)
        index += 1
    return {"latencies": latencies, "peak_rss_mb": peak_rss_mb()}


def measure_traced(args, tally: Tally, work: Path) -> dict:
    """Each op twice with one worker, untraced then traced, until the ops
    have taken --seconds; per-layer metrics come from the traced ones."""
    tracer = Tracer()
    overhead, output_bytes, busy = [], [], 0.0
    index = 0
    while busy < args.seconds:
        op = make_op(args.workload, args.seed, index, work)
        plain = call_cli(op.argv())
        tally.record(op, plain)
        tracer.install()
        try:
            traced = call_cli(op.argv(), span=tracer.span("cli.main"))
        finally:
            tracer.uninstall()
        tally.record(op, traced)
        output_bytes.append(op.output_bytes(traced))
        overhead.append(traced.seconds / plain.seconds - 1.0)
        busy += plain.seconds + traced.seconds
        shutil.rmtree(op.dir)
        index += 1
    layers = layer_metrics(tracer.spans, ops=index)
    layers["cli.output_bytes"] = (statistics.mean(output_bytes), "B")
    layers["trace.overhead_frac"] = (statistics.median(overhead), "1")
    tally.notes.append(f"traced ops: {index}")
    for name in ("world.target_stream", "online.run_episode", "evaluate.hindsight",
                 "evaluate.sample_policy_pool", "evaluate.pool_race",
                 "chains.invariant_distribution", "accel.markov_path"):
        seconds = sum(s.duration for s in tracer.spans if s.name == name) / index
        tally.notes.append(f"{name}: {seconds:.4f} s per op")
    return {"metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in layers.items()}}


def measure_defect(args, tally: Tally, work: Path) -> dict:
    """A 20x20 op sets the wall budget for one 16x16 op (n = 256)."""
    reference = SolveOp(DEFECT_BUDGET_SIDE, LARGE, args.seed, 0, work)
    first = call_cli(reference.argv())
    tally.record(reference, first)
    budget = DEFECT_BUDGET_FACTOR * first.seconds
    op = SolveOp(16, LARGE, args.seed, 0, work)
    tracer = Tracer()
    tracer.install()
    try:
        result = call_cli(op.argv(), span=tracer.span("cli.main"), budget_s=budget)
    finally:
        tracer.uninstall()
    tally.record(op, result)
    # the innermost span still open when the op ended is where it was stuck
    ended = max(s.end for s in tracer.spans)
    open_at_end = [s for s in tracer.spans if s.end >= ended - 0.05 and s.name != "cli.main"]
    stuck = max(open_at_end, key=lambda s: s.start).name if open_at_end else "cli.main"
    tally.notes.append(
        f"16x16 op: {result.error or 'completed'} after {result.seconds:.2f} s, "
        f"innermost span at the end: {stuck}; budget {budget:.2f} s = "
        f"{DEFECT_BUDGET_FACTOR} x the 20x20 op ({first.seconds:.2f} s)"
    )
    return {"metrics": {
        "ops_failed_frac": {"value": tally.failed / tally.attempted, "unit": "1"},
        "op_20x20_ms": {"value": 1e3 * first.seconds, "unit": "ms"},
        "op_16x16_ms": {"value": 1e3 * result.seconds, "unit": "ms"},
    }}


def run_body(args) -> int:
    work = Path(args.work)
    tally = Tally()
    if args.workload == DEFECT:
        measured = measure_defect(args, tally, work)
    elif args.trace:
        measured = measure_traced(args, tally, work)
    else:
        measured = measure(args, tally, work)
    (work / "body.json").write_text(json.dumps({
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "notes": tally.notes,
        "machine": machine_facts(),
        **measured,
    }))
    return 0
