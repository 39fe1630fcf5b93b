#!/usr/bin/env python3
"""Benchmark of `klwalk track` and `klwalk solve`, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload track-phases --seed 1 --seconds 20 --trace 0

Each invocation measures set-up time in fresh interpreters, then measures
the workload with a single closed-loop client that calls
`klwalk.cli.main([...])` in-process, starting each op when the previous one
returns, until the ops have taken ``--seconds`` of wall time (spread over a
few fresh processes, one after another). Inputs come from ``--seed`` only;
every op's outputs are checked. ``--trace 1`` runs the same ops untraced and
traced in turn and reports the per-layer metrics instead of the end-to-end
ones. The last line of standard output is the result as JSON;
``--workload all`` runs every workload in turn.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from workloads import DEFAULT_SEED, DEFECT, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
BODY_PROCESSES = 3
RUN_LIMIT_S = 170.0  # every invocation ends well inside 180 s

# One BLAS/OpenMP thread per process, so every op runs on one core.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

SETUP_CODE = """
import contextlib, io, sys
sys.path.insert(0, sys.argv[1])
import klwalk.cli
with contextlib.redirect_stdout(io.StringIO()):
    sys.exit(klwalk.cli.main(["solve", sys.argv[2], sys.argv[3]]))
"""


def child_env() -> dict:
    """The environment for every process the benchmark starts: thread
    pinning, no inherited KLWALK_ overrides, klwalk importable from src/."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("KLWALK_")}
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(argv: list[str], timeout: float, **kwargs) -> subprocess.CompletedProcess:
    """Run a child in its own process group and kill the whole group if it
    outlives ``timeout``, so no worker it forked is left behind.

    The wait blocks (a timer does the killing): ``communicate(timeout=...)``
    polls for the child's exit with sleeps of up to 50 ms, which would put
    the set-up times on a 50 ms grid.
    """
    proc = subprocess.Popen(argv, env=child_env(), cwd=ROOT, start_new_session=True, **kwargs)
    expired = threading.Event()

    def kill():
        expired.set()
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)

    timer = threading.Timer(max(timeout, 0.0), kill)
    timer.start()
    try:
        out, err = proc.communicate()
    finally:
        timer.cancel()
    if expired.is_set():
        raise subprocess.TimeoutExpired(argv, timeout)
    return subprocess.CompletedProcess(argv, proc.returncode, out, err)


def measure_setup(work: Path) -> list[float]:
    """Wall time of fresh interpreters that import klwalk and make one tiny
    first call (2 states), so lazy initialisation is counted too."""
    p_csv, f_csv = work / "setup_P.csv", work / "setup_f.csv"
    p_csv.write_text("0.5,0.5\n0.25,0.75\n")
    f_csv.write_text("0.0,1.0\n")
    argv = [sys.executable, "-c", SETUP_CODE, str(SRC), str(p_csv), str(f_csv)]
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        done = run_child(argv, timeout=60, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
        if done.returncode != 0:
            raise RuntimeError(f"set-up process exited with {done.returncode}")
    return times


def run_body(args, work: Path, part: int, seconds: float, deadline: float) -> dict:
    """One fresh process that measures ``seconds`` of ops."""
    argv = [
        sys.executable, str(Path(__file__)), "--body", "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", repr(seconds), "--trace", str(args.trace),
        "--work", str(work), "--part", str(part),
    ]
    done = run_child(argv, timeout=deadline - time.perf_counter(), stdout=sys.stderr)
    if done.returncode != 0:
        raise RuntimeError(f"workload process exited with {done.returncode}")
    return json.loads((work / "body.json").read_text())


def measure_window(args, work: Path, deadline: float) -> list[dict]:
    """The measured window, split over BODY_PROCESSES fresh processes.

    A fresh process can run up to 10% faster or slower than another for its
    whole life, so one process per run would pass that on to the result.
    Process k runs until the ops of processes 0..k have taken
    (k + 1) / BODY_PROCESSES of --seconds.
    """
    if args.trace or args.workload == DEFECT:
        return [run_body(args, work, 0, args.seconds, deadline)]
    bodies, busy = [], 0.0
    for part in range(BODY_PROCESSES):
        target = args.seconds * (part + 1) / BODY_PROCESSES
        if busy < target:
            bodies.append(run_body(args, work, part, target - busy, deadline))
            busy += sum(bodies[-1]["latencies"])
    return bodies


def run_workload(args) -> int:
    if not (SRC / "klwalk" / "__init__.py").is_file():
        print(f"error: no klwalk package under {SRC}", file=sys.stderr)
        return 2
    deadline = time.perf_counter() + RUN_LIMIT_S
    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        setup = measure_setup(work)
        bodies = measure_window(args, work, deadline)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by a concurrent run
            work.parent.rmdir()

    metrics = bodies[0].get("metrics")
    notes = [note for body in bodies for note in body["notes"]]
    if "latencies" in bodies[0]:
        latencies = [s for body in bodies for s in body["latencies"]]
        q1, q2, q3 = statistics.quantiles(latencies, n=4) if len(latencies) > 1 else latencies * 3
        notes.append(f"{len(latencies)} ops in {len(bodies)} processes, "
                     f"latency q1/median/q3 (s): {q1:.4f} {q2:.4f} {q3:.4f}")
        notes.append("setup_s samples: " + " ".join(f"{s:.4f}" for s in setup))
        metrics = {
            "ops_per_s": {"value": len(latencies) / sum(latencies), "unit": "1/s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": max(body["peak_rss_mb"] for body in bodies), "unit": "MB"},
        }
    correct = all(body["correct"] for body in bodies)
    print(f"# workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    print("# machine " + json.dumps(bodies[0]["machine"], sort_keys=True))
    for line in notes:
        print(f"# {line}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": correct,
        "attempted": sum(body["attempted"] for body in bodies),
        "failed": sum(body["failed"] for body in bodies),
        "metrics": metrics,
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every measured workload in turn, each in its own process."""
    merged, correct, attempted, failed = {}, True, 0, 0
    for workload in WORKLOADS:
        argv = [
            sys.executable, str(Path(__file__)), "--workload", workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        done = run_child(argv, timeout=RUN_LIMIT_S + 10, stdout=subprocess.PIPE, text=True)
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if done.returncode not in (0, 1) or not lines:
            print(f"error: {workload} produced no result", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        correct &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        for name, m in result["metrics"].items():
            merged[f"{workload}/{name}"] = m
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": merged}))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + (DEFECT, "all"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--body", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--work", help=argparse.SUPPRESS)
    parser.add_argument("--part", type=int, default=0, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.body:
        from body import run_body

        return run_body(args)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
