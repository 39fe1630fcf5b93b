"""The phase solver inside one full-size episode, counted and timed.

One op is one desk-scale episode played in-process: a 10x10 grid,
T=1000, the default experiment's run 0 (``evaluate.run_tracking_once``).
Each op runs in a fresh interpreter on a fresh passive kernel, so what is
paid once per kernel (its support layout and the solver's column order)
is in it. Around the calls into the library the op counts and times:

- ``solve_mpe``: the phase solves and their certified steps;
- SuperLU factorizations (``splu`` as ``_accel`` and ``chains`` call it):
  their number and seconds, how many of them the solver made (``_accel``'s),
  and how many ran a COLAMD ordering (every call not made with
  ``permc_spec="NATURAL"``);
- the episode's wall time.

Each tree's summary also gives the steps and the solver's factorizations
per solve.

With ``--tree NAME=SRC`` given more than once, the ops alternate between
the trees (the side that goes first alternates too), so a parent commit
and a change are measured on the same machine in one command:

    python benchmarks/phase_solve.py --tree parent=../parent/src \\
        --tree change=src --pairs 10 --write BENCH.json

Without ``--tree`` it measures ``src`` of this checkout. Every child
process runs with one BLAS thread. The counts repeat exactly from op to
op; the times are reported as median and quartiles over the ops and, for
two trees, as the number of pairs in which the second tree was faster.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COUNTS = ("solve_calls", "solver_steps", "factorizations", "solver_factorizations",
          "colamd_orderings")
TIMES = ("episode_s", "solve_s", "factor_s")


def measure_episode() -> dict:
    """Play the default experiment's run 0 once, counting as it goes."""
    from klwalk import _accel, chains, policy
    from klwalk.evaluate import ExperimentSpec, run_tracking_once, split_seed

    stats = dict.fromkeys(COUNTS + TIMES[1:], 0)

    def counting_splu(module):
        real = module.splu

        def splu(matrix, **options):
            t0 = time.perf_counter()
            try:
                return real(matrix, **options)
            finally:
                stats["factor_s"] += time.perf_counter() - t0
                stats["factorizations"] += 1
                stats["solver_factorizations"] += module is _accel
                stats["colamd_orderings"] += options.get("permc_spec") != "NATURAL"
        return splu

    real_solve = policy.solve_mpe

    def counting_solve(*args, **kwargs):
        t0 = time.perf_counter()
        sol = real_solve(*args, **kwargs)
        stats["solve_s"] += time.perf_counter() - t0
        stats["solve_calls"] += 1
        stats["solver_steps"] += sol.iterations
        return sol

    for module in (_accel, chains):
        module.splu = counting_splu(module)
    policy.solve_mpe = counting_solve
    spec = ExperimentSpec()
    t0 = time.perf_counter()
    trace, _ = run_tracking_once(spec, split_seed(spec.base_seed, 0))
    stats["episode_s"] = time.perf_counter() - t0
    stats["states_checksum"] = int(trace.states.sum())
    return stats


def run_child(src: str) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("KLWALK_")}
    env.update(PYTHONPATH=src, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    out = subprocess.run([sys.executable, __file__, "--child"], env=env, check=True,
                         capture_output=True, text=True).stdout
    return json.loads(out.splitlines()[-1])


def quartiles(values: list[float]) -> dict:
    import numpy as np

    q1, med, q3 = np.percentile(values, [25, 50, 75])
    return {"median": float(med), "q1": float(q1), "q3": float(q3)}


def summarize(ops: list[dict]) -> dict:
    summary = {"ops": len(ops)}
    for name in COUNTS + ("states_checksum",):
        values = {op[name] for op in ops}
        summary[name] = values.pop() if len(values) == 1 else sorted(values)
    for name in TIMES:
        summary[name] = quartiles([op[name] for op in ops])
    for name in ("solver_steps", "solver_factorizations"):
        per_solve = {op[name] / op["solve_calls"] for op in ops}
        summary[f"{name}_per_solve"] = per_solve.pop() if len(per_solve) == 1 else sorted(per_solve)
    return summary


def machine() -> dict:
    import numpy
    import scipy

    return {"cpus": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "platform": platform.platform(), "blas_threads": 1}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tree", action="append", default=[], metavar="NAME=SRC",
                        help="a source tree to measure (repeatable); default: this checkout")
    parser.add_argument("--pairs", type=int, default=10,
                        help="ops per tree, alternating between the trees (default 10)")
    parser.add_argument("--write", metavar="PATH", help="also write the result JSON here")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        print(json.dumps(measure_episode()))
        return 0
    trees = dict(t.split("=", 1) for t in args.tree) or {"tree": str(ROOT / "src")}
    ops = {name: [] for name in trees}
    names = list(trees)
    for i in range(args.pairs):
        for name in names if i % 2 == 0 else names[::-1]:
            ops[name].append(run_child(str(Path(trees[name]).resolve())))
            print(f"op {i} {name}: {ops[name][-1]}", file=sys.stderr)
    result = {
        "benchmark": "phase_solve",
        "op": "one 10x10, T=1000 episode in a fresh process (default experiment, run 0)",
        "machine": machine(),
        "trees": {name: summarize(ops[name]) for name in names},
    }
    if len(names) == 2:  # pair i is op i of each tree
        first, second = (ops[name] for name in names)
        result["pairs"] = {
            f"{names[1]}_faster": {t: sum(b[t] < a[t] for a, b in zip(first, second))
                                   for t in TIMES},
            "of": args.pairs,
        }
    text = json.dumps(result, indent=2)
    print(text)
    if args.write:
        Path(args.write).write_text(text + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
