import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_phase_solve_child_runs_the_default_episode():
    # one op of benchmarks/phase_solve.py, so a library API change that
    # breaks the script fails here; the counts repeat exactly from op to op
    env = {k: v for k, v in os.environ.items() if not k.startswith("KLWALK_")}
    env.update(PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1")
    done = subprocess.run([sys.executable, str(ROOT / "benchmarks" / "phase_solve.py"), "--child"],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    stats = json.loads(done.stdout.splitlines()[-1])
    assert stats["solve_calls"] == 239
    assert stats["colamd_orderings"] == 1
    assert stats["states_checksum"] == 68768
