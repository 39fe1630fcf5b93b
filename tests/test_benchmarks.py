import importlib
import importlib.util
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import klwalk.cli

ROOT = Path(__file__).resolve().parents[1]


def test_phase_solve_child_runs_the_default_episode():
    # one op of benchmarks/phase_solve.py, so a library API change that
    # breaks the script fails here; the counts repeat exactly from op to op
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1")
    done = subprocess.run([sys.executable, str(ROOT / "benchmarks" / "phase_solve.py"), "--child"],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    stats = json.loads(done.stdout.splitlines()[-1])
    assert stats["solve_calls"] == 239
    # a drifting warm start changes these while the states checksum stays
    assert stats["solver_steps"] == 1895
    assert stats["factorizations"] == 283
    assert stats["colamd_orderings"] == 1
    assert stats["states_checksum"] == 68768


def load_spans(monkeypatch):
    """perfbench/spans.py as a module, loaded from its file as it stands
    (registered while the test runs, as its dataclasses need)."""
    spec = importlib.util.spec_from_file_location("perfbench_spans", ROOT / "perfbench" / "spans.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def patched_attributes(spans):
    """``(owner, attribute name, current object)`` for each patch point."""
    found = []
    for module_name, attr, _ in spans.PATCH_POINTS:
        owner = importlib.import_module(module_name)
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        found.append((owner, leaf, getattr(owner, leaf)))
    return found


def test_trace_mode_installs_and_records_every_layer(tmp_path, monkeypatch):
    # `perfbench/run.py --trace 1` patches these attributes; one that is
    # renamed or deleted in the library fails here rather than at install
    spans = load_spans(monkeypatch)
    originals = patched_attributes(spans)
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"graph": {"grid": [3, 3]}, "horizon": 10, "runs": 1,
                                  "pool_size": 5}))
    (tmp_path / "p.csv").write_text("0.5,0.5\n0.5,0.5\n")
    (tmp_path / "f.csv").write_text(f"0.0\n{math.log(2):.17g}\n")
    commands = (
        ["track", "--config", str(config), "--output-dir", str(tmp_path / "out"),
         "--workers", "1"],
        ["solve", str(tmp_path / "p.csv"), str(tmp_path / "f.csv")],
    )
    tracer = spans.Tracer()
    try:
        tracer.install()  # inside: a failed install still undoes what it patched
        for argv in commands:
            with tracer.span("cli.main"):
                assert klwalk.cli.main(argv) == 0
    finally:
        tracer.uninstall()
    recorded = {span.name for span in tracer.spans}
    for name in ("online.phase_solve", "spectral.solve_mpe", "evaluate.pool_race",
                 "evaluate.summarize", "chains.invariant_distribution"):
        assert name in recorded, name
    assert spans.layer_metrics(tracer.spans, ops=2)["online.phases"][0] > 0
    for owner, leaf, original in originals:
        assert getattr(owner, leaf) is original, leaf
