import importlib
import importlib.util
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from klwalk import (
    CostFunction,
    ExperimentSpec,
    ParseError,
    bfs_distances,
    build_passive,
    grid_graph,
    solve_mpe,
    twisted_kernel,
)
from klwalk.cli import (
    SUMMARY_COLUMNS,
    _read_summary,
    _write_summary_csv,
    _write_trace_csv,
    load_config,
    main,
    read_matrix_csv,
    read_vector_csv,
    render_regret_svg,
    write_matrix_csv,
    write_vector_csv,
)
from klwalk.online import RunTrace


def write(path, text):
    path.write_text(text)
    return str(path)


TWO_STATE_CSV = "0.5,0.5\n0.5,0.5\n"
LOG2 = math.log(2)


class TestConfig:
    def test_empty_object_yields_full_defaults(self, tmp_path):
        cfg, output_dir = load_config(write(tmp_path / "c.json", "{}"), environ={})
        assert cfg == ExperimentSpec() and output_dir == "out"
        assert cfg.horizon == 1000 and cfg.runs == 100 and cfg.pool_size == 1000
        assert cfg.stay_prob == 0.01 and cfg.delta == 0.01 and cfg.epsilon == 0.05
        assert cfg.graph == grid_graph(10, 10)

    def test_no_file_is_defaults(self):
        assert load_config(None, environ={}) == (ExperimentSpec(), "out")

    def test_field_path_diagnostics(self, tmp_path):
        path = write(tmp_path / "c.json", json.dumps({"epsilon": 0.5}))
        with pytest.raises(Exception, match="config.epsilon"):
            load_config(path, environ={})
        path = write(tmp_path / "c.json", json.dumps({"graph": {"grid": [0, 3]}}))
        with pytest.raises(Exception, match=r"config.graph.grid\[0\]"):
            load_config(path, environ={})
        path = write(tmp_path / "c.json", json.dumps({"mystery": 1}))
        with pytest.raises(Exception, match="config.mystery"):
            load_config(path, environ={})

    def test_env_overrides_win(self, tmp_path):
        path = write(tmp_path / "c.json", json.dumps({"horizon": 50}))
        cfg, _ = load_config(path, environ={"KLWALK_HORIZON": "75", "KLWALK_GRID": "4x5"})
        assert cfg.horizon == 75
        assert cfg.graph == grid_graph(4, 5)

    def test_later_layer_wins(self, tmp_path):
        # file < environment < flags, field by field; a None flag is unset
        edges = write(tmp_path / "g.txt", "0 1\n1 2\n")
        path = write(tmp_path / "c.json", json.dumps(
            {"base_seed": 1, "output_dir": "file", "graph": {"grid": [2, 2]}}))
        env = {"KLWALK_BASE_SEED": "2", "KLWALK_OUTPUT_DIR": "env", "KLWALK_EDGE_LIST": edges}
        cfg, output_dir = load_config(path, environ={}, flags={"base_seed": None})
        assert (cfg.base_seed, output_dir, cfg.graph) == (1, "file", grid_graph(2, 2))
        cfg, output_dir = load_config(path, environ=env)
        assert (cfg.base_seed, output_dir, cfg.graph.n) == (2, "env", 3)
        cfg, output_dir = load_config(path, environ=env,
                                      flags={"base_seed": 3, "output_dir": "flag"})
        assert (cfg.base_seed, output_dir, cfg.graph.n) == (3, "flag", 3)
        assert load_config(None, environ={}, flags={"output_dir": "flag"})[1] == "flag"

    def test_graph_built_once_from_the_last_layer(self, tmp_path):
        # an edge list the environment replaces is never read
        missing = str(tmp_path / "missing.txt")
        path = write(tmp_path / "c.json", json.dumps({"graph": {"edge_list": missing}}))
        cfg, _ = load_config(path, environ={"KLWALK_GRID": "4x5"})
        assert cfg.graph == grid_graph(4, 5)
        with pytest.raises(ParseError, match="config.edge_list: cannot read"):
            load_config(path, environ={})

    def test_env_overrides_validated(self):
        with pytest.raises(Exception, match="config.runs"):
            load_config(None, environ={"KLWALK_RUNS": "zero"})

    def test_edge_list_source(self, tmp_path):
        edges = write(tmp_path / "g.txt", "0 1\n1 2\n")
        path = write(tmp_path / "c.json", json.dumps({"graph": {"edge_list": edges}}))
        cfg, _ = load_config(path, environ={})
        assert cfg.graph.n == 3

    def test_mutually_exclusive_sources(self, tmp_path):
        path = write(
            tmp_path / "c.json",
            json.dumps({"graph": {"grid": [2, 2], "edge_list": "x"}}),
        )
        with pytest.raises(Exception, match="mutually exclusive"):
            load_config(path, environ={})
        both = {"KLWALK_GRID": "2x2", "KLWALK_EDGE_LIST": "x"}
        with pytest.raises(ParseError, match="^config.graph: 'grid' and 'edge_list' are "
                                             "mutually exclusive$"):
            load_config(None, environ=both)


class TestCsvRoundTrip:
    def test_matrix_round_trip(self, tmp_path, rng):
        rows = np.random.default_rng(3).dirichlet(np.ones(4), size=4)
        path = tmp_path / "m.csv"
        write_matrix_csv(path, rows)
        back = read_matrix_csv(str(path))
        assert np.abs(back.rows - rows).max() <= 1e-12

    def test_vector_round_trip(self, tmp_path):
        vec = np.array([0.0, math.pi, -1.25e-7])
        path = tmp_path / "v.csv"
        write_vector_csv(path, vec)
        np.testing.assert_array_equal(read_vector_csv(str(path)), vec)

    def test_vector_accepts_single_row_form(self, tmp_path):
        path = write(tmp_path / "v.csv", "0.25,0.5,0.25\n")
        np.testing.assert_array_equal(read_vector_csv(path), [0.25, 0.5, 0.25])

    def test_matrix_nan_entry_line_numbered(self, tmp_path):
        path = write(tmp_path / "m.csv", "0.5,0.5\nnan,nan\n")
        with pytest.raises(ParseError, match="line 2"):
            read_matrix_csv(path)

    def test_matrix_zero_row_sum_line_numbered(self, tmp_path):
        path = write(tmp_path / "m.csv", "0.5,0.5\n0.0,0.0\n")
        with pytest.raises(Exception, match="line 2"):
            read_matrix_csv(path)


    def test_bad_cell_named_with_its_line(self, tmp_path):
        path = write(tmp_path / "m.csv", "\n0.5,0.5\n\n0.5, x1 \n")
        with pytest.raises(ParseError, match=r"m.csv line 4: not a number: 'x1'$"):
            read_matrix_csv(path)
        path = write(tmp_path / "v.csv", "0.5\n0.5\x00\n")
        with pytest.raises(ParseError, match=r"line 2: not a number: '0.5\\x00'$"):
            read_vector_csv(path)

    def test_bad_cell_reported_before_column_count(self, tmp_path):
        path = write(tmp_path / "m.csv", "0.5,0.5\n0.5\n1.0,nope\n")
        with pytest.raises(ParseError, match="line 3: not a number: 'nope'"):
            read_matrix_csv(path)
        path = write(tmp_path / "m.csv", "0.5,0.5\n1.0\n")
        with pytest.raises(ParseError, match="line 2: expected 2 columns, got 1"):
            read_matrix_csv(path)

    @pytest.mark.parametrize("text, message", [
        ("\n\n0.5,0.5\n1\n", r"m.csv line 4: expected 2 columns, got 1$"),
        ("\n0.5,0.5\n\n-0.5,1.5\n", r"m.csv line 4: negative or NaN entry$"),
        ("0.5,0.5\n\n\n0.7,0.7\n", r"m.csv line 4: row sums to 1.4, expected 1$"),
    ], ids=["columns", "negative", "row-sum"])
    def test_errors_name_the_file_line_past_blank_lines(self, tmp_path, text, message):
        path = write(tmp_path / "m.csv", text)
        with pytest.raises(ParseError, match=message):
            read_matrix_csv(path)

    def test_python_float_spellings_accepted(self, tmp_path):
        cells = [" 1.5", "1_0", "inf", "-nan", "+Infinity", "1e400", "4.9e-324", "\u00a02.5 "]
        path = write(tmp_path / "v.csv", ",".join(cells) + "\n")
        vec = read_vector_csv(path)
        np.testing.assert_array_equal(vec, [float(c) for c in cells])
        assert np.isnan(vec[3])


def old_row(values) -> str:
    """The per-element formatting the writers must reproduce byte for byte."""
    return ",".join("{:.17g}".format(v) for v in values) + "\n"


SPECIAL_VALUES = [
    0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324, 2.2250738585072014e-308,
    1e16, 1e15 + 0.5, 1 / 3, -2.5e-7, 123456789012345678.0, 1.0, float(np.nextafter(1.0, 2.0)),
]


class TestCsvWriters:
    def test_special_values_match_per_element_format(self, tmp_path):
        rows = np.array([SPECIAL_VALUES, SPECIAL_VALUES[::-1]])
        write_matrix_csv(tmp_path / "m.csv", rows)
        assert (tmp_path / "m.csv").read_text() == "".join(old_row(r) for r in rows)
        write_vector_csv(tmp_path / "v.csv", np.array(SPECIAL_VALUES))
        assert (tmp_path / "v.csv").read_text() == "".join(old_row([v]) for v in SPECIAL_VALUES)

    def test_twisted_kernel_15x15_matches_per_element_format(self, tmp_path):
        graph = grid_graph(15, 15)
        passive = build_passive(graph, stay_prob=0.01, delta=0.01, home=0)
        hops, diameter = bfs_distances(graph)
        cost = CostFunction(hops[:, 112] / diameter)
        sol = solve_mpe(passive, cost)
        rows = twisted_kernel(passive, sol.h).kernel.rows
        write_matrix_csv(tmp_path / "K.csv", rows)
        assert (tmp_path / "K.csv").read_text() == "".join(old_row(r) for r in rows)
        write_vector_csv(tmp_path / "h.csv", sol.h)
        assert (tmp_path / "h.csv").read_text() == "".join(old_row([v]) for v in sol.h)

    def test_trace_and_summary_lines_match_per_element_format(self, tmp_path):
        values = np.array(SPECIAL_VALUES)
        horizon = values.size
        trace = RunTrace(states=np.arange(horizon) % 4, state_costs=values,
                         control_costs=values[::-1], cumulative=np.linspace(0.0, 1e20, horizon),
                         phase_boundaries=[0, 2, 9])
        _write_trace_csv(tmp_path / "trace.csv", trace)
        fmt = "{:.17g}".format
        expected = "t,state,state_cost,control_cost,cum_cost,phase\n" + "".join(
            f"{t + 1},{int(trace.states[t])},{fmt(trace.state_costs[t])},"
            f"{fmt(trace.control_costs[t])},{fmt(trace.cumulative[t])},{trace.step_phases()[t]}\n"
            for t in range(horizon)
        )
        assert (tmp_path / "trace.csv").read_text() == expected
        stats = (values, values[::-1])
        for pool in (None, (-values, values * 2)):
            _write_summary_csv(tmp_path / "summary.csv", horizon, stats, pool)
            lines = (tmp_path / "summary.csv").read_text().splitlines(keepends=True)[1:]
            for t, line in enumerate(lines):
                pm = fmt(pool[0][t]) if pool is not None else "nan"
                ps = fmt(pool[1][t]) if pool is not None else "nan"
                assert line == f"{t + 1},{fmt(values[t])},{fmt(values[-1 - t])},{pm},{ps}\n"
            assert len(lines) == horizon

    def test_summary_round_trip_bit_equal(self, tmp_path):
        rng = np.random.default_rng(5)
        horizon = 40
        hindsight = (rng.normal(size=horizon) * 10, rng.random(horizon))
        pool = (rng.normal(size=horizon) * 1e-7, rng.random(horizon) * 1e5)
        path = tmp_path / "summary.csv"
        _write_summary_csv(path, horizon, hindsight, pool)
        for want_pool, (mean, std) in ((False, hindsight), (True, pool)):
            t, got_mean, got_std = _read_summary(str(path), want_pool)
            assert t.tobytes() == np.arange(1.0, horizon + 1).tobytes()
            assert got_mean.tobytes() == mean.tobytes()
            assert got_std.tobytes() == std.tobytes()


class TestCmdSolve:
    def test_two_state_worked_example(self, tmp_path, capsys):
        passive = write(tmp_path / "p.csv", TWO_STATE_CSV)
        cost = write(tmp_path / "f.csv", f"0.0\n{LOG2:.17g}\n")
        out_kernel = tmp_path / "kernel.csv"
        out_h = tmp_path / "h.csv"
        code = main(["solve", passive, cost,
                     "--out-kernel", str(out_kernel), "--out-h", str(out_h)])
        assert code == 0
        printed = capsys.readouterr().out
        assert "lambda = 0.287682" in printed
        kern = read_matrix_csv(str(out_kernel))
        np.testing.assert_allclose(kern.rows, [[2 / 3, 1 / 3]] * 2, atol=1e-10)
        h = read_vector_csv(str(out_h))
        np.testing.assert_allclose(h, [0.0, LOG2], atol=1e-10)

    def test_zero_cost_reports_zero_and_echoes_kernel(self, tmp_path, capsys):
        passive = write(tmp_path / "p.csv", TWO_STATE_CSV)
        cost = write(tmp_path / "f.csv", "0.0\n0.0\n")
        out_kernel = tmp_path / "kernel.csv"
        assert main(["solve", passive, cost, "--out-kernel", str(out_kernel)]) == 0
        assert "lambda = 0.000000" in capsys.readouterr().out
        np.testing.assert_allclose(
            read_matrix_csv(str(out_kernel)).rows, [[0.5, 0.5]] * 2, atol=1e-15
        )

    def test_constant_cost_writes_passive_kernel_exactly(self, tmp_path, rng):
        # a constant cost has h exactly 0, so h is written as zeros and the
        # twist is the identity: the kernel file is the passive file byte for byte
        rows = rng.dirichlet(np.ones(5), size=5)
        rows[1, 2] = 0.0
        rows[1] /= rows[1].sum()
        passive = tmp_path / "p.csv"
        write_matrix_csv(passive, rows)
        cost = write(tmp_path / "f.csv", "0.7\n" * 5)
        out_h, out_kernel = tmp_path / "h.csv", tmp_path / "kernel.csv"
        assert main(["solve", str(passive), cost, "--out-h", str(out_h),
                     "--out-kernel", str(out_kernel)]) == 0
        assert out_h.read_text().splitlines() == ["0"] * 5
        assert out_kernel.read_bytes() == passive.read_bytes()

    def test_parse_error_exit_code(self, tmp_path, capsys):
        passive = write(tmp_path / "p.csv", "0.5,0.5\n0.7,0.7\n")
        cost = write(tmp_path / "f.csv", "0.0\n0.0\n")
        assert main(["solve", passive, cost]) == 2
        assert "line 2" in capsys.readouterr().err

    def test_assumption_error_exit_code(self, tmp_path, capsys):
        passive = write(tmp_path / "p.csv", "0.0,1.0\n1.0,0.0\n")
        cost = write(tmp_path / "f.csv", "0.0\n0.5\n")
        assert main(["solve", passive, cost]) == 3

    def test_solve_never_builds_the_full_report(self, tmp_path, monkeypatch, capsys):
        def refuse(*args):
            raise AssertionError("klwalk solve built the full ergodicity report")

        for target in ("klwalk.chains.dobrushin_coefficient", "klwalk.chains.ergodicity_report",
                       "klwalk.spectral.ergodicity_report", "klwalk.policy.ergodicity_report"):
            monkeypatch.setattr(target, refuse)
        passive = write(tmp_path / "p.csv", "0.2,0.8,0.0\n0.0,0.3,0.7\n0.6,0.0,0.4\n")
        cost = write(tmp_path / "f.csv", "0.0\n0.5\n1.0\n")
        assert main(["solve", passive, cost, "--out-kernel", str(tmp_path / "k.csv")]) == 0
        assert "lambda = " in capsys.readouterr().out
        periodic = write(tmp_path / "q.csv", "0.0,1.0,0.0\n0.0,0.0,1.0\n1.0,0.0,0.0\n")
        assert main(["solve", periodic, cost]) == 3
        assert "aperiodic=False" in capsys.readouterr().err

    def test_convergence_error_exit_code(self, tmp_path):
        passive = write(tmp_path / "p.csv", TWO_STATE_CSV)
        cost = write(tmp_path / "f.csv", "0.0\n0.5\n")
        assert main(["solve", passive, cost, "--max-iterations", "1"]) == 4

    @pytest.mark.parametrize("flag, value", [
        ("--pin", "-1"), ("--pin", "5"), ("--tolerance", "0"), ("--tolerance", "nan"),
        ("--tolerance", "inf"), ("--max-iterations", "0"),
    ])
    def test_bad_solver_flag_exit_2_naming_the_flag(self, tmp_path, capsys, flag, value):
        passive = write(tmp_path / "p.csv", TWO_STATE_CSV)
        cost = write(tmp_path / "f.csv", "0.0\n0.5\n")
        assert main(["solve", passive, cost, flag, value]) == 2
        assert capsys.readouterr().err.startswith(f"error: {flag}: ")

    @pytest.mark.parametrize("flag", ["--out-h", "--out-kernel"])
    def test_unwritable_output_exit_2_naming_the_path(self, tmp_path, capsys, flag):
        passive = write(tmp_path / "p.csv", TWO_STATE_CSV)
        cost = write(tmp_path / "f.csv", "0.0\n0.5\n")
        target = str(tmp_path / "missing" / "out.csv")
        assert main(["solve", passive, cost, flag, target]) == 2
        assert f"error: {target}: cannot write" in capsys.readouterr().err


TRACK_REFERENCE = Path(__file__).resolve().parent / "data" / "track-4x4"


def read_table(path):
    """A CSV's header names and its rows as one float array."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        return header, np.loadtxt(fh, delimiter=",", ndmin=2)


SMOKE_CONFIG = {
    "graph": {"grid": [3, 3]},
    "horizon": 10,
    "runs": 1,
    "pool_size": 3,
    "base_seed": 9,
}


class TestCmdTrack:
    def test_smoke_single_run(self, tmp_path, capsys):
        cfg = write(tmp_path / "c.json", json.dumps(SMOKE_CONFIG))
        out = tmp_path / "out"
        assert main(["track", "--config", cfg, "--output-dir", str(out),
                     "--workers", "1"]) == 0
        trace = (out / "trace_run000.csv").read_text().splitlines()
        assert trace[0] == "t,state,state_cost,control_cost,cum_cost,phase"
        assert len(trace) == 11  # header + 10 rows
        summary = (out / "summary.csv").read_text().splitlines()
        assert summary[0] == ("t,mean_regret_hindsight,std_regret_hindsight,"
                              "mean_regret_pool,std_regret_pool")
        assert len(summary) == 11

    def test_trace_file_fields_finite(self, tmp_path):
        cfg = write(tmp_path / "c.json", json.dumps({**SMOKE_CONFIG, "runs": 2}))
        out = tmp_path / "out"
        main(["track", "--config", cfg, "--output-dir", str(out), "--workers", "1"])
        rows = (out / "trace_run001.csv").read_text().splitlines()[1:]
        for row in rows:
            cells = row.split(",")
            assert len(cells) == 6
            assert all(math.isfinite(float(c)) for c in cells)

    def test_byte_identical_reruns(self, tmp_path):
        cfg = write(tmp_path / "c.json",
                    json.dumps({**SMOKE_CONFIG, "runs": 2, "horizon": 30}))
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        main(["track", "--config", cfg, "--output-dir", str(out_a), "--workers", "1"])
        main(["track", "--config", cfg, "--output-dir", str(out_b), "--workers", "2"])
        for name in ("trace_run000.csv", "trace_run001.csv", "summary.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_single_vertex_graph_costs_nothing(self, tmp_path):
        # diameter 0: every cost row is zero, so every regret column is too
        config = {"graph": {"grid": [1, 1]}, "horizon": 30, "runs": 2, "pool_size": 5}
        cfg = write(tmp_path / "c.json", json.dumps(config))
        out = tmp_path / "out"
        assert main(["track", "--config", cfg, "--output-dir", str(out),
                     "--workers", "1"]) == 0
        for name in ("trace_run000.csv", "trace_run001.csv"):
            rows = (out / name).read_text().splitlines()[1:]
            assert len(rows) == 30
            assert all(float(row.split(",")[2]) == 0.0 for row in rows)
        summary = (out / "summary.csv").read_text().splitlines()[1:]
        assert len(summary) == 30
        assert all(float(cell) == 0.0 for row in summary for cell in row.split(",")[1:])

    def test_output_matches_committed_reference(self, tmp_path):
        # criterion 10's config against committed outputs written with
        # --workers 1, on perfbench's reference rule: t, state and phase exact,
        # every other value within 1e-9 relative, NaN matching NaN
        config = {"graph": {"grid": [4, 4]}, "horizon": 60, "runs": 2, "pool_size": 25,
                  "base_seed": 31415}
        cfg = write(tmp_path / "c.json", json.dumps(config))
        out = tmp_path / "out"
        assert main(["track", "--config", cfg, "--output-dir", str(out),
                     "--workers", "1"]) == 0
        names = sorted(path.name for path in TRACK_REFERENCE.iterdir())
        assert names == sorted(path.name for path in out.iterdir())
        for name in names:
            header, ref = read_table(TRACK_REFERENCE / name)
            got_header, got = read_table(out / name)
            assert got_header == header and got.shape == ref.shape, name
            exact = [header.index(col) for col in ("t", "state", "phase") if col in header]
            assert np.array_equal(got[:, exact], ref[:, exact]), name
            gap = np.where(np.isnan(got) & np.isnan(ref), 0.0, np.abs(got - ref))
            assert np.all(gap <= 1e-9 * np.maximum(1.0, np.nan_to_num(np.abs(ref)))), name

    def test_config_schema_violation_exit_code(self, tmp_path, capsys):
        cfg = write(tmp_path / "c.json", json.dumps({"horizon": -5}))
        out = tmp_path / "out"
        assert main(["track", "--config", cfg, "--output-dir", str(out)]) == 2
        assert "config.horizon" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("graph", [[], None, 0, "", False],
                             ids=["list", "null", "zero", "empty-string", "false"])
    def test_falsy_non_object_graph_exit_2(self, tmp_path, capsys, graph):
        # only an object selects a graph; {} is the default grid, [] is not
        cfg = write(tmp_path / "c.json", json.dumps({**SMOKE_CONFIG, "graph": graph}))
        out = tmp_path / "out"
        assert main(["track", "--config", cfg, "--output-dir", str(out)]) == 2
        assert "config.graph" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "overrides, env, extra, field",
        [
            ({"dirichlet_alpha": math.inf}, {}, [], "config.dirichlet_alpha"),
            ({}, {"KLWALK_DIRICHLET_ALPHA": "inf"}, [], "config.dirichlet_alpha"),
            ({"horizon": math.inf}, {}, [], "config.horizon"),
            ({}, {}, ["--seed", "-5"], "config.base_seed: "),
            ({"start": 9}, {}, [], "config.start"),
            # a malformed value fails even where a later layer replaces it
            ({"horizon": "ten"}, {"KLWALK_HORIZON": "10"}, [], "config.horizon"),
            ({"base_seed": "x"}, {}, ["--seed", "5"], "config.base_seed"),
            ({}, {"KLWALK_BASE_SEED": "1.5"}, ["--seed", "5"], "config.base_seed"),
            ({"output_dir": 7}, {}, [], "config.output_dir"),
            ({}, {"KLWALK_GRID": "3x3", "KLWALK_EDGE_LIST": "g.txt"}, [], "config.graph"),
        ],
        ids=["json-inf-alpha", "env-inf-alpha", "inf-horizon", "negative-seed", "start-off-graph",
             "json-horizon-under-env", "json-seed-under-flag", "env-seed-under-flag",
             "json-output-dir-under-flag", "env-grid-and-edge-list"],
    )
    def test_bad_values_exit_2_naming_the_field(
        self, tmp_path, capsys, monkeypatch, overrides, env, extra, field
    ):
        # JSON has no infinity; the literal 1e400 overflows to it when parsed
        text = json.dumps({**SMOKE_CONFIG, **overrides}).replace("Infinity", "1e400")
        cfg = write(tmp_path / "c.json", text)
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        out = tmp_path / "out"
        assert main(["track", "--config", cfg, "--output-dir", str(out), *extra]) == 2
        assert field in capsys.readouterr().err
        assert not out.exists()

    def test_output_dir_that_is_a_file_exit_2_before_running(
        self, tmp_path, capsys, monkeypatch
    ):
        def refuse(*args, **kwargs):
            raise AssertionError("the experiment ran before its output directory existed")

        monkeypatch.setattr("klwalk.cli.run_experiment", refuse)
        cfg = write(tmp_path / "c.json", json.dumps(SMOKE_CONFIG))
        taken = write(tmp_path / "taken", "a file, not a directory\n")
        assert main(["track", "--config", cfg, "--output-dir", taken, "--workers", "1"]) == 2
        assert f"error: {taken}: cannot create the output directory" in capsys.readouterr().err

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_exit_2(self, tmp_path, capsys, workers):
        cfg = write(tmp_path / "c.json", json.dumps(SMOKE_CONFIG))
        out = tmp_path / "out"
        assert main(["track", "--config", cfg, "--output-dir", str(out),
                     "--workers", workers]) == 2
        assert "--workers" in capsys.readouterr().err
        assert not out.exists()

    def test_byte_identical_across_blas_threads_and_workers(self, tmp_path):
        cfg = write(tmp_path / "c.json", json.dumps({
            "graph": {"grid": [10, 10]}, "horizon": 50, "runs": 2,
            "pool_size": 0, "base_seed": 9,
        }))
        src = str(Path(__file__).resolve().parents[1] / "src")
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}"
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": src}
            subprocess.run(
                [sys.executable, "-m", "klwalk.cli", "track", "--config", cfg,
                 "--output-dir", str(out), "--workers", threads],
                env=env, check=True, capture_output=True, timeout=120,
            )
            outputs.append({f.name: f.read_bytes() for f in sorted(out.iterdir())})
        assert sorted(outputs[0]) == ["summary.csv", "trace_run000.csv", "trace_run001.csv"]
        assert outputs[0] == outputs[1]

    def test_flags_beat_environment_beat_file(self, tmp_path, monkeypatch):
        out = {name: tmp_path / name for name in ("file", "env", "flag", "ref")}
        cfg = write(tmp_path / "c.json",
                    json.dumps({**SMOKE_CONFIG, "base_seed": 1, "output_dir": str(out["file"])}))
        monkeypatch.setenv("KLWALK_BASE_SEED", "2")
        monkeypatch.setenv("KLWALK_OUTPUT_DIR", str(out["env"]))
        assert main(["track", "--config", cfg, "--workers", "1", "--seed", "3",
                     "--output-dir", str(out["flag"])]) == 0
        assert not out["file"].exists() and not out["env"].exists()
        monkeypatch.delenv("KLWALK_BASE_SEED")
        ref = write(tmp_path / "ref.json", json.dumps({**SMOKE_CONFIG, "base_seed": 3}))
        assert main(["track", "--config", ref, "--workers", "1",
                     "--output-dir", str(out["ref"])]) == 0
        for name in ("trace_run000.csv", "summary.csv"):
            assert (out["flag"] / name).read_bytes() == (out["ref"] / name).read_bytes()

    def test_seed_flag_overrides(self, tmp_path):
        cfg = write(tmp_path / "c.json", json.dumps(SMOKE_CONFIG))
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        main(["track", "--config", cfg, "--output-dir", str(out_a),
              "--workers", "1", "--seed", "1234"])
        main(["track", "--config", cfg, "--output-dir", str(out_b),
              "--workers", "1"])
        assert (out_a / "trace_run000.csv").read_bytes() != \
            (out_b / "trace_run000.csv").read_bytes()


class TestCmdPlot:
    @staticmethod
    def summary_text(values):
        lines = ["t,mean_regret_hindsight,std_regret_hindsight,"
                 "mean_regret_pool,std_regret_pool"]
        for t, (m, s) in enumerate(values, start=1):
            lines.append(f"{t},{m},{s},{-m},{s}")
        return "\n".join(lines) + "\n"

    def test_flat_zero_summary(self, tmp_path):
        path = write(tmp_path / "s.csv", self.summary_text([(0.0, 0.0)] * 5))
        out = tmp_path / "plot.svg"
        assert main(["plot", path, str(out)]) == 0
        svg = out.read_text()
        assert svg.startswith("<svg") or svg.startswith("<?xml") or "<svg" in svg
        assert "<polyline" in svg and "<polygon" in svg

    def test_two_point_summary_polyline(self, tmp_path):
        path = write(tmp_path / "s.csv", self.summary_text([(1.0, 0.5), (2.0, 0.25)]))
        out = tmp_path / "plot.svg"
        assert main(["plot", path, str(out)]) == 0
        svg = out.read_text()
        polyline = svg.split("<polyline points=\"")[1].split("\"")[0]
        assert len(polyline.split()) == 2  # one vertex per summary row
        band = svg.split("<polygon points=\"")[1].split("\"")[0]
        assert len(band.split()) == 4

    def test_pool_columns(self, tmp_path):
        path = write(tmp_path / "s.csv", self.summary_text([(1.0, 0.1), (3.0, 0.1)]))
        out = tmp_path / "plot.svg"
        assert main(["plot", path, str(out), "--pool"]) == 0

    def test_single_run_summary_draws_the_mean_without_a_band(self, tmp_path):
        cfg = write(tmp_path / "c.json", json.dumps(SMOKE_CONFIG))  # runs: 1
        out = tmp_path / "out"
        assert main(["track", "--config", cfg, "--output-dir", str(out), "--workers", "1"]) == 0
        summary = out / "summary.csv"
        assert summary.read_text().splitlines()[1].split(",")[2] == "nan"
        svg_path = tmp_path / "plot.svg"
        assert main(["plot", str(summary), str(svg_path)]) == 0
        svg = svg_path.read_text()
        polyline = svg.split("<polyline points=\"")[1].split("\"")[0]
        assert len(polyline.split()) == SMOKE_CONFIG["horizon"]
        assert "<polygon" not in svg and "stddev" not in svg

    def test_partly_nan_std_exit_2(self, tmp_path, capsys):
        path = write(tmp_path / "s.csv", self.summary_text([(1.0, 0.5), (2.0, math.nan)]))
        assert main(["plot", path, str(tmp_path / "x.svg")]) == 2
        assert "non-finite" in capsys.readouterr().err

    def test_pool_columns_without_a_pool_exit_2(self, tmp_path, capsys):
        cfg = write(tmp_path / "c.json", json.dumps({**SMOKE_CONFIG, "pool_size": 0}))
        out = tmp_path / "out"
        assert main(["track", "--config", cfg, "--output-dir", str(out), "--workers", "1"]) == 0
        assert main(["plot", str(out / "summary.csv"), str(tmp_path / "x.svg"), "--pool"]) == 2
        assert "non-finite" in capsys.readouterr().err

    def test_unwritable_svg_path_exit_2(self, tmp_path, capsys):
        path = write(tmp_path / "s.csv", self.summary_text([(1.0, 0.5), (2.0, 0.25)]))
        target = str(tmp_path / "missing" / "x.svg")
        assert main(["plot", path, target]) == 2
        assert f"error: {target}: cannot write" in capsys.readouterr().err

    def test_schema_mismatch_exit_code(self, tmp_path, capsys):
        path = write(tmp_path / "s.csv", "t,regret\n1,0.5\n")
        assert main(["plot", path, str(tmp_path / "x.svg")]) == 2
        assert "header" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, message",
        [
            ("", "s.csv: empty file"),
            (",".join(SUMMARY_COLUMNS) + "\n\n", "s.csv: no data rows"),
            (",".join(SUMMARY_COLUMNS) + "\n1,0,0,0,0\n2,0,0,0\n",
             "s.csv line 3: expected 5 columns, got 4"),
            # a column the plot does not draw is still checked
            (",".join(SUMMARY_COLUMNS) + "\n1,0,0,x,0\n", "s.csv line 2: not a number: 'x'"),
        ],
        ids=["empty", "header-only", "short-row", "bad-pool-cell"],
    )
    def test_malformed_summary_exit_2_naming_the_line(self, tmp_path, capsys, text, message):
        path = write(tmp_path / "s.csv", text)
        assert main(["plot", path, str(tmp_path / "x.svg")]) == 2
        assert capsys.readouterr().err.strip().endswith(message)

    def test_render_svg_is_self_contained(self):
        t = np.arange(1, 11, dtype=float)
        svg = render_regret_svg(t, np.sqrt(t), np.ones(10) * 0.2)
        assert "href" not in svg and "script" not in svg


def load_benchmark_spans(monkeypatch):
    """The benchmark's tracer module, ``perfbench/spans.py``."""
    spans_path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", spans_path)
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)  # its dataclasses look it up
    spec.loader.exec_module(spans)
    return spans


def test_benchmark_trace_points_resolve(monkeypatch):
    # the benchmark's tracer wraps these (module, attribute) names; each must
    # still exist for the per-layer metrics to mean anything
    spans = load_benchmark_spans(monkeypatch)
    assert spans.PATCH_POINTS
    for module_name, attr, _ in spans.PATCH_POINTS:
        owner = importlib.import_module(module_name)
        for part in attr.split("."):
            owner = getattr(owner, part)
        assert callable(owner), (module_name, attr)


def test_benchmark_tracer_reads_a_traced_track_run(tmp_path, monkeypatch):
    # the wrappers must also read the arguments of the calls they see
    spans = load_benchmark_spans(monkeypatch)
    from klwalk import _accel

    walker = _accel.markov_path
    cfg = write(tmp_path / "c.json", json.dumps(SMOKE_CONFIG))
    tracer = spans.Tracer()
    tracer.install()
    try:
        with tracer.span("cli.main"):
            assert main(["track", "--config", cfg, "--output-dir", str(tmp_path / "out"),
                         "--workers", "1"]) == 0
    finally:
        tracer.uninstall()
    assert _accel.markov_path is walker
    metrics = spans.layer_metrics(tracer.spans, ops=1)
    assert all(math.isfinite(value) for value, _ in metrics.values())
    assert metrics["accel.markov_path.calls"][0] > 0
    assert metrics["accel.markov_path.steps"][0] > 0
    # the pool is drawn and raced inside the run's job, which the tracer still sees
    assert metrics["evaluate.sample_policy_pool.share"][0] > 0
    assert metrics["evaluate.pool_race.share"][0] > 0
