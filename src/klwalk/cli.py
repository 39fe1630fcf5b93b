"""Command-line front end: ``solve``, ``track`` and ``plot``.

``solve`` runs the eigenproblem on a kernel/cost pair given as dense CSV
and prints the certified results. ``track`` replicates the graph
target-tracking experiment and writes per-run trace CSVs plus a regret
summary. Its JSON config holds the fields of ``evaluate.ExperimentSpec``
(a ``graph`` object in place of the graph itself) plus ``output_dir``;
every field has the spec's default and can be overridden with a
``KLWALK_``-prefixed environment variable, and the spec checks the
ranges. ``plot`` renders the summary as a self-contained SVG, no
plotting stack required.

Exit codes: 0 success, 2 parse/config errors, 3 assumption violations,
4 convergence failures.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path
from typing import Optional, TextIO, get_type_hints

import numpy as np

from .chains import CostFunction, StochasticMatrix, span_seminorm
from .errors import (
    ConvergenceError,
    NotErgodicError,
    NotUnichainError,
    ParseError,
)
from .evaluate import ExperimentSpec, run_experiment, summarize
from .policy import twisted_kernel, twisting_function
from .spectral import SolverSettings, acoe_residual, solve_mpe
from .world import Graph, grid_graph, load_graph

ENV_PREFIX = "KLWALK_"
_FLOAT_FMT = "%.17g"  # round-trippable float64 text


# ---------------------------------------------------------------------------
# experiment configuration


def _want(raw, path: str, kind, check=None, what: str = ""):
    if kind is str and not isinstance(raw, str):
        raise ParseError(f"config.{path}: expected a string, got {raw!r}")
    try:
        value = kind(raw)
    except (TypeError, ValueError, OverflowError):  # int(inf) overflows
        raise ParseError(f"config.{path}: expected {kind.__name__}, got {raw!r}")
    if isinstance(raw, bool) or (kind is int and isinstance(raw, float) and raw != int(raw)):
        raise ParseError(f"config.{path}: expected {kind.__name__}, got {raw!r}")
    if check is not None and not check(value):
        raise ParseError(f"config.{path}: {what}, got {raw!r}")
    return value


# every ExperimentSpec field but the graph, with the type its value is read as
_SCALAR_FIELDS = {
    name: kind for name, kind in get_type_hints(ExperimentSpec).items() if name != "graph"
}


def _parse_grid(raw, path: str) -> tuple[int, int]:
    if isinstance(raw, str):
        parts = raw.lower().replace("x", " ").split()
        if len(parts) != 2:
            raise ParseError(f"config.{path}: expected 'ROWSxCOLS', got {raw!r}")
        raw = parts
    if not isinstance(raw, (list, tuple)) or len(raw) != 2:
        raise ParseError(f"config.{path}: expected two integers, got {raw!r}")
    r = _want(raw[0], f"{path}[0]", int, lambda v: v >= 1, "must be >= 1")
    c = _want(raw[1], f"{path}[1]", int, lambda v: v >= 1, "must be >= 1")
    return (r, c)


def _read_edge_list(path: str) -> Graph:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ParseError(f"config.edge_list: cannot read {path!r}: {exc}")
    return load_graph(text)


def load_config(path: Optional[str], environ=os.environ) -> tuple[ExperimentSpec, str]:
    """Build the experiment from an optional JSON file plus environment
    overrides, and return it with the output directory; an empty (or
    missing) object yields the full default experiment, written to "out".

    Only parsing and type coercion happen here: the range checks are the
    spec's own, reported as ``config.<field>``.
    """
    data = {}
    if path is not None:
        try:
            text = Path(path).read_text()
        except OSError as exc:
            raise ParseError(f"config: cannot read {path!r}: {exc}")
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParseError(f"config: invalid JSON in {path!r}: {exc}")
        if not isinstance(data, dict):
            raise ParseError(f"config: top level must be an object, got {type(data).__name__}")

    fields: dict = {}
    grid, edge_list = None, None
    output_dir = "out"
    known = set(_SCALAR_FIELDS) | {"graph", "output_dir"}
    for key in data:
        if key not in known:
            raise ParseError(f"config.{key}: unknown field")

    graph_spec = data.get("graph", {})
    if graph_spec:
        if not isinstance(graph_spec, dict) or not set(graph_spec) <= {"grid", "edge_list"}:
            raise ParseError("config.graph: expected an object with 'grid' or 'edge_list'")
        if "grid" in graph_spec and "edge_list" in graph_spec:
            raise ParseError("config.graph: 'grid' and 'edge_list' are mutually exclusive")
        if "grid" in graph_spec:
            grid = _parse_grid(graph_spec["grid"], "graph.grid")
        else:
            edge_list = _want(graph_spec["edge_list"], "graph.edge_list", str)

    for name, kind in _SCALAR_FIELDS.items():
        if name in data:
            fields[name] = _want(data[name], name, kind)
    if "output_dir" in data:
        output_dir = _want(data["output_dir"], "output_dir", str)

    # environment overrides win over the file
    env_grid = environ.get(ENV_PREFIX + "GRID")
    env_edges = environ.get(ENV_PREFIX + "EDGE_LIST")
    if env_grid is not None and env_edges is not None:
        raise ParseError("config.graph: KLWALK_GRID and KLWALK_EDGE_LIST are mutually exclusive")
    if env_grid is not None:
        grid, edge_list = _parse_grid(env_grid, "graph.grid"), None
    elif env_edges is not None:
        grid, edge_list = None, env_edges
    for name, kind in _SCALAR_FIELDS.items():
        raw = environ.get(ENV_PREFIX + name.upper())
        if raw is not None:
            fields[name] = _want(raw, name, kind)
    output_dir = environ.get(ENV_PREFIX + "OUTPUT_DIR", output_dir)

    if grid is not None:
        fields["graph"] = grid_graph(*grid)
    elif edge_list is not None:
        fields["graph"] = _read_edge_list(edge_list)
    try:
        return ExperimentSpec(**fields), output_dir
    except ValueError as exc:
        raise ParseError(f"config.{exc}") from None


# ---------------------------------------------------------------------------
# CSV formats


def _parse_cells(path: str) -> tuple[np.ndarray, list[tuple[int, int]]]:
    """Every cell of a CSV file as one flat float64 array, in file order,
    plus the file line number and the number of cells of each data row
    (blank lines are skipped, but counted in the line numbers).

    Each row goes through one numpy string-to-float cast, which follows
    Python's ``float`` rules. Only when it fails are the row's cells tried
    one by one, to name the first bad cell and its line.
    """
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ParseError(f"{path}: cannot read: {exc}")
    values, rows = [], []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        cells = line.split(",")
        try:
            values.append(np.array(cells, dtype=np.float64))
        except ValueError:
            for cell in cells:
                try:
                    float(cell)
                except ValueError:
                    raise ParseError(
                        f"{path} line {lineno}: not a number: {cell.strip()!r}"
                    ) from None
            raise
        rows.append((lineno, len(cells)))
    if not values:
        raise ParseError(f"{path}: no data rows")
    return np.concatenate(values), rows


def read_matrix_csv(path: str) -> StochasticMatrix:
    """Dense CSV, one row per line; rows must already be stochastic."""
    values, data_rows = _parse_cells(path)
    n = len(data_rows)
    for lineno, width in data_rows:
        if width != n:
            raise ParseError(f"{path} line {lineno}: expected {n} columns, got {width}")
    rows = values.reshape(n, n)
    if not np.all(rows >= 0):  # also false for NaN
        bad = int(np.argwhere(~(rows >= 0))[0][0])
        raise ParseError(f"{path} line {data_rows[bad][0]}: negative or NaN entry")
    sums = rows.sum(axis=1)
    off = np.where(np.abs(sums - 1.0) > 1e-9)[0]
    if off.size:
        x = int(off[0])
        raise ParseError(
            f"{path} line {data_rows[x][0]}: row sums to {float(sums[x])!r}, expected 1"
        )
    return StochasticMatrix(rows)


def read_vector_csv(path: str, expected_n: Optional[int] = None) -> np.ndarray:
    """A vector as either one CSV row or one value per line."""
    vec, data_rows = _parse_cells(path)
    if len(data_rows) > 1 and any(width != 1 for _, width in data_rows):
        raise ParseError(f"{path}: expected a single row or a single column of numbers")
    if expected_n is not None and vec.shape[0] != expected_n:
        raise ParseError(f"{path}: expected {expected_n} values, got {vec.shape[0]}")
    return vec


def _open_output(path) -> TextIO:
    """``path`` opened for writing text; a path that cannot be written is
    a ParseError that names it."""
    try:
        return open(path, "w", newline="\n")
    except OSError as exc:
        raise ParseError(f"{path}: cannot write: {exc.strerror}") from None


def write_matrix_csv(path: Path, rows: np.ndarray):
    rows = np.atleast_2d(rows)
    line = ",".join([_FLOAT_FMT] * rows.shape[1]) + "\n"
    with _open_output(path) as fh:
        fh.writelines(line % tuple(row.tolist()) for row in rows)


def write_vector_csv(path: Path, vec: np.ndarray):
    line = _FLOAT_FMT + "\n"
    with _open_output(path) as fh:
        fh.writelines(line % v for v in np.asarray(vec).tolist())


# ---------------------------------------------------------------------------
# subcommands


# each SolverSettings field and the ``solve`` flag that sets it
_SOLVER_FLAGS = {"tolerance": "--tolerance", "max_iterations": "--max-iterations",
                 "pin_index": "--pin"}


def cmd_solve(args) -> int:
    try:
        settings = SolverSettings(
            tolerance=args.tolerance, max_iterations=args.max_iterations, pin_index=args.pin
        )
    except ValueError as exc:  # each message begins with the field's name
        raise ParseError(f"{_SOLVER_FLAGS[str(exc).split()[0]]}: {exc}") from None
    passive = read_matrix_csv(args.passive_csv)
    if args.pin >= passive.n:
        raise ParseError(f"--pin: state {args.pin} out of range for n={passive.n}")
    raw_cost = read_vector_csv(args.cost_csv, expected_n=passive.n)
    try:
        cost = CostFunction(raw_cost)
    except ValueError as exc:
        raise ParseError(f"{args.cost_csv}: {exc}")
    sol = solve_mpe(passive, cost, settings)
    pol = twisted_kernel(passive, twisting_function(cost, sol))
    residual = acoe_residual(passive, cost, sol)
    print(f"lambda = {sol.lam:.12f}")
    print(f"bracket = [{_FLOAT_FMT % sol.bracket[0]}, {_FLOAT_FMT % sol.bracket[1]}]"
          f" (width {sol.bracket[1] - sol.bracket[0]:.3e})")
    print(f"span_h = {span_seminorm(sol.h):.12f}")
    print(f"acoe_residual = {residual:.3e}")
    print(f"iterations = {sol.iterations}")
    if args.out_h:
        write_vector_csv(Path(args.out_h), sol.h)
        print(f"wrote h to {args.out_h}")
    if args.out_kernel:
        write_matrix_csv(Path(args.out_kernel), pol.kernel.rows)
        print(f"wrote twisted kernel to {args.out_kernel}")
    return 0


def _write_trace_csv(path: Path, trace):
    line = f"%d,%d,{_FLOAT_FMT},{_FLOAT_FMT},{_FLOAT_FMT},%d\n"
    columns = (np.arange(1, trace.horizon + 1), trace.states, trace.state_costs,
               trace.control_costs, trace.cumulative, trace.step_phases())
    with _open_output(path) as fh:
        fh.write("t,state,state_cost,control_cost,cum_cost,phase\n")
        fh.writelines(line % fields for fields in zip(*(c.tolist() for c in columns)))


def _write_summary_csv(path: Path, horizon: int, hindsight, pool):
    line = f"%d,{_FLOAT_FMT},{_FLOAT_FMT},{_FLOAT_FMT},{_FLOAT_FMT}\n"
    missing = np.full(horizon, np.nan)  # formats as "nan"
    columns = (np.arange(1, horizon + 1), hindsight.mean, hindsight.stddev,
               pool.mean if pool is not None else missing,
               pool.stddev if pool is not None else missing)
    with _open_output(path) as fh:
        fh.write("t,mean_regret_hindsight,std_regret_hindsight,"
                 "mean_regret_pool,std_regret_pool\n")
        fh.writelines(line % fields for fields in zip(*(c.tolist() for c in columns)))


def cmd_track(args) -> int:
    spec, output_dir = load_config(args.config)
    if args.seed is not None:
        try:
            spec = dataclasses.replace(spec, base_seed=args.seed)
        except ValueError as exc:
            raise ParseError(f"--seed: {exc}") from None
    if args.output_dir is not None:
        output_dir = args.output_dir
    workers = args.workers if args.workers is not None else (os.cpu_count() or 1)
    if workers < 1:
        raise ParseError(f"--workers: must be a positive integer, got {workers}")

    out_dir = Path(output_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ParseError(
            f"{output_dir}: cannot create the output directory: {exc.strerror}"
        ) from None

    result = run_experiment(spec, workers=workers)
    for i, trace in enumerate(result.traces):
        _write_trace_csv(out_dir / f"trace_run{i:03d}.csv", trace)
    hindsight = summarize(result.hindsight_regret, result.seeds)
    pool = summarize(result.pool_regret, result.seeds) if result.pool_regret is not None else None
    _write_summary_csv(out_dir / "summary.csv", spec.horizon, hindsight, pool)
    print(f"wrote {spec.runs} trace file(s) and summary.csv to {out_dir}")
    return 0


# ---------------------------------------------------------------------------
# SVG rendering (self-contained, no plotting stack)


def render_regret_svg(
    t: np.ndarray, mean: np.ndarray, std: Optional[np.ndarray], title: str = "regret vs time"
) -> str:
    """The mean regret as a line over a +-1 ``std`` band; no band when
    ``std`` is None."""
    width, height = 800, 500
    ml, mr, mt, mb = 70, 20, 40, 55
    spread = 0.0 if std is None else std
    lo = float(np.min(mean - spread))
    hi = float(np.max(mean + spread))
    if hi - lo < 1e-12:
        lo, hi = lo - 1.0, hi + 1.0
    x0, x1 = float(t[0]), float(t[-1])
    if x1 - x0 < 1e-12:
        x0, x1 = x0 - 0.5, x1 + 0.5

    def sx(x):
        return ml + (x - x0) / (x1 - x0) * (width - ml - mr)

    def sy(y):
        return height - mb - (y - lo) / (hi - lo) * (height - mt - mb)

    def pts(xs, ys):
        return " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(xs, ys))

    band = [] if std is None else [
        f'<polygon points="{pts(t, mean + std)} {pts(t[::-1], (mean - std)[::-1])}" '
        f'fill="#c8c8c8" stroke="none" opacity="0.8"/>'
    ]
    line = pts(t, mean)
    xticks = np.linspace(x0, x1, 5)
    yticks = np.linspace(lo, hi, 5)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.0f}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="16">{title}</text>',
        *band,
        f'<polyline points="{line}" fill="none" stroke="#cc2222" stroke-width="1.5"/>',
        f'<line x1="{ml}" y1="{height - mb}" x2="{width - mr}" y2="{height - mb}" '
        f'stroke="black"/>',
        f'<line x1="{ml}" y1="{mt}" x2="{ml}" y2="{height - mb}" stroke="black"/>',
    ]
    for xv in xticks:
        parts.append(
            f'<line x1="{sx(xv):.2f}" y1="{height - mb}" x2="{sx(xv):.2f}" '
            f'y2="{height - mb + 5}" stroke="black"/>'
            f'<text x="{sx(xv):.2f}" y="{height - mb + 20}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="12">{xv:g}</text>'
        )
    for yv in yticks:
        parts.append(
            f'<line x1="{ml - 5}" y1="{sy(yv):.2f}" x2="{ml}" y2="{sy(yv):.2f}" '
            f'stroke="black"/>'
            f'<text x="{ml - 8}" y="{sy(yv):.2f}" text-anchor="end" dominant-baseline="middle" '
            f'font-family="sans-serif" font-size="12">{yv:.4g}</text>'
        )
    parts.append(
        f'<text x="{(ml + width - mr) / 2:.0f}" y="{height - 12}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">t</text>'
    )
    parts.append(
        f'<text x="18" y="{(mt + height - mb) / 2:.0f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14" '
        f'transform="rotate(-90 18 {(mt + height - mb) / 2:.0f})">regret</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts)


def _read_summary(path: str, want_pool: bool):
    try:
        lines = Path(path).read_text().splitlines()
    except OSError as exc:
        raise ParseError(f"{path}: cannot read: {exc}")
    if not lines:
        raise ParseError(f"{path}: empty file")
    header = [h.strip() for h in lines[0].split(",")]
    expected = ["t", "mean_regret_hindsight", "std_regret_hindsight",
                "mean_regret_pool", "std_regret_pool"]
    if header != expected:
        raise ParseError(f"{path}: unexpected header {header!r}, expected {expected!r}")
    mean_col, std_col = (3, 4) if want_pool else (1, 2)
    t, mean, std = [], [], []
    for lineno, raw in enumerate(lines[1:], start=2):
        if not raw.strip():
            continue
        cells = raw.split(",")
        if len(cells) != 5:
            raise ParseError(f"{path} line {lineno}: expected 5 columns, got {len(cells)}")
        try:
            t.append(float(cells[0]))
            mean.append(float(cells[mean_col]))
            std.append(float(cells[std_col]))
        except ValueError:
            raise ParseError(f"{path} line {lineno}: not a number")
    if not t:
        raise ParseError(f"{path}: no data rows")
    mean = np.array(mean)
    std = np.array(std)
    if np.isnan(std).all():
        std = None  # a summary of one run has no spread
    if not (np.all(np.isfinite(mean)) and (std is None or np.all(np.isfinite(std)))):
        raise ParseError(f"{path}: selected columns contain non-finite values")
    return np.array(t), mean, std


def cmd_plot(args) -> int:
    which = "pool" if args.pool else "best-in-hindsight"
    t, mean, std = _read_summary(args.summary_csv, want_pool=args.pool)
    band = "" if std is None else " (±1 stddev)"
    svg = render_regret_svg(t, mean, std, title=f"mean regret vs {which}{band}")
    with _open_output(args.out_svg) as fh:
        fh.write(svg + "\n")
    print(f"wrote {args.out_svg}")
    return 0


# ---------------------------------------------------------------------------
# entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="klwalk",
        description="Controlled random walks with KL control cost: "
        "offline solver and online tracking experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve the eigenproblem for a kernel/cost CSV pair")
    p_solve.add_argument("passive_csv", help="dense CSV of the passive kernel")
    p_solve.add_argument("cost_csv", help="CSV of the state cost (row or column)")
    p_solve.add_argument("--tolerance", type=float, default=1e-12)
    p_solve.add_argument("--max-iterations", type=int, default=100_000)
    p_solve.add_argument("--pin", type=int, default=0, help="state pinned to h=0")
    p_solve.add_argument("--out-h", help="write the relative value function here")
    p_solve.add_argument("--out-kernel", help="write the optimal twisted kernel here")
    p_solve.set_defaults(func=cmd_solve)

    p_track = sub.add_parser("track", help="run the tracking experiment from a JSON config")
    p_track.add_argument("--config", help="JSON config path (defaults apply when omitted)")
    p_track.add_argument("--seed", type=int, help="override base_seed")
    p_track.add_argument("--workers", type=int, help="parallel replications (default: cores)")
    p_track.add_argument("--output-dir", help="override output_dir")
    p_track.set_defaults(func=cmd_track)

    p_plot = sub.add_parser("plot", help="render a summary CSV as a standalone SVG")
    p_plot.add_argument("summary_csv")
    p_plot.add_argument("out_svg")
    p_plot.add_argument("--pool", action="store_true",
                        help="plot the pool-baseline columns instead of best-in-hindsight")
    p_plot.set_defaults(func=cmd_plot)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NotErgodicError, NotUnichainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ConvergenceError as exc:
        print(f"error: {exc} (best bracket {exc.bracket})", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
