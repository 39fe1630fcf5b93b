"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines as they
are produced. The replicated tracking experiment behind criteria 7 and 8
runs once per session (a couple of minutes); everything else is fast.
"""

import json
import math
import time

import numpy as np
import pytest

from klwalk import (
    CostFunction,
    ExperimentSpec,
    StochasticMatrix,
    acoe_residual,
    bound_constants,
    dobrushin_coefficient,
    ergodicity_report,
    grid_graph,
    growth_exponent,
    kl_divergence,
    optimal_policy,
    realized_expected_comparator_cost,
    run_experiment,
    run_tracking_once,
    sample_policy_pool,
    solve_mpe,
    span_seminorm,
    split_seed,
    steady_state_cost,
    steady_state_comparator_cost,
    twisted_kernel,
)
from klwalk.cli import main as cli_main

from conftest import eigen_oracle, pooled_policy

BASE_SEED = 20120601


def report(number, ok, detail):
    print(f"\nCRITERION {number:2d} {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


@pytest.fixture(scope="session")
def solved_instances():
    """1000 random desk-scale instances with solver + oracle results,
    shared by criteria 1 and 3. The elapsed solver+oracle time is kept
    for criterion 1's runtime budget."""
    rng = np.random.default_rng(1729)
    instances = []
    start = time.monotonic()
    for _ in range(1000):
        n = int(rng.integers(2, 9))
        passive = StochasticMatrix(rng.dirichlet(np.ones(n), size=n))
        f = CostFunction(rng.random(n))
        sol = solve_mpe(passive, f)
        lam_oracle, _ = eigen_oracle(passive, f)
        instances.append((passive, f, sol, lam_oracle))
    elapsed = time.monotonic() - start
    return instances, elapsed


@pytest.fixture(scope="session")
def tracking_batch():
    """The 20-run desk-scale tracking experiment behind criteria 7 and 8."""
    spec = ExperimentSpec(graph=grid_graph(10, 10), runs=20, pool_size=1000, base_seed=BASE_SEED)
    start = time.monotonic()
    result = run_experiment(spec, workers=2)
    elapsed = time.monotonic() - start
    return spec, result, elapsed


def test_criterion_01_solver_oracle_equivalence(solved_instances):
    instances, elapsed = solved_instances
    worst_rel = 0.0
    worst_resid = 0.0
    for passive, f, sol, lam_oracle in instances:
        rel = abs(sol.lam - lam_oracle) / max(abs(lam_oracle), 1e-12)
        worst_rel = max(worst_rel, rel)
        worst_resid = max(worst_resid, acoe_residual(passive, f, sol))
    ok = worst_rel <= 1e-8 and worst_resid <= 1e-8 and elapsed <= 30.0
    report(1, ok, f"1000 instances, worst rel err {worst_rel:.2e}, "
                  f"worst residual {worst_resid:.2e}, {elapsed:.1f}s")
    assert worst_rel <= 1e-8
    assert worst_resid <= 1e-8
    assert elapsed <= 30.0


def test_criterion_02_closed_form_fixed_points():
    rng = np.random.default_rng(4)
    checks = []
    for trial in range(5):
        n = int(rng.integers(2, 7))
        passive = StochasticMatrix(rng.dirichlet(np.ones(n), size=n))
        zero = CostFunction(np.zeros(n))
        sol = solve_mpe(passive, zero)
        twisted = twisted_kernel(passive, sol.h)
        checks.append(abs(sol.lam) <= 1e-10)
        checks.append(np.abs(sol.h).max() <= 1e-10)
        checks.append(np.abs(twisted.kernel.rows - passive.rows).max() <= 1e-10)
        c = float(rng.uniform(0.1, 2.0))
        sol_c = solve_mpe(passive, CostFunction(np.full(n, c)))
        checks.append(abs(sol_c.lam - c) <= 1e-10)
        checks.append(np.abs(sol_c.h).max() <= 1e-10)
    two_state = StochasticMatrix([[0.5, 0.5], [0.5, 0.5]])
    sol2 = solve_mpe(two_state, CostFunction([0.0, math.log(2)]))
    checks.append(abs(sol2.lam - math.log(4 / 3)) <= 1e-10)
    checks.append(np.abs(sol2.v - np.array([1.0, 0.5])).max() <= 1e-10)
    ok = all(checks)
    report(2, ok, "f=0, f=const and the 2-state worked example all within 1e-10")
    assert ok


def test_criterion_03_value_span_bound(solved_instances):
    instances, _ = solved_instances
    worst_slack = -math.inf
    for passive, f, sol, _ in instances:
        rep = ergodicity_report(passive)
        bound = math.log(1.0 / rep.theta) + rep.nbar * f.max()
        worst_slack = max(worst_slack, span_seminorm(sol.h) - bound)
    ok = worst_slack <= 1e-12
    report(3, ok, f"span(h) - bound peaked at {worst_slack:.2e} over 1000 instances")
    assert worst_slack <= 1e-12


def test_criterion_04_twisted_kernel_continuity_bounds():
    rng = np.random.default_rng(1001)
    worst_kl = -math.inf
    worst_tv = -math.inf
    for _ in range(1000):
        n = int(rng.integers(2, 7))
        passive = StochasticMatrix(rng.dirichlet(np.ones(n), size=n))
        phi = rng.normal(size=n) * 1.5
        psi = rng.normal(size=n) * 1.5
        span = span_seminorm(phi - psi)
        a = twisted_kernel(passive, phi).kernel.rows
        b = twisted_kernel(passive, psi).kernel.rows
        for x in range(n):
            worst_kl = max(worst_kl, kl_divergence(a[x], b[x]) - span**2 / 8)
            worst_tv = max(worst_tv, np.abs(a[x] - b[x]).sum() - span / 2)
    ok = worst_kl <= 1e-12 and worst_tv <= 1e-12
    report(4, ok, f"KL slack {worst_kl:.2e}, TV slack {worst_tv:.2e} over 1000 sweeps")
    assert worst_kl <= 1e-12
    assert worst_tv <= 1e-12


def test_criterion_05_steady_state_optimality():
    rng = np.random.default_rng(555)
    worst_eq = 0.0
    worst_gap = -math.inf
    for instance in range(50):
        n = int(rng.integers(2, 7))
        passive = StochasticMatrix(rng.dirichlet(np.ones(n), size=n))
        f = CostFunction(rng.random(n))
        pol = optimal_policy(passive, f)
        best = steady_state_cost(f, pol)
        lam = solve_mpe(passive, f).lam
        worst_eq = max(worst_eq, abs(best - lam))
        pool = sample_policy_pool(passive, 1000, seed=split_seed(555, instance))
        for i in range(len(pool)):
            worst_gap = max(worst_gap, best - steady_state_cost(f, pooled_policy(pool, i)))
    ok = worst_eq <= 1e-8 and worst_gap <= 1e-10
    report(5, ok, f"|J - lambda| peaked at {worst_eq:.2e}; "
                  f"optimal-minus-sampled peaked at {worst_gap:.2e} (50x1000 policies)")
    assert worst_eq <= 1e-8
    assert worst_gap <= 1e-10


def test_criterion_06_uniform_cost_bound_on_grid():
    spec = ExperimentSpec(graph=grid_graph(10, 10))
    passive = spec.passive()
    consts = bound_constants(passive, cost_cap=1.0)
    trace, _ = run_tracking_once(spec, split_seed(BASE_SEED, 4242))
    per_step = trace.state_costs + trace.control_costs
    alpha = dobrushin_coefficient(passive)
    # 1e-12 guards float summation only; the bounds themselves are exact
    ok = per_step.max() <= consts.k0 + 1e-12 and alpha <= 0.99 + 1e-12
    report(6, ok, f"max per-step cost {per_step.max():.4f} <= K0 {consts.k0:.4f}; "
                  f"alpha(P*) {alpha:.6f} <= 0.99")
    assert per_step.max() <= consts.k0 + 1e-12
    assert alpha <= 0.99 + 1e-12


def test_criterion_07_sublinear_regret(tracking_batch):
    spec, result, elapsed = tracking_batch
    mean = result.hindsight_regret.mean(axis=0)
    finite = bool(np.all(np.isfinite(mean)))
    exponent = growth_exponent(mean, burn_in=99)  # window t in [100, 1000]
    per_round_drop = mean[999] / 1000 < mean[99] / 100
    within_budget = elapsed <= 300.0
    ok = finite and exponent < 0.9 and per_round_drop and within_budget
    report(7, ok,
           f"mean regret finite={finite}; exponent over [100,1000]={exponent}; "
           f"R_t/t at 100={mean[99] / 100:.4f} vs at 1000={mean[999] / 1000:.4f}; "
           f"runtime {elapsed:.0f}s")
    assert finite
    assert within_budget
    # The two shape checks below fail at desk scale and are asserted as
    # stated anyway: the mean regret against the best-in-hindsight
    # comparator is negative from t=1 to about t=340 on the 10x10 grid
    # (min -11.60 at t=133). Billing the comparator its steady-state cost
    # from step 1 explains less than a tenth of that: with its state law
    # propagated exactly, the curve still crosses zero only near t=324.
    # The curve reads the prefix of one comparator, tuned to the average
    # of all T costs, as the regret of the shorter t-round games. Against
    # the best stationary policy for the first t costs, t * lambda(mean of
    # the first t costs), the regret is positive over the whole window,
    # and at t=T the two curves agree. The pinned curve's own tail stays
    # positive and per-round decreasing (see
    # test_criterion_07_positive_tail_diagnostic).
    assert exponent < 0.9, (
        f"growth exponent is {exponent} because the mean regret is not "
        f"positive over the whole [100, 1000] window (min "
        f"{mean[99:].min():.2f} at t={100 + int(mean[99:].argmin())})"
    )
    assert per_round_drop, (
        f"mean per-round regret at t=1000 ({mean[999] / 1000:.4f}) is not "
        f"below its value at t=100 ({mean[99] / 100:.4f}), which is negative"
    )


def test_criterion_07_positive_tail_diagnostic(tracking_batch):
    # not an acceptance criterion: documents the behaviour behind the
    # criterion-7 failure. Once the mean regret turns positive it keeps
    # growing sublinearly in the per-round sense (R_t/t decreasing); a
    # log-log exponent fitted right after the zero crossing is biased
    # upward by the small base values, so it is printed, not asserted.
    _, result, _ = tracking_batch
    mean = result.hindsight_regret.mean(axis=0)
    crossing = int(np.nonzero(mean <= 0)[0].max()) + 2 if np.any(mean <= 0) else 1
    print(f"\nmean regret positive from t={crossing}; "
          f"R_t/t at 500={mean[499] / 500:.4f}, at 1000={mean[999] / 1000:.4f}")
    assert mean[999] > 0
    assert crossing < 500
    assert mean[999] / 1000 < mean[499] / 500


def test_criterion_08_pool_baseline(tracking_batch):
    spec, result, _ = tracking_batch
    mean_final = float(result.pool_regret.mean(axis=0)[-1])
    ok = mean_final <= 0.0
    report(8, ok, f"mean regret vs best of 1000 sampled policies at T: {mean_final:.1f}")
    assert mean_final <= 0.0


def test_criterion_09_steady_state_gap_bound():
    rng = np.random.default_rng(99)
    horizon = 300
    worst_ratio = 0.0
    comparators = 0
    while comparators < 100:
        passive = StochasticMatrix(rng.dirichlet(np.ones(5), size=5))
        consts = bound_constants(passive, cost_cap=1.0)
        costs = rng.random((horizon, 5))
        pool = sample_policy_pool(passive, 10, seed=int(rng.integers(1 << 30)))
        for pol in (pooled_policy(pool, i) for i in range(len(pool))):
            rho = dobrushin_coefficient(pol.kernel)
            if rho >= 1.0 - 1e-9:
                continue
            realized = realized_expected_comparator_cost(pol, costs, start=0)
            steady = steady_state_comparator_cost(pol, costs)
            gap = float(np.abs(realized - steady).max())
            bound = 2 * consts.k0 / (1 - rho)
            worst_ratio = max(worst_ratio, gap / bound)
            comparators += 1
    ok = worst_ratio <= 1.0 + 1e-9
    report(9, ok, f"gap/bound peaked at {worst_ratio:.3f} over {comparators} comparators")
    assert worst_ratio <= 1.0 + 1e-9


def test_criterion_10_cli_determinism(tmp_path):
    config = {
        "graph": {"grid": [4, 4]},
        "horizon": 60,
        "runs": 2,
        "pool_size": 25,
        "base_seed": 31415,
    }
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cli_main(["track", "--config", str(cfg), "--output-dir", str(out_a)]) == 0
    assert cli_main(["track", "--config", str(cfg), "--output-dir", str(out_b)]) == 0
    names = sorted(p.name for p in out_a.iterdir())
    assert names == sorted(p.name for p in out_b.iterdir())
    identical = all((out_a / n).read_bytes() == (out_b / n).read_bytes() for n in names)
    report(10, identical, f"{len(names)} output files byte-identical across reruns")
    assert identical
