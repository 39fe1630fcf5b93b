import collections
import math
import multiprocessing
import os
import pickle
import time
import warnings
from dataclasses import replace

import numpy as np
import pytest

from klwalk import (
    CostFunction,
    DimensionMismatchError,
    ExperimentSpec,
    NotUnichainError,
    StochasticMatrix,
    best_in_hindsight,
    bound_constants,
    build_passive,
    growth_exponent,
    grid_graph,
    invariant_distribution,
    monte_carlo,
    optimal_policy,
    pool_best_realized_cost,
    realized_expected_comparator_cost,
    rows_kl,
    make_tracking_env,
    run_experiment,
    run_tracking_once,
    sample_policy_pool,
    split_seed,
    steady_state_comparator_cost,
    summarize,
)
from klwalk import _accel, evaluate
from klwalk.chains import dobrushin_coefficient, draw_table
from klwalk.policy import KlPolicy

from conftest import (
    dense_markov_path,
    passive_policy,
    pick_from_cdf,
    pooled_policy,
    random_cost,
    random_ergodic_kernel,
    renormalized,
    run_within,
    stacked_pool,
)

TWO_STATE = StochasticMatrix([[0.5, 0.5], [0.5, 0.5]])
TWO_STATE_COST = CostFunction([0.0, math.log(2)])


class TestSplitSeed:
    def test_deterministic_and_distinct(self):
        seeds = [split_seed(123, i) for i in range(100)]
        assert seeds == [split_seed(123, i) for i in range(100)]
        assert len(set(seeds)) == 100

    def test_frozen_values(self):
        # guard against silent changes to the mixing constants; the first is
        # the textbook splitmix64 output for seed 0
        assert split_seed(0, 0) == 16294208416658607535
        assert split_seed(42, 7) == 14769051326987775908


class TestSteadyStateComparatorCost:
    def test_zero_costs_zero_trace(self):
        costs = np.zeros((5, 2))
        out = steady_state_comparator_cost(passive_policy(TWO_STATE), costs)
        np.testing.assert_array_equal(out, 0.0)

    def test_constant_cost_linear_prefix(self, rng):
        p = random_ergodic_kernel(rng, 3)
        c = 0.4
        costs = np.full((7, 3), c)
        out = steady_state_comparator_cost(passive_policy(p), costs)
        np.testing.assert_allclose(out, c * np.arange(1, 8), atol=1e-12)

    def test_two_state_optimal_policy_charges_lambda(self):
        pol = optimal_policy(TWO_STATE, TWO_STATE_COST)
        costs = np.tile(TWO_STATE_COST.values, (9, 1))
        out = steady_state_comparator_cost(pol, costs)
        np.testing.assert_allclose(out, math.log(4 / 3) * np.arange(1, 10), atol=1e-8)


class TestRealizedExpectedComparatorCost:
    def test_matches_manual_propagation(self, rng):
        p = random_ergodic_kernel(rng, 4)
        pol = optimal_policy(p, random_cost(rng, 4))
        costs = rng.random((6, 4))
        got = realized_expected_comparator_cost(pol, costs, start=2)
        nu = np.zeros(4)
        nu[2] = 1.0
        total = 0.0
        expected = []
        for f in costs:
            total += float(nu @ (f + pol.control_cost))
            expected.append(total)
            nu = nu @ pol.kernel.rows
        np.testing.assert_allclose(got, expected, atol=1e-12)

    def test_converges_to_steady_state_rate(self, rng):
        p = random_ergodic_kernel(rng, 4)
        pol = optimal_policy(p, random_cost(rng, 4))
        costs = rng.random((300, 4))
        realized = realized_expected_comparator_cost(pol, costs, start=0)
        steady = steady_state_comparator_cost(pol, costs)
        gap = np.abs(realized - steady)
        assert gap[-1] <= gap[:10].max() + 1e-9  # transient, not growing


class TestBestInHindsight:
    def test_zero_costs_returns_passive(self, rng):
        p = random_ergodic_kernel(rng, 3)
        pol = best_in_hindsight(p, np.zeros((4, 3)))
        assert pol.kernel is p

    def test_single_repeated_cost_matches_offline_solve(self, rng):
        p = random_ergodic_kernel(rng, 4)
        f = random_cost(rng, 4)
        a = best_in_hindsight(p, np.tile(f.values, (6, 1)))
        b = optimal_policy(p, f)
        np.testing.assert_allclose(a.kernel.rows, b.kernel.rows, atol=1e-12)

    def test_mixed_sequence_averages(self):
        costs = np.array([[0.0, 0.0], [0.0, 2 * math.log(2)]])
        pol = best_in_hindsight(TWO_STATE, costs)
        np.testing.assert_allclose(
            pol.kernel.rows, [[2 / 3, 1 / 3], [2 / 3, 1 / 3]], atol=1e-10
        )

    def test_empty_costs_rejected(self, rng):
        with pytest.raises(ValueError, match="empty cost sequence"):
            best_in_hindsight(random_ergodic_kernel(rng, 3), np.empty((0, 3)))

    @pytest.mark.parametrize("shape", [(4, 2), (3,), (4, 3, 1)])
    def test_cost_shape_checked(self, rng, shape):
        with pytest.raises(DimensionMismatchError):
            best_in_hindsight(random_ergodic_kernel(rng, 3), np.zeros(shape))


def reference_pool(passive, pool_size, seed):
    """The sampler one policy at a time: one ``rng.dirichlet`` call per row
    and one ``invariant_distribution`` rejection check per policy."""
    rng = np.random.default_rng([seed, evaluate._POOL_STREAM])
    supports = [np.nonzero(row)[0] for row in passive.rows]
    pool = []
    while len(pool) < pool_size:
        rows = np.zeros((passive.n, passive.n))
        for x, sup in enumerate(supports):
            rows[x, sup] = rng.dirichlet(np.ones(sup.shape[0]))
        kernel = StochasticMatrix(rows)
        try:
            invariant_distribution(kernel)
        except NotUnichainError:
            continue
        pool.append((kernel.rows, rows_kl(rows, passive.rows)))
    return pool


def uneven_kernel_with_transient_state():
    """Row supports of 1 to 5 states; state 0 is left at once and never
    re-entered."""
    pattern = np.array([
        [0, 1, 1, 1, 0, 1],
        [0, 1, 1, 0, 0, 0],
        [0, 1, 1, 1, 1, 1],
        [0, 0, 1, 0, 1, 0],
        [0, 1, 0, 1, 1, 0],
        [0, 0, 0, 1, 0, 0],
    ], dtype=float)
    weights = pattern * np.random.default_rng(3).uniform(0.5, 1.5, pattern.shape)
    return renormalized(weights)


POOL_ORACLE_KERNELS = {
    "grid-10x10": lambda: build_passive(grid_graph(10, 10), 0.01, 0.01, home=0),
    "dense-12": lambda: random_ergodic_kernel(np.random.default_rng(11), 12),
    "uneven-transient": uneven_kernel_with_transient_state,
}


class TestSamplePolicyPool:
    @pytest.mark.parametrize("name", sorted(POOL_ORACLE_KERNELS))
    def test_bit_identical_to_per_row_sampler(self, name):
        # 37 policies: several whole blocks and a partial one
        passive = POOL_ORACLE_KERNELS[name]()
        want = reference_pool(passive, 37, seed=2024)
        got = sample_policy_pool(passive, 37, seed=2024)
        assert len(got) == len(want)
        for i, (rows, control) in enumerate(want):
            pol = pooled_policy(got, i)
            assert np.array_equal(pol.kernel.rows, rows)
            assert np.array_equal(pol.control_cost, control)

    def test_fallback_alone_gives_the_same_pool(self, monkeypatch):
        passive = POOL_ORACLE_KERNELS["uneven-transient"]()
        structural = sample_policy_pool(passive, 20, seed=8)
        draw = evaluate._SupportLayout.draw

        def never_structural(layout, rng, kernels):
            weights, mask = draw(layout, rng, kernels)
            return weights, np.zeros_like(mask)

        # every draw now takes the invariant_distribution path
        monkeypatch.setattr(evaluate._SupportLayout, "draw", never_structural)
        fallback = sample_policy_pool(passive, 20, seed=8)
        assert len(structural) == len(fallback)
        for i in range(len(structural)):
            a, b = pooled_policy(structural, i), pooled_policy(fallback, i)
            assert np.array_equal(a.kernel.rows, b.kernel.rows)
            assert np.array_equal(a.control_cost, b.control_cost)

    def test_makes_no_dense_solve(self, monkeypatch):
        passive = POOL_ORACLE_KERNELS["grid-10x10"]()
        want = sample_policy_pool(passive, 20, seed=4)

        def refuse(*args, **kwargs):
            raise AssertionError("dense stationarity solve")

        monkeypatch.setattr(np.linalg, "solve", refuse)
        got = sample_policy_pool(passive, 20, seed=4)
        assert np.array_equal(got.weights, want.weights)
        assert np.array_equal(got.control_cost, want.control_cost)

    def test_multichain_passive_raises_instead_of_hanging(self):
        # two closed classes: no policy inside the support is unichain
        half = [[0.5, 0.5], [0.5, 0.5]]
        rows = np.zeros((4, 4))
        rows[:2, :2] = half
        rows[2:, 2:] = half
        with pytest.raises(NotUnichainError):
            run_within(10, sample_policy_pool, StochasticMatrix(rows), 1, 0)

    def test_reproducible(self, rng):
        p = random_ergodic_kernel(rng, 4)
        a = sample_policy_pool(p, 3, seed=5)
        b = sample_policy_pool(p, 3, seed=5)
        for i in range(3):
            np.testing.assert_array_equal(pooled_policy(a, i).kernel.rows,
                                          pooled_policy(b, i).kernel.rows)

    def test_support_equals_passive_support(self):
        p = StochasticMatrix([[0.5, 0.5, 0.0], [0.25, 0.5, 0.25], [0.0, 0.5, 0.5]])
        pool = sample_policy_pool(p, 10, seed=1)
        for pol in (pooled_policy(pool, i) for i in range(len(pool))):
            assert np.array_equal(pol.kernel.rows > 0, p.rows > 0)
            assert np.all(np.isfinite(pol.control_cost))

    def test_pool_arrays_stay_compact(self):
        # 400 dense 10x10 kernels alone would take 32 MB
        pool = sample_policy_pool(POOL_ORACLE_KERNELS["grid-10x10"](), 400, seed=3)
        arrays = [v for part in (pool, pool.layout) for v in vars(part).values()
                  if isinstance(v, np.ndarray)]
        assert len(arrays) == 7
        assert sum(a.nbytes for a in arrays) < 5e6

    def test_policies_built_once_from_read_only_arrays(self, rng):
        pool = sample_policy_pool(random_ergodic_kernel(rng, 4), 3, seed=5)
        for arr in (pool.weights, pool.control_cost, pool.bounds):
            assert not arr.flags.writeable
        with pytest.raises(AttributeError):
            pool.weights = None

    def test_read_only_across_pickle(self, rng):
        pool = sample_policy_pool(random_ergodic_kernel(rng, 4), 3, seed=5)
        restored = pickle.loads(pickle.dumps(pool))
        for name in ("weights", "control_cost", "bounds"):
            arr = getattr(restored, name)
            assert np.array_equal(arr, getattr(pool, name)) and not arr.flags.writeable
        with pytest.raises(ValueError):
            restored.weights[0, 0] = 5.0
        with pytest.raises(AttributeError):
            restored.weights = None
        assert np.array_equal(pooled_policy(restored, 2).kernel.rows,
                              pooled_policy(pool, 2).kernel.rows)

    def test_mean_control_cost_positive(self, rng):
        p = random_ergodic_kernel(rng, 5)
        pool = sample_policy_pool(p, 50, seed=2)
        mean_cc = np.mean([pooled_policy(pool, i).control_cost.mean() for i in range(len(pool))])
        assert mean_cc > 0.01


def reference_race(policies, costs, start, seed):
    """The pool race one policy at a time over dense CDFs: returns the
    winner's index and its prefix cost trace."""
    horizon = costs.shape[0]
    steps = np.arange(horizon)
    best_index, best_per_step, best_total = None, None, math.inf
    for i, candidate in enumerate(policies):
        rng = np.random.default_rng(split_seed(seed, i))
        states = dense_markov_path(candidate.kernel.rows, start, rng.random(horizon - 1))
        per_step = costs[steps, states] + candidate.control_cost[states]
        total = float(per_step.sum())
        if total < best_total:
            best_index, best_per_step, best_total = i, per_step, total
    return best_index, np.cumsum(best_per_step)


def crafted_pick_kernel():
    """Rows that stress the inverse-CDF draw: leading and trailing zeros,
    one-entry rows at either end, and rows whose CDF stops below 1 (the
    rounding gap), one with a last entry too small to move the CDF."""
    n = 12
    rows = np.zeros((n, n))
    rows[0, 2:4] = 0.5
    rows[1, n - 1] = 1.0
    rows[2, 0] = 1.0
    rows[3, :10] = 0.1  # CDF ends at 1 - 2^-53
    rows[4, :10] = 0.1
    rows[4, 10] = 1e-300  # CDF stays at 1 - 2^-53: the draw walks back past it
    rows[5, 1:11] = 0.1
    rows[6:] = np.eye(n)[(np.arange(6, n) + 1) % n] * 0.25 + 0.75 / n
    return StochasticMatrix(rows)


class TestVectorizedPick:
    @pytest.mark.parametrize("union", [False, True], ids=["own-support", "union-support"])
    def test_matches_pick_from_cdf(self, union):
        # stacked alone, the crafted kernel keeps its own supports; stacked
        # beside a full-support kernel its zeros become zero-weight slots
        kernel = crafted_pick_kernel()
        policies = [KlPolicy(kernel=kernel, control_cost=np.zeros(kernel.n))]
        if union:
            full = StochasticMatrix(np.full((kernel.n, kernel.n), 1.0 / kernel.n))
            policies.append(KlPolicy(kernel=full, control_cost=np.zeros(kernel.n)))
        pool = stacked_pool(policies)
        gap = np.nextafter(1.0, 0.0)
        cdf = np.cumsum(kernel.rows, axis=1)
        for x in range(kernel.n):
            us = np.concatenate([
                [0.0, gap, 0.5, np.nextafter(0.5, 0.0)],
                cdf[x], np.nextafter(cdf[x], 0.0), np.linspace(0.0, gap, 41),
            ])
            us = us[us < 1.0]
            bounds = np.repeat(pool.bounds[:1], us.size, axis=0)
            got = _accel.markov_paths(bounds, pool.layout.columns, x, us[:, np.newaxis])
            want = [pick_from_cdf(cdf[x], u) for u in us]
            assert np.array_equal(got[:, 0], np.full(us.size, x))
            assert got[:, 1].tolist() == want, x
        assert cdf[3, -1] <= gap and cdf[4, -1] <= gap  # the gap rows are hit

    def test_long_walks_match_markov_path(self):
        kernel = crafted_pick_kernel()
        pool = stacked_pool([KlPolicy(kernel=kernel, control_cost=np.zeros(12))])
        uniforms = np.random.default_rng(5).random((3, 500))
        got = _accel.markov_paths(np.repeat(pool.bounds, 3, axis=0), pool.layout.columns, 4, uniforms)
        for walk, u in zip(got, uniforms):
            want = dense_markov_path(kernel.rows, 4, u)
            assert np.array_equal(walk, want)
            assert np.array_equal(_accel.markov_path(draw_table(kernel), 4, u), want)

    def test_horizon_one_has_no_uniforms(self):
        kernel = crafted_pick_kernel()
        pool = stacked_pool([KlPolicy(kernel=kernel, control_cost=np.zeros(12))])
        got = _accel.markov_paths(np.repeat(pool.bounds, 2, axis=0), pool.layout.columns, 7,
                                  np.empty((2, 0)))
        assert got.shape == (2, 1) and np.all(got == 7)


RACE_KERNELS = {
    "grid-10x10": (POOL_ORACLE_KERNELS["grid-10x10"], lambda n, t: make_tracking_env(
        grid_graph(10, 10), seed=31).stream(t)),
    "uneven-transient": (uneven_kernel_with_transient_state,
                         lambda n, t: np.random.default_rng(t).random((t, n))),
}


class TestPoolRaceOracle:
    @pytest.mark.parametrize("size", [1, 63, 64, 65, 130])
    @pytest.mark.parametrize("name", sorted(RACE_KERNELS))
    def test_same_winner_and_trace_as_per_policy_loop(self, name, size):
        make_passive, make_costs = RACE_KERNELS[name]
        passive = make_passive()
        pool = sample_policy_pool(passive, size, seed=size)
        policies = [pooled_policy(pool, i) for i in range(size)]
        for horizon, start, seed in ((40, 0, 3), (1, 1, 4)):
            costs = make_costs(passive.n, horizon)
            want_index, want_trace = reference_race(policies, costs, start, seed)
            best, trace = pool_best_realized_cost(pool, costs, start, seed)
            assert best == want_index
            assert np.array_equal(trace, want_trace)

    @pytest.mark.parametrize("name", sorted(RACE_KERNELS))
    def test_plain_list_with_duplicates(self, name):
        make_passive, make_costs = RACE_KERNELS[name]
        passive = make_passive()
        drawn = sample_policy_pool(passive, 70, seed=1)
        sampled = [pooled_policy(drawn, i) for i in range(70)]
        policies = [passive_policy(passive)] + sampled[:40] + [passive_policy(passive)] + sampled[40:]
        pool = stacked_pool(policies)
        for costs in (make_costs(passive.n, 30), np.zeros((30, passive.n))):
            want_index, want_trace = reference_race(policies, costs, 0, 9)
            best, trace = pool_best_realized_cost(pool, costs, 0, 9)
            assert best == want_index
            assert np.array_equal(trace, want_trace)
        assert want_index == 0  # the zero-cost tie between the two passives


class TestPoolBestRealizedCost:
    def test_passive_wins_on_zero_costs(self, rng):
        p = random_ergodic_kernel(rng, 3)
        sampled = sample_policy_pool(p, 4, seed=9)
        pool = stacked_pool([passive_policy(p)] + [pooled_policy(sampled, i) for i in range(4)])
        costs = np.zeros((10, 3))
        best, trace = pool_best_realized_cost(pool, costs, start=0, seed=3)
        assert best == 0
        np.testing.assert_array_equal(trace, 0.0)

    def test_ties_break_to_lowest_index(self, rng):
        # two zero-control policies on zero costs tie at 0; index 0 wins
        p = random_ergodic_kernel(rng, 3)
        pool = stacked_pool([passive_policy(p), passive_policy(p)])
        costs = np.zeros((8, 3))
        best, _ = pool_best_realized_cost(pool, costs, start=0, seed=6)
        assert best == 0

    def test_singleton_pool(self, rng):
        p = random_ergodic_kernel(rng, 3)
        pool = sample_policy_pool(p, 1, seed=4)
        costs = rng.random((5, 3))
        best, trace = pool_best_realized_cost(pool, costs, start=0, seed=3)
        assert best == 0
        assert trace.shape == (5,)
        assert np.all(np.diff(trace) >= -1e-12)

    def test_winner_beats_median(self, rng):
        spec_graph = grid_graph(4, 4)
        from klwalk import build_passive, make_tracking_env

        p = build_passive(spec_graph, 0.01, 0.01, home=0)
        env = make_tracking_env(spec_graph, seed=31)
        costs = env.stream(60)
        pool = sample_policy_pool(p, 100, seed=17)
        best, best_trace = pool_best_realized_cost(pool, costs, start=0, seed=23)
        totals = []
        for i in range(len(pool)):
            _, tr = pool_best_realized_cost(stacked_pool([pooled_policy(pool, i)]), costs,
                                            start=0, seed=split_seed(23, i))
            totals.append(tr[-1])
        # the winner's realized total is at or below the pool median
        assert best_trace[-1] <= np.median(totals)


class TestExperimentSpec:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("horizon", 0),
            ("epsilon", 1 / 3),
            ("stay_prob", 1.0),
            ("delta", 1.0),
            ("home", 9),
            ("start", -1),
            ("dirichlet_alpha", math.inf),
            ("dirichlet_alpha", math.nan),
            ("runs", 0),
            ("pool_size", -1),
            ("base_seed", -5),
        ],
    )
    def test_range_checks_name_the_field(self, field, value):
        spec = ExperimentSpec(graph=grid_graph(3, 3))
        with pytest.raises(ValueError, match=f"^{field}: "):
            replace(spec, **{field: value})

    def test_passive_built_once_per_experiment(self, monkeypatch):
        built = []
        real = evaluate.build_passive
        monkeypatch.setattr(
            evaluate, "build_passive", lambda *args: built.append(args) or real(*args)
        )
        spec = ExperimentSpec(graph=grid_graph(3, 3), horizon=10, runs=2, pool_size=3)
        run_experiment(spec)
        assert len(built) == 1
        assert spec.passive() is spec.passive()


def assert_read_only_vectors(*arrays, horizon):
    for arr in arrays:
        assert isinstance(arr, np.ndarray) and not arr.flags.writeable
        assert arr.dtype == np.float64 and arr.shape == (horizon,)


class TestSummarize:
    def test_single_run_is_its_own_mean_with_nan_spread(self):
        row = np.array([[0.5, -1.25, 3.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mean, stddev = summarize(row)
        assert_read_only_vectors(mean, stddev, horizon=3)
        np.testing.assert_array_equal(mean, row[0])
        assert np.isnan(stddev).all()

    def test_identical_rows_zero_stddev(self):
        row = np.array([0.5, -1.25, 3.0])
        mean, stddev = summarize(np.stack([row, row]))
        assert_read_only_vectors(mean, stddev, horizon=3)
        np.testing.assert_array_equal(mean, row)
        np.testing.assert_array_equal(stddev, 0.0)


class TestMonteCarlo:
    SPEC = ExperimentSpec(graph=grid_graph(3, 3), horizon=40, epsilon=0.05, pool_size=0)

    def spec(self, runs, base_seed):
        return replace(self.SPEC, runs=runs, base_seed=base_seed)

    def test_two_run_stddev_formula(self):
        result = run_experiment(self.spec(runs=2, base_seed=77))
        r1, r2 = result.hindsight_regret
        mean, stddev = monte_carlo(self.spec(runs=2, base_seed=77))
        assert_read_only_vectors(mean, stddev, horizon=self.SPEC.horizon)
        np.testing.assert_allclose(stddev, np.abs(r1 - r2) / math.sqrt(2), atol=1e-12)
        np.testing.assert_allclose(mean, (r1 + r2) / 2, atol=1e-12)

    def test_bitwise_determinism(self):
        a_mean, a_stddev = monte_carlo(self.spec(runs=3, base_seed=5))
        b_mean, b_stddev = monte_carlo(self.spec(runs=3, base_seed=5))
        assert_read_only_vectors(a_mean, a_stddev, b_mean, b_stddev, horizon=self.SPEC.horizon)
        np.testing.assert_array_equal(a_mean, b_mean)
        np.testing.assert_array_equal(a_stddev, b_stddev)

    def test_run_i_is_seeded_with_split_seed(self):
        spec = self.spec(runs=3, base_seed=5)
        result = run_experiment(spec)
        for i, trace in enumerate(result.traces):
            alone, _ = run_tracking_once(spec, split_seed(spec.base_seed, i))
            np.testing.assert_array_equal(trace.states, alone.states)
            np.testing.assert_array_equal(trace.cumulative, alone.cumulative)

    def test_workers_do_not_change_results(self):
        spec = replace(self.spec(runs=3, base_seed=5), pool_size=5)
        a = run_experiment(spec, workers=1)
        b = run_experiment(spec, workers=2)
        np.testing.assert_array_equal(a.hindsight_regret, b.hindsight_regret)
        np.testing.assert_array_equal(a.pool_regret, b.pool_regret)

    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                        reason="the patched functions reach the workers by fork")
    def test_workers_draw_and_race_the_pool(self, tmp_path, monkeypatch):
        spec = replace(self.spec(runs=3, base_seed=5), pool_size=5)
        want = run_experiment(replace(spec), workers=1)  # a copy: the pool is kept on it
        parent, log = os.getpid(), tmp_path / "calls.log"

        def workers_only(name, real, pause):
            def wrapper(*args):
                if os.getpid() == parent:
                    raise AssertionError(f"{name} ran in the parent")
                with open(log, "a") as fh:
                    fh.write(f"{name} {os.getpid()}\n")
                time.sleep(pause)  # holds this worker, so the other takes its own chunk
                return real(*args)
            return wrapper

        for name, pause in (("sample_policy_pool", 0.2), ("pool_best_realized_cost", 0.0)):
            monkeypatch.setattr(evaluate, name, workers_only(name, getattr(evaluate, name), pause))
        got = run_experiment(spec, workers=2)
        calls = collections.Counter(log.read_text().splitlines())
        draws = [n for call, n in calls.items() if call.startswith("sample_policy_pool")]
        assert draws and max(draws) == 1
        assert sum(n for call, n in calls.items() if call.startswith("pool_best")) == 3
        np.testing.assert_array_equal(got.hindsight_regret, want.hindsight_regret)
        np.testing.assert_array_equal(got.pool_regret, want.pool_regret)

    def test_traces_from_workers_stay_read_only(self):
        spec = replace(self.SPEC, horizon=5, runs=2)
        for workers in (1, 2):
            for trace in run_experiment(spec, workers=workers).traces:
                for name, arr in vars(trace).items():
                    assert not arr.flags.writeable, (workers, name)

    def test_needs_two_runs(self):
        with pytest.raises(ValueError):
            monte_carlo(self.spec(runs=1, base_seed=0))

    @pytest.mark.parametrize("workers", [0, -3])
    def test_workers_below_one_rejected(self, workers):
        with pytest.raises(ValueError, match="workers"):
            run_experiment(self.spec(runs=2, base_seed=0), workers=workers)
        with pytest.raises(ValueError, match="workers"):
            monte_carlo(self.spec(runs=2, base_seed=0), workers=workers)


class TestGrowthExponent:
    def test_linear_trace(self):
        t = np.arange(1, 201, dtype=float)
        assert growth_exponent(t, burn_in=10) == pytest.approx(1.0, abs=1e-9)

    def test_sqrt_trace(self):
        t = np.sqrt(np.arange(1, 201, dtype=float))
        assert growth_exponent(t, burn_in=10) == pytest.approx(0.5, abs=1e-9)

    def test_default_burn_in_is_ten_percent(self):
        trace = np.arange(1, 101, dtype=float)
        assert growth_exponent(trace) == growth_exponent(trace, burn_in=10)

    def test_nonpositive_tail_flags_nan(self):
        trace = np.concatenate([np.ones(10), [-1.0], np.arange(1, 20, dtype=float)])
        assert math.isnan(growth_exponent(trace, burn_in=5))

    def test_degenerate_input(self):
        with pytest.raises(ValueError):
            growth_exponent(np.ones(50), burn_in=10)
        with pytest.raises(ValueError):
            growth_exponent(np.arange(5, dtype=float), burn_in=4)


class TestSteadyStateGapBound:
    def test_small_chain_gap_within_contraction_bound(self, rng):
        # |realized-expected - steady-state| <= 2 K0 / (1 - rho) with
        # rho the comparator's own Dobrushin coefficient (desk rehearsal
        # of the acceptance version)
        for _ in range(10):
            p = random_ergodic_kernel(rng, 5)
            consts = bound_constants(p, cost_cap=1.0)
            pool = sample_policy_pool(p, 1, seed=int(rng.integers(1 << 30)))
            comparator = pooled_policy(pool, 0)
            rho = dobrushin_coefficient(comparator.kernel)
            costs = rng.random((150, 5))
            realized = realized_expected_comparator_cost(comparator, costs, start=0)
            steady = steady_state_comparator_cost(comparator, costs)
            bound = 2 * consts.k0 / (1 - rho)
            assert np.abs(realized - steady).max() <= bound + 1e-9
