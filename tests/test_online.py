import functools
import math
from dataclasses import replace

import numpy as np
import pytest

from klwalk import (
    CostFunction,
    ReplayCostStream,
    StochasticMatrix,
    advance,
    begin_phase,
    build_passive,
    grid_graph,
    make_schedule,
    make_tracking_env,
    run_episode,
    start_strategy,
    step,
)
from klwalk import _accel, chains, online

from conftest import kernel_sup_distance, pick_from_cdf, random_ergodic_kernel

TWO_STATE = StochasticMatrix([[0.5, 0.5], [0.5, 0.5]])


class ConstantStream:
    """Emits one fixed cost function forever (oblivious by construction)."""

    def __init__(self, values):
        self._f = CostFunction(values)

    def next(self):
        return self._f


def reference_episode(passive, costs, epsilon, start, seed):
    """The phased strategy one step at a time: a scalar ``pick_from_cdf``
    draw on the dense CDF of the acting row, and the strategy state
    replaced at every step. Returns the ``RunTrace`` fields as a dict."""
    horizon = len(costs)
    state = start_strategy(passive, make_schedule(epsilon, horizon), start)
    rng = np.random.default_rng(seed)
    states, state_costs, control_costs, boundaries = [], [], [], [0]
    for t, f_t in enumerate(costs):
        x = state.current_state
        states.append(x)
        state_costs.append(float(f_t.values[x]))
        control_costs.append(float(state.policy.control_cost[x]))
        next_state = pick_from_cdf(np.cumsum(state.policy.kernel.rows[x]), rng.random())
        state = replace(state, current_state=next_state, phase_step=state.phase_step + 1,
                        phase_cost_sum=state.phase_cost_sum + f_t.values)
        if state.phase_step == state.schedule.phase_length(state.current_phase):
            state = begin_phase(state)
            if t + 1 < horizon:
                boundaries.append(t + 1)
    state_costs, control_costs = np.array(state_costs), np.array(control_costs)
    return {
        "states": np.array(states, dtype=np.int64),
        "state_costs": state_costs,
        "control_costs": control_costs,
        "cumulative": np.cumsum(state_costs + control_costs),
        "phase_boundaries": np.array(boundaries, dtype=np.int64),
    }


def sparse_ergodic_kernel(rng, n):
    """Random rows with about half their entries zero, kept primitive by a
    cycle through every state and one self-loop."""
    rows = rng.random((n, n)) * (rng.random((n, n)) < 0.5)
    rows[np.arange(n), (np.arange(n) + 1) % n] += 0.3
    rows[0, 0] += 0.3
    return StochasticMatrix.renormalized(rows)


class TestMakeSchedule:
    def test_quarter_exponent_values(self):
        # epsilon = 1/12 gives exponent 1/4
        sched = make_schedule(1 / 12, horizon=100)
        assert sched.phase_length(1) == 1
        assert sched.phase_length(15) == 2
        assert sched.phase_length(16) == 2
        assert sched.phase_length(17) == 3  # 17^0.25 = 2.0305...

    def test_near_limit_epsilon_follows_ceiling(self):
        # with exponent 1/3 - 0.3333 > 0, m^exponent exceeds 1 for every
        # m >= 2, so the ceiling is 2 from the second phase on
        sched = make_schedule(0.3333, horizon=50)
        assert sched.phase_length(1) == 1
        assert all(sched.phase_length(m) == 2 for m in range(2, 1000))

    def test_epsilon_range(self):
        with pytest.raises(ValueError):
            make_schedule(0.0, 10)
        with pytest.raises(ValueError):
            make_schedule(1 / 3, 10)
        with pytest.raises(ValueError):
            make_schedule(0.05, 0)

    def test_schedule_structure(self):
        sched = make_schedule(0.05, horizon=1000)
        assert np.all(np.diff(sched.tau) >= 0)
        np.testing.assert_array_equal(sched.tau_cum, np.cumsum(sched.tau))
        assert sched.tau_cum[-1] >= 1000
        m = sched.complete_phases
        assert sched.tau_cum[m - 1] <= 1000
        if m < len(sched.tau):
            assert 1000 < sched.tau_cum[m]

    def test_phase_count_bound(self):
        # enumerate and compare against the (4/3) T^(3/4+eps) phase-count bound
        for eps, horizon in ((0.05, 1000), (0.1, 500), (0.3, 2000)):
            sched = make_schedule(eps, horizon)
            assert sched.complete_phases <= (4 / 3) * horizon ** (3 / 4 + eps)

    def test_phase_length_formula_extends_past_table(self):
        sched = make_schedule(0.05, horizon=10)
        beyond = len(sched.tau) + 5
        assert sched.phase_length(beyond) == math.ceil(beyond ** (1 / 3 - 0.05))


class TestBeginPhase:
    def test_first_phase_policy_is_passive_exactly(self, rng):
        p = random_ergodic_kernel(rng, 4)
        state = start_strategy(p, make_schedule(0.05, 100), start=0)
        assert state.current_phase == 1
        assert state.policy.kernel is p
        np.testing.assert_array_equal(state.policy.control_cost, 0.0)

    def test_constant_history_keeps_passive(self, rng):
        # constants shift the average cost only, never the kernel
        p = random_ergodic_kernel(rng, 3)
        state = start_strategy(p, make_schedule(0.05, 100), start=0)
        rng_agent = np.random.default_rng(0)
        for _ in range(20):
            state, _ = step(state, CostFunction([0.4, 0.4, 0.4]), rng_agent)
        assert state.current_phase > 1
        assert state.policy.kernel is p

    def test_two_state_history_twists_to_derived_kernel(self):
        sched = make_schedule(0.05, 100)
        state = start_strategy(TWO_STATE, sched, start=0)
        # phase 1 lasts exactly one step; its cost becomes the phase-2 average
        state, _ = step(state, CostFunction([0.0, math.log(2)]), np.random.default_rng(1))
        assert state.current_phase == 2
        np.testing.assert_allclose(
            state.policy.kernel.rows, [[2 / 3, 1 / 3], [2 / 3, 1 / 3]], atol=1e-10
        )

    def test_incomplete_phase_rejected(self):
        sched = make_schedule(0.05, 100)
        state = start_strategy(TWO_STATE, sched, start=0)
        state, _ = step(state, CostFunction([0.0, 0.1]), np.random.default_rng(0))
        # now mid phase 2 (tau_2 = 2): forcing a new phase must fail
        state, _ = step(state, CostFunction([0.0, 0.1]), np.random.default_rng(0))
        with pytest.raises(RuntimeError):
            begin_phase(state)


class TestStep:
    def test_zero_cost_first_phase_is_free(self):
        state = start_strategy(TWO_STATE, make_schedule(0.05, 10), start=1)
        state, record = step(state, CostFunction([0.0, 0.0]), np.random.default_rng(3))
        assert record.state == 1
        assert record.state_cost == 0.0 and record.control_cost == 0.0

    def test_deterministic_policy_row(self):
        p = StochasticMatrix([[0.0, 1.0], [0.5, 0.5]])
        state = start_strategy(p, make_schedule(0.05, 10), start=0)
        for seed in range(5):
            nxt, _ = step(state, CostFunction([0.0, 0.0]), np.random.default_rng(seed))
            assert nxt.current_state == 1

    def test_cost_cap_enforcement_and_override(self):
        state = start_strategy(TWO_STATE, make_schedule(0.05, 10), start=0)
        with pytest.raises(ValueError, match="above the admissible cap"):
            step(state, CostFunction([0.0, 1.5]), np.random.default_rng(0))
        # the cap is a module constant: there is no override to pass
        with pytest.raises(TypeError):
            start_strategy(TWO_STATE, make_schedule(0.05, 10), start=0, enforce_cost_cap=False)

    def test_cost_cap_tolerance(self):
        # rounding of 1e-12 above the cap is let through, 1e-9 is not
        state = start_strategy(TWO_STATE, make_schedule(0.05, 10), start=0)
        step(state, CostFunction([0.0, online.COST_CAP + 1e-12]), np.random.default_rng(0))
        with pytest.raises(ValueError, match="above the admissible cap"):
            step(state, CostFunction([0.0, online.COST_CAP + 1e-9]), np.random.default_rng(0))

    def test_cost_dimension_checked(self):
        state = start_strategy(TWO_STATE, make_schedule(0.05, 10), start=0)
        from klwalk import DimensionMismatchError

        with pytest.raises(DimensionMismatchError):
            step(state, CostFunction([0.0, 0.1, 0.2]), np.random.default_rng(0))


class TestRunEpisode:
    def test_one_support_layout_per_episode(self, monkeypatch):
        # every phase policy is the passive twisted on its nonzeros, so the
        # passive's layout is found once and shared by every phase's walk
        graph = grid_graph(10, 10)
        stream = make_tracking_env(graph, seed=4).stream(300)
        built = []
        init = chains._SupportLayout.__init__

        def counting_init(layout, pattern):
            built.append(pattern.shape)
            init(layout, pattern)

        monkeypatch.setattr(chains._SupportLayout, "__init__", counting_init)
        passive = build_passive(graph, 0.01, 0.01, home=0)
        trace = run_episode(passive, stream, horizon=300, epsilon=0.05, start=0, seed=4)
        assert trace.phase_boundaries.size > 20
        assert built == [(100, 100)]

    def test_one_shifted_pattern_per_episode(self, monkeypatch):
        # every phase solves on the passive, so the sparsity of sigma I - A
        # is built once from its layout and reused by every phase solve
        built = []
        build = chains._SupportLayout.shifted_pattern.__wrapped__

        @functools.wraps(build)
        def counting_build(layout):
            built.append(layout.n)
            return build(layout)

        monkeypatch.setattr(chains._SupportLayout, "shifted_pattern",
                            chains.memoized(counting_build))
        graph = grid_graph(10, 10)
        stream = make_tracking_env(graph, seed=4).stream(300)
        passive = build_passive(graph, 0.01, 0.01, home=0)
        trace = run_episode(passive, stream, horizon=300, epsilon=0.05, start=0, seed=4)
        assert trace.phase_boundaries.size > 20
        assert built == [100]

    def test_one_colamd_ordering_per_episode(self, monkeypatch):
        # the passive's layout orders sigma I - A once (COLAMD, in chains);
        # every phase solve then factors in that order, skipping COLAMD
        calls = []
        real = {module: module.splu for module in (chains, _accel)}

        def counting(module):
            def splu(matrix, **options):
                calls.append((module.__name__, options))
                return real[module](matrix, **options)
            return splu

        for module in real:
            monkeypatch.setattr(module, "splu", counting(module))
        graph = grid_graph(10, 10)
        stream = make_tracking_env(graph, seed=4).stream(300)
        passive = build_passive(graph, 0.01, 0.01, home=0)
        trace = run_episode(passive, stream, horizon=300, epsilon=0.05, start=0, seed=4)
        assert trace.phase_boundaries.size > 20
        assert calls[0] == ("klwalk.chains", {})
        assert len(calls) > trace.phase_boundaries.size
        assert all(call == ("klwalk._accel", {"permc_spec": "NATURAL"}) for call in calls[1:])

    def test_warm_started_phases_play_the_cold_episode(self, monkeypatch):
        # each phase solve starts from the last phase's h; against solves
        # from V = 1 the agent visits the same states, the costs agree to
        # solver precision, and the solves factor less often
        graph = grid_graph(10, 10)
        passive = build_passive(graph, 0.01, 0.01, home=0)
        counts = {"factor": 0, "solve": 0}
        real_splu, real_policy = _accel.splu, online.optimal_policy

        def counting_splu(matrix, permc_spec):
            counts["factor"] += 1
            return real_splu(matrix, permc_spec=permc_spec)

        def counting_policy(passive, f, settings=None, start=None):
            counts["solve"] += 1
            return real_policy(passive, f, settings, start)

        monkeypatch.setattr(_accel, "splu", counting_splu)
        monkeypatch.setattr(online, "optimal_policy", counting_policy)
        runs = {}
        for mode in ("warm", "cold"):
            if mode == "cold":
                monkeypatch.setattr(online, "optimal_policy",
                                    lambda passive, f, settings=None, start=None:
                                    counting_policy(passive, f, settings, None))
            counts.update(factor=0, solve=0)
            stream = make_tracking_env(graph, seed=3).stream(1000)
            trace = run_episode(passive, stream, horizon=1000, epsilon=0.05, start=0, seed=7)
            runs[mode] = trace, counts["factor"] / counts["solve"]
        (warm, warm_rate), (cold, cold_rate) = runs["warm"], runs["cold"]
        assert warm.phase_boundaries.size == cold.phase_boundaries.size > 200
        assert np.array_equal(warm.states, cold.states)
        np.testing.assert_allclose(warm.cumulative, cold.cumulative, rtol=1e-12, atol=0)
        assert warm_rate < cold_rate

    @pytest.mark.parametrize("horizon, solves", [(57, 23), (58, 24)])
    def test_one_solve_per_phase_in_the_horizon(self, monkeypatch, horizon, solves):
        # T=57 ends on the boundary of phase 23; T=58 starts phase 24
        calls = []
        real = online.optimal_policy
        monkeypatch.setattr(online, "optimal_policy",
                            lambda *args, **kwargs: calls.append(1) or real(*args, **kwargs))
        passive = build_passive(grid_graph(3, 3), 0.01, 0.01, home=0)
        stream = make_tracking_env(grid_graph(3, 3), seed=2).stream(horizon)
        trace = run_episode(passive, stream, horizon=horizon, epsilon=0.05, start=0, seed=1)
        assert trace.phase_boundaries.size == solves and len(calls) == solves

    def test_run_past_the_horizon_rejected(self):
        state = start_strategy(TWO_STATE, make_schedule(0.05, 3), start=0)
        state, *_ = advance(state, [CostFunction([0.0, 0.1])], np.random.default_rng(0))
        state, *_ = advance(state, [CostFunction([0.0, 0.1])] * 2, np.random.default_rng(0))
        with pytest.raises(ValueError, match="does not fit the 0 steps left"):
            advance(state, [CostFunction([0.0, 0.1])], np.random.default_rng(0))

    def test_zero_costs_zero_cumulative(self, rng):
        p = random_ergodic_kernel(rng, 3)
        trace = run_episode(p, ConstantStream([0, 0, 0]), horizon=50, epsilon=0.05,
                            start=0, seed=5)
        np.testing.assert_array_equal(trace.cumulative, 0.0)

    def test_constant_costs_accumulate_linearly(self, rng):
        p = random_ergodic_kernel(rng, 3)
        c = 0.6
        trace = run_episode(p, ConstantStream([c, c, c]), horizon=40, epsilon=0.05,
                            start=1, seed=5)
        np.testing.assert_allclose(trace.cumulative, c * np.arange(1, 41), atol=1e-12)
        np.testing.assert_array_equal(trace.control_costs, 0.0)  # passive in every phase

    def test_trace_invariants(self, rng):
        p = random_ergodic_kernel(rng, 4)
        stream = ReplayCostStream(
            [CostFunction(np.random.default_rng(t).random(4)) for t in range(60)]
        )
        trace = run_episode(p, stream, horizon=60, epsilon=0.05, start=0, seed=11)
        np.testing.assert_allclose(
            trace.cumulative, np.cumsum(trace.state_costs + trace.control_costs), atol=1e-12
        )
        assert np.all(np.isfinite(trace.control_costs))
        assert trace.phase_boundaries[0] == 0
        assert np.all(np.diff(trace.phase_boundaries) > 0)
        assert trace.phase_boundaries[-1] < 60

    def test_identical_seeds_identical_traces(self, rng):
        p = random_ergodic_kernel(rng, 4)
        costs = [CostFunction(np.random.default_rng(100 + t).random(4)) for t in range(80)]
        a = run_episode(p, ReplayCostStream(costs), 80, 0.05, start=0, seed=21)
        b = run_episode(p, ReplayCostStream(costs), 80, 0.05, start=0, seed=21)
        np.testing.assert_array_equal(a.states, b.states)
        np.testing.assert_array_equal(a.cumulative, b.cumulative)

    def test_phase_purity_and_drift_diagnostic(self, rng):
        # the kernel is frozen within phases; across boundaries the drift
        # ratio ||P(m+1)-P(m)||_inf * tau_{1:m}/tau_m stays finite (recorded)
        p = random_ergodic_kernel(rng, 3)
        sched = make_schedule(0.05, 120)
        state = start_strategy(p, sched, start=0)
        gen = np.random.default_rng(9)
        cost_gen = np.random.default_rng(10)
        policies = []
        phases = []
        for _ in range(120):
            policies.append(state.policy)
            phases.append(state.current_phase)
            state, _ = step(state, CostFunction(cost_gen.random(3)), gen)
        for i in range(1, 120):
            if phases[i] == phases[i - 1]:
                assert policies[i] is policies[i - 1]  # bitwise-constant within a phase
        per_phase = {}
        for pol, m in zip(policies, phases):
            per_phase[m] = pol
        ratios = []
        for m in sorted(per_phase)[:-1]:
            if m + 1 in per_phase:
                drift = kernel_sup_distance(per_phase[m + 1].kernel, per_phase[m].kernel)
                ratios.append(drift * float(sched.tau_cum[m - 1]) / float(sched.tau[m - 1]))
        worst = max(ratios)
        assert math.isfinite(worst)
        print(f"\nmax policy drift ratio over {len(ratios)} boundaries: {worst:.4f}")

    def test_stream_exhaustion_raises(self):
        stream = ReplayCostStream([CostFunction([0.0, 0.0])])
        with pytest.raises(RuntimeError):
            run_episode(TWO_STATE, stream, horizon=5, epsilon=0.05, start=0, seed=0)

    def test_phase_of_step_rejects_steps_outside_the_trace(self):
        trace = run_episode(TWO_STATE, ConstantStream([0, 0]), horizon=5, epsilon=0.05,
                            start=0, seed=2)
        assert trace.phase_boundaries.tolist() == [0, 1, 3]
        assert [trace.phase_of_step(t) for t in range(5)] == [1, 2, 2, 3, 3]
        for t in (-1, 5, 99):
            with pytest.raises(IndexError):
                trace.phase_of_step(t)

    def test_phase_of_step(self, rng):
        p = random_ergodic_kernel(rng, 3)
        trace = run_episode(p, ConstantStream([0, 0, 0]), horizon=20, epsilon=0.05,
                            start=0, seed=2)
        sched = make_schedule(0.05, 20)
        t = 0
        for m in range(1, sched.complete_phases + 1):
            for _ in range(sched.phase_length(m)):
                if t >= 20:
                    break
                assert trace.phase_of_step(t) == m
                t += 1
        assert trace.step_phases().tolist() == [trace.phase_of_step(t) for t in range(20)]


# horizons with epsilon 0.05: phases end at steps 1, 3, 5, ..., 54, 57, 60,
# so horizons 1, 3 and 57 end on a phase boundary, and 2, 4, 58 and 59
# cut their last phase short
ORACLE_HORIZONS = (1, 2, 3, 4, 57, 58, 59)
ORACLE_KERNELS = {
    "dense": lambda rng: random_ergodic_kernel(rng, 5),
    "sparse": lambda rng: sparse_ergodic_kernel(rng, 6),
    "grid": lambda rng: build_passive(grid_graph(3, 4), 0.01, 0.01, home=0),
}


class TestEpisodeOracle:
    def test_horizons_cover_boundary_and_truncation(self):
        tau_cum = make_schedule(0.05, 60).tau_cum.tolist()
        assert {1, 3, 57} <= set(tau_cum) and not {2, 4, 58, 59} & set(tau_cum)

    @pytest.mark.parametrize("horizon", ORACLE_HORIZONS)
    @pytest.mark.parametrize("name", sorted(ORACLE_KERNELS))
    def test_run_episode_matches_step_by_step_reference(self, name, horizon):
        for seed in range(3):
            rng = np.random.default_rng([seed, horizon])
            passive = ORACLE_KERNELS[name](rng)
            costs = [CostFunction(rng.random(passive.n)) for _ in range(horizon)]
            got = run_episode(passive, ReplayCostStream(costs), horizon, 0.05,
                              start=seed % passive.n, seed=seed)
            want = reference_episode(passive, costs, 0.05, seed % passive.n, seed)
            for field, value in want.items():
                assert np.array_equal(getattr(got, field), value), (field, seed)

    def test_step_matches_advance_over_a_phase(self, rng):
        p = sparse_ergodic_kernel(rng, 5)
        state = start_strategy(p, make_schedule(0.05, 100), start=2)
        for _ in range(3):  # into phase 3, which is two steps long
            state, _ = step(state, CostFunction(rng.random(5)), np.random.default_rng(1))
        costs = [CostFunction(rng.random(5)) for _ in range(2)]
        stepped, records = state, []
        gen = np.random.default_rng(4)
        for f_t in costs:
            stepped, record = step(stepped, f_t, gen)
            records.append(record)
        run, visited, state_costs, control_costs = advance(state, costs, np.random.default_rng(4))
        assert [r.state for r in records] == visited.tolist()
        assert [r.state_cost for r in records] == state_costs.tolist()
        assert [r.control_cost for r in records] == control_costs.tolist()
        assert run.current_phase == stepped.current_phase == 4
        assert run.current_state == stepped.current_state
        assert np.array_equal(run.cost_sum, stepped.cost_sum)

    def test_run_must_fit_the_phase(self, rng):
        state = start_strategy(TWO_STATE, make_schedule(0.05, 100), start=0)
        for costs in ([], [CostFunction([0.0, 0.1])] * 2):
            with pytest.raises(ValueError):
                advance(state, costs, np.random.default_rng(0))
