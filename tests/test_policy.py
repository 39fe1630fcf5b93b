import math

import numpy as np
import pytest

from klwalk import (
    CostFunction,
    NotErgodicError,
    bfs_distances,
    build_passive,
    grid_graph,
    NotUnichainError,
    StochasticMatrix,
    bound_constants,
    dobrushin_coefficient,
    kl_divergence,
    optimal_policy,
    rows_kl,
    solve_mpe,
    span_seminorm,
    steady_state_cost,
    twisted_kernel,
    twisted_pair_kl,
)

from klwalk._accel import markov_path
from klwalk.chains import draw_table, support_layout

from conftest import (
    ORACLE_KERNELS,
    dense_log_matvec,
    dense_log_rows,
    dense_markov_path,
    dense_twist,
    passive_policy,
    policy_from_rows,
    random_cost,
    random_ergodic_kernel,
)

TWO_STATE = StochasticMatrix([[0.5, 0.5], [0.5, 0.5]])
TWO_STATE_COST = CostFunction([0.0, math.log(2)])


class TestTwistedKernel:
    def test_constant_phi_is_passive(self, rng):
        p = random_ergodic_kernel(rng, 4)
        pol = twisted_kernel(p, np.full(4, 3.7))
        assert pol.kernel is p  # exact, not just close
        np.testing.assert_array_equal(pol.control_cost, 0.0)

    def test_hand_normalization(self):
        pol = twisted_kernel(TWO_STATE, np.array([0.0, math.log(2)]))
        np.testing.assert_allclose(pol.kernel.rows, [[2 / 3, 1 / 3], [2 / 3, 1 / 3]], atol=1e-15)

    def test_support_preservation(self):
        p = StochasticMatrix([[0.5, 0.5, 0.0], [0.25, 0.5, 0.25], [0.0, 0.5, 0.5]])
        pol = twisted_kernel(p, np.array([1.0, -2.0, 0.5]))
        assert np.array_equal(pol.kernel.rows > 0, p.rows > 0)
        assert np.all(np.isfinite(pol.control_cost))

    def test_constant_shift_idempotence(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 7))
            p = random_ergodic_kernel(rng, n)
            phi = rng.normal(size=n)
            c = rng.uniform(-5, 5)
            a = twisted_kernel(p, phi)
            b = twisted_kernel(p, phi + c)
            assert np.abs(a.kernel.rows - b.kernel.rows).sum(axis=1).max() <= 1e-15

    def test_control_cost_matches_generic_summation(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 7))
            p = random_ergodic_kernel(rng, n)
            pol = twisted_kernel(p, rng.normal(size=n) * 2)
            generic = rows_kl(pol.kernel.rows, p.rows)
            np.testing.assert_allclose(pol.control_cost, generic, atol=1e-12)

    def test_rejects_nonfinite_phi(self):
        with pytest.raises(ValueError):
            twisted_kernel(TWO_STATE, np.array([0.0, math.inf]))


class TestTwistedKernelBounds:
    def test_kl_and_tv_bounds(self, rng):
        # KL <= span^2/8 and TV <= span/2, per state, over random triples
        for _ in range(200):
            n = int(rng.integers(2, 7))
            p = random_ergodic_kernel(rng, n)
            phi = rng.normal(size=n) * 2
            psi = rng.normal(size=n) * 2
            span = span_seminorm(phi - psi)
            a = twisted_kernel(p, phi)
            b = twisted_kernel(p, psi)
            for x in range(n):
                kl = kl_divergence(a.kernel.rows[x], b.kernel.rows[x])
                tv = np.abs(a.kernel.rows[x] - b.kernel.rows[x]).sum()
                assert kl <= span**2 / 8 + 1e-12
                assert tv <= span / 2 + 1e-12

    def test_closed_form_pair_kl_vs_generic(self, rng):
        for _ in range(30):
            n = int(rng.integers(2, 7))
            p = random_ergodic_kernel(rng, n)
            phi = rng.normal(size=n) * 3
            psi = rng.normal(size=n) * 3
            closed = twisted_pair_kl(p, phi, psi)
            a = twisted_kernel(p, phi)
            b = twisted_kernel(p, psi)
            generic = rows_kl(a.kernel.rows, b.kernel.rows)
            np.testing.assert_allclose(closed, generic, atol=1e-11)

    def test_twisted_kernel_stays_contractive(self, rng):
        # the coefficient's uniform bound has no closed form; only alpha < 1 is checked
        for _ in range(20):
            n = int(rng.integers(2, 6))
            p = random_ergodic_kernel(rng, n)
            pol = twisted_kernel(p, rng.normal(size=n))
            assert dobrushin_coefficient(pol.kernel) < 1.0


class TestSparseTwistMatchesDense:
    """The twisted kernel and its log-partition run over the passive's
    nonzeros; each result equals the dense n x n computation bit for bit."""

    @pytest.mark.parametrize("name", sorted(ORACLE_KERNELS))
    def test_rows_control_cost_and_pair_kl(self, name):
        passive = ORACLE_KERNELS[name]()
        phi, psi = np.random.default_rng(7).normal(size=(2, passive.n)) * 3
        pol = twisted_kernel(passive, phi)
        rows, control = dense_twist(passive.rows, phi)
        assert np.array_equal(pol.kernel.rows, rows)
        assert np.array_equal(pol.control_cost, control)
        assert support_layout(pol.kernel) is support_layout(passive)
        log_p = dense_log_rows(passive.rows)
        # a constant phi_a twists to the passive kernel itself
        for phi_a, rows_a in ((phi, rows), (np.full(passive.n, 2.5), passive.rows)):
            log_za, log_zb = (dense_log_matvec(log_p, -phi_a), dense_log_matvec(log_p, -psi))
            want = np.maximum(rows_a @ (psi - phi_a) + log_zb - log_za, 0.0)
            assert np.array_equal(twisted_pair_kl(passive, phi_a, psi), want)

    def test_shared_layout_gives_the_kernels_own_draw_table(self):
        passive = ORACLE_KERNELS["grid-10x10"]()
        pol = twisted_kernel(passive, np.random.default_rng(8).normal(size=passive.n))
        own = draw_table(StochasticMatrix(pol.kernel.rows))
        for shared, fresh in zip(draw_table(pol.kernel), own):
            assert np.array_equal(shared, fresh)

    def test_underflowed_entries_leave_the_passive_layout(self):
        # span 800 > 745: staying far from home loses to the teleport by
        # e^-800, which is 0 in float64
        graph = grid_graph(10, 10)
        passive = build_passive(graph, 0.01, 0.01, home=0)
        dist, diameter = bfs_distances(graph)
        phi = 800.0 * dist[0] / diameter
        pol = twisted_kernel(passive, phi)
        rows, control = dense_twist(passive.rows, phi)
        assert np.array_equal(pol.kernel.rows, rows)
        assert np.array_equal(pol.control_cost, control)
        assert np.count_nonzero(rows) < np.count_nonzero(passive.rows)
        assert support_layout(pol.kernel) is not support_layout(passive)
        uniforms = np.random.default_rng(9).random(2000)
        for start in (0, 55, 99):
            got = markov_path(draw_table(pol.kernel), start, uniforms)
            assert np.array_equal(got, dense_markov_path(rows, start, uniforms))


class TestStateActionCost:
    def test_two_state_derived_value(self):
        pol = twisted_kernel(TWO_STATE, np.array([0.0, math.log(2)]))
        # KL((2/3,1/3) || (1/2,1/2)) by direct summation
        expected = (2 / 3) * math.log(4 / 3) + (1 / 3) * math.log(2 / 3)
        assert pol.control_cost[0] == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.056633, abs=1e-6)

    def test_infinite_control_propagates(self):
        pol = policy_from_rows(StochasticMatrix([[1.0, 0.0], [0.5, 0.5]]),
                               rows=[[0.5, 0.5], [0.5, 0.5]])
        assert pol.control_cost[0] == math.inf


class TestSteadyStateCost:
    def test_passive_charges_expected_state_cost(self, rng):
        p = random_ergodic_kernel(rng, 5)
        f = random_cost(rng, 5)
        from klwalk import invariant_distribution

        pi = invariant_distribution(p)
        assert steady_state_cost(f, passive_policy(p)) == pytest.approx(float(pi @ f.values))

    def test_zero_cost_passive_is_free(self, rng):
        p = random_ergodic_kernel(rng, 3)
        assert steady_state_cost(CostFunction(np.zeros(3)), passive_policy(p)) == 0.0

    def test_optimal_policy_attains_lambda(self):
        pol = optimal_policy(TWO_STATE, TWO_STATE_COST)
        assert steady_state_cost(TWO_STATE_COST, pol) == pytest.approx(math.log(4 / 3), abs=1e-10)

    def test_not_unichain_propagates(self):
        pol = policy_from_rows(
            StochasticMatrix([[0.5, 0.5], [0.5, 0.5]]), rows=np.eye(2)
        )
        with pytest.raises(NotUnichainError):
            steady_state_cost(CostFunction([0.1, 0.2]), pol)


class TestOptimality:
    def test_beats_dirichlet_sampled_policies(self, rng):
        # desk-scale rehearsal of the acceptance sweep
        for _ in range(5):
            n = int(rng.integers(2, 7))
            p = random_ergodic_kernel(rng, n)
            f = random_cost(rng, n)
            best = steady_state_cost(f, optimal_policy(p, f))
            assert best == pytest.approx(solve_mpe(p, f).lam, abs=1e-8)
            for _ in range(100):
                rows = rng.dirichlet(np.ones(n), size=n)
                assert best <= steady_state_cost(f, policy_from_rows(p, rows)) + 1e-10


class TestBoundConstants:
    def test_uniform_kernel(self):
        c = bound_constants(TWO_STATE, cost_cap=1.0)
        assert c.p_star == 0.5
        assert c.k0 == pytest.approx(1 + math.log(2), abs=1e-15)
        assert c.nbar == 1 and c.theta == 0.5
        assert c.k1 == pytest.approx(math.log(2) + 1, abs=1e-15)
        assert c.alpha_passive == 0.0

    def test_mixer_kernel(self):
        c = bound_constants(StochasticMatrix([[0.9, 0.1], [0.5, 0.5]]), cost_cap=1.0)
        assert c.p_star == pytest.approx(0.1)
        assert c.k0 == pytest.approx(1 + math.log(10), abs=1e-12)
        assert c.alpha_passive == pytest.approx(0.4, abs=1e-15)

    def test_deterministic_row_contributes_one(self):
        # zeros are excluded from the row minimum, so a point-mass row adds p=1
        c = bound_constants(StochasticMatrix([[0.0, 1.0], [0.5, 0.5]]), cost_cap=1.0)
        assert c.p_star == 0.5
        assert c.k0 == pytest.approx(1 + math.log(2), abs=1e-15)

    def test_requires_assumptions(self):
        with pytest.raises(NotErgodicError):
            bound_constants(StochasticMatrix([[0, 1], [1, 0]]))

    def test_cost_cap_and_value_span_bounds_hold(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 7))
            p = random_ergodic_kernel(rng, n)
            consts = bound_constants(p, cost_cap=1.0)
            f = random_cost(rng, n, cap=1.0)
            pol = optimal_policy(p, f)
            worst = (f.values + pol.control_cost).max()
            assert worst <= consts.k0 + 1e-12
            assert span_seminorm(solve_mpe(p, f).h) <= consts.k1 + 1e-12
