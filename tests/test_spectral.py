import math
import pickle
import warnings
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from klwalk import (
    ConvergenceError,
    DimensionMismatchError,
    NotErgodicError,
    SolverSettings,
    StochasticMatrix,
    acoe_residual,
    bfs_distances,
    build_passive,
    ergodicity_report,
    grid_graph,
    make_tracking_env,
    solve_mpe,
    span_seminorm,
)
from klwalk import _accel
from klwalk.chains import support_layout

from conftest import (
    ORACLE_KERNELS,
    dense_log_matvec,
    dense_log_power_iteration,
    dense_log_rows,
    dense_shifted_pattern,
    eigen_oracle,
    linear_power_iteration,
    random_cost,
    random_ergodic_kernel,
    renormalized,
)

TWO_STATE = StochasticMatrix([[0.5, 0.5], [0.5, 0.5]])
TWO_STATE_COST = np.array([0.0, math.log(2)])


class TestSolveMpe:
    def test_zero_cost_fixed_point(self, rng):
        p = random_ergodic_kernel(rng, 5)
        sol = solve_mpe(p, np.zeros(5))
        assert abs(sol.lam) <= 1e-12
        np.testing.assert_allclose(sol.h, 0.0, atol=1e-12)
        np.testing.assert_allclose(sol.v, 1.0, atol=1e-12)
        assert sol.bracket[0] <= 1.0 <= sol.bracket[1] + 1e-15

    def test_constant_cost_shifts_lambda_only(self, rng):
        # h = 0 exactly (no -0.0 either): the iteration's rounding is dropped
        for _ in range(50):
            n = int(rng.integers(2, 9))
            sol = solve_mpe(random_ergodic_kernel(rng, n), np.full(n, 0.7))
            assert sol.lam == pytest.approx(0.7, abs=1e-12)
            assert sol.h.tobytes() == np.zeros(n).tobytes()

    def test_two_state_worked_example(self):
        sol = solve_mpe(TWO_STATE, TWO_STATE_COST)
        assert sol.lam == pytest.approx(math.log(4 / 3), abs=1e-10)
        np.testing.assert_allclose(sol.v, [1.0, 0.5], atol=1e-10)
        np.testing.assert_allclose(sol.h, [0.0, math.log(2)], atol=1e-10)
        assert sol.h[0] == 0.0

    def test_bracket_sandwiches_eigenvalue(self):
        sol = solve_mpe(TWO_STATE, TWO_STATE_COST)
        lo, hi = sol.bracket
        assert lo <= math.exp(-sol.lam) <= hi
        assert hi - lo <= SolverSettings().tolerance

    def test_large_offset_cost_stays_conditioned(self):
        # a big common offset factors out exactly
        sol = solve_mpe(TWO_STATE, np.array([50.0, 50.0 + math.log(2)]))
        assert sol.lam == pytest.approx(50.0 + math.log(4 / 3), abs=1e-9)
        np.testing.assert_allclose(sol.v, [1.0, 0.5], atol=1e-9)

    def test_not_ergodic_rejected(self):
        with pytest.raises(NotErgodicError):
            solve_mpe(StochasticMatrix([[0, 1], [1, 0]]), np.array([0.1, 0.2]))
        with pytest.raises(NotErgodicError):
            solve_mpe(StochasticMatrix(np.eye(2)), np.array([0.1, 0.2]))

    def test_cost_checked_at_the_solver_boundary(self):
        # a state cost is a plain float64 array of n finite, nonnegative numbers
        for bad in ([-0.5, 0.5], [np.inf, 0.0], [0.0, np.nan]):
            with pytest.raises(ValueError, match="finite and nonnegative"):
                solve_mpe(TWO_STATE, np.array(bad))
        for shape in [(), (1,), (3,), (2, 2), (0,)]:
            with pytest.raises(DimensionMismatchError):
                solve_mpe(TWO_STATE, np.zeros(shape))
        f = np.array([0.0, math.log(2)])
        sol = solve_mpe(TWO_STATE, f)
        assert f.flags.writeable
        assert np.array_equal(f, [0.0, math.log(2)])
        assert solve_mpe(TWO_STATE, [0.0, math.log(2)]).lam == sol.lam

    def test_assumption_check_never_builds_the_report(self, rng, monkeypatch):
        # the solve reads the graph verdict only: the Dobrushin coefficient
        # and the full report are for the bound constants
        def refuse(*args):
            raise AssertionError("the solve path built the full ergodicity report")

        for target in ("klwalk.chains.dobrushin_coefficient", "klwalk.chains.ergodicity_report",
                       "klwalk.spectral.ergodicity_report", "klwalk.policy.ergodicity_report"):
            monkeypatch.setattr(target, refuse)
        p = random_ergodic_kernel(rng, 6)
        sol = solve_mpe(p, random_cost(rng, 6))
        assert sol.bracket_width <= 1e-12
        with pytest.raises(NotErgodicError, match="aperiodic=False"):
            solve_mpe(StochasticMatrix([[0, 1], [1, 0]]), np.array([0.1, 0.2]))

    def test_no_convergence_reports_bracket(self):
        with pytest.raises(ConvergenceError) as exc_info:
            solve_mpe(TWO_STATE, TWO_STATE_COST, SolverSettings(max_iterations=1))
        err = exc_info.value
        assert err.iterations == 1
        lo, hi = err.bracket
        assert lo <= 0.75 <= hi

    def test_convergence_error_survives_pickle(self):
        err = pickle.loads(pickle.dumps(ConvergenceError("m", bracket=(0.1, 0.2), iterations=7)))
        assert type(err) is ConvergenceError and str(err) == "m"
        assert err.bracket == (0.1, 0.2) and err.iterations == 7

    def test_no_convergence_in_a_worker_reaches_the_caller(self):
        # an error that does not survive pickle breaks the pool instead
        with ProcessPoolExecutor(max_workers=2) as pool:
            future = pool.submit(solve_mpe, TWO_STATE, TWO_STATE_COST,
                                 SolverSettings(max_iterations=1))
            with pytest.raises(ConvergenceError) as exc_info:
                future.result()
        lo, hi = exc_info.value.bracket
        assert lo <= 0.75 <= hi and exc_info.value.iterations == 1

    def test_settings_validation(self):
        with pytest.raises(ValueError):
            SolverSettings(tolerance=0.0)
        for bad in (math.inf, math.nan):
            with pytest.raises(ValueError, match="tolerance must be positive and finite"):
                SolverSettings(tolerance=bad)
        with pytest.raises(ValueError):
            SolverSettings(max_iterations=0)
        with pytest.raises(ValueError):
            solve_mpe(TWO_STATE, TWO_STATE_COST, SolverSettings(pin_index=5))

    def test_pin_index_choice(self):
        sol = solve_mpe(TWO_STATE, TWO_STATE_COST, SolverSettings(pin_index=1))
        assert sol.h[1] == 0.0
        np.testing.assert_allclose(sol.h, [-math.log(2), 0.0], atol=1e-10)

    def test_positivity_of_v(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 8))
            sol = solve_mpe(random_ergodic_kernel(rng, n), random_cost(rng, n, cap=3.0))
            assert np.all(sol.v > 0)


def large_span_problem():
    """10x10 grid, cost 300 x hop distance, pinned at the costliest state:
    e^{-f} underflows and e^{-h} overflows float64."""
    graph = grid_graph(10, 10)
    passive = build_passive(graph, stay_prob=0.01, delta=0.01, home=0)
    f = 300.0 * bfs_distances(graph)[0][0]
    return passive, f, SolverSettings(pin_index=int(np.argmax(f)))


class TestDomains:
    @given(st.integers(2, 12), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_linear_and_log_paths_agree(self, n, seed):
        rng = np.random.default_rng(seed)
        p = random_ergodic_kernel(rng, n)
        f = random_cost(rng, n, cap=3.0)
        fs = f - f.min()
        pin = int(rng.integers(n))
        runs = [linear_power_iteration(p.rows, fs, pin, 1e-12, 100_000),
                _accel.log_power_iteration(p.rows, support_layout(p), fs, pin, 1e-12, 100_000)]
        (w_lin, lo_lin, hi_lin, _, ok_lin), (w_log, lo_log, hi_log, _, ok_log) = runs
        assert ok_lin and ok_log
        lam_lin = -math.log(0.5 * (lo_lin + hi_lin))
        lam_log = -math.log(0.5 * (lo_log + hi_log))
        assert abs(lam_lin - lam_log) <= 1e-12
        np.testing.assert_allclose(w_lin, w_log, rtol=0, atol=1e-9)
        assert w_lin[pin] == 0.0

    def test_large_span_takes_log_fallback(self):
        passive, f, cfg = large_span_problem()
        fs = f - f.min()
        with pytest.raises(FloatingPointError):
            linear_power_iteration(
                passive.rows, fs, cfg.pin_index, cfg.tolerance, cfg.max_iterations,
            )
        sol = solve_mpe(passive, f, cfg)
        assert sol.bracket_width <= cfg.tolerance
        assert acoe_residual(passive, f, sol) <= 1e-8

    def test_iterate_leaving_normal_range_falls_back(self):
        # e^{-f} is normal, but rare transitions make h span about 1000
        eps = 1e-150
        p = StochasticMatrix([[1 - eps, eps, 0, 0], [eps, 1 - 2 * eps, eps, 0],
                              [0, eps, 1 - 2 * eps, eps], [0, 0, eps, 1 - eps]])
        f = np.array([0.0, 1.0, 1.0, 1.0])
        cfg = SolverSettings()
        with pytest.raises(FloatingPointError, match="at iteration"):
            linear_power_iteration(
                p.rows, f, 0, cfg.tolerance, cfg.max_iterations
            )
        sol = solve_mpe(p, f, cfg)
        assert sol.bracket_width <= cfg.tolerance
        assert span_seminorm(sol.h) > 1000
        assert acoe_residual(p, f, sol) <= 1e-8

    def test_large_span_solution_has_finite_h_and_refuses_v(self):
        passive, f, cfg = large_span_problem()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sol = solve_mpe(passive, f, cfg)
            assert np.all(np.isfinite(sol.h)) and sol.h[cfg.pin_index] == 0.0
            with pytest.raises(FloatingPointError, match="not representable"):
                sol.v


class TestSparseLogDomainMatchesDense:
    """The log-domain iteration and the residual check take their
    log-sum-exp over the kernel's entries, bit for bit the dense one."""

    @pytest.mark.parametrize("span", [3.0, 800.0])
    @pytest.mark.parametrize("name", sorted(ORACLE_KERNELS))
    def test_log_power_iteration_and_acoe_residual(self, name, span):
        passive = ORACLE_KERNELS[name]()
        f = np.random.default_rng(6).random(passive.n) * span
        fs = f - f.min()
        got = _accel.log_power_iteration(passive.rows, support_layout(passive), fs, 0, 1e-12,
                                         100_000)
        want = dense_log_power_iteration(passive.rows, fs, 0, 1e-12, 100_000)
        assert got[4] and np.array_equal(got[0], want[0]) and got[1:] == want[1:]
        sol = solve_mpe(passive, f)
        log_z = dense_log_matvec(dense_log_rows(passive.rows), -sol.h)
        assert acoe_residual(passive, f, sol) == float(
            np.abs(sol.h + sol.lam - f + log_z).max()
        )


def grid_phase_problem():
    """10x10 grid passive and a phase cost: the mean normalized distance to
    a few target positions. Power iteration takes 570+ steps here."""
    graph = grid_graph(10, 10)
    passive = build_passive(graph, stay_prob=0.01, delta=0.01, home=0)
    dist, diameter = bfs_distances(graph)
    f = dist[:, [3, 17, 44, 58, 71]].mean(axis=1) / diameter
    return passive, f


class TestInverseIteration:
    @given(st.integers(2, 12), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_inverse_and_log_paths_agree(self, n, seed):
        rng = np.random.default_rng(seed)
        p = random_ergodic_kernel(rng, n)
        f = random_cost(rng, n, cap=3.0)
        fs = f - f.min()
        pin = int(rng.integers(n))
        tol = 1e-12
        layout = support_layout(p)
        runs = [_accel.inverse_iteration(p.rows, layout, fs, pin, tol, 100_000),
                _accel.log_power_iteration(p.rows, layout, fs, pin, tol, 100_000)]
        (w_inv, lo_inv, hi_inv, _, ok_inv), (w_log, lo_log, hi_log, _, ok_log) = runs
        assert ok_inv and ok_log
        assert hi_inv - lo_inv <= tol
        # both brackets hold the eigenvalue and are at most tol wide
        assert abs(0.5 * (lo_inv + hi_inv) - 0.5 * (lo_log + hi_log)) <= tol
        np.testing.assert_allclose(w_inv, w_log, rtol=0, atol=1e-9)
        assert w_inv[pin] == 0.0

    @pytest.mark.parametrize("failure", ["singular factor", "negative entry"])
    def test_failed_solve_takes_power_step(self, monkeypatch, failure):
        passive, f = grid_phase_problem()
        fs = f - f.min()
        tol = 1e-12
        layout = support_layout(passive)
        w_ref = _accel.inverse_iteration(passive.rows, layout, fs, 0, tol, 100_000)[0]
        power = linear_power_iteration(passive.rows, fs, 0, tol, 100_000)
        real_splu = _accel.splu

        class NegativeEntry:
            def __init__(self, matrix, permc_spec):
                self.lu = real_splu(matrix, permc_spec=permc_spec)

            def solve(self, b):
                z = self.lu.solve(b)
                z[len(z) // 2] = -1.0
                return z

        def singular(matrix, permc_spec):
            raise RuntimeError("Factor is exactly singular")

        monkeypatch.setattr(_accel, "splu", singular if failure == "singular factor" else NegativeEntry)
        w, lo, hi, it, ok = _accel.inverse_iteration(passive.rows, layout, fs, 0, tol, 100_000)
        assert ok and hi - lo <= tol
        np.testing.assert_allclose(w, w_ref, rtol=0, atol=1e-9)
        # every step fell back, so the run is the power iteration itself
        assert it == power[3]
        np.testing.assert_array_equal(w, power[0])

    @staticmethod
    def zero_diagonal_kernel(rng):
        # a sparse primitive kernel whose only nonzero diagonal entry is (0, 0)
        n = int(rng.integers(3, 9))
        rows = random_ergodic_kernel(rng, n).rows.copy()
        rows[rng.random((n, n)) < 0.4] = 0.0
        rows[np.arange(n), (np.arange(n) + 1) % n] += 0.5  # keeps it irreducible
        rows[0, 0] += 0.5  # and aperiodic
        np.fill_diagonal(rows[1:, 1:], 0.0)
        return renormalized(rows)

    def test_shifted_pattern_is_the_dense_scan(self, rng):
        kernels = [make() for make in ORACLE_KERNELS.values()]
        kernels += [self.zero_diagonal_kernel(rng) for _ in range(5)]
        for p in kernels:
            layout = support_layout(p)
            view = layout.shifted_pattern()
            assert layout.shifted_pattern() is view
            order = view[4]
            assert np.array_equal(np.sort(order), np.arange(p.n))
            for got, want in zip(view, dense_shifted_pattern(p.rows, order), strict=True):
                assert got.dtype == want.dtype
                np.testing.assert_array_equal(got, want)

    def test_factored_matrix_is_sigma_i_minus_a(self, rng):
        # the sparse matrix stores P's nonzeros and the whole diagonal,
        # including diagonal entries that P leaves at zero, in the layout
        # the dense scan finds, its columns in the layout's factor order
        seen = []
        real_splu = _accel.splu

        def checking_splu(matrix, permc_spec):
            assert permc_spec == "NATURAL"
            seen.append(matrix.copy())
            return real_splu(matrix, permc_spec=permc_spec)

        for _ in range(5):
            p = self.zero_diagonal_kernel(rng)
            rows, n, layout = p.rows, p.n, support_layout(p)
            fs = random_cost(rng, n)
            seen.clear()
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(_accel, "splu", checking_splu)
                w, lo, hi, _, ok = _accel.inverse_iteration(
                    rows, layout, fs - fs.min(), 0, 1e-12, 1000
                )
            assert ok and seen
            a = np.exp(-(fs - fs.min()))[:, None] * rows
            order = layout.shifted_pattern()[4]
            row, col, indptr, _, _ = dense_shifted_pattern(rows, order)
            off = ~np.eye(n, dtype=bool)
            for matrix in seen:
                np.testing.assert_array_equal(matrix.indices, row)
                np.testing.assert_array_equal(matrix.indptr, indptr)
                np.testing.assert_array_equal(matrix.data[row != col], -a[row, col][row != col])
                m = matrix.toarray()[:, np.argsort(order)]  # columns back in natural order
                np.testing.assert_array_equal(m[off], -a[off])
                sigma = np.diag(m) + np.diag(a)
                np.testing.assert_allclose(sigma, sigma[0], rtol=0, atol=1e-15)
                assert sigma[0] >= hi
            w_log, lo_log, hi_log, _, _ = _accel.log_power_iteration(
                rows, layout, fs - fs.min(), 0, 1e-12, 1_000_000
            )
            np.testing.assert_allclose(w, w_log, rtol=0, atol=1e-9)

    def factor_order_cases(self, rng):
        """Kernels and costs the pre-ordered factor is held to COLAMD's on:
        the oracle kernels with random costs, grid passives with distance
        costs (one target: many tied costs) and target-stream phase costs,
        and kernels whose diagonal is zero but for one entry."""
        kernels = [make() for make in ORACLE_KERNELS.values()]
        cases = [(p, random_cost(rng, p.n, cap=3.0)) for p in kernels]
        passive, f = grid_phase_problem()
        cases.append((passive, f))
        graph = grid_graph(10, 10)
        passive = build_passive(graph, stay_prob=0.01, delta=0.01, home=0)
        dist, diameter = bfs_distances(graph)
        cases.append((passive, dist[:, 0] / diameter))
        stream = make_tracking_env(graph, seed=7).stream(60)
        cases += [(passive, stream[:k].mean(axis=0)) for k in (1, 4, 13, 60)]
        for _ in range(5):
            p = self.zero_diagonal_kernel(rng)
            cases.append((p, random_cost(rng, p.n)))
        return cases

    def test_preordered_factor_is_colamds_bit_for_bit(self, rng):
        # SuperLU on (sigma I - A)[:, order] in NATURAL order factors in
        # the order its COLAMD run on sigma I - A itself picks, so every
        # step's z and the whole run are the same bits
        real_splu = _accel.splu
        for p, f in self.factor_order_cases(rng):
            layout = support_layout(p)
            order = layout.shifted_pattern()[4]
            natural_pattern = dense_shifted_pattern(p.rows, np.arange(p.n))
            fs = f - f.min()
            want = _accel.inverse_iteration(p.rows, layout, fs, 0, 1e-12, 100_000)
            solves = []

            class ColamdFactor:
                # stands in for the pre-ordered factor: solves by plain
                # COLAMD on sigma I - A and checks the real one against it
                def __init__(self, matrix, permc_spec):
                    assert permc_spec == "NATURAL"
                    natural = matrix[:, np.argsort(order)]
                    np.testing.assert_array_equal(natural.indices, natural_pattern[0])
                    np.testing.assert_array_equal(natural.indptr, natural_pattern[2])
                    self.plain = real_splu(natural)
                    assert np.array_equal(np.argsort(self.plain.perm_c), order)
                    self.preordered = real_splu(matrix, permc_spec=permc_spec)

                def solve(self, b):
                    z = self.plain.solve(b)
                    z_pre = np.empty_like(z)
                    z_pre[order] = self.preordered.solve(b)
                    assert np.array_equal(z, z_pre)
                    solves.append(b)
                    return z[order]

            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(_accel, "splu", ColamdFactor)
                got = _accel.inverse_iteration(p.rows, layout, fs, 0, 1e-12, 100_000)
            assert solves
            assert np.array_equal(got[0], want[0]) and got[1:] == want[1:]

    def test_grid_phase_cost_converges_in_few_steps(self):
        passive, f = grid_phase_problem()
        sol = solve_mpe(passive, f)
        assert sol.iterations <= 20
        assert sol.bracket_width <= SolverSettings().tolerance
        assert acoe_residual(passive, f, sol) <= 1e-8


def warm_start_cases():
    """Problems with a nearby problem's relative value function as start:
    the oracle kernels with a random cost and a perturbed one, and grid
    passives with consecutive averages of a target stream, as an episode's
    phases solve them."""
    rng = np.random.default_rng(18)
    cases = []
    for name in sorted(ORACLE_KERNELS):
        p = ORACLE_KERNELS[name]()
        f = random_cost(rng, p.n, cap=3.0)
        nearby = f + 0.05 * rng.random(p.n)
        cases.append(pytest.param(p, f, solve_mpe(p, nearby).h, id=name))
    graph = grid_graph(10, 10)
    passive = build_passive(graph, stay_prob=0.01, delta=0.01, home=0)
    stream = make_tracking_env(graph, seed=7).stream(60)
    for k in (2, 13, 60):
        f, last = stream[:k].mean(axis=0), stream[:k - 1].mean(axis=0)
        cases.append(pytest.param(passive, f, solve_mpe(passive, last).h, id=f"grid-phase-{k}"))
    passive, f = grid_phase_problem()
    cases.append(pytest.param(passive, f, np.zeros(passive.n), id="grid-phase-cost"))
    return cases


class TestWarmStart:
    @pytest.mark.parametrize("passive, f, start", warm_start_cases())
    def test_warm_solve_is_certified_like_a_cold_one(self, passive, f, start):
        tol = SolverSettings().tolerance
        cold = solve_mpe(passive, f)
        warm = solve_mpe(passive, f, start=start)
        for sol in (cold, warm):
            assert sol.bracket_width <= tol
            assert acoe_residual(passive, f, sol) <= 1e-8
        # both brackets hold e^{-lambda}
        assert max(cold.bracket[0], warm.bracket[0]) <= min(cold.bracket[1], warm.bracket[1])
        np.testing.assert_allclose(warm.h, cold.h, rtol=0, atol=1e-9)
        assert warm.h[0] == 0.0

    def test_start_is_the_first_iterate(self, monkeypatch):
        passive, f = grid_phase_problem()
        start = solve_mpe(passive, 0.9 * f).h
        firsts = []
        real_loop = _accel._collatz_loop

        def recording_loop(matvec, ratio, to_linear, floor, ceil, update, x, *rest):
            firsts.append(x.copy())
            return real_loop(matvec, ratio, to_linear, floor, ceil, update, x, *rest)

        monkeypatch.setattr(_accel, "_collatz_loop", recording_loop)
        solve_mpe(passive, f, start=start + 5.0)  # V is pinned whatever h(pin)
        np.testing.assert_allclose(firsts[0], np.exp(-start), rtol=1e-12)
        assert firsts[0][0] == 1.0

    @pytest.mark.parametrize("start", [
        np.r_[0.0, np.full(99, 800.0)],  # e^{-h} underflows
        np.r_[0.0, np.full(99, -800.0)],  # e^{-h} overflows
        np.r_[0.0, np.full(99, 710.0)],  # e^{-h} is subnormal
        np.r_[0.0, np.nan, np.zeros(98)],
    ], ids=["underflow", "overflow", "subnormal", "nan"])
    def test_start_that_is_not_normal_falls_back_to_ones(self, start):
        passive, f = grid_phase_problem()
        fs = f - f.min()
        layout = support_layout(passive)
        got = _accel.inverse_iteration(passive.rows, layout, fs, 0, 1e-12, 100_000, start)
        want = _accel.inverse_iteration(passive.rows, layout, fs, 0, 1e-12, 100_000)
        assert got[4] and np.array_equal(got[0], want[0]) and got[1:] == want[1:]

    def test_log_domain_rerun_ignores_start(self):
        # e^{-f} underflows, or e^{-f} is normal but the iterates leave the range
        eps = 1e-150
        rare = StochasticMatrix([[1 - eps, eps, 0, 0], [eps, 1 - 2 * eps, eps, 0],
                                 [0, eps, 1 - 2 * eps, eps], [0, 0, eps, 1 - eps]])
        problems = [large_span_problem(), (rare, np.array([0.0, 1.0, 1.0, 1.0]),
                                           SolverSettings())]
        for passive, f, cfg in problems:
            cold = solve_mpe(passive, f, cfg)
            for start in (np.zeros(passive.n), np.linspace(0.0, 3.0, passive.n)):
                warm = solve_mpe(passive, f, cfg, start=start)
                assert np.array_equal(warm.h, cold.h)
                assert (warm.lam, warm.bracket, warm.iterations) == (
                    cold.lam, cold.bracket, cold.iterations)

    def test_start_of_the_wrong_shape_is_rejected(self):
        with pytest.raises(DimensionMismatchError, match="start"):
            solve_mpe(TWO_STATE, TWO_STATE_COST, start=np.zeros(3))


class TestKeptFactor:
    @staticmethod
    def logged_run(monkeypatch, fail):
        """The grid phase problem's cold run with the steps and the
        factorizations logged in order; ``fail(kind, count)`` says whether
        the count-th factorization ("factor") or solve ("solve") fails."""
        passive, f = grid_phase_problem()
        fs = f - f.min()
        events = []
        real_splu, real_loop = _accel.splu, _accel._collatz_loop

        class FlakyFactor:
            def __init__(self, matrix, permc_spec):
                events.append("factor")
                if fail("factor", events.count("factor")):
                    raise RuntimeError("Factor is exactly singular")
                self.lu = real_splu(matrix, permc_spec=permc_spec)

            def solve(self, b):
                events.append("solve")
                z = self.lu.solve(b)
                if fail("solve", events.count("solve")):
                    z[len(z) // 2] = -1.0
                return z

        def logging_loop(matvec, ratio, to_linear, floor, ceil, update, *rest):
            def logged(*args):
                events.append("step")
                return update(*args)
            return real_loop(matvec, ratio, to_linear, floor, ceil, logged, *rest)

        monkeypatch.setattr(_accel, "splu", FlakyFactor)
        monkeypatch.setattr(_accel, "_collatz_loop", logging_loop)
        w, lo, hi, it, ok = _accel.inverse_iteration(
            passive.rows, support_layout(passive), fs, 0, 1e-12, 100_000
        )
        assert ok and hi - lo <= 1e-12
        return events

    def test_steps_reuse_the_factor_until_the_bracket_stalls(self, monkeypatch):
        events = self.logged_run(monkeypatch, lambda kind, count: False)
        steps = events.count("step")
        assert events[:2] == ["step", "factor"]
        assert events.count("solve") == steps
        # some steps solve with an earlier step's factor, and that saves work
        assert 2 <= events.count("factor") < steps

    @staticmethod
    def assert_next_step_refactors(events, kind, count):
        failed = [i for i, e in enumerate(events) if e == kind][count - 1]
        # the failure came with a factor in hand, and the next step makes a new one
        assert events[failed - 1] == "step" and "factor" in events[:failed - 1]
        assert events[failed + 1:failed + 3] == ["step", "factor"]

    def test_bad_z_drops_the_kept_factor(self, monkeypatch):
        # with the stall rule switched off, only a failed step makes the next
        # one refactor: here the third solve, made with the first step's
        # factor, gives a z that is not normal
        monkeypatch.setattr(_accel, "REFACTOR_SHRINK", math.inf)
        events = self.logged_run(monkeypatch, lambda kind, count: (kind, count) == ("solve", 3))
        assert events.count("factor") == 2
        self.assert_next_step_refactors(events, "solve", 3)

    def test_failed_refactorization_drops_the_kept_factor(self, monkeypatch):
        # the second factorization refactors a stalled step while the first
        # factor is kept, and fails; the stall rule is switched off from
        # then on, so only the dropped factor makes the next step refactor
        def fail(kind, count):
            if (kind, count) != ("factor", 2):
                return False
            monkeypatch.setattr(_accel, "REFACTOR_SHRINK", math.inf)
            return True

        events = self.logged_run(monkeypatch, fail)
        assert events.count("factor") == 3
        self.assert_next_step_refactors(events, "factor", 2)


class TestAcoeResidual:
    def test_accepted_solution_is_tight(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 8))
            p = random_ergodic_kernel(rng, n)
            f = random_cost(rng, n)
            assert acoe_residual(p, f, solve_mpe(p, f)) <= 1e-8

    def test_two_state_algebra(self):
        sol = solve_mpe(TWO_STATE, TWO_STATE_COST)
        # ln2 + ln(4/3) = ln2 - ln(3/4): the equation balances exactly
        assert acoe_residual(TWO_STATE, TWO_STATE_COST, sol) <= 1e-12

    def test_detects_stale_solution(self):
        sol = solve_mpe(TWO_STATE, TWO_STATE_COST)
        h = sol.h.copy()
        h[1] += 0.1
        stale = type(sol)(lam=sol.lam, h=h, bracket=sol.bracket, iterations=sol.iterations)
        assert acoe_residual(TWO_STATE, TWO_STATE_COST, stale) >= 0.01


class TestEigenOracle:
    def test_zero_cost(self, rng):
        p = random_ergodic_kernel(rng, 6)
        lam, v = eigen_oracle(p, np.zeros(6))
        assert abs(lam) <= 1e-12
        np.testing.assert_allclose(v, 1.0, atol=1e-10)

    def test_two_state_closed_form(self):
        lam, v = eigen_oracle(TWO_STATE, TWO_STATE_COST)
        assert lam == pytest.approx(math.log(4 / 3), abs=1e-12)
        np.testing.assert_allclose(v, [1.0, 0.5], atol=1e-12)

    def test_guard(self, rng):
        p = random_ergodic_kernel(rng, 13)
        with pytest.raises(ValueError):
            eigen_oracle(p, np.zeros(13))

    def test_agrees_with_solver(self, rng):
        # desk-scale rehearsal of the acceptance sweep
        for _ in range(100):
            n = int(rng.integers(2, 9))
            p = random_ergodic_kernel(rng, n)
            f = random_cost(rng, n)
            sol = solve_mpe(p, f)
            lam_oracle, _ = eigen_oracle(p, f)
            assert sol.lam == pytest.approx(lam_oracle, rel=1e-8, abs=1e-10)


class TestBracketBehaviour:
    def test_monotone_certified_bracket(self):
        p = StochasticMatrix([[0.6, 0.3, 0.1], [0.2, 0.5, 0.3], [0.3, 0.3, 0.4]])
        f = np.array([0.1, 0.9, 0.4])
        lam_true, _ = eigen_oracle(p, f)
        r_true = math.exp(-lam_true)
        lowers, uppers = [], []
        for k in range(1, 12):
            try:
                sol = solve_mpe(p, f, SolverSettings(max_iterations=k, tolerance=1e-15))
                lowers.append(sol.bracket[0])
                uppers.append(sol.bracket[1])
                break
            except ConvergenceError as err:
                lowers.append(err.bracket[0])
                uppers.append(err.bracket[1])
        for a, b in zip(lowers, lowers[1:]):
            assert b >= a - 1e-15
        for a, b in zip(uppers, uppers[1:]):
            assert b <= a + 1e-15
        for lo, hi in zip(lowers, uppers):
            assert lo - 1e-12 <= r_true <= hi + 1e-12


class TestValueFunctionBounds:
    def test_span_bound_from_minorization(self, rng):
        # span(h) <= log(1/theta) + nbar * max(f) on randomized instances
        for _ in range(50):
            n = int(rng.integers(2, 8))
            p = random_ergodic_kernel(rng, n)
            f = random_cost(rng, n)
            sol = solve_mpe(p, f)
            report = ergodicity_report(p)
            bound = math.log(1.0 / report.theta) + report.nbar * f.max()
            assert span_seminorm(sol.h) <= bound + 1e-12

    def test_value_function_lipschitz_ratio_is_recorded(self, rng):
        # the continuity constant has no closed form: record, never assert a value
        p = random_ergodic_kernel(rng, 5)
        worst = 0.0
        for _ in range(200):
            f = random_cost(rng, 5)
            g = random_cost(rng, 5)
            gap = float(np.abs(f - g).max())
            if gap < 1e-6:
                continue
            span = span_seminorm(solve_mpe(p, f).h - solve_mpe(p, g).h)
            worst = max(worst, span / gap)
        assert math.isfinite(worst) and worst > 0
        print(f"\nempirical value-function Lipschitz ratio over 200 draws: {worst:.4f}")
