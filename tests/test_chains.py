import copy
import itertools
import math
import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from klwalk import (
    FIXED_POLICY,
    CostFunction,
    Distribution,
    DimensionMismatchError,
    KlPolicy,
    MonteCarloSummary,
    MpeSolution,
    NotUnichainError,
    PhaseSchedule,
    RegretTrace,
    RunTrace,
    StochasticMatrix,
    build_passive,
    dobrushin_coefficient,
    ergodicity_report,
    graph_verdict,
    grid_graph,
    invariant_distribution,
    kl_divergence,
    span_seminorm,
    total_variation,
)
from klwalk import chains
from klwalk._accel import markov_path, markov_paths
from klwalk.chains import (
    INVARIANT_RESIDUAL_TOL,
    _component_periods,
    _scc_labels,
    draw_table,
    has_single_closed_class,
    support_layout,
)

from conftest import random_ergodic_kernel, run_within


def dist_pairs(min_n=2, max_n=6):
    """Two distributions over the same state space, as a hypothesis strategy."""

    def normalize(raw):
        arr = np.array(raw)
        return arr / arr.sum()

    return st.integers(min_n, max_n).flatmap(
        lambda n: st.tuples(
            st.lists(st.floats(1e-3, 1.0), min_size=n, max_size=n).map(normalize),
            st.lists(st.floats(1e-3, 1.0), min_size=n, max_size=n).map(normalize),
        )
    )


def kernels(min_n=2, max_n=6):
    def normalize(raw):
        arr = np.array(raw)
        return arr / arr.sum(axis=1, keepdims=True)

    return st.integers(min_n, max_n).flatmap(
        lambda n: st.lists(
            st.lists(st.floats(1e-3, 1.0), min_size=n, max_size=n),
            min_size=n,
            max_size=n,
        ).map(normalize)
    )


class TestContainers:
    def test_distribution_validation(self):
        d = Distribution([0.25, 0.75])
        assert d.n == 2
        assert not d.weights.flags.writeable
        with pytest.raises(ValueError):
            Distribution([0.5, 0.6])
        with pytest.raises(ValueError):
            Distribution([-0.1, 1.1])

    def test_matrix_validation_and_renormalize(self):
        with pytest.raises(ValueError):
            StochasticMatrix([[0.5, 0.6], [0.5, 0.5]])
        with pytest.raises(ValueError):
            StochasticMatrix([[1.2, -0.2], [0.5, 0.5]])
        fixed = StochasticMatrix.renormalized([[2.0, 2.0], [1.0, 3.0]])
        np.testing.assert_allclose(fixed.rows, [[0.5, 0.5], [0.25, 0.75]])
        with pytest.raises(ValueError):
            StochasticMatrix.renormalized([[0.0, 0.0], [1.0, 1.0]])

    @pytest.mark.parametrize(
        "container, values",
        [(StochasticMatrix, [[np.nan, np.nan], [0.5, 0.5]]), (Distribution, [np.nan, np.nan])],
        ids=["kernel", "distribution"],
    )
    def test_nan_entries_rejected(self, container, values):
        # NaN fails both the sign test and the row-sum test
        with pytest.raises(ValueError, match="nonnegative numbers"):
            container(values)

    def test_cost_function_validation(self):
        with pytest.raises(ValueError):
            CostFunction([-0.5, 0.5])
        with pytest.raises(ValueError):
            CostFunction([np.inf, 0.0])
        assert CostFunction([0.2, 0.9]).max() == 0.9


class TestFrozenCopies:
    """Containers freeze a copy of every array they are handed; the
    caller's own array stays writeable and decoupled."""

    @pytest.mark.parametrize(
        "cls, fixed, float_fields, int_fields",
        [
            (MpeSolution, dict(lam=0.0, bracket=(1.0, 1.0), iterations=1), ("h",), ()),
            (KlPolicy, dict(kernel=StochasticMatrix(np.eye(3))), ("control_cost", "source_h"), ()),
            (RegretTrace, dict(horizon=3, comparator_kind=FIXED_POLICY),
             ("per_step", "comparator_cost"), ()),
            (MonteCarloSummary, dict(runs=2, seeds=(1, 2)), ("mean", "stddev"), ()),
            (RunTrace, {}, ("state_costs", "control_costs", "cumulative"),
             ("states", "phase_boundaries")),
            (PhaseSchedule, dict(epsilon=0.05, horizon=3, complete_phases=3), (),
             ("tau", "tau_cum")),
        ],
    )
    def test_caller_array_stays_writeable(self, cls, fixed, float_fields, int_fields):
        given = {name: np.zeros(3) for name in float_fields}
        given.update({name: np.ones(3, dtype=np.int64) for name in int_fields})
        obj = cls(**fixed, **given)
        for name, arr in given.items():
            assert arr.flags.writeable, name
            assert not getattr(obj, name).flags.writeable, name
            arr[0] = 7
            assert getattr(obj, name)[0] != 7, name

    @pytest.mark.parametrize(
        "obj",
        [
            Distribution([0.25, 0.75]),
            StochasticMatrix([[0.5, 0.5], [0.1, 0.9]]),
            CostFunction([0.0, 1.5]),
            MpeSolution(lam=0.0, h=[0.0, 0.5], bracket=(1.0, 1.0), iterations=1),
            KlPolicy(kernel=StochasticMatrix(np.eye(2)), control_cost=[0.0, 0.1],
                     source_h=[0.0, 0.2]),
            RegretTrace(horizon=2, per_step=[0.1, 0.2], comparator_kind=FIXED_POLICY,
                        comparator_cost=[0.3, 0.4]),
            MonteCarloSummary(runs=2, mean=[0.1, 0.2], stddev=[0.0, 0.1], seeds=(1, 2)),
            RunTrace(states=[0, 1], state_costs=[0.1, 0.2], control_costs=[0.0, 0.3],
                     cumulative=[0.1, 0.6], phase_boundaries=[0]),
            PhaseSchedule(epsilon=0.05, horizon=3, tau=[1, 2], tau_cum=[1, 3],
                          complete_phases=2),
        ],
        ids=lambda obj: type(obj).__name__,
    )
    def test_copies_stay_frozen(self, obj):
        # pickle is how results come back from worker processes
        for restored in (pickle.loads(pickle.dumps(obj)), copy.deepcopy(obj)):
            arrays = [(name, value) for name, value in vars(restored).items()
                      if isinstance(value, np.ndarray)]
            if isinstance(restored, KlPolicy):
                arrays.append(("kernel.rows", restored.kernel.rows))
            assert arrays
            for name, arr in arrays:
                assert not arr.flags.writeable, name
            for name, value in vars(obj).items():
                if isinstance(value, np.ndarray):
                    np.testing.assert_array_equal(getattr(restored, name), value)


class TestTotalVariation:
    def test_disjoint_point_masses(self):
        assert total_variation(Distribution([1, 0]), Distribution([0, 1])) == 2.0

    def test_identical(self):
        mu = Distribution([0.3, 0.7])
        assert total_variation(mu, mu) == 0.0

    def test_direct_summation(self):
        # |0.5-0.25| + |0.5-0.75| = 0.5
        assert total_variation([0.5, 0.5], [0.25, 0.75]) == pytest.approx(0.5, abs=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            total_variation([1.0], [0.5, 0.5])


class TestKlDivergence:
    def test_identical(self):
        mu = Distribution([0.3, 0.7])
        assert kl_divergence(mu, mu) == 0.0

    def test_support_violation(self):
        assert kl_divergence([1, 0], [0, 1]) == math.inf

    def test_direct_summation(self):
        # 0.5 ln(0.5/0.25) + 0.5 ln(0.5/0.75) = 0.5 ln(4/3)
        expected = 0.5 * math.log(4 / 3)
        assert kl_divergence([0.5, 0.5], [0.25, 0.75]) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.143841, abs=1e-6)

    def test_zero_log_zero_convention(self):
        # mass-0 states never contribute, even against zero mass
        assert kl_divergence([0.0, 1.0], [0.0, 1.0]) == 0.0

    def test_infinity_saturates(self):
        v = kl_divergence([1, 0], [0, 1])
        assert v + 1.0 == math.inf and v > 1e300

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            kl_divergence([1.0], [0.5, 0.5])


class TestSpanSeminorm:
    def test_examples(self):
        assert span_seminorm([1, 3, 2]) == 2.0
        assert span_seminorm([5.5, 5.5, 5.5]) == 0.0
        assert span_seminorm([0.0, math.log(2)]) == pytest.approx(math.log(2), abs=1e-15)

    def test_empty(self):
        with pytest.raises(ValueError):
            span_seminorm([])

    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=8), st.floats(-100, 100))
    def test_shift_invariance_and_sup_bound(self, values, c):
        arr = np.array(values)
        assert span_seminorm(arr + c) == pytest.approx(span_seminorm(arr), abs=1e-9)
        assert span_seminorm(arr) <= 2 * np.abs(arr).max() + 1e-12


class TestDobrushin:
    def test_rank_one(self):
        p = StochasticMatrix([[0.3, 0.7], [0.3, 0.7]])
        assert dobrushin_coefficient(p) == 0.0

    def test_identity(self):
        assert dobrushin_coefficient(StochasticMatrix(np.eye(2))) == 1.0

    def test_direct_formula(self):
        p = StochasticMatrix([[0.5, 0.5], [0.25, 0.75]])
        assert dobrushin_coefficient(p) == pytest.approx(0.25, abs=1e-15)

    @given(kernels(), dist_pairs())
    @settings(max_examples=40, deadline=None)
    def test_contraction(self, rows, pair):
        n = rows.shape[0]
        mu, nu = pair
        if mu.shape[0] != n:
            mu = np.resize(mu, n)
            mu = mu / mu.sum()
            nu = np.resize(nu, n)
            nu = nu / nu.sum()
        p = StochasticMatrix(rows)
        alpha = dobrushin_coefficient(p)
        assert 0.0 <= alpha <= 1.0
        lhs = np.abs(mu @ rows - nu @ rows).sum()
        rhs = alpha * np.abs(mu - nu).sum()
        assert lhs <= rhs + 1e-12


@given(dist_pairs())
@settings(max_examples=60)
def test_pinsker_inequality(pair):
    mu, nu = pair
    kl = kl_divergence(mu, nu)
    assert total_variation(mu, nu) <= math.sqrt(2 * kl) + 1e-12


class TestErgodicityReport:
    def test_period_two_swap(self):
        report = ergodicity_report(StochasticMatrix([[0, 1], [1, 0]]))
        assert report.irreducible and not report.aperiodic
        assert report.nbar is None and report.theta is None

    def test_already_positive(self):
        report = ergodicity_report(StochasticMatrix([[0.5, 0.5], [0.5, 0.5]]))
        assert report.irreducible and report.aperiodic
        assert report.nbar == 1 and report.theta == 0.5

    def test_lazy_path_walk(self):
        rows = np.array([
            [0.5, 0.5, 0.0],
            [0.25, 0.5, 0.25],
            [0.0, 0.5, 0.5],
        ])
        report = ergodicity_report(StochasticMatrix(rows))
        assert report.nbar == 2
        # matrix-power oracle for theta and nbar minimality
        squared = rows @ rows
        assert report.theta == pytest.approx(float(squared.min()), abs=1e-15)
        assert squared.min() > 0 and rows.min() == 0.0

    def test_reducible(self):
        rows = np.array([
            [1.0, 0.0],
            [0.5, 0.5],
        ])
        report = ergodicity_report(StochasticMatrix(rows))
        assert not report.irreducible
        assert report.nbar is None

    def test_nbar_minimality_randomized(self, rng):
        for _ in range(25):
            n = int(rng.integers(2, 7))
            rows = rng.dirichlet(np.ones(n), size=n)
            # sparsify while keeping state 0 a positive hub and the diagonal alive
            mask = rng.random((n, n)) < 0.5
            mask[:, 0] = True
            mask[0, :] = True
            np.fill_diagonal(mask, True)
            rows = rows * mask
            p = StochasticMatrix.renormalized(rows)
            report = ergodicity_report(p)
            assert report.irreducible and report.aperiodic
            power = np.linalg.matrix_power(p.rows, report.nbar)
            assert power.min() > 0
            assert report.theta == pytest.approx(float(power.min()), rel=1e-12)
            if report.nbar > 1:
                below = np.linalg.matrix_power(p.rows, report.nbar - 1)
                assert below.min() == 0.0

    def test_nbar_past_256_states(self):
        # 16x16 grid with the home teleport: some reachability count reaches
        # 256, which a uint8 product wraps to 0 (the search then never ends)
        p = build_passive(grid_graph(16, 16), stay_prob=0.01, delta=0.01, home=0)
        report = run_within(120, ergodicity_report, p)
        # oracle: exact int64 reachability products, thresholded each step
        step = (p.rows > 0).astype(np.int64)
        reach, nbar = step, 1
        while not reach.all():
            reach = ((reach @ step) > 0).astype(np.int64)
            nbar += 1
        assert nbar == 30
        assert report.nbar == nbar
        assert report.theta > 0


def bfs_component_period(pattern: np.ndarray, members: np.ndarray) -> int:
    """Reference period of one strong component: a Python BFS from its
    first member, with the gcd of level[u] + 1 - level[v] over inner edges
    (0 for a transient singleton)."""
    if members.size == 1:
        x = int(members[0])
        return 1 if pattern[x, x] else 0
    inside = np.zeros(pattern.shape[0], dtype=bool)
    inside[members] = True
    src = int(members[0])
    level = {src: 0}
    frontier = [src]
    g = 0
    while frontier:
        nxt = []
        for u in frontier:
            for v in np.nonzero(pattern[u])[0]:
                v = int(v)
                if not inside[v]:
                    continue
                if v in level:
                    g = math.gcd(g, level[u] + 1 - level[v])
                else:
                    level[v] = level[u] + 1
                    nxt.append(v)
        frontier = nxt
    return abs(g)


@st.composite
def pattern_kernels(draw, max_n=7, weights=st.just(1.0)):
    """Stochastic kernels on random sparse positive patterns: 1-3 successors
    per state, so periodic, reducible and transient patterns all occur.
    Each successor's weight is drawn from ``weights`` before the rows are
    renormalized."""
    n = draw(st.integers(1, max_n))
    raw = np.zeros((n, n))
    for x in range(n):
        succ = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3))
        raw[x, succ] = [draw(weights) for _ in succ]
    return StochasticMatrix.renormalized(raw)


# cycles of length 2 and 3 (periodic); two absorbing states (reducible, one
# class per state); a transient state without a self-loop (period 0) feeding
# a primitive class, then feeding a period-2 class; a 3-cycle made primitive
# by self-loops; one state with a self-loop
CYCLE_3 = [[0, 1, 0], [0, 0, 1], [1, 0, 0]]
PATTERN_CASES = [
    ([[0, 1], [1, 0]], (True, False)),
    (CYCLE_3, (True, False)),
    ([[1, 0], [0, 1]], (False, True)),
    ([[0, 1, 0], [0, 1, 1], [0, 1, 1]], (False, False)),
    ([[0, 1, 0], [0, 0, 1], [0, 1, 0]], (False, False)),
    ([[1, 1, 0], [0, 1, 1], [1, 0, 0]], (True, True)),
    ([[1]], (True, True)),
]


def reference_verdict(rows: np.ndarray) -> tuple[bool, bool]:
    """Irreducible from the transitive closure, aperiodic from the BFS
    periods of the closure's mutual-reachability classes."""
    n = rows.shape[0]
    step = (rows > 0).astype(np.int64)
    reach = np.eye(n, dtype=np.int64)
    for _ in range(n):
        reach = ((reach + reach @ step) > 0).astype(np.int64)
    mutual = (reach > 0) & (reach.T > 0)
    classes = {tuple(np.flatnonzero(row)) for row in mutual}
    periods = [bfs_component_period(rows > 0, np.array(c)) for c in classes]
    return len(classes) == 1, all(p == 1 for p in periods)


class TestGraphVerdict:
    @pytest.mark.parametrize("pattern, expected", PATTERN_CASES)
    def test_known_patterns(self, pattern, expected):
        p = StochasticMatrix.renormalized(np.array(pattern, dtype=float))
        assert graph_verdict(p) == expected
        assert reference_verdict(p.rows) == expected

    @given(pattern_kernels())
    @example(StochasticMatrix([[0, 1], [1, 0]]))
    @example(StochasticMatrix(CYCLE_3))
    @example(StochasticMatrix([[0, 1, 0], [0, 0.5, 0.5], [0, 0.5, 0.5]]))
    @example(StochasticMatrix([[0.5, 0.5, 0], [0, 1, 0], [0, 0, 1]]))
    @settings(max_examples=150, deadline=None)
    def test_agrees_with_report_and_reference(self, p):
        irreducible, aperiodic = graph_verdict(p)
        report = ergodicity_report(p)
        assert (report.irreducible, report.aperiodic) == (irreducible, aperiodic)
        assert reference_verdict(p.rows) == (irreducible, aperiodic)
        # Wielandt: primitive iff the pattern's (n^2 - 2n + 2)-th power is positive
        step = (p.rows > 0).astype(np.int64)
        power = np.eye(p.n, dtype=np.int64)
        for _ in range(p.n * p.n - 2 * p.n + 2):
            power = ((power @ step) > 0).astype(np.int64)
        assert bool(power.all()) == (irreducible and aperiodic)
        assert (report.nbar is not None) == (irreducible and aperiodic)

    @given(pattern_kernels(max_n=9))
    @settings(max_examples=100, deadline=None)
    def test_component_periods_match_bfs(self, p):
        pattern = p.rows > 0
        layout = support_layout(p)
        np.testing.assert_array_equal(layout.graph().toarray(), pattern)
        n_comp, labels = _scc_labels(layout)
        periods = _component_periods(layout, n_comp, labels)
        for comp in range(n_comp):
            members = np.flatnonzero(labels == comp)
            assert periods[comp] == bfs_component_period(pattern, members)

    def test_component_periods_on_grid_past_256_states(self):
        # the bare neighbour walk on a 16x16 grid: bipartite, so period 2
        side = 16
        coords = np.array([(r, c) for r in range(side) for c in range(side)])
        adjacent = np.abs(coords[:, None, :] - coords[None, :, :]).sum(axis=2) == 1
        p = StochasticMatrix.renormalized(adjacent.astype(float))
        layout = support_layout(p)
        n_comp, labels = _scc_labels(layout)
        assert n_comp == 1
        assert _component_periods(layout, n_comp, labels).tolist() == [2]
        assert bfs_component_period(p.rows > 0, np.arange(p.n)) == 2
        assert graph_verdict(p) == (True, False)

    def test_memoized_on_the_kernel(self, monkeypatch):
        p = StochasticMatrix([[0.5, 0.5], [0.5, 0.5]])
        assert graph_verdict(p) == (True, True)
        monkeypatch.setattr("klwalk.chains._scc_labels", None)  # any recompute fails
        assert graph_verdict(p) == (True, True)

    def test_survives_pickle(self):
        p = StochasticMatrix([[0, 1], [1, 0]])
        graph_verdict(p)
        assert graph_verdict(pickle.loads(pickle.dumps(p))) == (True, False)


class TestSingleClosedClass:
    def test_ergodic(self, rng):
        assert has_single_closed_class(random_ergodic_kernel(rng, 4))

    def test_two_blocks(self):
        assert not has_single_closed_class(StochasticMatrix(np.eye(2)))

    def test_transient_state_into_one_class(self):
        p = StochasticMatrix([[0.2, 0.8, 0.0], [0.0, 0.5, 0.5], [0.0, 0.5, 0.5]])
        assert has_single_closed_class(p)

    def test_transient_state_into_two_classes(self):
        p = StochasticMatrix([[0.2, 0.4, 0.4], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        assert not has_single_closed_class(p)


class TestInvariantDistribution:
    def test_rank_one(self):
        mu = [0.2, 0.5, 0.3]
        p = StochasticMatrix([mu, mu, mu])
        np.testing.assert_allclose(invariant_distribution(p).weights, mu, atol=1e-12)

    def test_doubly_stochastic_symmetric(self):
        p = StochasticMatrix([[0.5, 0.25, 0.25], [0.25, 0.5, 0.25], [0.25, 0.25, 0.5]])
        np.testing.assert_allclose(invariant_distribution(p).weights, np.full(3, 1 / 3), atol=1e-12)

    def test_two_state_solve(self):
        p = StochasticMatrix([[0.9, 0.1], [0.5, 0.5]])
        np.testing.assert_allclose(invariant_distribution(p).weights, [5 / 6, 1 / 6], atol=1e-12)

    def test_fixed_point_randomized(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 9))
            p = random_ergodic_kernel(rng, n)
            pi = invariant_distribution(p).weights
            assert np.abs(pi @ p.rows - pi).sum() <= 1e-10

    def test_not_unichain(self):
        block = StochasticMatrix([[1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(NotUnichainError):
            invariant_distribution(block)

    @given(pattern_kernels(weights=st.floats(0.05, 1.0)))
    @example(StochasticMatrix([[0.2, 0.4, 0.4], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]))
    @example(StochasticMatrix([[0.2, 0.8, 0.0], [0.0, 0.5, 0.5], [0.0, 0.5, 0.5]]))
    @example(StochasticMatrix(CYCLE_3))
    @settings(max_examples=200, deadline=None)
    def test_agrees_with_lstsq_oracle(self, p):
        if reference_closed_class_count(p.rows) > 1:
            with pytest.raises(NotUnichainError):
                invariant_distribution(p)
        else:
            oracle = lstsq_invariant_distribution(p.rows)
            np.testing.assert_allclose(invariant_distribution(p).weights, oracle, rtol=0, atol=1e-12)

    @given(pattern_kernels(weights=st.sampled_from([1.0, 1e-300])))
    @example(StochasticMatrix([[1.0, 1e-300], [1e-300, 1.0]]))
    @example(StochasticMatrix([[1.0, 1e-300, 0.0], [0.0, 1.0, 1e-300], [1e-300, 0.0, 1.0]]))
    @example(StochasticMatrix([[1.0, 1e-300, 1e-300], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]))
    @settings(max_examples=200, deadline=None)
    def test_tiny_entries_never_give_an_uncertified_law(self, p):
        try:
            pi = invariant_distribution(p).weights
        except NotUnichainError:
            return
        assert np.abs(pi @ p.rows - pi).sum() <= INVARIANT_RESIDUAL_TOL

    @pytest.mark.parametrize("order", list(itertools.permutations(range(3))))
    def test_one_scc_pass_per_kernel(self, monkeypatch, order):
        calls = []

        def counted(graph):
            calls.append(graph)
            return _scc_labels(graph)

        monkeypatch.setattr(chains, "_scc_labels", counted)
        p = build_passive(grid_graph(3, 3), stay_prob=0.1, delta=0.05, home=0)
        questions = (graph_verdict, has_single_closed_class, invariant_distribution)
        for i in order:
            questions[i](p)
        assert len(calls) == 1


def reference_closed_class_count(rows: np.ndarray) -> int:
    """Closed communicating classes from the transitive closure: classes
    of mutually reachable states that reach no state outside."""
    n = rows.shape[0]
    step = (rows > 0).astype(np.int64)
    reach = np.eye(n, dtype=np.int64)
    for _ in range(n):
        reach = ((reach + reach @ step) > 0).astype(np.int64)
    mutual = (reach > 0) & (reach.T > 0)
    classes = {tuple(np.flatnonzero(row)) for row in mutual}
    return sum(all(mutual[c[0], np.flatnonzero(reach[c[0]])]) for c in classes)


def lstsq_invariant_distribution(rows: np.ndarray) -> np.ndarray:
    """The least-squares stationarity solve ``invariant_distribution`` once
    used: P^T - I stacked over a row of ones, rank-checked, clipped and
    normalized."""
    n = rows.shape[0]
    system = np.vstack([rows.T - np.eye(n), np.ones((1, n))])
    rhs = np.zeros(n + 1)
    rhs[-1] = 1.0
    pi, _, rank, _ = np.linalg.lstsq(system, rhs, rcond=None)
    assert rank == n
    assert np.abs(pi @ rows - pi).sum() <= INVARIANT_RESIDUAL_TOL
    pi = np.clip(pi, 0.0, None)
    return pi / pi.sum()


def draw_next(P, x, rng):
    """One next-state draw from row x, as the online strategy makes it:
    the walker over the kernel's draw table, one uniform."""
    return int(markov_path(draw_table(P), x, rng.random(1))[1])


class TestSampleNext:
    def test_point_mass(self):
        p = StochasticMatrix([[0.0, 1.0], [1.0, 0.0]])
        for seed in (0, 1, 99):
            assert draw_next(p, 0, np.random.default_rng(seed)) == 1

    def test_determinism(self):
        p = StochasticMatrix([[0.25, 0.75], [0.6, 0.4]])
        a = [draw_next(p, 0, np.random.default_rng(42)) for _ in range(5)]
        b = [draw_next(p, 0, np.random.default_rng(42)) for _ in range(5)]
        assert a == b

    def test_out_of_range(self):
        p = StochasticMatrix([[1.0]])
        for x in (3, -1):
            with pytest.raises(IndexError):
                draw_next(p, x, np.random.default_rng(0))
            with pytest.raises(IndexError):  # also before any step is taken
                markov_path(draw_table(p), x, np.empty(0))

    def test_never_lands_off_support(self, rng):
        row = np.array([0.0, 0.5, 0.0, 0.5, 0.0])
        p = StochasticMatrix([row] * 5)
        draws = {draw_next(p, 0, np.random.default_rng(s)) for s in range(200)}
        assert draws <= {1, 3}

    def test_law_of_large_numbers(self):
        # frequencies over 1e6 draws from the row (0.25, 0.75): 1000 walks
        # of 1000 steps, walked in lock step
        bounds, columns = draw_table(StochasticMatrix([[0.25, 0.75], [0.25, 0.75]]))
        u = np.random.default_rng(7).random(10**6).reshape(1000, 1000)
        states = markov_paths(np.broadcast_to(bounds, (1000, *bounds.shape)), columns, 0, u)
        freq = np.bincount(states[:, 1:].ravel(), minlength=2) / 10**6
        np.testing.assert_allclose(freq, [0.25, 0.75], atol=0.005)


class TestDrawTable:
    def test_bounds_are_the_dense_cdf_on_the_support(self, rng):
        rows = rng.dirichlet(np.ones(6), size=6) * (rng.random((6, 6)) < 0.6)
        rows[:, 0] += 1e-3
        p = StochasticMatrix.renormalized(rows)
        bounds, columns = draw_table(p)
        cdf = np.cumsum(p.rows, axis=1)
        for x in range(p.n):
            support = np.flatnonzero(p.rows[x] > 0)
            assert columns[x, :support.size].tolist() == support.tolist()
            finite = np.isfinite(bounds[x])
            assert np.array_equal(bounds[x, finite], cdf[x, support][:finite.sum()])

    def test_memoized_read_only_and_frozen_across_pickle(self):
        p = StochasticMatrix([[0.25, 0.75], [0.6, 0.4]])
        table = draw_table(p)
        assert draw_table(p) is table
        restored = draw_table(pickle.loads(pickle.dumps(p)))
        for arr, back in zip(table, restored):
            assert not arr.flags.writeable and not back.flags.writeable
            assert np.array_equal(arr, back)
