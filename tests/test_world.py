import pickle
from collections import deque
from dataclasses import replace

import numpy as np
import pytest

from klwalk import (
    Graph,
    GraphError,
    bfs_distances,
    build_passive,
    dobrushin_coefficient,
    ergodicity_report,
    grid_graph,
    load_graph,
    make_tracking_env,
)
from klwalk.world import _KERNEL_STREAM, _PATH_STREAM

from conftest import dense_markov_path


def floyd_warshall(n, edges):
    """Independent all-pairs oracle (shares nothing with the BFS code)."""
    dist = np.full((n, n), np.inf)
    np.fill_diagonal(dist, 0.0)
    for u, v in edges:
        dist[u, v] = dist[v, u] = 1.0
    for k in range(n):
        dist = np.minimum(dist, dist[:, k, None] + dist[None, k, :])
    return dist


def reference_bfs(graph):
    """One breadth-first pass per source over the adjacency lists."""
    dist = np.full((graph.n, graph.n), -1, dtype=np.int64)
    for src in range(graph.n):
        dist[src, src] = 0
        frontier = deque([src])
        while frontier:
            u = frontier.popleft()
            for v in graph.adjacency[u]:
                if dist[src, v] < 0:
                    dist[src, v] = dist[src, u] + 1
                    frontier.append(v)
    return dist


def random_connected_graph(seed, n=30, extra=25):
    """A random spanning tree plus ``extra`` random chords."""
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    edges = {tuple(sorted((int(order[i]), int(order[rng.integers(i)])))) for i in range(1, n)}
    while len(edges) < n - 1 + extra:
        u, v = (int(x) for x in rng.choice(n, size=2, replace=False))
        edges.add((min(u, v), max(u, v)))
    return Graph.from_edges(n, sorted(edges))


class TestLoadGraph:
    def test_path_graph(self):
        g = load_graph("0 1\n1 2")
        assert g.n == 3
        assert g.adjacency == ((1,), (0, 2), (1,))

    def test_comments_and_blank_lines(self):
        g = load_graph("# a path\n\n0 1  # edge one\n1 2\n")
        assert g.n == 3 and len(g.edges) == 2

    def test_malformed_line_carries_line_number(self):
        with pytest.raises(GraphError, match="line 2"):
            load_graph("0 1\n1 2 3")
        with pytest.raises(GraphError, match="line 1"):
            load_graph("a b")

    def test_duplicate_edge(self):
        with pytest.raises(GraphError, match="duplicate"):
            load_graph("0 1\n1 0")

    def test_self_loop(self):
        with pytest.raises(GraphError, match="self-loop"):
            load_graph("0 0")

    def test_two_components(self):
        with pytest.raises(GraphError, match="disconnected"):
            load_graph("0 1\n2 3")

    def test_too_few_edges_fail_before_any_per_vertex_state(self):
        # n - 1 edges are needed to connect n vertices; per-vertex state for
        # 10**12 vertices would not fit in memory
        with pytest.raises(GraphError, match="disconnected"):
            Graph.from_edges(10**12, [(0, 1)])
        with pytest.raises(GraphError, match="disconnected"):
            load_graph("0 1\n0 1000000000000")

    def test_empty_edge_list(self):
        with pytest.raises(GraphError):
            load_graph("# nothing here\n")

    def test_single_vertex_graph_is_constructible(self):
        # n=1 counts as trivially connected, but only programmatically:
        # the edge-list format cannot express an isolated vertex
        g = grid_graph(1, 1)
        assert g.n == 1 and g.edges == ()


class TestGridGraph:
    def test_tiny_grids(self):
        assert grid_graph(1, 1).n == 1
        g = grid_graph(2, 2)
        assert g.n == 4 and len(g.edges) == 4

    def test_edge_count_formula(self):
        g = grid_graph(10, 10)
        assert g.n == 100
        assert len(g.edges) == 2 * 10 * 10 - 10 - 10  # 180

    def test_bad_dimensions(self):
        with pytest.raises(GraphError):
            grid_graph(0, 5)


class TestBfsDistances:
    def test_path(self):
        g = load_graph("0 1\n1 2")
        dist, diameter = bfs_distances(g)
        assert dist[0, 2] == 2 and diameter == 2

    def test_complete_graph(self):
        edges = [(u, v) for u in range(4) for v in range(u + 1, 4)]
        g = Graph.from_edges(4, edges)
        dist, diameter = bfs_distances(g)
        off_diag = dist[~np.eye(4, dtype=bool)]
        assert np.all(off_diag == 1) and diameter == 1

    def test_grid_against_independent_oracle(self):
        g = grid_graph(6, 6)
        dist, diameter = bfs_distances(g)
        oracle = floyd_warshall(g.n, g.edges)
        np.testing.assert_array_equal(dist, oracle.astype(np.int64))
        assert diameter == 10

    def test_symmetry_zero_diagonal(self):
        g = grid_graph(4, 3)
        dist, _ = bfs_distances(g)
        np.testing.assert_array_equal(dist, dist.T)
        assert np.all(np.diag(dist) == 0)

    @pytest.mark.parametrize(
        "graph",
        [
            grid_graph(7, 5),
            load_graph("\n".join(f"{i} {i + 1}" for i in range(11))),
            Graph.from_edges(9, [(0, v) for v in range(1, 9)]),
            random_connected_graph(seed=20),
            Graph.from_edges(1, []),
        ],
        ids=["grid", "path", "star", "random", "single-vertex"],
    )
    def test_matches_reference_bfs(self, graph):
        dist, diameter = bfs_distances(graph)
        expected = reference_bfs(graph)
        assert dist.dtype == np.int64 and not dist.flags.writeable
        np.testing.assert_array_equal(dist, expected)
        assert diameter == int(expected.max())

    def test_one_read_only_table_per_graph(self):
        g = grid_graph(4, 4)
        table, diameter = bfs_distances(g)
        assert bfs_distances(g)[0] is table and not table.flags.writeable
        restored = pickle.loads(pickle.dumps(g))
        dist, restored_diameter = bfs_distances(restored)
        assert not dist.flags.writeable and restored_diameter == diameter == 6
        np.testing.assert_array_equal(dist, table)

    def test_disconnected_graph_rejected(self):
        # from_edges refuses it; a Graph built field by field reaches here
        g = Graph(n=3, edges=((0, 1),), adjacency=((1,), (0,), ()))
        with pytest.raises(GraphError, match="disconnected"):
            bfs_distances(g)


class TestBuildPassive:
    def test_convex_combination_rows(self):
        g = grid_graph(3, 3)
        home = 4
        p = build_passive(g, stay_prob=0.2, delta=0.1, home=home)
        np.testing.assert_allclose(p.rows.sum(axis=1), 1.0, atol=1e-12)
        x = 0
        deg = len(g.adjacency[x])
        expected_self = 0.9 * 0.2
        expected_nb = 0.9 * 0.8 / deg
        assert p.rows[x, x] == pytest.approx(expected_self)
        for y in g.adjacency[x]:
            assert p.rows[x, y] == pytest.approx(expected_nb)
        assert p.rows[x, home] == pytest.approx(0.1)

    def test_pure_lazy_walk_row(self):
        # delta = 0 exposes the bare walk (no contraction guarantee then)
        g = load_graph("0 1\n1 2")
        p = build_passive(g, stay_prob=0.5, delta=0.0, home=0)
        np.testing.assert_allclose(p.rows[1], [0.25, 0.5, 0.25], atol=1e-15)

    def test_dobrushin_bounded_by_one_minus_delta(self):
        for graph in (grid_graph(4, 4), load_graph("0 1\n1 2\n2 3\n3 0\n0 2")):
            for stay, delta in ((0.01, 0.01), (0.3, 0.2), (0.5, 0.05)):
                p = build_passive(graph, stay, delta, home=0)
                assert dobrushin_coefficient(p) <= 1 - delta + 1e-12

    def test_paper_scale_contraction(self):
        p = build_passive(grid_graph(10, 10), stay_prob=0.01, delta=0.01, home=0)
        # exact bound is 1 - delta; the 1e-12 covers float summation only
        assert dobrushin_coefficient(p) <= 0.99 + 1e-12

    def test_always_ergodic(self):
        for graph in (grid_graph(3, 4), load_graph("0 1\n1 2")):
            p = build_passive(graph, stay_prob=0.25, delta=0.05, home=1)
            report = ergodicity_report(p)
            assert report.irreducible and report.aperiodic

    def test_parameter_validation(self):
        g = grid_graph(2, 2)
        with pytest.raises(ValueError):
            build_passive(g, stay_prob=0.0, delta=0.1, home=0)
        with pytest.raises(ValueError):
            build_passive(g, stay_prob=0.5, delta=1.0, home=0)
        with pytest.raises(ValueError):
            build_passive(g, stay_prob=0.5, delta=0.1, home=9)


class TestTrackingEnv:
    def test_target_kernel_support_and_row_sums(self):
        g = grid_graph(4, 4)
        env = make_tracking_env(g, seed=3)
        rows = env.target_kernel.rows
        np.testing.assert_allclose(rows.sum(axis=1), 1.0, atol=1e-12)
        for x in range(g.n):
            closed = {x, *g.adjacency[x]}
            assert set(np.nonzero(rows[x])[0]) <= closed

    @pytest.mark.parametrize("alpha", [0.05, 1.0, 3.0])
    @pytest.mark.parametrize("graph", [grid_graph(10, 10), grid_graph(15, 15),
                                       random_connected_graph(8)],
                             ids=["grid-10x10", "grid-15x15", "edge-list-30"])
    def test_target_kernel_is_the_per_row_draw(self, graph, alpha):
        # one Dirichlet call per vertex, the draw the batched runs replace
        for seed in range(2):
            rng = np.random.default_rng([seed, _KERNEL_STREAM])
            rows = np.zeros((graph.n, graph.n))
            for x in range(graph.n):
                closed = (x,) + graph.adjacency[x]
                rows[x, list(closed)] = rng.dirichlet(np.full(len(closed), alpha))
            env = make_tracking_env(graph, seed=seed, dirichlet_alpha=alpha)
            assert np.array_equal(env.target_kernel.rows, rows)
            assert env.target_state == int(rng.integers(graph.n))

    def test_determinism_across_calls(self):
        g = grid_graph(4, 4)
        a = make_tracking_env(g, seed=11)
        b = make_tracking_env(g, seed=11)
        np.testing.assert_array_equal(a.target_kernel.rows, b.target_kernel.rows)
        assert a.target_state == b.target_state
        np.testing.assert_array_equal(a.stream(50), b.stream(50))

    def test_different_seeds_differ(self):
        g = grid_graph(4, 4)
        a = make_tracking_env(g, seed=11)
        b = make_tracking_env(g, seed=12)
        assert not np.array_equal(a.target_kernel.rows, b.target_kernel.rows)

    def test_large_alpha_concentrates_to_uniform(self):
        g = grid_graph(3, 3)
        env = make_tracking_env(g, seed=0, dirichlet_alpha=1e6)
        for x in range(g.n):
            closed = sorted({x, *g.adjacency[x]})
            expected = 1.0 / len(closed)
            np.testing.assert_allclose(
                env.target_kernel.rows[x, closed], expected, atol=0.01
            )

    @pytest.mark.parametrize("alpha", [0.0, -1.0, np.inf, np.nan])
    def test_alpha_must_be_finite_and_positive(self, alpha):
        # an infinite alpha would draw all-NaN target rows
        with pytest.raises(ValueError, match="dirichlet_alpha"):
            make_tracking_env(grid_graph(2, 2), seed=0, dirichlet_alpha=alpha)

    def test_stream_is_fixed_before_the_agent_runs(self):
        # one read-only array, and the first 20 rows of a longer walk
        env = make_tracking_env(grid_graph(3, 3), seed=4)
        costs = env.stream(20)
        assert costs.shape == (20, 9) and costs.dtype == np.float64
        assert costs.flags.c_contiguous and not costs.flags.writeable
        np.testing.assert_array_equal(env.stream(30)[:20], costs)

    @pytest.mark.parametrize("horizon", [1, 2, 300])
    @pytest.mark.parametrize("shape", [(3, 3), (6, 6), (1, 5)])
    def test_stream_matches_dense_cdf_walk(self, shape, horizon):
        # the target is the one state at distance zero from itself
        for seed in range(3):
            env = make_tracking_env(grid_graph(*shape), seed=seed, dirichlet_alpha=0.3)
            positions = [int(np.flatnonzero(row == 0)[0]) for row in env.stream(horizon)]
            uniforms = np.random.default_rng([seed, _PATH_STREAM]).random(horizon - 1)
            want = dense_markov_path(env.target_kernel.rows, env.target_state, uniforms)
            assert positions == want.tolist()


class TestTrackingCost:
    """Each row of ``stream`` is the distance to the target over the diameter."""

    def test_zero_at_target(self):
        env = make_tracking_env(grid_graph(3, 3), seed=1)
        for s in range(9):
            assert replace(env, target_state=s).stream(1)[0, s] == 0.0

    def test_path_distances_over_diameter(self):
        env = replace(make_tracking_env(load_graph("0 1\n1 2"), seed=1), target_state=0)
        np.testing.assert_allclose(env.stream(1)[0], [0.0, 0.5, 1.0])

    def test_grid_corner_extremes(self):
        g = grid_graph(6, 6)
        row = replace(make_tracking_env(g, seed=1), target_state=0).stream(1)[0]
        assert row.max() == 1.0
        assert row[35] == 1.0  # opposite corner
        assert np.all((0.0 <= row) & (row <= 1.0))

    def test_rows_are_the_table_columns_over_the_diameter(self):
        g = grid_graph(4, 5)
        costs = make_tracking_env(g, seed=8).stream(40)
        table, diameter = bfs_distances(g)
        positions = [int(np.flatnonzero(row == 0)[0]) for row in costs]
        assert np.array_equal(costs, np.stack([table[:, s] / diameter for s in positions]))

    def test_out_of_range(self):
        env = replace(make_tracking_env(grid_graph(2, 2), seed=1), target_state=4)
        with pytest.raises(IndexError, match="out of range"):
            env.stream(1)
