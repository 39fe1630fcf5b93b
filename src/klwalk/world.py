"""Graph worlds and the target-tracking cost stream.

The experiment terrain is a connected undirected graph. The passive
dynamics mix a lazy nearest-neighbour walk with a small teleport-to-home
column, which keeps the kernel irreducible, aperiodic and strictly
Dobrushin-contractive. The tracked target walks the same graph with its
own (randomly sampled) kernel; its whole trajectory is simulated before
the agent ever moves, so the resulting cost sequence cannot depend on the
agent's behaviour. It is one ``_accel.markov_path`` walk over the target
kernel's ``draw_table``, the walker and draw that move the agent too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components, shortest_path

from . import _accel
from .chains import CostFunction, StochasticMatrix, draw_table, memoized
from .errors import GraphError

_KERNEL_STREAM = 0x6B65726E  # distinct child-stream tags for one env seed
_PATH_STREAM = 0x70617468


@dataclass(frozen=True)
class Graph:
    """A connected undirected graph without self-loops or repeated edges."""

    n: int
    edges: tuple[tuple[int, int], ...]
    adjacency: tuple[tuple[int, ...], ...]

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        if n < 1:
            raise GraphError(f"graph needs at least one vertex, got n={n}")
        edges = list(edges)
        if len(edges) < n - 1:  # before any per-vertex state, so a huge n fails at once
            raise GraphError(f"graph is disconnected: {len(edges)} edges cannot join {n} vertices")
        seen = set()
        normalized = []
        neighbours = [set() for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise GraphError(f"self-loop at vertex {u} (laziness belongs to the walk)")
            key = (min(u, v), max(u, v))
            if key in seen:
                raise GraphError(f"duplicate edge ({u}, {v})")
            seen.add(key)
            normalized.append(key)
            neighbours[u].add(v)
            neighbours[v].add(u)
        graph = cls(
            n=n,
            edges=tuple(normalized),
            adjacency=tuple(tuple(sorted(nb)) for nb in neighbours),
        )
        if connected_components(graph._adjacency_csr(), directed=False)[0] > 1:
            raise GraphError("graph is disconnected")
        return graph

    @memoized
    def _adjacency_csr(self) -> csr_matrix:
        """Each edge once, as a CSR matrix for csgraph's undirected
        searches; built on first use and kept on the (immutable) graph."""
        u, v = np.array(self.edges, dtype=np.int64).reshape(-1, 2).T
        return csr_matrix((np.ones(u.shape[0]), (u, v)), shape=(self.n, self.n))

    def degree(self, x: int) -> int:
        return len(self.adjacency[x])


def load_graph(edge_list: str) -> Graph:
    """Parse a whitespace-separated edge list ('#' starts a comment).

    Vertices are 0-based; the vertex count is one past the largest index
    mentioned. A single isolated vertex cannot be expressed in this
    format, so an empty edge list is rejected.
    """
    edges = []
    for lineno, raw in enumerate(edge_list.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise GraphError(f"line {lineno}: expected two vertex indices, got {raw.strip()!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphError(f"line {lineno}: vertex indices must be integers, got {raw.strip()!r}")
        if u < 0 or v < 0:
            raise GraphError(f"line {lineno}: vertex indices must be nonnegative")
        edges.append((u, v))
    if not edges:
        raise GraphError("edge list is empty")
    n = max(max(u, v) for u, v in edges) + 1
    return Graph.from_edges(n, edges)


def grid_graph(rows: int, cols: int) -> Graph:
    """4-connected lattice with vertex ids r * cols + c."""
    if rows < 1 or cols < 1:
        raise GraphError(f"grid needs positive dimensions, got {rows}x{cols}")
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                edges.append((v, v + 1))
            if r + 1 < rows:
                edges.append((v, v + cols))
    return Graph.from_edges(rows * cols, edges)


def bfs_distances(graph: Graph) -> tuple[np.ndarray, int]:
    """All-pairs hop counts, by scipy's unweighted shortest paths from
    every source."""
    hops = shortest_path(graph._adjacency_csr(), method="D", directed=False, unweighted=True)
    if not np.all(np.isfinite(hops)):
        raise GraphError("graph is disconnected")
    dist = hops.astype(np.int64)
    diameter = int(dist.max())
    dist.setflags(write=False)
    return dist, diameter


def build_passive(graph: Graph, stay_prob: float, delta: float, home: int) -> StochasticMatrix:
    """Mix the lazy neighbour walk with a teleport-to-home column.

    The walk stays put with probability ``stay_prob`` and otherwise moves
    to a uniformly chosen neighbour; with probability ``delta`` a step is
    replaced by a jump to ``home``. Any delta > 0 forces every pair of
    rows to overlap at the home column, so the Dobrushin coefficient is at
    most 1 - delta. delta = 0 is accepted for building the bare walk, but
    forfeits that guarantee.
    """
    if not 0.0 < stay_prob < 1.0:
        raise ValueError(f"stay_prob must lie in (0, 1), got {stay_prob}")
    if not 0.0 <= delta < 1.0:
        raise ValueError(f"delta must lie in [0, 1), got {delta}")
    if not 0 <= home < graph.n:
        raise ValueError(f"home vertex {home} out of range for n={graph.n}")
    n = graph.n
    walk = np.zeros((n, n))
    if n == 1:
        walk[0, 0] = 1.0
    else:
        for x in range(n):
            nb = graph.adjacency[x]
            walk[x, x] = stay_prob
            walk[x, list(nb)] = (1.0 - stay_prob) / len(nb)
    rows = (1.0 - delta) * walk
    rows[:, home] += delta
    return StochasticMatrix(rows)


@dataclass(frozen=True)
class TrackingEnv:
    """A target walking the graph, plus the distance table that prices it.

    ``target_kernel`` rows are supported on closed neighbourhoods (vertex
    plus its neighbours); ``target_state`` is the sampled starting vertex.
    """

    graph: Graph
    target_kernel: StochasticMatrix
    target_state: int
    distances: np.ndarray
    diameter: int
    seed: int
    dirichlet_alpha: float

    def stream(self, horizon: int) -> "ReplayCostStream":
        """Pre-simulate the target for ``horizon`` steps and freeze the
        resulting cost sequence (identical for identical env seeds)."""
        if horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {horizon}")
        rng = np.random.default_rng([self.seed, _PATH_STREAM])
        table = draw_table(self.target_kernel)
        positions = _accel.markov_path(table, self.target_state, rng.random(horizon - 1))
        return ReplayCostStream([tracking_cost(self, int(s)) for s in positions])


def make_tracking_env(graph: Graph, seed: int, dirichlet_alpha: float = 1.0) -> TrackingEnv:
    """Sample a target kernel (Dirichlet rows over closed neighbourhoods)
    and a uniform starting vertex, both driven by ``seed``."""
    if not 0 < dirichlet_alpha < math.inf:
        raise ValueError(f"dirichlet_alpha must be finite and positive, got {dirichlet_alpha}")
    rng = np.random.default_rng([seed, _KERNEL_STREAM])
    n = graph.n
    rows = np.zeros((n, n))
    for x in range(n):
        closed = (x,) + graph.adjacency[x]
        rows[x, list(closed)] = rng.dirichlet(np.full(len(closed), dirichlet_alpha))
    target0 = int(rng.integers(n))
    distances, diameter = bfs_distances(graph)
    return TrackingEnv(
        graph=graph,
        target_kernel=StochasticMatrix(rows),
        target_state=target0,
        distances=distances,
        diameter=diameter,
        seed=seed,
        dirichlet_alpha=dirichlet_alpha,
    )


def tracking_cost(env: TrackingEnv, target_position: int) -> CostFunction:
    """Graph distance to the target, normalized by the diameter; zero at
    the target itself, one at the far end of the graph."""
    if not 0 <= target_position < env.graph.n:
        raise IndexError(f"vertex {target_position} out of range for n={env.graph.n}")
    if env.diameter == 0:
        return CostFunction(np.zeros(env.graph.n))
    return CostFunction(env.distances[:, target_position] / env.diameter)


class ReplayCostStream:
    """Serve a pre-generated list of cost functions in order.

    This is the only cost-stream implementation the library ships: the
    sequence is fixed at construction, which makes obliviousness to the
    agent structural rather than promised.
    """

    def __init__(self, costs):
        self._costs = tuple(costs)
        self._cursor = 0

    def __len__(self) -> int:
        return len(self._costs)

    @property
    def costs(self) -> tuple[CostFunction, ...]:
        """The full pre-generated sequence (reading it does not consume it)."""
        return self._costs

    @property
    def remaining(self) -> int:
        return len(self._costs) - self._cursor

    def next(self) -> CostFunction:
        if self._cursor >= len(self._costs):
            raise RuntimeError("cost stream exhausted")
        out = self._costs[self._cursor]
        self._cursor += 1
        return out
