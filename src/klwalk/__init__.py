"""Controlled random walks with KL control cost.

A library and CLI for Markov decision processes whose action is the next
state distribution itself, priced by state cost plus KL divergence from a
fixed passive kernel: the certified eigenproblem solver for the optimal
stationary policy, the phased online strategy with sublinear regret, and
a reproducible graph target-tracking experiment harness.
"""

from .chains import (
    ErgodicityReport,
    StochasticMatrix,
    dobrushin_coefficient,
    ergodicity_report,
    graph_verdict,
    invariant_distribution,
    kl_divergence,
    span_seminorm,
    total_variation,
)
from .errors import (
    ConvergenceError,
    DimensionMismatchError,
    GraphError,
    NotErgodicError,
    NotUnichainError,
    ParseError,
)
from .evaluate import (
    ExperimentResult,
    ExperimentSpec,
    PolicyPool,
    best_in_hindsight,
    growth_exponent,
    monte_carlo,
    pool_best_realized_cost,
    realized_expected_comparator_cost,
    run_experiment,
    run_tracking_once,
    sample_policy_pool,
    split_seed,
    steady_state_comparator_cost,
    summarize,
)
from .online import (
    RunTrace,
    make_schedule,
    run_episode,
)
from .policy import (
    BoundConstants,
    KlPolicy,
    bound_constants,
    optimal_policy,
    rows_kl,
    steady_state_cost,
    twisted_kernel,
    twisted_pair_kl,
)
from .spectral import (
    MpeSolution,
    SolverSettings,
    acoe_residual,
    solve_mpe,
)
from .world import (
    Graph,
    TrackingEnv,
    bfs_distances,
    build_passive,
    grid_graph,
    load_graph,
    make_tracking_env,
)

__version__ = "0.1.0"
