import threading

import numpy as np
import pytest

from klwalk import CostFunction, StochasticMatrix


def random_ergodic_kernel(rng: np.random.Generator, n: int) -> StochasticMatrix:
    """Strictly positive rows (flat Dirichlet), hence primitive."""
    return StochasticMatrix(rng.dirichlet(np.ones(n), size=n))


def random_cost(rng: np.random.Generator, n: int, cap: float = 1.0) -> CostFunction:
    return CostFunction(rng.random(n) * cap)


def pick_from_cdf(cdf: np.ndarray, u: float) -> int:
    """Scalar inverse-CDF draw on a dense row CDF, the oracle of the
    library's walker: the smallest j with cdf[j] > u, and for a u in the
    rounding gap above cdf[-1] the last entry that adds mass."""
    n = cdf.shape[0]
    j = int(np.searchsorted(cdf, u, side="right"))
    if j >= n:
        j = n - 1
        while j > 0 and cdf[j] <= cdf[j - 1]:
            j -= 1
    return j


def dense_markov_path(rows: np.ndarray, start: int, uniforms: np.ndarray) -> np.ndarray:
    """Walk a chain one ``pick_from_cdf`` at a time over the dense CDFs of
    ``rows``; the visited states, ``len(uniforms) + 1`` of them."""
    cdf = np.cumsum(rows, axis=1)
    states = [int(start)]
    for u in uniforms:
        states.append(pick_from_cdf(cdf[states[-1]], u))
    return np.array(states, dtype=np.int64)


def run_within(seconds: float, fn, *args):
    """Run ``fn(*args)`` in a daemon thread and return its result, or
    re-raise what it raised; fail the test if it has not finished within
    ``seconds`` (a hang then fails the test instead of stalling the suite).
    """
    outcome = {}

    def target():
        try:
            outcome["value"] = fn(*args)
        except BaseException as exc:  # handed back to the test's thread
            outcome["error"] = exc

    worker = threading.Thread(target=target, daemon=True)
    worker.start()
    worker.join(timeout=seconds)
    if worker.is_alive():
        pytest.fail(f"{getattr(fn, '__name__', fn)} did not finish within {seconds} s")
    if "error" in outcome:
        raise outcome["error"]
    return outcome["value"]


@pytest.fixture
def rng():
    return np.random.default_rng(987654321)
