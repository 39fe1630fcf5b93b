import threading

import numpy as np
import pytest

from klwalk import CostFunction, StochasticMatrix


def random_ergodic_kernel(rng: np.random.Generator, n: int) -> StochasticMatrix:
    """Strictly positive rows (flat Dirichlet), hence primitive."""
    return StochasticMatrix(rng.dirichlet(np.ones(n), size=n))


def random_cost(rng: np.random.Generator, n: int, cap: float = 1.0) -> CostFunction:
    return CostFunction(rng.random(n) * cap)


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
