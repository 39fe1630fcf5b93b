"""Certified solver for the multiplicative Poisson equation.

For a passive kernel P and state cost f, a float64 array of n finite,
nonnegative numbers that ``solve_mpe`` checks once, the optimal average
cost and relative value function come out of the dominant eigenpair of
the nonnegative irreducible matrix A = e^{-f} P:

    e^{-f} P V = e^{-lambda} V,      h = -log V,  h(pin) = 0.

``solve_mpe`` iterates with per-iteration normalization V(pin) = 1 and
stops once the running Collatz bracket
[min_x (AV)(x)/V(x), max_x (AV)(x)/V(x)] on the eigenvalue is narrower
than the requested tolerance; the bracket is part of the returned
solution and is a machine-checkable optimality certificate. The
iteration (``_accel.mpe_power_iteration``) is Noda's inverse iteration in
the linear domain: each step multiplies by A for the bracket, then solves
(sigma I - A) z = V with sigma an upper Collatz bound, keeping one sparse
LU factor for as long as it contracts the bracket tenfold per step, and
takes a plain power step instead whenever that solve fails or leaves the
positive normal float64 range. A solve may start from a nearby problem's
relative value function. When e^{-f} or an iterate leaves the normal
range, the solve reruns with power steps in log space. The solution
stores h only; V = e^{-h} is derived on demand, because it overflows for
costs of large span. A constant cost still runs the certified iteration,
but its h is returned as an exact zero vector (only lambda shifts), so the
policy it twists is the passive kernel itself.
The standing assumption, an irreducible and aperiodic P, is checked on the
positive pattern alone (``chains.graph_verdict``); the Dobrushin
coefficient and the other bound constants are never computed here.
``acoe_residual`` checks a solution independently in log-sum-exp form
over the passive's nonzeros (``_accel.logsumexp_rows``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import _accel
from .chains import (
    FrozenArrays,
    StochasticMatrix,
    frozen_copy,
    graph_verdict,
    support_layout,
)
from .chains import ergodicity_report  # noqa: F401  (public name; tracers patch it here)
from .errors import ConvergenceError, DimensionMismatchError, NotErgodicError


@dataclass(frozen=True)
class SolverSettings:
    """Knobs for the certified eigenvalue iteration of ``solve_mpe``.

    ``tolerance`` is the certified width of the eigenvalue bracket on
    e^{-lambda}; ``pin_index`` is the state where the relative value
    function is pinned to zero. ``max_iterations`` caps the steps of one
    run; each step is one Collatz bound and one inverse (or power) step.
    """

    tolerance: float = 1e-12
    max_iterations: int = 100_000
    pin_index: int = 0

    def __post_init__(self):
        if not 0 < self.tolerance < math.inf:
            raise ValueError(f"tolerance must be positive and finite, got {self.tolerance}")
        if self.max_iterations < 1:
            raise ValueError(f"max_iterations must be >= 1, got {self.max_iterations}")
        if self.pin_index < 0:
            raise ValueError(f"pin_index must be a valid state, got {self.pin_index}")


@dataclass(frozen=True)
class MpeSolution(FrozenArrays):
    """Eigenpair of e^{-f} P plus its certificate.

    ``lam`` is the optimal average cost, ``h`` the relative value function
    with h(pin) = 0, and ``bracket`` the certified enclosure of e^{-lam}.
    The positive eigenvector ``v = e^{-h}`` is derived from ``h``.
    """

    lam: float
    h: np.ndarray
    bracket: tuple[float, float]
    iterations: int

    def __post_init__(self):
        h = frozen_copy(self.h)
        object.__setattr__(self, "h", h)
        if not np.all(np.isfinite(h)):
            raise ValueError("relative value function must be finite")
        lo, hi = self.bracket
        if not (lo <= hi and lo > 0):
            raise ValueError(f"invalid eigenvalue bracket {self.bracket}")

    @property
    def v(self) -> np.ndarray:
        """The eigenvector e^{-h}, entrywise positive with v(pin) = 1.

        Raises FloatingPointError when some entry of e^{-h} over- or
        underflows float64 (|h| beyond about 700); use ``h`` then.
        """
        with np.errstate(over="ignore", under="ignore"):
            v = np.exp(-self.h)
        if not (v.min() > 0 and v.max() < math.inf):
            raise FloatingPointError(
                f"v = e^{{-h}} is not representable in float64: h spans "
                f"[{self.h.min():.6g}, {self.h.max():.6g}]; use h instead"
            )
        v.setflags(write=False)
        return v

    @property
    def bracket_width(self) -> float:
        return self.bracket[1] - self.bracket[0]


def _validate_inputs(passive: StochasticMatrix, f, settings: SolverSettings) -> np.ndarray:
    """The cost ``f`` as a float64 array, once it and the passive are fit
    to solve: f holds n finite, nonnegative numbers, the pin is a state and
    the passive is irreducible and aperiodic."""
    f = np.asarray(f, dtype=np.float64)
    if f.shape != (passive.n,):
        raise DimensionMismatchError(f"cost has shape {f.shape}, kernel has n={passive.n}")
    if not np.all(np.isfinite(f)) or f.min() < 0:
        raise ValueError("cost values must be finite and nonnegative")
    if settings.pin_index >= passive.n:
        raise ValueError(f"pin_index {settings.pin_index} out of range for n={passive.n}")
    irreducible, aperiodic = graph_verdict(passive)
    if not (irreducible and aperiodic):
        raise NotErgodicError(
            "passive kernel is not ergodic "
            f"(irreducible={irreducible}, aperiodic={aperiodic})"
        )
    return f


def solve_mpe(
    passive: StochasticMatrix,
    f: np.ndarray,
    settings: Optional[SolverSettings] = None,
    start: Optional[np.ndarray] = None,
) -> MpeSolution:
    """Solve e^{-f} P V = e^{-lambda} V by certified inverse iteration.

    ``f`` holds one cost per state; a cost that is not 1-D of length n
    raises DimensionMismatchError, and one with a NaN, infinite or negative
    entry raises ValueError. The cost is shifted by its minimum before
    iterating (the shift factors out of the eigenproblem exactly), which
    keeps the bracket well conditioned for costs with a large common offset
    and puts e^{-f} in (0, 1]; the reported bracket is rescaled back, so
    its width never exceeds the tolerance.

    The iteration starts from V = e^{-h} for ``start``, a relative value
    function h of a nearby problem (the last phase's, say), when that
    vector is normal in float64, and from V = 1 otherwise. Each step bounds
    e^{-lambda} by the Collatz quotients of A V and then solves
    (sigma I - A) z = V by sparse LU, with sigma an upper bound: the step's
    own when it refactors, which it does on the first step and whenever the
    bracket shrank by less than 10x in the last step, and otherwise the
    kept factor's. A step whose factorization fails or gives an entry that
    is not positive and normal drops the factor and takes the power step
    A V instead. Costs whose e^{-f} or iterates leave the normal float64
    range rerun with power steps in log space, from V = 1 whatever
    ``start``. The start changes how many steps a solve takes, never its
    certificate. ``iterations`` counts the steps of the run that produced
    the solution. A constant cost gives h as an exact zero vector.
    """
    settings = settings or SolverSettings()
    f = _validate_inputs(passive, f, settings)
    if start is not None:
        start = np.asarray(start, dtype=np.float64)
        if start.shape != (passive.n,):
            raise DimensionMismatchError(
                f"start has shape {start.shape}, expected ({passive.n},)"
            )
    base = float(f.min())
    w, lo, hi, iterations, converged = _accel.mpe_power_iteration(
        passive.rows, support_layout(passive), f - base, settings.pin_index,
        settings.tolerance, settings.max_iterations, start,
    )
    scale = math.exp(-base)
    bracket = (lo * scale, hi * scale)
    if not converged:
        raise ConvergenceError(
            f"no convergence after {iterations} iterations "
            f"(bracket width {hi - lo:.3e} > tolerance {settings.tolerance:.3e})",
            bracket=bracket,
            iterations=iterations,
        )
    lam = base - math.log(0.5 * (lo + hi))
    if f.max() == base:  # a constant cost provably has h = 0; drop the rounding
        h = np.zeros(passive.n)
    else:
        h = -w
        h = h - h[settings.pin_index]  # exact zero at the pin (clears -0.0 too)
    return MpeSolution(lam=lam, h=h, bracket=bracket, iterations=iterations)


def acoe_residual(passive: StochasticMatrix, f: np.ndarray, sol: MpeSolution) -> float:
    """max_x |h(x) + lambda - f(x) + log(P e^{-h})(x)|, in log-sum-exp form.

    Zero for an exact solution of the optimality equation; accepted solver
    output stays below 1e-8.
    """
    f = np.asarray(f, dtype=np.float64)
    if f.shape != (passive.n,) or sol.h.shape[0] != passive.n:
        raise DimensionMismatchError("passive, cost and solution dimensions disagree")
    layout = support_layout(passive)
    log_z = _accel.logsumexp_rows(layout, np.log(passive.rows[layout.row, layout.col]), -sol.h)
    return float(np.abs(sol.h + sol.lam - f + log_z).max())
