"""Box-constrained smooth minimization with analytic gradients.

`minimize_box` runs one start of scipy's L-BFGS-B (limited-memory quasi-Newton
with gradient projection), which is the algorithm family required here, and
evaluates each distinct point once per search through the memo its caller
hands it. The multi-start search itself (seeded starts, one memo per search and
a deterministic reduction) is `gp.log_space_search`.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.optimize import Bounds
from scipy.optimize import minimize as _scipy_minimize

from .exceptions import DimensionMismatch, InvalidConfig, ObjectiveNonFinite

Objective = Callable[[np.ndarray], tuple[float, np.ndarray]]

# Finite stand-in for +inf objective values: keeps the Fortran line search sane
# while still forcing a retreat.
_BIG = 1e25


@dataclass(frozen=True)
class BoxBounds:
    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lower = np.atleast_1d(np.asarray(self.lower, dtype=float))
        upper = np.atleast_1d(np.asarray(self.upper, dtype=float))
        if lower.shape != upper.shape or lower.ndim != 1:
            raise DimensionMismatch("bounds must be two vectors of equal length")
        if not (np.all(np.isfinite(lower)) and np.all(np.isfinite(upper))):
            raise InvalidConfig("bounds must be finite")
        if not np.all(lower < upper):
            raise InvalidConfig("each lower bound must be strictly below its upper bound")
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)

    @property
    def ndim(self) -> int:
        return self.lower.size

    def clip(self, x: np.ndarray) -> np.ndarray:
        return np.clip(x, self.lower, self.upper)


def check_count(name: str, value, minimum: int = 1) -> None:
    """A count in a run config must be an integer (not a bool) of at least `minimum`."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < minimum:
        raise InvalidConfig(f"{name} must be an integer >= {minimum}, got {value!r}")


def check_positive(name: str, value, zero_ok: bool = False) -> None:
    """A tolerance, variance or noise ratio must be a finite real number (not a bool)
    above 0, or at least 0 when `zero_ok`."""
    if (
        isinstance(value, bool)
        or not isinstance(value, numbers.Real)
        or not 0 <= value <= sys.float_info.max  # also an int too large for a float
        or (value == 0 and not zero_ok)
    ):
        bound = ">= 0" if zero_ok else "> 0"
        raise InvalidConfig(f"{name} must be a finite number {bound}, got {value!r}")


def check_finite(name: str, values: np.ndarray) -> None:
    """Mean or scaling coefficients must be finite."""
    if not np.isfinite(values).all():
        raise InvalidConfig(f"{name} must be finite, got {values}")


@dataclass(frozen=True)
class MultiStartConfig:
    n_starts: int = 10
    max_iterations: int = 200
    gradient_tolerance: float = 1e-6
    rng_seed: int = 0

    def __post_init__(self):
        check_count("n_starts", self.n_starts)
        check_count("max_iterations", self.max_iterations)
        check_positive("gradient_tolerance", self.gradient_tolerance)
        check_count("rng_seed", self.rng_seed, 0)


@dataclass(frozen=True)
class StartResult:
    start: np.ndarray
    x: np.ndarray
    value: float
    converged: bool
    failed: bool = False
    message: str = ""


def minimize_box(
    objective: Objective,
    bounds: BoxBounds,
    start: np.ndarray,
    config: MultiStartConfig,
    seen: dict[bytes, tuple[float, np.ndarray]],
) -> tuple[np.ndarray, float, bool]:
    """Minimize a smooth objective over a box from a feasible start, with
    config.max_iterations and config.gradient_tolerance.

    Returns (argmin, value, converged). The returned value never exceeds the
    value at the start point. A start that met a non-finite value and ends at its
    start point is converged only if its projected gradient there is within the
    tolerance. Raises ObjectiveNonFinite when the objective is not finite at the
    start itself, which L-BFGS-B evaluates first.

    `seen` is the memo of one search: the objective's (value, gradient) at every
    point it was evaluated at, keyed by the bits of x, a non-finite value kept as
    it is and the gradient as a read-only copy (zeros where the value or the
    gradient is not finite). The starts of one search share it, so each distinct
    point reaches the objective once per search; a lone start passes {}.
    """
    start = bounds.clip(np.asarray(start, dtype=float))
    best_x, best_f = None, math.inf
    retreated = False

    # scipy asks for the value and then the gradient at each point, and the line
    # search asks again for points it already holds. The objective is a pure
    # function of x, so a hit returns what recomputing would; it still counts
    # toward this start's best point.
    def value(x):
        nonlocal best_x, best_f, retreated
        key = x.tobytes()
        if key not in seen:
            f, grad = objective(x)
            f = float(f)
            # One pass: a sum of finite components overflows only beyond 1e308.
            if not (math.isfinite(f) and math.isfinite(sum(grad.tolist()))):
                grad = np.zeros_like(grad)
            grad = np.array(grad, dtype=float)
            grad.flags.writeable = False
            seen[key] = f, grad
        f = seen[key][0]
        if not math.isfinite(f):
            if best_x is None:
                raise ObjectiveNonFinite("objective is not finite at the start point")
            retreated = True
            return _BIG
        if f < best_f:
            best_x, best_f = x.copy(), f
        return f

    def gradient(x):
        value(x)
        return seen[x.tobytes()][1]

    res = _scipy_minimize(
        value,
        start,
        jac=gradient,
        method="L-BFGS-B",
        bounds=Bounds(bounds.lower, bounds.upper),
        options={
            "maxiter": config.max_iterations,
            "gtol": config.gradient_tolerance,
            "ftol": 1e-14,
            "maxcor": 10,
        },
    )
    x, f = bounds.clip(res.x), float(res.fun)
    if best_x is not None and best_f < f:
        x, f = bounds.clip(best_x), best_f
    converged = bool(res.success) and np.isfinite(f)
    if retreated and np.array_equal(x, start):
        # scipy may report success at the start after a non-finite trial point sent
        # it back there; converged then needs L-BFGS-B's own test at the start.
        projected = bounds.clip(start - seen[start.tobytes()][1]) - start
        converged = converged and float(np.max(np.abs(projected))) <= config.gradient_tolerance
    return x, f, converged
