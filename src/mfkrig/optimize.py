"""Box-constrained smooth minimization with analytic gradients.

`minimize_box` runs one start of scipy's L-BFGS-B (limited-memory quasi-Newton
with gradient projection; Byrd, Lu, Nocedal & Zhu 1995), which is the algorithm
family required here, and evaluates each distinct point once per search through
the memo its caller hands it. It also applies the distance filter of multi-start
search (Rinnooy Kan & Timmer 1987; Ugray et al. 2007): a start stops, merged,
once an iterate comes within MERGE_RADIUS of the end point of an earlier start of
its search. The multi-start search itself (seeded starts, one memo per search and
a deterministic reduction) is `gp.log_space_search`.

A start reaches L-BFGS-B in one of two ways, chosen once at import:

- scipy's compiled core, `scipy.optimize._lbfgsb.setulb`, driven here by the
  reverse-communication loop of scipy's own `_minimize_lbfgsb`, when the core
  reports the signature of scipy 1.17.1 (`_SETULB_SIGNATURE`). The loop asks
  for the value and gradient at a point (`FG`) and reports each new iterate
  (`NEW_X`), where the distance filter and the iteration and evaluation caps
  apply. It takes the same steps as `scipy.optimize.minimize` would, bit for
  bit, without its per-start set-up and per-evaluation wrapper;
- `scipy.optimize.minimize(method="L-BFGS-B")` with the same options, and the
  distance filter in a callback that stops the search at the same iterate, for
  any other core (scipy 1.13-1.14's Fortran one, a later change of the
  signature) or when the private module cannot be imported.

The core is loaded from its extension file, so that importing this module does
not import scipy.optimize, whose linear-programming and FFT dependencies the
core never uses and which were most of the package's import time.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import numbers
import os
import sys
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
import scipy

from .exceptions import DimensionMismatch, InvalidConfig

_LBFGSB = "scipy.optimize._lbfgsb"


def _load_lbfgsb():
    """scipy's compiled L-BFGS-B module, or None if it cannot be imported.

    When scipy.optimize is not loaded yet, the extension is loaded from its file in
    scipy's `optimize/` folder, and the entry that loading puts in `sys.modules` is
    removed, so that a later `import scipy.optimize` runs as it would have. If there
    is no such file or it does not load, or scipy.optimize is loaded already, the
    module is imported by name.
    """
    if "scipy.optimize" not in sys.modules:
        folder = os.path.join(os.path.dirname(scipy.__file__), "optimize")
        paths = [os.path.join(folder, "_lbfgsb" + suffix)
                 for suffix in importlib.machinery.EXTENSION_SUFFIXES]
        try:
            path = next(filter(os.path.isfile, paths))
            spec = importlib.util.spec_from_file_location(_LBFGSB, path)
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            return module
        except (StopIteration, ImportError, OSError):  # no such file, or it does not load
            pass
        finally:
            sys.modules.pop(_LBFGSB, None)
    try:
        from scipy.optimize import _lbfgsb
    except ImportError:
        return None
    return _lbfgsb


def _scipy_minimize(*args, **kwargs):
    """`scipy.optimize.minimize`, imported on the first call: only the path for an
    unsupported core needs scipy.optimize."""
    from scipy.optimize import minimize

    return minimize(*args, **kwargs)


Objective = Callable[[np.ndarray], tuple[float, np.ndarray]]

# Finite stand-in for +inf objective values: keeps the line search sane while
# still forcing a retreat.
_BIG = 1e25

# L-BFGS-B's settings: scipy's defaults but for ftol.
_FTOL = 1e-14
_MAXCOR = 10
_MAXLS = 20
_MAXFUN = 15000

# The core driven directly, as its docstring states its signature; any other
# signature runs through scipy.optimize.minimize.
_SETULB_SIGNATURE = (
    "setulb(m,x,l,u,nbd,f,g,factr,pgtol,wa,iwa,task,lsave,isave,dsave,maxls,ln_task)"
)
_setulb = getattr(_load_lbfgsb(), "setulb", None)
if (getattr(_setulb, "__doc__", None) or "").split("\n")[0] != _SETULB_SIGNATURE:
    _setulb = None

# The core's task codes (task[0]; task[1] gives the reason). A merged start stops
# with the reason scipy gives a callback's halt.
_FG, _NEW_X, _CONVERGENCE, _STOP = 3, 1, 4, 5
_STOP_MAXFUN, _STOP_MAXITER, _STOP_CALLBACK = 502, 504, 505

# The distance filter's radius, in the units of the search's coordinates (log
# units in `gp.log_space_search`), by the max norm. On the 50-replication
# acceptance panels it cut single-fidelity evaluations by 27 % (analytic1d) and
# 9.3 % (park4d); a radius of 0.1 saved a further 1.7 and 0.8 % of them.
MERGE_RADIUS = 0.05


@dataclass(frozen=True)
class BoxBounds:
    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        # Contiguous vectors: the L-BFGS-B core reads them as raw buffers.
        lower = np.ascontiguousarray(as_vector("lower bounds", self.lower))
        upper = np.ascontiguousarray(as_vector("upper bounds", self.upper))
        if lower.shape != upper.shape:
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


def is_finite_real(value) -> bool:
    """A finite real number, not a bool; an int beyond the float range is not finite."""
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    return real and -sys.float_info.max <= value <= sys.float_info.max


def check_positive(name: str, value, zero_ok: bool = False) -> None:
    """A tolerance, variance or noise ratio must be a finite real number (not a bool)
    above 0, or at least 0 when `zero_ok`."""
    if not is_finite_real(value) or value < 0 or (value == 0 and not zero_ok):
        bound = ">= 0" if zero_ok else "> 0"
        raise InvalidConfig(f"{name} must be a finite number {bound}, got {value!r}")


def check_finite(name: str, values: np.ndarray) -> None:
    """Mean or scaling coefficients must be finite."""
    if not np.isfinite(values).all():
        raise InvalidConfig(f"{name} must be finite, got {values}")


def _floats(name: str, values) -> np.ndarray:
    """`values` as a float array; entries that are not numbers raise InvalidConfig."""
    try:
        return np.asarray(values).astype(float, casting="same_kind", copy=False)
    except (TypeError, ValueError):  # entries that are not numbers, or ragged nesting
        raise InvalidConfig(f"{name} must be a rectangular array of numbers") from None


def as_vector(name: str, values) -> np.ndarray:
    """`values` as a 1-D float array: a number is one entry, and an array with at
    most one axis longer than 1 is read along that axis. Entries that are not
    numbers raise InvalidConfig, and any other shape DimensionMismatch."""
    vector = _floats(name, values)
    if vector.ndim > 1 and sum(n > 1 for n in vector.shape) > 1:
        raise DimensionMismatch(f"{name} must be a vector, got shape {vector.shape}")
    return vector if vector.ndim == 1 else vector.reshape(-1)


def as_points(name: str, x, d: int | None = None) -> np.ndarray:
    """`x` as an (N, d) float array of N points, of any width when `d` is None. A
    1-D `x` lists its points' coordinates one after another: one each when `d` is
    None or 1, otherwise d each. Entries that are not numbers raise InvalidConfig,
    and any other shape DimensionMismatch."""
    points = _floats(name, x)
    if points.ndim == 1 and points.size % (d or 1) == 0:
        points = points.reshape(-1, d or 1)
    if points.ndim != 2 or d not in (None, points.shape[1]):
        raise DimensionMismatch(f"{name} must be an N x {d or 'D'} array, got shape {points.shape}")
    return points


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
    """One start of a search: where it began and ended, its value there, whether
    L-BFGS-B converged, whether the start failed, and the index of the earlier
    start it merged into (None if it did not merge)."""

    start: np.ndarray
    x: np.ndarray
    value: float
    converged: bool
    failed: bool
    merged_into: int | None


def minimize_box(
    objective: Objective,
    bounds: BoxBounds,
    start: np.ndarray,
    config: MultiStartConfig,
    seen: dict[bytes, tuple[float, np.ndarray]],
    ends: Sequence[np.ndarray | None] = (),
) -> tuple[np.ndarray, float, bool, bool, int | None]:
    """Minimize a smooth objective over a box from a feasible start, with
    config.max_iterations and config.gradient_tolerance.

    Returns (argmin, value, converged, failed, merged_into). A start whose
    objective is not finite at the start point fails: (start, inf, False, True,
    None), and L-BFGS-B does not run. Otherwise the value never exceeds the
    start's, and a start that met a non-finite value and ends at its start point is
    converged only if its projected gradient there is within the tolerance.

    `seen` is the memo of one search: the objective's (value, gradient) at every
    point it was evaluated at, keyed by the bits of x, a non-finite value kept as
    it is and the gradient as a read-only copy (zeros where the value or the
    gradient is not finite). The starts of one search share it, so each distinct
    point reaches the objective once per search; a lone start passes {}.

    `ends` holds the end point of each earlier start of the same search, None for
    a failed one. The start stops at the first L-BFGS-B iterate within
    MERGE_RADIUS (max norm) of one of them, unconverged, and merged_into is the
    lowest index of such an end; both paths to L-BFGS-B stop at the same iterate.
    """
    start = bounds.clip(np.asarray(start, dtype=float))

    # L-BFGS-B asks for the value and the gradient at each point, and the line
    # search asks again for points it already holds. The objective is a pure
    # function of x, so a hit returns what recomputing would; it still counts
    # toward this start's best point.
    def lookup(x):
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
        return seen[key]

    best_f, start_grad = lookup(start)
    if not math.isfinite(best_f):
        return start, math.inf, False, True, None
    best_x, retreated = start, False

    def evaluate(x):
        nonlocal best_x, best_f, retreated
        f, grad = lookup(x)
        if not math.isfinite(f):
            retreated = True
            return _BIG, grad
        if f < best_f:
            best_x, best_f = x.copy(), f
        return f, grad

    indices = [i for i, end in enumerate(ends) if end is not None]
    earlier = np.array([ends[i] for i in indices]).reshape(len(indices), start.size)

    def merged_into(x) -> int | None:
        """The lowest index of an earlier end within MERGE_RADIUS of x, or None."""
        near = np.flatnonzero(np.abs(earlier - x).max(axis=1) <= MERGE_RADIUS)
        return indices[near[0]] if near.size else None

    if _setulb is None:
        from scipy.optimize import Bounds

        merged = None

        def callback(intermediate_result):
            nonlocal merged
            merged = merged_into(intermediate_result.x)
            if merged is not None:
                raise StopIteration

        res = _scipy_minimize(
            lambda x: evaluate(x)[0],
            start,
            jac=lambda x: evaluate(x)[1],
            method="L-BFGS-B",
            bounds=Bounds(bounds.lower, bounds.upper),
            callback=callback,
            options={
                "maxiter": config.max_iterations,
                "gtol": config.gradient_tolerance,
                "ftol": _FTOL,
                "maxcor": _MAXCOR,
            },
        )
        x, f, success = res.x, res.fun, res.success
    else:
        x, f, success, merged = _run_setulb(evaluate, merged_into, bounds, start, config)
    x, f = bounds.clip(x), float(f)
    if best_f < f:
        x, f = bounds.clip(best_x), best_f
    converged = bool(success)
    if retreated and np.array_equal(x, start):
        # L-BFGS-B may report success at the start after a non-finite trial point
        # sent it back there; converged then needs its own test at the start.
        projected = bounds.clip(start - start_grad) - start
        converged = converged and float(np.max(np.abs(projected))) <= config.gradient_tolerance
    return x, f, converged, False, merged


def _run_setulb(
    evaluate: Objective,
    merged_into: Callable[[np.ndarray], int | None],
    bounds: BoxBounds,
    start: np.ndarray,
    config: MultiStartConfig,
) -> tuple[np.ndarray, float, bool, int | None]:
    """scipy's `_minimize_lbfgsb` loop over the core, for a finite box and an
    analytic gradient: returns the core's x, the last value it was handed, whether
    it stopped on CONVERGENCE and the start the search merged into, or None.

    As in scipy, the start is evaluated before the core's first call, and an
    evaluation counts toward `_MAXFUN` unless it repeats the last point. At each
    new iterate, `merged_into` takes the place of scipy's callback: an index stops
    the search there, as a callback's halt would, before the caps are tested.
    """
    n = start.size
    m = _MAXCOR
    factr = _FTOL / np.finfo(float).eps
    nbd = np.full(n, 2, dtype=np.int32)  # both bounds finite
    x = start.copy()
    f, g = np.array(0.0), np.zeros(n)
    wa = np.zeros(2 * m * n + 5 * n + 11 * m * m + 8 * m)
    iwa = np.zeros(3 * n, dtype=np.int32)
    task = np.zeros(2, dtype=np.int32)
    ln_task = np.zeros(2, dtype=np.int32)
    lsave = np.zeros(4, dtype=np.int32)
    isave = np.zeros(44, dtype=np.int32)
    dsave = np.zeros(29)

    last_x = start.copy()
    last = evaluate(last_x)
    n_evaluations, n_iterations, merged = 1, 0, None
    while True:
        # The core reads and writes its arrays as raw buffers, whatever their
        # flags: it gets a float64 copy of the memo's read-only gradient.
        g = g.astype(np.float64)
        _setulb(m, x, bounds.lower, bounds.upper, nbd, f, g, factr,
                config.gradient_tolerance, wa, iwa, task, lsave, isave, dsave,
                _MAXLS, ln_task)
        if task[0] == _FG:
            if not (x == last_x).all():  # np.array_equal, as scipy tests a repeat
                last_x = x.copy()
                last = evaluate(last_x)
                n_evaluations += 1
            f, g = last
        elif task[0] == _NEW_X:
            n_iterations += 1
            merged = merged_into(x)
            if merged is not None:
                task[:] = _STOP, _STOP_CALLBACK
            if n_iterations >= config.max_iterations:
                task[:] = _STOP, _STOP_MAXITER
            elif n_evaluations > _MAXFUN:
                task[:] = _STOP, _STOP_MAXFUN
        else:
            return x, f, task[0] == _CONVERGENCE, merged
