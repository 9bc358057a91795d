import dataclasses
import math
import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.optimize

from mfkrig import design, gp, mfgp, optimize
from mfkrig.exceptions import AllStartsFailed, InvalidConfig
from mfkrig.gp import Dataset, fit_gp, log_space_search
from mfkrig.kernels import KernelWorkspace
from mfkrig.optimize import BoxBounds, MultiStartConfig, minimize_box

from conftest import first_search_callback


def quadratic(center):
    def f(x):
        return float(np.sum((x - center) ** 2)), 2.0 * (x - center)

    return f


def quartic_bowl(weights, center):
    """A convex sum of weights * (u^4 + u^2), u = x - center: L-BFGS-B takes several
    iterates to reach its minimum at center."""
    def f(x):
        u = x - center
        return float(np.sum(weights * (u**4 + u**2))), weights * (4.0 * u**3 + 2.0 * u)

    return f


def scipy_combined(objective, bounds, start, max_iterations=200):
    """Oracle: scipy memoizing one (value, gradient) callback itself (jac=True),
    with minimize_box's options."""
    return scipy.optimize.minimize(
        objective, start, jac=True, method="L-BFGS-B",
        bounds=scipy.optimize.Bounds(bounds.lower, bounds.upper),
        options={"maxiter": max_iterations, "gtol": 1e-6, "ftol": 1e-14, "maxcor": 10},
    )


CONFIG = MultiStartConfig()


def raw(objective):
    """objective(omega) as the evaluate(theta, eta) of a log_space_search with
    fixed_eta, which hands it theta = omega."""
    return lambda theta, eta: objective(theta.theta)


def recorded(objective, calls):
    """objective, appending the bits of every x it is called at to calls."""
    def wrapped(x):
        calls.append(x.tobytes())
        return objective(x)
    return wrapped


def first_occurrences(items):
    return list(dict.fromkeys(items))


def each_core(monkeypatch):
    """Yield the name of each path by which minimize_box reaches L-BFGS-B, with that
    path in force: scipy's core driven directly (where this scipy's core has the
    supported signature), then scipy.optimize.minimize, forced by hiding the core."""
    if optimize._setulb is not None:
        yield "setulb"
    with monkeypatch.context() as patch:
        patch.setattr(optimize, "_setulb", None)
        yield "minimize"


def array_bits(*objects):
    """The bytes of every array among objects and, recursively, their dataclass fields."""
    bits = []
    for obj in objects:
        if isinstance(obj, np.ndarray):
            bits.append(obj.tobytes())
        elif dataclasses.is_dataclass(obj):
            bits.extend(array_bits(*(getattr(obj, f.name) for f in dataclasses.fields(obj))))
    return bits


class TestMinimizeBox:
    def test_quadratic_bowl(self):
        bounds = BoxBounds(np.full(3, -5.0), np.full(3, 5.0))
        c = np.array([0.3, -1.2, 2.0])
        x, f, conv, failed, _ = minimize_box(quadratic(c), bounds, np.zeros(3), CONFIG, {})
        assert conv and not failed
        assert np.allclose(x, c, atol=1e-6)

    def test_active_lower_bound(self):
        bounds = BoxBounds(np.ones(4), np.full(4, 2.0))
        x, *_ = minimize_box(quadratic(np.zeros(4)), bounds, np.full(4, 1.5), CONFIG, {})
        assert np.allclose(x, np.ones(4), atol=1e-8)

    def test_rosenbrock(self):
        def rosen(x):
            a, b = x
            val = (1 - a) ** 2 + 100 * (b - a**2) ** 2
            grad = np.array(
                [-2 * (1 - a) - 400 * a * (b - a**2), 200 * (b - a**2)]
            )
            return float(val), grad

        bounds = BoxBounds(np.full(2, -2.0), np.full(2, 2.0))
        _, f, _, failed, _ = minimize_box(
            rosen, bounds, np.array([-1.2, 1.0]), MultiStartConfig(max_iterations=500), {}
        )
        assert f < 1e-8 and not failed

    def test_value_never_exceeds_start(self, monkeypatch):
        bounds = BoxBounds(np.array([-1.0]), np.array([1.0]))
        start = np.array([0.5])
        f0, _ = quadratic(np.zeros(1))(start)
        config = MultiStartConfig(max_iterations=1)
        want = []
        res = scipy_combined(recorded(quadratic(np.zeros(1)), want), bounds, start,
                             max_iterations=1)
        for core in each_core(monkeypatch):
            got = []
            x, f, conv, failed, _ = minimize_box(recorded(quadratic(np.zeros(1)), got),
                                                 bounds, start, config, {})
            assert f <= f0 and not failed, core
            assert got == first_occurrences(want), core
            assert (x.tobytes(), f, conv) == (res.x.tobytes(), res.fun, res.success), core

    def test_nonfinite_at_start(self, monkeypatch):
        # A start whose objective is not finite at the (clipped) start point fails
        # there, after one objective call and without running L-BFGS-B.
        def bad(x):
            return np.nan, np.zeros_like(x)

        ran = []
        monkeypatch.setattr(optimize, "_scipy_minimize", lambda *a, **k: ran.append("minimize"))
        if optimize._setulb is not None:
            monkeypatch.setattr(optimize, "_setulb", lambda *a: ran.append("setulb"))
        bounds = BoxBounds(np.array([0.0]), np.array([1.0]))
        for core in each_core(monkeypatch):
            calls = []
            x, f, conv, failed, merged = minimize_box(recorded(bad, calls), bounds,
                                                      np.array([1.5]), CONFIG, {})
            assert (x.tolist(), f, conv, failed, merged) == ([1.0], math.inf, False, True,
                                                             None), core
            assert calls == [np.array([1.0]).tobytes()], core
        assert ran == []

    def test_nonfinite_start_in_the_memo(self, monkeypatch):
        # A start at a point the search's memo holds as non-finite fails the same
        # way, without calling the objective again.
        def bad(x):
            return np.inf, np.zeros_like(x)

        bounds = BoxBounds(np.array([0.0]), np.array([1.0]))
        start = np.array([0.5])
        for core in each_core(monkeypatch):
            calls, seen = [], {}
            first = minimize_box(recorded(bad, calls), bounds, start, CONFIG, seen)
            again = minimize_box(recorded(bad, calls), bounds, start, CONFIG, seen)
            for x, f, conv, failed, merged in (first, again):
                assert (x.tolist(), f, conv, failed, merged) == ([0.5], math.inf, False,
                                                                 True, None), core
            assert calls == [start.tobytes()] and list(seen) == [start.tobytes()], core

    def test_start_evaluated_once(self):
        calls = []
        target = quadratic(np.array([0.3, -0.2]))

        def f(x):
            calls.append(np.array(x))
            return target(x)

        bounds = BoxBounds(np.full(2, -1.0), np.full(2, 1.0))
        minimize_box(f, bounds, np.array([0.9, 1.7]), CONFIG, {})
        start = np.array([0.9, 1.0])  # clipped into the box
        assert np.array_equal(calls[0], start)
        assert sum(np.array_equal(c, start) for c in calls) == 1

    def test_evaluations_match_a_combined_value_and_gradient_call(self, monkeypatch):
        # On a box whose minimum is on a bound.
        def rosen(x):
            a, b = x
            val = (1 - a) ** 2 + 100 * (b - a**2) ** 2
            return float(val), np.array([-2 * (1 - a) - 400 * a * (b - a**2),
                                         200 * (b - a**2)])

        bounds = BoxBounds(np.array([-2.0, -1.0]), np.array([0.5, 2.0]))
        start = np.array([-1.2, 1.0])
        want = []
        res = scipy_combined(recorded(rosen, want), bounds, start)
        for core in each_core(monkeypatch):
            got = []
            x, f, conv, failed, _ = minimize_box(recorded(rosen, got), bounds, start, CONFIG, {})
            assert len(got) > 10 and got == first_occurrences(want) and not failed, core
            assert np.array_equal(x, res.x) and f == res.fun and conv == res.success, core

    def test_each_distinct_point_reaches_the_objective_once(self, monkeypatch):
        # The noise-free analytic1d LF objective in log space: eta goes to its lower
        # bound, where the line search asks again for points it already holds.
        pair = design.ANALYTIC_1D
        x = design.scale_to_domain(pair, design.lhs(30, 1, seed=1).points)
        data = Dataset(x, design.eval_testfn(pair, "lf", x))
        callback, _ = first_search_callback(
            monkeypatch, lambda: fit_gp(data, config=MultiStartConfig(n_starts=1))
        )
        box = gp.default_bounds(data)
        bounds = BoxBounds(np.log(box.lower), np.log(box.upper))
        start = np.random.default_rng(0).uniform(bounds.lower, bounds.upper)
        want, values = [], []

        def valued(x):
            value, grad = callback(x)
            values.append(value)
            return value, grad

        res = scipy_combined(recorded(valued, want), bounds, start)
        assert len(first_occurrences(want)) < len(want)
        # minimize_box returns the best point it evaluated (the first of equal
        # values), which can lie before the point where scipy's search stops.
        best = int(np.argmin(values))
        for core in each_core(monkeypatch):
            got = []
            x_min, f, conv, _, _ = minimize_box(recorded(callback, got), bounds, start, CONFIG, {})
            assert got == first_occurrences(want), core
            assert x_min.tobytes() == want[best] and f == values[best], core
            assert conv == res.success, core

    def test_gradients_handed_to_scipy_are_read_only_copies(self, monkeypatch):
        # The memo keeps read-only copies of the objective's gradients.
        # scipy.optimize.minimize is handed those; the core, which writes through
        # raw buffers whatever the flags, is handed copies of them.
        scipy_minimize, setulb = optimize._scipy_minimize, optimize._setulb
        handed = []

        def minimize_spy(fun, x0, jac, **kwargs):
            def gradient(x):
                handed.append(jac(x))
                return handed[-1]
            return scipy_minimize(fun, x0, jac=gradient, **kwargs)

        def setulb_spy(m, x, lower, upper, nbd, f, g, *rest):
            handed.append(g)
            return setulb(m, x, lower, upper, nbd, f, g, *rest)

        monkeypatch.setattr(optimize, "_scipy_minimize", minimize_spy)
        if setulb is not None:
            monkeypatch.setattr(optimize, "_setulb", setulb_spy)
        bounds = BoxBounds(np.full(2, -1.0), np.full(2, 1.0))
        for core in each_core(monkeypatch):
            handed.clear()
            returned, seen = [], {}

            def bowl(x):
                value, grad = quadratic(np.array([0.3, -0.2]))(x)
                returned.append(grad)
                return value, grad

            minimize_box(bowl, bounds, np.array([0.9, 0.4]), CONFIG, seen)
            memo = [grad for _, grad in seen.values()]
            assert handed and not any(g.flags.writeable for g in memo), core
            if core == "minimize":
                assert not any(g.flags.writeable for g in handed)
            else:
                assert not any(np.shares_memory(g, kept) for g in handed for kept in memo)
            assert all(g.flags.writeable for g in returned), core

    def test_nonfinite_away_from_start_is_a_retreat(self, monkeypatch):
        def half_plane(x):
            if x[0] < 0.0:
                return np.inf, np.zeros_like(x)
            return float(x[0] ** 2 - x[0]), np.array([2.0 * x[0] - 1.0])

        bounds = BoxBounds(np.array([-5.0]), np.array([5.0]))
        start = np.array([4.0])
        results = []
        for core in each_core(monkeypatch):
            x, f, conv, failed, _ = minimize_box(half_plane, bounds, start, CONFIG, {})
            assert x[0] >= 0.0 and f <= half_plane(start)[0] and not failed, core
            results.append((x.tobytes(), f, conv))
        assert len(set(results)) == 1

    def test_retreat_to_the_start_is_not_convergence(self, monkeypatch):
        # A first trial point where the objective is not finite sends the search
        # back to its start, where the gradient is far from 0. The start keeps its
        # value (the best it evaluated) but must not report convergence.
        def floored(psi):
            if math.exp(psi[0]) < 0.6:
                return np.inf, np.zeros(1)
            return float((psi[0] + 1.0) ** 2), np.array([2.0 * (psi[0] + 1.0)])

        bounds = BoxBounds(np.log([0.01]), np.log([100.0]))
        start = np.log([4.0])
        for core in each_core(monkeypatch):
            x, f, converged, failed, _ = minimize_box(floored, bounds, start, CONFIG, {})
            assert np.array_equal(x, start) and f == floored(start)[0] and not failed, core
            assert f > floored(np.log([0.6]))[0]
            assert not converged, core

    def test_later_starts_merge_into_a_converged_first_start(self, monkeypatch):
        # On a convex objective every start heads for the one minimum, so each
        # later start stops once an iterate comes within MERGE_RADIUS of start 0's
        # end, short of where it ends alone. The core's loop tests each new iterate
        # where scipy.optimize.minimize calls its callback, so both paths stop at
        # the same iterate after the same evaluations.
        bowl = quartic_bowl(np.array([1.0, 10.0]), np.array([0.5, -1.0]))
        bounds = BoxBounds(np.full(2, -3.0), np.full(2, 3.0))
        starts = [np.array([2.5, 2.5]), np.array([-2.0, 2.0]), np.array([2.0, -2.5]),
                  np.array([-2.5, -2.5])]
        stops = {}
        for core in each_core(monkeypatch):
            end, _, converged, _, merged = minimize_box(bowl, bounds, starts[0], CONFIG, {})
            assert converged and merged is None, core
            stops[core] = []
            for start in starts[1:]:
                alone, seen = {}, {}
                minimize_box(bowl, bounds, start, CONFIG, alone)
                x, f, converged, failed, merged = minimize_box(bowl, bounds, start, CONFIG,
                                                               seen, [end])
                assert (merged, converged, failed) == (0, False, False), core
                assert np.max(np.abs(x - end)) <= optimize.MERGE_RADIUS, core
                assert len(seen) < len(alone) and list(seen) == list(alone)[: len(seen)], core
                stops[core].append((x.tobytes(), f, list(seen)))
            # A failed earlier start (None) is skipped but keeps its index.
            assert minimize_box(bowl, bounds, starts[1], CONFIG, {}, [None, end])[4] == 1, core
        assert len(stops) == 1 or stops["setulb"] == stops["minimize"]

    def test_feasibility(self):
        bounds = BoxBounds(np.array([-0.5, -0.5]), np.array([0.5, 0.5]))
        x, *_ = minimize_box(quadratic(np.array([3.0, -3.0])), bounds, np.zeros(2), CONFIG, {})
        assert np.all(x >= bounds.lower) and np.all(x <= bounds.upper)


class TestMultiStart:
    def test_convex_all_agree(self):
        # Unmerged starts agree on the minimum; a merged start ends, unconverged,
        # within MERGE_RADIUS (in log space) of the start it joined.
        bounds = BoxBounds(np.full(2, 0.1), np.full(2, 3.0))
        c = np.array([0.7, 0.2])
        theta, eta, f, log = log_space_search(
            raw(quadratic(c)), bounds, MultiStartConfig(n_starts=5, rng_seed=1), fixed_eta=0.0
        )
        assert np.allclose(theta.theta, c, atol=1e-5)
        assert log[0].merged_into is None
        assert any(entry.merged_into is not None for entry in log)
        for i, entry in enumerate(log):
            if entry.merged_into is None:
                assert np.allclose(np.exp(entry.x), c, atol=1e-5)
            else:
                assert entry.merged_into < i and not entry.converged
                joined = log[entry.merged_into]
                assert np.max(np.abs(entry.x - joined.x)) <= optimize.MERGE_RADIUS

    def test_double_well(self, monkeypatch):
        def f(x):
            v = ((x[0] - 2.0) ** 2 - 1.0) ** 2
            g = np.array([4.0 * (x[0] - 2.0) * ((x[0] - 2.0) ** 2 - 1.0)])
            return float(v), g

        def well(entry):
            return bool(np.exp(entry.x[0]) > 2.0)

        bounds = BoxBounds(np.array([0.1]), np.array([4.0]))
        config = MultiStartConfig(n_starts=6, rng_seed=3)
        theta, _, val, log = log_space_search(raw(f), bounds, config, fixed_eta=0.0)
        assert val < 1e-10
        assert np.isclose(abs(theta.theta[0] - 2.0), 1.0, atol=1e-5)
        # With no radius, no start merges: each start's own well. A merged start
        # joined a start in the well it heads for, and both wells were found.
        with monkeypatch.context() as patch:
            patch.setattr(optimize, "MERGE_RADIUS", -1.0)
            *_, alone = log_space_search(raw(f), bounds, config, fixed_eta=0.0)
        assert all(entry.merged_into is None for entry in alone)
        merged = [(i, entry.merged_into) for i, entry in enumerate(log)
                  if entry.merged_into is not None]
        assert merged
        assert all(well(alone[i]) == well(log[j]) for i, j in merged)
        assert {well(entry) for entry in log if entry.merged_into is None} == {False, True}

    def test_deterministic_for_fixed_seed(self):
        bounds = BoxBounds(np.array([0.1, 0.1]), np.array([4.0, 4.0]))
        config = MultiStartConfig(n_starts=4, rng_seed=99)
        c = np.array([1.1, 0.4])
        theta1, _, f1, log1 = log_space_search(raw(quadratic(c)), bounds, config, fixed_eta=0.0)
        theta2, _, f2, log2 = log_space_search(raw(quadratic(c)), bounds, config, fixed_eta=0.0)
        assert np.array_equal(theta1.theta, theta2.theta)
        assert f1 == f2
        assert [e.x.tobytes() for e in log1] == [e.x.tobytes() for e in log2]

    def test_best_not_worse_than_any_start(self):
        def f(x):
            v = np.sum(np.sin(3 * x) + 0.1 * x**2)
            g = 3 * np.cos(3 * x) + 0.2 * x
            return float(v), g

        bounds = BoxBounds(np.full(2, 0.1), np.full(2, 8.0))
        _, _, best, log = log_space_search(
            raw(f), bounds, MultiStartConfig(n_starts=8, rng_seed=5), fixed_eta=0.0
        )
        assert all(best <= entry.value for entry in log)
        assert len({round(entry.value, 6) for entry in log}) > 1  # more than one basin

    def test_all_starts_failed(self):
        def bad(x):
            return np.inf, np.zeros_like(x)

        bounds = BoxBounds(np.array([0.1]), np.array([1.0]))
        with pytest.raises(AllStartsFailed):
            log_space_search(raw(bad), bounds, MultiStartConfig(n_starts=3, rng_seed=0),
                             fixed_eta=0.0)

    def test_a_point_reaches_the_objective_once_per_search(self):
        # Finite only at theta >= 0.6; the search from 4.0 steps past that ledge.
        calls = []

        def ledge(x):
            calls.append(x[0])
            if x[0] < 0.6:
                return math.inf, np.zeros(1)
            u = math.log(x[0]) + 1.0
            return u * u, np.array([2.0 * u / x[0]])

        bounds = BoxBounds(np.array([0.01]), np.array([100.0]))
        starts = [np.array([4.0]), np.array([0.2]), np.array([0.2]), np.array([4.0])]
        *_, log = log_space_search(raw(ledge), bounds, MultiStartConfig(n_starts=1),
                                   extra_starts=starts, n_random=0, fixed_eta=0.0)
        assert min(calls) < 0.6 and calls.count(0.2) == 1
        assert len(calls) == len(set(calls))
        # A start at a cached non-finite point fails alone; a start at a cached
        # finite point meets the cached non-finite one and still ends where the
        # first start did, at no more than its start value.
        assert [entry.failed for entry in log] == [False, True, True, False]
        assert log[3].x.tobytes() == log[0].x.tobytes() and log[3].value == log[0].value
        for entry in (log[0], log[3]):
            assert entry.value <= ledge(np.exp(entry.start))[0]

    def test_log_uniform_sampling_for_positive_bounds(self):
        def linear(theta, eta):
            return float(np.sum(theta.theta)), np.array([1.0, 0.0])

        bounds = BoxBounds(np.array([1e-6]), np.array([1e2]))
        config = MultiStartConfig(n_starts=300, max_iterations=1, rng_seed=0)
        *_, log = log_space_search(
            linear, bounds, config, extra_starts=[np.array([3.0])], fixed_eta=0.0
        )
        # The raw extra start comes first, as its log; then the random starts.
        assert len(log) == 301
        assert np.array_equal(log[0].start, np.log([3.0]))
        starts = np.exp([entry.start[0] for entry in log[1:]])
        assert np.all((starts >= 1e-6) & (starts <= 1e2))
        # Log-uniform: roughly half below the geometric midpoint 1e-2.
        frac = np.mean(starts < 1e-2)
        assert 0.35 < frac < 0.65

    def test_log_space_search_applies_the_chain_rule(self):
        def bowl(theta, eta):
            # Minimum at (theta, eta) = (5, 0.01); raw-space gradient of
            # (log theta - log 5)^2 + (log eta - log 0.01)^2.
            u = np.log(np.append(theta.theta, eta)) - np.log([5.0, 0.01])
            return float(np.sum(u**2)), 2.0 * u / np.append(theta.theta, eta)

        bounds = BoxBounds(np.array([1e-3, 1e-8]), np.array([1e3, 1e2]))
        theta, eta, value, _ = log_space_search(bowl, bounds, MultiStartConfig(n_starts=3))
        assert np.allclose(theta.theta, 5.0, rtol=1e-6) and np.isclose(eta, 0.01, rtol=1e-6)
        assert value < 1e-12


@pytest.mark.parametrize(
    "field, value",
    [
        ("n_starts", 0),
        ("n_starts", 2.5),
        ("n_starts", True),
        ("n_starts", "10"),
        ("max_iterations", 0),
        ("max_iterations", 200.0),
        ("gradient_tolerance", 0.0),
        ("gradient_tolerance", -1e-6),
        ("gradient_tolerance", float("nan")),
        ("gradient_tolerance", float("inf")),
        ("gradient_tolerance", "1e-6"),
        ("rng_seed", -1),
        ("rng_seed", 1.5),
        ("rng_seed", False),
    ],
)
def test_multi_start_config_rejects_bad_value(field, value):
    with pytest.raises(InvalidConfig, match=field):
        MultiStartConfig(**{field: value})


def test_objectives_are_pure(linear_rho_mf):
    # The memo of a search rests on this: two calls at one point give the same
    # bits and leave their arguments as they were.
    model = linear_rho_mf
    lf = model.lf_model
    ws = KernelWorkspace(lf.data.x)
    f = lf.basis.design_matrix(lf.data.x)
    state = mfgp.e_step(model.ar)
    cases = [
        (gp.profiled_nll_and_grad, (ws, lf.data.z, f, lf.hyper.kernel.theta, 0.05)),
        (mfgp.q_tilde_and_grad, (state, model.ar.hf, model.hf_params.theta_h, 0.05)),
    ]
    for objective, args in cases:
        before = array_bits(*args)
        (v1, g1), (v2, g2) = objective(*args), objective(*args)
        assert np.isfinite(v1) and v1 == v2 and g1.tobytes() == g2.tobytes()
        assert array_bits(*args) == before


def test_box_bounds_validation():
    with pytest.raises(InvalidConfig):
        BoxBounds(np.array([1.0]), np.array([1.0]))
    with pytest.raises(InvalidConfig):
        BoxBounds(np.array([0.0]), np.array([np.inf]))
    # Strided vectors are stored contiguous, as the L-BFGS-B core reads them.
    strided = BoxBounds(np.zeros(4)[::2], np.ones(4)[::2])
    assert strided.lower.flags.c_contiguous and strided.upper.flags.c_contiguous
    x, _, converged, *_ = minimize_box(quadratic(np.full(2, 0.5)), strided, np.zeros(2), CONFIG, {})
    assert converged and np.allclose(x, 0.5)


def test_campaign_fits_match_on_both_cores(monkeypatch):
    # An analytic1d LF fit and HF EM fit at the acceptance sizes (N_L = 100
    # noise-free, N_H = 50 with noise sd 0.166) give the same bits by either path
    # to L-BFGS-B: every search's theta, eta, value and start log, and em_log.
    pair = design.ANALYTIC_1D
    x_lf = design.scale_to_domain(pair, design.lhs(100, 1, seed=21).points)
    x_hf = design.scale_to_domain(pair, design.lhs(50, 1, seed=22).points)
    z_hf = design.add_noise(design.eval_testfn(pair, "hf", x_hf), 0.166**2, seed=23)
    data = mfgp.MfData(Dataset(x_lf, design.eval_testfn(pair, "lf", x_lf)), Dataset(x_hf, z_hf))
    searches = []
    search = gp.log_space_search

    def spy(*args, **kwargs):
        theta, eta, value, log = search(*args, **kwargs)
        searches.append((theta.theta.tobytes(), eta, value, [
            (e.start.tobytes(), e.x.tobytes(), e.value, e.converged, e.failed, e.merged_into)
            for e in log
        ]))
        return theta, eta, value, log

    monkeypatch.setattr(gp, "log_space_search", spy)
    monkeypatch.setattr(mfgp, "log_space_search", spy)
    fits = {}
    for core in each_core(monkeypatch):
        searches.clear()
        lf_model = fit_gp(data.lf, config=MultiStartConfig(rng_seed=31))
        params, em_log = mfgp.em_fit_hf(data.hf, lf_model, config=MultiStartConfig(rng_seed=32))
        fits[core] = (list(searches), em_log, array_bits(params))
        assert len(searches) > 2, core  # the LF search and at least two M-steps
    assert len(fits) == 1 or fits["setulb"] == fits["minimize"]


COLD_FIT = """
import sys
import numpy as np
import mfkrig
from mfkrig import optimize
x = np.linspace(0.0, 1.0, 12)
mfkrig.fit_gp(mfkrig.Dataset(x, np.sin(6.0 * x)), config=mfkrig.MultiStartConfig(n_starts=2))
print('scipy.optimize' in sys.modules, optimize._setulb is not None)
"""


def in_fresh_process(code: str) -> list[str]:
    """The words `code` prints, run by a fresh interpreter that imports this package."""
    src = os.path.dirname(os.path.dirname(optimize.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    return out.stdout.split()


def test_a_fit_does_not_import_scipy_optimize():
    # The core is loaded from its extension file: a fresh process that imports the
    # package and fits drives it without importing scipy.optimize.
    if optimize._setulb is None:
        pytest.skip("this scipy's L-BFGS-B core has another signature")
    assert in_fresh_process(COLD_FIT) == ["False", "True"]


def test_scipy_optimize_imports_after_the_core_was_loaded():
    # Loading the core leaves no entry in sys.modules, so a later import of
    # scipy.optimize runs as before, and its L-BFGS-B works.
    words = in_fresh_process(COLD_FIT + """
import scipy.optimize
res = scipy.optimize.minimize(lambda v: float(((v - 1.0) ** 2).sum()), np.zeros(3),
                              method="L-BFGS-B")
print(bool(res.success), np.allclose(res.x, 1.0))
""")
    assert words[-2:] == ["True", "True"]


def test_a_core_that_cannot_be_loaded_from_its_file_is_imported_by_name():
    # With the extension file hidden, the loader falls back to importing
    # scipy.optimize, and the core it finds there is driven as before.
    if optimize._setulb is None:
        pytest.skip("this scipy's L-BFGS-B core has another signature")
    hide = """
import os
isfile = os.path.isfile
os.path.isfile = lambda path: "_lbfgsb" not in os.path.basename(path) and isfile(path)
"""
    assert in_fresh_process(hide + COLD_FIT) == ["True", "True"]
