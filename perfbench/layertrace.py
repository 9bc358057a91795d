"""Outside-in tracing of mfkrig's layers.

Each traced function is replaced, in every ``mfkrig`` module namespace that
holds a reference to it, by a timing wrapper. Spans (name, start, end, parent)
are kept in compact in-memory arrays and written out when the run ends. Self
time is a span's duration minus the time covered by its child spans. Nothing in
the package itself is changed, and a traced run computes the same numbers as an
untraced one.
"""

from __future__ import annotations

import functools
import gzip
import sys
import time
from array import array

import numpy as np

# (module, function) pairs wrapped by the tracer. ``fit_mf`` and ``posterior_cross_cov``
# have no metric of their own; they are wrapped so the span tree shows where
# their children were called from.
TRACED = (
    ("numerics", "chol_factor"),
    ("numerics", "inv_spd"),
    ("numerics", "solve_spd"),
    ("kernels", "corr_matrix"),
    ("kernels", "corr_matrix_grad"),
    ("optimize", "minimize_box"),
    ("gp", "fit_gp"),
    ("gp", "profiled_nll_and_grad"),
    ("gp", "predict_gp"),
    ("gp", "posterior_cross_cov"),
    ("mfgp", "fit_mf"),
    ("mfgp", "em_fit_hf"),
    ("mfgp", "e_step"),
    ("mfgp", "q_tilde_and_grad"),
    ("mfgp", "hf_observed_loglik"),
    ("mfgp", "predict_mf"),
    ("metrics", "coverage_report"),
    ("design", "maximin_lhs"),
    ("bench", "run_replication"),
)

# EM may lose at most this much observed log-likelihood per iteration; it is the
# tolerance of the package's own monotonicity certificate.
EM_DECREASE_TOLERANCE = 1e-6

# Per-layer metrics: name -> (unit, better, end-to-end metric it should move, workloads).
LAYER_METRICS = {
    "numerics.chol_factor.calls": ("count", "lower", "throughput", "analytic1d park4d"),
    "numerics.chol_factor.self_s": ("s", "lower", "throughput", "analytic1d park4d"),
    "numerics.chol_factor.jitter_escalations": ("count", "lower", "throughput", "park4d"),
    "numerics.inv_spd.calls": ("count", "lower", "throughput latency_s_p50", "analytic1d park4d"),
    "numerics.inv_spd.self_s": ("s", "lower", "throughput latency_s_p50", "analytic1d park4d"),
    "numerics.solve_spd.calls": ("count", "lower", "throughput", "predict"),
    "numerics.solve_spd.self_s": ("s", "lower", "throughput", "predict"),
    "numerics.solve_spd.rhs_cols": ("count", "lower", "throughput", "predict"),
    "kernels.corr_matrix.calls": ("count", "lower", "throughput", "park4d predict"),
    "kernels.corr_matrix.self_s": ("s", "lower", "throughput", "park4d predict"),
    "kernels.corr_matrix.entries": ("count", "lower", "throughput", "park4d predict"),
    "kernels.corr_matrix_grad.calls": ("count", "lower", "throughput", "park4d"),
    "kernels.corr_matrix_grad.self_s": ("s", "lower", "throughput", "park4d"),
    "optimize.minimize_box.calls": ("count", "lower", "throughput", "analytic1d park4d"),
    "optimize.minimize_box.self_s": ("s", "lower", "throughput", "analytic1d park4d"),
    "optimize.minimize_box.converged_ratio": ("1", "higher", "throughput", "analytic1d park4d"),
    "optimize.evals_per_start": ("count", "lower", "throughput", "analytic1d park4d"),
    "gp.fit_gp.calls": ("count", "lower", "throughput", "analytic1d"),
    "gp.fit_gp.total_s": ("s", "lower", "throughput", "analytic1d"),
    "gp.profiled_nll_and_grad.calls": ("count", "lower", "throughput", "analytic1d"),
    "gp.profiled_nll_and_grad.self_s": ("s", "lower", "throughput", "analytic1d"),
    "gp.predict_gp.calls": ("count", "lower", "latency_s_p50", "predict"),
    "gp.predict_gp.self_s": ("s", "lower", "latency_s_p50", "predict"),
    "mfgp.em_fit_hf.total_s": ("s", "lower", "throughput latency_s_p50", "park4d"),
    "mfgp.em_iterations": ("count", "lower", "throughput latency_s_p50", "park4d"),
    "mfgp.em_cap_hits": ("count", "lower", "throughput latency_s_p50", "park4d"),
    "mfgp.q_tilde_and_grad.calls": ("count", "lower", "throughput latency_s_p50", "park4d"),
    "mfgp.q_tilde_and_grad.self_s": ("s", "lower", "throughput latency_s_p50", "park4d"),
    "mfgp.e_step.self_s": ("s", "lower", "throughput", "park4d"),
    "mfgp.hf_observed_loglik.self_s": ("s", "lower", "throughput", "park4d"),
    "mfgp.predict_mf.total_s": ("s", "lower", "latency_s_p50", "predict"),
    "mfgp.predict_mf.self_s": ("s", "lower", "latency_s_p50", "predict"),
    "metrics.coverage_report.self_s": ("s", "lower", "throughput", "analytic1d park4d"),
    "design.maximin_lhs.self_s": ("s", "lower", "throughput", "park4d"),
    "bench.run_replication.total_s": ("s", "lower", "throughput", "analytic1d park4d"),
    "bench.failed_rows": ("count", "lower", "throughput", "analytic1d park4d"),
    "bench.pool_busy_ratio": ("1", "higher", "throughput", "analytic1d park4d"),
    "trace.overhead_s": ("s", "lower", "none (tracing cost)", "analytic1d park4d predict"),
}


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _finite_predictive(pred) -> bool:
    spread = pred.variance if pred.variance is not None else np.diag(pred.covariance)
    return bool(np.all(np.isfinite(pred.mean)) and np.all(np.isfinite(spread))
                and np.all(spread >= 0.0))


class Tracer:
    """Timing wrappers that record spans and per-function counters."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("H")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("l")
        self._stack: list[list] = []  # [span index, accumulated child seconds]
        self.calls: dict[str, int] = {}
        self.total_s: dict[str, float] = {}
        self.self_s: dict[str, float] = {}
        self.counters: dict[str, float] = {}
        self.violations: list[str] = []
        self._installed: list[tuple[object, str, object]] = []

    def _count(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def wrap(self, name: str, fn, observe=None):
        """Return a wrapper of fn that records one span per call under `name`."""
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        name_id = self._name_ids[name]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1][0] if self._stack else -1
            index = len(self.span_start)
            self.span_name.append(name_id)
            self.span_parent.append(parent)
            frame = [index, 0.0]
            self._stack.append(frame)
            start = self.clock()
            self.span_start.append(start)
            self.span_end.append(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = self.clock()
                self._stack.pop()
                duration = end - start
                self.span_end[index] = end
                if self._stack:
                    self._stack[-1][1] += duration
                self.calls[name] = self.calls.get(name, 0) + 1
                self.total_s[name] = self.total_s.get(name, 0.0) + duration
                self.self_s[name] = self.self_s.get(name, 0.0) + duration - frame[1]
            if observe is not None:
                observe(self, args, kwargs, result)
            return result

        return wrapper

    def install(self, package_name: str = "mfkrig") -> None:
        """Wrap every TRACED function in every loaded namespace of the package."""
        modules = [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == package_name or key.startswith(package_name + "."))
        ]
        for module_name, func_name in TRACED:
            home = sys.modules[f"{package_name}.{module_name}"]
            original = getattr(home, func_name)
            wrapper = self.wrap(f"{module_name}.{func_name}", original,
                                OBSERVERS.get(func_name))
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._installed.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()

    def write_spans(self, path: str) -> int:
        """Write spans as gzip CSV rows: name, start_s, end_s, parent index."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("name,start_s,end_s,parent\n")
            t0 = self.span_start[0] if self.span_start else 0.0
            for i in range(len(self.span_start)):
                fh.write(f"{self.names[self.span_name[i]]},{self.span_start[i] - t0:.9f},"
                         f"{self.span_end[i] - t0:.9f},{self.span_parent[i]}\n")
        return len(self.span_start)

    def layer_metrics(self) -> dict[str, float]:
        """Every per-layer metric in LAYER_METRICS that the spans determine."""
        calls = lambda n: self.calls.get(n, 0)
        self_s = lambda n: self.self_s.get(n, 0.0)
        total_s = lambda n: self.total_s.get(n, 0.0)
        starts = calls("optimize.minimize_box")
        evals = calls("gp.profiled_nll_and_grad") + calls("mfgp.q_tilde_and_grad")
        out = {}
        for name in ("numerics.chol_factor", "numerics.inv_spd", "numerics.solve_spd",
                     "kernels.corr_matrix", "kernels.corr_matrix_grad",
                     "optimize.minimize_box", "gp.profiled_nll_and_grad", "gp.predict_gp",
                     "mfgp.q_tilde_and_grad"):
            out[f"{name}.calls"] = calls(name)
            out[f"{name}.self_s"] = self_s(name)
        out["numerics.chol_factor.jitter_escalations"] = self.counters.get("jitter_escalations", 0)
        out["numerics.solve_spd.rhs_cols"] = self.counters.get("rhs_cols", 0)
        out["kernels.corr_matrix.entries"] = self.counters.get("corr_entries", 0)
        out["optimize.minimize_box.converged_ratio"] = (
            self.counters.get("converged", 0) / starts if starts else 0.0
        )
        out["optimize.evals_per_start"] = evals / starts if starts else 0.0
        out["gp.fit_gp.calls"] = calls("gp.fit_gp")
        out["gp.fit_gp.total_s"] = total_s("gp.fit_gp")
        out["mfgp.em_fit_hf.total_s"] = total_s("mfgp.em_fit_hf")
        out["mfgp.em_iterations"] = self.counters.get("em_iterations", 0)
        out["mfgp.em_cap_hits"] = self.counters.get("em_cap_hits", 0)
        out["mfgp.e_step.self_s"] = self_s("mfgp.e_step")
        out["mfgp.hf_observed_loglik.self_s"] = self_s("mfgp.hf_observed_loglik")
        out["mfgp.predict_mf.total_s"] = total_s("mfgp.predict_mf")
        out["mfgp.predict_mf.self_s"] = self_s("mfgp.predict_mf")
        out["metrics.coverage_report.self_s"] = self_s("metrics.coverage_report")
        out["design.maximin_lhs.self_s"] = self_s("design.maximin_lhs")
        out["bench.run_replication.total_s"] = total_s("bench.run_replication")
        return out


def _observe_chol(tracer, args, kwargs, result):
    if result.jitter_used > 0:
        tracer._count("jitter_escalations")


def _observe_solve(tracer, args, kwargs, result):
    b = _arg(args, kwargs, 1, "b")
    shape = getattr(b, "shape", ())
    tracer._count("rhs_cols", shape[1] if len(shape) == 2 else 1)


def _observe_corr(tracer, args, kwargs, result):
    tracer._count("corr_entries", result.size)


def _observe_minimize(tracer, args, kwargs, result):
    if result[2]:
        tracer._count("converged")


def _observe_em(tracer, args, kwargs, result):
    em_log = result[1]
    em_config = _arg(args, kwargs, 6, "em_config")
    if em_config is None:
        em_config = sys.modules["mfkrig.mfgp"].EmConfig()
    iterations = len(em_log) - 1
    tracer._count("em_iterations", iterations)
    if iterations >= em_config.max_em_iterations:
        tracer._count("em_cap_hits")
    for i in range(1, len(em_log)):
        if not em_log[i] >= em_log[i - 1] - EM_DECREASE_TOLERANCE:
            tracer.violations.append(
                f"em_log decreased at iteration {i}: {em_log[i - 1]!r} -> {em_log[i]!r}"
            )


def _observe_predict(tracer, args, kwargs, result):
    if not _finite_predictive(result):
        tracer.violations.append("a prediction is non-finite or has a negative variance")


OBSERVERS = {
    "chol_factor": _observe_chol,
    "solve_spd": _observe_solve,
    "corr_matrix": _observe_corr,
    "minimize_box": _observe_minimize,
    "em_fit_hf": _observe_em,
    "predict_gp": _observe_predict,
    "predict_mf": _observe_predict,
}
