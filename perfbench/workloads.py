"""The benchmark's three workloads, their output checks and their metrics.

Import this module only after BLAS threads are pinned (see run.py): it imports
numpy and mfkrig.
"""

from __future__ import annotations

import functools
import hashlib
import math
import os
import resource
import statistics
import time

import numpy as np

from mfkrig import bench, design, gp, metrics, mfgp
from mfkrig.exceptions import MfkrigError

import calibrate
from layertrace import Tracer

clock = time.perf_counter

# The acceptance campaign configs. Their seeds are fixed, not taken from
# --seed: at the size of one run (16 and 10 replications) the campaign medians
# move by 12-20 % (quartile distance / median) from one config seed to the next,
# far beyond any usable regression bound, because replications differ that much
# in EM iterations and accuracy. A fixed panel makes every campaign number a
# function of the code alone.
CAMPAIGNS = {
    "analytic1d": dict(benchmark="analytic1d", n_lf=100, n_hf=50, noise_sd_lf=0.0,
                       noise_sd_hf=0.166, n_test=10_000, seed=42,
                       models=("mf", "hf_only")),
    "park4d": dict(benchmark="park4d", n_lf=75, n_hf=20, noise_sd_lf=1.0,
                   noise_sd_hf=1.0, n_test=10_000, seed=7, models=("mf", "hf_only")),
}
# Replications in one timed campaign round, and in the traced run.
PANEL_REPS = {"analytic1d": 16, "park4d": 10}
TRACE_REPS = {"analytic1d": 6, "park4d": 4}

# Predict workload: one model fitted with the analytic1d acceptance settings
# from a fixed seed (so its accuracy is a guard, not noise); --seed draws the
# query batches.
PREDICT_MODEL_SEED = 42
PREDICT_POINTS = 10_000
PREDICT_BATCHES = 8
PREDICT_TRACE_CALLS = 40

WORKLOADS = ("analytic1d", "park4d", "predict")

# End-to-end metrics: name -> (unit, better). Every workload reports each one.
E2E_METRICS = {
    "throughput": ("1/s", "higher"),
    "latency_s_p50": ("s", "lower"),
    "one_minus_q2_mf_p50": ("1", "lower"),
    "one_minus_q2_hf_only_p50": ("1", "lower"),
    "iae_ci_mf_mean": ("1", "lower"),
    "iae_pi_mf_mean": ("1", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

DIGEST_COLUMNS = tuple(
    c for c in bench.RESULT_COLUMNS
    if c not in ("replication_index", "model_name", "fit_seconds", "failed", "error")
)


class CheckFailed(Exception):
    """An output check failed; the run is reported as incorrect."""


def round_sig(values, digits: int = 9) -> np.ndarray:
    """Round to `digits` significant digits, so digests ignore last-bit noise."""
    a = np.asarray(values, dtype=float)
    mag = np.floor(np.log10(np.abs(np.where(a == 0.0, 1.0, a))))
    return np.round(a / 10.0**mag, digits - 1) * 10.0**mag


def rows_digest(rows: list[dict]) -> str:
    h = hashlib.sha256()
    for row in sorted(rows, key=lambda r: (r["replication_index"], r["model_name"])):
        h.update(f"{row['replication_index']}:{row['model_name']}:".encode())
        h.update(round_sig([row[c] for c in DIGEST_COLUMNS
                            if row[c] != ""]).tobytes())
    return h.hexdigest()[:16]


def check_rows(rows: list[dict]) -> None:
    for row in rows:
        where = f"replication {row['replication_index']} model {row['model_name']}"
        if row["failed"]:
            raise CheckFailed(f"{where} failed: {row['error']}")
        values = [row[c] for c in DIGEST_COLUMNS + ("fit_seconds",) if row[c] != ""]
        if not all(math.isfinite(v) for v in values):
            raise CheckFailed(f"{where} has a non-finite metric")
        if min(row["ciw_95"], row["piw_95"]) < 0.0:
            raise CheckFailed(f"{where} has a negative interval width")


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


def model_rows(rows: list[dict], name: str) -> list[dict]:
    return [r for r in rows if r["model_name"] == name]


def accuracy(rows: list[dict]) -> dict[str, float]:
    mf, hf = model_rows(rows, "mf"), model_rows(rows, "hf_only")
    return {
        "one_minus_q2_mf_p50": statistics.median(1.0 - r["q2"] for r in mf),
        "one_minus_q2_hf_only_p50": statistics.median(1.0 - r["q2"] for r in hf),
        "iae_ci_mf_mean": statistics.fmean(r["iae_ci"] for r in mf),
        "iae_pi_mf_mean": statistics.fmean(r["iae_pi"] for r in mf),
    }


def peak_rss_mb(workers: int) -> float:
    """Parent peak plus `workers` times the largest reaped child's peak (Linux KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss if workers else 0
    return (own + workers * child) / 1024.0


def campaign_config(name: str, n_replications: int) -> bench.BenchmarkConfig:
    return bench.BenchmarkConfig(**CAMPAIGNS[name], n_replications=n_replications)


KERNEL_KEY = "kernel_cpu_s"


def _calibrated(run_replication):
    """run_replication between calibration-kernel passes, in the same worker.

    Installed as bench.run_replication before the pool starts: the forked
    workers inherit it, and the pool pickles it by that name. Each row gets the
    mean of the median kernel CPU times before and after the replication, which
    tells how fast that worker's core ran meanwhile.
    """
    @functools.wraps(run_replication)
    def wrapper(config, r):
        before = statistics.median(calibrate.kernel_cpu_s() for _ in range(3))
        rows = run_replication(config, r)
        after = statistics.median(calibrate.kernel_cpu_s() for _ in range(3))
        for row in rows:
            row[KERNEL_KEY] = 0.5 * (before + after)
        return rows

    return wrapper


def _row_slowdown(row: dict) -> float:
    return calibrate.slowdown([row[KERNEL_KEY]])


def _round_slowdown(rows: list[dict]) -> float:
    """Slowdown over a round: the rows' slowdowns weighted by their fit time."""
    return (sum(_row_slowdown(r) * r["fit_seconds"] for r in rows)
            / sum(r["fit_seconds"] for r in rows))


def _timed_campaign(config: bench.BenchmarkConfig, workers: int):
    os.environ["MFKRIG_THREADS"] = str(workers)
    t0 = clock()
    rows = bench.run_benchmark(config)
    return clock() - t0, rows


class Campaign:
    """analytic1d / park4d: replicated campaigns through bench.run_benchmark."""

    def __init__(self, name: str, seed: int, workers: int):
        # The seed is not used: the campaign panels are fixed (see CAMPAIGNS).
        self.name, self.workers = name, workers
        self.notes: dict = {"config": CAMPAIGNS[self.name]}

    def setup(self) -> None:
        # Warm-up: one replication, discarded, so first-call costs land in setup_s.
        rows = bench.run_replication(campaign_config(self.name, 1), 0)
        check_rows(rows)

    def measure(self, seconds: float):
        config = campaign_config(self.name, PANEL_REPS[self.name])
        workers = min(self.workers, config.n_replications)
        rounds = []  # (wall seconds, rows, mean machine slowdown over the round's replications)
        original = bench.run_replication
        bench.run_replication = _calibrated(original)
        try:
            start = clock()
            while not rounds or clock() - start < seconds:
                wall, rows = _timed_campaign(config, workers)
                if not all(KERNEL_KEY in row for row in rows):
                    raise CheckFailed("pool workers did not run the calibrated replication "
                                      "(the pool must fork its workers)")
                rounds.append((wall, rows, _round_slowdown(rows)))
        finally:
            bench.run_replication = original
        attempted = sum(len(rows) for _, rows, _ in rounds)
        for _, rows, _ in rounds:
            check_rows(rows)
        digests = {rows_digest(rows) for _, rows, _ in rounds}
        if len(digests) != 1:
            raise CheckFailed(f"campaign rounds disagree: digests {sorted(digests)}")
        n = config.n_replications
        fit_s = [r["fit_seconds"] / _row_slowdown(r)
                 for _, rows, _ in rounds for r in model_rows(rows, "mf")]
        values = {
            "throughput": statistics.median(n * slow / wall for wall, _, slow in rounds),
            "latency_s_p50": statistics.median(fit_s),
            **accuracy(rounds[0][1]),
            "peak_rss_mb": peak_rss_mb(workers),
        }
        raw_fit_s = [r["fit_seconds"] for _, rows, _ in rounds for r in model_rows(rows, "mf")]
        self.notes.update(
            digest=digests.pop(), rounds=len(rounds), replications_per_round=n,
            trace_prefix_digest=rows_digest(
                [r for r in rounds[0][1] if r["replication_index"] < TRACE_REPS[self.name]]),
            workers=workers, round_wall_s=[w for w, _, _ in rounds],
            round_slowdown=[s for _, _, s in rounds], latency_samples=len(fit_s),
            latency_s_p90=percentile(fit_s, 90),
            raw_throughput=statistics.median(n / w for w, _, _ in rounds),
            raw_latency_s_p50=statistics.median(raw_fit_s),
            throughput_unit="replications/s", latency_unit="s per mf fit+predict+score",
        )
        return values, attempted, 0

    def trace(self, out_path: str):
        config = campaign_config(self.name, TRACE_REPS[self.name])
        workers = min(self.workers, config.n_replications)
        pool_wall, pool_rows = _timed_campaign(config, workers)
        # Untraced, traced, untraced: the overhead is taken against the mean of
        # the two untraced runs, so a drift in machine speed cancels.
        before_wall, before_rows = _timed_campaign(config, 1)
        tracer = Tracer()
        tracer.install()
        try:
            traced_wall, traced_rows = _timed_campaign(config, 1)
        finally:
            tracer.uninstall()
        after_wall, after_rows = _timed_campaign(config, 1)
        plain_wall = 0.5 * (before_wall + after_wall)
        failed = sum(int(r["failed"]) for r in traced_rows)
        runs = (pool_rows, before_rows, traced_rows, after_rows)
        for rows in runs:
            check_rows(rows)
        digests = [rows_digest(rows) for rows in runs]
        if len(set(digests)) != 1:
            raise CheckFailed(f"pooled/untraced/traced/untraced digests differ: {digests}")
        if tracer.violations:
            raise CheckFailed("; ".join(tracer.violations[:5]))
        values = tracer.layer_metrics()
        busy = sum(r["fit_seconds"] for r in pool_rows)
        values.update({
            "bench.failed_rows": failed,
            "bench.pool_busy_ratio": busy / (workers * pool_wall),
            "trace.overhead_s": traced_wall - plain_wall,
        })
        self.notes.update(digest=digests[0], replications=config.n_replications,
                          untraced_wall_s=plain_wall, traced_wall_s=traced_wall,
                          spans=tracer.write_spans(out_path))
        return values, len(traced_rows), failed


class Predict:
    """predict: 10^4-point predict_mf calls on a model fitted during set-up."""

    def __init__(self, name: str, seed: int, workers: int):
        self.name, self.seed = name, seed
        self.notes: dict = {"model": dict(CAMPAIGNS["analytic1d"], seed=PREDICT_MODEL_SEED),
                            "points_per_call": PREDICT_POINTS, "batches": PREDICT_BATCHES}

    def setup(self) -> None:
        cfg = CAMPAIGNS["analytic1d"]
        pair = design.get_pair("analytic1d")
        s_lf, s_hf, s_noise, s_fit, s_test = (
            int(s) for s in np.random.SeedSequence(PREDICT_MODEL_SEED).generate_state(5))
        x_lf = design.scale_to_domain(pair, design.lhs(cfg["n_lf"], 1, seed=s_lf).points)
        x_hf = design.scale_to_domain(pair, design.lhs(cfg["n_hf"], 1, seed=s_hf).points)
        z_lf = design.eval_testfn(pair, design.LF, x_lf)
        noise_var = cfg["noise_sd_hf"] ** 2
        z_hf = design.add_noise(design.eval_testfn(pair, design.HF, x_hf), noise_var, s_noise)
        starts = gp.MultiStartConfig(n_starts=10, rng_seed=s_fit)
        hf_data = gp.Dataset(x_hf, z_hf)
        self.model = mfgp.fit_mf(mfgp.MfData(lf=gp.Dataset(x_lf, z_lf), hf=hf_data),
                                 lf_config=starts, hf_config=starts)
        hf_only = gp.fit_gp(hf_data, config=starts)

        # Accuracy is scored once on the acceptance test grid, independent of
        # --seed, so it guards the fit without adding seed noise.
        lo, hi = pair.domain_lower[0], pair.domain_upper[0]
        x_test = np.linspace(lo, hi, cfg["n_test"]).reshape(-1, 1)
        y_test = design.eval_testfn(pair, design.HF, x_test)
        z_test = design.add_noise(y_test, noise_var, s_test)
        pred = self._call(x_test)
        report = metrics.coverage_report(y_test, z_test, pred.mean, pred.sd,
                                         self.model.hf_params.noise_variance)
        hf_pred = gp.predict_gp(hf_only, x_test, mode="latent", cov="diagonal")
        self.accuracy = {
            "one_minus_q2_mf_p50": 1.0 - report.q2,
            "one_minus_q2_hf_only_p50": 1.0 - metrics.q2(y_test, hf_pred.mean),
            "iae_ci_mf_mean": report.iae_ci,
            "iae_pi_mf_mean": report.iae_pi,
        }
        if not all(math.isfinite(v) for v in self.accuracy.values()):
            raise CheckFailed("a predict accuracy metric is non-finite")

        rng = np.random.default_rng(self.seed)
        self.batches = [rng.uniform(lo, hi, size=(PREDICT_POINTS, 1))
                        for _ in range(PREDICT_BATCHES)]
        self.reference = [self._call(x) for x in self.batches]
        for pred in [pred, hf_pred] + self.reference:
            if not (np.all(np.isfinite(pred.mean)) and np.all(np.isfinite(pred.variance))):
                raise CheckFailed("a prediction is non-finite")
            if np.any(pred.variance < 0.0):
                raise CheckFailed("a predictive variance is negative")

    def _call(self, x):
        return mfgp.predict_mf(self.model, x, level="hf", mode="latent", cov="diagonal")

    def _check(self, i: int, pred) -> None:
        ref = self.reference[i % PREDICT_BATCHES]
        if not (np.array_equal(pred.mean, ref.mean)
                and np.array_equal(pred.variance, ref.variance)):
            raise CheckFailed(f"call {i}: repeated prediction differs from the set-up reference")

    def _digest(self) -> str:
        h = hashlib.sha256()
        for pred in self.reference:
            h.update(round_sig(pred.mean).tobytes())
            h.update(round_sig(pred.variance).tobytes())
        h.update(round_sig(list(self.accuracy.values())).tobytes())
        return h.hexdigest()[:16]

    def _run_calls(self, n: int | None, seconds: float | None, calibrated: bool = False):
        """Time predict calls; the bitwise check and the calibration kernel run
        outside the timed region, the kernel right after each call."""
        latencies, kernel_s = [], []
        start = clock()
        while len(latencies) < n if n is not None else (
                not latencies or clock() - start < seconds):
            i = len(latencies)
            x = self.batches[i % PREDICT_BATCHES]
            t0 = clock()
            try:
                pred = self._call(x)
            except MfkrigError as exc:
                raise CheckFailed(f"call {i} raised {type(exc).__name__}: {exc}") from exc
            latencies.append(clock() - t0)
            self._check(i, pred)
            if calibrated:
                kernel_s.append(calibrate.kernel_cpu_s())
        return latencies, kernel_s, clock() - start

    def measure(self, seconds: float):
        raw, kernel_s, _ = self._run_calls(None, seconds, calibrated=True)
        # Each call is scaled by the median kernel time of the 11 calls around
        # it (about a second), which follows the machine's state but not the
        # kernel's own jitter.
        scaled = [t / calibrate.slowdown(kernel_s[max(0, i - 5):i + 6])
                  for i, t in enumerate(raw)]
        values = {
            "throughput": PREDICT_POINTS * len(scaled) / sum(scaled),
            "latency_s_p50": statistics.median(scaled),
            **self.accuracy,
            "peak_rss_mb": peak_rss_mb(0),
        }
        self.notes.update(digest=self._digest(), latency_samples=len(scaled),
                          latency_s_p90=percentile(scaled, 90),
                          slowdown=calibrate.slowdown(kernel_s),
                          raw_throughput=PREDICT_POINTS * len(raw) / sum(raw),
                          raw_latency_s_p50=statistics.median(raw),
                          throughput_unit="HF predictive points/s",
                          latency_unit="s per 10^4-point predict_mf call")
        return values, len(raw), 0

    def trace(self, out_path: str):
        # Untraced, traced, untraced, as for the campaigns.
        _, _, before_wall = self._run_calls(PREDICT_TRACE_CALLS, None)
        tracer = Tracer()
        tracer.install()
        try:
            _, _, traced_wall = self._run_calls(PREDICT_TRACE_CALLS, None)
        finally:
            tracer.uninstall()
        _, _, after_wall = self._run_calls(PREDICT_TRACE_CALLS, None)
        plain_wall = 0.5 * (before_wall + after_wall)
        if tracer.violations:
            raise CheckFailed("; ".join(tracer.violations[:5]))
        values = tracer.layer_metrics()
        values.update({
            "bench.failed_rows": 0,
            "bench.pool_busy_ratio": 0.0,
            "trace.overhead_s": traced_wall - plain_wall,
        })
        # Every traced and untraced call was checked bitwise against the set-up
        # reference, so both runs share the set-up digest.
        self.notes.update(digest=self._digest(), calls=PREDICT_TRACE_CALLS,
                          untraced_wall_s=plain_wall, traced_wall_s=traced_wall,
                          spans=tracer.write_spans(out_path))
        return values, 3 * PREDICT_TRACE_CALLS, 0


def make(name: str, seed: int, workers: int):
    if name == "predict":
        return Predict(name, seed, workers)
    return Campaign(name, seed, workers)
