"""Replicated benchmark campaigns over the analytical test-function pairs.

Each replication draws fresh designs and noise from a derived seed, fits the
requested models, and scores them on a common test set. Rows are gathered in
replication order, so the output table is deterministic for a fixed config
regardless of worker scheduling.
"""

from __future__ import annotations

import csv
import os
import time
from concurrent import futures
from dataclasses import dataclass

import numpy as np

from . import design, metrics, mfgp
from .design import HF, LF
from .exceptions import InvalidConfig, MfkrigError
from .gp import (
    DIAGONAL, LATENT, Dataset, MultiStartConfig, fit_gp, predict_gp, worker_count,
)
from .mfgp import EmConfig, MfData, fit_mf, predict_mf
from .optimize import check_count, check_positive

MODEL_NAMES = ("mf", "hf_only", "lf_only")

RESULT_COLUMNS = (
    "replication_index",
    "model_name",
    "q2",
    "iae_ci",
    "iae_pi",
    "ciw_95",
    "piw_95",
    "cicp_10",
    "cicp_50",
    "cicp_90",
    "cicp_95",
    "picp_10",
    "picp_50",
    "picp_90",
    "picp_95",
    "noise_var_hat_lf",
    "noise_var_hat_hf",
    "fit_seconds",
    "failed",
    "error",
)


@dataclass(frozen=True)
class BenchmarkConfig:
    benchmark: str
    n_lf: int = 100
    n_hf: int = 50
    noise_sd_lf: float = 0.0
    noise_sd_hf: float = 0.166
    n_test: int = 10_000
    n_replications: int = 50
    seed: int = 0
    models: tuple[str, ...] = ("mf", "hf_only")
    output_path: str | None = None
    n_starts: int = 10
    max_em_iterations: int = 100

    def __post_init__(self):
        if self.benchmark not in ("analytic1d", "park4d"):
            raise InvalidConfig(f"unknown benchmark {self.benchmark!r}")
        # The fit CLI's minimum of 2 LF and 3 HF rows; Q² needs 2 test points.
        minimums = {"n_lf": 2, "n_hf": 3, "n_test": 2}
        for name in ("n_lf", "n_hf", "n_test", "n_replications", "n_starts", "max_em_iterations"):
            check_count(name, getattr(self, name), minimums.get(name, 1))
        check_count("seed", self.seed, 0)
        check_positive("noise_sd_lf", self.noise_sd_lf, zero_ok=True)
        check_positive("noise_sd_hf", self.noise_sd_hf, zero_ok=True)
        if not isinstance(self.models, (list, tuple)) or not self.models:
            raise InvalidConfig(
                f"models must be a non-empty list of model names, got {self.models!r}"
            )
        unknown = [m for m in self.models if m not in MODEL_NAMES]
        if unknown:
            raise InvalidConfig(f"unknown models: {unknown}")
        if self.output_path is not None and not isinstance(self.output_path, str):
            raise InvalidConfig(f"output_path must be a string or null, got {self.output_path!r}")

    @staticmethod
    def from_dict(raw: dict) -> "BenchmarkConfig":
        if not isinstance(raw, dict):
            raise InvalidConfig("config must be a JSON object")
        if "benchmark" not in raw:
            raise InvalidConfig("config must specify 'benchmark'")
        known = {f for f in BenchmarkConfig.__dataclass_fields__}
        unknown = set(raw) - known
        if unknown:
            raise InvalidConfig(f"unknown config keys: {sorted(unknown)}")
        if isinstance(raw.get("models"), list):
            raw = dict(raw, models=tuple(raw["models"]))
        return BenchmarkConfig(**raw)


def _rep_seeds(seed: int, r: int, n: int = 8) -> list[int]:
    return [int(s) for s in np.random.SeedSequence(entropy=(seed, r)).generate_state(n)]


def _sample_training(config: BenchmarkConfig, pair, seed_lf: int, seed_hf: int):
    if config.benchmark == "park4d":
        x_lf = design.maximin_lhs(config.n_lf, pair.input_dim, seed=seed_lf).points
        x_hf = design.maximin_lhs(config.n_hf, pair.input_dim, seed=seed_hf).points
    else:
        x_lf = design.lhs(config.n_lf, pair.input_dim, seed=seed_lf).points
        x_hf = design.lhs(config.n_hf, pair.input_dim, seed=seed_hf).points
    return design.scale_to_domain(pair, x_lf), design.scale_to_domain(pair, x_hf)


def _test_inputs(config: BenchmarkConfig, pair, seed_test: int) -> np.ndarray:
    if config.benchmark == "analytic1d":
        lo, hi = pair.domain_lower[0], pair.domain_upper[0]
        return np.linspace(lo, hi, config.n_test)[:, None]
    # Desk-scale choice: a plain LHS test set; maximin over 1e4 points is
    # prohibitively slow and does not move replication means.
    unit = design.lhs(config.n_test, pair.input_dim, seed=seed_test).points
    return design.scale_to_domain(pair, unit)


def _report_row(
    r: int, name: str, report: metrics.CalibrationReport, nv_lf, nv_hf, seconds
) -> dict:
    return {
        "replication_index": r,
        "model_name": name,
        "q2": report.q2,
        "iae_ci": report.iae_ci,
        "iae_pi": report.iae_pi,
        "ciw_95": report.at_level(0.95, "ciw"),
        "piw_95": report.at_level(0.95, "piw"),
        "cicp_10": report.at_level(0.10, "cicp"),
        "cicp_50": report.at_level(0.50, "cicp"),
        "cicp_90": report.at_level(0.90, "cicp"),
        "cicp_95": report.at_level(0.95, "cicp"),
        "picp_10": report.at_level(0.10, "picp"),
        "picp_50": report.at_level(0.50, "picp"),
        "picp_90": report.at_level(0.90, "picp"),
        "picp_95": report.at_level(0.95, "picp"),
        "noise_var_hat_lf": nv_lf,
        "noise_var_hat_hf": nv_hf,
        "fit_seconds": seconds,
        "failed": 0,
        "error": "",
    }


def _failed_row(r: int, name: str, error: str) -> dict:
    row = {col: "" for col in RESULT_COLUMNS}
    row.update(replication_index=r, model_name=name, failed=1, error=error)
    return row


def run_replication(config: BenchmarkConfig, r: int) -> list[dict]:
    pair = design.get_pair(config.benchmark)
    (s_lf, s_hf, s_nlf, s_nhf, s_zh, s_zl, s_fit, s_test) = _rep_seeds(config.seed, r)

    x_lf, x_hf = _sample_training(config, pair, s_lf, s_hf)
    z_lf = design.add_noise(design.eval_testfn(pair, LF, x_lf), config.noise_sd_lf**2, s_nlf)
    z_hf = design.add_noise(design.eval_testfn(pair, HF, x_hf), config.noise_sd_hf**2, s_nhf)
    lf_data, hf_data = Dataset(x_lf, z_lf), Dataset(x_hf, z_hf)

    x_test = _test_inputs(config, pair, s_test)
    y_h = design.eval_testfn(pair, HF, x_test)
    z_h = design.add_noise(y_h, config.noise_sd_hf**2, s_zh)

    ms_config = MultiStartConfig(n_starts=config.n_starts, rng_seed=s_fit)
    em_config = EmConfig(max_em_iterations=config.max_em_iterations)

    rows: list[dict] = [{}] * len(config.models)
    lf_model = None  # the mf fit's LF GP: lf_only fits the same data with the same config
    # mf runs first so that lf_only can reuse its LF GP; rows keep the order of `models`.
    for i in sorted(range(len(config.models)), key=lambda i: config.models[i] != "mf"):
        name = config.models[i]
        t0 = time.perf_counter()
        try:
            if name == "mf":
                model = fit_mf(
                    MfData(lf=lf_data, hf=hf_data),
                    lf_config=ms_config,
                    hf_config=ms_config,
                    em_config=em_config,
                )
                lf_model = model.lf_model
                pred = predict_mf(model, x_test, level=mfgp.HF, mode=LATENT, cov=DIAGONAL)
                nv_lf = model.lf_model.hyper.kernel.noise_variance
                nv_hf = model.hf_params.noise_variance
                report = metrics.coverage_report(y_h, z_h, pred.mean, pred.sd, nv_hf)
            elif name == "hf_only":
                gp_model = fit_gp(hf_data, config=ms_config)
                pred = predict_gp(gp_model, x_test, mode=LATENT, cov=DIAGONAL)
                nv_lf, nv_hf = "", gp_model.hyper.kernel.noise_variance
                report = metrics.coverage_report(y_h, z_h, pred.mean, pred.sd, nv_hf)
            else:  # lf_only, scored against the LF truth
                y_l = design.eval_testfn(pair, LF, x_test)
                z_l = design.add_noise(y_l, config.noise_sd_lf**2, s_zl)
                gp_model = lf_model if lf_model is not None else fit_gp(lf_data, config=ms_config)
                pred = predict_gp(gp_model, x_test, mode=LATENT, cov=DIAGONAL)
                nv_lf, nv_hf = gp_model.hyper.kernel.noise_variance, ""
                report = metrics.coverage_report(y_l, z_l, pred.mean, pred.sd, nv_lf)
        except MfkrigError as exc:
            rows[i] = _failed_row(r, name, f"{type(exc).__name__}: {exc}")
            continue
        rows[i] = _report_row(r, name, report, nv_lf, nv_hf, time.perf_counter() - t0)
    return rows


def split_budget(budget: int, workers: int) -> None:
    """Pool initializer: a forked worker's core budget (MFKRIG_THREADS) is its share,
    max(1, budget // workers), of the campaign's, so the row-block threads of the
    workers' predictions (`gp.in_blocks`) together stay within the campaign's."""
    os.environ["MFKRIG_THREADS"] = str(max(1, budget // workers))


def check_output_path(path: str) -> None:
    """Raise InvalidConfig unless a file can be written at `path`, so a run can
    refuse an unwritable output before it does any work."""
    directory = os.path.dirname(path) or "."
    if not os.path.isdir(directory):
        raise InvalidConfig(f"cannot write {path}: directory {directory} does not exist")
    if os.path.isdir(path) or not os.access(directory, os.W_OK):
        raise InvalidConfig(f"cannot write {path}: not a writable file path")


def open_output(path: str):
    """Open `path` for writing; an OSError becomes InvalidConfig."""
    try:
        return open(path, "w", newline="")
    except OSError as exc:
        raise InvalidConfig(f"cannot write {path}: {exc}") from exc


def run_benchmark(config: BenchmarkConfig) -> list[dict]:
    """Run every replication and write the results table if an output path is set;
    an unwritable output path is refused before the first replication."""
    if config.output_path:
        check_output_path(config.output_path)
    budget = worker_count()
    workers = min(budget, config.n_replications)
    if workers <= 1:
        results = [run_replication(config, r) for r in range(config.n_replications)]
    else:
        with futures.ProcessPoolExecutor(
            max_workers=workers, initializer=split_budget, initargs=(budget, workers)
        ) as pool:
            results = list(
                pool.map(run_replication, [config] * config.n_replications,
                         range(config.n_replications))
            )
    rows = [row for rep_rows in results for row in rep_rows]
    if config.output_path:
        write_results(rows, config.output_path)
    return rows


def write_results(rows: list[dict], path: str) -> None:
    with open_output(path) as fh:
        writer = csv.DictWriter(fh, fieldnames=RESULT_COLUMNS)
        writer.writeheader()
        for row in rows:
            writer.writerow({col: _fmt(row.get(col, "")) for col in RESULT_COLUMNS})


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)
