"""Command-line interface: benchmark campaigns, CSV fit, and prediction.

The model file is a single JSON document (format-versioned) holding all
hyperparameters and both training sets, so a reload reproduces in-memory
predictions exactly.
"""

from __future__ import annotations

import csv
import json
import sys

import click
import numpy as np

from . import bench
from .exceptions import (
    DimensionMismatch,
    InvalidConfig,
    MfkrigError,
    ParseError,
)
from .gp import Dataset, GpHyper, MultiStartConfig, TrainedGp, constant_basis, worker_count
from .kernels import KernelParams, LengthScales
from .mfgp import EmConfig, HfParams, MfData, MfModel, fit_mf, predict_mf
from .optimize import is_finite_real

MODEL_FORMAT_VERSION = 1

EXIT_CONFIG_ERROR = 2
EXIT_NUMERICAL_ERROR = 3

# The keys a `fit --config` JSON object may set; `seed` is the optimizer's rng_seed.
FIT_CONFIG_KEYS = ("n_starts", "seed", "max_em_iterations", "loglik_rel_tolerance")


def _read_csv(path: str) -> tuple[list[str], np.ndarray]:
    """Header and finite numeric rows of a CSV file; every row as wide as the header."""
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise ParseError(f"{path}: empty file, expected a header row") from None
            width = len(header)
            rows = []
            for i, row in enumerate(reader, start=2):
                if len(row) != width:
                    raise ParseError(
                        f"{path}: row {i} has {len(row)} columns, expected {width}"
                    )
                try:
                    values = [float(v) for v in row]
                except ValueError as exc:
                    raise ParseError(f"{path}: row {i}: {exc}") from None
                if not all(np.isfinite(values)):
                    raise ParseError(f"{path}: row {i}: non-finite value")
                rows.append(values)
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise ParseError(f"{path}: {exc}") from exc
    return header, np.asarray(rows, dtype=float).reshape(len(rows), width)


def read_data_csv(path: str) -> Dataset:
    """CSV with a header row, D input columns, and one trailing output column."""
    header, data = _read_csv(path)
    if len(header) < 2:
        raise ParseError(f"{path}: need at least 2 columns, got {len(header)}")
    if not len(data):
        raise InvalidConfig(f"{path}: no data rows")
    return Dataset(x=data[:, :-1], z=data[:, -1])


def _gp_to_dict(model: TrainedGp) -> dict:
    k = model.hyper.kernel
    return {
        "x": model.data.x.tolist(),
        "z": model.data.z.tolist(),
        "beta": model.hyper.beta.tolist(),
        "sigma2": k.sigma2,
        "eta": k.eta,
        "theta": k.theta.theta.tolist(),
    }


def model_to_dict(model: MfModel) -> dict:
    """JSON document of a model; the format reloads constant bases only, so refuse any other."""
    bases = {"LF": model.lf_model.basis, "HF": model.hf_basis, "HF scaling (rho)": model.rho_basis}
    for level, basis in bases.items():
        if basis is not constant_basis():
            raise InvalidConfig(f"cannot save the model: its {level} basis is not constant")
    p = model.hf_params
    return {
        "format_version": MODEL_FORMAT_VERSION,
        "lf": _gp_to_dict(model.lf_model),
        "hf": {
            "x": model.hf_data.x.tolist(),
            "z": model.hf_data.z.tolist(),
            "beta_rho": p.beta_rho.tolist(),
            "beta_h": p.beta_h.tolist(),
            "sigma2_h": p.sigma2_h,
            "theta_h": p.theta_h.theta.tolist(),
            "eta_h": p.eta_h,
        },
        "fit_info": {
            "lf_nll": model.lf_model.fit_log.get("nll"),
            "em_log": list(model.em_log),
        },
    }


def _number(value, name: str, vector: bool = False):
    """`value`, the model document's `name`: a finite, non-boolean number, or a list
    of them when `vector`; anything else is a ParseError naming it."""
    items = value if vector else [value]
    if not (isinstance(items, list) and all(is_finite_real(v) for v in items)):
        kind = "a list of finite numbers" if vector else "a finite number"
        raise ParseError(
            f"model document has an ill-typed value: {name} must be {kind}, got {value!r}"
        )
    return np.asarray(items, float) if vector else float(value)


def _training_set(section: dict, level: str) -> Dataset:
    """The training set in the model document's `level` section, each entry read by
    `_number`, which refuses a boolean that an array of numbers would read as 1.0."""
    x = [_number(row, f"{level}.x", vector=isinstance(row, list)) for row in section["x"]]
    return Dataset(x=x, z=_number(section["z"], f"{level}.z", vector=True))


def model_from_dict(doc: dict) -> MfModel:
    """Rebuild a model from its JSON document; a missing or ill-typed key is a ParseError.

    Every hyperparameter and training value is checked to be a finite number before
    any factorization.
    The optional `fit_info` reloads too: `lf_nll` a finite number or null, `em_log`
    a list of finite numbers.
    """
    version = doc.get("format_version") if isinstance(doc, dict) else None
    if type(version) is not int or version != MODEL_FORMAT_VERSION:
        raise ParseError(f"unsupported model format version: {version!r}")
    try:
        lf = doc["lf"]
        lf_data = _training_set(lf, "lf")
        lf_kernel = KernelParams(
            theta=LengthScales(_number(lf["theta"], "lf.theta", vector=True)),
            sigma2=_number(lf["sigma2"], "lf.sigma2"),
            eta=_number(lf["eta"], "lf.eta"),
        )
        lf_beta = _number(lf["beta"], "lf.beta", vector=True)
        hf = doc["hf"]
        hf_data = _training_set(hf, "hf")
        params = HfParams(
            beta_rho=_number(hf["beta_rho"], "hf.beta_rho", vector=True),
            beta_h=_number(hf["beta_h"], "hf.beta_h", vector=True),
            sigma2_h=_number(hf["sigma2_h"], "hf.sigma2_h"),
            theta_h=LengthScales(_number(hf["theta_h"], "hf.theta_h", vector=True)),
            eta_h=_number(hf["eta_h"], "hf.eta_h"),
        )
        info = doc.get("fit_info", {})
        lf_nll = info.get("lf_nll")
        fit_log = {} if lf_nll is None else {"nll": _number(lf_nll, "fit_info.lf_nll")}
        em_log = _number(info.get("em_log", []), "fit_info.em_log", vector=True).tolist()
        lf_model = TrainedGp(lf_data, constant_basis(), GpHyper(lf_beta, lf_kernel), fit_log)
        return MfModel(lf_model, params, constant_basis(), constant_basis(), hf_data, em_log)
    except KeyError as exc:
        raise ParseError(f"model document is missing key {exc}") from None
    except (TypeError, ValueError, IndexError, AttributeError, OverflowError,
            DimensionMismatch, InvalidConfig) as exc:
        raise ParseError(f"model document has an ill-typed value: {exc}") from None


def save_model(model: MfModel, path: str) -> None:
    doc = model_to_dict(model)
    with bench.open_output(path) as fh:
        json.dump(doc, fh, indent=1)


def _read_json(path: str):
    """The document in a JSON file; a file that cannot be read, decoded or parsed is
    a ParseError."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError: malformed JSON or text encoding
        raise ParseError(f"{path}: {exc}") from exc


def load_model(path: str) -> MfModel:
    return model_from_dict(_read_json(path))


def fit_configs(config: dict | None) -> tuple[MultiStartConfig, EmConfig]:
    """Optimizer and EM settings from a `fit --config` object; any bad key or value is
    an InvalidConfig."""
    config = {} if config is None else config
    if not isinstance(config, dict):
        raise InvalidConfig("fit config must be a JSON object")
    unknown = set(config) - set(FIT_CONFIG_KEYS)
    if unknown:
        raise InvalidConfig(f"unknown fit config keys: {sorted(unknown)}")
    ms = {("rng_seed" if k == "seed" else k): config[k] for k in ("n_starts", "seed") if k in config}
    em = {k: config[k] for k in ("max_em_iterations", "loglik_rel_tolerance") if k in config}
    return MultiStartConfig(**ms), EmConfig(**em)


def fit_from_csv(
    lf_csv: str, hf_csv: str, config: dict | None = None
) -> MfModel:
    ms, em = fit_configs(config)
    lf_data = read_data_csv(lf_csv)
    hf_data = read_data_csv(hf_csv)
    if lf_data.d != hf_data.d:
        raise ParseError(
            f"dimension mismatch: LF has {lf_data.d} input columns, "
            f"HF has {hf_data.d}"
        )
    return fit_mf(
        MfData(lf=lf_data, hf=hf_data), lf_config=ms, hf_config=ms, em_config=em
    )


def _run(body) -> None:
    try:
        body()
    except (InvalidConfig, ParseError) as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_CONFIG_ERROR)
    except MfkrigError as exc:
        click.echo(f"numerical failure: {exc}", err=True)
        sys.exit(EXIT_NUMERICAL_ERROR)


@click.group()
def main():
    """Bi-fidelity co-kriging: benchmarks, fitting, and prediction."""


@main.command("bench")
@click.option("--config", "config_path", required=True, type=click.Path())
def bench_cmd(config_path: str):
    """Run a replicated benchmark campaign described by a JSON config."""

    def body():
        config = bench.BenchmarkConfig.from_dict(_read_json(config_path))
        rows = bench.run_benchmark(config)
        n_failed = sum(int(row.get("failed", 0) or 0) for row in rows)
        summary = f"{len(rows)} rows ({n_failed} failed)"
        if config.output_path:
            click.echo(f"wrote {summary} to {config.output_path}")
        else:
            click.echo(f"ran {summary}; no output_path is set, so nothing was written")

    _run(body)


@main.command("fit")
@click.option("--lf", "lf_csv", required=True, type=click.Path())
@click.option("--hf", "hf_csv", required=True, type=click.Path())
@click.option("--config", "config_path", type=click.Path(), default=None)
@click.option("--out", "out_path", required=True, type=click.Path())
def fit_cmd(lf_csv: str, hf_csv: str, config_path: str | None, out_path: str):
    """Fit the bi-fidelity model on two CSV training sets."""

    def body():
        config = None if config_path is None else _read_json(config_path)
        bench.check_output_path(out_path)
        model = fit_from_csv(lf_csv, hf_csv, config)
        save_model(model, out_path)
        click.echo(f"model written to {out_path}")

    _run(body)


@main.command("predict")
@click.option("--model", "model_path", required=True, type=click.Path())
@click.option("--inputs", "inputs_csv", required=True, type=click.Path())
@click.option("--level", type=click.Choice(["lf", "hf"]), default="hf")
@click.option("--mode", type=click.Choice(["latent", "noisy"]), default="latent")
@click.option("--out", "out_path", required=True, type=click.Path())
def predict_cmd(model_path: str, inputs_csv: str, level: str, mode: str, out_path: str):
    """Predict mean and sd at the input rows of a CSV file."""

    def body():
        worker_count()  # a bad MFKRIG_THREADS is refused before any work
        model = load_model(model_path)
        header, x = _read_csv(inputs_csv)
        if x.shape[1] != model.hf_data.d:
            raise ParseError(
                f"{inputs_csv}: model expects {model.hf_data.d} input columns, "
                f"got {x.shape[1]}"
            )
        pred = predict_mf(model, x, level=level, mode=mode, cov="diagonal")
        with bench.open_output(out_path) as fh:
            writer = csv.writer(fh)
            writer.writerow([*header, "mean", "sd"])
            for xi, m, s in zip(x, pred.mean, pred.sd):
                writer.writerow([*(repr(float(v)) for v in xi), repr(float(m)), repr(float(s))])
        click.echo(f"predictions written to {out_path}")

    _run(body)


if __name__ == "__main__":
    main()
