import csv
import functools
import json
import os
import subprocess
import sys

import numpy as np
import pytest
from click.testing import CliRunner

from mfkrig import bench, cli, design, gp, mfgp, numerics
from mfkrig.bench import BenchmarkConfig
from mfkrig.cli import (
    EXIT_CONFIG_ERROR,
    EXIT_NUMERICAL_ERROR,
    load_model,
    main,
    read_data_csv,
    save_model,
)
from mfkrig.exceptions import InvalidConfig, NotPositiveDefinite, ParseError
from mfkrig.gp import (
    Dataset,
    GpHyper,
    MultiStartConfig,
    TrainedGp,
    constant_basis,
    fit_gp,
    predict_gp,
)
from mfkrig.kernels import KernelParams, LengthScales
from mfkrig.mfgp import HfParams, MfModel, predict_mf

from conftest import count_calls


def _read_rows(path):
    """The rows of a results CSV as dicts of strings, keyed by its header."""
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _write_csv(path, x, z=None):
    d = x.shape[1]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        header = [f"x{j}" for j in range(d)]
        if z is not None:
            header.append("y")
        writer.writerow(header)
        for i in range(x.shape[0]):
            row = [repr(float(v)) for v in x[i]]
            if z is not None:
                row.append(repr(float(z[i])))
            writer.writerow(row)


@pytest.fixture()
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("MFKRIG_THREADS", "1")
    return tmp_path


def _training_csvs(workdir, n_lf=30, n_hf=12, noise=0.05, seed=0):
    pair = design.ANALYTIC_1D
    x_lf = design.scale_to_domain(pair, design.lhs(n_lf, 1, seed=seed).points)
    z_lf = design.add_noise(design.eval_testfn(pair, "lf", x_lf), noise**2, seed + 1)
    x_hf = design.scale_to_domain(pair, design.lhs(n_hf, 1, seed=seed + 2).points)
    z_hf = design.add_noise(design.eval_testfn(pair, "hf", x_hf), noise**2, seed + 3)
    _write_csv(workdir / "lf.csv", x_lf, z_lf)
    _write_csv(workdir / "hf.csv", x_hf, z_hf)
    return x_lf, z_lf, x_hf, z_hf


class TestReadDataCsv:
    def test_valid(self, workdir):
        x = np.array([[0.1, 0.2], [0.3, 0.4]])
        z = np.array([1.0, 2.0])
        _write_csv(workdir / "d.csv", x, z)
        data = read_data_csv(str(workdir / "d.csv"))
        assert np.array_equal(data.x, x)
        assert np.array_equal(data.z, z)

    def test_ragged_row_names_location(self, workdir):
        with open(workdir / "bad.csv", "w") as fh:
            fh.write("x0,y\n0.1,1.0\n0.2\n")
        with pytest.raises(ParseError, match="row 3"):
            read_data_csv(str(workdir / "bad.csv"))

    def test_non_numeric(self, workdir):
        with open(workdir / "bad.csv", "w") as fh:
            fh.write("x0,y\n0.1,oops\n")
        with pytest.raises(ParseError, match="row 2"):
            read_data_csv(str(workdir / "bad.csv"))

    def test_header_only(self, workdir):
        with open(workdir / "empty.csv", "w") as fh:
            fh.write("x0,y\n")
        with pytest.raises(InvalidConfig):
            read_data_csv(str(workdir / "empty.csv"))

    def test_missing_file(self, workdir):
        with pytest.raises(ParseError):
            read_data_csv(str(workdir / "nope.csv"))

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite(self, workdir, bad):
        with open(workdir / "bad.csv", "w") as fh:
            fh.write(f"x0,y\n0.1,1.0\n0.2,{bad}\n")
        with pytest.raises(ParseError, match="bad.csv: row 3: non-finite"):
            read_data_csv(str(workdir / "bad.csv"))

    def test_undecodable_bytes(self, workdir):
        (workdir / "bad.csv").write_bytes(b"x0,y\n0.1,\xff\n")
        with pytest.raises(ParseError, match="bad.csv"):
            read_data_csv(str(workdir / "bad.csv"))


def _saved_model(workdir, name="m.json"):
    """A small 1D model assembled from fixed hyperparameters (no fitting) and saved."""
    x_lf = np.linspace(0.0, 1.0, 8).reshape(-1, 1)
    x_hf = x_lf[::2]
    lf_data = Dataset(x_lf, np.sin(4 * x_lf[:, 0]))
    lf_model = TrainedGp(lf_data, constant_basis(), GpHyper(
        np.array([0.0]),
        KernelParams(theta=LengthScales(np.array([0.3])), sigma2=1.0, eta=1e-3),
    ))
    params = HfParams(
        beta_rho=np.array([1.0]),
        beta_h=np.array([0.1]),
        sigma2_h=0.5,
        theta_h=LengthScales(np.array([0.4])),
        eta_h=0.01,
    )
    model = MfModel(
        lf_model, params, constant_basis(), constant_basis(),
        Dataset(x_hf, np.sin(4 * x_hf[:, 0]) + 0.1),
    )
    save_model(model, str(workdir / name))
    return model


class TestFitPredictCli:
    def test_round_trip_bit_for_bit(self, workdir):
        _, _, x_hf, _ = _training_csvs(workdir)
        runner = CliRunner()
        config = {"n_starts": 4, "seed": 3, "max_em_iterations": 30}
        (workdir / "cfg.json").write_text(json.dumps(config))
        res = runner.invoke(
            main,
            ["fit", "--lf", "lf.csv", "--hf", "hf.csv",
             "--config", "cfg.json", "--out", "model.json"],
        )
        assert res.exit_code == 0, res.output

        model = load_model(str(workdir / "model.json"))
        expected = predict_mf(model, x_hf, level="hf", mode="latent")
        _write_csv(workdir / "inputs.csv", x_hf)
        res = runner.invoke(
            main,
            ["predict", "--model", "model.json", "--inputs", "inputs.csv",
             "--level", "hf", "--mode", "latent", "--out", "pred.csv"],
        )
        assert res.exit_code == 0, res.output
        with open(workdir / "pred.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        got_x = np.array([[float(r[f"x{j}"]) for j in range(x_hf.shape[1])] for r in rows])
        got_mean = np.array([float(r["mean"]) for r in rows])
        got_sd = np.array([float(r["sd"]) for r in rows])
        assert got_x.tobytes() == x_hf.tobytes()
        assert np.array_equal(got_mean, expected.mean)
        assert np.array_equal(got_sd, expected.sd)

    def test_save_load_identity(self, workdir):
        _training_csvs(workdir)
        runner = CliRunner()
        res = runner.invoke(
            main, ["fit", "--lf", "lf.csv", "--hf", "hf.csv", "--out", "m.json"]
        )
        assert res.exit_code == 0, res.output
        m1 = load_model(str(workdir / "m.json"))
        save_model(m1, str(workdir / "m2.json"))
        m2 = load_model(str(workdir / "m2.json"))
        x = np.linspace(0.1, 1.9, 25).reshape(-1, 1)
        p1 = predict_mf(m1, x, level="hf")
        p2 = predict_mf(m2, x, level="hf")
        assert np.array_equal(p1.mean, p2.mean)
        assert np.array_equal(p1.variance, p2.variance)

    def test_dimension_mismatch_exit_2(self, workdir):
        pair = design.ANALYTIC_1D
        x_lf = design.scale_to_domain(pair, design.lhs(20, 1, seed=0).points)
        _write_csv(workdir / "lf.csv", x_lf, design.eval_testfn(pair, "lf", x_lf))
        x_hf = np.random.default_rng(0).uniform(size=(10, 2))
        _write_csv(workdir / "hf.csv", x_hf, np.zeros(10))
        res = CliRunner().invoke(
            main, ["fit", "--lf", "lf.csv", "--hf", "hf.csv", "--out", "m.json"]
        )
        assert res.exit_code == EXIT_CONFIG_ERROR
        assert "dimension mismatch" in res.output

    def test_non_finite_hf_exit_2(self, workdir):
        _training_csvs(workdir)
        with open(workdir / "hf.csv", "a") as fh:
            fh.write("0.5,nan\n")
        res = CliRunner().invoke(
            main, ["fit", "--lf", "lf.csv", "--hf", "hf.csv", "--out", "m.json"]
        )
        assert res.exit_code == EXIT_CONFIG_ERROR
        assert "hf.csv: row 14: non-finite value" in res.output
        assert not os.path.exists(workdir / "m.json")

    def test_non_finite_predict_inputs_exit_2(self, workdir):
        _saved_model(workdir)
        with open(workdir / "in.csv", "w") as fh:
            fh.write("x0\n0.25\ninf\n")
        res = CliRunner().invoke(
            main,
            ["predict", "--model", "m.json", "--inputs", "in.csv", "--out", "p.csv"],
        )
        assert res.exit_code == EXIT_CONFIG_ERROR
        assert "in.csv: row 3: non-finite value" in res.output
        assert not os.path.exists(workdir / "p.csv")

    def test_unwritable_fit_out_exit_2_before_fitting(self, workdir, monkeypatch):
        _training_csvs(workdir)

        def no_fit(*args, **kwargs):
            raise AssertionError("the model was fitted before the output path was checked")

        monkeypatch.setattr(cli, "fit_mf", no_fit)
        res = CliRunner().invoke(
            main, ["fit", "--lf", "lf.csv", "--hf", "hf.csv", "--out", "missing/m.json"]
        )
        assert res.exit_code == EXIT_CONFIG_ERROR, res.output
        assert res.output.startswith("error: cannot write missing/m.json")

    def test_unwritable_predict_out_exit_2(self, workdir):
        _saved_model(workdir)
        _write_csv(workdir / "in.csv", np.zeros((2, 1)))
        res = CliRunner().invoke(
            main,
            ["predict", "--model", "m.json", "--inputs", "in.csv", "--out", "missing/p.csv"],
        )
        assert res.exit_code == EXIT_CONFIG_ERROR, res.output
        assert res.output.startswith("error: cannot write missing/p.csv")

    @pytest.mark.parametrize("value", ["0", "-4", "abc"])
    def test_bad_thread_budget_predict_exit_2(self, workdir, monkeypatch, value):
        _saved_model(workdir)
        _write_csv(workdir / "in.csv", np.zeros((2, 1)))
        monkeypatch.setenv("MFKRIG_THREADS", value)
        res = CliRunner().invoke(
            main,
            ["predict", "--model", "m.json", "--inputs", "in.csv", "--out", "p.csv"],
        )
        assert res.exit_code == EXIT_CONFIG_ERROR, res.output
        assert res.output == f"error: MFKRIG_THREADS must be an integer >= 1, got {value!r}\n"
        assert not os.path.exists(workdir / "p.csv")

    def test_predict_inputs_wrong_width_exit_2(self, workdir):
        _saved_model(workdir)
        _write_csv(workdir / "in.csv", np.zeros((2, 2)))
        res = CliRunner().invoke(
            main,
            ["predict", "--model", "m.json", "--inputs", "in.csv", "--out", "p.csv"],
        )
        assert res.exit_code == EXIT_CONFIG_ERROR
        assert "expects 1 input columns, got 2" in res.output

    @pytest.mark.parametrize(
        "sizes, message",
        [
            ({"n_lf": 1}, "need at least 2 training points, got 1"),
            ({"n_hf": 2}, "need at least 3 high-fidelity points, got 2"),
        ],
    )
    def test_too_few_rows_exit_2(self, workdir, sizes, message):
        _training_csvs(workdir, **sizes)
        res = CliRunner().invoke(
            main, ["fit", "--lf", "lf.csv", "--hf", "hf.csv", "--out", "m.json"]
        )
        assert res.exit_code == EXIT_CONFIG_ERROR
        assert isinstance(res.exception, SystemExit)
        assert message in res.output
        assert not os.path.exists(workdir / "m.json")

    def test_header_only_hf_exit_2(self, workdir):
        _training_csvs(workdir)
        with open(workdir / "hf.csv", "w") as fh:
            fh.write("x0,y\n")
        res = CliRunner().invoke(
            main, ["fit", "--lf", "lf.csv", "--hf", "hf.csv", "--out", "m.json"]
        )
        assert res.exit_code == EXIT_CONFIG_ERROR

    def test_numerical_failure_exit_3(self, workdir):
        # A constant LF output makes the E-step's mean column G o mu_{Y|Z} a copy of
        # the HF basis's constant column: a numerical error, not a config error.
        x_lf = np.arange(10).reshape(-1, 1) / 10
        _write_csv(workdir / "lf.csv", x_lf, np.ones(10))
        x_hf = 0.05 + np.arange(5).reshape(-1, 1) / 5
        _write_csv(workdir / "hf.csv", x_hf, np.arange(5.0))
        res = CliRunner().invoke(
            main, ["fit", "--lf", "lf.csv", "--hf", "hf.csv", "--out", "m.json"]
        )
        assert res.exit_code == EXIT_NUMERICAL_ERROR, res.output
        assert res.output.startswith("numerical failure: ")
        assert not os.path.exists(workdir / "m.json")

    def test_lf_level_separation(self, workdir):
        _training_csvs(workdir)
        runner = CliRunner()
        config = {"n_starts": 4, "seed": 9}
        (workdir / "cfg.json").write_text(json.dumps(config))
        res = runner.invoke(
            main,
            ["fit", "--lf", "lf.csv", "--hf", "hf.csv",
             "--config", "cfg.json", "--out", "m.json"],
        )
        assert res.exit_code == 0, res.output
        model = load_model(str(workdir / "m.json"))
        x = np.linspace(0.05, 1.95, 20).reshape(-1, 1)
        _write_csv(workdir / "in.csv", x)
        res = runner.invoke(
            main,
            ["predict", "--model", "m.json", "--inputs", "in.csv",
             "--level", "lf", "--out", "plf.csv"],
        )
        assert res.exit_code == 0, res.output
        with open(workdir / "plf.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        got = np.array([float(r["mean"]) for r in rows])
        standalone = predict_gp(model.lf_model, x)
        assert np.array_equal(got, standalone.mean)

    def test_noisy_sd_at_least_latent_sd(self, workdir):
        _training_csvs(workdir)
        runner = CliRunner()
        res = runner.invoke(
            main, ["fit", "--lf", "lf.csv", "--hf", "hf.csv", "--out", "m.json"]
        )
        assert res.exit_code == 0, res.output
        x = np.linspace(0.0, 2.0, 30).reshape(-1, 1)
        _write_csv(workdir / "in.csv", x)
        sds = {}
        for mode in ("latent", "noisy"):
            res = runner.invoke(
                main,
                ["predict", "--model", "m.json", "--inputs", "in.csv",
                 "--mode", mode, "--out", f"{mode}.csv"],
            )
            assert res.exit_code == 0, res.output
            with open(workdir / f"{mode}.csv", newline="") as fh:
                sds[mode] = np.array([float(r["sd"]) for r in csv.DictReader(fh)])
        assert np.all(sds["noisy"] >= sds["latent"])

    def test_interpolation_through_serialization(self, workdir):
        # Noise-free nested model assembled in memory, saved, then queried at
        # an HF training point through the CLI.
        pair = design.ANALYTIC_1D
        x_lf = design.scale_to_domain(pair, design.lhs(20, 1, seed=5).points)
        z_lf = design.eval_testfn(pair, "lf", x_lf)
        lf_model = fit_gp(
            Dataset(x_lf, z_lf),
            config=MultiStartConfig(n_starts=4, rng_seed=6),
            fixed_eta=0.0,
        )
        x_hf = x_lf[:8]
        z_hf = design.eval_testfn(pair, "hf", x_hf)
        params = HfParams(
            beta_rho=np.array([1.0]),
            beta_h=np.array([0.0]),
            sigma2_h=1.0,
            theta_h=LengthScales(np.array([0.5])),
            eta_h=0.0,
        )
        model = MfModel(
            lf_model, params, constant_basis(), constant_basis(),
            Dataset(x_hf, z_hf),
        )
        save_model(model, str(workdir / "m.json"))
        _write_csv(workdir / "in.csv", x_hf)
        res = CliRunner().invoke(
            main,
            ["predict", "--model", "m.json", "--inputs", "in.csv",
             "--out", "p.csv"],
        )
        assert res.exit_code == 0, res.output
        with open(workdir / "p.csv", newline="") as fh:
            got = np.array([float(r["mean"]) for r in csv.DictReader(fh)])
        assert np.max(np.abs(got - z_hf)) < 1e-6

    def test_bad_model_version(self, workdir):
        (workdir / "m.json").write_text(json.dumps({"format_version": 99}))
        _write_csv(workdir / "in.csv", np.zeros((2, 1)))
        res = CliRunner().invoke(
            main,
            ["predict", "--model", "m.json", "--inputs", "in.csv", "--out", "p.csv"],
        )
        assert res.exit_code == EXIT_CONFIG_ERROR


class TestFitConfig:
    @pytest.mark.parametrize(
        "config",
        [
            {"n_starts": "abc"},
            {"n_starts": 0},
            {"n_starts": 2.5},
            {"n_starts": True},
            {"seed": -1},
            {"max_em_iterations": -1},
            {"loglik_rel_tolerance": "tight"},
            {"loglik_rel_tolerance": -1e-8},
            {"n_strats": 3},
            [1, 2],
        ],
    )
    def test_bad_config_exit_2(self, workdir, config):
        _training_csvs(workdir)
        (workdir / "cfg.json").write_text(json.dumps(config))
        res = CliRunner().invoke(
            main,
            ["fit", "--lf", "lf.csv", "--hf", "hf.csv",
             "--config", "cfg.json", "--out", "model.json"],
        )
        assert res.exit_code == EXIT_CONFIG_ERROR, res.output
        assert res.output.startswith("error:")
        assert not (workdir / "model.json").exists()


@pytest.mark.parametrize("command", [
    ["fit", "--lf", "lf.csv", "--hf", "hf.csv", "--config", "cfg.json", "--out", "model.json"],
    ["bench", "--config", "cfg.json"],
], ids=["fit", "bench"])
def test_undecodable_config_exit_2(workdir, command):
    # A UTF-16 byte-order mark, which is not UTF-8 text.
    _training_csvs(workdir)
    (workdir / "cfg.json").write_bytes(b"\xff\xfe{\x00}\x00")
    res = CliRunner().invoke(main, command)
    assert res.exit_code == EXIT_CONFIG_ERROR, res.output
    assert res.output.startswith("error: cfg.json:")
    assert not (workdir / "model.json").exists()


class TestModelJson:
    def _predict(self, workdir, doc):
        (workdir / "m.json").write_text(json.dumps(doc))
        _write_csv(workdir / "in.csv", np.zeros((2, 1)))
        return CliRunner().invoke(
            main,
            ["predict", "--model", "m.json", "--inputs", "in.csv", "--out", "p.csv"],
        )

    def test_missing_key_exit_2(self, workdir):
        res = self._predict(workdir, {"format_version": 1, "lf": {"x": [[0.0]]}})
        assert res.exit_code == EXIT_CONFIG_ERROR
        assert "missing key 'z'" in res.output

    @pytest.mark.parametrize(
        "part, key, value",
        [
            ("lf", "sigma2", "abc"),
            ("lf", "theta", [[1.0], [2.0, 3.0]]),
            ("lf", "beta", [0.0, 1.0]),
            ("hf", "x", [[0.0, 1.0]]),
            ("hf", "sigma2_h", -1.0),
            ("hf", "beta_rho", None),
        ],
    )
    def test_ill_typed_value_exit_2(self, workdir, part, key, value):
        _saved_model(workdir, "good.json")
        doc = json.loads((workdir / "good.json").read_text())
        doc[part][key] = value
        res = self._predict(workdir, doc)
        assert res.exit_code == EXIT_CONFIG_ERROR, res.output
        assert "ill-typed value" in res.output

    @pytest.mark.parametrize("part", ["lf", "hf"])
    @pytest.mark.parametrize("key", ["x", "z"])
    @pytest.mark.parametrize("every", [True, False], ids=["every", "one"])
    def test_boolean_training_value_exit_2(self, workdir, part, key, every):
        # NumPy would read true as 1.0, also as one entry among numbers.
        _saved_model(workdir, "good.json")
        doc = json.loads((workdir / "good.json").read_text())
        values = doc[part][key]
        for i in range(len(values) if every else 1):
            if key == "x":
                values[i][0] = i % 2 == 0
            else:
                values[i] = i % 2 == 0
        res = self._predict(workdir, doc)
        assert res.exit_code == EXIT_CONFIG_ERROR, res.output
        assert f"ill-typed value: {part}.{key} must be" in res.output

    @pytest.mark.parametrize(
        "part, key",
        [("lf", "theta"), ("lf", "sigma2"), ("lf", "eta"), ("lf", "beta"), ("hf", "beta_rho"),
         ("hf", "beta_h"), ("hf", "sigma2_h"), ("hf", "theta_h"), ("hf", "eta_h")],
    )
    @pytest.mark.parametrize("bad", [True, float("nan"), float("inf"), -float("inf"), 10**400])
    def test_non_finite_or_boolean_hyperparameter_exit_2(self, workdir, monkeypatch,
                                                         part, key, bad):
        _saved_model(workdir, "good.json")
        doc = json.loads((workdir / "good.json").read_text())
        doc[part][key] = [bad] if isinstance(doc[part][key], list) else bad

        def no_factorization(*args, **kwargs):
            raise AssertionError("a hyperparameter was factorized before it was validated")

        monkeypatch.setattr(numerics, "chol_factor", no_factorization)
        res = self._predict(workdir, doc)
        assert res.exit_code == EXIT_CONFIG_ERROR, res.output
        assert f"{part}.{key} must be" in res.output

    @pytest.mark.parametrize("version", [True, 1.0, "1"])
    def test_format_version_must_be_the_integer(self, workdir, version):
        _saved_model(workdir, "good.json")
        doc = json.loads((workdir / "good.json").read_text())
        doc["format_version"] = version
        res = self._predict(workdir, doc)
        assert res.exit_code == EXIT_CONFIG_ERROR, res.output
        assert "unsupported model format version" in res.output

    def test_undecodable_model_file_exit_2(self, workdir):
        (workdir / "m.json").write_bytes(b'{"format_version": 1, "\xff": \xff}')
        _write_csv(workdir / "in.csv", np.zeros((2, 1)))
        res = CliRunner().invoke(
            main, ["predict", "--model", "m.json", "--inputs", "in.csv", "--out", "p.csv"]
        )
        assert res.exit_code == EXIT_CONFIG_ERROR, res.output

    def test_non_constant_basis_refuses_to_save(self, workdir, linear_rho_mf):
        # The format has no field for a basis; saving a linear scaling basis
        # would write a file that reloads as a different model or not at all.
        with pytest.raises(InvalidConfig, match=r"HF scaling \(rho\) basis"):
            save_model(linear_rho_mf, str(workdir / "lin.json"))
        assert not (workdir / "lin.json").exists()

    def test_fitted_model_document_round_trips(self, workdir):
        _training_csvs(workdir)
        model = cli.fit_from_csv("lf.csv", "hf.csv", {"n_starts": 2, "seed": 1})
        doc = cli.model_to_dict(model)
        assert doc["fit_info"]["lf_nll"] is not None and len(doc["fit_info"]["em_log"]) > 1
        save_model(model, str(workdir / "m.json"))
        assert cli.model_to_dict(load_model(str(workdir / "m.json"))) == doc

    @pytest.mark.parametrize(
        "key, value",
        [("lf_nll", "-97.68"), ("lf_nll", True), ("lf_nll", float("nan")), ("lf_nll", [1.0]),
         ("em_log", "123"), ("em_log", ["1.5", True]), ("em_log", [float("nan")]),
         ("em_log", None)],
        ids=str,
    )
    def test_ill_typed_fit_info_exit_2(self, workdir, key, value):
        _saved_model(workdir, "good.json")
        doc = json.loads((workdir / "good.json").read_text())
        doc["fit_info"][key] = value
        res = self._predict(workdir, doc)
        assert res.exit_code == EXIT_CONFIG_ERROR, res.output
        assert f"fit_info.{key} must be" in res.output

    def test_document_without_fit_info_loads(self, workdir):
        model = _saved_model(workdir, "good.json")
        doc = json.loads((workdir / "good.json").read_text())
        del doc["fit_info"]
        loaded = cli.model_from_dict(doc)
        assert loaded.lf_model.fit_log == {} and loaded.em_log == []
        x = np.linspace(-0.5, 1.5, 50).reshape(-1, 1)
        assert np.array_equal(predict_mf(loaded, x).mean, predict_mf(model, x).mean)

    def test_valid_document_still_loads(self, workdir):
        model = _saved_model(workdir)
        x = np.linspace(-0.5, 1.5, 2500).reshape(-1, 1)
        loaded = load_model(str(workdir / "m.json"))
        for level in ("lf", "hf"):
            got, want = predict_mf(loaded, x, level=level), predict_mf(model, x, level=level)
            assert np.array_equal(got.mean, want.mean)
            assert np.array_equal(got.variance, want.variance)


class TestBenchConfig:
    def test_unknown_key(self):
        with pytest.raises(InvalidConfig, match="unknown config keys"):
            BenchmarkConfig.from_dict({"benchmark": "analytic1d", "bogus": 1})

    def test_unknown_benchmark(self):
        with pytest.raises(InvalidConfig):
            BenchmarkConfig.from_dict({"benchmark": "borehole"})

    def test_unknown_model(self):
        with pytest.raises(InvalidConfig, match="unknown models"):
            BenchmarkConfig.from_dict(
                {"benchmark": "analytic1d", "models": ["mf", "xgboost"]}
            )

    def test_negative_counts(self):
        with pytest.raises(InvalidConfig):
            BenchmarkConfig.from_dict({"benchmark": "analytic1d", "n_lf": 0})

    def test_missing_benchmark(self):
        with pytest.raises(InvalidConfig):
            BenchmarkConfig.from_dict({})


class TestBenchCli:
    def _config(self, workdir, **overrides):
        cfg = dict(
            benchmark="analytic1d",
            n_lf=40,
            n_hf=10,
            noise_sd_lf=0.0,
            noise_sd_hf=0.05,
            n_test=200,
            n_replications=1,
            seed=123,
            models=["lf_only"],
            output_path=str(workdir / "results.csv"),
            n_starts=4,
            max_em_iterations=20,
        )
        cfg.update(overrides)
        path = workdir / "bench.json"
        path.write_text(json.dumps(cfg))
        return path

    def test_single_row_lf_only_zero_noise(self, workdir):
        self._config(workdir)
        res = CliRunner().invoke(main, ["bench", "--config", "bench.json"])
        assert res.exit_code == 0, res.output
        rows = _read_rows(str(workdir / "results.csv"))
        assert len(rows) == 1
        row = rows[0]
        assert row["model_name"] == "lf_only"
        assert row["failed"] == "0"
        assert float(row["q2"]) > 0.999

    def test_determinism_modulo_fit_seconds(self, workdir):
        self._config(
            workdir,
            n_replications=2,
            models=["mf", "hf_only"],
            noise_sd_hf=0.1,
            n_hf=12,
        )
        runner = CliRunner()
        tables = []
        for out in ("a.csv", "b.csv"):
            cfg = json.loads((workdir / "bench.json").read_text())
            cfg["output_path"] = str(workdir / out)
            (workdir / "bench.json").write_text(json.dumps(cfg))
            res = runner.invoke(main, ["bench", "--config", "bench.json"])
            assert res.exit_code == 0, res.output
            tables.append(_read_rows(str(workdir / out)))
        for ra, rb in zip(*tables):
            ra.pop("fit_seconds")
            rb.pop("fit_seconds")
            assert ra == rb

    def test_rows_per_replication_and_model(self, workdir):
        self._config(workdir, n_replications=2, models=["mf", "hf_only"], n_hf=12)
        res = CliRunner().invoke(main, ["bench", "--config", "bench.json"])
        assert res.exit_code == 0, res.output
        rows = _read_rows(str(workdir / "results.csv"))
        keys = [(r["replication_index"], r["model_name"]) for r in rows]
        assert keys == [("0", "mf"), ("0", "hf_only"), ("1", "mf"), ("1", "hf_only")]

    def test_bad_config_exit_2(self, workdir):
        (workdir / "bench.json").write_text("{not json")
        res = CliRunner().invoke(main, ["bench", "--config", "bench.json"])
        assert res.exit_code == EXIT_CONFIG_ERROR

    def test_unknown_key_exit_2(self, workdir):
        (workdir / "bench.json").write_text(
            json.dumps({"benchmark": "analytic1d", "frobnicate": True})
        )
        res = CliRunner().invoke(main, ["bench", "--config", "bench.json"])
        assert res.exit_code == EXIT_CONFIG_ERROR

    @pytest.mark.parametrize(
        "overrides",
        [{"n_starts": 0}, {"max_em_iterations": -1}, {"n_starts": "abc"}, {"seed": -3},
         {"n_hf": 2.5}],
    )
    def test_bad_run_settings_exit_2(self, workdir, overrides):
        self._config(workdir, **overrides)
        res = CliRunner().invoke(main, ["bench", "--config", "bench.json"])
        assert res.exit_code == EXIT_CONFIG_ERROR, res.output
        assert not (workdir / "results.csv").exists()

    def test_unwritable_output_path_exit_2_before_running(self, workdir, monkeypatch):
        self._config(workdir, output_path=str(workdir / "missing" / "results.csv"))

        def no_replication(*args, **kwargs):
            raise AssertionError("a replication ran before the output path was checked")

        monkeypatch.setattr(bench, "run_replication", no_replication)
        res = CliRunner().invoke(main, ["bench", "--config", "bench.json"])
        assert res.exit_code == EXIT_CONFIG_ERROR, res.output
        assert "does not exist" in res.output

    def test_empty_models_exit_2_before_running(self, workdir, monkeypatch):
        self._config(workdir, models=[])

        def no_replication(*args, **kwargs):
            raise AssertionError("a replication ran for an empty model list")

        monkeypatch.setattr(bench, "run_replication", no_replication)
        res = CliRunner().invoke(main, ["bench", "--config", "bench.json"])
        assert res.exit_code == EXIT_CONFIG_ERROR, res.output
        assert "models" in res.output
        assert not (workdir / "results.csv").exists()

    def test_no_output_path_reports_rows_without_a_file(self, workdir):
        self._config(workdir, output_path=None)
        res = CliRunner().invoke(main, ["bench", "--config", "bench.json"])
        assert res.exit_code == 0, res.output
        assert res.output == "ran 1 rows (0 failed); no output_path is set, so nothing was written\n"
        assert sorted(p.name for p in workdir.iterdir()) == ["bench.json"]

    def test_non_object_config_exit_2(self, workdir):
        (workdir / "bench.json").write_text("[1, 2]")
        res = CliRunner().invoke(main, ["bench", "--config", "bench.json"])
        assert res.exit_code == EXIT_CONFIG_ERROR

    def test_failed_fit_is_a_failed_row(self, workdir, monkeypatch):
        # A package error in one model's fit fails that model's row alone: the
        # campaign exits 0 and the other model's rows are those of a run without it.
        self._config(workdir, n_replications=2, models=["hf_only"], n_hf=12,
                     output_path=str(workdir / "alone.csv"))
        assert CliRunner().invoke(main, ["bench", "--config", "bench.json"]).exit_code == 0
        alone = _read_rows(str(workdir / "alone.csv"))

        def failing_fit(*args, **kwargs):
            raise NotPositiveDefinite("forced")

        monkeypatch.setattr(bench, "fit_mf", failing_fit)
        self._config(workdir, n_replications=2, models=["mf", "hf_only"], n_hf=12)
        res = CliRunner().invoke(main, ["bench", "--config", "bench.json"])
        assert res.exit_code == 0, res.output
        assert res.output.startswith("wrote 4 rows (2 failed)")
        rows = _read_rows(str(workdir / "results.csv"))
        assert [(r["replication_index"], r["model_name"]) for r in rows] == [
            ("0", "mf"), ("0", "hf_only"), ("1", "mf"), ("1", "hf_only")
        ]
        for row in rows[0::2]:
            assert (row["failed"], row["error"]) == ("1", "NotPositiveDefinite: forced")
            assert all(row[col] == "" for col in bench.RESULT_COLUMNS[2:-2])  # q2..fit_seconds
        for row, want in zip(rows[1::2], alone):
            row.pop("fit_seconds")
            want.pop("fit_seconds")
            assert row == want and row["failed"] == "0"


def test_campaign_rows_independent_of_worker_count(monkeypatch):
    config = BenchmarkConfig(
        benchmark="analytic1d",
        n_lf=20,
        n_hf=8,
        n_test=200,
        n_replications=2,
        seed=5,
        models=("mf", "hf_only"),
        n_starts=2,
        max_em_iterations=2,
    )
    tables = []
    for threads in ("1", "2"):
        monkeypatch.setenv("MFKRIG_THREADS", threads)
        rows = bench.run_benchmark(config)
        assert [row["failed"] for row in rows] == [0] * 4
        tables.append([{k: v for k, v in row.items() if k != "fit_seconds"} for row in rows])
    assert tables[0] == tables[1]


def test_predictions_independent_of_blas_thread_count(workdir):
    # A saved model predicts the same bytes whatever the BLAS and block thread
    # counts. Each prediction runs in a fresh process, since OpenBLAS reads its
    # thread count once, at load. The bits rest on NumPy's bundled OpenBLAS, whose
    # matrix product gave the same bits on 1 and 2 threads for every whitening of
    # a full 1,000-row block: an observed property of that build, not a documented
    # guarantee of NumPy's. The queries fill three full blocks. A shorter last
    # block is not covered: at 500 rows its last 4 variances changed with the BLAS
    # thread count, because that build's product rounds the last columns of a
    # width that is not a multiple of 8 differently on 2 threads.
    pair = design.ANALYTIC_1D
    x_lf = design.scale_to_domain(pair, design.lhs(40, 1, seed=0).points)
    x_hf = design.scale_to_domain(pair, design.lhs(20, 1, seed=1).points)
    lf_model = TrainedGp(Dataset(x_lf, design.eval_testfn(pair, "lf", x_lf)), constant_basis(),
                         GpHyper(np.array([0.5]), KernelParams(
                             theta=LengthScales(np.array([0.15])), sigma2=1.5, eta=1e-6)))
    params = HfParams(beta_rho=np.array([1.4]), beta_h=np.array([0.1]), sigma2_h=0.2,
                      theta_h=LengthScales(np.array([0.3])), eta_h=1e-4)
    model = MfModel(lf_model, params, constant_basis(), constant_basis(),
                    Dataset(x_hf, design.eval_testfn(pair, "hf", x_hf)))
    save_model(model, str(workdir / "m.json"))
    n_queries = 3 * gp.PREDICT_BLOCK_ROWS
    _write_csv(workdir / "x.csv", np.linspace(0.0, 1.0, n_queries).reshape(-1, 1))
    src = os.path.dirname(os.path.dirname(cli.__file__))
    outputs = []
    for blas_threads in ("1", "2"):
        for block_threads in ("1", "2"):
            out = workdir / f"p{blas_threads}{block_threads}.csv"
            env = dict(os.environ, OPENBLAS_NUM_THREADS=blas_threads,
                       MFKRIG_THREADS=block_threads,
                       PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
            env.pop("OMP_NUM_THREADS", None)
            subprocess.run([sys.executable, "-m", "mfkrig.cli", "predict", "--model", "m.json",
                            "--inputs", "x.csv", "--out", str(out)],
                           env=env, cwd=workdir, capture_output=True, check=True, timeout=120)
            outputs.append(out.read_bytes())
    assert len(outputs[0].splitlines()) == n_queries + 1
    assert all(output == outputs[0] for output in outputs[1:])


@pytest.mark.parametrize("models", [("mf", "lf_only"), ("lf_only", "mf")])
def test_mf_and_lf_only_share_one_lf_fit(monkeypatch, models):
    # Both fit the LF data with the same config, so one fit serves both: the rows
    # equal those of separate campaigns in every column but fit_seconds.
    settings = dict(benchmark="analytic1d", n_lf=20, n_hf=8, n_test=200, seed=5,
                    n_starts=2, max_em_iterations=2)

    def rows(models):
        config = BenchmarkConfig(models=models, **settings)
        return [{k: v for k, v in row.items() if k != "fit_seconds"}
                for row in bench.run_replication(config, 0)]

    separate = [rows((name,))[0] for name in models]
    fits = [count_calls(monkeypatch, module, "fit_gp") for module in (bench, mfgp)]
    joint = rows(models)
    assert [row["failed"] for row in joint] == [0, 0]
    assert joint == separate
    assert sum(len(calls) for calls in fits) == 1


def test_worker_count_env(monkeypatch):
    monkeypatch.setenv("MFKRIG_THREADS", "3")
    assert bench.worker_count() == 3
    monkeypatch.delenv("MFKRIG_THREADS")
    assert bench.worker_count() >= 1


@pytest.mark.parametrize("budget, workers, share", [(2, 2, 1), (8, 2, 4), (3, 2, 1)])
def test_split_budget(monkeypatch, budget, workers, share):
    monkeypatch.setenv("MFKRIG_THREADS", "1")
    bench.split_budget(budget, workers)
    assert bench.worker_count() == share


def test_pool_workers_get_their_share_of_the_budget(monkeypatch):
    @functools.wraps(bench.run_replication)  # the pool pickles it by this name
    def report_budget(config, r):
        return [{"pid": os.getpid(), "budget": bench.worker_count()}]

    monkeypatch.setattr(bench, "run_replication", report_budget)
    monkeypatch.setenv("MFKRIG_THREADS", "4")
    rows = bench.run_benchmark(BenchmarkConfig(benchmark="analytic1d", n_replications=2))
    assert [row["budget"] for row in rows] == [2, 2]
    assert os.getpid() not in {row["pid"] for row in rows}
    assert os.environ["MFKRIG_THREADS"] == "4"


def test_non_integer_worker_count_exit_2(workdir, monkeypatch):
    TestBenchCli()._config(workdir)
    for value in ("two", "0", "-4"):
        monkeypatch.setenv("MFKRIG_THREADS", value)
        with pytest.raises(InvalidConfig, match="MFKRIG_THREADS must be an integer >= 1"):
            bench.worker_count()
        res = CliRunner().invoke(main, ["bench", "--config", "bench.json"])
        assert res.exit_code == EXIT_CONFIG_ERROR, res.output
        assert not (workdir / "results.csv").exists()
