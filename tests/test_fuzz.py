"""Property-based tests of the command-line boundary: malformed CSV training data,
malformed model JSON and malformed bench configs end in exit code 2 or 3 with a
one-line message, never in a traceback. Every generated input carries at least
one defect, so no example may succeed.

And of the library boundary: any array-like handed to a public type or function
either is read or raises an MfkrigError, never a bare NumPy or LAPACK error."""

import csv
import io
import json
import math
import os

import numpy as np
from click.testing import CliRunner
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from mfkrig.bench import MODEL_NAMES
from mfkrig.cli import EXIT_CONFIG_ERROR, EXIT_NUMERICAL_ERROR, main, model_to_dict
from mfkrig.exceptions import MfkrigError
from mfkrig.gp import Dataset, GpHyper, TrainedGp, constant_basis, predict_gp
from mfkrig.kernels import KernelParams, LengthScales
from mfkrig.metrics import coverage_report, q2
from mfkrig.mfgp import HfParams, MfModel, predict_mf
from mfkrig.optimize import BoxBounds

FIT_EXAMPLES = 60
PREDICT_EXAMPLES = 80
BENCH_EXAMPLES = 25
LIBRARY_EXAMPLES = 60


def _assert_clean_failure(res):
    assert res.exit_code in (EXIT_CONFIG_ERROR, EXIT_NUMERICAL_ERROR), res.output
    assert isinstance(res.exception, SystemExit), repr(res.exception)
    assert "Traceback" not in res.output
    assert res.output.startswith(("error:", "numerical failure:")), res.output


def _csv_text(rows) -> str:
    buf = io.StringIO()
    csv.writer(buf).writerows(rows)
    return buf.getvalue()


def _not_a_float(s: str) -> bool:
    try:
        float(s)
    except ValueError:
        return True
    return False


@st.composite
def numeric_table(draw, d):
    """Header plus 4-6 rows of d inputs and one output: a valid training set."""
    n = draw(st.integers(4, 6))
    value = st.floats(-10.0, 10.0, allow_nan=False).map(repr)
    rows = [[f"x{j}" for j in range(d)] + ["y"]]
    rows += [draw(st.lists(value, min_size=d + 1, max_size=d + 1)) for _ in range(n)]
    return rows


@st.composite
def defective_csv(draw, d):
    """A training CSV of input dimension d with one injected defect."""
    rows = draw(numeric_table(d))
    defect = draw(st.sampled_from(
        ["not_a_number", "non_finite", "short_row", "long_row", "one_column", "header_only",
         "empty", "too_few_rows", "garbage_text", "garbage_bytes"]))
    i = draw(st.integers(1, len(rows) - 1))
    j = draw(st.integers(0, d))
    if defect == "not_a_number":
        rows[i][j] = draw(st.text(max_size=8).filter(_not_a_float))
    elif defect == "non_finite":
        rows[i][j] = draw(st.sampled_from(["nan", "inf", "-inf", "NaN", "-Infinity", "1e999"]))
    elif defect == "short_row":
        del rows[i][j]
    elif defect == "long_row":
        rows[i].append("0.5")
    elif defect == "one_column":
        rows = [row[-1:] for row in rows]
    elif defect == "header_only":
        rows = rows[:1]
    elif defect == "empty":
        return b""
    elif defect == "too_few_rows":
        rows = rows[:2]  # one data row: too few for either level
    elif defect == "garbage_text":
        # The trailing line always lands in a field of the last row or in the header.
        return (draw(st.text(max_size=60)) + "\nnot-a-number\n").encode()
    else:
        return draw(st.binary(max_size=60)) + b"\n\xff\n"
    return _csv_text(rows).encode()


@given(d=st.integers(1, 2), lf_bad=st.booleans(), data=st.data())
@settings(max_examples=FIT_EXAMPLES)
def test_fit_rejects_defective_csv(d, lf_bad, data):
    bad = data.draw(defective_csv(d))
    good = _csv_text(data.draw(numeric_table(d))).encode()
    runner = CliRunner()
    with runner.isolated_filesystem():
        with open("lf.csv", "wb") as fh:
            fh.write(bad if lf_bad else good)
        with open("hf.csv", "wb") as fh:
            fh.write(good if lf_bad else bad)
        res = runner.invoke(main, ["fit", "--lf", "lf.csv", "--hf", "hf.csv", "--out", "m.json"])
    _assert_clean_failure(res)


def _fixed_model(x_lf: np.ndarray) -> MfModel:
    """A small model assembled from fixed hyperparameters on the LF inputs x_lf,
    with every other one of them as the HF inputs."""
    d = x_lf.shape[1]
    x_hf = x_lf[::2]
    lf_data = Dataset(x_lf, np.sin(4 * x_lf.sum(axis=1)))
    lf_model = TrainedGp(lf_data, constant_basis(), GpHyper(
        np.array([0.0]),
        KernelParams(theta=LengthScales(np.full(d, 0.3)), sigma2=1.0, eta=1e-3),
    ))
    params = HfParams(beta_rho=np.array([1.0]), beta_h=np.array([0.1]), sigma2_h=0.5,
                      theta_h=LengthScales(np.full(d, 0.4)), eta_h=0.01)
    return MfModel(lf_model, params, constant_basis(), constant_basis(),
                   Dataset(x_hf, np.sin(4 * x_hf.sum(axis=1)) + 0.1))


MODEL_1D = _fixed_model(np.linspace(0.0, 1.0, 8)[:, None])
MODEL_4D = _fixed_model(np.random.default_rng(4).random((8, 4)))
MODEL_DOCUMENT = model_to_dict(MODEL_1D)
REQUIRED = [("format_version",), ("lf",), ("hf",)] + [
    (part, key) for part in ("lf", "hf") for key in MODEL_DOCUMENT[part]
]
# Hyperparameter -> numbers of the right type that are out of range.
OUT_OF_RANGE = {
    "theta": st.floats(max_value=0.0), "sigma2": st.floats(max_value=0.0),
    "eta": st.floats(max_value=-1e-12), "theta_h": st.floats(max_value=0.0),
    "sigma2_h": st.floats(max_value=0.0), "eta_h": st.floats(max_value=-1e-12),
}
VECTORS = {"theta", "beta", "theta_h", "beta_rho", "beta_h"}
SCALARS = {"sigma2", "eta", "sigma2_h", "eta_h"}

json_scalar = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=6))
json_value = st.recursive(
    json_scalar,
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(st.text(max_size=6), inner, max_size=3)),
    max_leaves=8,
)
# Never a finite number: bad as a hyperparameter and as a data value.
not_a_number = st.one_of(
    st.none(), st.booleans(), st.text(max_size=6),
    st.sampled_from([math.nan, math.inf, -math.inf, 10**400]),
    st.dictionaries(st.text(max_size=4), json_scalar, max_size=2),
)


@st.composite
def defective_model(draw):
    """Model JSON text with one defect, or bytes that are no model document."""
    doc = json.loads(json.dumps(MODEL_DOCUMENT))
    defect = draw(st.sampled_from(["missing_key", "bad_hyper", "out_of_range", "bad_data",
                                   "bad_version", "random_json", "random_bytes"]))
    if defect == "missing_key":
        path = draw(st.sampled_from(REQUIRED))
        del (doc[path[0]] if len(path) == 2 else doc)[path[-1]]
    elif defect == "bad_hyper":
        part, key = draw(st.sampled_from(
            [(p, k) for p in ("lf", "hf") for k in doc[p] if k in VECTORS | SCALARS]))
        if key in VECTORS:
            bad = draw(st.one_of(not_a_number, st.floats(allow_nan=False, allow_infinity=False),
                                 st.lists(not_a_number, min_size=1, max_size=2)))
        else:
            bad = draw(st.one_of(not_a_number, st.lists(json_scalar, max_size=2)))
        doc[part][key] = bad
    elif defect == "out_of_range":
        part, key = draw(st.sampled_from([(p, k) for p in ("lf", "hf") for k in doc[p]
                                          if k in OUT_OF_RANGE]))
        bad = draw(OUT_OF_RANGE[key])
        doc[part][key] = [bad] if key in VECTORS else bad
    elif defect == "bad_data":
        part, key = draw(st.sampled_from([(p, k) for p in ("lf", "hf") for k in ("x", "z")]))
        values = doc[part][key]
        values[draw(st.integers(0, len(values) - 1))] = draw(not_a_number.filter(
            lambda v: not isinstance(v, bool)))
    elif defect == "bad_version":
        doc["format_version"] = draw(json_value.filter(lambda v: not (type(v) is int and v == 1)))
    elif defect == "random_json":
        doc = draw(json_value)
    else:
        return draw(st.binary(max_size=80))
    return json.dumps(doc).encode()


@given(model=defective_model())
@settings(max_examples=PREDICT_EXAMPLES)
def test_predict_rejects_defective_model_json(model):
    runner = CliRunner()
    with runner.isolated_filesystem():
        with open("m.json", "wb") as fh:
            fh.write(model)
        with open("in.csv", "w") as fh:
            fh.write("x0\n0.25\n0.75\n")
        res = runner.invoke(main, ["predict", "--model", "m.json", "--inputs", "in.csv",
                                   "--out", "p.csv"])
    _assert_clean_failure(res)


# A valid bench config small enough that a missed defect still finishes quickly.
BENCH_CONFIG = {
    "benchmark": "analytic1d", "n_lf": 6, "n_hf": 4, "noise_sd_lf": 0.0, "noise_sd_hf": 0.05,
    "n_test": 5, "n_replications": 1, "seed": 0, "models": ["lf_only"],
    "output_path": "out.csv", "n_starts": 1, "max_em_iterations": 2,
}
not_an_int = json_value.filter(lambda v: type(v) is not int)
not_a_real = json_value.filter(lambda v: isinstance(v, bool) or not isinstance(v, (int, float)))
# Config key -> values that are defects there.
BAD_BENCH_VALUES = {
    "benchmark": json_value.filter(lambda v: v not in ("analytic1d", "park4d")),
    **{key: st.one_of(st.just(minimum - 1), st.integers(max_value=minimum - 1), not_an_int)
       for key, minimum in (("n_lf", 2), ("n_hf", 3), ("n_test", 2), ("n_replications", 1),
                            ("n_starts", 1), ("max_em_iterations", 1))},
    "seed": st.one_of(st.integers(max_value=-1), not_an_int),
    **{key: st.one_of(st.floats().filter(lambda v: not 0 <= v < math.inf),
                      st.integers(min_value=2**1024), not_a_real)
       for key in ("noise_sd_lf", "noise_sd_hf")},
    "models": st.one_of(
        json_value.filter(lambda v: not isinstance(v, list)),
        st.lists(json_value, min_size=1, max_size=3).filter(
            lambda names: any(m not in MODEL_NAMES for m in names)),
    ),
    "output_path": json_value.filter(lambda v: v is not None and not isinstance(v, str)),
}


@pytest.mark.parametrize("key", sorted(BAD_BENCH_VALUES))
@given(data=st.data())
@settings(max_examples=BENCH_EXAMPLES)
def test_bench_rejects_defective_config(key, data):
    config = dict(BENCH_CONFIG, **{key: data.draw(BAD_BENCH_VALUES[key])})
    runner = CliRunner()
    with runner.isolated_filesystem():
        with open("bench.json", "w") as fh:
            json.dump(config, fh)
        res = runner.invoke(main, ["bench", "--config", "bench.json"])
        assert res.exit_code == EXIT_CONFIG_ERROR, res.output
        _assert_clean_failure(res)
        assert res.output.count("\n") == 1 and key in res.output, res.output
        assert not os.path.exists("out.csv")


# Array-likes of 0 to 3 dimensions: numbers, NumPy arrays (empty ones among them),
# nested lists that may be ragged, strings and None.
entry = st.one_of(st.floats(-10.0, 10.0), st.sampled_from([math.nan, math.inf]))
loose_entry = st.one_of(entry, st.none(), st.text(max_size=2))
array_like = st.one_of(
    st.none(),
    st.text(max_size=3),
    entry,
    hnp.arrays(np.float64, hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4),
               elements=entry),
    st.lists(loose_entry, max_size=4),
    st.lists(st.lists(entry, max_size=3), max_size=3),
    st.lists(st.lists(st.lists(entry, max_size=2), max_size=2), max_size=2),
)
KERNEL = KernelParams(theta=LengthScales(np.array([0.3])), sigma2=1.0, eta=1e-3)
# Target -> a call that reads the two drawn array-likes a and b.
LIBRARY_TARGETS = {
    "Dataset": lambda a, b: Dataset(a, b),
    "LengthScales": lambda a, b: LengthScales(a),
    "GpHyper": lambda a, b: GpHyper(a, KERNEL),
    "HfParams": lambda a, b: HfParams(a, b, 0.5, LengthScales(np.array([0.4])), 0.01),
    "BoxBounds": lambda a, b: BoxBounds(a, b),
    "predict_gp_1d": lambda a, b: predict_gp(MODEL_1D.lf_model, a),
    "predict_gp_4d": lambda a, b: predict_gp(MODEL_4D.lf_model, a),
    "predict_mf_1d": lambda a, b: predict_mf(MODEL_1D, a),
    "predict_mf_4d": lambda a, b: predict_mf(MODEL_4D, a),
    "q2": lambda a, b: q2(a, b),
    "coverage_report": lambda a, b: coverage_report(a, b, a, np.full(3, 0.5), 0.01),
    "TrainedGp_beta": lambda a, b: TrainedGp(MODEL_1D.lf_model.data, constant_basis(),
                                             GpHyper(a, KERNEL)),
    "MfModel_beta": lambda a, b: MfModel(
        MODEL_1D.lf_model, HfParams(a, b, 0.5, LengthScales(np.array([0.4])), 0.01),
        constant_basis(), constant_basis(), MODEL_1D.hf_data),
}


@pytest.mark.parametrize("target", sorted(LIBRARY_TARGETS))
@given(a=array_like, b=array_like)
@settings(max_examples=LIBRARY_EXAMPLES, deadline=None)
def test_library_reads_or_raises_package_errors(target, a, b):
    try:
        LIBRARY_TARGETS[target](a, b)
    except MfkrigError:
        pass


def _gp_4d(x) -> np.ndarray:
    pred = predict_gp(MODEL_4D.lf_model, x)
    return np.concatenate([pred.mean, pred.variance])


def _mf_4d(x) -> np.ndarray:
    pred = predict_mf(MODEL_4D, x)
    return np.concatenate([pred.mean, pred.variance])


QUERIES_4D = np.random.default_rng(9).random((3, 4))
X_3 = np.array([[0.1], [0.5], [0.9]])
Z_3 = np.array([1.0, 2.0, 0.5])
# Reading -> (a call that relies on it, the same call on canonical arrays).
VALID_READINGS = {
    "1-D x at D = 1 is N points": (lambda: Dataset(X_3[:, 0], Z_3).x, lambda: X_3),
    "(N, 1) z is N outputs": (lambda: Dataset(X_3, Z_3[:, None]).z, lambda: Z_3),
    "predict_gp: 1-D query of length D at D = 4 is one point": (
        lambda: _gp_4d(QUERIES_4D[0]), lambda: _gp_4d(QUERIES_4D[:1])),
    "predict_gp: 1-D query of length 3 D at D = 4 is three points": (
        lambda: _gp_4d(QUERIES_4D.ravel()), lambda: _gp_4d(QUERIES_4D)),
    "predict_mf: 1-D query of length D at D = 4 is one point": (
        lambda: _mf_4d(QUERIES_4D[0]), lambda: _mf_4d(QUERIES_4D[:1])),
    "predict_mf: 1-D query of length 3 D at D = 4 is three points": (
        lambda: _mf_4d(QUERIES_4D.ravel()), lambda: _mf_4d(QUERIES_4D)),
}


@pytest.mark.parametrize("reading", sorted(VALID_READINGS))
def test_valid_array_readings(reading):
    read, canonical = VALID_READINGS[reading]
    assert np.array_equal(read(), canonical())
