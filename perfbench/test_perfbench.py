"""Tests of the benchmark's own machinery: span arithmetic, wrapper coverage, metric names.

Run with ``PYTHONPATH=src python -m pytest perfbench``.
"""

import json
import os
import re
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import layertrace  # noqa: E402
from layertrace import TRACED, Tracer  # noqa: E402

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_of_nested_spans():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def leaf():
        clock.now += 2.0

    traced_leaf = tracer.wrap("m.leaf", leaf)

    def middle():
        clock.now += 1.0
        traced_leaf()
        clock.now += 0.5

    traced_middle = tracer.wrap("m.middle", middle)

    def root():
        clock.now += 3.0
        traced_middle()
        traced_leaf()
        clock.now += 0.25

    tracer.wrap("m.root", root)()

    assert tracer.calls == {"m.leaf": 2, "m.middle": 1, "m.root": 1}
    assert tracer.total_s["m.root"] == pytest.approx(8.75)
    assert tracer.self_s["m.root"] == pytest.approx(3.25)
    assert tracer.total_s["m.middle"] == pytest.approx(3.5)
    assert tracer.self_s["m.middle"] == pytest.approx(1.5)
    assert tracer.total_s["m.leaf"] == pytest.approx(4.0)
    assert tracer.self_s["m.leaf"] == pytest.approx(4.0)
    # Spans are stored in start order with their parent's index.
    names = [tracer.names[i] for i in tracer.span_name]
    assert names == ["m.root", "m.middle", "m.leaf", "m.leaf"]
    assert list(tracer.span_parent) == [-1, 0, 1, 0]
    assert list(tracer.span_start) == [0.0, 3.0, 4.0, 6.5]
    assert list(tracer.span_end) == [8.75, 6.5, 6.0, 8.5]


def test_raising_call_still_closes_its_span():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def boom():
        clock.now += 1.0
        raise ValueError("x")

    traced = tracer.wrap("m.boom", boom)
    with pytest.raises(ValueError):
        tracer.wrap("m.outer", lambda: traced())()
    assert tracer.calls == {"m.boom": 1, "m.outer": 1}
    assert tracer.self_s["m.outer"] == pytest.approx(0.0)
    assert tracer.total_s["m.boom"] == pytest.approx(1.0)
    assert not tracer._stack


def _tiny_campaign(benchmark):
    from mfkrig import bench

    kw = dict(n_lf=10, n_hf=6, noise_sd_lf=0.05, noise_sd_hf=0.05) if benchmark == "analytic1d" \
        else dict(n_lf=12, n_hf=8, noise_sd_lf=1.0, noise_sd_hf=1.0)
    config = bench.BenchmarkConfig(benchmark=benchmark, n_test=30, n_replications=1, seed=3,
                                   models=("mf", "hf_only", "lf_only"), n_starts=2,
                                   max_em_iterations=2, **kw)
    return bench.run_replication(config, 0)


def test_wrappers_cover_every_namespace_and_every_call():
    import mfkrig
    from mfkrig import bench, mfgp

    tracer = Tracer()
    tracer.install()
    try:
        originals = {}
        for module_name, func_name in TRACED:
            wrapper = getattr(sys.modules[f"mfkrig.{module_name}"], func_name)
            originals[f"{module_name}.{func_name}"] = wrapper.__wrapped__
        # The by-name imports named in the benchmark's design are wrapped.
        for module, attr in ((bench, "fit_mf"), (bench, "predict_mf"), (bench, "fit_gp"),
                             (bench, "predict_gp"), (mfgp, "predict_gp"), (mfgp, "fit_gp"),
                             (mfkrig, "fit_mf"), (mfkrig, "coverage_report")):
            assert hasattr(getattr(module, attr), "__wrapped__"), (module, attr)
        # No loaded mfkrig namespace still holds an unwrapped original.
        for key, module in list(sys.modules.items()):
            if key == "mfkrig" or key.startswith("mfkrig."):
                for attr, value in vars(module).items():
                    assert all(value is not fn for fn in originals.values()), (key, attr)

        # Every execution of an original's code is matched by a wrapper call.
        code_names = {fn.__code__: name for name, fn in originals.items()}
        executed = {name: 0 for name in originals}

        def profile(frame, event, arg):
            if event == "call" and frame.f_code in code_names:
                executed[code_names[frame.f_code]] += 1

        sys.setprofile(profile)
        try:
            rows = _tiny_campaign("analytic1d") + _tiny_campaign("park4d")
        finally:
            sys.setprofile(None)
    finally:
        tracer.uninstall()
    assert all(not r["failed"] for r in rows)
    assert executed == {n: tracer.calls.get(n, 0) for n in executed}
    for name in ("numerics.chol_factor", "kernels.corr_matrix_grad", "mfgp.q_tilde_and_grad",
                 "mfgp.predict_mf", "design.maximin_lhs", "bench.run_replication"):
        assert tracer.calls.get(name, 0) > 0, name
    # Uninstalling restores the originals.
    assert mfgp.predict_gp is originals["gp.predict_gp"]
    assert bench.fit_mf is originals["mfgp.fit_mf"]


def test_em_log_decrease_is_a_violation():
    tracer = Tracer()
    layertrace._observe_em(tracer, (), {}, (None, [-10.0, -9.0, -9.5]))
    assert tracer.violations and "iteration 2" in tracer.violations[0]
    assert tracer.counters["em_iterations"] == 2


def test_layer_metrics_are_exactly_the_declared_ones():
    tracer = Tracer()
    produced = set(tracer.layer_metrics()) | {
        "bench.failed_rows", "bench.pool_busy_ratio", "trace.overhead_s"}
    assert produced == set(layertrace.LAYER_METRICS)


def test_metric_names_are_unique_and_well_formed():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    import workloads

    e2e = [m["name"] for m in spec["end_to_end"]]
    layers = [m["name"] for m in spec["per_layer"]]
    names = e2e + layers + [w["name"] for w in spec["workloads"]]
    assert len(set(e2e + layers)) == len(e2e + layers)
    assert len(set(w["name"] for w in spec["workloads"])) == len(spec["workloads"])
    for name in names:
        assert NAME_RE.match(name), name
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT_RE.match(metric["unit"]), metric
        assert metric["better"] in ("higher", "lower"), metric
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == \
        workloads.E2E_METRICS
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == \
        {k: v[:2] for k, v in layertrace.LAYER_METRICS.items()}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_round_sig_ignores_last_bit_noise():
    import workloads

    a = np.array([0.1234567891234, -3.0e-7, 0.0, 12345.678901])
    b = a * (1 + 1e-15)
    assert np.array_equal(workloads.round_sig(a), workloads.round_sig(b))


def test_calibrated_replication_keeps_rows_and_adds_kernel_time():
    import calibrate
    import workloads

    calls = []

    def run_replication(config, r):
        calls.append((config, r))
        return [{"model_name": "mf", "q2": 0.5}]

    wrapped = workloads._calibrated(run_replication)
    rows = wrapped("cfg", 3)
    assert calls == [("cfg", 3)]
    assert rows[0]["q2"] == 0.5 and rows[0][workloads.KERNEL_KEY] > 0.0
    assert wrapped.__name__ == "run_replication"
    assert calibrate.slowdown([calibrate.CAL_REF_S * 2]) == pytest.approx(2.0)
