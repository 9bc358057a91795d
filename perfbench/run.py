"""mfkrig benchmark entry point.

    python3 perfbench/run.py --workload {analytic1d,park4d,predict} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from its
``src/`` directory. With ``--trace 0`` the last line of standard output is a
JSON object holding every end-to-end metric; with ``--trace 1`` it holds every
per-layer metric from a separate serial, traced run. Earlier lines give the
metrics in readable form, the recorded environment and the output digest.
See perfbench/README.md for what each workload and metric is for.
"""

import time

_T0 = time.perf_counter()

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

# BLAS is pinned to one thread before numpy is imported: with default threads,
# every pool worker's OpenBLAS threads busy-wait against the other workers.
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
os.environ.update(BLAS_THREADS)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

# set-up samples per run (this process plus fresh child processes); setup_s is their median
SETUP_SAMPLES = 3


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("analytic1d", "park4d", "predict"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time one cold set-up and print it (used for setup_s samples)")
    return parser.parse_args(argv)


def environment(workload: str, seed: int, workers: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "workers": workers,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "workload": workload,
        "seed": seed,
    }


def setup_sample(args) -> float:
    """Wall time of a cold set-up in a fresh interpreter, at reference speed."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up sample failed:\n{proc.stderr}")
    return float(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "mfkrig", "__init__.py")):
        print(f"mfkrig sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    workers = len(os.sched_getaffinity(0))
    os.environ["MFKRIG_THREADS"] = str(workers)

    import calibrate
    import layertrace
    import workloads

    import mfkrig
    if os.path.dirname(os.path.dirname(os.path.abspath(mfkrig.__file__))) != SRC:
        print(f"mfkrig imported from {mfkrig.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    work = workloads.make(args.workload, args.seed, workers)
    try:
        work.setup()
        setup_s = (time.perf_counter() - _T0) / calibrate.measure_slowdown()
        if args.setup_only:
            print(repr(setup_s))
            return 0
        os.makedirs(OUT_DIR, exist_ok=True)
        stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
        if args.trace:
            values, attempted, failed = work.trace(stem + ".spans.csv.gz")
            spec = {k: v[:2] for k, v in layertrace.LAYER_METRICS.items()}
        else:
            values, attempted, failed = work.measure(args.seconds)
            samples = [setup_s] + [setup_sample(args) for _ in range(SETUP_SAMPLES - 1)]
            values["setup_s"] = statistics.median(samples)
            work.notes["setup_samples_s"] = samples
            spec = workloads.E2E_METRICS
    except workloads.CheckFailed as exc:
        print(f"CHECK FAILED [{args.workload}]: {exc}", file=sys.stderr)
        return 1

    env = environment(args.workload, args.seed, workers)
    for name, (unit, better) in spec.items():
        moves = layertrace.LAYER_METRICS[name][2:] if args.trace else ()
        expect = f" moves={moves[0]} on={moves[1]}" if moves else ""
        print(f"metric {name:<42} {values[name]:>14.6g} {unit:<6} better={better}{expect}")
    if "latency_s_p90" in work.notes:
        print(f"tail   latency_s_p90 {work.notes['latency_s_p90']:.6g} s over "
              f"{work.notes['latency_samples']} samples (reported, not gated)")
    print(f"digest {args.workload} {work.notes['digest']}")
    print("env " + json.dumps(env, sort_keys=True))
    print("notes " + json.dumps(work.notes, sort_keys=True, default=str))
    result = {
        "correct": True,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": float(values[name]), "unit": unit}
                    for name, (unit, _) in spec.items()},
    }
    with open(stem + ".json", "w") as fh:
        json.dump({"env": env, "notes": work.notes, **result}, fh, indent=1, default=str)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
