"""fusecast benchmark runner.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``./src``. The run sets up the workload several times, then performs
closed-loop steps for about ``--seconds`` (or a workload's fixed number of
steps), checking every operation's outputs, then sets it up several times
more. A workload's warm-up steps run before the timed ones; they are checked
but not timed.
The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it is a report with the
environment, sample counts, quartiles, and the end-to-end figures under the
names users know them by (``train_windows_per_s``, ``forecast_ms_p50``,
``explain_window_s``, ``tune_trial_s``, ``error_rate``, ...).

The gated latency is the mean per step, not the median: on a shared host
the CPU can switch between a fast and a slow speed (1.5x apart, seconds
apart, on the 2-vCPU VM this was tuned on), and a run's median then lands in
one mode or the other, while the mean follows the share of time spent in
each. The median, p90 and the number of steps beyond p90 are in the report
line; p90 is not gated because most workloads take too few steps in a run to
leave ten beyond it. For the same reason ``setup_s`` is a median of means:
the set-up times, half taken before the steps and half after, are dealt in
order into ``SETUP_REPS`` groups, so each group spans the run, and the
median of the group means is reported.

With ``--trace 1`` the workload is set up once, traced; the operations run
traced for half the time (one step, if the workload has a fixed number) and
are then repeated untraced, and the metrics are
per-layer figures (see ``layers.py``): ``*_s`` times, ``*_calls`` and
``*_rows`` are per operation, and the overhead is traced minus untraced wall
time per operation. The report adds each layer's self time, the wall time no
span covers, and their sum, which equals the traced wall time. Spans go to
``.bench_out/trace-<workload>-seed<N>.jsonl.gz``.

Tests of the benchmark itself: ``python3 -m pytest -q benchmarks/selftest.py``.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import gzip
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPS = 5          # groups of set-ups; setup_s is the median of their means
SETUP_SECONDS = 1.0     # set-ups continue until this much time has gone on them

BLAS_THREADS = 1        # one thread: on a few shared cores a second BLAS
                        # thread spin-waits and measures the neighbours
END_TO_END_UNITS = {"setup_s": "s", "op_ms_mean": "ms", "peak_rss_mb": "MB"}


def limit_blas_threads() -> int:
    """Pin BLAS/OpenMP to ``BLAS_THREADS`` threads; returns the CPUs this
    process may use. Must run before numpy is imported."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    return len(os.sched_getaffinity(0))


def blas_threads():
    """Thread count OpenBLAS reports, or None when it cannot be queried."""
    import numpy as np
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return fn()
    return None


def host_ref_ms() -> float:
    """Median of five timings of a fixed loop of small numpy operations, the
    kind most of the workloads are made of: a run on a host that was slow
    at the time shows a higher figure. Not part of any metric."""
    import numpy as np
    x = np.linspace(0.0, 1.0, 64)
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        for _ in range(2000):
            x = np.tanh(x @ np.ones((64, 64)) / 64.0) + 0.5
        times.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(times)


def environment(nproc: int) -> dict:
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "thread_env": {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "nproc": nproc, "machine": platform.machine(),
        "loadavg_start": list(os.getloadavg()), "host_ref_ms_start": host_ref_ms(),
    }


def import_fusecast():
    """Import the package from ./src of this checkout, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "fusecast" / "__init__.py").is_file():
        sys.exit(f"benchmark: no fusecast sources under {src}")
    sys.path.insert(0, str(src))
    import fusecast
    if Path(fusecast.__file__).resolve().parent != (src / "fusecast").resolve():
        sys.exit(f"benchmark: imported fusecast from {fusecast.__file__}, not {src}")
    for mod in ("series", "nn", "train", "bayesopt", "explain", "cli"):
        __import__(f"fusecast.{mod}")


def quantile(values, q: float) -> float:
    """Linear interpolation between order statistics (q in [0, 1])."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def closed_loop(wl, seconds: float, count: int | None = None):
    """Run steps back to back, as many as bring the run nearest to
    ``seconds`` (at least one), or exactly ``count`` steps. Returns (steps,
    wall seconds); each step is the list of operations it performed.
    Stopping at the nearest rather than the first count past ``seconds``
    keeps a workload whose step takes about ``seconds`` from running two."""
    steps = []
    t0 = time.perf_counter()
    while True:
        steps.append(wl.run(len(steps)))
        elapsed = time.perf_counter() - t0
        if len(steps) == count or (count is None and elapsed * (1 + 0.5 / len(steps)) >= seconds):
            return steps, elapsed


def time_setups(wl, seconds: float) -> list[float]:
    """Set the workload up at least ``SETUP_REPS`` times and until
    ``seconds`` have gone on it; the time of each."""
    times = []
    while len(times) < SETUP_REPS or sum(times) < seconds:
        t0 = time.perf_counter()
        wl.setup()
        times.append(time.perf_counter() - t0)
    return times


def median_of_means(values, groups: int) -> float:
    """Median of the means of ``groups`` groups, value i in group i % groups."""
    return statistics.median(statistics.fmean(values[g::groups]) for g in range(groups))


def end_to_end(setup_times, steps) -> dict:
    """Latency is per closed-loop step (what the client waits for). Every
    step of a workload does the same work, so throughput is a constant over
    this latency and is reported, not gated."""
    lat = [sum(op.seconds for op in step) for step in steps]
    return {
        "setup_s": median_of_means(setup_times, SETUP_REPS),
        "op_ms_mean": 1e3 * statistics.fmean(lat),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def named(workload: str, metrics: dict, steps) -> dict:
    """The end-to-end figures under the names users know them by."""
    ops = [op for step in steps for op in step]
    out = {"setup_s": (metrics["setup_s"], "s"), "peak_rss_mb": (metrics["peak_rss_mb"], "MB"),
           "error_rate": (sum(op.failed for op in ops) / len(ops), "ratio")}
    if workload.startswith("fit-"):
        out["train_windows_per_s"] = (sum(op.windows for op in ops) /
                                      sum(op.seconds for op in ops), "1/s")
    forecasts = [op.seconds for op in ops if op.kind == "forecast"]
    if forecasts:
        out["forecast_ms_p50"] = (1e3 * statistics.median(forecasts), "ms")
        out["forecast_ms_p90"] = (1e3 * quantile(forecasts, 0.9), "ms")
        out["forecast_samples"] = (len(forecasts), "count")
    if workload == "infer-explain":
        out["explain_window_s"] = (sum(op.seconds for op in ops) / len(ops), "s")
    elif workload == "tune-small":
        out["tune_trial_s"] = (sum(op.seconds for op in ops) / len(ops), "s")
    return {k: {"value": v, "unit": u} for k, (v, u) in out.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    nproc = limit_blas_threads()
    import_fusecast()
    import tracing
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    env = environment(nproc)

    out_root = ROOT / ".bench_out"
    workdir = out_root / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    warm: list = []
    try:
        wl = WORKLOADS[args.workload](args.seed, workdir, tracing.NullRecorder())
        if not args.trace:
            setup_times = time_setups(wl, SETUP_SECONDS / 2)
            warm = [wl.run(-1 - i) for i in range(wl.warmup)]
            steps, wall = closed_loop(wl, args.seconds, wl.steps)
            setup_times += time_setups(wl, SETUP_SECONDS / 2)
            metrics, units = end_to_end(setup_times, steps), END_TO_END_UNITS
            lat = [sum(op.seconds for op in step) for step in steps]
            p90 = quantile(lat, 0.9)
            extra = {"wall_s": wall, "named": named(args.workload, metrics, steps),
                     "op_ms_p50": 1e3 * statistics.median(lat), "op_ms_p90": 1e3 * p90,
                     "beyond_p90": sum(x > p90 for x in lat),
                     "warmup_steps": len(warm),
                     "setup_reps": len(setup_times),
                     "setup_s_quartiles": [quantile(setup_times, q) for q in (0.25, 0.5, 0.75)]}
        else:
            import layers
            missing: list[str] = []
            setup_rec, rec = tracing.Recorder(), tracing.Recorder()
            with tracing.instrument(setup_rec, []):
                wl.setup()
            wl.rec = rec
            with tracing.instrument(rec, missing):
                steps, wall = closed_loop(wl, args.seconds / 2, wl.steps and 1)
            extras = wl.trace_extras()
            wl.rec = tracing.NullRecorder()
            plain_steps, plain_wall = closed_loop(wl, 0, len(steps))
            n_ops = sum(len(step) for step in steps)
            metrics, extra = layers.per_layer(rec.spans, setup_rec.spans, n_ops, wall,
                                              plain_wall, extras, missing)
            units = layers.UNITS
            steps += plain_steps
            out_root.joinpath(f"trace-{args.workload}-seed{args.seed}.jsonl.gz").write_bytes(
                gzip.compress(layers.spans_jsonl(rec.spans).encode(), compresslevel=1))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    lat = [sum(op.seconds for op in step) for step in steps]
    ops = [op for step in warm + steps for op in step]
    failed = [op for op in ops if op.failed]
    env["loadavg_end"] = list(os.getloadavg())
    env["host_ref_ms_end"] = host_ref_ms()
    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace, "env": env,
        "steps": len(steps), "ops": len(ops), "error_rate": len(failed) / len(ops),
        "failures": sorted({op.note for op in failed})[:5],
        "step_s_quartiles": [quantile(lat, q) for q in (0.25, 0.5, 0.75)],
        **extra,
    }
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": not failed, "attempted": len(ops), "failed": len(failed),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
