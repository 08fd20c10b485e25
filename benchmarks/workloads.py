"""The benchmark's workloads: one analyst at a desk running train, tune,
forecast and explain, as a single closed-loop client (each operation starts
when the previous one has returned).

Every workload generates its inputs from the benchmark seed with the default
synthetic recipe (2000 days, period 365, amplitude 100, trend 1.0, noise 5,
AR(1) 0.7) and calls fusecast through its CLI entry point or its public
module functions. Functions are looked up on the ``fusecast.*`` modules at
call time, so the traced run's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import csv
import importlib
import io
import json
import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

SYNTH = {"length": 2000, "period": 365, "amplitude": 100.0, "trend_slope": 1.0,
         "noise_std": 5.0, "ar_coeff": 0.7}
TRAIN_FRAC = 0.8
W = 15
BATCH = 32
FIT_EPOCHS = 3           # epochs per `fusecast train` call in fit-default
PRETRAIN_EPOCHS = 1      # epochs of the model the infer-explain set-up trains
HORIZON = 15
EXPLAIN = {"background_size": 64, "sample_permutations": 200}
WIDECELL = {"cnn_layers": 12, "filters": 256, "kernel_size": 5, "heads": 5}
TUNE_SPACE = {"cnn_layers": (1, 4), "heads": (2, 4), "filters": (16, 64), "kernel_size": (2, 5)}
TUNE = {"budget": 31, "init": 30, "epochs": 1, "pool_size": 512, "seed": 3}


def fc(name: str):
    """A fusecast module (the package attributes ``train`` and ``explain``
    are functions, so modules are always imported by full name)."""
    return importlib.import_module(f"fusecast.{name}")


@dataclass
class Op:
    seconds: float
    windows: float          # unit of work, see each workload's doc
    failed: bool
    note: str = ""
    kind: str = ""          # the `fusecast` command, for CLI operations


@dataclass
class Prepared:
    train_ts: object        # TimeSeries
    train: object           # WindowedDataset
    test: object


def prepare(seed: int) -> Prepared:
    """Series -> chronological split -> train-fitted scaler -> windows, the
    same preparation `fusecast train` performs."""
    series = fc("series")
    ts = series.synthesize(series.SynthSpec(**SYNTH, seed=seed))
    train_ts, _ = series.split(ts, TRAIN_FRAC)
    scaler = series.fit_scaler(train_ts)
    windows = series.make_windows(series.apply_scaler(ts, scaler), W)
    first_test = len(train_ts) - W
    train = series.WindowedDataset(windows.inputs[:first_test], windows.targets[:first_test], W)
    test = series.WindowedDataset(windows.inputs[first_test:], windows.targets[first_test:], W)
    return Prepared(train_ts, train, test)


def run_cli(argv: list[str]) -> tuple[int, str]:
    """Call `fusecast` in-process; returns (exit code, captured stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = fc("cli").main(argv)
        except Exception as exc:  # noqa: BLE001 - a traceback is a failed operation
            return -1, f"{type(exc).__name__}: {exc}"
    return rc, err.getvalue().strip()


def write_config(workdir: Path, seed: int, **sections) -> Path:
    path = workdir / "config.json"
    path.write_text(json.dumps({"seed": seed, "data": {"synth": {"seed": seed}}, **sections}))
    return path


def read_csv(path: Path) -> list[dict]:
    with path.open(newline="") as fh:
        return list(csv.DictReader(fh))


def finite(values) -> bool:
    return bool(np.all(np.isfinite(np.asarray(values, dtype=np.float64))))


class Workload:
    """``setup`` builds the inputs (timed by the runner, several times);
    ``run`` performs one closed-loop step and returns its operations.
    Steps repeat until the run's time is up, or exactly ``steps`` times,
    after ``warmup`` untimed steps."""

    name = ""
    steps: int | None = None
    warmup = 0

    def __init__(self, seed: int, workdir: Path, rec):
        self.seed, self.workdir, self.rec = seed, workdir, rec

    def setup(self):
        raise NotImplementedError

    def run(self, i: int) -> list[Op]:
        raise NotImplementedError

    def trace_extras(self) -> dict:
        """Computed per-layer values the spans cannot give."""
        return {}

    def cli_op(self, argv: list[str], windows: float, check) -> Op:
        """One timed `fusecast` call; a non-zero exit or a failed
        ``check()`` (a non-empty message) fails the operation."""
        t0 = time.perf_counter()
        rc, err = run_cli(argv)
        dt = time.perf_counter() - t0
        with self.rec.span("bench.check"):
            note = f"exit {rc}: {err}" if rc != 0 else check()
        return Op(dt, windows, bool(note), note, kind=argv[0])


class FitDefault(Workload):
    """`fusecast train --epochs 3` at the default config, then `fusecast
    forecast --horizon 15` from the new checkpoint (loaded, with the series
    re-synthesized, by the forecast call). Work unit: training windows x
    epochs; the forecast counts none. A failed train skips the forecast."""

    name = "fit-default"
    warmup = 1

    def setup(self):
        self.config = write_config(self.workdir, self.seed)
        self.data = prepare(self.seed)

    def run(self, i):
        out = self.workdir / "out"
        fit = self.cli_op(["train", "--config", str(self.config), "--out", str(out),
                           "--epochs", str(FIT_EPOCHS)],
                          len(self.data.train) * FIT_EPOCHS, lambda: self.check(out / "train"))
        if fit.failed:
            return [fit]
        return [fit, self.cli_op(["forecast", "--config", str(self.config), "--checkpoint",
                                  str(out / "train" / "checkpoint.json"), "--horizon",
                                  str(HORIZON), "--out", str(out)],
                                 0, lambda: self.check_forecast(out / "forecast" / "forecast.csv"))]

    def check(self, out: Path) -> str:
        train, series = fc("train"), fc("series")
        losses = [float(r["train_mse"]) for r in read_csv(out / "loss_history.csv")]
        if len(losses) != FIT_EPOCHS or not finite(losses) or not losses[-1] < losses[0]:
            return f"loss history {losses}"
        # the reloaded checkpoint must reproduce the in-memory model's test
        # predictions bit-exactly, hence the reported metrics too
        params, scaler = fc("nn").load_checkpoint(out / "checkpoint.json")
        yhat = series.unscale_values(train.predict_batch(params, self.data.test.inputs), scaler)
        y = series.unscale_values(self.data.test.targets, scaler)
        report = train.metrics(y, yhat)
        saved = json.loads((out / "metrics.json").read_text())
        if (report.rmse, report.mae) != (saved["rmse"], saved["mae"]):
            return "reloaded checkpoint does not reproduce the test predictions"
        return ""

    @staticmethod
    def check_forecast(path: Path) -> str:
        rows = read_csv(path)
        values = [float(r["value"]) for r in rows]
        if len(rows) != HORIZON or not finite(values):
            return f"expected {HORIZON} finite forecast rows, got {values}"
        return ""


class FitWidecell(Workload):
    """`train.train` at the largest grid cell, one B=32 mini-batch per call.
    Work unit: training windows."""

    name = "fit-widecell"

    def setup(self):
        nn, train = fc("nn"), fc("train")
        self.data = prepare(self.seed)
        self.mconfig = nn.ModelConfig(w=W, seed=self.seed, **WIDECELL)
        self.tconfig = train.TrainConfig(epochs=1, batch_size=BATCH, seed=self.seed + 1)

    def run(self, i):
        series, train = fc("series"), fc("train")
        n_batches = len(self.data.train) // BATCH
        lo = (i % n_batches) * BATCH
        batch = series.WindowedDataset(self.data.train.inputs[lo:lo + BATCH],
                                       self.data.train.targets[lo:lo + BATCH], W)
        t0 = time.perf_counter()
        try:
            params, history = train.train(self.mconfig, self.tconfig, batch)
        except Exception as exc:  # noqa: BLE001 - counted as a failed operation
            return [Op(time.perf_counter() - t0, BATCH, True, f"{type(exc).__name__}: {exc}")]
        dt = time.perf_counter() - t0
        with self.rec.span("bench.check"):
            ok = finite(history) and finite(train.predict_batch(params, batch.inputs[:2]))
        return [Op(dt, BATCH, not ok, "" if ok else "non-finite loss or prediction")]


class InferExplain(Workload):
    """`fusecast explain` (sampled, m=200, background 64) on test windows of
    a default model that the set-up trains and checkpoints through `fusecast
    train`. Work unit: explained windows. A window takes about as long as a
    timed run of the other workloads, so the run is a fixed job of two."""

    name = "infer-explain"
    steps = 2

    def setup(self):
        self.config = write_config(self.workdir, self.seed,
                                   explain={**EXPLAIN, "shap_mode": "sampled"})
        rc, err = run_cli(["train", "--config", str(self.config), "--out",
                           str(self.workdir / "setup"), "--epochs", str(PRETRAIN_EPOCHS)])
        if rc != 0:
            raise RuntimeError(f"set-up training failed with exit {rc}: {err}")
        self.checkpoint = self.workdir / "setup" / "train" / "checkpoint.json"
        self.data = prepare(self.seed)

    def run(self, i):
        out = self.workdir / "out"
        index = (self.seed + 97 * i) % len(self.data.test)
        return [self.cli_op(["explain", "--config", str(self.config), "--checkpoint",
                             str(self.checkpoint), "--window-index", str(index), "--out", str(out)],
                            1, lambda: self.check(out / "explain"))]

    @staticmethod
    def check(out: Path) -> str:
        doc = json.loads((out / "explain.json").read_text())
        rows = read_csv(out / "influence.csv")
        s = np.array([float(r["shap"]) for r in rows])
        a = np.array([float(r["attention"]) for r in rows])
        reported = sum(r["reported"] == "true" for r in rows)
        if len(rows) != W or not (finite(s) and finite(a)):
            return "influence rows missing or non-finite"
        if abs(doc["base_value"] + s.sum() - doc["prediction"]) > 1e-9:
            return "base_value + sum(shap) != prediction"
        if abs(a.sum() - 1.0) > 1e-6:
            return f"attention mass sums to {a.sum()!r}"
        if reported != W - math.ceil(0.1 * W):
            return f"{reported} reported lags"
        return ""

    def trace_extras(self):
        m = EXPLAIN["sample_permutations"]
        # v(0) then one lookup per lag for each permutation, plus base and full
        return {"coalition_lookups": m * (W + 1) + 2,
                "background_size": EXPLAIN["background_size"]}


class TuneSmall(Workload):
    """`bayesopt.tune` with the objective `fusecast tune` builds, over a
    narrowed space; each trial is an operation. Work unit: training windows
    x epochs.

    Trials differ in cost with the cell they train, so the run is a fixed
    job, one tuning session of 30 Latin-hypercube trials and one GP
    proposal, rather than a timed loop, whose trial mix would change with
    speed. The series varies with the benchmark seed, but the tuner seed is
    fixed, so every run trains the same Latin-hypercube cells: with the
    tuner seed varied too, trial cost followed the cell sizes drawn and
    spread by more than half between runs. Proposed cells follow the data,
    so there is one proposal per run: in six sessions of four trials and a
    proposal, the proposals took 6 to 11 s of a 35 s job, depending on the
    seed; a single proposal takes 1 to 2 s of it."""

    name = "tune-small"
    steps = 1

    def setup(self):
        series, train = fc("series"), fc("train")
        data = prepare(self.seed)
        # validation RMSE on the last 20% of the training segment, as `fusecast tune`
        sub_train, _ = series.split(data.train_ts, 0.8)
        self.scaler = series.fit_scaler(sub_train)
        windows = series.make_windows(series.apply_scaler(data.train_ts, self.scaler), W)
        first_val = len(sub_train) - W
        self.fit = series.WindowedDataset(windows.inputs[:first_val], windows.targets[:first_val], W)
        self.val = series.WindowedDataset(windows.inputs[first_val:], windows.targets[first_val:], W)
        self.tconfig = train.TrainConfig(epochs=TUNE["epochs"], batch_size=BATCH, seed=self.seed + 1)
        self.space = fc("bayesopt").SearchSpace(**TUNE_SPACE)
        self.trials = []

    def objective(self, cfg: dict) -> float:
        nn, series, train = fc("nn"), fc("series"), fc("train")
        self.attempts.append(cfg)
        try:
            with self.rec.span("bayesopt.objective"):
                mconfig = nn.ModelConfig(w=W, seed=self.seed, **cfg)
                params, _ = train.train(mconfig, self.tconfig, self.fit)
                yhat = series.unscale_values(train.predict_batch(params, self.val.inputs), self.scaler)
                y = series.unscale_values(self.val.targets, self.scaler)
                return train.metrics(y, yhat).rmse
        finally:
            self.ends.append(time.perf_counter())

    def run(self, i):
        bayesopt = fc("bayesopt")
        self.attempts, self.ends = [], []
        t0 = time.perf_counter()
        try:
            result = bayesopt.tune(self.objective, self.space, budget=TUNE["budget"],
                                   init=TUNE["init"], seed=TUNE["seed"] + i,
                                   pool_size=TUNE["pool_size"])
        except Exception as exc:  # noqa: BLE001 - raised when every trial failed
            n = max(1, len(self.attempts))
            note = f"{type(exc).__name__}: {exc}"
            return [Op((time.perf_counter() - t0) / n, 0, True, note) for _ in range(n)]
        starts = [t0] + self.ends[:-1]
        windows = len(self.fit) * TUNE["epochs"]
        note = self.check(result)
        self.trials.extend(result.trials)
        return [Op(end - start, windows, bool(note) or trial.failed,
                   note or ("trial failed" if trial.failed else ""))
                for start, end, trial in zip(starts, self.ends, result.trials)]

    def check(self, result) -> str:
        if len(result.trials) != len(self.attempts) or len(self.ends) != len(self.attempts):
            return f"{len(result.trials)} trials logged for {len(self.attempts)} attempts"
        inc = result.incumbent
        if any(b > a for a, b in zip(inc, inc[1:])):
            return "incumbent increased"
        for name, (lo, hi) in TUNE_SPACE.items():
            if not lo <= result.best_config[name] <= hi:
                return f"best config {result.best_config} outside the space"
        return ""

    def trace_extras(self):
        return {"cells": [fc("nn").ModelConfig(w=W, **t.config) for t in self.trials],
                "failed_trials": sum(t.failed for t in self.trials),
                "fit_windows": len(self.fit), "epochs": TUNE["epochs"]}


WORKLOADS = {cls.name: cls for cls in (FitDefault, FitWidecell, InferExplain, TuneSmall)}
