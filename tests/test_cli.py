import csv
import hashlib
import json
import os
import re
import signal
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from fusecast import cli
from fusecast.errors import (DimensionMismatch, DivergedLoss, FusecastError, MalformedAttention,
                             ObjectiveFailure, SingularKernel)
from fusecast.nn import ModelConfig, init_params, load_checkpoint, save_checkpoint
from fusecast.series import ScalerParams, SynthSpec, TimeSeries, load_csv, save_csv, synthesize
from fusecast.train import forecast_recursive, persistence_forecast

train_module = sys.modules["fusecast.train"]


BASE_CONFIG = {
    "seed": 1,
    "data": {
        "source": "synth",
        "train_frac": 0.8,
        "synth": {"length": 260, "period": 52, "amplitude": 10.0, "trend_slope": 0.2,
                  "noise_std": 0.3, "ar_coeff": 0.5, "seed": 7},
    },
    "model": {"w": 8, "cnn_layers": 1, "filters": 6, "kernel_size": 3,
              "heads": 2, "head_dim": 3},
    "train": {"epochs": 8},
    "tune": {"budget": 3, "init": 3, "epochs": 2, "pool_size": 32},
    "explain": {"shap_mode": "exact", "background_size": 8, "smoothing_sigma": 1.5},
    "horizons": [5],
    "bench": {"runs": 4, "anchors": 5},
}


def write_config(tmp_path, **overrides):
    cfg = json.loads(json.dumps(BASE_CONFIG))
    for dotted, value in overrides.items():
        node = cfg
        *parts, last = dotted.split(".")
        for p in parts:
            node = node.setdefault(p, {})
        node[last] = value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


def run(*args):
    """``fusecast *args``'s exit code. A config error (exit 2) must leave
    nothing in the command's output directory but the effective config."""
    code = cli.main(list(args))
    if code == 2 and "--out" in args:
        written = Path(args[args.index("--out") + 1]) / args[0]
        if written.is_dir():
            assert {p.name for p in written.iterdir()} <= {"config.json"}
    return code


def mask_timing(text: str) -> str:
    """Blank wall-clock fields, the one sanctioned nondeterministic output."""
    text = re.sub(r'"wall_seconds": [^,}\n]+', '"wall_seconds": X', text)
    rows = []
    for line in text.splitlines():
        if "," in line and not line.lstrip().startswith('"'):
            parts = line.split(",")
            if parts and re.fullmatch(r"[0-9.eE+-]+", parts[-1] or ""):
                parts[-1] = "X"
            line = ",".join(parts)
        rows.append(line)
    return "\n".join(rows)


# The default config tree as it was written out literally in the CLI before
# its sections were built from the dataclass defaults.
DEFAULT_TREE = {
    "seed": 0,
    "out_dir": None,
    "data": {
        "source": "synth",
        "csv_path": None,
        "train_frac": 0.8,
        "synth": {
            "length": 2000, "period": 365, "amplitude": 100.0,
            "trend_slope": 1.0, "noise_std": 5.0, "ar_coeff": 0.7, "seed": 42,
        },
    },
    "model": {
        "w": 15, "cnn_layers": 2, "filters": 16, "kernel_size": 3,
        "heads": 2, "head_dim": None,
    },
    "train": {
        "epochs": 100, "batch_size": 32, "learning_rate": 1e-3,
        "beta1": 0.9, "beta2": 0.999, "eps": 1e-8,
    },
    "tune": {
        "budget": 40, "init": 5, "pool_size": 512, "xi": 0.01, "epochs": 15,
        "space": {
            "cnn_layers": [1, 12], "heads": [2, 5],
            "filters": [16, 256], "kernel_size": [2, 5],
        },
    },
    "explain": {
        "background_size": 64, "shap_mode": "sampled",
        "sample_permutations": 200, "smoothing_sigma": 2.0, "edge_drop": None,
    },
    "horizons": [15],
    "bench": {"runs": 10, "anchors": 10},
}


def typed(tree):
    """The tree with every leaf paired with its type name, so that 2 and
    2.0, or a list and a tuple, compare unequal."""
    if isinstance(tree, dict):
        return {key: typed(value) for key, value in tree.items()}
    if isinstance(tree, (list, tuple)):
        return type(tree).__name__, [typed(value) for value in tree]
    return type(tree).__name__, tree


class TestDefaultConfig:
    def test_defaults_match_the_literal_tree(self):
        assert typed(cli.load_config(None, {})) == typed(DEFAULT_TREE)


class TestSynth:
    def test_writes_series_and_is_deterministic(self, tmp_path):
        cfg = write_config(tmp_path)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run("synth", "--config", str(cfg), "--out", str(out1)) == 0
        assert run("synth", "--config", str(cfg), "--out", str(out2)) == 0
        b1 = (out1 / "synth" / "series.csv").read_bytes()
        b2 = (out2 / "synth" / "series.csv").read_bytes()
        assert hashlib.sha256(b1).hexdigest() == hashlib.sha256(b2).hexdigest()

    def test_length_matches_spec(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "o"
        assert run("synth", "--config", str(cfg), "--out", str(out)) == 0
        ts = load_csv(out / "synth" / "series.csv")
        assert len(ts) == 260

    def test_ar_coefficient_recovered_from_file(self, tmp_path):
        cfg = write_config(tmp_path, **{
            "data.synth": {"length": 1000, "period": 365, "amplitude": 1.0,
                           "trend_slope": 0.0, "noise_std": 0.1,
                           "ar_coeff": 0.7, "seed": 42}})
        out = tmp_path / "o"
        assert run("synth", "--config", str(cfg), "--out", str(out)) == 0
        ts = load_csv(out / "synth" / "series.csv")
        t = np.arange(len(ts))
        e = ts.values - np.sin(2 * np.pi * t / 365)
        e = e - e.mean()
        r1 = np.sum(e[1:] * e[:-1]) / np.sum(e * e)
        assert abs(r1 - 0.7) <= 0.1


class TestTrain:
    def test_outputs_and_rerun_identical(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "a"
        names = ("metrics.json", "checkpoint.json", "loss_history.csv", "config.json")
        assert run("train", "--config", str(cfg), "--out", str(out)) == 0
        first = {n: (out / "train" / n).read_text() for n in names}
        assert run("train", "--config", str(cfg), "--out", str(out)) == 0
        for n in names:
            again = (out / "train" / n).read_text()
            assert mask_timing(first[n]) == mask_timing(again), n

    def test_metrics_schema(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "o"
        assert run("train", "--config", str(cfg), "--out", str(out)) == 0
        doc = json.loads((out / "train" / "metrics.json").read_text())
        assert set(doc) == {"horizon", "rmse", "mae", "mape", "msle", "wall_seconds"}
        assert doc["horizon"] == 1
        assert all(np.isfinite(doc[k]) for k in ("rmse", "mae", "mape", "msle"))

    def test_checkpoint_reproduces_prediction(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "o"
        assert run("train", "--config", str(cfg), "--out", str(out)) == 0
        params, scaler = load_checkpoint(out / "train" / "checkpoint.json")
        probe = np.linspace(1.0, 9.0, 8)
        a = forecast_recursive(params, scaler, probe, 1)[0]
        params2, scaler2 = load_checkpoint(out / "train" / "checkpoint.json")
        b = forecast_recursive(params2, scaler2, probe, 1)[0]
        assert abs(a - b) < 1e-9

    def test_learns_smooth_series(self, tmp_path):
        # noiseless seasonal series with trend: one-step error far below level
        cfg = write_config(tmp_path, **{
            "data.synth.noise_std": 0.0, "train.epochs": 40})
        out = tmp_path / "o"
        assert run("train", "--config", str(cfg), "--out", str(out)) == 0
        doc = json.loads((out / "train" / "metrics.json").read_text())
        assert doc["rmse"] < 5.0  # test-segment level is ~40-60

    def whole_run(self, tmp_path, monkeypatch, cfg):
        """The lines of an uninterrupted run's loss history, and its batches
        per epoch, counted as calls of the batch loss."""
        calls, loss = [], train_module.mse_loss
        monkeypatch.setattr(train_module, "mse_loss", lambda *a: calls.append(a) or loss(*a))
        assert run("train", "--config", str(cfg), "--out", str(tmp_path / "whole")) == 0
        monkeypatch.setattr(train_module, "mse_loss", loss)
        lines = (tmp_path / "whole" / "train" / "loss_history.csv").read_bytes().splitlines(True)
        return lines, len(calls) // (len(lines) - 1)

    @pytest.mark.parametrize("k", [1, 3])
    def test_interrupt_keeps_the_finished_epochs(self, tmp_path, capsys, monkeypatch, k):
        cfg = write_config(tmp_path)
        whole, batches = self.whole_run(tmp_path, monkeypatch, cfg)
        calls, loss = [], train_module.mse_loss

        def interrupted(*args):
            # in the last batch of epoch k + 1, whose row is not written
            calls.append(args)
            if len(calls) == (k + 1) * batches:
                raise KeyboardInterrupt
            return loss(*args)

        monkeypatch.setattr(train_module, "mse_loss", interrupted)
        capsys.readouterr()
        assert run("train", "--config", str(cfg), "--out", str(tmp_path / "o")) == 130
        assert capsys.readouterr().err == "interrupted\n"
        out = tmp_path / "o" / "train"
        assert (out / "loss_history.csv").read_bytes() == b"".join(whole[:k + 1])
        assert {p.name for p in out.iterdir()} == {"config.json", "loss_history.csv"}

    def test_diverged_run_keeps_the_finished_epochs(self, tmp_path, capsys, monkeypatch):
        # from epoch 3 on the batch loss is NaN
        cfg = write_config(tmp_path)
        whole, batches = self.whole_run(tmp_path, monkeypatch, cfg)
        calls, loss = [], train_module.mse_loss

        def diverging(*args):
            calls.append(args)
            value, grad = loss(*args)
            return (np.nan if len(calls) > 2 * batches else value), grad

        monkeypatch.setattr(train_module, "mse_loss", diverging)
        capsys.readouterr()
        assert run("train", "--config", str(cfg), "--out", str(tmp_path / "o")) == 4
        assert capsys.readouterr().err == (
            f"numeric failure: non-finite training loss at step {2 * batches + 1}\n")
        out = tmp_path / "o" / "train"
        assert (out / "loss_history.csv").read_bytes() == b"".join(whole[:3])
        assert {p.name for p in out.iterdir()} == {"config.json", "loss_history.csv"}

    def test_sigint_keeps_the_finished_epochs(self, tmp_path):
        # a real SIGINT, delivered once the first row is on disk: 100 epochs
        # at the default config take seconds, time enough to send it
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
        out = tmp_path / "cut" / "train"
        log = out / "loss_history.csv"
        proc = subprocess.Popen(
            [sys.executable, "-m", "fusecast", "train", "--out", str(tmp_path / "cut")], env=env,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        deadline = time.monotonic() + 60
        while not (log.is_file() and log.read_text().count("\n") > 1):
            assert proc.poll() is None and time.monotonic() < deadline
            time.sleep(0.005)
        proc.send_signal(signal.SIGINT)
        _, err = proc.communicate(timeout=60)
        assert proc.returncode == 130 and err == "interrupted\n"
        cut = log.read_bytes().splitlines(True)
        assert 1 < len(cut) < 101
        assert {p.name for p in out.iterdir()} == {"config.json", "loss_history.csv"}
        # the first epochs of a run do not depend on how many follow them
        assert run("train", "--out", str(tmp_path / "whole"), "--epochs", str(len(cut) - 1)) == 0
        whole = (tmp_path / "whole" / "train" / "loss_history.csv").read_bytes()
        assert cut == whole.splitlines(True)


class TestTune:
    def test_log_rows_and_incumbent(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "o"
        assert run("tune", "--config", str(cfg), "--out", str(out)) == 0
        with (out / "tune" / "tune_log.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 3
        best = [float(r["best_so_far"]) for r in rows]
        assert all(b2 <= b1 for b1, b2 in zip(best, best[1:]))
        doc = json.loads((out / "tune" / "best_config.json").read_text())
        assert doc["objective_rmse"] == best[-1]

    def test_rerun_identical(self, tmp_path):
        cfg = write_config(tmp_path)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run("tune", "--config", str(cfg), "--out", str(out1)) == 0
        assert run("tune", "--config", str(cfg), "--out", str(out2)) == 0
        for name in ("tune_log.csv", "best_config.json"):
            t1 = (out1 / "tune" / name).read_text()
            t2 = (out2 / "tune" / name).read_text()
            assert mask_timing(t1) == mask_timing(t2), name

    def test_failed_trials_reported_on_stderr(self, tmp_path, capsys, monkeypatch):
        # cells with an odd kernel size diverge; the design draws kernel
        # sizes 3, 5 and 4, so two trials fail and one succeeds
        def flaky_train(mconfig, tconfig, data):
            if mconfig.kernel_size % 2:
                raise DivergedLoss(f"kernel_size {mconfig.kernel_size}")
            return real_train(mconfig, tconfig, data)

        real_train = cli.train_model
        monkeypatch.setattr(cli, "train_model", flaky_train)
        cfg = write_config(tmp_path)
        out = tmp_path / "o"
        assert run("tune", "--config", str(cfg), "--out", str(out)) == 0
        err = capsys.readouterr().err
        with (out / "tune" / "tune_log.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        odd = [r["trial"] for r in rows if int(r["kernel_size"]) % 2]
        assert odd and len(odd) < len(rows)
        assert re.findall(r"trial (\d+) failed: DivergedLoss: kernel_size", err) == odd

    def test_zero_trend_series_tunes_on_rmse(self, tmp_path):
        # MSLE is undefined on this series, but the objective is the RMSE
        cfg = write_config(tmp_path, **{"data.synth.trend_slope": 0.0})
        out = tmp_path / "o"
        assert run("tune", "--config", str(cfg), "--out", str(out)) == 0
        with (out / "tune" / "tune_log.csv").open() as fh:
            assert all(np.isfinite(float(r["rmse"])) for r in csv.DictReader(fh))


    @pytest.mark.parametrize("budget", [3, 4])
    def test_unset_init_follows_budget(self, tmp_path, budget):
        # like the library, the CLI's tune.init defaults to min(5, budget)
        doc = json.loads(write_config(tmp_path).read_text())
        del doc["tune"]["init"]
        cfg = tmp_path / "no_init.json"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "o"
        assert run("tune", "--config", str(cfg), "--out", str(out), "--budget", str(budget)) == 0
        with (out / "tune" / "tune_log.csv").open() as fh:
            assert len(list(csv.DictReader(fh))) == budget
        assert json.loads((out / "tune" / "config.json").read_text())["tune"]["init"] == budget

    @pytest.mark.parametrize("k", [1, 4])
    def test_interrupt_keeps_the_finished_rows(self, tmp_path, capsys, monkeypatch, k):
        # budget 5, init 3: trial 4 is proposed by the GP
        cfg = write_config(tmp_path, **{"tune.budget": 5})
        assert run("tune", "--config", str(cfg), "--out", str(tmp_path / "whole")) == 0
        whole = mask_timing((tmp_path / "whole" / "tune" / "tune_log.csv").read_text())
        log = tmp_path / "o" / "tune" / "tune_log.csv"
        seen, real_train = [], cli.train_model

        def interrupted(*args):
            # the rows of the trials before this one are on disk already
            seen.append(mask_timing(log.read_text()))
            if len(seen) > k:
                raise KeyboardInterrupt
            return real_train(*args)

        monkeypatch.setattr(cli, "train_model", interrupted)
        capsys.readouterr()
        assert run("tune", "--config", str(cfg), "--out", str(tmp_path / "o")) == 130
        assert capsys.readouterr().err == "interrupted\n"
        rows = whole.splitlines()
        assert seen == ["\n".join(rows[:i + 1]) for i in range(k + 1)]
        assert mask_timing(log.read_text()) == "\n".join(rows[:k + 1])
        assert not (tmp_path / "o" / "tune" / "best_config.json").exists()

    def test_sigint_keeps_the_finished_rows(self, tmp_path):
        # a real SIGINT, delivered once the first row is on disk: the log is
        # line-buffered, and main turns the interrupt into exit 130
        cfg = write_config(tmp_path, **{"tune.epochs": 6})
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
        log = tmp_path / "cut" / "tune" / "tune_log.csv"
        proc = subprocess.Popen(
            [sys.executable, "-m", "fusecast", "tune", "--config", str(cfg),
             "--out", str(tmp_path / "cut")], env=env,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        deadline = time.monotonic() + 60
        while not (log.is_file() and log.read_text().count("\n") > 1):
            assert proc.poll() is None and time.monotonic() < deadline
            time.sleep(0.005)
        proc.send_signal(signal.SIGINT)
        _, err = proc.communicate(timeout=60)
        assert proc.returncode == 130 and err == "interrupted\n"
        assert run("tune", "--config", str(cfg), "--out", str(tmp_path / "whole")) == 0
        cut = mask_timing(log.read_text()).splitlines()
        whole = mask_timing((tmp_path / "whole" / "tune" / "tune_log.csv").read_text())
        assert 1 < len(cut) < 4 and cut == whole.splitlines()[:len(cut)]

    def test_init_above_budget_names_the_field(self, tmp_path, capsys):
        cfg = write_config(tmp_path, **{"tune.init": 6})
        out = tmp_path / "o"
        assert run("tune", "--config", str(cfg), "--out", str(out), "--budget", "3") == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: init") and "6" in err and "3" in err
        assert not (out / "tune" / "tune_log.csv").exists()


class TestForecast:
    @pytest.fixture
    def checkpoint(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "o"
        assert run("train", "--config", str(cfg), "--out", str(out)) == 0
        return cfg, out / "train" / "checkpoint.json", out

    def test_single_step_matches_library(self, checkpoint, tmp_path):
        cfg, ckpt, out = checkpoint
        assert run("forecast", "--config", str(cfg), "--out", str(out),
                   "--checkpoint", str(ckpt), "--horizon", "1") == 0
        with (out / "forecast" / "forecast.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1
        params, scaler = load_checkpoint(ckpt)
        base = json.loads(Path(cfg).read_text())["data"]["synth"]
        ts = synthesize(SynthSpec(**base))
        expect = forecast_recursive(params, scaler, ts.values[-8:], 1)[0]
        assert float(rows[0]["value"]) == expect

    def test_multi_step_matches_recursive(self, checkpoint, tmp_path):
        cfg, ckpt, out = checkpoint
        assert run("forecast", "--config", str(cfg), "--out", str(out),
                   "--checkpoint", str(ckpt), "--horizon", "6") == 0
        with (out / "forecast" / "forecast.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        params, scaler = load_checkpoint(ckpt)
        base = json.loads(Path(cfg).read_text())["data"]["synth"]
        ts = synthesize(SynthSpec(**base))
        expect = forecast_recursive(params, scaler, ts.values[-8:], 6)
        np.testing.assert_array_equal([float(r["value"]) for r in rows], expect)

    def test_horizon_below_one_is_config_error(self, tmp_path, capsys):
        cfg, ckpt, out = write_config(tmp_path), tmp_path / "ckpt.json", tmp_path / "o"
        save_checkpoint(ckpt, init_params(ModelConfig(**BASE_CONFIG["model"])),
                        ScalerParams(mean=0.0, std=1.0))
        capsys.readouterr()
        assert run("forecast", "--config", str(cfg), "--out", str(out),
                   "--checkpoint", str(ckpt), "--horizon", "0") == 2
        assert "config error: horizons" in capsys.readouterr().err
        assert not (out / "forecast").exists()


class TestExplain:
    def test_influence_schema_and_identities(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "o"
        assert run("train", "--config", str(cfg), "--out", str(out)) == 0
        ckpt = out / "train" / "checkpoint.json"
        assert run("explain", "--config", str(cfg), "--out", str(out),
                   "--checkpoint", str(ckpt), "--window-index", "2") == 0
        with (out / "explain" / "influence.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 8
        assert rows[0]["lag_index"] == "t-1" and rows[-1]["lag_index"] == "t-8"
        for r in rows:
            assert abs(float(r["combined"]) - float(r["shap"]) * float(r["attention"])) < 1e-12
        # edge_drop = ceil(0.1*8) = 1: only the oldest lag unreported
        assert [r["reported"] for r in rows] == ["true"] * 7 + ["false"]
        doc = json.loads((out / "explain" / "explain.json").read_text())
        assert 0.0 <= doc["recency_concentration"] <= 1.0
        assert set(doc) == {"base_value", "prediction", "recency_concentration",
                            "window_index", "config"}
        total = sum(abs(float(r["shap"])) for r in rows)
        recent = sum(abs(float(r["shap"])) for r in rows[:8])  # w < 10: all lags recent
        assert abs(doc["recency_concentration"] - (recent / total if total else 0.0)) < 1e-9

    def test_coalition_counts_on_stderr(self, tmp_path, capsys):
        cfg = write_config(tmp_path, **{"train.epochs": 1})
        out = tmp_path / "o"
        assert run("train", "--config", str(cfg), "--out", str(out)) == 0
        capsys.readouterr()
        assert run("explain", "--config", str(cfg), "--out", str(out),
                   "--checkpoint", str(out / "train" / "checkpoint.json")) == 0
        captured = capsys.readouterr()
        # exact mode at w=8 evaluates all 2^8 masks over 8 background windows
        assert "coalitions=256 model_rows=2048" in captured.err
        assert "coalitions" not in captured.out
        # one chunk; R = 1*(3-1)+1 = 3, so 2^3 representatives per background row
        assert "conv_windows=64 se_max=0" in captured.err

    @pytest.fixture
    def trained(self, tmp_path):
        """A trained checkpoint and a config whose exact explain runs 4
        background blocks: R = 3, so 8 rows per block over 32 rows."""
        cfg = write_config(tmp_path, **{"train.epochs": 1, "explain.background_size": 32})
        out = tmp_path / "o"
        assert run("train", "--config", str(cfg), "--out", str(out)) == 0
        return cfg, out / "train" / "checkpoint.json"

    def test_outputs_independent_of_worker_count(self, trained, tmp_path, capsys, monkeypatch):
        cfg, ckpt = trained
        outputs = []
        for cpus in (1, 2):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                                raising=False)
            out = tmp_path / f"cpus{cpus}"
            capsys.readouterr()
            assert run("explain", "--config", str(cfg), "--out", str(out),
                       "--checkpoint", str(ckpt)) == 0
            err = capsys.readouterr().err
            assert f"conv_windows={8 * 32} se_max=0 workers={cpus}" in err
            outputs.append([(out / "explain" / name).read_bytes()
                            for name in ("explain.json", "influence.csv")])
        assert outputs[0] == outputs[1]

    def test_worker_error_exits_3(self, trained, tmp_path, capfd, monkeypatch):
        from fusecast.errors import ShapeMismatch
        from fusecast import nn
        import multiprocessing

        cfg, ckpt = trained
        parent, predict = os.getpid(), nn._folded_predict

        def predict_in_parent_only(params, table):
            if os.getpid() != parent:
                raise ShapeMismatch("table rows do not match the window")
            return predict(params, table)

        monkeypatch.setattr(nn, "_folded_predict", predict_in_parent_only)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        capfd.readouterr()
        assert run("explain", "--config", str(cfg), "--out", str(tmp_path / "e"),
                   "--checkpoint", str(ckpt)) == 3
        err = capfd.readouterr().err
        assert "data error: table rows do not match the window" in err
        assert "Traceback" not in err
        assert multiprocessing.active_children() == []

    def test_sampled_standard_error_on_stderr(self, tmp_path, capsys):
        cfg = write_config(tmp_path, **{"train.epochs": 1, "explain.shap_mode": "sampled",
                                        "explain.sample_permutations": 6})
        out = tmp_path / "o"
        assert run("train", "--config", str(cfg), "--out", str(out)) == 0
        capsys.readouterr()
        assert run("explain", "--config", str(cfg), "--out", str(out),
                   "--checkpoint", str(out / "train" / "checkpoint.json")) == 0
        se_max = re.search(r"se_max=(\S+)", capsys.readouterr().err)
        assert se_max and float(se_max.group(1)) > 0

    def test_window_index_out_of_range(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "o"
        assert run("train", "--config", str(cfg), "--out", str(out)) == 0
        ckpt = out / "train" / "checkpoint.json"
        assert run("explain", "--config", str(cfg), "--out", str(out),
                   "--checkpoint", str(ckpt), "--window-index", "1000") == 2

    def test_svg_four_panels(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "o"
        assert run("train", "--config", str(cfg), "--out", str(out)) == 0
        ckpt = out / "train" / "checkpoint.json"
        assert run("explain", "--config", str(cfg), "--out", str(out),
                   "--checkpoint", str(ckpt), "--svg") == 0
        body = (out / "explain" / "influence.svg").read_text()
        for title in ("observed window", "mean attention weights",
                      "per-lag attributions", "combined influence map"):
            assert title in body


class TestBench:
    def test_minimal_runs_and_stats(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "o"
        assert run("bench", "--config", str(cfg), "--out", str(out)) == 0
        with (out / "bench" / "runs.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4
        doc = json.loads((out / "bench" / "bench_report.json").read_text())
        for metric, s in doc["run_stats"].items():
            assert s["min"] <= s["q1"] <= s["median"] <= s["q3"] <= s["max"]
            assert abs(s["iqr"] - (s["q3"] - s["q1"])) < 1e-12

    def test_persistence_against_hand_rolled_oracle(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "o"
        assert run("bench", "--config", str(cfg), "--out", str(out)) == 0
        doc = json.loads((out / "bench" / "bench_report.json").read_text())
        base = json.loads(Path(cfg).read_text())["data"]["synth"]
        ts = synthesize(SynthSpec(**base))
        n_train = int(np.floor(0.8 * len(ts)))
        horizon, n_test = 5, len(ts) - n_train
        anchors = np.unique(np.linspace(0, n_test - horizon, 5).astype(int))
        truth, naive = [], []
        for a in anchors:
            end = n_train + a
            truth.append(ts.values[end:end + horizon])
            naive.append(persistence_forecast(ts.values[end - 1], horizon))
        y, yhat = np.concatenate(truth), np.concatenate(naive)
        rmse = float(np.sqrt(np.mean((yhat - y) ** 2)))
        mae = float(np.mean(np.abs(yhat - y)))
        rep = doc["horizons"]["5"]["persistence"]
        assert abs(rep["rmse"] - rmse) < 1e-9
        assert abs(rep["mae"] - mae) < 1e-9

    def test_undefined_metric_is_null(self, tmp_path, capsys):
        # a zero-mean series leaves MSLE undefined
        cfg = write_config(tmp_path, **{"data.synth.trend_slope": 0.0, "train.epochs": 1})
        out = tmp_path / "o"
        assert run("bench", "--config", str(cfg), "--out", str(out), "--svg") == 0
        assert "MSLE undefined" in capsys.readouterr().err
        with (out / "bench" / "runs.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert [r["msle"] for r in rows] == ["null"] * 4
        assert all(np.isfinite(float(r["rmse"])) for r in rows)
        doc = json.loads((out / "bench" / "bench_report.json").read_text())
        assert doc["run_stats"]["msle"] is None
        assert doc["run_stats"]["rmse"]["min"] <= doc["run_stats"]["rmse"]["max"]
        assert doc["horizons"]["5"]["model"]["msle"] is None
        assert doc["horizons"]["5"]["persistence"]["msle"] is None
        assert not (out / "bench" / "box_msle.svg").exists()
        assert (out / "bench" / "box_rmse.svg").exists()

    def test_diverged_run_keeps_the_rows_before_it(self, tmp_path, capsys, monkeypatch):
        cfg = write_config(tmp_path, **{"train.epochs": 2})
        assert run("bench", "--config", str(cfg), "--out", str(tmp_path / "whole")) == 0
        whole = (tmp_path / "whole" / "bench" / "runs.csv").read_bytes().splitlines(True)
        runs_csv = tmp_path / "o" / "bench" / "runs.csv"
        seen, real_train = [], cli.train_model

        def diverging(mconfig, tconfig, data):
            # bench seeds run r's model with seed + 100 + r, the seed being 1
            r = mconfig.seed - 101
            # the rows of the runs before this one are on disk already
            seen.append(runs_csv.read_bytes())
            if r == 2:
                raise DivergedLoss("non-finite training loss at step 3")
            return real_train(mconfig, tconfig, data)

        monkeypatch.setattr(cli, "train_model", diverging)
        capsys.readouterr()
        assert run("bench", "--config", str(cfg), "--out", str(tmp_path / "o")) == 4
        err = capsys.readouterr().err
        assert err == "numeric failure: non-finite training loss at step 3\n"
        assert seen == [b"".join(whole[:r + 1]) for r in range(3)]
        assert runs_csv.read_bytes() == b"".join(whole[:3])
        assert not (tmp_path / "o" / "bench" / "bench_report.json").exists()

    def test_horizon_past_the_test_segment_before_any_run(self, tmp_path, capsys, monkeypatch):
        # 800 days leave a test segment of 160: refused before a run trains
        trained = []
        monkeypatch.setattr(cli, "train_model", lambda *a: trained.append(a))
        cfg = write_config(tmp_path, **{"data.synth.length": 800, "horizons": [5, 5000]})
        out = tmp_path / "o"
        assert run("bench", "--config", str(cfg), "--out", str(out)) == 3
        assert capsys.readouterr().err == ("data error: test segment of 160 too short "
                                           "for horizon 5000\n")
        assert trained == []
        assert not (out / "bench" / "runs.csv").exists()

    def test_too_few_runs_rejected(self, tmp_path):
        cfg = write_config(tmp_path, **{"bench.runs": 3})
        assert run("bench", "--config", str(cfg), "--out", str(tmp_path / "o")) == 2

    def test_svg_outputs(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "o"
        assert run("bench", "--config", str(cfg), "--out", str(out), "--svg") == 0
        for name in ("rmse", "mae", "mape", "msle"):
            body = (out / "bench" / f"box_{name}.svg").read_text()
            assert body.startswith("<svg") and "</svg>" in body


class TestExitCodes:
    def test_config_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{this is not json")
        assert run("synth", "--config", str(bad), "--out", str(tmp_path / "o")) == 2

    def test_unknown_config_key(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"no_such_section": 1}')
        assert run("synth", "--config", str(bad), "--out", str(tmp_path / "o")) == 2

    def test_data_error_missing_csv(self, tmp_path):
        cfg = write_config(tmp_path, **{"data.source": "csv",
                                        "data.csv_path": str(tmp_path / "none.csv")})
        assert run("train", "--config", str(cfg), "--out", str(tmp_path / "o")) == 3

    def test_data_error_bad_checkpoint(self, tmp_path):
        cfg = write_config(tmp_path)
        ckpt = tmp_path / "ckpt.json"
        ckpt.write_text('{"format": "nope"}')
        assert run("forecast", "--config", str(cfg), "--out", str(tmp_path / "o"),
                   "--checkpoint", str(ckpt)) == 3

    def test_config_error_before_missing_checkpoint(self, tmp_path, capsys):
        # the explain section is checked before the checkpoint is read
        cfg = write_config(tmp_path, **{"explain.shap_mode": "zz"})
        assert run("explain", "--config", str(cfg), "--out", str(tmp_path / "o"),
                   "--checkpoint", str(tmp_path / "none.json")) == 2
        assert capsys.readouterr().err == "config error: unknown shap_mode 'zz'\n"

    def test_interrupt_exits_130_without_a_traceback(self, tmp_path, capsys, monkeypatch):
        def interrupted(*args):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "epochs", interrupted)
        cfg = write_config(tmp_path)
        assert run("train", "--config", str(cfg), "--out", str(tmp_path / "o")) == 130
        err = capsys.readouterr().err
        assert err == "interrupted\n"

    # sizes of tens of TiB, which the kernel refuses at once rather than
    # granting lazily
    def test_out_of_memory_series(self, tmp_path, capsys):
        # 10**30 points is a length numpy refuses outright (ValueError)
        for length in (10**13, 10**30):
            cfg = write_config(tmp_path, **{"data.synth.length": length})
            assert run("synth", "--config", str(cfg), "--out", str(tmp_path / "o")) == 2
            err = capsys.readouterr().err
            assert err.startswith("config error: out of memory: ")
            assert "Traceback" not in err

    def test_out_of_memory_horizon(self, tmp_path, capsys):
        # numpy refuses the forecasts' length outright (ValueError)
        cfg = write_config(tmp_path)
        ckpt = tmp_path / "ckpt.json"
        save_checkpoint(ckpt, init_params(ModelConfig(**BASE_CONFIG["model"])),
                        ScalerParams(mean=0.0, std=1.0))
        out = tmp_path / "o"
        assert run("forecast", "--config", str(cfg), "--out", str(out), "--checkpoint", str(ckpt),
                   "--horizon", str(10**30)) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: out of memory: ")
        assert "Traceback" not in err
        assert not (out / "forecast" / "forecast.csv").exists()

    @pytest.mark.parametrize("command,overrides", [
        ("train", {"model.filters": 2**40, "model.cnn_layers": 2}),
        ("tune", {"tune.space.filters": [16, 2**62]})])
    def test_out_of_memory_parameter_vector(self, tmp_path, capsys, command, overrides):
        # numpy refuses these vectors' lengths outright (ValueError), where
        # 10**6 filters fail in the allocator (MemoryError); the tune run
        # probes its largest cell before the log is opened
        cfg = write_config(tmp_path, **overrides)
        out = tmp_path / "o"
        assert run(command, "--config", str(cfg), "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert re.fullmatch(r"config error: out of memory: \d+ parameters: .+\n", err)
        if command == "tune":
            assert not (out / "tune" / "tune_log.csv").exists()

    def test_out_of_memory_acquisition_pool(self, tmp_path, capsys, monkeypatch):
        # the second trial would propose from the pool; it is refused
        # before the first trial trains
        trained, train_model = [], cli.train_model

        def counting(*args, **kwargs):
            trained.append(args)
            return train_model(*args, **kwargs)

        monkeypatch.setattr(cli, "train_model", counting)
        cfg = write_config(tmp_path, **{
            "data.synth.length": 800, "tune.budget": 2, "tune.init": 1, "tune.epochs": 1,
            "tune.pool_size": 10**12,
            "tune.space": {"cnn_layers": [1, 1], "heads": [2, 2], "filters": [6, 6],
                           "kernel_size": [3, 3]}})
        assert run("tune", "--config", str(cfg), "--out", str(tmp_path / "o")) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: out of memory: ")
        assert "Traceback" not in err
        assert trained == []

    def test_out_of_memory_design(self, tmp_path, capsys, monkeypatch):
        # numpy refuses the Latin-hypercube design's length outright
        # (ValueError); it is built before the log is opened
        trained = []
        monkeypatch.setattr(cli, "train_model", lambda *a: trained.append(a))
        cfg = write_config(tmp_path, **{"tune.budget": 10**300, "tune.init": 10**300})
        out = tmp_path / "o"
        assert run("tune", "--config", str(cfg), "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: out of memory: design of shape (")
        assert "Traceback" not in err
        assert trained == []
        assert not (out / "tune" / "tune_log.csv").exists()

    @pytest.mark.parametrize("how", ["flag", "env"])
    def test_output_directory_not_creatable(self, tmp_path, capsys, monkeypatch, how):
        # the output root is a regular file, so its subdirectory cannot exist
        occupied = tmp_path / "F"
        occupied.write_text("a file\n")
        cfg = write_config(tmp_path)
        if how == "flag":
            argv = ["synth", "--config", str(cfg), "--out", str(occupied)]
        else:
            monkeypatch.setenv(cli.OUT_ENV, str(occupied))
            argv = ["synth", "--config", str(cfg)]
        assert run(*argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: cannot write output directory {occupied / 'synth'}")
        assert "Traceback" not in err
        assert occupied.read_text() == "a file\n"

    # bytes that are not UTF-8, and nesting deeper than the recursion limit
    UNREADABLE = {"not-utf8": b'{"seed": "\xff"}', "too-deep": b"[" * 100000}

    @pytest.mark.parametrize("kind", list(UNREADABLE))
    def test_unreadable_config(self, tmp_path, capsys, kind):
        bad = tmp_path / "bad.json"
        bad.write_bytes(self.UNREADABLE[kind])
        assert run("synth", "--config", str(bad), "--out", str(tmp_path / "o")) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: config is not valid UTF-8 JSON")
        assert "Traceback" not in err

    @pytest.mark.parametrize("kind", [*UNREADABLE, "overflow"])
    def test_unreadable_checkpoint(self, tmp_path, capsys, kind):
        if kind == "overflow":
            # an integer beyond float64 where a tensor value belongs
            ckpt = self._edited_checkpoint(
                tmp_path, lambda doc: doc["tensors"]["head.b_out"].update(data=[10**400]))
        else:
            ckpt = tmp_path / "ckpt.json"
            ckpt.write_bytes(self.UNREADABLE[kind])
        assert run("forecast", "--config", str(write_config(tmp_path)),
                   "--out", str(tmp_path / "o"), "--checkpoint", str(ckpt)) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error: ")
        assert "Traceback" not in err

    def test_csv_not_utf8(self, tmp_path, capsys):
        csv_path = tmp_path / "series.csv"
        csv_path.write_bytes(b"timestamp,value\n2020-01-01,1.0\n2020-01-02,\xff\n")
        cfg = write_config(tmp_path, **{"data.source": "csv", "data.csv_path": str(csv_path)})
        assert run("train", "--config", str(cfg), "--out", str(tmp_path / "o")) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error: row 3: not UTF-8 text")
        assert "Traceback" not in err

    @staticmethod
    def _edited_checkpoint(tmp_path, edit):
        ckpt = tmp_path / "ckpt.json"
        save_checkpoint(ckpt, init_params(ModelConfig(**BASE_CONFIG["model"])),
                        ScalerParams(mean=0.0, std=1.0))
        doc = json.loads(ckpt.read_text())
        edit(doc)
        ckpt.write_text(json.dumps(doc))
        return ckpt

    @pytest.mark.parametrize("command", ["forecast", "explain"])
    @pytest.mark.parametrize("edit", ["empty-list", "null", "nan"])
    def test_bad_checkpoint_tensors(self, tmp_path, capsys, command, edit):
        def spoil(doc):
            if edit == "nan":
                doc["tensors"]["head.b_out"]["data"] = [float("nan")]
            else:
                doc["tensors"] = [] if edit == "empty-list" else None

        cfg = write_config(tmp_path)
        ckpt = self._edited_checkpoint(tmp_path, spoil)
        out = tmp_path / "o"
        assert run(command, "--config", str(cfg), "--out", str(out),
                   "--checkpoint", str(ckpt)) == 3
        assert capsys.readouterr().err.startswith("data error: checkpoint tensors")
        assert not list((out / command).glob("*.csv"))

    @pytest.mark.parametrize("version", [99, "1", True, "missing"])
    def test_checkpoint_version_other_than_current(self, tmp_path, capsys, version):
        def edit(doc):
            if version == "missing":
                del doc["version"]
            else:
                doc["version"] = version

        ckpt = self._edited_checkpoint(tmp_path, edit)
        out = tmp_path / "o"
        assert run("forecast", "--config", str(write_config(tmp_path)), "--out", str(out),
                   "--checkpoint", str(ckpt)) == 3
        assert capsys.readouterr().err.startswith("data error: unsupported checkpoint version")
        assert not (out / "forecast" / "forecast.csv").exists()

    @pytest.mark.parametrize("field,value", [
        ("mean", float("nan")), ("mean", float("inf")), ("std", float("nan")),
        pytest.param("mean", 10**400, id="mean-beyond-float64")])
    def test_bad_checkpoint_scaler_names_its_field(self, tmp_path, capsys, field, value):
        # json writes and reads NaN and Infinity, and integers of any size
        ckpt = self._edited_checkpoint(tmp_path, lambda doc: doc["scaler"].update({field: value}))
        assert run("forecast", "--config", str(write_config(tmp_path)),
                   "--out", str(tmp_path / "o"), "--checkpoint", str(ckpt)) == 3
        assert capsys.readouterr().err.startswith(f"data error: scaler {field} must be finite")

    @pytest.mark.parametrize("anchors", [0, -2])
    def test_bench_anchors_below_one(self, tmp_path, capsys, anchors):
        # rejected before any run trains
        cfg = write_config(tmp_path, **{"bench.anchors": anchors})
        out = tmp_path / "o"
        assert run("bench", "--config", str(cfg), "--out", str(out)) == 2
        assert capsys.readouterr().err.startswith("config error: bench.anchors")
        assert not (out / "bench" / "runs.csv").exists()

    @pytest.mark.parametrize("command,key,value", [
        ("train", "train.learning_rate", float("nan")),
        ("train", "train.learning_rate", float("inf")),
        ("train", "train.eps", float("inf")),
        ("train", "train.eps", float("nan")),
        ("tune", "train.learning_rate", float("nan")),
        ("explain", "explain.smoothing_sigma", float("nan")),
        ("explain", "explain.smoothing_sigma", float("inf")),
        ("bench", "train.learning_rate", float("nan")),
    ])
    def test_non_finite_float_is_config_error(self, tmp_path, capfd, command, key, value):
        # JSON reads NaN and Infinity as floats; the config classes reject them
        cfg = write_config(tmp_path, **{key: value})
        args = [command, "--config", str(cfg), "--out", str(tmp_path / "o")]
        if command == "explain":
            ckpt = tmp_path / "ckpt.json"
            save_checkpoint(ckpt, init_params(ModelConfig(**BASE_CONFIG["model"])),
                            ScalerParams(mean=0.0, std=1.0))
            args += ["--checkpoint", str(ckpt)]
        capfd.readouterr()
        assert run(*args) == 2
        err = capfd.readouterr().err
        assert err.startswith(f"config error: {key.split('.')[1]} must be finite and > 0")
        assert "Traceback" not in err

    @pytest.mark.parametrize("key", [
        "train.learning_rate", "explain.smoothing_sigma", "data.synth.amplitude"])
    def test_integer_beyond_float64_is_config_error(self, tmp_path, capfd, key):
        # a float field takes an integer only if it converts to a finite float
        cfg = write_config(tmp_path, **{key: 10**400})
        capfd.readouterr()
        assert run("train", "--config", str(cfg), "--out", str(tmp_path / "o")) == 2
        err = capfd.readouterr().err
        assert err.startswith(f"config error: config.{key} must be a finite float")
        assert "Traceback" not in err

    @pytest.mark.parametrize("flags,key,value", [
        (["--seed", "-5"], None, None), ([], "seed", -1), ([], "data.synth.seed", -2)])
    def test_negative_seed_is_config_error(self, tmp_path, capfd, flags, key, value):
        # numpy's generators refuse a negative seed with a bare ValueError
        cfg = write_config(tmp_path, **({key: value} if key else {}))
        capfd.readouterr()
        assert run("train", "--config", str(cfg), "--out", str(tmp_path / "o"), *flags) == 2
        err = capfd.readouterr().err
        assert err.startswith("config error: seed must be >= 0, got -")
        assert "Traceback" not in err

    def test_numeric_error_diverged(self, tmp_path):
        cfg = write_config(tmp_path, **{"train.learning_rate": 1e40, "train.epochs": 2})
        with np.errstate(all="ignore"):
            code = run("train", "--config", str(cfg), "--out", str(tmp_path / "o"))
        assert code == 4

    def test_numeric_error_every_tune_trial_failed(self, tmp_path):
        cfg = write_config(tmp_path, **{"train.learning_rate": 1e40, "tune.budget": 4})
        with np.errstate(all="ignore"):
            code = run("tune", "--config", str(cfg), "--out", str(tmp_path / "o"))
        assert code == 4

    def test_every_failed_tune_trial_reported(self, tmp_path, capsys):
        cfg = write_config(tmp_path, **{"train.learning_rate": 1e40, "tune.budget": 4,
                                        "tune.init": 3})
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run("tune", "--config", str(cfg), "--out", str(tmp_path / "o"))
        assert code == 4
        err = capsys.readouterr().err
        assert re.findall(r"trial (\d) failed: DivergedLoss", err) == ["0", "1", "2"]
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert "RuntimeWarning" not in err
        # the failed trials are logged with their penalty
        with (tmp_path / "o" / "tune" / "tune_log.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert [(r["trial"], r["rmse"], r["best_so_far"]) for r in rows] == [
            (str(i), "inf", "inf") for i in range(3)]

    @pytest.mark.parametrize("key,bound", [
        ("tune.space.kernel_size", [2, 12]), ("tune.space.heads", [0, 3]),
        ("tune.space.cnn_layers", [-1, 2])])
    def test_tune_space_outside_model(self, tmp_path, capsys, key, bound):
        # w=8: checked before any trial, so no tune_log.csv is written
        cfg = write_config(tmp_path, **{key: bound})
        out = tmp_path / "o"
        assert run("tune", "--config", str(cfg), "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: " + key) and "trial" not in err
        assert not (out / "tune" / "tune_log.csv").exists()

    @pytest.mark.parametrize("key,value,budget", [
        ("tune.pool_size", 0, 5), ("tune.pool_size", 0, 3),
        ("tune.xi", float("nan"), 5), ("tune.xi", -1.0, 5), ("tune.xi", -1.0, 3),
        # too large for a float: refused where the tuner's set-up, the pool's
        # probe and the search space's box radii overflowed
        pytest.param("tune.budget", 10**400, 10**400, id="tune.budget-10**400"),
        pytest.param("tune.pool_size", 10**400, 5, id="tune.pool_size-10**400-5"),
        pytest.param("tune.space.filters", [16, 10**400], 5, id="tune.space.filters-10**400-5")])
    def test_tune_arguments_checked_before_any_trial(self, tmp_path, capsys, monkeypatch,
                                                     key, value, budget):
        # init is 3: at budget 3 no trial ever proposes a cell, and the
        # argument is checked all the same
        trained = []
        monkeypatch.setattr(cli, "train_model", lambda *a: trained.append(a))
        cfg = write_config(tmp_path, **{key: value, "tune.budget": budget})
        out = tmp_path / "o"
        assert run("tune", "--config", str(cfg), "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: " + key.split(".")[-1]) and "trial" not in err
        assert trained == []
        assert not (out / "tune" / "tune_log.csv").exists()

    @pytest.mark.parametrize("command", ["train", "bench"])
    @pytest.mark.parametrize("w", [0, -3])
    def test_window_below_one_is_config_error(self, tmp_path, capsys, command, w):
        # the model section is checked before the series is cut into windows
        out = tmp_path / "o"
        assert run(command, "--config", str(write_config(tmp_path, **{"model.w": w})),
                   "--out", str(out)) == 2
        assert capsys.readouterr().err == "config error: w must be >= 1\n"
        assert [p.name for p in (out / command).iterdir()] == ["config.json"]

    @pytest.mark.parametrize("error,code,prefix", [
        (DimensionMismatch("points of shape (2,) vs (3,)"), 2, "config error"),
        (MalformedAttention("negative attention weights"), 3, "data error"),
        (SingularKernel("kernel matrix singular"), 4, "numeric failure")])
    def test_error_base_class_sets_exit_code(self, tmp_path, capsys, monkeypatch,
                                             error, code, prefix):
        def failing(cfg, make_svg=False):
            raise error

        monkeypatch.setattr(cli, "cmd_synth", failing)
        assert run("synth", "--config", str(write_config(tmp_path))) == code
        assert capsys.readouterr().err == f"{prefix}: {error}\n"

    def test_every_error_class_has_an_exit_code(self):
        def subclasses(cls):
            for sub in cls.__subclasses__():
                yield sub
                yield from subclasses(sub)

        classes = set(subclasses(FusecastError))
        assert {DimensionMismatch, MalformedAttention, ObjectiveFailure} <= classes
        labels = {2: "config error", 3: "data error", 4: "numeric failure"}
        for cls in classes:
            assert labels[cls.exit_code] == cls.label, cls.__name__

    def test_undefined_metric_keeps_checkpoint(self, tmp_path):
        # a zero-mean series leaves MSLE undefined after training
        cfg = write_config(tmp_path, **{"data.synth.trend_slope": 0.0, "train.epochs": 1})
        out = tmp_path / "o"
        assert run("train", "--config", str(cfg), "--out", str(out)) == 0
        params, _ = load_checkpoint(out / "train" / "checkpoint.json")
        assert params.config.w == BASE_CONFIG["model"]["w"]
        with (out / "train" / "loss_history.csv").open() as fh:
            assert [r["epoch"] for r in csv.DictReader(fh)] == ["1"]
        doc = json.loads((out / "train" / "metrics.json").read_text())
        assert doc["msle"] is None and "MSLE undefined" in doc["undefined"]["msle"]
        assert np.isfinite(doc["rmse"]) and np.isfinite(doc["mae"])

    @pytest.mark.parametrize("key,value", [
        ("train.epochs", "5"), ("model.filters", 6.0), ("train.learning_rate", "1e-3")])
    def test_override_of_wrong_type(self, tmp_path, capsys, key, value):
        cfg = write_config(tmp_path, **{key: value})
        assert run("train", "--config", str(cfg), "--out", str(tmp_path / "o")) == 2
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("command,key,value,field", [
        ("train", "model.head_dim", "x", "head_dim"),
        ("train", "horizons", ["a"], "horizons"),
        ("forecast", "horizons", [2.5], "horizons"),
        ("tune", "tune.space.cnn_layers", [1], "cnn_layers"),
        ("train", "data.csv_path", 5, "data.csv_path"),
        ("explain", "explain.edge_drop", "x", "edge_drop"),
        ("explain", "explain.edge_drop", 2.5, "edge_drop"),
        ("explain", "explain.edge_drop", True, "edge_drop"),
    ])
    def test_value_of_wrong_shape(self, tmp_path, capsys, command, key, value, field):
        overrides = {key: value}
        if key == "data.csv_path":
            overrides["data.source"] = "csv"
        cfg = write_config(tmp_path, **overrides)
        extra = []
        if command in ("forecast", "explain"):
            ckpt = tmp_path / "ckpt.json"
            save_checkpoint(ckpt, init_params(ModelConfig(**BASE_CONFIG["model"])),
                            ScalerParams(mean=0.0, std=1.0))
            extra = ["--checkpoint", str(ckpt)]
        assert run(command, "--config", str(cfg), "--out", str(tmp_path / "o"), *extra) == 2
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize("value", [5, ["o"]])
    def test_out_dir_not_a_string(self, tmp_path, capsys, monkeypatch, value):
        # out_dir's default is null, so only its consumer can check its type
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path, out_dir=value)
        assert run("synth", "--config", str(cfg)) == 2
        assert capsys.readouterr().err.startswith("config error: out_dir must be a string")
        assert not list(tmp_path.glob("*/synth"))

    @staticmethod
    def _dated_csv(tmp_path, days=100):
        path = tmp_path / "series.csv"
        t = np.arange(days)
        save_csv(TimeSeries(np.datetime64("2020-01-01") + t, 50.0 + 10.0 * np.sin(t / 7.0)), path)
        return path

    def test_tune_window_past_validation_split(self, tmp_path):
        # 80 training days leave 64 for fitting: w=70 has no fit window
        # whose target lies before the validation segment
        cfg = write_config(tmp_path, **{
            "data.source": "csv", "data.csv_path": str(self._dated_csv(tmp_path)),
            "model.w": 70})
        assert run("tune", "--config", str(cfg), "--out", str(tmp_path / "o")) == 3

    def test_explain_window_past_training_segment(self, tmp_path):
        # 60 training days and a w=70 checkpoint: no background window
        # lies inside the training segment
        cfg = write_config(tmp_path, **{
            "data.source": "csv", "data.csv_path": str(self._dated_csv(tmp_path)),
            "data.train_frac": 0.6, "explain.shap_mode": "sampled",
            "explain.sample_permutations": 2})
        ckpt = tmp_path / "ckpt.json"
        save_checkpoint(ckpt, init_params(ModelConfig(**{**BASE_CONFIG["model"], "w": 70})),
                        ScalerParams(mean=50.0, std=10.0))
        assert run("explain", "--config", str(cfg), "--out", str(tmp_path / "o"),
                   "--checkpoint", str(ckpt)) == 3

    def test_env_var_out_root(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path)
        monkeypatch.setenv(cli.OUT_ENV, str(tmp_path / "envroot"))
        monkeypatch.chdir(tmp_path)
        assert run("synth", "--config", str(cfg)) == 0
        assert (tmp_path / "envroot" / "synth" / "series.csv").is_file()


class TestModuleEntry:
    @pytest.mark.parametrize("module", ["fusecast", "fusecast.cli"])
    def test_help_through_python_m(self, module):
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
        done = subprocess.run([sys.executable, "-m", module, "--help"], env=env,
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0
        assert done.stdout.startswith("usage: fusecast")
