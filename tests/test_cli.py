import csv
import hashlib
import json
import re
from pathlib import Path

import numpy as np
import pytest

from fusecast import cli
from fusecast.nn import load_checkpoint
from fusecast.series import SynthSpec, load_csv, synthesize
from fusecast.train import forecast_recursive, persistence_forecast


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
    return cli.main(list(args))


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
        total = sum(abs(float(r["shap"])) for r in rows)
        recent = sum(abs(float(r["shap"])) for r in rows[:8])  # w < 10: all lags recent
        assert abs(doc["recency_concentration"] - (recent / total if total else 0.0)) < 1e-9

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

    def test_undefined_metric_keeps_checkpoint(self, tmp_path):
        # a zero-mean series leaves MSLE undefined after training
        cfg = write_config(tmp_path, **{"data.synth.trend_slope": 0.0, "train.epochs": 1})
        out = tmp_path / "o"
        assert run("train", "--config", str(cfg), "--out", str(out)) == 3
        params, _ = load_checkpoint(out / "train" / "checkpoint.json")
        assert params.config.w == BASE_CONFIG["model"]["w"]

    def test_env_var_out_root(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path)
        monkeypatch.setenv(cli.OUT_ENV, str(tmp_path / "envroot"))
        monkeypatch.chdir(tmp_path)
        assert run("synth", "--config", str(cfg)) == 0
        assert (tmp_path / "envroot" / "synth" / "series.csv").is_file()
