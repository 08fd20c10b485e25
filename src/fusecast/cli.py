"""Command-line surface: synth, train, tune, forecast, explain, bench.

One JSON config document drives everything; flags override individual
fields and the effective config is echoed into the output directory. All
CSV/JSON outputs are byte-reproducible from (config, seed), the documented
exception being wall-clock timing fields.

Exit codes: 0 success, 2 config error, 3 data error, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import copy
import csv
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import bayesopt, nn, series, svg
from .explain import ExplainConfig, explain as explain_window, sample_background
from .train import (
    MetricsReport,
    TrainConfig,
    forecast_recursive,
    horizon_eval,
    metrics as compute_metrics,
    predict_batch,
    run_stats,
    train as train_model,
)
from .errors import (
    BadCheckpoint,
    ConfigError,
    DivergedLoss,
    EmptyDataset,
    EmptyInput,
    EmptySpace,
    InvalidFraction,
    InvalidSpec,
    LengthMismatch,
    MapeUndefined,
    MissingFile,
    MsleUndefined,
    NonFiniteValue,
    NonMonotoneTimestamps,
    ObjectiveFailure,
    ParseError,
    ShapeMismatch,
    SingularKernel,
    TooFewSamples,
    WindowTooLarge,
    WindowTooLargeForExact,
    ZeroVariance,
    ZeroVarianceShapeStats,
)

OUT_ENV = "FUSECAST_OUT"

DEFAULT_CONFIG = {
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

CONFIG_EXIT, DATA_EXIT, NUMERIC_EXIT = 2, 3, 4

_DATA_ERRORS = (MissingFile, ParseError, NonMonotoneTimestamps, NonFiniteValue,
                BadCheckpoint, EmptyDataset, EmptyInput, WindowTooLarge,
                WindowTooLargeForExact, LengthMismatch, ShapeMismatch,
                MapeUndefined, MsleUndefined, TooFewSamples, ZeroVariance,
                ZeroVarianceShapeStats)
_CONFIG_ERRORS = (ConfigError, InvalidSpec, InvalidFraction, EmptySpace)
_NUMERIC_ERRORS = (DivergedLoss, SingularKernel, ObjectiveFailure)


def _merge(defaults, override, path="config"):
    if not isinstance(override, dict):
        raise ConfigError(f"{path} must be an object")
    merged = copy.deepcopy(defaults)
    for key, value in override.items():
        if key not in defaults:
            raise ConfigError(f"unknown config key {path}.{key}")
        if isinstance(defaults[key], dict) and defaults[key]:
            merged[key] = _merge(defaults[key], value, f"{path}.{key}")
        else:
            merged[key] = value
    return merged


def load_config(path: str | None, overrides: dict) -> dict:
    user = {}
    if path is not None:
        p = Path(path)
        if not p.is_file():
            raise ConfigError(f"config file not found: {p}")
        try:
            user = json.loads(p.read_text())
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from None
    cfg = _merge(DEFAULT_CONFIG, user)
    for dotted, value in overrides.items():
        node = cfg
        *parts, last = dotted.split(".")
        for part in parts:
            node = node[part]
        node[last] = value
    if not cfg["horizons"] or any(h < 1 for h in cfg["horizons"]):
        raise ConfigError("horizons must be a non-empty list of values >= 1")
    return cfg


def _out_dir(cfg: dict, cmd: str) -> Path:
    base = cfg["out_dir"] or os.environ.get(OUT_ENV) or "fusecast_out"
    out = Path(base) / cmd
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_json(path: Path, doc) -> None:
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


def _write_csv(path: Path, header, rows) -> None:
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _fmt(x) -> str:
    return repr(float(x))


def _echo_config(cfg: dict, out: Path) -> None:
    _write_json(out / "config.json", cfg)


def _load_series(cfg: dict) -> series.TimeSeries:
    data = cfg["data"]
    if data["source"] == "csv":
        if not data["csv_path"]:
            raise ConfigError("data.source is csv but data.csv_path is unset")
        return series.load_csv(data["csv_path"])
    if data["source"] == "synth":
        return series.synthesize(series.SynthSpec(**data["synth"]))
    raise ConfigError(f"unknown data.source {data['source']!r}")


def _model_config(cfg: dict, seed: int) -> nn.ModelConfig:
    m = cfg["model"]
    return nn.ModelConfig(w=m["w"], cnn_layers=m["cnn_layers"], filters=m["filters"],
                          kernel_size=m["kernel_size"], heads=m["heads"],
                          head_dim=m["head_dim"], seed=seed)


def _train_config(cfg: dict, seed: int, epochs: int | None = None) -> TrainConfig:
    t = cfg["train"]
    return TrainConfig(
        epochs=epochs if epochs is not None else t["epochs"],
        batch_size=t["batch_size"], learning_rate=t["learning_rate"],
        beta1=t["beta1"], beta2=t["beta2"], eps=t["eps"], seed=seed,
    )


def _prepared_data(cfg: dict):
    """Series -> split -> train-fitted scaler -> scaled windows.

    Test windows are the trailing windows of the full scaled series whose
    target falls in the test segment (their inputs may span the boundary).
    """
    ts = _load_series(cfg)
    train_ts, test_ts = series.split(ts, cfg["data"]["train_frac"])
    scaler = series.fit_scaler(train_ts)
    scaled = series.apply_scaler(ts, scaler)
    w = cfg["model"]["w"]
    all_windows = series.make_windows(scaled, w)
    n_train = len(train_ts)
    first_test = n_train - w
    if first_test <= 0:
        raise WindowTooLarge(f"window {w} does not fit in the training segment")
    train_windows = series.WindowedDataset(
        all_windows.inputs[:first_test], all_windows.targets[:first_test], w)
    test_windows = series.WindowedDataset(
        all_windows.inputs[first_test:], all_windows.targets[first_test:], w)
    return ts, train_ts, test_ts, scaler, train_windows, test_windows


def _one_step_metrics(params, scaler, test_windows) -> MetricsReport:
    yhat_scaled = predict_batch(params, test_windows.inputs)
    yhat = series.unscale_values(yhat_scaled, scaler)
    y = series.unscale_values(test_windows.targets, scaler)
    return compute_metrics(y, yhat)


def cmd_synth(cfg: dict, make_svg: bool = False) -> int:
    out = _out_dir(cfg, "synth")
    _echo_config(cfg, out)
    ts = series.synthesize(series.SynthSpec(**cfg["data"]["synth"]))
    series.save_csv(ts, out / "series.csv")
    if make_svg:
        xs = np.arange(len(ts))
        (out / "series.svg").write_text(svg.line_chart(
            [("series", xs, ts.values, "#1f77b4", "")], title="synthetic series",
            xlabel="day", ylabel="value"))
    print(f"wrote {out / 'series.csv'} ({len(ts)} rows)")
    return 0


def cmd_train(cfg: dict, make_svg: bool = False) -> int:
    out = _out_dir(cfg, "train")
    _echo_config(cfg, out)
    seed = cfg["seed"]
    _, _, _, scaler, train_windows, test_windows = _prepared_data(cfg)
    mconfig = _model_config(cfg, seed)
    tconfig = _train_config(cfg, seed + 1)
    t0 = time.perf_counter()
    params, history = train_model(mconfig, tconfig, train_windows)
    # saved first, so an undefined reporting metric never discards the model
    nn.save_checkpoint(out / "checkpoint.json", params, scaler)
    report = _one_step_metrics(params, scaler, test_windows)
    elapsed = time.perf_counter() - t0
    _write_json(out / "metrics.json", {
        "horizon": 1, "rmse": report.rmse, "mae": report.mae,
        "mape": report.mape, "msle": report.msle, "wall_seconds": elapsed,
    })
    _write_csv(out / "loss_history.csv", ["epoch", "train_mse"],
               [[i + 1, _fmt(loss)] for i, loss in enumerate(history)])
    if make_svg:
        (out / "loss.svg").write_text(svg.line_chart(
            [("train MSE", np.arange(1, len(history) + 1), history, "#1f77b4", "")],
            title="training loss", xlabel="epoch", ylabel="mse"))
    print(f"test one-step rmse={report.rmse:.6g} mae={report.mae:.6g} "
          f"mape={report.mape:.4%} msle={report.msle:.6g}")
    print(f"wrote {out / 'checkpoint.json'}")
    return 0


def cmd_tune(cfg: dict, make_svg: bool = False) -> int:
    out = _out_dir(cfg, "tune")
    _echo_config(cfg, out)
    seed = cfg["seed"]
    _, train_ts, _, _, _, _ = _prepared_data(cfg)
    # tuning objective: validation RMSE on the last 20% of the training
    # segment, so the test segment stays untouched until final training
    sub_train, sub_val = series.split(train_ts, 0.8)
    sub_scaler = series.fit_scaler(sub_train)
    scaled = series.apply_scaler(train_ts, sub_scaler)
    w = cfg["model"]["w"]
    windows = series.make_windows(scaled, w)
    first_val = len(sub_train) - w
    fit_windows = series.WindowedDataset(windows.inputs[:first_val], windows.targets[:first_val], w)
    val_windows = series.WindowedDataset(windows.inputs[first_val:], windows.targets[first_val:], w)
    tconfig = _train_config(cfg, seed + 1, epochs=cfg["tune"]["epochs"])

    def objective(trial_cfg: dict) -> float:
        mconfig = nn.ModelConfig(w=w, cnn_layers=trial_cfg["cnn_layers"],
                                 filters=trial_cfg["filters"],
                                 kernel_size=trial_cfg["kernel_size"],
                                 heads=trial_cfg["heads"], seed=seed)
        params, _ = train_model(mconfig, tconfig, fit_windows)
        return _one_step_metrics(params, sub_scaler, val_windows).rmse

    space_cfg = cfg["tune"]["space"]
    space = bayesopt.SearchSpace(**{k: tuple(v) for k, v in space_cfg.items()})
    result = bayesopt.tune(objective, space, budget=cfg["tune"]["budget"],
                           init=cfg["tune"]["init"], seed=seed + 3,
                           pool_size=cfg["tune"]["pool_size"], xi=cfg["tune"]["xi"])

    rows = []
    for trial, best in zip(result.trials, result.incumbent):
        rows.append([trial.index, trial.config["cnn_layers"], trial.config["heads"],
                     trial.config["filters"], trial.config["kernel_size"],
                     _fmt(trial.objective), _fmt(best), _fmt(trial.wall_seconds)])
    _write_csv(out / "tune_log.csv",
               ["trial", "cnn_layers", "heads", "filters", "kernel_size",
                "rmse", "best_so_far", "wall_seconds"], rows)
    _write_json(out / "best_config.json", {
        "cnn_layers": result.best_config["cnn_layers"],
        "heads": result.best_config["heads"],
        "filters": result.best_config["filters"],
        "kernel_size": result.best_config["kernel_size"],
        "objective_rmse": result.best_objective,
    })
    if make_svg:
        (out / "tuning.svg").write_text(svg.tuning_chart(
            [t.objective for t in result.trials], list(result.incumbent)))
    print(f"best {result.best_config} rmse={result.best_objective:.6g}")
    print(f"wrote {out / 'tune_log.csv'}")
    return 0


def cmd_forecast(cfg: dict, checkpoint: str, horizon: int | None = None,
                 make_svg: bool = False) -> int:
    out = _out_dir(cfg, "forecast")
    _echo_config(cfg, out)
    params, scaler = nn.load_checkpoint(checkpoint)
    horizon = horizon if horizon is not None else cfg["horizons"][0]
    if horizon < 1:
        raise ConfigError("horizon must be >= 1")
    ts = _load_series(cfg)
    w = params.config.w
    window = ts.values[-w:]
    preds = forecast_recursive(params, scaler, window, horizon)
    _write_csv(out / "forecast.csv", ["step", "value"],
               [[i + 1, _fmt(v)] for i, v in enumerate(preds)])
    if make_svg:
        hist_x = np.arange(-w, 0)
        (out / "forecast.svg").write_text(svg.line_chart(
            [("history", hist_x, window, "#888", ""),
             ("forecast", np.arange(1, horizon + 1), preds, "#d62728", "")],
            title=f"{horizon}-step forecast", xlabel="step"))
    print(f"wrote {out / 'forecast.csv'} ({horizon} steps)")
    return 0


def cmd_explain(cfg: dict, checkpoint: str, window_index: int,
                make_svg: bool = False) -> int:
    out = _out_dir(cfg, "explain")
    _echo_config(cfg, out)
    seed = cfg["seed"]
    params, scaler = nn.load_checkpoint(checkpoint)
    ts = _load_series(cfg)
    train_ts, _ = series.split(ts, cfg["data"]["train_frac"])
    scaled = series.apply_scaler(ts, scaler)
    w = params.config.w
    windows = series.make_windows(scaled, w)
    first_test = len(train_ts) - w
    n_test = len(windows) - first_test
    if not 0 <= window_index < n_test:
        raise ConfigError(f"window index {window_index} outside test range [0, {n_test})")
    x = windows.inputs[first_test + window_index]

    e = cfg["explain"]
    econfig = ExplainConfig(
        background_size=e["background_size"], shap_mode=e["shap_mode"],
        sample_permutations=e["sample_permutations"],
        smoothing_sigma=e["smoothing_sigma"], edge_drop=e["edge_drop"],
        seed=seed + 2)
    background = sample_background(
        windows.inputs[:first_test], econfig.background_size, seed=seed + 2)
    result = explain_window(params, x, background, econfig)

    # newest lag (t-1) first; lag number L refers to window position w-L
    rows = []
    for lag in range(1, w + 1):
        i = w - lag
        rows.append([f"t-{lag}", _fmt(result.s[i]), _fmt(result.a[i]),
                     _fmt(result.c[i]), _fmt(result.c_smooth[i]),
                     str(i in result.reported_lags).lower()])
    _write_csv(out / "influence.csv",
               ["lag_index", "shap", "attention", "combined", "smoothed", "reported"],
               rows)
    _write_json(out / "explain.json", {
        "base_value": result.base_value,
        "prediction": result.prediction,
        "recency_concentration": result.recency_concentration,
        "window_index": window_index,
        "config": {**e, "seed": seed + 2},
    })
    if make_svg:
        mask = [i in result.reported_lags for i in range(w)]
        (out / "influence.svg").write_text(svg.influence_panels(
            x, result.a, result.s, result.c, result.c_smooth, mask))
    print(f"prediction={result.prediction:.6g} "
          f"recency_concentration={result.recency_concentration:.2%}")
    print(f"wrote {out / 'influence.csv'}")
    return 0


def cmd_bench(cfg: dict, make_svg: bool = False) -> int:
    out = _out_dir(cfg, "bench")
    _echo_config(cfg, out)
    seed = cfg["seed"]
    runs = cfg["bench"]["runs"]
    if runs < 4:
        raise ConfigError("bench.runs must be >= 4")
    ts, train_ts, _, scaler, train_windows, test_windows = _prepared_data(cfg)

    per_run: list[MetricsReport] = []
    first_params = None
    fit_seconds = 0.0
    for r in range(runs):
        mconfig = _model_config(cfg, seed + 100 + r)
        tconfig = _train_config(cfg, seed + 200 + r)
        t0 = time.perf_counter()
        params, _ = train_model(mconfig, tconfig, train_windows)
        fit_seconds += time.perf_counter() - t0
        per_run.append(_one_step_metrics(params, scaler, test_windows))
        if first_params is None:
            first_params = params

    _write_csv(out / "runs.csv", ["run", "rmse", "mae", "mape", "msle"],
               [[r, _fmt(m.rmse), _fmt(m.mae), _fmt(m.mape), _fmt(m.msle)]
                for r, m in enumerate(per_run)])

    stats_doc = {}
    for name in ("rmse", "mae", "mape", "msle"):
        vals = np.array([getattr(m, name) for m in per_run])
        stats_doc[name] = vars(run_stats(vals))

    t0 = time.perf_counter()
    horizon_doc = {}
    for horizon in cfg["horizons"]:
        model_m, naive_m = horizon_eval(
            first_params, scaler, ts.values, len(train_ts), horizon,
            n_anchors=cfg["bench"]["anchors"])
        horizon_doc[str(horizon)] = {"model": vars(model_m), "persistence": vars(naive_m)}
    predict_seconds = time.perf_counter() - t0

    _write_json(out / "bench_report.json", {
        "runs": runs,
        "run_stats": stats_doc,
        "horizons": horizon_doc,
        "wall_seconds": {"fit_total": fit_seconds, "predict_total": predict_seconds},
    })
    if make_svg:
        for name in ("rmse", "mae", "mape", "msle"):
            vals = [getattr(m, name) for m in per_run]
            (out / f"box_{name}.svg").write_text(
                svg.box_plot({name: vals}, title=f"{name} over {runs} runs"))
    print(f"{runs} runs: median rmse={stats_doc['rmse']['median']:.6g}")
    print(f"wrote {out / 'bench_report.json'}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fusecast",
        description="hybrid conv-attention forecasting: synthesize, train, "
                    "tune, forecast, explain, bench")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--out", help=f"output directory (default ${OUT_ENV} or ./fusecast_out)")
        p.add_argument("--seed", type=int, help="global seed override")
        p.add_argument("--svg", action="store_true", help="also emit SVG plots")

    common(sub.add_parser("synth", help="write a synthetic series CSV"))

    p_train = sub.add_parser("train", help="train and checkpoint a model")
    common(p_train)
    p_train.add_argument("--epochs", type=int)

    p_tune = sub.add_parser("tune", help="Bayesian-optimize hyperparameters")
    common(p_tune)
    p_tune.add_argument("--budget", type=int)

    p_fc = sub.add_parser("forecast", help="recursive multi-step forecast")
    common(p_fc)
    p_fc.add_argument("--checkpoint", required=True)
    p_fc.add_argument("--horizon", type=int)

    p_ex = sub.add_parser("explain", help="influence map for one test window")
    common(p_ex)
    p_ex.add_argument("--checkpoint", required=True)
    p_ex.add_argument("--window-index", type=int, default=0)
    p_ex.add_argument("--mode", choices=["exact", "sampled"])

    p_bench = sub.add_parser("bench", help="multi-run statistics and horizon benchmark")
    common(p_bench)
    p_bench.add_argument("--runs", type=int)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    overrides = {}
    if args.out is not None:
        overrides["out_dir"] = args.out
    if args.seed is not None:
        overrides["seed"] = args.seed
    if getattr(args, "epochs", None) is not None:
        overrides["train.epochs"] = args.epochs
    if getattr(args, "budget", None) is not None:
        overrides["tune.budget"] = args.budget
    if getattr(args, "runs", None) is not None:
        overrides["bench.runs"] = args.runs
    if getattr(args, "mode", None) is not None:
        overrides["explain.shap_mode"] = args.mode
    if getattr(args, "horizon", None) is not None:
        overrides["horizons"] = [args.horizon]

    try:
        cfg = load_config(args.config, overrides)
        if args.command == "synth":
            return cmd_synth(cfg, args.svg)
        if args.command == "train":
            return cmd_train(cfg, args.svg)
        if args.command == "tune":
            return cmd_tune(cfg, args.svg)
        if args.command == "forecast":
            return cmd_forecast(cfg, args.checkpoint, args.horizon, args.svg)
        if args.command == "explain":
            return cmd_explain(cfg, args.checkpoint, args.window_index, args.svg)
        if args.command == "bench":
            return cmd_bench(cfg, args.svg)
        raise ConfigError(f"unknown command {args.command}")
    except _CONFIG_ERRORS as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return CONFIG_EXIT
    except _DATA_ERRORS as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return DATA_EXIT
    except _NUMERIC_ERRORS as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return NUMERIC_EXIT


def entry() -> None:
    sys.exit(main())
