"""Command-line surface: synth, train, tune, forecast, explain, bench.

One JSON config document drives everything; flags override individual
fields and the effective config is echoed into the output directory. All
CSV/JSON outputs are byte-reproducible from (config, seed), the documented
exception being wall-clock timing fields.

Windows come from :func:`fusecast.series.prepare`: ``train``, ``bench`` and
``explain`` split at ``data.train_frac``, ``tune`` at 0.8 of the training segment.

Exit codes: 0 success, 2 config error, 3 data error, 4 numeric failure; an
error's base class in :mod:`fusecast.errors` carries its code.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import csv
import functools
import json
import os
import sys
import time
from dataclasses import MISSING, asdict, fields, replace
from pathlib import Path

import numpy as np

from . import bayesopt, nn, series, svg
from .explain import ExplainConfig, explain as explain_window, sample_background
from .train import (
    TrainConfig,
    anchor_ends,
    epochs,
    forecast_recursive,
    horizon_eval,
    metric_values,
    predict_batch,
    run_stats,
    train as train_model,
)
from .errors import ConfigError, FusecastError, check_float, check_seed

OUT_ENV = "FUSECAST_OUT"


def _defaults(cls) -> dict:
    """A config section holding the field defaults of dataclass ``cls``;
    ``seed`` is left out, because the CLI derives it from the global seed."""
    return {f.name: f.default for f in fields(cls)
            if f.name != "seed" and f.default is not MISSING}


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
    "model": {"w": 15, **_defaults(nn.ModelConfig)},
    "train": _defaults(TrainConfig),
    "tune": {
        "budget": 40, "init": 5, "pool_size": 512, "xi": 0.01, "epochs": 15,
        "space": {name: list(bound) for name, bound in _defaults(bayesopt.SearchSpace).items()},
    },
    "explain": _defaults(ExplainConfig),
    "horizons": [15],
    "bench": {"runs": 10, "anchors": 10},
}


def _check_type(default, value, path: str) -> None:
    """A value must have its default's type; a float accepts an int that
    converts to a finite float. A null default accepts anything here: its
    consumer (``_out_dir``, ``_load_series``, ``ModelConfig``,
    ``ExplainConfig``) checks the type."""
    if default is None:
        return
    allowed = (int, float) if type(default) is float else type(default)
    if not isinstance(value, allowed) or (isinstance(value, bool) and type(default) is not bool):
        raise ConfigError(f"{path} must be {type(default).__name__}, "
                          f"got {type(value).__name__} {value!r}")
    if type(default) is float and isinstance(value, int):
        check_float(value, path)


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
            _check_type(defaults[key], value, f"{path}.{key}")
            merged[key] = value
    return merged


def load_config(path: str | None, overrides: dict) -> dict:
    user = {}
    if path is not None:
        p = Path(path)
        if not p.is_file():
            raise ConfigError(f"config file not found: {p}")
        try:
            user = json.loads(p.read_text(encoding="utf-8"))
        # ValueError covers bad JSON, undecodable bytes and over-long integers
        except (ValueError, RecursionError) as exc:
            raise ConfigError(f"config is not valid UTF-8 JSON: {exc}") from None
    cfg = _merge(DEFAULT_CONFIG, user)
    for dotted, value in overrides.items():
        node = cfg
        *parts, last = dotted.split(".")
        for part in parts:
            node = node[part]
        node[last] = value
    # as in bayesopt.tune, an unset tune.init is min(5, tune.budget)
    if "init" not in user.get("tune", {}):
        cfg["tune"]["init"] = min(cfg["tune"]["init"], cfg["tune"]["budget"])
    # the commands add offsets to this seed, so a negative one is refused
    # here, before a tune trial could fail on it
    check_seed(cfg["seed"])
    horizons = cfg["horizons"]
    if not horizons or any(type(h) is not int or h < 1 for h in horizons):
        raise ConfigError(f"horizons must be a non-empty list of integers >= 1, got {horizons!r}")
    return cfg


def _out_dir(cfg: dict, cmd: str) -> tuple[Path, dict[str, int]]:
    """The command's output directory, made to hold the effective config,
    and the :func:`_stamps` of the files that it held before."""
    if cfg["out_dir"] is not None and not isinstance(cfg["out_dir"], str):
        raise ConfigError(f"out_dir must be a string, got {cfg['out_dir']!r}")
    out = Path(cfg["out_dir"] or os.environ.get(OUT_ENV) or "fusecast_out") / cmd
    before = _stamps(out)
    try:
        out.mkdir(parents=True, exist_ok=True)
        _write_json(out / "config.json", cfg)
    except OSError as exc:
        raise ConfigError(f"cannot write output directory {out}: {exc}") from None
    return out, before


def _stamps(out: Path) -> dict[str, int]:
    """Name -> modification time (ns) of each file in ``out``; none when
    ``out`` is missing or unreadable."""
    with contextlib.suppress(OSError):
        return {p.name: p.stat().st_mtime_ns for p in out.iterdir() if p.is_file()}
    return {}


def _write_json(path: Path, doc) -> None:
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


@contextlib.contextmanager
def _csv_writer(path: Path, header):
    """A CSV writer on ``path`` that has written ``header``. The file is
    line-buffered, so the header, and each row as it is written, are on disk
    at once: a run cut short keeps the rows before it."""
    with path.open("w", newline="", buffering=1) as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        yield writer


def _write_csv(path: Path, header, rows) -> None:
    with _csv_writer(path, header) as writer:
        writer.writerows(rows)


def _fmt(x) -> str:
    return repr(float(x))


def _load_series(cfg: dict) -> series.TimeSeries:
    data = cfg["data"]
    if data["source"] == "csv":
        if not data["csv_path"]:
            raise ConfigError("data.source is csv but data.csv_path is unset")
        if not isinstance(data["csv_path"], str):
            raise ConfigError(f"data.csv_path must be a string, got {data['csv_path']!r}")
        return series.load_csv(data["csv_path"])
    if data["source"] == "synth":
        return series.synthesize(series.SynthSpec(**data["synth"]))
    raise ConfigError(f"unknown data.source {data['source']!r}")


def _one_step(params, scaler, windows) -> tuple[np.ndarray, np.ndarray]:
    """Truth and one-step predictions of the windows, in raw units."""
    yhat = series.unscale_values(predict_batch(params, windows.inputs), scaler)
    return series.unscale_values(windows.targets, scaler), yhat


def cmd_synth(cfg: dict, out: Path, make_svg: bool = False) -> int:
    ts = series.synthesize(series.SynthSpec(**cfg["data"]["synth"]))
    series.save_csv(ts, out / "series.csv")
    if make_svg:
        xs = np.arange(len(ts))
        (out / "series.svg").write_text(svg.line_chart(
            [("series", xs, ts.values, "#1f77b4", "")], title="synthetic series",
            xlabel="day", ylabel="value"))
    print(f"wrote {out / 'series.csv'} ({len(ts)} rows)")
    return 0


def cmd_train(cfg: dict, out: Path, make_svg: bool = False) -> int:
    seed = cfg["seed"]
    # built before the data is read, so a bad model.w is a config error
    mconfig = nn.ModelConfig(**cfg["model"], seed=seed)
    tconfig = TrainConfig(**cfg["train"], seed=seed + 1)
    data = series.prepare(_load_series(cfg), cfg["data"]["train_frac"], mconfig.w)
    t0 = time.perf_counter()
    params, history = nn.init_params(mconfig), []
    stream = epochs(params, tconfig, data.train)
    # each row is on disk as its epoch ends, so an interrupted or diverged
    # run keeps the rows of its finished epochs
    with _csv_writer(out / "loss_history.csv", ["epoch", "train_mse"]) as log:
        for loss in stream:
            history.append(loss)
            log.writerow([len(history), _fmt(loss)])
    # saved before the metrics, so an undefined one never discards the model
    nn.save_checkpoint(out / "checkpoint.json", params, data.scaler)
    # an undefined MAPE or MSLE is reported as null with its reason
    values, undefined = metric_values(*_one_step(params, data.scaler, data.held))
    elapsed = time.perf_counter() - t0
    _write_json(out / "metrics.json", {
        "horizon": 1, **values, **({"undefined": undefined} if undefined else {}),
        "wall_seconds": elapsed,
    })
    for reason in undefined.values():
        print(reason, file=sys.stderr)
    if make_svg:
        (out / "loss.svg").write_text(svg.line_chart(
            [("train MSE", np.arange(1, len(history) + 1), history, "#1f77b4", "")],
            title="training loss", xlabel="epoch", ylabel="mse"))
    shown = {name: "undefined" if v is None else format(v, ".4%" if name == "mape" else ".6g")
             for name, v in values.items()}
    print(f"test one-step rmse={shown['rmse']} mae={shown['mae']} "
          f"mape={shown['mape']} msle={shown['msle']}")
    print(f"wrote {out / 'checkpoint.json'}")
    return 0


def cmd_tune(cfg: dict, out: Path, make_svg: bool = False) -> int:
    seed = cfg["seed"]
    w = cfg["model"]["w"]
    space = bayesopt.SearchSpace(**{k: tuple(v) for k, v in cfg["tune"]["space"].items()})
    # a cell no model accepts is a config error, not a penalized trial
    for name in space.NAMES:
        if getattr(space, name)[0] < 1:
            raise ConfigError(f"tune.space.{name} lower bound must be >= 1")
    if space.kernel_size[1] > w:
        raise ConfigError(f"tune.space.kernel_size upper bound exceeds model.w {w}")
    tconfig = TrainConfig(**{**cfg["train"], "epochs": cfg["tune"]["epochs"]}, seed=seed + 1)
    # the parameters of the cell of every upper bound: too large ones fail here
    nn._zeros(nn.ModelConfig(w=w, **{name: getattr(space, name)[1] for name in space.NAMES}))

    def objective(trial_cfg: dict) -> float:
        params, _ = train_model(nn.ModelConfig(w=w, **trial_cfg, seed=seed), tconfig,
                                data.train)
        # RMSE is defined even where MAPE or MSLE is not
        return metric_values(*_one_step(params, data.scaler, data.held))[0]["rmse"]

    # the arguments and the design are checked here, before the series is
    # read (the first trial reads ``data``) and the log is opened
    trials = bayesopt.trials(objective, space, budget=cfg["tune"]["budget"],
                             init=cfg["tune"]["init"], seed=seed + 3,
                             pool_size=cfg["tune"]["pool_size"], xi=cfg["tune"]["xi"])
    train_ts, _ = series.split(_load_series(cfg), cfg["data"]["train_frac"])
    # tuning objective: validation RMSE on the last 20% of the training
    # segment, so the test segment stays untouched until final training
    data = series.prepare(train_ts, 0.8, w)
    done, best = [], np.inf     # best: TuneResult's incumbent, kept as the trials end
    with _csv_writer(out / "tune_log.csv",
                     ["trial", *space.NAMES, "rmse", "best_so_far", "wall_seconds"]) as log:
        for trial in trials:
            done.append(trial)
            if np.isfinite(trial.objective):
                best = min(best, trial.objective)
            if trial.failed:
                print(f"trial {trial.index} failed: {trial.error}", file=sys.stderr)
            log.writerow([trial.index, *(trial.config[name] for name in space.NAMES),
                          *map(_fmt, (trial.objective, best, trial.wall_seconds))])
    result = bayesopt.TuneResult.of(done)
    _write_json(out / "best_config.json",
                {**result.best_config, "objective_rmse": result.best_objective})
    if make_svg:
        (out / "tuning.svg").write_text(svg.tuning_chart(
            [t.objective for t in result.trials], list(result.incumbent)))
    print(f"best {result.best_config} rmse={result.best_objective:.6g}")
    print(f"wrote {out / 'tune_log.csv'}")
    return 0


def cmd_forecast(cfg: dict, out: Path, checkpoint: str, make_svg: bool = False) -> int:
    ts = _load_series(cfg)      # its config is checked before the checkpoint is read
    params, scaler = nn.load_checkpoint(checkpoint)
    horizon = cfg["horizons"][0]
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


def cmd_explain(cfg: dict, out: Path, checkpoint: str, window_index: int,
                make_svg: bool = False) -> int:
    seed = cfg["seed"]
    econfig = ExplainConfig(**cfg["explain"], seed=seed + 2)
    ts = _load_series(cfg)      # its config is checked before the checkpoint is read
    params, scaler = nn.load_checkpoint(checkpoint)
    w = params.config.w
    data = series.prepare(ts, cfg["data"]["train_frac"], w, scaler)
    if not 0 <= window_index < len(data.held):
        raise ConfigError(
            f"window index {window_index} outside test range [0, {len(data.held)})")
    x = data.held.inputs[window_index]
    background = sample_background(data.train.inputs, econfig.background_size, seed=seed + 2)
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
        "config": asdict(econfig),
    })
    if make_svg:
        mask = [i in result.reported_lags for i in range(w)]
        (out / "influence.svg").write_text(svg.influence_panels(
            x, result.a, result.s, result.c, result.c_smooth, mask))
    print(f"coalitions={result.coalitions} "
          f"model_rows={result.coalitions * len(background)} "
          f"conv_windows={result.conv_windows} se_max={np.max(result.se):.3g} "
          f"workers={result.workers}", file=sys.stderr)
    print(f"prediction={result.prediction:.6g} "
          f"recency_concentration={result.recency_concentration:.2%}")
    print(f"wrote {out / 'influence.csv'}")
    return 0


def cmd_bench(cfg: dict, out: Path, make_svg: bool = False) -> int:
    seed = cfg["seed"]
    runs = cfg["bench"]["runs"]
    if runs < 4:
        raise ConfigError("bench.runs must be >= 4")
    if cfg["bench"]["anchors"] < 1:
        raise ConfigError("bench.anchors must be >= 1")
    mconfig = nn.ModelConfig(**cfg["model"])    # before the data, as in train
    tconfig = TrainConfig(**cfg["train"], seed=seed + 200)
    ts = _load_series(cfg)
    data = series.prepare(ts, cfg["data"]["train_frac"], mconfig.w)
    for horizon in cfg["horizons"]:     # before the first run trains
        anchor_ends(len(ts), data.train_len, mconfig.w, horizon, cfg["bench"]["anchors"])

    names = ("rmse", "mae", "mape", "msle")
    per_run: list[dict] = []
    reasons: dict[str, str] = {}
    first_params = None
    fit_seconds = 0.0
    # each run's row is on disk as the run ends
    with _csv_writer(out / "runs.csv", ["run", *names]) as writer:
        for r in range(runs):
            t0 = time.perf_counter()
            params, _ = train_model(replace(mconfig, seed=seed + 100 + r),
                                    replace(tconfig, seed=seed + 200 + r), data.train)
            fit_seconds += time.perf_counter() - t0
            values, undefined = metric_values(*_one_step(params, data.scaler, data.held))
            per_run.append(values)
            reasons.update(undefined)
            if first_params is None:
                first_params = params
            # an undefined MAPE or MSLE is null in the runs, and so are its stats
            writer.writerow([r, *("null" if values[n] is None else _fmt(values[n])
                                  for n in names)])
    stats_doc = {}
    for name in names:
        vals = [m[name] for m in per_run]
        stats_doc[name] = None if None in vals else vars(run_stats(np.array(vals)))

    t0 = time.perf_counter()
    horizon_doc = {}
    for horizon in cfg["horizons"]:
        model_m, naive_m = horizon_eval(
            first_params, data.scaler, ts.values, data.train_len, horizon,
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
        for name in names:
            if stats_doc[name] is not None:
                (out / f"box_{name}.svg").write_text(svg.box_plot(
                    {name: [m[name] for m in per_run]}, title=f"{name} over {runs} runs"))
    for reason in reasons.values():
        print(reason, file=sys.stderr)
    print(f"{runs} runs: median rmse={stats_doc['rmse']['median']:.6g}")
    print(f"wrote {out / 'bench_report.json'}")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it
    unchanged."""
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


# flag -> the config path it overrides
FLAG_PATHS = {"out": "out_dir", "seed": "seed", "epochs": "train.epochs", "budget": "tune.budget",
              "runs": "bench.runs", "mode": "explain.shap_mode", "horizon": "horizons"}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    overrides = {path: getattr(args, flag) for flag, path in FLAG_PATHS.items()
                 if getattr(args, flag, None) is not None}
    if "horizons" in overrides:
        overrides["horizons"] = [overrides["horizons"]]

    out = None
    try:
        cfg = load_config(args.config, overrides)
        # made here, so that an interrupt can name what the command wrote there
        out, before = _out_dir(cfg, args.command)
        if args.command == "forecast":
            return cmd_forecast(cfg, out, args.checkpoint, args.svg)
        if args.command == "explain":
            return cmd_explain(cfg, out, args.checkpoint, args.window_index, args.svg)
        command = {"synth": cmd_synth, "train": cmd_train, "tune": cmd_tune, "bench": cmd_bench}
        return command[args.command](cfg, out, args.svg)
    except FusecastError as exc:
        print(f"{exc.label}: {exc}", file=sys.stderr)
        return exc.exit_code
    except MemoryError as exc:
        # a config that asks for more memory than the host grants
        print(f"{ConfigError.label}: out of memory: {exc}", file=sys.stderr)
        return ConfigError.exit_code
    except KeyboardInterrupt:
        # Ctrl-C: the shell's code for SIGINT, without a traceback, naming
        # the files that the command wrote before it
        now = _stamps(out) if out else {}
        kept = ", ".join(sorted(name for name in now if before.get(name) != now[name]))
        print(f"interrupted; kept {out}: {kept}" if kept else "interrupted", file=sys.stderr)
        return 130


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
