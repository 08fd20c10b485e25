"""Model fitting, recursive forecasting, error metrics, and multi-run
statistics."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import stats as sstats

from .errors import (
    DivergedLoss,
    EmptyDataset,
    EmptyInput,
    InvalidSpec,
    LengthMismatch,
    MapeUndefined,
    MsleUndefined,
    ShapeMismatch,
    TooFewSamples,
    ZeroVarianceShapeStats,
)
from .nn import Gradients, ModelConfig, ModelParams, _backward_batch, _forward_batch, init_params
from .series import ScalerParams, WindowedDataset, scale_values, unscale_values

PREDICT_BLOCK = 32  # rows per forward call in predict_batch


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 100
    batch_size: int = 32
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1:
            raise InvalidSpec("epochs and batch_size must be >= 1")
        if self.learning_rate <= 0 or self.eps <= 0:
            raise InvalidSpec("learning_rate and eps must be > 0")
        if not (0 < self.beta1 < 1 and 0 < self.beta2 < 1):
            raise InvalidSpec("beta1 and beta2 must lie in (0, 1)")


@dataclass
class OptState:
    """Adaptive-moment accumulators, one pair per parameter tensor."""

    m: dict
    v: dict
    step: int = 0


@dataclass(frozen=True)
class MetricsReport:
    """The four error measures, raw units; mape is a fraction."""

    rmse: float
    mae: float
    mape: float
    msle: float


@dataclass(frozen=True)
class RunStats:
    mean: float
    std: float
    min: float
    max: float
    median: float
    q1: float
    q3: float
    range: float
    iqr: float
    skewness: float
    excess_kurtosis: float


def mse_loss(yhat: np.ndarray, y: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean squared error and its gradient 2*(yhat - y)/n."""
    yhat = np.asarray(yhat, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if yhat.shape != y.shape:
        raise LengthMismatch(f"shapes differ: {yhat.shape} vs {y.shape}")
    if yhat.size == 0:
        raise EmptyInput("mse_loss needs at least one element")
    diff = yhat - y
    return float(np.mean(diff * diff)), 2.0 * diff / diff.size


def init_opt_state(params: ModelParams) -> OptState:
    zeros = {name: np.zeros_like(t) for name, t in params.tensors().items()}
    return OptState(m=zeros, v={name: z.copy() for name, z in zeros.items()}, step=0)


def adam_step(params: ModelParams, grads: Gradients | dict, state: OptState,
              config: TrainConfig) -> tuple[ModelParams, OptState]:
    """One bias-corrected adaptive-moment update, applied elementwise."""
    gdict = grads.tensors() if isinstance(grads, Gradients) else grads
    tensors = params.tensors()
    if set(gdict) != set(tensors):
        raise ShapeMismatch("gradient tensors do not match parameter tensors")
    t = state.step + 1
    new_tensors, new_m, new_v = {}, {}, {}
    for name, theta in tensors.items():
        g = gdict[name]
        if g.shape != theta.shape:
            raise ShapeMismatch(f"gradient {name} has shape {g.shape}, expected {theta.shape}")
        m = config.beta1 * state.m[name] + (1 - config.beta1) * g
        v = config.beta2 * state.v[name] + (1 - config.beta2) * g * g
        m_hat = m / (1 - config.beta1 ** t)
        v_hat = v / (1 - config.beta2 ** t)
        new_tensors[name] = theta - config.learning_rate * m_hat / (np.sqrt(v_hat) + config.eps)
        new_m[name] = m
        new_v[name] = v
    return params.with_tensors(new_tensors), OptState(m=new_m, v=new_v, step=t)


def train(config: ModelConfig, tconfig: TrainConfig,
          data: WindowedDataset) -> tuple[ModelParams, list[float]]:
    """Fit the model on scaled windows with seeded shuffled mini-batches.

    Returns the trained parameters and the per-epoch training MSE history.
    Raises DivergedLoss as soon as a non-finite batch loss appears.
    """
    if len(data) == 0:
        raise EmptyDataset("no training windows")
    if data.w != config.w:
        raise ShapeMismatch(f"dataset windows of length {data.w}, model expects {config.w}")
    params = init_params(config)
    state = init_opt_state(params)
    rng = np.random.default_rng(tconfig.seed)
    history: list[float] = []
    n = len(data)
    for _ in range(tconfig.epochs):
        order = rng.permutation(n)
        sse = 0.0
        for start in range(0, n, tconfig.batch_size):
            idx = order[start:start + tconfig.batch_size]
            xb, yb = data.inputs[idx], data.targets[idx]
            yhat, cache = _forward_batch(params, xb)
            loss, dl_dy = mse_loss(yhat, yb)
            if not np.isfinite(loss):
                raise DivergedLoss(f"non-finite training loss at step {state.step + 1}")
            sse += loss * len(idx)
            grads = _backward_batch(params, cache, dl_dy)
            params, state = adam_step(params, grads, state, tconfig)
        history.append(sse / n)
    return params, history


def predict_batch(params: ModelParams, windows: np.ndarray) -> np.ndarray:
    """One-step predictions for scaled windows (N, w), in scaled units.

    Evaluated in blocks of ``PREDICT_BLOCK`` rows, so the forward cache and
    im2col buffers are bounded by the block, not by N.
    """
    windows = np.asarray(windows, dtype=np.float64)
    blocks = [_forward_batch(params, windows[i:i + PREDICT_BLOCK])[0]
              for i in range(0, max(len(windows), 1), PREDICT_BLOCK)]
    return np.concatenate(blocks)


def forecast_recursive(params: ModelParams, scaler: ScalerParams,
                       last_window: np.ndarray, horizon: int) -> np.ndarray:
    """Autoregressive multi-step forecast.

    ``last_window`` holds the most recent raw-unit values (length w). Each
    step predicts one value in scaled space, appends it, and slides the
    window; the returned horizon values are inverse-scaled back to raw units.
    """
    if horizon < 1:
        raise InvalidSpec("horizon must be >= 1")
    last_window = np.asarray(last_window, dtype=np.float64)
    if last_window.shape != (params.config.w,):
        raise ShapeMismatch(
            f"expected window of length {params.config.w}, got {last_window.shape}"
        )
    window = scale_values(last_window, scaler)
    preds_scaled = np.empty(horizon)
    for i in range(horizon):
        yhat, _ = _forward_batch(params, window[None])
        preds_scaled[i] = yhat[0]
        window = np.concatenate([window[1:], yhat])
    return unscale_values(preds_scaled, scaler)


def persistence_forecast(last_value: float, horizon: int) -> np.ndarray:
    """Naive reference: repeat the last observed value across the horizon."""
    if horizon < 1:
        raise InvalidSpec("horizon must be >= 1")
    return np.full(horizon, float(last_value))


def metrics(y: np.ndarray, yhat: np.ndarray) -> MetricsReport:
    """RMSE, MAE, MAPE (fraction), and MSLE (log1p convention) of a
    prediction against the truth."""
    y = np.asarray(y, dtype=np.float64)
    yhat = np.asarray(yhat, dtype=np.float64)
    if y.shape != yhat.shape or y.ndim != 1:
        raise LengthMismatch(f"shapes differ: {y.shape} vs {yhat.shape}")
    if y.size == 0:
        raise EmptyInput("metrics need at least one element")
    if np.any(y == 0.0):
        raise MapeUndefined("MAPE undefined: some true values are zero")
    if np.any(y <= -1.0) or np.any(yhat <= -1.0):
        raise MsleUndefined("MSLE undefined: log1p argument <= -1")
    err = yhat - y
    rmse = float(np.sqrt(np.mean(err * err)))
    mae = float(np.mean(np.abs(err)))
    mape = float(np.mean(np.abs(err / y)))
    log_err = np.log1p(yhat) - np.log1p(y)
    msle = float(np.mean(log_err * log_err))
    return MetricsReport(rmse=rmse, mae=mae, mape=mape, msle=msle)


def run_stats(values: np.ndarray) -> RunStats:
    """Summary statistics for a collection of per-run scores: quartiles by
    linear interpolation of order statistics, adjusted Fisher-Pearson
    skewness, bias-adjusted excess kurtosis."""
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 1 or values.size < 4:
        raise TooFewSamples("run_stats needs at least 4 values")
    if np.all(values == values[0]):
        raise ZeroVarianceShapeStats("shape statistics undefined for constant samples")
    q1, med, q3 = np.percentile(values, [25, 50, 75])
    vmin, vmax = float(values.min()), float(values.max())
    return RunStats(
        mean=float(values.mean()),
        std=float(values.std(ddof=1)),
        min=vmin,
        max=vmax,
        median=float(med),
        q1=float(q1),
        q3=float(q3),
        range=vmax - vmin,
        iqr=float(q3 - q1),
        skewness=float(sstats.skew(values, bias=False)),
        excess_kurtosis=float(sstats.kurtosis(values, fisher=True, bias=False)),
    )


def horizon_eval(params: ModelParams, scaler: ScalerParams, values: np.ndarray,
                 train_len: int, horizon: int, n_anchors: int = 10
                 ) -> tuple[MetricsReport, MetricsReport]:
    """Rolled-out evaluation over the test segment of a raw series.

    From each of ``n_anchors`` evenly spaced anchor points in the test
    segment, forecast ``horizon`` steps recursively and pool the (truth,
    forecast) pairs; the persistence baseline repeats the last pre-anchor
    value. Returns (model metrics, persistence metrics) in raw units.
    """
    values = np.asarray(values, dtype=np.float64)
    w = params.config.w
    n_test = len(values) - train_len
    if n_test < horizon:
        raise EmptyDataset(f"test segment of {n_test} too short for horizon {horizon}")
    last_start = n_test - horizon
    k = min(n_anchors, last_start + 1)
    anchors = np.unique(np.linspace(0, last_start, k).astype(int))
    truth, model_pred, naive_pred = [], [], []
    for a in anchors:
        end = train_len + a
        window = values[end - w:end]
        truth.append(values[end:end + horizon])
        model_pred.append(forecast_recursive(params, scaler, window, horizon))
        naive_pred.append(persistence_forecast(values[end - 1], horizon))
    y = np.concatenate(truth)
    return metrics(y, np.concatenate(model_pred)), metrics(y, np.concatenate(naive_pred))
