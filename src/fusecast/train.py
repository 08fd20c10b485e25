"""Model fitting, recursive forecasting, error metrics, and multi-run
statistics. :func:`train` holds one parameter vector, one gradient vector
and Adam's two moment vectors for the whole run: the backward pass fills
the gradient in place, and :func:`adam_step` updates the moments and the
parameters in place, walking them in L2-sized chunks (see :mod:`.nn` for
the flat layout). The package's ``train`` function shadows this module as
``fusecast.train``, so import its other names with
``from fusecast.train import ...``. Wide cells may train with a helper
thread (see :mod:`.blas`)."""

from __future__ import annotations

import contextlib
import math
from concurrent.futures import Executor, ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import blas
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
    check_seed,
)
from .nn import (ModelConfig, ModelParams, Workspace, _backward_batch, _forward_batch,
                 init_params)
from .series import ScalerParams, WindowedDataset, scale_values, unscale_values

PREDICT_BLOCK = 32  # rows per forward call in predict_batch
# elements per Adam chunk: the six float64 slices one chunk touches (m, v,
# gradient, parameters, two scratch) take 128 KB each and fit a 2 MB L2
ADAM_CHUNK = 16384


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
        for name in ("learning_rate", "eps"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise InvalidSpec(f"{name} must be finite and > 0, got {value!r}")
        if not (0 < self.beta1 < 1 and 0 < self.beta2 < 1):
            raise InvalidSpec("beta1 and beta2 must lie in (0, 1)")
        check_seed(self.seed)


@dataclass
class OptState:
    """Adam's moments over ``ModelParams.flat``, updated in place, and two
    pairs of scratch rows of at most ``ADAM_CHUNK`` elements: the second
    pair serves a helper thread (see :func:`adam_step`)."""

    m: np.ndarray
    v: np.ndarray
    scratch: np.ndarray
    step: int = 0


@dataclass(frozen=True)
class MetricsReport:
    """The four error measures, raw units; mape is a fraction. From
    :func:`horizon_eval` an undefined MAPE or MSLE is None."""

    rmse: float
    mae: float
    mape: float | None
    msle: float | None


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
    return float(np.add.reduce(diff * diff, axis=None)) / diff.size, 2.0 * diff / diff.size


def init_opt_state(params: ModelParams) -> OptState:
    n = params.flat.size
    return OptState(m=np.zeros(n), v=np.zeros(n), scratch=np.empty((2, 2, min(n, ADAM_CHUNK))))


def adam_step(params: ModelParams, grads: np.ndarray, state: OptState,
              config: TrainConfig, *, out: ModelParams | None = None,
              helper: Executor | None = None) -> ModelParams:
    """One bias-corrected adaptive-moment update of ``params.flat`` by the
    flat gradient, in the textbook formula's operation order, written into
    ``out`` (which may be ``params``) or, without it, into a new
    ModelParams. ``state`` is advanced in place. The update is elementwise,
    so it runs chunk by chunk, ``ADAM_CHUNK`` elements at a time, with the
    same result bit for bit as over the whole vector; the first half of
    the chunks runs on ``helper`` when given, in scratch rows of its own."""
    if out is None:
        out = ModelParams(params.config, np.empty_like(params.flat))
    b1, b2 = config.beta1, config.beta2
    state.step += 1
    c1, c2 = 1 - b1 ** state.step, 1 - b2 ** state.step

    def update(starts, scratch):
        for start in starts:
            part = slice(start, start + ADAM_CHUNK)
            m, v, g = state.m[part], state.v[part], grads[part]
            s, theta = scratch[:, :len(m)]
            m *= b1
            m += np.multiply(1 - b1, g, out=s)
            v *= b2
            np.multiply(1 - b2, g, out=s)
            s *= g
            v += s
            np.divide(v, c2, out=s)
            np.sqrt(s, out=s)
            s += config.eps
            np.divide(m, c1, out=theta)
            theta *= config.learning_rate
            theta /= s
            np.subtract(params.flat[part], theta, out=out.flat[part])

    starts = range(0, params.flat.size, ADAM_CHUNK)
    if helper is None:
        update(starts, state.scratch[0])
    else:
        half = len(starts) // 2
        task = helper.submit(update, starts[:half], state.scratch[1])
        update(starts[half:], state.scratch[0])
        task.result()
    return out


@blas.one_thread()
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
    grads = ModelParams(config, np.empty_like(params.flat))
    state = init_opt_state(params)
    rng = np.random.default_rng(tconfig.seed)
    history: list[float] = []
    n, batch = len(data), tconfig.batch_size
    # one workspace for full batches and one for a partial last batch
    splits = {size: blas.splits(config, size) for size in {min(batch, n), n % batch} if size}
    with (ThreadPoolExecutor(1) if blas.use_helper(splits.values())
          else contextlib.nullcontext()) as helper:
        workspaces = {size: Workspace(config, size, helper, split)
                      for size, split in splits.items()}
        for _ in range(tconfig.epochs):
            order = rng.permutation(n)
            sse = 0.0
            for start in range(0, n, batch):
                idx = order[start:start + batch]
                xb, yb = data.inputs[idx], data.targets[idx]
                # a diverging step overflows on its way to the non-finite
                # loss reported below, so numpy's overflow warnings carry
                # nothing more
                with np.errstate(over="ignore", invalid="ignore"):
                    yhat, cache = _forward_batch(params, xb, workspace=workspaces[len(idx)])
                    loss, dl_dy = mse_loss(yhat, yb)
                if not math.isfinite(loss):
                    raise DivergedLoss(f"non-finite training loss at step {state.step + 1}")
                sse += loss * len(idx)
                _backward_batch(params, cache, dl_dy, out=grads)
                adam_step(params, grads.flat, state, tconfig, out=params, helper=helper)
            history.append(sse / n)
    return params, history


@blas.one_thread()
def predict_batch(params: ModelParams, windows: np.ndarray) -> np.ndarray:
    """One-step predictions for scaled windows (N, w), in scaled units.

    Evaluated in blocks of ``PREDICT_BLOCK`` rows, in one inference
    workspace for the full blocks and one for the remainder, made in turn,
    so memory is bounded by the block, not by N.
    """
    windows = np.asarray(windows, dtype=np.float64)
    blocks, ws = [], None
    for i in range(0, max(len(windows), 1), PREDICT_BLOCK):
        xb = windows[i:i + PREDICT_BLOCK]
        if ws is None or ws.batch != len(xb):
            ws = Workspace(params.config, len(xb), training=False)
        blocks.append(_forward_batch(params, xb, workspace=ws)[0])
    return np.concatenate(blocks)


@blas.one_thread()
def _rollout(params: ModelParams, windows: np.ndarray, horizon: int) -> np.ndarray:
    """Recursive forecasts (n, horizon) from scaled windows (n, w): each step
    is one forward call over all n windows, in one inference workspace,
    whose predictions are appended as the windows slide."""
    if horizon < 1:
        raise InvalidSpec("horizon must be >= 1")
    preds = np.empty((len(windows), horizon))
    workspace = Workspace(params.config, len(windows), training=False)
    for i in range(horizon):
        yhat, _ = _forward_batch(params, windows, workspace=workspace)
        preds[:, i] = yhat
        windows = np.concatenate([windows[:, 1:], yhat[:, None]], axis=1)
    return preds


def forecast_recursive(params: ModelParams, scaler: ScalerParams,
                       last_window: np.ndarray, horizon: int) -> np.ndarray:
    """Autoregressive multi-step forecast.

    ``last_window`` holds the most recent raw-unit values (length w). Each
    step predicts one value in scaled space, appends it, and slides the
    window; the returned horizon values are inverse-scaled back to raw units.
    """
    last_window = np.asarray(last_window, dtype=np.float64)
    if last_window.shape != (params.config.w,):
        raise ShapeMismatch(
            f"expected window of length {params.config.w}, got {last_window.shape}"
        )
    window = scale_values(last_window, scaler)
    return unscale_values(_rollout(params, window[None], horizon)[0], scaler)


def persistence_forecast(last_value: float, horizon: int) -> np.ndarray:
    """Naive reference: repeat the last observed value across the horizon."""
    if horizon < 1:
        raise InvalidSpec("horizon must be >= 1")
    return np.full(horizon, float(last_value))


def metric_values(y: np.ndarray, yhat: np.ndarray) -> tuple[dict, dict]:
    """RMSE, MAE, MAPE (fraction), and MSLE (log1p convention) of a
    prediction against the truth, by name. An undefined MAPE or MSLE is
    None, with its reason under the same name in the second dict."""
    y = np.asarray(y, dtype=np.float64)
    yhat = np.asarray(yhat, dtype=np.float64)
    if y.shape != yhat.shape or y.ndim != 1:
        raise LengthMismatch(f"shapes differ: {y.shape} vs {yhat.shape}")
    if y.size == 0:
        raise EmptyInput("metrics need at least one element")
    err = yhat - y
    values = {"rmse": float(np.sqrt(np.mean(err * err))), "mae": float(np.mean(np.abs(err))),
              "mape": None, "msle": None}
    undefined = {}
    if np.any(y == 0.0):
        undefined["mape"] = "MAPE undefined: some true values are zero"
    else:
        values["mape"] = float(np.mean(np.abs(err / y)))
    if np.any(y <= -1.0) or np.any(yhat <= -1.0):
        undefined["msle"] = "MSLE undefined: log1p argument <= -1"
    else:
        log_err = np.log1p(yhat) - np.log1p(y)
        values["msle"] = float(np.mean(log_err * log_err))
    return values, undefined


def metrics(y: np.ndarray, yhat: np.ndarray) -> MetricsReport:
    """:func:`metric_values` as a report; raises MapeUndefined or
    MsleUndefined when a measure is undefined."""
    values, undefined = metric_values(y, yhat)
    if "mape" in undefined:
        raise MapeUndefined(undefined["mape"])
    if "msle" in undefined:
        raise MsleUndefined(undefined["msle"])
    return MetricsReport(**values)


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
    # scipy.stats.skew and kurtosis (bias=False), operation for operation so
    # the bits match; NaN where the second moment is lost to rounding
    n, mean = values.size, values.mean()
    dev = values - mean
    m2, m3, m4 = np.mean(dev**2), np.mean(dev**2 * dev), np.mean((dev**2)**2)
    if m2 <= (np.finfo(np.float64).eps * mean)**2:
        skew = kurt = math.nan
    else:
        skew = ((n - 1.0) * n)**0.5 / (n - 2.0) * m3 / m2**1.5
        kurt = 1.0 / (n - 2) / (n - 3) * ((n**2 - 1.0) * m4 / m2**2.0 - 3 * (n - 1)**2.0) + 3.0 - 3
    return RunStats(
        mean=float(mean),
        std=float(values.std(ddof=1)),
        min=vmin,
        max=vmax,
        median=float(med),
        q1=float(q1),
        q3=float(q3),
        range=vmax - vmin,
        iqr=float(q3 - q1),
        skewness=float(skew),
        excess_kurtosis=float(kurt),
    )


def horizon_eval(params: ModelParams, scaler: ScalerParams, values: np.ndarray,
                 train_len: int, horizon: int, n_anchors: int = 10
                 ) -> tuple[MetricsReport, MetricsReport]:
    """Rolled-out evaluation over the test segment of a raw series.

    From each of ``n_anchors`` evenly spaced anchor points in the test
    segment, forecast ``horizon`` steps recursively and pool the (truth,
    forecast) pairs; the persistence baseline repeats the last pre-anchor
    value. Returns (model metrics, persistence metrics) in raw units, from
    :func:`metric_values`, so an undefined MAPE or MSLE is None.
    """
    if n_anchors < 1:
        raise InvalidSpec(f"n_anchors must be >= 1, got {n_anchors}")
    values = np.asarray(values, dtype=np.float64)
    w = params.config.w
    n_test = len(values) - train_len
    if n_test < horizon:
        raise EmptyDataset(f"test segment of {n_test} too short for horizon {horizon}")
    last_start = n_test - horizon
    k = min(n_anchors, last_start + 1)
    anchors = np.unique(np.linspace(0, last_start, k).astype(int))
    ends = train_len + anchors
    if ends[0] < w:
        raise ShapeMismatch(f"training segment of {train_len} shorter than window {w}")
    windows = np.stack([values[end - w:end] for end in ends])
    model_pred = unscale_values(_rollout(params, scale_values(windows, scaler), horizon), scaler)
    truth = [values[end:end + horizon] for end in ends]
    naive_pred = [persistence_forecast(values[end - 1], horizon) for end in ends]
    y = np.concatenate(truth)
    return (MetricsReport(**metric_values(y, model_pred.ravel())[0]),
            MetricsReport(**metric_values(y, np.concatenate(naive_pred))[0]))
