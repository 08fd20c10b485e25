"""Model fitting, recursive forecasting, error metrics, and multi-run
statistics. A training run is one stream, :func:`epochs`, which trains a
parameter vector in place and yields each epoch's training MSE as that
epoch ends; :func:`train` collects it, and ``fusecast train`` writes each
MSE to ``loss_history.csv`` as it comes. A run holds one parameter vector
and Adam's two moment vectors, and no full gradient: the backward pass writes
each group of the gradient into a window of min(n, ``ADAM_CHUNK`` + the
largest group) elements as it finishes it, and :func:`adam_step` takes the
finished gradients from there, updating the moments and the parameters in
place, in L2-sized chunks (see :func:`_gradient_window`, and :mod:`.nn` for
the flat layout). The package's ``train`` function shadows this module as
``fusecast.train``, so import its other names with
``from fusecast.train import ...``. Wide cells may train with a helper
thread (see :mod:`.blas`)."""

from __future__ import annotations

import bisect
import contextlib
import math
from collections.abc import Callable, Iterator
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
    allocated,
    check_float,
    check_seed,
)
from .nn import (ModelConfig, ModelParams, Workspace, _backward_batch, _forward_batch,
                 init_params)
from .series import ScalerParams, WindowedDataset, scale_values, unscale_values

PREDICT_BLOCK = 32  # windows per forward call in _rollout
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
        for name in ("epochs", "batch_size"):   # as tune's budget: past float64 is an error
            check_float(getattr(self, name), name)
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
              helper: Executor | None = None, start: int = 0) -> ModelParams:
    """One bias-corrected adaptive-moment update of ``params.flat`` by the
    flat gradient, in the textbook formula's operation order, written into
    ``out`` (which may be ``params``) or, without it, into a copy of
    ``params``. ``state`` is advanced in place. The update is elementwise,
    so it runs chunk by chunk, ``ADAM_CHUNK`` elements at a time, with the
    same result bit for bit as over the whole vector; the first half of
    the chunks runs on ``helper`` when given, in scratch rows of its own.

    ``grads`` may be the gradient of a part of the vector only,
    ``flat[start:start + len(grads)]``, which alone is updated. The part
    that reaches the vector's end counts the step, so a step whose parts
    run from the end of the vector downward, as in :func:`train`, counts
    once."""
    if out is None:
        out = ModelParams(params.config, params.flat.copy())
    b1, b2 = config.beta1, config.beta2
    stop = start + len(grads)
    if stop == params.flat.size:
        state.step += 1
    c1, c2 = 1 - b1 ** state.step, 1 - b2 ** state.step

    def update(chunks, scratch):
        for lo in chunks:
            part = slice(lo, min(lo + ADAM_CHUNK, stop))
            m, v, g = state.m[part], state.v[part], grads[lo - start:part.stop - start]
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

    chunks = range(start, stop, ADAM_CHUNK)
    if helper is None:
        update(chunks, state.scratch[0])
    else:
        half = len(chunks) // 2
        task = helper.submit(update, chunks[:half], state.scratch[1])
        update(chunks[half:], state.scratch[0])
        task.result()
    return out


def _gradient_window(params: ModelParams, state: OptState, config: TrainConfig,
                     helper: Executor | None) -> tuple[ModelParams, Callable[[int], None]]:
    """The gradient of a training step in a window of min(n, ADAM_CHUNK +
    the largest group) elements, and the ``done`` callback of
    ``_backward_batch`` that runs Adam on it. Backward finishes the groups
    from the end of the layout (see ``_backward_batch``), and the window
    takes them from its end downward. A group that would not fit below the
    pending gradients first flushes them through :func:`adam_step` into
    ``params``, and the window starts again from its end; the last ``done``
    flushes what is left. Where the window holds all n, the step is one
    Adam call over the window, as over a full gradient vector. The
    placements and flushes depend only on the layout, so they are worked
    out here once a run."""
    n, layers = params.flat.size, params.config.cnn_layers
    bounds = [params.starts[f"conv{i}.kernel"] for i in range(layers)]
    bounds += [params.starts["attn.wq"], n]
    size = min(n, ADAM_CHUNK + max(b - a for a, b in zip(bounds, bounds[1:])))
    # the gradients that wait for Adam are flat[bounds[group + 1]:hi], each
    # flat[i] at window[i - base]
    base, hi, bases, flushes = n - size, n, [0] * (layers + 1), {}
    for group in reversed(range(layers + 1)):
        lo = bounds[group + 1]
        if bounds[group] < base:
            flushes[group + 1] = lo, hi, base
            base, hi = lo - size, lo
        bases[group] = base
    flushes[0] = 0, hi, base
    window = np.empty(size)

    def done(group):
        if group in flushes:
            lo, hi, base = flushes[group]
            adam_step(params, window[lo - base:hi - base], state, config, out=params,
                      helper=helper, start=lo)

    starts = {name: start - bases[bisect.bisect(bounds, start) - 1]
              for name, start in params.starts.items()}
    return ModelParams(params.config, window, starts), done


def train(config: ModelConfig, tconfig: TrainConfig,
          data: WindowedDataset) -> tuple[ModelParams, list[float]]:
    """Fit the model on scaled windows with seeded shuffled mini-batches.

    Returns the trained parameters and the per-epoch training MSE history:
    :func:`epochs` run to its end.
    """
    params = init_params(config)
    return params, list(epochs(params, tconfig, data))


def epochs(params: ModelParams, tconfig: TrainConfig,
           data: WindowedDataset) -> Iterator[float]:
    """Train ``params`` in place on scaled windows with seeded shuffled
    mini-batches, yielding each epoch's training MSE as that epoch ends.

    The data is checked (EmptyDataset, ShapeMismatch) and Adam's state is
    allocated when it is called, before the first epoch. The iteration
    holds numpy's OpenBLAS at one thread and the helper thread, if any,
    and gives both back when it ends or is closed. Raises DivergedLoss as
    soon as a non-finite batch loss appears.
    """
    if len(data) == 0:
        raise EmptyDataset("no training windows")
    if data.w != params.config.w:
        raise ShapeMismatch(f"dataset windows of length {data.w}, model expects {params.config.w}")
    return _epochs(params, tconfig, data, init_opt_state(params))


def _epochs(params, tconfig, data, state):
    """The iteration of :func:`epochs`, over checked data and Adam's state."""
    rng = np.random.default_rng(tconfig.seed)
    n, batch = len(data), tconfig.batch_size
    with contextlib.ExitStack() as stack:
        stack.enter_context(blas.one_thread())
        # decided under the pin, which the split rule reads
        split = blas.splits(params.config, min(batch, n))
        helper = stack.enter_context(ThreadPoolExecutor(1)) if blas.use_helper(split) else None
        # one workspace for the run; a partial last batch runs in a view of it
        workspace = Workspace(params.config, min(batch, n), helper, split)
        grads, done = _gradient_window(params, state, tconfig, helper)
        for _ in range(tconfig.epochs):
            order = rng.permutation(n)
            sse = 0.0
            for start in range(0, n, batch):
                idx = order[start:start + batch]
                xb, yb, ws = data.inputs[idx], data.targets[idx], workspace.view(len(idx))
                # a diverging step overflows on its way to the non-finite
                # loss reported below, so numpy's overflow warnings carry
                # nothing more
                with np.errstate(over="ignore", invalid="ignore"):
                    yhat = _forward_batch(params, xb, workspace=ws)[0]
                    loss, dl_dy = mse_loss(yhat, yb)
                if not math.isfinite(loss):
                    raise DivergedLoss(f"non-finite training loss at step {state.step + 1}")
                sse += loss * len(idx)
                # backward runs Adam on each group of the gradient it finishes
                _backward_batch(params, ws, dl_dy, out=grads, done=done)
            yield sse / n


def predict_batch(params: ModelParams, windows: np.ndarray) -> np.ndarray:
    """One-step predictions for scaled windows (N, w), in scaled units: a
    rollout of one step."""
    return _rollout(params, windows, 1)[:, 0]


@blas.one_thread()
def _rollout(params: ModelParams, windows: np.ndarray, horizon: int) -> np.ndarray:
    """Recursive forecasts (N, horizon) from scaled windows (N, w). The
    windows run in blocks of ``PREDICT_BLOCK`` in one inference workspace,
    a remainder block in a view of it, so memory is bounded by the block,
    not by N. Each step of a block is one forward call, whose predictions
    are appended as the block's windows slide."""
    if horizon < 1:
        raise InvalidSpec("horizon must be >= 1")
    windows = np.asarray(windows, dtype=np.float64)
    if windows.ndim != 2 or windows.shape[1] != params.config.w:
        raise ShapeMismatch(f"expected (N, {params.config.w}) windows, got {windows.shape}")
    preds = allocated(f"forecasts of shape ({len(windows)}, {horizon})", np.empty,
                      (len(windows), horizon))
    if len(windows):
        workspace = Workspace(params.config, min(len(windows), PREDICT_BLOCK), training=False)
    for start in range(0, len(windows), PREDICT_BLOCK):
        block = windows[start:start + PREDICT_BLOCK]
        ws = workspace.view(len(block))
        for i in range(horizon):
            yhat = _forward_batch(params, block, workspace=ws)[0]
            preds[start:start + len(block), i] = yhat
            block = np.concatenate([block[:, 1:], yhat[:, None]], axis=1)
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


def anchor_ends(n_values: int, train_len: int, w: int, horizon: int,
                n_anchors: int = 10) -> np.ndarray:
    """Where :func:`horizon_eval`'s windows end in a series of ``n_values``
    points: up to ``n_anchors`` evenly spaced points of the test segment, each
    with ``horizon`` test points after it and ``w`` points before it."""
    if n_anchors < 1:
        raise InvalidSpec(f"n_anchors must be >= 1, got {n_anchors}")
    n_test = n_values - train_len
    if n_test < horizon:
        raise EmptyDataset(f"test segment of {n_test} too short for horizon {horizon}")
    last_start = n_test - horizon
    k = min(n_anchors, last_start + 1)
    ends = train_len + np.unique(np.linspace(0, last_start, k).astype(int))
    if ends[0] < w:
        raise ShapeMismatch(f"training segment of {train_len} shorter than window {w}")
    return ends


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
    values = np.asarray(values, dtype=np.float64)
    w = params.config.w
    ends = anchor_ends(len(values), train_len, w, horizon, n_anchors)
    windows = np.stack([values[end - w:end] for end in ends])
    model_pred = unscale_values(_rollout(params, scale_values(windows, scaler), horizon), scaler)
    truth = [values[end:end + horizon] for end in ends]
    naive_pred = [persistence_forecast(values[end - 1], horizon) for end in ends]
    y = np.concatenate(truth)
    return (MetricsReport(**metric_values(y, model_pred.ravel())[0]),
            MetricsReport(**metric_values(y, np.concatenate(naive_pred))[0]))
