"""Walk through the core pipeline: synthesize a seasonal daily series,
scale and window it, train the hybrid conv-attention forecaster, and
compare a 15-step recursive forecast against the persistence baseline.

Run from the repository root:

    python3 demos/01_data_and_model.py

Outputs land in ./demo_out/01/.
"""

from pathlib import Path

import numpy as np

from fusecast import (
    ModelConfig,
    SynthSpec,
    TimeSeries,
    TrainConfig,
    forecast_recursive,
    horizon_eval,
    metrics,
    persistence_forecast,
    prepare,
    synthesize,
    train,
)
from fusecast.svg import line_chart

OUT = Path("demo_out/01")
OUT.mkdir(parents=True, exist_ok=True)

# A flow-like record: annual seasonality around a positive level, with
# autocorrelated day-to-day noise. The offset keeps every value positive so
# percentage errors stay meaningful.
base = synthesize(SynthSpec(length=2000, period=365, amplitude=100.0,
                            noise_std=2.0, ar_coeff=0.7, seed=42))
series = TimeSeries(base.timestamps, base.values + 500.0)
print(f"series: {len(series)} days, range [{series.values.min():.1f}, "
      f"{series.values.max():.1f}]")

# Chronological 80/20 split; the scaler is fitted on the training segment
# only, then applied everywhere. Supervised windows: 15 lags in, next value
# out. Training windows are the ones whose target still falls inside the
# training segment; the rest are held out.
w = 15
data = prepare(series, 0.8, w)
scaler = data.scaler
print(f"split: {data.train_len} train / {len(series) - data.train_len} test, "
      f"scaler mean={scaler.mean:.2f} std={scaler.std:.2f}")
print(f"windows: {len(data.train)} training pairs of length {w}")

# Train with everything at its defaults: 2 causal conv layers of 16 filters,
# 2 attention heads, 100 epochs of Adam on mini-batches of 32.
config = ModelConfig(w=w, seed=0)
params, history = train(config, TrainConfig(seed=1), data.train)
print(f"training MSE: {history[0]:.4f} (epoch 1) -> {history[-1]:.6f} (epoch {len(history)})")

# Multi-step skill: recursive 15-step rollouts from 10 anchors across the
# test segment, pooled, against the repeat-last-value baseline.
model_m, naive_m = horizon_eval(params, scaler, series.values, data.train_len,
                                horizon=15, n_anchors=10)
print(f"horizon-15 model: rmse={model_m.rmse:.2f} mae={model_m.mae:.2f} "
      f"mape={model_m.mape:.2%} msle={model_m.msle:.2e}")
print(f"horizon-15 naive: rmse={naive_m.rmse:.2f} mae={naive_m.mae:.2f} "
      f"mape={naive_m.mape:.2%}")

# One concrete forecast to look at, starting where the test segment begins.
anchor = data.train_len
window = series.values[anchor - w:anchor]
truth = series.values[anchor:anchor + 15]
pred = forecast_recursive(params, scaler, window, 15)
naive = persistence_forecast(window[-1], 15)
single = metrics(truth, pred)
print(f"first-anchor forecast rmse={single.rmse:.2f} (naive "
      f"{metrics(truth, naive).rmse:.2f})")

steps = np.arange(1, 16)
(OUT / "forecast.svg").write_text(line_chart(
    [("truth", steps, truth, "#333", ""),
     ("model", steps, pred, "#d62728", ""),
     ("persistence", steps, naive, "#1f77b4", "4,3")],
    title="15-step forecast at the first test anchor", xlabel="step ahead"))
(OUT / "loss.svg").write_text(line_chart(
    [("train MSE", np.arange(1, len(history) + 1), history, "#1f77b4", "")],
    title="training loss", xlabel="epoch", ylabel="mse"))
print(f"wrote {OUT}/forecast.svg and {OUT}/loss.svg")
