"""Variability across random restarts: train the same model from several
seeds, collect the four error measures per run, and summarize them with
quartiles, shape statistics, and a box plot (median, IQR box, 1.5*IQR
whiskers, outlier dots).

    python3 demos/04_run_statistics.py

Outputs land in ./demo_out/04/.
"""

from pathlib import Path

import numpy as np

from fusecast import (
    ModelConfig,
    SynthSpec,
    TimeSeries,
    TrainConfig,
    metrics,
    prepare,
    run_stats,
    synthesize,
    train,
)
from fusecast.series import unscale_values
from fusecast.svg import box_plot
from fusecast.train import predict_batch

OUT = Path("demo_out/04")
OUT.mkdir(parents=True, exist_ok=True)

base = synthesize(SynthSpec(length=600, period=60, amplitude=20.0,
                            noise_std=1.0, ar_coeff=0.5, seed=8))
series = TimeSeries(base.timestamps, base.values + 100.0)
w = 10
data = prepare(series, 0.8, w)

runs = 12
print(f"{runs} runs with fresh random weights, identical data")
per_run = []
for r in range(runs):
    params, _ = train(ModelConfig(w=w, cnn_layers=2, filters=12, kernel_size=3,
                                  heads=2, seed=100 + r),
                      TrainConfig(epochs=25, seed=200 + r), data.train)
    yhat = unscale_values(predict_batch(params, data.held.inputs), data.scaler)
    y = unscale_values(data.held.targets, data.scaler)
    per_run.append(metrics(y, yhat))
    print(f"  run {r:2d}: rmse={per_run[-1].rmse:.3f} mae={per_run[-1].mae:.3f}")

for name in ("rmse", "mae", "mape", "msle"):
    vals = np.array([getattr(m, name) for m in per_run])
    s = run_stats(vals)
    print(f"{name:5s}: mean={s.mean:.4g} std={s.std:.4g} median={s.median:.4g} "
          f"iqr=[{s.q1:.4g}, {s.q3:.4g}] skew={s.skewness:+.2f} "
          f"kurtosis={s.excess_kurtosis:+.2f}")

(OUT / "boxes.svg").write_text(box_plot(
    {"rmse": [m.rmse for m in per_run], "mae": [m.mae for m in per_run]},
    title=f"error spread over {runs} random restarts"))
print(f"wrote {OUT}/boxes.svg")
