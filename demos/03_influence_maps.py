"""Explain a single forecast: per-lag Shapley attributions, mean attention
mass, and their element-wise product smoothed into an influence map.

    python3 demos/03_influence_maps.py

Outputs land in ./demo_out/03/.
"""

from pathlib import Path

import numpy as np

from fusecast import (
    ExplainConfig,
    ModelConfig,
    SynthSpec,
    TimeSeries,
    TrainConfig,
    explain,
    prepare,
    sample_background,
    synthesize,
    train,
)
from fusecast.svg import influence_panels

OUT = Path("demo_out/03")
OUT.mkdir(parents=True, exist_ok=True)

base = synthesize(SynthSpec(length=800, period=80, amplitude=30.0,
                            noise_std=1.5, ar_coeff=0.6, seed=3))
series = TimeSeries(base.timestamps, base.values + 200.0)
w = 15  # beyond the exact-enumeration cap, so use permutation sampling
data = prepare(series, 0.8, w)

params, _ = train(ModelConfig(w=w, cnn_layers=2, filters=12, kernel_size=3,
                              heads=2, seed=0),
                  TrainConfig(epochs=40, seed=1), data.train)
print("model trained; explaining the first window of the test segment")

x = data.held.inputs[0]
background = sample_background(data.train.inputs, 16, seed=5)
config = ExplainConfig(shap_mode="sampled", sample_permutations=150,
                       smoothing_sigma=2.0, seed=5)
result = explain(params, x, background, config)

print(f"prediction (scaled units): {result.prediction:+.4f}, "
      f"background base value: {result.base_value:+.4f}")
print(f"additivity check: base + sum(s) = "
      f"{result.base_value + result.s.sum():+.4f}")
print(f"attention mass sums to {result.a.sum():.6f}")
print(f"recency concentration (last 10 lags): {result.recency_concentration:.1%}")

order = np.argsort(-np.abs(result.s))
print("strongest lags by |shap| (lag 1 = most recent):")
for i in order[:3]:
    lag = w - i
    print(f"  t-{lag}: shap {result.s[i]:+.4f}, attention {result.a[i]:.4f}, "
          f"combined {result.c[i]:+.5f}")

mask = [i in result.reported_lags for i in range(w)]
dropped = [f"t-{w - i}" for i in range(w) if not mask[i]]
print(f"edge-dropped lags (erratic near the window border): {dropped}")

(OUT / "influence.svg").write_text(influence_panels(
    x, result.a, result.s, result.c, result.c_smooth, mask))
print(f"wrote {OUT}/influence.svg (window, attention, shap, combined panels)")
