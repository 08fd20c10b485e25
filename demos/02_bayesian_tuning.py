"""Gaussian-process hyperparameter search with Expected Improvement.

Two searches are shown: a fast one on a synthetic quadratic surface (so the
mechanics are easy to see), then a short real search that trains a small
model per trial and minimizes validation RMSE.

    python3 demos/02_bayesian_tuning.py

Outputs land in ./demo_out/02/.
"""

from pathlib import Path

from fusecast import (
    ModelConfig,
    SearchSpace,
    SynthSpec,
    TrainConfig,
    prepare,
    split,
    synthesize,
    train,
    tune,
)
from fusecast.series import unscale_values
from fusecast.svg import tuning_chart
from fusecast.train import metrics, predict_batch

OUT = Path("demo_out/02")
OUT.mkdir(parents=True, exist_ok=True)

space = SearchSpace()  # cnn_layers 1-12, heads 2-5, filters 16-256, kernel 2-5
print(f"search space: {space}")

# --- 1. synthetic surface -------------------------------------------------
# A separable quadratic with its minimum inside the grid. Budget 30: five
# space-filling trials, then alternating global EI proposals and local
# exploitation around the incumbent.

def quadratic(cfg):
    return (((cfg["cnn_layers"] - 3) / 2) ** 2 + ((cfg["heads"] - 4) / 1.5) ** 2
            + ((cfg["filters"] - 238) / 40) ** 2 + ((cfg["kernel_size"] - 4) / 1.5) ** 2)

result = tune(quadratic, space, budget=30, seed=0)
print(f"quadratic surface: best {result.best_config} "
      f"objective {result.best_objective:.4f} after {len(result.trials)} trials")
(OUT / "tuning_quadratic.svg").write_text(tuning_chart(
    [t.objective for t in result.trials], list(result.incumbent),
    title="quadratic surface: objective per trial"))

# --- 2. real objective ----------------------------------------------------
# Each trial trains a small model for a few epochs and reports one-step
# validation RMSE (a slice held out from the training segment).

series = synthesize(SynthSpec(length=600, period=50, amplitude=10.0,
                              trend_slope=0.05, noise_std=0.5, ar_coeff=0.5,
                              seed=9))
train_ts, _ = split(series, 0.8)
w = 10
# the validation split prepares the training segment the same way the
# train/test split prepares the whole series
data = prepare(train_ts, 0.8, w)
tconfig = TrainConfig(epochs=4, seed=1)


def objective(cfg):
    mconfig = ModelConfig(w=w, cnn_layers=cfg["cnn_layers"], filters=cfg["filters"],
                          kernel_size=cfg["kernel_size"], heads=cfg["heads"], seed=0)
    params, _ = train(mconfig, tconfig, data.train)
    yhat = unscale_values(predict_batch(params, data.held.inputs), data.scaler)
    y = unscale_values(data.held.targets, data.scaler)
    return metrics(y, yhat).rmse


narrow = SearchSpace(cnn_layers=(1, 3), heads=(2, 3), filters=(8, 32), kernel_size=(2, 4))
result = tune(objective, narrow, budget=12, seed=2)
print(f"real objective: best {result.best_config} "
      f"validation rmse {result.best_objective:.3f}")
for t in result.trials:
    marker = " <- best" if t.config == result.best_config else ""
    print(f"  trial {t.index:2d}: {t.config}  rmse={t.objective:.3f}{marker}")
(OUT / "tuning_real.svg").write_text(tuning_chart(
    [t.objective for t in result.trials], list(result.incumbent),
    title="validation RMSE per trial"))
print(f"wrote {OUT}/tuning_quadratic.svg and {OUT}/tuning_real.svg")
