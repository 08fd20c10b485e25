"""Hybrid convolution-attention forecasting with GP-driven hyperparameter
search and SHAP-attention influence maps."""

from .series import (
    Prepared,
    ScalerParams,
    SynthSpec,
    TimeSeries,
    WindowedDataset,
    apply_scaler,
    fit_scaler,
    load_csv,
    make_windows,
    prepare,
    save_csv,
    split,
    synthesize,
)
from .nn import (
    ModelConfig,
    ModelParams,
    init_params,
    load_checkpoint,
    save_checkpoint,
)
from .train import (
    MetricsReport,
    RunStats,
    TrainConfig,
    adam_step,
    forecast_recursive,
    horizon_eval,
    metrics,
    mse_loss,
    persistence_forecast,
    run_stats,
    train,
)
from .bayesopt import (
    GPHyper,
    GPState,
    Observation,
    SearchSpace,
    TuneResult,
    gp_fit,
    propose,
    tune,
)
from .explain import (
    ExplainConfig,
    InfluenceMap,
    ShapResult,
    combine,
    explain,
    gaussian_smooth,
    mean_attention,
    sample_background,
    shap_exact,
    shap_sampled,
)

__version__ = "0.1.0"
