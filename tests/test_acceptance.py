"""Acceptance gate: one test per criterion, each printing a pass/fail line
and runnable standalone. Tolerances are pinned here, not calibrated later.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import itertools
import json
import math
import re
import time

import numpy as np

from fusecast.bayesopt import SearchSpace, tune
from fusecast.explain import shap_exact, shap_sampled
from fusecast.nn import ModelConfig, ModelParams, init_params, _backward_batch, _forward_batch
from fusecast.series import SynthSpec, TimeSeries, prepare, synthesize
from fusecast.svg import box_stats
from fusecast.train import TrainConfig

from test_bayesopt import ei_minimize_at, gp_posterior, sq_exp_kernel
from test_explain import rowwise
from test_nn import with_tensors


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"\n[criterion {criterion:2d}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


GRAD_CHECK_CONFIG = ModelConfig(w=8, cnn_layers=2, filters=4, kernel_size=2,
                                heads=2, head_dim=2, seed=11)


def test_c01_gradient_correctness():
    t0 = time.perf_counter()
    params = init_params(GRAD_CHECK_CONFIG)
    rng = np.random.default_rng(1)
    x = rng.normal(size=8)
    target = 0.3
    yhat, ws = _forward_batch(params, x[None])
    grads = ModelParams(params.config,
                        _backward_batch(params, ws, 2.0 * (yhat - target))).tensors()
    eps = 1e-4
    worst = 0.0
    for name, tensor in params.tensors().items():
        t = np.atleast_1d(np.asarray(tensor))
        for flat in range(t.size):
            idx = np.unravel_index(flat, t.shape)

            def loss_with(delta):
                bumped = {k: v.copy() for k, v in params.tensors().items()}
                arr = np.atleast_1d(bumped[name])
                arr[idx] += delta
                bumped[name] = arr.reshape(np.asarray(tensor).shape)
                yb, _ = _forward_batch(with_tensors(params, bumped), x[None])
                return float((yb[0] - target) ** 2)

            fd = (loss_with(eps) - loss_with(-eps)) / (2 * eps)
            analytic = float(np.atleast_1d(grads[name])[idx])
            rel = abs(analytic - fd) / max(abs(fd), 1e-7)
            worst = max(worst, rel)
    elapsed = time.perf_counter() - t0
    report(1, worst < 1e-4 and elapsed < 30.0,
           f"max relative gradient error {worst:.3e} (< 1e-4), {elapsed:.1f}s (< 30s)")


def test_c02_conv_causality():
    t0 = time.perf_counter()
    params = init_params(GRAD_CHECK_CONFIG)
    rng = np.random.default_rng(2)
    violations = 0
    for _ in range(100):
        x = rng.normal(size=8)
        t = int(rng.integers(0, 7))
        x2 = x.copy()
        x2[t + 1:] += rng.normal(size=7 - t) * rng.uniform(1, 100)
        _, ws1 = _forward_batch(params, x[None])
        _, ws2 = _forward_batch(params, x2[None])
        # every layer's channel-major (f, B, w) map
        for a1, a2 in zip(ws1.act, ws2.act):
            if not np.array_equal(a1[..., : t + 1], a2[..., : t + 1]):
                violations += 1
    elapsed = time.perf_counter() - t0
    report(2, violations == 0 and elapsed < 10.0,
           f"{violations} causality violations over 100 future perturbations, "
           f"{elapsed:.1f}s (< 10s)")


def test_c03_attention_stochasticity():
    rng = np.random.default_rng(3)
    worst_sum = 0.0
    min_entry = np.inf
    for trial in range(100):
        params = init_params(ModelConfig(w=8, cnn_layers=2, filters=4, kernel_size=2,
                                         heads=2, head_dim=2, seed=trial))
        _, ws = _forward_batch(params, rng.normal(size=(1, 8)))
        attention = ws.att[0]
        sums = attention.sum(axis=2)
        worst_sum = max(worst_sum, float(np.abs(sums - 1.0).max()))
        min_entry = min(min_entry, float(attention.min()))
    report(3, worst_sum <= 1e-6 and min_entry >= 0.0,
           f"max row-sum deviation {worst_sum:.2e} (<= 1e-6), min entry {min_entry:.2e} (>= 0)")


def _toy_model_fn(w, seed):
    params = init_params(ModelConfig(w=w, cnn_layers=2, filters=3, kernel_size=2,
                                     heads=2, head_dim=2, seed=seed))
    return lambda window: float(_forward_batch(params, np.asarray(window)[None])[0][0])


def _shap_permutation_enumeration(f, x, background):
    w = len(x)
    background = np.asarray(background)
    cache = {}

    def value(key):
        if key not in cache:
            composite = background.copy()
            idx = list(key)
            composite[:, idx] = x[idx]
            cache[key] = float(np.mean([f(row) for row in composite]))
        return cache[key]

    s = np.zeros(w)
    for order in itertools.permutations(range(w)):
        prefix = []
        prev = value(frozenset())
        for i in order:
            prefix.append(i)
            cur = value(frozenset(prefix))
            s[i] += cur - prev
            prev = cur
    return s / math.factorial(w), value(frozenset())


def test_c04_shapley_oracle_equivalence():
    t0 = time.perf_counter()
    worst_gap = 0.0
    worst_add = 0.0
    for w in (4, 6):
        rng = np.random.default_rng(w)
        f = _toy_model_fn(w, seed=w)
        x = rng.normal(size=w)
        background = rng.normal(size=(5, w))
        result = shap_exact(rowwise(f), x, background)
        s_oracle, base_oracle = _shap_permutation_enumeration(f, x, background)
        worst_gap = max(worst_gap, float(np.abs(result.s - s_oracle).max()),
                        abs(result.base_value - base_oracle))
        worst_add = max(worst_add, abs(result.base_value + result.s.sum() - f(x)))
    elapsed = time.perf_counter() - t0
    report(4, worst_gap < 1e-9 and worst_add < 1e-9 and elapsed < 60.0,
           f"coalition vs permutation gap {worst_gap:.2e} (< 1e-9), "
           f"additivity residual {worst_add:.2e} (< 1e-9), {elapsed:.1f}s (< 60s)")


def test_c05_sampled_shap_convergence():
    rng = np.random.default_rng(5)
    f = _toy_model_fn(6, seed=6)
    x = rng.normal(size=6)
    background = rng.normal(size=(4, 6))
    exact = shap_exact(rowwise(f), x, background)
    bound = 0.05 * np.abs(exact.s).max()
    worst = 0.0
    for seed in range(10):
        sampled = shap_sampled(rowwise(f), x, background, m=2000, seed=seed)
        worst = max(worst, float(np.abs(sampled.s - exact.s).mean()))
    report(5, worst < bound,
           f"worst mean |sampled - exact| {worst:.3e} over 10 seeds "
           f"(< 5% of max|s| = {bound:.3e})")


def test_c06_gp_posterior_oracle():
    from fusecast.bayesopt import GPHyper, Observation, gp_fit

    worst_gap = 0.0
    worst_interp = 0.0
    for trial in range(10):
        rng = np.random.default_rng(trial)
        hyper = GPHyper(signal_var=1.0, length_scales=np.full(3, 0.2), noise_var=1e-4)
        x = rng.uniform(size=(6, 3))
        y = rng.normal(loc=2.0, scale=1.3, size=6)
        obs = [Observation(x=xi, y=float(yi)) for xi, yi in zip(x, y)]
        state = gp_fit(obs, hyper)
        xq = rng.uniform(size=3)
        mu, var = gp_posterior(state, xq)
        y_st = (y - y.mean()) / y.std()
        gram = np.array([[sq_exp_kernel(a, b, hyper) for b in x] for a in x])
        ks = np.array([sq_exp_kernel(a, xq, hyper) for a in x])
        inv = np.linalg.inv(gram + (hyper.noise_var + state.jitter) * np.eye(6))
        mu_oracle = y.mean() + y.std() * (ks @ inv @ y_st)
        var_oracle = y.std() ** 2 * (sq_exp_kernel(xq, xq, hyper) - ks @ inv @ ks)
        worst_gap = max(worst_gap, abs(mu - mu_oracle), abs(var - var_oracle))

        noiseless = gp_fit(obs, GPHyper(signal_var=1.0, length_scales=np.full(3, 0.2),
                                        noise_var=0.0))
        for xi, yi in zip(x, y):
            mu_i, _ = gp_posterior(noiseless, xi)
            worst_interp = max(worst_interp, abs(mu_i - yi) / y.std())
    report(6, worst_gap < 1e-8 and worst_interp <= 1e-6,
           f"dense-inverse gap {worst_gap:.2e} (< 1e-8), noiseless interpolation "
           f"error {worst_interp:.2e} of std(y) (<= 1e-6)")


def test_c07_ei_oracle():
    # _ei_minimize at a one-observation state whose posterior is (mu, sigma)
    assert ei_minimize_at(0.7, 0.0, 0.5) == 0.0
    rng = np.random.default_rng(7)
    # sigma >= 0.5 keeps the improvement probability high enough that a
    # million-sample MC estimate is informative at every grid point
    grid = [(mu, sigma, f_plus, xi)
            for mu in (-1.0, 0.0, 0.5, 1.5)
            for sigma in (0.5, 1.0)
            for f_plus in (-0.5, 0.8)
            for xi in (0.0, 0.05)][:20]
    worst_z = 0.0
    for mu, sigma, f_plus, xi in grid:
        samples = rng.normal(mu, sigma, size=1_000_000)
        gains = np.maximum(samples - f_plus - xi, 0.0)
        mc, se = gains.mean(), gains.std(ddof=1) / 1000.0
        closed = ei_minimize_at(mu, sigma, f_plus, xi)
        worst_z = max(worst_z, abs(closed - mc) / se)
    report(7, worst_z <= 3.0,
           f"EI(sigma=0) = 0 exactly; worst |closed - MC| = {worst_z:.2f} "
           f"standard errors over a 20-point grid (<= 3)")


def test_c08_tuner_sanity():
    t0 = time.perf_counter()
    space = SearchSpace()
    optimum = {"cnn_layers": 3, "heads": 4, "filters": 238, "kernel_size": 4}

    def surrogate(cfg):
        return (((cfg["cnn_layers"] - 3) / 2) ** 2
                + ((cfg["heads"] - 4) / 1.5) ** 2
                + ((cfg["filters"] - 238) / 40) ** 2
                + ((cfg["kernel_size"] - 4) / 1.5) ** 2)

    hits = sum(tune(surrogate, space, budget=30, seed=seed).best_config == optimum
               for seed in range(10))
    elapsed = time.perf_counter() - t0
    report(8, hits >= 9 and elapsed < 60.0,
           f"optimum (3, 4, 238, 4) found in {hits}/10 seeded runs (>= 9), "
           f"{elapsed:.1f}s (< 60s)")


def test_c09_metrics_oracle():
    from fusecast.train import metrics

    m = metrics(np.array([100.0, 200.0]), np.array([110.0, 180.0]))
    msle_oracle = ((np.log1p(110.0) - np.log1p(100.0)) ** 2
                   + (np.log1p(180.0) - np.log1p(200.0)) ** 2) / 2.0
    ok = (m.mae == 15.0
          and abs(m.rmse - np.sqrt(250.0)) < 1e-9
          and abs(m.mape - 0.10) < 1e-12
          and abs(m.msle - msle_oracle) < 1e-9)
    report(9, ok,
           f"mae={m.mae}, rmse={m.rmse:.6f} (sqrt(250)), mape={m.mape}, "
           f"msle={m.msle:.6e} (log1p formula)")


def test_c10_end_to_end_forecasting_skill():
    from fusecast.train import horizon_eval, train

    t0 = time.perf_counter()
    base = synthesize(SynthSpec(length=2000, period=365, amplitude=100.0,
                                trend_slope=0.0, noise_std=2.0, ar_coeff=0.7,
                                seed=42))
    # shift to a strictly positive flow-like level so MAPE is meaningful
    ts = TimeSeries(base.timestamps, base.values + 500.0)
    w, horizon = 15, 15
    data = prepare(ts, 0.8, w)
    wins = 0
    details = []
    for seed in range(5):
        params, _ = train(ModelConfig(w=w, seed=seed), TrainConfig(seed=seed + 50),
                          data.train)
        model_m, naive_m = horizon_eval(params, data.scaler, ts.values, data.train_len,
                                        horizon, n_anchors=10)
        ok = model_m.rmse < naive_m.rmse and model_m.mape < 0.10
        wins += ok
        details.append(f"seed{seed}: rmse {model_m.rmse:.1f} vs naive "
                       f"{naive_m.rmse:.1f}, mape {model_m.mape:.3f}")
    elapsed = time.perf_counter() - t0
    report(10, wins >= 4 and elapsed < 300.0,
           f"beats persistence with mape < 10% in {wins}/5 seeds (>= 4), "
           f"{elapsed:.0f}s (< 300s); " + "; ".join(details))


def test_c11_statistics_and_whisker_rule():
    from fusecast.train import run_stats
    from test_train import stats_oracle

    vals = np.random.default_rng(11).gamma(2.0, 150.0, size=50)
    s = run_stats(vals)
    q1, med, q3, skew, kurt = stats_oracle(vals)
    chain = s.min <= s.q1 <= s.median <= s.q3 <= s.max
    oracle_ok = (abs(s.q1 - q1) < 1e-9 and abs(s.median - med) < 1e-9
                 and abs(s.q3 - q3) < 1e-9 and abs(s.skewness - skew) < 1e-9
                 and abs(s.excess_kurtosis - kurt) < 1e-9)
    bq1, _, bq3, lo_fence, hi_fence, whisk_lo, whisk_hi, outliers = box_stats(vals)
    fence_ok = (abs(lo_fence - (bq1 - 1.5 * (bq3 - bq1))) < 1e-12
                and abs(hi_fence - (bq3 + 1.5 * (bq3 - bq1))) < 1e-12)
    whisker_ok = (whisk_lo >= lo_fence and whisk_hi <= hi_fence
                  and all((o < lo_fence) or (o > hi_fence) for o in outliers))
    report(11, chain and oracle_ok and fence_ok and whisker_ok,
           f"ordering chain holds; quartile/skewness/kurtosis match the "
           f"independent oracle within 1e-9; whiskers at Q1-1.5*IQR / Q3+1.5*IQR "
           f"({len(outliers)} outliers beyond)")


def _mask_timing(text: str) -> str:
    text = re.sub(r'"wall_seconds": [^,}\n]+', '"wall_seconds": X', text)
    rows = []
    for line in text.splitlines():
        if "," in line and not line.lstrip().startswith('"'):
            parts = line.split(",")
            if parts and re.fullmatch(r"[0-9.eE+-]+", parts[-1] or ""):
                parts[-1] = "X"
            line = ",".join(parts)
        rows.append(line)
    return "\n".join(rows)


def test_c12_cli_reproducibility(tmp_path):
    from fusecast import cli

    config = {
        "seed": 3,
        "out_dir": str(tmp_path / "out"),
        "data": {"source": "synth", "train_frac": 0.8,
                 "synth": {"length": 260, "period": 52, "amplitude": 10.0,
                           "trend_slope": 0.2, "noise_std": 0.3,
                           "ar_coeff": 0.5, "seed": 7}},
        "model": {"w": 8, "cnn_layers": 1, "filters": 6, "kernel_size": 3,
                  "heads": 2, "head_dim": 3},
        "train": {"epochs": 6},
        "tune": {"budget": 6, "init": 3, "epochs": 2, "pool_size": 32},
        "horizons": [5],
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))

    outputs = {
        "train": ("metrics.json", "checkpoint.json", "loss_history.csv", "config.json"),
        "tune": ("tune_log.csv", "best_config.json", "config.json"),
    }
    identical = True
    for command, names in outputs.items():
        assert cli.main([command, "--config", str(cfg_path)]) == 0
        first = {n: (tmp_path / "out" / command / n).read_text() for n in names}
        assert cli.main([command, "--config", str(cfg_path)]) == 0
        for n in names:
            again = (tmp_path / "out" / command / n).read_text()
            if _mask_timing(first[n]) != _mask_timing(again):
                identical = False
    report(12, identical,
           "cmd_train and cmd_tune reruns byte-identical across CSV/JSON outputs "
           "(wall-clock timing fields masked, the documented exception)")
