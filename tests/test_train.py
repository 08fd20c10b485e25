import os
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as sstats

from fusecast.errors import (
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
from fusecast.explain import ExplainConfig, explain
from fusecast.nn import ModelConfig, ModelParams, _backward_batch, _forward_batch, init_params
from fusecast.series import (ScalerParams, SynthSpec, WindowedDataset, fit_scaler, make_windows,
                             scale_values, split, synthesize)
from fusecast.train import (
    ADAM_CHUNK,
    PREDICT_BLOCK,
    TrainConfig,
    adam_step,
    forecast_recursive,
    horizon_eval,
    init_opt_state,
    metrics,
    mse_loss,
    persistence_forecast,
    predict_batch,
    run_stats,
    train,
)

from conftest import TINY_CONFIG, count_workspaces, workspace_sizes
from test_nn import zeroed

TINY = ModelConfig(**TINY_CONFIG, seed=1)


class TestTrainConfig:
    @pytest.mark.parametrize("name", ["learning_rate", "eps"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf"), 0.0, -1e-3])
    def test_step_sizes_must_be_finite_and_positive(self, name, value):
        # an infinite eps would freeze every parameter, a NaN or infinite
        # learning rate would diverge at the second step
        with pytest.raises(InvalidSpec, match=f"{name} must be finite and > 0"):
            TrainConfig(**{name: value})


class TestMseLoss:
    def test_perfect_prediction(self):
        loss, grad = mse_loss(np.array([1.0, 2.0]), np.array([1.0, 2.0]))
        assert loss == 0.0 and not grad.any()

    def test_hand_arithmetic(self):
        loss, grad = mse_loss(np.array([2.0]), np.array([0.0]))
        assert loss == 4.0
        np.testing.assert_array_equal(grad, [4.0])

    def test_two_pass_oracle(self, rng):
        yhat, y = rng.normal(size=100), rng.normal(size=100)
        loss, grad = mse_loss(yhat, y)
        acc = 0.0
        for a, b in zip(yhat, y):
            acc += (a - b) ** 2
        assert abs(loss - acc / 100) < 1e-12
        np.testing.assert_allclose(grad, [2 * (a - b) / 100 for a, b in zip(yhat, y)],
                                   atol=1e-12)

    def test_guards(self):
        with pytest.raises(LengthMismatch):
            mse_loss(np.zeros(3), np.zeros(4))
        with pytest.raises(EmptyInput):
            mse_loss(np.zeros(0), np.zeros(0))


def textbook_adam(tensors: dict, grads: dict, m: dict, v: dict, t: int,
                  config: TrainConfig) -> tuple[dict, dict, dict]:
    """Reference: the bias-corrected adaptive-moment update written per
    tensor, with new dicts for the parameters and both moments."""
    new_tensors, new_m, new_v = {}, {}, {}
    for name, theta in tensors.items():
        g = grads[name]
        new_m[name] = config.beta1 * m[name] + (1 - config.beta1) * g
        new_v[name] = config.beta2 * v[name] + (1 - config.beta2) * g * g
        m_hat = new_m[name] / (1 - config.beta1 ** t)
        v_hat = new_v[name] / (1 - config.beta2 ** t)
        new_tensors[name] = theta - config.learning_rate * m_hat / (np.sqrt(v_hat) + config.eps)
    return new_tensors, new_m, new_v


class TestAdam:
    def test_zero_gradient_keeps_params(self, tiny_params):
        state = init_opt_state(tiny_params)
        new_params = adam_step(tiny_params, np.zeros_like(tiny_params.flat), state, TrainConfig())
        np.testing.assert_array_equal(new_params.flat, tiny_params.flat)
        assert state.step == 1

    def test_first_step_is_signed_lr(self, tiny_params, rng):
        # closed form: first update = -lr * g / (|g| + eps) ~ -lr * sign(g)
        cfg = TrainConfig(learning_rate=1e-3)
        n = tiny_params.flat.size
        grads = rng.normal(size=n) + np.sign(rng.normal(size=n))
        new_params = adam_step(tiny_params, grads, init_opt_state(tiny_params), cfg)
        big = np.abs(grads) > 1e-3
        delta = new_params.flat - tiny_params.flat
        np.testing.assert_allclose(delta[big], -cfg.learning_rate * np.sign(grads[big]), rtol=1e-2)

    def test_deterministic(self, tiny_params, rng):
        cfg = TrainConfig()
        grads = rng.normal(size=tiny_params.flat.size)
        out1 = adam_step(tiny_params, grads, init_opt_state(tiny_params), cfg)
        out2 = adam_step(tiny_params, grads, init_opt_state(tiny_params), cfg)
        np.testing.assert_array_equal(out1.flat, out2.flat)

    @pytest.mark.parametrize("config", [
        ModelConfig(**TINY_CONFIG, seed=7),
        ModelConfig(w=15, cnn_layers=3, filters=40, kernel_size=4, heads=3, seed=5)])
    def test_flat_step_equals_textbook_bitwise(self, config, rng):
        params = first = init_params(config)
        before = first.flat.copy()
        cfg = TrainConfig(learning_rate=3e-3)
        state = init_opt_state(params)
        tensors = params.tensors()
        m = {name: np.zeros_like(t) for name, t in tensors.items()}
        v = {name: np.zeros_like(t) for name, t in tensors.items()}
        for t in range(1, 4):
            grads = rng.normal(size=params.flat.size) * 10.0 ** rng.integers(-6, 2)
            new_params = adam_step(params, grads, state, cfg)
            named_grads, flat_m, flat_v = (ModelParams(config, a).tensors()
                                           for a in (grads, state.m, state.v))
            tensors, m, v = textbook_adam(tensors, named_grads, m, v, t, cfg)
            for name, theta in new_params.tensors().items():
                np.testing.assert_array_equal(theta, tensors[name], err_msg=name)
                np.testing.assert_array_equal(flat_m[name], m[name], err_msg=name)
                np.testing.assert_array_equal(flat_v[name], v[name], err_msg=name)
            assert state.step == t
            params = new_params
        np.testing.assert_array_equal(first.flat, before)


def reference_train(config: ModelConfig, tconfig: TrainConfig,
                    data: WindowedDataset) -> tuple:
    """The training loop with a new gradient vector from each backward pass
    and new parameters from each Adam step."""
    params = init_params(config)
    state = init_opt_state(params)
    rng = np.random.default_rng(tconfig.seed)
    history = []
    for _ in range(tconfig.epochs):
        order = rng.permutation(len(data))
        sse = 0.0
        for start in range(0, len(data), tconfig.batch_size):
            idx = order[start:start + tconfig.batch_size]
            yhat, ws = _forward_batch(params, data.inputs[idx])
            loss, dl_dy = mse_loss(yhat, data.targets[idx])
            sse += loss * len(idx)
            params = adam_step(params, _backward_batch(params, ws, dl_dy), state, tconfig)
        history.append(sse / len(data))
    return params, history


# the default cell fits in one partial Adam chunk; 3x40 k=4 in one full
# chunk and a partial one
IN_PLACE_CELLS = [
    ModelConfig(w=15, seed=0),
    ModelConfig(w=15, cnn_layers=3, filters=40, kernel_size=4, heads=3, seed=5)]
# and the workspace's edge cases: one conv layer has no col2im, and a
# kernel as long as the window pads all but one step of its oldest tap
WORKSPACE_CELLS = IN_PLACE_CELLS + [
    ModelConfig(w=15, cnn_layers=1, filters=8, kernel_size=3, heads=2, seed=6),
    ModelConfig(w=15, cnn_layers=3, filters=6, kernel_size=15, heads=2, seed=7)]


class TestTrainInPlace:
    def test_cells_span_the_chunk_cases(self):
        sizes = [init_params(c).flat.size for c in IN_PLACE_CELLS]
        assert sizes == [1905, 19361]
        assert sizes[0] < ADAM_CHUNK < sizes[1] < 2 * ADAM_CHUNK

    @pytest.mark.parametrize("config", WORKSPACE_CELLS)
    def test_train_equals_reference_loop_bitwise(self, config, rng):
        # 80 = 2*32 + 16: train's workspace and its view for the partial
        # batch are reused in every epoch after the first
        data = WindowedDataset(rng.normal(size=(80, 15)), rng.normal(size=80), 15)
        tconfig = TrainConfig(epochs=3, learning_rate=3e-3, seed=2)
        assert len(data) % tconfig.batch_size and tconfig.epochs >= 2
        params, history = train(config, tconfig, data)
        expected, expected_history = reference_train(config, tconfig, data)
        np.testing.assert_array_equal(params.flat, expected.flat)
        assert history == expected_history

    @pytest.mark.parametrize("config", IN_PLACE_CELLS)
    def test_adam_into_its_own_params_equals_new_params(self, config, rng):
        cfg = TrainConfig(learning_rate=3e-3)
        params = init_params(config)
        in_place = init_params(config)
        state, state_in_place = init_opt_state(params), init_opt_state(in_place)
        for _ in range(3):
            grads = rng.normal(size=params.flat.size)
            before = params.flat.copy()
            new_params = adam_step(params, grads, state, cfg)
            np.testing.assert_array_equal(params.flat, before)
            assert adam_step(in_place, grads, state_in_place, cfg, out=in_place) is in_place
            np.testing.assert_array_equal(in_place.flat, new_params.flat)
            np.testing.assert_array_equal(state_in_place.m, state.m)
            np.testing.assert_array_equal(state_in_place.v, state.v)
            params = new_params


class TestTrain:
    def test_constant_target_learnable(self, rng):
        x = rng.normal(size=(1024, 8))
        data = WindowedDataset(x, np.zeros(1024), 8)
        _, history = train(TINY, TrainConfig(epochs=20, learning_rate=3e-3, seed=2), data)
        assert np.sqrt(history[-1]) < 1e-2

    def test_deterministic_history(self, rng):
        x = rng.normal(size=(64, 8))
        data = WindowedDataset(x, rng.normal(size=64), 8)
        _, h1 = train(TINY, TrainConfig(epochs=5, seed=4), data)
        _, h2 = train(TINY, TrainConfig(epochs=5, seed=4), data)
        assert h1 == h2

    def test_diverged_loss_guard(self, rng):
        # adaptive-moment updates are bounded by the rate, so float64 only
        # overflows for an absurd rate; the guard must raise, not emit NaN
        x = rng.normal(size=(64, 8))
        data = WindowedDataset(x, rng.normal(size=64), 8)
        with np.errstate(all="ignore"):
            with pytest.raises(DivergedLoss):
                train(TINY, TrainConfig(epochs=3, learning_rate=1e40, seed=3), data)

    def test_empty_dataset(self):
        data = WindowedDataset(np.zeros((0, 8)), np.zeros(0), 8)
        with pytest.raises(EmptyDataset):
            train(TINY, TrainConfig(epochs=1), data)

    def test_loss_decreases_on_learnable_series(self):
        ts = synthesize(SynthSpec(length=400, period=40, amplitude=1.0,
                                  noise_std=0.05, ar_coeff=0.3, seed=6))
        values = scale_values(ts.values, ScalerParams(ts.values.mean(), ts.values.std()))
        data = make_windows(type(ts)(ts.timestamps, values), 8)
        _, history = train(TINY, TrainConfig(epochs=25, seed=7), data)
        smooth = np.convolve(history, np.ones(5) / 5, mode="valid")
        assert smooth[-1] <= smooth[0]
        assert np.all(np.diff(smooth) < 0.05 * (abs(smooth[0]) + 1e-9) + 1e-9)


class TestForecastRecursive:
    def test_constant_network(self, tiny_params):
        scaler = ScalerParams(mean=10.0, std=2.0)
        constant = zeroed(tiny_params, b_out=0.5)
        preds = forecast_recursive(constant, scaler, np.full(8, 11.0), 4)
        np.testing.assert_allclose(preds, np.full(4, 10.0 + 2.0 * 0.5))

    def test_single_step_equals_forward(self, tiny_params):
        scaler = ScalerParams(mean=3.0, std=1.5)
        window = np.linspace(1.0, 4.0, 8)
        pred = forecast_recursive(tiny_params, scaler, window, 1)
        y = _forward_batch(tiny_params, scale_values(window, scaler)[None])[0][0]
        assert pred[0] == y * scaler.std + scaler.mean

    def test_three_step_rollout_oracle(self, tiny_params):
        scaler = ScalerParams(mean=2.0, std=0.5)
        window_raw = np.linspace(-1.0, 1.0, 8)
        preds = forecast_recursive(tiny_params, scaler, window_raw, 3)
        # independent rollout: scale, step, slide, then unscale at the end
        win = scale_values(window_raw, scaler)
        expect = []
        for _ in range(3):
            y = _forward_batch(tiny_params, win[None])[0][0]
            expect.append(y)
            win = np.append(win[1:], y)
        np.testing.assert_array_equal(preds, np.array(expect) * scaler.std + scaler.mean)


class TestHorizonEval:
    def test_batched_rollout_matches_per_anchor_loop(self, tiny_params):
        ts = synthesize(SynthSpec(length=300, period=30, amplitude=5.0, trend_slope=0.5,
                                  noise_std=0.2, ar_coeff=0.4, seed=3))
        train_ts, _ = split(ts, 0.8)
        scaler = fit_scaler(train_ts)
        train_len, horizon = len(train_ts), 6
        model_m, naive_m = horizon_eval(tiny_params, scaler, ts.values, train_len, horizon,
                                        n_anchors=7)
        # reference: one recursive forecast per anchor, as the metrics define it
        last_start = len(ts) - train_len - horizon
        ends = train_len + np.unique(np.linspace(0, last_start, 7).astype(int))
        y = np.concatenate([ts.values[e:e + horizon] for e in ends])
        model = np.concatenate([forecast_recursive(tiny_params, scaler, ts.values[e - 8:e],
                                                   horizon) for e in ends])
        naive = np.repeat(ts.values[ends - 1], horizon)
        for got, expect in ((model_m, metrics(y, model)), (naive_m, metrics(y, naive))):
            for name in ("rmse", "mae", "mape", "msle"):
                assert abs(getattr(got, name) - getattr(expect, name)) <= 1e-12, name

    def test_one_forward_call_per_step(self, tiny_params, monkeypatch):
        import fusecast.nn
        calls = []

        def counted(params, xb, **kwargs):
            calls.append(len(xb))
            return fusecast.nn._forward_batch(params, xb, **kwargs)

        monkeypatch.setattr(sys.modules["fusecast.train"], "_forward_batch", counted)
        values = np.linspace(1.0, 3.0, 100)
        scaler = ScalerParams(mean=2.0, std=0.5)
        forecast_recursive(tiny_params, scaler, values[-8:], 5)
        assert calls == [1] * 5
        calls.clear()
        horizon_eval(tiny_params, scaler, values, 80, 5, n_anchors=4)
        assert calls == [4] * 5

    @pytest.mark.parametrize("n_anchors", [0, -2])
    def test_fewer_than_one_anchor_rejected(self, tiny_params, n_anchors):
        values = np.linspace(1.0, 3.0, 100)
        with pytest.raises(InvalidSpec, match="n_anchors"):
            horizon_eval(tiny_params, ScalerParams(mean=2.0, std=0.5), values, 80, 5,
                         n_anchors=n_anchors)


class TestPredictBatch:
    def test_blocks_match_per_window_forward(self, tiny_params, rng):
        windows = rng.normal(size=(2 * PREDICT_BLOCK + 5, 8))
        expect = [_forward_batch(tiny_params, x[None])[0][0] for x in windows]
        np.testing.assert_allclose(predict_batch(tiny_params, windows), expect,
                                   rtol=0, atol=1e-12)

    def test_empty(self, tiny_params):
        assert predict_batch(tiny_params, np.zeros((0, 8))).shape == (0,)

    def test_one_inference_workspace_per_rollout(self, tiny_params, rng, monkeypatch):
        # the remainder block runs in a view of the full blocks' workspace
        module = sys.modules["fusecast.train"]
        built = count_workspaces(monkeypatch, module)
        predict_batch(tiny_params, rng.normal(size=(100, 8)))
        assert workspace_sizes(built) == [(PREDICT_BLOCK, False, [4])]
        built.clear()
        module._rollout(tiny_params, rng.normal(size=(3, 8)), 6)
        assert workspace_sizes(built) == [(3, False, [])]
        built.clear()
        predict_batch(tiny_params, np.zeros((0, 8)))
        assert built == []

    @pytest.mark.parametrize("shape", [(0, 9), (0,)], ids=["wide-rows", "one-axis"])
    def test_empty_input_of_another_shape_rejected(self, tiny_params, shape):
        module = sys.modules["fusecast.train"]
        with pytest.raises(ShapeMismatch):
            predict_batch(tiny_params, np.zeros(shape))
        with pytest.raises(ShapeMismatch):
            module._rollout(tiny_params, np.zeros(shape), 3)

    def test_rollout_runs_in_blocks(self, tiny_params, rng, monkeypatch):
        # each block slides through all its steps before the next: memory is
        # bounded by the block, not by the number of windows
        import fusecast.nn
        module = sys.modules["fusecast.train"]
        built, calls = count_workspaces(monkeypatch, module), []

        def counted(params, xb, **kwargs):
            calls.append(len(xb))
            return fusecast.nn._forward_batch(params, xb, **kwargs)

        monkeypatch.setattr(module, "_forward_batch", counted)
        windows = rng.normal(size=(2 * PREDICT_BLOCK + 6, 8))
        preds = module._rollout(tiny_params, windows, 3)
        assert workspace_sizes(built) == [(PREDICT_BLOCK, False, [6])]
        assert calls == [PREDICT_BLOCK] * 6 + [6] * 3
        # a block's rollout is that of its windows alone
        tail = module._rollout(tiny_params, windows[2 * PREDICT_BLOCK:], 3)
        np.testing.assert_array_equal(preds[2 * PREDICT_BLOCK:], tail)

    @pytest.mark.parametrize("n", [0, 5, 2 * PREDICT_BLOCK + 6])
    def test_predict_is_a_one_step_rollout(self, tiny_params, rng, n):
        windows = rng.normal(size=(n, 8))
        expect = sys.modules["fusecast.train"]._rollout(tiny_params, windows, 1)[:, 0]
        got = predict_batch(tiny_params, windows)
        assert got.shape == (n,)
        np.testing.assert_array_equal(got, expect)

    def test_explain_builds_no_training_workspace(self, tiny_params, rng, monkeypatch):
        built = count_workspaces(monkeypatch, sys.modules["fusecast.nn"])
        # the coalitions in-process, so that their workspaces are seen too
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        windows = rng.normal(size=(6, 8))
        explain(tiny_params, windows[0], windows[1:],
                ExplainConfig(background_size=5, sample_permutations=4))
        assert built and not any(ws.training for ws in built)


class TestPersistence:
    def test_repeats_last_value(self):
        np.testing.assert_array_equal(persistence_forecast(4.2, 3), [4.2, 4.2, 4.2])


class TestMetrics:
    def test_perfect(self):
        m = metrics(np.array([1.0, 2.0, 3.0]), np.array([1.0, 2.0, 3.0]))
        assert (m.rmse, m.mae, m.mape, m.msle) == (0.0, 0.0, 0.0, 0.0)

    def test_reference_example(self):
        # independent evaluation of each formula
        y = np.array([100.0, 200.0])
        yhat = np.array([110.0, 180.0])
        m = metrics(y, yhat)
        assert m.mae == 15.0
        assert abs(m.rmse - np.sqrt(250.0)) < 1e-9
        assert abs(m.mape - 0.10) < 1e-12
        msle_oracle = ((np.log1p(110) - np.log1p(100)) ** 2
                       + (np.log1p(180) - np.log1p(200)) ** 2) / 2
        assert abs(m.msle - msle_oracle) < 1e-15
        assert abs(m.msle - 9.949e-3) < 5e-6

    def test_mape_guard(self):
        with pytest.raises(MapeUndefined):
            metrics(np.array([0.0, 1.0]), np.array([1.0, 1.0]))

    def test_msle_guard(self):
        with pytest.raises(MsleUndefined):
            metrics(np.array([2.0, 1.0]), np.array([-1.5, 1.0]))

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_rmse_dominates_mae(self, seed):
        g = np.random.default_rng(seed)
        y = g.uniform(1.0, 10.0, size=20)
        yhat = np.maximum(y + g.normal(size=20), -0.9)
        m = metrics(y, yhat)
        assert m.rmse >= m.mae - 1e-12

    def test_permutation_invariance(self, rng):
        y = rng.uniform(1.0, 5.0, size=30)
        yhat = y + rng.normal(size=30)
        perm = rng.permutation(30)
        a, b = metrics(y, yhat), metrics(y[perm], yhat[perm])
        for field in ("rmse", "mae", "mape", "msle"):
            assert abs(getattr(a, field) - getattr(b, field)) < 1e-12


def stats_oracle(values):
    """Hand-rolled quartiles (linear interpolation), adjusted skewness and
    bias-adjusted excess kurtosis, independent of run_stats internals."""
    x = np.sort(np.asarray(values, dtype=np.float64))
    n = len(x)

    def quantile(q):
        pos = q * (n - 1)
        lo = int(np.floor(pos))
        hi = min(lo + 1, n - 1)
        frac = pos - lo
        return x[lo] * (1 - frac) + x[hi] * frac

    mean = x.mean()
    m2 = ((x - mean) ** 2).mean()
    m3 = ((x - mean) ** 3).mean()
    m4 = ((x - mean) ** 4).mean()
    g1 = m3 / m2 ** 1.5
    skew = g1 * np.sqrt(n * (n - 1)) / (n - 2)
    g2 = m4 / m2 ** 2 - 3.0
    kurt = (n - 1) / ((n - 2) * (n - 3)) * ((n + 1) * g2 + 6.0)
    return quantile(0.25), quantile(0.5), quantile(0.75), skew, kurt


class TestRunStats:
    def test_symmetric_small_sample(self):
        s = run_stats(np.array([1.0, 2.0, 3.0, 4.0, 5.0]))
        assert (s.median, s.q1, s.q3, s.iqr) == (3.0, 2.0, 4.0, 2.0)
        assert abs(s.skewness) < 1e-12
        assert s.range == 4.0

    def test_too_few(self):
        with pytest.raises(TooFewSamples):
            run_stats(np.array([1.0, 2.0, 3.0]))

    def test_constant_sample(self):
        with pytest.raises(ZeroVarianceShapeStats):
            run_stats(np.full(10, 2.0))

    def test_normal_sample_shape_stats(self):
        vals = np.random.default_rng(2).normal(size=50)
        s = run_stats(vals)
        assert abs(s.skewness) < 0.5
        assert abs(s.excess_kurtosis) < 1.0

    def test_against_independent_oracle(self, rng):
        vals = rng.gamma(2.0, 3.0, size=50)
        s = run_stats(vals)
        q1, med, q3, skew, kurt = stats_oracle(vals)
        assert abs(s.q1 - q1) < 1e-9
        assert abs(s.median - med) < 1e-9
        assert abs(s.q3 - q3) < 1e-9
        assert abs(s.skewness - skew) < 1e-9
        assert abs(s.excess_kurtosis - kurt) < 1e-9

    @pytest.mark.parametrize("n", [4, 5, 7, 30, 200])
    def test_shape_stats_equal_scipy(self, n, rng):
        samples = [rng.normal(size=n), rng.gamma(2.0, 3.0, size=n) * 1e3,
                   50.0 + rng.standard_t(3, size=n), rng.integers(0, 3, size=n) + 0.5,
                   rng.lognormal(size=n) - 3.0]
        for vals in samples:
            if np.all(vals == vals[0]):
                continue
            s = run_stats(vals)
            assert s.skewness == sstats.skew(vals, bias=False)
            assert s.excess_kurtosis == sstats.kurtosis(vals, fisher=True, bias=False)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")    # scipy's precision-loss note
    def test_near_constant_sample_is_nan_like_scipy(self):
        # spread by single ulps of 1e6: scipy's m2 <= (eps*mean)**2 guard
        vals = 1e6 + np.array([0.0, 1.0, 2.0, 0.0, 1.0]) * np.spacing(1e6)
        assert np.isnan([sstats.skew(vals, bias=False), sstats.kurtosis(vals, bias=False)]).all()
        s = run_stats(vals)
        assert np.isnan(s.skewness) and np.isnan(s.excess_kurtosis)

    def test_ordering_chain(self, rng):
        for _ in range(10):
            vals = rng.normal(size=25)
            s = run_stats(vals)
            assert s.min <= s.q1 <= s.median <= s.q3 <= s.max
            assert s.iqr == s.q3 - s.q1
            assert s.range == s.max - s.min
