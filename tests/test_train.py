import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fusecast.errors import (
    DivergedLoss,
    EmptyDataset,
    EmptyInput,
    LengthMismatch,
    MapeUndefined,
    MsleUndefined,
    TooFewSamples,
    ZeroVarianceShapeStats,
)
from fusecast.nn import ModelConfig, forward
from fusecast.series import ScalerParams, SynthSpec, WindowedDataset, make_windows, scale_values, synthesize
from fusecast.train import (
    PREDICT_BLOCK,
    TrainConfig,
    adam_step,
    forecast_recursive,
    init_opt_state,
    metrics,
    mse_loss,
    persistence_forecast,
    predict_batch,
    run_stats,
    train,
)

from conftest import TINY_CONFIG
from test_nn import zeroed

TINY = ModelConfig(**TINY_CONFIG, seed=1)


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


class TestAdam:
    def test_zero_gradient_keeps_params(self, tiny_params):
        state = init_opt_state(tiny_params)
        zero = {name: np.zeros_like(t) for name, t in tiny_params.tensors().items()}
        new_params, new_state = adam_step(tiny_params, zero, state, TrainConfig())
        for name, t in tiny_params.tensors().items():
            np.testing.assert_array_equal(t, new_params.tensors()[name])
        assert new_state.step == 1

    def test_first_step_is_signed_lr(self, tiny_params, rng):
        # closed form: first update = -lr * g / (|g| + eps) ~ -lr * sign(g)
        cfg = TrainConfig(learning_rate=1e-3)
        grads = {name: rng.normal(size=t.shape) + np.sign(rng.normal(size=t.shape))
                 for name, t in tiny_params.tensors().items()}
        new_params, _ = adam_step(tiny_params, grads, init_opt_state(tiny_params), cfg)
        for name, t in tiny_params.tensors().items():
            g = np.atleast_1d(grads[name])
            big = np.abs(g) > 1e-3
            delta = np.atleast_1d(new_params.tensors()[name] - t)
            expected = -cfg.learning_rate * np.sign(g)
            np.testing.assert_allclose(delta[big], expected[big], rtol=1e-2)

    def test_deterministic(self, tiny_params, rng):
        cfg = TrainConfig()
        grads = {name: rng.normal(size=t.shape) for name, t in tiny_params.tensors().items()}
        out1 = adam_step(tiny_params, grads, init_opt_state(tiny_params), cfg)
        out2 = adam_step(tiny_params, grads, init_opt_state(tiny_params), cfg)
        for name in tiny_params.tensors():
            np.testing.assert_array_equal(out1[0].tensors()[name], out2[0].tensors()[name])


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
        y, _ = forward(tiny_params, scale_values(window, scaler))
        assert pred[0] == y * scaler.std + scaler.mean

    def test_three_step_rollout_oracle(self, tiny_params):
        scaler = ScalerParams(mean=2.0, std=0.5)
        window_raw = np.linspace(-1.0, 1.0, 8)
        preds = forecast_recursive(tiny_params, scaler, window_raw, 3)
        # independent rollout: scale, step, slide, then unscale at the end
        win = scale_values(window_raw, scaler)
        expect = []
        for _ in range(3):
            y, _ = forward(tiny_params, win)
            expect.append(y)
            win = np.append(win[1:], y)
        np.testing.assert_array_equal(preds, np.array(expect) * scaler.std + scaler.mean)


class TestPredictBatch:
    def test_blocks_match_per_window_forward(self, tiny_params, rng):
        windows = rng.normal(size=(2 * PREDICT_BLOCK + 5, 8))
        expect = [forward(tiny_params, x)[0] for x in windows]
        np.testing.assert_allclose(predict_batch(tiny_params, windows), expect,
                                   rtol=0, atol=1e-12)

    def test_empty(self, tiny_params):
        assert predict_batch(tiny_params, np.zeros((0, 8))).shape == (0,)


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

    def test_ordering_chain(self, rng):
        for _ in range(10):
            vals = rng.normal(size=25)
            s = run_stats(vals)
            assert s.min <= s.q1 <= s.median <= s.q3 <= s.max
            assert s.iqr == s.q3 - s.q1
            assert s.range == s.max - s.min
