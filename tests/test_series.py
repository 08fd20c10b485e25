import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.signal import lfilter

from fusecast.errors import (
    InvalidFraction,
    InvalidSpec,
    MissingFile,
    NonFiniteValue,
    NonMonotoneTimestamps,
    ParseError,
    WindowTooLarge,
    ZeroVariance,
)
from fusecast import series as series_module
from fusecast.series import (
    ScalerParams,
    SynthSpec,
    TimeSeries,
    apply_scaler,
    fit_scaler,
    load_csv,
    make_windows,
    prepare,
    save_csv,
    split,
    synthesize,
    unscale_values,
)


def invert_scaler(ts: TimeSeries, sp: ScalerParams) -> TimeSeries:
    """Undo :func:`apply_scaler`, the oracle of the round-trip tests."""
    return TimeSeries(ts.timestamps, unscale_values(ts.values, sp))


def write_csv(path, rows, header="timestamp,value"):
    path.write_text(header + "\n" + "\n".join(rows) + ("\n" if rows else ""))


def daily_rows(n, start=np.datetime64("1998-01-02"), values=None):
    dates = start + np.arange(n)
    if values is None:
        values = 100.0 + np.arange(n)
    return [f"{d},{v}" for d, v in zip(dates, values)]


class TestLoadCsv:
    def test_two_row_minimal(self, tmp_path):
        f = tmp_path / "s.csv"
        write_csv(f, ["2020-01-01,1.5", "2020-01-02,2.5"])
        ts = load_csv(f)
        assert len(ts) == 2
        assert ts.values.tolist() == [1.5, 2.5]

    def test_swapped_dates_rejected(self, tmp_path):
        f = tmp_path / "s.csv"
        write_csv(f, ["2020-01-02,1.0", "2020-01-01,2.0"])
        with pytest.raises(NonMonotoneTimestamps):
            load_csv(f)

    def test_full_length_file(self, tmp_path):
        # daily record of 9,321 values, like the reference dataset
        f = tmp_path / "big.csv"
        write_csv(f, daily_rows(9321))
        assert len(load_csv(f)) == 9321

    def test_missing_file(self, tmp_path):
        with pytest.raises(MissingFile):
            load_csv(tmp_path / "nope.csv")

    def test_bad_header(self, tmp_path):
        f = tmp_path / "s.csv"
        write_csv(f, ["2020-01-01,1.0", "2020-01-02,2.0"], header="date,flow")
        with pytest.raises(ParseError) as exc:
            load_csv(f)
        assert exc.value.row == 1

    def test_bad_value_reports_row(self, tmp_path):
        f = tmp_path / "s.csv"
        write_csv(f, ["2020-01-01,1.0", "2020-01-02,oops"])
        with pytest.raises(ParseError) as exc:
            load_csv(f)
        assert exc.value.row == 3

    def test_non_finite_value(self, tmp_path):
        f = tmp_path / "s.csv"
        write_csv(f, ["2020-01-01,1.0", "2020-01-02,nan"])
        with pytest.raises(NonFiniteValue):
            load_csv(f)

    def test_single_row_too_short(self, tmp_path):
        f = tmp_path / "s.csv"
        write_csv(f, ["2020-01-01,1.0"])
        with pytest.raises(ParseError):
            load_csv(f)

    def test_round_trip(self, tmp_path):
        ts = synthesize(SynthSpec(length=40, period=10, amplitude=2.0, noise_std=0.3, seed=5))
        f = tmp_path / "rt.csv"
        save_csv(ts, f)
        back = load_csv(f)
        np.testing.assert_array_equal(back.values, ts.values)
        np.testing.assert_array_equal(back.timestamps, ts.timestamps)


class TestSynthesize:
    def test_noiseless_is_pure_sinusoid(self):
        # period divisible by 4 so the peak is sampled exactly
        ts = synthesize(SynthSpec(length=200, period=100, amplitude=3.0,
                                  trend_slope=0.0, noise_std=0.0, seed=1))
        assert np.max(np.abs(ts.values)) == pytest.approx(3.0, abs=1e-12)

    def test_deterministic_for_seed(self):
        spec = SynthSpec(length=300, period=50, amplitude=1.0, noise_std=0.4,
                         ar_coeff=0.5, seed=9)
        a, b = synthesize(spec), synthesize(spec)
        np.testing.assert_array_equal(a.values, b.values)

    def test_ar1_coefficient_recovered(self):
        # independent AR(1) statistics oracle on the detrended residual
        spec = SynthSpec(length=1000, period=365, amplitude=1.0, trend_slope=0.0,
                         noise_std=0.1, ar_coeff=0.7, seed=42)
        ts = synthesize(spec)
        t = np.arange(1000)
        residual = ts.values - np.sin(2 * np.pi * t / 365)
        e = residual - residual.mean()
        r1 = np.sum(e[1:] * e[:-1]) / np.sum(e * e)
        assert abs(r1 - 0.7) <= 0.1

    @pytest.mark.parametrize("ar_coeff", [0.0, 0.3, 0.7, 0.95, 0.999])
    @pytest.mark.parametrize("length, period", [(2, 1), (20, 10), (730, 365), (2000, 365)])
    def test_ar1_noise_matches_lfilter(self, ar_coeff, length, period):
        # scipy.signal.lfilter as the oracle, bit for bit, from the minimum
        # length 2*period up to the CLI's default series
        for seed in range(12):
            spec = SynthSpec(length=length, period=period, amplitude=2.0, trend_slope=0.01,
                             noise_std=[0.0, 0.5, 5.0][seed % 3], ar_coeff=ar_coeff, seed=seed)
            t = np.arange(length, dtype=np.float64)
            eta = np.random.default_rng(seed).normal(0.0, spec.noise_std, size=length)
            expected = (spec.amplitude * np.sin(2.0 * np.pi * t / period) + spec.trend_slope * t
                        + lfilter([1.0], [1.0, -ar_coeff], eta))
            assert synthesize(spec).values.tobytes() == expected.tobytes()

    def test_invalid_specs(self):
        with pytest.raises(InvalidSpec):
            SynthSpec(length=100, period=80)  # length < 2*period
        with pytest.raises(InvalidSpec):
            SynthSpec(length=100, period=10, noise_std=-1.0)
        with pytest.raises(InvalidSpec):
            SynthSpec(length=100, period=10, ar_coeff=1.0)
        for field in ("amplitude", "trend_slope", "noise_std"):
            with pytest.raises(InvalidSpec, match="must be finite"):
                SynthSpec(length=100, period=10, **{field: 10**400})


class TestSplit:
    def test_exact_arithmetic(self):
        ts = synthesize(SynthSpec(length=10, period=5, amplitude=1.0, seed=0))
        train, test = split(ts, 0.8)
        assert (len(train), len(test)) == (8, 2)

    def test_reference_length_split(self):
        # floor(0.8 * 9321) = 7456
        ts = TimeSeries(np.datetime64("1998-01-02") + np.arange(9321),
                        np.linspace(1.0, 2.0, 9321))
        train, test = split(ts, 0.8)
        assert (len(train), len(test)) == (7456, 1865)

    def test_boundary_fraction_rejected(self):
        ts = synthesize(SynthSpec(length=10, period=5, seed=0))
        with pytest.raises(InvalidFraction):
            split(ts, 1.0)
        with pytest.raises(InvalidFraction):
            split(ts, 0.0)

    def test_chronological(self):
        ts = synthesize(SynthSpec(length=64, period=8, amplitude=1.0, seed=3))
        train, test = split(ts, 0.6)
        assert train.timestamps.max() < test.timestamps.min()
        np.testing.assert_array_equal(
            np.concatenate([train.values, test.values]), ts.values)


class TestScaler:
    def test_two_point_population_convention(self):
        ts = TimeSeries(np.datetime64("2020-01-01") + np.arange(2), [1.0, 3.0])
        sp = fit_scaler(ts)
        assert sp.mean == 2.0 and sp.std == 1.0
        np.testing.assert_allclose(apply_scaler(ts, sp).values, [-1.0, 1.0])

    def test_apply_normalizes_fit_segment(self):
        ts = synthesize(SynthSpec(length=500, period=50, amplitude=4.0,
                                  trend_slope=0.01, noise_std=0.5, seed=2))
        sp = fit_scaler(ts)
        scaled = apply_scaler(ts, sp)
        assert abs(scaled.values.mean()) < 1e-9
        assert abs(scaled.values.std() - 1.0) < 1e-9

    def test_round_trip_identity(self):
        ts = synthesize(SynthSpec(length=300, period=30, amplitude=2.0,
                                  noise_std=1.0, seed=11))
        sp = fit_scaler(ts)
        back = invert_scaler(apply_scaler(ts, sp), sp)
        np.testing.assert_allclose(back.values, ts.values, atol=1e-9)

    @given(st.lists(st.floats(-1e6, 1e6), min_size=3, max_size=50))
    @settings(max_examples=60, deadline=None)
    def test_round_trip_property(self, values):
        values = np.asarray(values)
        if np.std(values) == 0:
            return
        ts = TimeSeries(np.datetime64("2020-01-01") + np.arange(len(values)), values)
        sp = fit_scaler(ts)
        back = invert_scaler(apply_scaler(ts, sp), sp)
        np.testing.assert_allclose(back.values, ts.values, atol=1e-6, rtol=1e-9)

    def test_constant_series_rejected(self):
        ts = TimeSeries(np.datetime64("2020-01-01") + np.arange(5), np.full(5, 7.0))
        with pytest.raises(ZeroVariance):
            fit_scaler(ts)

    def test_fitted_on_train_only(self):
        base = synthesize(SynthSpec(length=100, period=10, amplitude=1.0,
                                    noise_std=0.2, seed=4))
        train, _ = split(base, 0.8)
        sp = fit_scaler(train)
        mutated = TimeSeries(
            base.timestamps,
            np.concatenate([base.values[:80], base.values[80:] + 1e6]))
        train2, _ = split(mutated, 0.8)
        sp2 = fit_scaler(train2)
        assert sp == sp2


class TestMakeWindows:
    def test_hand_enumerable(self):
        ts = TimeSeries(np.datetime64("2020-01-01") + np.arange(4), [1.0, 2.0, 3.0, 4.0])
        ds = make_windows(ts, 2)
        np.testing.assert_array_equal(ds.inputs, [[1, 2], [2, 3]])
        np.testing.assert_array_equal(ds.targets, [3, 4])

    def test_window_equal_length_rejected(self):
        ts = TimeSeries(np.datetime64("2020-01-01") + np.arange(4), [1.0, 2.0, 3.0, 4.0])
        with pytest.raises(WindowTooLarge):
            make_windows(ts, 4)

    def test_count_arithmetic(self):
        ts = TimeSeries(np.datetime64("1998-01-02") + np.arange(9321),
                        np.linspace(0.0, 1.0, 9321))
        assert len(make_windows(ts, 15)) == 9321 - 15

    @pytest.mark.parametrize("n, w", [(2, 1), (16, 15), (40, 1), (40, 7), (2000, 15)])
    def test_bytes_match_sliding_window_view(self, n, w):
        values = np.random.default_rng(n + w).normal(size=n)
        ts = TimeSeries(np.datetime64("2020-01-01") + np.arange(n), values)
        ds = make_windows(ts, w)
        expected = np.lib.stride_tricks.sliding_window_view(values, w)[:n - w]
        assert ds.inputs.shape == expected.shape and ds.inputs.tobytes() == expected.tobytes()
        assert ds.inputs.flags.c_contiguous and not np.shares_memory(ds.inputs, ts.values)

    @given(st.integers(2, 40), st.integers(0, 1000))
    @settings(max_examples=50, deadline=None)
    def test_alignment_property(self, n, seed):
        values = np.random.default_rng(seed).normal(size=n + 1)
        ts = TimeSeries(np.datetime64("2020-01-01") + np.arange(n + 1), values)
        w = max(1, n // 2)
        ds = make_windows(ts, w)
        for i in range(len(ds)):
            assert ds.targets[i] == values[i + w]
            np.testing.assert_array_equal(ds.inputs[i], values[i:i + w])


class TestPrepare:
    """``prepare`` against the split, scaler and windowing chain it runs."""

    @staticmethod
    def ramp(n=10):
        return TimeSeries(np.datetime64("2020-01-01") + np.arange(n), 1.0 + np.arange(n))

    def test_matches_the_chain_written_out(self):
        ts = synthesize(SynthSpec(length=120, period=20, amplitude=3.0, noise_std=0.5,
                                  ar_coeff=0.4, seed=5))
        w = 7
        data = prepare(ts, 0.75, w)
        train_ts, _ = split(ts, 0.75)
        scaler = fit_scaler(train_ts)
        windows = make_windows(apply_scaler(ts, scaler), w)
        first_held = len(train_ts) - w
        assert data.train_len == len(train_ts) == 90
        assert data.scaler == scaler
        np.testing.assert_array_equal(data.train.inputs, windows.inputs[:first_held])
        np.testing.assert_array_equal(data.train.targets, windows.targets[:first_held])
        np.testing.assert_array_equal(data.held.inputs, windows.inputs[first_held:])
        np.testing.assert_array_equal(data.held.targets, windows.targets[first_held:])
        assert data.train.w == data.held.w == w

    def test_hand_enumerable_boundary(self):
        # 6 training values 1..6: training targets end at 6, and the first
        # held-out window spans the boundary
        data = prepare(self.ramp(), 0.6, 2, ScalerParams(mean=0.0, std=1.0))
        assert data.train_len == 6
        np.testing.assert_array_equal(data.train.inputs, [[1, 2], [2, 3], [3, 4], [4, 5]])
        np.testing.assert_array_equal(data.train.targets, [3, 4, 5, 6])
        np.testing.assert_array_equal(data.held.inputs, [[5, 6], [6, 7], [7, 8], [8, 9]])
        np.testing.assert_array_equal(data.held.targets, [7, 8, 9, 10])

    def test_given_scaler_is_not_refitted(self, monkeypatch):
        def refit(train):
            raise AssertionError("fit_scaler called with a scaler given")

        monkeypatch.setattr(series_module, "fit_scaler", refit)
        scaler = ScalerParams(mean=4.0, std=2.0)
        data = prepare(self.ramp(), 0.6, 2, scaler)
        assert data.scaler is scaler
        np.testing.assert_array_equal(data.train.targets, (np.arange(3, 7) - 4.0) / 2.0)

    def test_window_past_training_segment(self):
        with pytest.raises(WindowTooLarge, match="window 6 does not fit in a training segment of 6"):
            prepare(self.ramp(), 0.6, 6)
        with pytest.raises(WindowTooLarge, match="out of range for series of length 10"):
            prepare(self.ramp(), 0.6, 10)
        assert len(prepare(self.ramp(), 0.6, 5).train) == 1

    def test_error_order(self):
        flat = TimeSeries(np.datetime64("2020-01-01") + np.arange(10), np.ones(10))
        with pytest.raises(InvalidFraction):
            prepare(flat, 1.0, 20)
        with pytest.raises(ZeroVariance):
            prepare(flat, 0.6, 20)

    def test_calls_the_module_functions(self, monkeypatch):
        # through the module's names, so a wrapper installed on the module
        # (as the benchmark's tracer does) sees every step
        calls = []
        for name in ("split", "fit_scaler", "apply_scaler", "make_windows"):
            fn = getattr(series_module, name)
            monkeypatch.setattr(series_module, name,
                                lambda *a, _fn=fn, _name=name: calls.append(_name) or _fn(*a))
        prepare(self.ramp(), 0.6, 2)
        assert calls == ["split", "fit_scaler", "apply_scaler", "make_windows"]


class TestScalerParamsValidation:
    def test_rejects_zero_std(self):
        with pytest.raises(ZeroVariance):
            ScalerParams(mean=0.0, std=0.0)
