import itertools
import math
import multiprocessing
import os
import signal
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fusecast.errors import (
    InvalidSpec,
    LengthMismatch,
    MalformedAttention,
    ShapeMismatch,
    WindowTooLargeForExact,
)
from fusecast.explain import (
    ExplainConfig,
    _CoalitionModel,
    _coalition_values,
    combine,
    explain,
    gaussian_smooth,
    mean_attention,
    sample_background,
    shap_exact,
    shap_sampled,
)
from fusecast import nn
from fusecast.nn import ModelConfig, ModelParams, _forward_batch, init_params
from fusecast.train import predict_batch

from conftest import count_workspaces, workspace_sizes
from test_nn import grid_cells, zeroed


def composites(f):
    """Coalition model function from a batched window function (n, w) ->
    (n,): the (n_masks, n_bg) outputs of the composite windows
    where(present[i], x, background[j])."""
    def model(present, x, background):
        windows = np.where(present[:, None, :], x, background).reshape(-1, len(x))
        return np.asarray(f(windows)).reshape(len(present), len(background))
    return model


def rowwise(f):
    """Coalition model function from a one-window function."""
    return composites(lambda windows: np.array([f(row) for row in windows]))


def shap_permutation_oracle(f, x, background):
    """Independent Shapley oracle: average marginal contributions over all
    w! orderings, with its own composite-window evaluation."""
    w = len(x)
    background = np.asarray(background, dtype=np.float64)

    def value(subset):
        composite = background.copy()
        idx = list(subset)
        composite[:, idx] = x[idx]
        return float(np.mean([f(row) for row in composite]))

    cache = {}

    def cached_value(subset):
        key = frozenset(subset)
        if key not in cache:
            cache[key] = value(key)
        return cache[key]

    s = np.zeros(w)
    for order in itertools.permutations(range(w)):
        prefix = set()
        prev = cached_value(prefix)
        for i in order:
            prefix.add(i)
            cur = cached_value(prefix)
            s[i] += cur - prev
            prev = cur
    return s / math.factorial(w), cached_value(frozenset())


def small_model(w, seed=0):
    params = init_params(ModelConfig(w=w, cnn_layers=2, filters=3, kernel_size=2,
                                     heads=2, head_dim=2, seed=seed))

    def f(window):
        from fusecast.nn import _forward_batch
        return float(_forward_batch(params, np.asarray(window)[None])[0][0])

    return params, f


class TestMeanAttention:
    def test_uniform(self):
        a = mean_attention(np.full((2, 4, 4), 0.25))
        np.testing.assert_allclose(a, 0.25)

    def test_hand_mean(self):
        att = np.array([[[1.0, 0.0], [0.0, 1.0]]])
        np.testing.assert_allclose(mean_attention(att), [0.5, 0.5])

    def test_random_stochastic_sums_to_one(self, rng):
        raw = rng.uniform(size=(3, 6, 6))
        att = raw / raw.sum(axis=2, keepdims=True)
        assert abs(mean_attention(att).sum() - 1.0) < 1e-9

    def test_rejects_bad_rows(self):
        att = np.full((1, 3, 3), 0.4)
        with pytest.raises(MalformedAttention):
            mean_attention(att)
        with pytest.raises(MalformedAttention):
            mean_attention(np.zeros((2, 3)))


class TestShapExact:
    def test_linear_game(self):
        x = np.array([1.0, -2.0, 3.0])
        result = shap_exact(rowwise(lambda v: float(np.sum(v))), x, np.zeros((1, 3)))
        np.testing.assert_allclose(result.s, x, atol=1e-12)
        assert abs(result.base_value) < 1e-12

    def test_constant_game(self, rng):
        x = rng.normal(size=4)
        result = shap_exact(rowwise(lambda v: 7.5), x, rng.normal(size=(3, 4)))
        np.testing.assert_allclose(result.s, 0.0, atol=1e-12)
        assert result.base_value == 7.5

    @pytest.mark.parametrize("w", [4, 6])
    def test_matches_permutation_enumeration(self, w, rng):
        _, f = small_model(w, seed=w)
        x = rng.normal(size=w)
        background = rng.normal(size=(5, w))
        result = shap_exact(rowwise(f), x, background)
        s_oracle, base_oracle = shap_permutation_oracle(f, x, background)
        np.testing.assert_allclose(result.s, s_oracle, atol=1e-9)
        assert abs(result.base_value - base_oracle) < 1e-9

    @pytest.mark.parametrize("w", [4, 6])
    def test_additivity(self, w, rng):
        _, f = small_model(w, seed=w + 10)
        x = rng.normal(size=w)
        background = rng.normal(size=(4, w))
        result = shap_exact(rowwise(f), x, background)
        assert abs(result.base_value + result.s.sum() - f(x)) < 1e-9

    def test_window_cap(self):
        with pytest.raises(WindowTooLargeForExact):
            shap_exact(rowwise(lambda v: 0.0), np.zeros(13), np.zeros((1, 13)))

    def test_symmetry_of_exchangeable_lags(self):
        # f symmetric in lags 0 and 1, background identical in those lags
        f = lambda v: float(v[0] * v[1] + v[2])
        x = np.array([2.0, 2.0, 1.0])
        background = np.array([[0.5, 0.5, 0.0], [-0.5, -0.5, 1.0]])
        result = shap_exact(rowwise(f), x, background)
        assert abs(result.s[0] - result.s[1]) < 1e-9

    def test_null_player(self, rng):
        # f provably ignores lag 2
        f = lambda v: float(v[0] - 3.0 * v[1] + v[3] ** 2)
        x = rng.normal(size=4)
        background = rng.normal(size=(6, 4))
        result = shap_exact(rowwise(f), x, background)
        assert abs(result.s[2]) < 1e-9


class TestShapSampled:
    def test_linear_exact_for_any_m(self, rng):
        weights = rng.normal(size=5)
        f = lambda v: float(weights @ v)
        x = rng.normal(size=5)
        background = rng.normal(size=(3, 5))
        exact = shap_exact(rowwise(f), x, background)
        sampled = shap_sampled(rowwise(f), x, background, m=4, seed=1)
        np.testing.assert_allclose(sampled.s, exact.s, atol=1e-9)

    def test_additivity_enforced(self, rng):
        _, f = small_model(6, seed=2)
        x = rng.normal(size=6)
        background = rng.normal(size=(4, 6))
        result = shap_sampled(rowwise(f), x, background, m=40, seed=5)
        assert abs(result.base_value + result.s.sum() - f(x)) < 1e-9

    def test_deterministic(self, rng):
        _, f = small_model(5, seed=3)
        x = rng.normal(size=5)
        background = rng.normal(size=(4, 5))
        a = shap_sampled(rowwise(f), x, background, m=30, seed=9)
        b = shap_sampled(rowwise(f), x, background, m=30, seed=9)
        np.testing.assert_array_equal(a.s, b.s)

    def test_converges_to_exact(self, rng):
        _, f = small_model(6, seed=4)
        x = rng.normal(size=6)
        background = rng.normal(size=(4, 6))
        exact = shap_exact(rowwise(f), x, background)
        scale = np.abs(exact.s).max()
        errors = []
        for m in (50, 500, 2000):
            sampled = shap_sampled(rowwise(f), x, background, m=m, seed=11)
            errors.append(np.abs(sampled.s - exact.s).mean())
        assert errors[2] <= errors[0] + 1e-12
        assert errors[2] < 0.05 * scale


def scalar_value(f_row, x, background, mask):
    """v(S) by the per-row definition: the mean of one model call per
    composite window."""
    present = np.array([(mask >> i) & 1 for i in range(len(x))], dtype=bool)
    return float(np.mean([f_row(row) for row in np.where(present, x, background)]))


def scalar_shap_exact(f_row, x, background):
    """Weighted coalition formula, one model call per background row."""
    w = len(x)
    v = {mask: scalar_value(f_row, x, background, mask) for mask in range(1 << w)}
    s = np.zeros(w)
    for mask in range(1 << w):
        size = bin(mask).count("1")
        for i in range(w):
            if not mask & (1 << i):
                weight = math.factorial(size) * math.factorial(w - size - 1) / math.factorial(w)
                s[i] += weight * (v[mask | (1 << i)] - v[mask])
    return s, v[0]


def scalar_shap_sampled(f_row, x, background, m, seed):
    """Antithetic permutation sampling with the same RNG stream and residual
    redistribution, one model call per background row."""
    w = len(x)
    cache = {}

    def v(mask):
        if mask not in cache:
            cache[mask] = scalar_value(f_row, x, background, mask)
        return cache[mask]

    rng = np.random.default_rng(seed)
    contrib = np.zeros(w)
    order = None
    for j in range(m):
        order = rng.permutation(w) if j % 2 == 0 else order[::-1]
        mask, prev = 0, v(0)
        for i in order:
            mask |= 1 << int(i)
            contrib[i] += v(mask) - prev
            prev = v(mask)
    s = contrib / m
    residual = v((1 << w) - 1) - v(0) - s.sum()
    weight = np.abs(s)
    s = s + (residual * weight / weight.sum() if weight.sum() > 0 else residual / w)
    return s, v(0)


def default_model(w=15, seed=0):
    """The default model config; coalition and one-row model functions."""
    params = init_params(ModelConfig(w=w, seed=seed))
    return (params, composites(lambda windows: predict_batch(params, windows)),
            lambda row: float(_forward_batch(params, row[None])[0][0]))


class Counted:
    """Coalition model function that records the composite windows of
    every call."""

    def __init__(self, f):
        self.f, self.rows = f, []

    def __call__(self, present, x, background):
        self.rows.append(len(present) * len(background))
        return self.f(present, x, background)


class TestBatchedCoalitions:
    def test_sampled_matches_scalar_reference(self, rng):
        _, f, f_row = default_model()
        x = rng.normal(size=15)
        background = rng.normal(size=(8, 15))
        result = shap_sampled(f, x, background, m=20, seed=4)
        s_ref, base_ref = scalar_shap_sampled(f_row, x, background, m=20, seed=4)
        np.testing.assert_allclose(result.s, s_ref, rtol=0, atol=1e-12)
        assert abs(result.base_value - base_ref) <= 1e-12

    def test_exact_matches_scalar_reference(self, rng):
        _, f, f_row = default_model(w=8, seed=2)
        x = rng.normal(size=8)
        background = rng.normal(size=(5, 8))
        counted = Counted(f)
        result = shap_exact(counted, x, background)
        s_ref, base_ref = scalar_shap_exact(f_row, x, background)
        np.testing.assert_allclose(result.s, s_ref, rtol=0, atol=1e-12)
        assert abs(result.base_value - base_ref) <= 1e-12
        assert result.coalitions == 1 << 8
        assert sum(counted.rows) == len(background) * result.coalitions

    def test_all_permutations_in_one_call(self, rng):
        _, f, _ = default_model()
        x = rng.normal(size=15)
        background = rng.normal(size=(6, 15))
        counted = Counted(f)
        result = shap_sampled(counted, x, background, m=20, seed=1)
        assert counted.rows == [len(background) * result.coalitions]
        # each new prefix of a permutation is a distinct mask; 0 and the full
        # mask are shared by all
        assert 16 <= result.coalitions <= 20 * 14 + 2

    def test_exact_chunks_are_bounded(self, rng, monkeypatch):
        # the package attribute `explain` is the function, so take the module
        monkeypatch.setattr(sys.modules["fusecast.explain"], "FILL_ROWS", 40)
        _, f, f_row = default_model(w=6, seed=3)
        x = rng.normal(size=6)
        background = rng.normal(size=(7, 6))
        counted = Counted(f)
        result = shap_exact(counted, x, background)
        assert max(counted.rows) <= 40
        assert sum(counted.rows) == 7 * 64
        s_ref, _ = scalar_shap_exact(f_row, x, background)
        np.testing.assert_allclose(result.s, s_ref, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n_bg", [1, 33])
    def test_explain_background_sizes(self, n_bg, rng):
        params, _, f_row = default_model(seed=5)
        x = rng.normal(size=15)
        background = rng.normal(size=(n_bg, 15))
        config = ExplainConfig(background_size=n_bg, sample_permutations=6, seed=7)
        result = explain(params, x, background, config)
        s_ref, base_ref = scalar_shap_sampled(f_row, x, background, m=6, seed=7)
        np.testing.assert_allclose(result.s, s_ref, rtol=0, atol=1e-12)
        assert abs(result.base_value - base_ref) <= 1e-12
        assert abs(result.base_value + result.s.sum() - result.prediction) < 1e-9
        assert result.coalitions >= 16


def plain_outputs(params, present, x, background):
    """(n, n_bg) outputs of the composite windows by plain forward calls."""
    return composites(lambda windows: predict_batch(params, windows))(present, x, background)


def receptive_field(config):
    return config.cnn_layers * (config.kernel_size - 1) + 1


def assert_memo_matches_plain(params, present, x, background):
    """Outputs and coalition values of the coalition model within 1e-13 of
    plain forward calls; the conv stack runs on min(2^R, n) windows per
    background row."""
    model = _CoalitionModel(params)
    got = model(present, x, background)
    expect = plain_outputs(params, present, x, background)
    np.testing.assert_allclose(got, expect, rtol=0, atol=1e-13)
    np.testing.assert_allclose(got.mean(axis=1), expect.mean(axis=1), rtol=0, atol=1e-13)
    field = receptive_field(params.config)
    assert model.conv_windows == min(1 << field, len(present)) * len(background)


@st.composite
def coalition_cells(draw):
    """A small model config with a mask count and a background size."""
    cfg, _ = draw(grid_cells())
    return cfg, draw(st.integers(1, 40)), draw(st.integers(1, 3))


class TestCoalitionValues:
    def test_background_checked(self, rng):
        f = composites(lambda windows: windows.sum(axis=1))
        x = rng.normal(size=4)
        for background in (rng.normal(size=(3, 5)), rng.normal(size=4)):
            with pytest.raises(LengthMismatch):
                _coalition_values(f, x, background, [0])
        with pytest.raises(InvalidSpec, match="non-empty"):
            _coalition_values(f, x, np.empty((0, 4)), [0])

    def test_distinct_masks_in_first_seen_order_and_chunked(self, rng, monkeypatch):
        # FILL_ROWS = 15 composites at 3 background rows: 5 masks per f call
        monkeypatch.setattr(sys.modules["fusecast.explain"], "FILL_ROWS", 15)
        x, background = rng.normal(size=4), rng.normal(size=(3, 4))
        model = composites(lambda windows: windows.sum(axis=1))
        calls = []

        def f(present, x, background):
            calls.append(present.copy())
            return model(present, x, background)

        v = _coalition_values(f, x, background, [5, 0, 5, 15, 3, 0, 9, 1, 2, 7, 6, 15])
        distinct = [5, 0, 15, 3, 9, 1, 2, 7, 6]
        assert list(v) == distinct
        assert [len(c) for c in calls] == [5, 4]
        bits = (np.array(distinct)[:, None] >> np.arange(4)) & 1 == 1
        np.testing.assert_array_equal(np.concatenate(calls), bits)
        for mask, present in zip(distinct, bits):
            expect = np.where(present, x, background).sum(axis=1).mean()
            assert abs(v[mask] - expect) <= 1e-12


class TestMemoizedCoalitions:
    """The coalition model that ``explain`` uses, against plain forward calls
    over the composite windows."""

    @pytest.mark.parametrize("config,n_masks,n_bg", [
        (dict(w=15), 300, 7),                                                    # R=5 < w
        (dict(w=15, cnn_layers=3, filters=40, kernel_size=4, heads=3), 1100, 2),  # 2^10 < n
        (dict(w=15, cnn_layers=3, filters=40, kernel_size=4, heads=3), 200, 2),   # 2^10 >= n
        (dict(w=8, cnn_layers=4, kernel_size=3), 256, 5),                        # R=9 >= w
    ])
    def test_matches_plain_forward(self, config, n_masks, n_bg, rng):
        params = init_params(ModelConfig(**config, seed=4))
        w = config["w"]
        present = rng.random((n_masks, w)) < 0.5
        assert_memo_matches_plain(params, present, rng.normal(size=w), rng.normal(size=(n_bg, w)))

    def test_exact_mode(self, rng):
        params = init_params(ModelConfig(w=8, seed=6))
        x, background = rng.normal(size=8), rng.normal(size=(5, 8))
        every_mask = (np.arange(256)[:, None] >> np.arange(8)) & 1 == 1
        assert_memo_matches_plain(params, every_mask, x, background)
        memo = shap_exact(_CoalitionModel(params), x, background)
        plain = shap_exact(lambda *args: plain_outputs(params, *args), x, background)
        np.testing.assert_allclose(memo.s, plain.s, rtol=0, atol=1e-13)
        assert abs(memo.base_value - plain.base_value) <= 1e-13

    @given(coalition_cells())
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_sampled_cells(self, cell):
        cfg, n_masks, n_bg = cell
        params = init_params(ModelConfig(**cfg))
        rng = np.random.default_rng(cfg["seed"])
        present = rng.random((n_masks, cfg["w"])) < 0.5
        assert_memo_matches_plain(params, present, rng.normal(size=cfg["w"]),
                                  rng.normal(size=(n_bg, cfg["w"])))

    def test_conv_windows_bounded_per_chunk(self, rng, monkeypatch):
        # the package attribute `explain` is the function, so take the module
        monkeypatch.setattr(sys.modules["fusecast.explain"], "FILL_ROWS", 16 * 100)
        params = init_params(ModelConfig(w=15, seed=2))
        x, background = rng.normal(size=15), rng.normal(size=(16, 15))
        model = _CoalitionModel(params)
        counted = Counted(model)
        shap_sampled(counted, x, background, m=40, seed=3)
        assert len(counted.rows) > 1
        assert model.conv_windows <= len(counted.rows) * 2 ** 5 * 16

    def test_explain_reports_conv_windows(self, rng):
        params = init_params(ModelConfig(w=15, seed=2))
        x, background = rng.normal(size=15), rng.normal(size=(16, 15))
        result = explain(params, x, background,
                         ExplainConfig(background_size=16, sample_permutations=40, seed=3))
        # one chunk of more than 2^5 masks: the 32 representatives per row
        assert result.coalitions > 32
        assert result.conv_windows == 32 * 16

    @pytest.mark.parametrize("fill_rows,conv_windows", [
        (64, 100 * 3),   # 2^5 > 64 // 4: the masks are their own representatives
        (128, 32 * 3),   # 2^5 <= 128 // 4: one table of 2^5 windows per background row
    ])
    def test_representative_table_bounded(self, fill_rows, conv_windows, rng, monkeypatch):
        module = sys.modules["fusecast.explain"]
        monkeypatch.setattr(module, "FILL_ROWS", fill_rows)
        monkeypatch.setattr(module, "BLOCK_ROWS", 4)
        sizes = []
        table = nn._folded_table
        monkeypatch.setattr(nn, "_folded_table", lambda params, windows, workspace:
                            sizes.append(len(windows)) or table(params, windows, workspace))
        params = init_params(ModelConfig(w=15, seed=4))   # R = 5
        present = rng.random((100, 15)) < 0.5
        x, background = rng.normal(size=15), rng.normal(size=(3, 15))
        model = _CoalitionModel(params)
        got = model(present, x, background)
        np.testing.assert_allclose(got, plain_outputs(params, present, x, background),
                                   rtol=0, atol=1e-13)
        assert max(sizes) <= max(fill_rows // 4, 4)
        assert model.conv_windows == conv_windows


    def test_one_workspace_for_every_table(self, rng, monkeypatch):
        # identity branch at 3x40 k=4 (R = 10): 8 background blocks of one
        # row, each with a table of 64 masks and one of the other 36, which
        # runs in a view of the first table's workspace
        built = count_workspaces(monkeypatch, nn)
        shapes = []
        table = nn._folded_table
        monkeypatch.setattr(nn, "_folded_table", lambda params, windows, workspace:
                            shapes.append(len(windows)) or table(params, windows, workspace))
        params = init_params(ModelConfig(w=15, cnn_layers=3, filters=40, kernel_size=4,
                                         heads=3, seed=4))
        present = rng.random((100, 15)) < 0.5
        x, background = rng.normal(size=15), rng.normal(size=(8, 15))
        got = _CoalitionModel(params)(present, x, background)
        np.testing.assert_allclose(got, plain_outputs(params, present, x, background),
                                   rtol=0, atol=1e-13)
        assert len(shapes) == 16 and sorted(set(shapes)) == [36, 64]
        assert workspace_sizes(built) == [(64, False, [36])]


def with_cpus(monkeypatch, n):
    """Let ``explain`` see ``n`` CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


class TestParallelCoalitions:
    """``explain`` splits coalition calls over forked workers; the outputs
    must not depend on how many."""

    @pytest.mark.parametrize("config,mode,n_bg,m", [
        (dict(w=15), "sampled", 16, 20),                             # default cell, periodic
        (dict(w=8, cnn_layers=4, kernel_size=3), "sampled", 6, 12),  # R = 9 >= w
        (dict(w=8), "exact", 5, 1),
    ])
    def test_bitwise_independent_of_cpu_count(self, config, mode, n_bg, m, monkeypatch):
        params = init_params(ModelConfig(**config, seed=12))
        rng = np.random.default_rng(5)
        x, background = rng.normal(size=config["w"]), rng.normal(size=(n_bg, config["w"]))
        econfig = ExplainConfig(background_size=n_bg, shap_mode=mode, sample_permutations=m,
                                seed=3)
        results = []
        for cpus in (1, 2, 3):
            with_cpus(monkeypatch, cpus)
            results.append(explain(params, x, background, econfig))
        assert [r.workers for r in results] == [1, 2, 3]
        one = results[0]
        for r in results[1:]:
            for name in ("s", "a", "c", "c_smooth", "se"):
                np.testing.assert_array_equal(getattr(r, name), getattr(one, name))
            assert (r.base_value, r.conv_windows, r.coalitions) == \
                (one.base_value, one.conv_windows, one.coalitions)

    def test_workers_leave_on_return_and_raise(self, rng, monkeypatch):
        with_cpus(monkeypatch, 2)
        params = init_params(ModelConfig(w=15, seed=2))
        x, background = rng.normal(size=15), rng.normal(size=(8, 15))
        config = ExplainConfig(background_size=8, sample_permutations=10)
        assert explain(params, x, background, config).workers == 2
        assert multiprocessing.active_children() == []

        def fail(params, table):
            # only coalition composites are scored here: the explained
            # window's own forward runs _forward_batch
            raise ShapeMismatch("bad rows")

        monkeypatch.setattr(nn, "_folded_predict", fail)
        with pytest.raises(ShapeMismatch):
            explain(params, x, background, config)
        assert multiprocessing.active_children() == []

    @pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                        reason="workers are forked")
    def test_workers_ignore_ctrl_c(self, rng, monkeypatch):
        # Ctrl-C signals the whole process group; only the parent reports it
        with_cpus(monkeypatch, 2)
        present = rng.random((100, 15)) < 0.5
        x, background = rng.normal(size=15), rng.normal(size=(8, 15))
        with _CoalitionModel(init_params(ModelConfig(w=15, seed=2))) as model:
            model(present, x, background)
            handler = model._pool.submit(signal.getsignal, signal.SIGINT).result()
        assert model.workers == 2 and handler == signal.SIG_IGN
        assert signal.getsignal(signal.SIGINT) is signal.default_int_handler

    def test_parameters_never_pickled(self, rng, monkeypatch):
        def refuse(self, protocol):
            raise AssertionError("model parameters pickled")

        monkeypatch.setattr(ModelParams, "__reduce_ex__", refuse)
        with_cpus(monkeypatch, 2)
        params = init_params(ModelConfig(w=15, seed=2))
        x, background = rng.normal(size=15), rng.normal(size=(8, 15))
        result = explain(params, x, background,
                         ExplainConfig(background_size=8, sample_permutations=10))
        assert result.workers == 2

    def test_single_background_row_starts_no_process(self, rng, monkeypatch):
        def refuse():
            raise AssertionError("process started")

        monkeypatch.setattr(os, "fork", refuse)
        with_cpus(monkeypatch, 2)
        params = init_params(ModelConfig(w=15, seed=2))
        x, background = rng.normal(size=15), rng.normal(size=(1, 15))
        result = explain(params, x, background,
                         ExplainConfig(background_size=1, sample_permutations=10))
        assert result.workers == 1

    def test_edge_drop_checked_before_any_model_call(self, rng, monkeypatch):
        calls = []
        monkeypatch.setattr(sys.modules["fusecast.explain"], "_forward_batch",
                            lambda *args: calls.append("forward"))
        monkeypatch.setattr(_CoalitionModel, "__call__",
                            lambda self, *args: calls.append("coalitions"))
        params = init_params(ModelConfig(w=15, seed=2))
        x, background = rng.normal(size=15), rng.normal(size=(64, 15))
        with pytest.raises(InvalidSpec, match="edge_drop"):
            explain(params, x, background, ExplainConfig(edge_drop=15))
        assert calls == []


def scalar_standard_error(f_row, x, background, m, seed):
    """Per-lag standard error of the mean over antithetic pairs of
    permutation marginals, same RNG stream as shap_sampled, one model call
    per background row."""
    w = len(x)
    rng = np.random.default_rng(seed)
    marginals = np.zeros((m, w))
    order = None
    for j in range(m):
        order = rng.permutation(w) if j % 2 == 0 else order[::-1]
        mask, prev = 0, scalar_value(f_row, x, background, 0)
        for i in order:
            mask |= 1 << int(i)
            cur = scalar_value(f_row, x, background, mask)
            marginals[j, i] = cur - prev
            prev = cur
    pairs = [(marginals[2 * p] + marginals[2 * p + 1]) / 2 for p in range(m // 2)]
    return np.std(pairs, axis=0, ddof=1) / math.sqrt(m // 2)


class TestStandardError:
    @pytest.mark.parametrize("m", [4, 11])
    def test_matches_pair_oracle(self, m, rng):
        _, f = small_model(5, seed=2)
        x, background = rng.normal(size=5), rng.normal(size=(3, 5))
        result = shap_sampled(rowwise(f), x, background, m=m, seed=5)
        np.testing.assert_allclose(result.se, scalar_standard_error(f, x, background, m, 5),
                                   rtol=1e-9, atol=1e-15)
        assert np.any(result.se > 0)

    def test_linear_game_has_no_spread(self, rng):
        weights = rng.normal(size=5)
        result = shap_sampled(rowwise(lambda v: float(weights @ v)), rng.normal(size=5),
                              rng.normal(size=(3, 5)), m=8, seed=1)
        np.testing.assert_allclose(result.se, 0.0, atol=1e-12)

    def test_undefined_below_two_pairs_and_zero_when_exact(self, rng):
        _, f = small_model(4, seed=1)
        x, background = rng.normal(size=4), rng.normal(size=(2, 4))
        assert np.all(np.isnan(shap_sampled(rowwise(f), x, background, m=3, seed=0).se))
        np.testing.assert_array_equal(shap_exact(rowwise(f), x, background).se, 0.0)


class TestCombine:
    def test_uniform_attention_scales(self, rng):
        s = rng.normal(size=6)
        c = combine(s, np.full(6, 1.0 / 6))
        np.testing.assert_allclose(c, s / 6, atol=1e-15)
        assert np.argmax(np.abs(c)) == np.argmax(np.abs(s))

    def test_zero_shap(self):
        np.testing.assert_array_equal(combine(np.zeros(4), np.full(4, 0.25)), np.zeros(4))

    def test_elementwise_oracle(self, rng):
        s, a = rng.normal(size=8), rng.uniform(size=8)
        c = combine(s, a)
        for i in range(8):
            assert abs(c[i] - s[i] * a[i]) < 1e-15

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            combine(np.zeros(3), np.zeros(4))


class TestGaussianSmooth:
    def test_constant_preserved(self):
        c = np.full(12, 3.7)
        np.testing.assert_allclose(gaussian_smooth(c, 2.0), c, atol=1e-12)

    def test_impulse_recovers_kernel(self):
        # radius ceil(4*1)=4 exactly spans a width-9 window centred at 4
        c = np.zeros(9)
        c[4] = 1.0
        out = gaussian_smooth(c, 1.0)
        offsets = np.arange(-4, 5)
        kernel = np.exp(-0.5 * offsets**2)
        kernel /= kernel.sum()
        # centre value is the kernel weight at zero offset; interior values
        # reproduce the kernel exactly (no boundary influence there)
        assert abs(out[4] - kernel[4]) < 1e-12
        np.testing.assert_allclose(out[1:8], kernel[1:8], atol=1e-12)
        # direct-evaluation oracle including the reflect boundary rule
        def reflect(p):
            period = 2 * 9 - 2
            p = abs(p) % period
            return period - p if p >= 9 else p
        expect = np.array([
            sum(kernel[j + 4] * c[reflect(t - j)] for j in range(-4, 5))
            for t in range(9)
        ])
        np.testing.assert_allclose(out, expect, atol=1e-12)

    def test_linearity(self, rng):
        c1, c2 = rng.normal(size=15), rng.normal(size=15)
        alpha, beta = 1.7, -0.4
        lhs = gaussian_smooth(alpha * c1 + beta * c2, 1.5)
        rhs = alpha * gaussian_smooth(c1, 1.5) + beta * gaussian_smooth(c2, 1.5)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_invalid_sigma(self):
        with pytest.raises(InvalidSpec):
            gaussian_smooth(np.zeros(5), 0.0)

    @pytest.mark.parametrize("sigma", [float("nan"), float("inf")])
    def test_non_finite_sigma(self, sigma):
        # math.ceil would raise ValueError or OverflowError on the radius
        with pytest.raises(InvalidSpec, match="sigma must be finite"):
            gaussian_smooth(np.zeros(5), sigma)
        with pytest.raises(InvalidSpec, match="smoothing_sigma must be finite"):
            ExplainConfig(smoothing_sigma=sigma)


class TestSampleBackground:
    def test_returns_all_when_small(self, rng):
        windows = rng.normal(size=(10, 4))
        out = sample_background(windows, 64, seed=1)
        np.testing.assert_array_equal(out, windows)

    def test_subsamples_deterministically(self, rng):
        windows = rng.normal(size=(100, 4))
        a = sample_background(windows, 16, seed=2)
        b = sample_background(windows, 16, seed=2)
        assert a.shape == (16, 4)
        np.testing.assert_array_equal(a, b)


class TestExplainPipeline:
    def test_zero_weight_model(self, rng):
        params, _ = small_model(6, seed=5)
        constant = zeroed(params, b_out=1.0)
        x = rng.normal(size=6)
        background = rng.normal(size=(4, 6))
        result = explain(constant, x, background,
                         ExplainConfig(shap_mode="exact", smoothing_sigma=1.0))
        np.testing.assert_allclose(result.s, 0.0, atol=1e-12)
        np.testing.assert_allclose(result.c, 0.0, atol=1e-12)
        np.testing.assert_allclose(result.c_smooth, 0.0, atol=1e-12)
        assert result.base_value == 1.0

    def test_combined_is_product(self, rng):
        params, _ = small_model(6, seed=6)
        x = rng.normal(size=6)
        background = rng.normal(size=(5, 6))
        result = explain(params, x, background,
                         ExplainConfig(shap_mode="exact", smoothing_sigma=1.0))
        np.testing.assert_allclose(result.c, result.s * result.a, atol=1e-12)

    def test_reported_lags_and_concentration(self, rng):
        params, _ = small_model(10, seed=7)
        x = rng.normal(size=10)
        background = rng.normal(size=(6, 10))
        result = explain(params, x, background,
                         ExplainConfig(shap_mode="sampled", sample_permutations=60,
                                       smoothing_sigma=2.0, seed=3))
        assert result.reported_lags == range(1, 10)  # ceil(0.1*10) = 1 dropped
        assert 0.0 <= result.recency_concentration <= 1.0

    def test_attention_summary_matches_trace(self, rng):
        from fusecast.explain import mean_attention as ma
        params, _ = small_model(7, seed=8)
        x = rng.normal(size=7)
        background = rng.normal(size=(3, 7))
        result = explain(params, x, background,
                         ExplainConfig(shap_mode="exact", smoothing_sigma=1.0))
        _, ws = _forward_batch(params, x[None])
        np.testing.assert_allclose(result.a, ma(ws.att[0]), atol=1e-12)
        assert abs(result.a.sum() - 1.0) < 1e-6
