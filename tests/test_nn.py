import contextlib
import itertools
import json
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fusecast.errors import BadCheckpoint, LengthMismatch, ShapeMismatch
from fusecast.nn import (
    ModelConfig,
    ModelParams,
    Workspace,
    _backward_batch,
    _folded_predict,
    _folded_table,
    _forward_batch,
    _im2col,
    init_params,
    load_checkpoint,
    param_layout,
    save_checkpoint,
)
from fusecast.series import ScalerParams

from conftest import TINY_CONFIG, assert_view_step_is_a_fresh_step


# -- single-window references for the batched path -----------------------

def _conv_windows(x: np.ndarray, k: int) -> np.ndarray:
    """Left-zero-pad (B, w, c) by k-1 and expose sliding windows
    (B, w, c, k); window slot j holds the input at time t-(k-1)+j."""
    b, w, c = x.shape
    padded = np.zeros((b, w + k - 1, c))
    padded[:, k - 1:, :] = x
    return np.lib.stride_tricks.sliding_window_view(padded, k, axis=1)


def causal_conv1d(x: np.ndarray, kernels: np.ndarray, biases: np.ndarray) -> np.ndarray:
    """Same-length causal convolution: out[t] = b + sum_i W_i . x[t-i] with
    x[t-i] = 0 for t-i < 0.

    ``x`` is (w, c_in) or (w,); ``kernels`` is (f, c_in, k) with kernel tap i
    multiplying the input i steps in the past; returns (w, f).
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        x = x[:, None]
    if x.ndim != 2 or kernels.ndim != 3 or kernels.shape[1] != x.shape[1]:
        raise ShapeMismatch(
            f"input channels {x.shape} incompatible with kernels {kernels.shape}"
        )
    if biases.shape != (kernels.shape[0],):
        raise ShapeMismatch(f"biases {biases.shape} incompatible with kernels {kernels.shape}")
    if kernels.shape[2] > x.shape[0]:
        raise ShapeMismatch("kernel longer than the window")
    win = _conv_windows(x[None], kernels.shape[2])
    # tap i looks i steps back: reverse taps so slot j=k-1 aligns with lag 0
    out = np.einsum("btcj,ocj->bto", win, kernels[:, :, ::-1]) + biases
    return out[0]


def conv_stack(params: ModelParams, xb: np.ndarray):
    """Yield each conv layer's pre-activation and activation maps over
    windows (B, w), channel-major (f, B, w), in new arrays: the forward's
    im2col GEMM, bias and ReLU, one layer at a time, outside a workspace."""
    b, w = xb.shape
    h = xb[None]
    for kern, bias in zip(params.conv_kernels, params.conv_biases):
        f, c, k = kern.shape
        cols = np.empty((k, c, b, w))
        _im2col(h, cols)
        pre = np.empty((f, b, w))
        kmat = kern.transpose(0, 2, 1).reshape(f, k * c)
        np.matmul(kmat, cols.reshape(k * c, b * w), out=pre.reshape(f, b * w))
        pre += bias[:, None, None]
        h = np.maximum(pre, 0.0)
        yield pre, h


def row_softmax(logits: np.ndarray) -> np.ndarray:
    """Softmax over the last axis with max-shift, so adding a constant to a
    row leaves its output bit-unchanged."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def mha(h_in: np.ndarray, wq: np.ndarray, wk: np.ndarray, wv: np.ndarray,
        wo: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Multi-head self-attention over a (w, d) feature map.

    Per head: Q = H Wq, K = H Wk, V = H Wv, A = row_softmax(Q K^T / sqrt(d_k)),
    head output A V; heads are concatenated and projected by ``wo``.
    Returns (attention output (w, d'), attention weights (h, w, w)).
    """
    h_in = np.asarray(h_in, dtype=np.float64)
    if h_in.ndim != 2 or wq.ndim != 3 or wq.shape[1] != h_in.shape[1]:
        raise ShapeMismatch(f"features {h_in.shape} incompatible with wq {wq.shape}")
    if wo.shape[0] != wq.shape[0] * wq.shape[2]:
        raise ShapeMismatch(f"wo {wo.shape} incompatible with heads {wq.shape}")
    q, k, v = (np.einsum("td,hde->hte", h_in, m) for m in (wq, wk, wv))
    att = row_softmax(np.einsum("hqe,hse->hqs", q, k) / np.sqrt(wq.shape[2]))
    heads = np.einsum("hqs,hse->qhe", att, v)
    return heads.reshape(h_in.shape[0], -1) @ wo, att


def fuse_pool(h_cnn: np.ndarray, h_att: np.ndarray) -> np.ndarray:
    """Concatenate conv and attention features time-wise and average over
    time: z = (1/w) sum_t [H_cnn[t] || H_att[t]]."""
    if h_cnn.shape[0] != h_att.shape[0]:
        raise LengthMismatch(
            f"temporal lengths differ: {h_cnn.shape[0]} vs {h_att.shape[0]}"
        )
    fused = np.concatenate([h_cnn, h_att], axis=1)
    return fused.mean(axis=0)


def predict_one(params, x) -> float:
    """The batch path on one window."""
    return float(_forward_batch(params, np.asarray(x)[None])[0][0])


def with_tensors(params, tensors) -> ModelParams:
    """The same config over the given tensors, keyed as in ``params.tensors()``."""
    out = ModelParams(params.config, np.empty_like(params.flat))
    for name, view in out.tensors().items():
        view[...] = tensors[name]
    return out


def zeroed(params, b_out=0.0):
    tensors = {name: np.zeros_like(t) for name, t in params.tensors().items()}
    tensors["head.b_out"] = np.asarray(b_out)
    return with_tensors(params, tensors)


class TestInitParams:
    def test_deterministic(self):
        cfg = ModelConfig(w=8, cnn_layers=3, filters=6, kernel_size=3, heads=2, seed=99)
        a, b = init_params(cfg), init_params(cfg)
        for name, t in a.tensors().items():
            np.testing.assert_array_equal(t, b.tensors()[name])

    def test_conv_kernel_shape(self):
        cfg = ModelConfig(w=8, cnn_layers=1, filters=4, kernel_size=2, heads=1)
        p = init_params(cfg)
        assert p.conv_kernels[0].shape == (4, 1, 2)

    def test_layer_widths_uniform_after_first(self):
        cfg = ModelConfig(w=10, cnn_layers=3, filters=5, kernel_size=2, heads=1)
        p = init_params(cfg)
        assert p.conv_kernels[0].shape == (5, 1, 2)
        assert p.conv_kernels[1].shape == (5, 5, 2)
        assert p.conv_kernels[2].shape == (5, 5, 2)

    def test_conv_std_matches_fan_in_target(self):
        # Monte-Carlo moment check: >1e4 entries from the second layer,
        # whose fan-in is filters * kernel_size
        cfg = ModelConfig(w=8, cnn_layers=2, filters=64, kernel_size=4, heads=2, seed=0)
        p = init_params(cfg)
        entries = p.conv_kernels[1].ravel()
        assert entries.size >= 10_000
        target = np.sqrt(2.0 / (64 * 4))
        assert abs(entries.std() - target) / target < 0.20

    def test_draw_order(self):
        # kernels layer by layer, then wq, wk, wv, wo and w_out
        cfg = ModelConfig(w=9, cnn_layers=3, filters=5, kernel_size=3, heads=2, head_dim=3, seed=4)
        rng = np.random.default_rng(cfg.seed)
        expected, c_in = {}, 1
        for i in range(cfg.cnn_layers):
            limit = np.sqrt(6.0 / (c_in * cfg.kernel_size))
            expected[f"conv{i}.kernel"] = rng.uniform(-limit, limit, size=(5, c_in, 3))
            expected[f"conv{i}.bias"] = np.zeros(5)
            c_in = 5
        for name, shape, fans in (("attn.wq", (2, 5, 3), 8), ("attn.wk", (2, 5, 3), 8),
                                  ("attn.wv", (2, 5, 3), 8), ("attn.wo", (6, 6), 12),
                                  ("head.w_out", (11,), 12)):
            limit = np.sqrt(6.0 / fans)
            expected[name] = rng.uniform(-limit, limit, size=shape)
        expected["head.b_out"] = np.zeros(())
        tensors = init_params(cfg).tensors()
        assert list(tensors) == list(expected)
        for name, t in tensors.items():
            np.testing.assert_array_equal(t, expected[name], err_msg=name)

    def test_biases_zero(self, tiny_params):
        assert not tiny_params.conv_biases[0].any()
        assert float(tiny_params.b_out) == 0.0

    def test_default_head_dim(self):
        cfg = ModelConfig(w=20, cnn_layers=3, filters=238, kernel_size=4, heads=4)
        assert cfg.head_dim == round(238 / 4)
        assert cfg.d_attn == 4 * cfg.head_dim


class TestCausalConv:
    def test_single_tap_identity(self):
        x = np.array([3.0, -1.0, 2.0])
        out = causal_conv1d(x, np.ones((1, 1, 1)), np.zeros(1))
        np.testing.assert_array_equal(out[:, 0], x)

    def test_hand_sum_with_zero_pad(self):
        out = causal_conv1d(np.array([1.0, 2.0, 3.0]),
                            np.ones((1, 1, 2)), np.zeros(1))
        np.testing.assert_array_equal(out[:, 0], [1.0, 3.0, 5.0])

    def test_against_double_loop_oracle(self, rng):
        w, c_in, f, k = 16, 3, 5, 4
        x = rng.normal(size=(w, c_in))
        kern = rng.normal(size=(f, c_in, k))
        bias = rng.normal(size=f)
        expect = np.zeros((w, f))
        for t in range(w):
            for o in range(f):
                acc = bias[o]
                for i in range(k):
                    if t - i >= 0:
                        acc += kern[o, :, i] @ x[t - i]
                expect[t, o] = acc
        np.testing.assert_allclose(causal_conv1d(x, kern, bias), expect, atol=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            causal_conv1d(np.zeros((4, 2)), np.ones((1, 3, 2)), np.zeros(1))


class TestMha:
    def test_zero_input_gives_uniform_rows(self, tiny_params):
        w, d = 8, 4
        h_att, att = mha(np.zeros((w, d)), tiny_params.wq, tiny_params.wk,
                         tiny_params.wv, tiny_params.wo)
        np.testing.assert_allclose(att, np.full_like(att, 1.0 / w))
        np.testing.assert_allclose(h_att, 0.0, atol=1e-15)

    def test_scalar_hand_evaluation(self):
        # w=2, one head, identity scalar projections, H = [0, ln 3]
        ln3 = np.log(3.0)
        ident = np.ones((1, 1, 1))
        h = np.array([[0.0], [ln3]])
        h_att, att = mha(h, ident, ident, ident, np.ones((1, 1)))
        np.testing.assert_allclose(att[0, 0], [0.5, 0.5], atol=1e-15)
        z = np.exp([0.0, ln3 * ln3])
        np.testing.assert_allclose(att[0, 1], z / z.sum(), atol=1e-15)
        np.testing.assert_allclose(h_att[:, 0], att[0] @ h[:, 0], atol=1e-15)

    def test_head_permutation_symmetry(self, rng):
        h_heads, d, dk, w = 3, 4, 2, 6
        wq = rng.normal(size=(h_heads, d, dk))
        wk = rng.normal(size=(h_heads, d, dk))
        wv = rng.normal(size=(h_heads, d, dk))
        wo = rng.normal(size=(h_heads * dk, h_heads * dk))
        x = rng.normal(size=(w, d))
        out1, _ = mha(x, wq, wk, wv, wo)
        perm = [2, 0, 1]
        wo_blocks = wo.reshape(h_heads, dk, -1)[perm].reshape(h_heads * dk, -1)
        out2, _ = mha(x, wq[perm], wk[perm], wv[perm], wo_blocks)
        np.testing.assert_allclose(out1, out2, atol=1e-12)

    def test_rows_stochastic(self, tiny_params, rng):
        x = rng.normal(size=(8, 4))
        _, att = mha(x, tiny_params.wq, tiny_params.wk, tiny_params.wv, tiny_params.wo)
        np.testing.assert_allclose(att.sum(axis=2), 1.0, atol=1e-6)
        assert (att >= 0).all()

    def test_softmax_shift_invariance(self, rng):
        logits = rng.normal(size=(5, 7))
        shifted = logits + rng.normal(size=(5, 1))
        np.testing.assert_allclose(row_softmax(shifted), row_softmax(logits), atol=1e-12)


class TestFusePool:
    def test_constant_rows(self):
        z = fuse_pool(np.full((5, 2), 3.0), np.full((5, 3), -1.0))
        np.testing.assert_array_equal(z, [3, 3, -1, -1, -1])

    def test_hand_mean(self):
        z = fuse_pool(np.array([[1.0], [2.0]]), np.array([[3.0], [4.0]]))
        np.testing.assert_array_equal(z, [1.5, 3.5])

    def test_time_permutation_invariance(self, rng):
        a, b = rng.normal(size=(6, 2)), rng.normal(size=(6, 3))
        perm = rng.permutation(6)
        np.testing.assert_allclose(fuse_pool(a, b), fuse_pool(a[perm], b[perm]), atol=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            fuse_pool(np.zeros((4, 2)), np.zeros((5, 2)))


class TestForward:
    def test_constant_network(self, tiny_params, rng):
        constant = zeroed(tiny_params, b_out=2.5)
        for _ in range(3):
            assert predict_one(constant, rng.normal(size=8)) == 2.5

    def test_deterministic(self, rng):
        cfg = ModelConfig(**TINY_CONFIG, seed=3)
        x = rng.normal(size=8)
        assert predict_one(init_params(cfg), x) == predict_one(init_params(cfg), x)

    def test_trace_recomputes_prediction(self, tiny_params, rng):
        yhat, ws = _forward_batch(tiny_params, rng.normal(size=(1, 8)))
        recomputed = float(ws.z[0] @ tiny_params.w_out + tiny_params.b_out)
        assert abs(float(yhat[0]) - recomputed) < 1e-12

    def test_trace_attention_rows(self, tiny_params, rng):
        _, ws = _forward_batch(tiny_params, rng.normal(size=(1, 8)))
        np.testing.assert_allclose(ws.att[0].sum(axis=2), 1.0, atol=1e-6)

    def test_conv_causality(self, tiny_params, rng):
        # perturbing the future never changes past conv activations, bitwise
        for _ in range(20):
            x = rng.normal(size=8)
            t = int(rng.integers(0, 7))
            x2 = x.copy()
            x2[t + 1:] += rng.normal(size=7 - t) * 10
            _, ws1 = _forward_batch(tiny_params, x[None])
            _, ws2 = _forward_batch(tiny_params, x2[None])
            np.testing.assert_array_equal(ws1.act[..., : t + 1], ws2.act[..., : t + 1])

    def test_receptive_field(self, rng):
        # with L layers of kernel k, conv output at t sees L*(k-1)+1 steps
        cfg = ModelConfig(w=16, cnn_layers=2, filters=3, kernel_size=3, heads=1, seed=5)
        params = init_params(cfg)
        span = cfg.cnn_layers * (cfg.kernel_size - 1) + 1
        t = 12
        x = rng.normal(size=16)
        x2 = x.copy()
        x2[: t - span + 1] = 0.0
        _, ws1 = _forward_batch(params, x[None])
        _, ws2 = _forward_batch(params, x2[None])
        np.testing.assert_array_equal(ws1.act[-1][:, 0, t], ws2.act[-1][:, 0, t])

    def test_wrong_window_length(self, tiny_params):
        with pytest.raises(ShapeMismatch):
            _forward_batch(tiny_params, np.zeros((1, 9)))


class TestBackward:
    def test_zero_upstream_gives_zero_grads(self, tiny_params, rng):
        _, ws = _forward_batch(tiny_params, rng.normal(size=(1, 8)))
        grads = _backward_batch(tiny_params, ws, np.zeros(1))
        assert grads.shape == tiny_params.flat.shape and not grads.any()

    def test_b_out_gradient_is_upstream(self, tiny_params, rng):
        _, ws = _forward_batch(tiny_params, rng.normal(size=(1, 8)))
        grads = _backward_batch(tiny_params, ws, np.array([-1.75]))
        assert float(ModelParams(tiny_params.config, grads).tensors()["head.b_out"]) == -1.75

    @pytest.mark.parametrize("config", [
        ModelConfig(w=15, seed=0),
        ModelConfig(w=15, cnn_layers=3, filters=40, kernel_size=4, heads=3, seed=5)])
    def test_out_filled_bitwise_as_new_vector(self, config, rng):
        params = init_params(config)
        xb, dl_dy = rng.normal(size=(32, config.w)), rng.normal(size=32)
        _, ws = _forward_batch(params, xb)
        fresh = _backward_batch(params, ws, dl_dy)
        out = ModelParams(config, np.full_like(params.flat, np.nan))
        # a backward consumes its forward: the same batch again
        _forward_batch(params, xb, workspace=ws)
        returned = _backward_batch(params, ws, dl_dy, out=out)
        assert returned is out.flat
        np.testing.assert_array_equal(out.flat, fresh)


    @pytest.mark.parametrize("beside", [False, True], ids=["inline", "helper"])
    def test_done_follows_the_finished_groups(self, beside, rng):
        # done(i) comes once the gradient from group i on is final, the
        # helper's weight gradients included, and none below it is written
        # yet: the groups are conv layers 0-2 and then the attention and head
        config = ModelConfig(w=15, cnn_layers=3, filters=40, kernel_size=4, heads=3, seed=5)
        params = init_params(config)
        xb, dl_dy = rng.normal(size=(32, config.w)), rng.normal(size=32)
        expected = _backward_batch(params, _forward_batch(params, xb)[1], dl_dy)
        starts = [params.starts[f"conv{i}.kernel"] for i in range(3)] + [params.starts["attn.wq"]]
        out, calls = ModelParams(config, np.full_like(params.flat, np.nan)), []

        def done(group):
            calls.append(group)
            assert out.flat[starts[group]:].tobytes() == expected[starts[group]:].tobytes()
            assert np.isnan(out.flat[:starts[group]]).all()

        with ThreadPoolExecutor(1) if beside else contextlib.nullcontext() as helper:
            _, ws = _forward_batch(params, xb, workspace=Workspace(config, 32, helper))
            _backward_batch(params, ws, dl_dy, out=out, done=done)
        assert calls == [3, 2, 1, 0]


def assert_matches_finite_differences(params, xb, y, label=None):
    """Every entry of the analytic gradient of the summed squared loss
    against a central difference with step 1e-4: relative error below 1e-4,
    relative to at least 1e-7."""
    yhat, ws = _forward_batch(params, xb)
    grads = ModelParams(params.config, _backward_batch(params, ws, 2.0 * (yhat - y))).tensors()
    tensors = params.tensors()
    eps = 1e-4

    def predict_with(name, idx, delta):
        bumped = dict(tensors)
        bumped[name] = tensors[name].copy()
        bumped[name][idx] += delta
        return _forward_batch(with_tensors(params, bumped), xb)[0]

    for name, tensor in tensors.items():
        for idx in np.ndindex(tensor.shape):
            up, down = predict_with(name, idx, eps), predict_with(name, idx, -eps)
            # the loss difference, factored so the loss itself does not
            # cancel: (up-y)^2 - (down-y)^2 = (up-down)(up+down-2y)
            fd = float(((up - down) * (up + down - 2 * y)).sum()) / (2 * eps)
            analytic = float(grads[name][idx])
            assert abs(analytic - fd) / max(abs(fd), 1e-7) < 1e-4, (label, name, idx)


class TestBatchedPath:
    """The GEMM-lowered batch path against finite differences and the
    einsum reference convolution; a batch of one is the single-window
    case."""

    @pytest.mark.parametrize("cfg,seed,batch", [
        (dict(w=5, cnn_layers=3, filters=3, kernel_size=5, heads=2, head_dim=2), 4, 3),
        (dict(w=6, cnn_layers=2, filters=4, kernel_size=3, heads=3, head_dim=2), 4, 3),
        (dict(w=7, cnn_layers=1, filters=3, kernel_size=2, heads=2, head_dim=2), 4, 3),
        (TINY_CONFIG, 7, 1),
    ], ids=["kernel-equals-window", "attn-width-differs", "one-layer", "tiny-single-window"])
    def test_finite_difference_agreement(self, cfg, seed, batch, rng):
        params = init_params(ModelConfig(**cfg, seed=seed))
        assert_matches_finite_differences(params, rng.normal(size=(batch, cfg["w"])),
                                          rng.normal(size=batch))

    @pytest.mark.parametrize("batch", [17, 32])
    def test_finite_difference_agreement_at_training_batches(self, batch, rng):
        # a full and a partial training batch; three layers, so backward
        # refills the deeper layers' shared columns for the middle one; three
        # heads of head_dim 2, not round(filters / heads)
        xb = rng.normal(size=(batch, 6))
        # a finite difference across a relu kink is no derivative: take the
        # first model seed whose pre-activations all keep 1e-3 from it
        for seed in itertools.count():
            params = init_params(ModelConfig(w=6, cnn_layers=3, filters=4, kernel_size=3,
                                             heads=3, head_dim=2, seed=seed))
            if min(np.abs(pre).min() for pre, _ in conv_stack(params, xb)) > 1e-3:
                break
        assert_matches_finite_differences(params, xb, rng.normal(size=batch))

    def test_conv_preactivations_match_einsum_reference(self, rng):
        params = init_params(ModelConfig(w=9, cnn_layers=3, filters=5, kernel_size=4,
                                         heads=2, seed=2))
        xb = rng.normal(size=(4, 9))
        maps = [(pre.transpose(1, 2, 0), act.transpose(1, 2, 0))
                for pre, act in conv_stack(params, xb)]
        for b, x in enumerate(xb):
            layer_in = x
            for layer, (kern, bias) in enumerate(zip(params.conv_kernels, params.conv_biases)):
                np.testing.assert_allclose(maps[layer][0][b],
                                           causal_conv1d(layer_in, kern, bias),
                                           rtol=0, atol=1e-12)
                layer_in = maps[layer][1][b]


DEFAULT_CELL = dict(w=15, cnn_layers=2, filters=16, kernel_size=3, heads=2)
ATTN_WIDTH_CELL = dict(w=6, cnn_layers=2, filters=4, kernel_size=3, heads=3, head_dim=2)


def reference_predict(params, x):
    """causal_conv1d -> ReLU per layer, then mha, fuse_pool and the dense
    head, one window at a time."""
    h = x
    for kern, bias in zip(params.conv_kernels, params.conv_biases):
        h = np.maximum(causal_conv1d(h, kern, bias), 0.0)
    h_att, att = mha(h, params.wq, params.wk, params.wv, params.wo)
    z = fuse_pool(h, h_att)
    return float(z @ params.w_out + params.b_out), att, z


class TestPooledPath:
    """The pooled attention path against the full per-position reference,
    and a window's prediction against the batch it runs in."""

    @pytest.mark.parametrize("cfg", [DEFAULT_CELL, ATTN_WIDTH_CELL],
                             ids=["default", "attn-width-differs"])
    def test_matches_per_position_reference(self, cfg, rng):
        params = init_params(ModelConfig(**cfg, seed=11))
        xb = rng.normal(size=(5, cfg["w"]))
        yhat, ws = _forward_batch(params, xb)
        for b, x in enumerate(xb):
            y, att, z = reference_predict(params, x)
            assert abs(yhat[b] - y) < 1e-12
            np.testing.assert_allclose(ws.att[b], att, rtol=0, atol=1e-12)
            np.testing.assert_allclose(ws.z[b], z, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("cfg", [DEFAULT_CELL, ATTN_WIDTH_CELL],
                             ids=["default", "attn-width-differs"])
    def test_prediction_independent_of_batch(self, cfg, rng):
        params = init_params(ModelConfig(**cfg, seed=12))
        xb = rng.normal(size=(70, cfg["w"]))
        whole = _forward_batch(params, xb)[0]
        blocks = np.concatenate([_forward_batch(params, xb[i:i + 32])[0]
                                 for i in range(0, 70, 32)])
        alone = np.array([_forward_batch(params, x[None])[0][0] for x in xb])
        np.testing.assert_array_equal(blocks, whole)
        np.testing.assert_array_equal(alone, whole)


@st.composite
def grid_cells(draw):
    """Small model configs spanning the grid's shape cases, with a seed and
    a batch size."""
    w = draw(st.integers(1, 8))
    cfg = dict(w=w, cnn_layers=draw(st.integers(1, 3)), filters=draw(st.integers(1, 5)),
               kernel_size=draw(st.integers(1, w)), heads=draw(st.integers(1, 3)),
               head_dim=draw(st.integers(1, 3)), seed=draw(st.integers(0, 2**16)))
    return cfg, draw(st.integers(1, 3))


class TestSampledCells:
    """Gradient and causality checks over sampled configs, not one cell."""

    @given(grid_cells())
    @settings(max_examples=30, deadline=None, derandomize=True)
    def test_finite_difference_agreement(self, cell):
        cfg, batch = cell
        params = init_params(ModelConfig(**cfg))
        rng = np.random.default_rng(cfg["seed"])
        xb = rng.normal(size=(batch, cfg["w"]))
        # a finite difference across a relu kink is no derivative
        assume(min(np.abs(pre).min() for pre, _ in conv_stack(params, xb)) > 1e-3)
        assert_matches_finite_differences(params, xb, rng.normal(size=batch), cfg)

    @given(grid_cells(), st.data())
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_future_leaves_past_conv_bitwise(self, cell, data):
        cfg, batch = cell
        assume(cfg["w"] >= 2)
        params = init_params(ModelConfig(**cfg))
        rng = np.random.default_rng(cfg["seed"])
        t = data.draw(st.integers(0, cfg["w"] - 2))
        xb = rng.normal(size=(batch, cfg["w"]))
        x2 = xb.copy()
        x2[:, t + 1:] += rng.normal(size=(batch, cfg["w"] - t - 1)) * 10
        _, ws1 = _forward_batch(params, xb)
        _, ws2 = _forward_batch(params, x2)
        np.testing.assert_array_equal(ws1.act[..., : t + 1], ws2.act[..., : t + 1])


FORWARD_CELLS = pytest.mark.parametrize("cell", [
    dict(),
    dict(cnn_layers=3, filters=40, kernel_size=4, heads=3),
    dict(cnn_layers=4, filters=64, kernel_size=5, heads=4),
    dict(cnn_layers=12, filters=256, kernel_size=5, heads=5),
], ids=["default", "3x40k4", "4x64k5", "widecell"])


class TestFoldedHead:
    """The coalition model's path, the folded table of :func:`_folded_table`
    scored by :func:`_folded_predict`, is the forward pass to rounding."""

    @FORWARD_CELLS
    @pytest.mark.parametrize("batch", [1, 7, 32, 70])
    def test_equal_to_forward(self, cell, batch):
        params = init_params(ModelConfig(w=15, **cell, seed=batch))
        xb = np.random.default_rng(batch).normal(size=(batch, 15))
        table = _folded_table(params, xb, Workspace(params.config, batch, training=False))
        cfg = params.config
        assert table.shape == (1 + 2 * cfg.d_attn + cfg.heads, batch, 15)
        np.testing.assert_allclose(_folded_predict(params, table), _forward_batch(params, xb)[0],
                                   rtol=0, atol=1e-13)


class TestWorkspace:
    """The forward writes its maps and intermediates into a reused
    workspace; a training workspace's maps match the reference conv stack's
    bit for bit, and an inference workspace gives the same predictions from
    two maps."""

    def test_forward_leaves_its_intermediates_on_the_workspace(self, rng):
        params = init_params(ModelConfig(w=15, cnn_layers=3, filters=6, kernel_size=4,
                                         heads=3, head_dim=5, seed=4))
        cfg = params.config
        ws = Workspace(cfg, 5)
        yhat, returned = _forward_batch(params, rng.normal(size=(5, 15)), workspace=ws)
        assert returned is ws
        assert ws.q.shape == ws.k.shape == ws.v.shape == (5, cfg.heads, 15, cfg.head_dim)
        assert ws.att.shape == (5, cfg.heads, 15, 15)
        np.testing.assert_allclose(ws.att.sum(axis=-1), 1.0, rtol=0, atol=1e-12)
        assert ws.abar.shape == (5, cfg.heads, 15) and ws.pooled.shape == (5, cfg.d_attn)
        assert ws.z.shape == (5, cfg.filters + cfg.d_attn)
        np.testing.assert_allclose(ws.z @ params.w_out + params.b_out, yhat, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("cell", [
        dict(),
        dict(cnn_layers=1, filters=8, kernel_size=3, heads=2),
        dict(cnn_layers=3, filters=6, kernel_size=15, heads=2),
    ], ids=["default", "one-layer", "kernel-equals-window"])
    def test_cache_matches_conv_stack(self, cell, rng):
        params = init_params(ModelConfig(w=15, **cell, seed=4))
        xb = rng.normal(size=(7, 15))
        _, ws = _forward_batch(params, xb, workspace=Workspace(params.config, 7))
        maps = list(conv_stack(params, xb))
        assert len(ws.act) == len(maps)
        for (pre, act), kept_act in zip(maps, ws.act):
            np.testing.assert_array_equal(kept_act, act)
            # backward's ReLU mask, read from the kept activation
            np.testing.assert_array_equal(kept_act > 0, pre > 0)

    def test_one_workspace_shares_memory_across_calls(self, rng):
        params = init_params(ModelConfig(w=15, cnn_layers=3, filters=6, kernel_size=4, seed=4))
        ws = Workspace(params.config, 5)
        buffers = (ws.act, ws.q, ws.v, ws.att)
        for _ in range(2):
            assert _forward_batch(params, rng.normal(size=(5, 15)), workspace=ws)[1] is ws
        assert all(a is b for a, b in zip((ws.act, ws.q, ws.v, ws.att), buffers))
        _, fresh = _forward_batch(params, rng.normal(size=(5, 15)))
        assert fresh is not ws
        assert not np.shares_memory(fresh.act, ws.act)

    @pytest.mark.parametrize("cell", [
        dict(),
        dict(cnn_layers=3, filters=6, kernel_size=4, heads=3, head_dim=5),
    ], ids=["default", "three-layers"])
    def test_backward_repeats_on_a_reused_workspace(self, cell, rng):
        # backward refills the shared columns of the deeper layers and
        # writes its scratch over the forward's intermediates; one after
        # another batch's forward and backward must still read this batch's,
        # and a second backward from one forward raises
        params = init_params(ModelConfig(w=15, **cell, seed=4))
        ws = Workspace(params.config, 17)
        xb, g = rng.normal(size=(17, 15)), rng.normal(size=17)
        _forward_batch(params, rng.normal(size=(17, 15)), workspace=ws)
        _backward_batch(params, ws, g)
        _forward_batch(params, xb, workspace=ws)
        first = _backward_batch(params, ws, g)
        with pytest.raises(ValueError, match="consumed"):
            _backward_batch(params, ws, g)
        _, fresh = _forward_batch(params, xb)
        np.testing.assert_array_equal(_backward_batch(params, fresh, g), first)

    @FORWARD_CELLS
    @pytest.mark.parametrize("batch", [1, 7, 32, 70])
    def test_inference_forward_equals_training(self, cell, batch):
        params = init_params(ModelConfig(w=15, **cell, seed=batch))
        xb = np.random.default_rng(batch).normal(size=(batch, 15))
        ws = Workspace(params.config, batch, training=False)
        assert len(ws.act) == min(params.config.cnn_layers, 2)
        yhat, returned = _forward_batch(params, xb, workspace=ws)
        expect, train_ws = _forward_batch(params, xb)
        assert returned is ws
        np.testing.assert_array_equal(yhat, expect)
        np.testing.assert_array_equal(ws.att, train_ws.att)

    def test_backward_refuses_an_inference_cache(self, rng):
        params = init_params(ModelConfig(w=15, cnn_layers=3, filters=6, kernel_size=4, seed=4))
        ws = Workspace(params.config, 5, training=False)
        assert not hasattr(ws, "dact")
        _forward_batch(params, rng.normal(size=(5, 15)), workspace=ws)
        with pytest.raises(ValueError, match="training workspace"):
            _backward_batch(params, ws, np.ones(5))

    @pytest.mark.parametrize("training", [True, False])
    def test_a_view_is_the_leading_part_of_each_buffer(self, training):
        cfg = ModelConfig(w=15, cnn_layers=3, filters=6, kernel_size=4, seed=4)
        ws = Workspace(cfg, 32, training=training)
        view = ws.view(17)
        assert view.batch == 17 and view.training == training
        assert ws.view(17) is view and ws.view(32) is ws
        fresh = Workspace(cfg, 17, training=training)
        names = ["cols_in", "cols", "act", "qkv", "softmax", "stat"]
        names += ["q_rows", "dlogits", "dact", "dcols"] if training else []
        for name in names:
            part, whole = getattr(view, name), getattr(ws, name)
            assert part.shape == getattr(fresh, name).shape and part.flags.c_contiguous
            assert np.shares_memory(part, whole)
            assert part.__array_interface__["data"][0] == whole.__array_interface__["data"][0]

    @pytest.mark.parametrize("cell,helper", [
        (dict(), False),
        (dict(cnn_layers=4, filters=64, kernel_size=5, heads=4), False),
        (dict(cnn_layers=4, filters=64, kernel_size=5, heads=4), True),
    ], ids=["default", "4x64-k5", "4x64-k5-helper"])
    def test_view_step_equals_a_fresh_workspace_bitwise(self, cell, helper, rng):
        # backward writes its gradients over the forward's buffers, and with
        # a helper col2im's taps over the Q/K/V block: none of it may leak
        # into the next forward through the workspace or a view of it
        params = init_params(ModelConfig(w=15, **cell, seed=4))
        with ThreadPoolExecutor(1) if helper else contextlib.nullcontext() as pool:
            ws, view = assert_view_step_is_a_fresh_step(params, rng, helper=pool)
            # and the full batch again, in the workspace whose leading part
            # the view overwrote
            xb, g = rng.normal(size=(32, 15)), rng.normal(size=32)
            steps = []
            for space in (ws, Workspace(params.config, 32, pool, ws.split)):
                yhat, _ = _forward_batch(params, xb, workspace=space)
                steps.append((yhat, _backward_batch(params, space, g)))
        for again, fresh in zip(*steps):
            assert again.tobytes() == fresh.tobytes()

    @pytest.mark.parametrize("cell,helper", [
        (dict(w=15), False),
        (dict(w=15, cnn_layers=4, filters=51, kernel_size=4, heads=3), False),
        (dict(w=15, cnn_layers=12, filters=256, kernel_size=5, heads=5), True),
    ], ids=["default", "4x51-k4", "widecell-helper"])
    def test_training_blocks_are_sized_for_the_overwrites(self, cell, helper):
        # backward writes dQ/dK/dV over Q/K/V and dpre over the conv maps, so
        # a training workspace's Q/K/V block holds Q/K/V alone, or col2im's
        # taps when a helper puts them there, and its dact block the larger
        # of dact and the row-major Q copy beside the softmax Jacobian
        cfg = ModelConfig(**cell)
        f, k, h, dk = cfg.filters, cfg.kernel_size, cfg.heads, cfg.head_dim
        n = 32 * cfg.w
        with ThreadPoolExecutor(1) if helper else contextlib.nullcontext() as pool:
            blocks = Workspace(cfg, 32, pool)._blocks
        taps = k * f if helper else 0
        assert blocks["qkv"].nbytes == 8 * max(3 * h * dk, taps) * n
        assert blocks["dact"].nbytes == 8 * max(f, h * (dk + cfg.w)) * n
        assert {"dqkv", "dpre"}.isdisjoint(blocks)

    def test_backward_refuses_a_forward_through_another_view(self, rng):
        # the views share the blocks, so a forward through one overwrites
        # the intermediates that a backward through another would read
        params = init_params(ModelConfig(w=15, cnn_layers=3, filters=6, kernel_size=4, seed=4))
        ws = Workspace(params.config, 32)
        _forward_batch(params, rng.normal(size=(32, 15)), workspace=ws)
        _forward_batch(params, rng.normal(size=(17, 15)), workspace=ws.view(17))
        with pytest.raises(ValueError, match="another view"):
            _backward_batch(params, ws, rng.normal(size=32))
        # the view's own forward is still there to read, once
        _backward_batch(params, ws.view(17), rng.normal(size=17))
        with pytest.raises(ValueError):
            _backward_batch(params, ws.view(17), rng.normal(size=17))

    @pytest.mark.parametrize("batch", [33, 0, -1])
    def test_view_beyond_the_workspace_rejected(self, batch):
        ws = Workspace(ModelConfig(w=15, seed=4), 32)
        with pytest.raises(ShapeMismatch):
            ws.view(batch)

    def test_backward_refuses_an_inference_view(self, rng):
        params = init_params(ModelConfig(w=15, cnn_layers=3, filters=6, kernel_size=4, seed=4))
        view = Workspace(params.config, 8, training=False).view(5)
        _forward_batch(params, rng.normal(size=(5, 15)), workspace=view)
        with pytest.raises(ValueError, match="training workspace"):
            _backward_batch(params, view, np.ones(5))

    @pytest.mark.parametrize("batch,cell", [(6, dict()), (5, dict(filters=8))],
                             ids=["batch-size", "config"])
    def test_workspace_of_another_shape_rejected(self, batch, cell):
        params = init_params(ModelConfig(w=15, seed=4))
        ws = Workspace(ModelConfig(w=15, seed=4, **cell), batch)
        with pytest.raises(ShapeMismatch):
            _forward_batch(params, np.zeros((5, 15)), workspace=ws)


class TestFlatLayout:
    @pytest.mark.parametrize("cfg", [
        ModelConfig(**TINY_CONFIG, seed=7),
        ModelConfig(w=15, cnn_layers=3, filters=40, kernel_size=4, heads=3, seed=5)])
    def test_views_tile_flat_in_checkpoint_order(self, cfg, tmp_path):
        # flat stores each 3-D tensor with its last two axes swapped, so the
        # GEMMs' kernel and Q/K/V matrices are views of it; tensors() and
        # checkpoints keep the checkpoint names, order and shapes
        params = init_params(cfg)
        tensors = params.tensors()
        names = [f"conv{i}.{part}" for i in range(cfg.cnn_layers) for part in ("kernel", "bias")]
        names += ["attn.wq", "attn.wk", "attn.wv", "attn.wo", "head.w_out", "head.b_out"]
        assert list(tensors) == names
        assert {name: t.shape for name, t in tensors.items()} == param_layout(cfg)
        save_checkpoint(tmp_path / "c.json", params, ScalerParams(mean=0.0, std=1.0))
        assert list(json.loads((tmp_path / "c.json").read_text())["tensors"]) == names
        assert sum(t.size for t in tensors.values()) == params.flat.size
        for t in tensors.values():
            assert np.shares_memory(t, params.flat)
        stored = [t.swapaxes(1, 2) if t.ndim == 3 else t for t in tensors.values()]
        np.testing.assert_array_equal(np.concatenate([t.ravel() for t in stored]), params.flat)
        f, k = cfg.filters, cfg.kernel_size
        assert len(params.conv_mats) == cfg.cnn_layers
        for i, (kern, kmat) in enumerate(zip(params.conv_kernels, params.conv_mats)):
            assert kmat.shape == (f, k * (1 if i == 0 else f)) and kmat.flags.c_contiguous
            assert np.shares_memory(kmat, params.flat)
            np.testing.assert_array_equal(kmat, kern.transpose(0, 2, 1).reshape(f, -1))
        qkv = np.stack([params.wq, params.wk, params.wv]).transpose(0, 1, 3, 2)
        assert params.wqkv.shape == (3 * cfg.heads * cfg.head_dim, f)
        assert params.wqkv.flags.c_contiguous and np.shares_memory(params.wqkv, params.flat)
        np.testing.assert_array_equal(params.wqkv, qkv.reshape(-1, f))
        for i in range(cfg.cnn_layers):
            assert params.conv_kernels[i] is tensors[f"conv{i}.kernel"]
            assert params.conv_biases[i] is tensors[f"conv{i}.bias"]
        for attr in ("wq", "wk", "wv", "wo"):
            assert getattr(params, attr) is tensors[f"attn.{attr}"]
        assert params.w_out is tensors["head.w_out"] and params.b_out is tensors["head.b_out"]

    @pytest.mark.parametrize("extra", [-1, 1])
    def test_wrong_size_rejected(self, tiny_params, extra):
        with pytest.raises(ShapeMismatch):
            ModelParams(tiny_params.config, np.zeros(tiny_params.flat.size + extra))


class TestCheckpoint:
    def test_round_trip_bitwise(self, tiny_params, tmp_path, rng):
        scaler = ScalerParams(mean=12.5, std=3.25)
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, tiny_params, scaler)
        loaded, loaded_scaler = load_checkpoint(path)
        assert loaded_scaler == scaler
        for name, t in tiny_params.tensors().items():
            np.testing.assert_array_equal(t, loaded.tensors()[name])
        assert loaded.flat.tobytes() == tiny_params.flat.tobytes()
        # the loaded parameters save to the same bytes
        save_checkpoint(tmp_path / "again.json", loaded, loaded_scaler)
        assert (tmp_path / "again.json").read_bytes() == path.read_bytes()
        x = rng.normal(size=8)
        assert predict_one(tiny_params, x) == predict_one(loaded, x)

    def test_bad_checkpoint(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(BadCheckpoint):
            load_checkpoint(path)
        path.write_text('{"format": "something-else"}')
        with pytest.raises(BadCheckpoint):
            load_checkpoint(path)

    @pytest.mark.parametrize("edit", ["missing", "wrong-shape", "extra"])
    def test_tensor_set_and_shapes_checked(self, tiny_params, tmp_path, edit):
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, tiny_params, ScalerParams(mean=0.0, std=1.0))
        doc = json.loads(path.read_text())
        if edit == "missing":
            del doc["tensors"]["attn.wo"]
        elif edit == "wrong-shape":
            kernel = doc["tensors"]["conv1.kernel"]
            kernel["shape"] = kernel["shape"][::-1]   # (2, 4, 4): same size, other layout
        else:
            doc["tensors"]["attn.extra"] = {"shape": [1], "data": [0.0]}
        path.write_text(json.dumps(doc))
        with pytest.raises(BadCheckpoint):
            load_checkpoint(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(BadCheckpoint):
            load_checkpoint(tmp_path / "none.json")

    def test_flat_vector_bitwise_in_layout_order(self, tiny_params, tmp_path):
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, tiny_params, ScalerParams(mean=0.0, std=1.0))
        doc = json.loads(path.read_text())
        # the file's key order does not matter; the layout's does
        doc["tensors"] = dict(reversed(list(doc["tensors"].items())))
        path.write_text(json.dumps(doc))
        loaded, _ = load_checkpoint(path)
        assert loaded.flat.tobytes() == tiny_params.flat.tobytes()

    @pytest.mark.parametrize("tensors", [[], None, "x", 3])
    def test_tensors_not_an_object(self, tiny_params, tmp_path, tensors):
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, tiny_params, ScalerParams(mean=0.0, std=1.0))
        doc = json.loads(path.read_text())
        doc["tensors"] = tensors
        path.write_text(json.dumps(doc))
        with pytest.raises(BadCheckpoint, match="tensors must be an object"):
            load_checkpoint(path)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_tensor_rejected(self, tiny_params, tmp_path, value):
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, tiny_params, ScalerParams(mean=0.0, std=1.0))
        doc = json.loads(path.read_text())
        doc["tensors"]["attn.wq"]["data"][3] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(BadCheckpoint, match="non-finite"):
            load_checkpoint(path)
