import numpy as np
import pytest

from fusecast.errors import BadCheckpoint, LengthMismatch, ShapeMismatch, TraceMismatch
from fusecast.nn import (
    ModelConfig,
    _backward_batch,
    _forward_batch,
    backward,
    causal_conv1d,
    forward,
    fuse_pool,
    init_params,
    load_checkpoint,
    mha,
    relu,
    row_softmax,
    save_checkpoint,
)
from fusecast.series import ScalerParams

from conftest import TINY_CONFIG


def zeroed(params, b_out=0.0):
    tensors = {name: np.zeros_like(t) for name, t in params.tensors().items()}
    tensors["head.b_out"] = np.asarray(b_out)
    return params.with_tensors(tensors)


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


class TestRelu:
    def test_elementwise(self):
        np.testing.assert_array_equal(relu(np.array([-1.0, 0.0, 2.0])), [0.0, 0.0, 2.0])

    def test_all_negative(self):
        assert not relu(-np.arange(1.0, 5.0)).any()

    def test_idempotent(self, rng):
        h = rng.normal(size=(6, 3))
        np.testing.assert_array_equal(relu(relu(h)), relu(h))


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
            y, _ = forward(constant, rng.normal(size=8))
            assert y == 2.5

    def test_deterministic(self, rng):
        cfg = ModelConfig(**TINY_CONFIG, seed=3)
        x = rng.normal(size=8)
        y1, _ = forward(init_params(cfg), x)
        y2, _ = forward(init_params(cfg), x)
        assert y1 == y2

    def test_trace_recomputes_prediction(self, tiny_params, rng):
        x = rng.normal(size=8)
        y, trace = forward(tiny_params, x)
        recomputed = float(trace.pooled @ tiny_params.w_out + tiny_params.b_out)
        assert abs(y - recomputed) < 1e-12

    def test_trace_attention_rows(self, tiny_params, rng):
        _, trace = forward(tiny_params, rng.normal(size=8))
        np.testing.assert_allclose(trace.attention.sum(axis=2), 1.0, atol=1e-6)

    def test_conv_causality(self, tiny_params, rng):
        # perturbing the future never changes past conv activations, bitwise
        for _ in range(20):
            x = rng.normal(size=8)
            t = int(rng.integers(0, 7))
            x2 = x.copy()
            x2[t + 1:] += rng.normal(size=7 - t) * 10
            _, tr1 = forward(tiny_params, x)
            _, tr2 = forward(tiny_params, x2)
            for a1, a2 in zip(tr1.conv_act, tr2.conv_act):
                np.testing.assert_array_equal(a1[: t + 1], a2[: t + 1])

    def test_receptive_field(self, rng):
        # with L layers of kernel k, conv output at t sees L*(k-1)+1 steps
        cfg = ModelConfig(w=16, cnn_layers=2, filters=3, kernel_size=3, heads=1, seed=5)
        params = init_params(cfg)
        span = cfg.cnn_layers * (cfg.kernel_size - 1) + 1
        t = 12
        x = rng.normal(size=16)
        x2 = x.copy()
        x2[: t - span + 1] = 0.0
        _, tr1 = forward(params, x)
        _, tr2 = forward(params, x2)
        np.testing.assert_array_equal(tr1.conv_act[-1][t], tr2.conv_act[-1][t])

    def test_wrong_window_length(self, tiny_params):
        with pytest.raises(ShapeMismatch):
            forward(tiny_params, np.zeros(9))


class TestBackward:
    def test_zero_upstream_gives_zero_grads(self, tiny_params, rng):
        _, trace = forward(tiny_params, rng.normal(size=8))
        grads = backward(tiny_params, trace, 0.0)
        for t in grads.tensors().values():
            assert not np.asarray(t).any()

    def test_b_out_gradient_is_upstream(self, tiny_params, rng):
        _, trace = forward(tiny_params, rng.normal(size=8))
        grads = backward(tiny_params, trace, -1.75)
        assert float(grads.tensors()["head.b_out"]) == -1.75

    def test_finite_difference_agreement(self, tiny_params, rng):
        x = rng.normal(size=8)
        target = 0.4
        y, trace = forward(tiny_params, x)
        grads = backward(tiny_params, trace, 2.0 * (y - target)).tensors()
        eps = 1e-4
        for name, tensor in tiny_params.tensors().items():
            t = np.atleast_1d(np.asarray(tensor, dtype=np.float64))
            for flat in range(t.size):
                idx = np.unravel_index(flat, t.shape)

                def loss_with(delta):
                    bumped = {k: v.copy() for k, v in tiny_params.tensors().items()}
                    arr = np.atleast_1d(bumped[name])
                    arr[idx] += delta
                    bumped[name] = arr.reshape(np.asarray(tensor).shape)
                    yb, _ = forward(tiny_params.with_tensors(bumped), x)
                    return (yb - target) ** 2

                fd = (loss_with(eps) - loss_with(-eps)) / (2 * eps)
                analytic = float(np.atleast_1d(grads[name])[idx])
                assert abs(analytic - fd) / max(abs(fd), 1e-7) < 1e-4, (name, idx)

    def test_trace_mismatch(self, tiny_params, rng):
        other = init_params(ModelConfig(w=8, cnn_layers=1, filters=4,
                                        kernel_size=2, heads=2, head_dim=2))
        _, trace = forward(other, rng.normal(size=8))
        with pytest.raises(TraceMismatch):
            backward(tiny_params, trace, 1.0)


class TestBatchedPath:
    """The GEMM-lowered batch path against finite differences and the
    einsum reference convolution."""

    @pytest.mark.parametrize("cfg", [
        dict(w=5, cnn_layers=3, filters=3, kernel_size=5, heads=2, head_dim=2),
        dict(w=6, cnn_layers=2, filters=4, kernel_size=3, heads=3, head_dim=2),
        dict(w=7, cnn_layers=1, filters=3, kernel_size=2, heads=2, head_dim=2),
    ], ids=["kernel-equals-window", "attn-width-differs", "one-layer"])
    def test_finite_difference_agreement(self, cfg, rng):
        params = init_params(ModelConfig(**cfg, seed=4))
        xb = rng.normal(size=(3, cfg["w"]))
        y = rng.normal(size=3)
        yhat, cache = _forward_batch(params, xb)
        grads = _backward_batch(params, cache, 2.0 * (yhat - y))
        tensors = params.tensors()
        eps = 1e-4

        def loss_with(name, idx, delta):
            bumped = {k: v.copy() for k, v in tensors.items()}
            bumped[name][idx] += delta
            yb, _ = _forward_batch(params.with_tensors(bumped), xb)
            return float(((yb - y) ** 2).sum())

        for name, tensor in tensors.items():
            for idx in np.ndindex(tensor.shape):
                fd = (loss_with(name, idx, eps) - loss_with(name, idx, -eps)) / (2 * eps)
                analytic = float(grads[name][idx])
                assert abs(analytic - fd) / max(abs(fd), 1e-7) < 1e-4, (name, idx)

    def test_conv_preactivations_match_einsum_reference(self, rng):
        params = init_params(ModelConfig(w=9, cnn_layers=3, filters=5, kernel_size=4,
                                         heads=2, seed=2))
        xb = rng.normal(size=(4, 9))
        _, cache = _forward_batch(params, xb)
        for b, x in enumerate(xb):
            layer_in = x
            for layer, (kern, bias) in enumerate(zip(params.conv_kernels, params.conv_biases)):
                np.testing.assert_allclose(cache["conv_pre"][layer][b],
                                           causal_conv1d(layer_in, kern, bias),
                                           rtol=0, atol=1e-12)
                layer_in = cache["conv_act"][layer][b]


class TestCheckpoint:
    def test_round_trip_bitwise(self, tiny_params, tmp_path, rng):
        scaler = ScalerParams(mean=12.5, std=3.25)
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, tiny_params, scaler)
        loaded, loaded_scaler = load_checkpoint(path)
        assert loaded_scaler == scaler
        for name, t in tiny_params.tensors().items():
            np.testing.assert_array_equal(t, loaded.tensors()[name])
        x = rng.normal(size=8)
        assert forward(tiny_params, x)[0] == forward(loaded, x)[0]

    def test_bad_checkpoint(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(BadCheckpoint):
            load_checkpoint(path)
        path.write_text('{"format": "something-else"}')
        with pytest.raises(BadCheckpoint):
            load_checkpoint(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(BadCheckpoint):
            load_checkpoint(tmp_path / "none.json")
