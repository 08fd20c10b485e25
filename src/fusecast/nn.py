"""Hybrid forecaster: stacked causal 1-D convolutions feeding multi-head
self-attention, time-wise feature fusion, global average pooling, and a
scalar dense head.

The forward pass records every intermediate tensor in a trace; the backward
pass is analytic reverse-mode differentiation of the same equations (softmax
Jacobian, causal-convolution transpose paths included). Both delegate to a
batched implementation so training over mini-batches and single-window
introspection share one code path.

The batched path is written as matrix products that reach BLAS: each conv
layer is one im2col GEMM over the (B*w, k*c_in) causal windows, its kernel
gradient one GEMM, and its input gradient one GEMM plus a col2im add over
the k taps; Q/K/V come from one (B*w, d) @ (d, 3*h*d_k) GEMM. The scalar
:func:`causal_conv1d` keeps the einsum formulation as the reference.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import BadCheckpoint, InvalidSpec, LengthMismatch, ShapeMismatch, TraceMismatch
from .series import ScalerParams


@dataclass(frozen=True)
class ModelConfig:
    """Architecture hyperparameters.

    ``head_dim`` defaults to ``max(1, round(filters / heads))``; it is a free
    parameter because the attention output width is ``heads * head_dim``,
    independent of ``filters``.
    """

    w: int
    cnn_layers: int = 2
    filters: int = 16
    kernel_size: int = 3
    heads: int = 2
    head_dim: int | None = None
    seed: int = 0

    def __post_init__(self):
        if self.head_dim is None:
            object.__setattr__(self, "head_dim", max(1, round(self.filters / self.heads)))
        for name in ("w", "cnn_layers", "filters", "kernel_size", "heads", "head_dim"):
            if getattr(self, name) < 1:
                raise InvalidSpec(f"{name} must be >= 1")
        if self.kernel_size > self.w:
            raise InvalidSpec("kernel_size must not exceed window size")

    @property
    def d(self) -> int:
        """Width of the convolutional features (attention input)."""
        return self.filters

    @property
    def d_attn(self) -> int:
        """Width of the attention output: heads * head_dim."""
        return self.heads * self.head_dim


@dataclass(frozen=True)
class ModelParams:
    """All learnable tensors. Shapes (L = cnn_layers, f = filters,
    k = kernel_size, h = heads, d_k = head_dim, d = f, d' = h*d_k):

    - conv_kernels[l]: (f, c_in, k) with c_in = 1 for layer 0, else f
    - conv_biases[l]: (f,)
    - wq, wk, wv: (h, d, d_k) per-head projections
    - wo: (h*d_k, d') shared output projection
    - w_out: (d + d',) dense head weights; b_out: () bias
    """

    config: ModelConfig
    conv_kernels: tuple
    conv_biases: tuple
    wq: np.ndarray
    wk: np.ndarray
    wv: np.ndarray
    wo: np.ndarray
    w_out: np.ndarray
    b_out: np.ndarray

    def tensors(self) -> dict[str, np.ndarray]:
        """Stable name -> tensor mapping (drives the optimizer and tests)."""
        out: dict[str, np.ndarray] = {}
        for i, (kern, bias) in enumerate(zip(self.conv_kernels, self.conv_biases)):
            out[f"conv{i}.kernel"] = kern
            out[f"conv{i}.bias"] = bias
        out["attn.wq"] = self.wq
        out["attn.wk"] = self.wk
        out["attn.wv"] = self.wv
        out["attn.wo"] = self.wo
        out["head.w_out"] = self.w_out
        out["head.b_out"] = self.b_out
        return out

    def with_tensors(self, tensors: dict[str, np.ndarray]) -> "ModelParams":
        n_layers = len(self.conv_kernels)
        return ModelParams(
            config=self.config,
            conv_kernels=tuple(tensors[f"conv{i}.kernel"] for i in range(n_layers)),
            conv_biases=tuple(tensors[f"conv{i}.bias"] for i in range(n_layers)),
            wq=tensors["attn.wq"],
            wk=tensors["attn.wk"],
            wv=tensors["attn.wv"],
            wo=tensors["attn.wo"],
            w_out=tensors["head.w_out"],
            b_out=tensors["head.b_out"],
        )


@dataclass(frozen=True)
class Gradients:
    """One tensor per ModelParams tensor, same shapes, keyed identically."""

    by_name: dict

    def tensors(self) -> dict[str, np.ndarray]:
        return dict(self.by_name)


@dataclass(frozen=True)
class ForwardTrace:
    """Every intermediate of one forward pass on a single window."""

    x: np.ndarray                 # (w,)
    conv_pre: tuple               # per layer, (w, f)
    conv_act: tuple               # per layer, (w, f)
    q: np.ndarray                 # (h, w, d_k)
    k: np.ndarray                 # (h, w, d_k)
    v: np.ndarray                 # (h, w, d_k)
    attention: np.ndarray         # (h, w, w), rows sum to 1
    heads_concat: np.ndarray      # (w, h*d_k)
    attn_out: np.ndarray          # (w, d')
    fused: np.ndarray             # (w, d + d')
    pooled: np.ndarray            # (d + d',)
    prediction: float


def init_params(config: ModelConfig) -> ModelParams:
    """Seeded initialization: convolution kernels use fan-in uniform scaling
    with rectifier gain (limit sqrt(6/fan_in), entry std sqrt(2/fan_in));
    projection matrices use fan-average (Glorot) uniform; biases start at
    zero."""
    rng = np.random.default_rng(config.seed)
    d, dk, h = config.d, config.head_dim, config.heads
    d_attn = config.d_attn

    kernels, biases = [], []
    c_in = 1
    for _ in range(config.cnn_layers):
        fan_in = c_in * config.kernel_size
        limit = np.sqrt(6.0 / fan_in)
        kernels.append(rng.uniform(-limit, limit, size=(config.filters, c_in, config.kernel_size)))
        biases.append(np.zeros(config.filters))
        c_in = config.filters

    def glorot(shape, fan_in, fan_out):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        return rng.uniform(-limit, limit, size=shape)

    wq = glorot((h, d, dk), d, dk)
    wk = glorot((h, d, dk), d, dk)
    wv = glorot((h, d, dk), d, dk)
    wo = glorot((h * dk, d_attn), h * dk, d_attn)
    w_out = glorot((d + d_attn,), d + d_attn, 1)
    b_out = np.zeros(())

    return ModelParams(
        config=config,
        conv_kernels=tuple(kernels),
        conv_biases=tuple(biases),
        wq=wq,
        wk=wk,
        wv=wv,
        wo=wo,
        w_out=w_out,
        b_out=b_out,
    )


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def row_softmax(logits: np.ndarray) -> np.ndarray:
    """Softmax over the last axis with max-shift, so adding a constant to a
    row leaves its output bit-unchanged."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def _conv_windows(x: np.ndarray, k: int) -> np.ndarray:
    """Left-zero-pad (B, w, c) by k-1 and expose sliding windows
    (B, w, c, k); window slot j holds the input at time t-(k-1)+j."""
    b, w, c = x.shape
    padded = np.zeros((b, w + k - 1, c))
    padded[:, k - 1:, :] = x
    return np.lib.stride_tricks.sliding_window_view(padded, k, axis=1)


def _im2col(h: np.ndarray, k: int) -> np.ndarray:
    """Causal im2col of (B, w, c): a (B*w, k*c) matrix whose row (b, t)
    holds h[b, t-i] in column block i, zero where t-i < 0."""
    b, w, c = h.shape
    cols = np.zeros((b, w, k, c))
    for i in range(k):
        cols[:, i:, i, :] = h[:, :w - i, :]
    return cols.reshape(b * w, k * c)


def _conv_matrix(kern: np.ndarray) -> np.ndarray:
    """(f, c, k) kernel as the (f, k*c) matrix matching :func:`_im2col`."""
    f, c, k = kern.shape
    return kern.transpose(0, 2, 1).reshape(f, k * c)


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
    out, att, *_ = _mha_batch(h_in[None], wq, wk, wv, wo)
    return out[0], att[0]


def _qkv_matrix(wq, wk, wv) -> np.ndarray:
    """Per-head projections (h, d, d_k) stacked into one (d, 3*h*d_k)
    matrix, column blocks ordered Q, K, V, then head."""
    h, d, dk = wq.shape
    return np.stack([wq, wk, wv]).transpose(2, 0, 1, 3).reshape(d, 3 * h * dk)


def _mha_batch(h_in, wq, wk, wv, wo):
    b, w, d = h_in.shape
    h, _, dk = wq.shape
    qkv = (h_in.reshape(b * w, d) @ _qkv_matrix(wq, wk, wv)).reshape(b, w, 3, h, dk)
    q, k, v = qkv.transpose(2, 0, 3, 1, 4)               # each (B, h, w, dk)
    logits = (q @ k.swapaxes(-1, -2)) / np.sqrt(dk)
    att = row_softmax(logits)
    heads = att @ v                                      # (B, h, w, dk)
    concat = heads.transpose(0, 2, 1, 3).reshape(b, w, h * dk)
    out = concat @ wo
    return out, att, q, k, v, concat


def fuse_pool(h_cnn: np.ndarray, h_att: np.ndarray) -> np.ndarray:
    """Concatenate conv and attention features time-wise and average over
    time: z = (1/w) sum_t [H_cnn[t] || H_att[t]]."""
    if h_cnn.shape[0] != h_att.shape[0]:
        raise LengthMismatch(
            f"temporal lengths differ: {h_cnn.shape[0]} vs {h_att.shape[0]}"
        )
    fused = np.concatenate([h_cnn, h_att], axis=1)
    return fused.mean(axis=0)


def _forward_batch(params: ModelParams, xb: np.ndarray) -> tuple[np.ndarray, dict]:
    """Vectorized forward over a batch of scaled windows (B, w).

    Returns predictions (B,) and a cache of every intermediate needed by
    :func:`_backward_batch`. The im2col columns are not cached: backward
    rebuilds them from the layer inputs, which keeps the cache small.
    """
    cfg = params.config
    xb = np.asarray(xb, dtype=np.float64)
    if xb.ndim != 2 or xb.shape[1] != cfg.w:
        raise ShapeMismatch(f"expected (B, {cfg.w}) windows, got {xb.shape}")

    b, w = xb.shape
    h = xb[:, :, None]
    conv_pre, conv_act = [], []
    for kern, bias in zip(params.conv_kernels, params.conv_biases):
        cols = _im2col(h, kern.shape[2])
        pre = (cols @ _conv_matrix(kern).T + bias).reshape(b, w, kern.shape[0])
        act = relu(pre)
        conv_pre.append(pre)
        conv_act.append(act)
        h = act

    h_cnn = h  # (B, w, d)
    h_att, att, q, k, v, concat = _mha_batch(h_cnn, params.wq, params.wk, params.wv, params.wo)
    fused = np.concatenate([h_cnn, h_att], axis=2)
    z = fused.mean(axis=1)
    yhat = z @ params.w_out + params.b_out

    cache = {
        "x": xb, "conv_pre": conv_pre, "conv_act": conv_act,
        "q": q, "k": k, "v": v, "att": att, "concat": concat,
        "h_att": h_att, "fused": fused, "z": z, "yhat": yhat,
    }
    return yhat, cache


def _backward_batch(params: ModelParams, cache: dict, dl_dy: np.ndarray) -> dict:
    """Analytic gradients of sum_b dl_dy[b] * yhat[b] w.r.t. every parameter
    tensor. Weight and input gradients are 2-D GEMMs on the same flattened
    (B*w, .) layouts as the forward pass."""
    cfg = params.config
    g = np.asarray(dl_dy, dtype=np.float64)
    z = cache["z"]
    b, w = cache["x"].shape
    d, dk, h = cfg.d, cfg.head_dim, cfg.heads

    grads: dict[str, np.ndarray] = {}
    grads["head.w_out"] = g @ z
    grads["head.b_out"] = np.asarray(g.sum())

    # z is the time mean of the fused map, so each of its w rows gets dL/dz / w
    dfused = np.repeat(g[:, None] * params.w_out[None, :] / w, w, axis=0)   # (B*w, d + d')
    dh_cnn, dh_att = dfused[:, :d], dfused[:, d:]

    # attention block
    concat, att, q, k, v = cache["concat"], cache["att"], cache["q"], cache["k"], cache["v"]
    grads["attn.wo"] = concat.reshape(b * w, h * dk).T @ dh_att
    dheads = (dh_att @ params.wo.T).reshape(b, w, h, dk).transpose(0, 2, 1, 3)
    datt = dheads @ v.swapaxes(-1, -2)
    dv = att.swapaxes(-1, -2) @ dheads
    # softmax Jacobian per row
    dlogits = att * (datt - (datt * att).sum(axis=-1, keepdims=True))
    dlogits /= np.sqrt(dk)
    dq = dlogits @ k
    dk_ = dlogits.swapaxes(-1, -2) @ q

    h_cnn = cache["conv_act"][-1].reshape(b * w, d)
    dqkv = np.stack([dq, dk_, dv], axis=2).transpose(0, 3, 2, 1, 4).reshape(b * w, 3 * h * dk)
    dw = (h_cnn.T @ dqkv).reshape(d, 3, h, dk).transpose(1, 2, 0, 3)
    grads["attn.wq"], grads["attn.wk"], grads["attn.wv"] = dw
    dact = dh_cnn + dqkv @ _qkv_matrix(params.wq, params.wk, params.wv).T

    # convolution stack, last layer first
    for layer in reversed(range(cfg.cnn_layers)):
        kern = params.conv_kernels[layer]
        f, c_in, ksz = kern.shape
        dpre = dact * (cache["conv_pre"][layer].reshape(b * w, f) > 0)
        grads[f"conv{layer}.bias"] = dpre.sum(axis=0)
        layer_in = cache["conv_act"][layer - 1] if layer > 0 else cache["x"][:, :, None]
        dkm = dpre.T @ _im2col(layer_in, ksz)
        grads[f"conv{layer}.kernel"] = dkm.reshape(f, ksz, c_in).transpose(0, 2, 1)
        if layer > 0:
            # col2im: column block i of row (b, t) came from h[b, t-i]
            dcols = (dpre @ _conv_matrix(kern)).reshape(b, w, ksz, c_in)
            dh = dcols[:, :, 0, :].copy()
            for i in range(1, ksz):
                dh[:, :w - i, :] += dcols[:, i:, i, :]
            dact = dh.reshape(b * w, c_in)
    return grads


def forward(params: ModelParams, x: np.ndarray) -> tuple[float, ForwardTrace]:
    """Run the network on one scaled window and record the full trace."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (params.config.w,):
        raise ShapeMismatch(f"expected window of length {params.config.w}, got {x.shape}")
    yhat, cache = _forward_batch(params, x[None])
    trace = ForwardTrace(
        x=x,
        conv_pre=tuple(p[0] for p in cache["conv_pre"]),
        conv_act=tuple(a[0] for a in cache["conv_act"]),
        q=cache["q"][0],
        k=cache["k"][0],
        v=cache["v"][0],
        attention=cache["att"][0],
        heads_concat=cache["concat"][0],
        attn_out=cache["h_att"][0],
        fused=cache["fused"][0],
        pooled=cache["z"][0],
        prediction=float(yhat[0]),
    )
    return float(yhat[0]), trace


def backward(params: ModelParams, trace: ForwardTrace, dl_dy: float) -> Gradients:
    """Gradients of dl_dy * prediction for every parameter tensor of the
    forward pass that produced ``trace``."""
    cfg = params.config
    if len(trace.conv_pre) != cfg.cnn_layers or trace.attention.shape != (cfg.heads, cfg.w, cfg.w):
        raise TraceMismatch("trace does not match the model configuration")
    for layer, pre in enumerate(trace.conv_pre):
        if pre.shape != (cfg.w, cfg.filters):
            raise TraceMismatch(f"conv layer {layer} trace shape {pre.shape}")
    # the batched cache (batch of one) from the stored intermediates
    cache = {
        "x": trace.x[None], "conv_pre": [p[None] for p in trace.conv_pre],
        "conv_act": [a[None] for a in trace.conv_act],
        "q": trace.q[None], "k": trace.k[None], "v": trace.v[None],
        "att": trace.attention[None], "concat": trace.heads_concat[None],
        "z": trace.pooled[None],
    }
    grads = _backward_batch(params, cache, np.array([dl_dy], dtype=np.float64))
    return Gradients(by_name=grads)


# -- checkpoint io -------------------------------------------------------

CHECKPOINT_FORMAT = "fusecast-checkpoint"
CHECKPOINT_VERSION = 1


def _tensor_doc(a: np.ndarray) -> dict:
    a = np.asarray(a, dtype=np.float64)
    return {"shape": list(a.shape), "data": a.ravel().tolist()}


def _tensor_from_doc(doc: dict) -> np.ndarray:
    try:
        arr = np.array(doc["data"], dtype=np.float64).reshape(doc["shape"])
    except (KeyError, TypeError, ValueError) as exc:
        raise BadCheckpoint(f"malformed tensor entry: {exc}") from None
    return arr


def save_checkpoint(path, params: ModelParams, scaler: ScalerParams) -> None:
    """Serialize config, scaler, and all parameter tensors as a
    self-describing JSON document (floats round-trip exactly via repr)."""
    cfg = params.config
    doc = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "model_config": {
            "w": cfg.w, "cnn_layers": cfg.cnn_layers, "filters": cfg.filters,
            "kernel_size": cfg.kernel_size, "heads": cfg.heads,
            "head_dim": cfg.head_dim, "seed": cfg.seed,
        },
        "scaler": {"mean": scaler.mean, "std": scaler.std},
        "tensors": {name: _tensor_doc(t) for name, t in params.tensors().items()},
    }
    p = Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    p.write_text(json.dumps(doc, indent=1))


def load_checkpoint(path) -> tuple[ModelParams, ScalerParams]:
    p = Path(path)
    if not p.is_file():
        raise BadCheckpoint(f"no such checkpoint: {p}")
    try:
        doc = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise BadCheckpoint(f"not valid JSON: {exc}") from None
    if not isinstance(doc, dict) or doc.get("format") != CHECKPOINT_FORMAT:
        raise BadCheckpoint("unrecognized checkpoint document")
    try:
        cfg = ModelConfig(**doc["model_config"])
        scaler = ScalerParams(**doc["scaler"])
        tensors = {name: _tensor_from_doc(t) for name, t in doc["tensors"].items()}
    except (KeyError, TypeError) as exc:
        raise BadCheckpoint(f"missing checkpoint fields: {exc}") from None
    template = init_params(cfg)
    expected = template.tensors()
    if set(tensors) != set(expected):
        raise BadCheckpoint("checkpoint tensors do not match the declared config")
    for name, t in tensors.items():
        if t.shape != expected[name].shape:
            raise BadCheckpoint(f"tensor {name} has shape {t.shape}, expected {expected[name].shape}")
    return template.with_tensors(tensors), scaler
