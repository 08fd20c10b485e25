"""Hybrid forecaster: stacked causal 1-D convolutions feeding multi-head
self-attention, time-wise feature fusion, global average pooling, and a
scalar dense head.

There is one model path, batched over windows: :func:`_forward_batch` maps
(B, w) scaled windows to (B,) predictions and a cache of every
intermediate, and :func:`_backward_batch` is analytic reverse-mode
differentiation of the same equations (softmax Jacobian, causal-convolution
transpose paths included) from that cache. A single window is a batch of
one.

The path is written as matrix products that reach BLAS. Feature maps are
channel-major, (c, B*w): each conv layer is one (f, k*c) @ (k*c, B*w)
im2col GEMM, its kernel gradient one GEMM, and its input gradient one GEMM
plus a col2im add over the k taps; Q/K/V come from one
(3*h*d_k, d) @ (d, B*w) GEMM.

The head reads the attention output only through its time mean, and
``mean_t(A V) Wo = (abar V) Wo`` with ``abar`` the attention weights
averaged over queries, so the pooled output is formed without the full
(B, w, d') attention output. Backward uses the same identity: the
upstream gradient of A is the same for every query, so dV = abar x
dpooled and the softmax Jacobian reduces to ``A * (u - A u)``. The softmax
and its Jacobian run key-major, on a (w_k, B, h, w_q) buffer, so their
max and sum over keys are elementwise over rows of B*h*w_q; ``att`` is
its (B, h, w_q, w_k) view.

The time means and head products are per-window vector products, and a
GEMM's output columns are the windows' time steps. At the default config a
window's prediction is then bitwise the same alone or in a batch; at
larger layer sizes BLAS picks its GEMM kernel by matrix size, which can
move the last bits.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import BadCheckpoint, InvalidSpec, ShapeMismatch
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
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
                raise InvalidSpec(f"{name} must be an integer, got {value!r}")
            if value < 1:
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


def _im2col(h: np.ndarray, k: int) -> np.ndarray:
    """Causal im2col of channel-major (c, B, w) features: a (k*c, B*w)
    matrix whose row block i holds h shifted i steps into the past, zero
    where t-i < 0."""
    c, b, w = h.shape
    cols = np.zeros((k, c, b, w))
    for i in range(k):
        cols[i, :, :, i:] = h[:, :, :w - i]
    return cols.reshape(k * c, b * w)


def _conv_matrix(kern: np.ndarray) -> np.ndarray:
    """(f, c, k) kernel as the (f, k*c) matrix matching :func:`_im2col`."""
    f, c, k = kern.shape
    return kern.transpose(0, 2, 1).reshape(f, k * c)


def _qkv_matrix(wq, wk, wv) -> np.ndarray:
    """Per-head projections (h, d, d_k) stacked into one (3*h*d_k, d)
    matrix, row blocks ordered Q, K, V, then head."""
    h, d, dk = wq.shape
    return np.stack([wq, wk, wv]).transpose(0, 1, 3, 2).reshape(3 * h * dk, d)


def _time_mean(w: int) -> np.ndarray:
    """Weights of a mean over w steps, applied as one vector product per
    window so that a window's result does not depend on its batch."""
    return np.full(w, 1.0 / w)


def _mha_batch(h_in, wq, wk, wv, wo):
    """Multi-head self-attention over channel-major (d, B, w) features,
    reduced to what the pooled head reads (see the module docstring): the
    time mean of its output, (B, d'). Also returns, for backward, ``att``
    (B, h, w_q, w_k), q, k, v as (B, h, w, d_k) views, abar (B, h, w_k)
    and the pooled heads (B, h*d_k)."""
    d, b, w = h_in.shape
    h, _, dk = wq.shape
    qkv = (_qkv_matrix(wq, wk, wv) @ h_in.reshape(d, b * w)).reshape(3, h, dk, b, w)
    q, k, v = qkv.transpose(0, 3, 1, 4, 2)
    e = np.empty((w, b, h, w))                           # e[key, b, head, query]
    np.matmul(k, q.swapaxes(-1, -2), out=e.transpose(1, 2, 0, 3))
    # softmax over keys: max and sum run elementwise over rows of B*h*w_q
    e -= e.max(axis=0)
    e *= 1.0 / np.sqrt(dk)
    np.exp(e, out=e)
    e /= e.sum(axis=0)
    att = e.transpose(1, 2, 3, 0)
    abar = att.swapaxes(-1, -2) @ _time_mean(w)
    pooled = (abar[:, :, None, :] @ v).reshape(b, 1, h * dk)
    return (pooled @ wo)[:, 0], att, q, k, v, abar, pooled[:, 0]


def _forward_batch(params: ModelParams, xb: np.ndarray) -> tuple[np.ndarray, dict]:
    """Vectorized forward over a batch of scaled windows (B, w).

    Returns predictions (B,) and a cache of every intermediate needed by
    :func:`_backward_batch`; ``conv_pre``/``conv_act`` hold (B, w, f) views
    of the channel-major maps. The im2col columns are not cached: backward
    rebuilds them from the layer inputs, which keeps the cache small.
    """
    cfg = params.config
    xb = np.asarray(xb, dtype=np.float64)
    if xb.ndim != 2 or xb.shape[1] != cfg.w:
        raise ShapeMismatch(f"expected (B, {cfg.w}) windows, got {xb.shape}")

    b, w = xb.shape
    h = xb[None]
    conv_pre, conv_act = [], []
    for kern, bias in zip(params.conv_kernels, params.conv_biases):
        pre = _conv_matrix(kern) @ _im2col(h, kern.shape[2]) + bias[:, None]
        pre = pre.reshape(len(kern), b, w)
        h = relu(pre)
        conv_pre.append(pre.transpose(1, 2, 0))
        conv_act.append(h.transpose(1, 2, 0))

    h_att, att, q, k, v, abar, pooled = _mha_batch(h, params.wq, params.wk, params.wv, params.wo)
    z = np.concatenate([h.transpose(1, 0, 2) @ _time_mean(w), h_att], axis=1)
    yhat = (z * params.w_out).sum(axis=1) + params.b_out

    cache = {
        "x": xb, "conv_pre": conv_pre, "conv_act": conv_act, "q": q, "k": k, "v": v,
        "att": att, "abar": abar, "pooled": pooled, "z": z,
    }
    return yhat, cache


def _backward_batch(params: ModelParams, cache: dict, dl_dy: np.ndarray) -> dict:
    """Analytic gradients of sum_b dl_dy[b] * yhat[b] w.r.t. every parameter
    tensor. Weight and input gradients are 2-D GEMMs on the same
    channel-major (., B*w) layouts as the forward pass."""
    cfg = params.config
    g = np.asarray(dl_dy, dtype=np.float64)
    z = cache["z"]
    b, w = cache["x"].shape
    d, dk, h = cfg.d, cfg.head_dim, cfg.heads

    grads: dict[str, np.ndarray] = {}
    grads["head.w_out"] = g @ z
    grads["head.b_out"] = np.asarray(g.sum())
    dz = g[:, None] * params.w_out

    # pooled attention: the upstream gradient is the same for every query
    att, q, k, v, abar = cache["att"], cache["q"], cache["k"], cache["v"], cache["abar"]
    grads["attn.wo"] = cache["pooled"].T @ dz[:, d:]
    dpooled = (dz[:, d:] @ params.wo.T).reshape(b, h, 1, dk)
    dqkv = np.empty((3, h, dk, b, w))
    dq, dk_, dv = dqkv.transpose(0, 3, 1, 4, 2)
    np.multiply(abar[..., None], dpooled, out=dv)
    # dL/dA[q, key] = u[key] for every q; the logits' 1/sqrt(d_k) folded in
    u = (v @ dpooled.swapaxes(-1, -2)).transpose(2, 0, 1, 3) / (w * np.sqrt(dk))
    # softmax Jacobian A * (u - A u), key-major as in the forward
    a = att.transpose(3, 0, 1, 2)
    dlogits = a * u
    dlogits -= a * dlogits.sum(axis=0)
    np.matmul(dlogits.transpose(1, 2, 3, 0), k, out=dq)
    np.matmul(dlogits.transpose(1, 2, 0, 3), q, out=dk_)

    dqkv = dqkv.reshape(3 * h * dk, b * w)
    h_cnn = cache["conv_act"][-1].transpose(2, 0, 1).reshape(d, b * w)
    dw = (dqkv @ h_cnn.T).reshape(3, h, dk, d).swapaxes(-1, -2)
    grads["attn.wq"], grads["attn.wk"], grads["attn.wv"] = dw
    dact = (_qkv_matrix(params.wq, params.wk, params.wv).T @ dqkv).reshape(d, b, w)
    # z is the time mean of the conv map, so each step gets dL/dz / w
    dact += dz[:, :d].T[:, :, None] / w

    # convolution stack, last layer first
    for layer in reversed(range(cfg.cnn_layers)):
        kern = params.conv_kernels[layer]
        f, c_in, ksz = kern.shape
        pre = cache["conv_pre"][layer].transpose(2, 0, 1)
        dpre = (dact * (pre > 0)).reshape(f, b * w)
        grads[f"conv{layer}.bias"] = dpre.sum(axis=1)
        layer_in = cache["conv_act"][layer - 1].transpose(2, 0, 1) if layer else cache["x"][None]
        dkm = dpre @ _im2col(layer_in, ksz).T
        grads[f"conv{layer}.kernel"] = dkm.reshape(f, ksz, c_in).transpose(0, 2, 1)
        if layer > 0:
            # col2im, time-major so each tap adds one contiguous block:
            # column block i of row (b, t) came from h[b, t-i]
            dcols = (dpre.T @ _conv_matrix(kern)).reshape(b, w, ksz, c_in)
            dh = dcols[:, :, 0, :].copy()
            for i in range(1, ksz):
                dh[:, :w - i, :] += dcols[:, i:, i, :]
            dact = dh.transpose(2, 0, 1)
    return grads


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
    except (KeyError, TypeError, InvalidSpec) as exc:
        raise BadCheckpoint(f"bad checkpoint fields: {exc}") from None
    template = init_params(cfg)
    expected = template.tensors()
    if set(tensors) != set(expected):
        raise BadCheckpoint("checkpoint tensors do not match the declared config")
    for name, t in tensors.items():
        if t.shape != expected[name].shape:
            raise BadCheckpoint(f"tensor {name} has shape {t.shape}, expected {expected[name].shape}")
    return template.with_tensors(tensors), scaler
