"""Hybrid forecaster: stacked causal 1-D convolutions feeding multi-head
self-attention, time-wise feature fusion, global average pooling, and a
scalar dense head.

There is one model path, batched over windows: :func:`_forward_batch` maps
(B, w) scaled windows to (B,) predictions, leaving every intermediate in
the :class:`Workspace` it runs in, and :func:`_backward_batch` is analytic
reverse-mode differentiation of the same equations (softmax Jacobian,
causal-convolution transpose paths included) from the workspace's
intermediates. A single window is a batch of one. The forward is the conv
stack of :func:`_conv_forward`, the Q/K/V GEMM, the attention body
:func:`_mha_batch` and the dense head.

``explain``'s coalition model needs only each composite's prediction, in
which V, the conv map and the logits' scale enter through fixed linear
maps: with c = wo @ w_out[d:] split per head into c_h, y = b_out +
sum_t (w_out[:d] / w) h_t + sum_h sum_k abar[h, k] (wv_h c_h) h_k, where
abar[h, k] = sum_q e[h, q, k] / (w S[h, q]), e being the exp of the
logits less their max over keys and S its sum over keys. So
:func:`_folded_table` runs the same conv stack and one GEMM by a folded
(1 + 2*h*d_k + h, d) matrix, and :func:`_folded_predict` scores the
table's columns, which the coalition model gathers without knowing its
rows: no V, no pooled output and no z, and the forward's predictions to
rounding.

All learnable tensors live in one float64 vector, ``ModelParams.flat``,
in the order the GEMMs read them: the tensors of :func:`param_layout` in
checkpoint order, each 3-D one with its last two axes swapped. So each
conv layer's kernel matrix and the Q/K/V matrix are views of it, and the
checkpoint-shaped tensors are transposed views. :func:`_backward_batch`
writes the gradient through the views of a gradient :class:`ModelParams`,
one vector in the same layout, so the optimizer is elementwise; training
allocates that vector once per run and the backward pass fills it in
place, each weight gradient's GEMM writing straight into its view.

The path is written as matrix products that reach BLAS, and its
elementwise passes run on contiguous runs where the layout allows:
numpy takes about twice as long per element on strided or broadcast
operands. Feature maps are channel-major, (c, B*w): each conv layer is one
(f, k*c) @ (k*c, B*w) im2col GEMM and its kernel gradient one GEMM. Its
input gradient is one (k*c, f) @ (f, B*w) GEMM into channel-major
(k, c, B, w) taps and a col2im that adds each tap i to tap 0 as one
contiguous run shifted by i steps; the tap's first i steps in each
(channel, window) row belong to the padding and are zeroed first, so the
shift adds 0.0 across row boundaries (which can turn a -0.0 into +0.0,
and nothing else). Im2col likewise copies each tap as one shifted run and zeroes its
padding. Q/K/V come from one (3*h*d_k, d) @ (d, B*w) GEMM, so per window
and head q, k and v are column-major (w, d_k) views; the dK product reads
a row-major copy of Q, which BLAS runs 2-3x faster than the view.

Every forward runs in a :class:`Workspace`, the buffers of one (config,
batch size), which its caller keeps per batch shape so that they are
allocated once. It holds the im2col columns (one buffer for layer 0, one
shared by the deeper layers) and the attention's buffers: the key-major
softmax buffer ``softmax``, its (B, h, w_k, w_q) view ``softmax_kq``, the
per-query statistics ``stat`` and the time-mean weights ``tmean``. A
training workspace keeps every conv layer's activation map, and
backward's temporaries. The activation is all that backward reads of the
pre-activation: max(pre, 0) is positive exactly where pre is, so it is
also the ReLU mask. An inference workspace, for rollouts and
``explain``'s forward and tables, keeps two maps as a ring, layer i
writing slot i % 2, and no backward buffers; backward refuses it. After
the forward the shared columns are the last layer's; backward refills
them for each layer between from the kept activations, and runs each
deeper layer's col2im in the taps buffer ``dcols``: the shared columns,
once its kernel gradient has read them, or, in a workspace with a helper
(below), a buffer of its own, so that the two GEMMs never share memory.
The workspace records which layer the columns hold, so a second backward
from the workspace's intermediates refills them too.

A workspace may carry a helper, an executor with one worker thread, which
``train`` opens for wide cells (see :mod:`.blas`), and may be split. A
split workspace cuts each conv layer above layer 0 and the Q/K/V
projection by output rows at a multiple of ``blas.SPLIT_TILE`` near the
middle: one task fills the im2col channels below the cut and the other
those above it, and after a join one runs the GEMM rows, bias and ReLU
below the cut and the other those above. The first task of each pair runs
through :func:`_beside`, the second on the calling thread. Backward runs
each conv layer's kernel gradient, after refilling the columns it reads,
beside the col2im GEMM and the tap sums, and the Q/K/V weight gradient
beside the ``dact`` GEMM. Without a helper the same calls run in the same
order on the calling thread. Each task writes memory that nothing reads
before its join, and each GEMM keeps its operands and output, so the
results are the same bits with and without a helper. The helper runs only
private functions of this module and numpy calls, so the functions that
the benchmark's tracer wraps, with one span stack per process, all stay on
the calling thread.

The head reads the attention output only through its time mean, and
``mean_t(A V) Wo = (abar V) Wo`` with ``abar`` the attention weights
averaged over queries, so the pooled output is formed without the full
(B, w, d') attention output. Backward uses the same identity: the
upstream gradient of A is the same for every query, so dV = abar x
dpooled and the softmax Jacobian reduces to ``A * (u - A u)``. The softmax
and its Jacobian run key-major, in the (w_k, B, h, w_q) ``softmax``, so
their max and sum over keys are elementwise over rows of B*h*w_q; ``att``
is its (B, h, w_q, w_k) view.

The time means and head products are per-window vector products, and a
GEMM's output columns are the windows' time steps, but BLAS picks its GEMM
kernel by matrix size. So a window's prediction alone and in a batch
agree only to rounding: at the default config, 1 of 70 random windows
differs in the last bit between a batch of 70 and a batch of one.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import Executor, Future
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import blas
from .errors import BadCheckpoint, InvalidSpec, ShapeMismatch, check_seed
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
        check_seed(self.seed)

    @property
    def d_attn(self) -> int:
        """Width of the attention output: heads * head_dim."""
        return self.heads * self.head_dim


def param_layout(config: ModelConfig) -> dict[str, tuple]:
    """Name -> checkpoint shape of every learnable tensor, in the order
    they sit in ``ModelParams.flat`` and in checkpoints: per conv layer an
    (f, c_in, k) kernel (c_in = 1 for layer 0, else f) and an (f,) bias;
    per-head projections wq, wk, wv (h, f, d_k); the shared output
    projection wo (d', d') with d' = h*d_k; the dense head's (f + d',)
    weights and () bias. ``flat`` stores each 3-D tensor with its last two
    axes swapped (see :class:`ModelParams`)."""
    f, k = config.filters, config.kernel_size
    layout: dict[str, tuple] = {}
    for i in range(config.cnn_layers):
        layout[f"conv{i}.kernel"] = (f, 1 if i == 0 else f, k)
        layout[f"conv{i}.bias"] = (f,)
    for name in ("wq", "wk", "wv"):
        layout[f"attn.{name}"] = (config.heads, f, config.head_dim)
    layout["attn.wo"] = (config.d_attn, config.d_attn)
    layout["head.w_out"] = (f + config.d_attn,)
    layout["head.b_out"] = ()
    return layout


class ModelParams:
    """All learnable tensors as one float64 vector ``flat`` (parameters or
    their gradient) in GEMM order, and views into it carved once. ``flat``
    holds the tensors of :func:`param_layout` in its order, each 3-D one
    with its last two axes swapped: kernels as (f, k, c_in), wq, wk and wv
    as (h, d_k, d). So each layer's (f, k*c_in) kernel matrix,
    ``conv_mats``, and the (3*h*d_k, d) Q/K/V matrix ``wqkv``, row blocks
    ordered Q, K, V, then head, are plain views, which the GEMMs read and
    backward writes. ``conv_kernels`` (f, c_in, k), ``wq``, ``wk``, ``wv``
    (h, d, d_k) and :meth:`tensors` are the checkpoint-shaped views;
    ``conv_biases``, ``wo``, ``w_out`` and ``b_out`` are the rest. A vector
    of the wrong size raises :class:`ShapeMismatch`."""

    def __init__(self, config: ModelConfig, flat: np.ndarray):
        layout = param_layout(config)
        size = sum(map(math.prod, layout.values()))
        if flat.shape != (size,):
            raise ShapeMismatch(f"expected a flat vector of {size} parameters, got {flat.shape}")
        views, starts, start = {}, {}, 0
        for name, shape in layout.items():
            block = flat[start:start + math.prod(shape)]
            views[name] = (block.reshape(shape[0], shape[2], shape[1]).swapaxes(1, 2)
                           if len(shape) == 3 else block.reshape(shape))
            starts[name], start = start, start + block.size
        self.config, self.flat, self._views = config, flat, views
        layers = range(config.cnn_layers)
        self.conv_kernels = tuple(views[f"conv{i}.kernel"] for i in layers)
        self.conv_mats = tuple(kern.swapaxes(1, 2).reshape(len(kern), -1)
                               for kern in self.conv_kernels)
        self.conv_biases = tuple(views[f"conv{i}.bias"] for i in layers)
        self.wq, self.wk, self.wv, self.wo = (views[f"attn.{n}"] for n in ("wq", "wk", "wv", "wo"))
        # wq, wk and wv lie side by side in the layout
        self.wqkv = flat[starts["attn.wq"]:starts["attn.wo"]].reshape(-1, config.filters)
        self.w_out, self.b_out = views["head.w_out"], views["head.b_out"]

    def tensors(self) -> dict[str, np.ndarray]:
        """Name -> checkpoint-shaped view of ``flat``, in checkpoint order."""
        return dict(self._views)


def init_params(config: ModelConfig) -> ModelParams:
    """Seeded initialization, drawn in layout order: convolution kernels use
    fan-in uniform scaling with rectifier gain (limit sqrt(6/fan_in), entry
    std sqrt(2/fan_in)); projection matrices use fan-average (Glorot)
    uniform; biases start at zero."""
    rng = np.random.default_rng(config.seed)
    params = ModelParams(config, np.zeros(sum(map(math.prod, param_layout(config).values()))))
    for kern in params.conv_kernels:
        _, c_in, k = kern.shape
        limit = np.sqrt(6.0 / (c_in * k))
        kern[...] = rng.uniform(-limit, limit, size=kern.shape)

    def glorot(view, fan_in, fan_out):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        view[...] = rng.uniform(-limit, limit, size=view.shape)

    d, dk, d_attn = config.filters, config.head_dim, config.d_attn
    for view in (params.wq, params.wk, params.wv):
        glorot(view, d, dk)
    glorot(params.wo, d_attn, d_attn)
    glorot(params.w_out, d + d_attn, 1)
    return params


def _im2col(h: np.ndarray, cols: np.ndarray) -> None:
    """Causal im2col of channel-major (c, B, w) features into ``cols``, a
    (k, c, B, w) buffer whose row blocks ``cols[i]`` are contiguous (it
    may be a channel slice of a larger one): row block i holds h shifted i
    steps into the past, zero for t < i. Each block is one contiguous copy
    shifted by i elements, whose first i steps of every (c, b) row are
    then zeroed."""
    k, c, b, w = cols.shape
    h = h.reshape(-1)
    cols[0] = h.reshape(c, b, w)
    for i in range(1, k):
        cols[i].reshape(-1)[i:] = h[:-i]
        cols[i, :, :, :i] = 0.0


def _folded_table(params: ModelParams, xb: np.ndarray, workspace: Workspace) -> np.ndarray:
    """Channel-major (1 + 2*h*d_k + h, B, w) table of windows (B, w): the
    last conv map times the folded matrix, whose rows are w_out[:d] / w,
    the Q rows over sqrt(d_k), the K rows, and one wv_h c_h row per head.
    The conv stack runs in ``workspace``, an inference one for B windows."""
    cfg = params.config
    d, h, dk = cfg.filters, cfg.heads, cfg.head_dim
    hmap = _conv_forward(params, xb, workspace)
    c = (params.wo @ params.w_out[d:]).reshape(h, dk, 1)
    # wv_h c_h as a GEMV on a row-major (h, d, d_k) copy of wv: one on the
    # stored (h, d_k, d) order sums in another order, and the committed
    # oracle pins the table's last bits
    fold = np.concatenate([params.w_out[None, :d] / cfg.w, params.wqkv[:2 * h * dk],
                           (np.ascontiguousarray(params.wv) @ c)[..., 0]])
    fold[1:1 + h * dk] *= 1.0 / math.sqrt(dk)
    return (fold @ hmap.reshape(d, -1)).reshape(len(fold), *hmap.shape[1:])


def _folded_predict(params: ModelParams, table: np.ndarray) -> np.ndarray:
    """Predictions (B,) from a table of :func:`_folded_table`, or columns
    gathered from one. The exp runs key-major, so its max and sum over keys
    are elementwise, and abar is one matrix-vector product by 1 / (w S)."""
    cfg = params.config
    h, dk = cfg.heads, cfg.head_dim
    _, b, w = table.shape
    q, k = table[1:1 + 2 * h * dk].reshape(2, h, dk, b, w).transpose(0, 1, 3, 4, 2)
    e = np.empty((w, h, b, w))                           # (w_k, h, B, w_q)
    e_kq = e.transpose(1, 2, 0, 3)
    np.matmul(k, q.swapaxes(-1, -2), out=e_kq)
    e -= np.maximum.reduce(e, axis=0)
    np.exp(e, out=e)
    weights = 1.0 / (w * np.add.reduce(e, axis=0))
    abar = np.matmul(e_kq, weights[..., None])[..., 0]   # (h, B, w_k), as u
    abar *= table[1 + 2 * h * dk:]
    return np.add.reduce(table[0], axis=1) + np.add.reduce(abar, axis=(0, 2)) + params.b_out


def _mha_batch(wo: np.ndarray, ws: Workspace) -> np.ndarray:
    """Multi-head self-attention fed the (B, h, w, d_k) queries, keys and
    values ``ws.q``, ``ws.k`` and ``ws.v``, reduced to what the pooled head
    reads (see the module docstring): the time mean of its output, (B, d').
    The softmax runs in the workspace's buffers, ``ws.att`` being its view,
    and abar (B, h, w_k) and the pooled heads (B, h*d_k) are left on the
    workspace as ``abar`` and ``pooled`` for backward."""
    b, h, w, dk = ws.q.shape
    e, stat = ws.softmax, ws.stat
    np.matmul(ws.k, ws.q.swapaxes(-1, -2), out=ws.softmax_kq)
    # softmax over keys: max and sum run elementwise over rows of B*h*w_q
    e -= np.maximum.reduce(e, axis=0, out=stat)
    e *= 1.0 / math.sqrt(dk)
    np.exp(e, out=e)
    e /= np.add.reduce(e, axis=0, out=stat)
    ws.abar = ws.softmax_kq @ ws.tmean
    pooled = (ws.abar[:, :, None, :] @ ws.v).reshape(b, 1, h * dk)
    ws.pooled = pooled[:, 0]
    return (pooled @ wo)[:, 0]


class Workspace:
    """The buffers of a forward at one (config, batch size), and in a
    ``training`` workspace every conv layer's maps and the backward
    temporaries; an inference one keeps two maps as a ring (see the module
    docstring). The attention's softmax buffers are its attributes
    ``softmax``, ``softmax_kq``, ``stat`` and ``tmean``. The forward's
    intermediates that backward reads, ``q``, ``k``, ``v``, ``att``,
    ``abar``, ``pooled``, ``z`` and ``act``, are valid until the next
    forward with it. ``helper``, an executor with one worker or None,
    runs work beside the main thread (see :func:`_beside`). A ``split``
    workspace cuts the conv GEMMs above layer 0 at row ``cut`` and the
    Q/K/V GEMM at row ``qkv_cut`` (see :func:`.blas.split_cut`; 0 for no
    cut). A half is the whole GEMM's rows bit for bit only where BLAS tiles
    them alike, so ``train`` splits only GEMMs of a size where that was
    measured."""

    def __init__(self, config: ModelConfig, batch: int, helper: Executor | None = None,
                 split: bool = False, training: bool = True):
        f, k, w, b = config.filters, config.kernel_size, config.w, batch
        h, dk, layers = config.heads, config.head_dim, config.cnn_layers
        self.config, self.batch, self.training = config, batch, training
        self.cut = blas.split_cut(f) if split else 0
        self.qkv_cut = blas.split_cut(3 * h * dk) if split else 0
        self.cols_in = np.empty((k, 1, b, w))
        self.cols = np.empty((k, f, b, w)) if layers > 1 else None
        self.held = 0                                    # the layer whose columns cols holds
        slots = layers if training else min(layers, 2)  # layer i's map is in slot i % slots
        self.act = np.empty((slots, f, b, w))
        self.qkv = np.empty((3 * h * dk, b * w))
        # (B, h, w, d_k) views: per window and head, column-major (w, d_k)
        self.q, self.k, self.v = self.qkv.reshape(3, h, dk, b, w).transpose(0, 3, 1, 4, 2)
        self.softmax = np.empty((w, b, h, w))            # (w_k, B, h, w_q)
        self.softmax_kq = self.softmax.transpose(1, 2, 0, 3)
        self.att = self.softmax.transpose(1, 2, 3, 0)    # (B, h, w_q, w_k)
        self.abar = self.pooled = self.z = None          # each forward's, for backward
        self.stat = np.empty((b, h, w))                  # per query: max, then sum
        # a mean over the w steps as one vector product per window, so that
        # a window's result does not depend on its batch
        self.tmean = np.full(w, 1.0 / w)
        self.helper = helper
        if not training:
            return
        self.dqkv = np.empty((3, h, dk, b, w))
        self.q_rows = np.empty((b, h, w, dk))
        self.dlogits = np.empty((2, w, b, h, w))         # the Jacobian and its A*sum term
        self.dact = np.empty((f, b, w))
        self.dpre = np.empty((f, b, w))
        # col2im's taps: the columns, which the kernel gradient has read by
        # then, unless it reads them on the helper meanwhile
        self.dcols = self.cols if helper is None or layers == 1 else np.empty((k, f, b, w))


def _beside(helper: Executor | None, fn, *args) -> Future | None:
    """Start ``fn(*args)`` on ``helper`` and return its future for
    :func:`_join`, or without a helper run it now: the same bits either
    way, as the caller leaves ``fn``'s memory alone until the join."""
    if helper is None:
        fn(*args)
        return None
    return helper.submit(fn, *args)


def _join(task: Future | None) -> None:
    """Wait for a task of :func:`_beside`, re-raising what it raised."""
    if task is not None:
        task.result()


def _halves(helper: Executor | None, cut: int, fn, *args) -> None:
    """``fn(*args, rows)`` over all rows: rows ``[0, cut)`` through
    :func:`_beside` and rows ``[cut, ...)`` on this thread, then wait for
    both. With cut 0 one call here covers every row."""
    task = _beside(helper, fn, *args, slice(0, cut)) if cut else None
    fn(*args, slice(cut, None))
    _join(task)


def _conv_fill(h: np.ndarray, cols: np.ndarray, rows: slice) -> None:
    """For a conv layer above layer 0, the im2col of input channels ``rows``
    of h (f, B, w) into ``cols`` (k, f, B, w)."""
    _im2col(h[rows], cols[:, rows])


def _conv_rows(kmat: np.ndarray, bias: np.ndarray, cols: np.ndarray, act: np.ndarray,
               rows: slice) -> None:
    """Output channels ``rows`` of a conv layer into its map ``act`` (f, B, w):
    those rows of its kernel matrix ``kmat`` (``ModelParams.conv_mats``)
    times the im2col columns ``cols`` (:func:`_im2col`), plus bias, then
    ReLU."""
    pre = act[rows]
    np.matmul(kmat[rows], cols, out=pre.reshape(len(pre), -1))
    pre += bias[rows, None, None]
    np.maximum(pre, 0.0, out=pre)


def _matmul_rows(a: np.ndarray, b: np.ndarray, out: np.ndarray, rows: slice) -> None:
    """Rows ``rows`` of ``a @ b`` into ``out``."""
    np.matmul(a[rows], b, out=out[rows])


def _kernel_grad(h: np.ndarray | None, cols: np.ndarray, dpre: np.ndarray,
                 dst: np.ndarray) -> None:
    """A conv layer's kernel gradient, the GEMM ``dpre @ cols.T`` into its
    matrix view ``dst``, from its (k, c, B, w) im2col columns ``cols``,
    refilled first from its input h unless h is None."""
    if h is not None:
        _im2col(h, cols)
    np.matmul(dpre, cols.reshape(dst.shape[1], -1).T, out=dst)


def _conv_forward(params: ModelParams, xb: np.ndarray, ws: Workspace) -> np.ndarray:
    """The conv stack over windows xb (B, w) in ``ws``, made for (config, B):
    layer i writes its activation map into slot i % ``len(ws.act)``.
    Returns the last map, channel-major (f, B, w)."""
    cfg = params.config
    if (ws.config, ws.batch) != (cfg, len(xb)):
        raise ShapeMismatch(f"workspace for {ws.batch} windows of {ws.config}, "
                            f"got {len(xb)} of {cfg}")
    b, w = xb.shape
    h = xb[None]
    for layer, (kmat, bias) in enumerate(zip(params.conv_mats, params.conv_biases)):
        if layer:
            # the deeper layers share one buffer of columns, written in the
            # halves of the layer's cut
            _halves(ws.helper, ws.cut, _conv_fill, h, ws.cols)
            cols, cut = ws.cols, ws.cut
        else:
            # layer 0's GEMM is not cut
            _im2col(h, ws.cols_in)
            cols, cut = ws.cols_in, 0
        slot = layer % len(ws.act)
        _halves(ws.helper, cut, _conv_rows, kmat, bias, cols.reshape(kmat.shape[1], b * w),
                ws.act[slot])
        h = ws.act[slot]
    ws.held = cfg.cnn_layers - 1
    return h


def _forward_batch(params: ModelParams, xb: np.ndarray,
                   workspace: Workspace | None = None) -> tuple[np.ndarray, Workspace]:
    """Vectorized forward over a batch of scaled windows (B, w): the conv
    stack of :func:`_conv_forward`, the Q/K/V GEMM, the attention body
    :func:`_mha_batch`, and the dense head on z = [time mean of the last
    conv map, pooled attention] (B, d + d').

    Returns predictions (B,) and the workspace it ran in, ``workspace`` or
    a new training one when not given. The workspace's intermediates are
    what :func:`_backward_batch` reads: q, k, v (B, h, w, d_k), ``att``
    (B, h, w_q, w_k), ``abar``, ``pooled``, ``z``, and the channel-major
    conv maps ``act``.
    """
    cfg = params.config
    xb = np.asarray(xb, dtype=np.float64)
    if xb.ndim != 2 or xb.shape[1] != cfg.w:
        raise ShapeMismatch(f"expected (B, {cfg.w}) windows, got {xb.shape}")
    ws = Workspace(cfg, len(xb)) if workspace is None else workspace
    h = _conv_forward(params, xb, ws)
    _halves(ws.helper, ws.qkv_cut, _matmul_rows, params.wqkv,
            h.reshape(cfg.filters, len(xb) * cfg.w), ws.qkv)
    h_att = _mha_batch(params.wo, ws)
    ws.z = np.concatenate([h.transpose(1, 0, 2) @ ws.tmean, h_att], axis=1)
    return np.add.reduce(ws.z * params.w_out, axis=1) + params.b_out, ws


def _backward_batch(params: ModelParams, ws: Workspace, dl_dy: np.ndarray,
                    out: ModelParams | None = None) -> np.ndarray:
    """Analytic gradient of sum_b dl_dy[b] * yhat[b] w.r.t. ``params.flat``,
    each tensor's part written into its view of ``out`` (a new ModelParams
    when not given); returns ``out.flat``. It reads the intermediates that
    the last forward left in ``ws``, which must be a training workspace.
    Weight and input gradients are 2-D GEMMs on the same channel-major
    (., B*w) layouts and weight matrices as the forward pass, each weight
    gradient's GEMM writing into its matrix view of ``out``, and the
    temporaries are the workspace's buffers."""
    cfg = params.config
    if not ws.training:
        raise ValueError("backward needs a training workspace: an inference "
                         "workspace keeps two conv maps and no backward buffers")
    g = np.asarray(dl_dy, dtype=np.float64)
    b, w, d, dk, h = ws.batch, cfg.w, cfg.filters, cfg.head_dim, cfg.heads

    if out is None:
        out = ModelParams(cfg, np.empty_like(params.flat))
    np.matmul(g, ws.z, out=out.w_out)
    np.add.reduce(g, out=out.b_out)
    dz = g[:, None] * params.w_out

    # pooled attention: the upstream gradient is the same for every query
    np.matmul(ws.pooled.T, dz[:, d:], out=out.wo)
    dpooled = (dz[:, d:] @ params.wo.T).reshape(b, h, 1, dk)
    dq, dk_ = ws.dqkv.transpose(0, 3, 1, 4, 2)[:2]
    # dv in the memory order of dqkv, (h, d_k, B, w)
    np.multiply(ws.abar.transpose(1, 0, 2)[:, None], dpooled.transpose(1, 3, 0, 2), out=ws.dqkv[2])
    # dL/dA[q, key] = u[key] for every q; the logits' 1/sqrt(d_k) folded in
    u = (ws.v @ dpooled.swapaxes(-1, -2)).transpose(2, 0, 1, 3) / (w * math.sqrt(dk))
    # softmax Jacobian A * (u - A u), key-major as in the forward
    a, stat = ws.softmax, ws.stat
    dlogits, a_sum = ws.dlogits
    np.multiply(a, u, out=dlogits)
    dlogits -= np.multiply(a, np.add.reduce(dlogits, axis=0, out=stat), out=a_sum)
    np.matmul(dlogits.transpose(1, 2, 3, 0), ws.k, out=dq)
    # BLAS takes this product 2-3x faster with Q row-major than as q's view
    np.copyto(ws.q_rows, ws.q)
    np.matmul(dlogits.transpose(1, 2, 0, 3), ws.q_rows, out=dk_)

    dqkv = ws.dqkv.reshape(3 * h * dk, b * w)
    h_cnn = ws.act[-1].reshape(d, b * w)
    task = _beside(ws.helper, np.matmul, dqkv, h_cnn.T, out.wqkv)
    dact = np.matmul(params.wqkv.T, dqkv, out=ws.dact.reshape(d, b * w)).reshape(d, b, w)
    # z is the time mean of the conv map, so each step gets dL/dz / w
    dact += dz[:, :d].T[:, :, None] / w

    # convolution stack, last layer first
    for layer in reversed(range(cfg.cnn_layers)):
        kmat = params.conv_mats[layer]
        # the task beside reads dpre and refills or reads the columns: done
        # before the next layer's task or dpre
        _join(task)
        # the ReLU mask: act = max(pre, 0) is positive exactly where pre is
        dpre = np.multiply(dact, ws.act[layer] > 0, out=ws.dpre).reshape(d, b * w)
        np.add.reduce(dpre, axis=1, out=out.conv_biases[layer])
        # layer 0's columns are the forward pass's; the deeper layers share
        # one buffer of columns, which the kernel gradient's task refills
        # unless it holds the layer's
        refill = layer > 0 and ws.held != layer
        task = _beside(ws.helper, _kernel_grad, ws.act[layer - 1] if refill else None,
                       ws.cols if layer else ws.cols_in, dpre, out.conv_mats[layer])
        if layer > 0:
            # col2im: one GEMM into channel-major (k, c, B, w) taps, where
            # tap i at (c, b, t) came from h[c, b, t-i]. Each tap's steps
            # t < i belong to the padding and are zeroed, so it adds to tap
            # 0 as one contiguous run shifted by i
            dcols = np.matmul(kmat.T, dpre, out=ws.dcols.reshape(kmat.shape[1], b * w))
            dcols = dcols.reshape(ws.dcols.shape)
            ws.held = 0
            dh = dcols[0].reshape(-1)
            for i in range(1, cfg.kernel_size):
                dcols[i, :, :, :i] = 0.0
                dh[:-i] += dcols[i].reshape(-1)[i:]
            dact = dcols[0]
    _join(task)
    return out.flat


# -- checkpoint io -------------------------------------------------------

CHECKPOINT_FORMAT = "fusecast-checkpoint"
CHECKPOINT_VERSION = 1


def _tensor_doc(a: np.ndarray) -> dict:
    a = np.asarray(a, dtype=np.float64)
    return {"shape": list(a.shape), "data": a.ravel().tolist()}


def _tensor_from_doc(doc: dict) -> np.ndarray:
    try:
        arr = np.array(doc["data"], dtype=np.float64).reshape(doc["shape"])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise BadCheckpoint(f"malformed tensor entry: {exc}") from None
    return arr


def save_checkpoint(path, params: ModelParams, scaler: ScalerParams) -> None:
    """Serialize config, scaler, and all parameter tensors as a
    self-describing JSON document (floats round-trip exactly via repr)."""
    doc = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "model_config": asdict(params.config),
        "scaler": asdict(scaler),
        "tensors": {name: _tensor_doc(t) for name, t in params.tensors().items()},
    }
    p = Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    p.write_text(json.dumps(doc, indent=1))


def load_checkpoint(path) -> tuple[ModelParams, ScalerParams]:
    """Read a :func:`save_checkpoint` document; tensors other than exactly the
    finite ones of :func:`param_layout` raise :class:`BadCheckpoint`."""
    p = Path(path)
    if not p.is_file():
        raise BadCheckpoint(f"no such checkpoint: {p}")
    try:
        doc = json.loads(p.read_text(encoding="utf-8"))
    # ValueError covers bad JSON, undecodable bytes and over-long integers
    except (ValueError, RecursionError) as exc:
        raise BadCheckpoint(f"not valid UTF-8 JSON: {exc}") from None
    if not isinstance(doc, dict) or doc.get("format") != CHECKPOINT_FORMAT:
        raise BadCheckpoint("unrecognized checkpoint document")
    version = doc.get("version")
    if type(version) is not int or version != CHECKPOINT_VERSION:
        raise BadCheckpoint(f"unsupported checkpoint version {version!r}, "
                            f"expected {CHECKPOINT_VERSION}")
    try:
        cfg = ModelConfig(**doc["model_config"])
        scaler = ScalerParams(**doc["scaler"])
        if not isinstance(doc["tensors"], dict):
            raise BadCheckpoint("checkpoint tensors must be an object, "
                                f"got {type(doc['tensors']).__name__}")
        tensors = {name: _tensor_from_doc(t) for name, t in doc["tensors"].items()}
    except (KeyError, TypeError, InvalidSpec) as exc:
        raise BadCheckpoint(f"bad checkpoint fields: {exc}") from None
    layout = param_layout(cfg)
    if set(tensors) != set(layout):
        raise BadCheckpoint("checkpoint tensors do not match the declared config")
    params = ModelParams(cfg, np.empty(sum(map(math.prod, layout.values()))))
    for name, view in params.tensors().items():
        if tensors[name].shape != view.shape:
            raise BadCheckpoint(f"tensor {name} has shape {tensors[name].shape}, "
                                f"expected {view.shape}")
        view[...] = tensors[name]
    if not np.all(np.isfinite(params.flat)):
        raise BadCheckpoint("checkpoint tensors hold non-finite values")
    return params, scaler
