"""Hybrid forecaster: stacked causal 1-D convolutions feeding multi-head
self-attention, time-wise feature fusion, global average pooling, and a
scalar dense head.

There is one model path, batched over windows: :func:`_forward_batch` maps
(B, w) scaled windows to (B,) predictions and a cache of every
intermediate, and :func:`_backward_batch` is analytic reverse-mode
differentiation of the same equations (softmax Jacobian, causal-convolution
transpose paths included) from that cache. A single window is a batch of
one. The forward is the conv stack :func:`_conv_stack`, the Q/K/V GEMM
:func:`_qkv`, and :func:`_attend_in`, the attention body :func:`_mha_batch`
plus the dense head, run in a set of attention buffers. ``explain``'s
coalition model shares the same parts without knowing how Q, K and V are
stacked: :func:`_features` gives it the channel-major (d + 3*h*d_k, B, w)
table of conv features and Q/K/V, whose columns it gathers per composite,
and it runs :func:`_attend`, the same body in new buffers, on them.

All learnable tensors live in one float64 vector, ``ModelParams.flat``,
laid out by :func:`param_layout` in checkpoint order, with named views
carved once per :class:`ModelParams`. :func:`_backward_batch` writes the
gradient through the views of a gradient :class:`ModelParams`, one vector
in the same layout, so the optimizer is elementwise; training allocates
that vector once per run and the backward pass fills it in place.

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
:func:`_conv_layer` is the one conv-layer routine, for :func:`_conv_stack`
and the training forward alike.

The training forward writes its cache into a :class:`Workspace`, the
buffers of one (config, batch size), and the backward pass writes its
temporaries there too, so a run that keeps one workspace per batch size
allocates them once. The forward writes the step's weight matrices there
with one copy each, the (3*h*d_k, d) Q/K/V matrix and the (f, k*f) kernel
matrix that the layers above layer 0 share (layer 0's is a view of its
kernel), and backward reads them. The workspace also holds the attention
buffers: the softmax buffer, its transposed view and the time-mean
weights. Per conv layer the cache keeps the activation map and a bool
ReLU mask, which is all backward reads of the pre-activation. Im2col runs
in two buffers, one for layer 0 and one shared by the deeper layers.
After the forward the shared columns and kernel matrix are the last
layer's; backward refills them for each layer between from the kept
activations and the kernels, and runs each deeper layer's col2im in the
taps buffer ``dcols``: the shared columns, once its kernel gradient has
read them, or, in a workspace with a helper (below), a buffer of its own,
so that the two GEMMs never share memory. The weight-gradient GEMMs run
one at a time, in one buffer, ``dweight``. The workspace records which
layer the columns and matrix hold, so a second backward from one cache
refills them too.

A workspace may carry a helper, an executor with one worker thread, which
``train`` opens for wide cells (see :mod:`.train`), and may be split. A
split workspace cuts each conv layer above layer 0 and the Q/K/V
projection by output rows at a multiple of ``SPLIT_TILE`` near the
middle: one task fills the kernel-matrix rows and im2col channels below
the cut and the other those above it, and after a join one runs the GEMM
rows, bias, mask and ReLU below the cut and the other those above. The
first task of each pair runs through :func:`_beside`, the second on the
calling thread. Backward runs each conv layer's kernel gradient, after
refilling the columns it reads, beside the refill of the kernel matrix,
the col2im GEMM and the tap sums, and the Q/K/V weight gradient beside
the ``dact`` GEMM. Without a helper the same calls run in the same order
on the calling thread. Each task writes memory that nothing reads before
its join, and each GEMM keeps its operands and output, so the results
are the same bits with and without a helper. The helper runs only
private functions of this module and numpy calls, so the functions that
the benchmark's tracer wraps, with one span stack per process, all stay
on the calling thread.

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
from typing import NamedTuple

import numpy as np

from .errors import BadCheckpoint, InvalidSpec, ShapeMismatch, check_seed
from .series import ScalerParams

# rows of a C-order GEMM output per tile of OpenBLAS's one-thread dgemm
# kernel on SkylakeX: cut at a multiple of it, each half is tiled as in the
# whole product, so its bits are the whole product's rows (measured on wide
# cells at 35 batch shapes; cuts at multiples of 8 or 16 left a remainder
# tile that rounded the last columns differently)
SPLIT_TILE = 24


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
    """Name -> shape of every learnable tensor, in the order they sit in
    ``ModelParams.flat`` and in checkpoints: per conv layer an (f, c_in, k)
    kernel (c_in = 1 for layer 0, else f) and an (f,) bias; per-head
    projections wq, wk, wv (h, f, d_k); the shared output projection wo
    (d', d') with d' = h*d_k; the dense head's (f + d',) weights and ()
    bias."""
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
    their gradient), laid out by :func:`param_layout`, and views into it
    carved once: ``conv_kernels`` and ``conv_biases`` (one per layer),
    ``wq``, ``wk``, ``wv`` and ``wqkv``, the three stacked, ``wo``,
    ``w_out`` and ``b_out``. A vector of the wrong size raises
    :class:`ShapeMismatch`."""

    def __init__(self, config: ModelConfig, flat: np.ndarray):
        layout = param_layout(config)
        size = sum(map(math.prod, layout.values()))
        if flat.shape != (size,):
            raise ShapeMismatch(f"expected a flat vector of {size} parameters, got {flat.shape}")
        views, starts, start = {}, {}, 0
        for name, shape in layout.items():
            views[name] = flat[start:start + math.prod(shape)].reshape(shape)
            starts[name], start = start, start + math.prod(shape)
        self.config, self.flat, self._views = config, flat, views
        layers = range(config.cnn_layers)
        self.conv_kernels = tuple(views[f"conv{i}.kernel"] for i in layers)
        self.conv_biases = tuple(views[f"conv{i}.bias"] for i in layers)
        self.wq, self.wk, self.wv, self.wo = (views[f"attn.{n}"] for n in ("wq", "wk", "wv", "wo"))
        # wq, wk and wv lie side by side in the layout: one (3, h, d, d_k) view
        self.wqkv = flat[starts["attn.wq"]:starts["attn.wo"]].reshape(3, *self.wq.shape)
        self.w_out, self.b_out = views["head.w_out"], views["head.b_out"]

    def tensors(self) -> dict[str, np.ndarray]:
        """Name -> view of ``flat``, in checkpoint order."""
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


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


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


def _conv_matrix(kern: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """(f, c, k) kernel as the (f, k*c) matrix matching :func:`_im2col`:
    one copy, into ``out`` when given (for c = 1 a view of the kernel
    itself when not)."""
    f, c, k = kern.shape
    if out is None:
        return kern.transpose(0, 2, 1).reshape(f, k * c)
    np.copyto(out.reshape(f, k, c), kern.transpose(0, 2, 1))
    return out


def _qkv_matrix(params: ModelParams, out: np.ndarray | None = None) -> np.ndarray:
    """The per-head projections ``params.wqkv`` as one (3*h*d_k, d) matrix,
    row blocks ordered Q, K, V, then head: one copy, into ``out`` when
    given."""
    _, h, d, dk = params.wqkv.shape
    if out is None:
        out = np.empty((3 * h * dk, d))
    np.copyto(out.reshape(3, h, dk, d), params.wqkv.transpose(0, 1, 3, 2))
    return out


class _Softmax(NamedTuple):
    """The attention buffers of one batch shape: the key-major softmax
    buffer ``e`` (w_k, B, h, w_q), its (B, h, w_k, w_q) view ``e_kq``,
    per-query statistics (B, h, w_q), and the weights of a mean over the w
    steps, applied as one vector product per window so that a window's
    result does not depend on its batch."""

    e: np.ndarray
    e_kq: np.ndarray
    stat: np.ndarray
    tmean: np.ndarray


def _softmax_buffers(b: int, h: int, w: int) -> _Softmax:
    """New attention buffers for B windows of w steps and h heads."""
    e = np.empty((w, b, h, w))
    return _Softmax(e, e.transpose(1, 2, 0, 3), np.empty((b, h, w)), np.full(w, 1.0 / w))


def _conv_layer(kmat: np.ndarray, bias: np.ndarray, cols: np.ndarray,
                out: np.ndarray) -> np.ndarray:
    """Output channels of one conv layer's pre-activation map, written into
    ``out`` (f, B, w): one GEMM of their rows of the (f, k*c) kernel matrix
    ``kmat`` (see :func:`_conv_matrix`) by the (k*c, B*w) im2col columns
    ``cols`` (see :func:`_im2col`), and their bias."""
    np.matmul(kmat, cols, out=out.reshape(len(kmat), -1))
    out += bias[:, None, None]
    return out


def _conv_stack(params: ModelParams, xb: np.ndarray):
    """Yield each conv layer's pre-activation and activation maps over
    windows (B, w), channel-major (f, B, w), in new arrays; the last
    activation map is the attention input. A caller that keeps only the
    last holds two layers' maps at a time."""
    b, w = xb.shape
    h = xb[None]
    for kern, bias in zip(params.conv_kernels, params.conv_biases):
        f, c, k = kern.shape
        cols = np.empty((k, c, b, w))
        _im2col(h, cols)
        pre = _conv_layer(_conv_matrix(kern), bias, cols.reshape(k * c, b * w), np.empty((f, b, w)))
        h = relu(pre)
        yield pre, h


def _qkv(params: ModelParams, h: np.ndarray) -> np.ndarray:
    """Q/K/V of channel-major (d, B, w) features in one GEMM: a
    (3*h*d_k, B*w) matrix, row blocks ordered Q, K, V, then head."""
    d, b, w = h.shape
    return _qkv_matrix(params) @ h.reshape(d, b * w)


def _features(params: ModelParams, xb: np.ndarray) -> np.ndarray:
    """Channel-major (d + 3*h*d_k, B, w) table of windows (B, w): the last
    conv map, then Q, K and V as laid out by :func:`_qkv`. Only two layers'
    maps are held at a time."""
    for _, h in _conv_stack(params, xb):
        pass
    return np.concatenate([h, _qkv(params, h).reshape(-1, *h.shape[1:])])


def _mha_batch(q, k, v, wo, buffers: _Softmax):
    """Multi-head self-attention fed (B, h, w, d_k) queries, keys and
    values, reduced to what the pooled head reads (see the module
    docstring): the time mean of its output, (B, d'). Also returns, for
    backward, ``att`` (B, h, w_q, w_k), abar (B, h, w_k) and the pooled
    heads (B, h*d_k). The softmax runs in ``buffers``."""
    b, h, w, dk = q.shape
    e, e_kq, stat, tmean = buffers
    np.matmul(k, q.swapaxes(-1, -2), out=e_kq)
    # softmax over keys: max and sum run elementwise over rows of B*h*w_q
    e -= np.maximum.reduce(e, axis=0, out=stat)
    e *= 1.0 / math.sqrt(dk)
    np.exp(e, out=e)
    e /= np.add.reduce(e, axis=0, out=stat)
    abar = e_kq @ tmean
    pooled = (abar[:, :, None, :] @ v).reshape(b, 1, h * dk)
    return (pooled @ wo)[:, 0], e.transpose(1, 2, 3, 0), abar, pooled[:, 0]


def _attend(params: ModelParams, h: np.ndarray, qkv: np.ndarray) -> tuple[np.ndarray, dict]:
    """:func:`_attend_in` in new buffers: the coalition model's entry."""
    _, b, w = h.shape
    return _attend_in(params, h, qkv, _softmax_buffers(b, params.config.heads, w))


def _attend_in(params: ModelParams, h: np.ndarray, qkv: np.ndarray,
               buffers: _Softmax) -> tuple[np.ndarray, dict]:
    """Predictions (B,) from channel-major conv features h (d, B, w) and
    their Q/K/V (3*h*d_k, B, w): the attention body in ``buffers``, then
    the dense head on z = [time mean of h, pooled attention] (B, d + d').
    Also returns the intermediates :func:`_backward_batch` reads: q, k, v
    (B, h, w, d_k), ``att``, ``abar``, ``pooled`` and z."""
    cfg = params.config
    _, b, w = h.shape
    q, k, v = qkv.reshape(3, cfg.heads, cfg.head_dim, b, w).transpose(0, 3, 1, 4, 2)
    h_att, att, abar, pooled = _mha_batch(q, k, v, params.wo, buffers)
    z = np.concatenate([h.transpose(1, 0, 2) @ buffers.tmean, h_att], axis=1)
    yhat = np.add.reduce(z * params.w_out, axis=1) + params.b_out
    return yhat, {"q": q, "k": k, "v": v, "att": att, "abar": abar, "pooled": pooled, "z": z}


def _split_cut(rows: int) -> int:
    """Where a split GEMM cuts its output rows: the multiple of
    ``SPLIT_TILE`` nearest the middle, at least one tile and at most all
    rows."""
    return min(rows, SPLIT_TILE * max(1, round(rows / (2 * SPLIT_TILE))))


class Workspace:
    """The buffers of one training step at one (config, batch size): the
    forward cache's conv maps, ReLU masks, im2col columns, Q/K/V and
    softmax, the time-mean weights, the step's weight matrices, and the
    backward temporaries (see the module docstring). A cache written into
    a workspace is valid until the next forward with it. ``helper``, an
    executor with one worker or None, runs work beside the main thread
    (see :func:`_beside`). A ``split`` workspace cuts the conv GEMMs above
    layer 0 at row ``cut`` and the Q/K/V GEMM at row ``qkv_cut`` (see
    :func:`_split_cut`; 0 for no cut). A half is the whole GEMM's rows bit
    for bit only where BLAS tiles them alike, so ``train`` splits only
    GEMMs of a size where that was measured."""

    def __init__(self, config: ModelConfig, batch: int, helper: Executor | None = None,
                 split: bool = False):
        f, k, w, b = config.filters, config.kernel_size, config.w, batch
        h, dk, layers = config.heads, config.head_dim, config.cnn_layers
        self.config, self.batch = config, batch
        self.cut = _split_cut(f) if split else 0
        self.qkv_cut = _split_cut(3 * h * dk) if split else 0
        self.cols_in = np.empty((k, 1, b, w))
        self.cols = np.empty((k, f, b, w)) if layers > 1 else None
        self.kmat = np.empty((f, k * f)) if layers > 1 else None
        self.held = 0                                    # the layer cols and kmat are of
        self.wqkv = np.empty((3 * h * dk, f))
        self.act = np.empty((layers, f, b, w))
        self.mask = np.empty((layers, f, b, w), dtype=bool)
        self.conv_act = list(self.act.transpose(0, 2, 3, 1))
        self.conv_mask = list(self.mask.transpose(0, 2, 3, 1))
        self.qkv = np.empty((3 * h * dk, b * w))
        self.softmax = _softmax_buffers(b, h, w)
        self.dqkv = np.empty((3, h, dk, b, w))
        self.q_rows = np.empty((b, h, w, dk))
        self.dlogits = np.empty((2, w, b, h, w))         # the Jacobian and its A*sum term
        self.dact = np.empty((f, b, w))
        self.dpre = np.empty((f, b, w))
        # col2im's taps: the columns, which the kernel gradient has read by
        # then, unless it reads them on the helper meanwhile
        self.dcols = self.cols if helper is None or layers == 1 else np.empty((k, f, b, w))
        # one weight gradient's GEMM at a time: Q/K/V's, then each kernel's
        self.dweight = np.empty(max(3 * h * dk, k * f) * f)
        self.helper = helper


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


def _conv_fill(kern: np.ndarray, h: np.ndarray, kmat: np.ndarray, cols: np.ndarray,
               rows: slice) -> None:
    """For a conv layer above layer 0, the kernel-matrix rows ``rows`` of
    ``kern`` into ``kmat`` and the im2col of input channels ``rows`` of h
    (f, B, w) into ``cols`` (k, f, B, w)."""
    _conv_matrix(kern[rows], kmat[rows])
    _im2col(h[rows], cols[:, rows])


def _conv_rows(kmat: np.ndarray, bias: np.ndarray, cols: np.ndarray, act: np.ndarray,
               mask: np.ndarray, rows: slice) -> None:
    """Output channels ``rows`` of a conv layer (see :func:`_conv_layer`)
    into its activation map ``act`` (f, B, w) and its ReLU mask."""
    pre = _conv_layer(kmat[rows], bias[rows], cols, act[rows])
    np.greater(pre, 0, out=mask[rows])
    np.maximum(pre, 0.0, out=pre)


def _matmul_rows(a: np.ndarray, b: np.ndarray, out: np.ndarray, rows: slice) -> None:
    """Rows ``rows`` of ``a @ b`` into ``out``."""
    np.matmul(a[rows], b, out=out[rows])


def _weight_grad(dy: np.ndarray, x: np.ndarray, buf: np.ndarray, dst: np.ndarray) -> None:
    """A weight gradient: the GEMM ``dy @ x.T`` into the front of the flat
    buffer ``buf``, copied into the tensor view ``dst``, whose last two
    axes are the GEMM's columns split in two and swapped."""
    tmp = np.matmul(dy, x.T, out=buf[:len(dy) * len(x)].reshape(len(dy), len(x)))
    *lead, c, k = dst.shape
    np.copyto(dst, tmp.reshape(*lead, k, c).swapaxes(-1, -2))


def _kernel_grad(h: np.ndarray | None, cols: np.ndarray, dpre: np.ndarray, buf: np.ndarray,
                 dst: np.ndarray) -> None:
    """A conv layer's kernel gradient (see :func:`_weight_grad`) from its
    (k, c, B, w) im2col columns ``cols``, refilled first from its input h
    unless h is None."""
    if h is not None:
        _im2col(h, cols)
    k, c, b, w = cols.shape
    _weight_grad(dpre, cols.reshape(k * c, b * w), buf, dst)


def _forward_batch(params: ModelParams, xb: np.ndarray,
                   workspace: Workspace | None = None) -> tuple[np.ndarray, dict]:
    """Vectorized forward over a batch of scaled windows (B, w): the conv
    stack with every layer's maps kept, the Q/K/V GEMM and :func:`_attend`.

    Returns predictions (B,) and a cache of every intermediate needed by
    :func:`_backward_batch`; ``conv_act`` and ``conv_mask`` hold (B, w, f)
    views of each layer's channel-major activation map and ReLU mask. The
    maps, Q/K/V, the softmax, the weight matrices and the im2col columns
    live in ``workspace`` (a new one when not given; see
    :class:`Workspace`), which the cache carries for the backward pass.
    """
    cfg = params.config
    xb = np.asarray(xb, dtype=np.float64)
    if xb.ndim != 2 or xb.shape[1] != cfg.w:
        raise ShapeMismatch(f"expected (B, {cfg.w}) windows, got {xb.shape}")
    ws = Workspace(cfg, len(xb)) if workspace is None else workspace
    if (ws.config, ws.batch) != (cfg, len(xb)):
        raise ShapeMismatch(f"workspace for {ws.batch} windows of {ws.config}, "
                            f"got {len(xb)} of {cfg}")

    b, w = xb.shape
    h = xb[None]
    for layer, (kern, bias) in enumerate(zip(params.conv_kernels, params.conv_biases)):
        if layer:
            # the deeper layers share one kernel matrix and one buffer of
            # columns, each written in the halves of the layer's cut
            _halves(ws.helper, ws.cut, _conv_fill, kern, h, ws.kmat, ws.cols)
            kmat, cols, cut = ws.kmat, ws.cols, ws.cut
        else:
            # layer 0's kernel matrix is a view, and its GEMM is not cut
            _im2col(h, ws.cols_in)
            kmat, cols, cut = _conv_matrix(kern), ws.cols_in, 0
        _halves(ws.helper, cut, _conv_rows, kmat, bias, cols.reshape(kern[0].size, b * w),
                ws.act[layer], ws.mask[layer])
        h = ws.act[layer]
    ws.held = cfg.cnn_layers - 1
    _halves(ws.helper, ws.qkv_cut, _matmul_rows, _qkv_matrix(params, ws.wqkv),
            h.reshape(cfg.filters, b * w), ws.qkv)
    yhat, cache = _attend_in(params, h, ws.qkv, ws.softmax)
    cache.update(workspace=ws, conv_act=ws.conv_act, conv_mask=ws.conv_mask)
    return yhat, cache


def _backward_batch(params: ModelParams, cache: dict, dl_dy: np.ndarray,
                    out: ModelParams | None = None) -> np.ndarray:
    """Analytic gradient of sum_b dl_dy[b] * yhat[b] w.r.t. ``params.flat``,
    each tensor's part written into its view of ``out`` (a new ModelParams
    when not given); returns ``out.flat``. Weight and input gradients are
    2-D GEMMs on the same channel-major (., B*w) layouts and weight
    matrices as the forward pass, and the temporaries are the cache's
    workspace buffers."""
    cfg = params.config
    ws = cache["workspace"]
    g = np.asarray(dl_dy, dtype=np.float64)
    z = cache["z"]
    b, w, d, dk, h = ws.batch, cfg.w, cfg.filters, cfg.head_dim, cfg.heads

    if out is None:
        out = ModelParams(cfg, np.empty_like(params.flat))
    np.matmul(g, z, out=out.w_out)
    np.add.reduce(g, out=out.b_out)
    dz = g[:, None] * params.w_out

    # pooled attention: the upstream gradient is the same for every query
    q, k, v, abar = cache["q"], cache["k"], cache["v"], cache["abar"]
    np.matmul(cache["pooled"].T, dz[:, d:], out=out.wo)
    dpooled = (dz[:, d:] @ params.wo.T).reshape(b, h, 1, dk)
    dq, dk_ = ws.dqkv.transpose(0, 3, 1, 4, 2)[:2]
    # dv in the memory order of dqkv, (h, d_k, B, w)
    np.multiply(abar.transpose(1, 0, 2)[:, None], dpooled.transpose(1, 3, 0, 2), out=ws.dqkv[2])
    # dL/dA[q, key] = u[key] for every q; the logits' 1/sqrt(d_k) folded in
    u = (v @ dpooled.swapaxes(-1, -2)).transpose(2, 0, 1, 3) / (w * math.sqrt(dk))
    # softmax Jacobian A * (u - A u), key-major as in the forward
    a, stat = ws.softmax.e, ws.softmax.stat
    dlogits, a_sum = ws.dlogits
    np.multiply(a, u, out=dlogits)
    dlogits -= np.multiply(a, np.add.reduce(dlogits, axis=0, out=stat), out=a_sum)
    np.matmul(dlogits.transpose(1, 2, 3, 0), k, out=dq)
    # BLAS takes this product 2-3x faster with Q row-major than as q's view
    np.copyto(ws.q_rows, q)
    np.matmul(dlogits.transpose(1, 2, 0, 3), ws.q_rows, out=dk_)

    dqkv = ws.dqkv.reshape(3 * h * dk, b * w)
    h_cnn = ws.act[-1].reshape(d, b * w)
    task = _beside(ws.helper, _weight_grad, dqkv, h_cnn, ws.dweight, out.wqkv)
    dact = np.matmul(ws.wqkv.T, dqkv, out=ws.dact.reshape(d, b * w)).reshape(d, b, w)
    # z is the time mean of the conv map, so each step gets dL/dz / w
    dact += dz[:, :d].T[:, :, None] / w

    # convolution stack, last layer first
    for layer in reversed(range(cfg.cnn_layers)):
        kern = params.conv_kernels[layer]
        f, c_in, ksz = kern.shape
        # the task beside reads dpre, refills or reads the columns and
        # writes dweight: done before the next layer's task or dpre
        _join(task)
        dpre = np.multiply(dact, ws.mask[layer], out=ws.dpre).reshape(f, b * w)
        np.add.reduce(dpre, axis=1, out=out.conv_biases[layer])
        # layer 0's columns are the forward pass's; the deeper layers share
        # one buffer of columns and one kernel matrix, refilled unless held:
        # the columns by the kernel gradient's task, the matrix here
        refill = layer > 0 and ws.held != layer
        task = _beside(ws.helper, _kernel_grad, ws.act[layer - 1] if refill else None,
                       ws.cols if layer else ws.cols_in, dpre, ws.dweight,
                       out.conv_kernels[layer])
        if refill:
            _conv_matrix(kern, ws.kmat)
        if layer > 0:
            # col2im: one GEMM into channel-major (k, c, B, w) taps, where
            # tap i at (c, b, t) came from h[c, b, t-i]. Each tap's steps
            # t < i belong to the padding and are zeroed, so it adds to tap
            # 0 as one contiguous run shifted by i
            dcols = np.matmul(ws.kmat.T, dpre, out=ws.dcols.reshape(ksz * c_in, b * w))
            dcols = dcols.reshape(ksz, c_in, b, w)
            ws.held = 0
            dh = dcols[0].reshape(-1)
            for i in range(1, ksz):
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
    except (KeyError, TypeError, ValueError) as exc:
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
        doc = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise BadCheckpoint(f"not valid JSON: {exc}") from None
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
    for name, shape in layout.items():
        if tensors[name].shape != shape:
            raise BadCheckpoint(f"tensor {name} has shape {tensors[name].shape}, expected {shape}")
    flat = np.concatenate([tensors[name].ravel() for name in layout])
    if not np.all(np.isfinite(flat)):
        raise BadCheckpoint("checkpoint tensors hold non-finite values")
    return ModelParams(cfg, flat), scaler
