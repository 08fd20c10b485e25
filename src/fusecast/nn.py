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
each weight gradient's GEMM writing straight into its view: a vector in
the same layout for the API and the tests. It finishes the gradient a
group at a time from the layout's end, the attention and head first and
then each conv layer, last first, and calls back as each is done. The
optimizer is elementwise, so training updates those parameters there and
keeps no full gradient: its views lie in a window of min(n, ``ADAM_CHUNK``
+ the largest group) elements, which holds only the gradients that Adam
has not yet taken (see :mod:`.train`).

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
batch size), which its caller keeps for a run so that they are allocated
once; a smaller batch runs in a view of it, the leading part of each
buffer (:meth:`Workspace.view`). It holds the im2col columns (one buffer
for layer 0, one shared by the deeper layers) and the attention's
buffers: the key-major softmax buffer ``softmax``, its (B, h, w_k, w_q)
view ``softmax_kq``, the per-query statistics ``stat`` and the time-mean
weights ``tmean``. A
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
(below), the Q/K/V block, dead once the Q/K/V weight gradient's task has
joined, so that the two GEMMs never share memory. Backward writes each
gradient over the forward buffer that it has just read for the last
time: dV over V once u has read V, dQ over Q once Q is copied row-major,
dK over K once dQ's product has read K, the Jacobian's A (A u) term over
the softmax A, and each conv layer's dpre over its activation map once
the ReLU mask is read from it. The row-major Q copy and the Jacobian lie
over ``dact``, which the dact GEMM writes only after both are read. So a
backward consumes its forward, and a second backward from it raises
``ValueError``.

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

import itertools
import json
import math
from collections.abc import Callable
from concurrent.futures import Executor, Future
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from . import blas
from .errors import BadCheckpoint, InvalidSpec, ShapeMismatch, allocated, check_seed
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
    ``conv_biases``, ``wo``, ``w_out`` and ``b_out`` are the rest.
    ``starts`` maps each name to where its tensor starts in ``flat``. By
    default these are the layout's offsets, and a vector of the wrong size
    raises :class:`ShapeMismatch`; a caller may place the tensors itself,
    as training's gradient window does (see :mod:`.train`)."""

    def __init__(self, config: ModelConfig, flat: np.ndarray,
                 starts: dict[str, int] | None = None):
        layout = param_layout(config)
        sizes = [math.prod(shape) for shape in layout.values()]
        if starts is None:
            if flat.shape != (sum(sizes),):
                raise ShapeMismatch(f"expected a flat vector of {sum(sizes)} parameters, "
                                    f"got {flat.shape}")
            starts = dict(zip(layout, itertools.accumulate(sizes, initial=0)))
        views = {}
        for (name, shape), size in zip(layout.items(), sizes):
            block = flat[starts[name]:starts[name] + size]
            views[name] = (block.reshape(shape[0], shape[2], shape[1]).swapaxes(1, 2)
                           if len(shape) == 3 else block.reshape(shape))
        self.config, self.flat, self.starts, self._views = config, flat, starts, views
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


def _zeros(config: ModelConfig) -> np.ndarray:
    """A zero vector as long as ``config``'s parameters; MemoryError for a
    length too large (see :func:`fusecast.errors.allocated`). Each conv
    layer above the first has f * (f * k + 1) parameters, so they are
    counted without a layout, which for a cnn_layers of 10**400 grows
    until memory runs out."""
    f, layers = config.filters, config.cnn_layers
    n = (sum(map(math.prod, param_layout(replace(config, cnn_layers=1)).values()))
         + (layers - 1) * f * (f * config.kernel_size + 1))
    return allocated(f"{n} parameters", np.zeros, n)


def init_params(config: ModelConfig) -> ModelParams:
    """Seeded initialization, drawn in layout order: convolution kernels use
    fan-in uniform scaling with rectifier gain (limit sqrt(6/fan_in), entry
    std sqrt(2/fan_in)); projection matrices use fan-average (Glorot)
    uniform; biases start at zero."""
    rng = np.random.default_rng(config.seed)
    params = ModelParams(config, _zeros(config))
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
    ``abar``, ``pooled``, ``z`` and ``act``, are valid until a backward
    reads them, which writes its gradients over them, or the next forward
    with it or with any of its views. ``helper``, an executor with
    one worker or None, runs work beside the main thread (see
    :func:`_beside`). A ``split`` workspace cuts the conv GEMMs above
    layer 0 at row ``cut`` and the Q/K/V GEMM at row ``qkv_cut`` (see
    :func:`.blas.split_cut`; 0 for no cut). A half is the whole GEMM's
    rows bit for bit only where BLAS tiles them alike, so ``train`` splits
    only GEMMs of a size where that was measured.

    Each buffer lies at a fixed offset of one block sized for ``batch``
    windows, and :meth:`view` gives a workspace of fewer windows over the
    same blocks, each buffer at the same offset. Several buffers share a
    block where backward writes one after it has read the other for the
    last time (see the module docstring). So a training workspace's Q/K/V
    block is max(3*h*d_k, taps) * B*w elements, taps being k*f with a
    helper and more than one conv layer and 0 otherwise, and its ``dact``
    block, shared with ``q_rows`` and ``dlogits``, max(f, h*(d_k + w)) *
    B*w."""

    def __init__(self, config: ModelConfig, batch: int, helper: Executor | None = None,
                 split: bool = False, training: bool = True):
        self._carve(config, batch, helper, split, training, {}, [0])

    def view(self, batch: int) -> Workspace:
        """A workspace of ``batch`` windows, at most this one's, in the
        leading part of each of its blocks: its buffers are C-contiguous
        and shaped as a new workspace's, so every GEMM keeps its shape and
        its bits. It splits where this one does and ``blas.splits`` allows
        at its size. Views are kept per size, and at this one's size the
        view is this workspace. A forward through one view overwrites the
        intermediates of every other."""
        if not 0 < batch <= self.batch:
            raise ShapeMismatch(f"a view of {batch} windows of a workspace for {self.batch}")
        if batch == self.batch:
            return self
        if batch not in self._views:
            view = self._views[batch] = Workspace.__new__(Workspace)
            view._carve(self.config, batch, self.helper,
                        self.split and blas.splits(self.config, batch), self.training,
                        self._blocks, self._holds)
        return self._views[batch]

    def _carve(self, config: ModelConfig, batch: int, helper: Executor | None,
               split: bool, training: bool, blocks: dict[str, np.ndarray],
               holds: list[int]) -> None:
        def empty(name, *shape):
            # the leading part of the block ``name``, made by its first use
            if name not in blocks:
                blocks[name] = np.empty(math.prod(shape))
            return blocks[name][:math.prod(shape)].reshape(shape)

        f, k, w, b = config.filters, config.kernel_size, config.w, batch
        h, dk, layers = config.heads, config.head_dim, config.cnn_layers
        self.config, self.batch, self.training = config, batch, training
        self.helper, self.split, self._blocks, self._views = helper, split, blocks, {}
        # [the batch of the view whose forward the blocks hold], 0 for none,
        # shared by the views: the views of one size run on the same memory
        self._holds = holds
        self.cut = blas.split_cut(f) if split else 0
        self.qkv_cut = blas.split_cut(3 * h * dk) if split else 0
        if training and not blocks:
            # the blocks that backward's scratch shares with forward memory,
            # each buffer at its offset for this batch (see the module
            # docstring)
            taps = k * f if helper is not None and layers > 1 else 0
            qkv = np.empty(max(3 * h * dk, taps) * b * w)
            dact = np.empty(max(f, h * (dk + w)) * b * w)
            blocks.update(qkv=qkv, dcols=qkv, dact=dact, q_rows=dact, dlogits=dact[h * dk * b * w:])
        self.cols_in = empty("cols_in", k, 1, b, w)
        self.cols = empty("cols", k, f, b, w) if layers > 1 else None
        slots = layers if training else min(layers, 2)  # layer i's map is in slot i % slots
        self.act = empty("act", slots, f, b, w)
        self.qkv = empty("qkv", 3 * h * dk, b * w)
        # (B, h, w, d_k) views: per window and head, column-major (w, d_k)
        self.q, self.k, self.v = self.qkv.reshape(3, h, dk, b, w).transpose(0, 3, 1, 4, 2)
        self.softmax = empty("softmax", w, b, h, w)      # (w_k, B, h, w_q)
        self.softmax_kq = self.softmax.transpose(1, 2, 0, 3)
        self.att = self.softmax.transpose(1, 2, 3, 0)    # (B, h, w_q, w_k)
        self.abar = self.pooled = self.z = None          # each forward's, for backward
        self.stat = empty("stat", b, h, w)               # per query: max, then sum
        # a mean over the w steps as one vector product per window, so that
        # a window's result does not depend on its batch
        self.tmean = np.full(w, 1.0 / w)
        if not training:
            return
        self.q_rows = empty("q_rows", b, h, w, dk)
        self.dlogits = empty("dlogits", w, b, h, w)      # the softmax Jacobian, key-major
        self.dact = empty("dact", f, b, w)
        # col2im's taps: the columns, which the kernel gradient has read by
        # then, unless it reads them on the helper meanwhile; then the Q/K/V
        # block
        self.dcols = self.cols if helper is None or layers == 1 else empty("dcols", k, f, b, w)


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
        _halves(ws.helper, cut, _conv_rows, kmat, bias, cols.reshape(kmat.shape[1], xb.size),
                ws.act[slot])
        h = ws.act[slot]
    ws._holds[0] = ws.batch
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
                    out: ModelParams | None = None,
                    done: Callable[[int], None] | None = None) -> np.ndarray:
    """Analytic gradient of sum_b dl_dy[b] * yhat[b] w.r.t. ``params.flat``,
    each tensor's part written into its view of ``out`` (a new ModelParams
    when not given); returns ``out.flat``. It reads the intermediates that
    the last forward left in ``ws``, which must be a training workspace,
    and consumes them: it writes dV, dQ and dK over V, Q and K, the
    softmax Jacobian's A (A u) term over the softmax, and each conv layer's
    dpre over its activation map, each as soon as it has read that buffer
    for the last time. So it raises ``ValueError`` when a backward has
    already read them, or when a forward through another view of ``ws``'s
    blocks has run since.
    Weight and input gradients are 2-D GEMMs on the same channel-major
    (., B*w) layouts and weight matrices as the forward pass, each weight
    gradient's GEMM writing into its matrix view of ``out``, and the
    temporaries are the workspace's buffers.

    The gradients are finished a group at a time, from the end of the
    layout: group L = ``cnn_layers`` is the attention and head tensors,
    group i < L conv layer i's kernel and bias. ``done(i)``, when given, is
    called on this thread once every gradient from group i on is final and
    backward reads none of those parameters again, with no task beside:
    with L, L-1, ..., 1, and 0 as the pass ends. So ``done`` may update those
    parameters, and ``out`` may place a group over memory that ``done``
    has freed, as training does (see :mod:`.train`)."""
    cfg = params.config
    if not ws.training:
        raise ValueError("backward needs a training workspace: an inference "
                         "workspace keeps two conv maps and no backward buffers")
    if ws._holds[0] != ws.batch:
        raise ValueError("backward needs the intermediates of a forward through this "
                         "workspace: a backward has consumed them, or a forward through "
                         "another view of its blocks has overwritten them")
    ws._holds[0] = 0
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
    # dL/dA[q, key] = u[key] for every q; the logits' 1/sqrt(d_k) folded in
    u = (ws.v @ dpooled.swapaxes(-1, -2)).transpose(2, 0, 1, 3) / (w * math.sqrt(dk))
    # dV over V, which u was the last to read, in its memory order (h, d_k, B, w)
    np.multiply(ws.abar.transpose(1, 0, 2)[:, None], dpooled.transpose(1, 3, 0, 2),
                out=ws.qkv.reshape(3, h, dk, b, w)[2])
    # softmax Jacobian A * (u - A u), key-major as in the forward; A (A u) over A
    dlogits = np.multiply(ws.softmax, u, out=ws.dlogits)
    dlogits -= np.multiply(ws.softmax, np.add.reduce(dlogits, axis=0, out=ws.stat),
                           out=ws.softmax)
    # dQ over Q and dK over K; BLAS takes the dK product 2-3x faster with Q
    # row-major than as q's view, so it reads a copy
    np.copyto(ws.q_rows, ws.q)
    np.matmul(dlogits.transpose(1, 2, 3, 0), ws.k, out=ws.q)
    np.matmul(dlogits.transpose(1, 2, 0, 3), ws.q_rows, out=ws.k)

    task = _beside(ws.helper, np.matmul, ws.qkv, ws.act[-1].reshape(d, b * w).T, out.wqkv)
    dact = np.matmul(params.wqkv.T, ws.qkv, out=ws.dact.reshape(d, b * w)).reshape(d, b, w)
    # z is the time mean of the conv map, so each step gets dL/dz / w
    dact += dz[:, :d].T[:, :, None] / w

    # convolution stack, last layer first
    for layer in reversed(range(cfg.cnn_layers)):
        kmat = params.conv_mats[layer]
        # the task beside reads dpre and refills or reads the columns: done
        # before the next layer's task or dpre. It was the last to write a
        # gradient of group layer + 1, whose col2im has read its kernel
        _join(task)
        if done is not None:
            done(layer + 1)
        # the ReLU mask: act = max(pre, 0) is positive exactly where pre
        # is. dpre goes over the map: the mask and the task joined above
        # were its last readers
        dpre = np.multiply(dact, ws.act[layer] > 0, out=ws.act[layer]).reshape(d, b * w)
        np.add.reduce(dpre, axis=1, out=out.conv_biases[layer])
        # layer 0's columns are the forward pass's; the deeper layers share
        # one buffer of columns, which holds the last layer's after the
        # forward and which the kernel gradient's task refills for the others
        refill = 0 < layer < cfg.cnn_layers - 1
        task = _beside(ws.helper, _kernel_grad, ws.act[layer - 1] if refill else None,
                       ws.cols if layer else ws.cols_in, dpre, out.conv_mats[layer])
        if layer > 0:
            # col2im: one GEMM into channel-major (k, c, B, w) taps, where
            # tap i at (c, b, t) came from h[c, b, t-i]. Each tap's steps
            # t < i belong to the padding and are zeroed, so it adds to tap
            # 0 as one contiguous run shifted by i
            dcols = np.matmul(kmat.T, dpre, out=ws.dcols.reshape(kmat.shape[1], b * w))
            dcols = dcols.reshape(ws.dcols.shape)
            dh = dcols[0].reshape(-1)
            for i in range(1, cfg.kernel_size):
                dcols[i, :, :, :i] = 0.0
                dh[:-i] += dcols[i].reshape(-1)[i:]
            dact = dcols[0]
    _join(task)
    if done is not None:
        done(0)
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
    # two tensors per conv layer and six more, counted first: a layout of
    # 10**400 declared layers grows until memory runs out
    if len(tensors) != 2 * cfg.cnn_layers + 6 or set(tensors) != set(param_layout(cfg)):
        raise BadCheckpoint("checkpoint tensors do not match the declared config")
    params = ModelParams(cfg, _zeros(cfg))
    for name, view in params.tensors().items():
        if tensors[name].shape != view.shape:
            raise BadCheckpoint(f"tensor {name} has shape {tensors[name].shape}, "
                                f"expected {view.shape}")
        view[...] = tensors[name]
    if not np.all(np.isfinite(params.flat)):
        raise BadCheckpoint("checkpoint tensors hold non-finite values")
    return params, scaler
