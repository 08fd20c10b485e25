"""Per-lag influence maps: Shapley attributions of the input window, mean
attention mass, their element-wise product, and Gaussian smoothing.

Coalition values treat absent lags as draws from a background set of
training windows: v(S) is the mean model output over composite windows that
take the explained window on S and a background window elsewhere.

The model function ``f`` that the Shapley estimators take maps coalition
masks to outputs: ``f(present, x, background)``, with ``present`` an (n, w)
bool array, is the (n, n_bg) model outputs of the composite windows
``where(present[i], x, background[j])``. Sampled mode draws all its
permutations first and evaluates every distinct prefix mask together, exact
mode the 2^w masks, in ``f`` calls of at most ``FILL_ROWS`` composite
windows each. :func:`explain` passes the model as such a function
(:class:`_CoalitionModel`). It runs the conv stack and the folded head
projection of :func:`fusecast.nn._folded_table` once per receptive-field
pattern instead of once per composite, and scores each composite with
:func:`fusecast.nn._folded_predict`, which forms only the prediction; both
agree with :func:`fusecast.nn._forward_batch` to rounding.

Within one :func:`explain` call the coalition model spreads each call's
background blocks over every CPU the process may use: the calling process
evaluates one contiguous group of blocks, and workers forked from it (the
``fork`` start method only, once per :func:`explain`) evaluate the others.
The outputs are bitwise the same for any CPU count.
"""

from __future__ import annotations

import itertools
import math
import os
import signal
from dataclasses import dataclass

import numpy as np

from .errors import (
    InvalidSpec,
    LengthMismatch,
    MalformedAttention,
    WindowTooLargeForExact,
    check_seed,
)
from . import blas, nn
from .nn import ModelParams, _forward_batch

EXACT_MAX_WINDOW = 12
ROW_SUM_TOL = 1e-6
RECENT_LAGS = 10
FILL_ROWS = 1 << 16  # composite windows evaluated per f call, at most
BLOCK_ROWS = 64      # windows per conv table and per attention block, about


@dataclass(frozen=True)
class ExplainConfig:
    background_size: int = 64
    shap_mode: str = "sampled"            # "exact" | "sampled"
    sample_permutations: int = 200
    smoothing_sigma: float = 2.0
    edge_drop: int | None = None          # default ceil(0.1 * w), applied per window
    seed: int = 0

    def __post_init__(self):
        if self.background_size < 1:
            raise InvalidSpec("background_size must be >= 1")
        if self.shap_mode not in ("exact", "sampled"):
            raise InvalidSpec(f"unknown shap_mode {self.shap_mode!r}")
        if self.sample_permutations < 1:
            raise InvalidSpec("sample_permutations must be >= 1")
        sigma = self.smoothing_sigma
        if not (math.isfinite(sigma) and sigma > 0):
            raise InvalidSpec(f"smoothing_sigma must be finite and > 0, got {sigma!r}")
        if self.edge_drop is not None:
            if type(self.edge_drop) is bool or not isinstance(self.edge_drop, (int, np.integer)):
                raise InvalidSpec(f"edge_drop must be an integer or null, got {self.edge_drop!r}")
            if self.edge_drop < 0:
                raise InvalidSpec("edge_drop must be >= 0")
        check_seed(self.seed)


@dataclass(frozen=True)
class ShapResult:
    """Signed per-lag attributions (model output units) and the background
    base value; base + sum(s) recovers the prediction. ``coalitions`` counts
    the distinct masks evaluated, each over the whole background; ``se`` is
    the per-lag standard error of ``s``."""

    s: np.ndarray
    base_value: float
    coalitions: int
    se: np.ndarray


@dataclass(frozen=True)
class InfluenceMap:
    """Everything the explainability pipeline produces for one window.

    Index 0 is the oldest lag (t-w), index w-1 the newest (t-1);
    ``reported_lags`` is the retained index range after dropping the
    ``edge_drop`` oldest lags; ``coalitions`` and ``se`` are as in
    :class:`ShapResult`; ``conv_windows`` counts the windows run through
    the conv stack to evaluate them, and ``workers`` the processes that
    evaluated them (1 when in-process).
    """

    s: np.ndarray
    a: np.ndarray
    c: np.ndarray
    c_smooth: np.ndarray
    reported_lags: range
    base_value: float
    prediction: float
    recency_concentration: float
    coalitions: int
    se: np.ndarray
    conv_windows: int
    workers: int


def mean_attention(attention: np.ndarray) -> np.ndarray:
    """Average the (heads, w, w) attention tensor over heads and query
    positions, leaving per-key-lag mass that sums to 1."""
    attention = np.asarray(attention, dtype=np.float64)
    if attention.ndim != 3 or attention.shape[1] != attention.shape[2]:
        raise MalformedAttention(f"expected (heads, w, w), got {attention.shape}")
    if np.any(attention < -ROW_SUM_TOL):
        raise MalformedAttention("negative attention weights")
    row_sums = attention.sum(axis=2)
    if np.any(np.abs(row_sums - 1.0) > ROW_SUM_TOL):
        raise MalformedAttention("attention rows must sum to 1")
    return attention.mean(axis=(0, 1))


_inherited = None  # a forked worker's copy of the parent's coalition model


def _adopt(model: _CoalitionModel) -> None:
    global _inherited
    _inherited = model
    # Ctrl-C reaches the whole process group: the parent alone reports it
    signal.signal(signal.SIGINT, signal.SIG_IGN)


def _evaluate_inherited(*task):
    return _inherited._evaluate(*task)


class _CoalitionModel:
    """The model as a coalition model function: ``model(present, x,
    background)`` is the (n, n_bg) outputs of the composite windows
    ``where(present[i], x, background[j])``.

    A composite's conv features at step t depend only on its mask bits
    t-R+1..t, R = L*(k-1)+1 being the receptive field, and on j; the rows
    of its table of :func:`fusecast.nn._folded_table` at t depend only on
    those features. So when 2^R is below the number of masks n and at most
    max(``FILL_ROWS // BLOCK_ROWS``, ``BLOCK_ROWS``) = 1024, the table is
    built for 2^R periodic representative masks x the background rows: rep
    c has lag i present iff bit (i mod R) of c is set, so every R-bit
    pattern appears exactly once at every step. Each composite gathers its
    (pattern, j, t) columns from the channel-major (rows, rep*j*t) table,
    the pattern index being one integer product ``present @ W.T``.
    Otherwise the masks are their own representatives and nothing is
    gathered. Only the scorer :func:`fusecast.nn._folded_predict` runs per
    composite. Only ``nn`` knows what the table's rows hold; they pass
    through here whole.

    Work runs in blocks over background rows and masks, so memory is set
    by the blocks, not by n: a table holds max(2^R, ``BLOCK_ROWS``) <= 1024
    windows, every other table or scorer call about ``BLOCK_ROWS``, a
    window being w columns of 1 + 2*h*d_k + h rows. Each table runs in a
    view of the model's one inference workspace, made on first use, kept
    for one :func:`explain` and replaced only by a larger one when a table
    outgrows it, so blocks reuse their buffers instead of faulting memory
    in; a forked worker writes its own copy.

    Inside a ``with`` block a call splits its background blocks into one
    contiguous group per CPU this process may use. The calling process
    evaluates the first group; workers forked on the first call with more
    than one group evaluate the others, and leave when the block exits.
    Workers inherit the model through the fork, so only masks, pattern
    indices, ``x`` and background rows travel to them. Every block runs the
    same code on the same shapes wherever it runs, so the outputs are
    bitwise independent of the CPU count. Outside a ``with`` block, on one
    CPU or without ``fork``, every group runs in-process. ``conv_windows``
    counts the windows run through the conv stack, and ``workers`` the most
    processes one call was split over.
    """

    def __init__(self, params: ModelParams):
        self.params = params
        cfg = params.config
        self.field = cfg.cnn_layers * (cfg.kernel_size - 1) + 1
        self.conv_windows = 0
        self.workers = 1
        self._cpus = 1
        self._pool = None
        self._workspace: nn.Workspace | None = None

    def __enter__(self) -> _CoalitionModel:
        if hasattr(os, "fork"):
            self._cpus = blas.cpus()
        return self

    def __exit__(self, *exc) -> None:
        if self._pool is not None:
            self._pool.shutdown(cancel_futures=True)
            self._pool = None
        self._cpus = 1

    def _table(self, windows: np.ndarray) -> np.ndarray:
        """:func:`fusecast.nn._folded_table` of ``windows``, in a view of this
        process's workspace, first replaced if it holds fewer windows."""
        if self._workspace is None or self._workspace.batch < len(windows):
            self._workspace = None      # freed before the larger one is made
            self._workspace = nn.Workspace(self.params.config, len(windows), training=False)
        return nn._folded_table(self.params, windows, self._workspace.view(len(windows)))

    def _evaluate(self, present: np.ndarray, pattern: np.ndarray | None, x: np.ndarray,
                  background: np.ndarray, bg_step: int) -> tuple[np.ndarray, int]:
        """(n, len(background)) outputs over blocks of ``bg_step`` background
        rows, periodic when ``pattern`` is given, and the windows run
        through the conv stack."""
        (n, w), field = present.shape, self.field
        lags = np.arange(w)
        if pattern is None:
            reps = present
        else:
            reps = ((np.arange(1 << field)[:, None] >> (lags % field)) & 1).astype(bool)
        out = np.empty((n, len(background)))
        conv_windows = 0
        for j0 in range(0, len(background), bg_step):
            bg = background[j0:j0 + bg_step]
            nb = len(bg)
            step = max(1, BLOCK_ROWS // nb)
            if pattern is not None:
                table = self._table(np.where(reps[:, None, :], x, bg).reshape(-1, w))
                table = table.reshape(len(table), -1)
                conv_windows += len(reps) * nb
                offsets = np.arange(nb)[:, None] * w + lags
            for i0 in range(0, n, step):
                if pattern is not None:
                    idx = pattern[i0:i0 + step, None, :] * (nb * w) + offsets
                    cols = np.take(table, idx, axis=1).reshape(len(table), -1, w)
                else:
                    composites = np.where(present[i0:i0 + step, None, :], x, bg)
                    cols = self._table(composites.reshape(-1, w))
                    conv_windows += len(composites) * nb
                yhat = nn._folded_predict(self.params, cols)
                out[i0:i0 + step, j0:j0 + nb] = yhat.reshape(-1, nb)
        return out, conv_windows

    def __call__(self, present: np.ndarray, x: np.ndarray,
                 background: np.ndarray) -> np.ndarray:
        (n, w), n_bg, field = present.shape, len(background), self.field
        periodic = (1 << field) < n and (1 << field) <= max(FILL_ROWS // BLOCK_ROWS, BLOCK_ROWS)
        pattern = None
        if periodic:
            lags = np.arange(w)
            # pattern[i, t]: the rep matching mask i over steps t-R+1..t
            window = (lags[None, :] <= lags[:, None]) & (lags[None, :] > lags[:, None] - field)
            pattern = present.astype(np.int64) @ np.where(window, 1 << (lags % field), 0).T
        bg_step = max(1, BLOCK_ROWS // (1 << field if periodic else n))
        blocks = math.ceil(n_bg / bg_step)
        groups = min(self._cpus, blocks)
        cuts = [g * blocks // groups * bg_step for g in range(groups)] + [n_bg]
        tasks = [(present, pattern, x, background[lo:hi], bg_step)
                 for lo, hi in zip(cuts, cuts[1:])]
        if groups > 1 and self._pool is None:
            # imported here: a command that never forks does not load them
            import multiprocessing
            from concurrent.futures import ProcessPoolExecutor
            self._pool = ProcessPoolExecutor(
                self._cpus - 1, mp_context=multiprocessing.get_context("fork"),
                initializer=_adopt, initargs=(self,))
        futures = [self._pool.submit(_evaluate_inherited, *task) for task in tasks[1:]]
        results = [self._evaluate(*tasks[0])] + [future.result() for future in futures]
        self.workers = max(self.workers, groups)
        self.conv_windows += sum(count for _, count in results)
        return np.concatenate([out for out, _ in results], axis=1)


def _coalition_values(f, x: np.ndarray, background: np.ndarray, masks) -> dict[int, float]:
    """Coalition values v(S) of every distinct subset bitmask in ``masks``,
    with one ``f`` call per chunk of masks covering at most ``FILL_ROWS``
    composite windows."""
    x = np.asarray(x, dtype=np.float64)
    background = np.asarray(background, dtype=np.float64)
    if background.ndim != 2 or background.shape[1] != x.shape[0]:
        raise LengthMismatch(f"background {background.shape} incompatible with window {x.shape}")
    if len(background) == 0:
        raise InvalidSpec("background set must be non-empty")
    masks = list(dict.fromkeys(masks))
    w, n_bg = x.shape[0], len(background)
    step = max(1, FILL_ROWS // n_bg)
    values: dict[int, float] = {}
    for lo in range(0, len(masks), step):
        chunk = masks[lo:lo + step]
        present = np.array([[(m >> i) & 1 for i in range(w)] for m in chunk], dtype=bool)
        out = np.asarray(f(present, x, background), dtype=np.float64)
        values.update(zip(chunk, out.reshape(len(chunk), n_bg).mean(axis=1).tolist()))
    return values


def shap_exact(f, x: np.ndarray, background: np.ndarray) -> ShapResult:
    """Classical Shapley values via the weighted coalition formula.

    Enumerates all 2^w coalitions, so the window must not exceed
    12 lags; additivity base + sum(s) = f(x) holds to rounding. The
    standard error is zero.
    """
    x = np.asarray(x, dtype=np.float64)
    w = x.shape[0]
    if w > EXACT_MAX_WINDOW:
        raise WindowTooLargeForExact(f"w={w} exceeds {EXACT_MAX_WINDOW}")
    v = _coalition_values(f, x, background, range(1 << w))
    fact = [math.factorial(n) for n in range(w + 1)]
    weights = [fact[size] * fact[w - size - 1] / fact[w] for size in range(w)]
    s = np.zeros(w)
    for mask in range(1 << w):
        size = bin(mask).count("1")
        for i in range(w):
            if mask & (1 << i):
                continue
            s[i] += weights[size] * (v[mask | (1 << i)] - v[mask])
    return ShapResult(s=s, base_value=v[0], coalitions=len(v), se=np.zeros(w))


def shap_sampled(f, x: np.ndarray, background: np.ndarray, m: int,
                 seed: int = 0) -> ShapResult:
    """Antithetic permutation-sampling estimate of the Shapley values.

    Every odd draw is the reverse of the previous order. All m orders are
    drawn first and their prefix coalitions evaluated together. The
    telescoping sum of marginals makes the estimator additive up to
    rounding; the residual f(x) - base - sum(s) is redistributed
    proportionally to |s_i| so the additivity identity is exact for both
    estimators. The standard error is that of the mean over the m // 2
    antithetic pairs (Castro et al. 2009), before the redistribution; it
    is NaN below two pairs.
    """
    x = np.asarray(x, dtype=np.float64)
    w = x.shape[0]
    if m < 1:
        raise InvalidSpec("need at least one permutation")
    rng = np.random.default_rng(seed)
    orders = []
    for j in range(m):
        orders.append(rng.permutation(w) if j % 2 == 0 else orders[-1][::-1])
    prefixes = [list(itertools.accumulate(1 << int(i) for i in order)) for order in orders]
    v = _coalition_values(f, x, background, [0, *itertools.chain.from_iterable(prefixes)])
    marginals = np.empty((m, w))
    for row, order, masks in zip(marginals, orders, prefixes):
        row[order] = np.diff([v[mask] for mask in masks], prepend=v[0])
    s = marginals.sum(axis=0) / m
    pairs = marginals[:m - m % 2].reshape(m // 2, 2, w).mean(axis=1)
    se = pairs.std(axis=0, ddof=1) / math.sqrt(m // 2) if m >= 4 else np.full(w, np.nan)
    base = v[0]
    residual = v[(1 << w) - 1] - base - s.sum()
    weight = np.abs(s)
    if weight.sum() > 0:
        s = s + residual * weight / weight.sum()
    else:
        s = s + residual / w
    return ShapResult(s=s, base_value=base, coalitions=len(v), se=se)


def combine(s: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Element-wise product of attributions and attention mass."""
    s = np.asarray(s, dtype=np.float64)
    a = np.asarray(a, dtype=np.float64)
    if s.shape != a.shape:
        raise LengthMismatch(f"shapes differ: {s.shape} vs {a.shape}")
    return s * a


def gaussian_smooth(c: np.ndarray, sigma: float) -> np.ndarray:
    """1-D Gaussian filter: kernel truncated at radius ceil(4*sigma),
    normalized to sum 1, with reflect boundaries (edge not repeated)."""
    if not (math.isfinite(sigma) and sigma > 0):
        raise InvalidSpec(f"sigma must be finite and > 0, got {sigma!r}")
    c = np.asarray(c, dtype=np.float64)
    n = c.shape[0]
    if n == 1:
        return c.copy()
    radius = math.ceil(4.0 * sigma)
    offsets = np.arange(-radius, radius + 1)
    kernel = np.exp(-0.5 * (offsets / sigma) ** 2)
    kernel /= kernel.sum()
    # reflect indexing with period 2n-2 handles radii beyond the window
    idx = np.abs(np.arange(n)[:, None] - offsets[None, :])
    idx = np.mod(idx, 2 * n - 2)
    idx = np.where(idx >= n, 2 * n - 2 - idx, idx)
    return (c[idx] * kernel).sum(axis=1)


def sample_background(train_windows: np.ndarray, size: int, seed: int = 0) -> np.ndarray:
    """Uniformly sample background windows from the training set (all of
    them when fewer than requested)."""
    train_windows = np.asarray(train_windows, dtype=np.float64)
    if len(train_windows) <= size:
        return train_windows.copy()
    rng = np.random.default_rng(seed)
    idx = rng.choice(len(train_windows), size=size, replace=False)
    return train_windows[np.sort(idx)]


@blas.one_thread()
def explain(params: ModelParams, x: np.ndarray, background: np.ndarray,
            config: ExplainConfig) -> InfluenceMap:
    """Full pipeline for one scaled window: forward pass for the attention
    tensor, mean attention, Shapley attributions against the background
    (coalitions evaluated by :class:`_CoalitionModel`), element-wise
    combination, and Gaussian smoothing.

    ``recency_concentration`` is the share of total |s| carried by the 10
    most recent lags.
    """
    x = np.asarray(x, dtype=np.float64)
    w = params.config.w
    edge_drop = config.edge_drop if config.edge_drop is not None else math.ceil(0.1 * w)
    if edge_drop >= w:
        raise InvalidSpec(f"edge_drop {edge_drop} must be < window size {w}")
    yhat, ws = _forward_batch(params, x[None],
                              workspace=nn.Workspace(params.config, 1, training=False))
    prediction = float(yhat[0])
    a = mean_attention(ws.att[0])

    with _CoalitionModel(params) as model:
        if config.shap_mode == "exact":
            shap = shap_exact(model, x, background)
        else:
            shap = shap_sampled(model, x, background, config.sample_permutations,
                                seed=config.seed)

    c = combine(shap.s, a)
    c_smooth = gaussian_smooth(c, config.smoothing_sigma)

    total = np.abs(shap.s).sum()
    recent = np.abs(shap.s[-RECENT_LAGS:]).sum()
    concentration = float(recent / total) if total > 0 else 0.0

    return InfluenceMap(
        s=shap.s, a=a, c=c, c_smooth=c_smooth,
        reported_lags=range(edge_drop, w),
        base_value=shap.base_value,
        prediction=prediction,
        recency_concentration=concentration,
        coalitions=shap.coalitions,
        se=shap.se,
        conv_windows=model.conv_windows,
        workers=model.workers,
    )
