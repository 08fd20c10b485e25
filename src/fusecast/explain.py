"""Per-lag influence maps: Shapley attributions of the input window, mean
attention mass, their element-wise product, and Gaussian smoothing.

Coalition values treat absent lags as draws from a background set of
training windows: v(S) is the mean model output over composite windows that
take the explained window on S and a background window elsewhere.

The model function ``f`` that the Shapley estimators take is batched: it
maps an (n, w) array of windows to (n,) outputs. Coalitions are evaluated
together, every new prefix of a sampled permutation (or a chunk of the 2^w
masks in exact mode) in one ``f`` call over all their composite windows;
:func:`explain` runs those windows through the model in blocks of
``PREDICT_BLOCK`` (32) rows.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    InvalidSpec,
    LengthMismatch,
    MalformedAttention,
    WindowTooLargeForExact,
)
from . import nn
from .nn import ModelParams, _forward_batch
from .train import PREDICT_BLOCK

EXACT_MAX_WINDOW = 12
ROW_SUM_TOL = 1e-6
RECENT_LAGS = 10
FILL_ROWS = 1 << 16  # composite windows built per f call, at most


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
        if self.smoothing_sigma <= 0:
            raise InvalidSpec("smoothing_sigma must be > 0")
        if self.edge_drop is not None and self.edge_drop < 0:
            raise InvalidSpec("edge_drop must be >= 0")


@dataclass(frozen=True)
class ShapResult:
    """Signed per-lag attributions (model output units) and the background
    base value; base + sum(s) recovers the prediction. ``coalitions`` counts
    the distinct masks evaluated, each over the whole background."""

    s: np.ndarray
    base_value: float
    coalitions: int


@dataclass(frozen=True)
class InfluenceMap:
    """Everything the explainability pipeline produces for one window.

    Index 0 is the oldest lag (t-w), index w-1 the newest (t-1);
    ``reported_lags`` is the retained index range after dropping the
    ``edge_drop`` oldest lags; ``coalitions`` is as in :class:`ShapResult`.
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


class _CoalitionValues:
    """Cached coalition values v(S) keyed by the subset bitmask."""

    def __init__(self, f, x: np.ndarray, background: np.ndarray):
        self.f = f
        self.x = np.asarray(x, dtype=np.float64)
        self.background = np.asarray(background, dtype=np.float64)
        if self.background.ndim != 2 or self.background.shape[1] != self.x.shape[0]:
            raise LengthMismatch(
                f"background {self.background.shape} incompatible with window {self.x.shape}"
            )
        if len(self.background) == 0:
            raise InvalidSpec("background set must be non-empty")
        self._cache: dict[int, float] = {}

    def fill(self, masks) -> None:
        """Evaluate every mask not yet cached, with one ``f`` call per chunk
        of at most ``FILL_ROWS`` composite windows (n_masks, n_bg, w)."""
        new = [m for m in masks if m not in self._cache]
        w, n_bg = self.x.shape[0], len(self.background)
        step = max(1, FILL_ROWS // n_bg)
        for lo in range(0, len(new), step):
            chunk = new[lo:lo + step]
            present = np.array([[(m >> i) & 1 for i in range(w)] for m in chunk], dtype=bool)
            composites = np.where(present[:, None, :], self.x, self.background)
            values = np.asarray(self.f(composites.reshape(-1, w)), dtype=np.float64)
            self._cache.update(zip(chunk, values.reshape(len(chunk), n_bg).mean(axis=1).tolist()))

    def __call__(self, mask: int) -> float:
        if mask not in self._cache:
            self.fill((mask,))
        return self._cache[mask]

    def __len__(self) -> int:
        return len(self._cache)


def shap_exact(f, x: np.ndarray, background: np.ndarray) -> ShapResult:
    """Classical Shapley values via the weighted coalition formula.

    Enumerates all 2^w coalitions, so the window must not exceed
    12 lags; additivity base + sum(s) = f(x) holds to rounding.
    """
    x = np.asarray(x, dtype=np.float64)
    w = x.shape[0]
    if w > EXACT_MAX_WINDOW:
        raise WindowTooLargeForExact(f"w={w} exceeds {EXACT_MAX_WINDOW}")
    v = _CoalitionValues(f, x, background)
    v.fill(range(1 << w))
    fact = [math.factorial(n) for n in range(w + 1)]
    weights = [fact[size] * fact[w - size - 1] / fact[w] for size in range(w)]
    s = np.zeros(w)
    for mask in range(1 << w):
        size = bin(mask).count("1")
        for i in range(w):
            if mask & (1 << i):
                continue
            s[i] += weights[size] * (v(mask | (1 << i)) - v(mask))
    return ShapResult(s=s, base_value=v(0), coalitions=len(v))


def shap_sampled(f, x: np.ndarray, background: np.ndarray, m: int,
                 seed: int = 0) -> ShapResult:
    """Antithetic permutation-sampling estimate of the Shapley values.

    Every odd draw is the reverse of the previous order. The telescoping sum
    of marginals makes the estimator additive up to rounding; the residual
    f(x) - base - sum(s) is redistributed proportionally to |s_i| so the
    additivity identity is exact for both estimators.
    """
    x = np.asarray(x, dtype=np.float64)
    w = x.shape[0]
    if m < 1:
        raise InvalidSpec("need at least one permutation")
    v = _CoalitionValues(f, x, background)
    rng = np.random.default_rng(seed)
    contrib = np.zeros(w)
    order = None
    for j in range(m):
        order = rng.permutation(w) if j % 2 == 0 else order[::-1]
        prefixes = list(itertools.accumulate(1 << int(i) for i in order))
        v.fill([0, *prefixes])
        v_prev = v(0)
        for i, mask in zip(order, prefixes):
            v_next = v(mask)
            contrib[int(i)] += v_next - v_prev
            v_prev = v_next
    s = contrib / m
    base = v(0)
    residual = v((1 << w) - 1) - base - s.sum()
    weight = np.abs(s)
    if weight.sum() > 0:
        s = s + residual * weight / weight.sum()
    else:
        s = s + residual / w
    return ShapResult(s=s, base_value=base, coalitions=len(v))


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
    if sigma <= 0:
        raise InvalidSpec("sigma must be > 0")
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


def explain(params: ModelParams, x: np.ndarray, background: np.ndarray,
            config: ExplainConfig) -> InfluenceMap:
    """Full pipeline for one scaled window: forward pass for the attention
    tensor, mean attention, Shapley attributions against the background,
    element-wise combination, and Gaussian smoothing.

    ``recency_concentration`` is the share of total |s| carried by the 10
    most recent lags.
    """
    x = np.asarray(x, dtype=np.float64)
    w = params.config.w
    # called on the nn module, so this module's `_forward_batch` name runs
    # coalition composites only
    yhat, cache = nn._forward_batch(params, x[None])
    prediction = float(yhat[0])
    a = mean_attention(cache["att"][0])

    def f(windows: np.ndarray) -> np.ndarray:
        return np.concatenate([_forward_batch(params, windows[i:i + PREDICT_BLOCK])[0]
                               for i in range(0, len(windows), PREDICT_BLOCK)])

    if config.shap_mode == "exact":
        shap = shap_exact(f, x, background)
    else:
        shap = shap_sampled(f, x, background, config.sample_permutations, seed=config.seed)

    c = combine(shap.s, a)
    c_smooth = gaussian_smooth(c, config.smoothing_sigma)

    edge_drop = config.edge_drop if config.edge_drop is not None else math.ceil(0.1 * w)
    if edge_drop >= w:
        raise InvalidSpec(f"edge_drop {edge_drop} must be < window size {w}")
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
    )
