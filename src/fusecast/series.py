"""Univariate daily time series: CSV ingestion, synthesis, scaling,
chronological splitting, and supervised windowing.

:func:`prepare`, the one data-preparation path, runs split, train-only
scaler fit and windowing for every caller that trains, validates or explains.

All functions are pure; :class:`TimeSeries` arrays are frozen after
construction and safe to share between threads.
"""

from __future__ import annotations

import csv
import datetime as dt
import io
import math
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import blas
from .errors import (
    InvalidFraction,
    InvalidSpec,
    MissingFile,
    NonFiniteValue,
    NonMonotoneTimestamps,
    ParseError,
    WindowTooLarge,
    ZeroVariance,
    allocated,
    check_seed,
)

SYNTH_START_DATE = np.datetime64("2000-01-01")

CSV_HEADER = ("timestamp", "value")


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class TimeSeries:
    """Ordered (date, value) pairs at daily resolution.

    timestamps are strictly increasing ``datetime64[D]``; values are finite
    float64; length is at least 2.
    """

    timestamps: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        ts = _frozen(np.asarray(self.timestamps, dtype="datetime64[D]"))
        vals = _frozen(np.asarray(self.values, dtype=np.float64))
        object.__setattr__(self, "timestamps", ts)
        object.__setattr__(self, "values", vals)
        if ts.shape != vals.shape or ts.ndim != 1:
            raise InvalidSpec("timestamps and values must be 1-D of equal length")
        if len(vals) < 2:
            raise InvalidSpec("series needs at least 2 points")
        if not np.all(np.isfinite(vals)):
            bad = int(np.flatnonzero(~np.isfinite(vals))[0])
            raise NonFiniteValue(bad + 1)
        if not np.all(ts[1:] > ts[:-1]):
            bad = int(np.flatnonzero(~(ts[1:] > ts[:-1]))[0])
            raise NonMonotoneTimestamps(bad + 2)

    def __len__(self) -> int:
        return len(self.values)


def _finite(value) -> bool:
    """Whether a number is finite as a float: an integer beyond float64 is not."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


@dataclass(frozen=True)
class ScalerParams:
    """Z-score parameters fitted on the training segment (population std)."""

    mean: float
    std: float

    def __post_init__(self):
        if not _finite(self.mean):
            raise ZeroVariance(f"scaler mean must be finite, got {self.mean!r}")
        if not (_finite(self.std) and self.std > 0):
            raise ZeroVariance(f"scaler std must be finite and > 0, got {self.std!r}")


@dataclass(frozen=True)
class WindowedDataset:
    """Supervised (window, next value) pairs.

    ``inputs[i]`` covers series indices ``[i, i+w)`` and ``targets[i]`` is the
    value at index ``i+w``; N = series length − w.
    """

    inputs: np.ndarray
    targets: np.ndarray
    w: int

    def __post_init__(self):
        object.__setattr__(self, "inputs", _frozen(np.asarray(self.inputs, dtype=np.float64)))
        object.__setattr__(self, "targets", _frozen(np.asarray(self.targets, dtype=np.float64)))
        if self.inputs.ndim != 2 or self.inputs.shape[1] != self.w:
            raise InvalidSpec("inputs must be (N, w)")
        if self.targets.shape != (self.inputs.shape[0],):
            raise InvalidSpec("targets must be (N,)")

    def __len__(self) -> int:
        return len(self.targets)


@dataclass(frozen=True)
class SynthSpec:
    """Recipe for a seasonal synthetic series: sinusoid + linear trend +
    AR(1) noise. Stands in for a daily seasonal flow record."""

    length: int
    period: int = 365
    amplitude: float = 1.0
    trend_slope: float = 0.0
    noise_std: float = 0.0
    ar_coeff: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.period < 1 or self.length < 2 * self.period:
            raise InvalidSpec("length must be >= 2*period with period >= 1")
        if self.noise_std < 0:
            raise InvalidSpec("noise_std must be >= 0")
        if not 0.0 <= self.ar_coeff < 1.0:
            raise InvalidSpec("ar_coeff must be in [0, 1)")
        if not all(map(_finite, (self.amplitude, self.trend_slope, self.noise_std))):
            raise InvalidSpec("amplitude, trend_slope, noise_std must be finite")
        check_seed(self.seed)


def load_csv(path) -> TimeSeries:
    """Read a `timestamp,value` CSV (ISO-8601 dates, one row per day)."""
    p = Path(path)
    if not p.is_file():
        raise MissingFile(str(p))
    dates: list[dt.date] = []
    values: list[float] = []
    raw = p.read_bytes()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(raw.count(b"\n", 0, exc.start) + 1, "not UTF-8 text") from None
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        header, *rows = reader
    except ValueError:
        raise ParseError(1, "empty file") from None
    except csv.Error as exc:    # a field past csv.field_size_limit(), or NUL before 3.11
        raise ParseError(reader.line_num, str(exc)) from None
    if [c.strip() for c in header] != list(CSV_HEADER):
        raise ParseError(1, f"expected header {','.join(CSV_HEADER)}")
    for lineno, row in enumerate(rows, start=2):
        if len(row) != 2:
            raise ParseError(lineno, f"expected 2 fields, got {len(row)}")
        try:
            date = dt.date.fromisoformat(row[0].strip())
        except ValueError:
            raise ParseError(lineno, f"bad date {row[0]!r}") from None
        try:
            value = float(row[1])
        except ValueError:
            raise ParseError(lineno, f"bad value {row[1]!r}") from None
        if not np.isfinite(value):
            raise NonFiniteValue(lineno)
        if dates and date <= dates[-1]:
            raise NonMonotoneTimestamps(lineno)
        dates.append(date)
        values.append(value)
    if len(values) < 2:
        raise ParseError(len(values) + 1, "need at least 2 data rows")
    ts = np.array([np.datetime64(d, "D") for d in dates])
    return TimeSeries(ts, np.array(values))


def save_csv(ts: TimeSeries, path) -> None:
    """Write a series using the same `timestamp,value` schema."""
    p = Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    with p.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for t, v in zip(ts.timestamps, ts.values):
            writer.writerow([str(t), repr(float(v))])


def synthesize(spec: SynthSpec) -> TimeSeries:
    """Generate `amplitude*sin(2*pi*t/period) + trend_slope*t + AR(1) noise`.

    The AR(1) noise obeys e[t] = ar_coeff*e[t-1] + eta[t] with eta drawn
    i.i.d. N(0, noise_std^2) and e[-1] = 0. Bit-deterministic for a fixed
    seed.
    """
    t = allocated(f"series of {spec.length} points", np.arange, spec.length, dtype=np.float64)
    rng = np.random.default_rng(spec.seed)
    innovations = rng.normal(0.0, spec.noise_std, size=spec.length)
    values = (spec.amplitude * np.sin(2.0 * np.pi * t / spec.period) + spec.trend_slope * t
              + _ar1(innovations, spec.ar_coeff))
    timestamps = SYNTH_START_DATE + np.arange(spec.length)
    return TimeSeries(timestamps, values)


def _ar1(eta: np.ndarray, a: float) -> np.ndarray:
    """The AR(1) recursion e[t] = a*e[t-1] + eta[t] from e[-1] = 0: the bits of
    scipy.signal.lfilter.

    It is a bidiagonal system handed to LAPACK's dgttrs already factored, L = I and
    U = I with -a above the diagonal, no row swaps, and solved transposed: U^T's
    forward pass gives e[t] = (eta[t] - (-a)*e[t-1] - 0*e[t-2]) / 1. Without the
    routine in numpy's OpenBLAS, a Python loop computes the same bits, about 4x
    slower."""
    dgttrs = blas._openblas("dgttrs")
    e = np.array(eta, dtype=np.float64)    # contiguous, and solved in place
    if dgttrs is None:
        out, prev = [], 0.0
        for v in e.tolist():
            prev = v + a * prev
            out.append(prev)
        return np.array(out)
    # one float buffer holds the bands: zeros (dl and du2), ones (d) and -a (du); one
    # int buffer n, nrhs, ldb, info and the pivots 1..n. Raw addresses keep the call lean
    n = len(e)
    bands, ints = np.repeat([0.0, 1.0, -a], n), np.arange(-3, n + 1, dtype=np.int64)
    ints[:4] = n, 1, n, 0
    f, i, b = (x.__array_interface__["data"][0] for x in (bands, ints, e))
    dgttrs(b"T", i, i + 8, f, f + 8 * n, f + 16 * n, f, i + 32, b, i + 16, i + 24, 1)
    return e


def split(ts: TimeSeries, train_frac: float) -> tuple[TimeSeries, TimeSeries]:
    """Chronological split at floor(train_frac * N); no shuffling."""
    if not 0.0 < train_frac < 1.0:
        raise InvalidFraction(f"train_frac must lie in (0, 1), got {train_frac}")
    n = len(ts)
    n_train = int(np.floor(train_frac * n))
    if n_train < 2 or n - n_train < 2:
        raise InvalidFraction(f"split {n_train}/{n - n_train} leaves a side shorter than 2")
    train = TimeSeries(ts.timestamps[:n_train], ts.values[:n_train])
    test = TimeSeries(ts.timestamps[n_train:], ts.values[n_train:])
    return train, test


def fit_scaler(train: TimeSeries) -> ScalerParams:
    """Fit z-score parameters on the training segment only."""
    mean = float(np.mean(train.values))
    std = float(np.std(train.values))  # population convention
    if std == 0.0:
        raise ZeroVariance("training segment has zero variance")
    return ScalerParams(mean, std)


def scale_values(values: np.ndarray, sp: ScalerParams) -> np.ndarray:
    return (np.asarray(values, dtype=np.float64) - sp.mean) / sp.std


def unscale_values(values: np.ndarray, sp: ScalerParams) -> np.ndarray:
    return np.asarray(values, dtype=np.float64) * sp.std + sp.mean


def apply_scaler(ts: TimeSeries, sp: ScalerParams) -> TimeSeries:
    return TimeSeries(ts.timestamps, scale_values(ts.values, sp))


def make_windows(ts: TimeSeries, w: int) -> WindowedDataset:
    """Slice the series into N = len − w contiguous windows with next-step
    targets."""
    n = len(ts)
    if not 1 <= w < n:
        raise WindowTooLarge(f"window size {w} out of range for series of length {n}")
    n_windows = n - w
    step = ts.values.strides[0]    # TimeSeries values are contiguous
    inputs = np.ndarray((n_windows, w), np.float64, ts.values, strides=(step, step)).copy()
    targets = ts.values[w:].copy()
    return WindowedDataset(inputs, targets, w)


class Prepared(NamedTuple):
    """A series split, scaled and windowed by :func:`prepare`."""

    train_len: int             # values in the training segment
    scaler: ScalerParams       # fitted on the training segment, or given
    train: WindowedDataset     # windows whose target lies in the training segment
    held: WindowedDataset      # the rest; their inputs may span the boundary


def prepare(ts: TimeSeries, train_frac: float, w: int,
            scaler: ScalerParams | None = None) -> Prepared:
    """Split ``ts`` chronologically at ``train_frac``, fit the scaler on the
    training segment (unless ``scaler`` is given), scale the whole series
    and cut it into ``w``-lag windows, divided at the training boundary so
    no held-out target is ever trained on."""
    train_ts, _ = split(ts, train_frac)
    if scaler is None:
        scaler = fit_scaler(train_ts)
    windows = make_windows(apply_scaler(ts, scaler), w)
    first_held = len(train_ts) - w
    if first_held <= 0:
        raise WindowTooLarge(f"window {w} does not fit in a training segment of {len(train_ts)}")
    return Prepared(
        len(train_ts), scaler,
        WindowedDataset(windows.inputs[:first_held], windows.targets[:first_held], w),
        WindowedDataset(windows.inputs[first_held:], windows.targets[first_held:], w))
