"""Span recording for the traced benchmark run.

Spans are recorded from the benchmark's side of each layer boundary: the
module-level names that one fusecast layer looks up in another when it is
called are swapped for timing wrappers for the duration of the traced pass,
and restored afterwards. Nothing under ``src/`` knows it is being traced.

A span is (name, start, end, parent). A span's self time is its duration
minus the part of that interval covered by its child spans; the layer of a
span is the part of its name before the first dot.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import sys
import time
from dataclasses import dataclass
from pathlib import Path


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int                      # index into the span list, -1 for a root
    attrs: dict | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """In-memory list of nested spans; written out only when the run ends."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        s = Span(name, time.perf_counter(), float("nan"), parent)
        self._stack.append(len(self.spans))
        self.spans.append(s)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._stack.pop()


class NullRecorder:
    """Stands in for a Recorder when tracing is off."""

    @contextlib.contextmanager
    def span(self, name: str):
        yield None


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the union of its children's intervals
    (clipped to the parent)."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent >= 0:
            p = spans[s.parent]
            children.setdefault(s.parent, []).append(
                (max(s.start, p.start), min(s.end, p.end)))
    out = []
    for i, s in enumerate(spans):
        covered, cur_lo, cur_hi = 0.0, None, None
        for lo, hi in sorted(children.get(i, [])):
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append(s.duration - covered)
    return out


# -- computed operation counts ------------------------------------------------

def conv_fwd_flops(cfg, rows: int) -> float:
    """Multiply-adds x 2 of the causal-conv stack over ``rows`` windows."""
    per_row = 0
    c_in = 1
    for _ in range(cfg.cnn_layers):
        per_row += cfg.w * cfg.filters * c_in * cfg.kernel_size
        c_in = cfg.filters
    return 2.0 * rows * per_row


def attn_fwd_flops(cfg, rows: int) -> float:
    """Multiply-adds x 2 of Q/K/V projections, logits, A.V and the output
    projection over ``rows`` windows."""
    w, d, hdk, h, dk = cfg.w, cfg.filters, cfg.heads * cfg.head_dim, cfg.heads, cfg.head_dim
    per_row = 3 * w * d * hdk + 2 * h * w * w * dk + w * hdk * cfg.d_attn
    return 2.0 * rows * per_row


# -- wrappers -----------------------------------------------------------------

def _forward_attrs(args, result):
    return {"rows": len(args[1]), "cfg": args[0].config}


def _coalition_attrs(args, result):
    # explain's own model calls evaluate coalition composites
    return {**_forward_attrs(args, result), "coalition": True}


def _save_attrs(args, result):
    p = Path(args[0])
    return {"bytes": p.stat().st_size if p.is_file() else 0}


# (module, attribute, span name, attrs-from-call). Each entry is a name that
# a caller resolves at call time, so replacing it on the module reaches the
# call sites inside fusecast.
TARGETS = (
    *(("fusecast.series", n, f"series.{n}", None) for n in (
        "synthesize", "load_csv", "split", "fit_scaler", "apply_scaler",
        "make_windows", "scale_values", "unscale_values")),
    ("fusecast.nn", "_forward_batch", "nn.forward", _forward_attrs),
    ("fusecast.train", "_forward_batch", "nn.forward", _forward_attrs),
    ("fusecast.explain", "_forward_batch", "nn.forward", _coalition_attrs),
    ("fusecast.nn", "_mha_batch", "nn.attention", None),
    ("fusecast.nn", "_backward_batch", "nn.backward", None),
    ("fusecast.train", "_backward_batch", "nn.backward", None),
    ("fusecast.nn", "save_checkpoint", "nn.checkpoint_save", _save_attrs),
    ("fusecast.nn", "load_checkpoint", "nn.checkpoint_load", None),
    ("fusecast.train", "adam_step", "train.adam", None),
    ("fusecast.train", "train", "train.train", None),
    ("fusecast.cli", "train_model", "train.train", None),
    ("fusecast.cli", "forecast_recursive", "train.forecast", None),
    ("fusecast.bayesopt", "tune", "bayesopt.tune", None),
    ("fusecast.bayesopt", "gp_fit", "bayesopt.gp_fit", None),
    ("fusecast.bayesopt", "propose", "bayesopt.propose", None),
    ("fusecast.explain", "explain", "explain.explain", None),
    ("fusecast.cli", "explain_window", "explain.explain", None),
    ("fusecast.cli", "main", "cli.main", None),
)


def _wrap(rec: Recorder, fn, name: str, attrs_fn):
    spans, stack, clock = rec.spans, rec._stack, time.perf_counter

    # Recorder.span inlined: explain makes ~10^5 model calls per window
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        s = Span(name, 0.0, 0.0, stack[-1] if stack else -1)
        stack.append(len(spans))
        spans.append(s)
        s.start = clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            s.end = clock()
            stack.pop()
        if attrs_fn is not None:
            s.attrs = attrs_fn(args, result)
        return result
    return wrapper


@contextlib.contextmanager
def instrument(rec: Recorder, missing: list):
    """Swap every TARGETS name for a timing wrapper; restore on exit.

    Modules are taken from ``sys.modules`` because the package attributes
    ``fusecast.train`` and ``fusecast.explain`` are the re-exported functions,
    not the modules. A name that no longer exists is appended to ``missing``
    and skipped. The cyclic garbage collector is paused meanwhile: with
    10^5 live spans each full collection would lengthen the traced calls.
    """
    saved = []
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for mod_name, attr, span_name, attrs_fn in TARGETS:
            mod = sys.modules.get(mod_name)
            if mod is None or not callable(getattr(mod, attr, None)):
                missing.append(f"{mod_name}.{attr}")
                continue
            original = getattr(mod, attr)
            saved.append((mod, attr, original))
            setattr(mod, attr, _wrap(rec, original, span_name, attrs_fn))
        yield rec
    finally:
        for mod, attr, original in reversed(saved):
            setattr(mod, attr, original)
        if gc_was_enabled:
            gc.enable()
