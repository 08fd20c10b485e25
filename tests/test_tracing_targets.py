"""The benchmark's span recorder swaps module-level fusecast functions by
name. A refactor that renames one of them would silently drop that layer
from the traced figures, so every traced name must resolve here."""

import importlib.util
import sys
from pathlib import Path

import numpy as np

import fusecast.cli  # noqa: F401 - imports every traced module
from fusecast import nn

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


def test_every_traced_name_is_callable(monkeypatch):
    spec = importlib.util.spec_from_file_location("_benchmark_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up while the file executes
    monkeypatch.setitem(sys.modules, spec.name, tracing)
    spec.loader.exec_module(tracing)
    missing = [f"{mod}.{attr}" for mod, attr, *_ in tracing.TARGETS
               if not callable(getattr(sys.modules.get(mod), attr, None))]
    assert tracing.TARGETS and missing == []


def test_forward_reaches_attention_once_through_module_global(monkeypatch):
    # the traced nn.attention span wraps this name, so it must cover the
    # whole attention block of a forward call
    calls = []
    attention = nn._mha_batch

    def counted(*args):
        calls.append(args[0].shape)
        return attention(*args)

    monkeypatch.setattr(nn, "_mha_batch", counted)
    params = nn.init_params(nn.ModelConfig(w=8, filters=4, heads=2))
    nn._forward_batch(params, np.zeros((3, 8)))
    assert len(calls) == 1
