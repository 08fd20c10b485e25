"""Tests of the benchmark's own code (not collected by the repository's
default pytest run):

    python3 -m pytest -q benchmarks/selftest.py
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import fusecast  # noqa: E402
import fusecast.cli  # noqa: E402,F401 - the runner imports every layer
import layers  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from tracing import Span  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def test_self_times_subtract_the_union_of_children():
    spans = [
        Span("cli.main", 0.0, 10.0, -1),
        Span("train.train", 1.0, 6.0, 0),
        Span("nn.forward", 1.5, 2.5, 1),
        Span("nn.attention", 2.0, 2.25, 2),
        Span("nn.backward", 3.0, 5.0, 1),
        Span("nn.checkpoint_save", 7.0, 8.0, 0),
        Span("series.synthesize", 11.0, 12.0, -1),
    ]
    assert tracing.self_times(spans) == pytest.approx([4.0, 2.0, 0.75, 0.25, 2.0, 1.0, 1.0])


def test_overlapping_children_are_counted_once():
    spans = [Span("a.x", 0.0, 4.0, -1), Span("b.y", 1.0, 3.0, 0), Span("b.z", 2.0, 5.0, 0)]
    assert tracing.self_times(spans)[0] == pytest.approx(1.0)


def test_layer_self_times_and_remainder_add_up_to_wall():
    spans = [
        Span("cli.main", 0.0, 10.0, -1),
        Span("train.train", 1.0, 6.0, 0),
        Span("nn.forward", 1.5, 2.5, 1),
        Span("bench.check", 10.0, 11.0, -1),
        Span("nn.checkpoint_load", 10.2, 10.7, 3),
    ]
    totals = layers.layer_totals(spans, wall=12.0)
    assert totals["layer_self_s"] == pytest.approx({"cli": 5.0, "train": 4.0, "nn": 1.0, "bench": 1.0})
    assert totals["remainder_s"] == pytest.approx(1.0)
    assert totals["sum_s"] == pytest.approx(12.0)


def test_metric_names_and_units_match_the_benchmark_file():
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in doc["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in doc["per_layer"]}
    assert e2e == run.END_TO_END_UNITS
    assert per_layer == layers.UNITS
    names = [w["name"] for w in doc["workloads"]] + list(e2e) + list(per_layer)
    for name in names:
        assert NAME.fullmatch(name), name
    assert len(names) == len(set(names))


def test_computed_mflop_match_the_quoted_per_step_numbers():
    default = fusecast.ModelConfig(w=15)
    widecell = fusecast.ModelConfig(w=15, cnn_layers=12, filters=256, kernel_size=5, heads=5)
    assert tracing.conv_fwd_flops(default, 32) / 1e6 == pytest.approx(0.78, abs=0.005)
    assert tracing.attn_fwd_flops(default, 32) / 1e6 == pytest.approx(1.44, abs=0.005)
    assert tracing.conv_fwd_flops(widecell, 32) / 1e6 == pytest.approx(3462, abs=1)
    assert tracing.attn_fwd_flops(widecell, 32) / 1e6 == pytest.approx(258, abs=1)


def _attribute_ids():
    mods = {name: mod for name, mod in sys.modules.items()
            if name == "fusecast" or name.startswith("fusecast.")}
    return {(name, attr): id(value) for name, mod in mods.items()
            for attr, value in vars(mod).items()}


def test_traced_calls_are_recorded_and_attributes_restored(monkeypatch):
    nn_mod, train_mod = sys.modules["fusecast.nn"], sys.modules["fusecast.train"]
    before = _attribute_ids()
    params = nn_mod.init_params(nn_mod.ModelConfig(w=6, filters=4, kernel_size=2))
    rec, missing = tracing.Recorder(), []
    # a name that no longer exists is reported, not fatal
    monkeypatch.setattr(tracing, "TARGETS", tracing.TARGETS + (
        ("fusecast.nn", "no_such_function", "nn.gone", None),))
    with tracing.instrument(rec, missing):
        assert fusecast.train is not train_mod
        train_mod.predict_batch(params, np.zeros((3, 6)))
    assert missing == ["fusecast.nn.no_such_function"]
    assert [s.name for s in rec.spans] == ["nn.forward", "nn.attention"]
    assert rec.spans[0].attrs["rows"] == 3 and rec.spans[1].parent == 0
    assert _attribute_ids() == before
