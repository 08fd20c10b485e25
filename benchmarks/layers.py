"""Per-layer figures of a traced pass, computed from its spans.

Times (``*_s``) and counts (``*_calls``, ``*_rows``) are per operation of the
workload. Spans under a ``bench.check`` span belong to the benchmark's own
output checks and are left out of every layer figure.
"""

from __future__ import annotations

import json
from collections import defaultdict

from tracing import Span, attn_fwd_flops, conv_fwd_flops, self_times

BATCH = 32

UNITS = {
    "series.prep_s": "s", "series.setup_prep_s": "s",
    "nn.forward_s": "s", "nn.forward_self_s": "s", "nn.attention_s": "s",
    "nn.forward_calls": "count", "nn.forward_rows": "count",
    "nn.backward_s": "s", "nn.backward_calls": "count",
    "nn.conv_fwd_mflop": "MFLOP", "nn.attn_fwd_mflop": "MFLOP", "nn.fwd_gflop_per_s": "GFLOP/s",
    "nn.checkpoint_save_s": "s", "nn.checkpoint_load_s": "s", "nn.checkpoint_bytes": "bytes",
    "train.adam_s": "s", "train.adam_calls": "count", "train.self_s": "s",
    "train.forecast_s": "s",
    "bayesopt.gp_fit_s": "s", "bayesopt.propose_s": "s", "bayesopt.self_s": "s",
    "bayesopt.objective_s": "s", "bayesopt.trials": "count", "bayesopt.failed_trials": "count",
    "bayesopt.cells_mflop": "MFLOP",
    "explain.self_s": "s", "explain.model_calls": "count", "explain.model_rows": "count",
    "explain.coalitions": "count", "explain.coalition_lookups": "count",
    "explain.cache_hit_ratio": "ratio",
    "cli.self_s": "s",
    "trace.overhead_s": "s", "trace.ops": "count", "trace.missing_spans": "count",
}


def _flags(spans: list[Span], name: str) -> list[bool]:
    """Whether each span is, or lies under, a span called ``name``. Parents
    precede their children in the list."""
    out: list[bool] = []
    for s in spans:
        out.append(s.name == name or (s.parent >= 0 and out[s.parent]))
    return out


def layer_totals(spans: list[Span], wall: float) -> dict:
    """Self time summed by layer (checks under ``bench``), plus the part of
    the wall time no span covers; the parts add up to ``wall``."""
    totals: dict[str, float] = defaultdict(float)
    for s, t, chk in zip(spans, self_times(spans), _flags(spans, "bench.check")):
        totals["bench" if chk else s.name.split(".")[0]] += t
    covered = sum(s.duration for s in spans if s.parent < 0)
    return {"layer_self_s": dict(totals), "remainder_s": wall - covered,
            "wall_s": wall, "sum_s": sum(totals.values()) + wall - covered}


def per_layer(spans: list[Span], setup_spans: list[Span], n_ops: int, wall: float,
              plain_wall: float, extras: dict, missing: list[str]) -> tuple[dict, dict]:
    """(metrics, report extras) of one traced pass of ``n_ops`` operations."""
    count: dict[str, int] = defaultdict(int)
    dur: dict[str, float] = defaultdict(float)
    self_: dict[str, float] = defaultdict(float)
    rows = coalition_rows = explain_calls = explain_rows = 0
    conv = attn = saved_bytes = 0.0
    for s, t, chk, in_explain in zip(spans, self_times(spans), _flags(spans, "bench.check"),
                                     _flags(spans, "explain.explain")):
        if chk:
            continue
        count[s.name] += 1
        dur[s.name] += s.duration
        self_[s.name] += t
        if s.name == "nn.forward":
            r, cfg = s.attrs["rows"], s.attrs["cfg"]
            rows += r
            conv += conv_fwd_flops(cfg, r)
            attn += attn_fwd_flops(cfg, r)
            coalition_rows += r if s.attrs.get("coalition") else 0
            explain_calls += in_explain
            explain_rows += r if in_explain else 0
        elif s.name == "nn.checkpoint_save":
            saved_bytes += s.attrs["bytes"]

    def per_op(table, name):
        return table[name] / n_ops

    cells = extras.get("cells", [])
    cell_flops = [3.0 * (conv_fwd_flops(c, 1) + attn_fwd_flops(c, 1))
                  * extras["fit_windows"] * extras["epochs"] for c in cells]
    lookups = extras.get("coalition_lookups", 0) if count["explain.explain"] else 0
    coalitions = coalition_rows / extras["background_size"] / n_ops if lookups else 0.0
    metrics = {
        "series.prep_s": sum(v for k, v in self_.items() if k.startswith("series.")) / n_ops,
        "series.setup_prep_s": sum(t for s, t in zip(setup_spans, self_times(setup_spans))
                                   if s.name.startswith("series.")),
        "nn.forward_s": per_op(dur, "nn.forward"),
        "nn.forward_self_s": per_op(self_, "nn.forward"),
        "nn.attention_s": per_op(dur, "nn.attention"),
        "nn.forward_calls": per_op(count, "nn.forward"),
        "nn.forward_rows": rows / n_ops,
        "nn.backward_s": per_op(dur, "nn.backward"),
        "nn.backward_calls": per_op(count, "nn.backward"),
        "nn.conv_fwd_mflop": conv / rows * BATCH / 1e6 if rows else 0.0,
        "nn.attn_fwd_mflop": attn / rows * BATCH / 1e6 if rows else 0.0,
        "nn.fwd_gflop_per_s": (conv + attn) / dur["nn.forward"] / 1e9 if rows else 0.0,
        "nn.checkpoint_save_s": per_op(dur, "nn.checkpoint_save"),
        "nn.checkpoint_load_s": per_op(dur, "nn.checkpoint_load"),
        "nn.checkpoint_bytes": saved_bytes / count["nn.checkpoint_save"]
        if count["nn.checkpoint_save"] else 0.0,
        "train.adam_s": per_op(dur, "train.adam"),
        "train.adam_calls": per_op(count, "train.adam"),
        "train.self_s": per_op(self_, "train.train"),
        "train.forecast_s": per_op(self_, "train.forecast"),
        "bayesopt.gp_fit_s": per_op(dur, "bayesopt.gp_fit"),
        "bayesopt.propose_s": per_op(dur, "bayesopt.propose"),
        "bayesopt.self_s": per_op(self_, "bayesopt.tune"),
        "bayesopt.objective_s": per_op(dur, "bayesopt.objective"),
        "bayesopt.trials": len(cells),
        "bayesopt.failed_trials": extras.get("failed_trials", 0),
        "bayesopt.cells_mflop": sum(cell_flops) / len(cells) / 1e6 if cells else 0.0,
        "explain.self_s": per_op(self_, "explain.explain"),
        "explain.model_calls": explain_calls / n_ops,
        "explain.model_rows": explain_rows / n_ops,
        "explain.coalitions": coalitions,
        "explain.coalition_lookups": lookups,
        "explain.cache_hit_ratio": 1.0 - coalitions / lookups if lookups else 0.0,
        "cli.self_s": per_op(self_, "cli.main"),
        "trace.overhead_s": (wall - plain_wall) / n_ops,
        "trace.ops": n_ops,
        "trace.missing_spans": len(missing),
    }
    report = {**layer_totals(spans, wall), "untraced_wall_s": plain_wall,
              "missing_spans": missing}
    return metrics, report


def spans_jsonl(spans: list[Span]) -> str:
    """One JSON array per span: name, start, end, parent, rows."""
    return "".join(
        json.dumps([s.name, s.start, s.end, s.parent, (s.attrs or {}).get("rows")]) + "\n"
        for s in spans)
