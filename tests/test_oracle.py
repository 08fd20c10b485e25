"""Output oracle: a few fixed runs whose outputs are pinned across commits.

``tests/oracle/<run>.json`` holds, for each run in ``RUNS``:

- ``sha256``: the SHA-256 of every output, wall-clock fields masked (CLI
  files as written, arrays as little-endian float64 bytes);
- ``values``: the numbers behind those outputs;
- ``host``: the fingerprint of the host that wrote the file, numpy's
  version, its OpenBLAS's core name and build config, and the Python
  minor version. That OpenBLAS also runs the LAPACK behind the series'
  AR(1) filter and the tuner's GP.

On a host with the same fingerprint the hashes must match. Elsewhere BLAS
kernels sum in another order, so the values must agree within ``RTOL`` and
``ATOL``. A change that moves output bits on purpose regenerates the files
and lists in CHANGES.md which outputs moved and by how much:

    PYTHONPATH=src python tests/test_oracle.py
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import re
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from fusecast import blas, cli
from fusecast.explain import ExplainConfig, explain, sample_background
from fusecast.nn import ModelConfig, init_params
from fusecast.series import SynthSpec, WindowedDataset, prepare, synthesize
from fusecast.train import TrainConfig, predict_batch, train

ORACLE = Path(__file__).resolve().parent / "oracle"
# Measured by running every run under OpenBLAS's Haswell, SandyBridge and
# Katmai kernels (OPENBLAS_CORETYPE) against files written under SkylakeX:
# the values moved by at most 1.9e-14 relative (predict) and 9.1e-13
# absolute (forecasts of order 10^2); attributions near zero moved by at
# most 1.1e-15. RTOL sits over three orders of magnitude above the relative move.
RTOL, ATOL = 1e-10, 1e-12

CONFIG = {
    "train": {"epochs": 2},      # bench reads it; train's --epochs overrides it
    "explain": {"background_size": 16, "sample_permutations": 20},
    "tune": {"init": 3, "epochs": 1, "pool_size": 32,
             "space": {"cnn_layers": [1, 2], "heads": [1, 2], "filters": [4, 8],
                       "kernel_size": [2, 3]}},
}


def host() -> dict:
    """numpy's version, its OpenBLAS's core name and config, Python's minor
    version."""
    lib, found = blas._library(), {}
    for name in ("corename", "config"):
        for symbol in (f"scipy_openblas_get_{name}64_", f"openblas_get_{name}64_",
                       f"openblas_get_{name}"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_char_p
                found[name] = fn().decode()
                break
    return {"numpy": np.__version__, "openblas_core": found.get("corename"),
            "openblas_config": found.get("config"), "python": "%d.%d" % sys.version_info[:2]}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _array_sha(a) -> str:
    return _sha(np.ascontiguousarray(a, dtype="<f8").tobytes())


def _masked(path: Path) -> bytes:
    """A CLI output's bytes with its wall-clock fields blanked."""
    text = path.read_text()
    text = re.sub(r'"wall_seconds": (\{[^}]*\}|[^,}\n]+)', '"wall_seconds": null', text)
    if path.name == "tune_log.csv":
        text = "\n".join(line.rsplit(",", 1)[0] for line in text.splitlines())
    return text.encode()


def _cli(out: Path, *args: str) -> None:
    config = out / "oracle_config.json"
    config.write_text(json.dumps(CONFIG))
    assert cli.main([*args, "--config", str(config), "--out", str(out)]) == 0


def _files(out: Path, *names: str) -> dict:
    return {name: _sha(_masked(out / name)) for name in names}


def _windows():
    """The windows of the CLI's default series, split at 0.8."""
    return prepare(synthesize(SynthSpec(**cli.DEFAULT_CONFIG["data"]["synth"])), 0.8, 15)


def run_fit(out: Path) -> tuple[dict, dict]:
    """``fusecast train --epochs 2`` at the default cell, then ``forecast
    --horizon 15`` from its checkpoint."""
    _cli(out, "train", "--epochs", "2")
    _cli(out, "forecast", "--checkpoint", str(out / "train" / "checkpoint.json"),
         "--horizon", "15")
    shas = _files(out, "train/checkpoint.json", "train/loss_history.csv",
                  "train/metrics.json", "forecast/forecast.csv")
    metrics = json.loads((out / "train" / "metrics.json").read_text())
    values = {
        "loss_history": [float(row.split(",")[1]) for row in
                         (out / "train" / "loss_history.csv").read_text().splitlines()[1:]],
        "metrics": [metrics[name] for name in ("rmse", "mae", "mape", "msle")],
        "forecast": [float(row.split(",")[1]) for row in
                     (out / "forecast" / "forecast.csv").read_text().splitlines()[1:]],
    }
    return shas, values


def run_explain_default(out: Path) -> tuple[dict, dict]:
    """``fusecast explain``, sampled with m=20 and background 16, on the
    checkpoint of :func:`run_fit`: the default cell's periodic coalition
    table."""
    if not (out / "train" / "checkpoint.json").is_file():
        run_fit(out)
    _cli(out, "explain", "--checkpoint", str(out / "train" / "checkpoint.json"))
    shas = _files(out, "explain/influence.csv", "explain/explain.json")
    rows = [row.split(",") for row in
            (out / "explain" / "influence.csv").read_text().splitlines()[1:]]
    doc = json.loads((out / "explain" / "explain.json").read_text())
    values = {"s": [float(r[1]) for r in rows], "a": [float(r[2]) for r in rows],
              "base_value": doc["base_value"], "prediction": doc["prediction"]}
    return shas, values


def run_tune(out: Path, budget: str = "3") -> tuple[dict, dict]:
    """``fusecast tune --budget 3`` at one epoch a trial over a narrowed space."""
    out.mkdir(exist_ok=True)
    _cli(out, "tune", "--budget", budget)
    shas = _files(out, "tune/tune_log.csv", "tune/best_config.json")
    rows = [row.split(",") for row in
            (out / "tune" / "tune_log.csv").read_text().splitlines()[1:]]
    values = {"configs": [[int(v) for v in r[1:5]] for r in rows],
              "rmse": [float(r[5]) for r in rows]}
    return shas, values


def run_tune_gp(out: Path) -> tuple[dict, dict]:
    """``fusecast tune --budget 6`` with init 3 at one epoch a trial over a
    narrowed space: three GP trials, an EI proposal, a box pick and a
    neighbour sweep."""
    return run_tune(out / "gp", "6")


def run_predict(out: Path) -> tuple[dict, dict]:
    """``predict_batch`` of a 4x64 k=5 model on 100 held-out windows."""
    params = init_params(ModelConfig(w=15, cnn_layers=4, filters=64, kernel_size=5, heads=4,
                                     seed=3))
    yhat = predict_batch(params, _windows().held.inputs[:100])
    return {"yhat": _array_sha(yhat)}, {"yhat": yhat.tolist()}


def run_explain_3x40k4(out: Path) -> tuple[dict, dict]:
    """``explain``, sampled with m=20 and background 16, of a 3x40 k=4 model:
    R = 10, so the masks are their own representatives."""
    params = init_params(ModelConfig(w=15, cnn_layers=3, filters=40, kernel_size=4, heads=3,
                                     seed=4))
    params.b_out[...] = 0.25     # init leaves it 0, which no summation order can round
    data = _windows()
    result = explain(params, data.held.inputs[0], sample_background(data.train.inputs, 16, seed=2),
                     ExplainConfig(background_size=16, sample_permutations=20, seed=3))
    arrays = {name: getattr(result, name) for name in ("s", "a", "c", "c_smooth", "se")}
    scalars = {"base_value": result.base_value, "prediction": result.prediction}
    shas = {**{name: _array_sha(a) for name, a in arrays.items()},
            **{name: _array_sha([v]) for name, v in scalars.items()}}
    values = {"s": result.s.tolist(), "a": result.a.tolist(), **scalars,
              "coalitions": result.coalitions, "conv_windows": result.conv_windows}
    return shas, values


def run_bench(out: Path) -> tuple[dict, dict]:
    """``fusecast bench --runs 4`` at the default cell and two epochs a run:
    the runs' metrics, their statistics and the h=15 rollout from 10
    anchors."""
    _cli(out, "bench", "--runs", "4")
    shas = _files(out, "bench/runs.csv", "bench/bench_report.json")
    report = json.loads((out / "bench" / "bench_report.json").read_text())
    values = {"runs": [[float(v) for v in row.split(",")[1:]] for row in
                       (out / "bench" / "runs.csv").read_text().splitlines()[1:]],
              "run_stats": report["run_stats"], "horizons": report["horizons"]}
    return shas, values


def run_train_10x110k3(out: Path) -> tuple[dict, dict]:
    """``train`` of a 10x110 k=3 model for one epoch on 64 windows, two full
    B=32 batches, whose conv GEMMs split (and run beside a helper thread on
    two CPUs); then ``predict_batch`` on 8 held-out windows."""
    data = _windows()
    subset = WindowedDataset(data.train.inputs[:64], data.train.targets[:64], 15)
    params, history = train(ModelConfig(w=15, cnn_layers=10, filters=110, kernel_size=3,
                                        heads=2, seed=3), TrainConfig(epochs=1, seed=5), subset)
    yhat = predict_batch(params, data.held.inputs[:8])
    # the tensors in checkpoint order, independent of how flat stores them
    tensors = np.concatenate([t.ravel() for t in params.tensors().values()])
    return ({"params": _array_sha(tensors), "history": _array_sha(history),
             "yhat": _array_sha(yhat)},
            {"history": history, "yhat": yhat.tolist()})


RUNS = {"fit": run_fit, "explain-default": run_explain_default, "tune": run_tune,
        "tune-gp": run_tune_gp, "predict": run_predict, "explain-3x40k4": run_explain_3x40k4,
        "bench": run_bench, "train-10x110k3": run_train_10x110k3}


@pytest.fixture(scope="module")
def out_dir(tmp_path_factory):
    """One output directory for the module, so that the default-cell explain
    reads the checkpoint that the fit run wrote."""
    return tmp_path_factory.mktemp("oracle")


def assert_values_close(got, expected, path=""):
    if isinstance(expected, dict):
        assert set(got) == set(expected), path
        for key in expected:
            assert_values_close(got[key], expected[key], f"{path}.{key}")
    elif isinstance(expected, list) and any(isinstance(v, (list, dict)) for v in expected):
        assert len(got) == len(expected), path
        for i, (g, e) in enumerate(zip(got, expected)):
            assert_values_close(g, e, f"{path}[{i}]")
    elif isinstance(expected, int) or (isinstance(expected, list)
                                        and all(type(v) is int for v in expected)):
        assert got == expected, path
    elif expected is None:
        assert got is None, path
    else:
        np.testing.assert_allclose(got, expected, rtol=RTOL, atol=ATOL, err_msg=path)


@pytest.mark.parametrize("name", list(RUNS))
def test_outputs_match_the_oracle(name, out_dir):
    doc = json.loads((ORACLE / f"{name}.json").read_text())
    shas, values = RUNS[name](out_dir)
    if doc["host"] == host():
        moved = sorted(k for k in doc["sha256"] if shas.get(k) != doc["sha256"][k])
        assert not moved and set(shas) == set(doc["sha256"]), (
            f"{name}: outputs {moved} differ from the oracle's bytes")
    assert_values_close(values, doc["values"], name)


def regenerate() -> None:
    ORACLE.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name, run in RUNS.items():
            shas, values = run(Path(tmp))
            doc = {"run": " ".join(run.__doc__.split()),
                   "host": host(), "sha256": shas, "values": values}
            (ORACLE / f"{name}.json").write_text(json.dumps(doc, indent=1) + "\n")
            print(f"wrote {ORACLE / name}.json")


if __name__ == "__main__":
    regenerate()
