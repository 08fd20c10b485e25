"""Start-up cost: fusecast never imports ``scipy``, and ``import
fusecast.cli`` loads no ``multiprocessing``.

``scipy.signal`` and ``scipy.stats`` cost about 76 MB and 0.8 s of every
command's start, and ``scipy.linalg`` and ``scipy.special`` about 31 MB and
0.2 s more. The check runs in a fresh interpreter, after ``import
fusecast.cli`` and again after every CLI command (with its SVGs) and a call
into every module, so a deferred import inside a function fails it too. The tuner's
calls reach its GP: ``tune``'s budget is above its initial design.
``multiprocessing`` and ``concurrent.futures.process`` cost about 1 MB of
every command's peak RSS; only ``explain``'s forked workers need them, so
they are checked after the import alone.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import fusecast

SCRIPT = """
import contextlib, io, json, sys, tempfile
from pathlib import Path
import numpy as np
import fusecast.cli

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

seen = {"import": scipy_modules(),
        "multiprocessing": sorted(m for m in sys.modules if m.split(".")[0] == "multiprocessing")}
from fusecast import cli
from fusecast.bayesopt import Observation, SearchSpace, gp_fit, propose, tune
from fusecast.explain import ExplainConfig, explain
from fusecast.nn import ModelConfig, init_params
from fusecast.series import SynthSpec, prepare, synthesize
from fusecast.train import run_stats

ts = synthesize(SynthSpec(length=60, period=10, noise_std=0.3, ar_coeff=0.5, seed=1))
space = SearchSpace(cnn_layers=(1, 2), heads=(1, 2), filters=(4, 8), kernel_size=(2, 3))
tune(lambda cfg: float(cfg["filters"] + cfg["heads"]), space, budget=5, init=2, pool_size=8)
propose(gp_fit([Observation(x=np.full(4, 0.25), y=1.0), Observation(x=np.full(4, 0.75), y=0.0)]),
        space, pool_size=8)
run_stats(np.array([1.0, 2.0, 4.0, 8.0]))
data = prepare(ts, 0.8, 8)
params = init_params(ModelConfig(w=8, cnn_layers=1, filters=4, kernel_size=2, heads=2, seed=0))
explain(params, data.held.inputs[0], data.train.inputs[:4],
        ExplainConfig(background_size=4, sample_permutations=3))
with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
    out, config = Path(tmp), Path(tmp) / "config.json"
    config.write_text(json.dumps({
        "data": {"synth": {"length": 120, "period": 20, "noise_std": 0.3, "seed": 2}},
        "model": {"w": 8, "cnn_layers": 1, "filters": 4, "kernel_size": 2, "heads": 2},
        "train": {"epochs": 1}, "explain": {"background_size": 4, "sample_permutations": 3},
        "tune": {"budget": 4, "init": 2, "epochs": 1, "pool_size": 8,
                 "space": {"cnn_layers": [1, 2], "heads": [1, 2], "filters": [4, 6],
                           "kernel_size": [2, 3]}},
        "horizons": [3], "bench": {"runs": 4, "anchors": 2}}))
    common = ["--config", str(config), "--out", str(out), "--svg"]
    checkpoint = str(out / "train" / "checkpoint.json")
    for command in (["synth"], ["train"], ["forecast", "--checkpoint", checkpoint],
                    ["explain", "--checkpoint", checkpoint], ["tune"], ["bench"]):
        assert cli.main([*command, *common]) == 0, command
seen["calls"] = scipy_modules()
print(json.dumps(seen))
"""


def test_no_scipy_after_import_and_calls():
    src = str(Path(fusecast.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    done = subprocess.run([sys.executable, "-c", SCRIPT], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1]) == {
        "import": [], "multiprocessing": [], "calls": []}
