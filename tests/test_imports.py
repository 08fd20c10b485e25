"""Start-up cost: fusecast never imports ``scipy.signal`` or ``scipy.stats``.

Together they cost about 76 MB and 0.8 s of every command's start. The
check runs in a fresh interpreter and after a call into every module that
once used them, so a deferred import inside a function fails it too.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import fusecast

SCRIPT = """
import json, sys
import numpy as np
import fusecast.cli
from fusecast.bayesopt import SearchSpace, tune
from fusecast.explain import ExplainConfig, explain
from fusecast.nn import ModelConfig, init_params
from fusecast.series import SynthSpec, prepare, synthesize
from fusecast.train import run_stats

seen = {"import": sorted(m for m in sys.modules if m.startswith(("scipy.signal", "scipy.stats")))}
ts = synthesize(SynthSpec(length=60, period=10, noise_std=0.3, ar_coeff=0.5, seed=1))
space = SearchSpace(cnn_layers=(1, 2), heads=(1, 2), filters=(4, 8), kernel_size=(2, 3))
tune(lambda cfg: float(cfg["filters"] + cfg["heads"]), space, budget=3, init=2, pool_size=8)
run_stats(np.array([1.0, 2.0, 4.0, 8.0]))
data = prepare(ts, 0.8, 8)
params = init_params(ModelConfig(w=8, cnn_layers=1, filters=4, kernel_size=2, heads=2, seed=0))
explain(params, data.held.inputs[0], data.train.inputs[:4],
        ExplainConfig(background_size=4, sample_permutations=3))
seen["calls"] = sorted(m for m in sys.modules if m.startswith(("scipy.signal", "scipy.stats")))
print(json.dumps(seen))
"""


def test_no_scipy_signal_or_stats_after_import_and_calls():
    src = str(Path(fusecast.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    done = subprocess.run([sys.executable, "-c", SCRIPT], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1]) == {"import": [], "calls": []}
