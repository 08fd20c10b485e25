"""The helper thread of wide-cell training: the same bits as the serial
path, every traced function on the main thread, and no thread left behind."""

import json
import os
import subprocess
import sys
import textwrap
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from fusecast import nn
from fusecast.errors import DivergedLoss
from fusecast.nn import ModelConfig, Workspace, _backward_batch, _forward_batch, init_params
from fusecast.series import WindowedDataset
from fusecast.train import HELPER_MACS, TrainConfig

train_module = sys.modules["fusecast.train"]

# the smallest kind of cell above the threshold: two 128-filter layers at
# k=5, whose (128, 640) @ (640, 32*15) conv GEMM takes 39M multiply-adds;
# its 148k parameters make ten Adam chunks
CELL = ModelConfig(w=15, cnn_layers=2, filters=128, kernel_size=5, heads=2, seed=3)
# 81 = 2*32 + 17: the last batch of an epoch is partial
N_WINDOWS = 81


class CountingExecutor(ThreadPoolExecutor):
    """One worker that records the thread each task ran on."""

    def __init__(self, *args, **kwargs):
        super().__init__(1)
        self.threads = []

    def submit(self, fn, *args):
        def task():
            self.threads.append(threading.current_thread())
            fn(*args)
        return super().submit(task)


@pytest.fixture
def data(rng):
    return WindowedDataset(rng.normal(size=(N_WINDOWS, 15)), rng.normal(size=N_WINDOWS), 15)


@pytest.fixture
def helpers(monkeypatch):
    """Force train's helper on; returns the executors train opens."""
    opened = []

    def counting(*args):
        opened.append(CountingExecutor())
        return opened[-1]

    monkeypatch.setattr(train_module, "_use_helper", lambda *args: True)
    monkeypatch.setattr(train_module, "ThreadPoolExecutor", counting)
    return opened


def ran_beside(executor) -> bool:
    main = threading.main_thread()
    return bool(executor.threads) and all(t is not main for t in executor.threads)


def test_cell_is_above_the_threshold_and_tune_cells_below():
    assert CELL.filters * CELL.kernel_size * CELL.filters * 32 * CELL.w > HELPER_MACS
    # the largest cell of the benchmark's tuning space, and the default cell
    for cell in (ModelConfig(w=15, cnn_layers=4, filters=64, kernel_size=5, heads=4),
                 ModelConfig(w=15)):
        assert not train_module._use_helper(cell, 32)


@pytest.mark.parametrize("batch", [32, 17])
def test_backward_beside_equals_inline_bitwise(batch, rng):
    params = init_params(CELL)
    xb, g = rng.normal(size=(batch, 15)), rng.normal(size=batch)
    inline = _backward_batch(params, _forward_batch(params, xb)[1], g)
    with CountingExecutor() as helper:
        _, cache = _forward_batch(params, xb, workspace=Workspace(CELL, batch, helper))
        beside = _backward_batch(params, cache, g)
        # a second backward from the same cache refills what the first moved
        again = _backward_batch(params, cache, g)
    assert ran_beside(helper)
    assert beside.tobytes() == inline.tobytes()
    assert again.tobytes() == inline.tobytes()


def test_train_with_helper_equals_serial_bitwise(data, helpers, monkeypatch):
    tconfig = TrainConfig(epochs=2, learning_rate=3e-3, seed=2)
    params, history = train_module.train(CELL, tconfig, data)
    assert len(helpers) == 1 and ran_beside(helpers[0])
    monkeypatch.setattr(train_module, "_use_helper", lambda *args: False)
    serial, serial_history = train_module.train(CELL, tconfig, data)
    assert len(helpers) == 1
    assert params.flat.tobytes() == serial.flat.tobytes()
    assert history == serial_history


def test_helper_leaves_on_return_and_raise(data, helpers):
    before = threading.active_count()
    train_module.train(CELL, TrainConfig(epochs=1, seed=2), data)
    assert threading.active_count() == before
    with np.errstate(all="ignore"), pytest.raises(DivergedLoss):
        train_module.train(CELL, TrainConfig(epochs=3, learning_rate=1e40, seed=2), data)
    assert len(helpers) == 2 and all(ran_beside(h) for h in helpers)
    assert threading.active_count() == before


def test_traced_functions_run_on_the_main_thread(data, helpers, monkeypatch):
    # the benchmark's tracer wraps these module names with one span stack
    # per process, so none may be called from the helper
    threads = {}
    for module, name in [(nn, "_forward_batch"), (train_module, "_forward_batch"),
                         (nn, "_mha_batch"), (nn, "_backward_batch"),
                         (train_module, "_backward_batch"), (train_module, "adam_step")]:
        fn, seen = getattr(module, name), threads.setdefault(name, [])

        def wrapper(*args, fn=fn, seen=seen, **kwargs):
            seen.append(threading.current_thread())
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)
    train_module.train(CELL, TrainConfig(epochs=1, seed=2), data)
    assert ran_beside(helpers[0])
    for name, seen in threads.items():
        assert seen and all(t is threading.main_thread() for t in seen), name


REAL_RULE = textwrap.dedent("""
    import json, os, sys, threading, warnings
    import numpy as np
    from fusecast.explain import ExplainConfig, explain
    from fusecast.nn import ModelConfig, init_params
    from fusecast.series import WindowedDataset
    train = sys.modules["fusecast.train"]
    cell, n = ModelConfig(**json.loads(sys.argv[1])), int(sys.argv[2])
    rng = np.random.default_rng(0)
    data = WindowedDataset(rng.normal(size=(n, 15)), rng.normal(size=n), 15)
    tconfig = train.TrainConfig(epochs=2, learning_rate=3e-3, seed=2)
    rule, chosen = train._use_helper, []
    train._use_helper = lambda *args: chosen.append(rule(*args)) or chosen[-1]
    real, real_history = train.train(cell, tconfig, data)
    train._use_helper = lambda *args: False
    serial, serial_history = train.train(cell, tconfig, data)
    threads = threading.active_count()
    # a fork from a process with a live thread warns from Python 3.12
    warnings.simplefilter("error", DeprecationWarning)
    os.sched_getaffinity = lambda pid: {0, 1}
    workers = explain(init_params(ModelConfig(w=15, seed=2)), rng.normal(size=15),
                      rng.normal(size=(8, 15)),
                      ExplainConfig(background_size=8, sample_permutations=10)).workers
    print(json.dumps({"chosen": chosen, "blas_threads": train._blas_threads(),
                      "same": real.flat.tobytes() == serial.flat.tobytes()
                              and real_history == serial_history,
                      "threads": threads, "workers": workers}))
""")


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2,
                    reason="the helper needs two CPUs")
def test_real_rule_under_one_blas_thread():
    # the tier-1 suite runs at the host's BLAS thread count, which may not
    # be one: the real rule is exercised in a process pinned to one thread
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    cell = {name: getattr(CELL, name) for name in
            ("w", "cnn_layers", "filters", "kernel_size", "heads", "seed")}
    proc = subprocess.run([sys.executable, "-c", REAL_RULE, json.dumps(cell), str(N_WINDOWS)],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    if result["blas_threads"] is None:
        pytest.skip("numpy's OpenBLAS thread count cannot be read")
    assert result["blas_threads"] == 1
    assert result["chosen"] == [True]
    assert result["same"]
    assert result["threads"] == 1
    assert result["workers"] == 2
