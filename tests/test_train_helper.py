"""The split GEMMs, the helper thread and the gradient window of wide-cell
training: the same bits on the helper as inline, the same bits on one CPU
as on two, the same bits from the window's Adam flushes as from a full
gradient, which a step no longer allocates, every traced function on the
main thread, and no thread left behind. Splitting is decided at one
OpenBLAS thread, which ``train`` holds itself; the tests that call the nn
level directly hold it with ``blas.one_thread()``."""

import json
import os
import subprocess
import sys
import textwrap
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from fusecast import blas, cli, nn
from fusecast.blas import HELPER_MACS
from fusecast.errors import DivergedLoss
from fusecast.nn import ModelConfig, Workspace, _backward_batch, _forward_batch, init_params
from fusecast.series import WindowedDataset
from fusecast.train import TrainConfig

from conftest import assert_view_step_is_a_fresh_step
from test_train import reference_train

train_module = sys.modules["fusecast.train"]

# the smallest kind of cell above the threshold: two 128-filter layers at
# k=5, whose (128, 640) @ (640, 32*15) conv GEMM takes 39M multiply-adds;
# its 148k parameters make ten Adam chunks
CELL = ModelConfig(w=15, cnn_layers=2, filters=128, kernel_size=5, heads=2, seed=3)
# 77 = 2*32 + 13: the last batch of an epoch is partial
N_WINDOWS = 77
# a mid cell whose (110, 330) @ (330, 32*15) conv GEMM, 17M multiply-adds,
# splits and whose 13-row partial batch does not
MID_CELL = ModelConfig(w=15, cnn_layers=10, filters=110, kernel_size=3, heads=2, seed=3)


class CountingExecutor(ThreadPoolExecutor):
    """One worker that records the thread each task ran on, and its name."""

    def __init__(self, *args, **kwargs):
        super().__init__(1)
        self.threads, self.names = [], set()

    def submit(self, fn, *args):
        def task():
            self.threads.append(threading.current_thread())
            self.names.add(fn.__name__)
            fn(*args)
        return super().submit(task)


# what the split forward runs on the helper: im2col rows, conv rows, Q/K/V
# rows
FORWARD_TASKS = {"_conv_fill", "_conv_rows", "_matmul_rows"}


@pytest.fixture
def one_blas_thread():
    """OpenBLAS at one thread, where a workspace splits, and the caller's
    count back afterwards."""
    if blas.threads() is None:
        pytest.skip("numpy's OpenBLAS thread count cannot be read")
    with blas.one_thread():
        yield


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

    monkeypatch.setattr(blas, "use_helper", lambda *args: True)
    monkeypatch.setattr(train_module, "ThreadPoolExecutor", counting)
    return opened


def ran_beside(executor) -> bool:
    main = threading.main_thread()
    return bool(executor.threads) and all(t is not main for t in executor.threads)


def test_cell_is_above_the_threshold_and_tune_cells_below(one_blas_thread, monkeypatch):
    assert CELL.filters * CELL.kernel_size * CELL.filters * 32 * CELL.w > HELPER_MACS
    assert blas.splits(CELL, 32)
    # the partial last batch's 16.0M multiply-adds; the largest cell of the
    # benchmark's tuning space, and the default cell
    assert not blas.splits(CELL, N_WINDOWS % 32)
    for cell in (ModelConfig(w=15, cnn_layers=4, filters=64, kernel_size=5, heads=4),
                 ModelConfig(w=15)):
        assert not blas.splits(cell, 32)
    # at other or unknown BLAS thread counts nothing splits
    for threads in (2, None):
        monkeypatch.setattr(blas, "threads", lambda threads=threads: threads)
        assert not blas.splits(CELL, 32)
    # the helper: a workspace that splits, and two CPUs
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    assert blas.use_helper(True)
    assert not blas.use_helper(False)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert not blas.use_helper(True)


@pytest.mark.parametrize("cell", [CELL, ModelConfig(w=9, cnn_layers=3, filters=52,
                                                     kernel_size=3, heads=3, seed=1)])
def test_split_step_matches_the_whole_products(cell, rng):
    # the halves are the whole product's rows to rounding at any BLAS thread
    # count and GEMM kernel (bit for bit where the tiles agree)
    params = init_params(cell)
    xb, g = rng.normal(size=(5, cell.w)), rng.normal(size=5)
    steps = []
    for split in (False, True):
        ws = Workspace(cell, 5, split=split)
        yhat, _ = _forward_batch(params, xb, workspace=ws)
        steps.append((yhat, ws.act.copy(), ws.qkv.copy(), _backward_batch(params, ws, g)))
    for cut, rows in ((ws.cut, cell.filters), (ws.qkv_cut, len(ws.qkv))):
        assert 0 < cut < rows and cut % blas.SPLIT_TILE == 0
    for whole, halves in zip(*steps):
        np.testing.assert_allclose(halves, whole, rtol=1e-12, atol=1e-14)


def test_split_step_beside_equals_inline_bitwise(one_blas_thread, rng):
    params = init_params(CELL)
    xb, g = rng.normal(size=(32, 15)), rng.normal(size=32)
    yhat, ws = _forward_batch(params, xb, workspace=Workspace(CELL, 32, split=True))
    inline = (yhat, ws.act.copy(), _backward_batch(params, ws, g))
    # frequent thread switches, so that a task joined too late shows
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with CountingExecutor() as helper:
            ws = Workspace(CELL, 32, helper, split=True)
            yhat, _ = _forward_batch(params, xb, workspace=ws)
            beside = (yhat, ws.act.copy(), _backward_batch(params, ws, g))
            # the first backward consumed the forward: its scratch lies over it
            with pytest.raises(ValueError):
                _backward_batch(params, ws, g)
    finally:
        sys.setswitchinterval(interval)
    assert ran_beside(helper) and FORWARD_TASKS <= helper.names
    for a, b in zip(beside, inline):
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("batch", [32, 17])
def test_backward_beside_equals_inline_bitwise(batch, rng):
    params = init_params(CELL)
    xb, g = rng.normal(size=(batch, 15)), rng.normal(size=batch)
    inline = _backward_batch(params, _forward_batch(params, xb)[1], g)
    with CountingExecutor() as helper:
        _, ws = _forward_batch(params, xb, workspace=Workspace(CELL, batch, helper))
        beside = _backward_batch(params, ws, g)
        # the first backward consumed the forward: its scratch lies over it
        with pytest.raises(ValueError):
            _backward_batch(params, ws, g)
    assert ran_beside(helper)
    assert beside.tobytes() == inline.tobytes()


@pytest.mark.parametrize("cell", [
    ModelConfig(w=9, cnn_layers=1, filters=52, kernel_size=3, heads=3, seed=1),
    ModelConfig(w=9, cnn_layers=3, filters=52, kernel_size=3, heads=3, head_dim=18, seed=1),
    ModelConfig(w=9, cnn_layers=3, filters=52, kernel_size=7, heads=1, seed=1),
], ids=["one-layer", "qkv-pair-larger", "taps-larger"])
def test_helper_col2im_runs_in_the_qkv_block(cell, rng):
    # with a helper, col2im's taps lie over the Q/K/V block, where backward
    # wrote dQ/dK/dV over Q/K/V, dead by then: the block is the larger of
    # the two (3*h*d_k = 162 or k*f = 156 rows at 3 heads of 18; 7*52 rows
    # at one head of 52). Each view's buffers still start where the
    # workspace's do, and a step is the same bits as inline
    params = init_params(cell)
    xb, g = rng.normal(size=(32, cell.w)), rng.normal(size=32)
    inline = _backward_batch(params, _forward_batch(params, xb)[1], g)
    with ThreadPoolExecutor(1) as helper:
        ws = Workspace(cell, 32, helper)
        beside = _backward_batch(params, _forward_batch(params, xb, workspace=ws)[1], g)
    assert beside.tobytes() == inline.tobytes()
    if cell.cnn_layers == 1:
        assert ws.dcols is None
        return
    h, dk, f, k = cell.heads, cell.head_dim, cell.filters, cell.kernel_size
    assert ws._blocks["qkv"].size == max(3 * h * dk, k * f) * 32 * cell.w
    assert np.shares_memory(ws.dcols, ws.qkv) and not np.shares_memory(ws.dcols, ws.cols)
    view = ws.view(17)
    for name in ("qkv", "dcols"):
        part, whole = getattr(view, name), getattr(ws, name)
        assert part.__array_interface__["data"][0] == whole.__array_interface__["data"][0]


def test_unsplit_view_of_a_split_workspace_equals_a_fresh_one_bitwise(one_blas_thread, rng):
    # MID_CELL's 32-window workspace splits and its 17-window view does not
    ws, view = assert_view_step_is_a_fresh_step(init_params(MID_CELL), rng)
    assert ws.split and ws.cut and not view.split and view.cut == view.qkv_cut == 0


def test_conv_of_one_tile_stays_whole_in_a_split_run(tmp_path, monkeypatch):
    # 24 filters at w=60, k=8 and 64 windows: the conv GEMM has 17.7M
    # multiply-adds, so the workspace splits, but its 24 rows fit in one tile
    # and only the Q/K/V GEMM is cut
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "model": {"w": 60, "cnn_layers": 2, "filters": 24, "kernel_size": 8},
        "train": {"epochs": 1, "batch_size": 64}}))
    rule, chosen = blas.splits, []
    monkeypatch.setattr(blas, "splits", lambda *args: chosen.append(rule(*args)) or chosen[-1])
    outputs = []
    for out in ("split", "whole"):
        assert cli.main(["train", "--config", str(config), "--out", str(tmp_path / out)]) == 0
        outputs.append([(tmp_path / out / "train" / name).read_bytes()
                        for name in ("checkpoint.json", "loss_history.csv")])
        monkeypatch.setattr(blas, "splits", lambda *args: False)
    if blas.threads() is not None:
        assert chosen[0]          # the run splits: the full batches do
    assert outputs[0] == outputs[1]


def test_train_with_helper_equals_serial_bitwise(one_blas_thread, data, helpers, monkeypatch):
    # the full batches split and the partial last batch does not; the
    # halves, on the helper or inline, are the whole GEMMs' bytes
    tconfig = TrainConfig(epochs=2, learning_rate=3e-3, seed=2)
    for cell in (CELL, MID_CELL):
        assert blas.splits(cell, 32) and not blas.splits(cell, N_WINDOWS % 32)
        with monkeypatch.context() as patch:
            params, history = train_module.train(cell, tconfig, data)
            patch.setattr(blas, "use_helper", lambda *args: False)
            serial, serial_history = train_module.train(cell, tconfig, data)
            # train is its stream collected
            streamed = init_params(cell)
            streamed_history = list(train_module.epochs(streamed, tconfig, data))
            patch.setattr(blas, "splits", lambda config, batch: False)
            whole, whole_history = train_module.train(cell, tconfig, data)
        assert ran_beside(helpers[-1]) and FORWARD_TASKS <= helpers[-1].names
        assert (params.flat.tobytes() == serial.flat.tobytes() == streamed.flat.tobytes()
                == whole.flat.tobytes())
        assert history == serial_history == streamed_history == whole_history
    assert len(helpers) == 2


def test_helper_leaves_on_return_and_raise(data, helpers):
    before = threading.active_count()
    train_module.train(CELL, TrainConfig(epochs=1, seed=2), data)
    assert threading.active_count() == before
    with np.errstate(all="ignore"), pytest.raises(DivergedLoss):
        train_module.train(CELL, TrainConfig(epochs=3, learning_rate=1e40, seed=2), data)
    assert len(helpers) == 2 and all(ran_beside(h) for h in helpers)
    assert threading.active_count() == before


def test_closed_stream_stops_its_helper(data, monkeypatch):
    # the real split rule under the stream's own pin, on two CPUs: the first
    # epoch runs with the helper, and closing the stream after it stops it
    if blas.threads() is None:
        pytest.skip("numpy's OpenBLAS thread count cannot be read")
    monkeypatch.setattr(blas, "cpus", lambda: 2)
    before = threading.active_count()
    stream = train_module.epochs(init_params(MID_CELL), TrainConfig(epochs=3, seed=2), data)
    next(stream)
    assert threading.active_count() == before + 1
    stream.close()
    assert threading.active_count() == before


def test_traced_functions_run_on_the_main_thread(one_blas_thread, data, helpers, monkeypatch):
    # the benchmark's tracer wraps these module names with one span stack
    # per process, so none may be called from the helper, which also runs
    # the split forward and half of each Adam flush
    threads = {}
    for module, name in [(nn, "_forward_batch"), (train_module, "_forward_batch"),
                         (nn, "_mha_batch"), (nn, "_backward_batch"),
                         (train_module, "_backward_batch"), (train_module, "adam_step")]:
        fn, seen = getattr(module, name), threads.setdefault(name, [])

        def wrapper(*args, fn=fn, seen=seen, **kwargs):
            seen.append(threading.current_thread())
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)
    # backward calls Adam for each flush of the gradient window: twice a
    # step at CELL, once per group at MID_CELL
    for cell, flushes in ((CELL, 2), (MID_CELL, 10)):
        for seen in threads.values():
            seen.clear()
        train_module.train(cell, TrainConfig(epochs=1, seed=2), data)
        assert ran_beside(helpers[-1]) and FORWARD_TASKS <= helpers[-1].names
        # three steps: two full batches and a partial one
        assert len(threads["_backward_batch"]) == 3
        assert len(threads["adam_step"]) == flushes * 3
        for name, seen in threads.items():
            assert seen and all(t is threading.main_thread() for t in seen), name


# cells whose gradient window holds all n (the default cell), and less, so
# that Adam runs four times a step at 4x64 k=5, the largest cell of the
# benchmark's tuning space, and ten times at MID_CELL, with the split and
# the helper
WINDOW_CELLS = [ModelConfig(w=15, seed=4), ModelConfig(w=15, cnn_layers=4, filters=64,
                                                       kernel_size=5, heads=4, seed=1), MID_CELL]


@pytest.mark.parametrize("cell", WINDOW_CELLS, ids=["default", "4x64k5", "10x110k3"])
def test_gradient_window_equals_a_full_gradient_bitwise(cell, one_blas_thread, data, helpers):
    # two epochs, each ending in a partial batch in a view of the workspace;
    # the reference takes a full gradient vector and one Adam call over it
    # each step, unsplit and without a helper; train and its stream,
    # collected, give the reference's bytes
    tconfig = TrainConfig(epochs=2, learning_rate=3e-3, seed=2)
    assert N_WINDOWS % tconfig.batch_size
    params, history = train_module.train(cell, tconfig, data)
    expected, expected_history = reference_train(cell, tconfig, data)
    streamed = init_params(cell)
    assert list(train_module.epochs(streamed, tconfig, data)) == history == expected_history
    assert params.flat.tobytes() == streamed.flat.tobytes() == expected.flat.tobytes()
    assert ran_beside(helpers[0])
    assert blas.splits(cell, 32) == (cell is MID_CELL)
    window = train_module._gradient_window(params, None, tconfig, None)[0].flat.size
    assert (window == params.flat.size) == (cell is WINDOW_CELLS[0])


def test_one_step_allocates_no_full_gradient(rng):
    # 8 layers of 96 filters: the window is 0.17 n, and Adam's scratch and
    # a 4-window workspace are small, so the step's peak stays under the
    # parameters', the two moments' and a full gradient's 4 n floats
    cell = ModelConfig(w=8, cnn_layers=8, filters=96, kernel_size=5, heads=2, seed=1)
    data = WindowedDataset(rng.normal(size=(4, 8)), rng.normal(size=4), 8)
    params = init_params(cell)
    n = params.flat.size
    assert train_module._gradient_window(params, None, TrainConfig(), None)[0].flat.size < 0.18 * n
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        train_module.train(cell, TrainConfig(epochs=1, batch_size=4), data)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert 3 * n * 8 < peak < 4 * n * 8


# Trains in a process of its own at the OpenBLAS thread count of its
# environment. Always: CONTRACT twice, printing each run's parameter bytes
# as SHA-256, and the thread count before and after. With two CPUs and
# "rule": CELL with the real rule on two CPUs, then pinned to one; with
# "fork": CELL on two CPUs, then explain's workers.
SUBPROCESS = textwrap.dedent("""
    import hashlib, json, os, sys, threading, warnings
    import numpy as np
    from fusecast import blas
    from fusecast.explain import ExplainConfig, explain
    from fusecast.nn import ModelConfig, init_params
    from fusecast.series import WindowedDataset
    train = sys.modules["fusecast.train"]

    def fit(cell, n):
        rng = np.random.default_rng(n)
        data = WindowedDataset(rng.normal(size=(n, 15)), rng.normal(size=n), 15)
        tconfig = train.TrainConfig(epochs=2, learning_rate=3e-3, seed=2)
        params, history = train.train(ModelConfig(**cell), tconfig, data)
        return hashlib.sha256(params.flat.tobytes() + np.array(history).tobytes()).hexdigest()

    contract, cell, n, mode = json.loads(sys.argv[1]), json.loads(sys.argv[2]), int(sys.argv[3]), sys.argv[4]
    result = {"blas_threads": blas.threads(),
              "contract": [fit(contract, n), fit(contract, n)]}
    cpus = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else set()
    if mode == "rule" and len(cpus) >= 2:
        rule, chosen = blas.use_helper, []
        blas.use_helper = lambda *args: chosen.append(rule(*args)) or chosen[-1]
        two_cpus = fit(cell, n)
        os.sched_setaffinity(0, {min(cpus)})
        one_cpu = fit(cell, n)
        os.sched_setaffinity(0, cpus)
        result.update(chosen=chosen, same=two_cpus == one_cpu)
    if mode == "fork" and len(cpus) >= 2:
        fit(cell, n)
        threads = threading.active_count()
        # a fork from a process with a live thread warns from Python 3.12
        warnings.simplefilter("error", DeprecationWarning)
        os.sched_getaffinity = lambda pid: {0, 1}
        rng = np.random.default_rng(0)
        workers = explain(init_params(ModelConfig(w=15, seed=2)), rng.normal(size=15),
                          rng.normal(size=(8, 15)),
                          ExplainConfig(background_size=8, sample_permutations=10)).workers
        result.update(threads=threads, workers=workers)
    result["blas_threads_after"] = blas.threads()
    print(json.dumps(result))
""")

# ROADMAP item 3's cell: 3x40 k=4, whose weight gradients depend on the
# BLAS thread count at some batch shapes
CONTRACT = ModelConfig(w=15, cnn_layers=3, filters=40, kernel_size=4, heads=2, seed=3)


@pytest.fixture(scope="module")
def subprocess_runs():
    """The results of SUBPROCESS at one OpenBLAS thread ("fork") and at two
    ("rule"), run side by side."""
    src = Path(__file__).resolve().parent.parent / "src"
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    as_json = [json.dumps({name: getattr(cell, name) for name in
                           ("w", "cnn_layers", "filters", "kernel_size", "heads", "seed")})
               for cell in (CONTRACT, CELL)]
    procs = {threads: subprocess.Popen(
        [sys.executable, "-c", SUBPROCESS, *as_json, str(N_WINDOWS), mode],
        env={**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
             "PYTHONPATH": path},
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        for threads, mode in (("1", "fork"), ("2", "rule"))}
    results = {}
    try:
        for threads, proc in procs.items():
            out, err = proc.communicate(timeout=60)
            assert proc.returncode == 0, err
            results[threads] = json.loads(out)
    finally:
        for proc in procs.values():
            proc.kill()
    return results


TWO_CPUS = pytest.mark.skipif(
    not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2,
    reason="the helper needs two CPUs")


@TWO_CPUS
def test_real_rule_under_one_blas_thread(subprocess_runs):
    # the real rule in a process started at two OpenBLAS threads: train
    # holds one, so CELL splits, and the caller's two come back afterwards
    result = subprocess_runs["2"]
    if result["blas_threads"] is None:
        pytest.skip("numpy's OpenBLAS thread count cannot be read")
    assert result["blas_threads"] == result["blas_threads_after"] == 2
    # a helper on two CPUs, none on one, and the same bytes
    assert result["chosen"] == [True, False]
    assert result["same"]


@TWO_CPUS
def test_explain_forks_after_the_helper_is_gone(subprocess_runs):
    # at one OpenBLAS thread the helper is the only other thread, so a fork
    # after train sees one thread; at two, OpenBLAS's own threads stay alive
    # and Python 3.12 warns at any fork
    result = subprocess_runs["1"]
    assert result["threads"] == 1
    assert result["workers"] == 2


def test_bytes_fixed_for_a_fixed_blas_thread_count(subprocess_runs):
    # README's contract: the same bytes run to run, and on OpenBLAS the same
    # at one and at two threads, since every fusecast call holds one
    for result in subprocess_runs.values():
        first, second = result["contract"]
        assert first == second
    if subprocess_runs["1"]["blas_threads"] is not None:
        assert subprocess_runs["1"]["contract"] == subprocess_runs["2"]["contract"]
