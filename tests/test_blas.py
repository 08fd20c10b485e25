"""The thread and CPU policy in one module: numpy's OpenBLAS is opened once
per process, every fusecast call that reaches BLAS holds it at one thread
and gives the caller's count back, the CPU count is read at each call, and
one CPU count decides both training's helper thread and explain's worker
processes."""

import ctypes
import multiprocessing
import os
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from fusecast import bayesopt, blas
from fusecast.errors import DivergedLoss, EmptyDataset, ShapeMismatch
from fusecast.explain import ExplainConfig, explain
from fusecast.nn import ModelConfig, init_params
from fusecast.series import ScalerParams, WindowedDataset
from fusecast.train import TrainConfig

train_module = sys.modules["fusecast.train"]
explain_module = sys.modules["fusecast.explain"]

# a wide cell, above HELPER_MACS at B=32, and a cell small enough to train
# quickly whose GEMMs still cut inside their rows when forced to split
WIDE = ModelConfig(w=15, cnn_layers=2, filters=128, kernel_size=5, heads=2, seed=3)
SMALL = ModelConfig(w=9, cnn_layers=3, filters=52, kernel_size=3, heads=3, seed=1)


@pytest.fixture
def set_threads():
    """numpy's OpenBLAS thread setter, and the caller's count back afterwards."""
    setter, before = blas._openblas("set_num_threads"), blas.threads()
    if setter is None or before is None:
        pytest.skip("numpy's OpenBLAS thread count cannot be set")
    yield setter
    setter(before)


def test_openblas_is_opened_at_most_once(monkeypatch):
    opened, real = [], ctypes.CDLL

    def counting(*args, **kwargs):
        opened.append(args[0])
        return real(*args, **kwargs)

    blas._library.cache_clear()
    blas._openblas.cache_clear()
    monkeypatch.setattr(ctypes, "CDLL", counting)
    for batch in (32, 32, 17, 32):
        blas.splits(WIDE, batch)
    assert len({blas.threads() for _ in range(3)}) == 1
    for name in ("get_num_threads", "set_num_threads"):
        blas._openblas(name)
    with blas.one_thread():
        pass
    assert len(opened) <= 1


def test_thread_count_is_read_at_each_call(set_threads):
    # the library is cached, not the count: each split decision reads it anew
    for count in (1, 2):
        set_threads(count)
        assert blas.threads() == count and blas.splits(WIDE, 32) == (count == 1)
        with blas.one_thread():
            assert blas.threads() == 1 and blas.splits(WIDE, 32)
        assert blas.threads() == count


def _entry_point_calls():
    """A call of each of fusecast's four BLAS entry points, by name, and train
    raising DivergedLoss."""
    rng = np.random.default_rng(0)
    data = WindowedDataset(rng.normal(size=(40, SMALL.w)), rng.normal(size=40), SMALL.w)
    params, windows = init_params(SMALL), rng.normal(size=(5, SMALL.w))

    def diverged():
        with np.errstate(all="ignore"), pytest.raises(DivergedLoss):
            train_module.train(SMALL, TrainConfig(epochs=3, learning_rate=1e40, seed=2), data)

    return {
        "train": lambda: train_module.train(SMALL, TrainConfig(epochs=1, seed=2), data),
        "train-diverged": diverged,
        "predict_batch": lambda: train_module.predict_batch(params, windows),
        "forecast_recursive": lambda: train_module.forecast_recursive(
            params, ScalerParams(0.0, 1.0), windows[0], 3),
        "explain": lambda: explain(params, windows[0], windows,
                                   ExplainConfig(background_size=5, sample_permutations=4)),
    }


@pytest.mark.parametrize("count", [1, 2])
@pytest.mark.parametrize("entry", list(_entry_point_calls()))
def test_entry_points_hold_one_thread_and_restore_the_count(entry, count, set_threads,
                                                            monkeypatch):
    seen = []
    for module in (train_module, explain_module):
        def recording(*args, forward=module._forward_batch, **kwargs):
            seen.append(blas.threads())
            return forward(*args, **kwargs)

        monkeypatch.setattr(module, "_forward_batch", recording)
    # explain's coalitions in-process, so that their calls are seen too
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    set_threads(count)
    _entry_point_calls()[entry]()
    assert seen and set(seen) == {1}
    assert blas.threads() == count


@pytest.mark.parametrize("count", [1, 2])
def test_tune_holds_one_thread_through_its_gp(count, set_threads, monkeypatch):
    # the GP's Cholesky and solves run on numpy's OpenBLAS: tune pins it too
    seen = []

    def recording(*args, fit=bayesopt.gp_fit, **kwargs):
        seen.append(blas.threads())
        return fit(*args, **kwargs)

    def objective(cfg):
        seen.append(blas.threads())
        return float(cfg["filters"] + cfg["heads"])

    monkeypatch.setattr(bayesopt, "gp_fit", recording)
    space = bayesopt.SearchSpace(cnn_layers=(1, 3), heads=(1, 2), filters=(4, 8),
                                 kernel_size=(2, 3))
    set_threads(count)
    bayesopt.tune(objective, space, budget=6, init=3, pool_size=16)
    assert len(seen) == 6 + 3 and set(seen) == {1}
    assert blas.threads() == count


def test_trials_hold_one_thread_while_they_run(set_threads):
    # the pin is taken in the iteration, not when the stream is made, and a
    # stream closed part way gives the count back
    space = bayesopt.SearchSpace(cnn_layers=(1, 3), heads=(1, 2), filters=(4, 8),
                                 kernel_size=(2, 3))
    seen = []

    def objective(cfg):
        seen.append(blas.threads())
        return float(cfg["filters"])

    set_threads(2)
    stream = bayesopt.trials(objective, space, budget=4, init=3, pool_size=16)
    assert blas.threads() == 2
    next(stream)
    assert blas.threads() == 1
    stream.close()
    assert blas.threads() == 2
    assert len(list(bayesopt.trials(objective, space, budget=4, init=3, pool_size=16))) == 4
    assert seen == [1] * 5 and blas.threads() == 2


def test_epochs_hold_one_thread_while_they_run(set_threads):
    # as with the trials: the data is checked when the stream is made, the pin
    # is taken at the first epoch, and a stream closed part way gives the
    # count back
    rng = np.random.default_rng(0)
    params, tconfig = init_params(SMALL), TrainConfig(epochs=3, seed=2)
    set_threads(2)
    for n, w, error in ((0, SMALL.w, EmptyDataset), (40, SMALL.w + 1, ShapeMismatch)):
        with pytest.raises(error):
            train_module.epochs(params, tconfig, WindowedDataset(
                rng.normal(size=(n, w)), rng.normal(size=n), w))
    data = WindowedDataset(rng.normal(size=(40, SMALL.w)), rng.normal(size=40), SMALL.w)
    stream = train_module.epochs(params, tconfig, data)
    assert blas.threads() == 2
    next(stream)
    assert blas.threads() == 1
    stream.close()
    assert blas.threads() == 2


def test_pin_holds_until_the_last_thread_leaves(set_threads):
    # two threads whose pins overlap: the first to leave must not restore the
    # count while the other is still inside
    set_threads(2)
    first_in, first_out, seen = threading.Event(), threading.Event(), {}

    def first():
        with blas.one_thread():
            with blas.one_thread():
                first_in.set()
            seen["first"] = blas.threads()
        first_out.set()

    @blas.one_thread()
    def second():
        first_in.wait(10)
        seen["second, first inside"] = blas.threads()
        first_out.wait(10)
        seen["second, first gone"] = blas.threads()

    threads = [threading.Thread(target=second), threading.Thread(target=first)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(10)
    assert first_in.is_set() and first_out.is_set()
    assert seen == {"first": 1, "second, first inside": 1, "second, first gone": 1}
    assert blas.threads() == 2


def test_cpus_follow_the_affinity_mask(monkeypatch):
    for mask in ({0}, {0, 1, 2}, {1, 3}):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, mask=mask: mask,
                            raising=False)
        assert blas.cpus() == len(mask)


@pytest.mark.parametrize("cpus", [1, 2])
def test_one_cpu_count_decides_helper_and_workers(cpus, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    # every workspace splits, so the CPU count alone decides the helper
    monkeypatch.setattr(blas, "splits", lambda config, batch: True)
    opened = []

    def recording(*args):
        opened.append(ThreadPoolExecutor(*args))
        return opened[-1]

    monkeypatch.setattr(train_module, "ThreadPoolExecutor", recording)
    rng = np.random.default_rng(0)
    data = WindowedDataset(rng.normal(size=(40, SMALL.w)), rng.normal(size=40), SMALL.w)
    train_module.train(SMALL, TrainConfig(epochs=1, batch_size=16, seed=2), data)
    assert len(opened) == (cpus >= 2)

    result = explain(init_params(ModelConfig(w=15, seed=2)), rng.normal(size=15),
                     rng.normal(size=(8, 15)),
                     ExplainConfig(background_size=8, sample_permutations=10))
    forks = "fork" in multiprocessing.get_all_start_methods()
    assert result.workers == (cpus if forks else 1)


def test_split_cut_leaves_rows_on_both_sides():
    # rows that fit in one tile are not cut: a cut at all of them left the
    # second half empty
    assert [blas.split_cut(rows) for rows in (1, 23, 24)] == [0, 0, 0]
    assert [blas.split_cut(rows) for rows in (25, 72, 110, 256)] == [24, 48, 48, 120]
    for rows in range(blas.SPLIT_TILE + 1, 1000):
        cut = blas.split_cut(rows)
        assert 0 < cut < rows and cut % blas.SPLIT_TILE == 0


def test_pin_under_contention(set_threads):
    # more threads than CPUs entering and leaving at once, with frequent
    # switches: a lost depth update would let a thread inside see two
    # threads, or leave the count at one afterwards
    set_threads(2)
    seen, rounds, start = [], 1000, threading.Barrier(4)

    def hold():
        start.wait(10)
        for _ in range(rounds):
            with blas.one_thread():
                seen.append(blas.threads())

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=hold) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(seen) == 4 * rounds and set(seen) == {1}
    assert blas.threads() == 2
