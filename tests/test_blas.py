"""The thread and CPU policy in one module: numpy's OpenBLAS is opened once
per process, the CPU count is read at each call, and one CPU count decides
both training's helper thread and explain's worker processes."""

import ctypes
import multiprocessing
import os
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from fusecast import blas
from fusecast.explain import ExplainConfig, explain
from fusecast.nn import ModelConfig, init_params
from fusecast.series import WindowedDataset
from fusecast.train import TrainConfig

train_module = sys.modules["fusecast.train"]

# a wide cell, above HELPER_MACS at B=32, and a cell small enough to train
# quickly whose GEMMs still cut inside their rows when forced to split
WIDE = ModelConfig(w=15, cnn_layers=2, filters=128, kernel_size=5, heads=2, seed=3)
SMALL = ModelConfig(w=9, cnn_layers=3, filters=52, kernel_size=3, heads=3, seed=1)


def test_openblas_is_opened_at_most_once(monkeypatch):
    opened, real = [], ctypes.CDLL

    def counting(*args, **kwargs):
        opened.append(args[0])
        return real(*args, **kwargs)

    blas._openblas.cache_clear()
    monkeypatch.setattr(ctypes, "CDLL", counting)
    for batch in (32, 32, 17, 32):
        blas.splits(WIDE, batch)
    assert len({blas.threads() for _ in range(3)}) == 1
    assert len(opened) <= 1


def test_thread_count_is_read_at_each_call():
    # the library is cached, not the count: each split decision reads it anew
    set_threads, before = blas._openblas("set_num_threads"), blas.threads()
    if set_threads is None or before is None:
        pytest.skip("numpy's OpenBLAS thread count cannot be set")
    set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
    try:
        set_threads(1)
        assert blas.threads() == 1 and blas.splits(WIDE, 32)
        set_threads(2)
        assert blas.threads() == 2 and not blas.splits(WIDE, 32)
    finally:
        set_threads(before)


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
