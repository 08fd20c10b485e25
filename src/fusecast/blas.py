"""The thread and CPU policy. Every fusecast call that reaches BLAS runs inside
:func:`one_thread`, which holds numpy's OpenBLAS at one thread and restores the
caller's count afterwards, so the outputs do not depend on that count. At wide
cells a workspace then splits its conv and Q/K/V GEMMs in two by output rows (see
:func:`splits`, :class:`.nn.Workspace`). If a run's workspace splits and two CPUs
are free, ``train`` opens a helper thread for the run (:func:`use_helper`): its
workspace carries it into the forward and backward passes, and ``adam_step`` hands it
half of its chunks. Without it the same halves run in turn, so the trained
parameters are the same bits on one CPU and on two. The helper runs numpy work only,
never a function called by its module name, and is shut down when ``train`` returns
or raises. ``explain`` forks a worker per CPU past the first (:func:`cpus`). The
same lookup into numpy's OpenBLAS gives :mod:`.series` LAPACK's ``dgttrs``."""

from __future__ import annotations

import contextlib
import ctypes
import functools
import os
import threading
from pathlib import Path

import numpy as np

# multiply-adds of a conv GEMM above which it splits: 2^24 lets mid cells such as
# 10x110 k=3 (17M at B=32) split and keeps every cell of the benchmark's tuning
# space (9.8M at most) whole; at 2^21 the overlap made tune-small's mix of cells
# slower, and a half under ~10^6 could round differently
HELPER_MACS = 1 << 24
# rows per tile of OpenBLAS's one-thread SkylakeX dgemm kernel: halves cut at a
# multiple keep the whole product's bits (measured at 35 wide-cell batch shapes;
# cuts at multiples of 8 or 16 rounded a remainder tile's last columns apart)
SPLIT_TILE = 24


# the C signature, (argtypes, restype), of each OpenBLAS function used here. LAPACK's
# dgttrs takes its 64-bit ints and arrays by address (raw, for the least call
# overhead) and, last, the length of its one string argument
_SIGNATURES = {"get_num_threads": ([], ctypes.c_int), "set_num_threads": ([ctypes.c_int], None),
               "dgttrs": ([ctypes.c_char_p, *[ctypes.c_void_p] * 10, ctypes.c_size_t], None)}


@functools.cache
def _library():
    """numpy's bundled OpenBLAS, opened once, on first use; None if not found."""
    for path in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        try:
            return ctypes.CDLL(str(path))
        except OSError:
            continue
    return None


@functools.cache
def _openblas(name: str):
    """The function ``name`` of :data:`_SIGNATURES` in numpy's OpenBLAS, with its
    C signature set, or None when it cannot be found; looked up once, on first use.
    A LAPACK routine is taken only in its 64-bit-int build."""
    lib = _library()
    for symbol in (f"scipy_openblas_{name}64_", f"openblas_{name}64_", f"openblas_{name}",
                   f"scipy_{name}_64_", f"{name}_64_"):
        fn = getattr(lib, symbol, None)
        if fn is not None:
            fn.argtypes, fn.restype = _SIGNATURES[name]
            return fn
    return None


def threads() -> int | None:
    """The thread count numpy's OpenBLAS reports now, or None if unreadable."""
    fn = _openblas("get_num_threads")
    return None if fn is None else fn()


class _OneThread(contextlib.ContextDecorator):
    """The pin behind :func:`one_thread`. It is process-global and reentrant: a
    depth count under a lock makes the first entry, on any thread, save the count
    and set 1, and the last exit restore it."""

    def __init__(self):
        self._lock, self._depth, self._saved = threading.Lock(), 0, None

    def __enter__(self):
        with self._lock:
            if self._depth == 0:
                set_threads = _openblas("set_num_threads")
                self._saved = threads() if set_threads is not None else None
                if self._saved is not None:
                    set_threads(1)
            self._depth += 1
        return self

    def __exit__(self, *exc):
        with self._lock:
            self._depth -= 1
            if self._depth == 0 and self._saved is not None:
                _openblas("set_num_threads")(self._saved)


_ONE_THREAD = _OneThread()


def one_thread() -> _OneThread:
    """A context manager, usable as a decorator, that holds numpy's OpenBLAS at one
    thread and restores the caller's count on exit, also on an exception. The count
    is process-global, so BLAS calls on the caller's other threads see one thread
    too while it is held. Without OpenBLAS it does nothing."""
    return _ONE_THREAD


def cpus() -> int:
    """The CPUs the process may use now (its affinity mask), at least 1."""
    return (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)


def splits(config, batch: int) -> bool:
    """Whether a ``batch``-row workspace splits: its conv GEMM has more than ``HELPER_MACS``
    multiply-adds and OpenBLAS runs one thread (at more, a half and the whole round apart)."""
    c_in = config.filters if config.cnn_layers > 1 else 1
    macs = config.filters * config.kernel_size * c_in * batch * config.w
    return macs > HELPER_MACS and threads() == 1


def use_helper(split: bool) -> bool:
    """Whether a run opens a helper: its workspace splits, and two CPUs are free."""
    return split and cpus() >= 2


def split_cut(rows: int) -> int:
    """Where a split GEMM cuts its output rows: the multiple of ``SPLIT_TILE``
    nearest the middle, at least one tile and short of all rows; 0, no cut, when
    the rows fit in one tile."""
    return SPLIT_TILE * max(1, round(rows / (2 * SPLIT_TILE))) if rows > SPLIT_TILE else 0
