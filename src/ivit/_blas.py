"""Thread count of the OpenBLAS that numpy loaded, set for the span of a block.

numpy's Linux wheels bundle a pthreads OpenBLAS under ``numpy.libs``. That
build keeps one thread count for the whole process: even
``openblas_set_num_threads_local`` changes it for every thread, not only the
caller. So `single_threaded` sets the count to 1 on entry and puts the old
count back when the last overlapping block exits. Where no such library or
symbol is found (MKL, Accelerate, a system BLAS) it does nothing.
"""

from __future__ import annotations

import ctypes
import functools
import glob
import os
import threading
from contextlib import AbstractContextManager, contextmanager, nullcontext
from typing import Callable, Iterator

import numpy as np

# (prefix, suffix) around the exported names in the 64-bit-int OpenBLAS of the
# numpy >= 2 wheels (scipy-openblas64) and of the numpy 1.x wheels
_NAME_FORMS = (("scipy_", "64_"), ("", "64_"))


class OpenBLAS:
    """The thread-count getter and setter of one loaded OpenBLAS."""

    def __init__(self, get_num_threads: Callable[[], int], set_num_threads: Callable[[int], None]):
        self.get_num_threads = get_num_threads
        self.set_num_threads = set_num_threads
        self._lock = threading.Lock()
        self._depth = 0  # blocks now inside `single_threaded`
        self._saved = 0  # the count the last of them restores

    @contextmanager
    def single_threaded(self) -> Iterator[None]:
        """Run the block with one thread, in every thread of the process.

        Blocks that overlap (nested, or entered from several threads) share
        one saved count, restored when the last of them exits.
        """
        with self._lock:
            if self._depth == 0:
                self._saved = self.get_num_threads()
                self.set_num_threads(1)
            self._depth += 1
        try:
            yield
        finally:
            with self._lock:
                self._depth -= 1
                if self._depth == 0:
                    self.set_num_threads(self._saved)


def find_openblas(libdir: str) -> OpenBLAS | None:
    """Bind the thread-count getter and setter of an OpenBLAS in ``libdir``, or None."""
    for path in sorted(glob.glob(os.path.join(libdir, "*openblas*"))):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix, suffix in _NAME_FORMS:
            try:
                get = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}")
                set_ = getattr(lib, f"{prefix}openblas_set_num_threads{suffix}")
            except AttributeError:
                continue
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            return OpenBLAS(get, set_)
    return None


@functools.cache
def bundled_openblas() -> OpenBLAS | None:
    """The OpenBLAS in numpy's wheel (loaded with numpy, so binding it loads nothing new)."""
    return find_openblas(os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs"))


def single_threaded() -> AbstractContextManager[None]:
    """`OpenBLAS.single_threaded` on numpy's OpenBLAS, or a no-op block where there is none."""
    blas = bundled_openblas()
    return blas.single_threaded() if blas is not None else nullcontext()
