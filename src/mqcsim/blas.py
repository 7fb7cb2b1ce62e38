"""Scoped thread counts of the OpenBLAS libraries loaded in this process.

numpy and scipy wheels each bundle their own OpenBLAS, and each starts
with ``OPENBLAS_NUM_THREADS`` threads (all cores when unset). The libraries
are found through ``/proc/self/maps`` and driven through ``ctypes``, so
nothing beyond the standard library is needed. The list is read once per
process, on first use; importing mqcsim has already loaded numpy's and
scipy's libraries by then. Where no OpenBLAS is loaded (another BLAS, or a
platform without ``/proc``), every function here does nothing. Importing
this module changes no setting.
"""

from __future__ import annotations

import ctypes
import functools
from collections.abc import Iterator
from contextlib import contextmanager
from pathlib import Path

# (setter, getter) names, as exported by the scipy-openblas wheels and by
# plain OpenBLAS builds with and without the 64-bit integer suffix
_SYMBOLS = tuple(
    (f"{prefix}set_num_threads{suffix}", f"{prefix}get_num_threads{suffix}")
    for prefix in ("scipy_openblas_", "openblas_")
    for suffix in ("64_", "")
)


@functools.cache
def _libraries() -> dict[str, tuple]:
    """Library file name -> (setter, getter) of every loaded OpenBLAS; the
    one cached dict, which callers must not modify."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split(maxsplit=5)[-1].strip() for line in fh
                     if "openblas" in line.lower()}
    except OSError:
        return {}
    out = {}
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for set_name, get_name in _SYMBOLS:
            setter, getter = getattr(lib, set_name, None), getattr(lib, get_name, None)
            if setter is not None and getter is not None:
                setter.argtypes, setter.restype = [ctypes.c_int], None
                getter.argtypes, getter.restype = [], ctypes.c_int
                out[Path(path).name] = (setter, getter)
                break
    return out


def thread_counts() -> dict[str, int]:
    """Thread count of every loaded OpenBLAS, by library file name."""
    return {name: get() for name, (_, get) in _libraries().items()}


def thread_count() -> int | None:
    """The most threads any loaded OpenBLAS uses now; None without OpenBLAS."""
    return max(thread_counts().values(), default=None)


@contextmanager
def threads(n: int) -> Iterator[None]:
    """Run the block with every loaded OpenBLAS on ``n`` threads, and give
    each library back its own count on exit, also when the block raises."""
    libs = list(_libraries().values())
    before = [get() for _, get in libs]
    for set_, _ in libs:
        set_(n)
    try:
        yield
    finally:
        for (set_, _), count in zip(libs, before):
            set_(count)
