"""Columnar execution buffers (the vectorized kernels' storage layer).

The per-point oracle implementations in :mod:`repro.operators` derive one
small Python object per row (``subwindow`` → ``dataclasses.replace`` →
``__post_init__`` validation) and run one small numpy call per chunk.
Columnar mode replaces that churn with *contiguous column buffers* —
coordinates, values, and validity masks each live in one flat allocation
— so whole frames and row bands are transformed by single batch
operations.

A :class:`ColumnBuffer` is one zero-filled numpy allocation, and every
kernel *computes* through flat numpy views over its bytes, which is what
makes the oracle-equivalence contract exact: the
columnar kernels perform the same elementwise float operations, in the
same dtype and the same element order, as the per-point implementations
they replace — delivered chunks are bit-identical, not approximately
equal (see ``docs/columnar.md`` and ``tests/test_columnar_differential``).

Execution-mode selection lives here too: ``resolve_columnar`` combines an
explicit ``columnar=`` argument (pipelines, plan lowering, ``PlanDAG``,
``DSMSServer``) with the ``REPRO_COLUMNAR`` environment default used by
the CI matrix leg that runs the whole suite in columnar mode.

This module is timing-free and mypy-strict; it never imports operators.
"""

from __future__ import annotations

import os

import numpy as np

from .lattice import GridLattice

__all__ = [
    "columnar_default",
    "resolve_columnar",
    "ColumnBuffer",
    "MaskBuffer",
    "FrameAccumulator",
    "BandAccumulator",
    "RollingCanvas",
    "coordinate_columns",
]

# Environment flag. Read per call (not cached at import) so test suites
# can flip modes with monkeypatch.setenv without reload gymnastics.
_COLUMNAR_ENV = "REPRO_COLUMNAR"

_FALSY = ("", "0", "false", "no", "off")


def _env_flag(name: str) -> bool:
    return os.environ.get(name, "").strip().lower() not in _FALSY


def columnar_default() -> bool:
    """Process-wide default execution mode (``REPRO_COLUMNAR=1``)."""
    return _env_flag(_COLUMNAR_ENV)


def resolve_columnar(explicit: bool | None = None) -> bool:
    """Resolve an execution-mode request: explicit flag wins, else env."""
    if explicit is not None:
        return bool(explicit)
    return columnar_default()


class ColumnBuffer:
    """One contiguous, fixed-capacity column of scalar values.

    The storage is a zero-filled numpy array; kernels read and write
    through :meth:`view`, the flat ndarray itself.
    """

    __slots__ = ("dtype", "capacity", "_view")

    def __init__(self, dtype: np.dtype | type, capacity: int) -> None:
        self.dtype = np.dtype(dtype)
        self.capacity = int(capacity)
        self._view = np.zeros(self.capacity, dtype=self.dtype)

    def view(self) -> np.ndarray:
        """Flat zero-copy ndarray over the buffer's bytes."""
        return self._view

    def fill(self, value: float) -> None:
        self._view[:] = value

    @property
    def nbytes(self) -> int:
        return self.capacity * self.dtype.itemsize


class MaskBuffer:
    """A contiguous validity-mask column (uint8-backed booleans)."""

    __slots__ = ("_buf",)

    def __init__(self, capacity: int) -> None:
        self._buf = ColumnBuffer(np.uint8, capacity)

    def store(self, mask: np.ndarray) -> np.ndarray:
        """Copy a boolean mask into the buffer; return the stored view."""
        flat = self._buf.view()[: mask.size]
        flat[:] = mask.reshape(-1)
        return flat.view(np.bool_).reshape(mask.shape)

    def view(self, shape: tuple[int, ...]) -> np.ndarray:
        n = 1
        for dim in shape:
            n *= dim
        return self._buf.view()[:n].view(np.bool_).reshape(shape)


class FrameAccumulator:
    """Growable float64 column accumulating one frame's values in order.

    ``append`` pastes a chunk's values at the running offset; assignment
    into the float64 view performs exactly the cast the per-point oracle
    does with ``values.astype(np.float64).ravel()``, so :meth:`values`
    equals the oracle's ``np.concatenate`` of per-chunk casts bit for bit.
    """

    __slots__ = ("_buf", "_size")

    def __init__(self, capacity: int = 4096) -> None:
        self._buf = ColumnBuffer(np.float64, max(int(capacity), 16))
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def _ensure(self, extra: int) -> None:
        need = self._size + extra
        if need <= self._buf.capacity:
            return
        capacity = self._buf.capacity
        while capacity < need:
            capacity *= 2
        grown = ColumnBuffer(np.float64, capacity)
        grown.view()[: self._size] = self._buf.view()[: self._size]
        self._buf = grown

    def append(self, values: np.ndarray) -> tuple[int, int]:
        """Paste ``values`` (any shape) flat; return (offset, size)."""
        flat = values.reshape(-1)
        self._ensure(flat.size)
        offset = self._size
        self._buf.view()[offset : offset + flat.size] = flat
        self._size = offset + flat.size
        return offset, flat.size

    def values(self) -> np.ndarray:
        """Flat float64 view of everything appended so far."""
        return self._buf.view()[: self._size]

    def clear(self) -> None:
        self._size = 0


class BandAccumulator:
    """A k-row band of same-width rows in the source dtype (for Coarsen).

    Equivalent to the oracle's ``np.vstack`` of k buffered row chunks,
    built incrementally with one paste per row instead of k chunk objects.
    """

    __slots__ = ("_buf", "row_shape", "k", "dtype", "rows")

    def __init__(self, dtype: np.dtype, k: int, row_shape: tuple[int, ...]) -> None:
        self.dtype = np.dtype(dtype)
        self.k = int(k)
        self.row_shape = tuple(int(d) for d in row_shape)
        n = self.k
        for dim in self.row_shape:
            n *= dim
        self._buf = ColumnBuffer(self.dtype, n)
        self.rows = 0

    def matches(self, dtype: np.dtype, row_shape: tuple[int, ...]) -> bool:
        return np.dtype(dtype) == self.dtype and tuple(row_shape) == self.row_shape

    def set_row(self, i: int, values: np.ndarray) -> None:
        grid = self.stack()
        grid[i] = values

    def stack(self) -> np.ndarray:
        """(k, *row_shape) view over the band buffer."""
        return self._buf.view().reshape((self.k,) + self.row_shape)

    def clear(self) -> None:
        self.rows = 0


class RollingCanvas:
    """A NaN-initialized float64 frame canvas (for resampling operators).

    Source rows are pasted once on arrival (at their column offset, so
    partial rows behave like the oracle's per-row paste) and output rows
    slice a contiguous row-band window. Rows that never arrive stay NaN —
    the oracle's "missing row" representation.
    """

    __slots__ = ("height", "width", "_buf")

    def __init__(self, height: int, width: int) -> None:
        self.height = int(height)
        self.width = int(width)
        self._buf = ColumnBuffer(np.float64, self.height * self.width)
        self._buf.fill(np.nan)

    def grid(self) -> np.ndarray:
        return self._buf.view().reshape(self.height, self.width)

    def reset(self) -> None:
        self._buf.fill(np.nan)

    def paste_row(self, row: int, col0: int, values: np.ndarray) -> None:
        """Paste one source row (cast to float64 by assignment)."""
        self.grid()[row, col0 : col0 + values.shape[-1]] = values

    def clear_row(self, row: int) -> None:
        self.grid()[row, :] = np.nan

    def rows(self, lo: int, hi: int) -> np.ndarray:
        """Contiguous view of source rows ``lo .. hi-1``."""
        return self.grid()[lo:hi]


# -- shared geometry caches ---------------------------------------------------
#
# Lattices are frozen (hashable, content-compared) so coordinate columns
# derived from them are content-keyed: a cache hit returns bit-identical
# arrays to recomputation. Row-by-row streams repeat the same row lattices
# every frame, which is what makes these caches pay.

_COORD_CACHE: dict[GridLattice, tuple[np.ndarray, np.ndarray]] = {}
_COORD_CACHE_MAX = 4096


def coordinate_columns(lattice: GridLattice) -> tuple[np.ndarray, np.ndarray]:
    """Cached (x, y) coordinate arrays of ``lattice.meshgrid()``.

    The arrays are materialized once into contiguous column buffers and
    shared by reference afterwards; callers must not mutate them.
    """
    cached = _COORD_CACHE.get(lattice)
    if cached is None:
        if len(_COORD_CACHE) >= _COORD_CACHE_MAX:
            _COORD_CACHE.clear()
        mx, my = lattice.meshgrid()
        xs = ColumnBuffer(np.float64, mx.size)
        ys = ColumnBuffer(np.float64, my.size)
        xs.view()[:] = mx.reshape(-1)
        ys.view()[:] = my.reshape(-1)
        cached = (xs.view().reshape(mx.shape), ys.view().reshape(my.shape))
        _COORD_CACHE[lattice] = cached
    return cached
