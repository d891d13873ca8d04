"""Runtime memory objects: global buffers, TMA descriptors, pointers, SMEM.

These are the values that flow through the IR interpreter:

* :class:`GlobalBuffer` -- a tensor in simulated global memory (HBM), backed
  by a NumPy array in functional mode or by nothing but a shape in
  performance mode.
* :class:`TensorDesc` -- a TMA tensor descriptor over a 2-D global buffer.
  Out-of-bounds tile accesses are clamped/zero-filled exactly like TMA does.
* :class:`Pointer` -- a raw pointer (plus optional per-element offsets) used
  by ``tt.load`` / ``tt.store`` epilogues.
* :class:`SmemTile` -- one staging buffer in shared memory.
* :class:`SymbolicTile` -- the stand-in for register tiles in performance
  mode (shape + dtype, no data).
"""

from __future__ import annotations

import mmap
from dataclasses import dataclass
from collections.abc import Sequence

import numpy as np

from repro.ir.types import ScalarType, scalar_type


def _as_scalar_type(dtype: str | ScalarType) -> ScalarType:
    if isinstance(dtype, ScalarType):
        return dtype
    return scalar_type(dtype)


@dataclass
class SymbolicTile:
    """A data-free tile used in performance mode."""

    shape: tuple[int, ...]
    dtype: ScalarType

    @property
    def num_elements(self) -> int:
        n = 1
        for d in self.shape:
            n *= d
        return n

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        dims = "x".join(str(d) for d in self.shape)
        return f"SymbolicTile<{dims}x{self.dtype}>"


class GlobalBuffer:
    """A tensor resident in simulated global memory.

    In functional mode it wraps a NumPy array (stored in the dtype's NumPy
    representation); in performance mode ``data`` is ``None`` and only the
    shape matters.  The *logical* element width (``element_type.bitwidth``) is
    what the bandwidth model uses, so FP8 buffers cost half of FP16 even
    though both are stored as float32/float16 NumPy arrays.
    """

    def __init__(self, shape: Sequence[int], element_type: str | ScalarType,
                 data: np.ndarray | None = None, name: str = "buf"):
        self.shape = tuple(int(s) for s in shape)
        self.element_type = _as_scalar_type(element_type)
        self.name = name
        if data is not None:
            data = np.ascontiguousarray(data, dtype=self.element_type.numpy_dtype)
            if tuple(data.shape) != self.shape:
                data = data.reshape(self.shape)
        self.data = data

    # -- constructors -------------------------------------------------------------

    @classmethod
    def from_numpy(cls, array: np.ndarray, element_type: str | ScalarType,
                   name: str = "buf") -> "GlobalBuffer":
        return cls(array.shape, element_type, data=array, name=name)

    @classmethod
    def empty(cls, shape: Sequence[int], element_type: str | ScalarType,
              functional: bool = True, name: str = "buf") -> "GlobalBuffer":
        data = (np.zeros(shape, dtype=_as_scalar_type(element_type).numpy_dtype)
                if functional else None)
        return cls(shape, element_type, data=data, name=name)

    # -- properties ----------------------------------------------------------------

    @property
    def is_functional(self) -> bool:
        return self.data is not None

    @property
    def num_elements(self) -> int:
        n = 1
        for d in self.shape:
            n *= d
        return n

    @property
    def num_bytes(self) -> int:
        return self.num_elements * self.element_type.bitwidth // 8

    def to_numpy(self) -> np.ndarray:
        if self.data is None:
            raise RuntimeError(f"buffer {self.name!r} has no data (performance mode)")
        return self.data

    # -- tile access (used by TMA) ----------------------------------------------------

    def read_tile(self, coords: Sequence[int], tile_shape: Sequence[int]) -> np.ndarray:
        """Read a tile at ``coords`` with TMA-style zero fill outside bounds.

        The returned tile is always a snapshot (never a view), so callers see
        the buffer's contents at read time even if it is written afterwards.
        Fully in-bounds tiles take a single-copy fast path instead of the
        zero-fill + assign double pass.
        """
        if self.data is None:
            raise RuntimeError("read_tile on a non-functional buffer")
        if len(coords) != len(self.shape):
            raise ValueError(f"rank mismatch: coords {coords} vs buffer shape {self.shape}")
        in_bounds = all(
            0 <= int(c) and int(c) + t <= extent
            for c, t, extent in zip(coords, tile_shape, self.shape)
        )
        if in_bounds:
            slices = tuple(slice(int(c), int(c) + t)
                           for c, t in zip(coords, tile_shape))
            return self.data[slices].copy()
        out = np.zeros(tuple(tile_shape), dtype=self.data.dtype)
        src_slices, dst_slices = [], []
        for c, t, extent in zip(coords, tile_shape, self.shape):
            c = int(c)
            lo = max(c, 0)
            hi = min(c + t, extent)
            if hi <= lo:
                return out
            src_slices.append(slice(lo, hi))
            dst_slices.append(slice(lo - c, hi - c))
        out[tuple(dst_slices)] = self.data[tuple(src_slices)]
        return out

    def write_tile(self, coords: Sequence[int], tile: np.ndarray) -> None:
        if self.data is None:
            return
        src_slices, dst_slices = [], []
        for c, t, extent in zip(coords, tile.shape, self.shape):
            c = int(c)
            lo = max(c, 0)
            hi = min(c + t, extent)
            if hi <= lo:
                return
            dst_slices.append(slice(lo, hi))
            src_slices.append(slice(lo - c, hi - c))
        self.data[tuple(dst_slices)] = tile[tuple(src_slices)].astype(self.data.dtype)

    # -- flat (pointer) access ----------------------------------------------------------

    def gather(self, offsets: np.ndarray, mask: np.ndarray | None = None,
               other: float = 0.0) -> np.ndarray:
        if self.data is None:
            raise RuntimeError("gather on a non-functional buffer")
        flat = self.data.reshape(-1)
        offsets = np.asarray(offsets, dtype=np.int64)
        valid = (offsets >= 0) & (offsets < flat.size)
        if mask is not None:
            valid = valid & mask.astype(bool)
        safe = np.where(valid, offsets, 0)
        out = flat[safe]
        return np.where(valid, out, np.asarray(other, dtype=flat.dtype))

    def scatter(self, offsets: np.ndarray, values: np.ndarray,
                mask: np.ndarray | None = None) -> None:
        if self.data is None:
            return
        flat = self.data.reshape(-1)
        offsets = np.asarray(offsets, dtype=np.int64)
        values = np.broadcast_to(np.asarray(values, dtype=flat.dtype), offsets.shape)
        valid = (offsets >= 0) & (offsets < flat.size)
        if mask is not None:
            valid = valid & np.broadcast_to(mask.astype(bool), offsets.shape)
        flat[offsets[valid]] = values[valid]

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        dims = "x".join(str(d) for d in self.shape)
        mode = "functional" if self.is_functional else "symbolic"
        return f"GlobalBuffer({self.name}: {dims}x{self.element_type}, {mode})"


@dataclass
class TensorDesc:
    """A TMA tensor descriptor over a (rank-2) global buffer."""

    buffer: GlobalBuffer

    @property
    def element_type(self) -> ScalarType:
        return self.buffer.element_type

    @property
    def rank(self) -> int:
        return len(self.buffer.shape)

    @property
    def ir_type(self):
        from repro.ir.types import TensorDescType

        return TensorDescType(self.element_type, self.rank)

    def tile_bytes(self, tile_shape: Sequence[int]) -> int:
        n = 1
        for d in tile_shape:
            n *= int(d)
        return n * self.element_type.bitwidth // 8


@dataclass
class Pointer:
    """A pointer into a global buffer, optionally with per-element offsets.

    ``offsets`` is either a Python int (scalar pointer) or an integer NumPy
    array (a tensor of pointers produced by ``tt.addptr``); offsets are in
    elements of the underlying buffer.
    """

    buffer: GlobalBuffer
    offsets: int | np.ndarray = 0

    @property
    def element_type(self) -> ScalarType:
        return self.buffer.element_type

    @property
    def ir_type(self):
        from repro.ir.types import PointerType

        return PointerType(self.element_type)

    def offset_by(self, delta: int | np.ndarray) -> "Pointer":
        return Pointer(self.buffer, self.offsets + delta)

    @property
    def shape(self) -> tuple[int, ...]:
        if isinstance(self.offsets, np.ndarray):
            return tuple(self.offsets.shape)
        return ()


def _reachable_buffers(values) -> "list[GlobalBuffer]":
    buffers = []
    for value in values:
        if isinstance(value, (Pointer, TensorDesc)):
            buffers.append(value.buffer)
        elif isinstance(value, GlobalBuffer):
            buffers.append(value)
    return buffers


def _align_up(value: int, align: int) -> int:
    return (value + align - 1) & ~(align - 1)


@dataclass
class ArenaPlacement:
    """One buffer's residence in a :class:`SharedArena` for one launch."""

    buffer: "GlobalBuffer"
    offset: int
    nbytes: int


class SharedArena:
    """One reusable anonymous ``MAP_SHARED`` region, bump-allocated per launch.

    The persistent worker pool (:mod:`repro.gpusim.pool`) maps a single
    sized-up shared region when it is created -- *before* its workers fork,
    so every worker (including later respawns, which re-fork from the parent)
    inherits the same mapping.  Each launch then *places* its reachable
    buffers into the arena (bump allocation + one copy in), workers write
    their output tiles straight into the shared views, and the merge
    *restores* the buffers to private memory and recycles the bump pointer:
    two memcpys per launch, and no mapping is created or torn down.

    The region's size is accounted in the ``parallel_shared_bytes`` gauge for
    its whole lifetime (creation to :meth:`close`), since the mapping is live
    that whole time regardless of how much of it the current launch uses.
    """

    #: Bump-allocation granularity (cache-line aligned views).
    ALIGN = 64

    def __init__(self, nbytes: int):
        nbytes = int(nbytes)
        if nbytes <= 0:
            raise ValueError(f"arena size must be positive, got {nbytes}")
        from repro.perf.counters import COUNTERS

        self.nbytes = nbytes
        self._backing: mmap.mmap | None = mmap.mmap(-1, nbytes)
        self._offset = 0
        COUNTERS.parallel_shared_bytes += nbytes

    # -- bump allocation ----------------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._backing is None

    @property
    def used(self) -> int:
        """Bytes the current launch has bump-allocated."""
        return self._offset

    def view(self, offset: int, shape: Sequence[int], dtype) -> np.ndarray:
        """A NumPy view over ``[offset, offset + size)`` of the region."""
        if self._backing is None:
            raise RuntimeError("view() on a closed arena")
        dtype = np.dtype(dtype)
        shape = tuple(int(s) for s in shape)
        count = int(np.prod(shape, dtype=np.int64))
        return np.frombuffer(self._backing, dtype=dtype, count=count,
                             offset=offset).reshape(shape)

    def recycle(self) -> None:
        """Reset the bump pointer; the next launch reuses the whole region."""
        self._offset = 0

    # -- per-launch buffer residency ----------------------------------------------

    def place_buffers(self, values) -> list | None:
        """Move every buffer reachable from launch arguments into the arena.

        Returns the placements (to hand back to :meth:`restore_buffers` at
        merge), or ``None`` -- without side effects -- when the launch does
        not fit or reaches a data-free buffer; the caller then runs the
        launch serially in-process.
        """
        if self._backing is None:
            return None
        buffers: list = []
        seen = set()
        for buffer in _reachable_buffers(values):
            if id(buffer) not in seen:
                seen.add(id(buffer))
                buffers.append(buffer)
        if any(buffer.data is None for buffer in buffers):
            return None
        # Dry-run the bump allocation first so an oversized launch is
        # rejected before any buffer has moved.
        offset = self._offset
        offsets = []
        for buffer in buffers:
            offset = _align_up(offset, self.ALIGN)
            offsets.append(offset)
            offset += buffer.data.nbytes
        if offset > self.nbytes:
            return None
        placements = []
        for buffer, start in zip(buffers, offsets):
            view = self.view(start, buffer.data.shape, buffer.data.dtype)
            view[...] = buffer.data
            buffer.data = view
            placements.append(ArenaPlacement(buffer, start, view.nbytes))
        self._offset = offset
        return placements

    def restore_buffers(self, placements) -> None:
        """Evacuate placed buffers back to private memory and recycle.

        Runs exactly once per launch, on every exit path (merge, serial
        fallback, worker-reported error, abort); the copy-out is what makes
        the recycled region safe to overwrite by the next launch.
        """
        for placement in placements:
            placement.buffer.data = np.array(placement.buffer.data, copy=True)
        self.recycle()

    # -- teardown -----------------------------------------------------------------

    def close(self) -> None:
        """Unmap the region (idempotent); the gauge drops to its pre-arena value.

        Safe only once every placed buffer has been restored and the pool's
        workers are gone; a still-exported view keeps the mapping (and its
        gauge contribution) alive.
        """
        backing = self._backing
        if backing is None:
            return
        from repro.perf.counters import COUNTERS

        try:
            backing.close()
        except BufferError:  # pragma: no cover - an external view survives
            return
        self._backing = None
        COUNTERS.parallel_shared_bytes -= self.nbytes


class SmemTile:
    """One staging buffer in shared memory (possibly a ring of slots).

    ``data`` is a NumPy array in functional mode or ``None`` in performance
    mode; ``logical_bytes`` counts the footprint with the IR element width.
    """

    def __init__(self, shape: Sequence[int], element_type: ScalarType,
                 functional: bool, name: str = "smem"):
        self.shape = tuple(int(s) for s in shape)
        self.element_type = element_type
        self.name = name
        n = 1
        for d in self.shape:
            n *= d
        self.num_elements = n
        self.logical_bytes = n * element_type.bitwidth // 8
        self.data: np.ndarray | None = (
            np.zeros(self.shape, dtype=element_type.numpy_dtype) if functional else None
        )
        # Views are stateless (parent + slot index), so the ring caches one
        # per slot instead of allocating a fresh view on every smem_slice.
        self._views: dict = {}

    def slice(self, index: int) -> "SmemTileView":
        index = int(index) % self.shape[0]
        view = self._views.get(index)
        if view is None:
            view = SmemTileView(self, index)
            self._views[index] = view
        return view

    def __repr__(self) -> str:  # pragma: no cover
        dims = "x".join(str(d) for d in self.shape)
        return f"SmemTile({self.name}: {dims}x{self.element_type})"


class SmemTileView:
    """A single slot of a ring staging buffer."""

    __slots__ = ("parent", "index", "shape", "element_type", "num_elements",
                 "logical_bytes")

    def __init__(self, parent: SmemTile, index: int):
        self.parent = parent
        self.index = index
        self.shape = parent.shape[1:]
        self.element_type = parent.element_type
        n = 1
        for d in self.shape:
            n *= d
        self.num_elements = n
        self.logical_bytes = n * parent.element_type.bitwidth // 8

    def read(self) -> np.ndarray | SymbolicTile:
        if self.parent.data is None:
            return SymbolicTile(self.shape, self.element_type)
        return self.parent.data[self.index]

    def write(self, tile) -> None:
        if self.parent.data is None:
            return
        tile = np.asarray(tile, dtype=self.parent.data.dtype)
        self.parent.data[self.index] = tile.reshape(self.shape)

    def __repr__(self) -> str:  # pragma: no cover
        return f"SmemTileView({self.parent.name}[{self.index}])"
