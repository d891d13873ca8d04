"""The op-semantics table: every op the simulator executes, declared once.

The three CTA engines -- the IR interpreter (:mod:`repro.gpusim.interpreter`),
compile-once execution plans (:mod:`repro.gpusim.plan`) and the vectorized
codegen (:mod:`repro.gpusim.codegen`) -- read everything op-specific from
:data:`OPS`, a dict from op name to :class:`OpDef` (in the style of tinygrad's
``code_for_op``).  An entry declares:

* **payload** -- ``payload(op, site)`` returns the eager NumPy semantics of
  ``op`` as a function of its resolved operand values (preceded by the
  :class:`~repro.gpusim.interpreter.CtaContext` when ``ctx`` is set).  Ops
  whose effects depend on runtime values declare ``run`` instead: a
  generator function ``(ctx, *values)`` that yields its effects and returns
  the tuple of result values.  ``cta`` ops read a CTA-level input
  (:data:`CTA_INPUTS`).
* **timing** -- ``effects(op, site)``: the static effects yielded before the
  payload runs: the CUDA-core :class:`Delay` (with the transcendental
  factor), memory delays, :class:`WgmmaIssue` and friends.
* **data** -- the payload moves tile data: when the data is not real
  (performance mode, or an observer replica of a plan) a tensor result is a
  :class:`SymbolicTile`, a scalar result takes ``placeholder`` and a write is
  skipped (:func:`stand_in`).
* **plan facts** -- ``fold`` (evaluated at plan time when every operand is a
  constant), ``taint`` (the value may hold a shared-memory view or runtime
  ring: ``"always"``, or ``"operand"`` when it passes its operand's through),
  ``pinned`` (never batched into a delay chain), ``coalesce`` (its delays may
  be batched: ``"always"``, or ``"untainted"`` unless it reads a tainted
  value) and ``observer_unsafe`` (replicas could diverge or publish data
  through it).
* **fast** -- ``fast(op)`` gives the Python-operator scalar fast path and the
  operand types it is exact for; plans take it when both operands are plain
  Python scalars of those types.
* **cg / src** -- the codegen rule that tags the result and the NumPy source
  template it formats (a string, a ``(uniform, varying)`` pair, or a
  function of the op returning either).  Elementwise payloads are compiled
  from the same template, so the eager and the emitted semantics cannot
  drift apart.

A *site* is the engine binding an op.  It exposes ``config``,
``work_fraction``, ``role``, ``delay(cycles)`` and ``real(op)`` (whether the
op's data is real in the variant being executed or built).

Adding an op is one entry here plus one case in ``tests/test_ops_golden.py``.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import partial
from typing import Any

import numpy as np

from repro.gpusim.engine import (
    ArefGet,
    ArefPut,
    ArefSlotRuntime,
    CpAsyncIssue,
    CpAsyncWait,
    CtaBarrier,
    Delay,
    MBarrier,
    SimulationError,
    TmaIssue,
    WaitBarrier,
    WgmmaIssue,
    WgmmaWait,
)
from repro.gpusim.memory import Pointer, SmemTile, SmemTileView, SymbolicTile
from repro.ir.types import ScalarType, TensorType


class InterpreterError(SimulationError):
    """Raised when an engine meets an op or a value it cannot execute."""


# ---------------------------------------------------------------------------
# Runtime values
# ---------------------------------------------------------------------------


@dataclass
class ArefRuntime:
    """Runtime state of a tawa.create_aref ring (mid-level interpretation)."""

    depth: int
    slots: list[ArefSlotRuntime] = field(default_factory=list)

    @classmethod
    def create(cls, depth: int, name: str) -> "ArefRuntime":
        return cls(depth, [ArefSlotRuntime(f"{name}[{i}]") for i in range(depth)])

    def slot(self, index: int) -> ArefSlotRuntime:
        return self.slots[int(index) % self.depth]


class _TransposedView:
    """Marker wrapping an SMEM view whose logical layout is transposed."""

    def __init__(self, view: SmemTileView):
        self.view = view
        self.shape = tuple(reversed(view.shape))
        self.element_type = view.element_type

    def read(self):
        data = self.view.read()
        if isinstance(data, SymbolicTile):
            return SymbolicTile(self.shape, self.element_type)
        return np.transpose(data)


def _as_array(value: Any) -> Any:
    """Materialize an SMEM view into an array; pass anything else through."""
    if isinstance(value, (SmemTileView, _TransposedView)):
        return value.read()
    return value


def _matmul(a, b, acc):
    if isinstance(a, SymbolicTile) or isinstance(b, SymbolicTile):
        return SymbolicTile((a.shape[0], b.shape[1]), a.dtype)
    out = np.matmul(np.asarray(a, dtype=np.float32), np.asarray(b, dtype=np.float32))
    if acc is not None and not isinstance(acc, SymbolicTile):
        out = out + np.asarray(acc, dtype=np.float32)
    return out


def _to_python_scalar(value: Any, ty: ScalarType):
    if isinstance(value, SymbolicTile):
        return value
    if hasattr(value, "item"):
        value = value.item()
    if ty.is_integer and ty.name != "i1":
        return int(value)
    if ty.name == "i1":
        return bool(value)
    return float(value)


def _literal(value) -> str:
    """Python source of a constant (inf/-inf/nan have no literal repr)."""
    if isinstance(value, float) and not math.isfinite(value):
        return f"float({str(value)!r})"
    return repr(value)


def _dtype(op) -> str:
    """NumPy dtype name of the op's tensor result."""
    return op.result.type.element_type.numpy_dtype.name


def _tensor_elements(op) -> int:
    """Element count of the op's first tensor result (0 for scalar ops)."""
    for res in op.results:
        if isinstance(res.type, TensorType):
            return res.type.num_elements
    return 0


# ---------------------------------------------------------------------------
# The entry type and the helpers entries are built from
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OpDef:
    """One op's entry in :data:`OPS` (the fields are described above)."""

    payload: Callable | None = None
    effects: Callable | None = None
    run: Callable | None = None
    cta: Callable | None = None
    ctx: bool = False
    data: bool = False
    placeholder: Any = None
    fold: bool = False
    taint: str | None = None
    pinned: bool = False
    coalesce: str | None = None
    observer_unsafe: bool = False
    fast: Callable | None = None
    cg: str | None = None
    src: Any = None


#: The value :func:`stand_in` returns when the payload must run.
RUN = object()


def stand_in(spec: OpDef, op, real: bool) -> Any:
    """What replaces ``spec``'s payload when the op's data is not real.

    Returns :data:`RUN` when the payload runs, else the result's stand-in
    (``None`` for a skipped write).
    """
    if real or not spec.data:
        return RUN
    if not op.results:
        return None
    ty = op.results[0].type
    if isinstance(ty, TensorType):
        return SymbolicTile(tuple(ty.shape), ty.element_type)
    if spec.placeholder is not None:
        return spec.placeholder
    return RUN


def source(op) -> Any:
    """The codegen source template of ``op``."""
    src = OPS[op.name].src
    return src(op) if callable(src) else src


_EAGER_NS = {"np": np, "_as_array": _as_array, "_to_python_scalar": _to_python_scalar}
_EAGER: dict[tuple, Callable] = {}


def _eager(template: str, arity: int, scalar: ScalarType | None = None) -> Callable:
    """Compile a source template into its eager payload over operand values.

    Operands are materialized with :func:`_as_array`; a ``scalar`` result
    type coerces the result into the matching Python scalar.  Compiled once
    per (template, arity, scalar type name).
    """
    key = (template, arity, None if scalar is None else scalar.name)
    fn = _EAGER.get(key)
    if fn is None:
        params = [f"a{i}" for i in range(arity)]
        expr = template.format(*[f"_as_array({p})" for p in params])
        if scalar is not None:
            expr = f"_to_python_scalar({expr}, _ty)"
        fn = eval(f"lambda _ty: lambda {', '.join(params)}: {expr}", _EAGER_NS)(scalar)
        _EAGER[key] = fn
    return fn


def _elementwise(coerce: bool = False) -> Callable:
    """Payload compiled from the op's source template (``coerce``: scalar
    results become Python scalars)."""
    def payload(op, site):
        ty = op.results[0].type
        scalar = ty if coerce and isinstance(ty, ScalarType) else None
        return _eager(source(op), len(op.operands), scalar)
    return payload


def _cuda(site, elements: int, factor: float = 1.0, sfu: bool = False) -> float:
    """CUDA-core cycles of one elementwise pass over ``elements`` values."""
    cycles = elements / site.config.cuda_lanes_per_warp_group
    if sfu:
        cycles *= site.config.sfu_cost_factor
    return cycles * site.work_fraction * factor


def _per_element(factor: float = 1.0, sfu: bool = False) -> Callable:
    """Timing of an op costing ``factor`` CUDA-core passes over its tensor result."""
    def effects(op, site):
        n = _tensor_elements(op)
        return (site.delay(_cuda(site, n, factor, sfu)),) if n else ()
    return effects


def _fixed(knob: str) -> Callable:
    """Timing of an op costing one unscaled config latency."""
    return lambda op, site: (site.delay(getattr(site.config, knob)),)


def _store_cycles(op, site) -> tuple:
    ty = op.value.type
    n = ty.num_elements if isinstance(ty, TensorType) else 1
    return (site.delay(n / site.config.global_store_elements_per_cycle * site.work_fraction),)


def _binary(src: str, fast=None, fast_type=None, sfu: bool = False) -> OpDef:
    return OpDef(_elementwise(coerce=True), _per_element(sfu=sfu), data=True, fold=True,
                 coalesce="untainted", cg="binary", src=src,
                 fast=None if fast is None else (lambda op: (fast, (fast_type,))))


def _unary(src: str) -> OpDef:
    return OpDef(_elementwise(), _per_element(sfu=True), data=True, fold=True,
                 coalesce="untainted", cg="unary", src=src)


# -- comparisons ----------------------------------------------------------------

#: predicate -> (NumPy function, Python operator)
_PREDICATES = {
    "eq": ("np.equal", operator.eq), "ne": ("np.not_equal", operator.ne),
    "slt": ("np.less", operator.lt), "sle": ("np.less_equal", operator.le),
    "sgt": ("np.greater", operator.gt), "sge": ("np.greater_equal", operator.ge),
    "lt": ("np.less", operator.lt), "le": ("np.less_equal", operator.le),
    "gt": ("np.greater", operator.gt), "ge": ("np.greater_equal", operator.ge),
}

_CMP = OpDef(
    _elementwise(coerce=True), _per_element(), data=True, fold=True, coalesce="untainted",
    fast=lambda op: (_PREDICATES[op.predicate][1], (int, float)),
    cg="cmp", src=lambda op: _PREDICATES[op.predicate][0] + "({0}, {1})")

_WHERE = OpDef(_elementwise(), _per_element(), data=True, fold=True,
               coalesce="untainted", cg="select", src="np.where({0}, {1}, {2})")


# -- casts and shapes -------------------------------------------------------------


def _cast(op, site):
    ty = op.result.type
    if isinstance(ty, TensorType):
        return _eager(source(op), 1)
    if isinstance(ty, ScalarType):
        return lambda x: _to_python_scalar(_as_array(x), ty)
    return _as_array


def _splat(op, site):
    ty = op.result.type
    shape, dtype = tuple(ty.shape), getattr(ty.element_type, "numpy_dtype", None)
    real, symb = site.real(op), SymbolicTile(tuple(ty.shape), ty.element_type)

    def splat(x):
        if isinstance(x, Pointer):
            # Splatting a scalar pointer keeps the pointer (zero offsets).
            return x
        return np.full(shape, x, dtype=dtype) if real else symb
    return splat


def _expand_dims(op, site):
    ty, axis, real = op.result.type, op.axis, site.real(op)
    symb = SymbolicTile(tuple(ty.shape), ty.element_type)

    def expand_dims(x):
        if isinstance(x, Pointer):
            if real and isinstance(x.offsets, np.ndarray):
                return Pointer(x.buffer, np.expand_dims(x.offsets, axis))
            return x
        return np.expand_dims(_as_array(x), axis) if real else symb
    return expand_dims


def _trans(op, site):
    ty, real = op.result.type, site.real(op)
    symb = SymbolicTile(tuple(ty.shape), ty.element_type)

    def trans(x):
        if isinstance(x, SmemTileView):
            # An SMEM-resident operand is transposed by the WGMMA
            # descriptor: keep the view and let wgmma read it transposed.
            return _TransposedView(x)
        return np.transpose(_as_array(x)) if real else symb
    return trans


def _shaped(op, site):
    """Payload of a source template whose ``{shape}`` is the result shape."""
    return _eager(source(op).format("{0}", shape=repr(tuple(op.result.type.shape))), 1)


_REDUCTIONS = {"max": "np.max", "min": "np.min", "sum": "np.sum"}


def _reduce_cycles(op, site):
    ty = op.operands[0].type
    return (site.delay(_cuda(site, ty.num_elements, 2.0)),) if isinstance(ty, TensorType) else ()


# -- pointers and global memory ---------------------------------------------------


def _addptr(op, site):
    ty, real = op.result.type, site.real(op)
    shape = tuple(ty.shape) if isinstance(ty, TensorType) else ()

    def addptr(ptr, offset):
        offset = _as_array(offset)
        if not isinstance(ptr, Pointer):
            raise InterpreterError(f"tt.addptr on non-pointer runtime value {ptr!r}")
        if real and not isinstance(offset, SymbolicTile):
            return ptr.offset_by(np.asarray(offset, dtype=np.int64)
                                 if not np.isscalar(offset) else int(offset))
        return Pointer(ptr.buffer, SymbolicTile(shape, ptr.element_type))
    return addptr


def _load(op, site):
    has_mask = op.mask is not None
    ty = op.result.type
    scalar = None if isinstance(ty, TensorType) else ty

    def load(ptr, mask=None, *_other):
        offsets = ptr.offsets if isinstance(ptr, Pointer) else 0
        gathered = ptr.buffer.gather(np.asarray(offsets), mask if has_mask else None)
        return gathered if scalar is None else _to_python_scalar(gathered.reshape(()), scalar)
    return load


def _load_cycles(op, site):
    return (site.delay(site.config.global_load_latency_cycles * site.work_fraction
                       + _cuda(site, _tensor_elements(op) or 1)),)


def _store(op, site):
    def store(ptr, value, mask=None):
        value = _as_array(value)
        if (not isinstance(ptr, Pointer) or isinstance(ptr.offsets, SymbolicTile)
                or isinstance(value, SymbolicTile)):
            return
        ptr.buffer.scatter(np.asarray(ptr.offsets), value, mask)
    return store


def _tma_load(op, site):
    """Un-lowered tt.tma_load: a blocking copy (no pipelining, no WS)."""
    config, shape, real = site.config, op.tile_shape, site.real(op)
    issue = site.delay(config.tma_issue_cycles)
    symb = SymbolicTile(tuple(op.result.type.shape), op.result.type.element_type)

    def tma_load(ctx, desc, *coords):
        coords = [int(c) for c in coords]
        yield issue
        yield Delay(config.tma_latency_cycles + config.tma_cycles(desc.tile_bytes(shape)))
        return (desc.buffer.read_tile(coords, shape) if real else symb,)
    return tma_load


def _tma_store(op, site):
    def tma_store(desc, *rest):
        value = _as_array(rest[-1])
        if not isinstance(value, SymbolicTile):
            desc.buffer.write_tile([int(c) for c in rest[:-1]], np.asarray(value))
    return tma_store


_TILE_READ = ("{buf}.read_tile(({coords},), {shape})",
              "R.btile_read({buf}, ({coords},), {shape}, B)")


# -- matmul ------------------------------------------------------------------------


def _dot(op, site):
    return lambda a, b, acc=None: _matmul(_as_array(a), _as_array(b), _as_array(acc))


def _dot_effects(op, site):
    """Un-lowered tt.dot: issue a WGMMA and (unless async) wait for it."""
    issue = WgmmaIssue(op.flops * site.work_fraction, op.a.type.element_type.bitwidth,
                       op.result.type.shape[1], chain=op)
    if op.get_attr("tawa.async", False):
        return (site.delay(site.config.wgmma_issue_cycles), issue)
    return (site.delay(site.config.wgmma_issue_cycles), issue, WgmmaWait(0))


def _wgmma(op, site):
    transpose_b = op.transpose_b

    def wgmma(a, b, acc):
        b = _as_array(b)
        return _matmul(_as_array(a), np.transpose(b) if transpose_b else b, _as_array(acc))
    return wgmma


def _wgmma_effects(op, site):
    elem = getattr(op.a.type, "element_type", None)
    bits = elem.bitwidth if isinstance(elem, ScalarType) else 16
    return (site.delay(site.config.wgmma_issue_cycles),
            WgmmaIssue(op.flops * site.work_fraction, bits, op.result.type.shape[1], chain=op))


# -- arefs -------------------------------------------------------------------------


def _record(ctx, kind: str, slot, role: str) -> None:
    if ctx.sanitizer is not None:
        ctx.sanitizer.record(kind, slot, role)


def _create_aref(op, site):
    depth, name = op.depth, op.get_attr("aref_name", f"aref{op.results[0].id}")

    def create_aref(ctx):
        if ctx.launch.sanitize and ctx.sanitizer is None:
            # Lazy import: repro.analysis sits above the gpusim package.
            from repro.analysis.sanitizer import CtaSanitizer

            ctx.sanitizer = CtaSanitizer(f"cta{ctx.linear_id}")
        return ArefRuntime.create(depth, name)
    return create_aref


def _put(op, site):
    delay, role = site.delay(site.config.aref_op_cycles), site.role

    def put(ctx, slot, *values):
        yield delay
        yield ArefPut(slot)
        slot.do_put(values)
        _record(ctx, "put", slot, role)
        ctx.engine.notify_aref(slot)
    return put


def _get(op, site):
    delay, role = site.delay(site.config.aref_op_cycles), site.role

    def get(ctx, slot):
        yield delay
        yield ArefGet(slot)
        payload = slot.do_get()
        _record(ctx, "get", slot, role)
        ctx.engine.notify_aref(slot)
        return payload
    return get


def _consumed(op, site):
    role = site.role

    def consumed(ctx, slot):
        slot.do_consumed()
        _record(ctx, "consumed", slot, role)
        ctx.engine.notify_aref(slot)
    return consumed


# -- shared memory and mbarriers -----------------------------------------------------


def _alloc_smem(op, site):
    ty, real = op.buffer_type, site.real(op)
    shape, name = tuple(ty.shape), op.get_attr("buf_name", f"smem{op.result.id}")

    def alloc_smem(ctx):
        ctx.smem_bytes += ty.num_bytes
        return SmemTile(shape, ty.element_type, real, name=name)
    return alloc_smem


def _mbarrier_alloc(op, site):
    count, arrive = op.count, op.arrive_count
    name = op.get_attr("barrier_name", f"mbar{op.results[0].id}")
    return lambda: [MBarrier(arrive, f"{name}[{i}]") for i in range(count)]


def _arrive(op, site):
    def arrive(ctx, barriers, index):
        bar = barriers[int(index) % len(barriers)]
        if bar.arrive():
            ctx.engine.notify_barrier(bar)
    return arrive


def _expect_tx(op, site):
    nbytes = op.bytes

    def expect_tx(ctx, barriers, index):
        bar = barriers[int(index) % len(barriers)]
        if bar.expect_tx(nbytes):
            ctx.engine.notify_barrier(bar)
    return expect_tx


def _mbarrier_wait(op, site):
    delay = site.delay(site.config.mbarrier_op_cycles)

    def mbarrier_wait(ctx, barriers, index, generation):
        bar = barriers[int(index) % len(barriers)]
        generation = int(generation)
        yield delay
        yield WaitBarrier(bar, generation)
    return mbarrier_wait


def _async_copy(tma: bool) -> Callable:
    """gpu.tma_async_load (mbarrier-tracked TMA) or gpu.cp_async (per-thread copy).

    The global tile is read at issue time; it lands in SMEM when the copy
    completes.
    """
    def run(op, site):
        real, nbytes, config = site.real(op), op.bytes, site.config
        if tma:
            issue = site.delay(config.tma_issue_cycles)
        else:
            issue = site.delay(nbytes / 1024.0 * config.cp_async_issue_cycles_per_kb
                               * site.work_fraction)
        ncoords = len(op.coords)

        def copy(ctx, desc, *rest):
            view = rest[ncoords]
            on_complete = None
            if real:
                tile = desc.buffer.read_tile([int(c) for c in rest[:ncoords]], view.shape)
                on_complete = partial(view.write, tile)
            yield issue
            if tma:
                barriers, index = rest[ncoords + 1:]
                yield TmaIssue(nbytes, barrier=barriers[int(index) % len(barriers)],
                               on_complete=on_complete)
            else:
                yield CpAsyncIssue(nbytes, on_complete=on_complete)
        return copy
    return run


def _smem_write(op, site):
    def smem_write(value, view):
        if not isinstance(value, SymbolicTile):
            view.write(np.asarray(value))
    return smem_write


def _barrier_sync(op, site):
    delay = site.delay(site.config.barrier_sync_cycles)

    def barrier_sync(ctx):
        bar = ctx.named_barrier
        yield delay
        if bar is not None and bar.count > 1:
            yield CtaBarrier(bar)
    return barrier_sync


#: CTA-level inputs: key -> (value in a CtaContext, codegen source, whether it
#: varies across the CTAs of a launch).  ``replica`` is the warp-group replica
#: index, which each engine binds per agent.
CTA_INPUTS: dict[str, tuple[Callable | None, str, bool]] = {
    "pid0": (lambda cta: cta.pid[0], "pid0", True),
    "pid1": (lambda cta: cta.pid[1], "pid1", True),
    "pid2": (lambda cta: cta.pid[2], "pid2", True),
    "nprog0": (lambda cta: cta.launch.grid[0], "grid[0]", False),
    "nprog1": (lambda cta: cta.launch.grid[1], "grid[1]", False),
    "nprog2": (lambda cta: cta.launch.grid[2], "grid[2]", False),
    "cta_id": (lambda cta: cta.linear_id, "linear", True),
    "num_ctas": (lambda cta: math.prod(cta.launch.launched_grid), "num_ctas", False),
    "num_tiles": (lambda cta: cta.launch.num_tiles, "num_tiles", False),
    "replica": (None, "0", False),
}


def _cta(key: str, **kw) -> OpDef:
    return OpDef(cta=lambda op: key.format(axis=getattr(op, "axis", 0)), cg="cta", **kw)


# ---------------------------------------------------------------------------
# The table
# ---------------------------------------------------------------------------

OPS: dict[str, OpDef] = {
    # -- arith / math -----------------------------------------------------------
    "arith.constant": OpDef(lambda op, site: lambda: op.value, fold=True,
                            cg="constant", src=lambda op: _literal(op.value)),
    "arith.addi": _binary("np.add({0}, {1})", operator.add, int),
    "arith.subi": _binary("np.subtract({0}, {1})", operator.sub, int),
    "arith.muli": _binary("np.multiply({0}, {1})", operator.mul, int),
    "arith.divsi": _binary("np.floor_divide({0}, {1})", operator.floordiv, int),
    "arith.remsi": _binary("np.remainder({0}, {1})", operator.mod, int),
    "arith.minsi": _binary("np.minimum({0}, {1})", min, int),
    "arith.maxsi": _binary("np.maximum({0}, {1})", max, int),
    "arith.andi": _binary("np.bitwise_and({0}, {1})", operator.and_, int),
    "arith.ori": _binary("np.bitwise_or({0}, {1})", operator.or_, int),
    "arith.xori": _binary("np.bitwise_xor({0}, {1})", operator.xor, int),
    "arith.addf": _binary("np.add({0}, {1})", operator.add, float),
    "arith.subf": _binary("np.subtract({0}, {1})", operator.sub, float),
    "arith.mulf": _binary("np.multiply({0}, {1})", operator.mul, float),
    "arith.divf": _binary("np.divide({0}, {1})", operator.truediv, float, sfu=True),
    # No fast path: Python's min/max/** differ from NumPy on NaN and signs.
    "arith.minf": _binary("np.minimum({0}, {1})"),
    "arith.maxf": _binary("np.maximum({0}, {1})"),
    "arith.powf": _binary("np.power({0}, {1})", sfu=True),
    "arith.cmpi": _CMP,
    "arith.cmpf": _CMP,
    "arith.select": _WHERE,
    "math.exp": _unary("np.exp({0})"),
    "math.exp2": _unary("np.exp2({0})"),
    "math.log": _unary("np.log({0})"),
    "math.log2": _unary("np.log2({0})"),
    "math.sqrt": _unary("np.sqrt({0})"),
    "math.rsqrt": _unary("(1.0 / np.sqrt({0}))"),
    "math.abs": _unary("np.abs({0})"),
    "arith.negf": _unary("np.negative({0})"),
    "math.sigmoid": _unary("(1.0 / (1.0 + np.exp(-({0}))))"),
    "math.tanh": _unary("np.tanh({0})"),
    "arith.cast": OpDef(_cast, _per_element(), data=True, fold=True, coalesce="untainted",
                        cg="cast", src=lambda op: f"np.asarray({{0}}, dtype={_dtype(op)!r})"
                        if isinstance(op.result.type, TensorType) else None),
    # -- tt (tile level) ------------------------------------------------------------
    "tt.get_program_id": _cta("pid{axis}"),
    "tt.get_num_programs": _cta("nprog{axis}"),
    "tt.make_range": OpDef(lambda op, site: _eager(source(op), 0), data=True, fold=True,
                           cg="tensor_const",
                           src=lambda op: f"np.arange({op.start}, {op.end}, dtype=np.int64)"),
    "tt.full": OpDef(lambda op, site: _eager(source(op), 0), data=True, fold=True,
                     cg="tensor_const",
                     src=lambda op: f"np.full({tuple(op.result.type.shape)!r}, "
                                    f"{_literal(op.value)}, dtype={_dtype(op)!r})"),
    "tt.splat": OpDef(_splat, fold=True, cg="splat",
                      src=("np.full({shape}, {0}, dtype={dt})",
                           "R.bsplat({0}, B, {shape}, {dt})")),
    "tt.expand_dims": OpDef(_expand_dims, fold=True, cg="expand_dims",
                            src="np.expand_dims({0}, {axis})"),
    "tt.broadcast": OpDef(_shaped, data=True, fold=True, cg="reshape",
                          src="np.broadcast_to({0}, {shape}).copy()"),
    "tt.trans": OpDef(_trans, fold=True, taint="operand", cg="trans",
                      src="np.transpose({0}, {axes})"),
    "tt.reshape": OpDef(_shaped, data=True, fold=True, cg="reshape",
                        src="np.reshape({0}, {shape})"),
    "tt.where": _WHERE,
    "tt.reduce": OpDef(lambda op, site: _eager(source(op).format("{0}", axis=op.axis), 1),
                       _reduce_cycles, data=True, placeholder=0.0, coalesce="untainted",
                       cg="reduce", src=lambda op: _REDUCTIONS[op.kind] + "({0}, axis={axis})"),
    "tt.addptr": OpDef(_addptr, cg="addptr",
                       src=lambda op: "{0} + np.asarray({1}, dtype=np.int64)"
                       if isinstance(op.operands[1].type, TensorType) else "{0} + {1}"),
    "tt.load": OpDef(_load, _load_cycles, data=True, placeholder=0, cg="load",
                     src="{buf}.gather(np.asarray({off}), {mask})"),
    "tt.store": OpDef(_store, _store_cycles, data=True, cg="store",
                      src=("{buf}.scatter(np.asarray({off}, dtype=np.int64), {val}, {mask})",
                           "R.bstore({buf}, {off}, {val}, {mask})")),
    "tt.tma_load": OpDef(run=_tma_load, cg="tma_load", src=_TILE_READ),
    "tt.tma_store": OpDef(_tma_store, _store_cycles, data=True, cg="tma_store",
                          src="R.btile_write({buf}, ({coords},), {val}, {rank}, B)"),
    "tt.dot": OpDef(_dot, _dot_effects, data=True, cg="matmul",
                    src=lambda op: "R.bmm({0}, {1}, {2})" if op.acc is not None
                    else "R.bmm({0}, {1}, None)"),
    # -- tawa (mid level) -------------------------------------------------------------
    "tawa.create_aref": OpDef(_create_aref, ctx=True, taint="always", observer_unsafe=True),
    "tawa.aref_slot": OpDef(lambda op, site: lambda ring, index: ring.slot(int(index)),
                            taint="always"),
    "tawa.put": OpDef(run=_put, observer_unsafe=True),
    "tawa.get": OpDef(run=_get, taint="always"),
    "tawa.consumed": OpDef(_consumed, _fixed("aref_op_cycles"), ctx=True),
    # -- gpu (lowered) -------------------------------------------------------------------
    "gpu.alloc_smem": OpDef(_alloc_smem, ctx=True, taint="always", pinned=True,
                            observer_unsafe=True, cg="alloc_smem",
                            src="np.zeros((B,) + {shape}, dtype={dt})"),
    "gpu.smem_slice": OpDef(lambda op, site: lambda buf, index: buf.slice(int(index)),
                            taint="always", cg="smem_slice", src="{0}[:, int({1}) % {ring}]"),
    "gpu.mbarrier_alloc": OpDef(_mbarrier_alloc, taint="always", pinned=True,
                                observer_unsafe=True),
    "gpu.mbarrier_arrive": OpDef(_arrive, _fixed("mbarrier_op_cycles"),
                                 ctx=True),
    "gpu.mbarrier_expect_tx": OpDef(_expect_tx, _fixed("mbarrier_op_cycles"), ctx=True),
    "gpu.mbarrier_wait": OpDef(run=_mbarrier_wait),
    "gpu.tma_async_load": OpDef(run=_async_copy(tma=True), observer_unsafe=True),
    "gpu.cp_async": OpDef(run=_async_copy(tma=False), observer_unsafe=True,
                          cg="cp_async", src=tuple("{view}[...] = " + t for t in _TILE_READ)),
    "gpu.cp_async_wait": OpDef(effects=lambda op, site: (
        site.delay(site.config.cp_async_wait_cycles), CpAsyncWait(op.pendings)),
        cg="nothing"),
    # Coalescible: between the mbarrier/aref acquire and the matching release
    # (both non-coalescible) the slot's contents are stable by protocol, so
    # reading it at the end of a batched delay sees the same data.
    "gpu.smem_read": OpDef(lambda op, site: lambda view: np.asarray(view.read()),
                           _per_element(0.25), data=True, coalesce="always",
                           cg="smem_read", src="{0}"),
    "gpu.smem_write": OpDef(_smem_write, lambda op, site: (site.delay(_cuda(
        site, op.value.type.num_elements if isinstance(op.value.type, TensorType) else 1,
        0.5)),), data=True, observer_unsafe=True, cg="smem_write",
        src="{view}[...] = {val}"),
    "gpu.wgmma": OpDef(_wgmma, _wgmma_effects, data=True, coalesce="always", cg="matmul",
                       src=lambda op: "R.bmm({0}, np.swapaxes({1}, -1, -2), {2})"
                       if op.transpose_b else "R.bmm({0}, {1}, {2})"),
    "gpu.wgmma_wait": OpDef(effects=lambda op, site: (WgmmaWait(op.pendings),),
                            cg="nothing"),
    "gpu.cta_id": _cta("cta_id"),
    "gpu.num_ctas": _cta("num_ctas"),
    "gpu.num_tiles": _cta("num_tiles"),
    "gpu.warp_group_id": _cta("replica", observer_unsafe=True),
    "gpu.barrier_sync": OpDef(run=_barrier_sync, cg="nothing"),
}
