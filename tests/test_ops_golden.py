"""Golden tests for the op-semantics table (:mod:`repro.gpusim.ops`).

The interpreter, execution plans and codegen all execute the table's
payloads, so the differential suites can no longer catch a wrong payload on
their own: every engine would agree on the wrong answer.  These tests pin
each payload to a hand-written NumPy expression on small seeded inputs
(int, float and bool scalars; f16/f32 tiles), and pin the table's key set
to the op names the engines dispatch on, so a missing op fails here instead
of as a PlanError/InterpreterError at its first launch.

Adding an op means one table entry plus one case below.
"""

from __future__ import annotations

import operator
from types import SimpleNamespace

import numpy as np
import pytest

from repro.gpusim.config import DEFAULT_CONFIG
from repro.gpusim.engine import ArefSlotRuntime, Delay, MBarrier
from repro.gpusim.interpreter import LaunchContext
from repro.gpusim.memory import GlobalBuffer, Pointer, SmemTile, TensorDesc
from repro.gpusim.ops import OPS, ArefRuntime, source
from repro.ir import Value
from repro.ir.dialects import arith, ensure_loaded, gpu, registry, tawa, tt
from repro.ir.types import (
    ArefSlotType,
    ArefType,
    MBarrierType,
    PointerType,
    SmemBufferType,
    TensorDescType,
    TensorType,
    TupleType,
    f16,
    f32,
    i1,
    i32,
)

ensure_loaded()

SITE = SimpleNamespace(config=DEFAULT_CONFIG, work_fraction=1.0, role="consumer",
                       delay=Delay, real=lambda op: True)
RNG_SEED = 20261017

BINARY = {
    "arith.addi": operator.add, "arith.subi": operator.sub, "arith.muli": operator.mul,
    "arith.divsi": operator.floordiv, "arith.remsi": operator.mod,
    "arith.minsi": np.minimum, "arith.maxsi": np.maximum,
    "arith.andi": operator.and_, "arith.ori": operator.or_, "arith.xori": operator.xor,
    "arith.addf": operator.add, "arith.subf": operator.sub, "arith.mulf": operator.mul,
    "arith.divf": operator.truediv, "arith.minf": np.minimum, "arith.maxf": np.maximum,
    "arith.powf": operator.pow,
}
UNARY = {
    "math.exp": np.exp, "math.exp2": np.exp2, "math.log": np.log, "math.log2": np.log2,
    "math.sqrt": np.sqrt, "math.rsqrt": lambda x: 1 / np.sqrt(x), "math.abs": np.abs,
    "arith.negf": operator.neg, "math.sigmoid": lambda x: 1 / (1 + np.exp(-x)),
    "math.tanh": np.tanh,
}
PREDICATES = {
    "eq": operator.eq, "ne": operator.ne, "slt": operator.lt, "sle": operator.le,
    "sgt": operator.gt, "sge": operator.ge, "lt": operator.lt, "le": operator.le,
    "gt": operator.gt, "ge": operator.ge,
}


#: Structural ops each engine handles itself (control flow, region bodies).
STRUCTURAL = {"func.return", "scf.for", "scf.if", "scf.yield", "tawa.warp_group"}

#: The op names the interpreter and plan builder dispatched on before the
#: table existed: their handler/emitter dicts, plus every arith binary, unary
#: and comparison op they reached by class.
ENGINE_OPS = STRUCTURAL | set(BINARY) | set(UNARY) | {"arith.cmpi", "arith.cmpf"} | {
    "arith.constant", "arith.select", "arith.cast",
    "tt.get_program_id", "tt.get_num_programs", "tt.make_range", "tt.splat",
    "tt.full", "tt.expand_dims", "tt.broadcast", "tt.trans", "tt.reshape",
    "tt.where", "tt.reduce", "tt.addptr", "tt.load", "tt.store", "tt.tma_load",
    "tt.tma_store", "tt.dot",
    "tawa.create_aref", "tawa.aref_slot", "tawa.put", "tawa.get", "tawa.consumed",
    "gpu.alloc_smem", "gpu.smem_slice", "gpu.mbarrier_alloc", "gpu.mbarrier_arrive",
    "gpu.mbarrier_expect_tx", "gpu.mbarrier_wait", "gpu.tma_async_load",
    "gpu.cp_async", "gpu.cp_async_wait", "gpu.smem_read", "gpu.smem_write",
    "gpu.wgmma", "gpu.wgmma_wait", "gpu.cta_id", "gpu.num_ctas", "gpu.num_tiles",
    "gpu.warp_group_id", "gpu.barrier_sync",
}
#: The ops codegen vectorizes (everything but the aref, mbarrier and TMA-async
#: machinery of warp-specialized kernels).
CODEGEN_OPS = ENGINE_OPS - {
    "tawa.warp_group", "tawa.create_aref", "tawa.aref_slot", "tawa.put", "tawa.get",
    "tawa.consumed", "gpu.mbarrier_alloc", "gpu.mbarrier_arrive",
    "gpu.mbarrier_expect_tx", "gpu.mbarrier_wait", "gpu.tma_async_load",
}

def v(ty) -> Value:
    return Value(ty)


def call(op, *values, ctx=None):
    """Bind ``op``'s table payload and apply it to resolved operand values."""
    spec = OPS[op.name]
    fn = spec.payload(op, SITE)
    return fn(ctx, *values) if spec.ctx else fn(*values)


def same(result, expected) -> None:
    """Bit-identical values of the same Python/NumPy type."""
    assert type(result) is type(expected), (type(result), type(expected))
    if isinstance(expected, np.ndarray):
        assert result.dtype == expected.dtype and result.shape == expected.shape
        assert np.array_equal(result, expected, equal_nan=True)
    else:
        assert result == expected or (result != result and expected != expected)


def rng():
    return np.random.default_rng(RNG_SEED)


def tile(dtype, shape=(4, 8), low=0.5, high=2.0):
    return rng().uniform(low, high, size=shape).astype(dtype)


def int_tile(shape=(4, 8), low=1, high=9):
    return rng().integers(low, high, size=shape).astype(np.int32)


# ---------------------------------------------------------------------------
# Key sets
# ---------------------------------------------------------------------------


def test_table_covers_exactly_the_engine_ops():
    assert set(OPS) | STRUCTURAL == ENGINE_OPS
    assert not set(OPS) & STRUCTURAL


def test_codegen_rules_cover_exactly_the_codegen_ops():
    assert {name for name, spec in OPS.items() if spec.cg} | STRUCTURAL - {
        "tawa.warp_group"} == CODEGEN_OPS


def test_every_registered_op_is_executable():
    runnable = set(OPS) | STRUCTURAL | {"builtin.module", "func.func"}
    assert set(registry.all_ops()) <= runnable


def test_every_payload_has_a_golden_case():
    with_payload = {name for name, spec in OPS.items() if spec.payload is not None}
    assert with_payload == set(GOLDEN)


# ---------------------------------------------------------------------------
# Payload golden cases
# ---------------------------------------------------------------------------

GOLDEN: dict = {}


def golden(*names):
    def register(fn):
        for name in names:
            GOLDEN[name] = fn
        return fn
    return register


def _binary_cases(name):
    """(operand type, lhs, rhs) triples: scalars of the op's sorts and tiles."""
    if name.endswith("f"):
        yield f32, 1.75, 0.5
        yield f32, -3.25, 2.0
        for dtype, ety in ((np.float16, f16), (np.float32, f32)):
            yield TensorType((4, 8), ety), tile(dtype), tile(dtype)[::-1]
    else:
        yield i32, 17, 5
        yield i32, -17, 5
        yield TensorType((4, 8), i32), int_tile(low=-9), int_tile()
        if name in ("arith.andi", "arith.ori", "arith.xori"):
            yield i1, True, False
            yield i1, True, True


@golden(*BINARY)
def check_binary(name):
    cls = registry.lookup(name).cls
    for ty, a, b in _binary_cases(name):
        op = cls(v(ty), v(ty))
        result = call(op, a, b)
        if isinstance(ty, TensorType):
            same(result, BINARY[name](a, b))
        else:
            # Scalars are coerced to the Python type of their IR sort.
            expected = BINARY[name](np.asarray(a), np.asarray(b)).item()
            same(result, expected)
            assert np.array_equal(cls.py_impl(a, b), result)
            fast = OPS[name].fast
            if fast is not None:
                fn, types = fast(op)
                if type(a) in types and type(b) in types:
                    same(fn(a, b), result)


@golden(*UNARY)
def check_unary(name):
    cls = registry.lookup(name).cls
    for dtype, ety in ((np.float16, f16), (np.float32, f32)):
        x = tile(dtype)
        same(call(cls(v(TensorType((4, 8), ety))), x), UNARY[name](x))
    x = np.float64(0.75)
    same(call(cls(v(f32)), 0.75), UNARY[name](x))


@golden("arith.cmpi", "arith.cmpf")
def check_cmp(name):
    cls = registry.lookup(name).cls
    for pred, ref in PREDICATES.items():
        for a, b in ((3, 5), (5, 5), (2.5, -1.0)):
            op = cls(pred, v(i32), v(i32))
            result = call(op, a, b)
            same(result, ref(a, b))
            fn, types = OPS[name].fast(op)
            same(fn(a, b), result)
        x, y = int_tile(), int_tile()[::-1]
        same(call(cls(pred, v(TensorType((4, 8), i32)), v(TensorType((4, 8), i32))), x, y),
             ref(x, y))
        x, y = tile(np.float16), tile(np.float16)[:, ::-1]
        same(call(cls(pred, v(TensorType((4, 8), f16)), v(TensorType((4, 8), f16))), x, y),
             ref(x, y))


@golden("arith.select", "tt.where")
def check_select(name):
    cls = registry.lookup(name).cls
    cond = int_tile() > 4
    for dtype, ety in ((np.float16, f16), (np.float32, f32)):
        x, y = tile(dtype), -tile(dtype)
        t = TensorType((4, 8), ety)
        op = cls(v(TensorType((4, 8), i1)), v(t), v(t))
        expected = x.copy()
        expected[~cond] = y[~cond]
        same(call(op, cond, x, y), expected)
    # Scalar selects keep NumPy's 0-d result.
    same(call(cls(v(i1), v(f32), v(f32)), False, 1.5, 2.5), np.where(False, 1.5, 2.5))


@golden("arith.cast")
def check_cast(name):
    x = tile(np.float32)
    same(call(arith.CastOp(v(TensorType((4, 8), f32)), f16), x), x.astype(np.float16))
    same(call(arith.CastOp(v(f32), i32), 7.0), 7)
    same(call(arith.CastOp(v(i32), f32), 7), 7.0)
    same(call(arith.CastOp(v(i32), i1), 2), True)


@golden("arith.constant")
def check_constant(name):
    same(call(arith.ConstantOp(3, i32)), 3)
    same(call(arith.ConstantOp(float("-inf"), f32)), float("-inf"))
    same(call(arith.ConstantOp(True)), True)


@golden("tt.make_range")
def check_make_range(name):
    same(call(tt.MakeRangeOp(4, 12)), np.arange(4, 12, dtype=np.int64))


@golden("tt.full")
def check_full(name):
    same(call(tt.FullOp((4, 8), 0.5, f16)), np.full((4, 8), 0.5, dtype=np.float16))
    same(call(tt.FullOp((2, 3), float("-inf"), f32)),
         np.full((2, 3), -np.inf, dtype=np.float32))


def _pointer(shape=(8, 8), dtype=np.float32, ety=f32):
    data = np.arange(np.prod(shape), dtype=dtype).reshape(shape)
    return Pointer(GlobalBuffer.from_numpy(data, ety)), data


@golden("tt.splat")
def check_splat(name):
    same(call(tt.SplatOp(v(f32), (4, 8)), 2.5), np.full((4, 8), 2.5, dtype=np.float32))
    same(call(tt.SplatOp(v(i32), (3,)), 7), np.full((3,), 7, dtype=np.int32))
    ptr, _ = _pointer()
    assert call(tt.SplatOp(v(PointerType(f32)), (4,)), ptr) is ptr


@golden("tt.expand_dims")
def check_expand_dims(name):
    x = tile(np.float32, (8,))
    same(call(tt.ExpandDimsOp(v(TensorType((8,), f32)), 1), x), x[:, None])
    same(call(tt.ExpandDimsOp(v(TensorType((8,), f32)), 0), x), x[None, :])
    ptr, _ = _pointer()
    offs = ptr.offset_by(np.arange(8, dtype=np.int64))
    out = call(tt.ExpandDimsOp(v(TensorType((8,), PointerType(f32))), 1), offs)
    same(out.offsets, np.arange(8, dtype=np.int64)[:, None])


@golden("tt.broadcast")
def check_broadcast(name):
    x = tile(np.float16, (4, 1))
    same(call(tt.BroadcastOp(v(TensorType((4, 1), f16)), (4, 8)), x), np.repeat(x, 8, axis=1))


@golden("tt.trans")
def check_trans(name):
    x = tile(np.float32)
    same(call(tt.TransOp(v(TensorType((4, 8), f32))), x), x.T)


@golden("tt.reshape")
def check_reshape(name):
    x = tile(np.float16)
    same(call(tt.ReshapeOp(v(TensorType((4, 8), f16)), (8, 4)), x), x.reshape(8, 4))


@golden("tt.reduce")
def check_reduce(name):
    x = tile(np.float32)
    for kind, ref in (("max", np.max), ("min", np.min), ("sum", np.sum)):
        for axis in (0, 1):
            same(call(tt.ReduceOp(v(TensorType((4, 8), f32)), axis, kind), x),
                 ref(x, axis=axis))
        row = x[0]
        same(call(tt.ReduceOp(v(TensorType((8,), f32)), 0, kind), row), ref(row, axis=0))


@golden("tt.addptr")
def check_addptr(name):
    ptr, _ = _pointer()
    out = call(tt.AddPtrOp(v(PointerType(f32)), v(i32)), ptr, 5)
    assert out.offsets == 5
    offs = np.arange(4, dtype=np.int32)
    out = call(tt.AddPtrOp(v(PointerType(f32)), v(TensorType((4,), i32))), ptr, offs)
    same(out.offsets, offs.astype(np.int64))


@golden("tt.load")
def check_load(name):
    ptr, data = _pointer()
    offs = np.arange(6, dtype=np.int64) * 3
    tptr = ptr.offset_by(offs)
    pty = v(TensorType((6,), PointerType(f32)))
    same(call(tt.LoadOp(pty), tptr), data.ravel()[offs])
    mask = offs < 9
    same(call(tt.LoadOp(pty, v(TensorType((6,), i1))), tptr, mask),
         np.where(mask, data.ravel()[offs], np.float32(0)))
    same(call(tt.LoadOp(v(PointerType(f32))), ptr.offset_by(10)), 10.0)


@golden("tt.store")
def check_store(name):
    ptr, data = _pointer()
    offs = np.arange(4, dtype=np.int64) + 2
    value = -tile(np.float32, (4,))
    mask = np.array([True, False, True, False])
    call(tt.StoreOp(v(TensorType((4,), PointerType(f32))), v(TensorType((4,), f32)),
                    v(TensorType((4,), i1))), ptr.offset_by(offs), value, mask)
    expected = np.arange(64, dtype=np.float32)
    expected[offs[mask]] = value[mask]
    same(ptr.buffer.to_numpy().ravel(), expected)


@golden("tt.tma_store")
def check_tma_store(name):
    buf = GlobalBuffer.from_numpy(np.zeros((8, 8), dtype=np.float16), f16)
    value = tile(np.float32, (4, 4))
    op = tt.TmaStoreOp(v(TensorDescType(f16, 2)), [v(i32), v(i32)], v(TensorType((4, 4), f32)))
    call(op, TensorDesc(buf), 4, 2, value)
    expected = np.zeros((8, 8), dtype=np.float16)
    expected[4:8, 2:6] = value.astype(np.float16)
    same(buf.to_numpy(), expected)


@golden("tt.dot")
def check_dot(name):
    a, b, acc = tile(np.float16, (4, 8)), tile(np.float16, (8, 2)), tile(np.float32, (4, 2))
    ta, tb, tacc = (TensorType(x.shape, f16 if x.dtype == np.float16 else f32)
                    for x in (a, b, acc))
    ref = a.astype(np.float32) @ b.astype(np.float32)
    same(call(tt.DotOp(v(ta), v(tb), v(tacc)), a, b, acc), ref + acc)
    same(call(tt.DotOp(v(ta), v(tb)), a, b), ref)


def _smem(shape=(2, 4, 8), dtype=np.float16, ety=f16):
    ring = SmemTile(shape, ety, True, name="ring")
    ring.data[...] = tile(dtype, shape)
    return ring


@golden("gpu.wgmma")
def check_wgmma(name):
    ring = _smem()
    a = tile(np.float16, (2, 4))
    acc = tile(np.float32, (2, 8))
    b_view = ring.slice(1)
    op = gpu.WgmmaOp(v(TensorType((2, 4), f16)), v(SmemBufferType((4, 8), f16)),
                     v(TensorType((2, 8), f32)))
    expected = a.astype(np.float32) @ ring.data[1].astype(np.float32) + acc
    same(call(op, a, b_view, acc), expected)
    op_t = gpu.WgmmaOp(v(TensorType((2, 8), f16)), v(SmemBufferType((4, 8), f16)),
                       v(TensorType((2, 4), f32)), transpose_b=True)
    a_t, acc_t = tile(np.float16, (2, 8)), tile(np.float32, (2, 4))
    expected = a_t.astype(np.float32) @ ring.data[1].T.astype(np.float32) + acc_t
    same(call(op_t, a_t, b_view, acc_t), expected)


@golden("gpu.alloc_smem")
def check_alloc_smem(name):
    ctx = SimpleNamespace(smem_bytes=0)
    ring = call(gpu.AllocSmemOp((2, 4, 8), f16, name="a"), ctx=ctx)
    assert isinstance(ring, SmemTile) and ring.shape == (2, 4, 8)
    assert ctx.smem_bytes == 2 * 4 * 8 * 2


@golden("gpu.smem_slice")
def check_smem_slice(name):
    ring = _smem()
    view = call(gpu.SmemSliceOp(v(SmemBufferType((2, 4, 8), f16)), v(i32)), ring, 3)
    same(view.read(), ring.data[1])


@golden("gpu.smem_read")
def check_smem_read(name):
    ring = _smem()
    same(call(gpu.SmemReadOp(v(SmemBufferType((4, 8), f16))), ring.slice(0)), ring.data[0])


@golden("gpu.smem_write")
def check_smem_write(name):
    ring = _smem()
    value = tile(np.float32, (4, 8))
    call(gpu.SmemWriteOp(v(TensorType((4, 8), f32)), v(SmemBufferType((4, 8), f16))),
         value, ring.slice(0))
    same(ring.data[0], value.astype(np.float16))


class _Notes:
    def __init__(self):
        self.barriers, self.arefs = [], []

    def notify_barrier(self, bar):
        self.barriers.append(bar)

    def notify_aref(self, slot):
        self.arefs.append(slot)


def _ctx():
    launch = LaunchContext(config=DEFAULT_CONFIG, functional=True,
                           grid=(1, 1, 1), launched_grid=(1, 1, 1), num_tiles=1,
                           arg_values={})
    return SimpleNamespace(engine=_Notes(), sanitizer=None, launch=launch,
                           linear_id=0)


@golden("gpu.mbarrier_alloc")
def check_mbarrier_alloc(name):
    bars = call(gpu.MBarrierAllocOp(2, count=3, name="full"))
    assert [type(b) for b in bars] == [MBarrier] * 3


@golden("gpu.mbarrier_arrive")
def check_mbarrier_arrive(name):
    bars = [MBarrier(2), MBarrier(2)]
    ctx = _ctx()
    op = gpu.MBarrierArriveOp(v(MBarrierType()), v(i32))
    call(op, bars, 3, ctx=ctx)
    assert ctx.engine.barriers == []
    call(op, bars, 1, ctx=ctx)
    assert ctx.engine.barriers == [bars[1]]


@golden("gpu.mbarrier_expect_tx")
def check_mbarrier_expect_tx(name):
    bars = [MBarrier(1)]
    ctx = _ctx()
    call(gpu.MBarrierExpectTxOp(v(MBarrierType()), v(i32), 128), bars, 0, ctx=ctx)
    expected = MBarrier(1)
    expected.expect_tx(128)
    assert vars(bars[0]).keys() == vars(expected).keys()
    assert {k: x for k, x in vars(bars[0]).items() if k != "name"} == {
        k: x for k, x in vars(expected).items() if k != "name"}


AREF = ArefType(TupleType((TensorType((4, 8), f16),)), 2)


@golden("tawa.create_aref")
def check_create_aref(name):
    ring = call(tawa.CreateArefOp([TensorType((4, 8), f16)], 3, name="ab"), ctx=_ctx())
    assert isinstance(ring, ArefRuntime) and ring.depth == 3 and len(ring.slots) == 3


@golden("tawa.aref_slot")
def check_aref_slot(name):
    ring = ArefRuntime.create(2, "ab")
    op = tawa.ArefSlotOp(v(AREF), v(i32))
    assert call(op, ring, 5) is ring.slots[1]


@golden("tawa.consumed")
def check_consumed(name):
    slot = ArefSlotRuntime("ab[0]")
    slot.do_put((1,))
    slot.do_get()
    ctx = _ctx()
    call(tawa.ConsumedOp(v(ArefSlotType(AREF.payload))), slot, ctx=ctx)
    assert slot.can_put() and ctx.engine.arefs == [slot]


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_payload_matches_numpy(name):
    GOLDEN[name](name)


def test_elementwise_payloads_evaluate_their_codegen_source():
    """Eager and emitted semantics share one template per elementwise op."""
    for name in (*BINARY, *UNARY):
        arity = 2 if name in BINARY else 1
        if name.endswith("f") or name in UNARY:
            t, x, y = TensorType((4, 8), f32), tile(np.float32), tile(np.float32)[::-1]
        else:
            t, x, y = TensorType((4, 8), i32), int_tile(), int_tile()[::-1]
        op = registry.lookup(name).cls(*([v(t)] * arity))
        emitted = eval(source(op).format("x", "y"), {"np": np, "x": x, "y": y})
        same(call(op, *(x, y)[:arity]), emitted)
