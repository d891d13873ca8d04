"""Plan-to-source JIT: vectorized NumPy codegen with CTA batching.

Plans (:mod:`repro.gpusim.plan`) removed the per-op *dispatch* overhead of
the interpreter but still step one Python instruction stream per CTA.  This
module removes the per-CTA overhead as well: it walks the same pre-bound IR
that plan-building walks and emits the source of one Python function whose
body is the kernel's op sequence over NumPy arrays -- SSA values become
locals, ``scf.for`` loops become real ``for`` loops, memory ops become
sliced/fancy-indexed ndarray reads and writes.  The function takes a leading
CTA axis ``B``, so *all* identical CTAs of a launch run through **one**
vectorized NumPy call instead of ``B`` interpreted walks.

What each op computes is not decided here: every op's table entry in
:mod:`repro.gpusim.ops` names the tagging rule that handles it and supplies
the NumPy source template the rule formats -- the same template the serial
engines' eager payload is compiled from.  This module owns only what
batching adds: uniform/varying tags, rank alignment and weak-scalar
promotion.

Correctness model (the interpreter stays the oracle):

* Launch-uniform values (same for every CTA) are computed exactly as the
  serial engines compute them -- python scalars stay python scalars, so
  NumPy's weak-promotion rules are untouched.
* CTA-varying scalars are ``(B,)`` arrays in the *weak default* dtype of
  their IR sort (``int64`` / ``float64`` / ``bool_``), mirroring the
  payloads' ``_to_python_scalar`` coercion.  Where such a stand-in meets a
  strongly-typed operand, :func:`wcast` re-applies NEP-50 weak promotion
  (``np.result_type(strong.dtype, weak_zero)``) so batched results are
  bit-identical to python-scalar arithmetic.
* CTA-varying tensors carry a leading CTA axis; reductions/expand_dims shift
  their axis by one, trailing-dim broadcasting lines uniform and varying
  operands up automatically.
* Global loads/stores go through the *same* :class:`GlobalBuffer`
  gather/scatter code as the serial payloads with ``(B,) + shape`` index
  arrays; scatter's C-order fancy assignment makes overlapping stores
  CTA-major last-write-wins, exactly the serial launch order.

Kernels the emitter cannot vectorize (warp-specialized multi-region IR,
CTA-varying loop bounds or branch conditions, unsupported ops) yield a
non-vectorizable artifact and the executor falls back to plans, counted by
``codegen_fallback_launches``.  Generated source is registered as its own
artifact kind in the content-addressed cache (``repro-codegen-artifact``
digests), so the disk tier persists the source text and a warm process skips
emission entirely.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from collections.abc import Sequence
from typing import Any

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.gpusim.config import H100Config
from repro.gpusim.engine import SimulationError
from repro.gpusim.ops import CTA_INPUTS, OPS, source
from repro.ir import Operation, Value
from repro.ir.dialects import scf, tawa
from repro.ir.types import PointerType, ScalarType, TensorDescType, TensorType


class CodegenError(SimulationError):
    """Raised when the emitter cannot vectorize a kernel (=> plan fallback)."""


# ---------------------------------------------------------------------------
# Runtime helpers (the generated source sees this module as ``R``)
# ---------------------------------------------------------------------------

_WEAK_ZERO = {
    np.dtype(np.int64): 0,
    np.dtype(np.float64): 0.0,
    np.dtype(np.bool_): False,
}


def wcast(weak: np.ndarray, other: Any) -> np.ndarray:
    """Re-apply NEP-50 weak promotion to a batched weak-scalar stand-in.

    ``weak`` is a ``(B,)`` default-dtype array standing in for a python
    scalar; ``other`` is the strongly-typed operand it meets.  The serial
    interpreter would compute ``strong OP py_scalar``, whose result dtype is
    ``np.result_type(strong.dtype, weak_zero)`` -- so cast the stand-in there
    before the array-array op.
    """
    weak = np.asarray(weak)
    zero = _WEAK_ZERO.get(weak.dtype)
    if zero is None:
        return weak
    return weak.astype(np.result_type(np.asarray(other).dtype, zero))


def py_int(value: Any) -> int:
    if hasattr(value, "item"):
        value = value.item()
    return int(value)


def py_float(value: Any) -> float:
    if hasattr(value, "item"):
        value = value.item()
    return float(value)


def py_bool(value: Any) -> bool:
    if hasattr(value, "item"):
        value = value.item()
    return bool(value)


_VARY_DTYPE = {"wi": np.int64, "wf": np.float64, "wb": np.bool_}


def vary(value: Any, B: int, sort: str) -> np.ndarray:
    """Coerce a launch-uniform value into its CTA-varying representation.

    Used at loop/branch joins where one path produces a uniform value for a
    slot the fixed-point analysis proved CTA-varying overall.
    """
    if sort in _VARY_DTYPE:
        return np.full((B,), value, dtype=_VARY_DTYPE[sort])
    if sort == "ptr":
        offs = np.asarray(value, dtype=np.int64)
        return np.broadcast_to(offs, (B,) + offs.shape)
    arr = np.asarray(value)
    return np.broadcast_to(arr, (B,) + arr.shape)


def bsplat(value: Any, B: int, shape: tuple[int, ...], dtype: str) -> np.ndarray:
    """Batched ``tt.splat`` of a CTA-varying scalar: ``(B,) + shape``."""
    v = np.asarray(value).astype(dtype)
    return np.broadcast_to(v.reshape((B,) + (1,) * len(shape)), (B,) + tuple(shape))


def btile_read(buffer, coords: Sequence[Any], tile_shape: tuple[int, ...], B: int) -> np.ndarray:
    """Batched ``read_tile``: one tile per CTA, stacked on a leading axis.

    All-in-bounds tiles take a vectorized sliding-window gather; partial
    tiles fall back to the buffer's own zero-filling ``read_tile`` per CTA
    (bit-identical by construction).
    """
    cs = [np.broadcast_to(np.asarray(c, dtype=np.int64), (B,)) for c in coords]
    data = buffer.data
    shape = tuple(tile_shape)
    if data is not None and len(shape) == data.ndim:
        in_bounds = all(
            bool((c >= 0).all()) and bool((c + t <= extent).all())
            for c, t, extent in zip(cs, shape, data.shape)
        )
        if in_bounds:
            return sliding_window_view(data, shape)[tuple(cs)]
    return np.stack([
        buffer.read_tile([int(c[i]) for c in cs], shape) for i in range(B)
    ])


def btile_write(buffer, coords: Sequence[Any], value: np.ndarray, rank: int, B: int) -> None:
    """Batched ``write_tile``: per-CTA writes in launch order (last wins)."""
    cs = [np.broadcast_to(np.asarray(c, dtype=np.int64), (B,)) for c in coords]
    value = np.asarray(value)
    tile_shape = value.shape[value.ndim - rank:]
    tiles = np.broadcast_to(value, (B,) + tile_shape)
    for i in range(B):
        buffer.write_tile([int(c[i]) for c in cs], tiles[i])


def bstore(buffer, offsets: Any, values: Any, mask: Any | None) -> None:
    """Batched ``tt.store``: one scatter whose C-order matches launch order."""
    offsets = np.asarray(offsets, dtype=np.int64)
    shapes = [offsets.shape, np.shape(values)]
    if mask is not None:
        shapes.append(np.shape(mask))
    shape = np.broadcast_shapes(*shapes)
    buffer.scatter(np.broadcast_to(offsets, shape), values, mask)


def bmm(a: Any, b: Any, acc: Any | None) -> np.ndarray:
    """Batched matmul with the interpreter's exact f32 accumulate semantics."""
    out = np.matmul(np.asarray(a, dtype=np.float32), np.asarray(b, dtype=np.float32))
    if acc is not None:
        out = out + np.asarray(acc, dtype=np.float32)
    return out


# ---------------------------------------------------------------------------
# Static value tags
# ---------------------------------------------------------------------------

#: sorts: wi/wf/wb = weak scalar stand-ins, strong = numpy-scalar results,
#: tensor = ndarray payloads, ptr/desc = memory handles, smem/view = shared
#: memory ring / slot view, none = absent (missing-else results).
_WEAK_SORTS = ("wi", "wf", "wb")
_STRONGISH = ("strong", "tensor")


@dataclass(frozen=True)
class Tag:
    sort: str
    varying: bool = False
    root: int | None = None  # argument index for ptr/desc chains
    srank: int = 0  # runtime serial rank of pointer offsets


def _join(a: Tag, b: Tag, what: str) -> Tag:
    if a.sort != b.sort or a.root != b.root or a.srank != b.srank:
        raise CodegenError(f"conflicting value kinds at {what}: {a} vs {b}")
    return Tag(a.sort, a.varying or b.varying, a.root, a.srank)


def _scalar_sort(ty: ScalarType) -> tuple[str, str]:
    """(weak sort, weak default numpy dtype expr) of an IR scalar type."""
    if ty.name == "i1":
        return "wb", "np.bool_"
    if ty.is_integer:
        return "wi", "np.int64"
    return "wf", "np.float64"


# ---------------------------------------------------------------------------
# The emitter
# ---------------------------------------------------------------------------

class _Emitter:
    """Walks one single-region kernel body and emits batched NumPy source."""

    def __init__(self, func, kernel_name: str):
        self.func = func
        self.kernel_name = kernel_name
        self.lines: list[str] = []
        self.indent = 1
        self.tags: dict[Value, Tag] = {}
        self.names: dict[Value, str] = {}
        self.shapes: dict[Value, tuple[int, ...]] = {}  # smem views / rings
        self.load_roots: set[int] = set()
        self.store_roots: set[int] = set()

    # -- plumbing -----------------------------------------------------------

    def line(self, text: str) -> None:
        self.lines.append("    " * self.indent + text)

    def bind(self, value: Value, expr: str, tag: Tag) -> str:
        name = f"v{value.id}"
        self.names[value] = name
        self.tags[value] = tag
        self.line(f"{name} = {expr}")
        return name

    def alias(self, value: Value, name: str, tag: Tag) -> None:
        self.names[value] = name
        self.tags[value] = tag

    def ref(self, value: Value) -> str:
        try:
            return self.names[value]
        except KeyError:
            raise CodegenError(f"value {value} has no emitted binding") from None

    def tag(self, value: Value) -> Tag:
        try:
            return self.tags[value]
        except KeyError:
            raise CodegenError(f"value {value} has no emitted tag") from None

    def _serial_rank(self, value: Value) -> int:
        tag = self.tag(value)
        if tag.sort == "ptr":
            return tag.srank
        ty = value.type
        return ty.rank if isinstance(ty, TensorType) else 0

    def _use(self, value: Value, result_rank: int) -> str:
        """Operand expression aligned to a batched result of ``result_rank``."""
        expr = self.ref(value)
        tag = self.tag(value)
        if not tag.varying:
            return expr
        sr = self._serial_rank(value)
        if sr == 0 and result_rank > 0:
            return f"{expr}[:, {', '.join(['None'] * result_rank)}]"
        if 0 < sr < result_rank:
            raise CodegenError(
                f"varying rank-{sr} operand in rank-{result_rank} context"
            )
        return expr

    def _result_rank(self, op: Operation) -> int:
        ty = op.results[0].type
        return ty.rank if isinstance(ty, TensorType) else 0

    def _any_varying(self, values: Sequence[Value | None]) -> bool:
        return any(v is not None and self.tag(v).varying for v in values)

    def _require_uniform(self, value: Value, what: str) -> None:
        if self.tag(value).varying:
            raise CodegenError(f"CTA-varying {what} is not vectorizable")

    def _pointer_root(self, value: Value) -> int:
        tag = self.tag(value)
        if tag.sort not in ("ptr", "desc") or tag.root is None:
            raise CodegenError(f"memory op on a value with no argument root ({tag})")
        return tag.root

    # -- weak-promotion plumbing -------------------------------------------

    def _promoted_pair(self, a: Value, b: Value, rank: int) -> tuple[str, str]:
        """Operand exprs for a promoting binary pair (wcast where needed)."""
        ta, tb = self.tag(a), self.tag(b)
        ea, eb = self.ref(a), self.ref(b)
        if ta.varying and ta.sort in _WEAK_SORTS and tb.sort in _STRONGISH:
            ea = f"R.wcast({ea}, {eb})"
        if tb.varying and tb.sort in _WEAK_SORTS and ta.sort in _STRONGISH:
            eb = f"R.wcast({eb}, {self.ref(a)})"
        ea = self._align(ea, a, rank)
        eb = self._align(eb, b, rank)
        return ea, eb

    def _align(self, expr: str, value: Value, result_rank: int) -> str:
        tag = self.tag(value)
        if not tag.varying:
            return expr
        sr = self._serial_rank(value)
        if sr == 0 and result_rank > 0:
            return f"{expr}[:, {', '.join(['None'] * result_rank)}]"
        if 0 < sr < result_rank:
            raise CodegenError(
                f"varying rank-{sr} operand in rank-{result_rank} context"
            )
        return expr

    # ======================================================================
    # Entry point
    # ======================================================================

    def emit(self) -> str:
        body = self.func.body
        if any(isinstance(op, tawa.WarpGroupOp) for op in body.operations):
            raise CodegenError("warp-specialized (multi-region) kernel")
        header = (
            "def cta_batch(B, pid0, pid1, pid2, linear, args, grid, "
            "launched_grid, num_tiles, num_ctas):"
        )
        for index, arg in enumerate(body.arguments):
            ty = arg.type
            if isinstance(ty, TensorDescType):
                self.alias(arg, f"args[{index}]", Tag("desc", False, index))
            elif isinstance(ty, PointerType):
                # Pointer values are represented by their *offsets* only; the
                # underlying buffer is static (the argument root in the tag).
                self.alias(arg, f"args[{index}].offsets", Tag("ptr", False, index, 0))
            elif isinstance(ty, ScalarType):
                sort, _ = _scalar_sort(ty)
                self.alias(arg, f"args[{index}]", Tag(sort, False))
            else:
                raise CodegenError(f"unsupported kernel argument type {ty}")
        self.emit_block(body)
        src = "\n".join(
            [f"# generated by repro.gpusim.codegen for kernel {self.kernel_name!r}",
             header] + (self.lines or ["    pass"])
        )
        return src + "\n"

    def emit_block(self, block) -> None:
        for op in block.operations:
            if op.name in ("func.return", "scf.yield"):
                continue
            self.emit_op(op)

    def emit_op(self, op: Operation) -> None:
        if op.name == "scf.for":
            self._emit_scf_for(op)
        elif op.name == "scf.if":
            self._emit_scf_if(op)
        else:
            spec = OPS.get(op.name)
            if spec is None or spec.cg is None:
                raise CodegenError(f"unsupported op {op.name!r}")
            getattr(self, f"_emit_{spec.cg}")(op)

    # ======================================================================
    # Structured control flow
    # ======================================================================

    def _emit_scf_for(self, op: scf.ForOp) -> None:
        for bound, what in ((op.lower_bound, "loop lower bound"),
                            (op.upper_bound, "loop upper bound"),
                            (op.step, "loop step")):
            self._require_uniform(bound, what)
        body = op.body
        init_tags = [self.tag(v) for v in op.init_args]
        carried = list(init_tags)
        # Fixed point over the carried-slot tags: emit the body against the
        # assumed tags, widen with the yield tags, retry until stable.
        for _ in range(8):
            snapshot = (len(self.lines), dict(self.tags), dict(self.names),
                        dict(self.shapes), set(self.load_roots), set(self.store_roots))
            carry_names = [f"v{res.id}" for res in op.results]
            for init, tag, name in zip(op.init_args, carried, carry_names):
                expr = self.ref(init)
                if tag.varying and not self.tag(init).varying:
                    expr = f"R.vary({expr}, B, {tag.sort!r})"
                self.line(f"{name} = {expr}")
            iv = body.arguments[0]
            self.line(
                f"for v{iv.id} in range(int({self.ref(op.lower_bound)}), "
                f"int({self.ref(op.upper_bound)}), int({self.ref(op.step)})):"
            )
            self.indent += 1
            self.alias(iv, f"v{iv.id}", Tag("wi", False))
            for arg, tag, name in zip(body.arguments[1:], carried, carry_names):
                self.alias(arg, name, tag)
            for inner in body.operations[:-1]:
                self.emit_op(inner)
            yield_op = body.terminator
            yielded = list(yield_op.operands)
            widened = [
                _join(tag, self.tag(v), "loop-carried value")
                for tag, v in zip(carried, yielded)
            ]
            if widened == carried:
                if yielded:
                    exprs = []
                    for v, tag in zip(yielded, widened):
                        expr = self.ref(v)
                        if tag.varying and not self.tag(v).varying:
                            expr = f"R.vary({expr}, B, {tag.sort!r})"
                        exprs.append(expr)
                    self.line(f"{', '.join(carry_names)} = {', '.join(exprs)}")
                else:
                    self.line("pass")
                self.indent -= 1
                for res, tag, name in zip(op.results, widened, carry_names):
                    self.alias(res, name, tag)
                return
            # Widen and re-emit from the snapshot.
            n, tags, names, shapes, lroots, sroots = snapshot
            del self.lines[n:]
            self.tags, self.names, self.shapes = tags, names, shapes
            self.load_roots, self.store_roots = lroots, sroots
            self.indent -= 1
            carried = widened
        raise CodegenError("loop-carried tag analysis did not converge")

    def _emit_scf_if(self, op: scf.IfOp) -> None:
        self._require_uniform(op.condition, "branch condition")
        result_names = [f"v{res.id}" for res in op.results]

        def walk_branch(block) -> list[Value]:
            for inner in block.operations[:-1]:
                self.emit_op(inner)
            term = block.terminator
            if term is not None and term.name == "scf.yield":
                return list(term.operands)
            return []

        self.line(f"if {self.ref(op.condition)}:")
        self.indent += 1
        then_yields = walk_branch(op.then_block)
        then_mark = len(self.lines)  # where the then-branch assignments go
        self.indent -= 1

        else_yields: list[Value] = []
        if op.else_block is not None:
            self.line("else:")
            self.indent += 1
            else_yields = walk_branch(op.else_block)
            self.indent -= 1

        if not op.results:
            return
        then_tags = [self.tag(v) for v in then_yields]
        if else_yields:
            joined = [_join(a, self.tag(b), "branch result")
                      for a, b in zip(then_tags, else_yields)]
        else:
            joined = then_tags

        def assignments(yields: list[Value]) -> list[str]:
            texts = []
            for name, v, slot in zip(result_names, yields, joined):
                expr = self.ref(v)
                if slot.varying and not self.tag(v).varying:
                    expr = f"R.vary({expr}, B, {slot.sort!r})"
                texts.append("    " * (self.indent + 1) + f"{name} = {expr}")
            return texts

        # Insert result assignments at the end of each branch body (the
        # then-branch insertion shifts everything after it).
        then_lines = assignments(then_yields)
        self.lines[then_mark:then_mark] = then_lines
        if op.else_block is not None and else_yields:
            self.lines.extend(assignments(else_yields))
        elif op.else_block is None:
            # No else region: results keep their (undefined) serial bindings.
            self.line("else:")
            self.indent += 1
            for name in result_names:
                self.line(f"{name} = None")
            self.indent -= 1
        for res, name, slot in zip(op.results, result_names, joined):
            self.alias(res, name, slot)

    # ======================================================================
    # Tagging rules.  Each op's table entry (repro.gpusim.ops) names its rule
    # and supplies the source template; a rule decides the result's tag,
    # aligns varying operands and fills the template's batch-aware fields.
    # ======================================================================

    def _emit_nothing(self, op: Operation) -> None:
        return

    def _emit_constant(self, op: Operation) -> None:
        sort, _ = _scalar_sort(op.result.type)
        self.bind(op.result, source(op), Tag(sort, False))

    def _bind_weak(self, op: Operation, expr: str, varying: bool) -> None:
        """Bind a scalar result in the weak representation of its IR sort."""
        sort, weak_dt = _scalar_sort(op.result.type)
        if varying:
            self.bind(op.result, f"{expr}.astype({weak_dt})", Tag(sort, True))
        else:
            py = {"wi": "R.py_int", "wf": "R.py_float", "wb": "R.py_bool"}[sort]
            self.bind(op.result, f"{py}({expr})", Tag(sort, False))

    def _emit_binary(self, op: Operation) -> None:
        rank = self._result_rank(op)
        varying = self._any_varying([op.lhs, op.rhs])
        expr = source(op).format(*self._promoted_pair(op.lhs, op.rhs, rank))
        if rank == 0:
            self._bind_weak(op, expr, varying)
        else:
            self.bind(op.result, expr, Tag("tensor", varying))

    def _emit_unary(self, op: Operation) -> None:
        rank = self._result_rank(op)
        operand = op.operands[0]
        expr = source(op).format(self._use(operand, rank))
        sort = "strong" if rank == 0 else "tensor"
        self.bind(op.result, expr, Tag(sort, self._any_varying([operand])))

    def _emit_cmp(self, op: Operation) -> None:
        rank = self._result_rank(op)
        varying = self._any_varying(list(op.operands))
        expr = source(op).format(*self._promoted_pair(op.operands[0], op.operands[1], rank))
        if rank == 0:
            self.bind(op.result, expr if varying else f"bool({expr})", Tag("wb", varying))
        else:
            self.bind(op.result, expr, Tag("tensor", varying))

    def _emit_select(self, op: Operation) -> None:
        cond, x, y = op.operands
        rank = self._result_rank(op)
        ex, ey = self._promoted_pair(x, y, rank)
        expr = source(op).format(self._use(cond, rank), ex, ey)
        sort = "strong" if rank == 0 else "tensor"
        self.bind(op.results[0], expr, Tag(sort, self._any_varying([cond, x, y])))

    def _emit_cast(self, op: Operation) -> None:
        operand = op.operands[0]
        varying = self._any_varying([operand])
        if isinstance(op.result.type, TensorType):
            self.bind(op.result, source(op).format(self.ref(operand)),
                      Tag("tensor", varying))
        else:
            self._bind_weak(op, self.ref(operand), varying)

    def _emit_cta(self, op: Operation) -> None:
        _, expr, varying = CTA_INPUTS[OPS[op.name].cta(op)]
        self.bind(op.result, expr, Tag("wi", varying))

    def _emit_tensor_const(self, op: Operation) -> None:
        self.bind(op.result, source(op), Tag("tensor", False))

    def _emit_splat(self, op: Operation) -> None:
        operand = op.operands[0]
        tag = self.tag(operand)
        if tag.sort in ("ptr", "desc"):
            # Splatting a scalar pointer keeps the same pointer (zero offsets).
            self.alias(op.result, self.ref(operand), tag)
            return
        ty = op.result.type
        template = source(op)[1 if tag.varying else 0]
        expr = template.format(self.ref(operand), shape=repr(tuple(ty.shape)),
                               dt=repr(ty.element_type.numpy_dtype.name))
        self.bind(op.result, expr, Tag("tensor", tag.varying))

    def _emit_expand_dims(self, op: Operation) -> None:
        operand = op.operands[0]
        tag = self.tag(operand)
        axis = op.axis + (1 if tag.varying else 0)
        if tag.sort == "ptr":
            if tag.srank == 0:
                # Serial keeps integer offsets untouched on scalar pointers.
                self.alias(op.result, self.ref(operand), tag)
            else:
                self.bind(op.result, source(op).format(self.ref(operand), axis=axis),
                          Tag("ptr", tag.varying, tag.root, tag.srank + 1))
            return
        self.bind(op.result, source(op).format(self.ref(operand), axis=axis),
                  Tag("tensor", tag.varying))

    def _emit_reshape(self, op: Operation) -> None:
        operand = op.operands[0]
        tag = self.tag(operand)
        shape = repr(tuple(op.result.type.shape))
        if tag.varying:
            shape = f"(B,) + {shape}"
        self.bind(op.result, source(op).format(self.ref(operand), shape=shape),
                  Tag("tensor", tag.varying))

    def _emit_trans(self, op: Operation) -> None:
        operand = op.operands[0]
        tag = self.tag(operand)
        axes = None
        if tag.sort == "view":
            # Serial wraps the SMEM view in a transposed marker read lazily by
            # wgmma; a transposed ndarray view has the same deferred reads.
            shape = self.shapes.get(operand)
            if shape is None:
                raise CodegenError("smem view with unknown shape")
            axes = (0,) + tuple(range(len(shape), 0, -1))
        elif tag.varying:
            axes = (0,) + tuple(range(self._serial_rank(operand), 0, -1))
        expr = source(op).format(self.ref(operand), axes=axes)
        self.bind(op.result, expr, Tag("view" if tag.sort == "view" else "tensor",
                                       tag.varying))

    def _emit_reduce(self, op: Operation) -> None:
        operand = op.operands[0]
        tag = self.tag(operand)
        axis = op.axis + (1 if tag.varying else 0)
        sort = "strong" if self._result_rank(op) == 0 else "tensor"
        self.bind(op.results[0], source(op).format(self.ref(operand), axis=axis),
                  Tag(sort, tag.varying))

    # ======================================================================
    # pointers / global memory
    # ======================================================================

    def _emit_addptr(self, op: Operation) -> None:
        ptr, offset = op.operands
        ptag = self.tag(ptr)
        if ptag.sort != "ptr":
            raise CodegenError("tt.addptr on a non-pointer value")
        off_rank = (offset.type.rank if isinstance(offset.type, TensorType) else 0)
        srank = max(ptag.srank, off_rank)
        varying = self._any_varying([ptr, offset])
        # Serial addptr casts scalar deltas via int(); weak stand-ins are
        # already int64, so dtype of the sum is unchanged either way.
        expr = source(op).format(self._ptr_offsets_expr(ptr, srank),
                                 self._align(self.ref(offset), offset, srank))
        self.bind(op.result, expr, Tag("ptr", varying, ptag.root, srank))

    def _ptr_buffer(self, ptr: Value) -> str:
        tag = self.tag(ptr)
        if tag.root is None:
            raise CodegenError("pointer with no argument root")
        return f"args[{tag.root}].buffer"

    def _ptr_offsets_expr(self, ptr: Value, rank: int) -> str:
        """The (aligned) offsets expression of a pointer value."""
        tag = self.tag(ptr)
        expr = self.ref(ptr)
        if tag.varying and tag.srank == 0 and rank > 0:
            expr = f"{expr}[:, {', '.join(['None'] * rank)}]"
        return expr

    def _mask(self, op: Operation, rank: int) -> str:
        return "None" if op.mask is None else self._align(self.ref(op.mask), op.mask, rank)

    def _emit_load(self, op: Operation) -> None:
        ptr = op.ptr
        ptag = self.tag(ptr)
        if ptag.sort != "ptr":
            raise CodegenError("tt.load on a non-pointer value")
        self.load_roots.add(self._pointer_root(ptr))
        rank = self._result_rank(op)
        if isinstance(op.result.type, TensorType) and ptag.srank != rank:
            raise CodegenError("load pointer rank does not match result rank")
        varying = self._any_varying([ptr, op.mask])
        expr = source(op).format(buf=self._ptr_buffer(ptr),
                                 off=self._ptr_offsets_expr(ptr, rank),
                                 mask=self._mask(op, rank))
        if rank == 0:
            self._bind_weak(op, expr if varying else f"({expr}).reshape(())", varying)
        else:
            self.bind(op.result, expr, Tag("tensor", varying))

    def _emit_store(self, op: Operation) -> None:
        ptr = op.ptr
        ptag = self.tag(ptr)
        if ptag.sort != "ptr":
            raise CodegenError("tt.store on a non-pointer value")
        self.store_roots.add(self._pointer_root(ptr))
        rank = (op.value.type.rank if isinstance(op.value.type, TensorType)
                else ptag.srank)
        template = source(op)[1 if self._any_varying([ptr, op.value, op.mask]) else 0]
        self.line(template.format(buf=self._ptr_buffer(ptr),
                                  off=self._ptr_offsets_expr(ptr, rank),
                                  val=self._align(self.ref(op.value), op.value, rank),
                                  mask=self._mask(op, rank)))

    def _tile_read(self, op: Operation, shape: tuple[int, ...], **fields) -> tuple[str, bool]:
        """The (uniform or batched) tile read of a descriptor copy, and whether
        its coordinates vary."""
        desc = op.desc
        self.load_roots.add(self._pointer_root(desc))
        coords = list(op.coords)
        varying = self._any_varying(coords)
        refs = [self.ref(c) if varying else f"int({self.ref(c)})" for c in coords]
        expr = source(op)[1 if varying else 0].format(
            buf=f"args[{self.tag(desc).root}].buffer", coords=", ".join(refs),
            shape=repr(tuple(shape)), **fields)
        return expr, varying

    def _emit_tma_load(self, op: Operation) -> None:
        expr, varying = self._tile_read(op, op.tile_shape)
        self.bind(op.result, expr, Tag("tensor", varying))

    def _emit_tma_store(self, op: Operation) -> None:
        desc = op.desc
        self.store_roots.add(self._pointer_root(desc))
        rank = op.value.type.rank if isinstance(op.value.type, TensorType) else 0
        self.line(source(op).format(
            buf=f"args[{self.tag(desc).root}].buffer",
            coords=", ".join(self.ref(c) for c in op.coords),
            val=self.ref(op.value), rank=rank))

    # ======================================================================
    # matmul
    # ======================================================================

    def _emit_matmul(self, op: Operation) -> None:
        operands = list(op.operands)
        self.bind(op.result, source(op).format(*(self.ref(v) for v in operands)),
                  Tag("tensor", self._any_varying(operands)))

    # ======================================================================
    # shared memory (lowered single-region pipelines)
    # ======================================================================

    def _emit_alloc_smem(self, op: Operation) -> None:
        ty = op.buffer_type
        shape = tuple(ty.shape)
        self.bind(op.result, source(op).format(
            shape=repr(shape), dt=repr(ty.element_type.numpy_dtype.name)),
            Tag("smem", True))
        self.shapes[op.result] = shape

    def _emit_smem_slice(self, op: Operation) -> None:
        buf = op.buffer
        if self.tag(buf).sort != "smem":
            raise CodegenError("gpu.smem_slice on a non-smem value")
        self._require_uniform(op.index, "shared-memory ring index")
        shape = self.shapes.get(buf)
        if shape is None:
            raise CodegenError("smem ring with unknown shape")
        self.bind(op.result, source(op).format(self.ref(buf), self.ref(op.index),
                                               ring=shape[0]),
                  Tag("view", True))
        self.shapes[op.result] = tuple(shape[1:])

    def _view_shape(self, view: Value, what: str) -> tuple[int, ...] | None:
        if self.tag(view).sort != "view":
            raise CodegenError(f"{what} into a non-view value")
        return self.shapes.get(view)

    def _emit_cp_async(self, op: Operation) -> None:
        shape = self._view_shape(op.smem, "gpu.cp_async")
        if shape is None:
            raise CodegenError("smem view with unknown shape")
        expr, _ = self._tile_read(op, shape, view=self.ref(op.smem))
        self.line(expr)

    def _emit_smem_read(self, op: Operation) -> None:
        self._view_shape(op.smem, "gpu.smem_read")
        # Serial smem_read returns the live view (np.asarray of an ndarray
        # view is the view itself); aliasing semantics are preserved.
        self.alias(op.result, source(op).format(self.ref(op.smem)), Tag("tensor", True))

    def _emit_smem_write(self, op: Operation) -> None:
        rank = len(self._view_shape(op.smem, "gpu.smem_write") or ())
        self.line(source(op).format(view=self.ref(op.smem),
                                    val=self._align(self.ref(op.value), op.value, rank)))


# ---------------------------------------------------------------------------
# Artifacts + the two-tier codegen cache
# ---------------------------------------------------------------------------

#: digest namespace of the codegen artifact kind in the content-addressed
#: cache (PR 3); entries share REPRO_CACHE_DIR with compile artifacts but can
#: never collide with them (different digest inputs).
CODEGEN_ARTIFACT_KIND = "repro-codegen-artifact"


@dataclass
class CodegenArtifact:
    """Generated source + compiled handle for one (kernel, mode, config)."""

    kernel_name: str
    source: str | None
    vectorizable: bool
    reason: str | None = None
    load_roots: tuple[int, ...] = ()
    store_roots: tuple[int, ...] = ()
    _fn: Any = field(default=None, repr=False, compare=False)

    def callable(self):
        """The compiled batch function (exec'd lazily, once per artifact)."""
        if self._fn is None:
            if not self.vectorizable or not self.source:
                raise CodegenError(f"artifact for {self.kernel_name!r} is not vectorizable")
            namespace: dict[str, Any] = {"np": np, "R": sys.modules[__name__]}
            code = compile(self.source, f"<codegen:{self.kernel_name}>", "exec")
            exec(code, namespace)
            self._fn = namespace["cta_batch"]
        return self._fn

    def payload(self) -> dict:
        """The picklable persistent form (the handle is re-exec'd on load)."""
        return {
            "kernel_name": self.kernel_name,
            "source": self.source,
            "vectorizable": self.vectorizable,
            "reason": self.reason,
            "load_roots": tuple(self.load_roots),
            "store_roots": tuple(self.store_roots),
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "CodegenArtifact":
        return cls(
            kernel_name=payload.get("kernel_name", "?"),
            source=payload.get("source"),
            vectorizable=bool(payload.get("vectorizable", False)),
            reason=payload.get("reason"),
            load_roots=tuple(payload.get("load_roots", ())),
            store_roots=tuple(payload.get("store_roots", ())),
        )


def emit_artifact(compiled) -> CodegenArtifact:
    """Emit the batched source of a compiled kernel (never raises)."""
    name = getattr(getattr(compiled, "kernel", None), "name", None) or "kernel"
    try:
        emitter = _Emitter(compiled.func, name)
        source = emitter.emit()
        return CodegenArtifact(
            kernel_name=name,
            source=source,
            vectorizable=True,
            load_roots=tuple(sorted(emitter.load_roots)),
            store_roots=tuple(sorted(emitter.store_roots)),
        )
    except CodegenError as exc:
        return CodegenArtifact(kernel_name=name, source=None,
                               vectorizable=False, reason=str(exc))


def codegen_fingerprint(compiled, config: H100Config, functional: bool) -> str:
    """Disk-tier key of one codegen artifact (content-addressed, PR 3)."""
    from repro.core.cache import CACHE_VERSION, stable_digest

    return stable_digest(CODEGEN_ARTIFACT_KIND, CACHE_VERSION,
                         compiled.fingerprint, functional, config)


_MISSING = object()


def get_codegen(compiled, config: H100Config, functional: bool) -> CodegenArtifact:
    """The codegen artifact of a compile artifact for one (mode, config).

    Mirrors :func:`repro.gpusim.plan.get_plan`: memoized per (mode, config)
    on the compile artifact (``compiled.codegens``), backed by the persistent
    disk tier under its own artifact kind so a warm process loads the source
    text instead of re-walking the IR.  Non-vectorizable results are cached
    (memory *and* disk) too -- fallback kernels cost one analysis per
    process tree, not one per launch.
    """
    from repro.core.cache import resolve_disk_cache
    from repro.perf.counters import COUNTERS

    cache = getattr(compiled, "codegens", None)
    if cache is None:
        cache = {}
        compiled.codegens = cache
    key = (functional, config)
    artifact = cache.get(key, _MISSING)
    if artifact is not _MISSING:
        COUNTERS.codegen_memory_hits += 1
        return artifact

    disk = resolve_disk_cache()
    disk_key = None
    if disk is not None and getattr(compiled, "fingerprint", None):
        disk_key = codegen_fingerprint(compiled, config, functional)
        payload = disk.load(disk_key)
        if payload is not None:
            COUNTERS.codegen_disk_hits += 1
            artifact = CodegenArtifact.from_payload(payload)
            cache[key] = artifact
            return artifact

    artifact = emit_artifact(compiled)
    COUNTERS.codegen_emitted += 1
    if disk is not None and disk_key is not None:
        if disk.store(disk_key, artifact.payload()):
            COUNTERS.codegen_disk_writes += 1
    cache[key] = artifact
    return artifact
