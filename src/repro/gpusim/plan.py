"""Compile-once execution plans for the GPU simulator.

The IR interpreter (:mod:`repro.gpusim.interpreter`) re-walks the kernel IR
for every simulated CTA: every value access hashes a
:class:`~repro.ir.operation.Value` into a dict, every op re-binds its table
entry, and ``scf.for`` bodies are re-traversed once per iteration.  All of
that work is identical across the CTAs of one launch -- only
program-id-dependent *data* differs -- so this module performs it exactly once
per :class:`~repro.core.compiler.CompiledKernel` and turns each warp-group
region into a flat, pre-bound instruction stream.

What each op computes and costs comes from the op-semantics table
(:mod:`repro.gpusim.ops`), the same entries the interpreter executes.  The
builder's own jobs are:

* **Register slots** -- every SSA value is assigned an index into a flat
  Python list; table payloads are wrapped in slot-bound closures generated
  once per arity (:func:`_binder`), with the table's scalar fast paths for
  Python ``int``/``float`` operands.
* **Plan-time constant folding** -- foldable ops whose operands are all
  constants are evaluated while building the plan and materialized in the
  register-file template shared by all CTAs.
* **Loop compilation** -- constant-trip-count ``scf.for`` bodies are unrolled
  (induction-variable arithmetic folds away); dynamic loops get a compiled
  body executed by a tight driver loop instead of an IR re-walk.
* **Effect pre-binding and coalescing** -- the table's static effects are
  built once and yielded as *reused* instances; runs of agent-local delay
  ops are batched into a single :class:`~repro.gpusim.engine.DelayChain` so
  the engine schedules one event instead of N.
* **The observer variant** of cooperative consumer replicas (see
  :class:`RegionPlan`).

The differential tests in ``tests/test_plan_differential.py`` assert
identical simulated cycle counts and functional outputs against the
interpreter, which remains available behind ``Device(engine="interp")`` as
the differential-testing oracle.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from typing import Any

from repro.gpusim.config import H100Config
from repro.gpusim.engine import Delay, DelayChain, NamedBarrier
from repro.gpusim.interpreter import AgentSpec, CtaContext
from repro.gpusim.ops import CTA_INPUTS, OPS, RUN, InterpreterError, OpDef, stand_in
from repro.ir import FuncOp, Operation, Value
from repro.ir.dialects import scf, tawa
from repro.ir.types import ScalarType, TensorType


class PlanError(InterpreterError):
    """Raised when a kernel cannot be compiled to an execution plan.

    The device treats this as "fall back to the interpreter", so raising it is
    always safe -- it only costs performance.
    """


# Step kinds.  Steps are plain tuples for dispatch speed:
#   (PURE,   fn)                 -- run fn(regs, ctx), no engine interaction
#   (EFFECT, effect, fn|None)    -- yield the pre-built effect, then run fn
#   (CHAIN,  DelayChain, fns)    -- yield one batched delay, then run the fns
#   (GEN,    genfn)              -- yield from genfn(regs, ctx) (blocking ops)
PURE, EFFECT, CHAIN, GEN = 0, 1, 2, 3

#: Upper bound on steps emitted when unrolling one constant-trip-count loop.
UNROLL_STEP_LIMIT = 4096


def _drive(steps, regs, ctx):
    """Execute a compiled step stream for one agent (the hot loop)."""
    for st in steps:
        kind = st[0]
        if kind == PURE:
            st[1](regs, ctx)
        elif kind == EFFECT:
            yield st[1]
            fn = st[2]
            if fn is not None:
                fn(regs, ctx)
        elif kind == CHAIN:
            yield st[1]
            for fn in st[2]:
                fn(regs, ctx)
        else:
            yield from st[1](regs, ctx)


# ---------------------------------------------------------------------------
# Plan data structures
# ---------------------------------------------------------------------------


class RegionPlan:
    """The compiled instruction stream of one warp-group region."""

    __slots__ = ("role", "partition", "replicas", "steps", "replica_slots",
                 "observer_steps")

    def __init__(self, role: str, partition: int, replicas: int,
                 steps: list[tuple], replica_slots: list[int],
                 observer_steps: list[tuple] | None = None):
        self.role = role
        self.partition = partition
        self.replicas = replicas
        self.steps = steps
        self.replica_slots = replica_slots
        # Cooperative consumer replicas execute identical code over identical
        # inputs, so in functional mode only replica 0 materializes tensor
        # data; the others run this "observer" variant: same delays, barrier
        # and aref interactions (so cycle counts are unchanged), symbolic
        # tensor payloads, real scalar control flow, and no global writes
        # (replica 0 performs the identical, idempotent stores).  Built only
        # when the region provably cannot diverge between replicas.
        self.observer_steps = observer_steps


class ExecutionPlan:
    """A fully compiled kernel: register template + per-region step streams."""

    def __init__(self, func: FuncOp, config: H100Config, functional: bool):
        self.functional = functional
        self.config = config
        self.template: list[Any] = []
        self.arg_slots: list[int] = []
        #: (slot, getter) pairs resolved per CTA at instantiation time.
        self.cta_inputs: list[tuple[int, Callable]] = []
        self.prologue_fns: list[Callable] = []
        self.prologue_cycles: float = 0.0
        self.regions: list[RegionPlan] = []
        self.warp_specialized = False
        self.total_replicas = 0
        _PlanBuilder(self, func, config, functional).build(func)

    # -- per-CTA instantiation -------------------------------------------------

    def instantiate(self, cta: CtaContext,
                    arg_values: Sequence[Any]) -> tuple[list[AgentSpec], float]:
        """Create the agents of one CTA from the shared plan.

        Mirrors :func:`repro.gpusim.interpreter.build_cta_agents`.
        """
        regs = self.template.copy()
        for slot, value in zip(self.arg_slots, arg_values):
            regs[slot] = value
        for slot, get in self.cta_inputs:
            regs[slot] = get(cta)

        if not self.warp_specialized:
            agent_regs = regs
            name = f"cta{cta.linear_id}/wg0"
            gen = _drive(self.regions[0].steps, agent_regs, cta)
            return [AgentSpec(name, gen)], 0.0

        for fn in self.prologue_fns:
            fn(regs, cta)
        cta.named_barrier = NamedBarrier(self.total_replicas, f"cta{cta.linear_id}/bar")

        agents: list[AgentSpec] = []
        for region in self.regions:
            for replica in range(region.replicas):
                name = f"cta{cta.linear_id}/{region.role}{region.partition}" + (
                    f".{replica}" if region.replicas > 1 else ""
                )
                steps = region.steps
                if replica > 0 and region.observer_steps is not None:
                    steps = region.observer_steps
                agent_regs = regs.copy()
                for slot in region.replica_slots:
                    agent_regs[slot] = replica
                agents.append(AgentSpec(name, _drive(steps, agent_regs, cta)))
        return agents, self.prologue_cycles


# ---------------------------------------------------------------------------
# Plan builder
# ---------------------------------------------------------------------------


_MAKERS: dict[tuple, Callable] = {}


def _binder(arity: int, ctx: bool, result: bool, gen: bool) -> Callable:
    """The factory of slot-bound steps for payloads of one shape.

    ``_binder(2, False, True, False)(f, rd, a, b)`` returns
    ``step(regs, ctx)`` running ``regs[rd] = f(regs[a], regs[b])``.  The
    source is generated once per (arity, ctx, result, gen), so a step reads
    its operand slots with no argument packing on the hot path.  A ``gen``
    step returns the table's ``run`` generator (a GEN step's engine
    interaction); one with results drives it and binds its result tuple to
    the slots in ``rd``.
    """
    key = (arity, ctx, result, gen)
    make = _MAKERS.get(key)
    if make is not None:
        return make
    slots = [f"s{i}" for i in range(arity)]
    args = ", ".join(["ctx"] * ctx + [f"regs[{s}]" for s in slots])
    if gen and result:
        body = (f"out = yield from f({args})\n"
                "        for dst, value in zip(rd, out):\n"
                "            regs[dst] = value\n")
    else:
        body = ("return " if gen else "regs[rd] = " if result else "") + f"f({args})\n"
    namespace: dict[str, Any] = {}
    exec(f"def make({', '.join(['f', 'rd', *slots])}):\n"
         f"    def step(regs, ctx):\n        {body}"
         f"    return step\n", namespace)
    make = _MAKERS[key] = namespace["make"]
    return make


def _fast_step(fast: Callable, types: tuple, slow: Callable, rd: int, ls: int,
               rs: int) -> Callable:
    """A scalar binary step taking the table's Python-operator fast path.

    Guarded on the operand types so the result is *provably* the value the
    NumPy payload would produce; anything else (NumPy scalars, division by
    zero) falls through to the payload.
    """
    def step(regs, ctx):
        lhs = regs[ls]
        rhs = regs[rs]
        if type(lhs) in types and type(rhs) in types:
            try:
                regs[rd] = fast(lhs, rhs)
                return
            except ZeroDivisionError:
                pass
        regs[rd] = slow(lhs, rhs)
    return step


def _constant_step(rd: int, value: Any) -> Callable:
    def step(regs, ctx):
        regs[rd] = value
    return step


class _PlanBuilder:
    """Walks a function's IR once and emits the pre-bound step streams.

    The builder is the op table's *site* while it binds an op: ``config``,
    ``work_fraction``, ``role``, ``delay`` and ``real``.
    """

    def __init__(self, plan: ExecutionPlan, func: FuncOp, config: H100Config,
                 functional: bool):
        self.plan = plan
        self.func = func
        self.config = config
        self.functional = functional
        #: True while emitting the observer variant of a replicated region.
        self.observer = False
        self.role = "setup"
        self.slots: dict[Value, int] = {}
        self.const: dict[int, bool] = {}
        self.cta_input_cache: dict[str, int] = {}
        self.work_fraction = 1.0
        self.steps: list[tuple] = []
        self.replica_slots: list[int] = []
        self.ops_emitted = 0
        self.tainted: set = set()
        self._delay_cache: dict[float, Delay] = {}
        #: op -> its bound table entry in the variant being built; unrolled
        #: loops emit the same op once per iteration.
        self._bound: dict[Operation, tuple] = {}

    # -- slot management -------------------------------------------------------

    def new_slot(self, value: Value | None = None, init: Any = None) -> int:
        slot = len(self.plan.template)
        self.plan.template.append(init)
        if value is not None:
            self.slots[value] = slot
        return slot

    def slot(self, value: Value) -> int:
        try:
            return self.slots[value]
        except KeyError:
            raise PlanError(
                f"value {value} has no slot binding (defined by "
                f"{getattr(getattr(value, 'op', None), 'name', 'a block arg')})"
            ) from None

    def alias(self, value: Value, slot: int) -> None:
        self.slots[value] = slot

    def const_slot(self, value: Value | None, const_value: Any) -> int:
        slot = self.new_slot(value, const_value)
        self.const[slot] = True
        return slot

    def is_const(self, slot: int) -> bool:
        return self.const.get(slot, False)

    def cta_input(self, kind: str, value: Value) -> None:
        slot = self.cta_input_cache.get(kind)
        if slot is None:
            slot = self.new_slot()
            self.cta_input_cache[kind] = slot
            self.plan.cta_inputs.append((slot, CTA_INPUTS[kind][0]))
        self.alias(value, slot)

    # -- the table's site protocol ---------------------------------------------

    def delay(self, cycles: float) -> Delay:
        """A shared Delay instance (the engine never mutates effects)."""
        d = self._delay_cache.get(cycles)
        if d is None:
            d = Delay(cycles)
            self._delay_cache[cycles] = d
        return d

    def real(self, op: Operation) -> bool:
        """Whether ``op``'s data is real in the variant being built.

        Scalar results stay real in the observer variant: control flow (loop
        bounds, predicates) may depend on them and must match replica 0.
        """
        if not self.functional:
            return False
        return not self.observer or (bool(op.results) and not any(
            isinstance(r.type, TensorType) for r in op.results))

    # -- step emission ---------------------------------------------------------

    def emit_pure(self, fn: Callable, movable: bool = True) -> None:
        self.steps.append((PURE, fn, movable))

    def emit_effect(self, effect, fn: Callable | None,
                    coalescible: bool = False) -> None:
        self.steps.append((EFFECT, effect, fn, coalescible))

    def emit_gen(self, genfn: Callable) -> None:
        self.steps.append((GEN, genfn))

    # -- taint tracking --------------------------------------------------------

    def _compute_taint(self, func: FuncOp) -> None:
        """Fixpoint over values that may hold SMEM views / runtime rings."""
        tainted = self.tainted
        changed = True
        while changed:
            changed = False
            for op in func.walk():
                spec = OPS.get(op.name)
                if isinstance(op, scf.ForOp):
                    # init -> iter_arg -> result flow (and yield -> iter_arg).
                    yields = op.yield_op.operands if op.body.operations else []
                    for i, res in enumerate(op.results):
                        src_tainted = (op.init_args[i] in tainted
                                       or (i < len(yields) and yields[i] in tainted))
                        for v in (res, op.iter_args[i]):
                            if src_tainted and v not in tainted:
                                tainted.add(v)
                                changed = True
                elif isinstance(op, scf.IfOp):
                    for block in (op.then_block, op.else_block):
                        if block is None or not block.operations:
                            continue
                        term = block.terminator
                        if term is not None and term.name == "scf.yield":
                            for res, v in zip(op.results, term.operands):
                                if v in tainted and res not in tainted:
                                    tainted.add(res)
                                    changed = True
                elif spec is not None and (spec.taint == "always" or (
                        spec.taint == "operand" and op.operands[0] in tainted)):
                    for res in op.results:
                        if res not in tainted:
                            tainted.add(res)
                            changed = True

    def op_reads_tainted(self, op: Operation) -> bool:
        return any(v in self.tainted for v in op.operands)

    # -- top level -------------------------------------------------------------

    def build(self, func: FuncOp) -> None:
        self._compute_taint(func)
        for arg in func.body.arguments:
            self.plan.arg_slots.append(self.new_slot(arg))

        warp_groups = [op for op in func.body.operations
                       if isinstance(op, tawa.WarpGroupOp)]

        if not warp_groups:
            self.role = "consumer"
            self._bound = {}
            self.emit_block(func.body)
            steps = self._finalize(self.steps)
            self.plan.regions.append(
                RegionPlan("consumer", 0, 1, steps, self.replica_slots))
            return

        self.plan.warp_specialized = True
        # CTA-common prologue: everything outside the warp-group regions.
        for op in func.body.operations:
            if isinstance(op, tawa.WarpGroupOp) or op.name == "func.return":
                continue
            self.emit_op(op)
        prologue_cycles = 0.0
        prologue_fns: list[Callable] = []
        for st in self.steps:
            if st[0] == PURE:
                prologue_fns.append(st[1])
            elif st[0] == EFFECT and type(st[1]) is Delay:
                prologue_cycles += st[1].cycles
                if st[2] is not None:
                    prologue_fns.append(st[2])
            else:
                raise InterpreterError(
                    "CTA prologue op produced a blocking effect; "
                    "only cheap setup ops may appear outside warp groups"
                )
        self.plan.prologue_fns = prologue_fns
        self.plan.prologue_cycles = prologue_cycles

        self.plan.total_replicas = sum(max(1, wg.replicas) for wg in warp_groups)
        for wg in warp_groups:
            replicas = max(1, wg.replicas)
            self.role = wg.role
            self.work_fraction = 1.0 / replicas
            self.steps = []
            self.ops_emitted = 0
            self.replica_slots = []
            self._bound = {}
            self.emit_block(wg.body)
            steps = self._finalize(self.steps)
            region = RegionPlan(wg.role, wg.partition, replicas, steps,
                                self.replica_slots)
            if self.functional and replicas > 1 and self._observer_safe(wg):
                self.observer = True
                self.steps = []
                self.ops_emitted = 0
                self._bound = {}
                self.emit_block(wg.body)
                region.observer_steps = self._finalize(self.steps)
                self.observer = False
            self.plan.regions.append(region)
        self.work_fraction = 1.0

    @staticmethod
    def _observer_safe(wg: tawa.WarpGroupOp) -> bool:
        """Whether replicas of ``wg`` can run the observer variant.

        Not when an op through which replicas could diverge or publish data
        (the table's ``observer_unsafe``) appears, and not when a scalar is
        computed from tensor data (a scalar ``tt.reduce``): the scalar must
        stay real, but the observer has no tensor data to compute it from.
        All replicas then do the full functional work, like the interpreter.
        """
        for op in wg.walk():
            spec = OPS.get(op.name)
            if spec is not None and spec.observer_unsafe:
                return False
            if (op.results and any(isinstance(v.type, TensorType) for v in op.operands)
                    and not any(isinstance(r.type, TensorType) for r in op.results)):
                return False
        return True

    # -- block / op emission ---------------------------------------------------

    def emit_block(self, block) -> None:
        for op in block.operations:
            self.emit_op(op)

    def emit_op(self, op: Operation) -> None:
        # Region-scoped budget: bounds total emission even when constant-trip
        # loops nest (each level multiplies the op count).
        self.ops_emitted += 1
        spec = OPS.get(op.name)
        if spec is not None:
            self.emit_table_op(op, spec)
        elif op.name == "scf.for":
            _emit_scf_for(self, op)
        elif op.name == "scf.if":
            _emit_scf_if(self, op)
        elif op.name == "tawa.warp_group":
            # Only reached when a warp_group region is executed inline.
            self.emit_block(op.body)
        elif op.name not in ("func.return", "scf.yield"):
            raise PlanError(f"no plan emitter for op {op.name!r}")

    def emit_table_op(self, op: Operation, spec: OpDef) -> None:
        """Bind one table entry to slots and emit its steps."""
        if spec.cta is not None:
            kind = spec.cta(op)
            if kind == "replica":
                self.replica_slots.append(self.new_slot(op.result))
            else:
                self.cta_input(kind, op.result)
            return
        srcs = [self.slot(v) for v in op.operands]
        if spec.run is not None:
            rds = tuple(self.new_slot(r) for r in op.results)
            make = _binder(len(srcs), True, bool(rds), True)
            self.emit_gen(make(spec.run(op, self), rds, *srcs))
            return
        rd = self.new_slot(op.results[0]) if op.results else None
        bound = self._bound.get(op)
        if bound is None:
            effects = spec.effects(op, self) if spec.effects is not None else ()
            value = (RUN if not spec.data or (self.functional and not self.observer)
                     else stand_in(spec, op, self.real(op)))
            payload = fast = None
            if value is RUN and spec.payload is not None:
                payload = spec.payload(op, self)
                if spec.fast is not None and isinstance(op.results[0].type, ScalarType):
                    fast = spec.fast(op)
            bound = self._bound[op] = (effects, value, payload, fast)
        effects, value, payload, fast = bound
        # Plan-time constant folding: evaluated once into the template.
        fold = not effects and spec.fold and all(map(self.const.get, srcs))
        fn = None
        if fast is not None:
            fn = _fast_step(fast[0], fast[1], payload, rd, *srcs)
        elif payload is not None:
            if fold:
                value = payload(*[self.plan.template[s] for s in srcs])
            else:
                fn = _binder(len(srcs), spec.ctx, rd is not None, False)(payload, rd, *srcs)
        elif value is not RUN and rd is not None and not fold:
            fn = _constant_step(rd, value)
        if fold:
            if fn is not None:
                fn(self.plan.template, None)
            else:
                self.plan.template[rd] = value
            self.const[rd] = True
        elif effects:
            coalescible = spec.coalesce == "always" or (
                spec.coalesce == "untainted" and not self.op_reads_tainted(op))
            for effect in effects[:-1]:
                self.emit_effect(effect, None, coalescible)
            self.emit_effect(effects[-1], fn, coalescible)
        elif fn is not None:
            self.emit_pure(fn, movable=not spec.pinned)

    # -- finalization: batch pure runs and coalesce local delay chains --------

    def _finalize(self, steps: list[tuple]) -> list[tuple]:
        """Batch effect-free runs and agent-local delay chains.

        A run of consecutive steps that are either movable PURE closures or
        coalescible delay effects interacts with nothing outside the agent's
        private register file, so the engine can process it as one event: the
        :class:`DelayChain` advances time through the exact same sequence of
        float additions the individual delays would have used, then the
        closures run in their original order.
        """
        out: list[tuple] = []
        run: list[tuple] = []

        def flush() -> None:
            if not run:
                return
            delays = [st[1].cycles for st in run if st[0] == EFFECT]
            fns = [st[1] if st[0] == PURE else st[2] for st in run]
            fns = [f for f in fns if f is not None]
            if len(delays) >= 2:
                out.append((CHAIN, DelayChain(tuple(delays)), tuple(fns)))
            elif len(delays) == 1:
                if len(fns) == 1:
                    idx = next(i for i, st in enumerate(run) if st[0] == EFFECT)
                    out.append((EFFECT, run[idx][1], fns[0]))
                else:
                    out.append((CHAIN, DelayChain(tuple(delays)), tuple(fns)))
            else:
                if len(fns) == 1:
                    out.append((PURE, fns[0]))
                elif fns:
                    fns_t = tuple(fns)

                    def batched(regs, ctx, _fns=fns_t):
                        for f in _fns:
                            f(regs, ctx)

                    out.append((PURE, batched))
            run.clear()

        for st in steps:
            kind = st[0]
            if kind == PURE and st[2]:
                run.append(st)
            elif kind == EFFECT and st[3] and type(st[1]) is Delay:
                run.append(st)
            else:
                flush()
                if kind == PURE:
                    out.append((PURE, st[1]))
                elif kind == EFFECT:
                    out.append((EFFECT, st[1], st[2]))
                else:
                    out.append(st)
        flush()
        return out


# ---------------------------------------------------------------------------
# Structured control flow: the only per-op emitters the builder keeps.
# ---------------------------------------------------------------------------


def _emit_scf_for(b: _PlanBuilder, op: scf.ForOp) -> None:
    lb_s, ub_s, st_s = (b.slot(v) for v in (op.lower_bound, op.upper_bound, op.step))
    init_slots = [b.slot(v) for v in op.init_args]
    body = op.body

    if (b.is_const(lb_s) and b.is_const(ub_s) and b.is_const(st_s)):
        lb = int(b.plan.template[lb_s])
        ub = int(b.plan.template[ub_s])
        step = int(b.plan.template[st_s])
        if step <= 0:
            raise InterpreterError(f"scf.for with non-positive step {step}")
        trip = max(0, -(-(ub - lb) // step))
        if (trip * max(1, len(body.operations)) + b.ops_emitted
                <= UNROLL_STEP_LIMIT):
            _unroll_for(b, op, lb, ub, step, init_slots)
            return

    # Dynamic (or too-large) loop: compile the body once, drive it at runtime.
    iv_slot = b.new_slot(body.arguments[0])
    arg_slots = [b.new_slot(a) for a in body.arguments[1:]]
    saved_steps = b.steps
    b.steps = []
    for inner in body.operations[:-1]:
        b.emit_op(inner)
    body_steps = b._finalize(b.steps)
    b.steps = saved_steps
    yield_slots = [b.slot(v) for v in body.terminator.operands]
    result_slots = [b.new_slot(r) for r in op.results]

    def loop_gen(regs, ctx, _lb=lb_s, _ub=ub_s, _st=st_s, _iv=iv_slot,
                 _inits=tuple(init_slots), _args=tuple(arg_slots),
                 _yields=tuple(yield_slots), _results=tuple(result_slots),
                 _steps=body_steps):
        lb = int(regs[_lb])
        ub = int(regs[_ub])
        step = int(regs[_st])
        if step <= 0:
            raise InterpreterError(f"scf.for with non-positive step {step}")
        carried = [regs[s] for s in _inits]
        for iv in range(lb, ub, step):
            regs[_iv] = iv
            for dst, val in zip(_args, carried):
                regs[dst] = val
            # Body dispatch inlined (instead of `yield from _drive(...)`) so
            # each effect of the hot loop crosses one generator frame less.
            for st in _steps:
                kind = st[0]
                if kind == PURE:
                    st[1](regs, ctx)
                elif kind == EFFECT:
                    yield st[1]
                    fn = st[2]
                    if fn is not None:
                        fn(regs, ctx)
                elif kind == CHAIN:
                    yield st[1]
                    for fn in st[2]:
                        fn(regs, ctx)
                else:
                    yield from st[1](regs, ctx)
            carried = [regs[s] for s in _yields]
        for dst, val in zip(_results, carried):
            regs[dst] = val

    b.emit_gen(loop_gen)


def _unroll_for(b: _PlanBuilder, op: scf.ForOp, lb: int, ub: int, step: int,
                init_slots: list[int]) -> None:
    """Unroll a constant-trip-count loop; the induction variable becomes a
    plan-time constant per iteration, so dependent index arithmetic folds."""
    body = op.body
    carried = list(init_slots)
    for iv in range(lb, ub, step):
        b.const_slot(body.arguments[0], iv)
        for arg, slot in zip(body.arguments[1:], carried):
            b.alias(arg, slot)
        for inner in body.operations[:-1]:
            b.emit_op(inner)
        carried = [b.slot(v) for v in body.terminator.operands]
    for res, slot in zip(op.results, carried):
        b.alias(res, slot)


def _emit_scf_if(b: _PlanBuilder, op: scf.IfOp) -> None:
    cond_s = b.slot(op.condition)

    def compile_branch(block):
        if block is None:
            return None, None
        saved = b.steps
        b.steps = []
        for inner in block.operations[:-1]:
            b.emit_op(inner)
        steps = b._finalize(b.steps)
        b.steps = saved
        term = block.terminator
        yields = None
        if term is not None and term.name == "scf.yield":
            yields = tuple(b.slot(v) for v in term.operands)
        return steps, yields

    if b.is_const(cond_s):
        # Plan-time-known condition: emit only the taken branch inline.
        cond = b.plan.template[cond_s]
        block = op.then_block if cond else op.else_block
        if block is None:
            for res in op.results:
                b.const_slot(res, None)
            return
        for inner in block.operations[:-1]:
            b.emit_op(inner)
        term = block.terminator
        if term is not None and term.name == "scf.yield":
            for res, v in zip(op.results, term.operands):
                b.alias(res, b.slot(v))
        return

    then_steps, then_yields = compile_branch(op.then_block)
    else_steps, else_yields = compile_branch(op.else_block)
    result_slots = tuple(b.new_slot(r) for r in op.results)

    def effect_free(steps):
        return steps is None or all(st[0] == PURE for st in steps)

    if effect_free(then_steps) and effect_free(else_steps):
        # Neither branch talks to the engine: run the conditional as a plain
        # (movable, chain-absorbable) closure instead of a generator.
        def if_fn(regs, ctx, _cond=cond_s, _then=then_steps, _ty=then_yields,
                  _else=else_steps, _ey=else_yields, _results=result_slots):
            if regs[_cond]:
                steps, yields = _then, _ty
            else:
                steps, yields = _else, _ey
            if steps is None:
                for dst in _results:
                    regs[dst] = None
                return
            for st in steps:
                st[1](regs, ctx)
            if yields is not None:
                for dst, src in zip(_results, yields):
                    regs[dst] = regs[src]

        b.emit_pure(if_fn)
        return

    def if_gen(regs, ctx, _cond=cond_s, _then=then_steps, _ty=then_yields,
               _else=else_steps, _ey=else_yields, _results=result_slots):
        if regs[_cond]:
            steps, yields = _then, _ty
        else:
            steps, yields = _else, _ey
        if steps is None:
            for dst in _results:
                regs[dst] = None
            return
        yield from _drive(steps, regs, ctx)
        if yields is not None:
            for dst, src in zip(_results, yields):
                regs[dst] = regs[src]

    b.emit_gen(if_gen)


# ---------------------------------------------------------------------------
# Public entry points
# ---------------------------------------------------------------------------


def compile_plan(func: FuncOp, config: H100Config,
                 functional: bool) -> ExecutionPlan:
    """Compile one function into an :class:`ExecutionPlan`."""
    return ExecutionPlan(func, config, functional)


def get_plan(compiled, config: H100Config, functional: bool):
    """The plan of a compile artifact for one (mode, config) pair.

    Plans are first-class parts of the artifact:
    :class:`repro.core.service.CompilerService` calls this eagerly at
    artifact-finalize time for every requested mode, so launches (and the
    worker processes :mod:`repro.gpusim.parallel` forks) see a ready-made
    plan and this function degenerates to a dict hit.  Kernels compiled
    outside the service (plain :func:`repro.core.compiler.compile_kernel`)
    still fill the map lazily here.

    Returns ``None`` when the kernel contains an op the plan compiler cannot
    handle (the device then falls back to the interpreter).
    """
    from repro.perf.counters import COUNTERS

    cache = getattr(compiled, "plans", None)
    if cache is None:
        cache = {}
        compiled.plans = cache
    key = (functional, config)
    plan = cache.get(key, _MISSING)
    if plan is not _MISSING:
        COUNTERS.plan_cache_hits += 1
        return plan
    COUNTERS.plan_cache_misses += 1
    try:
        plan = compile_plan(compiled.func, config, functional)
    except PlanError:
        plan = None
    cache[key] = plan
    return plan


_MISSING = object()
