"""IR interpreter: turns compiled kernels into simulation agents.

The interpreter walks the (possibly lowered) IR of one kernel and produces a
Python generator per warp group; each generator yields
:class:`repro.gpusim.engine.Effect` objects (delays, asynchronous issues,
blocking waits) and performs the functional NumPy computation in between.

It owns only the walk: value bindings in a ``Dict[Value, Any]``, structured
control flow (``scf.for``, ``scf.if``, inline ``tawa.warp_group``) and the
CTA prologue.  What each op *does* -- its payload, its timing, its effects --
comes from the op-semantics table in :mod:`repro.gpusim.ops`, which
execution plans and codegen read too.  Walking the IR per CTA is slow, but it
is the simplest executor of the table, so ``Device(engine="interp")`` keeps
it as the differential oracle for plans (which batch, fold and unroll) and
for the pool.

Three levels of IR are executable, which is what the differential tests rely
on:

1. **Frontend IR** (``tt`` dialect only) -- ``tt.tma_load`` and ``tt.dot`` are
   interpreted synchronously.  This is the "no pipelining, no warp
   specialization" execution mode.
2. **Warp-specialized mid-level IR** (``tawa`` dialect) -- ``tawa.put/get/
   consumed`` run against the aref protocol state machine.
3. **Fully lowered IR** (``gpu`` dialect) -- mbarriers, TMA copies, WGMMA
   issue/wait; this is what the performance results use.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field
from typing import Any

from repro.gpusim.config import H100Config
from repro.gpusim.engine import Delay, Effect, Engine, NamedBarrier, SMResources
from repro.gpusim.ops import CTA_INPUTS, OPS, RUN, InterpreterError, stand_in
from repro.ir import FuncOp, Operation, Value
from repro.ir.dialects import scf, tawa

@dataclass
class LaunchContext:
    """Launch-wide state shared by every CTA of one kernel launch."""

    config: H100Config
    functional: bool
    grid: tuple[int, int, int]
    launched_grid: tuple[int, int, int]
    num_tiles: int
    arg_values: dict[str, Any]
    #: validate every committed aref transition against the formal protocol
    #: model (repro.analysis.sanitizer); forces the interpreter path
    sanitize: bool = False


@dataclass
class CtaContext:
    """Per-CTA state: program ids, shared memory, barriers, top-level values."""

    launch: LaunchContext
    linear_id: int
    pid: tuple[int, int, int]
    engine: Engine
    sm: SMResources
    env: dict[Value, Any] = field(default_factory=dict)
    named_barrier: NamedBarrier | None = None
    smem_bytes: int = 0
    #: the CTA's aref transition recorder when the launch runs sanitized
    #: (repro.analysis.sanitizer.CtaSanitizer); shared by every warp-group
    #: agent of the CTA
    sanitizer: Any = None


@dataclass
class AgentSpec:
    """What the interpreter hands to the device for each simulated agent."""

    name: str
    generator: Iterator[Effect]


class _WarpGroupExec:
    """Executes one region of IR as a stream of effects for one warp group.

    Every op goes through the table in :mod:`repro.gpusim.ops`; this class is
    the table's *site* (``config``, ``work_fraction``, ``role``, ``delay``,
    ``real``) and owns only structured control flow.
    """

    delay = Delay

    def __init__(self, cta: CtaContext, *, role: str, replica: int = 0,
                 replicas: int = 1, name: str = "wg"):
        self.cta = cta
        self.config = cta.launch.config
        self.functional = cta.launch.functional
        self.role = role
        self.replica = replica
        self.work_fraction = 1.0 / max(1, replicas)
        self.name = name
        self.env: dict[Value, Any] = dict(cta.env)

    def get(self, value: Value) -> Any:
        try:
            return self.env[value]
        except KeyError:
            raise InterpreterError(
                f"{self.name}: value {value} has no runtime binding "
                f"(defined by {getattr(getattr(value, 'op', None), 'name', 'a block arg')})"
            ) from None

    def set(self, value: Value, runtime: Any) -> None:
        self.env[value] = runtime

    def real(self, op: Operation) -> bool:
        return self.functional

    def run_block(self, block) -> Iterator[Effect]:
        for op in block.operations:
            yield from self.execute_op(op)

    def execute_op(self, op: Operation) -> Iterator[Effect]:
        spec = OPS.get(op.name)
        if spec is None:
            yield from self._execute_structural(op)
            return
        if spec.cta is not None:
            key = spec.cta(op)
            self.set(op.result, self.replica if key == "replica"
                     else CTA_INPUTS[key][0](self.cta))
            return
        values = [self.get(v) for v in op.operands]
        if spec.run is not None:
            out = yield from spec.run(op, self)(self.cta, *values)
            for res, value in zip(op.results, out or ()):
                self.set(res, value)
            return
        if spec.effects is not None:
            yield from spec.effects(op, self)
        value = stand_in(spec, op, self.functional)
        if value is RUN:
            if spec.payload is None:
                return
            fn = spec.payload(op, self)
            value = fn(self.cta, *values) if spec.ctx else fn(*values)
        if op.results:
            self.set(op.results[0], value)

    # -- structured control flow ---------------------------------------------

    def _execute_structural(self, op: Operation) -> Iterator[Effect]:
        if op.name == "scf.for":
            yield from self._exec_scf_for(op)
        elif op.name == "scf.if":
            yield from self._exec_scf_if(op)
        elif op.name == "tawa.warp_group":
            # Only reached when a warp_group region is executed inline.
            yield from self.run_block(op.body)
        elif op.name not in ("func.return", "scf.yield"):
            raise InterpreterError(f"no interpreter handler for op {op.name!r}")

    def _exec_scf_for(self, op: scf.ForOp) -> Iterator[Effect]:
        lb = int(self.get(op.lower_bound))
        ub = int(self.get(op.upper_bound))
        step = int(self.get(op.step))
        if step <= 0:
            raise InterpreterError(f"scf.for with non-positive step {step}")
        carried = [self.get(v) for v in op.init_args]
        body = op.body
        for iv in range(lb, ub, step):
            self.set(body.arguments[0], iv)
            for arg, val in zip(body.arguments[1:], carried):
                self.set(arg, val)
            for inner in body.operations[:-1]:
                yield from self.execute_op(inner)
            carried = [self.get(v) for v in body.terminator.operands]
        for res, val in zip(op.results, carried):
            self.set(res, val)

    def _exec_scf_if(self, op: scf.IfOp) -> Iterator[Effect]:
        cond = self.get(op.condition)
        block = op.then_block if cond else op.else_block
        if block is None:
            # No else region: results keep their current (undefined) bindings.
            for res in op.results:
                self.set(res, None)
            return
        for inner in block.operations[:-1]:
            yield from self.execute_op(inner)
        term = block.terminator
        if term is not None and term.name == "scf.yield":
            for res, v in zip(op.results, term.operands):
                self.set(res, self.get(v))


# ---------------------------------------------------------------------------
# CTA-level orchestration
# ---------------------------------------------------------------------------


def build_cta_agents(
    func: FuncOp,
    cta: CtaContext,
    arg_values: Sequence[Any],
) -> tuple[list[AgentSpec], float]:
    """Prepare the agents of one CTA.

    Executes the CTA-common prologue (shared memory, mbarrier and aref
    allocation, plus any cheap scalar setup) synchronously, then returns one
    agent per ``tawa.warp_group`` replica -- or a single agent for the whole
    body when the kernel is not warp-specialized.

    Returns the agent specs and the accumulated prologue cycles (added to the
    agents' start time by the device).
    """
    setup = _WarpGroupExec(cta, role="setup", name=f"cta{cta.linear_id}/setup")
    for arg, value in zip(func.body.arguments, arg_values):
        setup.set(arg, value)

    warp_groups = [op for op in func.body.operations if isinstance(op, tawa.WarpGroupOp)]

    if not warp_groups:
        # Non-warp-specialized kernel: a single agent runs the whole body.
        cta.env = dict(setup.env)
        agent = _WarpGroupExec(cta, role="consumer", name=f"cta{cta.linear_id}/wg0")
        return [AgentSpec(agent.name, agent.run_block(func.body))], 0.0

    # Warp-specialized kernel: run the top-level (non warp-group) ops now.
    prologue_cycles = 0.0
    for op in func.body.operations:
        if isinstance(op, tawa.WarpGroupOp) or op.name == "func.return":
            continue
        for effect in setup.execute_op(op):
            if isinstance(effect, Delay):
                prologue_cycles += effect.cycles
            else:
                raise InterpreterError(
                    f"CTA prologue op {op.name} produced a blocking effect; "
                    f"only cheap setup ops may appear outside warp groups"
                )
    cta.env = dict(setup.env)

    total_replicas = sum(max(1, wg.replicas) for wg in warp_groups)
    cta.named_barrier = NamedBarrier(total_replicas, f"cta{cta.linear_id}/bar")

    agents: list[AgentSpec] = []
    for wg in warp_groups:
        replicas = max(1, wg.replicas)
        for replica in range(replicas):
            name = f"cta{cta.linear_id}/{wg.role}{wg.partition}" + (
                f".{replica}" if replicas > 1 else ""
            )
            execu = _WarpGroupExec(
                cta, role=wg.role, replica=replica, replicas=replicas, name=name
            )
            agents.append(AgentSpec(name, execu.run_block(wg.body)))
    return agents, prologue_cycles
