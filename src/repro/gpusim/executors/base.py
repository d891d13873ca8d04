"""Shared launch-prep, merge and counter logic for every executor.

This module is the single home of the per-launch pipeline that used to be
cloned between ``Device.launch`` and ``Device.run_many``:

* **prepare** -- compile (through the process-wide compiler service), resolve
  the execution plan, normalize the grid, bind arguments, pick the perf-mode
  CTA sample.  One implementation, used by every strategy and every entry
  point, so the two paths cannot drift apart again.
* **execute** -- strategy-specific (serial in-process, sharded across the
  worker pool); the only method subclasses must provide.
* **finalize** -- the deterministic merge of per-CTA rows into a
  :class:`~repro.gpusim.launch.LaunchResult` (launch-order reductions, wave
  quantization, launch overheads), bit-identical regardless of strategy.

:func:`run_pipelined` is the batch driver behind :meth:`Device.run_many`: it
pipelines ``prepare`` of launch *i+1* against the (possibly asynchronous)
execution of launch *i* for any executor, via :meth:`Executor.submit`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from collections.abc import Callable, Mapping, Sequence
from typing import Any, Protocol, runtime_checkable

import numpy as np

from repro.gpusim.config import H100Config
from repro.gpusim.engine import Agent, Engine, SimulationError, SMResources
from repro.gpusim.interpreter import CtaContext, LaunchContext, build_cta_agents
from repro.gpusim.launch import (
    LaunchResult,
    LaunchSpec,
    PreparedLaunch,
    linear_to_pid,
    normalize_grid,
)
from repro.gpusim.memory import GlobalBuffer, Pointer, TensorDesc
from repro.ir.types import Type, f32, i1, i32
from repro.perf.counters import COUNTERS

#: One executed CTA: (cycles, tensor-core busy cycles, bytes copied).
CtaRow = tuple[float, float, int]

#: The CTA engines (``Device(engine=...)`` / ``REPRO_SIM_ENGINE``).
ENGINES = ("interp", "plans", "codegen", "sanitize")


@dataclass(frozen=True)
class ExecutorSettings:
    """The device-level knobs an executor's behaviour depends on.

    A frozen value object (not a back-reference to the device) so executors
    stay decoupled from the façade: the device re-derives the settings -- and
    with them the executor -- whenever it is asked to launch.
    """

    config: H100Config
    mode: str = "functional"
    max_ctas_per_sm_simulated: int = 8
    collect_trace: bool = False
    #: CTA engine, one of ENGINES (see Device.__init__)
    engine: str = "plans"
    #: supervision policy for pooled launches (see repro.gpusim.parallel):
    #: seconds a shard may go without progress before it is declared hung
    #: (0 disables the deadline), and retries per failed shard before the
    #: parent degrades to re-executing that shard serially in-process.
    shard_timeout: float = 60.0
    shard_retries: int = 2
    #: persistent worker pool (repro.gpusim.pool.WorkerPool) functional
    #: launches are sharded across; None = serial execution.
    pool: Any = None

    @property
    def functional(self) -> bool:
        return self.mode == "functional"

    @property
    def planned(self) -> bool:
        """Whether CTAs run execution plans (not the interpreter)."""
        return self.engine in ("plans", "codegen")


def infer_arg_type(value: Any) -> Type:
    """Infer the IR type of a runtime kernel argument."""
    if isinstance(value, (TensorDesc, Pointer)):
        return value.ir_type
    if isinstance(value, GlobalBuffer):
        return Pointer(value).ir_type
    if isinstance(value, bool):
        return i1
    if isinstance(value, (int, np.integer)):
        return i32
    if isinstance(value, (float, np.floating)):
        return f32
    raise SimulationError(
        f"cannot infer an IR type for runtime argument {value!r}; wrap arrays with "
        f"Device.tensor_desc(...) or Device.pointer(...)"
    )


def compile_spec(settings: ExecutorSettings, kern, args: Mapping[str, Any],
                 constexprs: Mapping[str, Any] | None = None, options=None):
    """Compile a frontend kernel for the given runtime arguments (cached).

    Routed through the process-wide
    :class:`repro.core.service.CompilerService`: artifacts are
    content-addressed (kernel source hash + specialization + options +
    config), deduplicated across devices / batches / processes, and finalized
    with the execution plan for this device's mode already built -- so by the
    time a launch reaches the worker pool the plan is part of the artifact
    its workers inherit.
    """
    from repro.core.service import get_compiler_service

    arg_types = {name: infer_arg_type(value) for name, value in args.items()}
    plan_modes = (settings.functional,) if settings.planned else ()
    codegen_modes = (settings.functional,) if settings.engine == "codegen" else ()
    return get_compiler_service().compile(
        kern, arg_types, constexprs, options, config=settings.config,
        plan_modes=plan_modes, codegen_modes=codegen_modes,
    )


def total_launch_cycles(settings: ExecutorSettings, per_cta_cycles: list[float],
                        launched_ctas: int, active_sms: int, persistent: bool,
                        functional: bool) -> float:
    """Total simulated cycles of a launch from its per-CTA sample.

    ``functional`` launches simulate every CTA; performance-mode launches
    extrapolate the evenly-spread sample over the critical SM's CTA count
    with wave quantization and launch overheads.
    """
    cfg = settings.config
    launch_overhead = cfg.kernel_launch_overhead_us * 1e-6 * cfg.cycles_per_second
    if not per_cta_cycles:
        return launch_overhead
    if persistent:
        # One resident CTA per SM; CTA 0 (the one we simulate) owns the most
        # tiles, so its runtime is the critical path.
        return launch_overhead + cfg.cta_launch_overhead_cycles + max(per_cta_cycles)
    per_sm = math.ceil(launched_ctas / max(1, active_sms))
    mean = (sum(per_cta_cycles) / len(per_cta_cycles)) + cfg.cta_launch_overhead_cycles
    # The critical SM executes ceil(launched / active_sms) CTAs back to back;
    # the simulated CTAs are an (evenly spread) sample of that population.
    return launch_overhead + mean * per_sm


class InflightLaunch:
    """A submitted launch whose rows may still be in flight.

    ``collect()`` blocks until the rows are available and returns the merged
    :class:`LaunchResult`; ``abort()`` tears the launch down without
    collecting (used when a later launch of the batch fails to prepare).
    The base class wraps an already-completed launch -- the serial executor's
    ``submit`` runs synchronously -- so ``done`` is ``True`` and ``collect``
    just hands the result back.
    """

    def __init__(self, result: LaunchResult):
        self._result = result

    @property
    def done(self) -> bool:
        return True

    def collect(self) -> LaunchResult:
        return self._result

    def abort(self) -> None:
        pass


@runtime_checkable
class Executor(Protocol):
    """What the device façade and the batch driver require of a strategy."""

    def prepare(self, spec: LaunchSpec) -> PreparedLaunch:
        """Resolve everything a launch needs before any CTA executes."""
        ...

    def run(self, prepared: PreparedLaunch) -> LaunchResult:
        """Execute a prepared launch synchronously."""
        ...

    def submit(self, prepared: PreparedLaunch) -> InflightLaunch:
        """Start a prepared launch, possibly asynchronously."""
        ...


class ExecutorBase:
    """Common prepare / finalize / per-CTA machinery for every strategy."""

    def __init__(self, settings: ExecutorSettings):
        self.settings = settings

    # ------------------------------------------------------------------ prepare

    def prepare(self, spec: LaunchSpec) -> PreparedLaunch:
        """Resolve everything a launch needs before any CTA executes.

        This is the one copy of the launch-prep logic: compilation (via the
        compiler service), persistent-grid folding, argument binding, the
        perf-mode stratified sample and plan resolution all happen here, for
        ``Device.launch`` and ``Device.run_many`` alike.
        """
        settings = self.settings
        compiled = spec.kernel
        if not hasattr(compiled, "module"):
            compiled = compile_spec(settings, spec.kernel, spec.args,
                                    spec.constexprs, spec.options)
        grid3 = normalize_grid(spec.grid)
        total_tiles = grid3[0] * grid3[1] * grid3[2]
        persistent = bool(getattr(compiled.options, "persistent", False))

        if persistent:
            launched_ctas = min(settings.config.num_sms, total_tiles)
            launched_grid = (launched_ctas, 1, 1)
        else:
            launched_ctas = total_tiles
            launched_grid = grid3

        arg_values = self._bind_args(compiled, spec.args)
        launch_ctx = LaunchContext(
            config=settings.config,
            functional=settings.functional,
            grid=grid3,
            launched_grid=launched_grid,
            num_tiles=total_tiles,
            arg_values=dict(spec.args),
            sanitize=settings.engine == "sanitize",
        )

        active_sms = min(settings.config.num_sms, launched_ctas)
        bandwidth_scale = min(4.0, settings.config.num_sms / max(1, active_sms))

        if settings.functional:
            cta_ids = list(range(launched_ctas))
            extrapolated = False
        else:
            # Simulate a representative sample of the CTAs mapped to one SM,
            # stratified along every grid axis so that workloads whose
            # per-CTA work depends on the program id (causal attention: low
            # query blocks do far less work) are averaged fairly.
            per_sm = math.ceil(launched_ctas / active_sms) if launched_ctas else 0
            n_sim = max(1, min(per_sm, settings.max_ctas_per_sm_simulated,
                               launched_ctas)) if launched_ctas else 0
            gx, gy, gz = launched_grid
            sample = set()
            for i in range(n_sim):
                p0 = int((i + 0.5) * gx / n_sim) % gx
                p1 = int((i + 0.5) * gy / n_sim) % gy
                p2 = int((i + 0.5) * gz / n_sim) % gz
                sample.add(min(launched_ctas - 1, p0 + gx * (p1 + gy * p2)))
            cta_ids = sorted(sample)
            extrapolated = per_sm > len(cta_ids)

        plan = None
        if settings.planned:
            from repro.gpusim.plan import get_plan

            # Plans are part of the compile artifact (built eagerly by
            # CompilerService finalization for this device's mode), so for
            # service-compiled kernels this is a pure lookup; kernels compiled
            # directly via compile_kernel still get their plan built here,
            # once per launch, before any workers fork.
            plan = get_plan(compiled, settings.config, settings.functional)

        return PreparedLaunch(
            spec=spec,
            compiled=compiled,
            launched_grid=launched_grid,
            launched_ctas=launched_ctas,
            active_sms=active_sms,
            persistent=persistent,
            extrapolated=extrapolated,
            cta_ids=cta_ids,
            arg_values=arg_values,
            launch_ctx=launch_ctx,
            bandwidth_scale=bandwidth_scale,
            plan=plan,
            trace=[] if settings.collect_trace else None,
        )

    def _bind_args(self, compiled, args: Mapping[str, Any]) -> list[Any]:
        values = []
        for name in compiled.arg_names:
            if name not in args:
                raise SimulationError(f"missing runtime argument {name!r}")
            value = args[name]
            if isinstance(value, GlobalBuffer):
                value = Pointer(value)
            if isinstance(value, np.ndarray):
                raise SimulationError(
                    f"argument {name!r} is a raw NumPy array; wrap it with "
                    f"Device.tensor_desc(...) or Device.pointer(...)"
                )
            values.append(value)
        return values

    # ------------------------------------------------------------------ execute

    def execute(self, prepared: PreparedLaunch) -> list[CtaRow]:
        """Produce per-CTA rows in ``prepared.cta_ids`` order (strategy hook)."""
        raise NotImplementedError

    def run(self, prepared: PreparedLaunch) -> LaunchResult:
        """Execute a prepared launch synchronously and merge its rows."""
        return self.finalize(prepared, self.execute(prepared))

    def submit(self, prepared: PreparedLaunch) -> InflightLaunch:
        """Start a prepared launch; the base strategy runs it to completion.

        Asynchronous strategies (the pooled executor) override this to
        dispatch first and collect later, which is what lets :func:`run_pipelined`
        overlap the next launch's compilation with this launch's execution.
        """
        return InflightLaunch(self.run(prepared))

    def cta_runner(self, prepared: PreparedLaunch):
        """A closure simulating one CTA of a prepared launch in this process."""

        def run_cta(linear: int) -> CtaRow:
            return self.run_one_cta(prepared, linear)

        return run_cta

    def run_one_cta(self, prepared: PreparedLaunch, linear: int) -> CtaRow:
        settings = self.settings
        engine = Engine(settings.config, trace=prepared.trace)
        sm = SMResources(settings.config, prepared.bandwidth_scale)
        pid = linear_to_pid(linear, prepared.launched_grid)
        cta = CtaContext(launch=prepared.launch_ctx, linear_id=linear, pid=pid,
                         engine=engine, sm=sm)
        if prepared.plan is not None:
            agents, prologue = prepared.plan.instantiate(cta, prepared.arg_values)
            COUNTERS.plan_ctas += 1
        else:
            agents, prologue = build_cta_agents(prepared.compiled.func, cta,
                                                prepared.arg_values)
            COUNTERS.interpreter_ctas += 1
        for spec in agents:
            engine.add_agent(Agent(spec.name, spec.generator, sm), start_time=prologue)
        cycles = engine.run()
        if cta.sanitizer is not None:
            # Drain check: the CTA retired, so every aref slot must be EMPTY.
            cta.sanitizer.finalize()
        COUNTERS.engine_events += engine.events_processed
        return cycles, sm.tensor_core.busy_cycles, sm.tma.bytes_copied + sm.copy.bytes_copied

    # ------------------------------------------------------------------ finalize

    def finalize(self, prepared: PreparedLaunch,
                 rows: Sequence[CtaRow]) -> LaunchResult:
        """Merge per-CTA rows (in launch order) into a LaunchResult.

        The merge is deterministic: rows arrive ordered by ``cta_ids``
        regardless of which process simulated each CTA, and the reductions
        below are computed in that order, so the result is bit-identical
        across strategies.
        """
        settings = self.settings
        if settings.engine == "sanitize":
            COUNTERS.analysis_sanitized_launches += 1
        per_cta_cycles = [row[0] for row in rows]
        tc_busy = 0.0
        bytes_copied = 0
        for _, busy, copied in rows:
            tc_busy += busy
            bytes_copied += copied

        total_cycles = total_launch_cycles(settings, per_cta_cycles,
                                           prepared.launched_ctas,
                                           prepared.active_sms,
                                           prepared.persistent,
                                           settings.functional)
        seconds = settings.config.cycles_to_seconds(total_cycles)

        sm_cycles = sum(per_cta_cycles) or 1.0
        utilization = min(1.0, tc_busy / sm_cycles)

        return LaunchResult(
            cycles=total_cycles,
            seconds=seconds,
            total_ctas=prepared.launched_ctas,
            simulated_ctas=len(per_cta_cycles),
            per_cta_cycles=per_cta_cycles,
            tensor_core_busy_cycles=tc_busy,
            tensor_core_utilization=utilization,
            bytes_copied=bytes_copied,
            flops=prepared.spec.flops,
            extrapolated=prepared.extrapolated if not settings.functional else False,
            trace=prepared.trace,
        )


def run_pipelined(executor: Executor, specs: Sequence[LaunchSpec],
                  on_result: Callable[[int, LaunchResult], None] | None = None,
                  ) -> list[LaunchResult]:
    """Execute a batch of launches through one executor, in order.

    Compilation (kernel + execution plan, deduplicated by the process-wide
    caches) is pipelined against asynchronous execution: while launch *i*'s
    submission is in flight (pooled executor: its worker processes simulate
    its CTAs), this driver prepares -- compiles -- launch *i+1*, then
    collects *i* before submitting *i+1*.  Synchronous executors degenerate
    to sequential prepare/execute, still with fully deduplicated compilation.

    Any launch may consume a previous launch's output buffer, so the
    in-flight launch always completes before another launch executes; only
    the *prepare* phase (compilation, plan building, argument binding --
    none of which read buffer payloads) overlaps it.

    ``on_result`` is invoked with ``(index, result)`` the moment each
    launch's result is collected -- before later launches of the batch run
    -- which is how the serve layer streams per-request completions out of a
    micro-batch instead of holding every reply until the batch drains.  By
    that point the launch's output buffers hold their final payload.  The
    callback runs on the driving thread; exceptions it raises abort the
    batch like any launch failure.
    """
    results: list[LaunchResult | None] = [None] * len(specs)
    pending: tuple[int, InflightLaunch] | None = None

    def record(index: int, result: LaunchResult) -> None:
        results[index] = result
        if on_result is not None:
            on_result(index, result)

    try:
        for i, spec in enumerate(specs):
            prepared = executor.prepare(spec)
            if pending is not None:
                j, inflight = pending
                pending = None
                record(j, inflight.collect())
            inflight = executor.submit(prepared)
            if inflight.done:
                record(i, inflight.collect())
            else:
                pending = (i, inflight)
        if pending is not None:
            j, inflight = pending
            pending = None
            record(j, inflight.collect())
    except BaseException:
        # Don't leave pool workers busy (or the launch's buffers in the
        # pool's arena) when a later spec fails to prepare.
        if pending is not None:
            pending[1].abort()
        raise
    # Every submitted launch was collected exactly once above; a collect()
    # that returned without producing a result would otherwise escape here
    # silently typed as a LaunchResult.
    missing = [i for i, result in enumerate(results) if result is None]
    if missing:
        raise SimulationError(
            f"run_pipelined finished with uncollected launches at indices "
            f"{missing} of {len(results)}"
        )
    return [result for result in results if result is not None]
