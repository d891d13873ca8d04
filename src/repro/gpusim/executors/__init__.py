"""The executor layer: every way the simulator runs a prepared launch.

An *executor* turns :class:`~repro.gpusim.launch.LaunchSpec` objects into
:class:`~repro.gpusim.launch.LaunchResult` objects behind one small protocol
(:class:`Executor`): ``prepare(spec)`` resolves everything a launch needs
before any CTA runs, ``run(prepared)`` executes it.  The
:class:`~repro.gpusim.device.Device` façade selects an executor from its
``(mode, engine, workers, collect_trace)`` settings and delegates every
launch path -- ``launch``, ``run_many``, the figure sweeps -- through it, so
every execution strategy shares one launch-prep, merge and counter pipeline.

Strategies:

* :class:`~repro.gpusim.executors.serial.SerialExecutor` -- every CTA in the
  calling process (plans, the interpreter oracle, or the interpreter under
  the aref sanitizer).
* :class:`~repro.gpusim.executors.pooled.PooledExecutor` -- functional grids
  sharded across the persistent worker pool (:mod:`repro.gpusim.pool`),
  with asynchronous submission so batch pipelining can overlap compilation
  with execution.  Launches the pool cannot take run serially.
* :class:`~repro.gpusim.executors.vectorized.CodegenExecutor` -- one
  generated NumPy call per vectorizable launch, delegating the rest to
  whichever strategy the plans engine would select.

New strategies plug in by subclassing :class:`ExecutorBase` and overriding
``execute`` (synchronous) or ``submit`` (overlapped); the autotuner
(:mod:`repro.tune`) and the sweep harnesses see them through the same
protocol automatically.
"""

from __future__ import annotations

import os

from repro.gpusim.executors.base import (
    ENGINES,
    Executor,
    ExecutorBase,
    ExecutorSettings,
    InflightLaunch,
    compile_spec,
    infer_arg_type,
    run_pipelined,
    total_launch_cycles,
)
from repro.gpusim.executors.serial import SerialExecutor
from repro.gpusim.executors.pooled import PooledExecutor
from repro.gpusim.executors.vectorized import CodegenExecutor

__all__ = [
    "CodegenExecutor",
    "ENGINES",
    "Executor",
    "ExecutorBase",
    "ExecutorSettings",
    "InflightLaunch",
    "PooledExecutor",
    "SerialExecutor",
    "compile_spec",
    "infer_arg_type",
    "resolve_engine",
    "run_pipelined",
    "select_executor",
    "total_launch_cycles",
    "validate_engine_settings",
]


def resolve_engine(engine: str | None = None) -> str:
    """The CTA engine: explicit ``engine``, else ``REPRO_SIM_ENGINE``, else plans."""
    from repro.gpusim.engine import SimulationError

    source = "engine"
    if engine is None:
        source = "REPRO_SIM_ENGINE"
        engine = os.environ.get(source, "").strip().lower() or "plans"
    if engine not in ENGINES:
        raise SimulationError(f"invalid {source}={engine!r}; expected one "
                              f"of {', '.join(ENGINES)}")
    return engine


def select_executor(settings: ExecutorSettings) -> ExecutorBase:
    """The executor a device with ``settings`` runs launches through.

    The vectorized codegen engine wraps whichever strategy the plans engine
    would select: it batches vectorizable launches through one generated
    NumPy call and delegates everything else (per launch) to its fallback,
    so ``engine="codegen"`` composes with the pool.  Trace collection
    disables it -- the per-op event trace only exists on the
    interpreted/planned paths.

    Sharding is only ever profitable (and only correct -- the trace must
    interleave globally, and the perf-mode sample is a handful of CTAs) for
    functional, trace-free devices bound to an open worker pool; everything
    else runs serially.
    """
    if settings.engine == "sanitize":
        # The sanitizer validates the *interpreter's* committed aref
        # transitions, and its error must surface in the calling process.
        return SerialExecutor(settings)
    if settings.engine == "codegen" and not settings.collect_trace:
        return CodegenExecutor(settings)
    if (settings.functional and not settings.collect_trace
            and settings.pool is not None and not settings.pool.closed):
        return PooledExecutor(settings)
    return SerialExecutor(settings)


def validate_engine_settings(*, collect_trace=None, pool=None,
                             engine=None) -> None:
    """Reject contradictory engine-selection combinations up front.

    This is the one home of the engine-selection compatibility matrix.  Every
    argument is ``None`` when the caller did not set it *explicitly* --
    environment-resolved values (``REPRO_SIM_WORKERS``,
    ``REPRO_SIM_ENGINE``) are deliberately not judged here, so a test that
    builds a tracing device under a CI-wide ``REPRO_SIM_ENGINE=codegen``
    still degrades gracefully instead of erroring.

    A worker *count* is likewise only a hint even when explicit -- the pool
    has always been skipped silently for small grids, perf mode and trace
    collection (pinned by ``tests/test_parallel.py``), so it is never judged
    here.  An explicit :class:`~repro.gpusim.pool.WorkerPool` instance
    (``pool``) and an explicit ``engine``, by contrast, name a specific
    engine: asking for one in a configuration that can never use it raises
    :class:`~repro.gpusim.engine.SimulationError` immediately, at
    construction time, instead of being silently ignored at launch time.
    """
    from repro.gpusim.engine import SimulationError

    if pool is not None:
        if collect_trace:
            raise SimulationError(
                "collect_trace=True requires serial execution (the event "
                "trace must interleave globally); it cannot be combined with "
                "a persistent worker pool. Drop the pool or the trace."
            )
        if engine == "sanitize":
            raise SimulationError(
                "engine='sanitize' requires serial in-process execution (the "
                "sanitizer's verdict must surface in the calling process); "
                "it cannot be combined with a persistent worker pool. Drop "
                "the pool or pick another engine."
            )
    if collect_trace and engine == "codegen":
        raise SimulationError(
            "collect_trace=True cannot be combined with engine='codegen': "
            "the vectorized batch call executes no per-op events to trace. "
            "Pick another engine or drop the trace."
        )
