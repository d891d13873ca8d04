"""The simulated GPU device: a thin façade over the executor layer.

:class:`Device` is the user-facing entry point of the simulator.  It

* wraps NumPy arrays into simulated global buffers / TMA descriptors,
* compiles frontend kernels through the process-wide
  :class:`repro.core.service.CompilerService` (content-addressed artifacts,
  shared across devices and -- with ``REPRO_CACHE_DIR`` -- across processes),
* selects an :class:`~repro.gpusim.executors.Executor` from its
  ``(mode, workers, use_plans, collect_trace)`` settings and delegates every
  launch path -- :meth:`launch`, :meth:`run_many`, the figure sweeps --
  through it.

All launch-prep, shard-orchestration, merge and extrapolation logic lives in
:mod:`repro.gpusim.executors`; the device holds no per-launch state and no
execution bodies of its own.

Two execution modes exist:

* ``functional`` -- every CTA of the grid is executed with real NumPy
  payloads.  Used by correctness tests and the examples on small problem
  sizes.
* ``performance`` -- tile payloads are symbolic and only the most-loaded SM is
  simulated in detail; the total runtime is extrapolated from the per-CTA
  steady state with wave quantization and launch overheads.  Used by the
  benchmark harnesses on paper-scale problem sizes.

Functional grids can additionally be *sharded* across the persistent worker
pool (``Device(workers=N)`` or ``REPRO_SIM_WORKERS=N``, see
:mod:`repro.gpusim.pool`); the merged result is bit-identical to serial
execution.  Whole sweeps of launches are submitted at once through
:meth:`Device.run_many` / :class:`LaunchBatch`, which front-loads and
deduplicates compilation and overlaps it with pooled execution.
"""

from __future__ import annotations

import os
from collections.abc import Mapping, Sequence
from typing import Any

import numpy as np

from repro.gpusim import blas, executors, parallel
from repro.gpusim import pool as pool_mod
from repro.gpusim.config import DEFAULT_CONFIG, H100Config
from repro.gpusim.launch import LaunchResult, LaunchSpec
from repro.gpusim.memory import GlobalBuffer, Pointer, TensorDesc
from repro.ir.types import ScalarType, Type

__all__ = [
    "Device",
    "LaunchBatch",
    "LaunchResult",
    "LaunchSpec",
    "clear_compile_cache",
]


def clear_compile_cache() -> None:
    """Drop the process-wide in-memory compile cache (mostly for tests).

    Compilation is owned by :class:`repro.core.service.CompilerService`
    (content-addressed artifacts shared across devices and, with
    ``REPRO_CACHE_DIR``, across processes); this only clears its in-process
    tier -- the persistent tier is environment-scoped.
    """
    from repro.core.service import reset_compiler_service

    reset_compiler_service()


def _env_use_plans() -> bool:
    return os.environ.get("REPRO_SIM_PLANS", "1") not in ("0", "false", "off")


def _env_codegen() -> bool:
    return os.environ.get("REPRO_SIM_CODEGEN", "0") in ("1", "true", "on")


def _env_sanitize() -> bool:
    return os.environ.get("REPRO_SIM_SANITIZE", "0") in ("1", "true", "on")


class LaunchBatch:
    """An order-preserving queue of launches executed by :meth:`Device.run_many`.

    >>> batch = device.batch()
    >>> batch.add(matmul_kernel, grid, args, constexprs=cexprs, options=opts)
    >>> results = batch.run()          # one LaunchResult per add(), in order
    """

    def __init__(self, device: "Device"):
        self.device = device
        self.specs: list[LaunchSpec] = []
        self.results: list[LaunchResult] | None = None

    def add(self, kernel, grid, args: Mapping[str, Any],
            constexprs: Mapping[str, Any] | None = None, options=None,
            flops: float | None = None) -> int:
        """Queue one launch; returns its index into :attr:`results`."""
        self.specs.append(LaunchSpec(kernel, grid, args, constexprs, options, flops))
        return len(self.specs) - 1

    def __len__(self) -> int:
        return len(self.specs)

    def run(self) -> list[LaunchResult]:
        """Execute every queued launch and return their results in order."""
        self.results = self.device.run_many(self.specs)
        return self.results


class Device:
    """A simulated H100 GPU."""

    def __init__(self, config: H100Config = DEFAULT_CONFIG, mode: str = "functional",
                 max_ctas_per_sm_simulated: int = 8, collect_trace: bool = False,
                 use_plans: bool | None = None,
                 workers: "int | pool_mod.WorkerPool | None" = None,
                 shard_timeout: float | None = None,
                 shard_retries: int | None = None,
                 codegen: bool | None = None,
                 sanitize: bool | None = None):
        if mode not in ("functional", "performance"):
            raise ValueError(f"unknown device mode {mode!r}")
        # Tile-sized BLAS calls run fastest on one thread; pool workers fork
        # after this and inherit the setting (repro.gpusim.blas).
        blas.pin_single_thread()
        self.config = config
        self.mode = mode
        self.max_ctas_per_sm_simulated = max_ctas_per_sm_simulated
        self.collect_trace = collect_trace
        # use_plans: execute CTAs through compile-once execution plans
        # (repro.gpusim.plan).  The IR interpreter remains available as the
        # differential-testing oracle via use_plans=False or REPRO_SIM_PLANS=0.
        self.use_plans = _env_use_plans() if use_plans is None else bool(use_plans)
        # workers: shard functional grids across the process-global pool of
        # N persistent workers (repro.gpusim.pool) when N >= 2.  None
        # consults REPRO_SIM_WORKERS; 0 or "auto" selects the CPU count.  A
        # WorkerPool instance binds the device to that pool.  Results are
        # bit-identical to serial.
        explicit_pool = workers if isinstance(workers, pool_mod.WorkerPool) else None
        self.workers = explicit_pool or parallel.resolve_workers(workers)
        # Supervision policy for pooled launches (repro.gpusim.parallel):
        # seconds without worker progress before a shard is declared hung
        # (None consults REPRO_SIM_SHARD_TIMEOUT; 0 disables the deadline)
        # and retries per failed shard before the in-process serial fallback
        # (None consults REPRO_SIM_SHARD_RETRIES).
        self.shard_timeout = parallel.resolve_shard_timeout(shard_timeout)
        self.shard_retries = parallel.resolve_shard_retries(shard_retries)
        # codegen: batch vectorizable launches through one generated NumPy
        # call per launch (repro.gpusim.codegen); non-vectorizable launches
        # fall back to plans/interpreter.  None consults REPRO_SIM_CODEGEN
        # (default off).  Results are bit-identical to serial.
        self.codegen = _env_codegen() if codegen is None else bool(codegen)
        # sanitize: validate every committed aref transition against the
        # formal protocol model (repro.analysis.sanitizer), TSan-style.
        # Forces serial interpreter execution.  None consults
        # REPRO_SIM_SANITIZE (default off).
        self.sanitize = _env_sanitize() if sanitize is None else bool(sanitize)
        # Reject explicitly contradictory knob combinations up front; knobs
        # resolved from the environment are judged by the selection matrix
        # (graceful degradation), not here.
        executors.validate_engine_settings(
            collect_trace=self.collect_trace,
            pool=explicit_pool,
            codegen=self.codegen if codegen is not None else None,
            sanitize=self.sanitize if sanitize is not None else None,
        )

    # ------------------------------------------------------------------ executor

    @property
    def pool(self) -> "pool_mod.WorkerPool | None":
        """The worker pool ``workers`` names (``None``: serial execution)."""
        return pool_mod.resolve_pool(self.workers)

    def executor_settings(self) -> executors.ExecutorSettings:
        """The current device settings as an executor-layer value object."""
        return executors.ExecutorSettings(
            config=self.config,
            mode=self.mode,
            max_ctas_per_sm_simulated=self.max_ctas_per_sm_simulated,
            collect_trace=self.collect_trace,
            use_plans=self.use_plans,
            shard_timeout=self.shard_timeout,
            shard_retries=self.shard_retries,
            pool=self.pool,
            codegen=self.codegen,
            sanitize=self.sanitize,
        )

    def executor(self) -> executors.ExecutorBase:
        """The executor this device's launches run through.

        Re-selected per call from the live attribute values (they are plain
        and mutable), so tests toggling ``device.workers`` or
        ``device.use_plans`` see the strategy change immediately.
        """
        return executors.select_executor(self.executor_settings())

    # ------------------------------------------------------------------ data API

    @property
    def functional(self) -> bool:
        return self.mode == "functional"

    def buffer(self, array_or_shape, element_type: str | ScalarType,
               name: str = "buf") -> GlobalBuffer:
        """Create a global-memory buffer (from a NumPy array or just a shape)."""
        if isinstance(array_or_shape, np.ndarray):
            if self.functional:
                return GlobalBuffer.from_numpy(array_or_shape, element_type, name)
            return GlobalBuffer(array_or_shape.shape, element_type, None, name)
        return GlobalBuffer.empty(array_or_shape, element_type, self.functional, name)

    def tensor_desc(self, array_or_buffer, element_type: str | ScalarType | None = None,
                    name: str = "desc") -> TensorDesc:
        """Create a TMA tensor descriptor over a buffer or NumPy array."""
        if isinstance(array_or_buffer, GlobalBuffer):
            return TensorDesc(array_or_buffer)
        if element_type is None:
            raise ValueError("element_type is required when wrapping a NumPy array")
        return TensorDesc(self.buffer(array_or_buffer, element_type, name))

    def pointer(self, array_or_buffer, element_type: str | ScalarType | None = None,
                name: str = "ptr") -> Pointer:
        """Create a pointer argument over a buffer or NumPy array."""
        if isinstance(array_or_buffer, GlobalBuffer):
            return Pointer(array_or_buffer)
        if element_type is None:
            raise ValueError("element_type is required when wrapping a NumPy array")
        return Pointer(self.buffer(array_or_buffer, element_type, name))

    # ------------------------------------------------------------------ compile

    @staticmethod
    def infer_arg_type(value: Any) -> Type:
        """Infer the IR type of a runtime kernel argument."""
        return executors.infer_arg_type(value)

    def compile(self, kern, args: Mapping[str, Any], constexprs: Mapping[str, Any] | None = None,
                options=None):
        """Compile a frontend kernel for the given runtime arguments (cached).

        Routed through the process-wide
        :class:`repro.core.service.CompilerService` (see
        :func:`repro.gpusim.executors.base.compile_spec`).
        """
        return executors.compile_spec(self.executor_settings(), kern, args,
                                      constexprs, options)

    # ------------------------------------------------------------------ launch

    def run(
        self,
        kernel_or_compiled,
        grid: int | Sequence[int],
        args: Mapping[str, Any],
        constexprs: Mapping[str, Any] | None = None,
        options=None,
        flops: float | None = None,
    ) -> LaunchResult:
        """Compile (if necessary) and launch a kernel over ``grid``.

        ``args`` maps the kernel's runtime parameter names to runtime values
        (descriptors, pointers, scalars).  ``flops`` is the logical FLOP count
        of the launch, used only to report TFLOP/s.
        """
        spec = LaunchSpec(kernel_or_compiled, grid, args, constexprs, options,
                          flops)
        executor = self.executor()
        return executor.run(executor.prepare(spec))

    def launch(self, compiled, grid, args: Mapping[str, Any],
               flops: float | None = None) -> LaunchResult:
        return self.run(compiled, grid, args, flops=flops)

    def batch(self) -> LaunchBatch:
        """A new, empty launch queue bound to this device."""
        return LaunchBatch(self)

    def run_many(self, specs: Sequence[LaunchSpec],
                 on_result=None) -> list[LaunchResult]:
        """Execute a whole batch of launches; one result per spec, in order.

        Delegates to :func:`repro.gpusim.executors.base.run_pipelined`, which
        overlaps compilation of launch *i+1* with (pooled) execution of
        launch *i* for any executor strategy.  ``on_result(index, result)``,
        if given, fires as each launch of the batch completes (the serve
        layer's streaming-completion hook).
        """
        return executors.run_pipelined(self.executor(), specs, on_result)
