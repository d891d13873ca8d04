"""The codegen executor: one vectorized NumPy call per launch.

:class:`CodegenExecutor` runs ``engine="codegen"``, the third CTA engine
(interpreter -> plans -> codegen).  For launches whose kernel the
plan-to-source emitter (:mod:`repro.gpusim.codegen`) proved vectorizable, it

1. simulates **one representative CTA** through the launch's execution plan
   to obtain the launch's timing row -- the
   emitter only vectorizes launch-uniform control flow, under which every
   CTA of a launch produces the same ``(cycles, tc_busy, bytes)`` row, so
   replicating the representative row is bit-identical to simulating all of
   them; and
2. in functional mode, runs the generated batch function once with a leading
   CTA axis over the launch's real buffers, so ``B`` CTAs cost one NumPy
   dispatch instead of ``B`` interpreted walks.  (The representative CTA ran
   first, in launch order position 0; the batch re-runs it with identical
   inputs -- reads never alias writes for vectorized launches -- so the
   final buffer state equals the serial engines' state bit for bit.)

Everything else -- non-vectorizable kernels, launches whose runtime
arguments alias reads with writes, trace collection -- falls back to the
executor the device would have selected with ``engine="plans"``, counted by
``codegen_fallback_launches``.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.gpusim.executors.base import CtaRow, ExecutorBase, InflightLaunch
from repro.gpusim.launch import LaunchResult, PreparedLaunch, linear_to_pid
from repro.gpusim.memory import Pointer, TensorDesc
from repro.perf.counters import COUNTERS


class CodegenExecutor(ExecutorBase):
    """Batch all CTAs of a vectorizable launch through one generated call."""

    def __init__(self, settings):
        super().__init__(settings)
        from repro.gpusim.executors import select_executor

        # The executor this device would use on plans; prepare() is shared
        # (no strategy overrides it), so a PreparedLaunch built here is
        # directly runnable by the fallback.
        self._fallback = select_executor(replace(settings, engine="plans"))

    # ------------------------------------------------------------------ entry

    def run(self, prepared: PreparedLaunch) -> LaunchResult:
        if self._eligible(prepared):
            return self.finalize(prepared, self._vector_rows(prepared))
        COUNTERS.codegen_fallback_launches += 1
        return self._fallback.run(prepared)

    def submit(self, prepared: PreparedLaunch) -> InflightLaunch:
        if self._eligible(prepared):
            return InflightLaunch(self.finalize(prepared, self._vector_rows(prepared)))
        COUNTERS.codegen_fallback_launches += 1
        return self._fallback.submit(prepared)

    # ------------------------------------------------------------------ policy

    def _artifact(self, prepared: PreparedLaunch):
        from repro.gpusim.codegen import get_codegen

        return get_codegen(prepared.compiled, self.settings.config,
                           self.settings.functional)

    def _eligible(self, prepared: PreparedLaunch) -> bool:
        """Whether this launch can go through the vectorized batch call.

        Static ineligibility (warp specialization, CTA-varying control flow,
        unsupported ops) is recorded on the cached artifact; the per-launch
        checks below guard the *runtime* assumptions of the batched data
        flow: reads must never observe this launch's writes (batched loads
        all happen before batched stores commit in program order), and base
        pointer arguments must carry scalar offsets (the emitter typed them
        as rank-0).
        """
        if self.settings.collect_trace or not prepared.cta_ids:
            return False
        artifact = self._artifact(prepared)
        if not artifact.vectorizable:
            return False
        if not self.settings.functional:
            # Perf mode never runs payloads: the representative row is all
            # that is needed, and the hazard checks below do not apply.
            return True
        args = prepared.arg_values
        load_buffers = {id(b) for b in self._root_buffers(args, artifact.load_roots)}
        store_buffers = {id(b) for b in self._root_buffers(args, artifact.store_roots)}
        if load_buffers & store_buffers:
            return False
        for index in set(artifact.load_roots) | set(artifact.store_roots):
            value = args[index]
            if isinstance(value, Pointer) and isinstance(value.offsets, np.ndarray):
                return False
        return True

    @staticmethod
    def _root_buffers(args, roots) -> list[object]:
        buffers = []
        for index in roots:
            value = args[index]
            if isinstance(value, (Pointer, TensorDesc)):
                buffers.append(value.buffer)
        return buffers

    # ------------------------------------------------------------------ execute

    def _vector_rows(self, prepared: PreparedLaunch) -> list[CtaRow]:
        """The launch's per-CTA rows: one simulated row, replicated.

        The representative CTA is ``cta_ids[0]`` and runs *first* (reading
        pristine inputs, exactly like serial launch order); the batch call
        then executes every CTA's payload, including the representative's
        again with identical operands, in CTA-major order -- so overlapping
        stores resolve last-write-wins in launch order, like the serial
        engines.
        """
        ids = prepared.cta_ids
        row = self.run_one_cta(prepared, ids[0])
        if self.settings.functional:
            fn = self._artifact(prepared).callable()
            pids = np.array([linear_to_pid(i, prepared.launched_grid) for i in ids],
                            dtype=np.int64)
            fn(len(ids), pids[:, 0], pids[:, 1], pids[:, 2],
               np.asarray(ids, dtype=np.int64), prepared.arg_values,
               prepared.launch_ctx.grid, prepared.launched_grid,
               prepared.launch_ctx.num_tiles, prepared.launched_ctas)
        COUNTERS.codegen_launches += 1
        COUNTERS.codegen_ctas_batched += len(ids)
        return [row] * len(ids)

    def execute(self, prepared: PreparedLaunch) -> list[CtaRow]:
        """Strategy hook (protocol completeness): vectorize or fall back."""
        if self._eligible(prepared):
            return self._vector_rows(prepared)
        COUNTERS.codegen_fallback_launches += 1
        return [self.run_one_cta(prepared, linear) for linear in prepared.cta_ids]
