"""Process-wide simulator throughput counters.

The simulator stack increments these as it works:

* the compiler service (:mod:`repro.core.service`) counts artifact-cache hits
  and misses for both tiers -- the in-process LRU (``compile_cache_*``) and
  the optional ``REPRO_CACHE_DIR`` persistent tier (``compile_disk_*``) --
  and the pass pipeline feeds per-pass wall time into ``compile_seconds`` /
  ``compile_pass_seconds`` through :meth:`SimCounters.record_pass_timing`
  (and the between-pass IR verification into ``compile_verify_seconds``,
  also part of ``compile_seconds``), so compile cost is observable next to
  simulation cost;
* the execution-plan cache (:mod:`repro.gpusim.plan`) counts plan builds and
  reuses;
* the device counts CTAs simulated through each execution path and the
  discrete events the engine processed;
* the persistent worker pool (:mod:`repro.gpusim.pool`) counts pooled
  launches, worker spawns and fallbacks, and folds each worker's counter
  delta back into the parent's block via :meth:`SimCounters.merge` -- so the
  aggregate view (CTAs simulated, engine events, ...) stays accurate no
  matter which process did the work.

``snapshot()`` gives a plain dict for reports / JSON; ``reset()`` zeroes the
counters (used by benchmarks to scope a measurement and by worker processes
to turn their copy-on-write block into a pure delta).
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, field, fields
from collections.abc import Mapping


@dataclass
class SimCounters:
    """Mutable counter block shared by the whole process."""

    #: in-process compile-artifact cache (repro.core.service)
    compile_cache_hits: int = 0
    compile_cache_misses: int = 0
    #: persistent on-disk artifact cache (repro.core.cache, REPRO_CACHE_DIR);
    #: only counted while the disk tier is enabled
    compile_disk_hits: int = 0
    compile_disk_misses: int = 0
    compile_disk_writes: int = 0
    compile_disk_errors: int = 0
    #: disk entries quarantined (renamed to *.corrupt) after an IO failure
    #: or corruption, instead of being deleted -- the evidence survives, the
    #: launch falls back to a cold compile / re-tune
    compile_disk_quarantined: int = 0
    tune_store_quarantined: int = 0
    #: singleflight compile dedup (repro.core.service): callers that found
    #: the same content-addressed artifact already being compiled by another
    #: thread and waited for it instead of running the pipeline themselves
    compile_singleflight_waits: int = 0
    #: pass-pipeline executions (repro.ir.passes timing hooks): total passes
    #: run, total compile wall-seconds (passes plus verification), per-pass
    #: wall-seconds, and the between-pass IR verification's wall-seconds.  A
    #: process that satisfies every compile from the caches keeps these at
    #: zero.
    compile_passes_run: int = 0
    compile_seconds: float = 0.0
    compile_pass_seconds: dict[str, float] = field(default_factory=dict)
    compile_verify_seconds: float = 0.0
    #: execution-plan cache (repro.gpusim.plan), per (kernel, mode, config)
    plan_cache_hits: int = 0
    plan_cache_misses: int = 0
    #: CTAs simulated via compiled plans vs. the IR interpreter
    plan_ctas: int = 0
    interpreter_ctas: int = 0
    #: discrete events processed by the engine across all launches
    engine_events: int = 0
    #: shard supervision (repro.gpusim.pool.PoolLaunch): retries on a
    #: respawned worker after a worker death/hang/corrupt result, hang
    #: deadlines that fired, and shards that exhausted their retries and
    #: re-executed serially in the parent
    shard_retries: int = 0
    shard_timeouts: int = 0
    shard_serial_fallbacks: int = 0
    #: persistent worker pool (repro.gpusim.pool): launches dispatched to
    #: pool workers, long-lived workers forked (spawns + supervision
    #: respawns), respawns alone, and launches a PooledExecutor had to run
    #: serially in-process instead (arena overflow, unkeyed artifact, busy
    #: pool)
    pool_launches: int = 0
    pool_workers_spawned: int = 0
    pool_worker_respawns: int = 0
    pool_fallback_launches: int = 0
    #: fallbacks caused specifically by the pool already having a launch in
    #: flight (a subset of pool_fallback_launches) -- the serve layer's
    #: queue-pressure signal, distinct from structural fallbacks (oversized
    #: launch, unkeyed artifact, closed pool)
    pool_busy_rejections: int = 0
    #: faults fired by the active repro.faults registry (tree-wide: fires
    #: inside worker processes are folded in by the registry's owner)
    faults_injected: int = 0
    #: bytes currently live in worker-pool arena mappings (a gauge, not a
    #: cumulative counter: SharedArena creation adds, SharedArena.close
    #: subtracts; a process with no open pool reads 0)
    parallel_shared_bytes: int = 0
    #: plan-to-source codegen (repro.gpusim.codegen): artifacts emitted vs.
    #: reused from the in-process memo / persistent disk tier, launches that
    #: went through a vectorized batch call (with the CTAs they batched), and
    #: launches that fell back to plans/interpreter because the kernel or the
    #: launch was not vectorizable
    codegen_emitted: int = 0
    codegen_memory_hits: int = 0
    codegen_disk_hits: int = 0
    codegen_disk_writes: int = 0
    codegen_launches: int = 0
    codegen_ctas_batched: int = 0
    codegen_fallback_launches: int = 0
    #: autotuner (repro.tune): persisted best-config tier lookups, simulated
    #: measurements actually run (a warm store hit runs zero), and candidates
    #: discarded by static pruning before ranking
    tune_store_hits: int = 0
    tune_store_misses: int = 0
    tune_measurements: int = 0
    tune_candidates_pruned: int = 0
    #: static analysis (repro.analysis): analysis executions actually run,
    #: results served from the in-process memo / persistent disk tier,
    #: diagnostics produced across all runs, and launches simulated with the
    #: aref sanitizer attached (Device(engine="sanitize"))
    analysis_runs: int = 0
    analysis_memory_hits: int = 0
    analysis_disk_hits: int = 0
    analysis_disk_writes: int = 0
    analysis_diagnostics: int = 0
    analysis_sanitized_launches: int = 0
    #: async serve layer (repro.serve): requests admitted, requests refused
    #: with a typed Busy reply (bounded admission queue), requests that
    #: coalesced onto an identical queued/in-flight launch instead of
    #: dispatching their own, requests dropped at batch formation because
    #: their deadline expired or their client cancelled, micro-batches
    #: dispatched and the launches those batches carried
    serve_requests: int = 0
    serve_shed_requests: int = 0
    serve_coalesced_requests: int = 0
    serve_deadline_drops: int = 0
    serve_cancelled_drops: int = 0
    serve_batches: int = 0
    serve_batched_launches: int = 0

    def record_pass_timing(self, name: str, seconds: float) -> None:
        """Fold one pass execution into the compile-cost counters.

        Wired as the :attr:`repro.ir.passes.PassManager.timing_sink` by the
        compiler driver, so every pass-pipeline execution in the process is
        accounted for here.
        """
        self.compile_passes_run += 1
        self.compile_seconds += seconds
        self.compile_pass_seconds[name] = (
            self.compile_pass_seconds.get(name, 0.0) + seconds
        )

    def record_verify_timing(self, seconds: float) -> None:
        """Fold one between-pass IR verification into the compile cost.

        Wired as the :attr:`repro.ir.passes.PassManager.verify_sink`; counts
        toward ``compile_seconds`` but not ``compile_passes_run``.
        """
        self.compile_verify_seconds += seconds
        self.compile_seconds += seconds

    def snapshot(self) -> dict:
        return {
            f.name: (dict(v) if isinstance(v := getattr(self, f.name), dict) else v)
            for f in fields(self)
        }

    def reset(self) -> None:
        for f in fields(self):
            if f.default_factory is not MISSING:  # type: ignore[misc]
                setattr(self, f.name, f.default_factory())  # type: ignore[misc]
            else:
                setattr(self, f.name, f.default)

    def merge(self, delta: Mapping) -> None:
        """Fold a worker process's counter snapshot into this block.

        Addition is commutative (per scalar counter and per dict key), so the
        aggregate is independent of the order in which worker shards complete
        -- part of the pooled executor's determinism guarantee.
        """
        for f in fields(self):
            increment = delta.get(f.name)
            if not increment:
                continue
            current = getattr(self, f.name)
            if isinstance(current, dict):
                for key, value in increment.items():
                    current[key] = current.get(key, 0.0) + value
            elif isinstance(current, float):
                setattr(self, f.name, current + float(increment))
            else:
                setattr(self, f.name, current + int(increment))


#: The process-wide counter block.
COUNTERS = SimCounters()


def sim_counters() -> dict:
    """A snapshot of the process-wide simulator counters."""
    return COUNTERS.snapshot()


def reset_sim_counters() -> None:
    """Zero the process-wide simulator counters."""
    COUNTERS.reset()
