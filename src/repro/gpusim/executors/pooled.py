"""The pooled executor: launches sharded across the persistent worker pool.

Bridges :mod:`repro.gpusim.pool` into the :class:`Executor` protocol.
``prepare`` compiles through the compiler service, ``submit`` returns an
in-flight handle, ``collect`` merges in launch order -- and execution goes
to the pool's long-lived workers: the work item carries the artifact's
content fingerprint (resolved from the worker's fork-inherited cache, zero
compiles when warm) and the launch's buffers travel through the pool's
reusable shared-memory arena.

Every launch the pool cannot take runs through the inherited
:class:`SerialExecutor` body in the calling process:

* fewer than two CTAs (nothing to shard; not counted as a fallback);
* no content fingerprint (kernel compiled outside the service), a busy or
  shut-down pool, or a launch that does not fit the arena -- counted as
  ``pool_fallback_launches`` (and a busy pool also as
  ``pool_busy_rejections``).

Results are bit-identical to :class:`SerialExecutor` either way: the same
per-CTA simulation runs against content-identical arguments, and the merge
is the shared deterministic launch-order reduction.
"""

from __future__ import annotations

from repro.gpusim import pool as pool_mod
from repro.gpusim.executors.base import InflightLaunch
from repro.gpusim.executors.serial import SerialExecutor
from repro.gpusim.launch import LaunchResult, PreparedLaunch
from repro.gpusim.parallel import SupervisorConfig
from repro.perf.counters import COUNTERS


class PooledExecutor(SerialExecutor):
    """Shard launches across a persistent :class:`WorkerPool`."""

    @property
    def pool(self) -> "pool_mod.WorkerPool":
        return self.settings.pool

    def effective_workers(self, prepared: PreparedLaunch) -> int:
        """How many pool workers this launch shards across (1 = serial)."""
        return max(1, min(self.pool.size, len(prepared.cta_ids)))

    def supervisor_config(self) -> SupervisorConfig:
        """The supervision policy this executor's launches run under."""
        return SupervisorConfig(timeout=self.settings.shard_timeout,
                                retries=self.settings.shard_retries)

    def settings_state(self) -> tuple:
        """The picklable settings slice a pool work item carries."""
        s = self.settings
        return (s.config, s.mode, s.max_ctas_per_sm_simulated, s.engine)

    def run(self, prepared: PreparedLaunch) -> LaunchResult:
        return self.submit(prepared).collect()

    def _fall_back(self, prepared: PreparedLaunch) -> InflightLaunch:
        """Run a launch the pool cannot take serially, in this process."""
        COUNTERS.pool_fallback_launches += 1
        return InflightLaunch(self.finalize(prepared, self.execute(prepared)))

    def submit(self, prepared: PreparedLaunch) -> InflightLaunch:
        """Dispatch to the pool, or run the launch serially in-process."""
        workers = self.effective_workers(prepared)
        if workers <= 1:  # nothing to shard: serial, not a fallback
            return InflightLaunch(self.finalize(prepared,
                                                self.execute(prepared)))
        pool = self.pool
        key = getattr(prepared.compiled, "fingerprint", None)
        if key is None:
            return self._fall_back(prepared)
        # Claim the pool *atomically* before staging anything into its arena:
        # a bare busy check is check-then-act, and two threads dispatching
        # over one process-global pool (the serve layer's dispatch thread
        # racing a direct caller) would otherwise both pass it and collide.
        token = object()
        if not pool.try_claim(token):
            if not pool.closed:
                # Queue pressure, not a structural mismatch: the pool itself
                # was eligible but already owned by an in-flight launch.
                # Counted separately so the serve layer can report honest
                # contention next to the catch-all fallback count.
                COUNTERS.pool_busy_rejections += 1
            return self._fall_back(prepared)
        placements = pool.arena.place_buffers(
            list(prepared.spec.args.values()))
        if placements is None:  # oversized launch (or data-free buffer)
            pool.release(token)
            return self._fall_back(prepared)
        try:
            launched = pool_mod.PoolLaunch(
                pool, self.cta_runner(prepared), prepared.cta_ids, workers,
                self.supervisor_config(), key, prepared.compiled,
                prepared.spec.grid, pool_mod.encode_args(prepared.spec.args,
                                                         placements),
                self.settings_state(), claim_token=token)
        except BaseException:
            pool.arena.restore_buffers(placements)
            pool.release(token)  # no-op once PoolLaunch adopted and aborted
            raise
        return _PooledInflight(self, prepared, launched, placements)


class _PooledInflight(InflightLaunch):
    """Handle over one launch in flight on the pool's workers."""

    def __init__(self, executor: PooledExecutor, prepared: PreparedLaunch,
                 launched: "pool_mod.PoolLaunch", placements: list):
        self._executor = executor
        self._prepared = prepared
        self._launched = launched
        self._placements = placements

    @property
    def done(self) -> bool:
        return False

    def collect(self) -> LaunchResult:
        try:
            rows = self._launched.wait()
        finally:
            # Evacuate the arena on every exit path (merge, worker-reported
            # error, abort-on-raise) so the next launch can recycle it.
            self._executor.pool.arena.restore_buffers(self._placements)
        return self._executor.finalize(self._prepared, rows)

    def abort(self) -> None:
        self._launched.abort()
        self._executor.pool.arena.restore_buffers(self._placements)
