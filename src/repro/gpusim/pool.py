"""Persistent worker pool: the simulator's one multi-process engine.

``Device(workers=N)`` (or ``REPRO_SIM_WORKERS=N``) with ``N >= 2`` binds a
device to the process-global pool of ``N`` workers; functional launches of
two or more CTAs are sharded across it (:mod:`repro.gpusim.parallel` holds
the sharding and supervision policy) and merged back in launch order, so
results are bit-identical to serial execution.

* **Long-lived workers.**  A :class:`WorkerPool` forks ``size`` workers once
  (lazily, at the first launch) and keeps them alive across launches.  Each
  worker runs :func:`_pool_worker_main`: a loop receiving ``(launch_id,
  shard, artifact-fingerprint, ...)`` work items over its duplex pipe and
  streaming ``(tag, launch_id, ...)`` messages back (``"hb"`` heartbeats,
  ``"ok"`` rows + counter delta, ``"error"``, ``"fault"``, ``"stale"``).
  Compiled kernels and plans cannot pickle, so a work item carries only the
  artifact's content-addressed *fingerprint*; the worker resolves it from
  the in-process compiler-service cache it inherited at fork time -- the
  warm per-process compile/plan cache that makes a repeated launch cost
  zero compiles and zero forks.
* **Artifact epochs.**  A launch whose fingerprint the pool has never seen
  bumps the pool's artifact serial; workers forked before that serial are
  respawned (a fresh fork inherits the parent's current cache, which the
  pool pins via :meth:`repro.core.service.CompilerService.ensure_cached`).
  Steady-state repeated launches dispatch to already-warm workers with no
  fork at all.  If a worker still misses the artifact (e.g. the parent's
  LRU evicted and re-added it), it reports ``"stale"`` and the supervisor
  respawns it through the normal retry path.
* **Reusable shared-memory arena.**  The pool maps one sized-up
  :class:`~repro.gpusim.memory.SharedArena` at construction -- before any
  worker forks, so every worker (and every respawn) inherits the mapping.
  Each launch bump-allocates its buffers into the arena (one copy in),
  workers write output tiles straight into the shared views, and the merge
  copies the buffers back out and recycles the bump pointer.  Launches that
  do not fit run serially in the calling process.
* **Supervision.**  :class:`PoolLaunch` runs the per-shard state machine:
  pipe EOF / corrupt messages / missed progress deadlines reap *and
  respawn* just the affected worker and retry only its in-flight shard
  (exponential backoff, then in-process serial fallback); worker-reported
  exceptions abort the launch immediately.  Between launches every pool
  worker is idle with an empty pipe -- any worker whose item did not end in
  ``"ok"``/``"error"`` is respawned -- so stale messages cannot leak across
  launches (messages are additionally tagged with the launch id, as defense
  in depth).
* **Fault forwarding.**  Pool workers fork *before* test-injected fault
  registries exist, so they cannot observe budgets by cell inheritance.
  Instead each work item carries the parent registry's exported state; the
  worker rebuilds a local registry and reports each fire over the pipe
  (``"fault"``, sent before acting, so it survives the worker's own death)
  and the parent consumes the budget -- making it authoritative, so a
  ``count=1`` kill consumed by one attempt is not re-armed for the retry.

See :class:`repro.gpusim.executors.pooled.PooledExecutor` for the executor
that bridges the pool into the launch pipeline.
"""

from __future__ import annotations

import itertools
import math
import multiprocessing as mp
import os
import threading
import time
import traceback
from multiprocessing import connection as mp_connection
from collections.abc import Callable, Mapping, Sequence
from typing import Any

from repro import faults
from repro.faults import registry as faults_registry
from repro.gpusim import parallel
from repro.gpusim.engine import SimulationError
from repro.gpusim.memory import (
    ArenaPlacement,
    GlobalBuffer,
    Pointer,
    SharedArena,
    TensorDesc,
)
from repro.gpusim.parallel import (
    BACKOFF,
    FAILED,
    FORKED,
    MERGED,
    RUNNING,
    ShardState,
    SupervisorConfig,
    fork_available,
    shard_cta_ids,
)
from repro.perf.counters import COUNTERS

#: Size in bytes of a pool's reusable shared-memory arena.  The largest
#: launch any benchmark places is 36 MiB; tests that need a small arena pass
#: ``WorkerPool(arena_bytes=...)``.
DEFAULT_ARENA_BYTES = 64 << 20


def resolve_arena_bytes(nbytes: int | None = None) -> int:
    """The effective arena size in bytes for a pool (default: 64 MiB)."""
    if nbytes is None:
        return DEFAULT_ARENA_BYTES
    nbytes = int(nbytes)
    if nbytes <= 0:
        raise SimulationError(f"invalid pool arena size {nbytes}")
    return nbytes


# ---------------------------------------------------------------------------
# Work-item argument encoding: buffers travel as (arena offset, shape, ...)
# references, everything else as plain picklable values.
# ---------------------------------------------------------------------------


def _buffer_ref(buffer: GlobalBuffer, offsets: dict[int, int]) -> tuple:
    return (offsets[id(buffer)], buffer.data.shape, buffer.data.dtype.str,
            buffer.element_type.name, buffer.name)


def encode_args(args: Mapping[str, Any],
                placements: Sequence[ArenaPlacement]) -> dict[str, tuple]:
    """The picklable form of a launch's arguments for a pool work item.

    Every reachable buffer has already been placed into the pool's arena
    (:meth:`SharedArena.place_buffers`), so buffers cross the pipe as arena
    offsets; scalars cross as-is.
    """
    offsets = {id(p.buffer): p.offset for p in placements}
    encoded: dict[str, tuple] = {}
    for name, value in args.items():
        if isinstance(value, TensorDesc):
            encoded[name] = ("desc", _buffer_ref(value.buffer, offsets))
        elif isinstance(value, Pointer):
            encoded[name] = ("ptr", _buffer_ref(value.buffer, offsets),
                             value.offsets)
        elif isinstance(value, GlobalBuffer):
            encoded[name] = ("buf", _buffer_ref(value, offsets))
        else:
            encoded[name] = ("raw", value)
    return encoded


def decode_args(encoded: Mapping[str, tuple],
                arena: SharedArena) -> dict[str, Any]:
    """Rebuild launch arguments inside a pool worker, viewing the arena.

    Buffers at the same arena offset decode to the same
    :class:`GlobalBuffer` (argument aliasing is preserved), and their
    ``data`` is a view of the inherited mapping -- tile stores land directly
    in memory the parent sees.
    """
    buffers: dict[int, GlobalBuffer] = {}

    def resolve(ref: tuple) -> GlobalBuffer:
        offset, shape, dtype, element_type, name = ref
        buffer = buffers.get(offset)
        if buffer is None:
            buffer = GlobalBuffer(shape, element_type, data=None, name=name)
            buffer.data = arena.view(offset, shape, dtype)
            buffers[offset] = buffer
        return buffer

    args: dict[str, Any] = {}
    for name, value in encoded.items():
        tag = value[0]
        if tag == "desc":
            args[name] = TensorDesc(resolve(value[1]))
        elif tag == "ptr":
            args[name] = Pointer(resolve(value[1]), value[2])
        elif tag == "buf":
            args[name] = resolve(value[1])
        else:
            args[name] = value[1]
    return args


# ---------------------------------------------------------------------------
# Worker body
# ---------------------------------------------------------------------------


def _pool_worker_main(conn, index: int, arena: SharedArena) -> None:
    """Body of one persistent pool worker: loop over work items until EOF.

    Per item: reset the (copy-on-write) counter block so the final snapshot
    is a pure delta, resolve the artifact by fingerprint from the inherited
    compiler-service cache, rebuild the launch arguments over the inherited
    arena, prepare and simulate the shard, and ship rows + counters back.
    ``None`` (or pipe EOF) shuts the worker down.

    Simulation exceptions are reported as ``"error"`` and the worker stays
    alive with a clean pipe -- they are deterministic application errors,
    not worker failures.  Injected faults run against a *local* registry
    rebuilt from the work item's exported state; each fire is reported to
    the parent (before acting, so the report survives a kill) and the local
    registry's ``sync_fired`` never runs here (wrong owner pid), keeping the
    parent the single budget owner.
    """
    from repro.core.service import get_compiler_service
    from repro.gpusim.executors.base import ExecutorSettings
    from repro.gpusim.executors.serial import SerialExecutor
    from repro.gpusim.launch import LaunchSpec

    while True:
        try:
            item = conn.recv()
        except (EOFError, OSError, KeyboardInterrupt):
            return
        if item is None:
            conn.close()
            return
        (launch_id, shard, key, grid, encoded_args, settings_state,
         heartbeat_interval, fault_state) = item
        COUNTERS.reset()
        registry = (faults_registry.FaultRegistry.from_state(fault_state)
                    if fault_state else None)
        base_hits = registry.hit_values() if registry is not None else []
        try:
            compiled = get_compiler_service().lookup(key)
            if compiled is None:
                conn.send(("stale", launch_id, shard.index, key))
                continue
            config, mode, max_ctas, engine = settings_state
            executor = SerialExecutor(ExecutorSettings(
                config=config, mode=mode,
                max_ctas_per_sm_simulated=max_ctas, engine=engine))
            args = decode_args(encoded_args, arena)
            prepared = executor.prepare(LaunchSpec(compiled, grid, args))
            rows: list[tuple] = []
            last_beat = time.monotonic()
            for ordinal, linear in enumerate(shard.cta_ids):
                if registry is not None:
                    fired = registry.fire_indexed("worker",
                                                  worker=shard.index,
                                                  cta=ordinal)
                    if fired is not None:
                        spec_index, spec = fired
                        conn.send(("fault", launch_id, shard.index, spec_index))
                        if spec.kind == "kill":
                            os._exit(faults_registry.FAULT_KILL_EXIT)
                        parallel._hang(
                            lambda done=ordinal: conn.send(
                                ("hb", launch_id, shard.index, done)),
                            spec.seconds, heartbeat_interval)
                cycles, busy, copied = executor.run_one_cta(prepared, linear)
                rows.append((linear, cycles, busy, copied))
                if heartbeat_interval > 0:
                    now = time.monotonic()
                    if now - last_beat >= heartbeat_interval:
                        conn.send(("hb", launch_id, shard.index, ordinal + 1))
                        last_beat = now
            if registry is not None:
                fired = registry.fire_indexed("pipe", worker=shard.index)
                if fired is not None:
                    conn.send(("fault", launch_id, shard.index, fired[0]))
                    conn.send_bytes(parallel._CORRUPT_PAYLOAD)
                    continue  # the parent reaps and respawns this worker
            hit_deltas = ([hits - base for hits, base
                           in zip(registry.hit_values(), base_hits)]
                          if registry is not None else None)
            conn.send(("ok", launch_id, shard.index, rows,
                       COUNTERS.snapshot(), hit_deltas))
        except BaseException as exc:  # noqa: BLE001 - crosses the process boundary
            try:
                conn.send(("error", launch_id, shard.index,
                           f"{type(exc).__name__}: {exc}",
                           traceback.format_exc()))
            except OSError:
                return


# ---------------------------------------------------------------------------
# The pool
# ---------------------------------------------------------------------------


class PoolWorker:
    """One persistent worker slot: process, duplex pipe, artifact epoch."""

    __slots__ = ("index", "proc", "conn", "spawn_serial", "busy",
                 "ever_spawned")

    def __init__(self, index: int):
        self.index = index
        self.proc = None
        self.conn = None
        self.spawn_serial = -1   # artifact serial this worker forked at
        self.busy = False        # an item is in flight on its pipe
        self.ever_spawned = False

    @property
    def alive(self) -> bool:
        return self.proc is not None and self.proc.is_alive()


class WorkerPool:
    """A pool of long-lived forked workers with a reusable shared arena.

    Construction maps the arena; workers fork lazily at the first dispatch
    (and re-fork when the artifact set grows or supervision reaps them).
    One launch is in flight at a time (:attr:`busy`); the pooled executor
    runs a second launch serially in its calling thread rather than
    queueing it.
    ``shutdown()`` ends the workers and unmaps the arena --
    ``sim_counters()['parallel_shared_bytes']`` returns to its pre-pool
    value.
    """

    def __init__(self, size: int, arena_bytes: int | None = None):
        if not fork_available():  # pragma: no cover - linux containers have fork
            raise SimulationError("a worker pool requires fork()")
        size = int(size)
        if size < 2:
            raise SimulationError(
                f"a worker pool needs at least 2 workers, got {size}")
        self.size = size
        self._ctx = mp.get_context("fork")
        self.arena = SharedArena(resolve_arena_bytes(arena_bytes))
        self._workers = [PoolWorker(i) for i in range(size)]
        self._serial = 0
        self._key_serial: dict[str, int] = {}
        self._active: object | None = None
        self._claim_lock = threading.Lock()
        self.closed = False

    # ------------------------------------------------------------------ state

    @property
    def busy(self) -> bool:
        """Whether a launch currently owns the pool (and its arena)."""
        return self._active is not None

    def try_claim(self, owner: object) -> bool:
        """Atomically make ``owner`` the launch that owns the pool.

        A bare :attr:`busy` check before dispatch is check-then-act: the
        serve layer's dispatch thread and a direct caller sharing one
        process-global pool could both observe an idle pool and collide in
        :class:`PoolLaunch` (one of them crashing instead of falling back).
        Claiming under a lock makes the race benign -- the loser sees
        ``False`` and runs its launch serially.  Returns ``False`` on a busy
        or shut-down pool.
        """
        with self._claim_lock:
            if self.closed or self._active is not None:
                return False
            self._active = owner
            return True

    def adopt_claim(self, owner: object, new_owner: object) -> None:
        """Transfer a held claim (executor token -> its :class:`PoolLaunch`)."""
        with self._claim_lock:
            if self._active is not owner:
                raise SimulationError(
                    "pool claim lost while preparing a launch")
            self._active = new_owner

    def release(self, owner: object) -> None:
        """Release ``owner``'s claim; a no-op if it no longer holds one."""
        with self._claim_lock:
            if self._active is owner:
                self._active = None

    def worker(self, index: int) -> PoolWorker:
        return self._workers[index]

    def note_key(self, key: str) -> int:
        """Record an artifact fingerprint; the serial workers must postdate.

        A previously unseen key bumps the pool's artifact serial: workers
        forked earlier predate the artifact and are respawned at dispatch so
        the fresh fork inherits it.
        """
        serial = self._key_serial.get(key)
        if serial is None:
            self._serial += 1
            serial = self._serial
            self._key_serial[key] = serial
        return serial

    # ------------------------------------------------------------------ lifecycle

    def ensure_worker(self, worker: PoolWorker, min_serial: int) -> None:
        """(Re)spawn ``worker`` unless it is alive and artifact-current."""
        if self.closed:
            raise SimulationError("dispatch on a shut-down worker pool")
        if worker.alive and worker.spawn_serial >= min_serial:
            return
        respawn = worker.ever_spawned
        self.reap_worker(worker)
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        proc = self._ctx.Process(
            target=_pool_worker_main,
            args=(child_conn, worker.index, self.arena),
            daemon=True,
            name=f"repro-pool-worker-{worker.index}",
        )
        proc.start()
        child_conn.close()  # the child holds its end now
        worker.proc, worker.conn = proc, parent_conn
        worker.spawn_serial = self._serial
        worker.busy = False
        worker.ever_spawned = True
        COUNTERS.pool_workers_spawned += 1
        if respawn:
            COUNTERS.pool_worker_respawns += 1

    def reap_worker(self, worker: PoolWorker) -> None:
        """Terminate (if needed) and join one worker; close its pipe."""
        proc = worker.proc
        if proc is not None:
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=5.0)
                if proc.is_alive():  # pragma: no cover - SIGTERM-ignoring child
                    proc.kill()
                    proc.join()
            else:
                proc.join()
        if worker.conn is not None:
            worker.conn.close()
        worker.proc, worker.conn = None, None
        worker.busy = False

    def shutdown(self) -> None:
        """End every worker and unmap the arena (idempotent)."""
        if self.closed:
            return
        self.closed = True
        for worker in self._workers:
            if worker.alive and not worker.busy:
                try:
                    worker.conn.send(None)  # polite: let the loop exit
                except OSError:
                    pass
        for worker in self._workers:
            if worker.proc is not None:
                worker.proc.join(timeout=1.0)
            self.reap_worker(worker)
        self.arena.close()


_LAUNCH_IDS = itertools.count(1)


class PoolLaunch:
    """One launch's supervised execution on pool workers.

    Each shard moves through the :class:`~repro.gpusim.parallel.ShardState`
    machine (*forked* -> *running* -> *merged*, with *backoff* between retry
    attempts) under the progress-deadline / retry-budget policy of a
    :class:`SupervisorConfig`; :meth:`wait` merges rows in launch order.  A
    failed shard *respawns its pool worker* and re-sends the work item; once
    its retries are exhausted it re-executes serially in-process through
    ``run_cta``.  Fault budgets are consumed in the parent from worker
    ``"fault"`` reports.

    Shard ``i`` always runs on pool worker ``i`` (shards are formed
    round-robin over at most ``pool.size`` workers), so ``worker=`` fault
    selectors name a stable worker index.
    """

    def __init__(self, pool: WorkerPool,
                 run_cta: Callable[[int], tuple[float, float, int]],
                 cta_ids: Sequence[int], num_workers: int,
                 supervisor: SupervisorConfig, key: str, compiled: Any,
                 grid: int | Sequence[int],
                 encoded_args: Mapping[str, tuple],
                 settings_state: tuple, claim_token: object | None = None):
        if claim_token is not None:
            # The caller (PooledExecutor.submit) already claimed the pool
            # atomically before staging buffers into the arena; adopt it.
            pool.adopt_claim(claim_token, self)
        elif not pool.try_claim(self):
            if pool.closed:
                raise SimulationError("launch on a shut-down worker pool")
            raise SimulationError(
                "the worker pool already has a launch in flight")
        self.pool = pool
        self.config = supervisor
        self.launch_id = next(_LAUNCH_IDS)
        self._run_cta = run_cta
        self._cta_ids = list(cta_ids)
        self._key = key
        self._grid = grid
        self._encoded = encoded_args
        self._settings_state = settings_state
        self._registry = faults.active_registry()
        self._states: dict[int, ShardState] = {}
        try:
            self._serial_floor = pool.note_key(key)
            # Pin the artifact so any fork taken for this launch (fresh spawn
            # or supervision respawn) is guaranteed to inherit it.
            from repro.core.service import get_compiler_service

            get_compiler_service().ensure_cached(key, compiled)
            for shard in shard_cta_ids(self._cta_ids, num_workers):
                state = ShardState(shard)
                self._states[shard.index] = state
                self._dispatch(state)
        except BaseException:
            self.abort()
            raise
        self.num_workers = len(self._states)
        self.drain_calls = 0
        COUNTERS.pool_launches += 1

    # ------------------------------------------------------------------ dispatch

    def _dispatch(self, state: ShardState) -> None:
        """Send a shard's work item to its (alive, artifact-current) worker.

        The fault state is (re-)exported at every send, so a retried shard
        sees budgets the parent already consumed for previous attempts as
        spent -- a ``count=1`` fault cannot fire twice across retries.
        """
        worker = self.pool.worker(state.shard.index)
        self.pool.ensure_worker(worker, self._serial_floor)
        fault_state = (self._registry.export_state()
                       if self._registry is not None else None)
        worker.conn.send((self.launch_id, state.shard, self._key, self._grid,
                          self._encoded, self._settings_state,
                          self.config.heartbeat_interval, fault_state))
        worker.busy = True
        state.status = FORKED
        state.attempts += 1
        state.last_progress = 0
        if self.config.timeout > 0:
            state.deadline = time.monotonic() + self.config.timeout
        else:
            state.deadline = math.inf

    # ------------------------------------------------------------------ recovery

    def _fail(self, state: ShardState, reason: str,
              rows: dict[int, tuple[float, float, int]]) -> None:
        """Recover a failed shard: respawn-and-retry or serial fallback."""
        state.last_failure = reason
        self.pool.reap_worker(self.pool.worker(state.shard.index))
        if state.attempts <= self.config.retries:
            state.status = BACKOFF
            state.retry_at = time.monotonic() + self.config.retry_delay(
                state.attempts)
            COUNTERS.shard_retries += 1
            return
        # Terminal fallback: re-execute just this shard in-process.  The
        # launch's buffers are arena views the parent shares with every
        # surviving worker, so parent-side stores land in the same place.
        COUNTERS.shard_serial_fallbacks += 1
        for linear in state.shard.cta_ids:
            rows[linear] = self._run_cta(linear)
        state.status = MERGED

    # ------------------------------------------------------------------ collection

    def shard_states(self) -> dict[int, str]:
        """Shard index -> supervision state (observability / tests)."""
        return {index: state.status for index, state in self._states.items()}

    def wait(self) -> list[tuple[float, float, int]]:
        """Collect every shard and return per-CTA results in launch order."""
        rows: dict[int, tuple[float, float, int]] = {}
        try:
            while True:
                pending = [s for s in self._states.values()
                           if s.status != MERGED]
                if not pending:
                    break
                now = time.monotonic()
                for state in pending:
                    if state.status == BACKOFF and now >= state.retry_at:
                        self._dispatch(state)
                self._drain(rows)
                now = time.monotonic()
                for state in self._states.values():
                    if state.live and now > state.deadline:
                        COUNTERS.shard_timeouts += 1
                        self._fail(
                            state,
                            f"pool worker {state.shard.index} made no "
                            f"progress for {self.config.timeout}s", rows)
                if self._registry is not None:
                    self._registry.sync_fired()
        except BaseException:
            self.abort()
            raise
        if self._registry is not None:
            self._registry.sync_fired()
        self.pool.release(self)
        return [rows[linear] for linear in self._cta_ids]

    def _drain(self, rows: dict[int, tuple[float, float, int]]) -> None:
        """One supervision step: wait for messages/deadlines, process them."""
        self.drain_calls += 1
        conns = {}
        for state in self._states.values():
            if state.live:
                conns[self.pool.worker(state.shard.index).conn] = state
        now = time.monotonic()
        wakeups = [s.deadline for s in self._states.values() if s.live]
        wakeups += [s.retry_at for s in self._states.values()
                    if s.status == BACKOFF]
        horizon = min(wakeups) if wakeups else now
        timeout = None if horizon == math.inf else max(0.0, horizon - now)
        if not conns:
            # No pipes to select on (every shard is waiting out a BACKOFF,
            # or nothing is due at all).  Always sleep a bounded tick: ``if
            # timeout:`` would skip the sleep for a 0.0 horizon *and* for
            # the None-from-inf case, hot-looping wait() until retry_at.
            if timeout is not None:
                time.sleep(min(max(timeout, 0.0), 0.25))
            else:
                time.sleep(0.05)
            return
        ready = mp_connection.wait(list(conns), timeout=timeout)
        for conn in ready:
            state = conns[conn]
            try:
                msg = conn.recv()
            except EOFError:
                self._fail(
                    state,
                    f"pool worker {state.shard.index} died without reporting",
                    rows)
                continue
            except Exception as exc:
                self._fail(
                    state,
                    f"pool worker {state.shard.index} sent a corrupt message "
                    f"({type(exc).__name__}: {exc})", rows)
                continue
            self._handle(state, msg, rows)

    def _handle(self, state: ShardState, msg,
                rows: dict[int, tuple[float, float, int]]) -> None:
        if not (isinstance(msg, tuple) and len(msg) >= 2
                and isinstance(msg[0], str)):
            self._fail(
                state,
                f"pool worker {state.shard.index} sent a malformed message "
                f"{msg!r}", rows)
            return
        if msg[1] != self.launch_id:
            return  # stale message from an earlier launch; drop it
        tag = msg[0]
        if tag == "hb":
            done = msg[3]
            state.status = RUNNING
            progressed = done > state.last_progress
            state.last_progress = max(state.last_progress, done)
            # The deadline measures lack of *progress*, not lack of
            # chatter: only a heartbeat whose ctas_done advanced extends
            # it.  A worker beating while stuck (injected hang, livelocked
            # CTA) keeps its original deadline and still times out.
            if progressed and self.config.timeout > 0:
                state.deadline = time.monotonic() + self.config.timeout
        elif tag == "fault":
            # Sent before the worker acts on a kill/hang/pipe fault, so the
            # parent's budget is consumed exactly once even if the worker
            # dies before (or instead of) completing.
            if self._registry is not None:
                self._registry.consume_remote_fire(msg[3])
        elif tag == "ok":
            _, _, _, shard_rows, counters, hit_deltas = msg
            for linear, cycles, busy, copied in shard_rows:
                rows[linear] = (cycles, busy, copied)
            COUNTERS.merge(counters)
            if hit_deltas and self._registry is not None:
                self._registry.add_remote_hits(hit_deltas)
            self.pool.worker(state.shard.index).busy = False
            state.status = MERGED
        elif tag == "stale":
            self._fail(
                state,
                f"pool worker {state.shard.index} missed artifact "
                f"{msg[3][:12]} in its inherited cache", rows)
        elif tag == "error":
            # The worker handled the exception and is idle with a clean
            # pipe: keep it warm, surface the deterministic error.
            self.pool.worker(state.shard.index).busy = False
            state.status = FAILED
            raise SimulationError(
                f"pooled execution failed:\nworker {msg[2]}: {msg[3]}\n{msg[4]}"
            )
        else:
            self._fail(
                state,
                f"pool worker {state.shard.index} sent an unknown message "
                f"tag {tag!r}", rows)

    def abort(self) -> None:
        """Reap workers with items still in flight; release the pool.

        Idle workers (including one that just reported ``"error"``) keep
        running -- their pipes are clean -- so the pool stays warm for the
        next launch; only workers whose item never completed are respawned
        lazily at the next dispatch.
        """
        for state in self._states.values():
            worker = self.pool.worker(state.shard.index)
            if worker.busy:
                self.pool.reap_worker(worker)
        self.pool.release(self)


# ---------------------------------------------------------------------------
# Process-global pools (Device(workers=N) / REPRO_SIM_WORKERS)
# ---------------------------------------------------------------------------


_POOLS: dict[tuple[int, int], WorkerPool] = {}
#: Guards _POOLS: two threads resolving the same worker count at the same
#: instant (the serve layer's warm-compile threads racing its dispatch
#: thread, or two client threads building devices) must share ONE pool per
#: (size, arena) shape -- an unguarded check-then-create would fork two
#: worker sets and map two arenas for the same shape, leaking one of them.
_POOLS_GUARD = threading.Lock()


def get_worker_pool(size: int, arena_bytes: int | None = None) -> WorkerPool:
    """The process-global pool for ``(size, arena size)``; created on demand.

    Devices resolving ``workers=N`` share one pool per shape, so two devices
    with the same knobs reuse the same warm workers.  Thread-safe: concurrent
    resolutions of the same shape return the same pool instance.
    """
    size = int(size)
    arena = resolve_arena_bytes(arena_bytes)
    with _POOLS_GUARD:
        pool = _POOLS.get((size, arena))
        if pool is None or pool.closed:
            pool = WorkerPool(size, arena)
            _POOLS[(size, arena)] = pool
        return pool


def shutdown_pools() -> None:
    """Shut down every process-global pool (tests, benchmark teardown)."""
    with _POOLS_GUARD:
        pools = list(_POOLS.values())
        _POOLS.clear()
    for pool in pools:
        pool.shutdown()


def resolve_pool(workers: int | WorkerPool) -> WorkerPool | None:
    """The :class:`WorkerPool` a device's resolved ``workers`` knob names.

    A :class:`WorkerPool` instance is used as-is (``None`` once shut down);
    a worker count of 2 or more selects the process-global pool of that
    size; anything smaller (or a fork-less platform) means serial execution.
    """
    if isinstance(workers, WorkerPool):
        return None if workers.closed else workers
    if workers < 2 or not fork_available():
        return None
    return get_worker_pool(workers)
