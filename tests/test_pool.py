"""Persistent worker-pool tests: warm reuse, arena lifecycle, supervision.

The pool contract under test (:mod:`repro.gpusim.pool`): a device bound to a
:class:`WorkerPool` (``Device(workers=N)``) produces results
**bit-identical** to serial execution; a repeated launch dispatches to
already-warm workers (zero forks, zero compiles, zero plan builds anywhere in
the tree); every launch's buffers travel through the pool's single reusable
shared arena; launches the pool cannot take run serially in the caller; and
supervision recovers from killed / hung / pipe-corrupting workers by
respawning only the affected worker and retrying only its in-flight shard.
"""

from __future__ import annotations

import multiprocessing as mp
import threading
import time

import numpy as np
import pytest

from repro import faults
from repro.core.options import CompileOptions
from repro.gpusim.device import Device, LaunchSpec, clear_compile_cache
from repro.gpusim.engine import SimulationError
from repro.gpusim.executors import PooledExecutor, SerialExecutor
from repro.gpusim.memory import GlobalBuffer, Pointer, SharedArena, TensorDesc
from repro.gpusim.parallel import SupervisorConfig, fork_available
from repro.gpusim.pool import (
    DEFAULT_ARENA_BYTES,
    PoolLaunch,
    WorkerPool,
    decode_args,
    encode_args,
    get_worker_pool,
    resolve_arena_bytes,
    resolve_pool,
    shutdown_pools,
)
from repro.kernels.gemm import (
    GemmProblem,
    gemm_reference,
    make_gemm_inputs,
    matmul_kernel,
    run_gemm,
)
from repro.perf.counters import COUNTERS

needs_fork = pytest.mark.skipif(not fork_available(), reason="requires fork()")

WS_OPTIONS = CompileOptions(enable_warp_specialization=True, aref_depth=2,
                            mma_pipeline_depth=2, num_consumer_groups=2)


def _gemm() -> GemmProblem:
    return GemmProblem(M=128, N=128, K=64, block_m=64, block_n=64, block_k=32)


# ---------------------------------------------------------------------------
# The shared arena
# ---------------------------------------------------------------------------


class TestSharedArena:
    def test_place_and_restore_round_trip(self):
        arena = SharedArena(1 << 16)
        data = np.arange(12, dtype=np.float32).reshape(3, 4)
        buf = GlobalBuffer.from_numpy(data, "f32", "x")
        private = buf.data
        placements = arena.place_buffers([TensorDesc(buf)])
        assert placements is not None and len(placements) == 1
        assert buf.data is not private          # now an arena view
        assert arena.used >= data.nbytes
        assert np.array_equal(buf.to_numpy(), data)
        buf.to_numpy()[1, 2] = 99.0             # a "worker" write into the view
        arena.restore_buffers(placements)
        assert arena.used == 0                  # recycled for the next launch
        assert buf.data.base is None            # back in private memory
        assert buf.to_numpy()[1, 2] == 99.0     # the write survived copy-out
        arena.close()

    def test_aliased_buffers_get_one_placement(self):
        arena = SharedArena(1 << 16)
        buf = GlobalBuffer.from_numpy(np.zeros(8, np.float32), "f32", "x")
        placements = arena.place_buffers([TensorDesc(buf), Pointer(buf), buf])
        assert placements is not None and len(placements) == 1
        arena.restore_buffers(placements)
        arena.close()

    def test_oversized_launch_is_rejected_without_side_effects(self):
        arena = SharedArena(256)
        buf = GlobalBuffer.from_numpy(np.zeros(1024, np.float32), "f32", "big")
        private = buf.data
        assert arena.place_buffers([buf]) is None
        assert buf.data is private              # nothing moved
        assert arena.used == 0
        arena.close()

    def test_data_free_buffer_is_rejected(self):
        arena = SharedArena(1 << 16)
        symbolic = GlobalBuffer((4, 4), "f16", None, "sym")
        assert arena.place_buffers([symbolic]) is None
        arena.close()

    def test_close_releases_the_gauge(self):
        before = COUNTERS.parallel_shared_bytes
        arena = SharedArena(1 << 20)
        assert COUNTERS.parallel_shared_bytes == before + (1 << 20)
        arena.close()
        assert COUNTERS.parallel_shared_bytes == before
        arena.close()  # idempotent
        assert COUNTERS.parallel_shared_bytes == before
        assert arena.closed

    def test_encode_decode_round_trip_preserves_aliasing(self):
        arena = SharedArena(1 << 16)
        x = GlobalBuffer.from_numpy(np.arange(6, dtype=np.float32), "f32", "x")
        y = GlobalBuffer.from_numpy(np.ones((2, 3), np.float16), "f16", "y")
        args = {"a": TensorDesc(x), "b": Pointer(x), "c": y, "n": 6}
        placements = arena.place_buffers(list(args.values()))
        encoded = encode_args(args, placements)
        assert encoded["n"] == ("raw", 6)
        decoded = decode_args(encoded, arena)
        # Aliasing: both references to x decode to ONE buffer object.
        assert decoded["a"].buffer is decoded["b"].buffer
        assert decoded["a"].buffer is not decoded["c"]
        # Decoded views alias the placed originals through the arena.
        decoded["a"].buffer.data[3] = 42.0
        assert x.to_numpy()[3] == 42.0
        assert np.array_equal(decoded["c"].to_numpy(), y.to_numpy())
        arena.restore_buffers(placements)
        arena.close()


# ---------------------------------------------------------------------------
# Pool resolution (Device(workers=...) / REPRO_SIM_WORKERS)
# ---------------------------------------------------------------------------


class TestPoolResolution:
    def test_resolve_arena_bytes(self):
        assert resolve_arena_bytes(4096) == 4096
        assert resolve_arena_bytes() == DEFAULT_ARENA_BYTES
        with pytest.raises(SimulationError):
            resolve_arena_bytes(0)
        with pytest.raises(SimulationError):
            WorkerPool(2, arena_bytes=-1)

    def test_resolve_pool_disabled_values(self, monkeypatch):
        assert resolve_pool(1) is None             # below the 2-worker floor
        for raw in ("", "1"):
            monkeypatch.setenv("REPRO_SIM_WORKERS", raw)
            assert Device().pool is None
        assert Device(workers=1).pool is None
        monkeypatch.setenv("REPRO_SIM_WORKERS", "soon")
        with pytest.raises(SimulationError, match="REPRO_SIM_WORKERS"):
            Device()

    @needs_fork
    def test_resolve_pool_sizes(self, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_WORKERS", "2")
        pool = Device().pool
        assert pool is not None and pool.size == 2
        assert resolve_pool(2) is pool             # same process-global pool
        assert Device(workers=2).pool is pool
        assert Device(workers=3).pool.size == 3
        assert Device(workers=1).pool is None      # explicit beats the env

    @needs_fork
    def test_explicit_pool_wins_and_closed_pools_resolve_to_none(self):
        pool = WorkerPool(2, arena_bytes=1 << 20)
        assert resolve_pool(pool) is pool
        assert Device(workers=pool).pool is pool
        pool.shutdown()
        assert resolve_pool(pool) is None
        device = Device(mode="functional", workers=pool)
        # A closed pool never reaches the executor: selection degrades.
        assert isinstance(device.executor(), SerialExecutor)
        assert not isinstance(device.executor(), PooledExecutor)

    @needs_fork
    def test_get_worker_pool_recreates_after_shutdown(self):
        first = get_worker_pool(2)
        assert get_worker_pool(2) is first
        shutdown_pools()
        second = get_worker_pool(2)
        assert second is not first and not second.closed
        assert first.closed

    @needs_fork
    def test_pool_requires_two_workers(self):
        with pytest.raises(SimulationError, match="at least 2"):
            WorkerPool(1)

    @needs_fork
    def test_dispatch_on_closed_pool_raises(self):
        pool = WorkerPool(2, arena_bytes=1 << 20)
        pool.shutdown()
        with pytest.raises(SimulationError, match="shut-down"):
            PoolLaunch(pool, lambda i: (0.0, 0.0, 0), [0, 1], 2,
                       SupervisorConfig(), "key", object(), 2, {},
                       (None, "functional", 8, True))


# ---------------------------------------------------------------------------
# Pooled execution: selection, bit-identical results, warm reuse, fallbacks
# ---------------------------------------------------------------------------


@needs_fork
class TestPooledExecution:
    def test_device_pool_selects_pooled_executor(self):
        device = Device(mode="functional", workers=2)
        assert isinstance(device.executor(), PooledExecutor)
        assert isinstance(device.executor(), SerialExecutor)  # fallback paths
        device.workers = 1
        assert not isinstance(device.executor(), PooledExecutor)

    def test_performance_mode_never_pools(self):
        device = Device(mode="performance", workers=2)
        assert not isinstance(device.executor(), PooledExecutor)

    @pytest.mark.parametrize("engine", ["plans", "interp"],
                             ids=["plans", "interpreter"])
    def test_gemm_bit_identical_to_serial(self, engine):
        """Pool workers honour the device's ``engine``: the interpreter
        oracle runs on the pool too, bit-identical to its serial run."""
        problem = _gemm()
        r_s, c_s = run_gemm(Device(mode="functional", workers=1,
                                   engine=engine), problem, WS_OPTIONS)
        r_p, c_p = run_gemm(Device(mode="functional", workers=2,
                                   engine=engine), problem, WS_OPTIONS)
        assert r_p.cycles == r_s.cycles
        assert r_p.per_cta_cycles == r_s.per_cta_cycles
        assert r_p.tensor_core_busy_cycles == r_s.tensor_core_busy_cycles
        assert r_p.bytes_copied == r_s.bytes_copied
        assert np.array_equal(c_p, c_s)
        assert COUNTERS.pool_launches == 1
        assert COUNTERS.pool_fallback_launches == 0
        # every CTA ran in a worker, through the requested engine
        ctas = COUNTERS.plan_ctas if engine == "plans" else COUNTERS.interpreter_ctas
        assert ctas == 2 * len(r_s.per_cta_cycles)

    def test_warm_workers_are_reused_across_batches(self):
        """The tentpole property: a repeated launch costs zero forks and
        zero compiles -- the warm per-worker compile/plan state survives
        across ``run_many`` batches."""
        device = Device(mode="functional", workers=2)
        problem = _gemm()

        def run_batch():
            args, _, _ = make_gemm_inputs(problem, device)
            specs = [LaunchSpec(matmul_kernel, problem.grid, args,
                                problem.constexprs(), WS_OPTIONS)]
            device.run_many(specs)
            return args["c_ptr"].buffer.to_numpy().copy()

        first = run_batch()
        assert COUNTERS.pool_workers_spawned == 2
        assert COUNTERS.pool_launches == 1
        before = (COUNTERS.pool_workers_spawned, COUNTERS.compile_passes_run,
                  COUNTERS.compile_cache_misses, COUNTERS.plan_cache_misses)
        second = run_batch()
        # Zero new forks and zero new compiles/plan builds anywhere in the
        # tree: the merged worker counter snapshots would surface any
        # worker-side miss here.
        assert COUNTERS.pool_workers_spawned == before[0]
        assert COUNTERS.pool_worker_respawns == 0
        assert COUNTERS.compile_passes_run == before[1]
        assert COUNTERS.compile_cache_misses == before[2]
        assert COUNTERS.plan_cache_misses == before[3]
        assert COUNTERS.pool_launches == 2
        np.testing.assert_array_equal(first, second)

    def test_shutdown_releases_the_arena(self):
        device = Device(mode="functional", workers=2)
        run_gemm(device, _gemm(), WS_OPTIONS)
        assert COUNTERS.parallel_shared_bytes == DEFAULT_ARENA_BYTES
        shutdown_pools()
        assert COUNTERS.parallel_shared_bytes == 0
        for proc in mp.active_children():
            proc.join(timeout=5)
        assert not mp.active_children()

    def test_launch_buffers_are_private_after_collect(self):
        """Between launches the arena is recycled and every launch buffer is
        back in private memory -- the pool equivalent of the share/release
        lifecycle tests."""
        device = Device(mode="functional", workers=2)
        problem = _gemm()
        args, a, b = make_gemm_inputs(problem, device)
        device.run(matmul_kernel, problem.grid, args, problem.constexprs(),
                   WS_OPTIONS)
        assert device.pool.arena.used == 0
        for value in args.values():
            if hasattr(value, "buffer"):
                assert value.buffer.data.base is None  # no arena view leaks
        np.testing.assert_allclose(
            args["c_ptr"].buffer.to_numpy().astype(np.float32),
            gemm_reference(a, b, problem.dtype).astype(np.float32),
            rtol=2e-2, atol=2e-2)

    def test_single_cta_launch_stays_serial(self):
        device = Device(mode="functional", workers=2)
        one_cta = GemmProblem(M=32, N=32, K=32, block_m=32, block_n=32,
                              block_k=32)
        run_gemm(device, one_cta, WS_OPTIONS)
        assert COUNTERS.pool_launches == 0
        assert COUNTERS.pool_workers_spawned == 0
        assert COUNTERS.pool_fallback_launches == 0

    def _assert_serial_fallback(self, r_p, c_p) -> None:
        """The launch ran serially in this process, bit-identical to serial."""
        COUNTERS.reset()  # count only the reference run below
        r_s, c_s = run_gemm(Device(mode="functional", workers=1), _gemm(),
                            WS_OPTIONS)
        assert r_p.cycles == r_s.cycles
        assert r_p.per_cta_cycles == r_s.per_cta_cycles
        assert r_p.bytes_copied == r_s.bytes_copied
        assert np.array_equal(c_p, c_s)

    def test_arena_overflow_falls_back_to_serial(self):
        """A launch that does not fit the arena runs serially in-process."""
        pool = WorkerPool(2, arena_bytes=4096)  # far too small for the GEMM
        r_p, c_p = run_gemm(Device(mode="functional", workers=pool), _gemm(),
                            WS_OPTIONS)
        assert COUNTERS.pool_fallback_launches == 1
        assert COUNTERS.pool_busy_rejections == 0
        assert COUNTERS.pool_launches == 0
        assert COUNTERS.pool_workers_spawned == 0  # nothing forked
        assert COUNTERS.plan_ctas == len(r_p.per_cta_cycles)  # all in-parent
        pool.shutdown()
        self._assert_serial_fallback(r_p, c_p)

    def test_busy_pool_falls_back_to_serial(self):
        pool = get_worker_pool(2)
        pool._active = sentinel = object()  # a launch in flight elsewhere
        try:
            r_p, c_p = run_gemm(Device(mode="functional", workers=pool),
                                _gemm(), WS_OPTIONS)
        finally:
            assert pool._active is sentinel
            pool._active = None
        assert COUNTERS.pool_fallback_launches == 1
        assert COUNTERS.pool_busy_rejections == 1
        assert COUNTERS.pool_workers_spawned == 0  # nothing forked
        self._assert_serial_fallback(r_p, c_p)

    def test_stale_artifact_recovers_via_respawn(self):
        """A warm worker missing a launch's artifact reports ``stale`` and
        the supervisor respawns it; the fresh fork inherits the re-pinned
        artifact and the launch completes bit-identically."""
        device = Device(mode="functional", workers=2, shard_retries=2)
        p_a = _gemm()
        # Different constexprs (block shape) => a different content
        # fingerprint; M/N/K alone are runtime arguments and would not.
        p_b = GemmProblem(M=128, N=128, K=64, block_m=32, block_n=64,
                          block_k=32)
        r_s, c_s = run_gemm(Device(mode="functional", workers=1), p_a,
                            WS_OPTIONS)
        run_gemm(device, p_a, WS_OPTIONS)        # workers warm with artifact A
        clear_compile_cache()                    # parent's in-memory tier gone
        run_gemm(device, p_b, WS_OPTIONS)        # new artifact B: epoch bump,
        #                                          respawned workers know ONLY B
        retries_before = COUNTERS.shard_retries
        clear_compile_cache()
        r_p, c_p = run_gemm(device, p_a, WS_OPTIONS)  # A again: workers are
        #                                          epoch-current but miss A
        assert COUNTERS.shard_retries == retries_before + 2  # both shards stale
        assert COUNTERS.shard_serial_fallbacks == 0
        assert r_p.cycles == r_s.cycles
        assert np.array_equal(c_p, c_s)

    def test_two_devices_share_one_process_global_pool(self):
        d1 = Device(mode="functional", workers=2)
        d2 = Device(mode="functional", workers=2)
        assert d1.pool is d2.pool
        run_gemm(d1, _gemm(), WS_OPTIONS)
        spawned = COUNTERS.pool_workers_spawned
        run_gemm(d2, _gemm(), WS_OPTIONS)        # d2 rides d1's warm workers
        assert COUNTERS.pool_workers_spawned == spawned


# ---------------------------------------------------------------------------
# Pool supervision: kill / hang / pipe recovery, worker-reported errors
# ---------------------------------------------------------------------------


@needs_fork
class TestPoolSupervision:
    def _differential(self, fault: str, **device_kw) -> None:
        problem = _gemm()
        r_s, c_s = run_gemm(Device(mode="functional", workers=1), problem,
                            WS_OPTIONS)
        with faults.inject_faults(fault):
            device = Device(mode="functional", workers=2, **device_kw)
            r_p, c_p = run_gemm(device, problem, WS_OPTIONS)
        assert r_p.cycles == r_s.cycles
        assert r_p.per_cta_cycles == r_s.per_cta_cycles
        assert r_p.bytes_copied == r_s.bytes_copied
        assert np.array_equal(c_p, c_s)

    def test_killed_worker_is_respawned_and_retried(self):
        self._differential("kill:worker=1,cta=0", shard_retries=2)
        assert COUNTERS.shard_retries == 1
        assert COUNTERS.pool_worker_respawns == 1  # only the killed worker
        assert COUNTERS.shard_serial_fallbacks == 0
        # Parent-authoritative budget: the count=1 kill consumed by the dead
        # worker is NOT re-armed for the retry.
        assert COUNTERS.faults_injected == 1

    def test_hang_that_heartbeats_times_out_and_recovers(self):
        self._differential("hang:worker=0,cta=0,seconds=60",
                           shard_timeout=0.5, shard_retries=2)
        assert COUNTERS.shard_timeouts == 1
        assert COUNTERS.shard_retries == 1
        assert COUNTERS.pool_worker_respawns == 1
        assert COUNTERS.faults_injected == 1

    def test_pipe_corruption_is_retried(self):
        self._differential("pipe:worker=1", shard_retries=2)
        assert COUNTERS.shard_retries == 1
        assert COUNTERS.pool_worker_respawns == 1
        assert COUNTERS.faults_injected == 1

    def test_exhausted_retries_fall_back_serially(self):
        self._differential("kill:worker=0,count=-1", shard_retries=1)
        assert COUNTERS.shard_retries == 1
        assert COUNTERS.shard_serial_fallbacks == 1
        assert COUNTERS.faults_injected == 2     # both attempts died

    def test_kill_mid_batch_is_bit_identical(self):
        """Chaos across a pipelined batch: one worker killed mid-stream, the
        whole batch still matches serial bit-for-bit and the pool stays
        warm for a follow-up launch."""
        problems = [GemmProblem(M=128, N=128, K=64, block_m=64, block_n=64,
                                block_k=32, seed=i) for i in range(3)]

        def run_batch(device):
            all_args = []
            specs = []
            for problem in problems:
                args, _, _ = make_gemm_inputs(problem, device)
                all_args.append(args)
                specs.append(LaunchSpec(matmul_kernel, problem.grid, args,
                                        problem.constexprs(), WS_OPTIONS))
            results = device.run_many(specs)
            return results, [a["c_ptr"].buffer.to_numpy().copy()
                             for a in all_args]

        serial_results, serial_cs = run_batch(Device(mode="functional",
                                                     workers=1))
        with faults.inject_faults("kill:worker=1,cta=0"):
            device = Device(mode="functional", workers=2, shard_retries=2)
            pooled_results, pooled_cs = run_batch(device)
        assert COUNTERS.faults_injected == 1
        assert COUNTERS.shard_retries == 1
        assert COUNTERS.pool_worker_respawns == 1
        for r_s, r_p, c_s, c_p in zip(serial_results, pooled_results,
                                      serial_cs, pooled_cs):
            assert r_p.cycles == r_s.cycles
            assert r_p.per_cta_cycles == r_s.per_cta_cycles
            assert np.array_equal(c_p, c_s)
        # The pool survived the chaos warm: a clean follow-up launch neither
        # forks nor respawns.
        spawned = COUNTERS.pool_workers_spawned
        run_gemm(device, problems[0], WS_OPTIONS)
        assert COUNTERS.pool_workers_spawned == spawned

    def test_worker_reported_error_keeps_the_pool_warm(self):
        """A deterministic in-worker exception aborts the launch (no retry)
        but does not poison the pool."""
        pool = get_worker_pool(2)
        device = Device(mode="functional", workers=pool)
        problem = _gemm()
        executor = device.executor()
        assert isinstance(executor, PooledExecutor)
        args, _, _ = make_gemm_inputs(problem, device)
        prepared = executor.prepare(
            LaunchSpec(matmul_kernel, problem.grid, args, problem.constexprs(),
                       WS_OPTIONS))
        placements = pool.arena.place_buffers(list(prepared.spec.args.values()))
        encoded = encode_args(prepared.spec.args, placements)
        del encoded["c_ptr"]  # the work item ships a broken argument set
        launched = PoolLaunch(
            pool, executor.cta_runner(prepared), prepared.cta_ids,
            executor.effective_workers(prepared), executor.supervisor_config(),
            prepared.compiled.fingerprint, prepared.compiled,
            prepared.spec.grid, encoded, executor.settings_state())
        with pytest.raises(SimulationError, match="pooled execution failed"):
            launched.wait()
        pool.arena.restore_buffers(placements)
        assert not pool.busy
        assert COUNTERS.shard_retries == 0       # deterministic: no retry
        assert COUNTERS.shard_serial_fallbacks == 0
        # The pool is immediately reusable for a clean launch.
        r_s, c_s = run_gemm(Device(mode="functional", workers=1), problem,
                            WS_OPTIONS)
        r_p, c_p = run_gemm(device, problem, WS_OPTIONS)
        assert r_p.cycles == r_s.cycles
        assert np.array_equal(c_p, c_s)


# ---------------------------------------------------------------------------
# Thread safety: process-global resolution, atomic claim, concurrent dispatch
# ---------------------------------------------------------------------------


@needs_fork
class TestPoolThreadSafety:
    def test_get_worker_pool_races_to_one_instance(self, monkeypatch):
        """8 threads resolving the process-global pool through a slowed
        constructor still get one shared instance (the double-checked
        ``_POOLS_GUARD`` path), not 8 racing pools."""
        real_init = WorkerPool.__init__

        def slow_init(self, *args, **kwargs):
            time.sleep(0.05)  # widen the check-then-create window
            real_init(self, *args, **kwargs)

        monkeypatch.setattr(WorkerPool, "__init__", slow_init)
        barrier = threading.Barrier(8)
        pools: list = [None] * 8

        def resolve(i: int) -> None:
            barrier.wait()
            pools[i] = get_worker_pool(2)

        threads = [threading.Thread(target=resolve, args=(i,))
                   for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert all(pool is pools[0] for pool in pools)

    def test_claim_is_atomic_and_identity_checked(self):
        pool = get_worker_pool(2)
        first, second = object(), object()
        assert pool.try_claim(first)
        assert not pool.try_claim(second)       # held: atomically refused
        pool.release(second)                    # non-owner release: no-op
        assert not pool.try_claim(second)       # first still owns the pool
        pool.adopt_claim(first, second)         # ownership handoff
        with pytest.raises(SimulationError, match="claim lost"):
            pool.adopt_claim(first, object())   # stale owner cannot adopt
        pool.release(second)
        assert pool.try_claim(first)            # fully released, reusable
        pool.release(first)

    def test_busy_pool_counts_rejection_and_falls_back(self):
        """A claimed pool rejects a second dispatch as queue pressure --
        ``pool_busy_rejections`` (new, distinct) plus the catch-all
        ``pool_fallback_launches`` -- and the launch completes serially in
        the calling thread."""
        device = Device(mode="functional", workers=2)
        problem = _gemm()
        r_ref, c_ref = run_gemm(device, problem, WS_OPTIONS)  # warm the pool
        assert COUNTERS.pool_busy_rejections == 0
        fallbacks = COUNTERS.pool_fallback_launches

        holder = object()
        assert device.pool.try_claim(holder)
        r_busy, c_busy = run_gemm(device, problem, WS_OPTIONS)
        assert COUNTERS.pool_busy_rejections == 1
        assert COUNTERS.pool_fallback_launches == fallbacks + 1
        assert r_busy.cycles == r_ref.cycles
        assert np.array_equal(c_busy, c_ref)

        device.pool.release(holder)
        run_gemm(device, problem, WS_OPTIONS)   # pool dispatch again
        assert COUNTERS.pool_busy_rejections == 1  # no new rejection

    def test_concurrent_dispatch_over_one_pool_is_safe(self):
        """Two threads dispatching over one process-global pool (the serve
        dispatch thread racing a direct caller): one claims the pool, the
        loser runs serially in its own thread -- no SimulationError, both
        results bit-identical.  Regression for the check-then-act race on
        ``pool.busy``."""
        device = Device(mode="functional", workers=2)
        problem = _gemm()
        r_ref, c_ref = run_gemm(device, problem, WS_OPTIONS)  # warm + compile
        barrier = threading.Barrier(2)
        outcomes: list = [None, None]

        def dispatch(i: int) -> None:
            barrier.wait()
            outcomes[i] = run_gemm(device, problem, WS_OPTIONS)

        threads = [threading.Thread(target=dispatch, args=(i,))
                   for i in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for result, c_out in outcomes:  # None here means a thread crashed
            assert result.cycles == r_ref.cycles
            assert result.per_cta_cycles == r_ref.per_cta_cycles
            assert np.array_equal(c_out, c_ref)
