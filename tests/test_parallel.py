"""Pooled multi-process execution, its supervision, and the batched launch API.

The contract under test: sharding a functional launch across the persistent
worker pool (``Device(workers=N)``, :mod:`repro.gpusim.pool`) is
*observationally invisible* -- outputs, per-CTA cycle counts, total cycles
and utilization are bit-identical to serial execution, including after the
supervisor recovered from a killed, hung or pipe-corrupting worker -- and the
batched ``run_many`` / ``LaunchBatch`` API returns exactly what the same
launches would return one at a time.

Several tests replace the per-CTA simulation (``ExecutorBase.run_one_cta``)
with a tiny deterministic function.  Pool workers fork lazily at the first
dispatch, so they inherit the replacement, and each test gets a fresh pool
(the conftest shuts every process-global pool down between tests).
"""

from __future__ import annotations

import math
import multiprocessing as mp
import os
import time

import numpy as np
import pytest

from repro import faults
from repro.core.options import CompileOptions
from repro.frontend.errors import FrontendError
from repro.gpusim import pool as pool_mod
from repro.gpusim.device import Device, LaunchSpec
from repro.gpusim.engine import SimulationError
from repro.gpusim.executors import ExecutorBase, PooledExecutor
from repro.gpusim.memory import SharedArena
from repro.gpusim.parallel import (
    BACKOFF,
    CtaShard,
    MERGED,
    RUNNING,
    SupervisorConfig,
    fork_available,
    resolve_shard_retries,
    resolve_shard_timeout,
    resolve_workers,
    shard_cta_ids,
)
from repro.gpusim.pool import shutdown_pools
from repro.kernels.attention import AttentionProblem, run_attention
from repro.kernels.gemm import GemmProblem, gemm_reference, make_gemm_inputs, \
    matmul_kernel, run_gemm
from repro.perf.counters import COUNTERS

needs_fork = pytest.mark.skipif(not fork_available(), reason="requires fork()")

WS_OPTIONS = CompileOptions(enable_warp_specialization=True, aref_depth=2,
                            mma_pipeline_depth=2, num_consumer_groups=2)


def _identity_cta(linear):
    return (float(linear), 0.0, linear)


def _patch_cta(monkeypatch, fn) -> None:
    """Make every CTA simulate as ``fn(linear)``, in this process and in
    every pool worker forked afterwards."""
    monkeypatch.setattr(ExecutorBase, "run_one_cta",
                        lambda self, prepared, linear: fn(linear))


def _spec(device: Device, n_ctas: int) -> LaunchSpec:
    """A plain GEMM launch with exactly ``n_ctas`` CTAs."""
    problem = GemmProblem(M=32 * n_ctas, N=32, K=32, block_m=32, block_n=32,
                          block_k=32)
    args, _, _ = make_gemm_inputs(problem, device)
    return LaunchSpec(matmul_kernel, problem.grid, args, problem.constexprs(),
                      CompileOptions())


def _run(device: Device, n_ctas: int):
    return device.run_many([_spec(device, n_ctas)])[0]


def _assert_identity_rows(result, n_ctas: int) -> None:
    """The launch merged ``_identity_cta`` rows of every CTA in launch order."""
    assert result.per_cta_cycles == [float(i) for i in range(n_ctas)]
    assert result.bytes_copied == sum(range(n_ctas))


def _submit(device: Device, spec: LaunchSpec):
    """Submit one launch through the device's executor; the in-flight handle."""
    executor = device.executor()
    return executor.submit(executor.prepare(spec))


@pytest.fixture
def identity_ctas(monkeypatch):
    _patch_cta(monkeypatch, _identity_cta)


def _supervise(monkeypatch, **policy) -> None:
    """Run pooled launches under an explicit :class:`SupervisorConfig`."""
    monkeypatch.setattr(PooledExecutor, "supervisor_config",
                        lambda self: SupervisorConfig(**policy))


# ---------------------------------------------------------------------------
# Sharding primitives
# ---------------------------------------------------------------------------


class TestShardingPrimitives:
    def test_round_robin_shards_cover_all_ctas(self):
        shards = shard_cta_ids(list(range(10)), 3)
        assert [s.index for s in shards] == [0, 1, 2]
        assert shards[0].cta_ids == (0, 3, 6, 9)
        assert shards[1].cta_ids == (1, 4, 7)
        assert shards[2].cta_ids == (2, 5, 8)
        assert sorted(sum((s.cta_ids for s in shards), ())) == list(range(10))

    def test_more_workers_than_ctas_drops_empty_shards(self):
        shards = shard_cta_ids([0, 1], 4)
        assert len(shards) == 2
        assert all(s.cta_ids for s in shards)

    def test_shard_descriptor_is_picklable(self):
        import pickle

        shard = CtaShard(1, (3, 4, 5))
        assert pickle.loads(pickle.dumps(shard)) == shard

    def test_resolve_workers_explicit(self):
        expected = 3 if fork_available() else 1
        assert resolve_workers(3) == expected
        assert resolve_workers(1) == 1
        with pytest.raises(SimulationError):
            resolve_workers(-2)

    def test_resolve_workers_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_WORKERS", "2")
        assert resolve_workers(None) == (2 if fork_available() else 1)
        monkeypatch.setenv("REPRO_SIM_WORKERS", "")
        assert resolve_workers(None) == 1
        monkeypatch.setenv("REPRO_SIM_WORKERS", "auto")
        assert resolve_workers(None) >= 1
        monkeypatch.setenv("REPRO_SIM_WORKERS", "lots")
        with pytest.raises(SimulationError, match="REPRO_SIM_WORKERS"):
            resolve_workers(None)

    def test_device_workers_from_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_WORKERS", "2")
        assert Device().workers == (2 if fork_available() else 1)
        assert Device(workers=1).workers == 1

    def test_resolve_shard_timeout(self, monkeypatch):
        assert resolve_shard_timeout(2.5) == 2.5
        assert resolve_shard_timeout(0) == 0.0
        monkeypatch.setenv("REPRO_SIM_SHARD_TIMEOUT", "7.5")
        assert resolve_shard_timeout(None) == 7.5
        monkeypatch.setenv("REPRO_SIM_SHARD_TIMEOUT", "")
        assert resolve_shard_timeout(None) == 60.0
        monkeypatch.setenv("REPRO_SIM_SHARD_TIMEOUT", "soon")
        with pytest.raises(SimulationError, match="REPRO_SIM_SHARD_TIMEOUT"):
            resolve_shard_timeout(None)
        with pytest.raises(SimulationError):
            resolve_shard_timeout(-1.0)

    def test_resolve_shard_retries(self, monkeypatch):
        assert resolve_shard_retries(5) == 5
        assert resolve_shard_retries(0) == 0
        monkeypatch.setenv("REPRO_SIM_SHARD_RETRIES", "3")
        assert resolve_shard_retries(None) == 3
        monkeypatch.setenv("REPRO_SIM_SHARD_RETRIES", "")
        assert resolve_shard_retries(None) == 2
        monkeypatch.setenv("REPRO_SIM_SHARD_RETRIES", "many")
        with pytest.raises(SimulationError, match="REPRO_SIM_SHARD_RETRIES"):
            resolve_shard_retries(None)
        with pytest.raises(SimulationError):
            resolve_shard_retries(-1)

    def test_device_supervision_knobs_flow_to_settings(self, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_SHARD_TIMEOUT", "12.5")
        monkeypatch.setenv("REPRO_SIM_SHARD_RETRIES", "4")
        settings = Device().executor_settings()
        assert settings.shard_timeout == 12.5
        assert settings.shard_retries == 4
        settings = Device(shard_timeout=1.0, shard_retries=0).executor_settings()
        assert settings.shard_timeout == 1.0
        assert settings.shard_retries == 0

    def test_supervisor_heartbeat_interval(self):
        assert SupervisorConfig(timeout=0).heartbeat_interval == 0.0
        assert SupervisorConfig(timeout=2.0).heartbeat_interval == 0.5
        assert SupervisorConfig(timeout=60.0).heartbeat_interval == 1.0
        cfg = SupervisorConfig(backoff=0.05)
        assert cfg.retry_delay(1) == 0.05
        assert cfg.retry_delay(2) == 0.1
        assert cfg.retry_delay(3) == 0.2


# ---------------------------------------------------------------------------
# Shared-memory buffers
# ---------------------------------------------------------------------------


class TestSharedBuffers:
    @needs_fork
    def test_fork_sees_writes_to_shared_array(self):
        """The pool's arena is inherited by fork: a child's writes into an
        arena view reach the parent, unlike writes to private memory."""
        arena = SharedArena(1 << 12)
        arr = arena.view(0, (8,), np.float32)
        arr[:] = 0.0

        def child():
            arr[3] = 42.0

        proc = mp.get_context("fork").Process(target=child)
        proc.start()
        proc.join()
        assert proc.exitcode == 0
        assert arr[3] == 42.0
        # a regular (private) array would NOT propagate the write
        private = np.zeros(8, dtype=np.float32)

        def child2():
            private[3] = 42.0

        proc = mp.get_context("fork").Process(target=child2)
        proc.start()
        proc.join()
        assert private[3] == 0.0
        del arr
        arena.close()


# ---------------------------------------------------------------------------
# Pool launch mechanics
# ---------------------------------------------------------------------------


@needs_fork
class TestParallelLaunch:
    def test_merges_rows_in_launch_order(self, monkeypatch):
        """Round-robin shards come back per worker; the merge restores the
        launch's CTA order."""
        _patch_cta(monkeypatch, lambda linear: (linear * 10.0, 1.0, linear))
        result = _run(Device(mode="functional", workers=2), 4)
        assert COUNTERS.pool_launches == 1
        assert result.per_cta_cycles == [0.0, 10.0, 20.0, 30.0]
        assert result.tensor_core_busy_cycles == 4.0
        assert result.bytes_copied == 6

    def test_worker_counter_deltas_are_merged(self, monkeypatch):
        def run_cta(linear):
            COUNTERS.plan_ctas += 1
            return (1.0, 0.0, 0)

        _patch_cta(monkeypatch, run_cta)
        _run(Device(mode="functional", workers=3), 6)
        assert COUNTERS.plan_ctas == 6  # every CTA ran in a worker
        assert COUNTERS.pool_launches == 1
        assert COUNTERS.pool_workers_spawned == 3

    def test_worker_exception_propagates(self, monkeypatch):
        def run_cta(linear):
            if linear == 3:
                raise ValueError("boom in CTA 3")
            return (1.0, 0.0, 0)

        _patch_cta(monkeypatch, run_cta)
        with pytest.raises(SimulationError, match="boom in CTA 3"):
            _run(Device(mode="functional", workers=2), 5)

    def test_dead_worker_is_recovered(self, monkeypatch):
        """A worker that dies without reporting no longer kills the launch.

        Every pool-worker attempt dies (the exit is pid-guarded so the
        parent's terminal serial fallback survives); the launch must still
        complete with correct rows, through retries and then the in-process
        fallback.
        """
        parent = os.getpid()

        def run_cta(linear):
            if os.getpid() != parent:
                os._exit(17)  # die without reporting, but only in a worker
            return _identity_cta(linear)

        _patch_cta(monkeypatch, run_cta)
        result = _run(Device(mode="functional", workers=2, shard_retries=1), 2)
        _assert_identity_rows(result, 2)
        # both shards died on every attempt: retried once each, then fell back
        assert COUNTERS.shard_retries == 2
        assert COUNTERS.shard_serial_fallbacks == 2

    def test_overlapped_launches(self):
        """A launch submitted while another owns the pool runs serially in
        the caller instead of colliding; both stay bit-identical."""
        device = Device(mode="functional", workers=2)
        serial = Device(mode="functional", workers=1)
        problems = [GemmProblem(M=128, N=128, K=k, block_m=64, block_n=64,
                                block_k=32) for k in (64, 128)]
        specs = []
        for problem in problems:
            args, _, _ = make_gemm_inputs(problem, device)
            specs.append(LaunchSpec(matmul_kernel, problem.grid, args,
                                    problem.constexprs(), WS_OPTIONS))
        first = _submit(device, specs[0])
        second = _submit(device, specs[1])
        assert not first.done and second.done  # the pool was busy
        assert COUNTERS.pool_busy_rejections == 1
        for inflight, spec, problem in zip((first, second), specs, problems):
            result = inflight.collect()
            expected, c = run_gemm(serial, problem, WS_OPTIONS)
            assert result.per_cta_cycles == expected.per_cta_cycles
            assert np.array_equal(spec.args["c_ptr"].buffer.to_numpy(), c)


# ---------------------------------------------------------------------------
# Supervision: injected kill / hang / pipe-corruption recovery
# ---------------------------------------------------------------------------


@needs_fork
class TestSupervision:
    """The supervised launch recovers from infrastructure failures.

    Faults are injected through :mod:`repro.faults` (parent-owned budgets,
    so a fault consumed by one attempt is not re-triggered by its retry) and
    the launch must always produce the same rows serial execution would.
    """

    def test_injected_kill_is_retried(self, identity_ctas):
        with faults.inject_faults("kill:worker=1,cta=0"):
            result = _run(Device(workers=3, shard_retries=2), 8)
        _assert_identity_rows(result, 8)
        assert COUNTERS.shard_retries == 1
        assert COUNTERS.shard_serial_fallbacks == 0
        assert COUNTERS.faults_injected == 1

    def test_injected_hang_trips_the_deadline(self, identity_ctas):
        with faults.inject_faults("hang:worker=0,cta=1,seconds=60"):
            result = _run(Device(workers=2, shard_timeout=0.4,
                                 shard_retries=2), 6)
        _assert_identity_rows(result, 6)
        assert COUNTERS.shard_timeouts == 1
        assert COUNTERS.shard_retries == 1
        assert COUNTERS.faults_injected == 1

    def test_injected_pipe_corruption_is_retried(self, identity_ctas):
        with faults.inject_faults("pipe:worker=1"):
            result = _run(Device(workers=2, shard_retries=2), 6)
        _assert_identity_rows(result, 6)
        assert COUNTERS.shard_retries == 1
        assert COUNTERS.faults_injected == 1

    def test_exhausted_retries_degrade_to_serial_fallback(self, identity_ctas):
        """A shard whose worker dies on every attempt re-executes in the
        parent."""
        with faults.inject_faults("kill:worker=0,count=-1"):
            result = _run(Device(workers=2, shard_retries=2), 6)
        _assert_identity_rows(result, 6)
        assert COUNTERS.shard_retries == 2
        assert COUNTERS.shard_serial_fallbacks == 1
        # first attempt + 2 retries of worker 0 each consumed one kill
        assert COUNTERS.faults_injected == 3

    def test_zero_retries_fall_back_immediately(self, identity_ctas):
        with faults.inject_faults("kill:worker=0"):
            result = _run(Device(workers=2, shard_retries=0), 2)
        _assert_identity_rows(result, 2)
        assert COUNTERS.shard_retries == 0
        assert COUNTERS.shard_serial_fallbacks == 1

    def test_only_the_failed_shard_is_retried(self, identity_ctas):
        """Surviving shards merge once; only the killed worker respawns."""
        device = Device(workers=3, shard_retries=2)
        with faults.inject_faults("kill:worker=2,cta=0"):
            inflight = _submit(device, _spec(device, 9))
            result = inflight.collect()
        _assert_identity_rows(result, 9)
        assert inflight._launched.shard_states() == {0: MERGED, 1: MERGED,
                                                     2: MERGED}
        # 3 initial spawns + exactly one respawn
        assert COUNTERS.pool_workers_spawned == 4
        assert COUNTERS.pool_worker_respawns == 1

    def test_worker_error_is_not_retried(self, monkeypatch):
        """A worker-*reported* exception is deterministic; fail fast."""
        def run_cta(linear):
            if linear == 3:
                raise ValueError("boom in CTA 3")
            return _identity_cta(linear)

        _patch_cta(monkeypatch, run_cta)
        with pytest.raises(SimulationError, match="boom in CTA 3"):
            _run(Device(workers=2, shard_retries=2), 5)
        assert COUNTERS.shard_retries == 0
        assert COUNTERS.shard_serial_fallbacks == 0

    def test_disabled_deadline_still_recovers_from_death(self, identity_ctas):
        """timeout=0 turns off hang detection, not death detection."""
        with faults.inject_faults("kill:worker=0,cta=0"):
            result = _run(Device(workers=2, shard_timeout=0,
                                 shard_retries=1), 3)
        _assert_identity_rows(result, 3)
        assert COUNTERS.shard_retries == 1
        assert COUNTERS.shard_timeouts == 0

    def test_heartbeats_keep_long_shards_alive(self, monkeypatch):
        """A shard far outliving the deadline survives while it progresses."""
        def slow_cta(linear):
            time.sleep(0.15)
            return _identity_cta(linear)

        _patch_cta(monkeypatch, slow_cta)
        # 4 CTAs x 0.15s per worker ~ 0.6s of work against a 0.4s deadline:
        # without heartbeats (interval = 0.1s) this would be declared hung.
        result = _run(Device(workers=2, shard_timeout=0.4, shard_retries=0), 8)
        _assert_identity_rows(result, 8)
        assert COUNTERS.shard_timeouts == 0
        assert COUNTERS.shard_serial_fallbacks == 0

    def test_gemm_bit_identical_under_injected_kill(self):
        """The acceptance bar: recovery is observationally invisible."""
        problem = GemmProblem(M=128, N=128, K=64, block_m=64, block_n=64,
                              block_k=32)
        r_s, c_s = run_gemm(Device(mode="functional", workers=1), problem,
                            WS_OPTIONS)
        with faults.inject_faults("kill:worker=1,cta=0"):
            device = Device(mode="functional", workers=2, shard_retries=2)
            r_p, c_p = run_gemm(device, problem, WS_OPTIONS)
        assert COUNTERS.faults_injected == 1
        assert COUNTERS.shard_retries == 1
        assert r_p.cycles == r_s.cycles
        assert r_p.per_cta_cycles == r_s.per_cta_cycles
        assert r_p.bytes_copied == r_s.bytes_copied
        assert np.array_equal(c_p, c_s)
        assert COUNTERS.parallel_shared_bytes == device.pool.arena.nbytes


# ---------------------------------------------------------------------------
# Supervision-loop regressions: bounded drains, progress-gated deadlines
# ---------------------------------------------------------------------------


@needs_fork
class TestSupervisionLoopRegressions:
    """Pin the wait-loop fixes: the supervisor sleeps instead of spinning,
    and only heartbeats that report *new* progress extend a shard's hang
    deadline."""

    def test_kill_then_backoff_launch_has_bounded_drains(self, monkeypatch,
                                                         identity_ctas):
        """A launch waiting out retry backoffs must sleep, not busy-spin."""
        _supervise(monkeypatch, timeout=30, retries=2, backoff=0.15)
        device = Device(workers=2)
        with faults.inject_faults("kill:worker=0,count=-1"):
            inflight = _submit(device, _spec(device, 6))
            result = inflight.collect()
        _assert_identity_rows(result, 6)
        assert COUNTERS.shard_retries == 2
        # Three attempts of worker 0 with ~0.15s/0.3s backoffs between them:
        # every drain either receives a message or sleeps a bounded tick, so
        # the count stays small.  A drain that returns without sleeping
        # would spin the wait loop and record tens of thousands here.
        assert inflight._launched.drain_calls < 60

    def _merged_launch(self, **device_kw) -> pool_mod.PoolLaunch:
        device = Device(workers=2, **device_kw)
        inflight = _submit(device, _spec(device, 2))
        inflight.collect()
        return inflight._launched

    def test_drain_sleeps_a_fixed_tick_when_nothing_is_due(self):
        """No live pipes and no finite horizon: drain must still sleep.

        The unfixed branch (``if timeout:``) treated the ``None``-from-inf
        horizon as "don't sleep" and returned immediately, hot-looping
        ``wait()``.
        """
        launch = self._merged_launch()
        state = launch._states[0]
        state.status = BACKOFF
        state.retry_at = math.inf  # no wakeup scheduled at all
        start = time.monotonic()
        launch._drain({})
        elapsed = time.monotonic() - start
        state.status = MERGED
        assert elapsed >= 0.04

    def test_drain_bounds_a_distant_backoff_horizon(self):
        """A far-off retry sleeps one bounded tick, not the whole horizon."""
        launch = self._merged_launch()
        state = launch._states[0]
        state.status = BACKOFF
        state.retry_at = time.monotonic() + 30.0
        start = time.monotonic()
        launch._drain({})
        elapsed = time.monotonic() - start
        state.status = MERGED
        assert 0.04 <= elapsed <= 5.0

    def test_drain_handles_an_already_due_horizon(self):
        """A horizon in the past must neither sleep long nor raise."""
        launch = self._merged_launch()
        state = launch._states[0]
        state.status = BACKOFF
        state.retry_at = time.monotonic() - 1.0
        start = time.monotonic()
        launch._drain({})
        elapsed = time.monotonic() - start
        state.status = MERGED
        assert elapsed < 1.0  # returns promptly so wait() can re-dispatch

    def test_heartbeat_without_progress_does_not_extend_deadline(self):
        """Only a heartbeat whose ctas_done advanced refreshes the deadline.

        The unfixed handler refreshed it on *any* heartbeat, so a worker
        beating while stuck (injected hang, livelocked CTA) never timed out.
        """
        launch = self._merged_launch(shard_timeout=5.0)
        state = launch._states[0]
        state.status = RUNNING
        state.last_progress = 2
        state.deadline = frozen = time.monotonic() + 0.25
        beat = launch.launch_id
        launch._handle(state, ("hb", beat, 0, 2), {})  # chatter, no progress
        assert state.deadline == frozen
        launch._handle(state, ("hb", beat, 0, 1), {})  # stale/reordered report
        assert state.deadline == frozen
        assert state.last_progress == 2
        launch._handle(state, ("hb", beat, 0, 3), {})  # real progress
        assert state.deadline > frozen
        state.status = MERGED

    def test_hang_that_heartbeats_still_times_out(self, identity_ctas):
        """An injected hang beats without progress; the deadline must see
        through the chatter and still declare the shard hung."""
        start = time.monotonic()
        with faults.inject_faults("hang:worker=0,cta=0,seconds=60"):
            result = _run(Device(workers=2, shard_timeout=0.5,
                                 shard_retries=1), 6)
        _assert_identity_rows(result, 6)
        assert COUNTERS.shard_timeouts == 1
        assert COUNTERS.shard_retries == 1
        assert COUNTERS.faults_injected == 1
        # The supervisor's deadline, not the 60s sleep, ended the hang.
        assert time.monotonic() - start < 30.0


# ---------------------------------------------------------------------------
# Bit-identical pooled kernel execution
# ---------------------------------------------------------------------------


@needs_fork
class TestShardedLaunchesBitIdentical:
    def _gemm(self):
        return GemmProblem(M=128, N=128, K=64, block_m=64, block_n=64, block_k=32)

    @pytest.mark.parametrize("engine", ["plans", "interp"],
                             ids=["plans", "interpreter"])
    def test_gemm_matches_serial(self, engine):
        problem = self._gemm()
        r_s, c_s = run_gemm(Device(mode="functional", engine=engine, workers=1),
                            problem, WS_OPTIONS)
        r_p, c_p = run_gemm(Device(mode="functional", engine=engine, workers=2),
                            problem, WS_OPTIONS)
        assert COUNTERS.pool_launches == 1
        assert r_p.cycles == r_s.cycles
        assert r_p.per_cta_cycles == r_s.per_cta_cycles
        assert r_p.tensor_core_utilization == r_s.tensor_core_utilization
        assert r_p.bytes_copied == r_s.bytes_copied
        assert np.array_equal(c_p, c_s)

    def test_gemm_matches_reference(self):
        problem = self._gemm()
        device = Device(mode="functional", workers=2)
        args, a, b = make_gemm_inputs(problem, device)
        device.run(matmul_kernel, grid=problem.grid, args=args,
                   constexprs=problem.constexprs(), options=WS_OPTIONS)
        c = args["c_ptr"].buffer.to_numpy().astype(np.float32)
        np.testing.assert_allclose(
            c, gemm_reference(a, b, problem.dtype).astype(np.float32),
            rtol=2e-2, atol=2e-2)

    def test_attention_matches_serial(self):
        problem = AttentionProblem(batch=1, heads=2, seq_len=128, head_dim=64,
                                   block_m=64, block_n=64, causal=True)
        options = CompileOptions(enable_warp_specialization=True, aref_depth=2,
                                 mma_pipeline_depth=2, num_consumer_groups=2,
                                 coarse_grained_pipelining=True)
        r_s, o_s = run_attention(Device(mode="functional", workers=1), problem, options)
        r_p, o_p = run_attention(Device(mode="functional", workers=3), problem, options)
        assert COUNTERS.pool_launches == 1
        assert r_p.cycles == r_s.cycles
        assert r_p.per_cta_cycles == r_s.per_cta_cycles
        assert np.array_equal(o_p, o_s)

    def test_persistent_gemm_matches_serial(self):
        problem = self._gemm()
        options = CompileOptions(enable_warp_specialization=True, aref_depth=2,
                                 mma_pipeline_depth=2, num_consumer_groups=2,
                                 persistent=True)
        r_s, c_s = run_gemm(Device(mode="functional", workers=1), problem, options)
        r_p, c_p = run_gemm(Device(mode="functional", workers=2), problem, options)
        assert r_p.cycles == r_s.cycles
        assert np.array_equal(c_p, c_s)

    def test_performance_mode_stays_serial(self):
        problem = GemmProblem(M=2048, N=2048, K=512)
        device = Device(mode="performance", workers=4, max_ctas_per_sm_simulated=2)
        run_gemm(device, problem, WS_OPTIONS)
        assert COUNTERS.pool_launches == 0
        assert COUNTERS.pool_workers_spawned == 0

    def test_trace_collection_stays_serial(self):
        problem = self._gemm()
        device = Device(mode="functional", workers=2, collect_trace=True)
        result, _ = run_gemm(device, problem, WS_OPTIONS)
        assert COUNTERS.pool_launches == 0
        assert COUNTERS.pool_workers_spawned == 0
        assert result.trace  # the serial path still collected a trace


# ---------------------------------------------------------------------------
# Batched launch API
# ---------------------------------------------------------------------------


class TestRunMany:
    def _specs(self, device, ks=(64, 128)):
        specs = []
        for k in ks:
            problem = GemmProblem(M=128, N=128, K=k, block_m=64, block_n=64,
                                  block_k=32)
            args, _, _ = make_gemm_inputs(problem, device)
            specs.append(LaunchSpec(matmul_kernel, problem.grid, args,
                                    problem.constexprs(), WS_OPTIONS, problem.flops))
        return specs

    @pytest.mark.parametrize("workers", [1, pytest.param(2, marks=needs_fork)])
    def test_matches_individual_launches(self, workers):
        device = Device(mode="functional", workers=workers)
        specs = self._specs(device)
        batched = device.run_many(specs)
        for k, spec, result in zip((64, 128), specs, batched):
            problem = GemmProblem(M=128, N=128, K=k, block_m=64, block_n=64,
                                  block_k=32)
            expected, c = run_gemm(Device(mode="functional", workers=1), problem, WS_OPTIONS)
            assert result.cycles == expected.cycles
            assert result.per_cta_cycles == expected.per_cta_cycles
            assert np.array_equal(spec.args["c_ptr"].buffer.to_numpy(), c)

    def test_performance_mode_batch(self):
        device = Device(mode="performance", max_ctas_per_sm_simulated=2)
        problem = GemmProblem(M=2048, N=2048, K=512)
        args, _, _ = make_gemm_inputs(problem, device)
        spec = LaunchSpec(matmul_kernel, problem.grid, args, problem.constexprs(),
                          WS_OPTIONS, problem.flops)
        batched = device.run_many([spec, spec])
        individual, _ = run_gemm(Device(mode="performance", max_ctas_per_sm_simulated=2),
                                 problem, WS_OPTIONS)
        assert batched[0].cycles == individual.cycles
        assert batched[1].cycles == individual.cycles

    def test_empty_batch(self):
        assert Device().run_many([]) == []

    def test_compile_is_deduplicated_across_batch(self):
        device = Device(mode="functional")
        specs = self._specs(device, ks=(64, 64, 64))
        before = COUNTERS.compile_cache_misses
        device.run_many(specs)
        assert COUNTERS.compile_cache_misses == before + 1

    @needs_fork
    def test_dependent_launches_see_completed_outputs(self):
        """A later launch may consume an earlier pooled launch's output."""
        device = Device(mode="functional", workers=2)
        first = GemmProblem(M=128, N=128, K=64, block_m=64, block_n=64,
                            block_k=32)
        args1, a, b = make_gemm_inputs(first, device)
        c_buf = args1["c_ptr"].buffer

        # Second launch: D = C @ B2^T, reading the first launch's C (128x128).
        # Grid is a single CTA, so it takes the serial path while C's workers
        # may still be running unless run_many collects them first.
        rng = np.random.default_rng(7)
        b2 = rng.standard_normal((128, 128), dtype=np.float32) * 0.5
        d_buf = device.buffer(np.zeros((128, 128), np.float32), "f16", name="D")
        args2 = {
            "a_desc": device.tensor_desc(c_buf),
            "b_desc": device.tensor_desc(b2, "f16"),
            "c_ptr": device.pointer(d_buf),
            "M": 128, "N": 128, "K": 128,
        }
        cexprs2 = {"stride_cm": 128, "stride_cn": 1, "Mt": 128, "Nt": 128,
                   "Kt": 32}
        specs = [
            LaunchSpec(matmul_kernel, first.grid, args1, first.constexprs(),
                       WS_OPTIONS),
            LaunchSpec(matmul_kernel, 1, args2, cexprs2, CompileOptions()),
        ]
        results = device.run_many(specs)
        assert len(results) == 2
        c = c_buf.to_numpy().astype(np.float32)
        expected_c = gemm_reference(a, b, first.dtype).astype(np.float32)
        np.testing.assert_allclose(c, expected_c, rtol=2e-2, atol=2e-2)
        expected_d = (c.astype(np.float16).astype(np.float32)
                      @ b2.astype(np.float16).astype(np.float32).T)
        np.testing.assert_allclose(d_buf.to_numpy().astype(np.float32),
                                   expected_d, rtol=4e-2, atol=4e-2)

    @needs_fork
    def test_failing_spec_does_not_leak_workers(self):
        """If a later spec fails to prepare, in-flight workers are aborted."""
        device = Device(mode="functional", workers=2)
        good = self._specs(device, ks=(64,))
        problem = GemmProblem(M=128, N=128, K=64, block_m=64, block_n=64,
                              block_k=32)
        args, _, _ = make_gemm_inputs(problem, device)
        del args["c_ptr"]  # missing argument -> _prepare fails at compile time
        bad = LaunchSpec(matmul_kernel, problem.grid, args, problem.constexprs(),
                         WS_OPTIONS)
        with pytest.raises(FrontendError, match="missing types"):
            device.run_many(good + [bad])
        # The in-flight launch was aborted: its busy workers were reaped, the
        # pool is released and its arena evacuated ...
        pool = device.pool
        assert COUNTERS.pool_launches == 1
        assert not pool.busy and pool.arena.used == 0
        assert not any(pool.worker(i).busy for i in range(pool.size))
        assert len(mp.active_children()) <= pool.size
        # ... and nothing outlives the pool itself.
        shutdown_pools()
        for proc in mp.active_children():
            proc.join(timeout=5)
        assert not mp.active_children()

    def test_launch_batch_handles(self):
        device = Device(mode="functional", workers=resolve_workers(2))
        batch = device.batch()
        problem = GemmProblem(M=128, N=128, K=64, block_m=64, block_n=64,
                              block_k=32)
        args, a, b = make_gemm_inputs(problem, device)
        index = batch.add(matmul_kernel, problem.grid, args, problem.constexprs(),
                          WS_OPTIONS, problem.flops)
        assert len(batch) == 1
        results = batch.run()
        assert batch.results is results and len(results) == 1
        expected, c = run_gemm(Device(mode="functional", workers=1), problem, WS_OPTIONS)
        assert results[index].cycles == expected.cycles
        assert np.array_equal(args["c_ptr"].buffer.to_numpy(), c)


# ---------------------------------------------------------------------------
# Shared-mapping lifecycle across launches
# ---------------------------------------------------------------------------


@needs_fork
class TestSharedMappingLifecycle:
    """Pooled launches must not leak arena residency or accumulate mappings.

    Every launch places its buffers into the pool's one reusable shared
    arena and must evacuate them back to private memory -- and recycle the
    arena -- on every exit path: merge, retry, timeout, serial fallback,
    dispatch failure and abort.  The ``parallel_shared_bytes`` gauge counts
    exactly one arena while the pool is open and returns to its pre-pool
    value once it shuts down.
    """

    def _gemm_spec(self, device):
        problem = GemmProblem(M=128, N=128, K=64, block_m=64, block_n=64,
                              block_k=32)
        args, a, b = make_gemm_inputs(problem, device)
        return problem, args, a, b

    def _run(self, device, problem, args):
        device.run(matmul_kernel, problem.grid, args, problem.constexprs(),
                   WS_OPTIONS)

    def _assert_private(self, device, *arg_sets) -> None:
        """Launch buffers are private again and the pool is free to reuse."""
        pool = device.pool
        assert not pool.busy
        assert pool.arena.used == 0
        for args in arg_sets:
            for value in args.values():
                if hasattr(value, "buffer"):
                    assert value.buffer.data.base is None  # no arena view leaks

    def _assert_gauge_returns(self, device) -> None:
        """One live arena while the pool is open; the pre-pool value after."""
        assert COUNTERS.parallel_shared_bytes == device.pool.arena.nbytes
        shutdown_pools()
        assert COUNTERS.parallel_shared_bytes == 0

    def _assert_correct(self, problem, args, a, b) -> None:
        np.testing.assert_allclose(
            args["c_ptr"].buffer.to_numpy().astype(np.float32),
            gemm_reference(a, b, problem.dtype).astype(np.float32),
            rtol=2e-2, atol=2e-2)

    def test_single_sharded_launch_releases_buffers(self):
        device = Device(mode="functional", workers=2)
        problem, args, a, b = self._gemm_spec(device)
        self._run(device, problem, args)
        assert COUNTERS.pool_launches == 1
        self._assert_private(device, args)
        # ... and the worker-written outputs survived the copy-out.
        self._assert_correct(problem, args, a, b)
        self._assert_gauge_returns(device)

    def test_long_batched_sweep_does_not_accumulate_mappings(self):
        """A 12-launch pooled sweep reuses one arena mapping throughout."""
        device = Device(mode="functional", workers=2)
        specs = []
        for i in range(12):
            problem = GemmProblem(M=128, N=128, K=64, block_m=64, block_n=64,
                                  block_k=32, seed=i)
            args, _, _ = make_gemm_inputs(problem, device)
            specs.append(LaunchSpec(matmul_kernel, problem.grid, args,
                                    problem.constexprs(), WS_OPTIONS))
        results = device.run_many(specs)
        assert len(results) == 12
        assert COUNTERS.pool_launches == 12
        self._assert_private(device, *(spec.args for spec in specs))
        self._assert_gauge_returns(device)

    def test_fork_failure_releases_shared_buffers(self, monkeypatch):
        """A launch whose dispatch fails must still evacuate the arena.

        The executor places buffers *before* constructing ``PoolLaunch``;
        if that raises (e.g. a respawn's fork fails), the launch never
        reaches the pending slot the batch-level error handler cleans up, so
        the evacuation must happen on the spot.
        """
        device = Device(mode="functional", workers=2)
        problem, args, _, _ = self._gemm_spec(device)
        spec = LaunchSpec(matmul_kernel, problem.grid, args,
                          problem.constexprs(), WS_OPTIONS)

        def failing_dispatch(*_a, **_k):
            raise OSError("fork: Resource temporarily unavailable")

        monkeypatch.setattr(pool_mod, "PoolLaunch", failing_dispatch)
        with pytest.raises(OSError, match="fork"):
            device.run_many([spec])
        self._assert_private(device, args)
        self._assert_gauge_returns(device)

    def test_killed_and_retried_launch_releases_buffers(self):
        """A launch that recovered via respawn still evacuates the arena."""
        device = Device(mode="functional", workers=2, shard_retries=2)
        problem, args, a, b = self._gemm_spec(device)
        with faults.inject_faults("kill:worker=0,cta=0"):
            self._run(device, problem, args)
        assert COUNTERS.shard_retries == 1
        self._assert_private(device, args)
        self._assert_correct(problem, args, a, b)
        self._assert_gauge_returns(device)

    def test_timed_out_launch_releases_buffers(self):
        """A launch that tripped the hang deadline still evacuates."""
        device = Device(mode="functional", workers=2, shard_timeout=0.4,
                        shard_retries=1)
        problem, args, a, b = self._gemm_spec(device)
        with faults.inject_faults("hang:worker=1,cta=0,seconds=60"):
            self._run(device, problem, args)
        assert COUNTERS.shard_timeouts == 1
        self._assert_private(device, args)
        self._assert_correct(problem, args, a, b)
        self._assert_gauge_returns(device)

    def test_exhausted_retries_fallback_releases_buffers(self):
        """The serial-fallback path (worker 0 always dies) evacuates too --
        and the fallback's in-parent stores land in the arena views the
        surviving worker also wrote, so the output is still complete."""
        device = Device(mode="functional", workers=2, shard_retries=1)
        problem, args, a, b = self._gemm_spec(device)
        with faults.inject_faults("kill:worker=0,count=-1"):
            self._run(device, problem, args)
        assert COUNTERS.shard_serial_fallbacks == 1
        self._assert_private(device, args)
        self._assert_correct(problem, args, a, b)
        self._assert_gauge_returns(device)

    def test_aborted_inflight_launch_releases_buffers(self):
        """abort() on an in-flight pooled launch evacuates the arena."""
        device = Device(mode="functional", workers=2)
        problem, args, _, _ = self._gemm_spec(device)
        inflight = _submit(device, LaunchSpec(
            matmul_kernel, problem.grid, args, problem.constexprs(),
            WS_OPTIONS))
        assert not inflight.done
        assert device.pool.busy and device.pool.arena.used > 0
        inflight.abort()
        self._assert_private(device, args)
        self._assert_gauge_returns(device)

    def test_reused_buffer_across_launches_stays_correct(self):
        """Place -> restore -> re-place of the same buffer keeps data intact."""
        device = Device(mode="functional", workers=2)
        problem, args, a, b = self._gemm_spec(device)
        spec = LaunchSpec(matmul_kernel, problem.grid, args,
                          problem.constexprs(), WS_OPTIONS)
        device.run_many([spec, spec])
        assert COUNTERS.pool_launches == 2
        self._assert_private(device, args)
        self._assert_correct(problem, args, a, b)
        self._assert_gauge_returns(device)
