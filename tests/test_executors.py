"""Executor-layer tests: strategy selection, launch-prep parity, pipelining.

The serial and pooled launch paths live in :mod:`repro.gpusim.executors`
behind one ``prepare`` / ``run`` / ``submit`` protocol.  These tests pin the
properties that layering must preserve:

* ``Device.launch`` and ``Device.run_many`` share one launch-prep
  implementation (they used to carry clones), so the same spec produces
  identical results *and identical counter deltas* through both paths;
* executor selection follows ``(mode, workers, collect_trace)``;
* the pipelined batch driver is result-identical to one-at-a-time launches.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.options import CompileOptions
from repro.gpusim import executors
from repro.gpusim.device import Device, LaunchSpec, clear_compile_cache
from repro.gpusim.engine import SimulationError
from repro.gpusim.executors import (
    ExecutorSettings,
    InflightLaunch,
    PooledExecutor,
    SerialExecutor,
    select_executor,
)
from repro.gpusim.launch import PreparedLaunch
from repro.gpusim.pool import get_worker_pool
from repro.kernels.gemm import GemmProblem, make_gemm_inputs, matmul_kernel
from repro.perf.counters import COUNTERS, sim_counters


def _gemm_spec(device: Device, problem: GemmProblem) -> LaunchSpec:
    args, _, _ = make_gemm_inputs(problem, device)
    return LaunchSpec(matmul_kernel, problem.grid, args, problem.constexprs(),
                      CompileOptions(enable_warp_specialization=True,
                                     aref_depth=2, mma_pipeline_depth=2),
                      problem.flops)


#: Counter fields that must match exactly between the two launch paths.
_PARITY_COUNTERS = (
    "compile_cache_hits", "compile_cache_misses", "plan_cache_hits",
    "plan_cache_misses", "plan_ctas", "interpreter_ctas", "engine_events",
)


class TestLaunchPrepParity:
    """Regression: launch and run_many share one launch-prep implementation."""

    @pytest.mark.parametrize("planned", [True, False])
    def test_identical_results_and_counters_for_same_spec(self, planned,
                                                          small_gemm):
        deltas = {}
        outputs = {}
        for path in ("launch", "run_many"):
            clear_compile_cache()
            COUNTERS.reset()
            device = Device(mode="functional",
                            engine="plans" if planned else "interp")
            spec = _gemm_spec(device, small_gemm)
            if path == "launch":
                compiled = device.compile(spec.kernel, spec.args,
                                          spec.constexprs, spec.options)
                result = device.launch(compiled, spec.grid, spec.args,
                                       flops=spec.flops)
            else:
                [result] = device.run_many([spec])
            deltas[path] = sim_counters()
            outputs[path] = (result.cycles, tuple(result.per_cta_cycles),
                             result.tensor_core_busy_cycles,
                             result.bytes_copied, result.total_ctas,
                             spec.args["c_ptr"].buffer.to_numpy().copy())

        a, b = outputs["launch"], outputs["run_many"]
        assert a[:5] == b[:5]
        np.testing.assert_array_equal(a[5], b[5])
        for name in _PARITY_COUNTERS:
            assert deltas["launch"][name] == deltas["run_many"][name], name

    def test_prepare_is_shared_single_implementation(self):
        """Both public paths go through ExecutorBase.prepare -- the façade
        keeps no prep/orchestration bodies of its own."""
        for attr in ("_prepare", "_share_launch_buffers", "_release_launch_buffers",
                     "_effective_workers", "_execute_serial", "_run_one_cta"):
            assert not hasattr(Device, attr), attr
        for attr in ("prepare", "finalize", "run", "submit"):
            assert hasattr(executors.ExecutorBase, attr), attr


class TestSelection:
    def _settings(self, **kw) -> ExecutorSettings:
        defaults = dict(config=Device().config, mode="functional",
                        max_ctas_per_sm_simulated=8, collect_trace=False,
                        engine="plans", pool=None)
        defaults.update(kw)
        return ExecutorSettings(**defaults)

    def test_serial_by_default(self):
        assert isinstance(select_executor(self._settings()), SerialExecutor)
        assert not isinstance(select_executor(self._settings()), PooledExecutor)

    def test_sharded_for_functional_multi_worker(self):
        ex = select_executor(self._settings(pool=get_worker_pool(4)))
        assert isinstance(ex, PooledExecutor)

    def test_performance_mode_never_shards(self):
        ex = select_executor(self._settings(mode="performance",
                                            pool=get_worker_pool(4)))
        assert isinstance(ex, SerialExecutor)
        assert not isinstance(ex, PooledExecutor)

    def test_trace_collection_never_shards(self):
        ex = select_executor(self._settings(pool=get_worker_pool(4),
                                            collect_trace=True))
        assert isinstance(ex, SerialExecutor)
        assert not isinstance(ex, PooledExecutor)

    def test_device_reselects_on_attribute_change(self):
        device = Device(mode="functional", workers=4)
        assert isinstance(device.executor(), PooledExecutor)
        device.workers = 1
        assert not isinstance(device.executor(), PooledExecutor)


class TestShardedFallback:
    def test_single_cta_launch_runs_serially(self):
        """A one-CTA launch never reaches the pool's workers."""
        device = Device(mode="functional", workers=4)
        one_cta = GemmProblem(M=32, N=32, K=32, block_m=32, block_n=32,
                              block_k=32)
        spec = _gemm_spec(device, one_cta)
        assert spec.grid == 1
        [result] = device.run_many([spec])
        assert result.total_ctas == 1
        assert COUNTERS.pool_launches == 0
        assert COUNTERS.pool_workers_spawned == 0
        assert COUNTERS.pool_fallback_launches == 0  # nothing to shard

    def test_sharded_executor_effective_workers_cap(self, small_gemm):
        device = Device(mode="functional", workers=16)
        executor = device.executor()
        assert isinstance(executor, PooledExecutor)
        prepared = executor.prepare(_gemm_spec(device, small_gemm))
        assert isinstance(prepared, PreparedLaunch)
        assert executor.effective_workers(prepared) <= len(prepared.cta_ids)


class TestPipelinedBatch:
    def test_run_pipelined_matches_sequential_runs(self, small_gemm, tiny_gemm):
        device = Device(mode="functional")
        specs = [_gemm_spec(device, small_gemm), _gemm_spec(device, tiny_gemm)]
        batched = device.run_many(specs)

        clear_compile_cache()
        device2 = Device(mode="functional")
        specs2 = [_gemm_spec(device2, small_gemm), _gemm_spec(device2, tiny_gemm)]
        solo = [device2.run(s.kernel, s.grid, s.args, s.constexprs, s.options,
                            s.flops) for s in specs2]

        for got, want in zip(batched, solo):
            assert got.cycles == want.cycles
            assert got.per_cta_cycles == want.per_cta_cycles

    def test_submit_contract(self, tiny_gemm):
        """Serial submissions complete synchronously (done=True)."""
        device = Device(mode="functional", workers=1)
        executor = device.executor()
        prepared = executor.prepare(_gemm_spec(device, tiny_gemm))
        inflight = executor.submit(prepared)
        assert inflight.done
        assert inflight.collect().total_ctas == 4

    def test_uncollected_launch_cannot_escape_as_none(self, tiny_gemm):
        """Regression: a collect() that produces no result must raise.

        ``run_pipelined`` is typed to return ``List[LaunchResult]``; before
        the guard, an executor whose in-flight handle yielded ``None`` let
        that ``None`` escape into callers (``Device.run_many`` users index
        into the list and call attributes on the entries) typed as a result.
        """

        class _NoResultInflight(InflightLaunch):
            def __init__(self):
                super().__init__(None)

            @property
            def done(self):
                return False

            def collect(self):
                return None

        class _NoResultExecutor(SerialExecutor):
            def submit(self, prepared):
                return _NoResultInflight()

        device = Device(mode="functional", workers=1)
        broken = _NoResultExecutor(device.executor_settings())
        spec = _gemm_spec(device, tiny_gemm)
        with pytest.raises(SimulationError, match="uncollected"):
            executors.run_pipelined(broken, [spec])
