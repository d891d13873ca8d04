"""The async serve layer: batching, coalescing, backpressure, determinism.

The serve contract under test (:mod:`repro.serve`): a request submitted
through :class:`SimService` produces results **bit-identical** to a direct
``Device.run_many`` call of the same launch pipeline (the service adds no
execution semantics); concurrent identical keyed requests share one
execution -- queued *or already in flight*; a cold burst of identical
requests compiles exactly once through the singleflighted compiler service;
the admission queue sheds honestly (:class:`Busy`), drops expired deadlines
and cancelled clients at batch-formation time; and the TCP front end
round-trips all of it as typed JSON-lines replies, surviving a worker kill
mid-load through the pool's supervision.

No pytest-asyncio in the container: every test drives its own event loop
with ``asyncio.run`` from a synchronous body.
"""

from __future__ import annotations

import asyncio
import os
import threading

import numpy as np
import pytest

from repro import faults
from repro.core.options import NAIVE_OPTIONS
from repro.gpusim import blas
from repro.gpusim.device import Device
from repro.gpusim.launch import LaunchSpec
from repro.gpusim.parallel import fork_available
from repro.kernels.gemm import GemmProblem, make_gemm_inputs, matmul_kernel
from repro.perf.counters import COUNTERS
from repro.serve import (
    AsyncClient,
    Busy,
    DeadlineExceeded,
    RemoteError,
    ServePolicy,
    ServiceClosed,
    SimServer,
    SimService,
)
from repro.serve import protocol
from repro.serve.__main__ import main as serve_main
from repro.workloads import build_sweep_specs, get as get_workload

needs_fork = pytest.mark.skipif(not fork_available(), reason="requires fork()")

#: Workload families for the serve-vs-direct differential; splitk_gemm is the
#: multi-launch pipeline case (partials + reduce inside one request).
FAMILIES = ["softmax", "fused_elementwise", "gemm", "splitk_gemm"]

#: Keep batches forming fast in tests: tiny delay, generous size.
FAST = ServePolicy(max_batch=8, max_delay=0.005)


def _gemm_spec(device: Device, seed: int = 0) -> LaunchSpec:
    """One small gemm launch with its own fresh buffers."""
    problem = GemmProblem(M=64, N=64, K=32, block_m=32, block_n=32,
                          block_k=32, seed=seed)
    args, _, _ = make_gemm_inputs(problem, device)
    return LaunchSpec(matmul_kernel, problem.grid, args,
                      problem.constexprs(), NAIVE_OPTIONS, problem.flops)


def _direct_run(name: str, device: Device):
    """The baseline a serve request must match bit-for-bit."""
    workload = get_workload(name)
    specs = build_sweep_specs(device, workload, workload.check_problem())
    results = device.run_many(specs)
    return specs, results


def _assert_results_match(served, direct):
    assert len(served) == len(direct)
    for r_s, r_d in zip(served, direct):
        assert r_s.cycles == r_d.cycles
        assert r_s.per_cta_cycles == r_d.per_cta_cycles
        assert r_s.bytes_copied == r_d.bytes_copied
        assert r_s.total_ctas == r_d.total_ctas


class _Gate:
    """Block the device's first ``run_many`` call until released.

    Installed as an instance attribute over the bound method, it lets a test
    hold one dispatch in flight (``started`` set from the dispatch thread)
    while the event loop keeps admitting -- the window in which coalescing,
    shedding, deadlines and cancellation are observable deterministically.
    """

    def __init__(self, device: Device):
        self.started = threading.Event()
        self.release = threading.Event()
        self._original = device.run_many
        self._gated_once = False
        device.run_many = self  # type: ignore[method-assign]

    def __call__(self, specs, on_result=None):
        if not self._gated_once:
            self._gated_once = True
            self.started.set()
            assert self.release.wait(30), "test gate never released"
        return self._original(specs, on_result=on_result)


# ---------------------------------------------------------------------------
# Serve-vs-direct differential: the service adds no execution semantics
# ---------------------------------------------------------------------------


class TestServeDifferential:
    @pytest.mark.parametrize("name", FAMILIES)
    def test_serve_matches_direct(self, name):
        direct_specs, direct_results = _direct_run(
            name, Device(mode="functional"))

        async def scenario():
            device = Device(mode="functional")
            workload = get_workload(name)
            async with SimService(device, FAST) as service:
                specs = build_sweep_specs(device, workload,
                                          workload.check_problem())
                results = await service.submit_pipeline(specs)
            return specs, results

        served_specs, served_results = asyncio.run(scenario())
        _assert_results_match(served_results, direct_results)
        assert (protocol.args_digest(served_specs)
                == protocol.args_digest(direct_specs))

    def test_concurrent_mixed_families_all_match(self):
        """Unrelated clients' requests share micro-batches without bleeding
        into each other's results."""
        names = ["softmax", "fused_elementwise"]
        baselines = {name: protocol.args_digest(
            _direct_run(name, Device(mode="functional"))[0])
            for name in names}

        async def scenario():
            async with SimService(Device(mode="functional"), FAST) as service:
                replies = await asyncio.gather(*[
                    service.submit_workload(name, None) for name in names])
            return {reply["workload"]: reply["digest"] for reply in replies}

        digests = asyncio.run(scenario())
        assert digests == baselines
        assert COUNTERS.serve_requests == len(names)
        assert COUNTERS.serve_batches == 1  # one micro-batch served both

    def test_submit_single_spec_resolves_to_its_result(self):
        device = Device(mode="functional")
        spec = _gemm_spec(device)

        async def scenario():
            async with SimService(device, FAST) as service:
                return await service.submit(spec)

        result = asyncio.run(scenario())
        direct_device = Device(mode="functional")
        direct_spec = _gemm_spec(direct_device)
        [direct] = direct_device.run_many([direct_spec])
        _assert_results_match([result], [direct])
        c_served = spec.args["c_ptr"].buffer.to_numpy()
        c_direct = direct_spec.args["c_ptr"].buffer.to_numpy()
        assert np.array_equal(c_served, c_direct)


# ---------------------------------------------------------------------------
# Coalescing: identical keyed requests share one execution
# ---------------------------------------------------------------------------


class TestCoalescing:
    def test_queued_keyed_requests_share_one_execution(self):
        device = Device(mode="functional")
        spec = _gemm_spec(device)

        async def scenario():
            async with SimService(device, FAST) as service:
                return await asyncio.gather(
                    service.submit(spec, key="same"),
                    service.submit(spec, key="same"),
                    service.submit(spec, key="same"))

        r1, r2, r3 = asyncio.run(scenario())
        assert r1 is r2 is r3  # literally one result object
        assert COUNTERS.serve_requests == 3
        assert COUNTERS.serve_coalesced_requests == 2
        assert COUNTERS.serve_batched_launches == 1

    def test_attaches_to_slot_already_in_flight(self):
        device = Device(mode="functional")
        gate = _Gate(device)
        spec = _gemm_spec(device)

        async def scenario():
            policy = ServePolicy(max_batch=1, max_delay=0.0)
            async with SimService(device, policy) as service:
                task_a = asyncio.create_task(
                    service.submit(spec, key="same"))
                await asyncio.to_thread(gate.started.wait, 30)
                assert "same" in service._inflight
                task_b = asyncio.create_task(
                    service.submit(spec, key="same"))
                await asyncio.sleep(0.01)  # let B admit and attach
                gate.release.set()
                return await asyncio.gather(task_a, task_b)

        r_a, r_b = asyncio.run(scenario())
        assert r_a is r_b
        assert COUNTERS.serve_coalesced_requests == 1
        assert COUNTERS.serve_batched_launches == 1  # B never re-dispatched

    def test_unkeyed_requests_never_coalesce(self):
        device = Device(mode="functional")

        async def scenario():
            async with SimService(device, FAST) as service:
                return await asyncio.gather(
                    service.submit(_gemm_spec(device)),
                    service.submit(_gemm_spec(device)))

        r1, r2 = asyncio.run(scenario())
        assert r1 is not r2
        assert COUNTERS.serve_coalesced_requests == 0
        assert COUNTERS.serve_batched_launches == 2
        assert COUNTERS.serve_batches == 1  # but they shared a micro-batch

    def test_workload_requests_coalesce_by_canonical_key(self):
        params = {"M": 64, "N": 64, "K": 32, "block_m": 32, "block_n": 32,
                  "block_k": 32}

        async def scenario():
            async with SimService(Device(mode="functional"), FAST) as service:
                return await asyncio.gather(*[
                    service.submit_workload("gemm", dict(params))
                    for _ in range(4)])

        replies = asyncio.run(scenario())
        assert len({reply["digest"] for reply in replies}) == 1
        assert COUNTERS.serve_coalesced_requests == 3
        # One build, one pipeline's worth of launches.
        assert COUNTERS.serve_batched_launches == len(replies[0]["launches"])


# ---------------------------------------------------------------------------
# Backpressure: shed, deadline, cancellation
# ---------------------------------------------------------------------------


class TestBackpressure:
    def test_full_queue_sheds_with_typed_busy(self):
        device = Device(mode="functional")
        gate = _Gate(device)

        async def scenario():
            policy = ServePolicy(max_batch=1, max_delay=0.0, queue_limit=1)
            async with SimService(device, policy) as service:
                task_a = asyncio.create_task(
                    service.submit(_gemm_spec(device)))
                await asyncio.to_thread(gate.started.wait, 30)
                with pytest.raises(Busy) as excinfo:
                    await service.submit(_gemm_spec(device))
                gate.release.set()
                await task_a
                # The slot freed on completion: admission works again.
                await service.submit(_gemm_spec(device))
                return excinfo.value

        busy = asyncio.run(scenario())
        assert (busy.admitted, busy.limit) == (1, 1)
        assert COUNTERS.serve_shed_requests == 1

    def test_expired_deadline_drops_before_dispatch(self):
        device = Device(mode="functional")
        gate = _Gate(device)

        async def scenario():
            policy = ServePolicy(max_batch=1, max_delay=0.0)
            async with SimService(device, policy) as service:
                task_a = asyncio.create_task(
                    service.submit(_gemm_spec(device)))
                await asyncio.to_thread(gate.started.wait, 30)
                task_b = asyncio.create_task(
                    service.submit(_gemm_spec(device), timeout=0.01))
                await asyncio.sleep(0.05)  # expire B while A holds dispatch
                gate.release.set()
                await task_a
                with pytest.raises(DeadlineExceeded):
                    await task_b

        asyncio.run(scenario())
        assert COUNTERS.serve_deadline_drops == 1
        # The dropped request never became simulator work.
        assert COUNTERS.serve_batched_launches == 1

    def test_cancelled_client_frees_its_batch_slot(self):
        device = Device(mode="functional")
        gate = _Gate(device)

        async def scenario():
            policy = ServePolicy(max_batch=1, max_delay=0.0)
            async with SimService(device, policy) as service:
                task_a = asyncio.create_task(
                    service.submit(_gemm_spec(device)))
                await asyncio.to_thread(gate.started.wait, 30)
                task_b = asyncio.create_task(
                    service.submit(_gemm_spec(device)))
                await asyncio.sleep(0.01)  # let B enqueue
                task_b.cancel()
                await asyncio.sleep(0)
                gate.release.set()
                await task_a
                with pytest.raises(asyncio.CancelledError):
                    await task_b
                # Give the batcher one pass over B's pruned slot.
                await asyncio.sleep(0.01)

        asyncio.run(scenario())
        assert COUNTERS.serve_cancelled_drops == 1
        assert COUNTERS.serve_batched_launches == 1


# ---------------------------------------------------------------------------
# Singleflight through the serve path
# ---------------------------------------------------------------------------


class TestServeSingleflight:
    def test_cold_identical_burst_compiles_once(self):
        """8 concurrent cold requests for one kernel: the admission-time
        warm compiles all land in the compiler service's singleflight, so
        exactly one pass-pipeline execution happens."""
        device = Device(mode="functional")
        specs = [_gemm_spec(device) for _ in range(8)]

        async def scenario():
            async with SimService(device, FAST) as service:
                return await asyncio.gather(*[
                    service.submit(spec) for spec in specs])

        results = asyncio.run(scenario())
        assert COUNTERS.compile_cache_misses == 1
        assert COUNTERS.serve_requests == 8
        assert len({r.cycles for r in results}) == 1
        outputs = {spec.args["c_ptr"].buffer.to_numpy().tobytes()
                   for spec in specs}
        assert len(outputs) == 1  # identical inputs -> identical bits


# ---------------------------------------------------------------------------
# Lifecycle and policy
# ---------------------------------------------------------------------------


class TestLifecycle:
    def test_submit_after_close_raises(self):
        device = Device(mode="functional")
        spec = _gemm_spec(device)

        async def scenario():
            service = SimService(device, FAST)
            await service.start()
            await service.close()
            assert service.stats()["closed"]
            with pytest.raises(ServiceClosed):
                await service.submit(spec)

        asyncio.run(scenario())

    @pytest.mark.skipif(blas.blas_info()["threads"] is None
                        or any(os.environ.get(v) for v in blas.THREAD_VARS),
                        reason="needs OpenBLAS at its default thread count")
    def test_stats_report_single_threaded_blas(self):
        service = SimService(Device(mode="functional"), FAST)
        assert service.stats()["blas"]["threads"] == 1

    def test_context_exit_drains_inflight_work(self):
        device = Device(mode="functional")
        spec = _gemm_spec(device)

        async def scenario():
            async with SimService(device, FAST) as service:
                task = asyncio.create_task(service.submit(spec))
                await asyncio.sleep(0)
            return await task  # close() drained the batch first

        result = asyncio.run(scenario())
        assert result.cycles > 0

    def test_policy_from_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SERVE_MAX_BATCH", "3")
        monkeypatch.setenv("REPRO_SERVE_MAX_DELAY_MS", "10")
        monkeypatch.setenv("REPRO_SERVE_QUEUE_LIMIT", "5")
        monkeypatch.setenv("REPRO_SERVE_WARM_COMPILES", "0")
        policy = ServePolicy.from_env()
        assert policy.max_batch == 3
        assert policy.max_delay == pytest.approx(0.01)
        assert policy.queue_limit == 5
        assert policy.warm_compiles is False

    def test_policy_from_env_rejects_garbage(self, monkeypatch):
        monkeypatch.setenv("REPRO_SERVE_MAX_BATCH", "many")
        monkeypatch.setenv("REPRO_SERVE_MAX_DELAY_MS", "soon")
        monkeypatch.setenv("REPRO_SERVE_QUEUE_LIMIT", "-4")
        policy = ServePolicy.from_env()
        assert policy.max_batch == ServePolicy.max_batch
        assert policy.max_delay == ServePolicy.max_delay
        assert policy.queue_limit == 1  # clamped, not poisoned
        assert policy.warm_compiles is True


# ---------------------------------------------------------------------------
# Protocol shaping
# ---------------------------------------------------------------------------


class TestProtocol:
    def test_workload_key_is_canonical_over_param_order(self):
        assert (protocol.workload_key("gemm", {"M": 64, "N": 32})
                == protocol.workload_key("gemm", {"N": 32, "M": 64}))
        assert (protocol.workload_key("gemm", None)
                == protocol.workload_key("gemm", {}))
        assert (protocol.workload_key("gemm", {"M": 64})
                != protocol.workload_key("gemm", {"M": 128}))

    def test_line_framing_round_trips(self):
        message = {"op": "launch", "id": 7, "params": {"M": 64}}
        assert protocol.decode_line(protocol.encode_line(message)) == message
        with pytest.raises(ValueError):
            protocol.decode_line(b"[1, 2, 3]\n")

    def test_unknown_workload_fails_at_admission(self):
        with pytest.raises(KeyError, match="unknown workload"):
            protocol.workload_job("definitely-not-registered", None)

    def test_build_problem_from_params_and_default(self):
        workload = get_workload("gemm")
        problem = protocol.build_problem(
            workload, {"M": 64, "N": 64, "K": 32, "block_m": 32,
                       "block_n": 32, "block_k": 32})
        assert (problem.M, problem.N, problem.K) == (64, 64, 32)
        assert protocol.build_problem(workload, None) is not None

    def test_digest_tracks_buffer_contents(self):
        device = Device(mode="functional")
        spec_a = _gemm_spec(device, seed=0)
        spec_b = _gemm_spec(device, seed=1)
        assert (protocol.args_digest([spec_a])
                != protocol.args_digest([spec_b]))
        assert (protocol.args_digest([spec_a])
                == protocol.args_digest([_gemm_spec(device, seed=0)]))


# ---------------------------------------------------------------------------
# The TCP front end and the CLI
# ---------------------------------------------------------------------------


class TestTCPEndpoint:
    def test_round_trip(self):
        async def scenario():
            out = {}
            async with SimServer(Device(mode="functional"), FAST) as server:
                client = await AsyncClient.connect(server.host, server.port,
                                                   wait=5.0)
                async with client:
                    out["ping"] = await client.ping()
                    out["workloads"] = await client.list_workloads()
                    replies = await asyncio.gather(
                        client.launch("softmax"), client.launch("softmax"))
                    out["digests"] = {r["digest"] for r in replies}
                    out["launches"] = replies[0]["launches"]
                    out["counters"] = await client.counters()
                    out["stats"] = await client.stats()
                    try:
                        await client.request("frobnicate")
                    except RemoteError as exc:
                        out["unknown_op"] = exc.error
                    try:
                        await client.launch("not-a-workload")
                    except RemoteError as exc:
                        out["bad_launch"] = exc.error
            return out

        out = asyncio.run(scenario())
        assert out["ping"] is True
        assert "softmax" in out["workloads"]
        assert len(out["digests"]) == 1  # identical requests, identical bits
        assert out["launches"][0]["cycles"] > 0
        assert out["counters"]["serve_requests"] >= 2
        assert out["stats"]["closed"] is False
        assert out["unknown_op"] == "unknown-op"
        assert out["bad_launch"] == "bad-request"

    def test_cli_smoke_exits_zero(self, capsys):
        rc = serve_main(["smoke", "--pool", "0", "--repeat", "2", "softmax"])
        captured = capsys.readouterr()
        assert rc == 0, captured.err
        assert "softmax x2" in captured.out


# ---------------------------------------------------------------------------
# Supervision under load: the serve layer rides the pool's fault recovery
# ---------------------------------------------------------------------------


@needs_fork
class TestServeSupervision:
    def test_mid_load_worker_kill_recovers_bit_identical(self):
        params = {"M": 128, "N": 128, "K": 64, "block_m": 64, "block_n": 64,
                  "block_k": 32}
        workload = get_workload("gemm")
        serial_device = Device(mode="functional", workers=1)
        serial_specs = build_sweep_specs(serial_device, workload,
                                         workload.problem_cls(**params))
        serial_device.run_many(serial_specs)
        serial_digest = protocol.args_digest(serial_specs)

        async def scenario():
            device = Device(mode="functional", workers=2, shard_retries=2)
            async with SimService(device, FAST) as service:
                return await asyncio.gather(*[
                    service.submit_workload("gemm", dict(params),
                                            coalesce=False)
                    for _ in range(3)])

        with faults.inject_faults("kill:worker=1,cta=0"):
            replies = asyncio.run(scenario())

        assert COUNTERS.faults_injected == 1
        assert COUNTERS.shard_retries == 1
        assert COUNTERS.pool_worker_respawns == 1
        for reply in replies:  # every client, including the killed shard's
            assert reply["digest"] == serial_digest
