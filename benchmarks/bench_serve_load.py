"""Serve-layer load benchmark: dedup, coalescing and sustained throughput.

Drives :class:`repro.serve.SimService` with an open-loop asyncio load
generator and records the serve layer's headline numbers:

* **compile-dedup rate** -- 8 concurrent *cold* identical requests (fresh
  buffers each, compile cache cleared) must trigger exactly **one**
  pass-pipeline execution: the admission-time warm compiles race into the
  compiler service and its singleflight table collapses them.  Asserted
  unconditionally on counter deltas -- this is scheduling-independent,
  because any caller not in the singleflight either led or hits the cache.

* **batching** -- a burst of unique requests must micro-batch onto
  ``Device.run_many`` (batches < launches) instead of degenerating to 1:1.

* **sustained requests/s under a realistic mix** -- an open-loop burst of
  2x-duplicated workload requests (two clients per distinct problem, the
  serving pattern coalescing exists for).  The serve layer executes each
  distinct problem once and answers every client; the direct baseline --
  the PR-7 ``bench_sustained_throughput.py`` pool pattern, one sequential
  ``run_many`` per request over the same 2-worker pool -- must run all of
  them.  Requests/s, p50/p99 latency and the coalesce rate are recorded;
  the throughput gate (serve >= direct) is enforced unless
  ``REPRO_BENCH_STRICT=0`` (CI), the curve is recorded regardless.

Bit-identity is asserted alongside: for every distinct problem the serve
reply's output digest must equal the digest of a direct
``build_sweep_specs`` + ``run_many`` run of the same problem.

``REPRO_FULL=1`` lengthens the sustained burst.
"""

from __future__ import annotations

import asyncio
import hashlib
import time

import pytest

from conftest import bench_strict, emit_json, full_sweep_requested
from repro.experiments.common import tawa_gemm_options
from repro.gpusim.device import Device, clear_compile_cache
from repro.gpusim.launch import LaunchSpec
from repro.gpusim.parallel import fork_available
from repro.gpusim.pool import shutdown_pools
from repro.kernels.gemm import GemmProblem, make_gemm_inputs, matmul_kernel
from repro.perf.counters import COUNTERS, sim_counters
from repro.serve import ServePolicy, SimService
from repro.serve.protocol import args_digest
from repro.workloads import build_sweep_specs, get as get_workload

DEDUP_CLIENTS = 8
DUPLICATION = 2  # concurrent clients per distinct sustained-load problem


def _problem_params(seed: int) -> dict:
    return {"M": 256, "N": 256, "K": 128, "block_m": 64, "block_n": 64,
            "block_k": 32, "seed": seed}


def _gemm_spec(device: Device, problem: GemmProblem, options) -> LaunchSpec:
    """One gemm launch with its own fresh buffers (identical content key)."""
    args, _, _ = make_gemm_inputs(problem, device)
    return LaunchSpec(matmul_kernel, problem.grid, args,
                      problem.constexprs(), options, problem.flops)


async def _phase_dedup(service: SimService, options) -> dict:
    """8 concurrent cold identical requests -> exactly 1 compile."""
    problem = GemmProblem(**_problem_params(seed=0))
    clear_compile_cache()
    before = sim_counters()
    specs = [_gemm_spec(service.device, problem, options)
             for _ in range(DEDUP_CLIENTS)]
    await asyncio.gather(*[service.submit(spec) for spec in specs])
    after = sim_counters()
    digests = {hashlib.sha256(
        spec.args["c_ptr"].buffer.to_numpy().tobytes()).hexdigest()
        for spec in specs}
    misses = after["compile_cache_misses"] - before["compile_cache_misses"]
    return {
        "clients": DEDUP_CLIENTS,
        "pipeline_compiles": misses,
        "singleflight_waits": (after["compile_singleflight_waits"]
                               - before["compile_singleflight_waits"]),
        "compile_cache_hits": (after["compile_cache_hits"]
                               - before["compile_cache_hits"]),
        "dedup_rate": round((DEDUP_CLIENTS - misses) / DEDUP_CLIENTS, 3),
        "distinct_digests": len(digests),
        "batches": after["serve_batches"] - before["serve_batches"],
    }


def _phase_direct(seeds: list[int]) -> dict:
    """The baseline: every request of the mixed load served sequentially.

    One ``build_sweep_specs`` + ``run_many`` per request over the 2-worker
    pool -- the PR-7 sustained-throughput pool pattern, which has no dedup
    layer and therefore runs the duplicates too.
    """
    device = Device(mode="functional", workers=2)
    workload = get_workload("gemm")
    requests = seeds * DUPLICATION

    def one(seed: int) -> str:
        problem = workload.problem_cls(**_problem_params(seed))
        specs = build_sweep_specs(device, workload, problem)
        device.run_many(specs)
        return args_digest(specs)

    one(seeds[0])  # warm compile + plan caches + pool workers
    start = time.perf_counter()
    digests = {}
    for seed in requests:
        digests[seed] = one(seed)
    seconds = time.perf_counter() - start
    return {
        "engine": "direct-pool",
        "requests": len(requests),
        "launches": len(requests),
        "seconds": round(seconds, 4),
        "requests_per_sec": round(len(requests) / seconds, 2),
        "digests": digests,
    }


async def _phase_serve(service: SimService, seeds: list[int]) -> dict:
    """Open-loop 2x-duplicated workload burst through the serve layer."""
    loop = asyncio.get_running_loop()
    latencies: list[float] = []
    digests: dict[int, set] = {seed: set() for seed in seeds}

    async def one_request(seed: int) -> None:
        begin = loop.time()
        reply = await service.submit_workload("gemm", _problem_params(seed))
        latencies.append(loop.time() - begin)
        digests[seed].add(reply["digest"])

    # Warm the serve path end to end, then measure the burst.
    await one_request(seeds[0])
    latencies.clear()
    digests[seeds[0]].clear()
    before = sim_counters()
    start = time.perf_counter()
    await asyncio.gather(*[one_request(seed)
                           for seed in seeds * DUPLICATION])
    seconds = time.perf_counter() - start
    after = sim_counters()
    requests = len(seeds) * DUPLICATION
    latencies.sort()
    return {
        "engine": "serve",
        "requests": requests,
        "launches": (after["serve_batched_launches"]
                     - before["serve_batched_launches"]),
        "seconds": round(seconds, 4),
        "requests_per_sec": round(requests / seconds, 2),
        "latency_p50_ms": round(latencies[len(latencies) // 2] * 1e3, 3),
        "latency_p99_ms": round(
            latencies[min(len(latencies) - 1,
                          int(len(latencies) * 0.99))] * 1e3, 3),
        "coalesced": (after["serve_coalesced_requests"]
                      - before["serve_coalesced_requests"]),
        "coalesce_rate": round(
            (after["serve_coalesced_requests"]
             - before["serve_coalesced_requests"]) / requests, 3),
        "batches": after["serve_batches"] - before["serve_batches"],
        "digests": {seed: sorted(found) for seed, found in digests.items()},
    }


async def _run_serve_phases(options, seeds: list[int]) -> dict:
    policy = ServePolicy(max_batch=8, max_delay=0.002, queue_limit=256)
    async with SimService(Device(mode="functional", workers=2),
                          policy) as service:
        dedup = await _phase_dedup(service, options)
        serve = await _phase_serve(service, seeds)
    return {"dedup": dedup, "serve": serve}


@pytest.mark.skipif(not fork_available(),
                    reason="the worker pool requires fork()")
def test_serve_load(benchmark):
    options = tawa_gemm_options()
    distinct = 30 if full_sweep_requested() else 10
    seeds = list(range(distinct))

    phases = {}

    def run_load():
        phases.clear()
        COUNTERS.reset()
        try:
            phases["direct"] = _phase_direct(seeds)
            phases.update(asyncio.run(_run_serve_phases(options, seeds)))
        finally:
            shutdown_pools()
        return phases

    benchmark.pedantic(run_load, rounds=1, iterations=1)
    dedup = phases["dedup"]
    serve, direct = phases["serve"], phases["direct"]

    print()
    print(f"serve load: {len(seeds)} distinct problems x{DUPLICATION} "
          f"clients ({serve['requests']} requests)")
    print(f"  dedup:  {dedup['clients']} cold clients -> "
          f"{dedup['pipeline_compiles']} compile "
          f"({dedup['singleflight_waits']} singleflight waits, "
          f"rate {dedup['dedup_rate']:.3f})")
    for row in (serve, direct):
        line = (f"  {row['engine']:>11}: {row['requests_per_sec']:>7.2f} "
                f"requests/s ({row['requests']} requests as "
                f"{row['launches']} launches in {row['seconds']:.3f}s")
        if "latency_p50_ms" in row:
            line += (f", p50 {row['latency_p50_ms']:.1f} ms, "
                     f"p99 {row['latency_p99_ms']:.1f} ms, "
                     f"coalesce rate {row['coalesce_rate']:.2f}, "
                     f"{row['batches']} batches")
        print(line + ")")

    emit_json("serve_load", {
        "distinct_problems": len(seeds),
        "duplication": DUPLICATION,
        "phases": {name: {key: value for key, value in row.items()
                          if key != "digests"}
                   for name, row in phases.items()},
        "speedup_serve_vs_direct": round(
            serve["requests_per_sec"] / direct["requests_per_sec"], 3),
    }, benchmark=benchmark)

    # Compile dedup is deterministic: exactly one pipeline execution, every
    # other caller either waited in the singleflight or hit the cache.
    assert dedup["pipeline_compiles"] == 1
    assert dedup["dedup_rate"] >= 7 / 8
    assert dedup["distinct_digests"] == 1
    # The burst micro-batched instead of degenerating to 1:1 dispatch.
    assert dedup["batches"] < dedup["clients"]
    assert serve["batches"] < serve["requests"]
    # Identical concurrent requests coalesced (the open-loop burst admits
    # both clients of a problem before its slot dispatches).
    assert serve["coalesced"] == len(seeds) * (DUPLICATION - 1)
    assert serve["launches"] == len(seeds)
    # Serve replies are bit-identical to the direct pool runs: one digest
    # per problem, equal to the baseline's.
    for seed in seeds:
        assert serve["digests"][seed] == [direct["digests"][seed]]

    if bench_strict():
        # The serve layer's point: under a realistic duplicated load it
        # answers more clients per second than a caller running every
        # request, because coalescing executes each distinct problem once.
        assert serve["requests_per_sec"] >= direct["requests_per_sec"], (
            f"serve ({serve['requests_per_sec']} requests/s) lost to the "
            f"direct pool loop ({direct['requests_per_sec']} requests/s)"
        )
