"""Sustained launch-stream throughput: serial execution vs. persistent pool.

A sustained stream of identical small launches is the serving-style pattern
the worker pool (:mod:`repro.gpusim.pool`) exists for: every launch pays a
dispatch, two arena copies and a merge, so the pool only earns its keep if
its parallel CTA execution outruns that overhead.  This benchmark runs the
same launch stream, in one process, through both engines and records
launches/s:

* **serial** -- ``Device(workers=1)``, every CTA in the calling process;
* **pool** -- ``Device(workers=2)``, persistent workers dispatching from
  their fork-inherited warm compile/plan caches through the reusable shared
  arena.

Correctness is asserted alongside (both engines must produce bit-identical
output digests per launch); the throughput expectation -- the pool must at
least match serial execution on a sustained stream -- is enforced unless
``REPRO_BENCH_STRICT=0`` (used by CI, where shared runners make
wall-clock thresholds flaky; the curve is still recorded as JSON).

``REPRO_FULL=1`` lengthens the stream.
"""

from __future__ import annotations

import hashlib
import time

import pytest

from conftest import bench_strict, emit_json, full_sweep_requested
from repro.experiments.common import tawa_gemm_options
from repro.gpusim.device import Device
from repro.gpusim.parallel import fork_available
from repro.gpusim.pool import shutdown_pools
from repro.kernels.gemm import GemmProblem, run_gemm
from repro.perf.counters import COUNTERS, sim_counters


def _stream_case(full: bool):
    problem = GemmProblem(M=256, N=256, K=128, block_m=64, block_n=64,
                          block_k=32)
    return problem, (60 if full else 20)


def _measure(engine: str, problem: GemmProblem, launches: int) -> dict:
    device = Device(mode="functional", workers=2 if engine == "pool" else 1)
    options = tawa_gemm_options()
    run_gemm(device, problem, options)  # warm compile + plan caches
    COUNTERS.reset()
    start = time.perf_counter()
    digest = None
    for _ in range(launches):
        _, output = run_gemm(device, problem, options)
        launch_digest = hashlib.sha256(output.tobytes()).hexdigest()
        assert digest is None or digest == launch_digest
        digest = launch_digest
    seconds = time.perf_counter() - start
    counters = sim_counters()
    return {
        "engine": engine,
        "launches": launches,
        "ctas_per_launch": problem.grid,
        "seconds": round(seconds, 4),
        "launches_per_sec": round(launches / seconds, 2),
        "output_digest": digest,
        "pool_workers_spawned": counters["pool_workers_spawned"],
        "pool_launches": counters["pool_launches"],
        "pool_fallback_launches": counters["pool_fallback_launches"],
    }


@pytest.mark.skipif(not fork_available(),
                    reason="parallel execution requires fork()")
def test_sustained_throughput(benchmark):
    problem, launches = _stream_case(full_sweep_requested())

    rows = []

    def run_stream():
        rows.clear()
        try:
            rows.extend(_measure(engine, problem, launches)
                        for engine in ("serial", "pool"))
        finally:
            shutdown_pools()
        return rows

    benchmark.pedantic(run_stream, rounds=1, iterations=1)

    serial_row, pool_row = rows
    print()
    print(f"sustained throughput: problem={problem} grid={problem.grid} "
          f"stream={launches} launches")
    for row in rows:
        print(f"  {row['engine']:>6}: {row['launches_per_sec']:>7.2f} "
              f"launches/s ({row['seconds']:.3f}s, "
              f"pool_spawned={row['pool_workers_spawned']})")

    emit_json("sustained_throughput_serial_vs_pool", {
        "problem": repr(problem),
        "grid": problem.grid,
        "stream_launches": launches,
        "rows": rows,
        "speedup_pool_vs_serial": round(
            pool_row["launches_per_sec"] / serial_row["launches_per_sec"], 3),
    }, benchmark=benchmark)

    # Both engines must compute exactly the same thing...
    assert pool_row["output_digest"] == serial_row["output_digest"]
    # ...and the pool must actually be the engine that ran: warm dispatch,
    # no per-launch forks, no fallbacks -- while serial never touched it.
    assert pool_row["pool_launches"] == launches
    assert pool_row["pool_fallback_launches"] == 0
    assert pool_row["pool_workers_spawned"] == 0  # warmed before the stream
    assert serial_row["pool_launches"] == 0

    if bench_strict():
        # The pool's whole point: a sustained stream of identical launches
        # must not be slower than running every CTA in the caller.
        assert pool_row["launches_per_sec"] >= serial_row["launches_per_sec"], (
            f"pool ({pool_row['launches_per_sec']} launches/s) lost to "
            f"serial execution ({serial_row['launches_per_sec']} launches/s)"
        )
