"""Parallel-scaling benchmark: simulated CTAs per second vs. worker count.

Runs the functional GEMM benchmark through the persistent worker pool
(``Device(workers=N)``, :mod:`repro.gpusim.pool`) at increasing worker
counts and records the throughput curve.  Two properties are tracked:

* **Correctness while scaling** -- every worker count must produce exactly
  the serial result (cycles and outputs); this is asserted here on top of
  the dedicated differential tests, because it is the property that makes
  the throughput numbers meaningful.
* **Throughput** -- CTAs/s per worker count, printed and emitted as JSON so
  the BENCH trajectory records the scaling curve.  The ``>= 2x at 4
  workers`` expectation is asserted only when the machine actually has >= 4
  CPUs available to the process; on smaller machines (e.g. single-core CI
  containers, where any multi-process run can only lose to dispatch/IPC
  overhead) the curve is still recorded, and the overhead is asserted to be
  bounded instead.

``REPRO_FULL=1`` sweeps a larger grid and worker counts up to 8.
``REPRO_BENCH_STRICT=0`` downgrades the 2x threshold to record-only (used
by CI, where shared runners make wall-clock thresholds flaky).
"""

from __future__ import annotations

import hashlib
import os
import time

import pytest

from conftest import bench_strict, emit_json, full_sweep_requested
from repro.experiments.common import tawa_gemm_options
from repro.gpusim.device import Device
from repro.gpusim.parallel import fork_available
from repro.kernels.gemm import GemmProblem, run_gemm
from repro.perf.counters import COUNTERS


def _cpus_available() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-linux
        return os.cpu_count() or 1


def _scaling_case(full: bool):
    if full:
        problem = GemmProblem(M=4096, N=4096, K=256)
        workers = [1, 2, 4, 8]
    else:
        problem = GemmProblem(M=2048, N=2048, K=256)
        workers = [1, 2, 4]
    return problem, workers


def _measure(problem: GemmProblem, workers: int) -> dict:
    device = Device(mode="functional", workers=workers)
    run_gemm(device, problem, tawa_gemm_options())  # warm compile + plan caches
    start = time.perf_counter()
    result, output = run_gemm(device, problem, tawa_gemm_options())
    seconds = time.perf_counter() - start
    return {
        "workers": workers,
        "ctas": result.total_ctas,
        "seconds": round(seconds, 4),
        "ctas_per_sec": round(result.total_ctas / seconds, 1),
        "cycles": result.cycles,
        "output_digest": hashlib.sha256(output.tobytes()).hexdigest(),
    }


@pytest.mark.skipif(not fork_available(), reason="the worker pool requires fork()")
def test_parallel_scaling(benchmark):
    full = full_sweep_requested()
    problem, worker_counts = _scaling_case(full)
    cpus = _cpus_available()

    rows = []

    def run_curve():
        rows.clear()
        rows.extend(_measure(problem, w) for w in worker_counts)
        return rows

    benchmark.pedantic(run_curve, rounds=1, iterations=1)

    serial = rows[0]
    print()
    print(f"parallel scaling: problem={problem} grid={problem.grid} cpus={cpus}")
    for row in rows:
        speedup = row["ctas_per_sec"] / serial["ctas_per_sec"]
        print(f"  workers={row['workers']}: {row['ctas_per_sec']:>8.1f} CTAs/s "
              f"({row['seconds']:.3f}s, {speedup:.2f}x vs serial)")

    emit_json("parallel_scaling_gemm_functional", {
        "problem": repr(problem),
        "grid": problem.grid,
        "cpus_available": cpus,
        "curve": rows,
        "counters": COUNTERS.snapshot(),
    }, benchmark=benchmark)

    # Sharding must never change what is computed, at any worker count.
    for row in rows[1:]:
        assert row["cycles"] == serial["cycles"]
        assert row["output_digest"] == serial["output_digest"]

    by_workers = {row["workers"]: row for row in rows}
    if bench_strict() and cpus >= 4 and 4 in by_workers:
        # On real multi-core hardware 4-way sharding must at least halve the
        # wall-clock of the embarrassingly parallel grid.
        assert by_workers[4]["ctas_per_sec"] >= 2.0 * serial["ctas_per_sec"], (
            f"4-worker sharding reached only "
            f"{by_workers[4]['ctas_per_sec'] / serial['ctas_per_sec']:.2f}x "
            f"on a {cpus}-CPU machine"
        )
    else:
        # Without spare cores there is nothing to win, but dispatch + IPC +
        # merge overhead must stay bounded: sharding may not cost more than 2x.
        for row in rows[1:]:
            assert row["ctas_per_sec"] >= 0.5 * serial["ctas_per_sec"], (
                f"sharding overhead too high at workers={row['workers']}: "
                f"{row['ctas_per_sec']} vs serial {serial['ctas_per_sec']}"
            )
