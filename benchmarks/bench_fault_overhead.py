"""Supervision-overhead benchmark: what fault tolerance costs a clean run.

The pool's supervisor (:class:`repro.gpusim.pool.PoolLaunch`, policy in
:mod:`repro.gpusim.parallel`) adds heartbeat messages, deadline bookkeeping
and per-shard state tracking to every pooled launch.
On a *clean* run -- no faults, no retries -- all of that must be noise:
the acceptance bar is **< 5% throughput overhead** versus the same launch
supervised with the deadline disabled (``shard_timeout=0``, which turns off
heartbeats and deadline arithmetic entirely and is therefore the
pre-supervision baseline shape: dispatch, simulate, one result message,
merge).

Also measured (recorded, never asserted -- it is dominated by the backoff
policy, not by throughput): the wall-clock cost of recovering from one
injected worker kill.

Emits ``fault_overhead`` to ``benchmarks/out/`` with the clean curves, the
overhead ratio and the recovery measurement.  ``REPRO_BENCH_STRICT=0``
downgrades the 5% assertion to record-only (shared CI runners make tight
wall-clock ratios flaky); the bounded 2x sanity bar always applies.
"""

from __future__ import annotations

import hashlib
import time

import pytest

from conftest import bench_strict, emit_json, full_sweep_requested
from repro import faults
from repro.experiments.common import tawa_gemm_options
from repro.gpusim.device import Device
from repro.gpusim.parallel import fork_available
from repro.kernels.gemm import GemmProblem, run_gemm
from repro.perf.counters import COUNTERS

WORKERS = 2
ROUNDS = 3


def _problem(full: bool) -> GemmProblem:
    if full:
        return GemmProblem(M=4096, N=4096, K=256)
    return GemmProblem(M=2048, N=2048, K=256)


def _measure(problem: GemmProblem, device: Device, rounds: int = ROUNDS) -> dict:
    """Best-of-N timing of one pooled launch (the usual benchmark hygiene:
    the minimum is the least-noise estimate of the true cost)."""
    run_gemm(device, problem, tawa_gemm_options())  # warm compile + plan caches
    best, result, output = None, None, None
    for _ in range(rounds):
        start = time.perf_counter()
        result, output = run_gemm(device, problem, tawa_gemm_options())
        seconds = time.perf_counter() - start
        best = seconds if best is None else min(best, seconds)
    return {
        "workers": device.workers,
        "shard_timeout": device.shard_timeout,
        "ctas": result.total_ctas,
        "seconds": round(best, 4),
        "ctas_per_sec": round(result.total_ctas / best, 1),
        "cycles": result.cycles,
        "output_digest": hashlib.sha256(output.tobytes()).hexdigest(),
    }


@pytest.mark.skipif(not fork_available(), reason="the worker pool requires fork()")
def test_fault_supervision_overhead(benchmark):
    problem = _problem(full_sweep_requested())

    rows = {}

    def run_curves():
        rows.clear()
        # Baseline: supervision structurally disabled -- no heartbeats, no
        # deadlines -- i.e. the pre-supervision pooled hot path.
        rows["baseline"] = _measure(
            problem, Device(mode="functional", workers=WORKERS, shard_timeout=0))
        # Supervised: the default production policy.
        rows["supervised"] = _measure(
            problem, Device(mode="functional", workers=WORKERS))
        return rows

    benchmark.pedantic(run_curves, rounds=1, iterations=1)

    baseline, supervised = rows["baseline"], rows["supervised"]
    overhead_pct = (supervised["seconds"] / baseline["seconds"] - 1.0) * 100.0

    # Recovery cost: one injected worker kill, recovered by one respawn.
    with faults.inject_faults("kill:worker=1,cta=0"):
        start = time.perf_counter()
        result, output = run_gemm(
            Device(mode="functional", workers=WORKERS), problem,
            tawa_gemm_options())
        recovery_seconds = time.perf_counter() - start
    assert COUNTERS.shard_retries >= 1
    recovery = {
        "seconds": round(recovery_seconds, 4),
        "shard_retries": COUNTERS.shard_retries,
        "output_digest": hashlib.sha256(output.tobytes()).hexdigest(),
    }

    print()
    print(f"fault-supervision overhead: problem={problem} workers={WORKERS}")
    print(f"  baseline (timeout=0):  {baseline['ctas_per_sec']:>8.1f} CTAs/s "
          f"({baseline['seconds']:.3f}s)")
    print(f"  supervised (default):  {supervised['ctas_per_sec']:>8.1f} CTAs/s "
          f"({supervised['seconds']:.3f}s, {overhead_pct:+.1f}%)")
    print(f"  kill-recovery run:     {recovery['seconds']:.3f}s "
          f"({recovery['shard_retries']} retries)")

    emit_json("fault_overhead", {
        "problem": repr(problem),
        "grid": problem.grid,
        "workers": WORKERS,
        "baseline": baseline,
        "supervised": supervised,
        "overhead_pct": round(overhead_pct, 2),
        "recovery": recovery,
        "counters": COUNTERS.snapshot(),
    }, benchmark=benchmark)

    # Supervision must never change what is computed.
    assert supervised["cycles"] == baseline["cycles"]
    assert supervised["output_digest"] == baseline["output_digest"]
    assert result.cycles == baseline["cycles"]
    assert recovery["output_digest"] == baseline["output_digest"]

    if bench_strict():
        assert overhead_pct < 5.0, (
            f"clean-run supervision overhead {overhead_pct:.1f}% exceeds the "
            f"5% budget (baseline {baseline['seconds']}s vs supervised "
            f"{supervised['seconds']}s)"
        )
    # Even on noisy shared runners supervision may never cost 2x.
    assert supervised["seconds"] < 2.0 * baseline["seconds"], (
        f"supervised pooled run took {supervised['seconds']}s vs baseline "
        f"{baseline['seconds']}s"
    )
