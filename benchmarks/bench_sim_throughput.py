"""Simulator throughput benchmark: simulated CTAs per second.

The figure benchmarks track *what* the simulator computes; this one tracks how
*fast* it computes it, so regressions in the simulator's own hot path show up
in the BENCH trajectory directly.  It measures GEMM and attention in both
device modes (functional and performance) through three execution engines:
the IR-interpreter oracle, the compile-once plan path, and the vectorized
codegen path (:mod:`repro.gpusim.codegen`), reporting simulated CTAs/sec plus
the plan-vs-interpreter and codegen-vs-plan speedups.  Results are printed and
emitted as JSON via ``conftest.emit_json``.

The interpreter/plan series run the paper's warp-specialized configurations.
Warp-specialized kernels are multi-region and not vectorizable, so the codegen
series runs a single-region configuration of the same kernel (pipelined
triton-baseline GEMM, non-causal ``tt``-lowered attention) and compares
codegen against plans on *that* configuration -- an apples-to-apples CTA
batch.  The GEMM functional case is the regression gate: codegen must clear
``1.5x`` plans unless ``REPRO_BENCH_STRICT=0`` waives it (shared runners).

A record-only series times warm launches of the serve mix's 2-CTA GEMM
(128x512x128 with the paper's 128x256x64 tile) on the serial plans engine.
Each CTA's WGMMA there is one tile-sized BLAS call, so the series notices a
BLAS library that runs those calls multi-threaded (~100x slower per tile
matmul on a 2-CPU host); the JSON records the library and its thread count.
"""

from __future__ import annotations

import os
import statistics
import time

import pytest

from conftest import emit_json, full_sweep_requested
from repro.core.options import CompileOptions, TRITON_BASELINE_OPTIONS
from repro.experiments.common import tawa_attention_options, tawa_gemm_options
from repro.gpusim.blas import blas_info
from repro.gpusim.device import Device
from repro.kernels.attention import AttentionProblem, run_attention
from repro.kernels.gemm import GemmProblem, make_gemm_inputs, matmul_kernel, run_gemm
from repro.perf.counters import COUNTERS

CODEGEN_GEMM_GATE = 1.5  # codegen-vs-plan floor on gemm-functional
SMALL_GEMM = GemmProblem(M=128, N=512, K=128, block_m=128, block_n=256,
                         block_k=64)
SMALL_GEMM_LAUNCHES = 25  # warm launches behind the median


def _gemm_case(full: bool):
    if full:
        problem = GemmProblem(M=2048, N=2048, K=512)
    else:
        problem = GemmProblem(M=1024, N=1024, K=256)
    return problem, tawa_gemm_options(), run_gemm


def _gemm_perf_case():
    return (GemmProblem(M=8192, N=8192, K=4096), tawa_gemm_options(), run_gemm)


def _attention_case(full: bool):
    seq = 512 if full else 256
    problem = AttentionProblem(batch=1, heads=2, seq_len=seq, head_dim=64,
                               block_m=64, block_n=64, causal=True)
    return problem, tawa_attention_options(), run_attention


def _attention_perf_case():
    problem = AttentionProblem(batch=8, heads=16, seq_len=4096, head_dim=64,
                               block_m=64, block_n=64, causal=True)
    return problem, tawa_attention_options(), run_attention


def _codegen_case(case: str, full: bool):
    """A single-region (vectorizable) configuration of the case's kernel."""
    if case == "gemm-functional":
        mn = 2048 if full else 1024
        problem = GemmProblem(M=mn, N=mn, K=256, block_m=64, block_n=64,
                              block_k=32)
        return problem, TRITON_BASELINE_OPTIONS, run_gemm
    if case == "gemm-performance":
        return (GemmProblem(M=8192, N=8192, K=4096), TRITON_BASELINE_OPTIONS,
                run_gemm)
    if case == "attention-functional":
        seq = 1024 if full else 512
        problem = AttentionProblem(batch=1, heads=4, seq_len=seq, head_dim=64,
                                   block_m=64, block_n=64, causal=False)
        return problem, CompileOptions(lower_to="tt"), run_attention
    problem = AttentionProblem(batch=8, heads=16, seq_len=4096, head_dim=64,
                               block_m=64, block_n=64, causal=False)
    return problem, CompileOptions(lower_to="tt"), run_attention


def _device_for(engine: str, mode: str) -> Device:
    if engine == "interpreter":
        return Device(mode=mode, use_plans=False, max_ctas_per_sm_simulated=8)
    if engine == "plan":
        return Device(mode=mode, use_plans=True, max_ctas_per_sm_simulated=8)
    return Device(mode=mode, use_plans=True, codegen=True,
                  max_ctas_per_sm_simulated=8)


def _measure(engine: str, mode: str, problem, options: CompileOptions, runner,
             repeats: int = 3) -> dict:
    device = _device_for(engine, mode)
    runner(device, problem, options)  # warm compile + plan/codegen caches
    best = float("inf")
    result = None
    events_before = COUNTERS.engine_events
    batched_before = COUNTERS.codegen_ctas_batched
    for _ in range(repeats):
        start = time.perf_counter()
        result, _ = runner(device, problem, options)
        best = min(best, time.perf_counter() - start)
    ctas = result.simulated_ctas
    events = (COUNTERS.engine_events - events_before) // repeats
    batched = (COUNTERS.codegen_ctas_batched - batched_before) // repeats
    return {
        "engine": engine,
        "mode": mode,
        "simulated_ctas": ctas,
        "seconds": round(best, 6),
        "ctas_per_sec": round(ctas / best, 1),
        "ms_per_cta": round(best / ctas * 1e3, 4),
        "engine_events": events,
        "ctas_batched": batched,
    }


CASES = ["gemm-functional", "gemm-performance",
         "attention-functional", "attention-performance"]


@pytest.mark.parametrize("case", CASES)
def test_sim_throughput(benchmark, case):
    full = full_sweep_requested()
    if case == "gemm-functional":
        problem, options, runner = _gemm_case(full)
        mode = "functional"
    elif case == "gemm-performance":
        problem, options, runner = _gemm_perf_case()
        mode = "performance"
    elif case == "attention-functional":
        problem, options, runner = _attention_case(full)
        mode = "functional"
    else:
        problem, options, runner = _attention_perf_case()
        mode = "performance"
    cg_problem, cg_options, cg_runner = _codegen_case(case, full)

    rows = []
    cg_rows = []

    def run_all():
        rows.clear()
        cg_rows.clear()
        for engine in ("interpreter", "plan"):
            rows.append(_measure(engine, mode, problem, options, runner))
        for engine in ("plan", "codegen"):
            cg_rows.append(_measure(engine, mode, cg_problem, cg_options,
                                    cg_runner))
        return rows + cg_rows

    benchmark.pedantic(run_all, rounds=1, iterations=1)

    interp, plan = rows
    cg_plan, codegen = cg_rows
    plan_speedup = interp["ms_per_cta"] / plan["ms_per_cta"]
    codegen_speedup = cg_plan["ms_per_cta"] / codegen["ms_per_cta"]
    print()
    print(f"{case}: problem={problem}")
    for row in rows:
        print(f"  {row['engine']:>11}: {row['ctas_per_sec']:>8.1f} CTAs/s "
              f"({row['ms_per_cta']:.3f} ms/CTA, {row['simulated_ctas']} CTAs, "
              f"{row['engine_events']} events)")
    print(f"  plan speedup: {plan_speedup:.2f}x")
    print(f"{case} [single-region]: problem={cg_problem}")
    for row in cg_rows:
        print(f"  {row['engine']:>11}: {row['ctas_per_sec']:>8.1f} CTAs/s "
              f"({row['ms_per_cta']:.3f} ms/CTA, {row['simulated_ctas']} CTAs, "
              f"{row['ctas_batched']} batched)")
    print(f"  codegen speedup: {codegen_speedup:.2f}x")
    emit_json(f"sim_throughput_{case}", {
        "case": case,
        "problem": repr(problem),
        "engines": rows,
        "plan_speedup": round(plan_speedup, 3),
        "codegen_problem": repr(cg_problem),
        "codegen_engines": cg_rows,
        "codegen_speedup": round(codegen_speedup, 3),
        "counters": COUNTERS.snapshot(),
    }, benchmark=benchmark)
    # Wall-clock comparisons are noisy on shared runners, so the regression
    # gate is the deterministic event count: plan-compiled streams batch
    # delays (DelayChain), so they must never process more engine events than
    # the interpreter does for the same launch.
    assert plan["engine_events"] <= interp["engine_events"]
    # The codegen series must actually vectorize (no silent fallback) ...
    assert codegen["ctas_batched"] >= codegen["simulated_ctas"]
    # ... and on the GEMM functional gate it must beat plans outright.
    strict = os.environ.get("REPRO_BENCH_STRICT", "1") not in ("0", "false")
    if case == "gemm-functional" and strict:
        assert codegen_speedup >= CODEGEN_GEMM_GATE, (
            f"codegen {codegen_speedup:.2f}x < {CODEGEN_GEMM_GATE}x over "
            f"plans (set REPRO_BENCH_STRICT=0 to waive on noisy runners)")


def test_small_gemm_warm_launch_latency(benchmark):
    """Median warm launch latency of the serve mix's 2-CTA GEMM (record-only)."""
    device = _device_for("plan", "functional")
    options = tawa_gemm_options()
    args, _, _ = make_gemm_inputs(SMALL_GEMM, device)

    def launch():
        return device.run(matmul_kernel, grid=SMALL_GEMM.grid, args=args,
                          constexprs=SMALL_GEMM.constexprs(), options=options,
                          flops=SMALL_GEMM.flops)

    launch()  # warm compile + plan caches
    latencies = []

    def run_all():
        latencies.clear()
        for _ in range(SMALL_GEMM_LAUNCHES):
            start = time.perf_counter()
            launch()
            latencies.append(time.perf_counter() - start)

    benchmark.pedantic(run_all, rounds=1, iterations=1)
    median_ms = statistics.median(latencies) * 1e3
    print(f"\nsmall gemm {SMALL_GEMM}: median warm launch {median_ms:.2f} ms "
          f"over {len(latencies)} launches, BLAS {blas_info()}")
    emit_json("sim_throughput_small_gemm_warm_latency", {
        "problem": repr(SMALL_GEMM),
        "engine": "plan",
        "launches": len(latencies),
        "median_ms": round(median_ms, 4),
        "latencies_ms": [round(t * 1e3, 4) for t in latencies],
        "blas": blas_info(),
    }, benchmark=benchmark)
