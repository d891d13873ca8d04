"""Static-analysis overhead benchmark: what linting costs next to compiling.

The analyses (:mod:`repro.analysis`: channel protocol, bounds intervals,
resource budgets) are pitched as cheap enough to leave on -- the channel
graph is walked once, the interval evaluator is demand-driven, and the
``tawa-gpu`` pipeline hands the analyzers its mid-level snapshot so nothing
is re-compiled.  The acceptance bar is **analysis < 20% of cold compile
time**, measured over every registered workload's kernels on their check
problems (the exact population ``python -m repro.analysis lint`` covers).

Also measured: the warm path (memory-tier hit per kernel), which must be
orders of magnitude below the cold analysis itself.

Emits ``analysis_overhead`` to ``benchmarks/out/`` with the per-kernel
timings and the ratio.  ``REPRO_BENCH_STRICT=0`` downgrades the 20%
assertion to record-only (shared CI runners make tight wall-clock ratios
flaky); a bounded 1x sanity bar -- analysis may never cost more than the
compiles it annotates -- always applies.
"""

from __future__ import annotations

import time

from conftest import bench_strict, emit_json
from repro.analysis import get_analysis
from repro.gpusim.device import Device, clear_compile_cache
from repro.perf.counters import COUNTERS
from repro.workloads import registry

OVERHEAD_BUDGET_PCT = 20.0


def _compile_all(device: Device) -> list:
    """Cold-compile every registered workload's kernels (lint's population)."""
    compiled_all = []
    for name in registry.list_workloads():
        workload = registry.get(name)
        problem = workload.check_problem()
        options = workload.default_options()
        seen = set()
        for spec in workload.make_specs(device, problem, options):
            compiled = device.compile(spec.kernel, spec.args, spec.constexprs,
                                      spec.options)
            if compiled.fingerprint in seen:
                continue
            seen.add(compiled.fingerprint)
            compiled_all.append((name, compiled))
    return compiled_all


def test_analysis_overhead(benchmark):
    measured = {}

    def run_once():
        clear_compile_cache()
        start = time.perf_counter()
        compiled_all = _compile_all(Device(mode="functional", engine="interp"))
        compile_seconds = time.perf_counter() - start

        device = Device(mode="functional", engine="interp")
        per_kernel = []
        start = time.perf_counter()
        for name, compiled in compiled_all:
            k0 = time.perf_counter()
            result = get_analysis(compiled, device.config)
            per_kernel.append({
                "workload": name,
                "kernel": result.kernel_name,
                "seconds": round(time.perf_counter() - k0, 6),
                "errors": result.num_errors,
                "warnings": result.num_warnings,
            })
        analysis_seconds = time.perf_counter() - start

        start = time.perf_counter()
        for _, compiled in compiled_all:
            get_analysis(compiled, device.config)
        warm_seconds = time.perf_counter() - start

        measured.update(
            kernels=len(compiled_all),
            compile_seconds=compile_seconds,
            analysis_seconds=analysis_seconds,
            warm_seconds=warm_seconds,
            per_kernel=per_kernel,
        )
        return measured

    benchmark.pedantic(run_once, rounds=1, iterations=1)

    ratio_pct = measured["analysis_seconds"] / measured["compile_seconds"] * 100.0
    print()
    print(f"static-analysis overhead over {measured['kernels']} kernels:")
    print(f"  cold compile:  {measured['compile_seconds'] * 1e3:8.1f} ms")
    print(f"  cold analysis: {measured['analysis_seconds'] * 1e3:8.1f} ms "
          f"({ratio_pct:.1f}% of compile)")
    print(f"  warm analysis: {measured['warm_seconds'] * 1e3:8.1f} ms "
          f"(memory tier)")

    emit_json("analysis_overhead", {
        "kernels": measured["kernels"],
        "compile_seconds": round(measured["compile_seconds"], 4),
        "analysis_seconds": round(measured["analysis_seconds"], 4),
        "warm_seconds": round(measured["warm_seconds"], 6),
        "overhead_pct": round(ratio_pct, 2),
        "budget_pct": OVERHEAD_BUDGET_PCT,
        "per_kernel": measured["per_kernel"],
        "counters": {k: v for k, v in COUNTERS.snapshot().items()
                     if k.startswith("analysis_")},
    }, benchmark=benchmark)

    assert measured["kernels"] >= 8
    assert COUNTERS.analysis_memory_hits >= measured["kernels"]

    if bench_strict():
        assert ratio_pct < OVERHEAD_BUDGET_PCT, (
            f"static analysis cost {ratio_pct:.1f}% of cold compile time, "
            f"budget is {OVERHEAD_BUDGET_PCT:.0f}% "
            f"(compile {measured['compile_seconds']:.3f}s vs analysis "
            f"{measured['analysis_seconds']:.3f}s)"
        )
    # Even on noisy shared runners the analyzers may never out-cost the
    # compiles they annotate.
    assert measured["analysis_seconds"] < measured["compile_seconds"]
