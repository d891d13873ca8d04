"""Persistent compile-cache benchmark: cold- vs. warm-process compile time.

The artifact layer's cross-process promise is that a warm process (one that
finds artifacts in ``REPRO_CACHE_DIR``) skips the entire pass pipeline.  This
benchmark measures exactly that: it runs the same compile workload -- the
paper's GEMM compiled for the Tawa and Triton-baseline pipelines -- in fresh
subprocesses against an empty and then a populated cache directory, and
records the cold/warm wall times plus the counter evidence (pass executions,
disk hits) as JSON in ``benchmarks/out/``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

from conftest import emit_json

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC_DIR = REPO_ROOT / "src"

WORKLOAD = '''
import json, sys
sys.path.insert(0, {src!r})
from repro.core.options import CompileOptions, TRITON_BASELINE_OPTIONS
from repro.core.service import get_compiler_service
from repro.ir.types import PointerType, TensorDescType, f16, i32
from repro.kernels.gemm import matmul_kernel
from repro.perf.counters import sim_counters

types = {{"a_desc": TensorDescType(f16), "b_desc": TensorDescType(f16),
          "c_ptr": PointerType(f16), "M": i32, "N": i32, "K": i32}}
consts = {{"stride_cm": 8192, "stride_cn": 1, "Mt": 128, "Nt": 256, "Kt": 64}}
service = get_compiler_service()
for options in (CompileOptions(num_consumer_groups=2, aref_depth=3),
                CompileOptions(persistent=True, num_consumer_groups=2,
                               aref_depth=3),
                TRITON_BASELINE_OPTIONS):
    service.compile(matmul_kernel, types, consts, options,
                    plan_modes=(False,))
c = sim_counters()
print(json.dumps({{"passes_run": c["compile_passes_run"],
                   "compile_seconds": c["compile_seconds"],
                   "disk_hits": c["compile_disk_hits"],
                   "disk_writes": c["compile_disk_writes"]}}))
'''


def _compile_in_fresh_process(tmp_path: Path, cache_dir: Path) -> dict:
    script = tmp_path / "compile_workload.py"
    script.write_text(WORKLOAD.format(src=str(SRC_DIR)))
    env = dict(os.environ, REPRO_CACHE_DIR=str(cache_dir))
    env.pop("REPRO_SIM_WORKERS", None)
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, str(script)], capture_output=True,
                          text=True, env=env, timeout=300)
    wall = time.perf_counter() - start
    assert proc.returncode == 0, proc.stderr
    stats = json.loads(proc.stdout.strip().splitlines()[-1])
    stats["wall_seconds"] = wall
    return stats


def test_cold_vs_warm_process_compile(tmp_path):
    cache_dir = tmp_path / "artifact-cache"

    cold = _compile_in_fresh_process(tmp_path, cache_dir)
    assert cold["passes_run"] > 0 and cold["disk_writes"] >= 3

    warm = _compile_in_fresh_process(tmp_path, cache_dir)
    # The warm process must not execute a single pass: every artifact is
    # served from the persistent tier.
    assert warm["passes_run"] == 0
    assert warm["disk_hits"] >= 3

    # Wall time includes interpreter startup; the in-process compile seconds
    # is the honest pipeline-cost number (identically zero when warm).
    payload = {
        "cold": cold,
        "warm": warm,
        "pipeline_seconds_saved": cold["compile_seconds"],
        "wall_speedup": cold["wall_seconds"] / max(warm["wall_seconds"], 1e-9),
    }
    emit_json("bench_compile_cache_cold_vs_warm", payload)
    print(f"\ncold process: {cold['wall_seconds'] * 1e3:.0f} ms wall, "
          f"{cold['compile_seconds'] * 1e3:.1f} ms in passes + verification "
          f"({cold['passes_run']} passes)")
    print(f"warm process: {warm['wall_seconds'] * 1e3:.0f} ms wall, "
          f"0 passes, {warm['disk_hits']} disk hits")


def test_fingerprint_memoization():
    """Warm ``Kernel.source_fingerprint`` accesses skip the full re-hash.

    Every cache lookup in a launch loop re-keys the artifact by the kernel's
    source fingerprint, which used to re-hash source + live globals on each
    access.  The memoized path only re-takes a cheap bindings snapshot; this
    records the per-access cost of both paths and the speedup.
    """
    import time

    from repro.kernels.gemm import matmul_kernel

    accesses = 2000
    assert matmul_kernel.source_fingerprint  # prime the memo

    recomputes_before = matmul_kernel.fingerprint_recomputes
    start = time.perf_counter()
    for _ in range(accesses):
        _ = matmul_kernel.source_fingerprint
    warm_seconds = time.perf_counter() - start
    # The memo must actually have served the warm loop: zero recomputes.
    assert matmul_kernel.fingerprint_recomputes == recomputes_before

    start = time.perf_counter()
    for _ in range(accesses):
        # Dropping the memo forces the historical full-hash path.
        matmul_kernel._fingerprint_value = None
        _ = matmul_kernel.source_fingerprint
    cold_seconds = time.perf_counter() - start

    speedup = cold_seconds / max(warm_seconds, 1e-12)
    payload = {
        "accesses": accesses,
        "warm_us_per_access": round(warm_seconds / accesses * 1e6, 3),
        "cold_us_per_access": round(cold_seconds / accesses * 1e6, 3),
        "memoized_speedup": round(speedup, 2),
    }
    emit_json("bench_fingerprint_memoization", payload)
    print(f"\nfingerprint access: warm {payload['warm_us_per_access']} us, "
          f"full re-hash {payload['cold_us_per_access']} us "
          f"({payload['memoized_speedup']}x)")
    assert speedup > 1.0
