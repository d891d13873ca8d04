"""The vectorized codegen engine: emitter, cache tiers, selection matrix.

The differential guarantees (codegen bit-identical to the interpreter and to
plans across kernel families and the fig8--12 sweeps) live in
``test_fuzz_differential.py`` and ``test_plan_differential.py``; this module
covers the machinery around them:

* the plan-to-source emitter's artifacts (source shape, load/store root
  analysis, the non-vectorizable fallback reasons, payload round-trips);
* the two-tier codegen artifact cache -- including the headline cold-start
  guarantee: a **second process** re-running a codegen sweep with
  ``REPRO_CACHE_DIR`` set performs *zero* emissions (``codegen_emitted``
  stays 0, disk-hit counters prove the reuse) with bit-identical results;
* the engine-selection matrix: one table maps every ``engine=`` /
  ``REPRO_SIM_ENGINE`` value x {serial, ``workers=2``, ``collect_trace``} to
  the executor it selects or the :class:`SimulationError` an explicit
  ``engine=`` raises at construction time; runtime hazards (read/write
  aliasing) fall back per launch.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core.options import (
    CompileOptions,
    NAIVE_OPTIONS,
    TRITON_BASELINE_OPTIONS,
)
from repro.frontend import kernel, tl
from repro.gpusim.codegen import CodegenArtifact, emit_artifact, get_codegen
from repro.gpusim.config import DEFAULT_CONFIG
from repro.gpusim.device import Device
from repro.gpusim.engine import SimulationError
from repro.gpusim.executors import (
    CodegenExecutor,
    PooledExecutor,
    SerialExecutor,
)
from repro.kernels.gemm import GemmProblem, run_gemm
from repro.perf.counters import COUNTERS

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC_DIR = REPO_ROOT / "src"

WS_OPTIONS = CompileOptions(enable_warp_specialization=True, aref_depth=2,
                            mma_pipeline_depth=2, num_consumer_groups=2)

SMALL_GEMM = GemmProblem(M=96, N=64, K=64, block_m=32, block_n=32, block_k=32,
                         seed=11)


def _compiled_gemm(options, problem=SMALL_GEMM, device=None):
    from repro.kernels.gemm import make_gemm_inputs, matmul_kernel

    device = device or Device()
    args, _, _ = make_gemm_inputs(problem, device)
    return device.compile(matmul_kernel, args, problem.constexprs(), options)


# ---------------------------------------------------------------------------
# The emitter and its artifacts
# ---------------------------------------------------------------------------


class TestEmitter:
    def test_single_region_gemm_is_vectorizable(self):
        artifact = emit_artifact(_compiled_gemm(NAIVE_OPTIONS))
        assert artifact.vectorizable and artifact.reason is None
        assert "def cta_batch(" in artifact.source
        # a_desc/b_desc are read, c_ptr is written: the executor's aliasing
        # hazard check is built on these indices.
        assert artifact.load_roots == (0, 1)
        assert artifact.store_roots == (2,)

    def test_pipelined_gemm_is_vectorizable(self):
        artifact = emit_artifact(_compiled_gemm(TRITON_BASELINE_OPTIONS))
        assert artifact.vectorizable
        # The smem ring of the software-pipelined lowering becomes a batched
        # ndarray ring, not a fallback.
        assert "np.zeros((B,)" in artifact.source

    def test_warp_specialized_gemm_is_not(self):
        artifact = emit_artifact(_compiled_gemm(WS_OPTIONS))
        assert not artifact.vectorizable
        assert "warp-specialized" in artifact.reason
        with pytest.raises(SimulationError):
            artifact.callable()

    def test_payload_round_trip_is_executable(self):
        artifact = emit_artifact(_compiled_gemm(NAIVE_OPTIONS))
        clone = CodegenArtifact.from_payload(
            json.loads(json.dumps(artifact.payload())))
        assert clone.source == artifact.source
        assert tuple(clone.load_roots) == artifact.load_roots
        assert clone.callable() is clone.callable()  # exec'd once, memoized

    def test_get_codegen_memoizes_on_the_artifact(self):
        compiled = _compiled_gemm(NAIVE_OPTIONS)
        compiled.codegens = {}
        emitted = COUNTERS.codegen_emitted
        hits = COUNTERS.codegen_memory_hits
        first = get_codegen(compiled, DEFAULT_CONFIG, True)
        second = get_codegen(compiled, DEFAULT_CONFIG, True)
        assert first is second
        assert COUNTERS.codegen_emitted == emitted + 1
        assert COUNTERS.codegen_memory_hits == hits + 1


# ---------------------------------------------------------------------------
# Engine selection + the validation matrix
# ---------------------------------------------------------------------------

#: engine x setup -> the executor the device selects, or the SimulationError
#: an *explicit* ``engine=`` raises at construction.  An engine read from
#: REPRO_SIM_ENGINE is never judged: those cells degrade to SerialExecutor.
SELECTION_TABLE = {
    ("interp", "serial"): SerialExecutor,
    ("interp", "workers2"): PooledExecutor,
    ("interp", "trace"): SerialExecutor,
    ("plans", "serial"): SerialExecutor,
    ("plans", "workers2"): PooledExecutor,
    ("plans", "trace"): SerialExecutor,
    ("codegen", "serial"): CodegenExecutor,
    ("codegen", "workers2"): CodegenExecutor,
    ("codegen", "trace"): SimulationError,
    ("sanitize", "serial"): SerialExecutor,
    ("sanitize", "workers2"): SerialExecutor,
    ("sanitize", "trace"): SerialExecutor,
}
_SETUPS = {"serial": {"workers": 1}, "workers2": {"workers": 2},
           "trace": {"collect_trace": True}}


class TestEngineSelection:
    @pytest.mark.parametrize("source", ["explicit", "env"])
    @pytest.mark.parametrize("engine,setup", list(SELECTION_TABLE),
                             ids=[f"{e}-{s}" for e, s in SELECTION_TABLE])
    def test_selection_table(self, engine, setup, source, monkeypatch):
        expected = SELECTION_TABLE[(engine, setup)]
        kwargs = dict(_SETUPS[setup])
        if source == "explicit":
            monkeypatch.delenv("REPRO_SIM_ENGINE", raising=False)
            kwargs["engine"] = engine
        else:
            monkeypatch.setenv("REPRO_SIM_ENGINE", engine)
            if expected is SimulationError:
                expected = SerialExecutor
        if expected is SimulationError:
            with pytest.raises(SimulationError, match="codegen"):
                Device(**kwargs)
            return
        executor = Device(**kwargs).executor()
        assert type(executor) is expected
        assert executor.settings.engine == engine
        if expected is CodegenExecutor:
            # The fallback is what the plans engine selects in the same setup.
            assert type(executor._fallback) is SELECTION_TABLE[("plans", setup)]
            assert executor._fallback.settings.engine == "plans"

    @pytest.mark.parametrize("source", ["explicit", "env"])
    def test_unknown_engine_names_the_valid_ones(self, source, monkeypatch):
        kwargs = {}
        if source == "explicit":
            kwargs["engine"] = "vectorized"
        else:
            monkeypatch.setenv("REPRO_SIM_ENGINE", "vectorized")
        with pytest.raises(SimulationError) as info:
            Device(**kwargs)
        message = str(info.value)
        assert "vectorized" in message
        for engine in ("interp", "plans", "codegen", "sanitize"):
            assert engine in message

    def test_env_knob_selects_the_codegen_executor(self, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_ENGINE", "codegen")
        assert isinstance(Device().executor(), CodegenExecutor)
        monkeypatch.setenv("REPRO_SIM_ENGINE", " CODEGEN ")
        assert isinstance(Device().executor(), CodegenExecutor)
        monkeypatch.setenv("REPRO_SIM_ENGINE", "plans")
        assert not isinstance(Device().executor(), CodegenExecutor)

    def test_cell_use_plans_false_with_pool(self):
        """Pool workers honour the engine, so the interpreter oracle may run
        on an explicit pool: a valid cell, not a rejected one."""
        from repro.gpusim.pool import get_worker_pool

        device = Device(engine="interp", workers=get_worker_pool(2))
        assert isinstance(device.executor(), PooledExecutor)
        assert device.executor_settings().engine == "interp"

    def test_cell_collect_trace_with_workers_degrades(self):
        """A worker count is a hint; the pool has always been skipped
        silently (pinned by tests/test_parallel.py), so no error -- serial
        selection."""
        device = Device(collect_trace=True, workers=2)
        assert isinstance(device.executor(), SerialExecutor)

    def test_cell_collect_trace_with_pool(self):
        """An explicit WorkerPool names an engine the trace cannot use."""
        from repro.gpusim.pool import get_worker_pool

        with pytest.raises(SimulationError, match="pool"):
            Device(collect_trace=True, workers=get_worker_pool(2))

    def test_env_resolved_combos_degrade_gracefully(self, monkeypatch):
        """CI-wide env knobs must not make tracing devices unconstructable."""
        monkeypatch.setenv("REPRO_SIM_WORKERS", "2")
        monkeypatch.setenv("REPRO_SIM_ENGINE", "codegen")
        device = Device(collect_trace=True)  # must not raise
        assert isinstance(device.executor(), SerialExecutor)

    def test_matrix_lives_in_one_resolver(self):
        from repro.gpusim.executors import validate_engine_settings

        with pytest.raises(SimulationError):
            validate_engine_settings(collect_trace=True, engine="codegen")
        # Unset values (None) are never judged.
        validate_engine_settings(collect_trace=True)
        validate_engine_settings(engine="sanitize")


# ---------------------------------------------------------------------------
# Per-launch fallback hazards
# ---------------------------------------------------------------------------


@kernel
def _doubler_kernel(x_ptr, out_ptr, n, BLOCK: tl.constexpr):
    pid = tl.program_id(axis=0)
    offs = pid * BLOCK + tl.arange(0, BLOCK)
    mask = offs < n
    x = tl.load(x_ptr + offs, mask=mask, other=0.0)
    tl.store(out_ptr + offs, x + x, mask=mask)


class TestRuntimeFallback:
    def test_aliased_read_write_falls_back_and_stays_correct(self):
        """x_ptr is out_ptr: batched loads would see batched stores."""
        data = np.arange(64, dtype=np.float32)
        device = Device(engine="codegen")
        ptr = device.pointer(data.copy(), "f32")
        fallbacks = COUNTERS.codegen_fallback_launches
        launches = COUNTERS.codegen_launches
        device.run(_doubler_kernel, grid=4,
                   args={"x_ptr": ptr, "out_ptr": ptr, "n": 64},
                   constexprs={"BLOCK": 16})
        assert COUNTERS.codegen_fallback_launches == fallbacks + 1
        assert COUNTERS.codegen_launches == launches
        assert np.array_equal(ptr.buffer.to_numpy(), data * 2)

    def test_distinct_buffers_vectorize(self):
        data = np.arange(64, dtype=np.float32)
        device = Device(engine="codegen")
        x = device.pointer(data.copy(), "f32")
        out = device.pointer(np.zeros(64, np.float32), "f32")
        launches = COUNTERS.codegen_launches
        batched = COUNTERS.codegen_ctas_batched
        device.run(_doubler_kernel, grid=4,
                   args={"x_ptr": x, "out_ptr": out, "n": 64},
                   constexprs={"BLOCK": 16})
        assert COUNTERS.codegen_launches == launches + 1
        assert COUNTERS.codegen_ctas_batched == batched + 4
        assert np.array_equal(out.buffer.to_numpy(), data * 2)


# ---------------------------------------------------------------------------
# Artifact resolution across the compile-cache tiers
# ---------------------------------------------------------------------------


class TestCacheIntegration:
    def test_workers_resolve_codegen_artifacts_by_fingerprint(self):
        """The pool's warm path: fingerprint lookup carries the codegens."""
        from repro.core.service import get_compiler_service

        compiled = _compiled_gemm(NAIVE_OPTIONS, device=Device(engine="codegen"))
        resolved = get_compiler_service().lookup(compiled.fingerprint)
        assert resolved is compiled
        assert any(art.vectorizable for art in resolved.codegens.values())

    def test_second_process_emits_nothing(self, tmp_path):
        """Warm-process cold start: the sweep re-runs on disk-tier artifacts."""
        cache_dir = tmp_path / "artifact-cache"

        cold = _run_sweep_process(tmp_path, cache_dir)
        assert cold["emitted"] >= 2
        assert cold["disk_writes"] >= cold["emitted"]
        assert cold["disk_hits"] == 0
        assert cold["launches"] == len(cold["results"])

        warm = _run_sweep_process(tmp_path, cache_dir)
        assert warm["emitted"] == 0  # every artifact came from the disk tier
        assert warm["disk_hits"] >= cold["emitted"]
        assert warm["launches"] == len(warm["results"])
        assert warm["results"] == cold["results"]


SWEEP_DRIVER = """\
import json

import numpy as np

from repro.core.options import NAIVE_OPTIONS, TRITON_BASELINE_OPTIONS
from repro.gpusim.device import Device
from repro.kernels.gemm import GemmProblem, run_gemm
from repro.perf.counters import COUNTERS

results = []
for opts in (NAIVE_OPTIONS, TRITON_BASELINE_OPTIONS):
    for mn in (64, 96):
        problem = GemmProblem(M=mn, N=mn, K=64, block_m=32, block_n=32,
                              block_k=32, seed=5)
        result, c = run_gemm(Device(engine="codegen"), problem, opts)
        results.append([result.cycles, c.astype(np.float64).tobytes().hex()])
print(json.dumps({
    "results": results,
    "emitted": COUNTERS.codegen_emitted,
    "disk_hits": COUNTERS.codegen_disk_hits,
    "disk_writes": COUNTERS.codegen_disk_writes,
    "launches": COUNTERS.codegen_launches,
    "fallbacks": COUNTERS.codegen_fallback_launches,
}))
"""


def _run_sweep_process(tmp_path, cache_dir) -> dict:
    driver = tmp_path / "codegen_sweep.py"
    driver.write_text(SWEEP_DRIVER)
    env = {
        "PYTHONPATH": str(SRC_DIR),
        "REPRO_CACHE_DIR": str(cache_dir),
        "PATH": "/usr/bin:/bin",
    }
    proc = subprocess.run(
        [sys.executable, str(driver)],
        capture_output=True, text=True, env=env, cwd=str(tmp_path),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# Perf mode: timing dedup without payloads
# ---------------------------------------------------------------------------


class TestPerfMode:
    def test_perf_rows_match_plans(self):
        problem = GemmProblem(M=2048, N=2048, K=1024)
        r_p, _ = run_gemm(Device(mode="performance"), problem,
                          TRITON_BASELINE_OPTIONS)
        launches = COUNTERS.codegen_launches
        r_c, _ = run_gemm(Device(mode="performance", engine="codegen"), problem,
                          TRITON_BASELINE_OPTIONS)
        assert COUNTERS.codegen_launches == launches + 1
        assert r_c.cycles == r_p.cycles
        assert r_c.per_cta_cycles == r_p.per_cta_cycles
        assert r_c.bytes_copied == r_p.bytes_copied
