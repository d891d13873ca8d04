"""The static-analysis subsystem (:mod:`repro.analysis`).

Four layers under test:

* the analyzers themselves -- channel happens-before checking, bounds/mask
  intervals, resource budgets -- pinned by golden rendered diagnostics, one
  per violation class, produced by *mutating* a correctly-compiled kernel;
* the mutation differential suite: every seeded protocol mutation must be
  caught **statically** (``analyze_channels``) or **dynamically**
  (``Device(engine="sanitize")`` raising :class:`SimulationError`), with zero
  silent escapes -- a mutation that neither layer flags fails the suite;
* the wiring: the opt-in ``run_analysis`` pipeline stage, the sanitizer's
  engine-selection rules, the ``analysis_*`` counters and the
  content-addressed artifact cache (memory tier in-process, disk tier proven
  from subprocesses via ``python -m repro.analysis lint --expect-analysis``);
* the lint gate: every registered workload's kernels lint clean (zero
  error-severity diagnostics).
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.analysis import (
    AnalysisResult,
    CtaSanitizer,
    Diagnostic,
    SanitizerError,
    Severity,
    analyze_bounds,
    analyze_channels,
    analyze_resources,
    get_analysis,
)
from repro.analysis.cli import lint_workloads, main as lint_main
from repro.analysis.passes import AnalysisPass
from repro.core.aref import ArefSlot
from repro.core.compiler import compile_kernel
from repro.core.options import CompileError, CompileOptions
from repro.core.service import CompilerService
from repro.frontend import kernel, tl
from repro.gpusim.config import DEFAULT_CONFIG
from repro.gpusim.device import Device
from repro.gpusim.engine import SimulationError
from repro.gpusim.executors import validate_engine_settings
from repro.ir.dialects import arith, tawa
from repro.ir.types import PointerType, TensorDescType, f16, i32
from repro.kernels.gemm import GemmProblem, make_gemm_inputs, matmul_kernel
from repro.perf.counters import COUNTERS
from repro.perf.report import render_compile_report
from repro.workloads import registry

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC_DIR = REPO_ROOT / "src"

GEMM_TYPES = {
    "a_desc": TensorDescType(f16), "b_desc": TensorDescType(f16),
    "c_ptr": PointerType(f16), "M": i32, "N": i32, "K": i32,
}
#: 64^3 tiles fit one consumer group, so the mutated kernels also *run*.
GEMM_CONSTS = {"stride_cm": 128, "stride_cn": 1, "Mt": 64, "Nt": 64, "Kt": 64}
MID_OPTIONS = CompileOptions(lower_to="tawa", num_consumer_groups=1)


def compile_mid_gemm():
    """A fresh mid-level (tawa dialect) GEMM compile for mutation."""
    return compile_kernel(matmul_kernel, GEMM_TYPES, GEMM_CONSTS, MID_OPTIONS)


# ---------------------------------------------------------------------------
# The mutation corpus: each entry seeds one protocol violation into a
# *correct* kernel.  ``static`` names the diagnostic code analyze_channels
# must emit; ``dynamic`` says whether Device(engine="sanitize") must also raise.
# ---------------------------------------------------------------------------

def mutate_drop_consumed(func):
    next(op for op in func.walk() if isinstance(op, tawa.ConsumedOp)).detach()


def mutate_shrink_depth(func):
    create = next(op for op in func.walk() if isinstance(op, tawa.CreateArefOp))
    create.attributes["depth"] = 1


def mutate_skew_index(func):
    target = next(
        s for s in func.walk() if isinstance(s, tawa.ArefSlotOp)
        and any(isinstance(u, tawa.GetOp) for u, _ in s.result.uses)
    )
    one = arith.ConstantOp(1, target.index.type)
    add = arith.AddIOp(target.index, one.result)
    target.parent.insert_before(target, one)
    target.parent.insert_before(target, add)
    target.set_operand(1, add.result)


def mutate_double_put(func):
    put = next(op for op in func.walk() if isinstance(op, tawa.PutOp))
    put.parent.insert_after(put, tawa.PutOp(put.slot, list(put.values)))


def mutate_extra_consumed(func):
    consumed = next(op for op in func.walk() if isinstance(op, tawa.ConsumedOp))
    consumed.parent.insert_after(consumed, tawa.ConsumedOp(consumed.slot))


def mutate_flip_role(func):
    wg = next(op for op in func.walk()
              if isinstance(op, tawa.WarpGroupOp) and op.is_producer)
    wg.attributes["role"] = "consumer"


MUTATIONS = [
    # (name, mutator, static diagnostic code, dynamically catchable?)
    ("drop-consumed", mutate_drop_consumed, "aref-missing-consumed", True),
    ("shrink-depth", mutate_shrink_depth, "aref-depth-insufficient", False),
    # A skewed index shifts which generation the consumer reads: the protocol
    # stays balanced (no dynamic signal), the data is silently wrong -- only
    # the static index-agreement check catches it.
    ("skew-index", mutate_skew_index, "aref-index-skew", False),
    ("double-put", mutate_double_put, "aref-double-put", True),
    ("extra-consumed", mutate_extra_consumed, "aref-spurious-consumed", True),
    ("flip-role", mutate_flip_role, "aref-role-mismatch", True),
]


def mutated_gemm(name):
    mutator = next(m for n, m, _, _ in MUTATIONS if n == name)
    compiled = compile_mid_gemm()
    mutator(compiled.func)
    return compiled


# ---------------------------------------------------------------------------
# Channel analysis: golden rendered diagnostic per violation class
# ---------------------------------------------------------------------------

class TestChannelGoldens:
    def _diags(self, name):
        compiled = mutated_gemm(name)
        return [d.render() for d in analyze_channels(compiled.func, MID_OPTIONS)]

    def test_clean_kernel_has_no_findings(self):
        compiled = compile_mid_gemm()
        assert analyze_channels(compiled.func, MID_OPTIONS) == []

    def test_drop_consumed(self):
        assert self._diags("drop-consumed") == [
            "error: [aref-missing-consumed] matmul_kernel/consumer@1 tawa.get: "
            "get on 'aref0' is never released by tawa.consumed; the slot never "
            "returns to EMPTY, so the producer deadlocks when the ring index "
            "wraps"
        ]

    def test_shrink_depth(self):
        assert self._diags("shrink-depth") == [
            "error: [aref-depth-insufficient] matmul_kernel/top-level "
            "tawa.create_aref: 'aref0' has depth D=1 but the pipelining "
            "distance is P=2; liveness requires D >= P (feasible region of "
            "Fig. 11)"
        ]

    def test_skew_index(self):
        assert self._diags("skew-index") == [
            "error: [aref-index-skew] matmul_kernel/consumer@1 tawa.aref_slot: "
            "producer and consumer of 'aref0' select slots with different "
            "index expressions: the producer fills generation i while the "
            "consumer waits on a different generation"
        ]

    def test_double_put(self):
        assert self._diags("double-put") == [
            "error: [aref-double-put] matmul_kernel/producer@0 tawa.put: "
            "2 puts on one generation of 'aref0': the second blocks until a "
            "get, deadlocking the producer"
        ]

    def test_extra_consumed(self):
        assert self._diags("extra-consumed") == [
            "error: [aref-spurious-consumed] matmul_kernel/consumer@1 "
            "tawa.consumed: 2 consumed(s) for 1 get(s) on 'aref0': consumed "
            "without a matching get releases a slot the consumer does not hold"
        ]

    def test_flip_role(self):
        diags = self._diags("flip-role")
        assert (
            "error: [aref-role-mismatch] matmul_kernel/consumer@0 tawa.put: "
            "put on 'aref0' outside a producer region"
        ) in diags

    def test_no_consumer_and_unused(self):
        compiled = compile_mid_gemm()
        for op in list(compiled.func.walk()):
            if isinstance(op, (tawa.GetOp, tawa.ConsumedOp)):
                op.detach()
        codes = {d.code for d in analyze_channels(compiled.func, MID_OPTIONS)}
        assert "aref-no-consumer" in codes

    def test_no_producer(self):
        compiled = compile_mid_gemm()
        for op in list(compiled.func.walk()):
            if isinstance(op, tawa.PutOp):
                op.detach()
        codes = {d.code for d in analyze_channels(compiled.func, MID_OPTIONS)}
        assert "aref-no-producer" in codes


# ---------------------------------------------------------------------------
# Bounds analysis goldens
# ---------------------------------------------------------------------------

@kernel
def masked_kernel(x_ptr, out_ptr, Bt: tl.constexpr):
    offs = tl.arange(0, Bt)
    dead = offs < 0       # provably false: [0, Bt) < 0
    live = offs < Bt      # provably true:  [0, Bt) < Bt
    a = tl.load(x_ptr + offs, mask=dead, other=0.0)
    b = tl.load(x_ptr + offs, mask=live, other=0.0)
    tl.store(out_ptr + offs, a + b, mask=live)


@kernel
def negative_offset_kernel(x_ptr, out_ptr, Bt: tl.constexpr):
    offs = tl.arange(0, Bt)
    val = tl.load(x_ptr + offs - 2 * Bt)   # offset in [-2Bt, -Bt-1]: hi < 0
    tl.store(out_ptr + offs, val)


ELEMENTWISE_OPTIONS = CompileOptions(enable_warp_specialization=False,
                                     software_pipelining=False, lower_to="tt")
PTR_TYPES = {"x_ptr": PointerType(f16), "out_ptr": PointerType(f16)}


class TestBoundsGoldens:
    def test_mask_truth_goldens(self):
        compiled = compile_kernel(masked_kernel, PTR_TYPES, {"Bt": 64},
                                  ELEMENTWISE_OPTIONS)
        assert [d.render() for d in analyze_bounds(compiled.func)] == [
            "warning: [bounds-unreachable-mask] masked_kernel/top-level "
            "tt.load: mask is provably false for every lane; the guarded "
            "access is dead code",
            "note: [bounds-redundant-mask] masked_kernel/top-level tt.load: "
            "mask is provably true for every lane",
            "note: [bounds-redundant-mask] masked_kernel/top-level tt.store: "
            "mask is provably true for every lane",
        ]

    def test_negative_offset_is_an_error(self):
        compiled = compile_kernel(negative_offset_kernel, PTR_TYPES,
                                  {"Bt": 64}, ELEMENTWISE_OPTIONS)
        diags = analyze_bounds(compiled.func)
        errors = [d for d in diags if d.severity is Severity.ERROR]
        assert len(errors) == 1
        assert errors[0].code == "bounds-negative-offset"
        assert "provably negative" in errors[0].message

    def test_gemm_masked_epilogue_is_clean(self):
        compiled = compile_mid_gemm()
        assert [d for d in analyze_bounds(compiled.func)
                if d.severity is Severity.ERROR] == []


# ---------------------------------------------------------------------------
# Resource lints (shared implementation with tune.cost.static_infeasibility)
# ---------------------------------------------------------------------------

def _metadata(**kw):
    base = dict(smem_bytes=64 * 1024, warp_specialized=True,
                consumer_replicas=1, consumer_regs_per_thread=180,
                num_warp_groups=2)
    base.update(kw)
    return SimpleNamespace(**base)


class TestResourceLints:
    def test_clean_metadata_has_no_findings(self):
        assert analyze_resources("k", _metadata(), CompileOptions()) == []

    def test_smem_budget_golden(self):
        diags = analyze_resources("matmul_kernel",
                                  _metadata(smem_bytes=400 * 1024),
                                  CompileOptions())
        assert [d.render() for d in diags] == [
            "error: [resource-smem-budget] matmul_kernel/top-level "
            "resource-estimate: shared-memory footprint 400 KiB exceeds the "
            "228 KiB available per SM (reduce the tile size or aref depth D=2)"
        ]

    def test_register_budget_golden(self):
        diags = analyze_resources("matmul_kernel",
                                  _metadata(consumer_regs_per_thread=300),
                                  CompileOptions())
        assert [d.render() for d in diags] == [
            "error: [resource-register-budget] matmul_kernel/top-level "
            "resource-estimate: consumer warp group needs ~300 "
            "registers/thread but only 232 are available; use cooperative "
            "consumer warp groups (num_consumer_groups=2) or a smaller tile"
        ]

    def test_agrees_with_autotuner_static_infeasibility(self):
        from repro.tune.cost import static_infeasibility

        fits = GemmProblem(8192, 8192, 8192, block_m=128, block_n=256)
        assert static_infeasibility(
            fits, CompileOptions(num_consumer_groups=2), DEFAULT_CONFIG) is None
        too_big = GemmProblem(8192, 8192, 8192, block_m=256, block_n=256)
        reason = static_infeasibility(
            too_big, CompileOptions(aref_depth=4, num_consumer_groups=1),
            DEFAULT_CONFIG)
        assert reason is not None
        assert "KiB" in reason or "registers" in reason


# ---------------------------------------------------------------------------
# Mutation differential suite: zero silent escapes
# ---------------------------------------------------------------------------

def run_mutated_sanitized(compiled):
    """Launch a (possibly broken) mid-level kernel under the sanitizer."""
    device = Device(engine="sanitize", workers=1)
    problem = GemmProblem(128, 128, 128, block_m=64, block_n=64, block_k=64)
    args, _, _ = make_gemm_inputs(problem, device)
    return device.run(compiled, grid=problem.grid, args=args,
                      constexprs=problem.constexprs(), options=MID_OPTIONS)


class TestMutationDifferential:
    @pytest.mark.parametrize("name,mutator,code,dynamic",
                             MUTATIONS, ids=[m[0] for m in MUTATIONS])
    def test_static_catch(self, name, mutator, code, dynamic):
        compiled = compile_mid_gemm()
        mutator(compiled.func)
        codes = {d.code for d in analyze_channels(compiled.func, MID_OPTIONS)
                 if d.severity is Severity.ERROR}
        assert code in codes, f"mutation {name!r} escaped the static analyzer"

    @pytest.mark.parametrize(
        "name", [m[0] for m in MUTATIONS if m[3]])
    def test_dynamic_catch(self, name):
        compiled = mutated_gemm(name)
        with pytest.raises(SimulationError):
            run_mutated_sanitized(compiled)

    def test_zero_silent_escapes(self):
        """Every seeded mutation is caught statically or dynamically."""
        escaped = []
        for name, mutator, _, dynamic in MUTATIONS:
            compiled = compile_mid_gemm()
            mutator(compiled.func)
            statically = any(
                d.severity is Severity.ERROR
                for d in analyze_channels(compiled.func, MID_OPTIONS)
            )
            dynamically = False
            if not statically and dynamic:
                try:
                    run_mutated_sanitized(compiled)
                except SimulationError:
                    dynamically = True
            if not (statically or dynamically):
                escaped.append(name)
        assert escaped == []

    def test_clean_kernel_passes_sanitized_run(self):
        import numpy as np
        device = Device(engine="sanitize", workers=1)
        problem = GemmProblem(128, 128, 128, block_m=64, block_n=64,
                              block_k=64)
        args, a, b = make_gemm_inputs(problem, device)
        device.run(matmul_kernel, grid=problem.grid, args=args,
                   constexprs=problem.constexprs(), options=MID_OPTIONS)
        c = args["c_ptr"].buffer.to_numpy().astype(np.float32)
        expected = (a.astype(np.float16).astype(np.float32)
                    @ b.astype(np.float16).astype(np.float32).T)
        np.testing.assert_allclose(c, expected.astype(np.float16), rtol=2e-2,
                                   atol=2e-2)
        assert COUNTERS.analysis_sanitized_launches == 1


# ---------------------------------------------------------------------------
# The sanitizer state machine itself (unit level)
# ---------------------------------------------------------------------------

class TestCtaSanitizer:
    def test_role_mismatch(self):
        san = CtaSanitizer("cta0")
        slot = ArefSlot(name="aref0[0]")
        with pytest.raises(SanitizerError, match="allowed: producer"):
            san.record("put", slot, "consumer")

    def test_protocol_divergence_double_put(self):
        san = CtaSanitizer("cta0")
        slot = ArefSlot(name="aref0[0]")
        san.record("put", slot, "producer")
        with pytest.raises(SanitizerError):
            san.record("put", slot, "producer")

    def test_consumed_without_get(self):
        san = CtaSanitizer("cta0")
        slot = ArefSlot(name="aref0[0]")
        san.record("put", slot, "producer")
        with pytest.raises(SanitizerError):
            san.record("consumed", slot, "consumer")

    def test_finalize_flags_undrained_slots(self):
        san = CtaSanitizer("cta0")
        slot = ArefSlot(name="aref0[0]")
        san.record("put", slot, "producer")
        san.record("get", slot, "consumer")
        with pytest.raises(SanitizerError, match="non-EMPTY"):
            san.finalize()

    def test_full_protocol_round_trip_is_clean(self):
        san = CtaSanitizer("cta0")
        slot = ArefSlot(name="aref0[0]")
        for _ in range(3):
            san.record("put", slot, "producer")
            san.record("get", slot, "consumer")
            san.record("consumed", slot, "consumer")
        san.finalize()


# ---------------------------------------------------------------------------
# Device knobs and engine selection
# ---------------------------------------------------------------------------

class TestSanitizerWiring:
    """Which executor each engine selects is pinned by the one table in
    ``tests/test_codegen.py::TestEngineSelection``; these are the
    sanitizer's environment spelling and its explicit-pool cell."""

    def test_sanitize_env_knob(self, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_ENGINE", "sanitize")
        assert Device().engine == "sanitize"
        monkeypatch.setenv("REPRO_SIM_ENGINE", "plans")
        assert Device().engine == "plans"

    def test_explicit_flag_wins_over_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_ENGINE", "sanitize")
        assert Device(engine="plans").engine == "plans"

    def test_sanitize_plus_pool_raises(self):
        with pytest.raises(SimulationError):
            validate_engine_settings(pool=True, engine="sanitize")


# ---------------------------------------------------------------------------
# The opt-in pipeline stage
# ---------------------------------------------------------------------------

class TestAnalysisPass:
    def test_stage_runs_inside_the_pipeline(self):
        compiled = compile_kernel(
            matmul_kernel, GEMM_TYPES, GEMM_CONSTS,
            CompileOptions(lower_to="tawa", num_consumer_groups=1,
                           run_analysis=True))
        assert "static-analysis" in compiled.pass_timings
        assert COUNTERS.analysis_runs >= 1

    def test_stage_is_absent_by_default(self):
        compiled = compile_mid_gemm()
        assert "static-analysis" not in compiled.pass_timings

    def test_stage_rejects_broken_ir(self):
        compiled = mutated_gemm("double-put")
        pipeline_stage = AnalysisPass(MID_OPTIONS)
        with pytest.raises(CompileError, match="aref-double-put"):
            pipeline_stage.run_on_function(compiled.func, compiled.module)


# ---------------------------------------------------------------------------
# Artifact caching: memory tier in-process, counters, report line
# ---------------------------------------------------------------------------

class TestAnalysisArtifacts:
    def test_memory_tier_memoizes(self):
        service = CompilerService()
        compiled = service.compile(matmul_kernel, GEMM_TYPES, GEMM_CONSTS,
                                   MID_OPTIONS)
        first = get_analysis(compiled, DEFAULT_CONFIG)
        runs = COUNTERS.analysis_runs
        second = get_analysis(compiled, DEFAULT_CONFIG)
        assert second is first
        assert COUNTERS.analysis_runs == runs
        assert COUNTERS.analysis_memory_hits >= 1

    def test_disk_tier_round_trip(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        service = CompilerService()
        compiled = service.compile(matmul_kernel, GEMM_TYPES, GEMM_CONSTS,
                                   MID_OPTIONS)
        first = get_analysis(compiled, DEFAULT_CONFIG)
        assert COUNTERS.analysis_disk_writes == 1
        # A fresh compile object (same fingerprint) misses the memo but hits
        # the disk tier: no re-analysis.
        other = CompilerService().compile(matmul_kernel, GEMM_TYPES,
                                          GEMM_CONSTS, MID_OPTIONS)
        runs = COUNTERS.analysis_runs
        second = get_analysis(other, DEFAULT_CONFIG)
        assert COUNTERS.analysis_runs == runs
        assert COUNTERS.analysis_disk_hits == 1
        assert second.payload() == first.payload()

    def test_result_payload_round_trip(self):
        diag = Diagnostic(Severity.WARNING, "bounds-unproven-access", "msg",
                          "k", "tt.load", "consumer@0")
        result = AnalysisResult(kernel_name="k", diagnostics=(diag,))
        clone = AnalysisResult.from_payload(result.payload())
        assert clone == result
        assert clone.diagnostics[0].render() == diag.render()

    def test_compile_report_has_analysis_line(self):
        compiled = compile_mid_gemm()
        analyze_channels(compiled.func, MID_OPTIONS)
        report = render_compile_report()
        assert "analysis artifacts:" in report
        assert "sanitized launches" in report


# ---------------------------------------------------------------------------
# The lint gate: all registered workloads are clean
# ---------------------------------------------------------------------------

class TestLintGate:
    def test_all_workloads_lint_clean(self):
        results = lint_workloads(registry.list_workloads())
        assert results, "no workloads registered?"
        dirty = [(name, [d.render() for d in result.diagnostics])
                 for name, result in results if not result.ok]
        assert dirty == []

    def test_cli_exits_zero_and_writes_json(self, tmp_path, capsys):
        import json
        out = tmp_path / "lint.json"
        assert lint_main(["lint", "gemm", "--json", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["workloads"] == ["gemm"]
        assert all(entry["errors"] == 0 for entry in report["results"])
        assert capsys.readouterr().out.count("matmul_kernel") >= 1

    def test_cli_rejects_unknown_workload(self):
        with pytest.raises(SystemExit):
            lint_main(["lint", "no-such-workload"])


# ---------------------------------------------------------------------------
# Warm-reuse cold-start guarantee, proven from subprocesses
# ---------------------------------------------------------------------------

def _run_lint_process(cache_dir, expect):
    env = {
        "PYTHONPATH": str(SRC_DIR),
        "REPRO_CACHE_DIR": str(cache_dir),
        "PATH": "/usr/bin:/bin",
    }
    return subprocess.run(
        [sys.executable, "-m", "repro.analysis", "lint", "gemm", "layernorm",
         "--expect-analysis", expect],
        capture_output=True, text=True, env=env, timeout=300,
    )


class TestWarmProcessReuse:
    def test_second_process_reuses_every_analysis(self, tmp_path):
        cache = tmp_path / "cache"
        cold = _run_lint_process(cache, "cold")
        assert cold.returncode == 0, cold.stdout + cold.stderr
        assert "-- analysis 0 runs" not in cold.stdout

        warm = _run_lint_process(cache, "warm")
        assert warm.returncode == 0, warm.stdout + warm.stderr
        assert "-- analysis 0 runs" in warm.stdout

        # The expectation gate itself has teeth: demanding a cold run from a
        # warm cache fails.
        stale = _run_lint_process(cache, "cold")
        assert stale.returncode == 1, stale.stdout + stale.stderr
