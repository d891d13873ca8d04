"""Differential regression tests: execution plans vs. the IR interpreter.

The plan compiler (:mod:`repro.gpusim.plan`) must be *observationally
indistinguishable* from the interpreter it replaces: identical simulated cycle
counts (bit-exact -- the DelayChain batching replays the same float additions)
and identical functional outputs, across every compilation path and across the
reduced-range fig8--fig12 experiment configurations.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.options import CompileOptions, NAIVE_OPTIONS, TRITON_BASELINE_OPTIONS
from repro.frontend import kernel, tl
from repro.gpusim.device import Device
from repro.gpusim.plan import compile_plan
from repro.kernels.attention import AttentionProblem, run_attention
from repro.kernels.batched_gemm import BatchedGemmProblem, run_batched_gemm
from repro.kernels.gemm import GemmProblem, make_gemm_inputs, run_gemm
from repro.kernels.grouped_gemm import GroupedGemmProblem, run_grouped_gemm
from repro.perf.counters import COUNTERS


def device_pair(mode: str, **kwargs):
    return (Device(mode=mode, engine="interp", **kwargs),
            Device(mode=mode, engine="plans", **kwargs))


GEMM_OPTION_CASES = [
    ("warp_specialized", CompileOptions(enable_warp_specialization=True,
                                        aref_depth=3, mma_pipeline_depth=2,
                                        num_consumer_groups=2)),
    ("warp_specialized_persistent", CompileOptions(enable_warp_specialization=True,
                                                   aref_depth=3, mma_pipeline_depth=2,
                                                   num_consumer_groups=2,
                                                   persistent=True)),
    ("triton_baseline", TRITON_BASELINE_OPTIONS),
    ("naive", NAIVE_OPTIONS),
    ("frontend_tt", CompileOptions(lower_to="tt")),
    ("midlevel_tawa", CompileOptions(lower_to="tawa")),
]


class TestFunctionalDifferential:
    """Functional mode: outputs and cycle counts must match exactly."""

    @pytest.mark.parametrize("name,options", GEMM_OPTION_CASES,
                             ids=[c[0] for c in GEMM_OPTION_CASES])
    def test_gemm_all_paths(self, name, options):
        problem = GemmProblem(M=256, N=256, K=128, block_m=64, block_n=64,
                              block_k=32)
        interp, plan = device_pair("functional")
        r_i, c_i = run_gemm(interp, problem, options)
        r_p, c_p = run_gemm(plan, problem, options)
        assert r_p.cycles == r_i.cycles
        assert r_p.tensor_core_utilization == r_i.tensor_core_utilization
        assert np.array_equal(c_p, c_i)

    @pytest.mark.parametrize("causal", [False, True])
    def test_attention(self, causal):
        problem = AttentionProblem(batch=1, heads=2, seq_len=128, head_dim=64,
                                   block_m=64, block_n=64, causal=causal)
        options = CompileOptions(enable_warp_specialization=True, aref_depth=2,
                                 mma_pipeline_depth=2, num_consumer_groups=2,
                                 coarse_grained_pipelining=True)
        interp, plan = device_pair("functional")
        r_i, o_i = run_attention(interp, problem, options)
        r_p, o_p = run_attention(plan, problem, options)
        assert r_p.cycles == r_i.cycles
        assert np.array_equal(o_p, o_i)

    def test_batched_gemm(self):
        problem = BatchedGemmProblem(batch=2, M=128, N=128, K=64, block_m=64,
                                     block_n=64, block_k=32)
        interp, plan = device_pair("functional")
        r_i, c_i = run_batched_gemm(interp, problem, CompileOptions())
        r_p, c_p = run_batched_gemm(plan, problem, CompileOptions())
        assert r_p.cycles == r_i.cycles
        assert np.array_equal(c_p, c_i)

    def test_grouped_gemm(self):
        problem = GroupedGemmProblem(group_ms=[128, 192], N=128, K=64,
                                     block_m=64, block_n=64, block_k=32)
        interp, plan = device_pair("functional")
        r_i, c_i = run_grouped_gemm(interp, problem, CompileOptions())
        r_p, c_p = run_grouped_gemm(plan, problem, CompileOptions())
        assert r_p.cycles == r_i.cycles
        assert np.array_equal(c_p, c_i)

    def test_per_cta_cycles_match(self):
        """Every simulated CTA, not just the aggregate, must agree."""
        problem = GemmProblem(M=256, N=128, K=128, block_m=64, block_n=64,
                              block_k=32)
        interp, plan = device_pair("functional")
        r_i, _ = run_gemm(interp, problem, CompileOptions())
        r_p, _ = run_gemm(plan, problem, CompileOptions())
        assert r_p.per_cta_cycles == r_i.per_cta_cycles


class TestCodegenDifferential:
    """Vectorized codegen vs. plans: bit-identical across every compile path.

    Warp-specialized (multi-region) kernels are not vectorizable; for those
    the codegen device must transparently fall back to plans -- counted by
    ``codegen_fallback_launches`` -- and still agree bit for bit.
    """

    @pytest.mark.parametrize("name,options", GEMM_OPTION_CASES,
                             ids=[c[0] for c in GEMM_OPTION_CASES])
    def test_gemm_all_paths(self, name, options):
        problem = GemmProblem(M=256, N=256, K=128, block_m=64, block_n=64,
                              block_k=32)
        plan = Device(mode="functional", engine="plans")
        gen = Device(mode="functional", engine="codegen")
        r_p, c_p = run_gemm(plan, problem, options)
        r_c, c_c = run_gemm(gen, problem, options)
        assert r_c.cycles == r_p.cycles
        assert r_c.per_cta_cycles == r_p.per_cta_cycles
        assert r_c.tensor_core_utilization == r_p.tensor_core_utilization
        assert np.array_equal(c_c, c_p)

    def test_single_region_gemm_uses_the_batch_call(self):
        problem = GemmProblem(M=128, N=128, K=64, block_m=32, block_n=32,
                              block_k=32)
        launches = COUNTERS.codegen_launches
        fallbacks = COUNTERS.codegen_fallback_launches
        run_gemm(Device(engine="codegen"), problem, NAIVE_OPTIONS)
        assert COUNTERS.codegen_launches == launches + 1
        assert COUNTERS.codegen_fallback_launches == fallbacks

    def test_warp_specialized_gemm_falls_back(self):
        problem = GemmProblem(M=128, N=128, K=64, block_m=32, block_n=32,
                              block_k=32)
        options = GEMM_OPTION_CASES[0][1]
        launches = COUNTERS.codegen_launches
        fallbacks = COUNTERS.codegen_fallback_launches
        run_gemm(Device(engine="codegen"), problem, options)
        assert COUNTERS.codegen_launches == launches
        assert COUNTERS.codegen_fallback_launches == fallbacks + 1

    @pytest.mark.parametrize("fig", ["fig8_gemm", "fig9_gemm_variants",
                                     "fig10_attention", "fig11_hyperparams",
                                     "fig12_ablation"])
    def test_figure_rows_identical(self, fig):
        import importlib

        mod = importlib.import_module(f"repro.experiments.{fig}")
        plan = Device(mode="performance", max_ctas_per_sm_simulated=2)
        gen = Device(mode="performance", max_ctas_per_sm_simulated=2,
                     engine="codegen")
        figs_p = mod.run(full=False, device=plan)
        figs_c = mod.run(full=False, device=gen)
        assert len(figs_p) == len(figs_c)
        for f_p, f_c in zip(figs_p, figs_c):
            rows_p = [(r.series, r.x, r.tflops) for r in f_p.rows]
            rows_c = [(r.series, r.x, r.tflops) for r in f_c.rows]
            assert rows_c == rows_p


class TestPerformanceDifferential:
    """Performance mode over the reduced fig8-fig12 configurations."""

    @pytest.mark.parametrize("fig", ["fig8_gemm", "fig9_gemm_variants",
                                     "fig10_attention", "fig11_hyperparams",
                                     "fig12_ablation"])
    def test_figure_rows_identical(self, fig):
        import importlib

        mod = importlib.import_module(f"repro.experiments.{fig}")
        interp, plan = device_pair("performance", max_ctas_per_sm_simulated=2)
        figs_i = mod.run(full=False, device=interp)
        figs_p = mod.run(full=False, device=plan)
        assert len(figs_i) == len(figs_p)
        for f_i, f_p in zip(figs_i, figs_p):
            rows_i = [(r.series, r.x, r.tflops) for r in f_i.rows]
            rows_p = [(r.series, r.x, r.tflops) for r in f_p.rows]
            assert rows_p == rows_i


class TestPlanInfrastructure:
    def test_plan_is_cached_per_kernel(self):
        problem = GemmProblem(M=128, N=128, K=64, block_m=64, block_n=64,
                              block_k=32)
        device = Device(mode="functional", engine="plans")
        before = COUNTERS.plan_cache_misses
        run_gemm(device, problem, CompileOptions())
        first_misses = COUNTERS.plan_cache_misses - before
        assert first_misses <= 1  # one build for the whole grid
        before_hits = COUNTERS.plan_cache_hits
        run_gemm(device, problem, CompileOptions())
        assert COUNTERS.plan_cache_hits > before_hits  # relaunch reuses it

    def test_compile_cache_is_process_wide(self):
        problem = GemmProblem(M=128, N=128, K=64, block_m=64, block_n=64,
                              block_k=32)
        run_gemm(Device(mode="functional"), problem, CompileOptions())
        before = COUNTERS.compile_cache_hits
        # A *fresh* device (what every experiment harness builds) must hit.
        run_gemm(Device(mode="functional"), problem, CompileOptions())
        assert COUNTERS.compile_cache_hits > before

    def test_env_flag_disables_plans(self, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_ENGINE", "interp")
        assert Device(mode="functional").engine == "interp"
        monkeypatch.setenv("REPRO_SIM_ENGINE", "plans")
        assert Device(mode="functional").engine == "plans"
        monkeypatch.delenv("REPRO_SIM_ENGINE")
        assert Device(mode="functional").engine == "plans"

    def test_plan_compiles_both_modes(self):
        problem = GemmProblem(M=128, N=128, K=64, block_m=64, block_n=64,
                              block_k=32)
        device = Device(mode="functional")
        from repro.kernels.gemm import make_gemm_inputs, matmul_kernel

        args, _, _ = make_gemm_inputs(problem, device)
        compiled = device.compile(matmul_kernel, args, problem.constexprs(),
                                  CompileOptions())
        for functional in (True, False):
            plan = compile_plan(compiled.func, device.config, functional)
            assert plan.regions
        # Warp-specialized consumer replicas get an observer variant.
        compiled_ws = device.compile(
            matmul_kernel, args, problem.constexprs(),
            CompileOptions(enable_warp_specialization=True,
                           num_consumer_groups=2))
        plan = compile_plan(compiled_ws.func, device.config, True)
        consumers = [r for r in plan.regions if r.role == "consumer"]
        assert consumers and all(r.observer_steps is not None for r in consumers)


@kernel
def max_gated_matmul_kernel(a_desc, b_desc, c_ptr, M, N, K,
                            stride_cm: tl.constexpr, stride_cn: tl.constexpr,
                            Mt: tl.constexpr, Nt: tl.constexpr, Kt: tl.constexpr):
    """``matmul_kernel`` whose epilogue branches on a scalar reduction."""
    pid = tl.program_id(axis=0)
    num_pid_m = tl.cdiv(M, Mt)
    pid_m = pid % num_pid_m
    pid_n = pid // num_pid_m
    o_am = pid_m * Mt
    o_bn = pid_n * Nt
    o_k = 0
    acc = tl.zeros((Mt, Nt), dtype=tl.float32)
    for k in tl.range(0, tl.cdiv(K, Kt)):
        a = tl.tma_load(a_desc, [o_am, o_k], [Mt, Kt])
        b = tl.tma_load(b_desc, [o_bn, o_k], [Nt, Kt])
        acc = tl.dot(a, b.T, acc=acc)
        o_k += Kt
    s = tl.max(tl.max(acc, axis=1), axis=0)
    if s > 1.0:
        acc = tl.exp(acc - s) * 0.5 + 1.0
    offs_cm = pid_m * Mt + tl.arange(0, Mt)
    offs_cn = pid_n * Nt + tl.arange(0, Nt)
    c_ptrs = c_ptr + stride_cm * offs_cm[:, None] + stride_cn * offs_cn[None, :]
    mask = (offs_cm[:, None] < M) & (offs_cn[None, :] < N)
    tl.store(c_ptrs, acc, mask=mask)


class TestScalarReductionInReplicatedConsumers:
    """A scalar ``tt.reduce`` steering control flow in a cooperative consumer.

    Every consumer replica must see the real reduction: an observer replica
    that faked it would skip the branch and finish early.
    """

    @pytest.mark.parametrize("groups", [1, 2])
    def test_branch_on_scalar_max(self, groups):
        problem = GemmProblem(M=128, N=128, K=128, block_m=128, block_n=128,
                              block_k=64)
        options = CompileOptions(num_consumer_groups=groups)
        results = []
        for device in device_pair("functional"):
            args, _, _ = make_gemm_inputs(problem, device)
            result = device.run(max_gated_matmul_kernel, grid=problem.grid, args=args,
                                constexprs=problem.constexprs(), options=options)
            results.append((result, args["c_ptr"].buffer.to_numpy()))
        (r_i, c_i), (r_p, c_p) = results
        assert r_p.cycles == r_i.cycles
        assert r_p.per_cta_cycles == r_i.per_cta_cycles
        assert np.array_equal(c_p, c_i)
