"""Tests for the Tawa passes: tagging, partitioning, pipelining, lowering,
persistent kernels and resource validation -- checked on the real GEMM and
attention kernels through the compilation driver."""

import pytest

from repro.core import compiler
from repro.core.compiler import build_pass_pipeline, compile_kernel
from repro.core.options import CompileError, CompileOptions
from repro.core.pipelines import (
    PipelineSpec,
    available_pipelines,
    get_pipeline,
    register_pipeline,
    resolve_pipeline_name,
)
from repro.core.tagging import ROLE_ATTR, tag_function
from repro.frontend import kernel, tl
from repro.ir import print_op, verify
from repro.ir.dialects import scf, tawa
from repro.ir.types import PointerType, TensorDescType, f16, f32, i32
from repro.kernels.attention import attention_kernel
from repro.kernels.gemm import matmul_kernel
from repro.perf.counters import COUNTERS

GEMM_TYPES = {
    "a_desc": TensorDescType(f16), "b_desc": TensorDescType(f16),
    "c_ptr": PointerType(f16), "M": i32, "N": i32, "K": i32,
}
GEMM_CONSTS = {"stride_cm": 128, "stride_cn": 1, "Mt": 64, "Nt": 128, "Kt": 32}

ATTN_TYPES = {
    "q_desc": TensorDescType(f16), "k_desc": TensorDescType(f16),
    "v_desc": TensorDescType(f16), "o_ptr": PointerType(f16),
    "L": i32, "sm_scale": f32,
}
ATTN_CONSTS = {"D": 64, "Bm": 64, "Bn": 64, "causal": False, "stride_om": 64}


def compile_gemm(**option_kwargs):
    options = CompileOptions(**option_kwargs)
    return compile_kernel(matmul_kernel, GEMM_TYPES, GEMM_CONSTS, options)


def compile_attention(**option_kwargs):
    options = CompileOptions(**option_kwargs)
    return compile_kernel(attention_kernel, ATTN_TYPES, ATTN_CONSTS, options)


class TestTagging:
    def _tagged_gemm_func(self):
        spec = matmul_kernel.specialize(GEMM_TYPES, GEMM_CONSTS)
        module = matmul_kernel.build_module(spec)
        func = module.get_function("matmul_kernel")
        tag_function(func)
        return func

    def test_loads_tagged_as_load(self):
        func = self._tagged_gemm_func()
        loads = [op for op in func.walk() if op.name == "tt.tma_load"]
        assert loads and all(op.get_attr(ROLE_ATTR) == "load" for op in loads)

    def test_dot_and_store_tagged_as_tile(self):
        func = self._tagged_gemm_func()
        assert all(op.get_attr(ROLE_ATTR) == "tile"
                   for op in func.walk() if op.name in ("tt.dot", "tt.store"))

    def test_offset_update_tagged_as_iteration(self):
        # The `o_k += Kt` update feeding the TMA coordinates is an iteration
        # statement even though it is textually separated from the loads.
        func = self._tagged_gemm_func()
        loop = next(op for op in func.walk() if isinstance(op, scf.ForOp))
        adds = [op for op in loop.body.operations if op.name == "arith.addi"]
        assert any(op.get_attr(ROLE_ATTR) == "iteration" for op in adds)

    def test_every_op_gets_some_role(self):
        func = self._tagged_gemm_func()
        assert all(op.has_attr(ROLE_ATTR) for op in func.walk() if op is not func)


class TestPartitioning:
    def test_two_warp_groups_created(self):
        compiled = compile_gemm(lower_to="tawa")
        wgs = [op for op in compiled.func.body.operations if isinstance(op, tawa.WarpGroupOp)]
        assert len(wgs) == 2
        assert wgs[0].is_producer and wgs[1].is_consumer
        assert compiled.func.get_attr("tawa.warp_specialized") is True

    def test_producer_owns_loads_consumer_owns_dots_and_stores(self):
        compiled = compile_gemm(lower_to="tawa")
        producer, consumer = [op for op in compiled.func.body.operations
                              if isinstance(op, tawa.WarpGroupOp)]
        prod_names = {op.name for op in producer.walk()}
        cons_names = {op.name for op in consumer.walk()}
        assert "tt.tma_load" in prod_names and "tawa.put" in prod_names
        assert "tt.dot" not in prod_names and "tt.store" not in prod_names
        assert "tt.dot" in cons_names and "tt.store" in cons_names
        assert "tt.tma_load" not in cons_names
        assert "tawa.get" in cons_names and "tawa.consumed" in cons_names

    def test_loads_feeding_same_dot_share_one_aref(self):
        compiled = compile_gemm(lower_to="tawa")
        arefs = [op for op in compiled.func.body.operations
                 if isinstance(op, tawa.CreateArefOp)]
        assert len(arefs) == 1
        assert len(arefs[0].payload_types) == 2  # A and B tiles travel together
        assert arefs[0].depth == 2

    def test_attention_gets_separate_channels_for_q_k_v(self):
        compiled = compile_attention(lower_to="tawa")
        arefs = [op for op in compiled.func.body.operations
                 if isinstance(op, tawa.CreateArefOp)]
        assert len(arefs) == 3
        depths = sorted(op.depth for op in arefs)
        assert depths == [1, 2, 2]  # Q is a one-shot prologue channel

    def test_partitions_are_self_contained(self):
        """Every operand of a warp-group op is defined inside it, at the top
        level (arefs / function arguments), i.e. duplication really happened."""
        compiled = compile_gemm(lower_to="tawa")
        verify(compiled.module)
        producer, consumer = [op for op in compiled.func.body.operations
                              if isinstance(op, tawa.WarpGroupOp)]
        # pid/offset arithmetic appears in both partitions (duplicated).
        prod_muls = sum(1 for op in producer.walk() if op.name == "arith.muli")
        cons_muls = sum(1 for op in consumer.walk() if op.name == "arith.muli")
        assert prod_muls > 0 and cons_muls > 0

    def test_scalar_address_loads_duplicated_into_both_partitions(self):
        from repro.kernels.grouped_gemm import grouped_matmul_kernel

        types = {"a_desc": TensorDescType(f16), "b_desc": TensorDescType(f16),
                 "c_ptr": PointerType(f16), "tile_am_ptr": PointerType(i32),
                 "tile_bn_ptr": PointerType(i32), "tile_cn_ptr": PointerType(i32),
                 "K": i32}
        consts = {"stride_cm": 128, "Mt": 64, "Nt": 64, "Kt": 32}
        compiled = compile_kernel(grouped_matmul_kernel, types, consts,
                                  CompileOptions(lower_to="tawa"))
        producer, consumer = [op for op in compiled.func.body.operations
                              if isinstance(op, tawa.WarpGroupOp)]
        assert any(op.name == "tt.load" for op in producer.walk())
        assert any(op.name == "tt.load" for op in consumer.walk())

    def test_kernel_without_dots_is_left_alone(self):
        @kernel
        def copy_kernel(x_ptr, y_ptr, BLOCK: tl.constexpr):
            offs = tl.arange(0, BLOCK)
            tl.store(y_ptr + offs, tl.load(x_ptr + offs))

        compiled = compile_kernel(copy_kernel,
                                  {"x_ptr": PointerType(f32), "y_ptr": PointerType(f32)},
                                  {"BLOCK": 64}, CompileOptions())
        assert compiled.func.get_attr("tawa.warp_specialized") is False
        assert not any(isinstance(op, tawa.WarpGroupOp) for op in compiled.func.walk())


class TestPipelining:
    def test_fine_grained_marks_dot_async_and_inserts_wait(self):
        compiled = compile_gemm(mma_pipeline_depth=2, aref_depth=2)
        text = compiled.ir()
        assert "gpu.wgmma" in text
        assert "gpu.wgmma_wait" in text
        waits = [op for op in compiled.func.walk() if op.name == "gpu.wgmma_wait"]
        assert any(op.pendings == 1 for op in waits)   # P-1 outstanding in the loop
        assert any(op.pendings == 0 for op in waits)   # drained in the epilogue

    def test_consumed_release_is_guarded_for_prologue(self):
        compiled = compile_gemm(mma_pipeline_depth=2, aref_depth=2, lower_to="gpu")
        consumer = [op for op in compiled.func.body.operations
                    if isinstance(op, tawa.WarpGroupOp)][1]
        assert any(op.name == "scf.if" for op in consumer.walk())

    def test_coarse_grained_rotates_attention_loop(self):
        compiled = compile_attention(aref_depth=2)
        consumer = [op for op in compiled.func.body.operations
                    if isinstance(op, tawa.WarpGroupOp)][1]
        loops = [op for op in consumer.walk() if isinstance(op, scf.ForOp)]
        assert any(op.get_attr("tawa.pipeline") == "coarse" for op in loops)
        # The rotated loop carries the previous iteration's QK tile.
        rotated = next(op for op in loops if op.get_attr("tawa.pipeline") == "coarse")
        assert len(rotated.iter_args) > 3

    def test_coarse_grained_skipped_for_single_slot_channels(self):
        compiled = compile_attention(aref_depth=1, mma_pipeline_depth=1)
        consumer = [op for op in compiled.func.body.operations
                    if isinstance(op, tawa.WarpGroupOp)][1]
        loops = [op for op in consumer.walk() if isinstance(op, scf.ForOp)]
        assert all(op.get_attr("tawa.pipeline") != "coarse" for op in loops)

    def test_pipelining_can_be_disabled(self):
        compiled = compile_gemm(fine_grained_pipelining=False,
                                coarse_grained_pipelining=False)
        consumer = [op for op in compiled.func.body.operations
                    if isinstance(op, tawa.WarpGroupOp)][1]
        loops = [op for op in consumer.walk() if isinstance(op, scf.ForOp)]
        assert all(not op.has_attr("tawa.pipeline") for op in loops)


class TestArefLowering:
    def test_tawa_ops_fully_lowered(self):
        compiled = compile_gemm()
        text = compiled.ir()
        for name in ("tawa.create_aref", "tawa.put", "tawa.get", "tawa.consumed",
                     "tawa.aref_slot", "tt.tma_load", "tt.dot"):
            assert name + "(" not in text and name + " " not in text, name
        assert "gpu.tma_async_load" in text
        assert "gpu.mbarrier_wait" in text
        assert "gpu.mbarrier_arrive" in text
        assert "gpu.mbarrier_expect_tx" in text

    def test_one_buffer_ring_and_two_barrier_arrays_per_aref(self):
        compiled = compile_gemm(aref_depth=2)
        allocs = [op for op in compiled.func.body.operations if op.name == "gpu.alloc_smem"]
        bars = [op for op in compiled.func.body.operations if op.name == "gpu.mbarrier_alloc"]
        assert len(allocs) == 2    # A ring and B ring
        assert len(bars) == 2      # empty + full arrays
        assert all(op.count == 2 for op in bars)
        assert all(op.buffer_type.shape[0] == 2 for op in allocs)

    def test_empty_barrier_arrival_count_matches_consumer_replicas(self):
        compiled = compile_gemm(num_consumer_groups=2)
        bars = [op for op in compiled.func.body.operations if op.name == "gpu.mbarrier_alloc"]
        counts = sorted(op.arrive_count for op in bars)
        assert counts == [0, 2]  # full barrier is tx-driven, empty waits for both replicas

    def test_expect_tx_bytes_cover_the_whole_tuple(self):
        compiled = compile_gemm()
        expects = [op for op in compiled.func.walk() if op.name == "gpu.mbarrier_expect_tx"]
        assert expects
        a_bytes = 64 * 32 * 2
        b_bytes = 128 * 32 * 2
        assert all(op.bytes == a_bytes + b_bytes for op in expects)

    def test_smem_footprint_scales_with_depth(self):
        small = compile_gemm(aref_depth=2).metadata.smem_bytes
        large = compile_gemm(aref_depth=3).metadata.smem_bytes
        assert large == pytest.approx(small * 1.5, rel=0.01)

    def test_lowered_ir_verifies(self):
        compiled = compile_gemm()
        verify(compiled.module)


class TestPersistentAndResources:
    def test_persistent_wraps_body_in_tile_loop(self):
        compiled = compile_gemm(persistent=True, lower_to="tawa")
        producer = [op for op in compiled.func.body.operations
                    if isinstance(op, tawa.WarpGroupOp)][0]
        outer_loops = [op for op in producer.body.operations if isinstance(op, scf.ForOp)]
        assert outer_loops, "persistent tile loop missing from the producer"
        text = print_op(compiled.func)
        assert "gpu.cta_id" in text and "gpu.num_tiles" in text and "gpu.num_ctas" in text

    def test_persistent_requires_1d_grid(self):
        with pytest.raises(CompileError, match="1-D grid"):
            compile_attention(persistent=True)

    def test_register_budget_rejects_large_tile_single_group(self):
        consts = dict(GEMM_CONSTS, Mt=128, Nt=256, Kt=64)
        with pytest.raises(CompileError, match="register"):
            compile_kernel(matmul_kernel, GEMM_TYPES, consts,
                           CompileOptions(num_consumer_groups=1))

    def test_cooperative_groups_make_large_tile_feasible(self):
        consts = dict(GEMM_CONSTS, Mt=128, Nt=256, Kt=64)
        compiled = compile_kernel(matmul_kernel, GEMM_TYPES, consts,
                                  CompileOptions(num_consumer_groups=2))
        assert compiled.metadata.consumer_replicas == 2

    def test_smem_budget_rejects_huge_depth(self):
        consts = dict(GEMM_CONSTS, Mt=128, Nt=256, Kt=64)
        with pytest.raises(CompileError, match="shared-memory"):
            compile_kernel(matmul_kernel, GEMM_TYPES, consts,
                           CompileOptions(aref_depth=8, num_consumer_groups=2))

    def test_validation_can_be_disabled(self):
        consts = dict(GEMM_CONSTS, Mt=128, Nt=256, Kt=64)
        compiled = compile_kernel(matmul_kernel, GEMM_TYPES, consts,
                                  CompileOptions(num_consumer_groups=1,
                                                 validate_resources=False))
        assert compiled.metadata.consumer_regs_per_thread > 232

    def test_resource_estimate_fields(self):
        compiled = compile_gemm(num_consumer_groups=2)
        est = compiled.metadata
        assert est.warp_specialized
        assert est.num_warp_groups == 3  # 1 producer + 2 cooperative consumers
        assert est.smem_bytes > 0
        assert "KiB" in est.describe()


class TestPipelineRegistry:
    def test_builtin_pipelines_registered(self):
        names = available_pipelines()
        for expected in ("tawa-gpu", "tawa-mid", "triton-baseline", "naive",
                         "frontend-only"):
            assert expected in names

    def test_options_resolve_to_pipeline_names(self):
        assert resolve_pipeline_name(CompileOptions()) == "tawa-gpu"
        assert resolve_pipeline_name(CompileOptions(lower_to="tawa")) == "tawa-mid"
        assert resolve_pipeline_name(CompileOptions(lower_to="tt")) == "frontend-only"
        assert resolve_pipeline_name(
            CompileOptions(enable_warp_specialization=False)) == "triton-baseline"
        assert resolve_pipeline_name(
            CompileOptions(enable_warp_specialization=False,
                           software_pipelining=False)) == "naive"

    def test_unknown_pipeline_rejected(self):
        with pytest.raises(CompileError, match="unknown pass pipeline"):
            get_pipeline("no-such-pipeline")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(CompileError, match="already registered"):
            register_pipeline(PipelineSpec("tawa-gpu", "dup", lambda o, c: []))

    def test_every_pipeline_is_bracketed(self):
        # Canonicalize in front, resource validation at the back -- for every
        # registered strategy.
        for options in (CompileOptions(), CompileOptions(lower_to="tawa"),
                        CompileOptions(lower_to="tt"),
                        CompileOptions(enable_warp_specialization=False)):
            names = [p.name for p in build_pass_pipeline(options).passes]
            assert names[0] == "canonicalize"
            assert names[-1] == "resource-validation"

    def test_compiled_artifact_records_pipeline_and_timings(self):
        compiled = compile_kernel(matmul_kernel, GEMM_TYPES, GEMM_CONSTS,
                                  CompileOptions(num_consumer_groups=2))
        assert compiled.pipeline == "tawa-gpu"
        assert compiled.fingerprint is not None
        assert "warp-specialize" in compiled.pass_timings
        assert all(seconds >= 0.0 for seconds in compiled.pass_timings.values())

    def test_compile_seconds_include_verification(self):
        compiled = compile_gemm()
        verify_seconds = COUNTERS.compile_verify_seconds
        assert verify_seconds > 0.0
        assert COUNTERS.compile_seconds >= (
            sum(compiled.pass_timings.values()) + verify_seconds) * (1 - 1e-9)
        # Verification is compile cost, not a pass.
        assert COUNTERS.compile_passes_run == len(build_pass_pipeline(
            CompileOptions()).passes)

    def test_no_verify_seconds_without_verify_each(self, monkeypatch):
        def unverified(options, config=None):
            pm = build_pass_pipeline(options, config)
            pm.verify_each = False
            return pm

        monkeypatch.setattr(compiler, "build_pass_pipeline", unverified)
        compile_gemm()
        assert COUNTERS.compile_passes_run > 0
        assert COUNTERS.compile_verify_seconds == 0.0


class TestDriver:
    def test_pipeline_contents_depend_on_options(self):
        ws_passes = [p.name for p in build_pass_pipeline(CompileOptions()).passes]
        baseline_passes = [p.name for p in build_pass_pipeline(
            CompileOptions(enable_warp_specialization=False)).passes]
        assert "warp-specialize" in ws_passes and "aref-lowering" in ws_passes
        assert "warp-specialize" not in baseline_passes
        assert "baseline-cp-async-pipeline" in baseline_passes

    def test_compile_requires_kernel_object(self):
        with pytest.raises(CompileError):
            compile_kernel(lambda x: x, {}, {}, CompileOptions())

    def test_dump_ir_records_pass_outputs(self):
        compiled = compile_kernel(matmul_kernel, GEMM_TYPES, GEMM_CONSTS,
                                  CompileOptions(), dump_ir=True)
        assert "warp-specialize" in compiled.pass_dumps
        assert "tawa.warp_group" in compiled.pass_dumps["warp-specialize"]

    def test_compiled_kernel_metadata(self):
        compiled = compile_gemm()
        assert compiled.name == "matmul_kernel"
        assert compiled.arg_names == ["a_desc", "b_desc", "c_ptr", "M", "N", "K"]
        assert "warp-specialized" in repr(compiled)
