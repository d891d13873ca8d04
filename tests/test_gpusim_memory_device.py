"""Tests for runtime memory objects and the Device launch API."""

import numpy as np
import pytest

from repro.core.options import CompileOptions, NAIVE_OPTIONS
from repro.gpusim.device import Device
from repro.gpusim.engine import SimulationError
from repro.gpusim.launch import linear_to_pid, normalize_grid
from repro.gpusim.memory import GlobalBuffer, Pointer, SmemTile, SymbolicTile, TensorDesc
from repro.ir.types import PointerType, TensorDescType, f8e4m3, f16
from repro.kernels.gemm import GemmProblem, make_gemm_inputs, matmul_kernel


class TestGlobalBuffer:
    def test_from_numpy_and_roundtrip(self):
        arr = np.arange(12, dtype=np.float32).reshape(3, 4)
        buf = GlobalBuffer.from_numpy(arr, "f32")
        np.testing.assert_array_equal(buf.to_numpy(), arr)
        assert buf.num_bytes == 12 * 4

    def test_fp8_logical_bytes(self):
        buf = GlobalBuffer.empty((16, 16), "f8e4m3")
        assert buf.num_bytes == 256  # one logical byte per element

    def test_read_tile_zero_fills_out_of_bounds(self):
        arr = np.ones((4, 4), dtype=np.float32)
        buf = GlobalBuffer.from_numpy(arr, "f32")
        tile = buf.read_tile((2, 2), (4, 4))
        assert tile[:2, :2].sum() == 4
        assert tile[2:, :].sum() == 0 and tile[:, 2:].sum() == 0

    def test_write_tile_clips_to_bounds(self):
        buf = GlobalBuffer.empty((4, 4), "f32")
        buf.write_tile((2, 2), np.full((4, 4), 7.0, dtype=np.float32))
        assert buf.to_numpy()[3, 3] == 7.0
        assert buf.to_numpy()[0, 0] == 0.0

    def test_gather_scatter_with_mask(self):
        buf = GlobalBuffer.from_numpy(np.arange(8, dtype=np.float32), "f32")
        offs = np.array([0, 3, 7, 100])
        vals = buf.gather(offs, mask=np.array([True, True, True, True]), other=-1.0)
        assert list(vals) == [0.0, 3.0, 7.0, -1.0]
        buf.scatter(np.array([1, 100]), np.array([9.0, 9.0]))
        assert buf.to_numpy()[1] == 9.0

    def test_non_functional_buffer_has_no_data(self):
        buf = GlobalBuffer.empty((8, 8), "f16", functional=False)
        assert not buf.is_functional
        with pytest.raises(RuntimeError):
            buf.to_numpy()


class TestSmemAndPointers:
    def test_smem_ring_slices_wrap(self):
        tile = SmemTile((2, 4, 4), f16, functional=True)
        tile.slice(0).write(np.ones((4, 4)))
        tile.slice(2).write(np.full((4, 4), 3.0))  # wraps back to slot 0
        assert tile.slice(0).read()[0, 0] == 3.0

    def test_symbolic_views_in_performance_mode(self):
        tile = SmemTile((2, 4, 4), f16, functional=False)
        assert isinstance(tile.slice(1).read(), SymbolicTile)

    def test_pointer_offsets_and_ir_type(self):
        buf = GlobalBuffer.empty((8,), "f16")
        ptr = Pointer(buf)
        moved = ptr.offset_by(np.arange(4))
        assert moved.shape == (4,)
        assert ptr.ir_type == PointerType(f16)

    def test_tensor_desc_tile_bytes(self):
        desc = TensorDesc(GlobalBuffer.empty((128, 128), "f8e4m3"))
        assert desc.tile_bytes((64, 64)) == 64 * 64
        assert desc.ir_type == TensorDescType(f8e4m3, 2)


class TestDeviceAPI:
    def test_grid_normalization(self):
        assert normalize_grid(8) == (8, 1, 1)
        assert normalize_grid((2, 3)) == (2, 3, 1)
        with pytest.raises(SimulationError):
            normalize_grid((0,))

    def test_linear_to_pid(self):
        assert linear_to_pid(5, (4, 2, 1)) == (1, 1, 0)

    def test_infer_arg_types(self):
        dev = Device(mode="functional")
        buf = dev.buffer(np.zeros((4, 4), dtype=np.float32), "f16")
        assert Device.infer_arg_type(dev.tensor_desc(buf)) == TensorDescType(f16, 2)
        assert Device.infer_arg_type(dev.pointer(buf)) == PointerType(f16)
        assert str(Device.infer_arg_type(3)) == "i32"
        assert str(Device.infer_arg_type(2.5)) == "f32"
        with pytest.raises(SimulationError):
            Device.infer_arg_type(np.zeros(4))

    def test_raw_numpy_arguments_rejected_at_launch(self):
        dev = Device(mode="functional")
        problem = GemmProblem(M=64, N=64, K=32, block_m=32, block_n=32, block_k=32)
        args, _, _ = make_gemm_inputs(problem, dev)
        args["c_ptr"] = np.zeros((64, 64))
        with pytest.raises(SimulationError, match="wrap arrays"):
            dev.run(matmul_kernel, problem.grid, args, problem.constexprs(), NAIVE_OPTIONS)

    def test_missing_argument_detected(self):
        dev = Device(mode="functional")
        problem = GemmProblem(M=64, N=64, K=32, block_m=32, block_n=32, block_k=32)
        args, _, _ = make_gemm_inputs(problem, dev)
        del args["K"]
        from repro.frontend import FrontendError

        with pytest.raises((SimulationError, FrontendError), match="missing"):
            dev.run(matmul_kernel, problem.grid, args, problem.constexprs(), NAIVE_OPTIONS)

    def test_compile_cache_reuses_specializations(self):
        dev = Device(mode="functional")
        problem = GemmProblem(M=64, N=64, K=32, block_m=32, block_n=32, block_k=32)
        args, _, _ = make_gemm_inputs(problem, dev)
        c1 = dev.compile(matmul_kernel, args, problem.constexprs(), NAIVE_OPTIONS)
        c2 = dev.compile(matmul_kernel, args, problem.constexprs(), NAIVE_OPTIONS)
        assert c1 is c2
        c3 = dev.compile(matmul_kernel, args, problem.constexprs(),
                         CompileOptions(enable_warp_specialization=True))
        assert c3 is not c1

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError):
            Device(mode="emulation")

    def test_performance_mode_extrapolates(self):
        dev = Device(mode="performance", max_ctas_per_sm_simulated=2)
        problem = GemmProblem(M=8192, N=8192, K=512, block_m=128, block_n=256, block_k=64)
        from repro.kernels.gemm import run_gemm

        result, c = run_gemm(dev, problem, CompileOptions(num_consumer_groups=2, aref_depth=3))
        assert c is None
        assert result.extrapolated
        assert result.simulated_ctas <= 2
        assert result.total_ctas == problem.grid
        assert result.tflops and result.tflops > 50

    def test_launch_result_describe(self):
        dev = Device(mode="functional")
        problem = GemmProblem(M=64, N=64, K=32, block_m=32, block_n=32, block_k=32)
        from repro.kernels.gemm import run_gemm

        result, _ = run_gemm(dev, problem, NAIVE_OPTIONS)
        text = result.describe()
        assert "us" in text and "TC util" in text
