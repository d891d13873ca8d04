"""The workload registry, the four new LLM kernel scenarios and the CLI.

Covers the tentpole of the workload-registry PR:

* registry behaviour (registration, lookup, duplicate protection);
* functional correctness of softmax / LayerNorm / split-K GEMM / fused
  elementwise against their NumPy references, across compilation paths;
* bit-identical results across the interpreter, execution plans and
  2-worker pooled execution for every new workload;
* :func:`repro.experiments.common.measure_sweep` resolving points through
  the registry, including the multi-launch split-K pipeline;
* the ``python -m repro.workloads`` CLI (list / functional run / perf sweep).
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.options import CompileOptions, NAIVE_OPTIONS, TRITON_BASELINE_OPTIONS
from repro.experiments.common import SweepPoint, measure_sweep, measure_workload, perf_device
from repro.gpusim.device import Device
from repro.kernels.fused_elementwise import (
    ACT_GELU,
    ACT_RELU,
    ACT_SILU,
    FusedElementwiseProblem,
    check_fused_elementwise,
    run_fused_elementwise,
)
from repro.kernels.layernorm import LayerNormProblem, check_layernorm, run_layernorm
from repro.kernels.softmax import SoftmaxProblem, check_softmax, run_softmax
from repro.kernels.splitk_gemm import (
    SplitKGemmProblem,
    check_splitk_gemm,
    run_splitk_gemm,
)
from repro import workloads
from repro.workloads import Workload
from repro.workloads.cli import main as cli_main


SMALL_SOFTMAX = SoftmaxProblem(rows=12, cols=75)
SMALL_LAYERNORM = LayerNormProblem(rows=10, cols=90)
SMALL_SPLITK = SplitKGemmProblem(M=64, N=64, K=256, splits=2, block_m=32,
                                 block_n=32, block_k=32, reduce_block=64)
SMALL_FUSED = FusedElementwiseProblem(rows=9, cols=70, activation=ACT_GELU)


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------


class TestRegistry:
    def test_all_eight_workloads_registered(self):
        names = workloads.list_workloads()
        assert len(names) >= 8
        for expected in ("gemm", "batched_gemm", "grouped_gemm", "attention",
                         "softmax", "layernorm", "splitk_gemm",
                         "fused_elementwise"):
            assert expected in names

    def test_get_returns_complete_records(self):
        for name in workloads.list_workloads():
            workload = workloads.get(name)
            assert workload.name == name
            assert workload.description
            assert workload.problem_cls is not None
            assert isinstance(workload.check_problem(),
                              workload.problem_cls)
            assert workload.reduced_sweep(), f"{name} has an empty sweep"
            assert workload.bytes_moved(workload.check_problem()) > 0
            assert workload.flops(workload.check_problem()) > 0

    def test_unknown_name_raises_with_known_names(self):
        with pytest.raises(KeyError, match="softmax"):
            workloads.get("nope")

    def test_duplicate_registration_rejected(self):
        existing = workloads.get("softmax")
        with pytest.raises(ValueError, match="already registered"):
            workloads.register(existing)

    def test_register_unregister_round_trip(self):
        probe = Workload(
            name="_probe",
            description="test-only",
            problem_cls=SoftmaxProblem,
            make_specs=lambda d, p, o: [],
            check=lambda d, p, o: None,
            bytes_moved=lambda p: 1.0,
        )
        workloads.register(probe)
        try:
            assert "_probe" in workloads.list_workloads()
            assert workloads.get("_probe") is probe
        finally:
            workloads.unregister("_probe")
        assert "_probe" not in workloads.list_workloads()


# ---------------------------------------------------------------------------
# Functional correctness of the new kernels
# ---------------------------------------------------------------------------


OPTION_PATHS = [CompileOptions(), TRITON_BASELINE_OPTIONS, NAIVE_OPTIONS]


class TestNewKernels:
    @pytest.mark.parametrize("options", OPTION_PATHS, ids=["default", "triton", "naive"])
    def test_softmax_matches_reference(self, functional_device, options):
        check_softmax(functional_device, SMALL_SOFTMAX, options)

    def test_softmax_rows_sum_to_one(self, functional_device):
        _, out = run_softmax(functional_device, SMALL_SOFTMAX)
        np.testing.assert_allclose(out.sum(axis=1), 1.0, rtol=1e-5)

    def test_softmax_exact_block_width(self, functional_device):
        # cols == padded COLS: the mask is all-true, no ragged lanes.
        check_softmax(functional_device, SoftmaxProblem(rows=4, cols=64))

    @pytest.mark.parametrize("options", OPTION_PATHS, ids=["default", "triton", "naive"])
    def test_layernorm_matches_reference(self, functional_device, options):
        check_layernorm(functional_device, SMALL_LAYERNORM, options)

    def test_layernorm_output_is_normalized(self, functional_device):
        problem = LayerNormProblem(rows=8, cols=128)
        _, out = run_layernorm(functional_device, problem)
        # With w ~ N(1, .5), b ~ N(0, .5) the raw normalized rows are recovered
        # by inverting the affine part of the reference inputs.
        from repro.kernels.layernorm import make_layernorm_inputs

        _, (x, w, b) = make_layernorm_inputs(problem, functional_device)
        raw = (out - b) / w
        np.testing.assert_allclose(raw.mean(axis=1), 0.0, atol=1e-4)
        np.testing.assert_allclose(raw.std(axis=1), 1.0, atol=1e-2)

    @pytest.mark.parametrize("splits", [1, 2, 4])
    def test_splitk_matches_reference(self, functional_device, splits):
        problem = SplitKGemmProblem(M=64, N=64, K=256, splits=splits,
                                    block_m=32, block_n=32, block_k=32,
                                    reduce_block=64)
        check_splitk_gemm(functional_device, problem)

    def test_splitk_warp_specialized_path(self, functional_device, ws_options):
        check_splitk_gemm(functional_device, SMALL_SPLITK, ws_options)

    def test_splitk_rejects_misaligned_k(self):
        with pytest.raises(ValueError, match="multiple of"):
            SplitKGemmProblem(M=64, N=64, K=100, splits=2, block_k=32)

    def test_splitk_matches_plain_gemm(self, functional_device):
        """Split-K over the same data agrees with the one-kernel GEMM."""
        from repro.kernels.gemm import GemmProblem, run_gemm

        _, c_split = run_splitk_gemm(functional_device, SMALL_SPLITK)
        gemm = GemmProblem(M=64, N=64, K=256, block_m=32, block_n=32,
                           block_k=32, seed=SMALL_SPLITK.seed)
        _, c_plain = run_gemm(functional_device, gemm)
        np.testing.assert_allclose(c_split.astype(np.float32),
                                   c_plain.astype(np.float32),
                                   rtol=2e-2, atol=2e-2)

    @pytest.mark.parametrize("act", [ACT_RELU, ACT_GELU, ACT_SILU])
    def test_fused_elementwise_matches_reference(self, functional_device, act):
        problem = FusedElementwiseProblem(rows=7, cols=60, activation=act)
        check_fused_elementwise(functional_device, problem)

    def test_fused_activations_specialize_distinctly(self, functional_device):
        relu = FusedElementwiseProblem(rows=4, cols=32, activation=ACT_RELU)
        silu = FusedElementwiseProblem(rows=4, cols=32, activation=ACT_SILU)
        _, out_relu = run_fused_elementwise(functional_device, relu)
        _, out_silu = run_fused_elementwise(functional_device, silu)
        assert not np.allclose(out_relu, out_silu)


# ---------------------------------------------------------------------------
# Differential: interpreter vs plans vs pooled, bit-for-bit
# ---------------------------------------------------------------------------


def _observe(engine: str, runner, problem):
    if engine == "interpreter":
        device = Device(mode="functional", engine="interp", workers=1)
    elif engine == "plans":
        device = Device(mode="functional", engine="plans", workers=1)
    else:
        device = Device(mode="functional", engine="plans", workers=2)
    result, out = runner(device, problem)
    if isinstance(result, list):  # multi-launch workloads
        cycles = tuple(r.cycles for r in result)
        per_cta = tuple(tuple(r.per_cta_cycles) for r in result)
    else:
        cycles = result.cycles
        per_cta = tuple(result.per_cta_cycles)
    return cycles, per_cta, out.tobytes()


NEW_WORKLOAD_RUNNERS = [
    ("softmax", run_softmax, SMALL_SOFTMAX),
    ("layernorm", run_layernorm, SMALL_LAYERNORM),
    ("splitk_gemm", run_splitk_gemm, SMALL_SPLITK),
    ("fused_elementwise", run_fused_elementwise, SMALL_FUSED),
]


@pytest.mark.parametrize("name,runner,problem", NEW_WORKLOAD_RUNNERS,
                         ids=[row[0] for row in NEW_WORKLOAD_RUNNERS])
def test_new_workloads_bit_identical_across_engines(name, runner, problem):
    oracle = _observe("interpreter", runner, problem)
    for engine in ("plans", "pooled"):
        observed = _observe(engine, runner, problem)
        assert observed[0] == oracle[0], f"{name}: cycles diverged on {engine}"
        assert observed[1] == oracle[1], f"{name}: per-CTA cycles diverged on {engine}"
        assert observed[2] == oracle[2], f"{name}: output bytes diverged on {engine}"


# ---------------------------------------------------------------------------
# Sweeps through the registry
# ---------------------------------------------------------------------------


class TestSweepIntegration:
    def test_measure_sweep_accepts_every_registered_workload(self):
        device = perf_device()
        points = [
            SweepPoint(name, workloads.get(name).reduced_sweep()[0],
                       workloads.get(name).default_options())
            for name in workloads.list_workloads()
        ]
        values = measure_sweep(device, points)
        assert len(values) == len(points)
        assert all(v > 0.0 for v in values)

    def test_multi_launch_point_scores_once(self):
        """A split-K point expands to two launches but yields one value."""
        device = perf_device()
        problem = SplitKGemmProblem(M=256, N=256, K=4096, splits=4)
        values = measure_sweep(device, [
            SweepPoint("splitk_gemm", problem, CompileOptions()),
            SweepPoint("gemm", workloads.get("gemm").reduced_sweep()[0],
                       workloads.get("gemm").default_options()),
        ])
        assert len(values) == 2 and all(v > 0.0 for v in values)

    def test_infeasible_point_scores_zero(self):
        device = perf_device()
        values = measure_sweep(device, [SweepPoint("softmax", SMALL_SOFTMAX, None)])
        assert values == [0.0]

    def test_measure_workload_uses_registry_defaults(self):
        device = perf_device()
        value = measure_workload(device, "layernorm",
                                 LayerNormProblem(rows=2048, cols=1024))
        assert value > 0.0

    def test_functional_sweep_matches_references(self):
        """run_many-driven sweep on a functional device stays correct."""
        device = Device(mode="functional")
        problem = SMALL_SPLITK
        specs = workloads.build_sweep_specs(device, workloads.get("splitk_gemm"),
                                            problem, CompileOptions())
        device.run_many(specs)
        from repro.kernels.splitk_gemm import make_splitk_inputs, splitk_reference

        _, _, (a, b) = make_splitk_inputs(problem, device)
        out = specs[1].args["c_ptr"].buffer.to_numpy().astype(np.float32)
        np.testing.assert_allclose(out, splitk_reference(a, b, problem).astype(np.float32),
                                   rtol=2e-2, atol=2e-2)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


class TestCli:
    def test_list_prints_every_workload(self, capsys):
        assert cli_main(["list"]) == 0
        out = capsys.readouterr().out
        for name in workloads.list_workloads():
            assert name in out

    def test_functional_run_passes(self, capsys):
        names = ["softmax", "fused_elementwise"]
        assert cli_main(["run", *names, "--mode", "functional"]) == 0
        out = capsys.readouterr().out
        assert out.count(" ok ") >= 2 or out.count("ok") >= 2

    def test_perf_smoke_run_writes_json(self, tmp_path, capsys):
        path = tmp_path / "sweep.json"
        assert cli_main(["run", "softmax", "layernorm", "--mode", "perf",
                         "--sweep", "smoke", "--json", str(path)]) == 0
        capsys.readouterr()
        doc = json.loads(path.read_text())
        assert doc["mode"] == "perf"
        assert len(doc["sweep"]) == 2
        assert all(row["tflops"] > 0 for row in doc["sweep"])
        assert "compile_cache_misses" in doc["counters"]

    def test_unknown_workload_is_an_error(self):
        with pytest.raises(SystemExit):
            cli_main(["run", "not-a-workload"])
