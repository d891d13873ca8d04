"""Differential fuzzing: interpreter vs. plans vs. pooled vs. codegen.

Randomized small kernels and grids (seeded, so every CI run reproduces the
same cases) are executed through the simulator's four functional execution
paths:

* the IR interpreter (``engine="interp"``) -- the semantics oracle,
* compile-once execution plans (``engine="plans"``),
* persistent-pool execution (``workers=2`` on top of plans: long-lived
  workers and the reusable shared arena, :mod:`repro.gpusim.pool`), and
* vectorized codegen (``engine="codegen"``: one generated NumPy batch call per
  launch, :mod:`repro.gpusim.codegen`, falling back to plans for kernels the
  emitter cannot vectorize -- the fallback path is differential-tested too),

and the results must agree **bit-for-bit**: output buffers (compared as raw
bytes), total cycles, per-CTA cycle lists, tensor-core utilization and bytes
copied.

Two kernel families are fuzzed:

* *elementwise* -- a pointer/load/store kernel whose arithmetic structure
  (two constexpr-selected op slots), block size, element count and grid are
  randomized; exercises masked tt.load/tt.store, tt.where and scalar
  control flow.
* *gemm* -- the paper's GEMM with randomized problem/tile sizes and a
  randomized compilation path (warp-specialized, persistent, Triton-style,
  naive); exercises TMA, arefs, WGMMA and every pipeline lowering.
* *rowop* -- randomized per-row reduction kernels (softmax, mean-centering,
  RMS normalization, max-shift) over ragged masked rows; exercises the
  ``tl.max`` / ``tl.sum`` / ``tl.exp`` / ``tl.rsqrt`` surface the softmax
  and LayerNorm workloads are built from.
* *splitk* -- the split-K GEMM **two-launch pipeline** (partial products +
  reduction epilogue) with randomized split counts and tile shapes,
  submitted through ``Device.run_many``; exercises cross-launch buffer
  reuse under pooled execution and the reduction-epilogue accumulation
  order.
* *chaos* -- a seeded GEMM case with **one random injected fault**
  (worker kill, worker hang or pipe corruption, via :mod:`repro.faults`)
  per iteration: the pooled launch, where the fault respawns a persistent
  worker, must recover (retry, or degrade to the in-process serial
  fallback) and still produce an :class:`Observation` bit-identical to the
  serial plans engine.

On failure the harness *shrinks* the case (halving sizes, simplifying ops
and options) and reports the smallest configuration that still disagrees,
plus the seed to reproduce it.

Environment knobs: ``REPRO_FUZZ_CASES`` (cases per family, default 5),
``REPRO_FUZZ_SEED`` (base seed, default 20260726).
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass

import numpy as np
import pytest

from repro import faults
from repro.core.options import CompileOptions, NAIVE_OPTIONS, TRITON_BASELINE_OPTIONS
from repro.frontend import kernel, tl
from repro.gpusim.device import Device
from repro.kernels.gemm import GemmProblem, make_gemm_inputs, matmul_kernel
from repro.kernels.splitk_gemm import SplitKGemmProblem, run_splitk_gemm

BASE_SEED = int(os.environ.get("REPRO_FUZZ_SEED", "20260726"))
CASES_PER_FAMILY = int(os.environ.get("REPRO_FUZZ_CASES", "5"))
MAX_SHRINK_STEPS = 24

ENGINES = ("interpreter", "plans", "pooled", "codegen")


def _device(engine: str) -> Device:
    if engine == "interpreter":
        return Device(mode="functional", engine="interp", workers=1)
    if engine == "plans":
        return Device(mode="functional", engine="plans", workers=1)
    if engine == "codegen":
        return Device(mode="functional", engine="codegen", workers=1)
    return Device(mode="functional", engine="plans", workers=2)


@dataclass(frozen=True)
class Observation:
    """Everything an execution path produces, in comparable form."""

    output: bytes
    cycles: float
    per_cta_cycles: tuple[float, ...]
    utilization: float
    bytes_copied: int

    def diff(self, other: "Observation") -> list[str]:
        mismatches = []
        if self.output != other.output:
            mismatches.append("output bytes")
        if self.cycles != other.cycles:
            mismatches.append(f"cycles ({self.cycles} vs {other.cycles})")
        if self.per_cta_cycles != other.per_cta_cycles:
            mismatches.append("per-CTA cycles")
        if self.utilization != other.utilization:
            mismatches.append("tensor-core utilization")
        if self.bytes_copied != other.bytes_copied:
            mismatches.append("bytes copied")
        return mismatches


# ---------------------------------------------------------------------------
# Family 1: randomized elementwise kernels
# ---------------------------------------------------------------------------


@kernel
def _fuzz_elementwise_kernel(x_ptr, y_ptr, out_ptr, n,
                             OP1: tl.constexpr, OP2: tl.constexpr,
                             BLOCK: tl.constexpr):
    """Structure-randomized elementwise kernel (two constexpr op slots)."""
    pid = tl.program_id(axis=0)
    offs = pid * BLOCK + tl.arange(0, BLOCK)
    mask = offs < n
    x = tl.load(x_ptr + offs, mask=mask, other=0.0)
    y = tl.load(y_ptr + offs, mask=mask, other=0.0)
    if OP1 == 0:
        r = x + y
    elif OP1 == 1:
        r = x * y
    elif OP1 == 2:
        r = tl.maximum(x, y)
    else:
        r = x - y
    if OP2 == 0:
        r = r + x
    elif OP2 == 1:
        r = tl.where(r > 0.0, r, x)
    elif OP2 == 2:
        r = tl.minimum(r, y)
    # OP2 == 3: identity (shorter op chain)
    tl.store(out_ptr + offs, r, mask=mask)


_EW_OPTIONS = [CompileOptions(), TRITON_BASELINE_OPTIONS, NAIVE_OPTIONS]


@dataclass(frozen=True)
class ElementwiseCase:
    n: int
    block: int
    op1: int
    op2: int
    options_index: int
    data_seed: int

    def describe(self) -> str:
        return (f"elementwise(n={self.n}, block={self.block}, op1={self.op1}, "
                f"op2={self.op2}, options={self.options_index}, "
                f"data_seed={self.data_seed})")

    @classmethod
    def random(cls, rng: np.random.Generator) -> "ElementwiseCase":
        block = int(rng.choice([16, 32, 64, 128]))
        # Bias towards a ragged final block so masked stores are exercised.
        blocks = int(rng.integers(1, 7))
        n = block * blocks - (int(rng.integers(1, block)) if rng.random() < 0.7 else 0)
        return cls(
            n=max(1, n),
            block=block,
            op1=int(rng.integers(0, 4)),
            op2=int(rng.integers(0, 4)),
            options_index=int(rng.integers(0, len(_EW_OPTIONS))),
            data_seed=int(rng.integers(0, 2**31)),
        )

    def execute(self, engine: str) -> Observation:
        device = _device(engine)
        rng = np.random.default_rng(self.data_seed)
        x = rng.standard_normal(self.n, dtype=np.float32)
        y = rng.standard_normal(self.n, dtype=np.float32)
        args = {
            "x_ptr": device.pointer(x, "f32"),
            "y_ptr": device.pointer(y, "f32"),
            "out_ptr": device.pointer(np.zeros(self.n, np.float32), "f32"),
            "n": self.n,
        }
        result = device.run(
            _fuzz_elementwise_kernel,
            grid=-(-self.n // self.block),
            args=args,
            constexprs={"OP1": self.op1, "OP2": self.op2, "BLOCK": self.block},
            options=_EW_OPTIONS[self.options_index],
        )
        return Observation(
            output=args["out_ptr"].buffer.to_numpy().tobytes(),
            cycles=result.cycles,
            per_cta_cycles=tuple(result.per_cta_cycles),
            utilization=result.tensor_core_utilization,
            bytes_copied=result.bytes_copied,
        )

    def shrink_candidates(self) -> list["ElementwiseCase"]:
        out = []
        if self.n > 1:
            out.append(dataclasses.replace(self, n=max(1, self.n // 2)))
        if self.block > 16:
            out.append(dataclasses.replace(self, block=self.block // 2))
        if self.op1 != 3:
            out.append(dataclasses.replace(self, op1=3))
        if self.op2 != 3:
            out.append(dataclasses.replace(self, op2=3))
        if self.options_index != 0:
            out.append(dataclasses.replace(self, options_index=0))
        return out


# ---------------------------------------------------------------------------
# Family 2: randomized GEMM problems and compilation paths
# ---------------------------------------------------------------------------


_GEMM_OPTIONS = [
    CompileOptions(),
    CompileOptions(enable_warp_specialization=True, aref_depth=2,
                   mma_pipeline_depth=2, num_consumer_groups=2),
    CompileOptions(enable_warp_specialization=True, aref_depth=3,
                   mma_pipeline_depth=2, num_consumer_groups=2, persistent=True),
    CompileOptions(enable_warp_specialization=True, aref_depth=2,
                   mma_pipeline_depth=1, num_consumer_groups=1),
    TRITON_BASELINE_OPTIONS,
    NAIVE_OPTIONS,
]


@dataclass(frozen=True)
class GemmCase:
    m_blocks: int
    n_blocks: int
    k_steps: int
    block_m: int
    block_n: int
    block_k: int
    options_index: int
    data_seed: int

    def describe(self) -> str:
        return (f"gemm(M={self.m_blocks}x{self.block_m}, "
                f"N={self.n_blocks}x{self.block_n}, K={self.k_steps}x{self.block_k}, "
                f"options={self.options_index}, data_seed={self.data_seed})")

    @classmethod
    def random(cls, rng: np.random.Generator) -> "GemmCase":
        return cls(
            m_blocks=int(rng.integers(1, 4)),
            n_blocks=int(rng.integers(1, 4)),
            k_steps=int(rng.integers(1, 4)),
            block_m=int(rng.choice([32, 64])),
            block_n=int(rng.choice([32, 64])),
            block_k=32,
            options_index=int(rng.integers(0, len(_GEMM_OPTIONS))),
            data_seed=int(rng.integers(0, 2**31)),
        )

    def problem(self) -> GemmProblem:
        return GemmProblem(
            M=self.m_blocks * self.block_m,
            N=self.n_blocks * self.block_n,
            K=self.k_steps * self.block_k,
            block_m=self.block_m,
            block_n=self.block_n,
            block_k=self.block_k,
            seed=self.data_seed,
        )

    def execute(self, engine: str) -> Observation:
        return self.observe(_device(engine))

    def observe(self, device: Device) -> Observation:
        problem = self.problem()
        args, _, _ = make_gemm_inputs(problem, device)
        result = device.run(
            matmul_kernel,
            grid=problem.grid,
            args=args,
            constexprs=problem.constexprs(),
            options=_GEMM_OPTIONS[self.options_index],
            flops=problem.flops,
        )
        return Observation(
            output=args["c_ptr"].buffer.to_numpy().tobytes(),
            cycles=result.cycles,
            per_cta_cycles=tuple(result.per_cta_cycles),
            utilization=result.tensor_core_utilization,
            bytes_copied=result.bytes_copied,
        )

    def shrink_candidates(self) -> list["GemmCase"]:
        out = []
        for attr in ("m_blocks", "n_blocks", "k_steps"):
            if getattr(self, attr) > 1:
                out.append(dataclasses.replace(self, **{attr: getattr(self, attr) // 2}))
        for attr in ("block_m", "block_n"):
            if getattr(self, attr) > 32:
                out.append(dataclasses.replace(self, **{attr: 32}))
        if self.options_index != 0:
            out.append(dataclasses.replace(self, options_index=0))
        return out


# ---------------------------------------------------------------------------
# Family 3: randomized per-row reduction kernels (softmax / normalization)
# ---------------------------------------------------------------------------


@kernel
def _fuzz_rowop_kernel(x_ptr, out_ptr, n_cols, inv_n,
                       OP: tl.constexpr, COLS: tl.constexpr):
    """One constexpr-selected row reduction per program, over a masked row."""
    pid = tl.program_id(axis=0)
    col = tl.arange(0, COLS)
    mask = col < n_cols
    x = tl.load(x_ptr + pid * n_cols + col, mask=mask, other=0.0)
    if OP == 0:  # numerically-stable softmax
        xm = tl.where(mask, x, float("-inf"))
        m = tl.max(xm, axis=0)
        e = tl.where(mask, tl.exp(xm - m), 0.0)
        r = e / tl.sum(e, axis=0)
    elif OP == 1:  # mean-centering (LayerNorm's first half)
        mean = tl.sum(x, axis=0) * inv_n
        r = tl.where(mask, x - mean, 0.0)
    elif OP == 2:  # RMS normalization
        ms = tl.sum(x * x, axis=0) * inv_n
        r = x * tl.rsqrt(ms + 1e-5)
    else:  # max-shift
        m = tl.max(tl.where(mask, x, float("-inf")), axis=0)
        r = x - m
    tl.store(out_ptr + pid * n_cols + col, r, mask=mask)


@dataclass(frozen=True)
class RowOpCase:
    rows: int
    cols: int
    block: int  # COLS constexpr; >= cols
    op: int
    options_index: int
    data_seed: int

    def describe(self) -> str:
        return (f"rowop(rows={self.rows}, cols={self.cols}, block={self.block}, "
                f"op={self.op}, options={self.options_index}, "
                f"data_seed={self.data_seed})")

    @classmethod
    def random(cls, rng: np.random.Generator) -> "RowOpCase":
        block = int(rng.choice([16, 32, 64, 128]))
        # Bias towards ragged rows so the masked reduction lanes are hit.
        cols = block - (int(rng.integers(1, block)) if rng.random() < 0.7 else 0)
        return cls(
            rows=int(rng.integers(1, 7)),
            cols=max(1, cols),
            block=block,
            op=int(rng.integers(0, 4)),
            options_index=int(rng.integers(0, len(_EW_OPTIONS))),
            data_seed=int(rng.integers(0, 2**31)),
        )

    def execute(self, engine: str) -> Observation:
        device = _device(engine)
        rng = np.random.default_rng(self.data_seed)
        x = rng.standard_normal((self.rows, self.cols), dtype=np.float32) * 2.0
        args = {
            "x_ptr": device.pointer(x, "f32"),
            "out_ptr": device.pointer(np.zeros((self.rows, self.cols),
                                               np.float32), "f32"),
            "n_cols": self.cols,
            "inv_n": 1.0 / self.cols,
        }
        result = device.run(
            _fuzz_rowop_kernel,
            grid=self.rows,
            args=args,
            constexprs={"OP": self.op, "COLS": self.block},
            options=_EW_OPTIONS[self.options_index],
        )
        return Observation(
            output=args["out_ptr"].buffer.to_numpy().tobytes(),
            cycles=result.cycles,
            per_cta_cycles=tuple(result.per_cta_cycles),
            utilization=result.tensor_core_utilization,
            bytes_copied=result.bytes_copied,
        )

    def shrink_candidates(self) -> list["RowOpCase"]:
        out = []
        if self.rows > 1:
            out.append(dataclasses.replace(self, rows=max(1, self.rows // 2)))
        if self.block > 16:
            out.append(dataclasses.replace(
                self, block=self.block // 2, cols=min(self.cols, self.block // 2)))
        if self.op != 3:
            out.append(dataclasses.replace(self, op=3))
        if self.options_index != 0:
            out.append(dataclasses.replace(self, options_index=0))
        return out


# ---------------------------------------------------------------------------
# Family 4: split-K accumulation pipelines (two launches via run_many)
# ---------------------------------------------------------------------------

# Persistent kernels require a 1-D grid; split-K rides the second grid axis,
# so that configuration is statically infeasible rather than fuzzable.
_SPLITK_OPTIONS = [opt for opt in _GEMM_OPTIONS
                   if not getattr(opt, "persistent", False)]


@dataclass(frozen=True)
class SplitKCase:
    m_blocks: int
    n_blocks: int
    splits: int
    k_steps_per_split: int
    options_index: int
    data_seed: int

    BLOCK = 32

    def describe(self) -> str:
        return (f"splitk(M={self.m_blocks}x{self.BLOCK}, N={self.n_blocks}x{self.BLOCK}, "
                f"splits={self.splits}, ksteps={self.k_steps_per_split}, "
                f"options={self.options_index}, data_seed={self.data_seed})")

    @classmethod
    def random(cls, rng: np.random.Generator) -> "SplitKCase":
        return cls(
            m_blocks=int(rng.integers(1, 3)),
            n_blocks=int(rng.integers(1, 3)),
            splits=int(rng.choice([1, 2, 4])),
            k_steps_per_split=int(rng.integers(1, 3)),
            options_index=int(rng.integers(0, len(_SPLITK_OPTIONS))),
            data_seed=int(rng.integers(0, 2**31)),
        )

    def problem(self) -> SplitKGemmProblem:
        return SplitKGemmProblem(
            M=self.m_blocks * self.BLOCK,
            N=self.n_blocks * self.BLOCK,
            K=self.splits * self.k_steps_per_split * self.BLOCK,
            splits=self.splits,
            block_m=self.BLOCK,
            block_n=self.BLOCK,
            block_k=self.BLOCK,
            reduce_block=64,
            seed=self.data_seed,
        )

    def execute(self, engine: str) -> Observation:
        device = _device(engine)
        results, c = run_splitk_gemm(device, self.problem(),
                                     _SPLITK_OPTIONS[self.options_index])
        return Observation(
            output=c.tobytes(),
            cycles=sum(r.cycles for r in results),
            per_cta_cycles=tuple(c for r in results for c in r.per_cta_cycles),
            utilization=sum(r.tensor_core_utilization for r in results),
            bytes_copied=sum(r.bytes_copied for r in results),
        )

    def shrink_candidates(self) -> list["SplitKCase"]:
        out = []
        for attr in ("m_blocks", "n_blocks", "k_steps_per_split"):
            if getattr(self, attr) > 1:
                out.append(dataclasses.replace(self, **{attr: getattr(self, attr) // 2}))
        if self.splits > 1:
            out.append(dataclasses.replace(self, splits=self.splits // 2))
        if self.options_index != 0:
            out.append(dataclasses.replace(self, options_index=0))
        return out


# ---------------------------------------------------------------------------
# Family 5: chaos -- pooled execution with one injected fault per case
# ---------------------------------------------------------------------------

_CHAOS_FAULT_KINDS = ("kill", "hang", "pipe")

#: Supervision policy the chaos cases run under: a short hang deadline (so a
#: faulted-in hang resolves in test time, with heartbeats scaled down with
#: it) and the default retry budget.
_CHAOS_TIMEOUT = 0.5


@dataclass(frozen=True)
class ChaosCase:
    """A pooled GEMM launch with one randomly-placed injected fault.

    The fault targets a random worker (and, for kill/hang, a random CTA
    ordinal within its shard -- which may not exist, in which case nothing
    fires and the case degenerates to a clean differential: also worth
    checking).  The supervised launch must recover and match the serial
    plans engine bit-for-bit.
    """

    gemm: GemmCase
    fault_kind: str
    fault_worker: int
    fault_cta: int

    def describe(self) -> str:
        return (f"chaos({self.fault_spec()} into {self.gemm.describe()})")

    @classmethod
    def random(cls, rng: np.random.Generator) -> "ChaosCase":
        gemm = GemmCase.random(rng)
        if gemm.m_blocks * gemm.n_blocks < 2:
            # The launch must actually shard for the fault to have a target.
            gemm = dataclasses.replace(gemm, n_blocks=2)
        return cls(
            gemm=gemm,
            fault_kind=_CHAOS_FAULT_KINDS[int(rng.integers(0, 3))],
            fault_worker=int(rng.integers(0, 2)),
            fault_cta=int(rng.integers(0, 2)),
        )

    def fault_spec(self) -> str:
        if self.fault_kind == "pipe":
            return f"pipe:worker={self.fault_worker}"
        # seconds far beyond the deadline: the supervisor, not the sleep,
        # must end an injected hang
        return (f"{self.fault_kind}:worker={self.fault_worker},"
                f"cta={self.fault_cta},seconds=60")

    def execute(self, engine: str) -> Observation:
        if engine == "pooled":
            device = Device(mode="functional", engine="plans", workers=2,
                            shard_timeout=_CHAOS_TIMEOUT, shard_retries=2)
        else:
            return self.gemm.execute(engine)
        with faults.inject_faults(self.fault_spec()):
            return self.gemm.observe(device)

    def shrink_candidates(self) -> list["ChaosCase"]:
        out = [dataclasses.replace(self, gemm=candidate)
               for candidate in self.gemm.shrink_candidates()]
        if self.fault_cta != 0:
            out.append(dataclasses.replace(self, fault_cta=0))
        if self.fault_worker != 0:
            out.append(dataclasses.replace(self, fault_worker=0))
        return out


# ---------------------------------------------------------------------------
# The differential harness
# ---------------------------------------------------------------------------


def _disagreement(case) -> str | None:
    """Run a case through every engine; a description of any mismatch."""
    oracle = case.execute(ENGINES[0])
    for engine in ENGINES[1:]:
        observed = case.execute(engine)
        mismatches = oracle.diff(observed)
        if mismatches:
            return f"{engine} vs interpreter: " + ", ".join(mismatches)
    return None


def _shrink(case, steps: int = MAX_SHRINK_STEPS):
    """Greedily shrink a failing case while it keeps failing."""
    failure = _disagreement(case)
    assert failure is not None
    for _ in range(steps):
        for candidate in case.shrink_candidates():
            candidate_failure = _disagreement(candidate)
            if candidate_failure is not None:
                case, failure = candidate, candidate_failure
                break
        else:
            break  # no smaller failing candidate: minimal
    return case, failure


def _check(case) -> None:
    failure = _disagreement(case)
    if failure is None:
        return
    minimal, minimal_failure = _shrink(case)
    pytest.fail(
        f"differential fuzzing found a divergence.\n"
        f"  original: {case.describe()}\n    -> {failure}\n"
        f"  shrunk:   {minimal.describe()}\n    -> {minimal_failure}\n"
        f"  reproduce with REPRO_FUZZ_SEED={BASE_SEED}"
    )


def _cases(factory, count: int, salt: int):
    rng = np.random.default_rng(BASE_SEED + salt)
    return [factory(rng) for _ in range(count)]


@pytest.mark.parametrize("case", _cases(ElementwiseCase.random, CASES_PER_FAMILY, 1),
                         ids=lambda c: c.describe())
def test_fuzz_elementwise(case):
    _check(case)


@pytest.mark.parametrize("case", _cases(GemmCase.random, CASES_PER_FAMILY, 2),
                         ids=lambda c: c.describe())
def test_fuzz_gemm(case):
    _check(case)


@pytest.mark.parametrize("case", _cases(RowOpCase.random, CASES_PER_FAMILY, 3),
                         ids=lambda c: c.describe())
def test_fuzz_rowop(case):
    _check(case)


@pytest.mark.parametrize("case", _cases(SplitKCase.random, CASES_PER_FAMILY, 4),
                         ids=lambda c: c.describe())
def test_fuzz_splitk(case):
    _check(case)


@pytest.mark.parametrize("case", _cases(ChaosCase.random, CASES_PER_FAMILY, 5),
                         ids=lambda c: c.describe())
def test_fuzz_chaos(case):
    """Sharded execution stays bit-identical to serial under injected faults."""
    _check(case)


def test_shrinker_reaches_a_minimal_case():
    """The shrinker's search space bottoms out at the smallest configuration."""
    case = ElementwiseCase(n=128, block=32, op1=2, op2=1, options_index=2,
                           data_seed=7)
    seen = set()
    while True:
        seen.add(case)
        candidates = case.shrink_candidates()
        if not candidates:
            break
        case = candidates[0]
        assert case not in seen, "shrinking must strictly reduce the case"
    assert case.n == 1 and case.block == 16
    assert case.op1 == 3 and case.op2 == 3 and case.options_index == 0
