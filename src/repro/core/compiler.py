"""The Tawa compilation driver.

``compile_kernel`` takes an annotation-free tile-language kernel, a binding of
argument types and constexpr values, and a :class:`CompileOptions`, and runs
the pass pipeline the options resolve to (see :mod:`repro.core.pipelines` and
``docs/ARCHITECTURE.md``).  The paper's Tawa path (``tawa-gpu``) is:

    frontend IR -> canonicalize
                -> [persistent kernel]                     (IV-B)
                -> semantic tagging                        (III-C1)
                -> task-aware partitioning + aref insertion (III-C2)
                -> fine / coarse grained pipelining        (III-D)
                -> aref lowering to mbarriers + TMA        (III-E)
                -> canonicalize / DCE
                -> resource estimation & validation

or, with warp specialization disabled, the stock-Triton baseline path
(cp.async software pipelining).  The result is a :class:`CompiledKernel` that
the simulator (:class:`repro.gpusim.Device`) can launch.

This module is the *pure* compiler: every call runs the pass pipeline.
Callers that want caching (which is everything in the simulator stack) go
through :class:`repro.core.service.CompilerService` instead, which
content-addresses finished artifacts across devices and processes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Mapping, Sequence
from typing import Any

from repro.core.cache import artifact_fingerprint
from repro.core.options import CompileError, CompileOptions
from repro.core.pipelines import (
    MidLevelSnapshotPass,
    build_pass_pipeline,
    resolve_pipeline_name,
)
from repro.core.resources import ResourceEstimate, ResourceValidationPass
from repro.frontend.kernel import Kernel
from repro.gpusim.config import DEFAULT_CONFIG, H100Config
from repro.ir import FuncOp, ModuleOp, print_op
from repro.ir.types import Type
from repro.perf.counters import COUNTERS

__all__ = [
    "CompiledKernel",
    "build_pass_pipeline",
    "compile_kernel",
]


@dataclass
class CompiledKernel:
    """A compilation artifact: a kernel lowered and ready for simulation."""

    kernel: Kernel
    module: ModuleOp
    func: FuncOp
    arg_names: list[str]
    constexprs: dict[str, Any]
    options: CompileOptions
    metadata: ResourceEstimate
    #: Name of the registered pipeline that produced this artifact.
    pipeline: str = ""
    #: Content-addressed fingerprint (the artifact-cache key); see
    #: :func:`repro.core.cache.artifact_fingerprint`.
    fingerprint: str | None = None
    #: Per-pass wall seconds of the pipeline run that built this artifact
    #: (empty for artifacts loaded from the persistent cache -- their
    #: pipeline never ran in this process).
    pass_timings: dict[str, float] = field(default_factory=dict)
    pass_dumps: dict[str, str] = field(default_factory=dict)
    #: Simulator execution plans, keyed by (functional, config).  Part of the
    #: artifact: built eagerly by CompilerService finalization for every
    #: requested mode, so launches and forked workers find them ready-made
    #: (repro.gpusim.plan.get_plan remains the accessor, and lazily fills the
    #: map only for kernels compiled outside the service).
    plans: dict[Any, Any] = field(default_factory=dict, repr=False, compare=False)
    #: Clone of the module at the tawa stage of the ``tawa-gpu`` pipeline
    #: (see :class:`repro.core.pipelines.MidLevelSnapshotPass`).  Never
    #: persisted: absent on baseline artifacts and on artifacts reloaded from
    #: the disk tier, where :mod:`repro.analysis` falls back to the
    #: content-addressed sibling compile.
    mid_module: ModuleOp | None = field(default=None, repr=False, compare=False)

    @property
    def name(self) -> str:
        return self.kernel.name

    def ir(self) -> str:
        """The final IR as text (what PTX emission would consume)."""
        return print_op(self.module)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        ws = "warp-specialized" if self.metadata.warp_specialized else "baseline"
        return f"<CompiledKernel {self.name} ({ws})>"


def compile_kernel(
    kern: Kernel,
    arg_types: Mapping[str, Type] | Sequence[Type],
    constexprs: Mapping[str, Any] | None = None,
    options: CompileOptions | None = None,
    config: H100Config | None = None,
    dump_ir: bool = False,
    spec=None,
) -> CompiledKernel:
    """Compile a tile-language kernel down to simulator-executable IR.

    Args:
        kern: a function decorated with :func:`repro.frontend.kernel`.
        arg_types: IR types of the runtime arguments (mapping by name, or a
            sequence in declaration order).
        constexprs: values for the ``tl.constexpr`` parameters.
        options: Tawa compilation options (defaults to warp specialization on).
        config: hardware configuration used for resource validation.
        dump_ir: record the IR after every pass in ``CompiledKernel.pass_dumps``.
        spec: an already-built :class:`~repro.frontend.kernel.Specialization`
            for these inputs (the compiler service passes the one it keyed
            the cache lookup on, so specialization and fingerprinting happen
            exactly once per request).
    """
    if not isinstance(kern, Kernel):
        raise CompileError(
            f"compile_kernel expects an @kernel-decorated function, got {type(kern).__name__}"
        )
    options = options or CompileOptions()
    config = config or DEFAULT_CONFIG
    constexprs = dict(constexprs or {})

    if spec is None:
        spec = kern.specialize(arg_types, constexprs, num_warps=options.num_warps)
    module = kern.build_module(spec)

    dumps: dict[str, str] = {}
    pipeline_name = resolve_pipeline_name(options)
    pm = build_pass_pipeline(options, config)
    pm.timing_sink = COUNTERS.record_pass_timing
    pm.verify_sink = COUNTERS.record_verify_timing
    if dump_ir:
        pm.dump_each = lambda name, text: dumps.__setitem__(name, text)
    try:
        pm.run(module)
    except Exception as exc:
        # Surface user-facing configuration errors (infeasible D/P, register or
        # shared-memory budget) directly rather than wrapped in PassError.
        cause = exc.__cause__
        if isinstance(cause, CompileError):
            raise cause from exc
        raise

    func = module.get_function(kern.name)
    validation = next(p for p in pm.passes if isinstance(p, ResourceValidationPass))
    metadata = validation.estimates[func.sym_name]
    snapshot = next((p.snapshot for p in pm.passes
                     if isinstance(p, MidLevelSnapshotPass)), None)

    timings: dict[str, float] = {}
    for t in pm.timings:
        timings[t.name] = timings.get(t.name, 0.0) + t.seconds

    return CompiledKernel(
        kernel=kern,
        module=module,
        func=func,
        arg_names=list(kern.runtime_param_names),
        constexprs=constexprs,
        options=options,
        metadata=metadata,
        pipeline=pipeline_name,
        fingerprint=artifact_fingerprint(kern, spec, options, config),
        pass_timings=timings,
        pass_dumps=dumps,
        mid_module=snapshot,
    )
