"""Static analysis of compiled kernels (the compile-time correctness story).

Three dataflow analyses over the lowered IR, available three ways:

* **pipeline stage** -- ``CompileOptions(run_analysis=True)`` inserts
  :class:`~repro.analysis.passes.AnalysisPass` into the warp-specialization
  pipelines, failing the compile on any error-severity finding;
* **linter** -- ``python -m repro.analysis lint [workload...]`` analyzes the
  registered workloads' kernels and exits non-zero on errors (gates CI);
* **artifact** -- :func:`~repro.analysis.artifacts.get_analysis` resolves a
  compile artifact's finding list through the two-tier content-addressed
  cache, so warm processes re-use results without re-analysis.

The analyses:

* :mod:`~repro.analysis.channels` -- the aref/smem race detector: rebuilds
  the producer/consumer channel graph and checks the paper's Fig. 4 protocol
  statically (happens-before, per-generation linearity, index agreement,
  ring depth vs. pipelining distance);
* :mod:`~repro.analysis.bounds` -- interval analysis over index arithmetic
  proving tile accesses in-bounds or mask-guarded;
* :mod:`~repro.analysis.resources` -- hardware-budget facts in lint form,
  shared with the autotuner's static pruning.

:mod:`~repro.analysis.sanitizer` is the runtime half:
``Device(engine="sanitize")`` replays every committed aref transition through the formal protocol model,
validating the static analyses TSan-style (see ``tests/test_analysis.py``'s
mutation differential suite).
"""

from repro.analysis.artifacts import (
    ANALYSIS_ARTIFACT_KIND,
    analysis_fingerprint,
    get_analysis,
    run_analyses,
)
from repro.analysis.bounds import analyze_bounds
from repro.analysis.channels import analyze_channels, index_fingerprint
from repro.analysis.diagnostics import (
    AnalysisResult,
    Diagnostic,
    Severity,
    sort_diagnostics,
)
from repro.analysis.passes import AnalysisPass
from repro.analysis.resources import (
    accumulator_register_reason,
    analyze_resources,
    aref_staging_reason,
    persistent_grid_reason,
)
from repro.analysis.sanitizer import CtaSanitizer, SanitizerError

__all__ = [
    "ANALYSIS_ARTIFACT_KIND",
    "AnalysisPass",
    "AnalysisResult",
    "CtaSanitizer",
    "Diagnostic",
    "SanitizerError",
    "Severity",
    "accumulator_register_reason",
    "analysis_fingerprint",
    "analyze_bounds",
    "analyze_channels",
    "analyze_resources",
    "aref_staging_reason",
    "get_analysis",
    "index_fingerprint",
    "persistent_grid_reason",
    "run_analyses",
    "sort_diagnostics",
]
