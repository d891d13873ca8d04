"""``python -m repro.analysis`` -- the standalone linter.

Commands::

    python -m repro.analysis lint [name ...] [--json FILE]
                                  [--expect-analysis cold|warm]

``lint`` compiles every selected registered workload (all of them by
default) on its small check problem, resolves each compiled kernel's
analysis artifact (:func:`repro.analysis.artifacts.get_analysis`: channel
protocol, bounds, resource budgets) and renders the findings.  The exit
status is non-zero when any error-severity diagnostic is produced, so CI can
gate on the lint run directly.

Analysis results are content-addressed artifacts sharing ``REPRO_CACHE_DIR``
with compile and codegen artifacts.  ``--expect-analysis cold`` /
``--expect-analysis warm`` turns the expected cache temperature into an
exit-code gate: ``cold`` requires at least one analysis to actually run,
``warm`` requires every result to be served from the persistent tier with
*zero* re-analysis -- which is how ``tests/test_analysis.py`` proves warm
reuse from a subprocess.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from repro.analysis.artifacts import get_analysis
from repro.analysis.diagnostics import Severity
from repro.gpusim.device import Device
from repro.perf.counters import reset_sim_counters, sim_counters
from repro.workloads import registry


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Statically analyze registered workloads' kernels.",
    )
    sub = parser.add_subparsers(dest="command")
    lint = sub.add_parser("lint", help="lint workload kernels")
    lint.add_argument("names", nargs="*",
                      help="workload names (default: all registered)")
    lint.add_argument("--json", dest="json_path", default=None,
                      help="write machine-readable findings to this file")
    lint.add_argument("--expect-analysis", choices=("cold", "warm"),
                      default=None,
                      help="fail unless the analyses ran cold (at least one "
                           "actual run) / warm (all served from the "
                           "REPRO_CACHE_DIR tier, zero re-analysis)")
    return parser


def _resolve_names(names: list) -> list:
    if not names:
        return registry.list_workloads()
    known = set(registry.list_workloads())
    unknown = [n for n in names if n not in known]
    if unknown:
        raise SystemExit(
            f"unknown workload(s) {', '.join(unknown)}; "
            f"registered: {', '.join(sorted(known))}"
        )
    return names


def lint_workloads(names: list, device: Device | None = None) -> list:
    """Analyze every kernel the named workloads launch.

    Returns ``(workload name, AnalysisResult)`` pairs, one per distinct
    compiled kernel (a workload's launch pipeline may involve several).
    Compilation goes through the process-wide compiler service, so on a warm
    disk cache neither the compiles nor the analyses actually run.
    """
    device = device or Device(mode="functional", engine="interp")
    results = []
    for name in names:
        workload = registry.get(name)
        problem = workload.check_problem()
        options = workload.default_options()
        seen = set()
        for spec in workload.make_specs(device, problem, options):
            compiled = device.compile(spec.kernel, spec.args, spec.constexprs,
                                      spec.options)
            if compiled.fingerprint in seen:
                continue
            seen.add(compiled.fingerprint)
            results.append((name, get_analysis(compiled, device.config)))
    return results


def _cmd_lint(args) -> int:
    names = _resolve_names(args.names)
    reset_sim_counters()
    results = lint_workloads(names)

    errors = 0
    report = {"mode": "lint", "workloads": names, "results": []}
    for name, result in results:
        errors += result.num_errors
        status = "ok" if result.ok else f"{result.num_errors} error(s)"
        print(f"{name:20s} {result.kernel_name:24s} {status}")
        for diag in result.diagnostics:
            print(f"  {diag.render()}")
        report["results"].append({
            "workload": name,
            "kernel": result.kernel_name,
            "errors": result.num_errors,
            "warnings": result.num_warnings,
            "diagnostics": [
                {"severity": str(d.severity), "code": d.code,
                 "message": d.message, "where": d.where}
                for d in result.diagnostics
            ],
        })

    counters = sim_counters()
    report["counters"] = {k: v for k, v in counters.items()
                          if k.startswith("analysis_")}
    print(
        f"-- analysis {counters['analysis_runs']} runs "
        f"({counters['analysis_diagnostics']} diagnostics), "
        f"{counters['analysis_memory_hits']} memory hits, "
        f"{counters['analysis_disk_hits']} disk hits, "
        f"{counters['analysis_disk_writes']} disk writes"
    )

    failures = errors
    if args.expect_analysis == "cold" and counters["analysis_runs"] == 0:
        print("-- EXPECTED-ANALYSIS-COLD: every analysis was served from a "
              "cache, none actually ran")
        failures += 1
    if args.expect_analysis == "warm" and (
            counters["analysis_runs"] > 0 or counters["analysis_disk_hits"] == 0):
        print(f"-- EXPECTED-ANALYSIS-WARM: {counters['analysis_runs']} "
              f"analyses re-ran, {counters['analysis_disk_hits']} disk hits "
              f"(expected zero re-analysis, all disk-served)")
        failures += 1

    if args.json_path:
        parent = os.path.dirname(os.path.abspath(args.json_path))
        os.makedirs(parent, exist_ok=True)
        with open(args.json_path, "w") as fh:
            json.dump(report, fh, indent=2)
        print(f"-- wrote {args.json_path}")
    return 1 if failures else 0


def main(argv: list | None = None) -> int:
    args = _parser().parse_args(argv)
    if args.command != "lint":
        _parser().print_help()
        return 2
    return _cmd_lint(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
