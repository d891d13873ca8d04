"""``python -m repro.workloads`` -- list, check, sweep and tune workloads.

Commands::

    python -m repro.workloads list
    python -m repro.workloads run [name ...] [--mode functional|perf]
                                  [--workers N] [--sweep reduced|smoke]
                                  [--json FILE]
    python -m repro.workloads tune [name ...] [--sweep reduced|smoke]
                                   [--top-k N] [--json FILE]
                                   [--expect-store hit|miss] [--no-store]

``run`` with no names runs every registered workload.  Functional mode
executes each workload's small check problem and asserts it against the
NumPy reference (sharded across a ``--workers`` process pool when > 1).  Perf
mode submits the whole reduced sweep of every selected workload as **one**
:func:`repro.experiments.common.measure_sweep` batch, so compilation is
front-loaded and deduplicated through the compiler service, execution plans
are built eagerly at finalize, and both compile-cache tiers (plus worker
sharding on functional devices) are exercised by construction.  With
``REPRO_TUNE_DIR`` set, perf sweeps transparently launch persisted tuned
configurations instead of the hand-written defaults.

``tune`` runs the cost-model-guided autotuner (:mod:`repro.tune`) on each
selected workload's first sweep problem and reports tuned vs default
TFLOP/s.  With ``REPRO_TUNE_DIR`` set the winners persist; a warm process
reuses them with zero re-measurements.  ``--expect-store hit|miss`` turns
that expectation into an exit-code gate for CI.

The exit status is non-zero if any functional check fails, any tuned config
loses to its hand-written default, a ``--expect-store`` expectation is
violated, or any requested name is unknown, so CI can gate on the smoke
runs directly.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from repro.experiments.common import SweepPoint, measure_sweep, perf_device
from repro.gpusim.device import Device
from repro.perf.counters import reset_sim_counters, sim_counters
from repro.perf.metrics import is_infeasible
from repro.workloads import registry


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.workloads",
        description="Run registered simulator workloads.",
    )
    sub = parser.add_subparsers(dest="command")

    sub.add_parser("list", help="list registered workloads")

    run = sub.add_parser("run", help="check / sweep workloads")
    run.add_argument("names", nargs="*",
                     help="workload names (default: all registered)")
    run.add_argument("--mode", choices=("functional", "perf"),
                     default="functional",
                     help="functional: NumPy-reference checks; "
                          "perf: batched TFLOP/s sweep")
    run.add_argument("--workers", type=int, default=None,
                     help="worker processes for functional sharding "
                          "(default: REPRO_SIM_WORKERS)")
    run.add_argument("--sweep", choices=("reduced", "smoke"), default="reduced",
                     help="perf sweep size: the reduced CI sweep, or its "
                          "first point per workload (smoke)")
    run.add_argument("--json", dest="json_path", default=None,
                     help="write machine-readable results to this file")

    tune = sub.add_parser("tune", help="autotune workload configurations")
    tune.add_argument("names", nargs="*",
                      help="workload names (default: all registered)")
    tune.add_argument("--sweep", choices=("reduced", "smoke"), default="reduced",
                      help="tuning effort on the first reduced-sweep problem: "
                           "reduced measures the default top-k finalists, "
                           "smoke measures fewer (see --top-k)")
    tune.add_argument("--top-k", type=int, default=None,
                      help="ranked candidates to measure per workload "
                           "(default: 8, smoke: 4)")
    tune.add_argument("--no-store", action="store_true",
                      help="ignore REPRO_TUNE_DIR (always re-measure, never persist)")
    tune.add_argument("--expect-store", choices=("hit", "miss"), default=None,
                      help="fail unless every workload was (hit) / was not "
                           "(miss) served from the persisted tier")
    tune.add_argument("--json", dest="json_path", default=None,
                      help="write machine-readable results to this file")

    serve = sub.add_parser(
        "serve", help="serve workloads over TCP (see python -m repro.serve)")
    serve.add_argument("serve_args", nargs=argparse.REMAINDER,
                       help="arguments forwarded to repro.serve "
                            "(e.g. 'serve --port 7893' or 'smoke softmax')")
    return parser


def _resolve_names(names: list[str]) -> list[str]:
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


def _cmd_list() -> int:
    for name in registry.list_workloads():
        workload = registry.get(name)
        print(f"{name:20s} {workload.description}")
    return 0


def _run_functional(names: list[str], workers: int | None,
                    report: dict) -> int:
    device = Device(mode="functional", workers=workers)
    failures = 0
    for name in names:
        workload = registry.get(name)
        problem = workload.check_problem()
        start = time.perf_counter()
        try:
            workload.check(device, problem, None)
        except Exception as exc:  # noqa: BLE001 - report, keep checking
            failures += 1
            status, detail = "FAIL", f"{type(exc).__name__}: {exc}"
        else:
            status, detail = "ok", f"{(time.perf_counter() - start) * 1e3:.0f} ms"
        print(f"{name:20s} {status:4s}  {detail}")
        report["checks"].append({"workload": name, "status": status,
                                 "problem": repr(problem)})
    return failures


def _run_perf(names: list[str], sweep: str, report: dict) -> int:
    device = perf_device()
    points: list[SweepPoint] = []
    labels: list[str] = []
    for name in names:
        workload = registry.get(name)
        problems = workload.reduced_sweep()
        if sweep == "smoke":
            problems = problems[:1]
        for problem in problems:
            # Transparent tuned-config pickup: with REPRO_TUNE_DIR set and a
            # persisted result for this workload, the sweep launches the
            # tuned configuration instead of the hand-written default.
            problem, options = registry.resolve_options(device, workload, problem)
            points.append(SweepPoint(name, problem, options))
            labels.append(f"{name}: {problem!r}")
    values = measure_sweep(device, points)
    for label, value in zip(labels, values):
        if is_infeasible(value):
            print(f"{'n/f':>10s} TFLOP/s  {label}  [infeasible: {value.reason}]")
            report["sweep"].append({"point": label, "tflops": 0.0,
                                    "infeasible": True,
                                    "infeasible_reason": value.reason})
        else:
            print(f"{value:10.1f} TFLOP/s  {label}")
            report["sweep"].append({"point": label, "tflops": round(value, 2)})
    return 0


def _run_tune(args, names: list[str], report: dict) -> int:
    from repro.tune import Autotuner

    top_k = args.top_k if args.top_k is not None else (4 if args.sweep == "smoke" else 8)
    device = perf_device()
    tuner = Autotuner(device=device, top_k=top_k, use_store=not args.no_store)
    failures = 0
    for name in names:
        result = tuner.tune(name)
        source = "store" if result.from_store else f"{result.measurements} meas."
        losing = result.best_tflops + 1e-9 < result.default_tflops
        expect_violated = (args.expect_store == "hit" and not result.from_store) or (
            args.expect_store == "miss" and result.from_store)
        status = "ok"
        if losing:
            failures += 1
            status = "SLOWER-THAN-DEFAULT"
        if expect_violated:
            failures += 1
            status = f"EXPECTED-STORE-{args.expect_store.upper()}"
        print(f"{name:20s} {result.best_tflops:8.1f} TFLOP/s tuned vs "
              f"{result.default_tflops:8.1f} default "
              f"({result.speedup_over_default:4.2f}x, {source:14s}) {status}")
        print(f"{'':20s} -> {result.best.describe()}")
        report["tune"].append({
            "workload": name,
            "problem": repr(result.problem),
            "tuned_tflops": round(result.best_tflops, 2),
            "default_tflops": round(result.default_tflops, 2),
            "speedup": round(result.speedup_over_default, 4),
            "config": result.best.describe(),
            "from_store": result.from_store,
            "measurements": result.measurements,
            "candidates_considered": result.candidates_considered,
            "candidates_pruned": result.candidates_pruned,
            "status": status,
        })
    return failures


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    if args.command == "list":
        return _cmd_list()
    if args.command == "serve":
        from repro.serve.__main__ import main as serve_main

        return serve_main(args.serve_args)
    if args.command not in ("run", "tune"):
        _parser().print_help()
        return 2

    names = _resolve_names(args.names)
    reset_sim_counters()
    if args.command == "tune":
        report = {"mode": "tune", "workloads": names, "tune": []}
        failures = _run_tune(args, names, report)
    else:
        report = {"mode": args.mode, "workloads": names,
                  "checks": [], "sweep": []}
        if args.mode == "functional":
            failures = _run_functional(names, args.workers, report)
        else:
            failures = _run_perf(names, args.sweep, report)

    counters = sim_counters()
    report["counters"] = counters
    print(
        f"-- compile cache {counters['compile_cache_hits']} hits / "
        f"{counters['compile_cache_misses']} misses, "
        f"{counters['plan_ctas']} plan CTAs, "
        f"{counters['pool_launches']} pool launches, "
        f"{counters['parallel_shared_bytes']} shared bytes live"
    )
    if args.command == "tune":
        print(
            f"-- tune store {counters['tune_store_hits']} hits / "
            f"{counters['tune_store_misses']} misses, "
            f"{counters['tune_measurements']} measurements, "
            f"{counters['tune_candidates_pruned']} pruned"
        )
    if args.json_path:
        parent = os.path.dirname(os.path.abspath(args.json_path))
        os.makedirs(parent, exist_ok=True)
        with open(args.json_path, "w") as fh:
            json.dump(report, fh, indent=2)
        print(f"-- wrote {args.json_path}")
    return 1 if failures else 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
