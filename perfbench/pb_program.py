"""Run the program under test in a fresh process, optionally traced.

``run.py`` starts every session of a workload through this launcher so that
each session pays the program's real set-up (interpreter start, imports,
cold caches), and so that a traced session can install the span wrappers of
``pb_tracing`` before the program starts.  Subcommands:

* ``figures``  -- the full fig8-fig12 sweeps, ``run(full=True)``, in
  performance mode; prints every figure row as JSON.
* ``devloop``  -- a closed loop of ``Workload.check`` calls over seeded
  (workload, small problem, options) triples, each a cold compile.
* ``serve``    -- ``python -m repro.serve serve`` with the shipped defaults
  (used for traced sessions; untraced sessions start the module directly).

Every subcommand prints one JSON object as its last stdout line, except
``serve``, which runs until interrupted.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

FIGURE_MODULES = ("fig8_gemm", "fig9_gemm_variants", "fig10_attention",
                  "fig11_hyperparams", "fig12_ablation")


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _counters() -> dict:
    from repro.perf.counters import COUNTERS

    return COUNTERS.snapshot()


def run_figures(args: argparse.Namespace, tracer) -> dict:
    import importlib

    modules = [importlib.import_module(f"repro.experiments.{name}")
               for name in FIGURE_MODULES]
    ready = time.monotonic()
    rows = []
    for module in modules:
        for fig in module.run(full=True):
            for row in fig.rows:
                rows.append([fig.name, row.series, row.x, float(row.tflops),
                             type(row.tflops).__name__ == "Infeasible"])
    end = time.monotonic()
    return {"ready": ready, "ops": [{"start": ready, "end": end}],
            "rows": rows, "counters": _delta({}, _counters()),
            "peak_rss_mb": _peak_rss_mb()}


def devloop_options() -> dict:
    """The ``CompileOptions`` variants a kernel author iterates over."""
    from repro.core.options import TRITON_BASELINE_OPTIONS, CompileOptions

    return {
        "ws_d1_p1": CompileOptions(aref_depth=1, mma_pipeline_depth=1),
        "ws_d2_p1": CompileOptions(aref_depth=2, mma_pipeline_depth=1),
        "ws_d2_p2": CompileOptions(aref_depth=2, mma_pipeline_depth=2),
        "ws_d3_p2": CompileOptions(aref_depth=3, mma_pipeline_depth=2),
        "ws_d2_p2_cg2": CompileOptions(aref_depth=2, mma_pipeline_depth=2,
                                       num_consumer_groups=2),
        "ws_off": CompileOptions(enable_warp_specialization=False),
        "triton": TRITON_BASELINE_OPTIONS,
    }


def run_devloop(args: argparse.Namespace, tracer) -> dict:
    import dataclasses

    from repro import workloads
    from repro.gpusim.device import Device, clear_compile_cache

    device = Device()
    options = devloop_options()
    configs = [(name, option) for name in workloads.list_workloads()
               for option in options]
    rng = random.Random(f"devloop:{args.seed}:{args.session}")
    ready = time.monotonic()
    deadline = ready + args.seconds
    before = _counters()
    ops = []
    while time.monotonic() < deadline:
        order = list(configs)
        rng.shuffle(order)
        for name, option in order:
            if time.monotonic() >= deadline:
                break
            workload = workloads.get(name)
            problem = dataclasses.replace(workload.check_problem(),
                                          seed=rng.randrange(1 << 16))
            # A kernel author's next run follows an edit: nothing is cached.
            clear_compile_cache()
            op = {"workload": name, "options": option, "seed": problem.seed}
            start = time.monotonic()
            try:
                if tracer is not None:
                    with tracer.request(len(ops)):
                        result = workload.check(device, problem, options[option])
                else:
                    result = workload.check(device, problem, options[option])
                op["tflops"] = float(result.tflops or 0.0)
            except Exception as exc:  # a wrong or failed iteration is counted
                op["error"] = f"{type(exc).__name__}: {exc}"[:300]
            op.update(start=start, end=time.monotonic())
            ops.append(op)
    after = _counters()
    return {"ready": ready, "ops": ops, "counters": _delta(before, after),
            "peak_rss_mb": _peak_rss_mb()}


def _delta(before: dict, after: dict) -> dict:
    return {key: value - before.get(key, 0) for key, value in after.items()
            if isinstance(value, (int, float))}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("command", choices=("figures", "devloop", "serve"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--session", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=5.0)
    parser.add_argument("--trace-out", default=None,
                        help="install the span wrappers; write spans here")
    args = parser.parse_args(argv)
    tracer = None
    if args.trace_out:
        import pb_tracing

        tracer = pb_tracing.Tracer()
        pb_tracing.install(tracer)
    try:
        if args.command == "serve":
            from repro.serve.__main__ import main as serve_main

            return serve_main(["serve", "--port", "0"])
        runner = run_figures if args.command == "figures" else run_devloop
        print(json.dumps(runner(args, tracer)), flush=True)
        return 0
    finally:
        if tracer is not None:
            tracer.dump(args.trace_out)


if __name__ == "__main__":
    sys.exit(main())
