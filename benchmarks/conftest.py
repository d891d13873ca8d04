"""Shared helpers for the figure-regeneration benchmarks.

Each benchmark regenerates one figure of the paper's evaluation through the
experiment harnesses (reduced parameter ranges by default; set ``REPRO_FULL=1``
to sweep the paper's full ranges) and prints the resulting series so the
numbers end up in the benchmark log alongside the timings.

Environment knobs:

* ``REPRO_FULL=1``        -- sweep the paper's full parameter ranges.
* ``REPRO_BENCH_ROUNDS``  -- measured rounds per benchmark (default 1).
* ``REPRO_BENCH_WARMUP``  -- warm-up rounds before measuring (default 0).
* ``REPRO_BENCH_JSON``    -- directory for machine-readable JSON series
  (default ``benchmarks/out``; set to ``0`` to disable).
* ``REPRO_BENCH_STRICT``  -- ``0``/``false``/``off`` turns every wall-clock
  gate into a record-only series (shared CI runners); the deterministic
  correctness asserts always run.

Every benchmark that goes through :func:`run_and_report` (or calls
:func:`emit_json` directly) writes one JSON document per test next to the
printed tables, so the BENCH trajectory can be tracked by tooling instead of
scraped from stdout.
"""

from __future__ import annotations

import json
import os
import re
from pathlib import Path

import pytest


def full_sweep_requested() -> bool:
    return os.environ.get("REPRO_FULL", "0") not in ("0", "", "false")


def bench_rounds() -> int:
    return max(1, int(os.environ.get("REPRO_BENCH_ROUNDS", "1")))


def bench_warmup_rounds() -> int:
    return max(0, int(os.environ.get("REPRO_BENCH_WARMUP", "0")))


def bench_strict() -> bool:
    """Whether wall-clock gates are enforced (``REPRO_BENCH_STRICT``)."""
    return os.environ.get("REPRO_BENCH_STRICT", "1") not in ("0", "false", "off")


def json_output_dir() -> Path | None:
    raw = os.environ.get("REPRO_BENCH_JSON", "")
    if raw in ("0", "false", "off"):
        return None
    if raw:
        return Path(raw)
    return Path(__file__).parent / "out"


@pytest.fixture(scope="session")
def full() -> bool:
    return full_sweep_requested()


def _benchmark_stats(benchmark) -> dict:
    try:
        stats = benchmark.stats.stats
        return {
            "mean_s": stats.mean,
            "min_s": stats.min,
            "max_s": stats.max,
            "stddev_s": stats.stddev,
            "rounds": stats.rounds,
        }
    except (AttributeError, TypeError):
        return {}


def emit_json(name: str, payload: dict, benchmark=None) -> Path | None:
    """Write one machine-readable JSON document for a benchmark run."""
    out_dir = json_output_dir()
    if out_dir is None:
        return None
    out_dir.mkdir(parents=True, exist_ok=True)
    doc = dict(payload)
    doc["name"] = name
    doc["full_sweep"] = full_sweep_requested()
    if benchmark is not None:
        doc["timing"] = _benchmark_stats(benchmark)
    slug = re.sub(r"[^A-Za-z0-9_.-]+", "_", name).strip("_")
    path = out_dir / f"{slug}.json"
    path.write_text(json.dumps(doc, indent=2, default=str) + "\n")
    return path


def run_and_report(benchmark, run_fn, full: bool, render=None):
    """Run a figure generator under pytest-benchmark and print its tables.

    Rounds/warm-up come from ``REPRO_BENCH_ROUNDS`` / ``REPRO_BENCH_WARMUP``
    (the historical pedantic ``rounds=1`` is just the default), and the
    resulting series are also emitted as JSON via :func:`emit_json`.
    """
    results = benchmark.pedantic(
        lambda: run_fn(full=full),
        rounds=bench_rounds(),
        iterations=1,
        warmup_rounds=bench_warmup_rounds(),
    )
    for fig in results:
        text = render(fig) if render is not None else fig.render()
        print()
        print(text)
    name = getattr(benchmark, "name", None) or getattr(run_fn, "__module__", "bench")
    emit_json(name, {
        "figures": [
            {
                "figure": fig.name,
                "title": fig.title,
                "x_label": fig.x_label,
                "rows": [row.as_dict() for row in fig.rows],
                "notes": list(fig.notes),
            }
            for fig in results
        ],
    }, benchmark=benchmark)
    return results
