"""Plain-text rendering of figure results (the "plots" of this reproduction),
plus the compile-cost report backed by :func:`repro.perf.sim_counters`."""

from __future__ import annotations

from collections.abc import Mapping

from repro.perf.metrics import FigureResult, is_infeasible

#: How infeasible (never launched) sweep cells render in every table.
INFEASIBLE_CELL = "n/f"


def format_tflops(value: float | None, fmt: str = "{:.1f}") -> str:
    """One table cell: a TFLOP/s number, ``-`` (absent) or ``n/f`` (infeasible)."""
    if value is None:
        return "-"
    if is_infeasible(value):
        return INFEASIBLE_CELL
    return fmt.format(float(value))


def render_table(headers: list[str], rows: list[list[str]]) -> str:
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    lines.append(" | ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append("-+-".join("-" * w for w in widths))
    for row in rows:
        lines.append(" | ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def render_figure(result: FigureResult) -> str:
    """One row per x value, one column per series (TFLOP/s), like the paper's plots."""
    headers = [result.x_label] + result.series_names
    rows = []
    for x in result.x_values:
        cells = [_format_x(x)]
        for series in result.series_names:
            cells.append(format_tflops(result.value(series, x)))
        rows.append(cells)
    text = [f"== {result.name}: {result.title} =="]
    text.append(render_table(headers, rows))
    if result.notes:
        text.append("")
        text.extend(f"note: {n}" for n in result.notes)
    return "\n".join(text)


def _format_x(x: float) -> str:
    if float(x).is_integer():
        return str(int(x))
    return f"{x:g}"


def render_compile_report(counters: Mapping | None = None) -> str:
    """The compile-cost side of the counters: per-pass wall time + cache tiers.

    ``counters`` defaults to a fresh :func:`repro.perf.sim_counters` snapshot.
    Compile cost is reported next to the artifact-cache hit rates because the
    two trade off directly: every cache hit (in-memory or ``REPRO_CACHE_DIR``
    disk) is a pass-pipeline execution that never happened.
    """
    from repro.perf.counters import sim_counters

    c = dict(counters if counters is not None else sim_counters())
    lines = ["== compilation =="]
    pass_seconds = c.get("compile_pass_seconds") or {}
    if pass_seconds:
        rows = [[name, f"{seconds * 1e3:.2f}"]
                for name, seconds in sorted(pass_seconds.items(),
                                            key=lambda kv: -kv[1])]
        lines.append(render_table(["pass", "total ms"], rows))
    lines.append(
        f"passes run: {c.get('compile_passes_run', 0)}, "
        f"compile wall time: {c.get('compile_seconds', 0.0) * 1e3:.2f} ms"
    )
    lines.append(
        f"IR verification: {c.get('compile_verify_seconds', 0.0) * 1e3:.2f} ms "
        f"(included in compile wall time)"
    )
    lines.append(
        f"artifact cache: {c.get('compile_cache_hits', 0)} memory hits, "
        f"{c.get('compile_cache_misses', 0)} misses; "
        f"disk tier: {c.get('compile_disk_hits', 0)} hits, "
        f"{c.get('compile_disk_misses', 0)} misses, "
        f"{c.get('compile_disk_writes', 0)} writes, "
        f"{c.get('compile_disk_errors', 0)} errors"
    )
    lines.append(
        f"codegen artifacts: {c.get('codegen_emitted', 0)} emitted, "
        f"{c.get('codegen_memory_hits', 0)} memory hits, "
        f"{c.get('codegen_disk_hits', 0)} disk hits, "
        f"{c.get('codegen_disk_writes', 0)} disk writes; "
        f"launches: {c.get('codegen_launches', 0)} batched "
        f"({c.get('codegen_ctas_batched', 0)} CTAs), "
        f"{c.get('codegen_fallback_launches', 0)} fallbacks"
    )
    lines.append(
        f"analysis artifacts: {c.get('analysis_runs', 0)} runs "
        f"({c.get('analysis_diagnostics', 0)} diagnostics), "
        f"{c.get('analysis_memory_hits', 0)} memory hits, "
        f"{c.get('analysis_disk_hits', 0)} disk hits, "
        f"{c.get('analysis_disk_writes', 0)} disk writes; "
        f"{c.get('analysis_sanitized_launches', 0)} sanitized launches"
    )
    return "\n".join(lines)
