"""Pure helpers of the benchmark: statistics, span self time, the serve mix.

Nothing here imports the program under test, so the unit tests
(``test_perfbench.py``) run without it.
"""

from __future__ import annotations

import json
import math
import random
from collections.abc import Iterable, Sequence

#: Samples that must lie beyond a reported tail percentile.
TAIL_BEYOND = 10


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile (``0 < q <= 100``) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail(values: Sequence[float]) -> tuple[float, float]:
    """``(level, value)``: the highest percentile with >= 10 samples beyond it.

    With ``n`` samples that is the ``n - 10``-th smallest, at level
    ``100 * (n - 10) / n``.  With 10 samples or fewer no percentile has ten
    beyond it, and the maximum (level 100) is reported instead.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("tail of no samples")
    if n <= TAIL_BEYOND:
        return 100.0, ordered[-1]
    return 100.0 * (n - TAIL_BEYOND) / n, ordered[n - TAIL_BEYOND - 1]


def median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    if not ordered:
        raise ValueError("median of no samples")
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def geomean(values: Iterable[float]) -> float:
    logs = [math.log(v) for v in values if v > 0]
    if not logs:
        return 0.0
    return math.exp(sum(logs) / len(logs))


def goodput(latencies_s: Sequence[float | None], limit_s: float | None,
            duration_s: float) -> float:
    """Operations that succeeded within the latency limit, per second.

    A failed, refused or wrong operation is passed as ``None`` and never
    counts, whatever the limit; ``limit_s=None`` means no limit.
    """
    if duration_s <= 0:
        raise ValueError("goodput needs a positive duration")
    good = sum(1 for latency in latencies_s
               if latency is not None and (limit_s is None or latency <= limit_s))
    return good / duration_s


# ---------------------------------------------------------------------- spans

def self_times(spans: Sequence[dict]) -> dict[int, float]:
    """Self time of every span: its duration minus what its children cover.

    Each span is a dict with ``id``, ``parent`` (0 for a root), ``start`` and
    ``end``.  Child intervals are clipped to the parent and merged before
    they are subtracted, so overlapping children are not counted twice.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span["parent"]:
            children.setdefault(span["parent"], []).append(
                (span["start"], span["end"]))
    out = {}
    for span in spans:
        start, end = span["start"], span["end"]
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(span["id"], ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out[span["id"]] = max(0.0, (end - start) - covered)
    return out


def self_time_by_name(spans: Sequence[dict]) -> dict[str, tuple[float, int]]:
    """``{span name: (total self seconds, span count)}``."""
    own = self_times(spans)
    out: dict[str, tuple[float, int]] = {}
    for span in spans:
        seconds, count = out.get(span["name"], (0.0, 0))
        out[span["name"]] = (seconds + own[span["id"]], count + 1)
    return out


# ---------------------------------------------------------------------- serve mix

#: Share of requests that repeat one of the last ``REPEAT_WINDOW`` requests.
REPEAT_SHARE = 0.30
REPEAT_WINDOW = 8
#: Share of fresh draws that are the large 32-CTA GEMM.
LARGE_SHARE = 0.10


def arrival_schedule(seed: int, rate: float, seconds: float,
                     small: Sequence[dict], large: Sequence[dict]) -> list[dict]:
    """A seeded open-loop schedule: Poisson arrivals over ``[0, seconds)``.

    The arrival count is fixed at ``rate * seconds`` and the exponential
    gaps are scaled to span the step (a Poisson process conditioned on its
    count), so seeds differ in when requests arrive and what they ask for,
    not in how many arrive.  ``small`` and ``large`` are request bodies
    (``{"workload", "params"}``).  Each entry is ``{"i", "due", "class",
    "workload", "params"}``; ``due`` is seconds from the start of the step.
    """
    rng = random.Random(f"serve:{seed}:{rate}")
    count = max(1, round(rate * seconds))
    gaps = [rng.expovariate(rate) for _ in range(count + 1)]
    scale = seconds / sum(gaps)
    schedule: list[dict] = []
    due = 0.0
    for gap in gaps[:count]:
        due += gap * scale
        if schedule and rng.random() < REPEAT_SHARE:
            body = dict(rng.choice(schedule[-REPEAT_WINDOW:]))
        elif rng.random() < LARGE_SHARE:
            body = {"class": "large", **rng.choice(large)}
        else:
            body = {"class": "small", **rng.choice(small)}
        body.update(i=len(schedule), due=due)
        schedule.append(body)
    return schedule


def write_jsonl(path, rows: Iterable[dict]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row, sort_keys=True) + "\n")


def read_jsonl(path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]
