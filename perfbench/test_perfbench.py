"""Unit tests of the benchmark's own measurement code (no program run)."""

from __future__ import annotations

import pytest

import pb_measure as pm


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    values = [float(v) for v in range(1, 151)]  # 150 samples, shuffled order
    values.reverse()
    level, value = pm.tail(values)
    assert value == 140.0  # exactly ten samples (141..150) lie beyond it
    assert level == pytest.approx(100.0 * 140 / 150)
    assert sum(1 for v in values if v > value) == 10


def test_tail_with_1000_samples_is_p99():
    level, value = pm.tail(list(range(1000)))
    assert level == pytest.approx(99.0)
    assert value == 989


def test_tail_with_ten_or_fewer_samples_is_the_maximum():
    assert pm.tail([3.0, 1.0, 2.0]) == (100.0, 3.0)
    assert pm.tail(list(range(10))) == (100.0, 9)
    level, value = pm.tail(list(range(11)))
    assert value == 0 and level == pytest.approx(100.0 / 11)


def test_percentile_and_median_nearest_rank():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert pm.percentile(values, 50) == 3.0
    assert pm.percentile(values, 100) == 5.0
    assert pm.percentile(values, 1) == 1.0
    assert pm.median([4.0, 1.0, 3.0, 2.0]) == 2.5
    with pytest.raises(ValueError):
        pm.tail([])


def _span(span_id, parent, start, end, name="x"):
    return {"id": span_id, "parent": parent, "start": start, "end": end,
            "name": name}


def test_self_time_subtracts_nested_children():
    spans = [
        _span(1, 0, 0.0, 10.0, "core.compile"),
        _span(2, 1, 1.0, 4.0, "ir.passes"),
        _span(3, 2, 2.0, 3.0, "ir.verify"),
        _span(4, 1, 6.0, 7.0, "ir.verify"),
    ]
    own = pm.self_times(spans)
    assert own == {1: pytest.approx(6.0), 2: pytest.approx(2.0),
                   3: pytest.approx(1.0), 4: pytest.approx(1.0)}
    by_name = pm.self_time_by_name(spans)
    assert by_name["ir.verify"] == (pytest.approx(2.0), 2)
    assert by_name["core.compile"] == (pytest.approx(6.0), 1)


def test_self_time_merges_overlapping_and_clips_children():
    spans = [
        _span(1, 0, 0.0, 10.0),
        _span(2, 1, 1.0, 5.0),
        _span(3, 1, 4.0, 6.0),    # overlaps span 2: [1, 6] covered once
        _span(4, 1, 9.0, 12.0),   # runs past its parent: clipped to [9, 10]
    ]
    assert pm.self_times(spans)[1] == pytest.approx(10.0 - 5.0 - 1.0)


SMALL = [{"workload": "softmax", "params": {"rows": 16, "seed": s}} for s in range(4)]
LARGE = [{"workload": "gemm", "params": {"M": 1024, "seed": 0}}]


def test_schedule_is_deterministic_for_a_seed():
    first = pm.arrival_schedule(7, 30.0, 20.0, SMALL, LARGE)
    again = pm.arrival_schedule(7, 30.0, 20.0, SMALL, LARGE)
    other = pm.arrival_schedule(8, 30.0, 20.0, SMALL, LARGE)
    assert first == again
    assert first != other
    dues = [entry["due"] for entry in first]
    assert dues == sorted(dues) and 0.0 < dues[0] and dues[-1] < 20.0
    assert [entry["i"] for entry in first] == list(range(len(first)))
    assert len(first) == len(other) == 600  # 30/s for 20 s, on every seed
    large = sum(1 for entry in first if entry["class"] == "large")
    assert 0.03 < large / len(first) < 0.2


def test_schedule_round_trips_through_jsonl(tmp_path):
    schedule = pm.arrival_schedule(3, 10.0, 5.0, SMALL, LARGE)
    path = tmp_path / "schedule.jsonl"
    pm.write_jsonl(path, schedule)
    assert pm.read_jsonl(path) == schedule


def test_goodput_counts_only_ok_replies_within_the_limit():
    latencies = [0.1, 0.3, None, 0.2, 0.25]
    assert pm.goodput(latencies, 0.25, 2.0) == pytest.approx(1.5)
    assert pm.goodput(latencies, None, 2.0) == pytest.approx(2.0)
    assert pm.goodput([None, None], None, 1.0) == 0.0
    with pytest.raises(ValueError):
        pm.goodput(latencies, 0.25, 0.0)


def test_geomean_ignores_non_positive_cells():
    assert pm.geomean([1.0, 4.0]) == pytest.approx(2.0)
    assert pm.geomean([2.0, 0.0]) == pytest.approx(2.0)
    assert pm.geomean([]) == 0.0
