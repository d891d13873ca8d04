"""The deterministic fault-injection registry (:mod:`repro.faults`).

Covered here: spec-grammar parsing and validation, matching semantics
(site / worker / cta / nth / match), budget consumption across forked
processes, deterministic probability draws, activation scoping
(``inject_faults`` stack over the ``REPRO_FAULTS`` environment), counter
sync, and the disk-tier quarantine paths the ``cache_read`` /
``cache_write`` kinds exist to exercise.  Recovery of the *worker pool*
from injected faults lives in ``tests/test_parallel.py``,
``tests/test_pool.py`` and ``tests/test_fuzz_differential.py``.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import pickle

import pytest

from repro import faults
from repro.core.cache import DiskCache
from repro.core.options import CompileOptions
from repro.faults.registry import _deterministic_draw
from repro.gpusim.parallel import fork_available
from repro.perf.counters import COUNTERS
from repro.tune.store import TunedRecord, TuneStore, tuning_key

needs_fork = pytest.mark.skipif(not fork_available(), reason="requires fork()")


# ---------------------------------------------------------------------------
# Spec parsing
# ---------------------------------------------------------------------------


class TestSpecParsing:
    def test_minimal_spec(self):
        (spec,) = faults.parse_faults("kill")
        assert spec.kind == "kill"
        assert spec.site == "worker"
        assert spec.worker is None and spec.cta is None and spec.nth is None
        assert spec.count == 1 and spec.prob == 1.0

    def test_full_spec(self):
        (spec,) = faults.parse_faults(
            "hang:worker=1,cta=2,nth=0,count=3,prob=0.5,seed=7,seconds=9.5")
        assert spec.kind == "hang"
        assert (spec.worker, spec.cta, spec.nth) == (1, 2, 0)
        assert (spec.count, spec.prob, spec.seed, spec.seconds) == (3, 0.5, 7, 9.5)

    def test_multiple_specs_and_whitespace(self):
        specs = faults.parse_faults(" kill:worker=0 ; pipe ;; cache_read:match=tuned ")
        assert [s.kind for s in specs] == ["kill", "pipe", "cache_read"]
        assert specs[2].match == "tuned"

    def test_unlimited_count_spellings(self):
        assert faults.parse_faults("kill:count=-1")[0].count == -1
        assert faults.parse_faults("kill:count=inf")[0].count == -1

    def test_empty_spec_parses_to_nothing(self):
        assert faults.parse_faults("") == []
        assert faults.parse_faults(" ; ") == []

    @pytest.mark.parametrize("bad", [
        "explode",                    # unknown kind
        "kill:worker",                # missing value
        "kill:worker=",               # empty value
        "kill:shard=1",               # unknown field
        "kill:worker=one",            # non-integer
        "kill:count=0",               # zero budget
        "kill:count=-2",              # invalid negative
        "kill:prob=0",                # prob out of range
        "kill:prob=1.5",
    ])
    def test_malformed_specs_are_rejected(self, bad):
        with pytest.raises(faults.FaultSpecError):
            faults.parse_faults(bad)

    def test_describe_round_trips_the_interesting_fields(self):
        (spec,) = faults.parse_faults("kill:worker=1,cta=0,count=2")
        text = spec.describe()
        assert "kill" in text and "worker=1" in text and "count=2" in text


# ---------------------------------------------------------------------------
# Matching and budgets
# ---------------------------------------------------------------------------


class TestMatching:
    def test_site_and_worker_matching(self):
        with faults.inject_faults("kill:worker=1") as reg:
            assert reg.fire("pipe", worker=1) is None          # wrong site
            assert reg.fire("worker", worker=0) is None        # wrong worker
            spec = reg.fire("worker", worker=1)
            assert spec is not None and spec.kind == "kill"

    def test_wildcard_fields_match_anything(self):
        with faults.inject_faults("kill") as reg:
            assert reg.fire("worker", worker=3, cta=9) is not None

    def test_cta_matching(self):
        with faults.inject_faults("kill:cta=2,count=-1") as reg:
            assert reg.fire("worker", worker=0, cta=0) is None
            assert reg.fire("worker", worker=0, cta=2) is not None

    def test_nth_counts_matching_hits_only(self):
        """nth indexes hits that matched the other constraints."""
        with faults.inject_faults("kill:worker=1,nth=2") as reg:
            for _ in range(5):
                assert reg.fire("worker", worker=0) is None  # never counted
            assert reg.fire("worker", worker=1) is None      # hit 0
            assert reg.fire("worker", worker=1) is None      # hit 1
            assert reg.fire("worker", worker=1) is not None  # hit 2: fires
            assert reg.fire("worker", worker=1) is None      # past nth

    def test_count_budget_is_consumed(self):
        with faults.inject_faults("kill:count=2") as reg:
            assert reg.fire("worker", worker=0) is not None
            assert reg.fire("worker", worker=0) is not None
            assert reg.fire("worker", worker=0) is None
            assert reg.fired_total() == 2
            assert reg.fired_by_kind() == {"kill": 2}

    def test_unlimited_budget_never_exhausts(self):
        with faults.inject_faults("kill:count=-1") as reg:
            for _ in range(10):
                assert reg.fire("worker", worker=0) is not None
            assert reg.fired_total() == 10

    def test_path_match_scopes_cache_faults(self):
        with faults.inject_faults("cache_read:match=tuned,count=-1") as reg:
            assert reg.fire("cache_read", path="/x/compile/abc.pkl") is None
            assert reg.fire("cache_read", path="/x/tuned/abc.json") is not None

    def test_first_matching_spec_wins(self):
        with faults.inject_faults("hang:worker=0;kill:worker=0") as reg:
            spec = reg.fire("worker", worker=0)
            assert spec.kind == "hang"
            spec = reg.fire("worker", worker=0)  # hang's budget is spent
            assert spec.kind == "kill"

    @needs_fork
    def test_budget_is_shared_across_forked_processes(self):
        """A fault consumed inside a child is consumed for the whole tree."""
        with faults.inject_faults("kill:count=1") as reg:

            def child():
                fired = reg.fire("worker", worker=0)
                os._exit(0 if fired is not None else 1)

            proc = mp.get_context("fork").Process(target=child)
            proc.start()
            proc.join()
            assert proc.exitcode == 0          # the child's hit fired...
            assert reg.fired_total() == 1      # ...and the parent sees it
            assert reg.fire("worker", worker=0) is None  # budget is gone


class TestDeterministicProbability:
    def test_draws_are_stable_across_calls(self):
        draws = [_deterministic_draw(7, i, 0.5) for i in range(64)]
        assert draws == [_deterministic_draw(7, i, 0.5) for i in range(64)]
        assert any(draws) and not all(draws)  # prob=0.5 actually splits

    def test_seed_changes_the_pattern(self):
        a = [_deterministic_draw(1, i, 0.5) for i in range(64)]
        b = [_deterministic_draw(2, i, 0.5) for i in range(64)]
        assert a != b

    def test_prob_one_always_fires(self):
        assert all(_deterministic_draw(0, i, 1.0) for i in range(16))

    def test_registry_prob_is_reproducible(self):
        def run():
            with faults.inject_faults("kill:prob=0.5,seed=3,count=-1") as reg:
                return [reg.fire("worker", worker=0) is not None
                        for _ in range(32)]

        first = run()
        assert first == run()
        assert any(first) and not all(first)


# ---------------------------------------------------------------------------
# Activation scoping and counter sync
# ---------------------------------------------------------------------------


class TestScoping:
    def test_no_registry_means_no_fires(self):
        assert faults.active_registry() is None
        assert faults.fire("worker", worker=0) is None

    def test_inject_faults_scopes_and_restores(self):
        assert faults.active_registry() is None
        with faults.inject_faults("kill") as reg:
            assert faults.active_registry() is reg
            with faults.inject_faults("pipe") as inner:
                assert faults.active_registry() is inner
            assert faults.active_registry() is reg
        assert faults.active_registry() is None

    def test_env_registry_activates_and_caches(self, monkeypatch):
        monkeypatch.setenv(faults.FAULTS_ENV, "kill:worker=0")
        reg = faults.active_registry()
        assert reg is not None and reg.specs[0].kind == "kill"
        assert faults.active_registry() is reg  # same raw value -> same registry
        monkeypatch.setenv(faults.FAULTS_ENV, "pipe")
        reg2 = faults.active_registry()
        assert reg2 is not reg and reg2.specs[0].kind == "pipe"
        monkeypatch.delenv(faults.FAULTS_ENV)
        assert faults.active_registry() is None

    def test_inject_shadows_the_environment(self, monkeypatch):
        monkeypatch.setenv(faults.FAULTS_ENV, "kill")
        with faults.inject_faults("pipe") as reg:
            assert faults.active_registry() is reg
        assert faults.active_registry().specs[0].kind == "kill"
        monkeypatch.delenv(faults.FAULTS_ENV)

    def test_fires_are_synced_into_sim_counters(self):
        assert COUNTERS.faults_injected == 0
        with faults.inject_faults("kill:count=2") as reg:
            reg.fire("worker", worker=0)
            reg.fire("worker", worker=0)
        assert COUNTERS.faults_injected == 2

    def test_sync_is_incremental_not_double_counted(self):
        with faults.inject_faults("kill:count=3") as reg:
            reg.fire("worker", worker=0)
            assert COUNTERS.faults_injected == 1
            faults.sync_fired()
            faults.sync_fired()
            assert COUNTERS.faults_injected == 1
            reg.fire("worker", worker=0)
        assert COUNTERS.faults_injected == 2


# ---------------------------------------------------------------------------
# Disk-tier quarantine (cache_read / cache_write faults)
# ---------------------------------------------------------------------------


def _store_entry(cache: DiskCache, key: str) -> None:
    assert cache.store(key, {"payload": 123})


class TestCompileCacheQuarantine:
    def test_injected_read_failure_quarantines_the_entry(self, tmp_path):
        cache = DiskCache(tmp_path)
        _store_entry(cache, "k1")
        with faults.inject_faults("cache_read"):
            assert cache.load("k1") is None
        assert COUNTERS.compile_disk_errors == 1
        assert COUNTERS.compile_disk_quarantined == 1
        assert not cache.path_for("k1").exists()
        corrupt = tmp_path / "k1.pkl.corrupt"
        assert corrupt.exists()
        # the evidence survives intact -- and never matches a *.pkl glob
        assert pickle.loads(corrupt.read_bytes())["payload"] == 123
        assert list(tmp_path.glob("*.pkl")) == []
        # subsequent loads are plain misses, not repeated quarantines
        assert cache.load("k1") is None
        assert COUNTERS.compile_disk_quarantined == 1

    def test_injected_write_failure_is_swallowed(self, tmp_path):
        cache = DiskCache(tmp_path)
        with faults.inject_faults("cache_write"):
            assert cache.store("k1", {"payload": 1}) is False
        assert COUNTERS.compile_disk_errors == 1
        assert COUNTERS.compile_disk_writes == 0
        assert not cache.path_for("k1").exists()
        # the tier still works afterwards
        _store_entry(cache, "k1")
        assert cache.load("k1")["payload"] == 123

    def test_truncated_entry_is_quarantined(self, tmp_path):
        cache = DiskCache(tmp_path)
        _store_entry(cache, "k1")
        path = cache.path_for("k1")
        path.write_bytes(path.read_bytes()[:10])  # simulate a partial write
        assert cache.load("k1") is None
        assert COUNTERS.compile_disk_quarantined == 1
        assert (tmp_path / "k1.pkl.corrupt").exists()


def _tuned_record(key: str) -> TunedRecord:
    return TunedRecord(key=key, workload="gemm", options=CompileOptions(),
                       problem_overrides=(), measured_tflops=1.0,
                       default_tflops=0.5, predicted_tflops=0.9,
                       measurements=3)


class TestTuneStoreQuarantine:
    def _key(self):
        from repro.gpusim.config import DEFAULT_CONFIG

        return tuning_key(["abc"], int, DEFAULT_CONFIG)

    def test_injected_read_failure_quarantines_the_entry(self, tmp_path):
        store = TuneStore(tmp_path)
        key = self._key()
        assert store.store(_tuned_record(key))
        with faults.inject_faults("cache_read"):
            assert store.load(key) is None
        assert COUNTERS.tune_store_quarantined == 1
        assert COUNTERS.tune_store_misses == 1
        assert not store.path_for(key).exists()
        assert (tmp_path / f"{key}.json.corrupt").exists()
        assert list(tmp_path.glob("*.json")) == []
        # a re-tune can repopulate the slot
        assert store.store(_tuned_record(key))
        assert store.load(key).measured_tflops == 1.0

    def test_injected_write_failure_is_swallowed(self, tmp_path):
        store = TuneStore(tmp_path)
        key = self._key()
        with faults.inject_faults("cache_write"):
            assert store.store(_tuned_record(key)) is False
        assert not store.path_for(key).exists()

    def test_corrupt_json_is_quarantined(self, tmp_path):
        store = TuneStore(tmp_path)
        key = self._key()
        assert store.store(_tuned_record(key))
        store.path_for(key).write_text("{not json", encoding="utf-8")
        assert store.load(key) is None
        assert COUNTERS.tune_store_quarantined == 1
        assert (tmp_path / f"{key}.json.corrupt").exists()

    def test_match_field_scopes_faults_to_one_tier(self, tmp_path):
        """match= lets a chaos run fault only the tune store."""
        compile_dir = tmp_path / "compile"
        tune_dir = tmp_path / "tuned"
        cache = DiskCache(compile_dir)
        store = TuneStore(tune_dir)
        key = self._key()
        _store_entry(cache, "k1")
        assert store.store(_tuned_record(key))
        with faults.inject_faults("cache_read:match=tuned,count=-1"):
            assert cache.load("k1")["payload"] == 123   # untouched
            assert store.load(key) is None              # faulted
        assert COUNTERS.compile_disk_quarantined == 0
        assert COUNTERS.tune_store_quarantined == 1
