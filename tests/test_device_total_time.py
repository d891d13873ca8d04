"""Unit tests for ``total_launch_cycles`` -- the perf-mode extrapolation.

The device simulates a *sample* of CTAs and extrapolates the launch's total
runtime: wave quantization (the critical SM executes ``ceil(launched /
active_sms)`` CTAs back to back), per-CTA and per-kernel launch overheads,
and the persistent-kernel critical path.  These are pure arithmetic
contracts, so they are pinned down exactly.
"""

from __future__ import annotations

import math

import pytest

from repro.gpusim.config import DEFAULT_CONFIG
from repro.gpusim.executors import ExecutorSettings, total_launch_cycles


CFG = DEFAULT_CONFIG
LAUNCH_OVERHEAD = CFG.kernel_launch_overhead_us * 1e-6 * CFG.cycles_per_second
CTA_OVERHEAD = CFG.cta_launch_overhead_cycles


@pytest.fixture
def settings() -> ExecutorSettings:
    return ExecutorSettings(config=CFG, mode="performance")


def total(settings, per_cta, launched, active=None, persistent=False,
          functional=False):
    active = min(CFG.num_sms, launched) if active is None else active
    return total_launch_cycles(settings, per_cta, launched, active, persistent,
                               functional)


class TestNonPersistentExtrapolation:
    def test_single_cta_grid(self, settings):
        # One CTA on one SM: exactly one launch overhead + one CTA.
        assert total(settings, [1000.0], launched=1) == pytest.approx(
            LAUNCH_OVERHEAD + 1000.0 + CTA_OVERHEAD)

    def test_grid_smaller_than_sm_count(self, settings):
        # Fewer CTAs than SMs: every CTA gets its own SM, a single wave.
        per_cta = [1000.0, 2000.0]
        launched = CFG.num_sms // 2
        expected = LAUNCH_OVERHEAD + (1500.0 + CTA_OVERHEAD)
        assert total(settings, per_cta, launched) == pytest.approx(expected)

    def test_exact_multiple_of_sms_quantizes_to_full_waves(self, settings):
        # launched == 3 * num_sms: the critical SM runs exactly 3 CTAs.
        per_cta = [1000.0]
        launched = 3 * CFG.num_sms
        expected = LAUNCH_OVERHEAD + 3 * (1000.0 + CTA_OVERHEAD)
        assert total(settings, per_cta, launched) == pytest.approx(expected)

    def test_partial_last_wave_rounds_up(self, settings):
        # One CTA more than a full wave costs a whole extra wave on the
        # critical SM -- the wave-quantization cliff of Fig. 8.
        per_cta = [1000.0]
        launched = CFG.num_sms + 1
        expected = LAUNCH_OVERHEAD + 2 * (1000.0 + CTA_OVERHEAD)
        assert total(settings, per_cta, launched) == pytest.approx(expected)
        # ... and is strictly more expensive than the full wave alone.
        assert total(settings, per_cta, launched) > total(settings, per_cta, CFG.num_sms)

    def test_wave_count_uses_ceiling(self, settings):
        per_cta = [500.0]
        for launched in (1, CFG.num_sms - 1, CFG.num_sms, CFG.num_sms + 1,
                         5 * CFG.num_sms - 3):
            active = min(CFG.num_sms, launched)
            waves = math.ceil(launched / active)
            expected = LAUNCH_OVERHEAD + waves * (500.0 + CTA_OVERHEAD)
            assert total(settings, per_cta, launched) == pytest.approx(expected)

    def test_sample_mean_is_used(self, settings):
        # The simulated CTAs are a sample; the extrapolation uses their mean.
        per_cta = [100.0, 200.0, 600.0]
        launched = 2 * CFG.num_sms
        expected = LAUNCH_OVERHEAD + 2 * (300.0 + CTA_OVERHEAD)
        assert total(settings, per_cta, launched) == pytest.approx(expected)


class TestEdgeCases:
    def test_empty_launch_costs_only_launch_overhead(self, settings):
        assert total(settings, [], launched=0, active=0) == pytest.approx(LAUNCH_OVERHEAD)

    def test_zero_active_sms_guard(self, settings):
        # max(1, active_sms) prevents a division by zero even for degenerate
        # active counts.
        assert total(settings, [100.0], launched=1, active=0) == pytest.approx(
            LAUNCH_OVERHEAD + 100.0 + CTA_OVERHEAD)


class TestPersistentExtrapolation:
    def test_critical_path_is_max_resident_cta(self, settings):
        # One resident CTA per SM; the slowest one is the critical path and
        # the CTA launch overhead is paid once.
        per_cta = [5000.0, 7000.0, 6000.0]
        expected = LAUNCH_OVERHEAD + CTA_OVERHEAD + 7000.0
        assert total(settings, per_cta, launched=CFG.num_sms,
                     persistent=True) == pytest.approx(expected)

    def test_single_cta_persistent_grid(self, settings):
        assert total(settings, [4000.0], launched=1, persistent=True) == pytest.approx(
            LAUNCH_OVERHEAD + CTA_OVERHEAD + 4000.0)


class TestFunctionalTotalTime:
    def test_functional_launch_matches_formula(self):
        # Functional mode simulates *every* CTA; the same wave-quantized
        # formula applies over the full population.
        settings = ExecutorSettings(config=CFG, mode="functional")
        per_cta = [100.0 * (i + 1) for i in range(4)]
        launched = 4
        mean = sum(per_cta) / len(per_cta)
        expected = LAUNCH_OVERHEAD + mean + CTA_OVERHEAD
        assert total(settings, per_cta, launched, functional=True) == pytest.approx(expected)
