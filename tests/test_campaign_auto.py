"""When a campaign fans out: ``workers`` is a cap, and one rule on
observable input — ``pending_jobs × system_size`` against
:data:`PARALLEL_MIN_WORK` — decides whether a run uses it."""

import pytest

from repro.casestudies import (
    SYSTEM_B_ASSUMED_STABLE,
    build_system_b_simulink,
    power_network_reliability,
)
from repro.casestudies.power_supply import (
    ASSUMED_STABLE,
    build_power_supply_simulink,
    power_supply_reliability,
)
from repro.cli import main
from repro.safety import campaign as campaign_mod
from repro.safety.campaign import PARALLEL_MIN_WORK, FaultInjectionCampaign
from repro.safety.fmea import run_simulink_fmea


@pytest.fixture(scope="module")
def psu():
    return build_power_supply_simulink(), power_supply_reliability()


def _campaign(psu, **kwargs):
    model, reliability = psu
    return FaultInjectionCampaign(
        model, reliability, assume_stable=ASSUMED_STABLE, **kwargs
    )


def _rows(result):
    return [
        (row.component, row.failure_mode, row.safety_related, row.effect)
        for row in result.rows
    ]


class TestEffectiveWorkers:
    def test_serial_always_one(self, psu):
        """A cap of one never fans out, however much work there is."""
        campaign = _campaign(psu, workers=1)
        assert campaign._effective_workers(10 ** 6, 10 ** 6) == 1

    def test_auto_below_threshold_is_serial(self, psu):
        campaign = _campaign(psu, workers=8)
        jobs = 100
        size = int(PARALLEL_MIN_WORK // jobs)
        if jobs * size >= PARALLEL_MIN_WORK:
            size -= 1
        assert campaign._effective_workers(jobs, size) == 1
        assert campaign._effective_workers(0, 10 ** 6) == 1

    def test_auto_at_threshold_honours_requested_workers(self, psu):
        campaign = _campaign(psu, workers=8)
        jobs = 100
        size = -int(-PARALLEL_MIN_WORK // jobs)  # ceil: jobs * size >= rule
        assert campaign._effective_workers(jobs, size) == 8

    def test_workers_is_a_cap_on_pending_jobs(self, psu):
        campaign = _campaign(psu, workers=8)
        assert campaign._effective_workers(3, 10 ** 9) == 3

    def test_unknown_strategy_rejected(self, psu):
        """The ``strategy`` option is gone: workers and the rule decide."""
        with pytest.raises(TypeError, match="strategy"):
            _campaign(psu, strategy="auto")


class TestStrategyRuns:
    def test_auto_small_campaign_runs_serially(self, psu):
        """The power supply's 9 jobs over 7 unknowns sit far below the
        crossover, where a fresh pool costs more than the whole solve."""
        result = _campaign(psu, workers=4).run()
        assert result.stats.workers == 1
        assert result.stats.requested_workers == 4
        assert not result.stats.parallel_fallback

    def test_serial_strategy_matches_fixed_rows(self, psu, force_fan_out):
        """Serial and fanned-out runs of one campaign give the same rows."""
        serial = _campaign(psu).run()
        fanned = _campaign(psu, workers=2).run()
        assert serial.stats.workers == 1
        assert fanned.stats.workers == 2
        assert _rows(fanned) == _rows(serial)

    def test_run_simulink_fmea_passthrough(self, psu):
        model, reliability = psu
        result = run_simulink_fmea(
            model,
            reliability,
            sensors=["CS1"],
            assume_stable=ASSUMED_STABLE,
            workers=4,
        )
        assert result.stats.requested_workers == 4
        assert result.stats.workers == 1

    def test_cap_survives_runs_on_one_object(self, psu, monkeypatch):
        """Regression: ``run()`` used to overwrite ``self.workers`` with the
        count it used, so a serial first run silently capped every later
        run of the same object at one worker."""
        # Between the power supply (63) and System B (230 jobs × 107).
        monkeypatch.setattr(campaign_mod, "PARALLEL_MIN_WORK", 1000)
        campaign = _campaign(psu, workers=4)
        first = campaign.run()
        assert (first.stats.workers, first.stats.requested_workers) == (1, 4)
        campaign.model = build_system_b_simulink()
        campaign.reliability = power_network_reliability()
        campaign.assume_stable = SYSTEM_B_ASSUMED_STABLE
        second = campaign.run()
        assert second.stats.requested_workers == 4
        assert second.stats.workers == 4 or second.stats.parallel_fallback
        assert campaign.workers == 4


class TestCliStrategy:
    def test_demo_workers_flag_reports_the_cap(self, capsys):
        assert main(["demo", "--workers", "2", "--stats"]) == 0
        stats = dict(
            line.split(None, 1)
            for line in capsys.readouterr().out.splitlines()
            if line.startswith(("workers ", "requested_workers "))
        )
        assert {k: v.strip() for k, v in stats.items()} == {
            "workers": "1", "requested_workers": "2",
        }

    def test_bad_strategy_rejected_by_parser(self):
        """``--strategy`` is no longer a flag, whatever its value."""
        for value in ("auto", "turbo"):
            with pytest.raises(SystemExit):
                main(["demo", "--strategy", value])
