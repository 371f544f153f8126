"""Campaign options that decide how a run is carried out: every campaign
runs serially, so the older ``strategy`` option is refused at each layer
and :func:`run_simulink_fmea` hands its options straight to the
campaign."""

import pytest

from repro.casestudies.power_supply import (
    ASSUMED_STABLE,
    build_power_supply_simulink,
    power_supply_reliability,
)
from repro.cli import main
from repro.safety.campaign import FaultInjectionCampaign
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
    def test_unknown_strategy_rejected(self, psu):
        """The ``strategy`` option is gone: every campaign runs serially."""
        with pytest.raises(TypeError, match="strategy"):
            _campaign(psu, strategy="auto")


class TestStrategyRuns:
    def test_run_simulink_fmea_passthrough(self, psu):
        """``run_simulink_fmea`` gives the rows of the campaign it builds
        from the same options, and takes no worker count."""
        model, reliability = psu
        result = run_simulink_fmea(
            model,
            reliability,
            sensors=["CS1"],
            assume_stable=ASSUMED_STABLE,
        )
        direct = _campaign(psu, sensors=["CS1"]).run()
        assert result.rows
        assert _rows(result) == _rows(direct)
        with pytest.raises(TypeError, match="workers"):
            run_simulink_fmea(
                model,
                reliability,
                sensors=["CS1"],
                assume_stable=ASSUMED_STABLE,
                workers=4,
            )


class TestCliStrategy:
    def test_bad_strategy_rejected_by_parser(self):
        """``--strategy`` is no longer a flag, whatever its value."""
        for value in ("auto", "turbo"):
            with pytest.raises(SystemExit):
                main(["demo", "--strategy", value])
