"""Shared fixtures: the paper's case-study artefacts."""

import pytest

from repro.casestudies.power_supply import (
    ASSUMED_STABLE,
    build_power_supply_simulink,
    build_power_supply_ssam,
    power_supply_mechanisms,
    power_supply_reliability,
)
from repro.safety import run_simulink_fmea, run_ssam_fmea


@pytest.fixture
def psu_simulink():
    return build_power_supply_simulink()


@pytest.fixture
def psu_ssam():
    return build_power_supply_ssam()


@pytest.fixture
def psu_reliability():
    return power_supply_reliability()


@pytest.fixture
def psu_mechanisms():
    return power_supply_mechanisms()


@pytest.fixture
def psu_fmea(psu_simulink, psu_reliability):
    """The paper's injection FMEA (Step 4a on Fig. 11)."""
    return run_simulink_fmea(
        psu_simulink,
        psu_reliability,
        sensors=["CS1"],
        assume_stable=ASSUMED_STABLE,
    )


@pytest.fixture
def psu_graph_fmea(psu_ssam, psu_reliability):
    """Algorithm 1 on the hand-built SSAM power supply."""
    return run_ssam_fmea(psu_ssam.top_components()[0], psu_reliability)
