"""Safety-mechanism catalogues and deployments (DECISIVE Step 4b inputs).

A *safety mechanism model* (paper Table III) lists, per component class and
failure mode, the applicable mechanisms with their diagnostic coverage and
cost::

    Component,Failure_Mode,Safety_Mechanism,Coverage,Cost(hrs)
    MCU,RAM Failure,ECC,99%,2.0

A :class:`Deployment` instantiates a mechanism on a concrete component of
the analysed system.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Tuple, Union

from repro.drivers.table import Sheet, TableDriver, Workbook


class MechanismError(Exception):
    """Raised for malformed safety-mechanism data."""


@dataclass(frozen=True)
class MechanismSpec:
    """One catalogue entry: a mechanism applicable to (class, failure mode)."""

    component_class: str
    failure_mode: str
    name: str
    coverage: float
    cost: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.coverage <= 1.0:
            raise MechanismError(
                f"mechanism {self.name!r}: coverage {self.coverage} "
                f"outside [0, 1]"
            )
        if self.cost < 0:
            raise MechanismError(f"mechanism {self.name!r}: negative cost")


@dataclass(frozen=True)
class Deployment:
    """A mechanism deployed on a concrete component's failure mode."""

    component: str
    failure_mode: str
    mechanism: str
    coverage: float
    cost: float = 0.0


class SafetyMechanismModel:
    """Catalogue of :class:`MechanismSpec`, indexed by (class, failure mode).

    Class names are matched case-insensitively with the same ``MC``/``MCU``
    synonymy as the reliability model.
    """

    _SYNONYMS = {"mc": "mcu"}

    def __init__(self, specs: Optional[Iterable[MechanismSpec]] = None) -> None:
        self._specs: List[MechanismSpec] = []
        #: (class key, mode key) -> applicable specs in catalogue order, so
        #: a search looks each FMEA row up once instead of scanning.
        self._by_pair: Dict[Tuple[str, str], List[MechanismSpec]] = {}
        for spec in specs or []:
            self.add(spec)

    @classmethod
    def _class_key(cls, component_class: str) -> str:
        key = component_class.strip().lower()
        return cls._SYNONYMS.get(key, key)

    @staticmethod
    def _mode_key(failure_mode: str) -> str:
        return failure_mode.strip().lower()

    def add(self, spec: MechanismSpec) -> MechanismSpec:
        self._specs.append(spec)
        pair = (
            self._class_key(spec.component_class),
            self._mode_key(spec.failure_mode),
        )
        self._by_pair.setdefault(pair, []).append(spec)
        return spec

    def specs(self) -> List[MechanismSpec]:
        return list(self._specs)

    def options_for(
        self, component_class: str, failure_mode: str
    ) -> List[MechanismSpec]:
        """Mechanisms applicable to a (class, failure mode) pair."""
        pair = (self._class_key(component_class), self._mode_key(failure_mode))
        return list(self._by_pair.get(pair, ()))

    def best_for(
        self, component_class: str, failure_mode: str
    ) -> Optional[MechanismSpec]:
        """Highest-coverage option (ties broken by lower cost)."""
        options = self.options_for(component_class, failure_mode)
        if not options:
            return None
        return max(options, key=lambda s: (s.coverage, -s.cost))

    def deploy(
        self, component: str, component_class: str, failure_mode: str,
        mechanism: Optional[str] = None,
    ) -> Deployment:
        """Instantiate a catalogue mechanism on a concrete component."""
        options = self.options_for(component_class, failure_mode)
        if mechanism is not None:
            options = [s for s in options if s.name == mechanism]
        if not options:
            raise MechanismError(
                f"no mechanism for {component_class!r}/{failure_mode!r}"
                + (f" named {mechanism!r}" if mechanism else "")
            )
        spec = max(options, key=lambda s: (s.coverage, -s.cost))
        return Deployment(
            component=component,
            failure_mode=failure_mode,
            mechanism=spec.name,
            coverage=spec.coverage,
            cost=spec.cost,
        )

    def __len__(self) -> int:
        return len(self._specs)


def load_mechanism_table(
    location: Union[str, Path], sheet: str = ""
) -> SafetyMechanismModel:
    """Load a Table III-style workbook."""
    driver = TableDriver(location, metadata=sheet)
    rows = driver.elements(sheet or None)
    model = SafetyMechanismModel()
    for index, row in enumerate(rows):
        try:
            coverage = row.get("Coverage", row.get("Cov."))
            if coverage is None:
                raise KeyError("Coverage")
            coverage = float(coverage)
            if coverage > 1.0:
                coverage /= 100.0
            cost_value = row.get("Cost(hrs)", row.get("Cost", 0.0)) or 0.0
            model.add(
                MechanismSpec(
                    component_class=str(row["Component"]),
                    failure_mode=str(row["Failure_Mode"]),
                    name=str(row["Safety_Mechanism"]),
                    coverage=coverage,
                    cost=float(cost_value),
                )
            )
        except KeyError as exc:
            raise MechanismError(
                f"{location} row {index + 1}: missing column {exc}"
            ) from exc
    if len(model) == 0:
        raise MechanismError(f"{location}: no safety mechanisms found")
    return model


def save_mechanism_table(
    model: SafetyMechanismModel, location: Union[str, Path]
) -> Path:
    """Write a catalogue in Table III format."""
    sheet = Sheet(Path(location).stem or "mechanisms")
    for spec in model.specs():
        sheet.append(
            {
                "Component": spec.component_class,
                "Failure_Mode": spec.failure_mode,
                "Safety_Mechanism": spec.name,
                "Coverage": f"{spec.coverage * 100:g}%",
                "Cost(hrs)": spec.cost,
            }
        )
    return Workbook([sheet]).save(location)
