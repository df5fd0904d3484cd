"""Analytic run-failure estimates for noisy executions.

With an element failure probability p and a circuit of given depth, the
chance that at least one element fails is 1 - (1 - p)**depth. The same
form covers readout: one flip chance per measured qubit. Both are crude
but give the right scale for deciding whether a run is worth submitting.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass
from importlib import resources

from .grover2d import Budget
from .statevec import NoiseModel


@dataclass(frozen=True)
class ErrorEstimate:
    """Combined failure picture for one planned run."""

    p_gate: float
    p_meas: float
    exponent: int
    measured_qubits: int
    p_gate_failure: float
    p_meas_failure: float
    per: str

    def as_dict(self) -> dict:
        return {
            "p_gate": self.p_gate,
            "p_meas": self.p_meas,
            "exponent": self.exponent,
            "measured_qubits": self.measured_qubits,
            "p_gate_failure": self.p_gate_failure,
            "p_meas_failure": self.p_meas_failure,
            "per": self.per,
        }


def _check_probability(p: float) -> None:
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability must be in [0, 1], got {p}")


def p_gate_failure(p_gate: float, depth: int) -> float:
    """Chance of at least one element failure across the given depth."""
    _check_probability(p_gate)
    if depth < 0:
        raise ValueError("depth must be >= 0")
    return 1.0 - (1.0 - p_gate) ** depth


def p_meas_failure(p_meas: float, measured_qubits: int) -> float:
    """Chance of at least one readout flip across the measured qubits."""
    _check_probability(p_meas)
    if measured_qubits < 0:
        raise ValueError("measured_qubits must be >= 0")
    return 1.0 - (1.0 - p_meas) ** measured_qubits


def estimate(
    budget: Budget,
    noise: NoiseModel,
    measured_qubits: int,
    per: str = "depth",
) -> ErrorEstimate:
    """Failure estimate for a metered circuit under the given error rates.

    ``per`` picks the exponent for the element term: "depth" uses the
    layered depth (elements off the critical path overlap), "ops" uses the
    total element count (every element is a failure chance).
    """
    if per not in ("depth", "ops"):
        raise ValueError(f"per must be 'depth' or 'ops', got {per!r}")
    exponent = budget.depth if per == "depth" else budget.elements
    return ErrorEstimate(
        p_gate=noise.p_gate,
        p_meas=noise.p_meas,
        exponent=exponent,
        measured_qubits=measured_qubits,
        p_gate_failure=p_gate_failure(noise.p_gate, exponent),
        p_meas_failure=p_meas_failure(noise.p_meas, measured_qubits),
        per=per,
    )


def load_presets() -> dict[str, NoiseModel]:
    """Error rates of the device presets shipped with the package."""
    text = resources.files(__package__).joinpath("devices.cfg").read_text()
    parser = configparser.ConfigParser()
    parser.read_string(text)
    presets = {}
    for name in parser.sections():
        section = parser[name]
        presets[name] = NoiseModel(
            p_gate=float(section["p_gate"]),
            p_meas=float(section["p_meas"]),
        )
    return presets
