from __future__ import annotations

import numpy as np
import pytest

from gridloc import (
    Budget,
    ErrorEstimate,
    NoiseModel,
    estimate,
    load_presets,
    p_gate_failure,
    p_meas_failure,
)


def test_gate_failure_reference_points():
    assert p_gate_failure(3.28e-3, 89) == pytest.approx(0.2535, abs=5e-4)
    assert p_gate_failure(3.81e-3, 707) == pytest.approx(0.9327, abs=5e-4)
    assert p_gate_failure(3.81e-3, 292) == pytest.approx(0.6720, abs=5e-4)


def test_gate_failure_edges():
    assert p_gate_failure(0.0, 1000) == 0.0
    assert p_gate_failure(1.0, 1) == 1.0
    assert p_gate_failure(0.5, 0) == 0.0


def test_meas_failure_values():
    assert p_meas_failure(0.0, 5) == 0.0
    assert p_meas_failure(1.0, 1) == 1.0
    assert p_meas_failure(0.01, 13) == pytest.approx(0.1225, abs=5e-5)


def test_failure_monotonicity():
    rng = np.random.default_rng(31)
    for _ in range(200):
        p1, p2 = sorted(rng.uniform(0, 1, size=2))
        d1, d2 = sorted(rng.integers(0, 2000, size=2))
        assert p_gate_failure(p1, int(d1)) <= p_gate_failure(p2, int(d1)) + 1e-15
        assert p_gate_failure(p1, int(d1)) <= p_gate_failure(p1, int(d2)) + 1e-15
        assert 0.0 <= p_gate_failure(p2, int(d2)) <= 1.0


def test_estimate_composition():
    budget = Budget(elements=120, depth=89)
    device = NoiseModel(p_gate=3.28e-3, p_meas=0.01)
    by_depth = estimate(budget, device, measured_qubits=4)
    assert by_depth.per == "depth"
    assert by_depth.exponent == 89
    assert by_depth.p_gate_failure == pytest.approx(p_gate_failure(3.28e-3, 89))
    assert by_depth.p_meas_failure == pytest.approx(p_meas_failure(0.01, 4))
    by_ops = estimate(budget, device, measured_qubits=4, per="ops")
    assert by_ops.exponent == 120
    with pytest.raises(ValueError):
        estimate(budget, device, measured_qubits=4, per="layers")


def test_estimate_as_dict_round_trips():
    d = estimate(Budget(elements=10, depth=5),
                 NoiseModel(p_gate=0.001, p_meas=0.02),
                 measured_qubits=3).as_dict()
    assert set(d) == {
        "p_gate", "p_meas", "exponent", "measured_qubits",
        "p_gate_failure", "p_meas_failure", "per",
    }


def test_device_preset_validation():
    with pytest.raises(ValueError):
        NoiseModel(p_gate=-0.1, p_meas=0.0)
    with pytest.raises(ValueError):
        NoiseModel(p_gate=0.0, p_meas=1.5)
    assert all(isinstance(preset, NoiseModel) for preset in load_presets().values())


def test_presets_carry_published_rates():
    presets = load_presets()
    assert presets["ibm-brisbane-2024"].p_gate == pytest.approx(3.28e-3)
    assert presets["ibm-kyiv-2024"].p_gate == pytest.approx(3.81e-3)
    for preset in presets.values():
        assert 0.0 <= preset.p_meas <= 1.0
