"""Dense state-vector simulator for a small controlled-gate set.

Amplitudes are indexed with qubit 0 as the least significant bit of the
basis index. The gate set is H, X, Z plus multi-controlled X and Z whose
controls carry explicit polarities, which is all the search circuits need.
Noise is optional: a per-operation depolarizing channel and independent
readout flips, both driven by one seeded generator so runs replay exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

GATE_KINDS = ("H", "X", "Z", "MCX", "MCZ")

# Default guard: 2**26 amplitudes (1 GiB of complex128) per state.
DEFAULT_MAX_QUBITS = 26

_RSQRT2 = 1.0 / math.sqrt(2.0)


class WidthTooLargeError(Exception):
    """Raised when a requested state would blow the memory budget."""


@dataclass(frozen=True)
class GateOp:
    """One gate: kind, target qubit, and (qubit, polarity) controls."""

    kind: str
    target: int
    controls: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        if self.kind not in GATE_KINDS:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        if self.kind in ("H", "X", "Z") and self.controls:
            raise ValueError(f"{self.kind} takes no controls")
        if self.kind in ("MCX", "MCZ") and not self.controls:
            raise ValueError(f"{self.kind} needs at least one control")
        seen = {self.target}
        for q, pol in self.controls:
            if pol not in (0, 1):
                raise ValueError(f"control polarity must be 0 or 1, got {pol}")
            if q in seen:
                raise ValueError(f"qubit {q} repeated in gate")
            seen.add(q)

    def qubits(self) -> tuple[int, ...]:
        return (self.target,) + tuple(q for q, _ in self.controls)


def h(target: int) -> GateOp:
    return GateOp("H", target)


def x(target: int) -> GateOp:
    return GateOp("X", target)


def z(target: int) -> GateOp:
    return GateOp("Z", target)


def mcx(controls, target: int) -> GateOp:
    return GateOp("MCX", target, tuple(controls))


def mcz(controls, target: int) -> GateOp:
    return GateOp("MCZ", target, tuple(controls))


@dataclass(frozen=True)
class Circuit:
    """An ordered gate list over a fixed qubit count."""

    width: int
    ops: tuple[GateOp, ...]

    def __post_init__(self):
        object.__setattr__(self, "ops", tuple(self.ops))
        for op in self.ops:
            for q in op.qubits():
                if not 0 <= q < self.width:
                    raise ValueError(f"gate touches qubit {q}, circuit width {self.width}")

    @property
    def depth(self) -> int:
        """Layer count: each op lands right after the ops it must follow."""
        busy = [0] * self.width
        depth = 0
        for op in self.ops:
            layer = 1 + max(busy[q] for q in op.qubits())
            for q in op.qubits():
                busy[q] = layer
            depth = max(depth, layer)
        return depth


@dataclass(frozen=True)
class NoiseModel:
    """p_gate: per-op depolarizing probability. p_meas: per-bit readout flip."""

    p_gate: float = 0.0
    p_meas: float = 0.0

    def __post_init__(self):
        for name, p in (("p_gate", self.p_gate), ("p_meas", self.p_meas)):
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {p}")


class StateVector:
    """2**width complex amplitudes, qubit 0 = least significant bit."""

    __slots__ = ("width", "amps", "noise_events")

    def __init__(self, width: int, amps: np.ndarray, noise_events: int = 0):
        if amps.shape != (1 << width,):
            raise ValueError(f"expected {1 << width} amplitudes, got {amps.shape}")
        self.width = width
        self.amps = amps
        self.noise_events = noise_events

    def copy(self) -> "StateVector":
        return StateVector(self.width, self.amps.copy(), self.noise_events)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amps) ** 2


def init_state(width: int, max_qubits: int = DEFAULT_MAX_QUBITS) -> StateVector:
    """|0...0> over ``width`` qubits, guarded against oversized allocations."""
    if width < 1:
        raise ValueError("width must be >= 1")
    if width > max_qubits:
        raise WidthTooLargeError(
            f"{width} qubits need {1 << width} amplitudes, over the {max_qubits}-qubit budget"
        )
    try:
        amps = np.zeros(1 << width, dtype=np.complex128)
    except MemoryError as exc:
        raise WidthTooLargeError(
            f"{width} qubits need {1 << width} amplitudes, more than this host can allocate"
        ) from exc
    amps[0] = 1.0
    return StateVector(width, amps)


def _views(amps: np.ndarray, width: int, target: int, controls):
    """Views of the target=0 and target=1 slices where controls match."""
    tensor = amps.reshape((2,) * width)
    idx: list = [slice(None)] * width
    for q, pol in controls:
        idx[width - 1 - q] = pol
    axis = width - 1 - target
    idx0 = list(idx)
    idx0[axis] = 0
    idx1 = list(idx)
    idx1[axis] = 1
    # The trailing Ellipsis keeps fully pinned indices as 0-d views
    # instead of scalar copies, so in-place updates stick.
    return tensor[(*idx0, Ellipsis)], tensor[(*idx1, Ellipsis)]


def _apply_inplace(amps: np.ndarray, width: int, op: GateOp) -> None:
    for q in op.qubits():
        if not 0 <= q < width:
            raise ValueError(f"gate qubit {q} out of range for width {width}")
    lo, hi = _views(amps, width, op.target, op.controls)
    kind = op.kind
    if kind == "H":
        s = lo + hi
        d = lo - hi
        lo[...] = s * _RSQRT2
        hi[...] = d * _RSQRT2
    elif kind in ("X", "MCX"):
        tmp = lo.copy()
        lo[...] = hi
        hi[...] = tmp
    else:  # Z, MCZ
        hi *= -1.0


def _apply_pauli(amps: np.ndarray, width: int, pauli: int, qubit: int) -> None:
    # pauli: 0 = X, 1 = Y, 2 = Z. Only the noise channel uses Y.
    lo, hi = _views(amps, width, qubit, ())
    if pauli == 0:
        tmp = lo.copy()
        lo[...] = hi
        hi[...] = tmp
    elif pauli == 1:
        tmp = lo.copy()
        lo[...] = -1j * hi
        hi[...] = 1j * tmp
    else:
        hi *= -1.0


def apply(state: StateVector, op: GateOp) -> StateVector:
    """Apply one gate, returning a new state. The input is untouched."""
    out = state.copy()
    _apply_inplace(out.amps, out.width, op)
    return out


def run(
    state: StateVector,
    circuit: Circuit,
    noise: NoiseModel | None = None,
    seed: int = 0,
) -> StateVector:
    """Run a circuit, optionally with per-op depolarizing noise.

    After each op, with probability p_gate, one Pauli chosen uniformly from
    {X, Y, Z} hits one qubit chosen uniformly among the qubits the op
    touched. Draw order per op is fixed (decision, qubit, Pauli), so a seed
    fully determines the run. The returned state counts injected errors in
    ``noise_events``.
    """
    if circuit.width != state.width:
        raise ValueError(f"circuit width {circuit.width} != state width {state.width}")
    out = state.copy()
    out.noise_events = 0
    noisy = noise is not None and noise.p_gate > 0.0
    rng = np.random.default_rng(seed) if noisy else None
    for op in circuit.ops:
        _apply_inplace(out.amps, out.width, op)
        if noisy and rng.random() < noise.p_gate:
            touched = op.qubits()
            qubit = touched[int(rng.integers(len(touched)))]
            pauli = int(rng.integers(3))
            _apply_pauli(out.amps, out.width, pauli, qubit)
            out.noise_events += 1
    return out


@dataclass(frozen=True)
class Histogram:
    """Measured outcome counts. Keys are bitstrings, MSB first."""

    counts: dict[str, int]
    shots: int
    bits: int

    def __post_init__(self):
        if sum(self.counts.values()) != self.shots:
            raise ValueError("histogram counts do not sum to shots")

    def modal(self) -> str:
        """Most frequent outcome; ties break toward the smaller bitstring."""
        return min(self.counts, key=lambda k: (-self.counts[k], k))

    def to_csv(self) -> str:
        lines = ["outcome,count"]
        for key in sorted(self.counts, key=lambda k: (-self.counts[k], k)):
            lines.append(f"{key},{self.counts[key]}")
        return "\n".join(lines) + "\n"


def sample(
    state: StateVector,
    measured_qubits,
    shots: int,
    noise: NoiseModel | None = None,
    seed: int = 0,
) -> Histogram:
    """Sample a marginal histogram over the given qubits.

    Readout noise flips each reported bit independently with p_meas. Shots
    are drawn sequentially from one seeded stream; identical inputs and
    seed give identical histograms regardless of host parallelism.
    """
    measured = sorted(set(int(q) for q in measured_qubits), reverse=True)
    if not measured:
        raise ValueError("measurement set is empty")
    if measured[0] >= state.width or measured[-1] < 0:
        raise ValueError("measured qubit out of range")
    if shots < 1:
        raise ValueError("shots must be >= 1")

    k = len(measured)
    tensor = state.probabilities().reshape((2,) * state.width)
    keep_axes = tuple(state.width - 1 - q for q in measured)  # ascending, MSB first
    drop_axes = tuple(a for a in range(state.width) if a not in keep_axes)
    marginal = tensor.sum(axis=drop_axes) if drop_axes else tensor
    probs = marginal.reshape(-1).astype(float)
    probs = np.clip(probs, 0.0, None)
    probs /= probs.sum()

    rng = np.random.default_rng(seed)
    outcomes = rng.choice(1 << k, size=shots, p=probs)
    if noise is not None and noise.p_meas > 0.0:
        bit_pos = np.arange(k - 1, -1, -1)
        bits = (outcomes[:, None] >> bit_pos) & 1
        flips = rng.random((shots, k)) < noise.p_meas
        bits ^= flips
        outcomes = (bits << bit_pos).sum(axis=1)

    values, freq = np.unique(outcomes, return_counts=True)
    counts = {format(int(v), f"0{k}b"): int(n) for v, n in zip(values, freq)}
    return Histogram(counts=counts, shots=shots, bits=k)
