"""State-vector simulator for a small controlled-gate set.

Amplitudes are indexed with qubit 0 as the least significant bit of the
basis index. The gate set is H, X, Z plus multi-controlled X and Z whose
controls carry explicit polarities, which is all the search circuits need.
Noise is optional: a per-operation depolarizing channel and independent
readout flips, both driven by one seeded generator so runs replay exactly.

A state stores amplitudes only for the qubits that have left a basis
state; every other qubit is one bit of a classical frame. Gates whose
qubits all sit in the frame are bit operations, so a circuit that keeps
most of its register classical evolves only the few superposed qubits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
        # Validation, noise and metering all ask for the qubits: build them once.
        object.__setattr__(self, "_qubits", (self.target,) + tuple(q for q, _ in self.controls))

    def qubits(self) -> tuple[int, ...]:
        return self._qubits


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


@dataclass(frozen=True)
class NoiseModel:
    """p_gate: per-op depolarizing probability. p_meas: per-bit readout flip."""

    p_gate: float = 0.0
    p_meas: float = 0.0

    def __post_init__(self):
        for name, p in (("p_gate", self.p_gate), ("p_meas", self.p_meas)):
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {p}")


def _zeros(size: int) -> np.ndarray:
    """A zeroed complex amplitude array; a refused allocation is a width error."""
    try:
        return np.zeros(size, dtype=np.complex128)
    except MemoryError as exc:
        raise WidthTooLargeError(
            f"{size} amplitudes need {16 * size} bytes, more than this host can allocate"
        ) from exc


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


def _kernel(amps: np.ndarray, width: int, kind: str, target: int, controls) -> None:
    lo, hi = _views(amps, width, target, controls)
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


class StateVector:
    """Amplitudes over ``width`` qubits, qubit 0 = least significant bit.

    Qubits that have left a basis state are *active*: ``_active`` holds
    their 2**k amplitudes, active position j being bit j of its index, and
    ``_order[j]`` names the qubit there (``_pos`` is the inverse, -1 for
    the rest). Every other qubit is in a basis state, and its bit is kept
    in the integer ``_frame``. A qubit becomes active when a gate first
    puts it in superposition or entangles it, and stays active.

    ``amps`` is the dense view over all qubits in qubit order. Reading it
    makes every qubit active in qubit order, in place, so writes through
    it reach the state.
    """

    __slots__ = ("width", "noise_events", "_active", "_order", "_pos", "_frame", "_dense")

    def _set(self, width, active, order, frame, noise_events) -> None:
        """Bind every field of a state built with ``__new__`` (``init_state``, ``from_amplitudes``, ``copy``)."""
        self.width = width
        self.noise_events = noise_events
        self._active = active
        self._order = order
        self._pos = [-1] * width
        for j, q in enumerate(order):
            self._pos[q] = j
        self._frame = frame
        self._dense = order == list(range(width))

    @property
    def amps(self) -> np.ndarray:
        if not self._dense:
            self._densify()
        return self._active

    def copy(self) -> "StateVector":
        out = StateVector.__new__(StateVector)
        out._set(self.width, self._active.copy(), list(self._order), self._frame, self.noise_events)
        return out

    def norm(self) -> float:
        return float(np.linalg.norm(self._active))

    def _densify(self) -> None:
        """Spread the active tensor over all qubits, axes in qubit order."""
        width, k = self.width, len(self._order)
        dense = _zeros(1 << width).reshape((2,) * width)
        perm = [k - 1 - self._pos[q] for q in sorted(self._order, reverse=True)]
        tensor = self._active.reshape((2,) * k).transpose(perm)
        dense[self._pinned(range(width - 1, -1, -1))] = tensor
        self._set(width, dense.reshape(-1), list(range(width)), 0, self.noise_events)

    def _pinned(self, qubits) -> tuple:
        """Index over ``qubits``: a frame qubit pins its bit, an active one keeps its axis."""
        return tuple(slice(None) if self._pos[q] >= 0 else (self._frame >> q) & 1 for q in qubits)

    def _promote(self, qubit: int) -> int:
        """Make a frame qubit active as the most significant axis."""
        n = self._active.size
        amps = _zeros(2 * n)
        bit = (self._frame >> qubit) & 1
        amps[bit * n : (bit + 1) * n] = self._active
        self._active = amps
        self._frame &= ~(1 << qubit)
        self._pos[qubit] = len(self._order)
        self._order.append(qubit)
        self._dense = self._order == list(range(self.width))
        return self._pos[qubit]

    def _apply(self, op: GateOp) -> None:
        if self._dense:
            _kernel(self._active, self.width, op.kind, op.target, op.controls)
            return
        pos, frame = self._pos, self._frame
        controls = []
        for q, pol in op.controls:
            if pos[q] >= 0:
                controls.append((pos[q], pol))
            elif (frame >> q) & 1 != pol:
                return  # an unmatched classical control: the gate is the identity
        kind, target = op.kind, op.target
        t = pos[target]
        if t < 0:
            if kind in ("Z", "MCZ"):
                # Z on a frame |1> is a sign where the active controls match.
                if (frame >> target) & 1:
                    if controls:
                        (p, pol), rest = controls[0], controls[1:]
                        lo, hi = _views(self._active, len(self._order), p, rest)
                        (hi if pol else lo)[...] *= -1.0
                    else:
                        self._active *= -1.0
                return
            if kind in ("X", "MCX") and not controls:
                self._frame ^= 1 << target
                return
            t = self._promote(target)
        _kernel(self._active, len(self._order), kind, t, controls)

    def _pauli(self, pauli: int, qubit: int) -> None:
        # pauli: 0 = X, 1 = Y, 2 = Z, run as gates. Y = i·X·Z: Z, then X, then a phase of i.
        if pauli != 0:
            self._apply(z(qubit))
        if pauli != 2:
            self._apply(x(qubit))
        if pauli == 1:
            self._active *= 1j


def init_state(width: int, max_qubits: int = DEFAULT_MAX_QUBITS) -> StateVector:
    """|0...0> over ``width`` qubits, guarded against oversized allocations."""
    if width < 1:
        raise ValueError("width must be >= 1")
    if width > max_qubits:
        raise WidthTooLargeError(
            f"{width} qubits need {1 << width} amplitudes, over the {max_qubits}-qubit budget"
        )
    active = _zeros(1)
    active[0] = 1.0
    state = StateVector.__new__(StateVector)
    state._set(width, active, [], 0, 0)
    return state


def from_amplitudes(values) -> StateVector:
    """A state with every qubit active, holding 2**width amplitudes in qubit order."""
    width = len(values).bit_length() - 1
    if width < 1 or len(values) != 1 << width:
        raise ValueError(f"{len(values)} amplitudes is not 2**width for a width >= 1")
    amps = _zeros(len(values))
    amps[:] = values
    state = StateVector.__new__(StateVector)
    state._set(width, amps, list(range(width)), 0, 0)
    return state


def apply(state: StateVector, op: GateOp) -> StateVector:
    """Apply one gate, returning a new state. The input is untouched."""
    for q in op.qubits():
        if not 0 <= q < state.width:
            raise ValueError(f"gate qubit {q} out of range for width {state.width}")
    out = state.copy()
    out._apply(op)
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
        out._apply(op)
        if noisy and rng.random() < noise.p_gate:
            touched = op.qubits()
            qubit = touched[int(rng.integers(len(touched)))]
            pauli = int(rng.integers(3))
            out._pauli(pauli, qubit)
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

    def to_csv(self) -> str:
        lines = ["outcome,count"]
        for key in sorted(self.counts, key=lambda k: (-self.counts[k], k)):
            lines.append(f"{key},{self.counts[key]}")
        return "\n".join(lines) + "\n"


def _marginal(state: StateVector, measured: list[int]) -> np.ndarray:
    """Outcome probabilities over ``measured`` (descending), MSB first.

    Summed over the active tensor only; measured frame qubits contribute
    their fixed bit, so outcomes that disagree with it get probability 0.
    """
    k, pos = len(state._order), state._pos
    tensor = (np.abs(state._active) ** 2).reshape((2,) * k)
    keep_axes = [k - 1 - pos[q] for q in measured if pos[q] >= 0]
    drop_axes = tuple(a for a in range(k) if a not in keep_axes)
    marginal = tensor.sum(axis=drop_axes) if drop_axes else tensor
    # Summing leaves the kept axes in ascending order; put them in measured order.
    kept = sorted(keep_axes)
    marginal = marginal.transpose([kept.index(a) for a in keep_axes])
    out = np.zeros((2,) * len(measured))
    out[state._pinned(measured)] = marginal
    return out.reshape(-1)


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
    probs = _marginal(state, measured)
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
    key = f"0{k}b"
    counts = {format(v, key): n for v, n in zip(values.tolist(), freq.tolist())}
    return Histogram(counts=counts, shots=shots, bits=k)
