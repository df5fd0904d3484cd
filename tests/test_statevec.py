from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridloc.statevec import (
    GATE_KINDS,
    Circuit,
    GateOp,
    Histogram,
    NoiseModel,
    WidthTooLargeError,
    from_amplitudes,
    h,
    init_state,
    mcx,
    mcz,
    run,
    sample,
    x,
    z,
)
from gridloc.statevec import _marginal

RSQRT2 = 1.0 / np.sqrt(2.0)


def op_matrix(op: GateOp, width: int) -> np.ndarray:
    """Column k = image of basis state |k> under the gate."""
    dim = 2**width
    cols = []
    for k in range(dim):
        state = from_amplitudes(np.eye(dim)[k])
        cols.append(run(state, Circuit(width=width, ops=(op,))).amps)
    return np.array(cols).T


def random_op(rng: np.random.Generator, width: int) -> GateOp:
    kinds = ["H", "X", "Z"] + (["MCX", "MCZ"] if width > 1 else [])
    kind = rng.choice(kinds)
    qubits = list(rng.permutation(width))
    target = int(qubits[0])
    if kind in ("H", "X", "Z"):
        return GateOp(kind=kind, target=target)
    n_ctl = int(rng.integers(1, width))
    controls = tuple((int(q), int(rng.integers(2))) for q in qubits[1 : 1 + n_ctl])
    return GateOp(kind=kind, target=target, controls=controls)


# Dense reference simulator: every gate updates all 2**width amplitudes
# in place. The classical-frame state must match it bit for bit.


def reference_views(amps: np.ndarray, width: int, target: int, controls):
    tensor = amps.reshape((2,) * width)
    idx: list = [slice(None)] * width
    for q, pol in controls:
        idx[width - 1 - q] = pol
    axis = width - 1 - target
    idx0 = list(idx)
    idx0[axis] = 0
    idx1 = list(idx)
    idx1[axis] = 1
    return tensor[(*idx0, Ellipsis)], tensor[(*idx1, Ellipsis)]


def reference_apply_inplace(amps: np.ndarray, width: int, op: GateOp) -> None:
    lo, hi = reference_views(amps, width, op.target, op.controls)
    if op.kind == "H":
        s = lo + hi
        d = lo - hi
        lo[...] = s * RSQRT2
        hi[...] = d * RSQRT2
    elif op.kind in ("X", "MCX"):
        tmp = lo.copy()
        lo[...] = hi
        hi[...] = tmp
    else:
        hi *= -1.0


def reference_apply_pauli(amps: np.ndarray, width: int, pauli: int, qubit: int) -> None:
    lo, hi = reference_views(amps, width, qubit, ())
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


def reference_run(circuit: Circuit, noise: NoiseModel | None, seed: int):
    """(amplitudes, noise events) of the circuit run from |0...0>."""
    width = circuit.width
    amps = np.zeros(1 << width, dtype=np.complex128)
    amps[0] = 1.0
    events = 0
    noisy = noise is not None and noise.p_gate > 0.0
    rng = np.random.default_rng(seed) if noisy else None
    for op in circuit.ops:
        reference_apply_inplace(amps, width, op)
        if noisy and rng.random() < noise.p_gate:
            touched = op.qubits()
            qubit = touched[int(rng.integers(len(touched)))]
            pauli = int(rng.integers(3))
            reference_apply_pauli(amps, width, pauli, qubit)
            events += 1
    return amps, events


def reference_sample(amps, width, measured_qubits, shots, noise, seed) -> dict[str, int]:
    measured = sorted(set(measured_qubits), reverse=True)
    k = len(measured)
    tensor = (np.abs(amps) ** 2).reshape((2,) * width)
    keep_axes = tuple(width - 1 - q for q in measured)
    drop_axes = tuple(a for a in range(width) if a not in keep_axes)
    marginal = tensor.sum(axis=drop_axes) if drop_axes else tensor
    probs = np.clip(marginal.reshape(-1).astype(float), 0.0, None)
    probs /= probs.sum()
    rng = np.random.default_rng(seed)
    outcomes = rng.choice(1 << k, size=shots, p=probs)
    if noise is not None and noise.p_meas > 0.0:
        bit_pos = np.arange(k - 1, -1, -1)
        bits = (outcomes[:, None] >> bit_pos) & 1
        bits ^= rng.random((shots, k)) < noise.p_meas
        outcomes = (bits << bit_pos).sum(axis=1)
    values, freq = np.unique(outcomes, return_counts=True)
    return {format(int(v), f"0{k}b"): int(n) for v, n in zip(values, freq)}


@st.composite
def gate_ops(draw, width: int) -> GateOp:
    kind = draw(st.sampled_from(GATE_KINDS if width > 1 else ("H", "X", "Z")))
    target = draw(st.integers(0, width - 1))
    if kind in ("H", "X", "Z"):
        return GateOp(kind=kind, target=target)
    others = [q for q in range(width) if q != target]
    chosen = draw(st.lists(st.sampled_from(others), min_size=1, max_size=len(others), unique=True))
    controls = tuple((q, draw(st.integers(0, 1))) for q in chosen)
    return GateOp(kind=kind, target=target, controls=controls)


@st.composite
def circuits(draw) -> Circuit:
    width = draw(st.integers(1, 9))
    return Circuit(width=width, ops=tuple(draw(st.lists(gate_ops(width), max_size=40))))



# ---------------------------------------------------------------- gate ops


def test_gateop_validation():
    with pytest.raises(ValueError):
        GateOp(kind="Q", target=0)
    with pytest.raises(ValueError):
        GateOp(kind="H", target=0, controls=((1, 1),))
    with pytest.raises(ValueError):
        GateOp(kind="MCX", target=0)
    with pytest.raises(ValueError):
        GateOp(kind="MCX", target=0, controls=((0, 1),))
    with pytest.raises(ValueError):
        GateOp(kind="MCZ", target=0, controls=((1, 2),))


def test_init_state():
    s = init_state(3)
    assert s.width == 3
    assert s.amps[0] == 1.0
    assert not s.amps[1:].any()
    with pytest.raises(WidthTooLargeError):
        init_state(60)
    with pytest.raises(ValueError):
        init_state(0)



def _refuse_allocation(*args, **kwargs):
    raise MemoryError("refused")


def test_init_state_maps_memory_error(monkeypatch):
    monkeypatch.setattr(np, "zeros", _refuse_allocation)
    with pytest.raises(WidthTooLargeError) as err:
        init_state(3)
    assert isinstance(err.value.__cause__, MemoryError)


def test_from_amplitudes():
    values = np.array([0.5, -0.5j, 0.0, 0.5 + 0.5j])
    state = from_amplitudes(values)
    assert state.width == 2
    np.testing.assert_array_equal(state.amps, values)
    values[0] = 1.0  # the state holds its own copy
    assert state.amps[0] == 0.5
    for length in (0, 1, 3, 6, 12):
        with pytest.raises(ValueError):
            from_amplitudes(np.ones(length))


def test_from_amplitudes_maps_memory_error(monkeypatch):
    values = np.ones(8)
    monkeypatch.setattr(np, "zeros", _refuse_allocation)
    with pytest.raises(WidthTooLargeError) as err:
        from_amplitudes(values)
    assert isinstance(err.value.__cause__, MemoryError)


def test_reading_amps_leaves_the_state_unchanged():
    state = run(init_state(8), Circuit(width=8, ops=(x(5), h(0), mcx(((0, 1),), 3))))
    order, frame, size = list(state._order), state._frame, state._active.size
    amps = state.amps
    assert amps.size == 2**8
    assert state._order == order
    assert state._frame == frame
    assert state._active.size == size
    with pytest.raises(ValueError):
        amps[0] = 1.0
    assert np.array_equal(state.amps, amps)


def test_h_on_zero():
    s = run(init_state(1), Circuit(width=1, ops=(h(0),)))
    assert np.allclose(s.amps, [RSQRT2, RSQRT2])


def test_h_involution():
    rng = np.random.default_rng(0)
    amps = rng.normal(size=8) + 1j * rng.normal(size=8)
    amps /= np.linalg.norm(amps)
    s = from_amplitudes(amps)
    h1 = Circuit(width=3, ops=(h(1),))
    back = run(run(s, h1), h1)
    assert np.allclose(back.amps, amps, atol=1e-12)


def test_x_and_z_semantics():
    s = init_state(2)
    s = run(s, Circuit(width=2, ops=(x(0),)))
    assert s.amps[1] == 1.0
    s = run(s, Circuit(width=2, ops=(z(0),)))
    assert s.amps[1] == -1.0
    s = run(s, Circuit(width=2, ops=(z(1),)))  # qubit 1 is 0 here, no sign change
    assert s.amps[1] == -1.0


def test_mcx_permutation_truth_table():
    # Positive controls on qubits 0 and 1, target 2: swaps only 011 <-> 111.
    op = mcx(((0, 1), (1, 1)), 2)
    mat = op_matrix(op, 3)
    expect = np.eye(8)
    expect[[3, 7]] = expect[[7, 3]]
    assert np.allclose(mat, expect)


def test_mcx_negative_control():
    op = mcx(((1, 0),), 0)
    mat = op_matrix(op, 2)
    # qubit1=0 block swapped, qubit1=1 block untouched
    expect = np.array([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], dtype=float)
    assert np.allclose(mat, expect)


def test_mcz_signs():
    op = mcz(((0, 1),), 1)
    mat = op_matrix(op, 2)
    assert np.allclose(np.diag(mat), [1, 1, 1, -1])


def test_unitarity_random_ops():
    rng = np.random.default_rng(5)
    for _ in range(60):
        width = int(rng.integers(1, 5))
        op = random_op(rng, width)
        mat = op_matrix(op, width)
        assert np.allclose(mat.conj().T @ mat, np.eye(2**width), atol=1e-10)


def test_apply_linearity():
    rng = np.random.default_rng(9)
    for _ in range(20):
        width = int(rng.integers(1, 4))
        op = random_op(rng, width)
        dim = 2**width
        s1 = from_amplitudes(rng.normal(size=dim) + 1j * rng.normal(size=dim))
        s2 = from_amplitudes(rng.normal(size=dim) + 1j * rng.normal(size=dim))
        alpha, beta = 0.3 - 0.2j, 1.1 + 0.7j
        mixed = from_amplitudes(alpha * s1.amps + beta * s2.amps)
        circuit = Circuit(width=width, ops=(op,))
        lhs = run(mixed, circuit).amps
        rhs = alpha * run(s1, circuit).amps + beta * run(s2, circuit).amps
        assert np.allclose(lhs, rhs, atol=1e-12)


def test_apply_out_of_range():
    with pytest.raises(ValueError):
        run(init_state(2), Circuit(width=2, ops=(h(2),)))


# ---------------------------------------------------------------- circuits


def test_run_empty_circuit():
    s = init_state(2)
    out = run(s, Circuit(width=2, ops=()))
    assert np.allclose(out.amps, s.amps)


def test_run_width_mismatch():
    with pytest.raises(ValueError):
        run(init_state(2), Circuit(width=3, ops=()))


def test_run_norm_preserved():
    rng = np.random.default_rng(33)
    for _ in range(20):
        width = int(rng.integers(1, 6))
        ops = tuple(random_op(rng, width) for _ in range(25))
        out = run(init_state(width), Circuit(width=width, ops=ops))
        assert abs(np.linalg.norm(out.amps) - 1.0) < 1e-9


def test_zero_noise_equals_noiseless():
    rng = np.random.default_rng(2)
    width = 3
    ops = tuple(random_op(rng, width) for _ in range(15))
    circ = Circuit(width=width, ops=ops)
    a = run(init_state(width), circ)
    b = run(init_state(width), circ, noise=NoiseModel(p_gate=0.0, p_meas=0.0), seed=4)
    assert np.allclose(a.amps, b.amps)
    assert b.noise_events == 0


def test_noise_event_rate():
    # 200-op identity-ish circuit; expected event count = 200 * p.
    ops = tuple(x(0) for _ in range(200))
    circ = Circuit(width=1, ops=ops)
    noise = NoiseModel(p_gate=0.05, p_meas=0.0)
    total = 0
    for seed in range(300):
        total += run(init_state(1), circ, noise=noise, seed=seed).noise_events
    mean = total / 300
    sigma = np.sqrt(200 * 0.05 * 0.95 / 300)
    assert abs(mean - 10.0) < 4 * sigma


def test_noise_determinism():
    rng = np.random.default_rng(8)
    ops = tuple(random_op(rng, 3) for _ in range(20))
    circ = Circuit(width=3, ops=ops)
    noise = NoiseModel(p_gate=0.3, p_meas=0.0)
    a = run(init_state(3), circ, noise=noise, seed=77)
    b = run(init_state(3), circ, noise=noise, seed=77)
    assert np.allclose(a.amps, b.amps)
    assert a.noise_events == b.noise_events


# ---------------------------------------------------------------- sampling


def test_sample_pure_state():
    s = init_state(2)
    s = run(s, Circuit(width=2, ops=(x(0),)))  # |01> : qubit0=1, qubit1=0
    hist = sample(s, (0, 1), shots=100)
    assert hist.counts == {"01": 100}
    assert hist.shots == 100


def test_sample_uniform_3sigma():
    s = init_state(2)
    s = run(s, Circuit(width=2, ops=(h(0),)))
    s = run(s, Circuit(width=2, ops=(h(1),)))
    hist = sample(s, (0, 1), shots=40000, seed=3)
    for key in ("00", "01", "10", "11"):
        assert abs(hist.counts[key] - 10000) <= 300


def test_sample_marginal():
    # Measure only qubit 1 of |+>|1): qubit1 is 1 always.
    s = init_state(2)
    s = run(s, Circuit(width=2, ops=(h(0),)))
    s = run(s, Circuit(width=2, ops=(x(1),)))
    hist = sample(s, (1,), shots=50)
    assert hist.counts == {"1": 50}


def test_sample_readout_flip_rate():
    s = init_state(1)
    hist = sample(s, (0,), shots=10000, noise=NoiseModel(p_gate=0.0, p_meas=0.18), seed=5)
    freq = hist.counts.get("1", 0) / 10000
    assert abs(freq - 0.18) <= 0.012


def test_sample_determinism_and_errors():
    s = run(init_state(2), Circuit(width=2, ops=(h(0),)))
    a = sample(s, (0, 1), shots=500, seed=9)
    b = sample(s, (0, 1), shots=500, seed=9)
    assert a.counts == b.counts
    with pytest.raises(ValueError):
        sample(s, (), shots=10)
    with pytest.raises(ValueError):
        sample(s, (0,), shots=0)
    with pytest.raises(ValueError):
        sample(s, (5,), shots=10)


def choice_sample(state, measured_qubits, shots, noise, seed) -> dict[str, int]:
    """``sample`` as first written: Generator.choice, np.unique and one format() per outcome."""
    measured = sorted(set(int(q) for q in measured_qubits), reverse=True)
    k = len(measured)
    probs = np.clip(_marginal(state, measured), 0.0, None)
    probs /= probs.sum()
    rng = np.random.default_rng(seed)
    outcomes = rng.choice(1 << k, size=shots, p=probs)
    if noise is not None and noise.p_meas > 0.0:
        bit_pos = np.arange(k - 1, -1, -1)
        bits = (outcomes[:, None] >> bit_pos) & 1
        bits ^= rng.random((shots, k)) < noise.p_meas
        outcomes = (bits << bit_pos).sum(axis=1)
    values, freq = np.unique(outcomes, return_counts=True)
    key = f"0{k}b"
    return {format(v, key): n for v, n in zip(values.tolist(), freq.tolist())}


@st.composite
def sampled_states(draw):
    """Concentrated, spread or gate-built states, some bins zero, frame qubits in the last."""
    kind = draw(st.sampled_from(("concentrated", "spread", "circuit")))
    if kind == "circuit":
        # Qubits no gate has superposed stay in the frame, measured or not.
        circuit = draw(circuits())
        return run(init_state(circuit.width), circuit)
    width = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    amps = rng.normal(size=1 << width) + 1j * rng.normal(size=1 << width)
    amps[rng.random(1 << width) < draw(st.sampled_from((0.0, 0.5, 0.95)))] = 0.0
    if kind == "concentrated":
        amps *= 1e-3
    amps[rng.integers(1 << width)] = 1.0
    return from_amplitudes(amps / np.linalg.norm(amps))


@settings(max_examples=300, deadline=None)
@given(
    state=sampled_states(),
    shots=st.one_of(st.integers(1, 4096), st.sampled_from((1, 2, 4096))),
    p_meas=st.sampled_from((0.0, 0.0, 0.05, 0.5, 1.0)),
    seed=st.integers(0, 2**64),
    data=st.data(),
)
def test_sample_matches_generator_choice(state, shots, p_meas, seed, data):
    measured = data.draw(
        st.lists(st.integers(0, state.width - 1), min_size=1, max_size=state.width, unique=True)
    )
    noise = NoiseModel(p_gate=0.0, p_meas=p_meas)
    hist = sample(state, measured, shots, noise=noise, seed=seed)
    assert hist.counts == choice_sample(state, measured, shots, noise, seed)
    assert all(type(key) is str and type(n) is int for key, n in hist.counts.items())


@pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0])
@pytest.mark.parametrize("p_meas", [0.0, 0.1])
def test_sample_rejects_a_state_with_no_finite_probability(bad, p_meas):
    state = from_amplitudes(np.array([bad, 0.0, 0.0, 0.0]))
    with pytest.raises(ValueError):
        sample(state, (0, 1), shots=8, noise=NoiseModel(p_meas=p_meas))


def test_histogram_modal_and_csv():
    hist = Histogram(counts={"10": 5, "01": 5, "00": 1}, shots=11, bits=2)
    csv = hist.to_csv()
    lines = csv.strip().split("\n")
    assert lines[0] == "outcome,count"
    assert lines[1] == "01,5"
    assert lines[2] == "10,5"
    assert lines[3] == "00,1"


# ---------------------------------------------------------------- dense reference


@settings(max_examples=300, deadline=None)
@given(
    circuit=circuits(),
    p_gate=st.sampled_from((0.0, 0.25, 1.0)),
    p_meas=st.sampled_from((0.0, 0.2)),
    seed=st.integers(0, 2**16),
    data=st.data(),
)
def test_run_and_sample_match_dense_reference(circuit, p_gate, p_meas, seed, data):
    width = circuit.width
    noise = NoiseModel(p_gate=p_gate, p_meas=p_meas)
    measured = data.draw(
        st.lists(st.integers(0, width - 1), min_size=1, max_size=width, unique=True)
    )
    ref_amps, ref_events = reference_run(circuit, noise, seed)
    state = run(init_state(width), circuit, noise=noise, seed=seed)
    assert state.noise_events == ref_events
    hists = []
    for readout in (None, noise):
        hist = sample(state, measured, shots=64, noise=readout, seed=seed + 1)
        assert hist.counts == reference_sample(ref_amps, width, measured, 64, readout, seed + 1)
        hists.append(hist)
    assert np.array_equal(state.amps, ref_amps)
    assert abs(np.linalg.norm(state.amps) - 1.0) < 1e-9
    # Reading amps changes nothing, so sampling again gives the same histograms.
    for readout, hist in zip((None, noise), hists):
        assert sample(state, measured, shots=64, noise=readout, seed=seed + 1) == hist


def test_frame_ops_keep_state_small():
    # X and classically controlled gates on basis qubits touch no amplitudes.
    ops = (
        x(5),
        mcx(((5, 1),), 7),
        mcx(((7, 1), (5, 0)), 6),
        mcz(((7, 1),), 5),
        h(0),
        mcx(((0, 1), (7, 1)), 3),
    )
    state = run(init_state(8), Circuit(width=8, ops=ops))
    assert state._order == [0, 3]
    assert state._frame == (1 << 5) | (1 << 7)
    ref_amps, _ = reference_run(Circuit(width=8, ops=ops), None, 0)
    assert np.array_equal(state.amps, ref_amps)
