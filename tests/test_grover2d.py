from __future__ import annotations

import math
import random
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from gridloc import (
    SINGLE_CELL,
    Budget,
    Costmap,
    GridMap,
    Perception,
    budget,
    build_circuit,
    circuit_budget,
    classical_matches,
    compute_costmap,
    grover2d,
    indicator_costmap,
    oracle_spec,
    parse_map,
    perceive,
    plan,
    run_localization,
    synth_diffusion,
    synth_oracle,
)
from gridloc.grover2d import _faithful_oracle_ops, _modal_anchor, _prep_ops, closed_form_state
from gridloc.statevec import (
    Circuit,
    GateOp,
    Histogram,
    NoiseModel,
    WidthTooLargeError,
    _marginal,
    h,
    init_state,
    mcx,
    run,
    sample,
)

def matcher_oracle(costmap: Costmap, per: Perception) -> set:
    """Independent double-loop matcher for cross-checking classical_matches."""
    rows, cols = costmap.rows, costmap.cols
    p_r, p_c = len(per.row_pattern), len(per.col_pattern)
    out = set()
    for r in range(per.anchor_offset_col, per.anchor_offset_col + rows - p_c + 1):
        for c in range(per.anchor_offset_row, per.anchor_offset_row + cols - p_r + 1):
            ok = True
            for i, v in enumerate(per.row_pattern):
                if costmap.code[r][c - per.anchor_offset_row + i] != v:
                    ok = False
                    break
            if ok:
                for i, v in enumerate(per.col_pattern):
                    if costmap.code[r - per.anchor_offset_col + i][c] != v:
                        ok = False
                        break
            if ok:
                out.add((r, c))
    return out


def marked_set_folded(pl, spec) -> set:
    ops = _prep_ops(pl, spec) + list(synth_oracle(pl, spec).ops)
    state = run(init_state(pl.total_qubits), Circuit(width=pl.total_qubits, ops=tuple(ops)))
    return {v for v in range(2**pl.search_qubits) if state.amps[v].real < -1e-9}


def marked_set_faithful(pl, spec) -> set:
    ops = _prep_ops(pl, spec) + list(synth_oracle(pl, spec).ops)
    state = run(init_state(pl.total_qubits), Circuit(width=pl.total_qubits, ops=tuple(ops)))
    amps = state.amps.reshape((2,) * pl.total_qubits)
    q = pl.qubits_per_cell
    marked = set()
    for v in range(2**pl.search_qubits):
        idx = [0] * pl.total_qubits
        for k in range(pl.search_qubits):
            idx[k] = (v >> k) & 1
        start, _ = pl.layout.map_cells
        flat_codes = [v for row in spec.map_codes for v in row]
        for ci, code in enumerate(flat_codes):
            for b in range(q):
                idx[start + ci * q + b] = (code >> b) & 1
        rstart, _ = pl.layout.row_pattern
        for i, val in enumerate(spec.row_pattern):
            for b in range(q):
                idx[rstart + i * q + b] = (val >> b) & 1
        cstart, _ = pl.layout.col_pattern
        for i, val in enumerate(spec.col_pattern):
            for b in range(q):
                idx[cstart + i * q + b] = (val >> b) & 1
        # output qubit stays in |->; read its |0> component
        if amps[tuple(idx[::-1])].real < -1e-9:
            marked.add(v)
    return marked


# ---------------------------------------------------------------- planning


def test_plan_basic_arithmetic():
    g = GridMap(rows=4, cols=5, obstacles=frozenset({(0, 0)}))
    per = Perception(row_pattern=(1, 0), col_pattern=(0, 1),
                     anchor_offset_row=0, anchor_offset_col=0)
    p = plan(g, per, mode="faithful")
    assert (p.anchor_rows, p.anchor_cols) == (3, 4)
    assert p.n_anchors == 12
    assert p.search_qubits == 4
    assert p.repetitions == 3
    assert p.total_qubits == 31


def test_plan_folded_width_is_search_register():
    g = GridMap(rows=3, cols=3, obstacles=frozenset({(0, 1)}))
    p = plan(g, SINGLE_CELL, mode="folded")
    assert p.total_qubits == p.search_qubits == 4


def test_plan_rejects_oversized_pattern():
    g = GridMap(rows=2, cols=2)
    for row_len, col_len in [(3, 1), (1, 3)]:
        per = Perception(row_pattern=(0,) * row_len, col_pattern=(0,) * col_len,
                         anchor_offset_row=0, anchor_offset_col=0)
        with pytest.raises(ValueError):
            plan(g, per)
        with pytest.raises(ValueError, match="longer than the map side"):
            classical_matches(indicator_costmap(g), per)


def test_anchor_index_bijection():
    rng = random.Random(3)
    for _ in range(40):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        p_r, p_c = rng.randint(1, cols), rng.randint(1, rows)
        per = Perception(
            row_pattern=tuple([0] * p_r),
            col_pattern=tuple([0] * p_c),
            anchor_offset_row=rng.randint(0, p_r - 1),
            anchor_offset_col=rng.randint(0, p_c - 1),
        )
        p = plan(GridMap(rows=rows, cols=cols), per)
        seen = set()
        for k in range(p.n_anchors):
            cell = p.anchor_cell(k)
            assert p.anchor_index(cell) == k
            seen.add(cell)
        assert len(seen) == p.n_anchors


def test_layout_registers_are_disjoint_and_ordered():
    g = GridMap(rows=3, cols=4, qubits_per_cell=2)
    per = Perception(row_pattern=(1, 2), col_pattern=(3,),
                     anchor_offset_row=0, anchor_offset_col=0)
    p = plan(g, per, mode="faithful")
    lay = p.layout
    spans = [lay.search, lay.map_cells, lay.row_pattern, lay.col_pattern, lay.output, lay.ancilla]
    cursor = 0
    for start, length in spans:
        assert start == cursor
        cursor += length
    assert cursor == p.total_qubits


# ---------------------------------------------------------------- matching


def test_matches_four_by_four_fixture():
    code = np.array([[3, 3, 3, 3], [3, 2, 3, 3], [3, 2, 2, 3], [2, 1, 2, 3]], dtype=np.int64)
    cm = Costmap(raw=code.astype(float), code=code)
    per = Perception(row_pattern=(3, 2, 3), col_pattern=(3, 2, 2),
                     anchor_offset_row=1, anchor_offset_col=1)
    assert classical_matches(cm, per) == {(1, 1)}
    p = plan(GridMap(rows=4, cols=4), per)
    assert {p.anchor_cell(i) for i in range(p.n_anchors)} == {(1, 1), (1, 2), (2, 1), (2, 2)}


def test_matches_full_row_single_anchor():
    code = np.array([[2, 0, 1, 3]], dtype=np.int64)
    cm = Costmap(raw=code.astype(float), code=code)
    per = Perception(row_pattern=(2, 0, 1, 3), col_pattern=(2,),
                     anchor_offset_row=0, anchor_offset_col=0)
    assert classical_matches(cm, per) == {(0, 0)}


def test_matches_against_independent_matcher():
    rng = random.Random(19)
    for _ in range(150):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        q = rng.randint(1, 2)
        code = np.array(
            [[rng.randint(0, 2**q - 1) for _ in range(cols)] for _ in range(rows)],
            dtype=np.int64,
        )
        cm = Costmap(raw=code.astype(float), code=code)
        p_r, p_c = rng.randint(1, cols), rng.randint(1, rows)
        o_r, o_c = rng.randint(0, p_r - 1), rng.randint(0, p_c - 1)
        anchor_r = rng.randint(o_c, o_c + rows - p_c)
        anchor_c = rng.randint(o_r, o_r + cols - p_r)
        if rng.random() < 0.5:
            # plant a guaranteed match at a random anchor
            row_pat = tuple(
                int(code[anchor_r][anchor_c - o_r + i]) for i in range(p_r)
            )
            col_pat = tuple(
                int(code[anchor_r - o_c + i][anchor_c]) for i in range(p_c)
            )
        else:
            row_pat = tuple(rng.randint(0, 2**q - 1) for _ in range(p_r))
            col_pat = tuple(rng.randint(0, 2**q - 1) for _ in range(p_c))
        per = Perception(row_pattern=row_pat, col_pattern=col_pat,
                         anchor_offset_row=o_r, anchor_offset_col=o_c)
        assert classical_matches(cm, per) == matcher_oracle(cm, per)


# ---------------------------------------------------------------- oracles


def test_folded_oracle_phases_exhaustive():
    # Every anchor's phase is flipped iff it is a classical match (N <= 16).
    rng = random.Random(23)
    for _ in range(25):
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        cells = [(r, c) for r in range(rows) for c in range(cols)]
        obstacles = frozenset(rng.sample(cells, rng.randint(0, len(cells))))
        g = GridMap(rows=rows, cols=cols, obstacles=obstacles)
        cm = indicator_costmap(g)
        matches = classical_matches(cm, SINGLE_CELL)
        p = plan(g, SINGLE_CELL, mode="folded", solutions=max(1, len(matches)))
        spec = oracle_spec(p, cm, SINGLE_CELL)
        want = {p.anchor_index(cell) for cell in matches}
        assert marked_set_folded(p, spec) == want


def test_faithful_oracle_phases_exhaustive():
    rng = random.Random(29)
    for _ in range(10):
        rows, cols = rng.randint(1, 3), rng.randint(1, 3)
        cells = [(r, c) for r in range(rows) for c in range(cols)]
        obstacles = frozenset(rng.sample(cells, rng.randint(0, len(cells))))
        g = GridMap(rows=rows, cols=cols, obstacles=obstacles)
        cm = indicator_costmap(g)
        matches = classical_matches(cm, SINGLE_CELL)
        p = plan(g, SINGLE_CELL, mode="faithful")
        spec = oracle_spec(p, cm, SINGLE_CELL)
        want = {p.anchor_index(cell) for cell in matches}
        assert marked_set_faithful(p, spec) == want


def test_faithful_matches_folded_on_multicell_patterns():
    code = np.array([[1, 0, 1], [0, 1, 0]], dtype=np.int64)
    cm = Costmap(raw=code.astype(float), code=code)
    per = Perception(row_pattern=(0, 1), col_pattern=(1, 0),
                     anchor_offset_row=1, anchor_offset_col=0)
    g = GridMap(rows=2, cols=3)
    matches = classical_matches(cm, per)
    pf = plan(g, per, mode="faithful")
    sf = oracle_spec(pf, cm, per)
    po = plan(g, per, mode="folded", solutions=max(1, len(matches)))
    so = oracle_spec(po, cm, per)
    want = {pf.anchor_index(cell) for cell in matches}
    assert marked_set_faithful(pf, sf) == want
    assert marked_set_folded(po, so) == want


def test_oracle_spec_rejects_a_plan_for_another_anchor_grid():
    g = GridMap(rows=2, cols=3, obstacles=frozenset({(1, 2)}))
    per = Perception(row_pattern=(0, 1), col_pattern=(1,), anchor_offset_row=0, anchor_offset_col=0)
    with pytest.raises(ValueError):
        oracle_spec(plan(g, SINGLE_CELL), indicator_costmap(g), per)


def test_map_without_robot_or_obstacles_is_refused():
    g = GridMap(rows=2, cols=2)  # no obstacle anywhere, nothing marks a 1
    for mode in ("folded", "faithful"):
        with pytest.raises(ValueError, match="neither robot nor obstacles"):
            run_localization(g, mode=mode, max_qubits=1)


@pytest.mark.parametrize("mode", ["folded", "faithful"])
def test_build_circuit_validates_each_part_once(mode, monkeypatch):
    g = GridMap(rows=2, cols=3, obstacles=frozenset({(1, 2)}))
    p = plan(g, SINGLE_CELL, mode=mode)
    spec = oracle_spec(p, indicator_costmap(g), SINGLE_CELL)
    prep, oracle, diffusion = _prep_ops(p, spec), synth_oracle(p, spec).ops, synth_diffusion(p).ops
    checked = []
    qubits = GateOp.qubits
    monkeypatch.setattr(GateOp, "qubits", lambda op: checked.append(op) or qubits(op))
    circuit = build_circuit(p, spec)
    assert p.repetitions == 2
    assert circuit.width == p.total_qubits
    assert circuit.ops == tuple(prep) + (oracle + diffusion) * p.repetitions
    assert len(checked) == len(prep) + len(oracle) + len(diffusion)


# ---------------------------------------------------------------- diffusion


def test_diffusion_fixed_point():
    g = GridMap(rows=3, cols=3, obstacles=frozenset({(0, 1)}))
    p = plan(g, SINGLE_CELL, mode="folded")
    circ = synth_diffusion(p)
    state = init_state(p.search_qubits)
    for q in range(p.search_qubits):
        state = run(state, Circuit(width=p.search_qubits, ops=(h(q),)))
    out = run(state, circ)
    assert np.allclose(np.abs(out.amps), np.abs(state.amps), atol=1e-12)


def test_diffusion_matrix_is_reflection():
    g = GridMap(rows=2, cols=2)
    p = plan(g, SINGLE_CELL, mode="folded")
    assert p.search_qubits == 2
    circ = synth_diffusion(p)
    dim = 4
    cols = []
    for k in range(dim):
        s = init_state(2)
        s.amps[0] = 0.0
        s.amps[k] = 1.0
        cols.append(run(s, circ).amps)
    mat = np.array(cols).T
    uniform = np.full((dim, dim), 1.0 / dim)
    target = 2 * uniform - np.eye(dim)
    # equal up to a global phase: find it from the largest entry
    ratio = mat[np.abs(target) > 1e-9] / target[np.abs(target) > 1e-9]
    assert np.allclose(ratio, ratio[0], atol=1e-10)
    assert abs(abs(ratio[0]) - 1.0) < 1e-10
    assert np.allclose(mat, ratio[0] * target, atol=1e-10)


def test_single_iteration_perfect_on_four():
    g = GridMap(rows=2, cols=2, obstacles=frozenset({(1, 1)}))
    rep = run_localization(g, shots=400, seed=0, repetitions=1)
    assert rep.decoded == (1, 1)
    assert rep.histogram.counts == {"11": 400}
    assert rep.ideal_success_probability == pytest.approx(1.0)


# ---------------------------------------------------------------- success law


@pytest.mark.parametrize("n", [2, 4, 6, 8, 12, 16, 25, 36])
def test_success_probability_law(n):
    g = GridMap(rows=1, cols=n, obstacles=frozenset({(0, n // 2)}))
    shots = 3000
    rep = run_localization(g, shots=shots, seed=11)
    s = max(1, math.ceil(math.log2(n)))
    r = math.ceil(math.pi / 4 * math.sqrt(n))
    p_ideal = math.sin((2 * r + 1) * math.asin(math.sqrt(1 / 2**s))) ** 2
    assert rep.plan.repetitions == r
    assert rep.ideal_success_probability == pytest.approx(p_ideal, abs=1e-12)
    marked_key = format(rep.plan.anchor_index((0, n // 2)), f"0{s}b")
    freq = rep.histogram.counts.get(marked_key, 0) / shots
    sigma = math.sqrt(p_ideal * (1 - p_ideal) / shots)
    assert abs(freq - p_ideal) <= 3 * sigma + 1e-9


@pytest.mark.parametrize("n_marked", [2, 3])
def test_faithful_plans_with_the_solution_count(n_marked):
    # 3x3 robot-less maps with M = 2 or 3 obstacles on the diagonal: both
    # modes size R and the success probability for M marked anchors.
    g = GridMap(rows=3, cols=3, obstacles=frozenset((i, i) for i in range(n_marked)))
    shots = 8192
    folded = run_localization(g, mode="folded", shots=shots, seed=1)
    faithful = run_localization(g, mode="faithful", shots=shots, seed=1)
    assert faithful.plan.n_solutions == folded.plan.n_solutions == n_marked
    assert faithful.plan.repetitions == folded.plan.repetitions
    assert faithful.ideal_success_probability == folded.ideal_success_probability
    assert faithful.budget == folded.budget
    p = faithful.ideal_success_probability
    for rep in (folded, faithful):
        s = rep.plan.search_qubits
        marked = {format(rep.plan.anchor_index(cell), f"0{s}b") for cell in g.obstacles}
        share = sum(rep.histogram.counts.get(key, 0) for key in marked) / shots
        assert abs(share - p) <= 5 * math.sqrt(p * (1 - p) / shots), (rep.plan.mode, share, p)


# ---------------------------------------------------------------- budgets


def test_budget_single_h():
    b = circuit_budget(Circuit(width=1, ops=(h(0),)))
    assert b.elements == 1 and b.depth == 1


def test_budget_control_expansion():
    # One MCX with 3 controls: 2*3 - 1 = 5 elements, serial on shared qubits.
    op = mcx(((0, 1), (1, 1), (2, 0)), 3)
    b = circuit_budget(Circuit(width=4, ops=(op,)))
    assert b.elements == 5 and b.depth == 5
    # An H on a fresh qubit adds an element but hides inside the depth.
    b2 = circuit_budget(Circuit(width=5, ops=(op, h(4))))
    assert b2.elements == 6 and b2.depth == 5


def test_budget_mode_independent():
    g = GridMap(rows=3, cols=3, obstacles=frozenset({(0, 1)}))
    assert budget(plan(g, SINGLE_CELL, mode="folded")) == budget(plan(g, SINGLE_CELL, mode="faithful"))


def test_budget_obstacle_invariance():
    base = None
    for n_obs in (1, 3, 5):
        obstacles = frozenset({(0, i) for i in range(n_obs)})
        g = GridMap(rows=4, cols=5, obstacles=obstacles)
        b = budget(plan(g, SINGLE_CELL))
        if base is None:
            base = b
        assert b == base


def test_budget_monotone_over_benchmark_series():
    sizes = [(1, 2), (2, 2), (3, 3), (4, 4), (5, 5), (6, 6)]
    last = None
    for rows, cols in sizes:
        g = GridMap(rows=rows, cols=cols, obstacles=frozenset({(0, 0)}))
        b = budget(plan(g, SINGLE_CELL))
        if last is not None:
            assert b.elements > last.elements
            assert b.depth > last.depth
        last = b


def test_budget_within_factor_two_of_reference_case():
    g = GridMap(rows=2, cols=3, obstacles=frozenset({(0, 1)}))
    b = budget(plan(g, SINGLE_CELL, mode="faithful"))
    assert 163 / 2 <= b.elements <= 163 * 2
    assert 89 / 2 <= b.depth <= 89 * 2


def reference_budget(the_plan) -> Budget:
    """Whole-circuit meter: circuit_budget over every op of the faithful run."""
    wide = the_plan if the_plan.mode == "faithful" else replace(
        the_plan,
        mode="faithful",
        total_qubits=the_plan.layout.ancilla[0] + the_plan.layout.ancilla[1],
    )
    ops = _prep_ops(wide, None)
    oracle = _faithful_oracle_ops(wide)
    diffusion = synth_diffusion(wide).ops
    for _ in range(wide.repetitions):
        ops.extend(oracle)
        ops.extend(diffusion)
    return circuit_budget(Circuit(width=wide.total_qubits, ops=tuple(ops)))


def window_perception(rows: int, cols: int, sensor_range: int, cell) -> Perception:
    """Zero-valued patterns over the window perceive_at clips around a cell.

    Range 0 gives the single-cell perception of the indicator costmap.
    """
    rr, rc = cell
    c_lo, c_hi = max(0, rc - sensor_range), min(cols - 1, rc + sensor_range)
    r_lo, r_hi = max(0, rr - sensor_range), min(rows - 1, rr + sensor_range)
    return Perception(
        row_pattern=(0,) * (c_hi - c_lo + 1),
        col_pattern=(0,) * (r_hi - r_lo + 1),
        anchor_offset_row=rc - c_lo,
        anchor_offset_col=rr - r_lo,
    )


MAPS = Path(__file__).resolve().parent.parent / "maps"

# Every (rows, cols, q, perception) the rest of the suite plans on.
SUITE_GEOMETRIES = (
    [(r, c, 1, SINGLE_CELL) for r, c in [(1, 2), (2, 2), (3, 3), (4, 4), (5, 5), (6, 6), (2, 3), (4, 5)]]
    + [(1, n, 1, SINGLE_CELL) for n in (4, 6, 8, 12, 16, 25, 36, 64)]
    + [
        (4, 5, 1, Perception((1, 0), (0, 1), 0, 0)),
        (4, 5, 2, Perception((2, 1), (1, 2), 0, 0)),
        (3, 4, 2, Perception((1, 2), (3,), 0, 0)),
        (4, 4, 1, Perception((3, 2, 3), (3, 2, 2), 1, 1)),
        (1, 4, 1, Perception((2, 0, 1, 3), (2,), 0, 0)),
        (2, 3, 1, Perception((0, 1), (1, 0), 1, 0)),
    ]
    + [
        (g.rows, g.cols, g.qubits_per_cell, perceive(g))
        for g in (parse_map((MAPS / name).read_text()) for name in ("demo_robot.map", "unique_4x5.map"))
    ]
)


@pytest.mark.parametrize("mode", ["folded", "faithful"])
@pytest.mark.parametrize("rows,cols,q,per", SUITE_GEOMETRIES)
def test_budget_matches_reference_meter(rows, cols, q, per, mode):
    p = plan(GridMap(rows=rows, cols=cols, qubits_per_cell=q), per, mode=mode)
    for reps in (1, 2, p.repetitions):
        pr = replace(p, repetitions=reps)
        assert budget(pr) == reference_budget(pr)


# Ranges up to 5 on sides up to 12 reach row wraps where the new anchor's
# column meets the old anchor's row pattern (anchor_cols <= anchor_offset_row
# + 1) and single-column wraps, whose layering differs from a step's.
@settings(max_examples=150, deadline=None)
@given(
    rows=st.integers(1, 12),
    cols=st.integers(1, 12),
    q=st.integers(1, 3),
    sensor_range=st.integers(0, 5),
    reps=st.integers(0, 4),
    mode=st.sampled_from(["folded", "faithful"]),
    data=st.data(),
)
def test_budget_matches_reference_meter_sweep(rows, cols, q, sensor_range, reps, mode, data):
    cell = (data.draw(st.integers(0, rows - 1)), data.draw(st.integers(0, cols - 1)))
    per = window_perception(rows, cols, sensor_range, cell)
    p = plan(GridMap(rows=rows, cols=cols, qubits_per_cell=q), per, mode=mode)
    p = replace(p, repetitions=reps)
    assert budget(p) == reference_budget(p)


@pytest.mark.parametrize(
    "rows,cols,per,shape",
    [
        (1, 1, SINGLE_CELL, (1, 1)),  # a single anchor: head, boundaries and tail only
        (3, 3, Perception((0, 0, 0), (0, 0, 0), 1, 1), (1, 1)),
        (5, 3, Perception((0, 0, 0), (0,), 1, 0), (5, 1)),  # wraps, no steps
        (4, 6, Perception((0,), (0, 0, 0, 0), 0, 2), (1, 6)),  # steps, no wraps
        (1, 2, SINGLE_CELL, (1, 2)),
        (4, 4, Perception((0, 0, 0), (0, 0), 2, 1), (3, 2)),  # wraps meet the old row pattern
        (5, 3, Perception((0, 0, 0), (0, 0, 0), 1, 1), (3, 1)),  # single-column wraps
    ],
)
def test_budget_edge_geometries(rows, cols, per, shape):
    p = plan(GridMap(rows=rows, cols=cols), per, mode="faithful")
    assert (p.anchor_rows, p.anchor_cols) == shape
    for reps in (0, 1, 2, 3):
        pr = replace(p, repetitions=reps)
        assert budget(pr) == reference_budget(pr)


def test_budget_single_search_qubit_diffusion():
    p = plan(GridMap(rows=1, cols=2), SINGLE_CELL, mode="faithful")
    assert p.search_qubits == 1
    kinds = [op.kind for op in synth_diffusion(p).ops]
    assert "Z" in kinds and "MCZ" not in kinds
    assert budget(p) == reference_budget(p)


@pytest.fixture
def no_gates(monkeypatch):
    """Make building any gate or circuit, or metering one, raise."""

    def refuse(*args, **kwargs):
        raise AssertionError("budget built a gate or a circuit")

    for name in ("circuit_budget", "Circuit", "h", "x", "z", "mcx", "mcz"):
        monkeypatch.setattr(grover2d, name, refuse)


def test_budget_pinned_folded_64x64(no_gates):
    per = window_perception(64, 64, 3, (30, 30))
    p = plan(GridMap(rows=64, cols=64, qubits_per_cell=2), per, mode="folded")
    assert p.repetitions == 46
    assert budget(p) == Budget(elements=20895192, depth=14362859)


def test_budget_pinned_faithful_48x48_indicator(no_gates):
    p = plan(GridMap(rows=48, cols=48), SINGLE_CELL, mode="faithful")
    assert p.repetitions == 38
    assert budget(p) == Budget(elements=2716064, depth=2627399)

# ---------------------------------------------------------------- execution


def reference_modal_anchor(counts: dict[str, int], n_anchors: int) -> int | None:
    """The decode that parses every key: filter and break ties on values."""
    valid = {key: n for key, n in counts.items() if int(key, 2) < n_anchors}
    if not valid:
        return None
    return int(min(valid, key=lambda k: (-valid[k], int(k, 2))), 2)


@st.composite
def decode_cases(draw):
    width = draw(st.integers(1, 6))
    n_anchors = draw(st.integers(1, 1 << width))
    values = draw(st.dictionaries(st.integers(0, (1 << width) - 1), st.integers(1, 3), min_size=1))
    return width, n_anchors, values


@settings(max_examples=300, deadline=None)
@given(decode_cases())
@example((3, 8, {7: 2, 6: 2, 0: 1}))  # n_anchors = 2**s, a tie
@example((1, 1, {0: 1, 1: 4}))  # one anchor
@example((2, 3, {3: 5}))  # no valid key
@example((4, 5, {9: 7, 4: 2, 1: 2}))  # a tie among the valid keys
def test_modal_anchor_matches_int_decode(case):
    width, n_anchors, values = case
    counts = {format(v, f"0{width}b"): n for v, n in values.items()}
    hist = Histogram(counts=counts, shots=sum(counts.values()), bits=width)
    assert _modal_anchor(hist, n_anchors) == reference_modal_anchor(counts, n_anchors)


def test_run_localization_full_pipeline_demo():
    g = GridMap(rows=4, cols=5, obstacles=frozenset({(0, 2)}), robot=(1, 2),
                qubits_per_cell=1, sensor_range=1)
    rep = run_localization(g, shots=4096, seed=0)
    assert rep.plan.n_anchors == 6
    assert rep.decoded == (1, 2)
    payload = rep.to_json_dict()
    assert payload["decoded"] == [1, 2]
    assert payload["plan"]["n_anchors"] == 6
    assert set(payload["histogram"]) >= {"001"}


def test_run_localization_deterministic():
    g = GridMap(rows=3, cols=3, obstacles=frozenset({(0, 1)}))
    a = run_localization(g, shots=512, seed=4)
    b = run_localization(g, shots=512, seed=4)
    assert a.histogram.counts == b.histogram.counts
    assert a.decoded == b.decoded


def test_run_localization_width_guard_names_folded():
    g = GridMap(rows=5, cols=5, obstacles=frozenset({(3, 2)}))
    with pytest.raises(WidthTooLargeError) as err:
        run_localization(g, mode="faithful")
    assert "folded" in str(err.value)


def test_run_localization_faithful_small_case():
    g = GridMap(rows=2, cols=3, obstacles=frozenset({(1, 2)}))
    rep = run_localization(g, mode="faithful", shots=1500, seed=2)
    assert rep.decoded == (1, 2)
    assert rep.plan.total_qubits == 13


@st.composite
def robot_maps(draw) -> GridMap:
    """Sides 1-24, 0-15% obstacles, a robot on a free cell, q 1-3, range 1-4."""
    rows, cols = draw(st.integers(1, 24)), draw(st.integers(1, 24))
    cells = draw(st.permutations([(r, c) for r in range(rows) for c in range(cols)]))
    blocked = draw(st.integers(0, int(0.15 * rows * cols)))
    return GridMap(
        rows=rows,
        cols=cols,
        obstacles=frozenset(cells[:blocked]),
        robot=cells[blocked],
        qubits_per_cell=draw(st.integers(1, 3)),
        sensor_range=draw(st.integers(1, 4)),
    )


# No shrink phase: shrinking a failing map of up to 576 cells stalls for
# minutes, while the unshrunk example already names the map.
@settings(max_examples=200, deadline=None, phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(grid=robot_maps())
def test_robot_matches_its_own_cell(grid):
    assert grid.robot in classical_matches(compute_costmap(grid), perceive(grid))


def test_folded_decodes_a_uniquely_matching_robot():
    # 40 robot maps: sides 6-24, 1-12% obstacles, q 1-2, range 1-3. The robot
    # always matches its own cell. Wherever it is the only match and the ideal
    # success probability is above 0.5, 1024 shots decode the robot; 20 of
    # the 40 maps are such maps.
    rng = random.Random(2024)
    decoded = 0
    for _ in range(40):
        rows, cols = rng.randint(6, 24), rng.randint(6, 24)
        cells = rng.sample([(r, c) for r in range(rows) for c in range(cols)], rows * cols)
        blocked = int(rng.uniform(0.01, 0.12) * rows * cols)
        grid = GridMap(rows=rows, cols=cols, obstacles=frozenset(cells[:blocked]), robot=cells[blocked],
                       qubits_per_cell=rng.randint(1, 2), sensor_range=rng.randint(1, 3))
        matches = classical_matches(compute_costmap(grid), perceive(grid))
        assert grid.robot in matches
        report = run_localization(grid, shots=1024, seed=1)
        if matches == {grid.robot} and report.ideal_success_probability > 0.5:
            assert report.decoded == grid.robot
            decoded += 1
    assert decoded == 20


# ------------------------------------------------- closed form vs gate path


def gate_path(grid, repetitions):
    """Folded plan, spec and simulated state, built the way the gate path runs them."""
    perception = SINGLE_CELL if grid.robot is None else perceive(grid)
    costmap = indicator_costmap(grid) if grid.robot is None else compute_costmap(grid)
    spec = oracle_spec(plan(grid, perception), costmap, perception)
    p = plan(grid, perception, solutions=len(spec.solutions))
    if repetitions is not None:
        p = replace(p, repetitions=repetitions)
    return p, spec, run(init_state(p.total_qubits), build_circuit(p, spec))


def check_closed_form(grid, repetitions, shots, p_meas, seed):
    """Closed-form marginal within 1e-12 of the simulated one; same plan and histogram."""
    p, spec, simulated = gate_path(grid, repetitions)
    measured = list(range(p.search_qubits - 1, -1, -1))
    closed = _marginal(closed_form_state(p, spec.solutions), measured)
    assert np.max(np.abs(closed - _marginal(simulated, measured))) <= 1e-12
    noise = None if p_meas == 0 else NoiseModel(p_meas=p_meas)
    report = run_localization(grid, shots=shots, noise=noise, seed=seed, repetitions=repetitions)
    assert report.plan == p
    assert report.histogram == sample(
        simulated, range(p.search_qubits), shots, noise=noise, seed=seed + 1
    )


@st.composite
def folded_grids(draw) -> GridMap:
    rows, cols = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    cells = [(r, c) for r in range(rows) for c in range(cols)]
    obstacles = draw(st.sets(st.sampled_from(cells)))
    free = [cell for cell in cells if cell not in obstacles]
    robot = draw(st.one_of(st.none(), st.sampled_from(free))) if free else None
    if robot is None and not obstacles:
        # A robot-less map needs an obstacle to search for.
        obstacles = {draw(st.sampled_from(cells))}
    return GridMap(
        rows=rows,
        cols=cols,
        obstacles=frozenset(obstacles),
        robot=robot,
        qubits_per_cell=draw(st.integers(1, 3)),
        sensor_range=draw(st.integers(1, 3)),
    )


# No shrink phase: shrinking a failing case stalls for minutes, while the
# unshrunk example already shows the map and the first difference.
@settings(max_examples=200, deadline=None, phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(
    grid=folded_grids(),
    repetitions=st.one_of(st.none(), st.integers(-2, 4)),
    shots=st.integers(1, 5000),
    p_meas=st.sampled_from([0.0, 0.2]),
    seed=st.integers(0, 2**16),
)
def test_closed_form_matches_gate_path(grid, repetitions, shots, p_meas, seed):
    check_closed_form(grid, repetitions, shots, p_meas, seed)


@pytest.mark.parametrize(
    "grid, marked",
    [
        (parse_map((MAPS / "unique_4x5.map").read_text()), 1),
        (GridMap(rows=2, cols=2, obstacles=frozenset({(0, 0), (0, 1), (1, 0), (1, 1)})), 4),
        (GridMap(rows=1, cols=4, obstacles=frozenset({(0, 2)})), 1),
        (GridMap(rows=3, cols=5, obstacles=frozenset({(0, 1), (2, 4), (1, 3)})), 3),
    ],
    ids=["robot-marks-itself", "all-marked", "one-of-four", "three-of-fifteen"],
)
@pytest.mark.parametrize("repetitions", [None, -2, 0, 1, 3])
@pytest.mark.parametrize("p_meas", [0.0, 0.2])
def test_closed_form_edge_cases(grid, marked, repetitions, p_meas):
    # R <= 0 leaves the uniform state; M = 2**s has no unmarked state.
    p, spec, _ = gate_path(grid, repetitions)
    assert len(spec.solutions) == marked
    check_closed_form(grid, repetitions, 3000, p_meas, 11)
