"""Amplitude-amplified localization on a 2-D costmap.

The robot's row and column perception patterns are slid over the stored
costmap. Every placement where both patterns could sit is an anchor,
identified by the cell the robot itself would occupy there. The search
marks anchors whose covered cells match the stored codes exactly and
amplifies them with the standard reflect-about-uniform iteration.

Two circuit modes produce the same marked set. The folded mode folds the
match predicate into one phase flip per matching anchor and needs only the
search register. The faithful mode lays out the full construction: the map
and the patterns each live in their own register, comparator chains write
match indicators, and a single multi-controlled X kicks a phase back off
an output qubit prepared in the |-> state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import statevec
from .gridmap import (
    SINGLE_CELL,
    Cell,
    Costmap,
    GridMap,
    Perception,
    compute_costmap,
    indicator_costmap,
    # perceive stays importable from here: the benchmark's tracer wraps grover2d.perceive.
    perceive,  # noqa: F401
    sensed_slice,
)
from .statevec import Circuit, GateOp, WidthTooLargeError, h, mcx, mcz, x, z


@dataclass(frozen=True)
class RegisterLayout:
    """(start, length) spans of each register inside one wide circuit."""

    search: tuple[int, int]
    map_cells: tuple[int, int]
    row_pattern: tuple[int, int]
    col_pattern: tuple[int, int]
    output: tuple[int, int]
    ancilla: tuple[int, int]

    def as_dict(self) -> dict[str, list[int]]:
        return {
            "search": list(self.search),
            "map_cells": list(self.map_cells),
            "row_pattern": list(self.row_pattern),
            "col_pattern": list(self.col_pattern),
            "output": list(self.output),
            "ancilla": list(self.ancilla),
        }


@dataclass(frozen=True)
class GroverPlan:
    """Geometry and budget of one localization search."""

    rows: int
    cols: int
    qubits_per_cell: int
    row_pattern_len: int
    col_pattern_len: int
    anchor_offset_row: int
    anchor_offset_col: int
    anchor_rows: int
    anchor_cols: int
    n_anchors: int
    n_solutions: int
    search_qubits: int
    repetitions: int
    mode: str
    total_qubits: int
    layout: RegisterLayout

    def anchor_cell(self, index: int) -> Cell:
        """Row-major anchor index to the robot cell it stands for."""
        if not 0 <= index < self.n_anchors:
            raise ValueError(f"anchor index {index} outside [0, {self.n_anchors})")
        r, c = divmod(index, self.anchor_cols)
        # anchor_offset_col indexes the robot inside the column pattern, so it
        # is a row offset (and anchor_offset_row a column offset).
        return (r + self.anchor_offset_col, c + self.anchor_offset_row)

    def anchor_index(self, cell: Cell) -> int:
        r = cell[0] - self.anchor_offset_col
        c = cell[1] - self.anchor_offset_row
        if not (0 <= r < self.anchor_rows and 0 <= c < self.anchor_cols):
            raise ValueError(f"cell {cell} is not a valid anchor")
        return r * self.anchor_cols + c

    def as_dict(self) -> dict:
        return {
            "rows": self.rows,
            "cols": self.cols,
            "qubits_per_cell": self.qubits_per_cell,
            "row_pattern_len": self.row_pattern_len,
            "col_pattern_len": self.col_pattern_len,
            "anchor_offset_row": self.anchor_offset_row,
            "anchor_offset_col": self.anchor_offset_col,
            "anchor_rows": self.anchor_rows,
            "anchor_cols": self.anchor_cols,
            "n_anchors": self.n_anchors,
            "n_solutions": self.n_solutions,
            "search_qubits": self.search_qubits,
            "repetitions": self.repetitions,
            "mode": self.mode,
            "total_qubits": self.total_qubits,
            "layout": self.layout.as_dict(),
        }


@dataclass(frozen=True)
class OracleSpec:
    """Everything an oracle synthesizer may look at.

    solutions carry the matching anchor indices for the folded form;
    map_codes (the costmap's frozen code array) and the patterns feed the
    faithful register preparation.
    """

    solutions: tuple[int, ...]
    map_codes: np.ndarray
    row_pattern: tuple[int, ...]
    col_pattern: tuple[int, ...]


@dataclass(frozen=True)
class Budget:
    """Two-qubit-equivalent element count and layered depth."""

    elements: int
    depth: int

    def as_dict(self) -> dict[str, int]:
        return {"elements": self.elements, "depth": self.depth}


def plan(
    grid: GridMap,
    perception: Perception,
    mode: str = "folded",
    solutions: int | None = None,
) -> GroverPlan:
    """Size the search for a map and a perception.

    The solution count defaults to 1; pass the known match count to tighten
    the repetition choice. Anchor counts shrink by the pattern lengths, the
    repetition count follows ceil(pi/4 * sqrt(N/M)), and the faithful width
    stacks search, map, pattern, output and scratch registers.
    """
    if mode not in ("folded", "faithful"):
        raise ValueError(f"unknown mode {mode!r}")
    p_row = len(perception.row_pattern)
    p_col = len(perception.col_pattern)
    if p_row > grid.cols or p_col > grid.rows:
        raise ValueError("perception pattern longer than the map side it slides over")

    anchor_rows = grid.rows - p_col + 1
    anchor_cols = grid.cols - p_row + 1
    n_anchors = anchor_rows * anchor_cols
    n_solutions = 1 if solutions is None else int(solutions)
    if not 1 <= n_solutions <= n_anchors:
        raise ValueError(f"solution count {n_solutions} outside [1, {n_anchors}]")

    search_qubits = max(1, math.ceil(math.log2(n_anchors)))
    repetitions = math.ceil(math.pi / 4.0 * math.sqrt(n_anchors / n_solutions))

    q = grid.qubits_per_cell
    map_qubits = grid.rows * grid.cols * q
    pattern_qubits = (p_row + p_col) * q
    scratch = max(p_row, p_col)
    faithful_total = search_qubits + map_qubits + pattern_qubits + 1 + scratch

    base = search_qubits
    layout = RegisterLayout(
        search=(0, search_qubits),
        map_cells=(base, map_qubits),
        row_pattern=(base + map_qubits, p_row * q),
        col_pattern=(base + map_qubits + p_row * q, p_col * q),
        output=(base + map_qubits + pattern_qubits, 1),
        ancilla=(base + map_qubits + pattern_qubits + 1, scratch),
    )
    return GroverPlan(
        rows=grid.rows,
        cols=grid.cols,
        qubits_per_cell=q,
        row_pattern_len=p_row,
        col_pattern_len=p_col,
        anchor_offset_row=perception.anchor_offset_row,
        anchor_offset_col=perception.anchor_offset_col,
        anchor_rows=anchor_rows,
        anchor_cols=anchor_cols,
        n_anchors=n_anchors,
        n_solutions=n_solutions,
        search_qubits=search_qubits,
        repetitions=repetitions,
        mode=mode,
        total_qubits=faithful_total if mode == "faithful" else search_qubits,
        layout=layout,
    )


def _match_mask(costmap: Costmap, perception: Perception) -> np.ndarray:
    """Full scan of the anchor grid: the flat index of each True entry is a matching anchor index."""
    p_row = len(perception.row_pattern)
    p_col = len(perception.col_pattern)
    if p_row > costmap.cols or p_col > costmap.rows:
        raise ValueError("perception pattern longer than the map side it slides over")
    o_row = perception.anchor_offset_row
    o_col = perception.anchor_offset_col
    n_rows = costmap.rows - p_col + 1
    n_cols = costmap.cols - p_row + 1

    # ok[a, b] stands for the anchor cell (a + o_col, b + o_row).
    code = costmap.code
    ok = np.ones((n_rows, n_cols), dtype=bool)
    for j, value in enumerate(perception.row_pattern):
        ok &= code[o_col : o_col + n_rows, j : j + n_cols] == value
    for i, value in enumerate(perception.col_pattern):
        ok &= code[i : i + n_rows, o_row : o_row + n_cols] == value
    return ok


def classical_matches(costmap: Costmap, perception: Perception) -> set[Cell]:
    """All anchors whose covered cells equal the patterns, by full scan."""
    rows, cols = np.nonzero(_match_mask(costmap, perception))
    o_row, o_col = perception.anchor_offset_row, perception.anchor_offset_col
    return {(int(a) + o_col, int(b) + o_row) for a, b in zip(rows, cols)}


def oracle_spec(the_plan: GroverPlan, costmap: Costmap, perception: Perception) -> OracleSpec:
    """Bundle the data both oracle forms are synthesized from."""
    ok = _match_mask(costmap, perception)
    if ok.shape != (the_plan.anchor_rows, the_plan.anchor_cols):
        raise ValueError("plan and perception disagree on the anchor grid")
    return OracleSpec(
        solutions=tuple(np.flatnonzero(ok).tolist()),
        map_codes=costmap.code,
        row_pattern=perception.row_pattern,
        col_pattern=perception.col_pattern,
    )


def _search_controls(the_plan: GroverPlan, value: int) -> list[tuple[int, int]]:
    return [(q, (value >> q) & 1) for q in range(the_plan.search_qubits)]


def _phase_flip_on(value: int, width: int) -> list[GateOp]:
    """Flip the phase of one basis state of a register starting at qubit 0."""
    bits = [(value >> q) & 1 for q in range(width)]
    target = next((q for q, b in enumerate(bits) if b), None)
    if target is None:
        # All-zeros state: conjugate a flip through qubit 0.
        controls = [(q, 0) for q in range(1, width)]
        inner = mcz(controls, 0) if controls else z(0)
        return [x(0), inner, x(0)]
    controls = [(q, bits[q]) for q in range(width) if q != target]
    return [mcz(controls, target) if controls else z(target)]


def _cell_qubit(the_plan: GroverPlan, cell: Cell, bit: int) -> int:
    start, _ = the_plan.layout.map_cells
    q = the_plan.qubits_per_cell
    return start + (cell[0] * the_plan.cols + cell[1]) * q + bit


def _anchor_pairs(the_plan: GroverPlan, anchor: Cell) -> list[tuple[int, int]]:
    """(map qubit, pattern qubit) comparison pairs for one anchor."""
    q = the_plan.qubits_per_cell
    row_start, _ = the_plan.layout.row_pattern
    col_start, _ = the_plan.layout.col_pattern
    r, c = anchor
    pairs = []
    for j in range(the_plan.row_pattern_len):
        cell = (r, c - the_plan.anchor_offset_row + j)
        for b in range(q):
            pairs.append((_cell_qubit(the_plan, cell, b), row_start + j * q + b))
    for i in range(the_plan.col_pattern_len):
        cell = (r - the_plan.anchor_offset_col + i, c)
        for b in range(q):
            pairs.append((_cell_qubit(the_plan, cell, b), col_start + i * q + b))
    return pairs


def _comparator_moves(
    prev: list[tuple[int, int]] | None, pairs: list[tuple[int, int]]
) -> list[tuple[int | None, int]]:
    """An anchor's comparator writes in circuit order.

    (mq, pq) is a CX from map qubit mq onto pattern qubit pq, (None, pq) an
    X on pq. The first anchor writes XNOR comparators onto the pattern
    register in place (CX from the covered map bit, then a flip); later
    anchors move each CX from the previous anchor's map bit to their own
    (two anchors never put one map bit at the same pattern position).
    """
    if prev is None:
        return [move for mq, pq in pairs for move in ((mq, pq), (None, pq))]
    return [move for (old, pq), (new, _) in zip(prev, pairs) for move in ((old, pq), (new, pq))]


def _restore_moves(pairs: list[tuple[int, int]]) -> list[tuple[int | None, int]]:
    """Undo an anchor's comparator bits, leaving the pattern register clean."""
    return [move for mq, pq in pairs for move in ((None, pq), (mq, pq))]


def _move_ops(moves: list[tuple[int | None, int]]) -> list[GateOp]:
    return [x(pq) if mq is None else mcx([(mq, 1)], pq) for mq, pq in moves]


def _faithful_oracle_ops(the_plan: GroverPlan) -> list[GateOp]:
    """Phase oracle over the full register stack.

    For each anchor, one wide MCX conditioned on the anchor's search value
    plus every comparator bit kicks the phase off the output qubit.
    Comparator bits are rewritten incrementally between consecutive
    anchors, and everything is restored exactly at the end, so the map and
    pattern registers leave unchanged.
    """
    ops: list[GateOp] = []
    prev: list[tuple[int, int]] | None = None
    for index in range(the_plan.n_anchors):
        pairs = _anchor_pairs(the_plan, the_plan.anchor_cell(index))
        ops.extend(_move_ops(_comparator_moves(prev, pairs)))
        controls = _search_controls(the_plan, index) + [(pq, 1) for _, pq in pairs]
        ops.append(mcx(controls, the_plan.layout.output[0]))
        prev = pairs
    assert prev is not None
    ops.extend(_move_ops(_restore_moves(prev)))
    return ops


def synth_oracle(the_plan: GroverPlan, spec: OracleSpec) -> Circuit:
    """One oracle pass in the plan's mode."""
    if the_plan.mode == "folded":
        ops: list[GateOp] = []
        for value in spec.solutions:
            ops.extend(_phase_flip_on(value, the_plan.search_qubits))
        return Circuit(width=the_plan.total_qubits, ops=tuple(ops))
    return Circuit(width=the_plan.total_qubits, ops=tuple(_faithful_oracle_ops(the_plan)))


def synth_diffusion(the_plan: GroverPlan) -> Circuit:
    """Reflection about the uniform state of the search register."""
    s = the_plan.search_qubits
    ops = [h(q) for q in range(s)]
    ops.extend(_phase_flip_on(0, s))
    ops.extend(h(q) for q in range(s))
    return Circuit(width=the_plan.total_qubits, ops=tuple(ops))


def _prep_ops(the_plan: GroverPlan, spec: OracleSpec) -> list[GateOp]:
    """Uniform search register, plus faithful-mode register loading."""
    ops = [h(q) for q in range(the_plan.search_qubits)]
    if the_plan.mode == "faithful":
        q = the_plan.qubits_per_cell
        for r, row in enumerate(spec.map_codes.tolist()):
            for c, value in enumerate(row):
                for b in range(q):
                    if (value >> b) & 1:
                        ops.append(x(_cell_qubit(the_plan, (r, c), b)))
        row_start, _ = the_plan.layout.row_pattern
        col_start, _ = the_plan.layout.col_pattern
        for j, value in enumerate(spec.row_pattern):
            for b in range(q):
                if (value >> b) & 1:
                    ops.append(x(row_start + j * q + b))
        for i, value in enumerate(spec.col_pattern):
            for b in range(q):
                if (value >> b) & 1:
                    ops.append(x(col_start + i * q + b))
        output = the_plan.layout.output[0]
        ops.append(x(output))
        ops.append(h(output))
    return ops


def build_circuit(the_plan: GroverPlan, spec: OracleSpec) -> Circuit:
    """Complete run: preparation then repeated oracle and diffusion."""
    circuit = Circuit(width=the_plan.total_qubits, ops=tuple(_prep_ops(the_plan, spec)))
    body = synth_oracle(the_plan, spec).ops + synth_diffusion(the_plan).ops
    # Every part is a validated circuit of this width, so the R copies are
    # joined without checking each op again.
    object.__setattr__(circuit, "ops", circuit.ops + body * the_plan.repetitions)
    return circuit


def _moves_depth(moves: list[tuple[int | None, int]]) -> int:
    """Latest end of comparator moves layered one element each from idle qubits."""
    busy: dict[int, int] = {}
    for mq, pq in moves:
        mq = pq if mq is None else mq  # an X occupies only its pattern qubit
        busy[mq] = busy[pq] = max(busy.get(mq, 0), busy.get(pq, 0)) + 1
    return max(busy.values())


def budget(the_plan: GroverPlan) -> Budget:
    """Hardware-cost estimate of the full register construction.

    Accounts the faithful circuit structure for the plan's geometry
    whatever the execution mode, leaving out the value-dependent register
    loading, so maps of equal shape cost the same however many obstacles
    they hold. Counted in closed form, with no gate built, it equals the
    reference meter `reference_budget` in tests/test_grover2d.py, which
    layers every op of the whole faithful run.

    With s search qubits and P comparator pairs, each anchor writes 2P
    moves and a wide MCX of weight W = 2(s + P) - 1, and each repetition
    ends in a 2P-move restore and the diffusion. Each wide MCX touches
    every search, pattern and output qubit, and every op on a map qubit
    also touches a pattern qubit, so no qubit is busy past the end of a
    wide MCX. A segment that ends in one therefore adds the same elements
    and depth wherever it sits, its depth being the latest end of its
    layered moves plus W:

    - head: preparation, then the first anchor's writes and MCX
    - step: an in-row comparator rewrite and MCX
    - wrap: a row-wrap rewrite and MCX
    - boundary: restore and diffusion, then the first anchor again
    - tail: restore and diffusion

    and the whole run is head + R * (steps + wraps) + (R - 1) * boundary
    + tail.
    """
    s, reps = the_plan.search_qubits, the_plan.repetitions
    if reps < 1:
        return Budget(elements=s + 2, depth=2)

    def pairs(index: int) -> list[tuple[int, int]]:
        return _anchor_pairs(the_plan, the_plan.anchor_cell(index))

    def rewrite_depth(a: int, b: int) -> int:
        return _moves_depth(_comparator_moves(pairs(a), pairs(b)))

    n, rows, k = the_plan.n_anchors, the_plan.anchor_rows, the_plan.anchor_cols
    first = pairs(0)
    wide = 2 * (s + len(first)) - 1
    # 2s H gates around X, an (s-1)-control MCZ and X; one qubit takes X, Z, X.
    diff_elements, diff_depth = (5, 5) if s == 1 else (4 * s - 1, 2 * s + 1)
    opening = _comparator_moves(None, first)
    # Neither the preparation (depth 2) nor a restore (depth 3) can set a
    # segment's depth: the robot's cell lies under both patterns, so the
    # opening layers at least 3 deep, and the diffusion is at least 5 deep.
    boundary = max(_moves_depth(_restore_moves(pairs(n - 1)) + opening), diff_depth)
    depth = _moves_depth(opening) + (reps - 1) * boundary + diff_depth + reps * n * wide
    if k > 1:
        depth += reps * (n - rows) * rewrite_depth(0, 1)
    if rows > 1:
        depth += reps * (rows - 1) * rewrite_depth(k - 1, k)
    elements = s + 2 + reps * (n * (2 * len(first) + wide) + 2 * len(first) + diff_elements)
    return Budget(elements=elements, depth=depth)


def _rotation(the_plan: GroverPlan, marked: int) -> float:
    """(2R+1)θ with sin²θ = marked / 2**search_qubits: the angle R rounds reach.

    The amplified space spans all 2**search_qubits basis states, so the
    mark fraction uses that power of two, not the raw anchor count. A
    negative R runs no rounds, as in the circuit.
    """
    theta = math.asin(math.sqrt(marked / (1 << the_plan.search_qubits)))
    return (2 * max(the_plan.repetitions, 0) + 1) * theta


def ideal_success_probability(the_plan: GroverPlan) -> float:
    """Closed-form chance of measuring a marked anchor."""
    return math.sin(_rotation(the_plan, the_plan.n_solutions)) ** 2


def closed_form_state(the_plan: GroverPlan, solutions) -> statevec.StateVector:
    """The noiseless search-register state after the plan's repetitions, built without gates.

    Each of the M marked anchors holds sin((2R+1)θ)/√M, every other state of
    the 2**s span cos((2R+1)θ)/√(2**s - M) (Boyer, Brassard, Høyer, Tapp
    1998): the folded circuit's state up to a global sign, and the faithful
    circuit's search marginal. A negative R leaves the uniform state.
    """
    span, m = 1 << the_plan.search_qubits, len(solutions)
    angle = _rotation(the_plan, m)
    amps = np.full(span, math.cos(angle) / math.sqrt(span - m) if m < span else 0.0)
    amps[list(solutions)] = math.sin(angle) / math.sqrt(m)
    return statevec.from_amplitudes(amps)


def _modal_anchor(hist: statevec.Histogram, n_anchors: int) -> int | None:
    """The most frequent outcome below n_anchors as an index, ties to the lowest."""
    # Equal-width bitstrings sort like their values: compare keys, parse one.
    top = format(n_anchors - 1, f"0{hist.bits}b")
    best = min(((-count, key) for key, count in hist.counts.items() if key <= top), default=None)
    return None if best is None else int(best[1], 2)


@dataclass(frozen=True)
class LocalizationReport:
    """Outcome of one localization run."""

    plan: GroverPlan
    histogram: statevec.Histogram
    decoded: Cell | None
    ideal_success_probability: float
    budget: Budget
    shots: int
    seed: int

    def to_json_dict(self) -> dict:
        return {
            "plan": self.plan.as_dict(),
            "histogram": dict(sorted(self.histogram.counts.items())),
            "decoded": list(self.decoded) if self.decoded is not None else None,
            "ideal_success_probability": self.ideal_success_probability,
            "budget": self.budget.as_dict(),
            "shots": self.shots,
            "seed": self.seed,
        }


def run_localization(
    grid: GridMap,
    mode: str = "folded",
    shots: int = 4096,
    noise: statevec.NoiseModel | None = None,
    seed: int = 0,
    max_qubits: int = statevec.DEFAULT_MAX_QUBITS,
    repetitions: int | None = None,
) -> LocalizationReport:
    """Locate the robot by amplifying matching anchors.

    A map with a robot is searched for the robot's perception, the slice of
    its own costmap through the robot's cell. A map without one gets the
    benchmark reading: the single code 1 searched in the obstacle
    indicator, which marks the obstacles. So every search has a match, and
    a map with neither robot nor obstacles is refused. The width guard runs
    on the plan before any costmap is built. Both modes size the repetitions
    and the ideal success probability with the exact solution count. A run
    without gate noise, in either mode, samples the closed-form state; only
    gate noise makes a run build and simulate its circuit. The modal
    outcome among valid anchor values decodes to a cell, ties going to the
    lowest anchor index.
    """
    if grid.robot is None and not grid.obstacles:
        raise ValueError("map has neither robot nor obstacles, nothing to search for")
    if grid.robot is None:
        perception = SINGLE_CELL
    else:
        # plan reads only the window's shape, so the guard slices a zero view, not a costmap.
        window = np.broadcast_to(0, (grid.rows, grid.cols))
        perception = sensed_slice(window, grid.robot, grid.sensor_range)
    the_plan = plan(grid, perception, mode)
    if the_plan.total_qubits > max_qubits:
        message = f"{the_plan.mode} layout needs {the_plan.total_qubits} qubits, over the {max_qubits}-qubit budget"
        if the_plan.mode == "faithful":
            message += f"; folded mode needs only {the_plan.search_qubits}"
        raise WidthTooLargeError(message)

    if grid.robot is None:
        costmap = indicator_costmap(grid)
    else:
        costmap = compute_costmap(grid)
        perception = sensed_slice(costmap.code, grid.robot, grid.sensor_range)
    spec = oracle_spec(the_plan, costmap, perception)
    the_plan = plan(grid, perception, mode, solutions=len(spec.solutions))
    if repetitions is not None:
        the_plan = replace(the_plan, repetitions=int(repetitions))
    if noise is None or noise.p_gate == 0:
        state = closed_form_state(the_plan, spec.solutions)
    else:
        circuit = build_circuit(the_plan, spec)
        state = statevec.init_state(the_plan.total_qubits, max_qubits)
        state = statevec.run(state, circuit, noise=noise, seed=seed)
    hist = statevec.sample(
        state, range(the_plan.search_qubits), shots, noise=noise, seed=seed + 1
    )

    best = _modal_anchor(hist, the_plan.n_anchors)
    decoded = None if best is None else the_plan.anchor_cell(best)
    return LocalizationReport(
        plan=the_plan,
        histogram=hist,
        decoded=decoded,
        ideal_success_probability=ideal_success_probability(the_plan),
        budget=budget(the_plan),
        shots=shots,
        seed=seed,
    )
