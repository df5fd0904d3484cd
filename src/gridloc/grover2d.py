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
    perceive,
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
    map_codes and the patterns feed the faithful register preparation.
    """

    solutions: tuple[int, ...]
    map_codes: tuple[tuple[int, ...], ...]
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


def classical_matches(costmap: Costmap, perception: Perception) -> set[Cell]:
    """All anchors whose covered cells equal the patterns, by full scan."""
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
    rows, cols = np.nonzero(ok)
    return {(int(a) + o_col, int(b) + o_row) for a, b in zip(rows, cols)}


def oracle_spec(the_plan: GroverPlan, costmap: Costmap, perception: Perception) -> OracleSpec:
    """Bundle the data both oracle forms are synthesized from."""
    cells = sorted(classical_matches(costmap, perception))
    return OracleSpec(
        solutions=tuple(the_plan.anchor_index(cell) for cell in cells),
        map_codes=tuple(tuple(int(v) for v in row) for row in costmap.code),
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


def _restore_ops(pairs: list[tuple[int, int]]) -> list[GateOp]:
    """Undo an anchor's comparator bits, leaving the pattern register clean."""
    ops: list[GateOp] = []
    for mq, pq in pairs:
        ops.append(x(pq))
        ops.append(mcx([(mq, 1)], pq))
    return ops


def _anchor_ops(
    the_plan: GroverPlan,
    index: int,
    prev: list[tuple[int, int]] | None,
    pairs: list[tuple[int, int]],
) -> list[GateOp]:
    """Comparator writes for one anchor, then its wide kickback MCX.

    The first anchor writes XNOR comparators onto the pattern register in
    place (CX from the covered map bit, then a flip); later anchors only
    move each CX from the previous anchor's map bit to their own.
    """
    ops: list[GateOp] = []
    if prev is None:
        for mq, pq in pairs:
            ops.append(mcx([(mq, 1)], pq))
            ops.append(x(pq))
    else:
        for (old_mq, pq), (new_mq, _) in zip(prev, pairs):
            if old_mq != new_mq:
                ops.append(mcx([(old_mq, 1)], pq))
                ops.append(mcx([(new_mq, 1)], pq))
    controls = _search_controls(the_plan, index) + [(pq, 1) for _, pq in pairs]
    ops.append(mcx(controls, the_plan.layout.output[0]))
    return ops


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
        ops.extend(_anchor_ops(the_plan, index, prev, pairs))
        prev = pairs
    assert prev is not None
    ops.extend(_restore_ops(prev))
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


def _prep_ops(the_plan: GroverPlan, spec: OracleSpec | None) -> list[GateOp]:
    """Uniform search register, plus faithful-mode register loading."""
    ops = [h(q) for q in range(the_plan.search_qubits)]
    if the_plan.mode == "faithful":
        if spec is not None:
            q = the_plan.qubits_per_cell
            for r, row in enumerate(spec.map_codes):
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
    ops = _prep_ops(the_plan, spec)
    oracle = synth_oracle(the_plan, spec).ops
    diffusion = synth_diffusion(the_plan).ops
    for _ in range(the_plan.repetitions):
        ops.extend(oracle)
        ops.extend(diffusion)
    return Circuit(width=the_plan.total_qubits, ops=tuple(ops))


def circuit_budget(circuit: Circuit) -> Budget:
    """Meter a circuit: c-control gates expand to 2c-1 serial elements."""
    busy = [0] * circuit.width
    elements = 0
    depth = 0
    for op in circuit.ops:
        weight = 2 * len(op.controls) - 1 if op.controls else 1
        elements += weight
        qubits = op.qubits()
        start = max(busy[q] for q in qubits)
        end = start + weight
        for q in qubits:
            busy[q] = end
        depth = max(depth, end)
    return Budget(elements=elements, depth=depth)


def budget(the_plan: GroverPlan) -> Budget:
    """Hardware-cost estimate of the full register construction.

    Accounts the faithful circuit structure for the plan's geometry
    whatever the execution mode, leaving out the value-dependent register
    loading, so maps of equal shape cost the same however many obstacles
    they hold.

    The circuit is metered in closed form from five short segments. Each
    anchor's wide MCX touches every search, pattern and output qubit, and
    every op on a map qubit also touches a pattern qubit, so no qubit is
    busy past the end of a wide MCX. A segment that ends in one therefore
    adds the same elements and depth wherever it sits:

    - head: preparation, then the first anchor's writes and MCX
    - step: an in-row comparator rewrite and MCX
    - wrap: a row-wrap rewrite and MCX
    - boundary: restore and diffusion, then the first anchor again
    - tail: restore and diffusion

    and the whole run is head + R * (steps + wraps) + (R - 1) * boundary
    + tail.
    """
    wide = the_plan if the_plan.mode == "faithful" else replace(
        the_plan,
        mode="faithful",
        total_qubits=the_plan.layout.ancilla[0] + the_plan.layout.ancilla[1],
    )
    reps = wide.repetitions
    prep = _prep_ops(wide, None)
    if reps < 1:
        return circuit_budget(Circuit(width=wide.total_qubits, ops=tuple(prep)))

    def pairs(index: int) -> list[tuple[int, int]]:
        return _anchor_pairs(wide, wide.anchor_cell(index))

    first = pairs(0)
    opening = _anchor_ops(wide, 0, None, first)
    closing = _restore_ops(pairs(wide.n_anchors - 1)) + list(synth_diffusion(wide).ops)
    segments = [(1, prep + opening), (reps - 1, closing + opening), (1, closing)]
    if wide.anchor_cols > 1:
        steps = wide.n_anchors - wide.anchor_rows
        segments.append((reps * steps, _anchor_ops(wide, 1, first, pairs(1))))
    if wide.anchor_rows > 1:
        k = wide.anchor_cols
        segments.append(
            (reps * (wide.anchor_rows - 1), _anchor_ops(wide, k, pairs(k - 1), pairs(k)))
        )

    elements = depth = 0
    for count, ops in segments:
        part = circuit_budget(Circuit(width=wide.total_qubits, ops=tuple(ops)))
        elements += count * part.elements
        depth += count * part.depth
    return Budget(elements=elements, depth=depth)


def ideal_success_probability(the_plan: GroverPlan) -> float:
    """Closed-form chance of measuring a marked anchor.

    The amplified space spans all 2**search_qubits basis states, so the
    mark fraction uses that power of two, not the raw anchor count.
    """
    m = the_plan.n_solutions
    if m < 1:
        return 0.0
    span = 1 << the_plan.search_qubits
    theta = math.asin(math.sqrt(m / span))
    return math.sin((2 * the_plan.repetitions + 1) * theta) ** 2


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

    A map with a robot is searched for the robot's perception in its own
    costmap. A map without one gets the benchmark reading: the single code
    1 searched in the obstacle indicator, which marks the obstacles. The
    width guard runs on the plan before any costmap is built. Folded mode
    sizes the repetitions with the exact solution count; faithful mode
    assumes a single solution. The modal outcome among valid anchor values
    decodes to a cell, ties going to the lowest anchor index.
    """
    perception = SINGLE_CELL if grid.robot is None else perceive(grid)
    the_plan = plan(grid, perception, mode)
    if the_plan.total_qubits > max_qubits:
        message = f"{the_plan.mode} layout needs {the_plan.total_qubits} qubits, over the {max_qubits}-qubit budget"
        if the_plan.mode == "faithful":
            message += f"; folded mode needs only {the_plan.search_qubits}"
        raise WidthTooLargeError(message)

    costmap = indicator_costmap(grid) if grid.robot is None else compute_costmap(grid)
    spec = oracle_spec(the_plan, costmap, perception)
    if mode == "folded":
        the_plan = plan(grid, perception, mode, solutions=max(1, len(spec.solutions)))
    if repetitions is not None:
        the_plan = replace(the_plan, repetitions=int(repetitions))
    circuit = build_circuit(the_plan, spec)
    state = statevec.init_state(the_plan.total_qubits, max_qubits)
    state = statevec.run(state, circuit, noise=noise, seed=seed)
    hist = statevec.sample(
        state, range(the_plan.search_qubits), shots, noise=noise, seed=seed + 1
    )

    decoded: Cell | None = None
    valid = {
        key: count
        for key, count in hist.counts.items()
        if int(key, 2) < the_plan.n_anchors
    }
    if valid:
        best = min(valid, key=lambda k: (-valid[k], int(k, 2)))
        decoded = the_plan.anchor_cell(int(best, 2))

    probability = ideal_success_probability(the_plan) if spec.solutions else 0.0
    return LocalizationReport(
        plan=the_plan,
        histogram=hist,
        decoded=decoded,
        ideal_success_probability=probability,
        budget=budget(the_plan),
        shots=shots,
        seed=seed,
    )
