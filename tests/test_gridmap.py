from __future__ import annotations

import dataclasses
import math
import random

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from gridloc import (
    DuplicateRobotError,
    GridMap,
    MapFormatError,
    NoRobotError,
    Perception,
    compute_costmap,
    costmap_csv,
    indicator_costmap,
    parse_map,
    perceive,
    perceive_at,
)
from gridloc.gridmap import (
    FREE_CHAR,
    OBSTACLE_CHAR,
    ROBOT_CHAR,
    _normalize,
    perception_codes,
)


def to_text(grid: GridMap) -> str:
    """Render a map back to the file format (LF line endings)."""
    lines = [f"rows={grid.rows} cols={grid.cols} q={grid.qubits_per_cell} range={grid.sensor_range}"]
    for r in range(grid.rows):
        chars = []
        for c in range(grid.cols):
            if (r, c) in grid.obstacles:
                chars.append(OBSTACLE_CHAR)
            elif grid.robot == (r, c):
                chars.append(ROBOT_CHAR)
            else:
                chars.append(FREE_CHAR)
        lines.append("".join(chars))
    return "\n".join(lines) + "\n"


def reference_influence(rows: int, cols: int, obstacles, initial: float) -> np.ndarray:
    """Summed obstacle influence over the whole grid, one obstacle at a time.

    Each obstacle contributes initial / 2**(d-1) to every cell at Manhattan
    distance d >= 1. An obstacle never contributes to its own cell.
    """
    raw = np.zeros((rows, cols), dtype=float)
    rr = np.arange(rows)[:, None]
    cc = np.arange(cols)[None, :]
    for (orow, ocol) in obstacles:
        d = np.abs(rr - orow) + np.abs(cc - ocol)
        contrib = initial * np.exp2(1.0 - d)
        contrib[orow, ocol] = 0.0
        raw += contrib
    return raw


def oracle_costmap(grid: GridMap):
    """Plain-loop reimplementation used to cross-check the vectorized path."""
    initial = float(max(grid.rows, grid.cols))
    raw = [[0.0] * grid.cols for _ in range(grid.rows)]
    for r in range(grid.rows):
        for c in range(grid.cols):
            for (orow, ocol) in grid.obstacles:
                d = abs(r - orow) + abs(c - ocol)
                if d > 0:
                    raw[r][c] += initial / 2 ** (d - 1)
    top = 2**grid.qubits_per_cell - 1
    free = [(r, c) for r in range(grid.rows) for c in range(grid.cols) if grid.is_free((r, c))]
    code = [[top] * grid.cols for _ in range(grid.rows)]
    if free:
        lo = min(raw[r][c] for r, c in free)
        hi = max(raw[r][c] for r, c in free)
        for r, c in free:
            if hi > lo:
                factor = (hi - lo) / top
                code[r][c] = min(max(math.floor((raw[r][c] - lo) / factor + 0.5), 0), top)
            else:
                code[r][c] = 0
    return raw, code


def random_grid(rng: random.Random, max_side: int = 5) -> GridMap:
    rows = rng.randint(1, max_side)
    cols = rng.randint(1, max_side)
    cells = [(r, c) for r in range(rows) for c in range(cols)]
    obstacles = frozenset(rng.sample(cells, rng.randint(0, len(cells))))
    return GridMap(
        rows=rows,
        cols=cols,
        obstacles=obstacles,
        qubits_per_cell=rng.randint(1, 3),
        sensor_range=rng.randint(1, 4),
    )


@st.composite
def grids(draw, max_side: int = 12) -> GridMap:
    """Sides 1-max_side, any obstacle set, an optional robot on a free cell, q 1-5, range 1-4."""
    rows, cols = draw(st.integers(1, max_side)), draw(st.integers(1, max_side))
    cells = [(r, c) for r in range(rows) for c in range(cols)]
    obstacles = draw(st.sets(st.sampled_from(cells)))
    free = [cell for cell in cells if cell not in obstacles]
    robot = draw(st.one_of(st.none(), st.sampled_from(free))) if free else None
    return GridMap(
        rows=rows,
        cols=cols,
        obstacles=frozenset(obstacles),
        robot=robot,
        qubits_per_cell=draw(st.integers(1, 5)),
        sensor_range=draw(st.integers(1, 4)),
    )


# ---------------------------------------------------------------- parsing


def test_parse_round_trip():
    text = "rows=3 cols=4 q=2 range=2\n.#..\n..R.\n....\n"
    grid = parse_map(text)
    assert grid.rows == 3 and grid.cols == 4
    assert grid.obstacles == frozenset({(0, 1)})
    assert grid.robot == (1, 2)
    assert grid.qubits_per_cell == 2 and grid.sensor_range == 2
    assert to_text(grid) == text


@settings(max_examples=200, deadline=None)
@given(grid=grids())
def test_parse_inverts_to_text(grid):
    assert parse_map(to_text(grid)) == grid


def test_parse_rejects_bad_header():
    with pytest.raises(MapFormatError):
        parse_map("rows=2 cols=2\n..\n..\n")


def test_parse_rejects_wrong_line_count():
    with pytest.raises(MapFormatError):
        parse_map("rows=3 cols=2 q=1 range=1\n..\n..\n")


def test_parse_rejects_ragged_line():
    with pytest.raises(MapFormatError):
        parse_map("rows=2 cols=2 q=1 range=1\n..\n...\n")


def test_parse_rejects_unknown_char():
    with pytest.raises(MapFormatError):
        parse_map("rows=1 cols=2 q=1 range=1\n.x\n")


def test_parse_rejects_two_robots():
    with pytest.raises(DuplicateRobotError):
        parse_map("rows=1 cols=3 q=1 range=1\nRR.\n")


def reference_parse_map(text: str) -> GridMap:
    """``parse_map`` as first written, checking the grid one character at a time."""
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise MapFormatError("empty map text")
    header = lines[0]
    fields = header.split()
    keys = ("rows", "cols", "q", "range")
    if len(fields) != 4 or [f.split("=")[0] for f in fields] != list(keys):
        raise MapFormatError(f"malformed header: {header!r}")
    values = {}
    for f in fields:
        key, _, val = f.partition("=")
        try:
            values[key] = int(val)
        except ValueError:
            raise MapFormatError(f"non-integer {key} in header: {val!r}") from None
    rows, cols = values["rows"], values["cols"]
    body = lines[1:]
    if len(body) != rows:
        raise MapFormatError(f"expected {rows} grid lines, got {len(body)}")
    obstacles = set()
    robot = None
    for r, line in enumerate(body):
        if len(line) != cols or line != line.rstrip():
            raise MapFormatError(f"line {r + 2}: expected exactly {cols} cell characters")
        for c, ch in enumerate(line):
            if ch == "#":
                obstacles.add((r, c))
            elif ch == "R":
                if robot is not None:
                    raise DuplicateRobotError(f"second robot at {(r, c)}, first at {robot}")
                robot = (r, c)
            elif ch != ".":
                raise MapFormatError(f"line {r + 2}: unknown cell character {ch!r}")
    return GridMap(
        rows=rows,
        cols=cols,
        obstacles=frozenset(obstacles),
        robot=robot,
        qubits_per_cell=values["q"],
        sensor_range=values["range"],
    )


# Characters an edit writes: a robot (often a second one), a valid cell, or a
# line break, whitespace, unknown or non-ASCII character.
EDIT_CHARS = st.one_of(st.just("R"), st.sampled_from(".#"), st.sampled_from("\n x\t\r\x0b\u00a0\u00e9"))


@st.composite
def map_texts(draw) -> str:
    """A valid map text, or one with up to four single-character edits to its grid lines."""
    header, _, body = to_text(draw(grids())).partition("\n")
    chars = list(body)
    for _ in range(draw(st.integers(0, 4))):
        i = draw(st.integers(0, len(chars)))
        edit = draw(st.sampled_from(("replace", "replace", "replace", "insert", "delete")))
        if edit == "delete" and i < len(chars):
            del chars[i]
        elif edit == "replace" and i < len(chars):
            chars[i] = draw(EDIT_CHARS)
        else:
            chars.insert(i, draw(EDIT_CHARS))
    return header + "\n" + "".join(chars)


def parse_outcome(parse, text):
    """The parsed map, or the type and message of the error raised."""
    try:
        return parse(text)
    except ValueError as exc:
        return type(exc), str(exc)


@settings(max_examples=500, deadline=None)
@given(text=map_texts())
@example(text="rows=1 cols=4 q=1 range=1\nRxR.\n")
@example(text="rows=2 cols=3 q=1 range=1\nR..\n.Rx\n")
@example(text="rows=2 cols=3 q=1 range=1\nR.x\nR..\n")
@example(text="rows=2 cols=3 q=1 range=1\n.R.\n..\n")
@example(text="rows=1 cols=3 q=1 range=1\n.. \n")
@example(text="rows=1 cols=2 q=1 range=1\n#\u00e9\n")
@example(text="rows=0 cols=-3 q=1 range=1\n")
@example(text="rows=2 cols=0 q=1 range=1\n\n\n")
def test_parse_matches_character_loop(text):
    assert parse_outcome(parse_map, text) == parse_outcome(reference_parse_map, text)


def test_grid_validation():
    with pytest.raises(ValueError):
        GridMap(rows=0, cols=2)
    with pytest.raises(ValueError):
        GridMap(rows=2, cols=2, obstacles=frozenset({(5, 0)}))
    with pytest.raises(ValueError):
        GridMap(rows=2, cols=2, robot=(0, 0), obstacles=frozenset({(0, 0)}))
    with pytest.raises(ValueError):
        GridMap(rows=2, cols=2, qubits_per_cell=0)
    with pytest.raises(MapFormatError):
        GridMap(rows=2, cols=2, qubits_per_cell=54)


# ---------------------------------------------------------------- costmap


def test_costmap_center_obstacle_3x3():
    # Hand evaluation, q=2: neighbours get the top code, corners the bottom.
    grid = GridMap(rows=3, cols=3, obstacles=frozenset({(1, 1)}), qubits_per_cell=2)
    cm = compute_costmap(grid)
    assert cm.code.tolist() == [[0, 3, 0], [3, 3, 3], [0, 3, 0]]
    # raw field: initial=3, adjacent d=1 -> 3, diagonal d=2 -> 1.5
    assert cm.raw[0][1] == pytest.approx(3.0)
    assert cm.raw[0][0] == pytest.approx(1.5)
    assert cm.rows == 3 and cm.cols == 3


def test_costmap_empty_map_is_flat_zero():
    grid = GridMap(rows=3, cols=4)
    cm = compute_costmap(grid)
    assert not cm.raw.any()
    assert not cm.code.any()


def test_costmap_obstacles_take_top_code():
    grid = GridMap(rows=2, cols=3, obstacles=frozenset({(0, 1)}), qubits_per_cell=3)
    cm = compute_costmap(grid)
    assert cm.code[0][1] == 7


def test_costmap_matches_loop_oracle():
    rng = random.Random(42)
    for _ in range(120):
        grid = random_grid(rng)
        cm = compute_costmap(grid)
        raw, code = oracle_costmap(grid)
        assert np.allclose(cm.raw, np.array(raw))
        assert cm.code.tolist() == code


@st.composite
def costmap_grids(draw) -> GridMap:
    """Sides 1-48, q 1-5, each cell an obstacle with probability 0-15%."""
    rows, cols = draw(st.integers(1, 48)), draw(st.integers(1, 48))
    share = draw(st.floats(0.0, 0.15))
    blocked = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).random((rows, cols)) < share
    return GridMap(
        rows=rows,
        cols=cols,
        obstacles=frozenset(map(tuple, np.argwhere(blocked).tolist())),
        qubits_per_cell=draw(st.integers(1, 5)),
    )


# No shrink phase: shrinking a failing map of up to 2304 cells stalls for
# minutes, while the unshrunk example already names the map.
@settings(max_examples=200, deadline=None, phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(grid=costmap_grids())
def test_costmap_matches_reference_influence(grid):
    # The separable product rounds differently from the per-obstacle sum, and
    # on obstacle cells taking out the own-cell term cancels digits, so raw is
    # compared within 1e-12 of initial there; the codes must agree exactly.
    initial = float(max(grid.rows, grid.cols))
    raw = reference_influence(grid.rows, grid.cols, grid.obstacles, initial)
    free = ~grid.obstacle_mask()
    cm = compute_costmap(grid)
    assert np.array_equal(cm.code, _normalize(raw, free, grid.qubits_per_cell))
    assert np.all(np.abs(cm.raw - raw)[free] <= 1e-12 * raw[free])
    assert np.all(np.abs(cm.raw - raw) <= 1e-12 * initial)


def test_costmap_monotone_under_added_obstacle():
    rng = random.Random(7)
    for _ in range(60):
        grid = random_grid(rng, max_side=4)
        free = [c for c in grid.free_cells()]
        if not free:
            continue
        extra = rng.choice(free)
        bigger = GridMap(
            rows=grid.rows,
            cols=grid.cols,
            obstacles=grid.obstacles | {extra},
            qubits_per_cell=grid.qubits_per_cell,
            sensor_range=grid.sensor_range,
        )
        before = compute_costmap(grid).raw
        after = compute_costmap(bigger).raw
        assert (after >= before - 1e-12).all()


def test_costmap_reflection_symmetry():
    rng = random.Random(11)
    for _ in range(60):
        grid = random_grid(rng, max_side=4)
        flipped = GridMap(
            rows=grid.rows,
            cols=grid.cols,
            obstacles=frozenset(
                (grid.rows - 1 - r, grid.cols - 1 - c) for r, c in grid.obstacles
            ),
            qubits_per_cell=grid.qubits_per_cell,
        )
        a = compute_costmap(grid).raw
        b = compute_costmap(flipped).raw
        assert np.allclose(a, b[::-1, ::-1])


@settings(max_examples=200, deadline=None)
@given(grid=grids())
def test_costmap_codes_fit_in_q_bits(grid):
    code = compute_costmap(grid).code
    assert code.min() >= 0
    assert code.max() <= 2**grid.qubits_per_cell - 1


def test_indicator_costmap_marks_exactly_the_obstacles():
    obstacles = frozenset({(0, 1), (2, 3), (1, 0)})
    cm = indicator_costmap(GridMap(rows=3, cols=4, obstacles=obstacles, qubits_per_cell=2))
    assert {(int(r), int(c)) for r, c in np.argwhere(cm.code == 1)} == obstacles
    assert {(int(r), int(c)) for r, c in np.argwhere(cm.code == 0)} == {
        (r, c) for r in range(3) for c in range(4)
    } - obstacles
    assert np.array_equal(cm.raw, cm.code)


def test_costmap_is_read_only():
    cm = compute_costmap(GridMap(rows=2, cols=2, obstacles=frozenset({(0, 0)})))
    with pytest.raises(ValueError):
        cm.code[0][0] = 5


# ---------------------------------------------------------------- perception


def test_perceive_requires_robot():
    with pytest.raises(NoRobotError):
        perceive(GridMap(rows=2, cols=2))


def test_perceive_adjacent_obstacle_slice():
    # Obstacle next to the robot, wide range: patterns are the local slice.
    grid = GridMap(
        rows=3, cols=3, obstacles=frozenset({(1, 0)}), robot=(1, 1),
        qubits_per_cell=2, sensor_range=2,
    )
    per = perceive(grid)
    cm = compute_costmap(grid)
    # range 2 reaches across the 3x3 map: the patterns are the whole row and column
    assert list(per.row_pattern) == cm.code[1].tolist()
    assert list(per.col_pattern) == cm.code[:, 1].tolist()
    assert per.anchor_offset_row == 1 and per.anchor_offset_col == 1
    # the obstacle cell inside the pattern carries the top code
    assert per.row_pattern[0] == 3


def test_perceive_clips_at_edges():
    grid = GridMap(rows=4, cols=4, robot=(0, 3), sensor_range=1,
                   obstacles=frozenset({(2, 2)}))
    per = perceive(grid)
    assert len(per.row_pattern) == 2  # cols 2..3
    assert len(per.col_pattern) == 2  # rows 0..1
    assert per.anchor_offset_row == 1  # robot at the right end of its row slice
    assert per.anchor_offset_col == 0


def test_perceive_at_matches_perceive():
    grid = GridMap(rows=3, cols=4, obstacles=frozenset({(2, 1)}), robot=(0, 2),
                   qubits_per_cell=2, sensor_range=2)
    assert perceive_at(grid, (0, 2)) == perceive(grid)


@settings(max_examples=100, deadline=None)
@given(grid=grids())
def test_perception_codes_fit_in_q_bits(grid):
    top = 2**grid.qubits_per_cell - 1
    for cell in grid.free_cells():
        per = perceive_at(grid, cell)
        assert all(0 <= v <= top for v in per.row_pattern + per.col_pattern)


@st.composite
def sensing_grids(draw) -> GridMap:
    """Sides 1-14, q 1-5, range 1-6, rows + cols (the whole map) or 10**6."""
    grid = draw(grids(max_side=14))
    reach = st.one_of(st.integers(1, 6), st.sampled_from([grid.rows + grid.cols, 10**6]))
    return dataclasses.replace(grid, sensor_range=draw(reach))


# No shrink phase: shrinking a failing map of up to 196 cells stalls for
# minutes, while the unshrunk example already names the map and the cell.
@settings(max_examples=200, deadline=None, phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(grid=sensing_grids())
def test_perceive_full_range_equals_costmap_slice(grid):
    # At every range, full or not, a cell perceives the costmap's codes along
    # its row and column, over the cells within range of it.
    # The batch gather, with its off-grid -1 stripped, holds the same patterns.
    code = compute_costmap(grid).code.tolist()
    near = grid.sensor_range
    free = grid.free_cells()
    for (r, c), gathered in zip(free, perception_codes(grid, free).tolist()):
        per = perceive_at(grid, (r, c))
        assert per.row_pattern == tuple(code[r][j] for j in range(grid.cols) if abs(j - c) <= near)
        assert per.col_pattern == tuple(code[i][c] for i in range(grid.rows) if abs(i - r) <= near)
        assert [per.row_pattern, per.col_pattern] == [tuple(v for v in line if v != -1) for line in gathered]
        assert per.anchor_offset_row == sum(1 for j in range(c) if c - j <= near)
        assert per.anchor_offset_col == sum(1 for i in range(r) if r - i <= near)
    for cell in [*grid.obstacles, (-1, 0), (0, grid.cols), (grid.rows, 0)]:
        with pytest.raises(ValueError):
            perceive_at(grid, cell)


def test_perception_validation():
    with pytest.raises(ValueError):
        Perception(row_pattern=(), col_pattern=(1,), anchor_offset_row=0, anchor_offset_col=0)
    with pytest.raises(ValueError):
        Perception(row_pattern=(1,), col_pattern=(1,), anchor_offset_row=1, anchor_offset_col=0)


# ---------------------------------------------------------------- csv


def test_costmap_csv_format():
    grid = GridMap(rows=2, cols=2, obstacles=frozenset({(1, 1)}))
    text = costmap_csv(compute_costmap(grid))
    lines = text.strip().split("\n")
    assert lines[0] == "row,col,raw,code"
    assert len(lines) == 5
    assert lines[1].startswith("0,0,")
    # raw fields parse back as floats, codes as ints
    for line in lines[1:]:
        r, c, raw, code = line.split(",")
        float(raw)
        int(code)
