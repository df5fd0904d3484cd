from __future__ import annotations

import dataclasses
import math
import random

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from gridloc import (
    Costmap,
    DuplicateRobotError,
    GridMap,
    MapFormatError,
    NoRobotError,
    Perception,
    compute_costmap,
    costmap_csv,
    encode_strings,
    indicator_costmap,
    parse_map,
    perceive,
    perceive_at,
    to_text,
)
from gridloc.gridmap import _influence


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


def reference_perceive_at(grid: GridMap, cell) -> Perception:
    """The per-cell perception rule: a whole-grid field of the in-range
    obstacles, normalized over the sensing ball. The vectorized table is
    checked against it."""
    if not grid.in_bounds(cell):
        raise ValueError(f"cell {cell} outside grid")
    if cell in grid.obstacles:
        raise ValueError(f"cannot perceive from obstacle cell {cell}")

    rng = grid.sensor_range
    rr, rc = cell
    rrows = np.arange(grid.rows)[:, None]
    ccols = np.arange(grid.cols)[None, :]
    ball = (np.abs(rrows - rr) + np.abs(ccols - rc)) <= rng

    near = [o for o in grid.obstacles if abs(o[0] - rr) + abs(o[1] - rc) <= rng]
    initial = float(max(grid.rows, grid.cols))
    raw = _influence(grid.rows, grid.cols, near, initial)

    free_mask = ball.copy()
    for o in near:
        free_mask[o] = False
    top = (1 << grid.qubits_per_cell) - 1
    code = np.zeros(raw.shape, dtype=np.int64)
    lo = raw[free_mask].min()
    hi = raw[free_mask].max()
    if hi > lo:
        factor = (hi - lo) / top
        scaled = np.floor((raw - lo) / factor + 0.5).astype(np.int64)
        code = np.clip(scaled, 0, top)
    code[~free_mask] = top

    c_lo, c_hi = max(0, rc - rng), min(grid.cols - 1, rc + rng)
    r_lo, r_hi = max(0, rr - rng), min(grid.rows - 1, rr + rng)
    return Perception(
        row_pattern=tuple(int(code[rr, c]) for c in range(c_lo, c_hi + 1)),
        col_pattern=tuple(int(code[r, rc]) for r in range(r_lo, r_hi + 1)),
        anchor_offset_row=rc - c_lo,
        anchor_offset_col=rr - r_lo,
    )


def random_grid(rng: random.Random, max_side: int = 5, with_robot: bool = False) -> GridMap:
    rows = rng.randint(1, max_side)
    cols = rng.randint(1, max_side)
    cells = [(r, c) for r in range(rows) for c in range(cols)]
    n_obs = rng.randint(0, max(0, len(cells) - (1 if with_robot else 0)))
    picks = rng.sample(cells, n_obs)
    obstacles = frozenset(picks)
    robot = None
    if with_robot:
        free = [c for c in cells if c not in obstacles]
        if not free:
            obstacles = frozenset(picks[:-1])
            free = [c for c in cells if c not in obstacles]
        robot = rng.choice(free)
    return GridMap(
        rows=rows,
        cols=cols,
        obstacles=obstacles,
        robot=robot,
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


def test_grid_validation():
    with pytest.raises(ValueError):
        GridMap(rows=0, cols=2)
    with pytest.raises(ValueError):
        GridMap(rows=2, cols=2, obstacles=frozenset({(5, 0)}))
    with pytest.raises(ValueError):
        GridMap(rows=2, cols=2, robot=(0, 0), obstacles=frozenset({(0, 0)}))
    with pytest.raises(ValueError):
        GridMap(rows=2, cols=2, qubits_per_cell=0)


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
    # range 2 covers the whole 3x3 ball, so local equals global here
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


def test_perceive_locality():
    # Obstacle edits beyond sensor range never change the perception.
    rng = random.Random(13)
    checked = 0
    for _ in range(200):
        grid = random_grid(rng, max_side=5, with_robot=True)
        rr, rc = grid.robot
        far = [
            (r, c)
            for r in range(grid.rows)
            for c in range(grid.cols)
            if abs(r - rr) + abs(c - rc) > grid.sensor_range
            and (r, c) not in grid.obstacles
        ]
        if not far:
            continue
        edited = GridMap(
            rows=grid.rows,
            cols=grid.cols,
            obstacles=grid.obstacles | {rng.choice(far)},
            robot=grid.robot,
            qubits_per_cell=grid.qubits_per_cell,
            sensor_range=grid.sensor_range,
        )
        assert perceive(grid) == perceive(edited)
        checked += 1
    assert checked > 50


def test_perceive_full_range_equals_costmap_slice():
    rng = random.Random(17)
    for _ in range(80):
        grid = random_grid(rng, max_side=5, with_robot=True)
        wide = GridMap(
            rows=grid.rows,
            cols=grid.cols,
            obstacles=grid.obstacles,
            robot=grid.robot,
            qubits_per_cell=grid.qubits_per_cell,
            sensor_range=grid.rows + grid.cols,
        )
        per = perceive(wide)
        cm = compute_costmap(wide)
        rr, rc = wide.robot
        assert list(per.row_pattern) == cm.code[rr].tolist()
        assert list(per.col_pattern) == cm.code[:, rc].tolist()
        assert per.anchor_offset_row == rc
        assert per.anchor_offset_col == rr


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
    """Sides 1-14, q 1-5, range 1-6 or rows + cols (the whole map)."""
    grid = draw(grids(max_side=14))
    full = grid.rows + grid.cols
    return dataclasses.replace(grid, sensor_range=draw(st.one_of(st.integers(1, 6), st.just(full))))


# No shrink phase: shrinking a failing map of up to 196 cells stalls for
# minutes, while the unshrunk example already names the map and the cell.
@settings(max_examples=200, deadline=None, phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(grid=sensing_grids())
def test_perceive_at_matches_reference_on_every_free_cell(grid):
    for cell in grid.free_cells():
        assert perceive_at(grid, cell) == reference_perceive_at(grid, cell), cell
    for cell in [*grid.obstacles, (-1, 0), (0, grid.cols), (grid.rows, 0)]:
        with pytest.raises(ValueError):
            perceive_at(grid, cell)


def test_perception_validation():
    with pytest.raises(ValueError):
        Perception(row_pattern=(), col_pattern=(1,), anchor_offset_row=0, anchor_offset_col=0)
    with pytest.raises(ValueError):
        Perception(row_pattern=(1,), col_pattern=(1,), anchor_offset_row=1, anchor_offset_col=0)


# ---------------------------------------------------------------- encodings


def test_encode_strings_single_cell():
    code = np.zeros((1, 1), dtype=np.int64)
    cm = Costmap(raw=code.astype(float), code=code)
    assert encode_strings(cm, 0, 0) == ("0", "0")


def test_encode_strings_lengths_and_content():
    code = np.array([[0, 1, 2], [3, 2, 1]], dtype=np.int64)
    cm = Costmap(raw=code.astype(float), code=code)
    row_str, col_str = encode_strings(cm, 1, 2)
    assert row_str == "321"
    assert col_str == "21"
    with pytest.raises(IndexError):
        encode_strings(cm, 2, 0)


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
