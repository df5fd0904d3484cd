"""Grid maps, costmaps and local perception.

A map is a small rectangular grid of free cells and obstacles, optionally
holding a robot. Obstacles radiate an influence value that decays with
Manhattan distance; the summed influence field is normalized to small
integer codes so that each cell fits in a fixed number of bits. The robot
perceives the slice of that field along its own row and column, limited by
its sensor range.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

Cell = tuple[int, int]

# Characters accepted in map files.
FREE_CHAR = "."
OBSTACLE_CHAR = "#"
ROBOT_CHAR = "R"

class MapFormatError(ValueError):
    """Raised for malformed map text or inconsistent map contents."""


class DuplicateRobotError(MapFormatError):
    """Raised when a map file places more than one robot."""


class NoRobotError(ValueError):
    """Raised when an operation needs a robot and the map has none."""


@dataclass(frozen=True)
class GridMap:
    """Static grid world.

    rows, cols     grid dimensions, both >= 1
    obstacles      blocked cells as (row, col) pairs
    robot          robot cell or None
    qubits_per_cell  bits used for one normalized cell code, >= 1
    sensor_range   Manhattan radius of the robot's sensor, >= 1
    """

    rows: int
    cols: int
    obstacles: frozenset[Cell] = field(default_factory=frozenset)
    robot: Cell | None = None
    qubits_per_cell: int = 1
    sensor_range: int = 1

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise MapFormatError(f"grid must be at least 1x1, got {self.rows}x{self.cols}")
        if self.qubits_per_cell < 1:
            raise MapFormatError("qubits_per_cell must be >= 1")
        if self.sensor_range < 1:
            raise MapFormatError("sensor_range must be >= 1")
        object.__setattr__(self, "obstacles", frozenset(self.obstacles))
        for cell in self.obstacles:
            if not self.in_bounds(cell):
                raise MapFormatError(f"obstacle {cell} outside {self.rows}x{self.cols} grid")
        if self.robot is not None:
            if not self.in_bounds(self.robot):
                raise MapFormatError(f"robot {self.robot} outside grid")
            if self.robot in self.obstacles:
                raise MapFormatError(f"robot {self.robot} placed on an obstacle")

    def in_bounds(self, cell: Cell) -> bool:
        r, c = cell
        return 0 <= r < self.rows and 0 <= c < self.cols

    def is_free(self, cell: Cell) -> bool:
        return self.in_bounds(cell) and cell not in self.obstacles

    def obstacle_mask(self) -> np.ndarray:
        """Boolean (rows, cols) array, True on obstacle cells."""
        mask = np.zeros((self.rows, self.cols), dtype=bool)
        for cell in self.obstacles:
            mask[cell] = True
        return mask

    def free_cells(self) -> list[Cell]:
        return [
            (r, c)
            for r in range(self.rows)
            for c in range(self.cols)
            if (r, c) not in self.obstacles
        ]


@dataclass(frozen=True)
class Costmap:
    """Influence field of a map: raw float values and normalized codes."""

    raw: np.ndarray
    code: np.ndarray

    def __post_init__(self):
        if self.raw.shape != self.code.shape or self.raw.ndim != 2:
            raise ValueError("raw and code must be 2-d arrays of equal shape")
        # Freeze the backing arrays; costmaps are shared between threads.
        self.raw.flags.writeable = False
        self.code.flags.writeable = False

    @property
    def rows(self) -> int:
        return self.raw.shape[0]

    @property
    def cols(self) -> int:
        return self.raw.shape[1]


@dataclass(frozen=True)
class Perception:
    """What the robot senses along its own row and column.

    The patterns hold normalized cell codes. anchor_offset_row is the index
    of the robot's cell inside row_pattern, anchor_offset_col the index of
    the robot's cell inside col_pattern. Offsets differ from the pattern
    center only where the sensor window was clipped at a map edge.
    """

    row_pattern: tuple[int, ...]
    col_pattern: tuple[int, ...]
    anchor_offset_row: int
    anchor_offset_col: int

    def __post_init__(self):
        if not self.row_pattern or not self.col_pattern:
            raise ValueError("perception patterns must be non-empty")
        if not 0 <= self.anchor_offset_row < len(self.row_pattern):
            raise ValueError("anchor_offset_row outside row_pattern")
        if not 0 <= self.anchor_offset_col < len(self.col_pattern):
            raise ValueError("anchor_offset_col outside col_pattern")


# Benchmark reading of a robot-less map: search the indicator costmap for
# the single code 1, which marks the obstacle cells themselves.
SINGLE_CELL = Perception(
    row_pattern=(1,), col_pattern=(1,), anchor_offset_row=0, anchor_offset_col=0
)


def parse_map(text: str) -> GridMap:
    """Parse the map file format.

    Line 1: ``rows=<int> cols=<int> q=<int> range=<int>``
    Then exactly ``rows`` lines of exactly ``cols`` characters, each one of
    '.' (free), '#' (obstacle) or 'R' (robot, at most one). Lines end with
    LF and carry no trailing whitespace.
    """
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

    obstacles: set[Cell] = set()
    robot: Cell | None = None
    for r, line in enumerate(body):
        if len(line) != cols or line != line.rstrip():
            raise MapFormatError(f"line {r + 2}: expected exactly {cols} cell characters")
        for c, ch in enumerate(line):
            if ch == OBSTACLE_CHAR:
                obstacles.add((r, c))
            elif ch == ROBOT_CHAR:
                if robot is not None:
                    raise DuplicateRobotError(f"second robot at {(r, c)}, first at {robot}")
                robot = (r, c)
            elif ch != FREE_CHAR:
                raise MapFormatError(f"line {r + 2}: unknown cell character {ch!r}")

    return GridMap(
        rows=rows,
        cols=cols,
        obstacles=frozenset(obstacles),
        robot=robot,
        qubits_per_cell=values["q"],
        sensor_range=values["range"],
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


def _field(mask: np.ndarray, initial: float) -> np.ndarray:
    """Summed obstacle influence of n obstacle masks, shape (n, h, w).

    Each obstacle adds initial·2^(1−d) to every cell at Manhattan distance
    d >= 1 and nothing to its own cell. That law is separable,
    2^(1−d) = 2·2^(−|dr|)·2^(−|dc|), so the sum over a mask W is
    2·initial·(E_h @ W @ E_w − W) with E[i, j] = 2^(−|i−j|); the − W takes
    out each obstacle's own-cell term.
    """
    weight = mask.astype(float)
    h, w = weight.shape[1:]
    e_h, e_w = (np.exp2(-np.abs(np.subtract.outer(x, x))) for x in (np.arange(h), np.arange(w)))
    return 2.0 * initial * (e_h @ (weight.reshape(-1, w) @ e_w).reshape(weight.shape) - weight)


def _normalize(raw: np.ndarray, free_mask: np.ndarray, qubits_per_cell: int) -> np.ndarray:
    """Map each of n raw fields, shape (n, rows, cols), to integer codes in [0, 2**q - 1].

    Min and max are taken over a field's free cells only; its other cells
    take the top code. Rounding is half-up. A flat field codes to zeros.
    """
    top = (1 << qubits_per_cell) - 1
    lo = np.where(free_mask, raw, np.inf).min(axis=(1, 2), keepdims=True)
    hi = np.where(free_mask, raw, -np.inf).max(axis=(1, 2), keepdims=True)
    sloped = hi > lo
    factor = np.where(sloped, (hi - lo) / top, 1.0)
    scaled = np.clip(np.floor((raw - lo) / factor + 0.5), 0, top)
    return np.where(free_mask, np.where(sloped, scaled, 0), top).astype(np.int64)


def compute_costmap(grid: GridMap) -> Costmap:
    """Build the full costmap of a map.

    The influence seed value is the larger grid side, so bigger grids
    radiate proportionally stronger fields before normalization.
    """
    obstacle = grid.obstacle_mask()[None]
    raw = _field(obstacle, float(max(grid.rows, grid.cols)))
    code = _normalize(raw, ~obstacle, grid.qubits_per_cell)
    return Costmap(raw=raw[0], code=code[0])


def indicator_costmap(grid: GridMap) -> Costmap:
    """Benchmark costmap: code 1 on obstacle cells, 0 elsewhere, raw equal to code."""
    code = grid.obstacle_mask().astype(np.int64)
    return Costmap(raw=code.astype(float), code=code)


def perceive(grid: GridMap) -> Perception:
    """Local perception of the map's robot. Raises NoRobotError without one."""
    if grid.robot is None:
        raise NoRobotError("map has no robot to perceive from")
    return perceive_at(grid, grid.robot)


def perceive_at(grid: GridMap, cell: Cell) -> Perception:
    """Perception as it would be sensed from a given free cell: one row of perception_codes."""
    if not grid.in_bounds(cell):
        raise ValueError(f"cell {cell} outside grid")
    if cell in grid.obstacles:
        raise ValueError(f"cannot perceive from obstacle cell {cell}")
    row, col = perception_codes(grid, [cell])[0]
    return Perception(
        row_pattern=tuple(row[row >= 0].tolist()),
        col_pattern=tuple(col[col >= 0].tolist()),
        anchor_offset_row=min(cell[1], grid.sensor_range),
        anchor_offset_col=min(cell[0], grid.sensor_range),
    )


def perception_codes(grid: GridMap, cells) -> np.ndarray:
    """Perception of many free cells in one pass, as an int64 (n, 2, 2*range + 1) array.

    For cell k at (r, c), ``[k, 0]`` holds the codes of row r over columns
    c - range .. c + range and ``[k, 1]`` those of column c over rows
    r - range .. r + range; -1 marks positions off the grid. A cell senses
    only the obstacles within range and normalizes over its sensing ball
    alone, so edits beyond the range never leak in. Its field is the
    costmap's influence field (``_field``) of the obstacles in the ball, on a
    window of at most 2*range + 1 rows and columns that holds the ball. The
    terms are dyadic, so the sums are exact in any order while
    max(rows, cols)·n·2^(D+1) < 2^53, with n the obstacles in a ball and
    D = min(2·range, rows + cols − 2).
    """
    cells = np.asarray(cells, dtype=np.intp).reshape(-1, 2)
    rng = grid.sensor_range
    span = 2 * rng + 1
    h, w = min(span, grid.rows), min(span, grid.cols)
    # Window corners, clipped onto the grid; a window still holds the on-grid part of its ball.
    corner = np.clip(cells - rng, 0, [grid.rows - h, grid.cols - w])
    local = cells - corner
    ii, jj = np.arange(h), np.arange(w)
    obstacle = grid.obstacle_mask()
    initial = float(max(grid.rows, grid.cols))
    out = np.empty((len(cells), 2, span), dtype=np.int64)
    batch = max(1, (1 << 15) // (h * w))  # cells per batch: about 2^15 window entries
    for start in range(0, len(cells), batch):
        k = slice(start, start + batch)
        lr, lc = local[k, 0], local[k, 1]
        ball = np.abs(ii[:, None] - lr[:, None, None]) + np.abs(jj - lc[:, None, None]) <= rng
        blocked = obstacle[corner[k, :1, None] + ii[:, None], corner[k, 1:, None] + jj]
        raw = _field(ball & blocked, initial)
        code = _normalize(raw, ball & ~blocked, grid.qubits_per_cell)
        n = np.arange(len(code))
        # Read the span centred on the cell; positions past the window are off the grid.
        for axis, line, pos in ((0, code[n, lr], lc), (1, code[n, :, lc], lr)):
            j = pos[:, None] + np.arange(-rng, rng + 1)
            inside = (j >= 0) & (j < line.shape[1])
            out[k, axis] = np.where(inside, line[n[:, None], j.clip(0, line.shape[1] - 1)], -1)
    return out


def costmap_csv(costmap: Costmap) -> str:
    """Row-major CSV dump: ``row,col,raw,code`` with raw at 6 decimals."""
    lines = ["row,col,raw,code"]
    for r in range(costmap.rows):
        for c in range(costmap.cols):
            lines.append(f"{r},{c},{costmap.raw[r, c]:.6f},{int(costmap.code[r, c])}")
    return "\n".join(lines) + "\n"
