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

# Codes are scaled in float64, which holds every integer up to 2**53 exactly.
MAX_QUBITS_PER_CELL = 53

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
    qubits_per_cell  bits used for one normalized cell code, 1 to MAX_QUBITS_PER_CELL
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
        if not 1 <= self.qubits_per_cell <= MAX_QUBITS_PER_CELL:
            raise MapFormatError(f"qubits_per_cell must be between 1 and {MAX_QUBITS_PER_CELL}")
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
    """Summed obstacle influence of an obstacle mask.

    Each obstacle adds initial·2^(1−d) to every cell at Manhattan distance
    d >= 1 and nothing to its own cell. That law is separable,
    2^(1−d) = 2·2^(−|dr|)·2^(−|dc|), so the sum over a mask W is
    2·initial·(E_h @ W @ E_w − W) with E[i, j] = 2^(−|i−j|); the − W takes
    out each obstacle's own-cell term.
    """
    weight = mask.astype(float)
    e_h, e_w = (np.exp2(-np.abs(np.subtract.outer(x, x))) for x in map(np.arange, weight.shape))
    return 2.0 * initial * (e_h @ weight @ e_w - weight)


def _normalize(raw: np.ndarray, free_mask: np.ndarray, qubits_per_cell: int) -> np.ndarray:
    """Map a raw field to integer codes in [0, 2**q - 1].

    Min and max are taken over the free cells only; the other cells take
    the top code. Rounding is half-up. A flat field codes to zeros.
    """
    top = (1 << qubits_per_cell) - 1
    lo = np.where(free_mask, raw, np.inf).min()
    hi = np.where(free_mask, raw, -np.inf).max()
    if not hi > lo:
        return np.where(free_mask, 0, top).astype(np.int64)
    scaled = np.clip(np.floor((raw - lo) / ((hi - lo) / top) + 0.5), 0, top)
    return np.where(free_mask, scaled, top).astype(np.int64)


def compute_costmap(grid: GridMap) -> Costmap:
    """Build the full costmap of a map.

    The influence seed value is the larger grid side, so bigger grids
    radiate proportionally stronger fields before normalization.
    """
    obstacle = grid.obstacle_mask()
    raw = _field(obstacle, float(max(grid.rows, grid.cols)))
    return Costmap(raw=raw, code=_normalize(raw, ~obstacle, grid.qubits_per_cell))


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
    """Perception as it would be sensed from a given free cell: its slice of the costmap."""
    if not grid.in_bounds(cell):
        raise ValueError(f"cell {cell} outside grid")
    if cell in grid.obstacles:
        raise ValueError(f"cannot perceive from obstacle cell {cell}")
    return sensed_slice(compute_costmap(grid).code, cell, grid.sensor_range)


def sensed_slice(code: np.ndarray, cell: Cell, sensor_range: int) -> Perception:
    """The codes along a cell's row and column, clipped to the window of the sensor range."""
    r, c = cell
    top, left = max(r - sensor_range, 0), max(c - sensor_range, 0)
    return Perception(
        row_pattern=tuple(code[r, left : c + sensor_range + 1].tolist()),
        col_pattern=tuple(code[top : r + sensor_range + 1, c].tolist()),
        anchor_offset_row=c - left,
        anchor_offset_col=r - top,
    )


def perception_codes(grid: GridMap, cells) -> np.ndarray:
    """Perception of many free cells in one gather, as an int64 (n, 2, 2*reach + 1) array.

    For cell k at (r, c), ``[k, 0]`` holds the costmap codes of row r over
    columns c - reach .. c + reach and ``[k, 1]`` those of column c over
    rows r - reach .. r + reach; -1 marks positions off the grid. reach is
    the sensor range capped at the larger map side: a wider window adds
    only off-grid positions, the same number to every cell.
    """
    reach = min(grid.sensor_range, max(grid.rows, grid.cols))
    span = np.arange(-reach, reach + 1)
    # One border of -1 stands for every position off the grid.
    code = np.pad(compute_costmap(grid).code, 1, constant_values=-1)
    r, c = (np.asarray(cells, dtype=np.intp).reshape(-1, 2) + 1).T[:, :, None]
    return np.stack(
        [code[r, (c + span).clip(0, grid.cols + 1)], code[(r + span).clip(0, grid.rows + 1), c]], axis=1
    )


def costmap_csv(costmap: Costmap) -> str:
    """Row-major CSV dump: ``row,col,raw,code`` with raw at 6 decimals."""
    lines = ["row,col,raw,code"]
    for r in range(costmap.rows):
        for c in range(costmap.cols):
            lines.append(f"{r},{c},{costmap.raw[r, c]:.6f},{int(costmap.code[r, c])}")
    return "\n".join(lines) + "\n"
