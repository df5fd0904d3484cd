"""Classical baselines: naive pattern search and particle-filter localization.

These exist to put the amplified search in context. The substring scanner
counts its character probes so query costs can be compared directly, and
the particle filter localizes the same maps with the same perception
model, tracking how much sensing work it spends.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .gridmap import Cell, GridMap, perceive_at

# Weight given to particles whose perception disagrees with the robot's.
MISMATCH_WEIGHT = 1e-6

# Fraction of particles that must agree on one cell to declare convergence.
CONVERGENCE_SHARE = 0.9

CARDINAL_STEPS = ((-1, 0), (1, 0), (0, -1), (0, 1))


@dataclass
class QueryCounter:
    """Running tally of search effort."""

    comparisons: int = 0
    oracle_calls: int = 0


def substring_search(haystack: str, needle: str) -> tuple[list[int], QueryCounter]:
    """Naive left-to-right scan. Returns match positions and the tally.

    Every window probe counts one oracle call; every character test counts
    one comparison. Worst case does len(needle) work per window.
    """
    if not needle:
        raise ValueError("needle must be non-empty")
    counter = QueryCounter()
    positions: list[int] = []
    for start in range(len(haystack) - len(needle) + 1):
        counter.oracle_calls += 1
        for offset in range(len(needle)):
            counter.comparisons += 1
            if haystack[start + offset] != needle[offset]:
                break
        else:
            positions.append(start)
    return positions, counter


def query_comparison(n: int) -> dict[str, float]:
    """Expected classical probes versus amplified oracle calls for n sites."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return {
        "classical_expected": n / 2.0,
        "grover_calls": math.ceil(math.pi / 4.0 * math.sqrt(n)),
        "sqrt_n": math.sqrt(n),
    }


@dataclass(frozen=True)
class MclResult:
    """Outcome of one particle-filter run.

    ``history`` holds one ``(rows, cols, weights)`` record per iteration:
    three arrays giving every particle's cell and normalized weight after
    the move and before resampling.
    """

    estimate: Cell
    iterations_used: int
    converged: bool
    robot: Cell
    sense_ops: int
    history: tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...] = field(repr=False)


def _systematic_resample(weights: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Low-variance resampling: one uniform draw, evenly spaced pointers."""
    n = len(weights)
    positions = (np.arange(n) + rng.random()) / n
    cumulative = np.cumsum(weights)
    cumulative[-1] = 1.0  # guard against float shortfall
    return np.searchsorted(cumulative, positions)


def mcl_localize(
    grid: GridMap,
    true_robot: Cell | None = None,
    particle_count: int = 200,
    max_iters: int = 50,
    seed: int = 0,
) -> MclResult:
    """Monte Carlo localization against the map's perception signatures.

    Starts from a uniform cloud over free cells. Each iteration draws one
    cardinal step, applies it to the hidden robot and to every particle
    alike (blocked moves stay put), weights particles by exact perception
    agreement, then resamples systematically. Stops once 90% of the cloud
    sits on one cell or the iteration limit runs out. The estimate is the
    modal particle cell, ties going to the first cell in row-major order.
    """
    if true_robot is None:
        true_robot = grid.robot
    if true_robot is None:
        raise ValueError("no robot cell to localize")
    if not grid.is_free(true_robot):
        raise ValueError(f"robot cell {true_robot} is not free")
    if particle_count < 1:
        raise ValueError("particle_count must be >= 1")
    if max_iters < 1:
        raise ValueError("max_iters must be >= 1")

    # Particles and the robot are indices into the row-major free-cell list.
    free = grid.free_cells()
    n_free = len(free)
    coords = np.array(free)
    # index[r + 1, c + 1] is the free index of (r, c); obstacles and the border hold -1.
    index = np.full((grid.rows + 2, grid.cols + 2), -1)
    index[coords[:, 0] + 1, coords[:, 1] + 1] = np.arange(n_free)
    # moves[k, i] is where step k takes free cell i; a blocked step stays put.
    dr, dc = np.array(CARDINAL_STEPS).T[:, :, None]
    nxt = index[coords[:, 0] + 1 + dr, coords[:, 1] + 1 + dc]
    moves = np.where(nxt >= 0, nxt, np.arange(n_free))
    # Perception is static per cell: compute it once and number each distinct one.
    ids: dict = {}
    signature = np.array([ids.setdefault(perceive_at(grid, cell), len(ids)) for cell in free])

    rng = np.random.default_rng(seed)
    cells = rng.integers(n_free, size=particle_count)
    robot = index[true_robot[0] + 1, true_robot[1] + 1]
    history = []
    converged = False
    for iterations in range(1, max_iters + 1):
        step = moves[int(rng.integers(4))]
        robot = step[robot]
        cells = step[cells]
        weights = np.where(signature[cells] == signature[robot], 1.0, MISMATCH_WEIGHT)
        weights /= weights.sum()
        history.append((coords[cells, 0], coords[cells, 1], weights))
        cells = cells[_systematic_resample(weights, rng)]
        tally = np.bincount(cells)
        if tally.max() >= CONVERGENCE_SHARE * particle_count:
            converged = True
            break

    return MclResult(
        estimate=free[int(tally.argmax())],
        iterations_used=iterations,
        converged=converged,
        robot=free[int(robot)],
        sense_ops=iterations * particle_count,
        history=tuple(history),
    )


def mcl_trace_csv(history) -> str:
    """Per-iteration particle dump: ``iter,row,col,weight``."""
    lines = ["iter,row,col,weight"]
    for i, (rows, cols, weights) in enumerate(history, start=1):
        for r, c, w in zip(rows.tolist(), cols.tolist(), weights.tolist()):
            lines.append(f"{i},{r},{c},{w:.9f}")
    return "\n".join(lines) + "\n"
