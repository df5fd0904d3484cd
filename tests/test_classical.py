from __future__ import annotations

import math
import random

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from gridloc import (
    GridMap,
    mcl_localize,
    mcl_trace_csv,
    perceive_at,
    query_comparison,
    substring_search,
)
from gridloc.classical import (
    CARDINAL_STEPS,
    CONVERGENCE_SHARE,
    MISMATCH_WEIGHT,
    _systematic_resample,
)


def windowed_matches(haystack: str, needle: str) -> list[int]:
    return [
        i
        for i in range(len(haystack) - len(needle) + 1)
        if haystack[i : i + len(needle)] == needle
    ]


# ---------------------------------------------------------------- substrings


def test_substring_row_string_case():
    positions, counter = substring_search("3333323332232123", "323")
    assert positions == [4]
    assert counter.oracle_calls == 14
    assert counter.comparisons == 26


def test_substring_column_string_case():
    positions, _ = substring_search("3332322133223333", "322")
    assert positions == [4, 9]


def test_substring_worst_case_pattern():
    positions, counter = substring_search("aaaaaaaaab", "aaaab")
    assert positions == [5]
    # every window runs the full needle before failing or matching
    assert counter.oracle_calls == 6
    assert counter.comparisons == 6 * 5


def test_substring_empty_needle():
    with pytest.raises(ValueError):
        substring_search("abc", "")


def test_substring_needle_longer_than_haystack():
    positions, counter = substring_search("ab", "abc")
    assert positions == []
    assert counter.comparisons == 0


def test_substring_fuzz_against_windowed_matcher():
    rng = random.Random(101)
    for _ in range(10000):
        n = rng.randint(0, 12)
        m = rng.randint(1, 4)
        haystack = "".join(rng.choice("01") for _ in range(n))
        needle = "".join(rng.choice("01") for _ in range(m))
        positions, counter = substring_search(haystack, needle)
        assert positions == windowed_matches(haystack, needle)
        assert counter.comparisons >= len(positions) * m


def test_query_comparison_values():
    q = query_comparison(100)
    assert q["classical_expected"] == 50.0
    assert q["grover_calls"] == 8
    assert q["sqrt_n"] == pytest.approx(10.0)
    q1 = query_comparison(1)
    assert q1["classical_expected"] == 0.5
    assert q1["grover_calls"] == 1
    assert query_comparison(1_000_000)["sqrt_n"] == pytest.approx(1000.0)
    with pytest.raises(ValueError):
        query_comparison(0)


# ---------------------------------------------------------------- resampling


def test_systematic_resample_is_proportional():
    weights = np.array([0.5, 0.25, 0.125, 0.125])
    n = len(weights)
    totals = np.zeros(n)
    draws = 400
    for seed in range(draws):
        rng = np.random.default_rng(seed)
        picks = _systematic_resample(weights, rng)
        for p in picks:
            totals[p] += 1
    expected = weights * n * draws
    chi2 = float(((totals - expected) ** 2 / expected).sum())
    # systematic resampling only jitters counts by one around the target
    assert chi2 < 16.27  # chi-square 0.999 quantile, 3 dof
    assert totals.sum() == n * draws


def test_systematic_resample_count_and_extremes():
    rng = np.random.default_rng(0)
    weights = np.array([0.0, 1.0, 0.0])
    picks = _systematic_resample(weights, rng)
    assert list(picks) == [1, 1, 1]


# ---------------------------------------------------------------- MCL


def test_mcl_single_cell_map():
    grid = GridMap(rows=1, cols=1, robot=(0, 0))
    result = mcl_localize(grid, particle_count=10, max_iters=5, seed=0)
    assert result.estimate == (0, 0)
    assert result.converged
    assert result.iterations_used == 1


def test_mcl_requires_robot():
    with pytest.raises(ValueError):
        mcl_localize(GridMap(rows=2, cols=2))


def test_mcl_unique_signature_map_converges():
    grid = GridMap(rows=4, cols=5, obstacles=frozenset({(3, 2), (3, 3)}),
                   qubits_per_cell=2, sensor_range=2)
    free = grid.free_cells()
    rng = random.Random(55)
    wins = 0
    for seed in range(20):
        robot = rng.choice(free)
        result = mcl_localize(grid, true_robot=robot, particle_count=150,
                              max_iters=40, seed=seed)
        if result.converged and result.estimate == result.robot:
            wins += 1
    assert wins >= 19


def test_mcl_weights_normalized_every_iteration():
    grid = GridMap(rows=3, cols=4, obstacles=frozenset({(1, 1)}), robot=(0, 0),
                   sensor_range=1)
    result = mcl_localize(grid, particle_count=60, max_iters=10, seed=3)
    assert result.history
    for rows, cols, weights in result.history:
        assert weights.sum() == pytest.approx(1.0, abs=1e-9)
        assert len(rows) == len(cols) == len(weights) == 60


def test_mcl_sense_work_is_linear_in_particles():
    grid = GridMap(rows=3, cols=4, obstacles=frozenset({(2, 2)}), robot=(0, 1))
    a = mcl_localize(grid, particle_count=50, max_iters=8, seed=9)
    b = mcl_localize(grid, particle_count=100, max_iters=8, seed=9)
    assert a.sense_ops == a.iterations_used * 50
    assert b.sense_ops == b.iterations_used * 100


def test_mcl_deterministic():
    grid = GridMap(rows=3, cols=3, obstacles=frozenset({(1, 1)}), robot=(0, 0))
    a = mcl_localize(grid, particle_count=40, max_iters=15, seed=21)
    b = mcl_localize(grid, particle_count=40, max_iters=15, seed=21)
    assert a.estimate == b.estimate
    assert a.robot == b.robot
    assert a.iterations_used == b.iterations_used


def test_mcl_progression_map():
    # Three obstacles clustered bottom-right; the cloud should settle on the
    # hidden robot as the walk disambiguates the corridor cells.
    grid = GridMap(rows=4, cols=5, obstacles=frozenset({(2, 3), (3, 2), (3, 3)}),
                   qubits_per_cell=2, sensor_range=2)
    result = mcl_localize(grid, true_robot=(1, 1), particle_count=250,
                          max_iters=50, seed=2)
    assert result.converged
    assert result.estimate == result.robot
    # modal share grows from diffuse start to the convergence threshold
    rows, cols, _ = result.history[0]
    counts: dict = {}
    for r, c in zip(rows, cols):
        counts[(r, c)] = counts.get((r, c), 0) + 1
    assert max(counts.values()) / len(rows) < 0.9


def test_mcl_trace_csv_format():
    grid = GridMap(rows=2, cols=2, robot=(0, 0))
    result = mcl_localize(grid, particle_count=5, max_iters=3, seed=1)
    text = mcl_trace_csv(result.history)
    lines = text.strip().split("\n")
    assert lines[0] == "iter,row,col,weight"
    assert len(lines) == 1 + 5 * len(result.history)
    first = lines[1].split(",")
    assert first[0] == "1"
    float(first[3])


# ------------------------------------------------ particle-loop reference


def reference_mcl(grid: GridMap, true_robot, particle_count: int, max_iters: int, seed: int):
    """The particle filter as a plain per-particle loop over cell tuples.

    Same RNG draw order as ``mcl_localize``: the initial cloud, then per
    iteration one step draw and the resampling draw. Returns the result
    fields and the trace CSV text.
    """
    if true_robot is None:
        true_robot = grid.robot

    def step(cell, delta):
        nxt = (cell[0] + delta[0], cell[1] + delta[1])
        return nxt if grid.is_free(nxt) else cell

    free = grid.free_cells()
    signature = {cell: perceive_at(grid, cell) for cell in free}
    rng = np.random.default_rng(seed)
    cells = [free[int(i)] for i in rng.integers(len(free), size=particle_count)]
    robot = true_robot
    lines = ["iter,row,col,weight"]
    sense_ops = 0
    converged = False
    for iterations in range(1, max_iters + 1):
        delta = CARDINAL_STEPS[int(rng.integers(4))]
        robot = step(robot, delta)
        cells = [step(cell, delta) for cell in cells]
        target = signature[robot]
        weights = np.empty(particle_count)
        for i, cell in enumerate(cells):
            sense_ops += 1
            weights[i] = 1.0 if signature[cell] == target else MISMATCH_WEIGHT
        weights /= weights.sum()
        for (r, c), w in zip(cells, weights):
            lines.append(f"{iterations},{r},{c},{float(w):.9f}")
        cells = [cells[int(i)] for i in _systematic_resample(weights, rng)]
        tally: dict = {}
        for cell in cells:
            tally[cell] = tally.get(cell, 0) + 1
        if max(tally.values()) >= CONVERGENCE_SHARE * particle_count:
            converged = True
            break
    estimate = min(tally, key=lambda cell: (-tally[cell], cell))
    return {
        "estimate": estimate,
        "iterations_used": iterations,
        "converged": converged,
        "robot": robot,
        "sense_ops": sense_ops,
        "trace": "\n".join(lines) + "\n",
    }


@st.composite
def mcl_cases(draw):
    rows, cols = draw(st.integers(1, 10)), draw(st.integers(1, 10))
    cells = [(r, c) for r in range(rows) for c in range(cols)]
    obstacles = draw(st.sets(st.sampled_from(cells), max_size=len(cells) - 1))
    free = [cell for cell in cells if cell not in obstacles]
    robot = draw(st.sampled_from(free))
    explicit = draw(st.booleans())
    grid = GridMap(
        rows=rows,
        cols=cols,
        obstacles=frozenset(obstacles),
        robot=None if explicit else robot,
        qubits_per_cell=draw(st.integers(1, 2)),
        sensor_range=draw(st.integers(1, 3)),
    )
    return grid, robot if explicit else None


# No shrink phase: shrinking a failing case stalls for minutes, while the
# unshrunk example already shows the map, the seed and the first difference.
@settings(max_examples=150, deadline=None, phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(
    case=mcl_cases(),
    particle_count=st.integers(1, 300),
    max_iters=st.integers(1, 30),
    seed=st.integers(0, 2**16),
)
def test_mcl_matches_particle_loop_reference(case, particle_count, max_iters, seed):
    grid, true_robot = case
    ref = reference_mcl(grid, true_robot, particle_count, max_iters, seed)
    result = mcl_localize(grid, true_robot=true_robot, particle_count=particle_count,
                          max_iters=max_iters, seed=seed)
    assert result.estimate == ref["estimate"]
    assert result.iterations_used == ref["iterations_used"]
    assert result.converged == ref["converged"]
    assert result.robot == ref["robot"]
    assert result.sense_ops == ref["sense_ops"]
    assert mcl_trace_csv(result.history) == ref["trace"]
