"""Seeded inputs and output checks for the four benchmark workloads.

Every op is one ``gridloc`` command line plus the map file it reads and the
values its output must carry. Inputs depend only on the workload name, the
seed and ``reference.json``; the program under test sees nothing but the
map files and flags.

The mix of op sizes is fixed per workload and only its realization is
seeded, so every seed runs the same mix of cheap and expensive ops:
``folded-large`` cycles through fixed predicted-cost tiers on shapes that
rarely repeat, the faithful workloads cycle through a fixed shape order, and
``mcl-baseline`` takes map side, particle count and obstacle density from
fixed low-discrepancy sequences.
"""

from __future__ import annotations

import json
import math
import random
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

WORKLOADS = ("folded-large", "faithful-dense", "faithful-noisy", "mcl-baseline")

FAITHFUL_SHAPES = ((2, 3), (3, 3), (3, 4), (4, 3))
# One cycle of faithful ops: 3x3 holds the middle half of the latency order,
# so the median never sits on a boundary between shapes.
FAITHFUL_CYCLE = ((3, 3), (3, 4), (2, 3), (3, 3), (4, 3), (3, 3), (2, 3), (3, 3))

# Device presets as recorded from src/gridloc/devices.cfg.
PRESETS = {"ibm-brisbane-2024": (3.28e-3, 0.01), "ibm-kyiv-2024": (3.81e-3, 0.01)}
LITERAL_NOISE = ("0.02,0.01", "0.04,0.02", "0.06,0.03", "0.08,0.05")

# Folded ops come in three predicted-cost tiers (seconds) in a fixed cycle:
# a quarter small, half middle, a quarter large. The median latency then sits
# inside the middle tier and the tail (about the 11th largest of ~85 ops)
# inside the large one, so neither lands on a boundary between tiers. Small
# ops are robot maps only: few indicator shapes are that cheap.
FOLDED_TIERS = (0.12, 0.25, 0.6)
FOLDED_CYCLE = (1, 2, 0, 1, 1, 2, 0, 1)
FOLDED_COST_TOLERANCE = 1.15
ROBOT_CANDIDATES = 16
# Predicted op seconds = a * R * block_ops + b * n_anchors + c * R * M, fitted
# by least squares to folded op latencies on a 2-core x86 box. Only the mix of
# op sizes depends on it, never a check.
COST_PER_BLOCK_OP = 4.1e-6
COST_PER_ANCHOR = 5.2e-5
COST_PER_PHASE_FLIP = 5.3e-5
# Slot 0 of every folded run is the peak op: the robot geometry with the
# largest metered block, on a map with enough matches to keep R small. Other
# robot ops stay below PEAK_BLOCK_SHARE of its block, so peak RSS is set by
# the same geometry whatever maps the seed draws.
PEAK_COST = 1.4
PEAK_BLOCK_SHARE = 0.7
PEAK_CANDIDATES = 40
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

MCL_SIDES = (8, 48)
MCL_PARTICLES = (200, 2000)
MCL_MAX_ITERS = 50
MCL_UNIQUE_EVERY = 8
UNIQUE_MAP = Path("maps") / "unique_4x5.map"

# Ops generated per run; a run that outlasts them cycles through them again.
OPS_PER_RUN = {"folded-large": 112, "faithful-dense": 96, "faithful-noisy": 96, "mcl-baseline": 240}

SHOTS = (512, 1024, 2048, 4096)


@dataclass
class Op:
    """One command line, the map it reads and what its output must show."""

    argv: list[str]
    map_text: str
    expect: dict


def load_reference(path: Path) -> dict:
    return json.loads(path.read_text())


def expected_budget(entry: dict, repetitions: int) -> dict:
    """Reference budget of a folded catalog geometry at R repetitions."""
    r1, step = entry["budget_r1"], entry["budget_step"]
    return {key: r1[key] + (repetitions - 1) * step[key] for key in ("depth", "elements")}


def repetitions(n_anchors: int, n_solutions: int) -> int:
    return math.ceil(math.pi / 4.0 * math.sqrt(n_anchors / n_solutions))


def map_text(rows: int, cols: int, q: int, sensor_range: int, obstacles, robot=None) -> str:
    grid = [["."] * cols for _ in range(rows)]
    for r, c in obstacles:
        grid[r][c] = "#"
    if robot is not None:
        grid[robot[0]][robot[1]] = "R"
    lines = [f"rows={rows} cols={cols} q={q} range={sensor_range}"]
    lines.extend("".join(row) for row in grid)
    return "\n".join(lines) + "\n"


def match_cells(code: np.ndarray, row_pattern, col_pattern, off_row: int, off_col: int) -> list:
    """Anchors whose covered codes equal both patterns (vectorized full scan)."""
    rows, cols = code.shape
    n_r = rows - len(col_pattern) + 1
    n_c = cols - len(row_pattern) + 1
    ok = np.ones((n_r, n_c), dtype=bool)
    for j, value in enumerate(row_pattern):
        ok &= code[off_col:off_col + n_r, j:j + n_c] == value
    for i, value in enumerate(col_pattern):
        ok &= code[i:i + n_r, off_row:off_row + n_c] == value
    return [(int(r) + off_col, int(c) + off_row) for r, c in zip(*np.nonzero(ok))]


def _log_scale(bounds: tuple[float, float], u: float) -> float:
    lo, hi = bounds
    return lo * (hi / lo) ** u


def _grover_flags(rng: random.Random, mode: str) -> list[str]:
    return [
        "grover", "--mode", mode,
        "--shots", str(rng.choice(SHOTS)),
        "--seed", str(rng.randrange(1 << 20)),
        "--per", rng.choice(("depth", "ops")),
    ]


def _folded_expect(entry: dict, cells: list, kind: str) -> dict:
    n_solutions = max(1, len(cells))
    plan = dict(entry["plan"])
    plan["n_solutions"] = n_solutions
    plan["repetitions"] = repetitions(plan["n_anchors"], n_solutions)
    return {
        "kind": kind,
        "plan": plan,
        "budget": expected_budget(entry, plan["repetitions"]),
        "matches": sorted(cells),
        "noise": None,
    }


def _folded_cost(entry: dict, n_matches: int) -> float:
    """Predicted seconds of a folded op on this geometry with this many matches."""
    n_anchors = entry["plan"]["n_anchors"]
    reps = repetitions(n_anchors, max(1, n_matches))
    return (COST_PER_BLOCK_OP * reps * entry["block_ops"] + COST_PER_ANCHOR * n_anchors
            + COST_PER_PHASE_FLIP * reps * n_matches)


def _miss(entry: dict, n_matches: int, target: float) -> float:
    return abs(math.log(_folded_cost(entry, n_matches) / target))


def _indicator_op(rng: random.Random, entries: list, target: float, used: set) -> Op:
    near = [e for e in entries if _miss(e, 1, target) <= math.log(FOLDED_COST_TOLERANCE)]
    fresh = [e for e in near if id(e) not in used]
    entry = rng.choice(fresh or near) if near else min(entries, key=lambda e: _miss(e, 1, target))
    used.add(id(entry))
    rows, cols = entry["rows"], entry["cols"]
    cell = (rng.randrange(rows), rng.randrange(cols))
    argv = _grover_flags(rng, "folded")
    text = map_text(rows, cols, entry["q"], 1, [cell])
    return Op(argv, text, _folded_expect(entry, [cell], "indicator"))


def _obstacles(rng: random.Random, rows: int, cols: int, density: float) -> set:
    return {(rng.randrange(rows), rng.randrange(cols)) for _ in range(int(density * rows * cols))}


def _free_cell(rng: random.Random, rows: int, cols: int, obstacles: set, margin: int = 0):
    """A random free cell at least ``margin`` cells from every edge."""
    while True:
        cell = (rng.randrange(margin, rows - margin), rng.randrange(margin, cols - margin))
        if cell not in obstacles:
            return cell


def _robot_candidate(rng: random.Random, entry: dict, gridmap, densities=(0.02, 0.12)):
    rows, cols, q, reach = entry["rows"], entry["cols"], entry["q"], entry["range"]
    density = rng.uniform(*densities)
    obstacles = _obstacles(rng, rows, cols, density)
    robot = _free_cell(rng, rows, cols, obstacles, margin=reach)
    grid = gridmap.GridMap(rows=rows, cols=cols, obstacles=frozenset(obstacles), robot=robot,
                           qubits_per_cell=q, sensor_range=reach)
    per = gridmap.perceive(grid)
    code = np.asarray(gridmap.compute_costmap(grid).code)
    cells = match_cells(code, per.row_pattern, per.col_pattern, per.anchor_offset_row, per.anchor_offset_col)
    return map_text(rows, cols, q, reach, obstacles, robot), cells


def _robot_op(rng: random.Random, entries: list, target: float, gridmap, used: set) -> Op:
    """Best of a few random robot maps whose predicted cost lands nearest the target.

    Shapes already drawn in this run are avoided while others fit, so plan
    shapes rarely repeat.
    """
    fits = [e for e in entries if _folded_cost(e, e["plan"]["n_anchors"]) <= target * FOLDED_COST_TOLERANCE
            and _folded_cost(e, 0) >= target / FOLDED_COST_TOLERANCE] or entries
    fits = [e for e in fits if id(e) not in used] or fits
    best = None
    for _ in range(ROBOT_CANDIDATES):
        entry = rng.choice(fits)
        text, cells = _robot_candidate(rng, entry, gridmap)
        miss = _miss(entry, len(cells), target)
        if best is None or miss < best[0]:
            best = (miss, entry, text, cells)
        if miss <= math.log(FOLDED_COST_TOLERANCE):
            break
    _, entry, text, cells = best
    used.add(id(entry))
    argv = _grover_flags(rng, "folded")
    return Op(argv, text, _folded_expect(entry, cells, "robot"))


def _peak_op(rng: random.Random, entry: dict, gridmap) -> Op:
    """A sparse map on the peak geometry whose predicted cost stays under PEAK_COST."""
    best = None
    for _ in range(PEAK_CANDIDATES):
        text, cells = _robot_candidate(rng, entry, gridmap, densities=(0.01, 0.05))
        if best is None or len(cells) > len(best[1]):
            best = (text, cells)
        if _folded_cost(entry, len(cells)) <= PEAK_COST:
            break
    text, cells = best
    argv = _grover_flags(rng, "folded")
    return Op(argv, text, _folded_expect(entry, cells, "robot"))


def _folded_ops(rng: random.Random, reference: dict, count: int, gridmap) -> tuple[list[Op], Op]:
    robots = [e for e in reference["folded"] if e["range"] > 0]
    indicators = [e for e in reference["folded"] if e["range"] == 0]
    peak = max(robots, key=lambda e: e["block_ops"])
    robots = [e for e in robots if e["block_ops"] <= PEAK_BLOCK_SHARE * peak["block_ops"]]
    ops: list[Op] = [_peak_op(rng, peak, gridmap)]
    used: set = set()
    seen = Counter()
    for i in range(count - 1):
        tier = FOLDED_CYCLE[i % len(FOLDED_CYCLE)]
        target = FOLDED_TIERS[tier]
        seen[tier] += 1
        if tier == 0 or seen[tier] % 2:
            ops.append(_robot_op(rng, robots, target, gridmap, used))
        else:
            ops.append(_indicator_op(rng, indicators, target, used))
    return ops, _indicator_op(rng, indicators, FOLDED_TIERS[0], set())


def _faithful_op(rng: random.Random, reference: dict, shape, noise: str | None) -> Op:
    entry = next(e for e in reference["faithful"] if (e["rows"], e["cols"]) == tuple(shape))
    rows, cols = shape
    cell = (rng.randrange(rows), rng.randrange(cols))
    argv = _grover_flags(rng, "faithful")
    rates = None
    if noise is not None:
        argv += ["--noise", noise]
        rates = PRESETS.get(noise) or tuple(float(p) for p in noise.split(","))
    expect = {
        "kind": "indicator",
        "plan": entry["plan"],
        "budget": entry["budget"],
        "matches": [cell],
        "noise": rates,
    }
    return Op(argv, map_text(rows, cols, 1, 1, [cell]), expect)


def _faithful_ops(rng: random.Random, reference: dict, count: int, noisy: bool) -> tuple[list[Op], Op]:
    choices = tuple(PRESETS) + LITERAL_NOISE
    pick = (lambda: rng.choice(choices)) if noisy else (lambda: None)
    ops = [_faithful_op(rng, reference, FAITHFUL_CYCLE[i % len(FAITHFUL_CYCLE)], pick()) for i in range(count)]
    # The warm-up is the costliest shape, so set-up time is mostly steady work.
    warm = _faithful_op(rng, reference, (3, 4), "ibm-kyiv-2024" if noisy else None)
    return ops, warm


def _mcl_op(rng: random.Random, text: str, particles: int, expect_unique: bool) -> Op:
    argv = ["mcl", "--particles", str(particles), "--max-iters", str(MCL_MAX_ITERS),
            "--seed", str(rng.randrange(1 << 20))]
    grid_lines = text.rstrip("\n").split("\n")[1:]
    free = {(r, c) for r, line in enumerate(grid_lines) for c, ch in enumerate(line) if ch != "#"}
    expect = {"kind": "mcl", "particles": particles, "free": free, "unique": expect_unique}
    return Op(argv, text, expect)


def _golden(i: int, offset: float) -> float:
    """Low-discrepancy point in [0, 1): every prefix of the sequence is even."""
    return (offset + i * GOLDEN) % 1.0


def _mcl_ops(rng: random.Random, count: int, unique_text: str) -> tuple[list[Op], Op]:
    """Side, particle count and obstacle density follow fixed low-discrepancy
    sequences, the same for every seed; the seed places obstacles and robot.
    """
    lo_side, hi_side = MCL_SIDES
    ops = []
    for i in range(count):
        particles = int(_log_scale(MCL_PARTICLES, _golden(i, 0.1)))
        if i % MCL_UNIQUE_EVERY == 0:
            ops.append(_mcl_op(rng, unique_text, particles, True))
            continue
        side = lo_side + int(_golden(i, 0.5) * (hi_side - lo_side + 1))
        ops.append(_generated_mcl_op(rng, side, 0.04 + 0.11 * _golden(i, 0.3), particles))
    # The warm-up is a large map, so set-up time is mostly steady work.
    return ops, _generated_mcl_op(rng, hi_side, 0.1, MCL_PARTICLES[1])


def _generated_mcl_op(rng: random.Random, side: int, density: float, particles: int) -> Op:
    reach, q = rng.randint(1, 3), rng.randint(1, 2)
    obstacles = _obstacles(rng, side, side, density)
    robot = _free_cell(rng, side, side, obstacles)
    return _mcl_op(rng, map_text(side, side, q, reach, obstacles, robot), particles, False)


def build(workload: str, seed: int, reference: dict, gridmap, root: Path,
          count: int | None = None) -> tuple[list[Op], Op]:
    """The op list and the warm-up op of one workload for one seed."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r} (known: {', '.join(WORKLOADS)})")
    rng = random.Random(f"{workload}:{seed}")
    count = OPS_PER_RUN[workload] if count is None else count
    if workload == "folded-large":
        return _folded_ops(rng, reference, count, gridmap)
    if workload == "mcl-baseline":
        return _mcl_ops(rng, count, (root / UNIQUE_MAP).read_text())
    return _faithful_ops(rng, reference, count, noisy=workload == "faithful-noisy")


# --- output checks -----------------------------------------------------------


def _flag(argv: list[str], name: str) -> str:
    return argv[argv.index(name) + 1]


def _error_estimate(budget: dict, rates, measured: int, per: str) -> dict:
    p_gate, p_meas = rates if rates is not None else (0.0, 0.0)
    exponent = budget["depth"] if per == "depth" else budget["elements"]
    return {
        "p_gate": p_gate,
        "p_meas": p_meas,
        "exponent": exponent,
        "measured_qubits": measured,
        "p_gate_failure": 1.0 - (1.0 - p_gate) ** exponent,
        "p_meas_failure": 1.0 - (1.0 - p_meas) ** measured,
        "per": per,
    }


def decode_is_checked(n_solutions: int, span: int, reps: int, shots: int) -> bool:
    """Whether every marked anchor clearly outweighs every unmarked one.

    Closed form after R rounds with M of 2^s marked: each marked state has
    sin^2((2R+1)theta)/M, each unmarked cos^2((2R+1)theta)/(2^s-M). The check
    needs a 5-sigma gap in expected counts, so sampling noise alone can never
    fail a correct run.
    """
    if n_solutions == 0:
        return False
    if n_solutions == span:
        return True
    theta = math.asin(math.sqrt(n_solutions / span))
    p_marked = math.sin((2 * reps + 1) * theta) ** 2 / n_solutions
    p_unmarked = math.cos((2 * reps + 1) * theta) ** 2 / (span - n_solutions)
    gap = shots * (p_marked - p_unmarked)
    return gap > 5.0 * (math.sqrt(shots * p_marked) + math.sqrt(shots * p_unmarked))


def check_grover(op: Op, out: dict) -> list[str]:
    exp = op.expect
    problems = []
    if out["plan"] != exp["plan"]:
        problems.append("plan differs from the reference")
    if out["budget"] != exp["budget"]:
        problems.append(f"budget {out['budget']} != reference {exp['budget']}")
    shots = int(_flag(op.argv, "--shots"))
    if sum(out["histogram"].values()) != shots or out["shots"] != shots:
        problems.append("histogram does not sum to --shots")
    estimate = _error_estimate(out["budget"], exp["noise"], out["plan"]["search_qubits"], _flag(op.argv, "--per"))
    if out["error_estimate"] != estimate:
        problems.append("error_estimate differs from the closed form")
    matches = {tuple(cell) for cell in exp["matches"]}
    if not matches and out["ideal_success_probability"] != 0:
        problems.append("no match but non-zero ideal_success_probability")
    plan = out["plan"]
    if exp["noise"] is None and decode_is_checked(len(matches), 1 << plan["search_qubits"], plan["repetitions"], shots):
        if out["decoded"] is None or tuple(out["decoded"]) not in matches:
            problems.append(f"decoded {out['decoded']} is not a match")
    return problems


def check_mcl(op: Op, out: dict) -> list[str]:
    exp = op.expect
    problems = []
    estimate, robot = tuple(out["estimate"]), tuple(out["robot"])
    if estimate not in exp["free"] or robot not in exp["free"]:
        problems.append("estimate or robot off the free cells")
    iterations = out["iterations_used"]
    if not 1 <= iterations <= MCL_MAX_ITERS or (not out["converged"] and iterations != MCL_MAX_ITERS):
        problems.append(f"iterations_used {iterations} inconsistent with converged={out['converged']}")
    if out["sense_ops"] != exp["particles"] * iterations:
        problems.append("sense_ops != particles * iterations")
    if exp["unique"] and out["converged"] and estimate != robot:
        problems.append("converged on a unique-perception map but estimate != robot")
    return problems


def check(op: Op, out: dict) -> list[str]:
    """Problems with one op's JSON output; empty when it is correct."""
    try:
        return check_mcl(op, out) if op.expect["kind"] == "mcl" else check_grover(op, out)
    except (KeyError, TypeError, ValueError) as exc:
        return [f"malformed output: {exc!r}"]


# --- input properties --------------------------------------------------------


def properties(ops: list[Op]) -> dict:
    """Input property shares of an op list (grover ops only for match shares)."""
    keys = [json.dumps(op.expect.get("plan") or op.map_text.split("\n", 1)[0], sort_keys=True) for op in ops]
    seen: set = set()
    repeats = 0
    for key in keys:
        repeats += key in seen
        seen.add(key)
    grover = [op for op in ops if op.expect["kind"] != "mcl"]
    widths = Counter(op.expect["plan"]["total_qubits"] for op in grover)
    return {
        "ops": len(ops),
        "plan_repeat_share": repeats / len(ops),
        "zero_match_share": sum(not op.expect["matches"] for op in grover) / len(grover) if grover else 0.0,
        "unique_match_share": sum(len(op.expect["matches"]) == 1 for op in grover) / len(grover) if grover else 0.0,
        "width_histogram": {str(w): n for w, n in sorted(widths.items())},
    }
