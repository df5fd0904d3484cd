"""Record the per-geometry reference values the benchmark checks against.

Meters every catalog geometry once with the package's own ``plan`` and
``budget`` and writes ``reference.json`` next to this file. Run it from the
repository root only when the reference is to be re-recorded on purpose:

    python3 perfbench/record_reference.py            # full re-meter (minutes)
    python3 perfbench/record_reference.py --shares   # refresh input shares only

Folded geometries are metered at R = 1, 2 and 3 repetitions. The metered
budget is affine in R (the prep is metered once, each oracle+diffusion block
adds the same elements and depth), which is checked here on every geometry
and against a full-R meter on a sample, so the reference for any R is
``budget_r1 + (R - 1) * budget_step``.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from gridloc import gridmap, grover2d  # noqa: E402
from gridloc.gridmap import GridMap, Perception  # noqa: E402

import workloads  # noqa: E402

CATALOG_SEED = 20250200077
ROBOT_SHAPES = 160
INDICATOR_SHAPES = 400
INDICATOR_MAX_AREA = 1400
FULL_CHECK_SAMPLE = 6


def _perception(sensor_range: int) -> Perception:
    """Any perception with the geometry of an interior robot (or the indicator)."""
    if sensor_range == 0:
        return Perception(row_pattern=(1,), col_pattern=(1,), anchor_offset_row=0, anchor_offset_col=0)
    span = 2 * sensor_range + 1
    return Perception(
        row_pattern=(0,) * span,
        col_pattern=(0,) * span,
        anchor_offset_row=sensor_range,
        anchor_offset_col=sensor_range,
    )


def _meter_folded(rows: int, cols: int, q: int, sensor_range: int, full_check: bool) -> dict:
    grid = GridMap(rows=rows, cols=cols, qubits_per_cell=q)
    base = grover2d.plan(grid, _perception(sensor_range), mode="folded")
    metered = [grover2d.budget(replace(base, repetitions=reps)) for reps in (1, 2, 3)]
    step = (metered[1].elements - metered[0].elements, metered[1].depth - metered[0].depth)
    if (metered[2].elements - metered[1].elements, metered[2].depth - metered[1].depth) != step:
        raise SystemExit(f"budget not affine in R for {rows}x{cols} q={q} range={sensor_range}")
    entry = {
        "rows": rows,
        "cols": cols,
        "q": q,
        "range": sensor_range,
        "plan": base.as_dict(),
        "budget_r1": metered[0].as_dict(),
        "budget_step": {"elements": step[0], "depth": step[1]},
        **_block_size(base),
    }
    if full_check:
        full = grover2d.budget(base)
        if workloads.expected_budget(entry, base.repetitions) != full.as_dict():
            raise SystemExit(f"affine extrapolation disagrees with the full meter at {rows}x{cols}")
    return entry


def _block_size(base) -> dict:
    """GateOps and controls in one faithful oracle+diffusion block.

    These drive the Python cost of metering a block, so the workload
    generator uses them to predict an op's cost without timing anything.
    """
    wide = replace(base, mode="faithful", total_qubits=base.layout.ancilla[0] + base.layout.ancilla[1])
    spec = grover2d.OracleSpec(solutions=(), map_codes=(), row_pattern=(), col_pattern=())
    ops = grover2d.synth_oracle(wide, spec).ops + grover2d.synth_diffusion(wide).ops
    return {"block_ops": len(ops), "block_controls": sum(len(op.controls) for op in ops)}


def _meter_faithful(rows: int, cols: int) -> dict:
    grid = GridMap(rows=rows, cols=cols, qubits_per_cell=1)
    the_plan = grover2d.plan(grid, _perception(0), mode="faithful")
    return {
        "rows": rows,
        "cols": cols,
        "q": 1,
        "plan": the_plan.as_dict(),
        "budget": grover2d.budget(the_plan).as_dict(),
    }


def _catalog_shapes() -> list[tuple[int, int, int, int]]:
    rng = random.Random(CATALOG_SEED)
    shapes: dict[tuple[int, int, int, int], None] = {}
    while len(shapes) < ROBOT_SHAPES:
        shape = (rng.randint(16, 64), rng.randint(16, 64), rng.randint(1, 2), rng.randint(1, 3))
        shapes[shape] = None
    # Indicator maps cost ~R * area, so their areas are drawn log-uniform up
    # to where one op still fits the folded workload's largest cost tier.
    while len(shapes) < ROBOT_SHAPES + INDICATOR_SHAPES:
        side = rng.randint(16, 64)
        other = round(math.exp(rng.uniform(math.log(256), math.log(INDICATOR_MAX_AREA))) / side)
        if 16 <= other <= 64:
            shapes[(side, other, rng.randint(1, 2), 0)] = None
    return list(shapes)


def meter_all() -> dict:
    shapes = _catalog_shapes()
    # Full-R checks are slow on wide maps, so sample the cheapest ones.
    by_size = sorted(range(len(shapes)), key=lambda i: shapes[i][0] * shapes[i][1])
    checked = set(by_size[:FULL_CHECK_SAMPLE // 2] + by_size[len(by_size) // 2:][:FULL_CHECK_SAMPLE // 2])
    folded = []
    for i, shape in enumerate(shapes):
        folded.append(_meter_folded(*shape, full_check=i in checked))
        print(f"{i + 1}/{len(shapes)} {shape}", file=sys.stderr)
    faithful = [_meter_faithful(r, c) for r, c in workloads.FAITHFUL_SHAPES]
    return {
        "source": "gridloc.grover2d.plan/budget at the commit that added this benchmark",
        "folded": folded,
        "faithful": faithful,
    }


def input_shares(reference: dict, seeds) -> dict:
    """Input properties of every workload, pooled over the given seeds."""
    shares = {}
    for workload in workloads.WORKLOADS:
        per_seed = [workloads.properties(workloads.build(workload, seed, reference, gridmap, HERE.parent)[0])
                    for seed in seeds]
        widths: Counter = Counter()
        for p in per_seed:
            widths.update(p["width_histogram"])
        shares[workload] = {
            "seeds": len(per_seed),
            "ops_per_seed": per_seed[0]["ops"],
            **{k: round(sum(p[k] for p in per_seed) / len(per_seed), 4)
               for k in ("plan_repeat_share", "zero_match_share", "unique_match_share")},
            "width_histogram": {w: widths[w] for w in sorted(widths, key=int)},
        }
    return shares


def _dump(reference: dict) -> str:
    """JSON with one catalog entry per line, so diffs stay readable."""
    parts = []
    for key, value in sorted(reference.items()):
        if isinstance(value, list):
            rows = ",\n  ".join(json.dumps(item, sort_keys=True) for item in value)
            parts.append(f"{json.dumps(key)}: [\n  {rows}\n ]")
        else:
            parts.append(f"{json.dumps(key)}: {json.dumps(value, sort_keys=True)}")
    return "{\n " + ",\n ".join(parts) + "\n}\n"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--shares", action="store_true", help="only refresh input_shares")
    args = parser.parse_args()
    path = HERE / "reference.json"
    reference = json.loads(path.read_text()) if args.shares else meter_all()
    reference["input_shares"] = input_shares(reference, seeds=range(1, 11))
    path.write_text(_dump(reference))
    return 0


if __name__ == "__main__":
    sys.exit(main())
