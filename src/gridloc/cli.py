"""Command-line front end.

Subcommands cover the full workflow: dump a costmap, inspect the robot's
perception, run the amplified localization, run the particle-filter
baseline, sweep benchmark grid sizes, and compare the two approaches on
one map. Exit codes: 0 on success, 2 for input problems, 3 when a
request would not fit the qubit budget or the host's memory.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from json.encoder import encode_basestring_ascii as _quote

from . import classical, errmodel, grover2d, gridmap, statevec

# Benchmark obstacle layouts for the size sweep, keyed by (rows, cols).
BENCHMARK_OBSTACLES: dict[tuple[int, int], tuple[int, int]] = {
    (1, 2): (0, 1),
    (2, 2): (1, 1),
    (3, 3): (0, 1),
    (4, 4): (2, 1),
    (5, 5): (3, 2),
    (6, 6): (3, 2),
}

SCALE_DEFAULT_SIZES = "1x2,2x2,3x3,4x4,5x5,6x6"
# Hard ceiling on --max-qubits.
MAX_QUBITS_CEILING = 60
SCALE_DEFAULT_DEVICE = "ibm-kyiv-2024"


def _read_map(path: str) -> gridmap.GridMap:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return gridmap.parse_map(fh.read())


def _write_out(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _json_text(obj) -> str:
    """``json.dumps(obj, indent=2, sort_keys=True) + "\\n"``, byte for byte.

    Any indent sends json to its pure-Python encoder, one generator per
    nesting level and key. Here a dict that holds no container (a histogram,
    a budget) goes to json's C encoder, with the indent folded into the item
    separator. Lists, other str-keyed dicts, str and int are joined in
    Python. Every other value is left to json.dumps.
    """
    return _json_value(obj, "\n") + "\n"


def _json_value(obj, newline: str) -> str:
    kind = type(obj)
    if kind is str:
        return _quote(obj)
    if kind is int:
        return int.__repr__(obj)
    inner = newline + "  "
    if (kind is list or kind is tuple) and obj:
        items = [_json_value(item, inner) for item in obj]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    if kind is dict and obj:
        if not any(issubclass(t, (dict, list, tuple)) for t in set(map(type, obj.values()))):
            text = json.dumps(obj, sort_keys=True, separators=("," + inner, ": "))
            return "{" + inner + text[1:-1] + newline + "}"
        if all(type(key) is str for key in obj):
            items = [_quote(key) + ": " + _json_value(value, inner) for key, value in sorted(obj.items())]
            return "{" + inner + ("," + inner).join(items) + newline + "}"
    # json's escapes keep newlines out of strings, so every "\n" is indentation.
    return json.dumps(obj, indent=2, sort_keys=True).replace("\n", newline)


def _parse_noise(spec: str | None) -> statevec.NoiseModel | None:
    """--noise accepts a preset name or explicit ``p_gate,p_meas`` rates."""
    if spec is None:
        return None
    presets = errmodel.load_presets()
    if spec in presets:
        return presets[spec]
    parts = spec.split(",")
    if len(parts) == 2:
        try:
            return statevec.NoiseModel(p_gate=float(parts[0]), p_meas=float(parts[1]))
        except ValueError as exc:
            raise ValueError(f"bad noise rates {spec!r}: {exc}") from None
    known = ", ".join(sorted(presets))
    raise ValueError(f"unknown noise preset {spec!r} (known: {known})")


def _benchmark_map(rows: int, cols: int) -> gridmap.GridMap:
    obstacle = BENCHMARK_OBSTACLES.get((rows, cols), (rows // 2, cols // 2))
    return gridmap.GridMap(rows=rows, cols=cols, obstacles=frozenset({obstacle}))


def cmd_costmap(args) -> int:
    grid = _read_map(args.map)
    costmap = gridmap.compute_costmap(grid)
    _write_out(gridmap.costmap_csv(costmap), args.out)
    return 0


def cmd_perceive(args) -> int:
    grid = _read_map(args.map)
    perception = gridmap.perceive(grid)
    _write_out(
        _json_text(
            {
                "row_pattern": list(perception.row_pattern),
                "col_pattern": list(perception.col_pattern),
                "anchor_offset_row": perception.anchor_offset_row,
                "anchor_offset_col": perception.anchor_offset_col,
            }
        ),
        args.out,
    )
    return 0


def cmd_grover(args) -> int:
    grid = _read_map(args.map)
    noise = _parse_noise(args.noise)
    report = grover2d.run_localization(
        grid,
        mode=args.mode,
        shots=args.shots,
        noise=noise,
        seed=args.seed,
        max_qubits=args.max_qubits,
    )
    est = errmodel.estimate(
        report.budget,
        noise or statevec.NoiseModel(),
        measured_qubits=report.plan.search_qubits,
        per=args.per,
    )
    payload = report.to_json_dict()
    payload["error_estimate"] = est.as_dict()
    _write_out(_json_text(payload), args.out)
    if args.hist is not None:
        _write_out(report.histogram.to_csv(), args.hist)
    return 0


def cmd_mcl(args) -> int:
    grid = _read_map(args.map)
    result = classical.mcl_localize(
        grid,
        particle_count=args.particles,
        max_iters=args.max_iters,
        seed=args.seed,
    )
    payload = {
        "estimate": list(result.estimate),
        "iterations_used": result.iterations_used,
        "converged": result.converged,
        "robot": list(result.robot),
        "sense_ops": result.sense_ops,
    }
    _write_out(_json_text(payload), args.out)
    if args.trace is not None:
        _write_out(classical.mcl_trace_csv(result.history), args.trace)
    return 0


def cmd_scale(args) -> int:
    sizes = []
    for token in args.sizes.split(","):
        parts = token.lower().split("x")
        if len(parts) != 2:
            raise ValueError(f"bad size {token!r}, expected RxC")
        sizes.append((int(parts[0]), int(parts[1])))

    noise = _parse_noise(args.noise)
    rates = noise or errmodel.load_presets()[SCALE_DEFAULT_DEVICE]

    lines = [
        "size,rows,cols,qubits,repetitions,elements,depth,gate_error,simulated_position,known_position"
    ]
    for index, (rows, cols) in enumerate(sizes):
        grid = _benchmark_map(rows, cols)
        report = grover2d.run_localization(
            grid,
            mode="folded",
            shots=args.shots,
            noise=noise,
            seed=args.seed + index,
            max_qubits=args.max_qubits,
        )
        wide = grover2d.plan(grid, gridmap.SINGLE_CELL, mode="faithful")
        cost = grover2d.budget(wide)
        est = errmodel.estimate(cost, rates, measured_qubits=wide.search_qubits, per=args.per)
        obstacle = next(iter(grid.obstacles))
        known = report.plan.anchor_index(obstacle)
        simulated = (
            report.plan.anchor_index(report.decoded) if report.decoded is not None else -1
        )
        lines.append(
            f"{rows}x{cols},{rows},{cols},{wide.total_qubits},{wide.repetitions},"
            f"{cost.elements},{cost.depth},{est.p_gate_failure:.6f},{simulated},{known}"
        )
    _write_out("\n".join(lines) + "\n", args.out)
    return 0


def cmd_compare(args) -> int:
    grid = _read_map(args.map)
    if grid.robot is None:
        raise ValueError("compare needs a map with a robot")
    report = grover2d.run_localization(
        grid,
        mode=args.mode,
        shots=args.shots,
        noise=_parse_noise(args.noise),
        seed=args.seed,
        max_qubits=args.max_qubits,
    )
    mcl = classical.mcl_localize(
        grid, particle_count=args.particles, max_iters=args.max_iters, seed=args.seed
    )
    payload = {
        "grover": {
            "decoded": list(report.decoded) if report.decoded is not None else None,
            "oracle_calls": report.plan.repetitions,
            "ideal_success_probability": report.ideal_success_probability,
            "n_anchors": report.plan.n_anchors,
        },
        "mcl": {
            "estimate": list(mcl.estimate),
            "iterations_used": mcl.iterations_used,
            "converged": mcl.converged,
            "robot_final": list(mcl.robot),
            "sense_ops": mcl.sense_ops,
        },
        "query": classical.query_comparison(report.plan.n_anchors),
        "query_synthetic": {
            "100": classical.query_comparison(100),
            "1000000": classical.query_comparison(1_000_000),
        },
    }
    _write_out(_json_text(payload), args.out)
    return 0


# Built once per process: parse_args never changes it, and a build costs about 1 ms.
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="gridloc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    common.add_argument("--shots", type=int, default=4096, help="measurement shots (default 4096)")
    common.add_argument(
        "--mode", choices=("folded", "faithful"), default="folded", help="circuit mode"
    )
    common.add_argument(
        "--noise", default=None, help="device preset name or explicit 'p_gate,p_meas'"
    )
    common.add_argument("--out", default=None, help="output path (default stdout)")
    common.add_argument(
        "--max-qubits",
        type=int,
        default=statevec.DEFAULT_MAX_QUBITS,
        help="simulator width budget in qubits",
    )
    common.add_argument(
        "--per",
        choices=("depth", "ops"),
        default="depth",
        help="exponent for the element failure estimate",
    )

    need_map = argparse.ArgumentParser(add_help=False)
    need_map.add_argument("--map", required=True, help="map file path")

    p = sub.add_parser("costmap", parents=[common, need_map], help="dump the map's costmap CSV")
    p.set_defaults(func=cmd_costmap)

    p = sub.add_parser("perceive", parents=[common, need_map], help="dump the robot's perception")
    p.set_defaults(func=cmd_perceive)

    p = sub.add_parser("grover", parents=[common, need_map], help="run amplified localization")
    p.add_argument("--hist", default=None, help="also write the histogram CSV here")
    p.set_defaults(func=cmd_grover)

    p = sub.add_parser("mcl", parents=[common, need_map], help="run the particle-filter baseline")
    p.add_argument("--particles", type=int, default=200, help="particle count (default 200)")
    p.add_argument("--max-iters", type=int, default=50, help="iteration cap (default 50)")
    p.add_argument("--trace", default=None, help="also write the particle trace CSV here")
    p.set_defaults(func=cmd_mcl)

    p = sub.add_parser("scale", parents=[common], help="sweep benchmark grid sizes")
    p.add_argument("--sizes", default=SCALE_DEFAULT_SIZES, help="comma-separated RxC list")
    p.set_defaults(func=cmd_scale)

    p = sub.add_parser("compare", parents=[common, need_map], help="amplified search vs particles")
    p.add_argument("--particles", type=int, default=200, help="particle count (default 200)")
    p.add_argument("--max-iters", type=int, default=50, help="iteration cap (default 50)")
    p.set_defaults(func=cmd_compare)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if not 1 <= args.max_qubits <= MAX_QUBITS_CEILING:
            raise ValueError(
                f"--max-qubits must be between 1 and {MAX_QUBITS_CEILING}, "
                f"got {args.max_qubits}"
            )
        if args.seed < 0:
            raise ValueError(f"--seed must be non-negative, got {args.seed}")
        return args.func(args)
    except statevec.WidthTooLargeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"error: the host cannot allocate memory for this request: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
