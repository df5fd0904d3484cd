from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

import gridloc
from gridloc import classical, grover2d, statevec
from gridloc.cli import _json_text, main

BENCH_3X3 = "rows=3 cols=3 q=1 range=1\n.#.\n...\n...\n"
MAPS = Path(__file__).resolve().parent.parent / "maps"
ROBOT_MAP = "rows=4 cols=5 q=1 range=1\n..#..\n..R..\n.....\n.....\n"


@pytest.fixture
def bench_map(tmp_path):
    path = tmp_path / "bench.map"
    path.write_text(BENCH_3X3)
    return str(path)


@pytest.fixture
def robot_map(tmp_path):
    path = tmp_path / "robot.map"
    path.write_text(ROBOT_MAP)
    return str(path)


def test_costmap_command(bench_map, tmp_path):
    out = tmp_path / "cm.csv"
    assert main(["costmap", "--map", bench_map, "--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "row,col,raw,code"
    assert len(lines) == 10


def test_perceive_command(robot_map, tmp_path):
    out = tmp_path / "per.json"
    assert main(["perceive", "--map", robot_map, "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["row_pattern"] == [0, 1, 0]
    assert data["col_pattern"] == [1, 1, 0]
    assert data["anchor_offset_row"] == 1
    assert data["anchor_offset_col"] == 1


def test_perceive_needs_robot(bench_map):
    assert main(["perceive", "--map", bench_map]) == 2


def test_huge_range_reads_the_whole_map(tmp_path, capsys):
    # A range past the map sides senses what range 4 senses on a 3x3 map,
    # and neither perception nor the particle filter allocates by range: the
    # huge-range runs, made after the range-4 ones, peak under 1 MiB.
    outputs = []
    for reach in (4, 1000000):
        path = tmp_path / f"range{reach}.map"
        path.write_text(f"rows=3 cols=3 q=2 range={reach}\n.#.\n..R\n#..\n")
        for command in ("perceive", "mcl"):
            tracemalloc.start()
            try:
                assert main([command, "--map", str(path)]) == 0
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert reach == 4 or peak < 1 << 20, (command, peak)
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


def test_grover_benchmark_map(bench_map, tmp_path):
    out = tmp_path / "rep.json"
    hist = tmp_path / "hist.csv"
    code = main(
        ["grover", "--map", bench_map, "--shots", "2048", "--out", str(out),
         "--hist", str(hist)]
    )
    assert code == 0
    data = json.loads(out.read_text())
    assert data["decoded"] == [0, 1]
    assert data["plan"]["total_qubits"] == 4
    assert data["plan"]["repetitions"] == 3
    assert "error_estimate" in data
    assert data["shots"] == 2048
    lines = hist.read_text().strip().split("\n")
    assert lines[0] == "outcome,count"
    top_outcome, top_count = lines[1].split(",")
    assert top_outcome == "0001"
    assert int(top_count) > 1700


def test_grover_robot_map_runs_full_pipeline(robot_map, tmp_path):
    out = tmp_path / "rep.json"
    assert main(["grover", "--map", robot_map, "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["decoded"] == [1, 2]
    assert data["plan"]["n_anchors"] == 6


def test_grover_byte_determinism(bench_map, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    main(["grover", "--map", bench_map, "--seed", "5", "--out", str(a)])
    main(["grover", "--map", bench_map, "--seed", "5", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_grover_noise_flag_variants(bench_map, tmp_path):
    out = tmp_path / "n.json"
    assert main(["grover", "--map", bench_map, "--noise", "ibm-kyiv-2024",
                 "--shots", "256", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["error_estimate"]["p_gate"] == pytest.approx(3.81e-3)
    assert main(["grover", "--map", bench_map, "--noise", "0.01,0.02",
                 "--shots", "256", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["error_estimate"]["p_gate"] == pytest.approx(0.01)
    assert data["error_estimate"]["p_meas"] == pytest.approx(0.02)


def test_grover_faithful_width_exit(tmp_path):
    path = tmp_path / "big.map"
    path.write_text(
        "rows=5 cols=5 q=1 range=1\n.....\n.....\n.....\n..#..\n.....\n"
    )
    assert main(["grover", "--map", str(path), "--mode", "faithful"]) == 3


def test_width_guard_runs_before_the_costmap(tmp_path, monkeypatch):
    # A robot map too wide for faithful mode exits 3 without building a costmap.
    def refuse(grid):
        raise AssertionError("costmap built before the width guard")

    for module in (gridloc.gridmap, grover2d):
        monkeypatch.setattr(module, "compute_costmap", refuse)
    path = tmp_path / "robot.map"
    path.write_text(ROBOT_MAP)
    assert main(["grover", "--map", str(path), "--mode", "faithful", "--max-qubits", "20"]) == 3



def test_grover_allocation_failure_exits_3(bench_map, tmp_path, monkeypatch, capsys):
    real_zeros = np.zeros

    def refuse_state(shape, dtype=float, **kwargs):
        # Only the state vector is complex; the costmap still allocates.
        if dtype is np.complex128:
            raise MemoryError("refused")
        return real_zeros(shape, dtype, **kwargs)

    monkeypatch.setattr(np, "zeros", refuse_state)
    out = tmp_path / "g.json"
    assert main(["grover", "--map", bench_map, "--out", str(out)]) == 3
    assert "error:" in capsys.readouterr().err
    assert not out.exists()

def test_grover_promotion_allocation_failure_exits_3(bench_map, tmp_path, monkeypatch, capsys):
    real_zeros = np.zeros

    def refuse_large_state(shape, dtype=float, **kwargs):
        # |0...0> holds one amplitude; the first promotions past 4 fail.
        if dtype is np.complex128 and np.prod(shape) > 4:
            raise MemoryError("refused")
        return real_zeros(shape, dtype, **kwargs)

    monkeypatch.setattr(np, "zeros", refuse_large_state)
    out = tmp_path / "g.json"
    assert main(["grover", "--map", bench_map, "--out", str(out)]) == 3
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "module, name, command",
    [(statevec, "sample", "grover"), (classical, "_systematic_resample", "mcl")],
    ids=["grover-shots", "mcl-particles"],
)
def test_memory_error_exits_3(robot_map, tmp_path, monkeypatch, capsys, module, name, command):
    # Stands in for numpy refusing an oversized --shots or --particles
    # array, so the test allocates nothing large.
    def refuse(*args, **kwargs):
        raise MemoryError("refused")

    monkeypatch.setattr(module, name, refuse)
    out = tmp_path / "out.json"
    assert main([command, "--map", robot_map, "--out", str(out)]) == 3
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


class SimulatorReached(Exception):
    """Raised by a patched-out circuit builder or simulator."""


def _patch_out(monkeypatch, targets):
    def reached(*args, **kwargs):
        raise SimulatorReached

    for module, name in targets:
        monkeypatch.setattr(module, name, reached)


@pytest.mark.parametrize("noise", [[], ["--noise", "0,0.05"]], ids=["noiseless", "readout-noise"])
def test_noiseless_folded_runs_build_and_simulate_no_circuit(
    bench_map, robot_map, tmp_path, monkeypatch, noise
):
    # No gate is built at all: the budget is counted in closed form too.
    gates = ("build_circuit", "circuit_budget", "Circuit", "h", "x", "z", "mcx", "mcz")
    _patch_out(monkeypatch, [(statevec, "run")] + [(grover2d, name) for name in gates])
    for path in (bench_map, robot_map):
        out = tmp_path / "g.json"
        hist = tmp_path / "h.csv"
        assert main(["grover", "--map", path, "--out", str(out), "--hist", str(hist), *noise]) == 0
        assert json.loads(out.read_text())["decoded"] is not None


@pytest.mark.parametrize(
    "target", [(grover2d, "build_circuit"), (statevec, "run")], ids=["build_circuit", "run"]
)
@pytest.mark.parametrize(
    "extra",
    [
        ["--noise", "0.01,0"],
        ["--mode", "faithful"],
        ["--mode", "faithful", "--noise", "0,0.05"],
        ["--mode", "faithful", "--noise", "0.01,0"],
        ["--mode", "faithful", "--noise", "ibm-kyiv-2024"],
    ],
    ids=["folded-gate-noise", "faithful", "faithful-readout", "faithful-gate", "faithful-preset"],
)
def test_gate_noise_and_faithful_runs_simulate_their_circuit(
    bench_map, robot_map, monkeypatch, target, extra
):
    _patch_out(monkeypatch, [target])
    for path in (bench_map, robot_map):
        with pytest.raises(SimulatorReached):
            main(["grover", "--map", path, "--max-qubits", "46", *extra])


@pytest.mark.parametrize("value", ["0", "-3"])
def test_mcl_max_iters_below_one_is_input_error(robot_map, value, capsys):
    assert main(["mcl", "--map", robot_map, "--max-iters", value]) == 2
    assert "max_iters must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["0", "-1", "61", "1000"])
def test_max_qubits_outside_ceiling_is_input_error(bench_map, value, capsys):
    assert main(["grover", "--map", bench_map, "--max-qubits", value]) == 2
    assert "--max-qubits must be between 1 and 60" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [["grover"], ["grover", "--noise", "0.01,0.01"], ["mcl"], ["compare"], ["scale", "--sizes", "2x2"]],
    ids=["grover", "grover-noise", "mcl", "compare", "scale"],
)
@pytest.mark.parametrize("seed", ["-1", "-2"])
def test_negative_seed_is_input_error(robot_map, argv, seed, capsys):
    if argv[0] != "scale":
        argv = [*argv, "--map", robot_map]
    assert main([*argv, "--seed", seed]) == 2
    assert capsys.readouterr().err == f"error: --seed must be non-negative, got {seed}\n"


def test_largest_q_keeps_the_top_code_exact(tmp_path, capsys):
    path = tmp_path / "q53.map"
    path.write_text("rows=2 cols=2 q=53 range=1\n#.\n.R\n")
    assert main(["costmap", "--map", str(path)]) == 0
    codes = [int(line.rsplit(",", 1)[1]) for line in capsys.readouterr().out.splitlines()[1:]]
    assert max(codes) == 9007199254740991 == 2**53 - 1


@pytest.mark.parametrize("q", [54, 63, 70])
@pytest.mark.parametrize("command", ["costmap", "perceive", "grover", "mcl"])
def test_q_past_53_is_input_error(tmp_path, command, q, capsys):
    path = tmp_path / "wide.map"
    path.write_text(f"rows=2 cols=2 q={q} range=1\n#.\n.R\n")
    assert main([command, "--map", str(path)]) == 2
    assert "qubits_per_cell must be between 1 and 53" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["bench_5x5.map", "bench_6x6.map"])
def test_grover_faithful_large_layouts(name, tmp_path):
    # 34 and 46 qubits: only the search and output qubits leave the frame.
    out = tmp_path / "rep.json"
    path = MAPS / name
    assert main(["grover", "--map", str(path), "--mode", "faithful", "--max-qubits", "46",
                 "--shots", "512", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["decoded"] == [3, 2]


def test_missing_map_is_input_error(tmp_path):
    assert main(["grover", "--map", str(tmp_path / "nope.map")]) == 2


def test_bad_noise_name(bench_map):
    assert main(["grover", "--map", bench_map, "--noise", "nonsense"]) == 2


def test_mcl_command(robot_map, tmp_path):
    out = tmp_path / "mcl.json"
    trace = tmp_path / "trace.csv"
    code = main(
        ["mcl", "--map", robot_map, "--particles", "80", "--out", str(out),
         "--trace", str(trace)]
    )
    assert code == 0
    data = json.loads(out.read_text())
    assert set(data) == {"estimate", "iterations_used", "converged", "robot", "sense_ops"}
    assert data["sense_ops"] == data["iterations_used"] * 80
    lines = trace.read_text().strip().split("\n")
    assert lines[0] == "iter,row,col,weight"


def test_scale_command(tmp_path):
    out = tmp_path / "scale.csv"
    assert main(["scale", "--shots", "1024", "--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    header = lines[0].split(",")
    assert header[:5] == ["size", "rows", "cols", "qubits", "repetitions"]
    rows = [line.split(",") for line in lines[1:]]
    assert [r[3] for r in rows] == ["7", "10", "17", "24", "34", "46"]
    assert [r[4] for r in rows][1:] == ["2", "3", "4", "4", "5"]
    # the three well-conditioned sizes recover the planted obstacle
    by_size = {r[0]: r for r in rows}
    for size in ("3x3", "4x4", "5x5", "6x6"):
        assert by_size[size][-1] == by_size[size][-2]


def test_scale_width_guard_runs_before_the_map_is_read(monkeypatch):
    # 10^6 anchors need 20 search qubits: the guard must refuse before any
    # costmap is built or scanned, so its cost stays off the cell count.
    def refuse(*args, **kwargs):
        raise AssertionError("map read before the width guard")

    monkeypatch.setattr(grover2d, "classical_matches", refuse)
    monkeypatch.setattr(grover2d, "indicator_costmap", refuse)
    assert main(["scale", "--sizes", "1000x1000", "--max-qubits", "16"]) == 3


def test_scale_bad_size_token(tmp_path):
    assert main(["scale", "--sizes", "3by3"]) == 2


def test_compare_command(robot_map, tmp_path):
    out = tmp_path / "cmp.json"
    assert main(["compare", "--map", robot_map, "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["grover"]["decoded"] == [1, 2]
    assert data["grover"]["oracle_calls"] == 2
    assert data["mcl"]["estimate"] == data["mcl"]["robot_final"]
    assert data["query_synthetic"]["100"]["grover_calls"] == 8
    assert data["query_synthetic"]["100"]["classical_expected"] == 50.0
    assert data["query_synthetic"]["1000000"]["sqrt_n"] == pytest.approx(1000.0)


def test_compare_needs_robot(bench_map):
    assert main(["compare", "--map", bench_map]) == 2


def test_repeated_main_calls_match_fresh_processes(robot_map, capsys):
    # main() reuses one parser per process; each call, an argparse error
    # included, must print what a fresh `python -m gridloc.cli` prints.
    grover = ["grover", "--map", robot_map, "--shots", "512", "--seed", "3"]
    runs = [
        grover,
        ["mcl", "--map", robot_map, "--particles", "60", "--seed", "5"],
        ["grover", "--map", robot_map, "--shots", "many"],
        grover,
        # The presets are parsed once per process; later ops read the cached parse.
        [*grover, "--noise", "ibm-kyiv-2024"],
        [*grover, "--noise", "ibm-kyiv-2024", "--mode", "faithful", "--max-qubits", "46"],
    ]
    env = {**os.environ, "PYTHONPATH": str(Path(gridloc.__file__).resolve().parent.parent)}
    for argv in runs:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        fresh = subprocess.run(
            [sys.executable, "-m", "gridloc.cli", *argv], capture_output=True, text=True, env=env
        )
        assert (code, out, err) == (fresh.returncode, fresh.stdout, fresh.stderr), argv
    assert code == 0 and out


# Leaves json writes in its own way: escapes, bool before int, float spellings.
json_leaves = st.one_of(
    st.text(),
    st.sampled_from(['"', "\\", "\n\t\x00\x1f\x7f", "é€😀", ""]),
    st.integers(),
    st.booleans(),
    st.none(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([-0.0, 1e-7, 1e300, math.nan, math.inf, -math.inf]),
)
json_values = st.recursive(
    json_leaves,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(st.text(max_size=4), children, max_size=5),
        st.dictionaries(st.integers(-3, 3), children, max_size=3),
    ),
    max_leaves=30,
)


@settings(max_examples=200, deadline=None, phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(json_values)
@example({"h": {"01": 3, "00": 5}, "e": {}, "l": [], "t": (1, (True, None)), "b": False})
@example([{"z": [2.5, {}], "a": {"k": ()}}, {3: "x", -1: [1]}])
def test_json_text_matches_json_dumps(obj):
    assert _json_text(obj) == json.dumps(obj, indent=2, sort_keys=True) + "\n"
