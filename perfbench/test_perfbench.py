"""Self-tests of the benchmark: seeded inputs, tracing transparency, checks.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

REFERENCE = workloads.load_reference(HERE / "reference.json")


def _inputs(workload: str, seed: int) -> list[tuple]:
    from gridloc import gridmap

    ops, warm = workloads.build(workload, seed, REFERENCE, gridmap, run.ROOT, count=12)
    return [(op.argv, op.map_text, repr(sorted(op.expect.items()))) for op in ops + [warm]]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_inputs_other_seed_different(workload):
    assert _inputs(workload, 7) == _inputs(workload, 7)
    assert _inputs(workload, 7) != _inputs(workload, 8)


@pytest.fixture
def runner(tmp_path):
    r = run.Runner("faithful-dense", 3, REFERENCE, tmp_path)
    r.setup()
    return r


@pytest.fixture
def mcl_runner(tmp_path):
    r = run.Runner("mcl-baseline", 3, REFERENCE, tmp_path)
    r.setup()
    return r


@pytest.mark.parametrize("which", ["runner", "mcl_runner"])
def test_traced_op_writes_identical_output(which, request):
    r = request.getfixturevalue(which)
    index = 1
    assert r.run_op(r.ops[index], r.map_paths[index])[1]
    plain = Path(r.out_path).read_bytes()
    tracer = tracing.Tracer(r.modules)
    tracer.install()
    try:
        assert r.run_op(r.ops[index], r.map_paths[index])[1]
    finally:
        tracer.uninstall()
    assert Path(r.out_path).read_bytes() == plain
    assert tracer.spans and all(span[5] >= span[4] for span in tracer.spans)


def test_correct_ops_pass(runner):
    latencies, passed, _ = runner.loop(None, count=4)
    assert passed == len(latencies) == 4


def test_planted_wrong_budget_counts_as_failed(runner, monkeypatch):
    grover2d = runner.modules["grover2d"]
    real = grover2d.budget
    monkeypatch.setattr(grover2d, "budget", lambda p: dataclasses.replace(real(p), elements=real(p).elements + 1))
    latencies, passed, _ = runner.loop(None, count=3)
    assert passed == 0 and len(latencies) == 3
    assert "budget" in runner.problems[-1]


def test_planted_wrong_decoded_cell_counts_as_failed(runner, monkeypatch):
    grover2d = runner.modules["grover2d"]
    real = grover2d.run_localization

    def wrong_cell(grid, **kwargs):
        report = real(grid, **kwargs)
        (obstacle,) = grid.obstacles
        other = next(cell for cell in grid.free_cells() if cell != obstacle)
        return dataclasses.replace(report, decoded=other)

    monkeypatch.setattr(grover2d, "run_localization", wrong_cell)
    latencies, passed, _ = runner.loop(None, count=3)
    assert passed == 0 and len(latencies) == 3
    assert "not a match" in runner.problems[-1]


def test_tail_is_eleventh_largest():
    latencies = [float(i) for i in range(1, 41)]
    pct, value = run.tail(latencies)
    assert value == 30.0 and pct == pytest.approx(75.0)


def test_match_scan_agrees_with_package():
    from gridloc import grover2d, gridmap

    for seed in range(5):
        ops, _ = workloads.build("folded-large", seed, REFERENCE, gridmap, run.ROOT, count=4)
        for op in ops:
            grid = gridmap.parse_map(op.map_text)
            if grid.robot is None:
                continue
            expected = grover2d.classical_matches(gridmap.compute_costmap(grid), gridmap.perceive(grid))
            assert set(op.expect["matches"]) == expected
