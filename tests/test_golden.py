"""Golden outputs: every shipped map through the CLI, compared byte for byte.

Each case runs ``gridloc.cli.main`` in-process and compares its exit code,
stdout, stderr and the extra files it writes (``--hist``, ``--trace``) with
``tests/golden.json``. A refactor that claims identical output must pass this
file unedited. After a deliberate output change, re-record with
``PYTHONPATH=src python tests/test_golden.py`` and name the change.
"""

from __future__ import annotations

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest

from gridloc import WidthTooLargeError, parse_map, run_localization
from gridloc.cli import main

HERE = Path(__file__).resolve().parent
MAPS = HERE.parent / "maps"
GOLDEN = HERE / "golden.json"
EXTRA_OUTPUTS = ("hist", "trace")
# Readout-only and gate-plus-readout rates: they pin the shot-by-shot sampling path.
READOUT_NOISE = ("0,0.05", "0.01,0.02")


def fits(where: str, mode: str) -> bool:
    """Whether the map's layout in this mode passes the default width guard."""
    try:
        run_localization(parse_map(Path(where).read_text()), mode=mode, shots=1)
    except WidthTooLargeError:
        return False
    return True


def cases() -> dict[str, list[str]]:
    """Case name -> argv; ``{hist}`` and ``{trace}`` stand for extra output files."""
    out = {}
    for path in sorted(MAPS.glob("*.map")):
        name, where = path.name, str(path)
        out[f"costmap {name}"] = ["costmap", "--map", where]
        if parse_map(path.read_text()).robot is not None:
            out[f"perceive {name}"] = ["perceive", "--map", where]
        for mode in ("folded", "faithful"):
            out[f"grover {mode} {name}"] = [
                "grover", "--map", where, "--mode", mode, "--seed", "3", "--hist", "{hist}",
            ]
            if fits(where, mode):
                for rates in READOUT_NOISE:
                    out[f"grover {mode} noise {rates} {name}"] = [
                        "grover", "--map", where, "--mode", mode, "--seed", "3",
                        "--noise", rates, "--hist", "{hist}",
                    ]
        out[f"mcl {name}"] = [
            "mcl", "--map", where, "--particles", "20", "--max-iters", "5", "--trace", "{trace}",
        ]
    out["scale"] = ["scale"]
    return out


def run_case(argv: list[str]) -> dict:
    """Exit code, stdout, stderr and the text of every extra file the command wrote."""
    with tempfile.TemporaryDirectory() as tmp:
        extra = {key: Path(tmp) / f"{key}.csv" for key in EXTRA_OUTPUTS}
        args = [arg.format(**extra) if arg.startswith("{") else arg for arg in argv]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(args)
        files = {key: p.read_text() for key, p in extra.items() if p.exists()}
    return {"exit": code, "stdout": stdout.getvalue(), "stderr": stderr.getvalue(), "files": files}


def record(path: Path = GOLDEN) -> None:
    """Write the current output of every case to the golden file."""
    golden = {name: run_case(argv) for name, argv in cases().items()}
    path.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


CASES = cases()


@pytest.mark.parametrize("name", list(CASES))
def test_cli_output_matches_golden(name, golden):
    assert run_case(CASES[name]) == golden[name]


def test_golden_covers_exactly_the_cases(golden):
    assert sorted(golden) == sorted(CASES)


if __name__ == "__main__":
    record()
