"""gridloc benchmark: one workload per process, closed loop, checked outputs.

    python3 perfbench/run.py --workload folded-large --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``. Each op is one in-process call to ``gridloc.cli.main(argv)`` with
``--out`` pointing at a scratch file, issued by a single client that waits
for each op before sending the next. With ``--trace 0`` the last stdout
line carries the end-to-end metrics; with ``--trace 1`` it carries the
per-layer metrics of a traced run (see README.md in this directory).
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import shutil
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

SETUPS = 3
TAIL_SAMPLES = 10
MODULES = ("cli", "gridmap", "grover2d", "statevec", "errmodel", "classical")


class Runner:
    """Set-up, op execution and checking for one workload in one process."""

    def __init__(self, workload: str, seed: int, reference: dict, workdir: Path):
        self.workload = workload
        self.seed = seed
        self.reference = reference
        self.workdir = workdir
        self.out_path = str(workdir / "out.json")
        self.problems: list[str] = []

    def setup(self) -> float:
        """Fresh package import, input generation and one warm-up op; seconds."""
        start = perf_counter()
        for name in [m for m in sys.modules if m == "gridloc" or m.startswith("gridloc.")]:
            del sys.modules[name]
        self.modules = {name: importlib.import_module(f"gridloc.{name}") for name in MODULES}
        self.ops, warm = workloads.build(self.workload, self.seed, self.reference, self.modules["gridmap"], ROOT)
        self.map_paths = []
        for i, op in enumerate(self.ops):
            path = self.workdir / f"op{i:03d}.map"
            path.write_text(op.map_text)
            self.map_paths.append(str(path))
        warm_path = self.workdir / "warmup.map"
        warm_path.write_text(warm.map_text)
        self.run_op(warm, str(warm_path))  # a failure is kept in self.problems
        return perf_counter() - start

    def run_op(self, op: workloads.Op, map_path: str) -> tuple[float, bool]:
        """Latency of one op and whether it exited 0 with correct output."""
        argv = op.argv + ["--map", map_path, "--out", self.out_path]
        start = perf_counter()
        try:
            code = self.modules["cli"].main(argv)
        except (Exception, SystemExit) as exc:  # an op that raises counts as failed
            code = repr(exc)
        latency = perf_counter() - start
        if code != 0:
            problems = [f"exit {code}"]
        else:
            try:
                with open(self.out_path, encoding="utf-8") as fh:
                    problems = workloads.check(op, json.load(fh))
            except (OSError, ValueError) as exc:
                problems = [f"unreadable output: {exc}"]
        if problems:
            self.problems.append(f"{' '.join(argv)}: {'; '.join(problems)}")
        return latency, not problems

    def loop(self, seconds: float | None, count: int | None = None, first: int = 0) -> tuple[list[float], int, float]:
        """Closed loop from op ``first`` for ``seconds`` (or exactly ``count`` ops).

        Returns the latencies, the number of ops that passed and the wall time.
        """
        latencies: list[float] = []
        passed = 0
        start = perf_counter()
        i = first
        while True:
            # Each CLI call would start from a fresh heap; do not let one op's
            # garbage bill the next.
            gc.collect()
            latency, ok = self.run_op(self.ops[i % len(self.ops)], self.map_paths[i % len(self.ops)])
            latencies.append(latency)
            passed += ok
            i += 1
            if (count is not None and i - first >= count) or (seconds is not None and perf_counter() - start >= seconds):
                break
        return latencies, passed, perf_counter() - start


def tail(latencies: list[float]) -> tuple[float, float]:
    """(percentile, value) of the highest percentile with TAIL_SAMPLES samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_SAMPLES:
        return 100.0, ordered[-1]
    return 100.0 * (n - TAIL_SAMPLES) / n, ordered[n - TAIL_SAMPLES - 1]


def end_to_end(runner: Runner, setup_s: float, seconds: float) -> tuple[dict, int, int]:
    latencies, passed, wall = runner.loop(seconds)
    attempted = len(latencies)
    pct, tail_s = tail(latencies)
    print(f"ops {attempted} passed {passed} wall {wall:.3f} s; tail is p{pct:.1f} over {attempted} samples")
    metrics = {
        "setup_s": (setup_s, "s"),
        "localizations_per_s": (passed / wall, "1/s"),
        "latency_p50_ms": (1e3 * statistics.median(latencies), "ms"),
        "latency_tail_ms": (1e3 * tail_s, "ms"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
        "success_share": (passed / attempted, "share"),
    }
    print(f"failed_share {(attempted - passed) / attempted:.4f} share")
    return metrics, attempted, attempted - passed


def traced(runner: Runner, seconds: float) -> tuple[dict, int, int]:
    """Each op runs untraced, then traced; per-layer metrics and the overhead.

    Pairing the two runs of every op keeps drift in machine speed out of
    the overhead figure.
    """
    tracer = tracing.Tracer(runner.modules)
    plain: list[float] = []
    spans: list[float] = []
    passed = 0
    start = perf_counter()
    while not plain or perf_counter() - start < seconds:
        i = len(plain)
        latencies, ok, _ = runner.loop(None, count=1, first=i)
        plain += latencies
        tracer.op = i
        tracer.install()
        try:
            latencies, ok_traced, _ = runner.loop(None, count=1, first=i)
        finally:
            tracer.uninstall()
        spans += latencies
        passed += ok + ok_traced
    metrics = {key: (value, _unit(key)) for key, value in tracer.metrics(len(spans)).items()}
    metrics["trace.overhead_share"] = (sum(spans) / sum(plain) - 1.0, "share")
    props = workloads.properties(runner.ops[:len(plain)])
    for key in ("plan_repeat_share", "zero_match_share", "unique_match_share"):
        metrics[f"input.{key}"] = (props[key], "share")
    for key, value in tracing.kernel_bench(runner.modules["statevec"]).items():
        metrics[key] = (value, _unit(key))
    print("self-time shares: " + ", ".join(f"{label} {share:.3f}" for label, share in tracer.breakdown()))
    attempted = len(plain) + len(spans)
    return metrics, attempted, attempted - passed


def _unit(key: str) -> str:
    for suffix, unit in (("_per_s", "1/s"), ("_s", "s"), ("_share", "share"), ("us_per_gate", "us"),
                         ("bytes_per_gate", "B"), ("state_bytes", "B")):
        if key.endswith(suffix):
            return unit
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "gridloc" / "cli.py").is_file():
        print(f"error: no gridloc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    reference = workloads.load_reference(HERE / "reference.json")

    scratch = ROOT / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        runner = Runner(args.workload, args.seed, reference, workdir)
        setup_s = statistics.median(runner.setup() for _ in range(SETUPS))
        props = workloads.properties(runner.ops)
        print(f"inputs {args.workload} seed {args.seed}: " + json.dumps(props, sort_keys=True))
        if args.trace:
            metrics, attempted, failed = traced(runner, args.seconds)
        else:
            metrics, attempted, failed = end_to_end(runner, setup_s, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run still uses it

    for line in runner.problems[:5]:
        print(f"failed: {line}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": not runner.problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
