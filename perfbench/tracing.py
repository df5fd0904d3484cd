"""Per-layer tracing from outside the package, and the statevec kernel bench.

The tracer swaps public functions at their module attributes for wrappers
that record a span (op, id, parent, label, start, end) in memory, plus
counts read off arguments and results. Nothing under ``src/`` changes, and
``uninstall`` puts every original back. A layer's self time is its span
minus its child spans and minus the time the tracer spent reading counts
inside it.
"""

from __future__ import annotations

import functools
import statistics
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

# (module, attribute, label). Functions imported by name into another module
# are wrapped there too, under the same label, so every call site is seen.
WRAPPED = (
    ("cli", "main", "cli"),
    ("gridmap", "parse_map", "parse"),
    ("gridmap", "compute_costmap", "costmap"),
    ("grover2d", "compute_costmap", "costmap"),
    ("gridmap", "perceive", "perceive"),
    ("grover2d", "perceive", "perceive"),
    ("classical", "perceive_at", "perceive_all"),
    ("classical", "mcl_localize", "mcl"),
    ("grover2d", "run_localization", "localize"),
    ("grover2d", "classical_matches", "matches"),
    ("grover2d", "plan", "plan"),
    ("grover2d", "oracle_spec", "synth"),
    ("grover2d", "build_circuit", "synth"),
    ("grover2d", "budget", "budget"),
    ("statevec", "init_state", "init"),
    ("statevec", "run", "run"),
    ("statevec", "sample", "sample"),
    ("errmodel", "estimate", "estimate"),
)

# Self-time metrics: metric name -> span label.
SELF_TIMES = {
    "cli.self_s": "cli",
    "gridmap.parse_s": "parse",
    "gridmap.costmap_s": "costmap",
    "gridmap.perceive_s": "perceive",
    "gridmap.perceive_all_s": "perceive_all",
    "classical.mcl_s": "mcl",
    "grover2d.localize_self_s": "localize",
    "grover2d.matches_s": "matches",
    "grover2d.plan_s": "plan",
    "grover2d.synth_s": "synth",
    "grover2d.budget_s": "budget",
    "statevec.init_s": "init",
    "statevec.run_s": "run",
    "statevec.sample_s": "sample",
    "errmodel.estimate_s": "estimate",
}

GATE_KINDS = ("H", "X", "Z", "MCX", "MCZ")
KERNEL_WIDTHS = (10, 16, 20, 22)
KERNEL_REPEATS = 3


def _circuit_arg(args, kwargs):
    return kwargs["circuit"] if "circuit" in kwargs else args[1]


class Tracer:
    """In-memory spans and counts for the ops run while it is installed."""

    def __init__(self, modules: dict):
        self.modules = modules
        self.spans: list[list] = []  # [op, id, parent, label, start, end, excluded]
        self.counts: list[tuple[int, str, float]] = []
        self.op = 0
        self._stack: list[list] = []
        self._patches: list[tuple[object, str, object]] = []
        self.hooks = {
            "synth": self._count_circuit,
            "init": self._count_state_bytes,
            "run": self._count_run,
            "mcl": self._count_mcl,
        }

    def install(self) -> None:
        for module_name, attr, label in WRAPPED:
            module = self.modules[module_name]
            original = getattr(module, attr)
            self._patches.append((module, attr, original))
            setattr(module, attr, self._wrap(original, label, attr))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def _wrap(self, original, label: str, attr: str):
        hook = self.hooks.get(label)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            parent = tracer._stack[-1] if tracer._stack else None
            span = [tracer.op, len(tracer.spans), parent[1] if parent else None, label, 0.0, 0.0, 0.0]
            tracer.spans.append(span)
            tracer._stack.append(span)
            span[4] = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span[5] = perf_counter()
                tracer._stack.pop()
            if hook is not None:
                hook(attr, args, kwargs, result)
                if parent is not None:
                    parent[6] += perf_counter() - span[5]
            return result

        return wrapper

    def _count(self, key: str, value: float) -> None:
        self.counts.append((self.op, key, value))

    def _count_circuit(self, attr, args, kwargs, result) -> None:
        if attr == "build_circuit":
            self._count("grover2d.circuit_ops", len(result.ops))

    def _count_state_bytes(self, attr, args, kwargs, result) -> None:
        self._count("statevec.state_bytes", 16 * (1 << result.width))

    def _count_run(self, attr, args, kwargs, result) -> None:
        kinds = Counter(op.kind for op in _circuit_arg(args, kwargs).ops)
        for kind in GATE_KINDS:
            self._count(f"statevec.gates.{kind}", kinds[kind])
        self._count("statevec.noise_events", result.noise_events)
        self._count("statevec.nonzero_share", np.count_nonzero(result.amps) / result.amps.size)

    def _count_mcl(self, attr, args, kwargs, result) -> None:
        self._count("classical.iterations", result.iterations_used)
        self._count("classical.sense_ops", result.sense_ops)
        self._count("classical.converged", float(result.converged))

    def self_times(self) -> dict[str, float]:
        """Total self seconds per span label."""
        child = defaultdict(float)
        for span in self.spans:
            if span[2] is not None:
                child[span[2]] += span[5] - span[4]
        totals: dict[str, float] = defaultdict(float)
        for span in self.spans:
            totals[span[3]] += span[5] - span[4] - child[span[1]] - span[6]
        return totals

    def metrics(self, n_ops: int) -> dict[str, float]:
        """Per-op means of self times and counts, plus shares and rates."""
        selfs = self.self_times()
        op_time = sum(s[5] - s[4] for s in self.spans if s[2] is None)
        out = {name: selfs.get(label, 0.0) / n_ops for name, label in SELF_TIMES.items()}
        out["grover2d.budget_share"] = selfs.get("budget", 0.0) / op_time
        out["statevec.run_share"] = selfs.get("run", 0.0) / op_time
        sums: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        for _, key, value in self.counts:
            sums[key] += value
            calls[key] += 1
        for key in ("grover2d.circuit_ops", "statevec.noise_events", "classical.iterations",
                    "classical.sense_ops") + tuple(f"statevec.gates.{k}" for k in GATE_KINDS):
            out[key] = sums[key] / n_ops
        gates = sum(sums[f"statevec.gates.{k}"] for k in GATE_KINDS)
        out["statevec.us_per_gate"] = 1e6 * selfs.get("run", 0.0) / gates if gates else 0.0
        out["statevec.nonzero_share"] = sums["statevec.nonzero_share"] / calls["statevec.nonzero_share"] if calls["statevec.nonzero_share"] else 0.0
        out["statevec.state_bytes"] = max((v for _, k, v in self.counts if k == "statevec.state_bytes"), default=0)
        out["classical.converged_share"] = sums["classical.converged"] / calls["classical.converged"] if calls["classical.converged"] else 0.0
        mcl_s = selfs.get("mcl", 0.0)
        out["classical.sense_ops_per_s"] = sums["classical.sense_ops"] / mcl_s if mcl_s else 0.0
        return out

    def breakdown(self) -> list[tuple[str, float]]:
        """(label, share of op time) by descending self time."""
        selfs = self.self_times()
        op_time = sum(s[5] - s[4] for s in self.spans if s[2] is None)
        return sorted(((k, v / op_time) for k, v in selfs.items()), key=lambda kv: -kv[1])


def _kernel_gates(statevec, kind: str, width: int, count: int) -> list:
    ops = []
    for k in range(count):
        target = k % width
        if kind == "H":
            ops.append(statevec.h(target))
        elif kind == "MCX1":
            ops.append(statevec.mcx([((target + 1) % width, 1)], target))
        else:
            ops.append(statevec.mcx([(q, 1) for q in range(width) if q != target], target))
    return ops


def kernel_bench(statevec) -> dict[str, float]:
    """Per-gate cost of the dense kernel inside ``statevec.run``.

    Times ``run`` on G gates of one kind and on an empty circuit of the same
    width, and charges the difference to the gates, so the state copy that
    ``run`` makes once is left out. Bytes are computed, not measured: each
    touched amplitude (16 bytes) is read once and written once.
    """
    out = {}
    for width in KERNEL_WIDTHS:
        state = statevec.init_state(width, max_qubits=width)
        empty = statevec.Circuit(width=width, ops=())
        for kind, touched in (("H", 1 << width), ("MCX1", 1 << (width - 1)), ("MCXall", 2)):
            # About 2^22 touched amplitudes per timed circuit, within 4 to 2000 gates.
            count = max(4, min(2000, (1 << 25) // (touched * 8)))
            circuit = statevec.Circuit(width=width, ops=tuple(_kernel_gates(statevec, kind, width, count)))
            samples = []
            for _ in range(KERNEL_REPEATS):
                t0 = perf_counter()
                statevec.run(state, empty)
                t1 = perf_counter()
                statevec.run(state, circuit)
                t2 = perf_counter()
                samples.append(((t2 - t1) - (t1 - t0)) / count)
            out[f"statevec.kernel.{kind}.w{width}.us_per_gate"] = 1e6 * statistics.median(samples)
            out[f"statevec.kernel.{kind}.w{width}.bytes_per_gate"] = 32 * touched
    return out

