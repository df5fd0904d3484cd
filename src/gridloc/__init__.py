"""Grid localization with amplitude-amplified pattern search.

A robot on an occupancy grid senses the cost field along its row and
column; matching that local pattern against the global costmap is
phrased as an unstructured search and solved with amplitude
amplification on a statevector simulator. A particle-filter
baseline and circuit error estimates round out the toolkit.
"""

from __future__ import annotations

from .classical import (
    MclResult,
    ParticleSet,
    QueryCounter,
    mcl_localize,
    mcl_trace_csv,
    query_comparison,
    substring_search,
)
from .errmodel import (
    ErrorEstimate,
    estimate,
    load_presets,
    p_gate_failure,
    p_meas_failure,
)
from .gridmap import (
    SINGLE_CELL,
    Cell,
    Costmap,
    DuplicateRobotError,
    GridMap,
    MapFormatError,
    NoRobotError,
    Perception,
    compute_costmap,
    costmap_csv,
    encode_strings,
    indicator_costmap,
    parse_map,
    perceive,
    perceive_at,
    to_text,
)
from .grover2d import (
    Budget,
    GroverPlan,
    LocalizationReport,
    OracleSpec,
    RegisterLayout,
    budget,
    build_circuit,
    circuit_budget,
    classical_matches,
    ideal_success_probability,
    oracle_spec,
    plan,
    run_localization,
    synth_diffusion,
    synth_oracle,
)
from .statevec import (
    Circuit,
    GateOp,
    Histogram,
    NoiseModel,
    StateVector,
    WidthTooLargeError,
    apply,
    init_state,
    run,
    sample,
)

__version__ = "0.1.0"

__all__ = [
    "SINGLE_CELL",
    "Budget",
    "Cell",
    "Circuit",
    "Costmap",
    "DuplicateRobotError",
    "ErrorEstimate",
    "GateOp",
    "GridMap",
    "GroverPlan",
    "Histogram",
    "LocalizationReport",
    "MapFormatError",
    "MclResult",
    "NoRobotError",
    "NoiseModel",
    "OracleSpec",
    "ParticleSet",
    "Perception",
    "QueryCounter",
    "RegisterLayout",
    "StateVector",
    "WidthTooLargeError",
    "apply",
    "budget",
    "build_circuit",
    "circuit_budget",
    "classical_matches",
    "compute_costmap",
    "costmap_csv",
    "encode_strings",
    "estimate",
    "ideal_success_probability",
    "indicator_costmap",
    "init_state",
    "load_presets",
    "mcl_localize",
    "mcl_trace_csv",
    "oracle_spec",
    "p_gate_failure",
    "p_meas_failure",
    "parse_map",
    "perceive",
    "perceive_at",
    "plan",
    "query_comparison",
    "run",
    "run_localization",
    "sample",
    "substring_search",
    "synth_diffusion",
    "synth_oracle",
    "to_text",
    "__version__",
]
