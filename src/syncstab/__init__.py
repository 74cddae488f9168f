"""Transient synchronization stability of a grid-forming / synchronous pair.

Library layout:

- machine:     parameter types, per-unit conversion, two-machine reduction
- equilibrium: equilibria, the stability-level index and its sensitivities
- equal_area:  first-swing classification by the equal-area construction
- simulate:    staged time-domain integration (reduced and full models)
- region:      stability-region tracing and grid classification
- design:      inertia matching and virtual-reactance setting
- cli:         scenario ingestion and the `syncstab` command
"""

from .machine import (
    BaseQuantities,
    DampingRatioWarning,
    DegenerateModelError,
    LoadParams,
    ModelError,
    RelativeSwingModel,
    SgParams,
    SingularNetworkError,
    VsgParams,
    check_damping_ratio,
    damping_ratio_gap,
    load_power,
    net_power,
    reactance_from_inductance,
    reduce_two_machine,
    total_reactance,
)
from .equilibrium import (
    Equilibria,
    PenetrationModel,
    dindex_dcapacity,
    dindex_dratio,
    find_equilibria,
    index_at_capacity,
    scr,
    sep_exists,
    sep_ratio_bounds,
    stability_index,
    stability_index_from_parts,
    stability_index_from_scr,
)
from .equal_area import (
    EacResult,
    SwingClass,
    acceleration_area,
    classify_first_swing,
    deceleration_area,
)
from .simulate import (
    FaultScenario,
    IntegrationDivergedError,
    Stage,
    StageCondition,
    StagePlan,
    Trajectory,
    current_magnitude,
    plan_stages,
    resolve_stages,
    simulate_ensemble,
    simulate_full,
    simulate_outcome,
    simulate_reduced,
    ssi_from_peak,
)
from .region import (
    RegionBoundary,
    RegionGrid,
    classify_grid,
    trace_boundary,
)
from .design import (
    BindingConstraint,
    DesignInfeasibleError,
    DesignInput,
    DesignOutput,
    design,
    match_inertia,
    matched_impedance,
    set_virtual_impedance,
)

__all__ = [
    # machine
    "BaseQuantities", "DampingRatioWarning", "DegenerateModelError", "LoadParams",
    "ModelError", "RelativeSwingModel", "SgParams", "SingularNetworkError", "VsgParams",
    "check_damping_ratio", "damping_ratio_gap", "load_power", "net_power",
    "reactance_from_inductance", "reduce_two_machine", "total_reactance",
    # equilibrium
    "Equilibria", "PenetrationModel", "dindex_dcapacity", "dindex_dratio",
    "find_equilibria", "index_at_capacity", "scr", "sep_exists",
    "sep_ratio_bounds", "stability_index", "stability_index_from_parts",
    "stability_index_from_scr",
    # equal_area
    "EacResult", "SwingClass", "acceleration_area", "classify_first_swing",
    "deceleration_area",
    # simulate
    "FaultScenario", "IntegrationDivergedError", "Stage", "StageCondition", "StagePlan",
    "Trajectory", "current_magnitude", "plan_stages", "resolve_stages",
    "simulate_ensemble", "simulate_full",
    "simulate_outcome", "simulate_reduced", "ssi_from_peak",
    # region
    "RegionBoundary", "RegionGrid", "classify_grid", "trace_boundary",
    # design
    "BindingConstraint", "DesignInfeasibleError", "DesignInput", "DesignOutput",
    "design", "match_inertia", "matched_impedance", "set_virtual_impedance",
]
__version__ = "0.1.0"
