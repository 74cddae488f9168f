"""
Command-line front end: scenario ingestion, dispatch, CSV/JSON emission.

Scenario documents are JSON with unit-suffixed keys.  One table, _SCHEMA,
maps each section to its keys, and each key to the dataclass field it fills,
the kind of value it holds and whether it is required.  A kind checks and
converts one value: a finite number, an integer, an inductance in henries
(turned into pu against the base quantities) or a stage block.  Two keys that
name one field are alternative units for it and are mutually exclusive.  An
optional field that is left out takes its dataclass default, and unknown keys
are rejected.  One loop, _fields, applies the table to every section; the
override flags go through the same number check.

Exit codes: 0 ok, 2 schema, 3 invariant, 4 instability where the command
requires stability, 5 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from collections.abc import Iterable
from dataclasses import dataclass, replace
from pathlib import Path

from .machine import (
    BaseQuantities,
    LoadParams,
    ModelError,
    RelativeSwingModel,
    SgParams,
    VsgParams,
    reactance_from_inductance,
)
from . import equilibrium as eqm
from .equal_area import classify_first_swing
from .simulate import (
    FaultScenario,
    IntegrationDivergedError,
    Stage,
    StageCondition,
    StagePlan,
    Trajectory,
    plan_stages,
    resolve_stages,
    simulate_outcome,
    simulate_reduced,
)
from .region import classify_grid, trace_boundary
from .design import DesignInput, design as run_design

EXIT_OK = 0
EXIT_SCHEMA = 2
EXIT_INVARIANT = 3
EXIT_UNSTABLE = 4
EXIT_NUMERIC = 5

TRAJECTORY_HEADER = "t_s,delta_vg_rad,domega_vg_pu,p_syn_pu,i_v_pu"


class SchemaError(ValueError):
    pass


@dataclass(frozen=True)
class RegionSpec:
    delta_min: float
    delta_max: float
    dw_min: float
    dw_max: float
    n_delta: int
    n_dw: int
    t_max: float = 60.0
    dt: float = 1e-3


@dataclass(frozen=True)
class DesignSpec:
    current_limit: float


@dataclass(frozen=True)
class ScenarioDocument:
    base: BaseQuantities
    vsg: VsgParams
    sg: SgParams
    load: LoadParams
    scenario: FaultScenario
    dt: float
    region: RegionSpec | None
    design: DesignSpec | None


# -- schema ------------------------------------------------------------------
#
# section -> JSON key -> (field, kind, required); see the module docstring.

_STAGE = {
    "sg_voltage_pu": ("sg_voltage", "number", False),
    "virtual_reactance_pu": ("virtual_reactance", "number", False),
    "power_reference_pu": ("power_ref", "number", False),
}

_SCHEMA = {
    "base": {
        "rated_voltage_v": ("rated_voltage", "number", True),
        "rated_power_w": ("rated_power", "number", True),
        "rated_frequency_hz": ("rated_frequency", "number", True),
    },
    "vsg": {
        "inertia_s": ("inertia", "number", True),
        "damping_pu": ("damping", "number", True),
        "power_reference_pu": ("power_ref", "number", True),
        "internal_voltage_pu": ("internal_voltage", "number", True),
        "line_inductance_h": ("line_reactance", "henries", True),
        "line_reactance_pu": ("line_reactance", "number", True),
        "virtual_inductance_h": ("virtual_reactance", "henries", False),
        "virtual_reactance_pu": ("virtual_reactance", "number", False),
        "rated_power_pu": ("rated_power", "number", False),
    },
    "sg": {
        "inertia_s": ("inertia", "number", True),
        "damping_pu": ("damping", "number", True),
        "mechanical_power_pu": ("mech_power", "number", True),
        "voltage_pu": ("voltage", "number", True),
        "line_inductance_h": ("line_reactance", "henries", True),
        "line_reactance_pu": ("line_reactance", "number", True),
        "rated_power_pu": ("rated_power", "number", False),
    },
    "load": {
        "resistance_pu": ("resistance", "number", True),
    },
    "scenario": {
        "t_fault_s": ("t_fault", "number", True),
        "prefault": ("prefault", "stage", True),
        "faulted": ("faulted", "stage", True),
        "t_clear_s": ("t_clear", "number", False),
        "postfault": ("postfault", "stage", False),
    },
    "sim": {
        "t_end_s": ("t_end", "number", True),
        "dt_s": ("dt", "number", True),
    },
    "region": {
        "delta_min_rad": ("delta_min", "number", True),
        "delta_max_rad": ("delta_max", "number", True),
        "domega_min_pu": ("dw_min", "number", True),
        "domega_max_pu": ("dw_max", "number", True),
        "n_delta": ("n_delta", "integer", True),
        "n_domega": ("n_dw", "integer", True),
        "t_max_s": ("t_max", "number", False),
        "dt_s": ("dt", "number", False),
    },
    "design": {
        "current_limit_pu": ("current_limit", "number", True),
    },
}

# The document's own keys are the sections; their values are checked by _fields.
_DOCUMENT = {
    section: (section, "section", section not in ("region", "design")) for section in _SCHEMA
}


def _number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(f"{where}: expected a number")
    try:
        number = float(value)
    except OverflowError:  # an integer beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise SchemaError(f"{where}: expected a finite number, got {number!r}")
    return number

def _integer(value, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(f"{where}: expected an integer")
    return value

def _convert(kind: str, value, where: str, base: BaseQuantities | None):
    if kind == "section":
        return value
    if kind == "integer":
        return _integer(value, where)
    if kind == "stage":
        return StageCondition(**_fields(value, where, _STAGE, base))
    number = _number(value, where)
    return reactance_from_inductance(number, base) if kind == "henries" else number

def _fields(obj, where: str, table: dict, base: BaseQuantities | None) -> dict:
    """One section's fields, converted; a left-out optional field is absent."""
    if not isinstance(obj, dict):
        raise SchemaError(f"{where}: expected an object")
    unknown = set(obj) - set(table)
    if unknown:
        raise SchemaError(f"{where}: unknown key(s) {sorted(unknown)}")
    units: dict[str, list[str]] = {}  # field -> its keys, one per unit
    for key, (field, _, _) in table.items():
        units.setdefault(field, []).append(key)
    missing = [key for key, (field, _, required) in table.items()
               if required and units[field] == [key] and key not in obj]
    if missing:
        raise SchemaError(f"{where}: missing required field {sorted(missing)}")
    fields = {}
    for field, keys in units.items():
        given = [key for key in keys if key in obj]
        if len(given) > 1:
            raise SchemaError(f"{where}: {' and '.join(given)} are mutually exclusive")
        if given:
            key = given[0]
            fields[field] = _convert(table[key][1], obj[key], f"{where}.{key}", base)
        elif table[keys[0]][2]:
            raise SchemaError(f"{where}: one of {' or '.join(keys)} is required")
    return fields


def parse_scenario(text: str) -> ScenarioDocument:
    """Validate and convert a scenario document; all reactances end up in pu."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"not valid JSON: {exc.msg} (line {exc.lineno}, column {exc.colno})")
    except ValueError as exc:  # e.g. an integer past Python's digit limit
        raise SchemaError(f"not valid JSON: {exc}")
    sections, base = {}, None
    for name, obj in _fields(raw, "document", _DOCUMENT, None).items():
        sections[name] = _fields(obj, name, _SCHEMA[name], base)
        if name == "base":  # first in the table, so henries convert against it
            base = BaseQuantities(**sections[name])
    sim = sections["sim"]
    return ScenarioDocument(
        base=base,
        vsg=VsgParams(**sections["vsg"]),
        sg=SgParams(**sections["sg"]),
        load=LoadParams(**sections["load"]),
        scenario=FaultScenario(t_end=sim["t_end"], **sections["scenario"]),
        dt=sim["dt"],
        region=RegionSpec(**sections["region"]) if "region" in sections else None,
        design=DesignSpec(**sections["design"]) if "design" in sections else None,
    )


def _no_step(t: float, dt: float) -> bool:
    """Whether round(t/dt), the integrators' step count, takes no step.

    That is t/dt <= 0.5, without round's overflow on an infinite quotient.
    Steps that are not positive are left to the integrators' own check.
    """
    return dt > 0 and t / dt <= 0.5


def _check_horizon(doc: ScenarioDocument) -> None:
    """Refuse a sim block whose run would integrate nothing, naming the key."""
    if _no_step(doc.scenario.t_end, doc.dt):
        raise SchemaError(f"sim.t_end_s: {doc.scenario.t_end!r} s is no step of "
                          f"dt {doc.dt!r} s; the run would integrate nothing")


# Work bound of a region grid in cells times steps: 100 times the default
# window, about nine minutes at 55 ns per cell-step (2-core Xeon, wide grids)
# if no cell retires early.
_MAX_LANE_STEPS = 10**10
# Cell bound of a region grid: its grid and lane arrays peak near 220 bytes
# per cell (tracemalloc, one-step grids), so about 1.1 GB at the limit.
_MAX_CELLS = 5 * 10**6


def _check_window(window: RegionSpec) -> None:
    """Refuse a region window with no area, no step, too many cells or too much work,
    naming the key.

    The cell and work bounds are checked before any grid array is allocated.
    """
    for low, high, lo_key, hi_key in (
        (window.delta_min, window.delta_max, "delta_min_rad", "delta_max_rad"),
        (window.dw_min, window.dw_max, "domega_min_pu", "domega_max_pu"),
    ):
        if not low < high:
            raise SchemaError(f"region.{lo_key}: {low!r} must be below "
                              f"region.{hi_key} {high!r}")
    for n, key in ((window.n_delta, "n_delta"), (window.n_dw, "n_domega")):
        if n < 2:
            raise SchemaError(f"region.{key}: {n} points; the grid needs at least 2 per axis")
    if window.n_delta * window.n_dw > _MAX_CELLS:
        raise SchemaError(f"region.n_delta, region.n_domega: {window.n_delta} x {window.n_dw} "
                          f"cells exceed the limit of {_MAX_CELLS:.0e} cells")
    if _no_step(window.t_max, window.dt):
        raise SchemaError(f"region.t_max_s: {window.t_max!r} s is no step of region.dt_s "
                          f"{window.dt!r} s; the grid would integrate nothing")
    if window.dt > 0:
        steps = window.t_max / window.dt
        steps = round(steps) if math.isfinite(steps) else steps
        if window.n_delta * window.n_dw * steps > _MAX_LANE_STEPS:
            raise SchemaError(
                f"region.n_delta, region.n_domega, region.t_max_s, region.dt_s: "
                f"{window.n_delta} x {window.n_dw} cells times {steps:.6g} steps exceed "
                f"the limit of {_MAX_LANE_STEPS:.0e} cell-steps")


# -- emission ----------------------------------------------------------------

def _fmt(x: float) -> str:
    return repr(float(x))

def _write_csv(path: Path, lines: list[str]) -> None:
    path.write_text("\n".join(lines) + "\n", newline="\n")

def _write_trajectory_csv(path: Path, traj: Trajectory) -> None:
    lines = [TRAJECTORY_HEADER]
    for i in range(len(traj.times)):
        lines.append(
            f"{_fmt(traj.times[i])},{_fmt(traj.delta[i])},{_fmt(traj.dw[i])},"
            f"{_fmt(traj.sync_power[i])},{_fmt(traj.current[i])}"
        )
    _write_csv(path, lines)

def _emit_summary(out_dir: Path, name: str, payload: dict) -> None:
    text = json.dumps(payload, indent=2)
    (out_dir / name).write_text(text + "\n", newline="\n")
    print(text)


# -- per-stage assembly ------------------------------------------------------

def _named(stages: Iterable[Stage]) -> dict[str, Stage]:
    return {stage.name: stage for stage in stages}

def _stages(doc: ScenarioDocument) -> dict[str, Stage]:
    return _named(resolve_stages(doc.vsg, doc.sg, doc.load, doc.base, doc.scenario))

def _plan(doc: ScenarioDocument) -> StagePlan:
    """The document's run: its stages, each reduced once, on the step grid of doc.dt."""
    return plan_stages(doc.vsg, doc.sg, doc.load, doc.base, doc.scenario, doc.dt)

def _model_dict(model: RelativeSwingModel) -> dict:
    return {
        "inertia_s": model.inertia,
        "damping_pu": model.damping,
        "power_ref_pu": model.power_ref,
        "power_max_pu": model.power_max,
        "omega_ref_rad_s": model.omega_ref,
    }


def _null(x: float) -> float | None:
    """A summary value: NaN, the mark of an undefined angle or area, becomes null."""
    return None if math.isnan(x) else x

def _equilibria(eq: eqm.Equilibria) -> dict:
    """The four equilibrium keys of a summary; the angles are NaN when none exists."""
    return {
        "sep_exists": eq.exists,
        "sep_rad": _null(eq.sep),
        "uep_forward_rad": _null(eq.uep_forward),
        "uep_backward_rad": _null(eq.uep_backward),
    }


def _assess(plan: StagePlan, los_time: float | None, ssi: float) -> dict:
    """The per-run verdicts a summary carries, in summary key order, from the run's plan.

    The index is null when the fault-on stage transfers no power (a bolted
    fault), where it is undefined although the run itself is well defined.
    """
    stages = _named(plan.stages)
    fault, eq = stages["faulted"].model, stages["faulted"].eq
    eac = None
    pre = stages["prefault"].eq
    if pre.exists:
        eac = classify_first_swing(fault, pre.sep)
    return {
        "stability_index": None if fault.power_max == 0.0 else eqm.stability_index(fault),
        **_equilibria(eq),
        "eac_classification": eac.classification.value if eac else None,
        "accel_area_pu_rad": _null(eac.accel_area) if eac else None,
        "decel_area_pu_rad": _null(eac.decel_area) if eac else None,
        "los_time_s": los_time,
        "ssi": ssi,
    }


# -- commands ----------------------------------------------------------------

def _cmd_reduce(doc: ScenarioDocument, out_dir: Path, args) -> int:
    payload = {name: _model_dict(stage.model) for name, stage in _stages(doc).items()}
    _emit_summary(out_dir, "summary.json", payload)
    return EXIT_OK


def _cmd_index(doc: ScenarioDocument, out_dir: Path, args) -> int:
    payload = {}
    for name, stage in _stages(doc).items():
        vsg, sg, model = stage.vsg, stage.sg, stage.model
        eq = stage.eq  # before the index, whose own error would mask this one
        gamma = eqm.scr(vsg, sg)
        payload[name] = {
            "stability_index": eqm.stability_index(model),
            "index_scr_form": eqm.stability_index_from_scr(
                gamma, vsg.virtual_reactance, model.power_ref,
                vsg.internal_voltage, sg.voltage,
            ),
            "scr": gamma,
            **_equilibria(eq),
        }
    _emit_summary(out_dir, "summary.json", payload)
    return EXIT_OK


def _cmd_eac(doc: ScenarioDocument, out_dir: Path, args) -> int:
    stages = _stages(doc)
    pre = stages["prefault"].eq
    if not pre.exists:
        raise ModelError("the pre-fault stage admits no stable equilibrium")
    result = classify_first_swing(stages["faulted"].model, pre.sep)
    payload = {
        "initial_angle_rad": pre.sep,
        "classification": result.classification.value,
        "accel_area_pu_rad": _null(result.accel_area),
        "decel_area_pu_rad": _null(result.decel_area),
        "sep_rad": _null(result.sep_angle),
        "peak_rad": result.peak_angle,
        "direction": "forward" if result.forward else "backward",
    }
    _emit_summary(out_dir, "summary.json", payload)
    return EXIT_OK


def _cmd_simulate(doc: ScenarioDocument, out_dir: Path, args) -> int:
    _check_horizon(doc)
    plan = _plan(doc)
    traj = simulate_reduced(plan)
    _write_trajectory_csv(out_dir / "trajectory.csv", traj)
    payload = _assess(plan, traj.los_time, traj.ssi)
    payload["max_current_pu"] = float(traj.current.max())
    payload["final_delta_rad"] = float(traj.delta[-1])
    _emit_summary(out_dir, "summary.json", payload)
    return EXIT_OK


def _cmd_region(doc: ScenarioDocument, out_dir: Path, args) -> int:
    fault = _stages(doc)["faulted"]
    model, eq = fault.model, fault.eq
    if not eq.exists:
        raise ModelError("no stable equilibrium; the stability region is undefined")
    window = doc.region or RegionSpec(
        delta_min=eq.uep_backward - 0.5, delta_max=eq.uep_forward + 0.5,
        dw_min=-0.05, dw_max=0.05, n_delta=41, n_dw=41,
    )
    _check_window(window)
    boundary = trace_boundary(model, dt=window.dt)
    grid = classify_grid(
        model, (window.delta_min, window.delta_max), (window.dw_min, window.dw_max),
        window.n_delta, window.n_dw, t_max=window.t_max, dt=window.dt,
    )
    lines = ["branch,delta_vg_rad,domega_vg_pu"]
    for k, branch in enumerate(boundary.branches):
        for row in branch:
            lines.append(f"{k},{_fmt(row[0])},{_fmt(row[1])}")
    _write_csv(out_dir / "boundary.csv", lines)
    lines = ["delta_vg_rad,domega_vg_pu,label"]
    for i, d in enumerate(grid.delta_axis):
        for j, w in enumerate(grid.dw_axis):
            label = "stable" if grid.stable[i, j] else "unstable"
            lines.append(f"{_fmt(d)},{_fmt(w)},{label}")
    _write_csv(out_dir / "grid.csv", lines)
    payload = {
        "sep_rad": eq.sep,
        "uep_forward_rad": eq.uep_forward,
        "uep_backward_rad": eq.uep_backward,
        "area_estimate_rad_pu": grid.area_estimate,
        "stable_cells": int(grid.stable.sum()),
        "total_cells": int(grid.stable.size),
    }
    _emit_summary(out_dir, "summary.json", payload)
    return EXIT_OK


def _cmd_design(doc: ScenarioDocument, out_dir: Path, args) -> int:
    if doc.design is None:
        raise SchemaError("design: section required for the design command")
    _check_horizon(doc)
    plan = _plan(doc)
    result = run_design(DesignInput(
        sg=doc.sg, vsg=doc.vsg, load=doc.load,
        fault_voltage=_named(plan.stages)["faulted"].sg.voltage,
        current_limit=doc.design.current_limit,
    ))
    before = simulate_reduced(plan)
    _write_trajectory_csv(out_dir / "before.csv", before)
    after = simulate_reduced(_plan(replace(doc, vsg=result.apply(doc.vsg))))
    _write_trajectory_csv(out_dir / "after.csv", after)
    payload = {
        "inertia_s": result.inertia,
        "damping_pu": result.damping,
        "virtual_reactance_pu": result.virtual_reactance,
        "binding_constraint": result.binding_constraint.value,
        "predicted_peak_current_pu": result.predicted_peak_current,
        "predicted_index": result.predicted_index,
        "before_los_time_s": before.los_time,
        "after_los_time_s": after.los_time,
        "after_max_current_pu": float(after.current.max()),
    }
    _emit_summary(out_dir, "summary.json", payload)
    if args.verify and after.los_time is not None:
        print("designed system lost synchronism in verification", file=sys.stderr)
        return EXIT_UNSTABLE
    return EXIT_OK


def _cmd_sweep(doc: ScenarioDocument, out_dir: Path, args) -> int:
    if args.axis is None or args.values is None:
        raise SchemaError("sweep requires --axis and --values")
    _check_horizon(doc)  # a sweep axis moves no horizon
    try:
        floats = [float(v) for v in args.values.split(",") if v.strip()]
    except ValueError:
        raise SchemaError(f"--values: expected comma-separated numbers, got {args.values!r}")
    values = [_number(value, "--values") for value in floats]
    if not values:
        raise SchemaError("--values: at least one value required")
    rows = []
    for value in values:
        plan = _plan(_apply_override(doc, args.axis, value))
        a = _assess(plan, *simulate_outcome(plan))
        rows.append({
            "axis": args.axis,
            "value": value,
            "stability_index": a["stability_index"],
            "eac_classification": a["eac_classification"] or "no_sep",
            "los_time_s": a["los_time_s"],
            "ssi": a["ssi"],
        })
    lines = ["axis,value,stability_index,eac_classification,los_time_s,ssi"]
    for r in rows:
        index = "" if r["stability_index"] is None else _fmt(r["stability_index"])
        los = "" if r["los_time_s"] is None else _fmt(r["los_time_s"])
        lines.append(
            f"{r['axis']},{_fmt(r['value'])},{index},"
            f"{r['eac_classification']},{los},{_fmt(r['ssi'])}"
        )
    _write_csv(out_dir / "sweep.csv", lines)
    _emit_summary(out_dir, "summary.json", {"sweep": rows})
    return EXIT_OK


_AXES = ("hv", "xi", "fault-voltage")
_FAULTED_OVERRIDES = {"xi": "virtual_reactance", "fault-voltage": "sg_voltage"}


def _apply_override(doc: ScenarioDocument, axis: str, value: float) -> ScenarioDocument:
    if axis == "hv":
        return replace(doc, vsg=replace(doc.vsg, inertia=value))
    if axis in _FAULTED_OVERRIDES:
        faulted = replace(doc.scenario.faulted, **{_FAULTED_OVERRIDES[axis]: value})
        return replace(doc, scenario=replace(doc.scenario, faulted=faulted))
    raise SchemaError(f"unsupported axis {axis!r}")


_COMMANDS = {
    "reduce": _cmd_reduce,
    "index": _cmd_index,
    "eac": _cmd_eac,
    "simulate": _cmd_simulate,
    "region": _cmd_region,
    "design": _cmd_design,
    "sweep": _cmd_sweep,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="syncstab",
        description="Transient synchronization stability analysis of a "
                    "grid-forming / synchronous-machine pair",
    )
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("scenario", help="path to a scenario document (JSON)")
    parser.add_argument("--hv", type=float, help="override the grid-forming inertia [s]")
    parser.add_argument("--xi", type=float, help="override the fault-on virtual reactance [pu]")
    parser.add_argument("--fault-voltage", type=float, help="override the fault voltage [pu]")
    parser.add_argument("--dt", type=float, help="override the integration step [s]")
    parser.add_argument("--out", default=".", help="output directory (default: cwd)")
    parser.add_argument("--axis", choices=_AXES,
                        help="sweep parameter axis")
    parser.add_argument("--values", help="comma-separated sweep values")
    parser.add_argument("--verify", action="store_true",
                        help="design: exit 4 if the designed system loses synchronism")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        text = Path(args.scenario).read_text()
    except OSError as exc:
        print(f"cannot read scenario: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    try:
        doc = parse_scenario(text)
        for axis in _AXES:
            value = getattr(args, axis.replace("-", "_"))
            if value is not None:
                doc = _apply_override(doc, axis, _number(value, "--" + axis))
        if args.dt is not None:
            doc = replace(doc, dt=_number(args.dt, "--dt"))
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        return _COMMANDS[args.command](doc, out_dir, args)
    except SchemaError as exc:
        print(f"schema error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except (ValueError, MemoryError, OverflowError) as exc:
        # ModelError and the remaining precondition failures (grid sizes,
        # steps), and step counts too large to allocate or to represent
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except (IntegrationDivergedError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
