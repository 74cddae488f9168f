"""
Command-line front end: scenario ingestion, dispatch, CSV/JSON emission.

Scenario documents are JSON with unit-suffixed keys; unknown keys are
rejected.  Exit codes: 0 ok, 2 schema, 3 invariant, 4 instability where the
command requires stability, 5 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
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
    StageCondition,
    Trajectory,
    _apply_stage,
    _resolve_stages,
    _Stage,
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
    t_max: float
    dt: float


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


# -- schema helpers ----------------------------------------------------------

def _as_dict(obj, path: str) -> dict:
    if not isinstance(obj, dict):
        raise SchemaError(f"{path}: expected an object")
    return obj

def _check_keys(obj: dict, path: str, required: set[str], optional: set[str] = frozenset()):
    unknown = set(obj) - required - set(optional)
    if unknown:
        raise SchemaError(f"{path}: unknown key(s) {sorted(unknown)}")
    missing = required - set(obj)
    if missing:
        raise SchemaError(f"{path}: missing required field {sorted(missing)}")

def _number(obj: dict, path: str, key: str) -> float:
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(f"{path}.{key}: expected a number")
    try:
        number = float(value)
    except OverflowError:  # an integer beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise SchemaError(f"{path}.{key}: expected a finite number, got {number!r}")
    return number

def _integer(obj: dict, path: str, key: str) -> int:
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(f"{path}.{key}: expected an integer")
    return value

def _exclusive_reactance(
    obj: dict, path: str, henry_key: str, pu_key: str, base: BaseQuantities,
    required: bool, default: float = 0.0,
) -> float:
    has_h, has_pu = henry_key in obj, pu_key in obj
    if has_h and has_pu:
        raise SchemaError(f"{path}: {henry_key} and {pu_key} are mutually exclusive")
    if has_h:
        return reactance_from_inductance(_number(obj, path, henry_key), base)
    if has_pu:
        return _number(obj, path, pu_key)
    if required:
        raise SchemaError(f"{path}: one of {henry_key} or {pu_key} is required")
    return default


def _parse_stage(obj, path: str) -> StageCondition:
    d = _as_dict(obj, path)
    _check_keys(d, path, set(), {"sg_voltage_pu", "virtual_reactance_pu", "power_reference_pu"})
    return StageCondition(
        sg_voltage=_number(d, path, "sg_voltage_pu") if "sg_voltage_pu" in d else None,
        virtual_reactance=(
            _number(d, path, "virtual_reactance_pu") if "virtual_reactance_pu" in d else None
        ),
        power_ref=_number(d, path, "power_reference_pu") if "power_reference_pu" in d else None,
    )


def parse_scenario(text: str) -> ScenarioDocument:
    """Validate and convert a scenario document; all reactances end up in pu."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"not valid JSON: {exc.msg} (line {exc.lineno}, column {exc.colno})")
    except ValueError as exc:  # e.g. an integer past Python's digit limit
        raise SchemaError(f"not valid JSON: {exc}")
    top = _as_dict(raw, "document")
    _check_keys(top, "document", {"base", "vsg", "sg", "load", "scenario", "sim"},
                {"region", "design"})

    b = _as_dict(top["base"], "base")
    _check_keys(b, "base", {"rated_voltage_v", "rated_power_w", "rated_frequency_hz"})
    base = BaseQuantities(
        rated_voltage=_number(b, "base", "rated_voltage_v"),
        rated_power=_number(b, "base", "rated_power_w"),
        rated_frequency=_number(b, "base", "rated_frequency_hz"),
    )

    v = _as_dict(top["vsg"], "vsg")
    _check_keys(
        v, "vsg",
        {"inertia_s", "damping_pu", "internal_voltage_pu", "power_reference_pu"},
        {"rated_power_pu", "line_inductance_h", "line_reactance_pu",
         "virtual_inductance_h", "virtual_reactance_pu"},
    )
    vsg = VsgParams(
        inertia=_number(v, "vsg", "inertia_s"),
        damping=_number(v, "vsg", "damping_pu"),
        power_ref=_number(v, "vsg", "power_reference_pu"),
        internal_voltage=_number(v, "vsg", "internal_voltage_pu"),
        line_reactance=_exclusive_reactance(
            v, "vsg", "line_inductance_h", "line_reactance_pu", base, required=True
        ),
        virtual_reactance=_exclusive_reactance(
            v, "vsg", "virtual_inductance_h", "virtual_reactance_pu", base, required=False
        ),
        rated_power=_number(v, "vsg", "rated_power_pu") if "rated_power_pu" in v else 1.0,
    )

    g = _as_dict(top["sg"], "sg")
    _check_keys(
        g, "sg",
        {"inertia_s", "damping_pu", "mechanical_power_pu", "voltage_pu"},
        {"rated_power_pu", "line_inductance_h", "line_reactance_pu"},
    )
    sg = SgParams(
        inertia=_number(g, "sg", "inertia_s"),
        damping=_number(g, "sg", "damping_pu"),
        mech_power=_number(g, "sg", "mechanical_power_pu"),
        voltage=_number(g, "sg", "voltage_pu"),
        line_reactance=_exclusive_reactance(
            g, "sg", "line_inductance_h", "line_reactance_pu", base, required=True
        ),
        rated_power=_number(g, "sg", "rated_power_pu") if "rated_power_pu" in g else 1.0,
    )

    ld = _as_dict(top["load"], "load")
    _check_keys(ld, "load", {"resistance_pu"})
    load = LoadParams(resistance=_number(ld, "load", "resistance_pu"))

    sc = _as_dict(top["scenario"], "scenario")
    _check_keys(sc, "scenario", {"t_fault_s", "prefault", "faulted"}, {"t_clear_s", "postfault"})
    sim = _as_dict(top["sim"], "sim")
    _check_keys(sim, "sim", {"dt_s", "t_end_s"})
    scenario = FaultScenario(
        t_end=_number(sim, "sim", "t_end_s"),
        t_fault=_number(sc, "scenario", "t_fault_s"),
        prefault=_parse_stage(sc["prefault"], "scenario.prefault"),
        faulted=_parse_stage(sc["faulted"], "scenario.faulted"),
        t_clear=_number(sc, "scenario", "t_clear_s") if "t_clear_s" in sc else None,
        postfault=(
            _parse_stage(sc["postfault"], "scenario.postfault") if "postfault" in sc else None
        ),
    )

    region = None
    if "region" in top:
        r = _as_dict(top["region"], "region")
        _check_keys(
            r, "region",
            {"delta_min_rad", "delta_max_rad", "domega_min_pu", "domega_max_pu",
             "n_delta", "n_domega"},
            {"t_max_s", "dt_s"},
        )
        region = RegionSpec(
            delta_min=_number(r, "region", "delta_min_rad"),
            delta_max=_number(r, "region", "delta_max_rad"),
            dw_min=_number(r, "region", "domega_min_pu"),
            dw_max=_number(r, "region", "domega_max_pu"),
            n_delta=_integer(r, "region", "n_delta"),
            n_dw=_integer(r, "region", "n_domega"),
            t_max=_number(r, "region", "t_max_s") if "t_max_s" in r else 60.0,
            dt=_number(r, "region", "dt_s") if "dt_s" in r else 1e-3,
        )

    design_spec = None
    if "design" in top:
        d = _as_dict(top["design"], "design")
        _check_keys(d, "design", {"current_limit_pu"})
        design_spec = DesignSpec(current_limit=_number(d, "design", "current_limit_pu"))

    return ScenarioDocument(
        base=base, vsg=vsg, sg=sg, load=load, scenario=scenario,
        dt=_number(sim, "sim", "dt_s"), region=region, design=design_spec,
    )


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

def _stages(doc: ScenarioDocument) -> dict[str, _Stage]:
    stages = _resolve_stages(doc.vsg, doc.sg, doc.load, doc.base, doc.scenario)
    return {stage.name: stage for stage in stages}

def _model_dict(model: RelativeSwingModel) -> dict:
    return {
        "inertia_s": model.inertia,
        "damping_pu": model.damping,
        "power_ref_pu": model.power_ref,
        "power_max_pu": model.power_max,
        "omega_ref_rad_s": model.omega_ref,
    }


def _assess(doc: ScenarioDocument, los_time: float | None, ssi: float) -> dict:
    """The per-run verdicts a summary carries, in summary key order.

    The index is null when the fault-on stage transfers no power (a bolted
    fault), where it is undefined although the run itself is well defined.
    """
    stages = _stages(doc)
    fault = stages["faulted"].model
    eq = eqm.find_equilibria(fault)
    eac = None
    pre = eqm.find_equilibria(stages["prefault"].model)
    if pre.exists:
        eac = classify_first_swing(fault, pre.sep)
    return {
        "stability_index": None if fault.power_max == 0.0 else eqm.stability_index(fault),
        "sep_exists": eq.exists,
        "sep_rad": eq.sep if eq.exists else None,
        "uep_forward_rad": eq.uep_forward if eq.exists else None,
        "uep_backward_rad": eq.uep_backward if eq.exists else None,
        "eac_classification": eac.classification.value if eac else None,
        "accel_area_pu_rad": None if eac is None or math.isnan(eac.accel_area) else eac.accel_area,
        "decel_area_pu_rad": None if eac is None or math.isnan(eac.decel_area) else eac.decel_area,
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
        eq = eqm.find_equilibria(model)
        gamma = eqm.scr(vsg, sg)
        payload[name] = {
            "stability_index": eqm.stability_index(model),
            "index_scr_form": eqm.stability_index_from_scr(
                gamma, vsg.virtual_reactance, model.power_ref,
                vsg.internal_voltage, sg.voltage,
            ),
            "scr": gamma,
            "sep_exists": eq.exists,
            "sep_rad": eq.sep if eq.exists else None,
            "uep_forward_rad": eq.uep_forward if eq.exists else None,
            "uep_backward_rad": eq.uep_backward if eq.exists else None,
        }
    _emit_summary(out_dir, "summary.json", payload)
    return EXIT_OK


def _cmd_eac(doc: ScenarioDocument, out_dir: Path, args) -> int:
    stages = _stages(doc)
    pre = eqm.find_equilibria(stages["prefault"].model)
    if not pre.exists:
        raise ModelError("the pre-fault stage admits no stable equilibrium")
    result = classify_first_swing(stages["faulted"].model, pre.sep)
    payload = {
        "initial_angle_rad": pre.sep,
        "classification": result.classification.value,
        "accel_area_pu_rad": None if math.isnan(result.accel_area) else result.accel_area,
        "decel_area_pu_rad": None if math.isnan(result.decel_area) else result.decel_area,
        "sep_rad": None if math.isnan(result.sep_angle) else result.sep_angle,
        "peak_rad": result.peak_angle,
        "direction": "forward" if result.forward else "backward",
    }
    _emit_summary(out_dir, "summary.json", payload)
    return EXIT_OK


def _cmd_simulate(doc: ScenarioDocument, out_dir: Path, args) -> int:
    traj = simulate_reduced(doc.vsg, doc.sg, doc.load, doc.base, doc.scenario, doc.dt)
    _write_trajectory_csv(out_dir / "trajectory.csv", traj)
    payload = _assess(doc, traj.los_time, traj.ssi)
    payload["max_current_pu"] = float(traj.current.max())
    payload["final_delta_rad"] = float(traj.delta[-1])
    _emit_summary(out_dir, "summary.json", payload)
    return EXIT_OK


def _cmd_region(doc: ScenarioDocument, out_dir: Path, args) -> int:
    model = _stages(doc)["faulted"].model
    eq = eqm.find_equilibria(model)
    if not eq.exists:
        raise ModelError("no stable equilibrium; the stability region is undefined")
    window = doc.region or RegionSpec(
        delta_min=eq.uep_backward - 0.5, delta_max=eq.uep_forward + 0.5,
        dw_min=-0.05, dw_max=0.05, n_delta=41, n_dw=41, t_max=60.0, dt=1e-3,
    )
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
    _, fault_sg = _apply_stage(doc.vsg, doc.sg, doc.scenario.faulted)
    result = run_design(DesignInput(
        sg=doc.sg, vsg=doc.vsg, load=doc.load,
        fault_voltage=fault_sg.voltage, current_limit=doc.design.current_limit,
    ))
    before = simulate_reduced(doc.vsg, doc.sg, doc.load, doc.base, doc.scenario, doc.dt)
    _write_trajectory_csv(out_dir / "before.csv", before)
    after = simulate_reduced(
        result.apply(doc.vsg), doc.sg, doc.load, doc.base, doc.scenario, doc.dt
    )
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
    try:
        values = [float(v) for v in args.values.split(",") if v.strip()]
    except ValueError:
        raise SchemaError(f"--values: expected comma-separated numbers, got {args.values!r}")
    for value in values:
        _check_finite("--values", value)
    if not values:
        raise SchemaError("--values: at least one value required")
    rows = []
    for value in values:
        swept = _apply_override(doc, args.axis, value)
        a = _assess(swept, *simulate_outcome(
            swept.vsg, swept.sg, swept.load, swept.base, swept.scenario, swept.dt
        ))
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


def _check_finite(flag: str, value: float) -> None:
    if not math.isfinite(value):
        raise SchemaError(f"{flag}: expected a finite number, got {value!r}")


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
    parser.add_argument("--axis", choices=["hv", "xi", "fault-voltage"],
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
        for flag in ("hv", "xi", "fault_voltage", "dt"):
            value = getattr(args, flag)
            if value is not None:
                _check_finite("--" + flag.replace("_", "-"), value)
        if args.hv is not None:
            doc = _apply_override(doc, "hv", args.hv)
        if args.xi is not None:
            doc = _apply_override(doc, "xi", args.xi)
        if args.fault_voltage is not None:
            doc = _apply_override(doc, "fault-voltage", args.fault_voltage)
        if args.dt is not None:
            doc = replace(doc, dt=args.dt)
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        return _COMMANDS[args.command](doc, out_dir, args)
    except SchemaError as exc:
        print(f"schema error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except ModelError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except ValueError as exc:  # remaining precondition failures (grid sizes, steps)
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except (IntegrationDivergedError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
