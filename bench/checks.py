"""Checks on every artifact a CLI call leaves, and the workload's artifact digest.

A call passes when its exit code is one the command defines for it, its
summary.json parses and carries the command's keys, and each CSV has the
header, row count and values the call implies.  Extra keys and files are
allowed, so that added diagnostics do not count as failures; every file is
hashed either way.
"""

from __future__ import annotations

import io
import itertools
import json
import math
from pathlib import Path

import numpy as np

from workloads import REGION_CELLS, Call

CHUNK_ROWS = 8192
TRAJECTORY_HEADER = "t_s,delta_vg_rad,domega_vg_pu,p_syn_pu,i_v_pu"

MODEL_KEYS = {"inertia_s", "damping_pu", "power_ref_pu", "power_max_pu", "omega_ref_rad_s"}
INDEX_KEYS = {
    "stability_index", "index_scr_form", "scr", "sep_exists",
    "sep_rad", "uep_forward_rad", "uep_backward_rad",
}
ASSESS_KEYS = {
    "stability_index", "sep_exists", "sep_rad", "uep_forward_rad", "uep_backward_rad",
    "eac_classification", "accel_area_pu_rad", "decel_area_pu_rad", "los_time_s", "ssi",
}
SUMMARY_KEYS = {
    "eac": {
        "initial_angle_rad", "classification", "accel_area_pu_rad", "decel_area_pu_rad",
        "sep_rad", "peak_rad", "direction",
    },
    "simulate": ASSESS_KEYS | {"max_current_pu", "final_delta_rad"},
    "region": {
        "sep_rad", "uep_forward_rad", "uep_backward_rad", "area_estimate_rad_pu",
        "stable_cells", "total_cells",
    },
    "design": {
        "inertia_s", "damping_pu", "virtual_reactance_pu", "binding_constraint",
        "predicted_peak_current_pu", "predicted_index", "before_los_time_s",
        "after_los_time_s", "after_max_current_pu",
    },
    "sweep": {"sweep"},
}
SWEEP_ROW_KEYS = {"axis", "value", "stability_index", "eac_classification", "los_time_s", "ssi"}
ARTIFACTS = {
    "reduce": ("summary.json",),
    "index": ("summary.json",),
    "eac": ("summary.json",),
    "simulate": ("summary.json", "trajectory.csv"),
    "region": ("summary.json", "boundary.csv", "grid.csv"),
    "design": ("summary.json", "before.csv", "after.csv"),
    "sweep": ("summary.json", "sweep.csv"),
}


class ArtifactError(Exception):
    pass


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ArtifactError(message)


def _require_keys(obj: dict, keys: set[str], where: str) -> None:
    _require(isinstance(obj, dict), f"{where}: expected an object")
    lacking = keys - set(obj)
    _require(not lacking, f"{where}: missing keys {sorted(lacking)}")


def _table(path: Path, header: str, columns: int, column_0: set | None = None) -> tuple[int, float]:
    """Check a numeric CSV after its mandatory header; returns (rows, first value).

    Reads CHUNK_ROWS rows at a time, so that the checker's memory stays well
    below the program's and peak_rss_mb measures the program.  column_0, when
    given, collects the distinct values of the first column.
    """
    rows, first = 0, math.nan
    with path.open("rb") as f:
        head = f.readline()
        _require(head == f"{header}\n".encode(),
                 f"{path.name}: header {head[:80]!r}, expected {header!r}")
        while chunk := list(itertools.islice(f, CHUNK_ROWS)):
            _require(chunk[-1].endswith(b"\n"), f"{path.name}: no final newline")
            block = np.loadtxt(io.BytesIO(b"".join(chunk)), delimiter=",", ndmin=2)
            _require(block.shape[1] == columns,
                     f"{path.name}: {block.shape[1]} columns, expected {columns}")
            _require(bool(np.isfinite(block).all()), f"{path.name}: non-finite values")
            if rows == 0:
                first = float(block[0, 0])
            if column_0 is not None:
                column_0.update(block[:, 0].tolist())
            rows += len(block)
    return rows, first


def _trajectory(path: Path, doc: dict) -> None:
    sim = doc["sim"]
    n_rows = round(sim["t_end_s"] / sim["dt_s"]) + 1
    rows, first = _table(path, TRAJECTORY_HEADER, 5)
    _require(rows == n_rows, f"{path.name}: {rows} rows, expected {n_rows}")
    _require(first == 0.0, f"{path.name}: first time {first}, expected 0")


def _check_summary(command: str, summary, doc: dict) -> None:
    if command in ("reduce", "index"):
        stages = {"prefault", "faulted"}
        if "postfault" in doc["scenario"]:
            stages.add("postfault")
        _require_keys(summary, stages, "summary.json")
        for stage in stages:
            keys = MODEL_KEYS if command == "reduce" else INDEX_KEYS
            _require_keys(summary[stage], keys, f"summary.json[{stage}]")
    else:
        _require_keys(summary, SUMMARY_KEYS[command], "summary.json")


def _check_sweep(call: Call, summary: dict, path: Path) -> None:
    rows = summary["sweep"]
    _require(isinstance(rows, list) and len(rows) == len(call.values),
             f"summary.json: {len(rows)} sweep rows, expected {len(call.values)}")
    for row in rows:
        _require_keys(row, SWEEP_ROW_KEYS, "summary.json[sweep]")
    lines = path.read_text().splitlines()
    _require(lines[0] == "axis,value,stability_index,eac_classification,los_time_s,ssi",
             f"sweep.csv: header {lines[0][:80]!r}")
    _require(len(lines) - 1 == len(call.values),
             f"sweep.csv: {len(lines) - 1} rows, expected {len(call.values)}")
    for line, value in zip(lines[1:], call.values):
        fields = line.split(",")
        _require(len(fields) == 6, f"sweep.csv: {len(fields)} fields in {line[:80]!r}")
        _require(float(fields[1]) == value, f"sweep.csv: value {fields[1]}, expected {value}")
        _require(math.isfinite(float(fields[2])) and math.isfinite(float(fields[5])),
                 f"sweep.csv: non-finite index or ssi in {line[:80]!r}")


def _check_region(summary: dict, doc: dict, grid: Path, boundary: Path) -> None:
    region = doc.get("region")
    n_delta, n_dw = (region["n_delta"], region["n_domega"]) if region else REGION_CELLS
    n_cells = n_delta * n_dw
    lines = grid.read_text().splitlines()
    _require(lines[0] == "delta_vg_rad,domega_vg_pu,label", f"grid.csv: header {lines[0][:80]!r}")
    labels = [line.rsplit(",", 1)[-1] for line in lines[1:]]
    _require(len(labels) == n_cells, f"grid.csv: {len(labels)} rows, expected {n_cells}")
    _require(set(labels) <= {"stable", "unstable"}, "grid.csv: unknown label")
    stable = labels.count("stable")
    _require(stable == summary["stable_cells"],
             f"grid.csv: {stable} stable rows, summary says {summary['stable_cells']}")
    _require(summary["total_cells"] == n_cells,
             f"summary.json: total_cells {summary['total_cells']}, expected {n_cells}")
    branches = set()
    _table(boundary, "branch,delta_vg_rad,domega_vg_pu", 3, branches)
    _require(branches == {0.0, 1.0, 2.0, 3.0},
             f"boundary.csv: branches {sorted(branches)}, expected 4")


def _check_artifacts(call: Call, doc: dict, files: dict[str, Path], exit_code: int) -> None:
    for name in ARTIFACTS[call.command]:
        _require(name in files, f"{name} not written")
    try:
        summary = json.loads(files["summary.json"].read_bytes())
    except ValueError as exc:
        raise ArtifactError(f"summary.json does not parse: {exc}") from None
    _check_summary(call.command, summary, doc)
    if call.command == "simulate":
        _trajectory(files["trajectory.csv"], doc)
    elif call.command == "design":
        _trajectory(files["before.csv"], doc)
        _trajectory(files["after.csv"], doc)
        lost = summary["after_los_time_s"] is not None
        _require((exit_code == 4) == lost,
                 f"design --verify exited {exit_code} with after_los_time_s "
                 f"{summary['after_los_time_s']}")
    elif call.command == "sweep":
        _check_sweep(call, summary, files["sweep.csv"])
    elif call.command == "region":
        _check_region(summary, doc, files["grid.csv"], files["boundary.csv"])


def check_call(
    call: Call, doc: dict, out_dir: Path, exit_code, digest, label: str
) -> str | None:
    """Check one call's exit code and artifacts; hash the artifacts into digest.

    Returns None when the call passed, else the reason it failed.
    """
    files = {}
    if out_dir.is_dir():
        for path in sorted(out_dir.iterdir()):
            files[path.name] = path
            digest.update(f"{label}/{path.name}\0{path.stat().st_size}\0".encode())
            with path.open("rb") as f:
                while block := f.read(1 << 20):
                    digest.update(block)
    if exit_code not in call.exit_codes:
        return f"{label}: exit code {exit_code!r}, expected one of {sorted(call.exit_codes)}"
    try:
        _check_artifacts(call, doc, files, exit_code)
    except (ArtifactError, ValueError, KeyError, TypeError, IndexError) as exc:
        return f"{label}: {type(exc).__name__}: {exc}"
    return None
