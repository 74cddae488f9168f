"""Scenario ingestion, command dispatch, artifacts, and exit codes."""

import copy
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import syncstab
from syncstab.cli import (
    EXIT_INVARIANT,
    EXIT_OK,
    EXIT_SCHEMA,
    EXIT_UNSTABLE,
    TRAJECTORY_HEADER,
    main,
    parse_scenario,
)
from conftest import GOLDEN_SCENARIO


def _golden() -> dict:
    return json.loads(GOLDEN_SCENARIO.read_text())


def _write(tmp_path, doc: dict, name="case.scenario"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def _fast(doc: dict, t_end=2.0, dt=1e-3) -> dict:
    doc["sim"] = {"dt_s": dt, "t_end_s": t_end}
    return doc


# -- parsing --------------------------------------------------------------------

def test_parse_golden_scenario():
    doc = parse_scenario(GOLDEN_SCENARIO.read_text())
    assert doc.base.rated_voltage == 95.22
    assert doc.vsg.inertia == 20.0
    assert doc.vsg.line_reactance == pytest.approx(0.3187728650346255, rel=1e-14)
    assert doc.vsg.virtual_reactance == pytest.approx(0.05024137546741379, rel=1e-14)
    assert doc.sg.line_reactance == pytest.approx(0.10048275093482759, rel=1e-14)
    assert doc.scenario.t_fault == 0.5
    assert doc.scenario.prefault.virtual_reactance == 0.0
    assert doc.scenario.faulted.sg_voltage == 0.2
    assert doc.scenario.faulted.virtual_reactance is None  # inherits the converted value
    assert doc.dt == 1e-4
    assert doc.design.current_limit == 1.8


def test_parse_missing_required_field(tmp_path, capsys):
    doc = _golden()
    del doc["sg"]["inertia_s"]
    rc = main(["index", _write(tmp_path, doc), "--out", str(tmp_path)])
    assert rc == EXIT_SCHEMA
    assert "inertia_s" in capsys.readouterr().err


@pytest.mark.parametrize("command,section,key,literal", [
    ("simulate", "sim", "t_end_s", "Infinity"),
    ("simulate", "sim", "t_end_s", "1e400"),
    ("simulate", "sim", "dt_s", "NaN"),
    ("index", "vsg", "inertia_s", "NaN"),
    pytest.param("index", "sg", "voltage_pu", "1" + "0" * 400,
                 id="index-sg-voltage_pu-1e400int"),
])
def test_parse_rejects_non_finite_numbers(tmp_path, capsys, command, section, key, literal):
    doc = _golden()
    doc[section][key] = "@"
    path = tmp_path / "case.scenario"
    path.write_text(json.dumps(doc).replace('"@"', literal))
    rc = main([command, str(path), "--out", str(tmp_path)])
    assert rc == EXIT_SCHEMA
    assert f"{section}.{key}: expected a finite number" in capsys.readouterr().err
    assert not (tmp_path / "summary.json").exists()


def test_parse_rejects_over_long_number(tmp_path, capsys):
    doc = _golden()
    doc["sim"]["t_end_s"] = "@"
    path = tmp_path / "case.scenario"
    path.write_text(json.dumps(doc).replace('"@"', "1" * 5000))
    rc = main(["simulate", str(path), "--out", str(tmp_path)])
    assert rc == EXIT_SCHEMA
    assert "schema error" in capsys.readouterr().err
    assert not (tmp_path / "summary.json").exists()


def test_parse_mutually_exclusive_reactance(tmp_path, capsys):
    doc = _golden()
    doc["sg"]["line_reactance_pu"] = 0.1005
    rc = main(["index", _write(tmp_path, doc), "--out", str(tmp_path)])
    assert rc == EXIT_SCHEMA
    assert "mutually exclusive" in capsys.readouterr().err


def _schema_document() -> dict:
    """table1 plus a region block and a post-fault stage: every section and stage."""
    doc = _golden()
    doc["scenario"]["t_clear_s"] = 0.7
    doc["scenario"]["postfault"] = {
        "sg_voltage_pu": 1.0, "virtual_reactance_pu": 0.0, "power_reference_pu": 0.3,
    }
    doc["region"] = {
        "delta_min_rad": -3.2, "delta_max_rad": 3.6, "domega_min_pu": -0.02,
        "domega_max_pu": 0.02, "n_delta": 11, "n_domega": 11, "t_max_s": 40.0, "dt_s": 2e-3,
    }
    return doc


_SCHEMA_DOC = _schema_document()
# keys a document may leave out; every stage-block key is optional too
_OPTIONAL = {
    ("region",), ("design",), ("vsg", "rated_power_pu"), ("sg", "rated_power_pu"),
    ("scenario", "t_clear_s"), ("scenario", "postfault"),
    ("region", "t_max_s"), ("region", "dt_s"),
}
# (section, henry key, pu key, required); table1 gives each in henries
_UNIT_PAIRS = [
    ("vsg", "line_inductance_h", "line_reactance_pu", True),
    ("vsg", "virtual_inductance_h", "virtual_reactance_pu", False),
    ("sg", "line_inductance_h", "line_reactance_pu", True),
]
_DELETE = object()


def _paths(obj: dict, prefix=()):
    for key, value in obj.items():
        yield prefix + (key,), value
        if isinstance(value, dict):
            yield from _paths(value, prefix + (key,))


def _mutated(path, value=_DELETE) -> dict:
    doc = copy.deepcopy(_SCHEMA_DOC)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value is _DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


def _schema_cases():
    yield pytest.param([_SCHEMA_DOC], "document: expected an object", id="document-not-object")
    yield pytest.param({**_SCHEMA_DOC, "mystery": 1}, "document: unknown key(s) ['mystery']",
                       id="document-unknown-key")
    henry_keys = {(section, henry) for section, henry, _, _ in _UNIT_PAIRS}
    for path, value in _paths(_SCHEMA_DOC):
        name, where = "/".join(path), ".".join(path[:-1]) or "document"
        if isinstance(value, dict):
            yield pytest.param(_mutated(path, "x"), f"{'.'.join(path)}: expected an object",
                               id=f"{name}-not-object")
            yield pytest.param(_mutated(path, {**value, "mystery": 1}),
                               f"{'.'.join(path)}: unknown key(s) ['mystery']",
                               id=f"{name}-unknown-key")
        else:
            kind = "an integer" if path[-1] in ("n_delta", "n_domega") else "a number"
            yield pytest.param(_mutated(path, "x"), f"{'.'.join(path)}: expected {kind}",
                               id=f"{name}-string")
        if path not in _OPTIONAL and path not in henry_keys and len(path) < 3:
            yield pytest.param(_mutated(path), f"{where}: missing required field ['{path[-1]}']",
                               id=f"{name}-missing")
    for section, henry, pu, required in _UNIT_PAIRS:
        yield pytest.param(_mutated((section, pu), 0.1),
                           f"{section}: {henry} and {pu} are mutually exclusive",
                           id=f"{section}/{henry}-both-units")
        if required:
            yield pytest.param(_mutated((section, henry)),
                               f"{section}: one of {henry} or {pu} is required",
                               id=f"{section}/{henry}-neither-unit")


def test_schema_document_is_accepted(tmp_path):
    assert main(["index", _write(tmp_path, _SCHEMA_DOC), "--out", str(tmp_path)]) == EXIT_OK


@pytest.mark.parametrize("doc,message", list(_schema_cases()))
def test_schema_error_messages(tmp_path, capsys, doc, message):
    rc = main(["index", _write(tmp_path, doc), "--out", str(tmp_path)])
    assert rc == EXIT_SCHEMA
    assert capsys.readouterr().err == f"schema error: {message}\n"


def test_parse_unknown_key_rejected(tmp_path):
    doc = _golden()
    doc["vsg"]["mystery_pu"] = 1.0
    assert main(["index", _write(tmp_path, doc), "--out", str(tmp_path)]) == EXIT_SCHEMA


def test_parse_invalid_json_reports_position(tmp_path, capsys):
    path = tmp_path / "broken.scenario"
    path.write_text("{ not json }")
    rc = main(["index", str(path), "--out", str(tmp_path)])
    assert rc == EXIT_SCHEMA
    assert "line" in capsys.readouterr().err


def test_invariant_violation_exits_3(tmp_path):
    doc = _golden()
    doc["sg"]["inertia_s"] = -40.0
    assert main(["index", _write(tmp_path, doc), "--out", str(tmp_path)]) == EXIT_INVARIANT


def _limit_address_space():
    # 4 GiB, so the trajectory allocation below fails on any host
    resource.setrlimit(resource.RLIMIT_AS, (4 << 30, 4 << 30))


@pytest.mark.parametrize("dt", ["1e-14", "5e-324"])
def test_unrepresentable_step_count_exits_3(tmp_path, dt):
    # 1e-14 s asks for a 7.1 PiB trajectory; at 5e-324 s the step count
    # itself overflows to infinity
    proc = subprocess.run(
        [sys.executable, "-m", "syncstab.cli", "simulate", str(GOLDEN_SCENARIO),
         "--out", str(tmp_path), "--dt", dt],
        capture_output=True, text=True, timeout=120, preexec_fn=_limit_address_space,
        env={**os.environ, "PYTHONPATH": str(Path(syncstab.__file__).parents[1])},
    )
    assert proc.returncode == EXIT_INVARIANT
    assert proc.stderr.startswith("invariant violation: ")
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "summary.json").exists()


def test_region_zero_step_exits_3(tmp_path, capsys):
    doc = _schema_document()
    doc["region"]["dt_s"] = 0.0
    rc = main(["region", _write(tmp_path, doc), "--out", str(tmp_path)])
    assert rc == EXIT_INVARIANT
    assert capsys.readouterr().err == "invariant violation: dt must be positive, got 0.0\n"


@pytest.mark.parametrize("low, high", [("delta_min_rad", "delta_max_rad"),
                                       ("domega_min_pu", "domega_max_pu")])
def test_reversed_region_window_exits_2(tmp_path, capsys, low, high):
    doc = _schema_document()
    region = doc["region"]
    region[low], region[high] = region[high], region[low]
    rc = main(["region", _write(tmp_path, doc), "--out", str(tmp_path)])
    assert rc == EXIT_SCHEMA
    assert capsys.readouterr().err.startswith(f"schema error: region.{low}: ")
    assert not (tmp_path / "summary.json").exists()


@pytest.mark.parametrize("t_max, rc", [(0.0, EXIT_SCHEMA), (1e-3, EXIT_SCHEMA), (1.4e-3, EXIT_OK)])
def test_region_horizon_below_one_step_exits_2(tmp_path, capsys, t_max, rc):
    # region dt_s 2e-3: the grid takes round(t_max/dt) steps, 0 for 0.5 and 1 for 0.7
    doc = _schema_document()
    doc["region"]["t_max_s"] = t_max
    assert main(["region", _write(tmp_path, doc), "--out", str(tmp_path)]) == rc
    if rc == EXIT_SCHEMA:
        assert capsys.readouterr().err.startswith("schema error: region.t_max_s: ")
    assert (tmp_path / "summary.json").exists() == (rc == EXIT_OK)


@pytest.mark.parametrize("key", ["n_delta", "n_domega"])
def test_region_axis_below_two_points_exits_2(tmp_path, capsys, key):
    doc = _schema_document()
    doc["region"][key] = 1
    rc = main(["region", _write(tmp_path, doc), "--out", str(tmp_path)])
    assert rc == EXIT_SCHEMA
    assert capsys.readouterr().err.startswith(f"schema error: region.{key}: 1 points")
    assert not (tmp_path / "summary.json").exists()


@pytest.mark.parametrize("n, t_max, dt", [(2000, 60.0, 1e-3), (11, 60.0, 1e-300)])
def test_region_work_above_the_bound_exits_2(tmp_path, capsys, n, t_max, dt):
    # 4e6 cells x 6e4 steps, and 121 cells x 6e301 steps: refused before any
    # grid array is allocated
    doc = _schema_document()
    doc["region"].update(n_delta=n, n_domega=n, t_max_s=t_max, dt_s=dt)
    rc = main(["region", _write(tmp_path, doc), "--out", str(tmp_path)])
    assert rc == EXIT_SCHEMA
    assert capsys.readouterr().err.startswith(
        "schema error: region.n_delta, region.n_domega, region.t_max_s, region.dt_s: ")
    assert not (tmp_path / "summary.json").exists()


@pytest.mark.parametrize("n", [100_000, 2237])
def test_region_cells_above_the_bound_exits_2(tmp_path, capsys, n):
    # one step each, so within the cell-step bound: 1e10 cells, and 2237**2 just
    # past the 5e6-cell limit; refused before meshgrid allocates
    doc = _schema_document()
    doc["region"].update(n_delta=n, n_domega=n, t_max_s=1e-3, dt_s=1e-3)
    rc = main(["region", _write(tmp_path, doc), "--out", str(tmp_path)])
    assert rc == EXIT_SCHEMA
    assert capsys.readouterr().err.startswith(
        f"schema error: region.n_delta, region.n_domega: {n} x {n} cells exceed ")
    assert not (tmp_path / "summary.json").exists()


@pytest.mark.parametrize("command", [["simulate"], ["sweep", "--axis", "hv", "--values", "8,20"]])
@pytest.mark.parametrize("via", ["document", "--dt"])
def test_zero_step_horizon_exits_2(tmp_path, capsys, command, via):
    # round(10/50) is 0 steps, whether dt comes from the document or the flag
    doc, flags = _golden(), ["--dt", "50"]
    if via == "document":
        doc, flags = _fast(doc, t_end=10.0, dt=50.0), []
    rc = main([command[0], _write(tmp_path, doc), "--out", str(tmp_path), *command[1:], *flags])
    assert rc == EXIT_SCHEMA
    assert capsys.readouterr().err.startswith("schema error: sim.t_end_s: ")
    assert not (tmp_path / "summary.json").exists()


@pytest.mark.parametrize("command", ["reduce", "index", "eac"])
def test_blocks_a_command_does_not_read_are_not_checked(tmp_path, command):
    # a zero-step sim block and a reversed region window, neither read here
    doc = _fast(_schema_document(), t_end=10.0, dt=50.0)
    doc["region"]["delta_min_rad"], doc["region"]["delta_max_rad"] = 3.0, -3.0
    assert main([command, _write(tmp_path, doc), "--out", str(tmp_path)]) == EXIT_OK


def test_missing_file_exits_2(tmp_path):
    assert main(["index", str(tmp_path / "nope.scenario"), "--out", str(tmp_path)]) == EXIT_SCHEMA


# -- commands -------------------------------------------------------------------

def test_reduce_command_values(tmp_path, capsys):
    rc = main(["reduce", str(GOLDEN_SCENARIO), "--out", str(tmp_path)])
    assert rc == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["faulted"]["power_ref_pu"] == pytest.approx(-0.12, rel=1e-12)
    assert payload["faulted"]["power_max_pu"] == pytest.approx(0.42598782025825604, rel=1e-12)
    assert (tmp_path / "summary.json").exists()


def test_index_command_matched_design_reports_unity(tmp_path, capsys):
    doc = _golden()
    doc["vsg"]["inertia_s"] = 12.5
    doc["vsg"]["damping_pu"] = 6.25
    rc = main(["index", _write(tmp_path, doc), "--out", str(tmp_path)])
    assert rc == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["faulted"]["stability_index"] == 1.0
    assert payload["faulted"]["index_scr_form"] == pytest.approx(1.0, abs=1e-15)


def test_eac_command(tmp_path, capsys):
    rc = main(["eac", str(GOLDEN_SCENARIO), "--out", str(tmp_path)])
    assert rc == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["classification"] == "stable"
    assert payload["direction"] == "backward"
    assert payload["accel_area_pu_rad"] < payload["decel_area_pu_rad"]


def test_simulate_command_artifacts(tmp_path, capsys):
    doc = _fast(_golden(), t_end=2.0)
    rc = main(["simulate", _write(tmp_path, doc), "--out", str(tmp_path)])
    assert rc == EXIT_OK
    lines = (tmp_path / "trajectory.csv").read_text().splitlines()
    assert lines[0] == TRAJECTORY_HEADER
    assert len(lines) == 2002  # header + t_end/dt + 1 samples
    payload = json.loads((tmp_path / "summary.json").read_text())
    assert payload["los_time_s"] is None
    assert 0 < payload["ssi"] <= 1


def test_simulate_deterministic_output(tmp_path):
    doc = _fast(_golden(), t_end=1.0)
    path = _write(tmp_path, doc)
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    assert main(["simulate", path, "--out", str(out1)]) == EXIT_OK
    assert main(["simulate", path, "--out", str(out2)]) == EXIT_OK
    assert (out1 / "trajectory.csv").read_bytes() == (out2 / "trajectory.csv").read_bytes()
    assert (out1 / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()


def test_reduce_roundtrip_reproduces_index(tmp_path, capsys):
    # rebuild the reduced model from the printed fields and recompute the
    # index it implies; it must match the index command byte for byte
    rc = main(["reduce", str(GOLDEN_SCENARIO), "--out", str(tmp_path)])
    assert rc == EXIT_OK
    reduced = json.loads(capsys.readouterr().out)
    rc = main(["index", str(GOLDEN_SCENARIO), "--out", str(tmp_path)])
    assert rc == EXIT_OK
    index = json.loads(capsys.readouterr().out)
    for stage, fields in reduced.items():
        expected = 1.0 - abs(fields["power_ref_pu"]) / fields["power_max_pu"]
        assert index[stage]["stability_index"] == expected


def test_sweep_command(tmp_path, capsys):
    doc = _fast(_golden(), t_end=6.0)
    rc = main(["sweep", _write(tmp_path, doc), "--out", str(tmp_path),
               "--axis", "hv", "--values", "8,20,70"])
    assert rc == EXIT_OK
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert lines[0] == "axis,value,stability_index,eac_classification,los_time_s,ssi"
    assert len(lines) == 4
    payload = json.loads(capsys.readouterr().out)["sweep"]
    assert [row["value"] for row in payload] == [8.0, 20.0, 70.0]
    # the document damping stays fixed, so only the heavy case loses sync
    assert payload[0]["los_time_s"] is None
    assert payload[1]["los_time_s"] is None
    assert payload[2]["los_time_s"] is not None
    assert payload[2]["eac_classification"] == "no_sep"
    lam = [row["stability_index"] for row in payload]
    assert lam[0] > lam[1] > 0 > lam[2]


def test_bolted_fault_reports_null_index(tmp_path, capsys):
    # zero fault voltage leaves no power transfer: the index is undefined but
    # the run is not, so simulate and sweep succeed with a null index
    doc = _fast(_golden(), t_end=1.0)
    doc["scenario"]["faulted"]["sg_voltage_pu"] = 0.0
    path = _write(tmp_path, doc)
    rc = main(["simulate", path, "--out", str(tmp_path / "sim")])
    assert rc == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["stability_index"] is None
    assert payload["sep_exists"] is False
    rc = main(["sweep", str(GOLDEN_SCENARIO), "--out", str(tmp_path / "sweep"), "--dt", "1e-3",
               "--axis", "fault-voltage", "--values", "0,0.2"])
    assert rc == EXIT_OK
    rows = json.loads(capsys.readouterr().out)["sweep"]
    assert rows[0]["stability_index"] is None
    assert rows[1]["stability_index"] > 0
    lines = (tmp_path / "sweep" / "sweep.csv").read_text().splitlines()
    assert lines[1].split(",")[2] == ""
    assert float(lines[2].split(",")[2]) == rows[1]["stability_index"]
    # the index itself stays undefined for the commands that report it
    assert main(["index", path, "--out", str(tmp_path / "index")]) == EXIT_INVARIANT


def test_stage_with_both_powers_zero(tmp_path, capsys):
    # H_v = 12 s matches the bolted fault's net power (40*0.3 = 12*1), so the
    # fault-on stage has neither reference nor transfer: every angle is an
    # equilibrium.  reduce reports the stage; the commands that need its
    # equilibria refuse it with that reason, not with the index's.
    args = [str(GOLDEN_SCENARIO), "--hv", "12", "--fault-voltage", "0", "--dt", "1e-3"]
    assert main(["reduce", *args, "--out", str(tmp_path / "reduce")]) == EXIT_OK
    faulted = json.loads(capsys.readouterr().out)["faulted"]
    assert faulted["power_ref_pu"] == faulted["power_max_pu"] == 0.0
    for command in ("index", "eac", "simulate", "region"):
        assert main([command, *args, "--out", str(tmp_path / command)]) == EXIT_INVARIANT
        assert ("invariant violation: every angle is an equilibrium (both powers zero)"
                in capsys.readouterr().err.splitlines()), command


def test_sweep_requires_axis_and_values(tmp_path):
    assert main(["sweep", str(GOLDEN_SCENARIO), "--out", str(tmp_path)]) == EXIT_SCHEMA


def test_dt_flag_changes_sampling(tmp_path):
    doc = _fast(_golden(), t_end=1.0)
    path = _write(tmp_path, doc)
    assert main(["simulate", path, "--out", str(tmp_path), "--dt", "0.002"]) == EXIT_OK
    lines = (tmp_path / "trajectory.csv").read_text().splitlines()
    assert len(lines) == 502  # header + 500 steps + initial sample


def test_override_flags_change_results(tmp_path, capsys):
    rc = main(["index", str(GOLDEN_SCENARIO), "--out", str(tmp_path), "--hv", "12.5"])
    assert rc == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["faulted"]["stability_index"] == 1.0
    rc = main(["index", str(GOLDEN_SCENARIO), "--out", str(tmp_path),
               "--fault-voltage", "0.5"])
    assert rc == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["faulted"]["stability_index"] > 0.71830180513788


def test_design_command(tmp_path, capsys):
    doc = _fast(_golden(), t_end=4.0)
    rc = main(["design", _write(tmp_path, doc), "--out", str(tmp_path), "--verify"])
    assert rc == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["inertia_s"] == pytest.approx(12.5, rel=1e-12)
    assert payload["predicted_index"] == 1.0
    assert payload["after_los_time_s"] is None
    assert payload["after_max_current_pu"] <= 1.02 * 1.8
    assert (tmp_path / "before.csv").exists()
    assert (tmp_path / "after.csv").exists()


def test_design_verify_flags_unstable_postfault(tmp_path):
    # an absurd post-clearing reference drives the designed pair back out of
    # step; --verify must report that as exit 4
    doc = _fast(_golden(), t_end=4.0)
    doc["scenario"]["t_clear_s"] = 1.0
    doc["scenario"]["postfault"] = {"sg_voltage_pu": 1.0, "power_reference_pu": 5.0}
    rc = main(["design", _write(tmp_path, doc), "--out", str(tmp_path), "--verify"])
    assert rc == EXIT_UNSTABLE


def test_design_refuses_a_bolted_fault_as_its_input(tmp_path, capsys):
    # the design's input, not the index it would compute, names the fault voltage
    rc = main(["design", str(GOLDEN_SCENARIO), "--out", str(tmp_path), "--dt", "1e-3",
               "--fault-voltage", "0"])
    assert rc == EXIT_INVARIANT
    assert capsys.readouterr().err == (
        "invariant violation: fault_voltage must lie in (0, 1.0], got 0.0\n")
    assert not (tmp_path / "summary.json").exists()


@pytest.mark.filterwarnings("ignore::syncstab.DampingRatioWarning")  # the hv sweep's values
@pytest.mark.parametrize("command,reductions", [
    (["simulate"], 2),
    (["sweep", "--axis", "hv", "--values", "8,20,70"], 6),
    (["design", "--verify"], 4),
    (["region"], 2),
    (["index"], 2),
])
def test_each_stage_is_reduced_once_per_run(tmp_path, monkeypatch, command, reductions):
    # table1 has two stages; design reduces them once for the document and
    # once for the designed unit, and a sweep once per value
    import syncstab.simulate

    calls = []
    reduce = syncstab.simulate.reduce_two_machine
    monkeypatch.setattr(syncstab.simulate, "reduce_two_machine",
                        lambda *args: calls.append(args) or reduce(*args))
    main([command[0], str(GOLDEN_SCENARIO), *command[1:], "--out", str(tmp_path),
          "--dt", "1e-3"])
    assert len(calls) == reductions


def test_design_requires_design_section(tmp_path):
    doc = _golden()
    del doc["design"]
    assert main(["design", _write(tmp_path, doc), "--out", str(tmp_path)]) == EXIT_SCHEMA


def test_region_command(tmp_path, capsys):
    doc = _golden()
    doc["region"] = {
        "delta_min_rad": -3.2, "delta_max_rad": 3.6,
        "domega_min_pu": -0.02, "domega_max_pu": 0.02,
        "n_delta": 11, "n_domega": 11, "t_max_s": 40.0, "dt_s": 2e-3,
    }
    rc = main(["region", _write(tmp_path, doc), "--out", str(tmp_path)])
    assert rc == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert 0 < payload["stable_cells"] < payload["total_cells"] == 121
    grid_lines = (tmp_path / "grid.csv").read_text().splitlines()
    assert grid_lines[0] == "delta_vg_rad,domega_vg_pu,label"
    assert len(grid_lines) == 122
    boundary_lines = (tmp_path / "boundary.csv").read_text().splitlines()
    assert boundary_lines[0] == "branch,delta_vg_rad,domega_vg_pu"
    assert len(boundary_lines) > 100


@pytest.mark.parametrize("axis,value", [
    ("hv", "nan"), ("xi", "inf"), ("fault-voltage", "inf"), ("fault-voltage", "-inf"),
])
def test_sweep_rejects_non_finite_values(tmp_path, capsys, axis, value):
    rc = main(["sweep", str(GOLDEN_SCENARIO), "--out", str(tmp_path), "--dt", "1e-3",
               "--axis", axis, "--values", f"0.2,{value}"])
    assert rc == EXIT_SCHEMA
    assert "--values: expected a finite number" in capsys.readouterr().err
    assert not (tmp_path / "sweep.csv").exists()


@pytest.mark.parametrize("flag", ["--hv", "--xi", "--fault-voltage", "--dt"])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_override_flags_reject_non_finite_values(tmp_path, capsys, flag, value):
    rc = main(["simulate", str(GOLDEN_SCENARIO), "--out", str(tmp_path), flag, value])
    assert rc == EXIT_SCHEMA
    assert f"{flag}: expected a finite number" in capsys.readouterr().err
