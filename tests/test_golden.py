"""Golden artifact digests: every command on the bundled scenario, byte for byte.

Each run below writes its artifacts at a 1 ms step, and the SHA-256 of every
CSV and summary.json must equal the pin in golden_digests.json.  A change that
alters an artifact on purpose re-records the pins with

    PYTHONPATH=src python3 tests/test_golden.py

and says in CHANGES.md which artifacts changed and why.
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from syncstab.cli import EXIT_OK, main

ROOT = Path(__file__).resolve().parent.parent
SCENARIO = ROOT / "scenarios" / "table1.scenario"
PINS = Path(__file__).resolve().parent / "golden_digests.json"

REGION = {
    "delta_min_rad": -3.2, "delta_max_rad": 3.6,
    "domega_min_pu": -0.02, "domega_max_pu": 0.02,
    "n_delta": 9, "n_domega": 9, "t_max_s": 30.0, "dt_s": 1e-3,
}

# name -> (command and flags, whether it runs on the copy with a region block)
RUNS = {
    "reduce": (["reduce"], False),
    "index": (["index"], False),
    "eac": (["eac"], False),
    "simulate": (["simulate"], False),
    "design": (["design", "--verify"], False),
    "sweep_hv": (["sweep", "--axis", "hv", "--values", "8,20,70"], False),
    "sweep_xi": (["sweep", "--axis", "xi", "--values", "0.05,1.0,1.5"], False),
    "sweep_fault_voltage": (
        ["sweep", "--axis", "fault-voltage", "--values", "0.05,0.2,0.5"], False
    ),
    "region": (["region"], True),
    "region_default": (["region"], False),
}


def _region_scenario(directory: Path) -> Path:
    doc = json.loads(SCENARIO.read_text())
    doc["region"] = REGION
    path = directory / "region.scenario"
    path.write_text(json.dumps(doc))
    return path


def _digests(name: str, directory: Path) -> dict[str, str]:
    command, with_region = RUNS[name]
    scenario = _region_scenario(directory) if with_region else SCENARIO
    out = directory / "out"
    rc = main([command[0], str(scenario), "--out", str(out), "--dt", "1e-3", *command[1:]])
    assert rc == EXIT_OK
    files = sorted(out.glob("*.csv")) + [out / "summary.json"]
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in files}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_artifacts_match_pins(name, tmp_path, capsys):
    pins = json.loads(PINS.read_text())
    assert _digests(name, tmp_path) == pins[name]


if __name__ == "__main__":
    import tempfile

    pins = {}
    for name in sorted(RUNS):
        with tempfile.TemporaryDirectory() as tmp:
            pins[name] = _digests(name, Path(tmp))
    PINS.write_text(json.dumps(pins, indent=2) + "\n")
    print(f"wrote {len(pins)} pins to {PINS}", file=sys.stderr)
