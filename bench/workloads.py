"""Seeded scenario generator and the fixed job lists of the three workloads.

Every document is the reference bench (the paper's Table 1 pair) with three
draws: the converter inertia H_v (damping co-scaled at 0.5*H_v, so the
damping-to-inertia ratios stay matched and the reduction stays exact), the
fault depth, and, for some documents, a post-fault clearing stage.  Work per
job is fixed within a workload; the draws change only what the work computes.
"""

from __future__ import annotations

import copy
import json
import random
from dataclasses import dataclass, replace

TEMPLATE = {
    "base": {"rated_voltage_v": 95.22, "rated_power_w": 1000.0, "rated_frequency_hz": 50.0},
    "vsg": {
        "inertia_s": 20.0, "damping_pu": 10.0, "rated_power_pu": 1.0,
        "internal_voltage_pu": 1.0, "line_inductance_h": 0.0092,
        "virtual_inductance_h": 0.00145, "power_reference_pu": 0.3,
    },
    "sg": {
        "inertia_s": 40.0, "damping_pu": 20.0, "mechanical_power_pu": 1.0,
        "voltage_pu": 1.0, "line_inductance_h": 0.0029, "rated_power_pu": 1.0,
    },
    "load": {"resistance_pu": 1.0},
    "scenario": {
        "t_fault_s": 0.5,
        "prefault": {"sg_voltage_pu": 1.0, "virtual_reactance_pu": 0.0},
        "faulted": {"sg_voltage_pu": 0.2},
    },
    "sim": {"dt_s": 0.0001, "t_end_s": 10.0},
    "design": {"current_limit_pu": 1.8},
}

CLEARING_SHARE = 0.4
SWEEP_VALUES = 20
# The CLI's default region window: 41 x 41 cells, t_max 60 s, dt 1e-3 s.
REGION_CELLS = (41, 41)
REGION_STEPS = 60_000

# The tiny size used by the self-test: same commands, a fraction of the work.
TINY_SIM = {"dt_s": 0.001, "t_end_s": 1.0}
TINY_REGION = {
    "delta_min_rad": -3.0, "delta_max_rad": 3.0,
    "domega_min_pu": -0.05, "domega_max_pu": 0.05,
    "n_delta": 6, "n_domega": 5, "t_max_s": 0.5, "dt_s": 0.001,
}
TINY_SWEEP_VALUES = 3
TINY_JOBS = 2


@dataclass(frozen=True)
class Call:
    """One `syncstab` CLI invocation of a job and what its output must hold."""

    command: str
    args: tuple[str, ...] = ()
    exit_codes: frozenset[int] = frozenset({0})
    values: tuple[float, ...] = ()  # sweep values, in order


@dataclass(frozen=True)
class Job:
    name: str
    doc: dict
    calls: tuple[Call, ...]

    @property
    def doc_text(self) -> str:
        return json.dumps(self.doc, indent=2) + "\n"


# Seconds one job takes on the reference 2-core machine; --seconds divided by
# this sets the length of the fixed job list.  Why each workload exists:
# - region_map: CLI `region` at the default window, the only place the
#   ensemble kernel runs (~98% of a job), so grid speed-ups show here alone.
# - fault_sweep: CLI `sweep`, where the scalar RK4 in simulate_reduced does
#   ~95% and almost nothing is written: the bypass case for emission changes.
# - trajectory_io: one user session per job, where writing three 100k-row
#   trajectory CSVs takes ~80%; every sample is consumed, so dropping or
#   streaming samples shows its cost here, and every other command runs.
NOMINAL_JOB_S = {"region_map": 5.0, "fault_sweep": 1.0, "trajectory_io": 0.75}


def job_count(workload: str, seconds: float, tiny: bool) -> int:
    """Length of the fixed job list: about `seconds` of work on the reference machine."""
    if tiny:
        return TINY_JOBS
    return max(1, round(seconds / NOMINAL_JOB_S[workload]))


def draw_document(rng: random.Random, tiny: bool) -> dict:
    doc = copy.deepcopy(TEMPLATE)
    h_v = round(rng.uniform(5.0, 60.0), 2)
    doc["vsg"]["inertia_s"] = h_v
    doc["vsg"]["damping_pu"] = 0.5 * h_v
    doc["scenario"]["faulted"]["sg_voltage_pu"] = round(rng.uniform(0.1, 0.6), 3)
    if rng.random() < CLEARING_SHARE:
        doc["scenario"]["t_clear_s"] = round(rng.uniform(0.6, 0.9), 3)
        doc["scenario"]["postfault"] = {"sg_voltage_pu": 1.0}
    if tiny:
        doc["sim"] = dict(TINY_SIM)
    return doc


def _has_fault_on_sep(doc: dict) -> bool:
    """True when the fault-on stage has a stable equilibrium (so `region` is defined)."""
    from syncstab.cli import parse_scenario
    from syncstab.equilibrium import find_equilibria
    from syncstab.machine import reduce_two_machine

    parsed = parse_scenario(json.dumps(doc))
    faulted = parsed.scenario.faulted
    sg = replace(parsed.sg, voltage=faulted.sg_voltage)
    return find_equilibria(reduce_two_machine(parsed.vsg, sg, parsed.load, parsed.base)).exists


def _region_job(rng: random.Random, tiny: bool) -> tuple[dict, tuple[Call, ...]]:
    while True:
        doc = draw_document(rng, tiny)
        if tiny:
            doc["region"] = dict(TINY_REGION)
        if _has_fault_on_sep(doc):
            return doc, (Call("region"),)


def _sweep_job(rng: random.Random, tiny: bool, k: int) -> tuple[dict, tuple[Call, ...]]:
    doc = draw_document(rng, tiny)
    n = TINY_SWEEP_VALUES if tiny else SWEEP_VALUES
    if k % 2 == 0:
        axis, values = "hv", tuple(round(rng.uniform(5.0, 80.0), 2) for _ in range(n))
    else:
        axis, values = "fault-voltage", tuple(round(rng.uniform(0.05, 0.9), 3) for _ in range(n))
    args = ("--axis", axis, "--values", ",".join(repr(v) for v in values))
    return doc, (Call("sweep", args, values=values),)


def _session_job(rng: random.Random, tiny: bool) -> tuple[dict, tuple[Call, ...]]:
    doc = draw_document(rng, tiny)
    calls = (
        Call("reduce"),
        Call("index"),
        Call("eac"),
        Call("simulate"),
        Call("design", ("--verify",), frozenset({0, 4})),
    )
    return doc, calls


def make_jobs(workload: str, seed: int, n_jobs: int, tiny: bool = False) -> list[Job]:
    """The workload's job list for a seed; the same seed gives the same list."""
    if workload not in NOMINAL_JOB_S:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    jobs = []
    for k in range(n_jobs):
        if workload == "region_map":
            doc, calls = _region_job(rng, tiny)
        elif workload == "fault_sweep":
            doc, calls = _sweep_job(rng, tiny, k)
        else:
            doc, calls = _session_job(rng, tiny)
        jobs.append(Job(f"job-{k:03d}", doc, calls))
    return jobs


def job_size(workload: str, tiny: bool) -> dict:
    """Work per job, as recorded in the results."""
    if workload == "region_map":
        if tiny:
            cells = TINY_REGION["n_delta"] * TINY_REGION["n_domega"]
            steps = round(TINY_REGION["t_max_s"] / TINY_REGION["dt_s"])
        else:
            cells, steps = REGION_CELLS[0] * REGION_CELLS[1], REGION_STEPS
        return {"cells": cells, "steps": steps, "cell_steps": cells * steps}
    sim = TINY_SIM if tiny else TEMPLATE["sim"]
    steps = round(sim["t_end_s"] / sim["dt_s"])
    if workload == "fault_sweep":
        values = TINY_SWEEP_VALUES if tiny else SWEEP_VALUES
        return {"values": values, "steps": steps, "steps_total": values * steps}
    return {"commands": 5, "trajectories": 3, "steps": steps, "steps_total": 3 * steps}
