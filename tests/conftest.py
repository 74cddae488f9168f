"""Shared fixtures: the reference two-machine bench from the bundled scenario.

Rated 95.22 V / 1 kW / 50 Hz; machine inertia 40 s with damping 20 pu; line
inductances 9.2 mH (grid-forming side), 2.9 mH (machine side), 1.45 mH of
virtual reactance inserted under fault; resistive load at 1 pu; fault drops
the machine voltage to 0.2 pu at t = 0.5 s with a 0.3 pu fault-on power
reference.  Grid-forming damping is kept at half its inertia so the two
units' damping-to-inertia ratios stay matched when the inertia is swept.
"""

from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from syncstab import (
    BaseQuantities,
    FaultScenario,
    LoadParams,
    SgParams,
    StageCondition,
    VsgParams,
    find_equilibria,
    reactance_from_inductance,
    reduce_two_machine,
)

GOLDEN_SCENARIO = Path(__file__).resolve().parent.parent / "scenarios" / "table1.scenario"


def energy_sides_agreement(model, delta_axis, dw_axis, stable) -> float:
    """Share of an undamped grid's decided cells labelled by their side of the barrier.

    An undamped run conserves its energy, so a cell below the lower saddle's
    energy never crosses and one above it escapes.  Cells within 2% of the
    well's depth of that barrier are undecided.
    """
    eq = find_equilibria(model)
    barrier = min(model.energy(eq.uep_forward, 0.0), model.energy(eq.uep_backward, 0.0))
    dd, ww = np.meshgrid(delta_axis, dw_axis, indexing="ij")
    energy = model.energy(dd, ww)
    decided = np.abs(energy - barrier) > 0.02 * abs(barrier - model.energy(eq.sep, 0.0))
    return float(np.mean(((energy < barrier) == stable)[decided]))


@pytest.fixture(scope="session")
def base():
    return BaseQuantities(rated_voltage=95.22, rated_power=1000.0, rated_frequency=50.0)


@pytest.fixture(scope="session")
def load():
    return LoadParams(resistance=1.0)


@pytest.fixture(scope="session")
def sg(base):
    return SgParams(
        inertia=40.0,
        damping=20.0,
        mech_power=1.0,
        voltage=1.0,
        line_reactance=reactance_from_inductance(0.0029, base),
    )


@pytest.fixture(scope="session")
def vsg(base):
    return VsgParams(
        inertia=20.0,
        damping=10.0,
        power_ref=0.3,
        internal_voltage=1.0,
        line_reactance=reactance_from_inductance(0.0092, base),
        virtual_reactance=reactance_from_inductance(0.00145, base),
    )


@pytest.fixture(scope="session")
def scenario():
    return FaultScenario(
        t_end=10.0,
        t_fault=0.5,
        prefault=StageCondition(sg_voltage=1.0, virtual_reactance=0.0),
        faulted=StageCondition(sg_voltage=0.2),
    )


@pytest.fixture(scope="session")
def fault_model_at(vsg, sg, load, base):
    """Factory: fault-on reduced model at a given inertia (damping co-scaled)."""

    def build(inertia: float, fault_voltage: float = 0.2, damping_scale: float = 0.5):
        v = replace(vsg, inertia=inertia, damping=damping_scale * inertia)
        g = replace(sg, voltage=fault_voltage)
        return reduce_two_machine(v, g, load, base)

    return build
