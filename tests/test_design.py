"""Inertia matching and virtual-reactance setting."""

import math
from dataclasses import replace

import numpy as np
import pytest

from syncstab import (
    BindingConstraint,
    DesignInfeasibleError,
    DesignInput,
    FaultScenario,
    ModelError,
    StageCondition,
    current_magnitude,
    design,
    find_equilibria,
    match_inertia,
    matched_impedance,
    reduce_two_machine,
    set_virtual_impedance,
    simulate_reduced,
    stability_index,
)

X_V = 0.3187728650346255
X_G = 0.10048275093482759


def _design_input(vsg, sg, load, fault_voltage=0.2, current_limit=1.8):
    return DesignInput(sg=sg, vsg=vsg, load=load,
                       fault_voltage=fault_voltage, current_limit=current_limit)


# -- inertia matching ------------------------------------------------------------

def test_match_inertia_reference_value():
    assert match_inertia(0.3, 0.96, 40.0) == pytest.approx(12.5, rel=1e-15)
    assert match_inertia(0.7, 0.7, 40.0) == pytest.approx(40.0, rel=1e-15)


def test_match_inertia_zeroes_reference_and_maximises_index(vsg, sg, load, base):
    h_set = match_inertia(0.3, 0.96, 40.0)
    matched = replace(vsg, inertia=h_set, damping=0.5 * h_set)
    model = reduce_two_machine(matched, replace(sg, voltage=0.2), load, base)
    assert abs(model.power_ref) <= 1e-16
    assert stability_index(model) == 1.0


def test_match_inertia_infeasible_inputs():
    with pytest.raises(DesignInfeasibleError):
        match_inertia(0.3, 0.0, 40.0)
    with pytest.raises(DesignInfeasibleError):
        match_inertia(0.0, 0.96, 40.0)


# -- current bound ------------------------------------------------------------------

def test_current_magnitude_hand_values():
    assert current_magnitude(math.pi, 1.0, 0.2, 0.5) == pytest.approx(2.4, rel=1e-12)
    assert current_magnitude(0.0, 1.0, 1.0, 0.5) == 0.0


def test_current_magnitude_bounds_near_critical_swing(fault_model_at):
    # drive an undamped swing almost to the saddle; its current peak must sit
    # just under the saddle-angle bound
    model = replace(fault_model_at(8.0), damping=0.0)
    eq = find_equilibria(model)
    x_sum = 0.2 / model.power_max
    bound = current_magnitude(eq.uep_forward, 1.0, 0.2, x_sum)

    # choose the rest angle whose swing peaks within a whisker of the saddle
    target = model.energy(eq.uep_forward, 0.0) * (1.0 - 1e-4)
    lo, hi = eq.sep, eq.uep_forward - 1e-9
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if model.energy(mid, 0.0) < target:
            lo = mid  # potential climbs from the stable angle to the saddle
        else:
            hi = mid
    start = 0.5 * (lo + hi)
    d, w, dt = start, 0.0, 1e-4
    pref, pmax, h2, om = model.power_ref, model.power_max, 2 * model.inertia, model.omega_ref
    peak_current = math.sqrt(1.0 + 0.04 - 2 * 0.2 * math.cos(d)) / x_sum
    for _ in range(100000):
        k1d, k1w = om * w, (pref - pmax * math.sin(d)) / h2
        k2d, k2w = om * (w + .5 * dt * k1w), (pref - pmax * math.sin(d + .5 * dt * k1d)) / h2
        k3d, k3w = om * (w + .5 * dt * k2w), (pref - pmax * math.sin(d + .5 * dt * k2d)) / h2
        k4d, k4w = om * (w + dt * k3w), (pref - pmax * math.sin(d + dt * k3d)) / h2
        d += dt / 6 * (k1d + 2 * k2d + 2 * k3d + k4d)
        w += dt / 6 * (k1w + 2 * k2w + 2 * k3w + k4w)
        peak_current = max(
            peak_current,
            math.sqrt(1.0 + 0.04 - 2 * 0.2 * math.cos(d)) / x_sum,
        )
    assert peak_current <= bound * (1 + 1e-9)
    assert peak_current == pytest.approx(bound, rel=0.02)


def test_min_impedance_closed_form(vsg, sg, load):
    # the current floor (E_v + E_g)/I_lim - X_v - X_g: the gap at a half turn is
    # E_v + E_g, so the floor's current there is the limit itself
    for limit in (0.9, 1.2, 1.8):
        x_i, binding = set_virtual_impedance(_design_input(vsg, sg, load, 0.2, limit), 40.0)
        assert binding is BindingConstraint.CURRENT_LIMIT
        assert x_i == pytest.approx(1.2 / limit - X_V - X_G, rel=1e-12)
        assert current_magnitude(math.pi, 1.0, 0.2, x_i + X_V + X_G) == pytest.approx(
            limit, rel=1e-12)
    # far above the worst-case current: no reactance needed
    x_i, binding = set_virtual_impedance(_design_input(vsg, sg, load, 0.2, 10.0), 40.0)
    assert x_i == 0.0
    assert binding is BindingConstraint.NONE
    for limit in (0.0, -1.8):
        with pytest.raises(ModelError):
            _design_input(vsg, sg, load, 0.2, limit)


# -- strength matching ---------------------------------------------------------------

def test_matched_impedance_values():
    assert matched_impedance(40.0, 40.0, 0.25, 0.25) == 0.0
    assert matched_impedance(40.0, 12.5, X_G, X_V) == pytest.approx(
        0.0027719379568227898, rel=1e-12
    )
    assert matched_impedance(40.0, 12.5, X_G, X_V) == pytest.approx(0.0028, abs=1e-4)


def test_matched_impedance_equates_inertia_and_strength():
    rng = np.random.default_rng(31)
    from syncstab import SgParams, VsgParams
    for _ in range(20):
        h_g, h_v = rng.uniform(5, 80, 2)
        x_g = rng.uniform(0.05, 0.5)
        x_v = rng.uniform(0.05, 0.5)
        s_v = rng.uniform(0.2, 2.0)
        x_i = matched_impedance(h_g, h_v, x_g, x_v)
        if x_i < 0:
            continue
        vsg = VsgParams(inertia=h_v, damping=0.0, power_ref=0.5 * s_v, internal_voltage=1.0,
                        line_reactance=x_v, virtual_reactance=x_i, rated_power=s_v)
        sg = SgParams(inertia=h_g, damping=0.0, mech_power=0.5, voltage=1.0,
                      line_reactance=x_g, rated_power=1.0)
        # the pair's ratios, by PenetrationModel's construction identities
        xs = sg.line_reactance * sg.rated_power
        line_drop = vsg.line_reactance * vsg.rated_power / xs
        virtual_drop = vsg.virtual_reactance * vsg.rated_power / xs
        inertia_level = (vsg.inertia / vsg.rated_power) / (sg.inertia / sg.rated_power)
        strength = 1.0 / (line_drop + virtual_drop)
        assert inertia_level == pytest.approx(strength, rel=1e-10)


# -- the selector and the composite design ----------------------------------------------

def test_set_virtual_impedance_bindings(vsg, sg, load):
    # generous limit: the strength-matching floor wins
    x_i, binding = set_virtual_impedance(_design_input(vsg, sg, load, 0.2, 100.0), 12.5)
    assert binding is BindingConstraint.INERTIA_STRENGTH_MATCH
    assert x_i == pytest.approx(0.0027719379568227898, rel=1e-12)
    # tight limit: the current floor wins
    x_i, binding = set_virtual_impedance(_design_input(vsg, sg, load, 0.2, 1.8), 12.5)
    assert binding is BindingConstraint.CURRENT_LIMIT
    assert x_i == pytest.approx(1.2 / 1.8 - X_V - X_G, rel=1e-12)
    # both floors negative: clamp to zero
    x_i, binding = set_virtual_impedance(_design_input(vsg, sg, load, 0.2, 100.0), 40.0)
    assert x_i == 0.0
    assert binding is BindingConstraint.NONE


def test_design_reference_bench(vsg, sg, load, base):
    out = design(_design_input(vsg, sg, load, 0.2, 1.8))
    assert out.inertia == pytest.approx(12.5, rel=1e-12)
    assert out.damping == pytest.approx(6.25, rel=1e-12)
    assert out.binding_constraint is BindingConstraint.CURRENT_LIMIT
    assert out.predicted_index == pytest.approx(1.0, abs=1e-15)
    assert out.predicted_peak_current <= 1.8 + 1e-9
    assert out.predicted_peak_current == pytest.approx(1.8, rel=1e-9)


def test_design_survives_fault_where_undesigned_fails(vsg, sg, load, base):
    short = FaultScenario(
        t_end=6.0, t_fault=0.5,
        prefault=StageCondition(sg_voltage=1.0, virtual_reactance=0.0),
        faulted=StageCondition(sg_voltage=0.2),
    )
    undesigned = replace(vsg, inertia=70.0, damping=35.0)
    assert simulate_reduced(undesigned, sg, load, base, short, dt=5e-4).los_time is not None
    out = design(_design_input(undesigned, sg, load, 0.2, 1.8))
    traj = simulate_reduced(out.apply(undesigned), sg, load, base, short, dt=5e-4)
    assert traj.los_time is None
    assert float(traj.current.max()) <= 1.02 * 1.8


def test_design_idempotent(vsg, sg, load):
    first = design(_design_input(vsg, sg, load, 0.2, 1.8))
    second = design(_design_input(first.apply(vsg), sg, load, 0.2, 1.8))
    assert second.inertia == pytest.approx(first.inertia, abs=1e-9)
    assert second.virtual_reactance == pytest.approx(first.virtual_reactance, abs=1e-9)


def test_design_input_validation(vsg, sg, load):
    with pytest.raises(ModelError):
        _design_input(vsg, sg, load, fault_voltage=1.5)
    with pytest.raises(ModelError):
        _design_input(vsg, sg, load, current_limit=0.0)


def test_design_reactance_threshold_in_fault_depth(vsg, sg, load):
    # with a slack current limit the strength floor rules: some dip depth
    # separates designs needing reactance from designs needing none, and the
    # setting never grows as the dip gets shallower
    depths = np.linspace(0.05, 0.95, 19)
    settings = [
        design(_design_input(vsg, sg, load, e, 100.0)).virtual_reactance for e in depths
    ]
    assert settings[0] > 0.0
    assert settings[-1] == 0.0
    assert all(b <= a + 1e-15 for a, b in zip(settings, settings[1:]))