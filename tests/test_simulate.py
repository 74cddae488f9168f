"""Time-domain integration: fidelity, staging, loss detection, derived traces."""

import math
import random
import warnings
from dataclasses import replace

import numpy as np
import pytest

from syncstab import (
    DampingRatioWarning,
    FaultScenario,
    IntegrationDivergedError,
    ModelError,
    RelativeSwingModel,
    StageCondition,
    SwingClass,
    classify_first_swing,
    current_magnitude,
    find_equilibria,
    plan_stages,
    reduce_two_machine,
    simulate_ensemble,
    simulate_full,
    simulate_outcome,
    simulate_reduced,
    ssi_from_peak,
    stability_index,
)
from syncstab import simulate as simulate_module
from syncstab.simulate import _los_thresholds, _lost, _rk4

OMEGA = 100 * math.pi


def _model(power_ref, power_max, inertia=13.333333333333334, damping=0.0):
    return RelativeSwingModel(inertia=inertia, damping=damping, power_ref=power_ref,
                              power_max=power_max, omega_ref=OMEGA)


# -- right-hand side and stepper ------------------------------------------------

def _run(model, d, w, dt, n):
    """n steps of the scalar kernel; returns the sample arrays."""
    delta, dw = np.empty(n + 1), np.empty(n + 1)
    delta[0], dw[0] = d, w
    _rk4(model, d, w, dt, delta, dw, 0, n)
    return delta, dw


def test_derivative_at_equilibrium(fault_model_at):
    model = fault_model_at(20.0)
    eq = find_equilibria(model)
    delta, dw = _run(model, eq.sep, 0.0, 1e-3, 1)
    assert delta[1] == pytest.approx(eq.sep, abs=1e-17)
    assert dw[1] == pytest.approx(0.0, abs=1e-20)


def test_derivative_hand_values(fault_model_at):
    # one tiny step recovers the right-hand side: d(dw)/dt = -0.12/(2*40/3) at
    # rest on zero angle, and d(delta)/dt = omega_ref*dw
    model = fault_model_at(20.0)
    dt = 1e-8
    _, dw = _run(model, 0.0, 0.0, dt, 1)
    assert dw[1] / dt == pytest.approx(-0.12 / (2 * 40.0 / 3.0), rel=1e-8)
    assert dw[1] / dt == pytest.approx(-0.0045, rel=1e-8)
    delta, _ = _run(model, 0.0, 0.01, dt, 1)
    assert delta[1] / dt == pytest.approx(math.pi, rel=1e-8)


def test_rk4_fixes_equilibrium(fault_model_at):
    model = fault_model_at(20.0)
    eq = find_equilibria(model)
    delta, dw = _run(model, eq.sep, 0.0, 1e-3, 100)
    assert float(np.max(np.abs(delta - eq.sep))) < 1e-14
    assert float(np.max(np.abs(dw))) < 1e-14


def test_rk4_writes_only_its_segment_and_returns_last_state(fault_model_at):
    model = fault_model_at(20.0)
    delta, dw = np.full(10, -7.0), np.full(10, -7.0)
    d, w = _rk4(model, 0.3, 0.001, 1e-3, delta, dw, 3, 6)
    assert (delta[:4] == -7.0).all() and (delta[7:] == -7.0).all()
    assert (dw[:4] == -7.0).all() and (dw[7:] == -7.0).all()
    assert (d, w) == (delta[6], dw[6])
    assert _rk4(model, 0.3, 0.001, 1e-3, delta, dw, 5, 5) == (0.3, 0.001)


def test_rk4_small_oscillation_returns_after_one_period():
    m = _model(0.0, 0.42598782025825604)
    omega_n = math.sqrt(OMEGA * m.power_max / (2 * m.inertia))
    period = 2 * math.pi / omega_n
    amp = 1e-3
    dt = 1e-4
    n = int(round(period / dt))
    delta, dw = _run(m, amp, 0.0, dt, n)
    # finish the fractional step so total time is exactly one period
    d, _ = _rk4(m, float(delta[-1]), float(dw[-1]), period - n * dt, np.empty(2), np.empty(2), 0, 1)
    assert d == pytest.approx(amp, abs=1e-6)


def test_rk4_fourth_order_convergence():
    # halving the step should shrink the fixed-horizon error by >= 8x
    m = _model(0.1, 0.42598782025825604)

    def endpoint(dt):
        delta, dw = _run(m, 0.8, 0.0, dt, int(round(1.0 / dt)))
        return delta[-1], dw[-1]

    ref = endpoint(1e-5)
    errs = []
    for dt in (1e-2, 5e-3):
        d, w = endpoint(dt)
        errs.append(math.hypot(d - ref[0], OMEGA * (w - ref[1])))
    assert errs[0] / errs[1] >= 8.0


def test_rk4_negated_step_runs_backward_in_time(fault_model_at):
    # a negative step reverses the flow: forward then backward returns to start
    model = fault_model_at(20.0)
    delta, dw = _run(model, 0.8, 0.002, 1e-3, 500)
    back_d, back_w = _run(model, float(delta[-1]), float(dw[-1]), -1e-3, 500)
    assert back_d[-1] == pytest.approx(0.8, abs=1e-10)
    assert back_w[-1] == pytest.approx(0.002, abs=1e-12)


def _plain_rk4(model, d, w, dt, n):
    """Reference: n classical RK4 steps taken one by one, every sample kept."""

    def slope(d, w):
        return model.omega_ref * w, (
            model.power_ref - model.power_max * math.sin(d) - model.damping * w
        ) / (2.0 * model.inertia)

    ds, ws = [d], [w]
    for _ in range(n):
        k1d, k1w = slope(d, w)
        k2d, k2w = slope(d + 0.5 * dt * k1d, w + 0.5 * dt * k1w)
        k3d, k3w = slope(d + 0.5 * dt * k2d, w + 0.5 * dt * k2w)
        k4d, k4w = slope(d + dt * k3d, w + dt * k3w)
        d += dt / 6.0 * (k1d + 2.0 * k2d + 2.0 * k3d + k4d)
        w += dt / 6.0 * (k1w + 2.0 * k2w + 2.0 * k3w + k4w)
        ds.append(d)
        ws.append(w)
    return ds, ws


def _bits(xs):
    return np.asarray(xs, dtype=float).tobytes()


def _prefault_model(vsg, sg, load, base, inertia):
    v = replace(vsg, inertia=inertia, damping=0.5 * inertia, virtual_reactance=0.0)
    return reduce_two_machine(v, sg, load, base)


# (pre-fault H_v, w, dt, start, stop); H_v 20 s is table1, whose stable angle
# is an exact fixed point of the step map, and 29.4 s is not
_SKIP_CASES = {
    "fixed point": (20.0, 0.0, 1e-3, 3, 300),
    "residual": (29.4, 0.0, 1e-3, 3, 300),
    "negative zero": (20.0, -0.0, 1e-3, 3, 300),
    "negative dt": (20.0, 0.0, -1e-3, 3, 300),
    "negative dt, residual": (29.4, 0.0, -1e-3, 3, 300),
    "moving": (20.0, 1e-3, 1e-3, 3, 300),
    "one step": (20.0, 0.0, 1e-3, 3, 4),
    "no step": (20.0, 0.0, 1e-3, 3, 3),
}


@pytest.mark.parametrize("case", sorted(_SKIP_CASES))
def test_rk4_equals_plain_loop_bit_for_bit(vsg, sg, load, base, case):
    inertia, w, dt, start, stop = _SKIP_CASES[case]
    model = _prefault_model(vsg, sg, load, base, inertia)
    d = find_equilibria(model).sep
    residual = model.power_ref - model.power_max * math.sin(d)
    assert (residual == 0.0) == (inertia == 20.0)
    sentinel = [-7.0] * (stop + 2)
    delta, dw = np.array(sentinel), np.array(sentinel)
    end = _rk4(model, d, w, dt, delta, dw, start, stop)
    ref_d, ref_w = _plain_rk4(model, d, w, dt, stop - start)
    assert _bits(delta[start + 1:stop + 1]) == _bits(ref_d[1:])
    assert _bits(dw[start + 1:stop + 1]) == _bits(ref_w[1:])
    assert _bits(end) == _bits((ref_d[-1], ref_w[-1]))
    assert _bits(delta[:start + 1]) == _bits(dw[:start + 1]) == _bits(sentinel[:start + 1])
    assert delta[stop + 1] == dw[stop + 1] == -7.0
    assert len(delta) == stop + 2


def test_rk4_skips_steps_on_a_fixed_point(vsg, sg, load, base, monkeypatch):
    # one real step from rest decides: four sine calls on table1's stable
    # angle, four per step where the slope is not exactly zero
    sines = []
    monkeypatch.setattr(math, "sin", lambda x, sin=math.sin: sines.append(x) or sin(x))
    for inertia, calls in ((20.0, 4), (29.4, 4 * 1000)):
        model = _prefault_model(vsg, sg, load, base, inertia)
        sines.clear()
        _rk4(model, find_equilibria(model).sep, 0.0, 1e-3, np.empty(1001), np.empty(1001), 0, 1000)
        assert len(sines) == calls


def test_rk4_rejects_bad_step(vsg, sg, load, base, scenario, fault_model_at):
    # the RK4 integrators validate the step; the private kernel trusts its callers
    for dt in (0.0, -1e-3):
        with pytest.raises(ValueError):
            simulate_reduced(plan_stages(vsg, sg, load, base, scenario, dt=dt))
        with pytest.raises(ValueError):
            simulate_full(plan_stages(vsg, sg, load, base, scenario, dt=dt))
        with pytest.raises(ValueError):
            simulate_ensemble(fault_model_at(20.0), np.zeros(2), np.zeros(2), dt, 1.0)


# -- staged scenarios -------------------------------------------------------------

def test_scenario_validation():
    with pytest.raises(ModelError):
        FaultScenario(t_end=1.0, t_fault=1.0, prefault=StageCondition(),
                      faulted=StageCondition())
    with pytest.raises(ModelError):
        FaultScenario(t_end=1.0, t_fault=0.5, prefault=StageCondition(),
                      faulted=StageCondition(), t_clear=0.4,
                      postfault=StageCondition())
    with pytest.raises(ModelError):
        FaultScenario(t_end=1.0, t_fault=0.5, prefault=StageCondition(),
                      faulted=StageCondition(), t_clear=0.8)


def test_reference_bench_moderate_inertia_stays_synchronized(
    vsg, sg, load, base, scenario
):
    traj = simulate_reduced(plan_stages(vsg, sg, load, base, scenario, dt=1e-4))
    assert traj.los_time is None
    fault_model = reduce_two_machine(vsg, replace(sg, voltage=0.2), load, base)
    eq = find_equilibria(fault_model)
    assert abs(traj.delta[-1] - eq.sep) < 0.05
    assert classify_first_swing(fault_model, float(traj.delta[0])).classification \
        is SwingClass.STABLE


def test_reference_bench_large_inertia_loses_synchronism(vsg, sg, load, base, scenario):
    big = replace(vsg, inertia=70.0, damping=35.0)
    traj = simulate_reduced(plan_stages(big, sg, load, base, scenario, dt=1e-4))
    assert traj.los_time is not None
    assert 0.5 < traj.los_time < 10.0
    # the swing runs backward: the angle collapses through the backward barrier
    assert traj.delta[-1] < -math.pi


def test_reference_bench_small_inertia_converges(vsg, sg, load, base, scenario):
    # The light-inertia case keeps a healthy margin (index 0.79) and settles on
    # the fault-on equilibrium; the area verdict agrees.
    small = replace(vsg, inertia=8.0, damping=4.0)
    traj = simulate_reduced(plan_stages(small, sg, load, base, scenario, dt=1e-4))
    assert traj.los_time is None
    fault_model = reduce_two_machine(small, replace(sg, voltage=0.2), load, base)
    assert stability_index(fault_model) == pytest.approx(0.78872635385341, rel=1e-10)
    assert abs(traj.delta[-1] - find_equilibria(fault_model).sep) < 0.02
    assert classify_first_swing(fault_model, float(traj.delta[0])).classification \
        is SwingClass.STABLE


def test_prefault_without_equilibrium_rejected(vsg, sg, load, base):
    scenario = FaultScenario(
        t_end=1.0, t_fault=0.5,
        prefault=StageCondition(sg_voltage=1.0, power_ref=5.0),
        faulted=StageCondition(sg_voltage=0.2),
    )
    with pytest.raises(ModelError):
        simulate_reduced(plan_stages(vsg, sg, load, base, scenario, dt=1e-3))


def test_stage_switch_keeps_state_continuous(vsg, sg, load, base):
    scenario = FaultScenario(
        t_end=2.0, t_fault=0.5,
        prefault=StageCondition(sg_voltage=1.0, virtual_reactance=0.0),
        faulted=StageCondition(sg_voltage=0.2),
        t_clear=1.2,
        postfault=StageCondition(sg_voltage=1.0, virtual_reactance=0.0),
    )
    traj = simulate_reduced(plan_stages(vsg, sg, load, base, scenario, dt=1e-3))
    for k in (500, 1200):
        assert abs(traj.delta[k] - traj.delta[k - 1]) < 0.05  # state continuous
        assert abs(traj.sync_power[k] - traj.sync_power[k - 1]) > 0.05  # coefficients jump
    assert traj.los_time is None


def test_stages_sharing_a_start_step(vsg, sg, load, base):
    # t_fault and t_clear both round up to step 500: the fault-on stage is
    # entered but integrates no step and labels no sample, so with the
    # post-fault stage equal to the pre-fault one the run never leaves rest
    pre = StageCondition(sg_voltage=1.0, virtual_reactance=0.0)
    scenario = FaultScenario(t_end=1.0, t_fault=0.4996, prefault=pre,
                             faulted=StageCondition(sg_voltage=0.2),
                             t_clear=0.4999, postfault=pre)
    traj = simulate_reduced(plan_stages(vsg, sg, load, base, scenario, dt=1e-3))
    pre_model = reduce_two_machine(replace(vsg, virtual_reactance=0.0), sg, load, base)
    sep = find_equilibria(pre_model).sep
    assert float(np.max(np.abs(traj.delta - sep))) < 1e-14
    np.testing.assert_array_equal(traj.sync_power, pre_model.power_max * np.sin(traj.delta))
    assert traj.los_time is None


def test_clearing_at_end_labels_only_the_last_sample(vsg, sg, load, base, scenario):
    cleared = replace(scenario, t_end=2.0, t_clear=2.0,
                      postfault=StageCondition(sg_voltage=1.0, virtual_reactance=0.0))
    traj = simulate_reduced(plan_stages(vsg, sg, load, base, cleared, dt=1e-3))
    plain = simulate_reduced(
        plan_stages(vsg, sg, load, base, replace(scenario, t_end=2.0), dt=1e-3))
    np.testing.assert_array_equal(traj.delta, plain.delta)
    np.testing.assert_array_equal(traj.sync_power[:-1], plain.sync_power[:-1])
    np.testing.assert_array_equal(traj.current[:-1], plain.current[:-1])
    post = reduce_two_machine(replace(vsg, virtual_reactance=0.0), sg, load, base)
    assert traj.sync_power[-1] == post.power_max * math.sin(traj.delta[-1])
    assert traj.sync_power[-1] != plain.sync_power[-1]
    x_pre = vsg.line_reactance + sg.line_reactance
    assert traj.current[-1] == pytest.approx(
        current_magnitude(float(traj.delta[-1]), 1.0, 1.0, x_pre), rel=1e-12)


def test_stage_starting_at_the_last_sample_is_not_entered(vsg, sg, load, base, scenario):
    # a post-fault stage with no power at all has no equilibria to assess; it
    # only fails a run that actually integrates under it
    degenerate = StageCondition(sg_voltage=0.0, power_ref=vsg.inertia / sg.inertia)
    at_end = replace(scenario, t_end=1.0, t_clear=1.0, postfault=degenerate)
    assert simulate_reduced(plan_stages(vsg, sg, load, base, at_end, dt=1e-3)).sync_power[-1] == 0.0
    with pytest.raises(ModelError):
        simulate_reduced(plan_stages(vsg, sg, load, base, replace(at_end, t_clear=0.9), dt=1e-3))


# -- full model vs reduction --------------------------------------------------------

def test_full_matches_reduced_when_ratios_agree(vsg, sg, load, base):
    scenario = FaultScenario(
        t_end=3.0, t_fault=0.5,
        prefault=StageCondition(sg_voltage=1.0, virtual_reactance=0.0),
        faulted=StageCondition(sg_voltage=0.2),
    )
    reduced = simulate_reduced(plan_stages(vsg, sg, load, base, scenario, dt=1e-4))
    full = simulate_full(plan_stages(vsg, sg, load, base, scenario, dt=1e-4))
    assert float(np.max(np.abs(full.delta - reduced.delta))) < 1e-6


def test_full_relative_state_pinned_when_balanced(load, base, vsg, sg):
    # equal inertias, no damping, converter reference equal to the machine's
    # net power: both units accelerate together and the angle gap never moves
    v = replace(vsg, inertia=30.0, damping=0.0, power_ref=0.3)
    g = replace(sg, inertia=30.0, damping=0.0, mech_power=1.3)  # net = 0.3 at 1 pu load
    scenario = FaultScenario(t_end=1.0, t_fault=0.5,
                             prefault=StageCondition(), faulted=StageCondition())
    traj = simulate_full(plan_stages(v, g, load, base, scenario, dt=1e-4))
    eq_angle = traj.delta[0]
    assert float(np.max(np.abs(traj.delta - eq_angle))) < 1e-9


def test_full_diverges_from_reduced_on_ratio_mismatch(vsg, sg, load, base):
    mismatched = replace(vsg, damping=2.0 * 0.5 * vsg.inertia)  # twice the machine ratio
    scenario = FaultScenario(
        t_end=3.0, t_fault=0.5,
        prefault=StageCondition(sg_voltage=1.0, virtual_reactance=0.0),
        faulted=StageCondition(sg_voltage=0.2),
    )
    with pytest.warns(DampingRatioWarning):
        reduced = simulate_reduced(plan_stages(mismatched, sg, load, base, scenario, dt=1e-3))
    with pytest.warns(DampingRatioWarning):
        full = simulate_full(plan_stages(mismatched, sg, load, base, scenario, dt=1e-3))
    assert float(np.max(np.abs(full.delta - reduced.delta))) > 1e-3


# -- loss detection ------------------------------------------------------------------

def test_loss_rule_on_scalars_and_arrays():
    upper, lower = 2.0, -4.0
    assert _lost(2.1, 0.01, upper, lower)
    assert not _lost(2.1, -0.01, upper, lower)  # past the saddle but turning back
    assert not _lost(2.1, 0.0, upper, lower)
    assert _lost(-4.1, -0.01, upper, lower)
    assert not _lost(-4.1, 0.01, upper, lower)
    assert not _lost(1.9, 0.5, upper, lower)
    d = np.array([2.1, 2.1, -4.1, -4.1, 0.0])
    w = np.array([0.01, -0.01, -0.01, 0.01, 0.5])
    assert _lost(d, w, upper, lower).tolist() == [True, False, True, False, False]


def test_detect_los_none_for_convergent(vsg, sg, load, base, scenario):
    traj = simulate_reduced(plan_stages(vsg, sg, load, base, scenario, dt=1e-3))
    fault_model = reduce_two_machine(vsg, replace(sg, voltage=0.2), load, base)
    upper, lower = _los_thresholds(find_equilibria(fault_model), float(traj.delta[0]))
    assert traj.los_time is None
    assert not _lost(traj.delta, traj.dw, upper, lower).any()


def test_detect_los_matches_online_flag(vsg, sg, load, base, scenario):
    # los_time is the first sample past a saddle of the fault-on model while
    # still moving outward (at this inertia the fault-on stage keeps its saddles)
    big = replace(vsg, inertia=45.0, damping=22.5)
    traj = simulate_reduced(plan_stages(big, sg, load, base, scenario, dt=1e-3))
    fault_model = reduce_two_machine(big, replace(sg, voltage=0.2), load, base)
    eq = find_equilibria(fault_model)
    assert traj.los_time is not None
    outward = ((traj.delta > eq.uep_forward) & (traj.dw > 0)) | (
        (traj.delta < eq.uep_backward) & (traj.dw < 0)
    )
    first = int(np.flatnonzero(outward)[0])
    assert traj.los_time == traj.times[first]
    assert first > 500  # after the fault starts at 0.5 s


def test_detect_los_time_converges_with_step(vsg, sg, load, base, scenario):
    big = replace(vsg, inertia=70.0, damping=35.0)
    coarse = simulate_reduced(plan_stages(big, sg, load, base, scenario, dt=1e-3)).los_time
    fine = simulate_reduced(plan_stages(big, sg, load, base, scenario, dt=1e-4)).los_time
    assert abs(coarse - fine) < 1e-3


# -- scores and traces ----------------------------------------------------------------

def test_ssi_values():
    assert ssi_from_peak(0.0) == 1.0
    assert ssi_from_peak(2 * math.pi) == 0.0
    peaks = np.linspace(0.0, 2 * math.pi, 20)
    scores = [ssi_from_peak(p) for p in peaks]
    assert all(b < a for a, b in zip(scores, scores[1:]))


def test_ssi_of_trajectory(vsg, sg, load, base, scenario):
    traj = simulate_reduced(plan_stages(vsg, sg, load, base, scenario, dt=1e-3))
    assert traj.ssi == pytest.approx(ssi_from_peak(float(np.max(traj.delta))), rel=1e-15)


def test_current_magnitude_values():
    assert current_magnitude(0.0, 1.0, 1.0, 0.5) == 0.0
    x_sum = 0.46949699143686685
    assert current_magnitude(math.pi, 1.0, 0.2, x_sum) == pytest.approx(
        2.555926921549536, rel=1e-12
    )
    assert current_magnitude(math.pi, 1.0, 0.2, x_sum) == pytest.approx(2.556, abs=1e-3)


def test_current_peaks_at_forward_saddle(fault_model_at):
    eq = find_equilibria(fault_model_at(8.0))
    angles = np.linspace(0.0, eq.uep_forward, 500)
    currents = current_magnitude(angles, 1.0, 0.2, 0.46949699143686685)
    assert int(np.argmax(currents)) == len(angles) - 1


def test_trajectory_traces_follow_stage_parameters(vsg, sg, load, base, scenario):
    traj = simulate_reduced(plan_stages(vsg, sg, load, base, scenario, dt=1e-3))
    # pre-fault: no virtual reactance, machine at 1 pu
    x_pre = vsg.line_reactance + sg.line_reactance
    i0 = current_magnitude(float(traj.delta[0]), 1.0, 1.0, x_pre)
    assert traj.current[0] == pytest.approx(i0, rel=1e-12)
    # fault-on sample
    k = 600
    x_fault = x_pre + vsg.virtual_reactance
    ik = current_magnitude(float(traj.delta[k]), 1.0, 0.2, x_fault)
    assert traj.current[k] == pytest.approx(ik, rel=1e-12)
    pk = 0.2 / x_fault * math.sin(float(traj.delta[k]))
    assert traj.sync_power[k] == pytest.approx(pk, rel=1e-12)


# -- energy bookkeeping ----------------------------------------------------------------

def test_energy_conserved_undamped(vsg, sg, load, base):
    v0 = replace(vsg, damping=0.0)
    g0 = replace(sg, damping=0.0)
    scenario = FaultScenario(t_end=2.0, t_fault=0.0,
                             prefault=StageCondition(sg_voltage=1.0, virtual_reactance=0.0),
                             faulted=StageCondition(sg_voltage=0.2))
    traj = simulate_reduced(plan_stages(v0, g0, load, base, scenario, dt=1e-4))
    model = reduce_two_machine(v0, replace(g0, voltage=0.2), load, base)
    energy = model.inertia * traj.dw**2 - (
        model.power_ref * traj.delta + model.power_max * np.cos(traj.delta)
    ) / model.omega_ref
    drift = float(np.max(np.abs(energy - energy[0]))) / abs(energy[0])
    assert drift < 1e-8 * scenario.t_end


def test_energy_non_increasing_damped(vsg, sg, load, base):
    scenario = FaultScenario(t_end=3.0, t_fault=0.0,
                             prefault=StageCondition(sg_voltage=1.0, virtual_reactance=0.0),
                             faulted=StageCondition(sg_voltage=0.2))
    traj = simulate_reduced(plan_stages(vsg, sg, load, base, scenario, dt=1e-4))
    model = reduce_two_machine(vsg, replace(sg, voltage=0.2), load, base)
    energy = model.inertia * traj.dw**2 - (
        model.power_ref * traj.delta + model.power_max * np.cos(traj.delta)
    ) / model.omega_ref
    slack = 1e-12 * max(1.0, abs(float(energy[0])))  # float noise at turning points
    assert float(np.max(np.diff(energy))) <= slack


# -- batched integration ------------------------------------------------------------------

def test_ensemble_matches_scalar_runs(fault_model_at):
    model = fault_model_at(20.0)
    starts = np.array([0.08394969508347397, 1.5, -2.0])
    los, d_end, w_end = simulate_ensemble(model, starts, np.zeros(3), dt=1e-3, t_max=5.0)
    for i, d0 in enumerate(starts):
        delta, dw = _run(model, float(d0), 0.0, 1e-3, 5000)
        assert d_end[i] == pytest.approx(delta[-1], abs=1e-9)
        assert w_end[i] == pytest.approx(dw[-1], abs=1e-9)
    assert math.isnan(los[0])  # rest on the pre-fault angle converges


def test_ensemble_flags_escape(fault_model_at):
    model = fault_model_at(20.0)
    eq = find_equilibria(model)
    los, _, _ = simulate_ensemble(
        model, np.array([eq.uep_forward + 0.1]), np.array([0.01]), dt=1e-3, t_max=5.0
    )
    assert not math.isnan(los[0])


def _mixed_grid(model):
    """A 7x5 grid around the saddles: lanes that stay and lanes that are lost."""
    eq = find_equilibria(model)
    dd, ww = np.meshgrid(np.linspace(eq.uep_backward - 0.3, eq.uep_forward + 0.3, 7),
                         np.linspace(-0.02, 0.02, 5), indexing="ij")
    return dd.ravel(), ww.ravel()


def test_ensemble_permuting_lanes_permutes_results(fault_model_at):
    model = fault_model_at(20.0)
    d0, w0 = _mixed_grid(model)
    los, d_end, w_end = simulate_ensemble(model, d0, w0, dt=2e-3, t_max=10.0)
    assert 0 < int(np.isnan(los).sum()) < los.size
    perm = np.random.default_rng(14).permutation(d0.size)
    p_los, p_d, p_w = simulate_ensemble(model, d0[perm], w0[perm], dt=2e-3, t_max=10.0)
    np.testing.assert_array_equal(p_los, los[perm])
    np.testing.assert_array_equal(p_d, d_end[perm])
    np.testing.assert_array_equal(p_w, w_end[perm])
    # the input shape is kept
    shaped = simulate_ensemble(model, d0.reshape(7, 5), w0.reshape(7, 5), dt=2e-3, t_max=10.0)
    for got, flat in zip(shaped, (los, d_end, w_end)):
        np.testing.assert_array_equal(got, flat.reshape(7, 5))


def test_ensemble_lanes_equal_single_lane_runs(fault_model_at):
    model = fault_model_at(20.0)
    d0, w0 = _mixed_grid(model)
    los, d_end, w_end = simulate_ensemble(model, d0, w0, dt=2e-3, t_max=6.0)
    picked = range(0, d0.size, 2)
    assert 0 < int(np.isnan(los[picked]).sum()) < len(picked)
    for i in picked:
        one = simulate_ensemble(model, d0[i:i + 1], w0[i:i + 1], dt=2e-3, t_max=6.0)
        np.testing.assert_array_equal(one[0], los[i:i + 1])
        if math.isnan(los[i]):
            assert (one[1][0], one[2][0]) == (d_end[i], w_end[i])


def test_ensemble_lost_lane_ends_at_its_loss_sample(fault_model_at):
    model = fault_model_at(20.0)
    d0, w0 = _mixed_grid(model)
    los, d_end, w_end = simulate_ensemble(model, d0, w0, dt=1e-3, t_max=10.0)
    upper, lower = _los_thresholds(find_equilibria(model), d0)
    lost = np.flatnonzero(~np.isnan(los))
    assert lost.size
    for i in lost:
        n = round(los[i] / 1e-3)
        delta, dw = _run(model, float(d0[i]), float(w0[i]), 1e-3, n)
        assert (d_end[i], w_end[i]) == (delta[-1], dw[-1])
        assert _lost(d_end[i], w_end[i], upper, lower)
        assert not np.any(_lost(delta[1:-1], dw[1:-1], upper, lower))


def test_ensemble_retires_lanes_with_per_lane_thresholds():
    # no stable equilibrium: each lane is lost a half-turn from its own start,
    # and the lanes are lost at different steps, so the thresholds must follow
    # the lanes as they are retired
    model = _model(0.5, 0.42598782025825604, damping=2.0)
    assert not find_equilibria(model).exists
    d0 = np.array([0.0, -2.0, 1.0, -4.0, 2.5])
    w0 = np.array([0.0, 0.002, 0.0, -0.001, 0.001])
    los, d_end, w_end = simulate_ensemble(model, d0, w0, dt=1e-3, t_max=30.0)
    assert np.all(~np.isnan(los)) and len(set(los.tolist())) == los.size
    for i in range(d0.size):
        n = round(los[i] / 1e-3)
        delta, dw = _run(model, float(d0[i]), float(w0[i]), 1e-3, n)
        assert (d_end[i], w_end[i]) == (delta[-1], dw[-1])
        assert d_end[i] > d0[i] + math.pi >= delta[-2]



def _lane_loop(model, delta0, dw0, dt, t_max):
    """simulate_ensemble's contract as a plain per-step numpy loop, the reference
    for the stacked lane kernel: all live lanes take each step together, and a
    lane is retired at the step whose sample flags its loss."""
    d = np.asarray(delta0, dtype=float).copy()
    w = np.asarray(dw0, dtype=float).copy()
    shape = d.shape
    d, w = d.ravel(), w.ravel()
    upper, lower = _los_thresholds(find_equilibria(model), d)
    pref, pmax, damp = model.power_ref, model.power_max, model.damping
    h2, om = 2.0 * model.inertia, model.omega_ref
    los = np.full(d.size, np.nan)
    d_end, w_end = np.empty(d.size), np.empty(d.size)
    lanes = np.arange(d.size)
    for i in range(int(round(t_max / dt))):
        if not lanes.size:
            break
        k1d = om * w
        k1w = (pref - pmax * np.sin(d) - damp * w) / h2
        d2 = d + 0.5 * dt * k1d
        w2 = w + 0.5 * dt * k1w
        k2d = om * w2
        k2w = (pref - pmax * np.sin(d2) - damp * w2) / h2
        d3 = d + 0.5 * dt * k2d
        w3 = w + 0.5 * dt * k2w
        k3d = om * w3
        k3w = (pref - pmax * np.sin(d3) - damp * w3) / h2
        d4 = d + dt * k3d
        w4 = w + dt * k3w
        k4d = om * w4
        k4w = (pref - pmax * np.sin(d4) - damp * w4) / h2
        d += dt / 6.0 * (k1d + 2.0 * k2d + 2.0 * k3d + k4d)
        w += dt / 6.0 * (k1w + 2.0 * k2w + 2.0 * k3w + k4w)
        crossed = _lost(d, w, upper, lower)
        if crossed.any():
            gone = lanes[crossed]
            los[gone] = (i + 1) * dt
            d_end[gone], w_end[gone] = d[crossed], w[crossed]
            live = ~crossed
            lanes, d, w = lanes[live], d[live], w[live]
            if np.ndim(upper):
                upper, lower = upper[live], lower[live]
    d_end[lanes], w_end[lanes] = d, w
    return los.reshape(shape), d_end.reshape(shape), w_end.reshape(shape)


@pytest.mark.parametrize("case", ["first_step_loss", "nan_start", "no_equilibrium",
                                  "two_d", "inward_past_saddle"])
def test_lane_kernel_equals_per_step_loop(fault_model_at, case):
    model = fault_model_at(20.0)
    eq = find_equilibria(model)
    dt, t_max = 1e-3, 1.0  # 1000 steps: whole chunks and a short last one
    if case == "first_step_loss":
        # past the forward saddle and moving out, beside a lane that stays
        d0, w0 = np.array([eq.uep_forward + 0.05, eq.sep]), np.array([0.01, 0.0])
    elif case == "nan_start":
        d0, w0 = np.array([np.nan, eq.sep + 0.5, 0.3]), np.array([0.0, np.nan, 0.001])
    elif case == "no_equilibrium":
        # per-lane thresholds, a half-turn from each start, lost at different steps
        model, t_max = _model(0.5, 0.42598782025825604, damping=2.0), 12.0
        d0 = np.array([0.0, -2.0, 1.0, -4.0, 2.5])
        w0 = np.array([0.0, 0.002, 0.0, -0.001, 0.001])
    elif case == "two_d":
        d0, w0 = (a.reshape(7, 5) for a in _mixed_grid(model))
        dt, t_max = 2e-3, 3.0
    else:
        # past a saddle but moving back in: not lost on the way back
        d0 = np.array([eq.uep_forward + 0.1, eq.uep_backward - 0.1])
        w0 = np.array([-0.02, 0.02])
    want = _lane_loop(model, d0, w0, dt, t_max)
    got = simulate_ensemble(model, d0, w0, dt, t_max)
    for g, w in zip(got, want):
        assert g.shape == w.shape == np.shape(d0)
        assert g.tobytes() == w.tobytes()
    los = want[0].ravel()
    if case == "first_step_loss":
        assert los[0] == dt and math.isnan(los[1])
    elif case == "nan_start":
        assert math.isnan(los[0]) and math.isnan(los[1])
    elif case == "no_equilibrium":
        assert np.all(~np.isnan(los)) and len(set(los.tolist())) == los.size
    elif case == "two_d":
        assert 0 < int(np.isnan(los).sum()) < los.size
    else:
        assert not np.any(los <= 10 * dt)  # past a saddle, yet not lost on the way in


def test_settled_lanes_retire_without_a_final_state(fault_model_at):
    model = fault_model_at(20.0)
    d0, w0 = _mixed_grid(model)
    full = simulate_ensemble(model, d0, w0, 2e-3, 2.0)
    calls = []

    def settled(delta, dw, steps_left):
        calls.append(steps_left)
        return np.abs(dw) < 0.004  # any mask; the hook's caller proves its own

    los, d_end, w_end = simulate_ensemble(model, d0, w0, 2e-3, 2.0, settled)
    assert calls and calls[0] == 1000 - 32 and calls == sorted(calls, reverse=True)
    retired = np.isposinf(los)
    assert 0 < int(retired.sum()) < los.size
    assert np.all(np.isnan(d_end[retired]) & np.isnan(w_end[retired]))
    # a lane the hook never marks runs as it would without the hook
    for got, want in zip((los, d_end, w_end), full):
        assert got[~retired].tobytes() == want[~retired].tobytes()

# -- early exit -----------------------------------------------------------------------

def _outcome_cases(vsg, sg, scenario):
    """(vsg, sg, scenario, dt, stops) along both sweep axes, with and without
    clearing, plus the stage layouts the early exit must handle.  stops says
    whether the run must stop early (None: either)."""
    rng = random.Random(14)
    cleared = replace(scenario, t_clear=0.75, postfault=StageCondition(sg_voltage=1.0))

    def clearing(sc):
        t_clear = round(rng.uniform(0.6, 0.9), 3)
        return replace(sc, t_clear=t_clear, postfault=StageCondition(sg_voltage=1.0))

    cases = []
    for k in range(16):
        sc = clearing(scenario) if k % 2 else scenario
        h_v = round(rng.uniform(5.0, 80.0), 2)
        cases.append((replace(vsg, inertia=h_v, damping=0.5 * h_v), sg, sc, 1e-3, None))
        faulted = StageCondition(sg_voltage=round(rng.uniform(0.05, 0.9), 3))
        cases.append((vsg, sg, replace(sc, faulted=faulted), 1e-3, None))
    undamped = (replace(vsg, damping=0.0), replace(sg, damping=0.0))
    pushed_back = StageCondition(sg_voltage=0.05, power_ref=-0.5)
    pushed_on = StageCondition(sg_voltage=0.2, power_ref=1.5)
    cases += [
        (*undamped, scenario, 1e-3, False),
        (*undamped, cleared, 1e-3, False),
        # lost although the damped fault-on stage has a stable equilibrium
        (vsg, sg, replace(scenario, faulted=StageCondition(sg_voltage=0.2,
                                                           virtual_reactance=1.0)), 1e-3, None),
        # backward slips under a last stage without a stable equilibrium
        (vsg, sg, replace(scenario, faulted=StageCondition(sg_voltage=0.05)), 1e-3, True),
        (replace(vsg, inertia=70.0, damping=35.0), sg, scenario, 1e-3, True),
        # lost under the fault at 3.437 s, then held by the post-fault stage
        (vsg, sg, replace(scenario, faulted=StageCondition(sg_voltage=0.2, virtual_reactance=1.0),
                          t_clear=3.45, postfault=scenario.prefault), 1e-3, None),
        # lost backward under the fault, recaptured a turn back after clearing,
        # and never above the start angle: only the saddle between bounds the peak
        (vsg, sg, replace(scenario, faulted=pushed_back, t_clear=1.6,
                          postfault=scenario.prefault), 1e-3, True),
        # lost forward, recaptured a turn on after clearing
        (vsg, sg, replace(scenario, faulted=pushed_on, t_clear=1.5,
                          postfault=StageCondition(sg_voltage=0.3)), 1e-3, True),
        # a forward slip: every sample is a new peak
        (vsg, sg, replace(scenario, faulted=pushed_on), 1e-3, False),
        # the fault-on stage has no stable equilibrium: not lost by t_end
        (replace(vsg, inertia=70.0, damping=35.0), sg, replace(scenario, t_end=1.0), 1e-3, None),
        (vsg, sg, replace(scenario, t_clear=scenario.t_end,
                          postfault=StageCondition(sg_voltage=1.0)), 1e-3, None),
        (vsg, sg, replace(cleared, t_fault=0.4996, t_clear=0.4999), 1e-3, None),
        (vsg, sg, cleared, 1e-4, None),
        # a fault that changes nothing: the whole run rests on a fixed point
        (vsg, sg, replace(scenario, faulted=scenario.prefault), 1e-3, False),
    ]
    # steps past dt*omega_n = 0.5 under the last stage: RK4's map no longer keeps
    # the energy from rising, so the run must go to t_end
    slow = replace(scenario, t_clear=0.9, postfault=scenario.prefault, t_end=2000.0)
    cases += [(vsg, sg, slow, dt, False) for dt in (0.55, 0.6)]
    # table1's sweeps as the CLI runs them, through pre-fault stages that are
    # exact fixed points of the step map (H_v 20, 8) and that are not (29.4, 63.91)
    cases += [(replace(vsg, inertia=h_v), sg, scenario, 1e-3, None)
              for h_v in (20.0, 29.4, 63.91, 8.0)]
    for h_v in (20.0, 29.4):
        v = replace(vsg, inertia=h_v, damping=0.5 * h_v)
        cases += [(v, sg, replace(scenario, faulted=StageCondition(sg_voltage=u)), 1e-3, None)
                  for u in (0.1, 0.45, 0.8)]
    return cases


def test_outcome_equals_full_run(vsg, sg, load, base, scenario, monkeypatch):
    steps = []

    def counting(model, d, w, dt, delta, dw, start, stop):
        steps.append(stop - start)
        return _rk4(model, d, w, dt, delta, dw, start, stop)

    early = lost_early = 0
    for v, g, sc, dt, stops in _outcome_cases(vsg, sg, scenario):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DampingRatioWarning)
            traj = simulate_reduced(plan_stages(v, g, load, base, sc, dt))
            monkeypatch.setattr(simulate_module, "_rk4", counting)
            steps.clear()
            outcome = simulate_outcome(plan_stages(v, g, load, base, sc, dt))
            monkeypatch.undo()
        assert outcome == (traj.los_time, traj.ssi)
        n_steps = len(traj.times) - 1
        assert sum(steps) <= n_steps
        stopped = sum(steps) < n_steps
        if stops is not None:
            assert stopped == stops
        if v.damping == 0.0 or np.argmax(traj.delta) == n_steps:
            assert not stopped
        early += stopped
        lost_early += stopped and traj.los_time is not None
    assert early >= 10 and lost_early >= 5


def test_outcome_reports_divergence(vsg, sg, load, base, scenario):
    infinite = replace(scenario, faulted=StageCondition(sg_voltage=math.inf))
    for run in (simulate_reduced, simulate_outcome, simulate_full):
        with pytest.raises(IntegrationDivergedError):
            run(plan_stages(vsg, sg, load, base, infinite, dt=1e-3))
