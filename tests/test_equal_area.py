"""First-swing area classification against quadrature and simulation oracles."""

import math
from dataclasses import replace

import numpy as np
import pytest

from syncstab import (
    RelativeSwingModel,
    SwingClass,
    acceleration_area,
    classify_first_swing,
    deceleration_area,
    find_equilibria,
    simulate_ensemble,
)

OMEGA = 100 * math.pi


def _model(power_ref, power_max, inertia=13.333333333333334, damping=0.0):
    return RelativeSwingModel(inertia=inertia, damping=damping, power_ref=power_ref,
                              power_max=power_max, omega_ref=OMEGA)


def _trapezoid(f, a, b, n=10**4):
    xs = np.linspace(a, b, n + 1)
    return float(np.trapezoid(f(xs), xs))


# -- closed forms vs quadrature -------------------------------------------------

def test_acceleration_area_zero_interval():
    m = _model(0.2, 0.4259)
    assert acceleration_area(m, 0.3, 0.3) == 0.0


def test_acceleration_area_quadrature_oracle():
    m = _model(0.2, 0.4259)
    delta_s = math.asin(0.2 / 0.4259)
    closed = acceleration_area(m, 0.05, delta_s)
    quad = _trapezoid(lambda d: m.power_ref - m.power_max * np.sin(d), 0.05, delta_s)
    assert closed == pytest.approx(quad, abs=1e-8)
    # frozen value from the quadrature oracle
    assert closed == pytest.approx(0.03841808561196014, rel=1e-12)


def test_acceleration_integrand_vanishes_at_fault_on_sep():
    m = _model(0.2, 0.4259)
    delta_s = find_equilibria(m).sep
    assert m.power_ref - m.sync_power(delta_s) == pytest.approx(0.0, abs=1e-16)


def _simpson(f, a, b, n=10**4):
    xs = np.linspace(a, b, n + 1)
    ys = f(xs)
    h = (b - a) / n
    return float(h / 3 * (ys[0] + ys[-1] + 4 * ys[1:-1:2].sum() + 2 * ys[2:-1:2].sum()))


def test_deceleration_area_quadrature_oracle():
    rng = np.random.default_rng(2)
    for _ in range(10):
        pmax = rng.uniform(0.2, 1.5)
        pref = rng.uniform(-0.9, 0.9) * pmax
        m = _model(pref, pmax)
        eq = find_equilibria(m)
        closed = deceleration_area(m, eq.sep, eq.uep_forward)
        quad = _simpson(lambda d: m.power_max * np.sin(d) - m.power_ref,
                        eq.sep, eq.uep_forward)
        assert closed == pytest.approx(quad, abs=1e-8)


def test_deceleration_area_zero_interval():
    m = _model(0.2, 0.4259)
    assert deceleration_area(m, 0.7, 0.7) == 0.0


def test_deceleration_area_shrinks_with_reference():
    # larger positive reference leaves less room to brake before the saddle
    areas = []
    for pref in (0.05, 0.1, 0.2, 0.3):
        m = _model(pref, 0.4259)
        eq = find_equilibria(m)
        areas.append(deceleration_area(m, eq.sep, eq.uep_forward))
    assert all(b < a for a, b in zip(areas, areas[1:]))


def test_area_preconditions():
    m = _model(0.2, 0.4259)
    with pytest.raises(ValueError):
        acceleration_area(m, 0.5, 0.1)
    with pytest.raises(ValueError):
        deceleration_area(m, 0.5, 0.1)


# -- classification ---------------------------------------------------------------

def test_classify_start_at_equilibrium():
    m = _model(0.0, 0.5)
    res = classify_first_swing(m, 0.0)
    assert res.classification is SwingClass.STABLE
    assert res.accel_area == 0.0
    assert res.peak_angle == 0.0


def test_classify_no_sep():
    res = classify_first_swing(_model(0.6, 0.5), 0.1)
    assert res.classification is SwingClass.NO_SEP


def test_classify_reference_bench_heavy_inertia_not_stable(fault_model_at):
    # at 70 s the reference power overwhelms the transferable power outright
    model = fault_model_at(70.0)
    res = classify_first_swing(model, 0.0458)
    assert res.classification is SwingClass.NO_SEP
    assert res.peak_angle is None


def test_classify_past_saddle_is_unstable():
    m = _model(0.1, 0.5)
    eq = find_equilibria(m)
    assert classify_first_swing(m, eq.uep_forward + 0.05).classification is SwingClass.UNSTABLE
    assert classify_first_swing(m, eq.uep_backward - 0.05).classification is SwingClass.UNSTABLE


def test_classify_forward_stable_geometry():
    m = _model(0.2, 0.4259)
    res = classify_first_swing(m, 0.05)
    eq = find_equilibria(m)
    assert res.classification is SwingClass.STABLE
    assert res.forward
    assert res.accel_area < res.decel_area
    assert res.sep_angle == pytest.approx(eq.sep, rel=1e-14)
    assert eq.sep < res.peak_angle <= eq.uep_forward
    # the peak absorbs exactly the accumulated energy
    assert deceleration_area(m, eq.sep, res.peak_angle) == pytest.approx(
        res.accel_area, abs=1e-10
    )


def test_classify_backward_peak_matches_simulation(fault_model_at):
    # the reference bench swings backward; the undamped swing minimum must
    # agree with the mirrored construction
    model = replace(fault_model_at(20.0), damping=0.0)
    res = classify_first_swing(model, 0.08394969508347397)
    assert res.classification is SwingClass.STABLE
    assert not res.forward
    assert res.peak_angle < res.sep_angle

    pref, pmax = model.power_ref, model.power_max
    h2, om = 2.0 * model.inertia, model.omega_ref
    d, w = 0.08394969508347397, 0.0
    dt, d_min = 1e-4, d
    for _ in range(40000):
        k1d, k1w = om * w, (pref - pmax * math.sin(d)) / h2
        k2d, k2w = om * (w + 0.5 * dt * k1w), (pref - pmax * math.sin(d + 0.5 * dt * k1d)) / h2
        k3d, k3w = om * (w + 0.5 * dt * k2w), (pref - pmax * math.sin(d + 0.5 * dt * k2d)) / h2
        k4d, k4w = om * (w + dt * k3w), (pref - pmax * math.sin(d + dt * k3d)) / h2
        d += dt / 6 * (k1d + 2 * k2d + 2 * k3d + k4d)
        w += dt / 6 * (k1w + 2 * k2w + 2 * k3w + k4w)
        d_min = min(d_min, d)
    assert res.peak_angle == pytest.approx(d_min, abs=1e-3)


def test_classify_kinetic_energy_equals_accel_area(fault_model_at):
    # undamped: at the instant the angle crosses the fault-on equilibrium the
    # kinetic term inertia*omega_ref*dw**2 equals the acceleration area
    model = replace(fault_model_at(8.0), damping=0.0)
    eq = find_equilibria(model)
    # rest angle of the pre-fault bench at H_v = 8
    delta_0 = math.asin(40.0 * 0.3 / 48.0 / 2.3851797373964336)
    res = classify_first_swing(model, delta_0)
    assert res.forward

    pref, pmax = model.power_ref, model.power_max
    h2, om = 2.0 * model.inertia, model.omega_ref
    d, w, dt = delta_0, 0.0, 1e-4
    crossing_w = None
    for _ in range(200000):
        d_prev, w_prev = d, w
        k1d, k1w = om * w, (pref - pmax * math.sin(d)) / h2
        k2d, k2w = om * (w + 0.5 * dt * k1w), (pref - pmax * math.sin(d + 0.5 * dt * k1d)) / h2
        k3d, k3w = om * (w + 0.5 * dt * k2w), (pref - pmax * math.sin(d + 0.5 * dt * k2d)) / h2
        k4d, k4w = om * (w + dt * k3w), (pref - pmax * math.sin(d + dt * k3d)) / h2
        d += dt / 6 * (k1d + 2 * k2d + 2 * k3d + k4d)
        w += dt / 6 * (k1w + 2 * k2w + 2 * k3w + k4w)
        if d_prev < eq.sep <= d:
            frac = (eq.sep - d_prev) / (d - d_prev)
            crossing_w = w_prev + frac * (w - w_prev)
            break
    assert crossing_w is not None
    kinetic = model.inertia * model.omega_ref * crossing_w**2
    assert kinetic == pytest.approx(res.accel_area, rel=1e-4)


def test_classify_critical_band():
    # bisect the start angle to the area balance point; the verdict there is
    # flagged rather than guessed
    m = _model(0.2, 0.4259)
    eq = find_equilibria(m)
    s_minus = deceleration_area(m, eq.sep, eq.uep_forward)

    lo, hi = -1.0, 0.0  # accel area decreases as the start angle rises
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if acceleration_area(m, mid, eq.sep) > s_minus:
            lo = mid
        else:
            hi = mid
    critical = 0.5 * (lo + hi)
    assert classify_first_swing(m, critical).classification is SwingClass.CRITICAL
    assert classify_first_swing(m, critical + 0.01).classification is SwingClass.STABLE
    assert classify_first_swing(m, critical - 0.01).classification is SwingClass.UNSTABLE


def test_monotone_damage():
    # growing the reference magnitude never turns an unstable verdict stable
    delta_0 = 0.05
    seen_unstable = False
    for pref in np.linspace(0.05, 0.42, 40):
        verdict = classify_first_swing(_model(pref, 0.4259), delta_0).classification
        if verdict is SwingClass.UNSTABLE:
            seen_unstable = True
        elif seen_unstable:
            assert verdict is not SwingClass.STABLE


def test_classification_agrees_with_simulation_spot_checks(fault_model_at):
    # undamped verdicts against direct integration, forward and backward cases
    pmax_prefault = 2.3851797373964336  # 1/(X_v + X_g), no virtual reactance
    for inertia in (8.0, 20.0, 45.0, 54.0, 70.0):
        delta_0 = math.asin(40.0 * 0.3 / (inertia + 40.0) / pmax_prefault)
        model = replace(fault_model_at(inertia), damping=0.0)
        verdict = classify_first_swing(model, delta_0).classification
        los, _, _ = simulate_ensemble(model, np.array([delta_0]), np.array([0.0]),
                                      dt=1e-3, t_max=30.0)
        lost = not math.isnan(los[0])
        if verdict is SwingClass.STABLE:
            assert not lost, f"H={inertia}: area verdict stable but simulation lost sync"
        elif verdict in (SwingClass.UNSTABLE, SwingClass.NO_SEP):
            assert lost, f"H={inertia}: area verdict {verdict} but simulation stayed in sync"
