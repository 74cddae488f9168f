"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Criterion 1 (three-inertia fault classification) intentionally asserts the
published benchmark outcomes.  Its light-inertia leg demands a loss of
synchronism the implemented two-state model provably cannot produce: at 8 s
the fault-on stability index is 0.79 and every from-rest start inside the
principal well carries less energy than the escape barrier, so the case
converges.  The expectation is kept as stated and the test documents the
discrepancy by failing honestly.
"""

import math
import time
from dataclasses import replace

import numpy as np

from syncstab import (
    BaseQuantities,
    FaultScenario,
    LoadParams,
    PenetrationModel,
    SgParams,
    StageCondition,
    SwingClass,
    VsgParams,
    classify_first_swing,
    classify_grid,
    design,
    DesignInput,
    dindex_dcapacity,
    dindex_dratio,
    find_equilibria,
    index_at_capacity,
    load_power,
    plan_stages,
    reduce_two_machine,
    scr,
    simulate_full,
    simulate_reduced,
    stability_index,
    stability_index_from_parts,
    stability_index_from_scr,
    total_reactance,
    trace_boundary,
)

BASE = BaseQuantities(rated_voltage=95.22, rated_power=1000.0, rated_frequency=50.0)
LOAD = LoadParams(resistance=1.0)
X_V = 0.3187728650346255
X_G = 0.10048275093482759
X_I = 0.05024137546741379
SG = SgParams(inertia=40.0, damping=20.0, mech_power=1.0, voltage=1.0, line_reactance=X_G)


def _vsg(inertia: float, damping_scale: float = 0.5) -> VsgParams:
    return VsgParams(inertia=inertia, damping=damping_scale * inertia, power_ref=0.3,
                     internal_voltage=1.0, line_reactance=X_V, virtual_reactance=X_I)


def _bench_scenario(t_end: float = 10.0) -> FaultScenario:
    return FaultScenario(
        t_end=t_end, t_fault=0.5,
        prefault=StageCondition(sg_voltage=1.0, virtual_reactance=0.0),
        faulted=StageCondition(sg_voltage=0.2),
    )


def _report(criterion: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}")


# -- criterion 1: three-inertia fault classification --------------------------------

def test_criterion_1_three_inertia_classification():
    expected = {8.0: True, 20.0: False, 70.0: True}  # inertia -> loses sync
    started = time.perf_counter()
    outcomes = {}
    for inertia in expected:
        traj = simulate_reduced(
            plan_stages(_vsg(inertia), SG, LOAD, BASE, _bench_scenario(), dt=1e-4))
        outcomes[inertia] = traj.los_time is not None
    elapsed = time.perf_counter() - started
    ok = outcomes == expected and elapsed < 5.0
    _report(1, ok, f"loses sync by inertia {outcomes} (expected {expected}), "
                   f"runtime {elapsed:.2f} s (budget 5 s)")
    assert elapsed < 5.0, f"runtime budget exceeded: {elapsed:.2f} s"
    assert outcomes == expected, (
        f"classification mismatch: {outcomes} vs expected {expected}; the 8 s case "
        "converges because its fault-on index is 0.79 and no from-rest start inside "
        "the principal well can reach the escape barrier"
    )


# -- criterion 2: the three index forms agree ----------------------------------------

def test_criterion_2_index_forms_agree():
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(1000):
        vsg = VsgParams(
            inertia=rng.uniform(1, 100), damping=0.0,
            power_ref=rng.uniform(0.05, 2.0),
            internal_voltage=rng.uniform(0.2, 1.5),
            line_reactance=rng.uniform(0.02, 1.0),
            virtual_reactance=rng.uniform(0.0, 0.5),
        )
        sg = SgParams(
            inertia=rng.uniform(1, 100), damping=0.0,
            mech_power=rng.uniform(0.1, 2.0),
            voltage=rng.uniform(0.2, 1.5),
            line_reactance=rng.uniform(0.02, 1.0),
        )
        load = LoadParams(resistance=rng.uniform(0.3, 3.0))
        model = reduce_two_machine(vsg, sg, load, BASE)
        lam = stability_index(model)
        lam_scr = stability_index_from_scr(
            scr(vsg, sg), vsg.virtual_reactance, model.power_ref,
            vsg.internal_voltage, sg.voltage,
        )
        p_net = sg.mech_power - load_power(sg.voltage, load)
        lam_parts = stability_index_from_parts(
            vsg.power_ref, p_net, vsg.inertia, sg.inertia,
            vsg.internal_voltage, sg.voltage, total_reactance(vsg, sg),
        )
        scale = max(1.0, abs(lam))
        worst = max(worst, abs(lam - lam_scr) / scale, abs(lam - lam_parts) / scale)
    ok = worst <= 1e-12
    _report(2, ok, f"worst relative spread across 1000 draws = {worst:.2e} (tol 1e-12)")
    assert ok


# -- criterion 3: the matched-inertia optimum -----------------------------------------

def test_criterion_3_matching_optimum():
    x_sum = X_V + X_G + X_I
    matched = 0.3 / 0.96

    def index_of_ratio(r: float) -> float:
        return stability_index_from_parts(0.3, 0.96, r * 40.0, 40.0, 1.0, 0.2, x_sum)

    ratios = np.sort(np.concatenate([np.geomspace(0.02, 5.0, 99), [matched]]))
    lam = np.array([index_of_ratio(r) for r in ratios])
    peak = int(np.argmax(lam))
    peak_ok = ratios[peak] == matched and abs(lam[peak] - 1.0) < 1e-15
    mono_ok = (np.all(np.diff(lam[: peak + 1]) > 0)
               and np.all(np.diff(lam[peak:]) < 0))

    worst_fd = 0.0
    for r in np.geomspace(0.03, 4.0, 20):
        if abs(r - matched) < 0.02:
            continue
        h = 1e-6 * r
        fd = (index_of_ratio(r + h) - index_of_ratio(r - h)) / (2 * h)
        analytic = dindex_dratio(0.3, 0.96, 1.0, 0.2, x_sum, h_v=r * 40.0, h_g=40.0)
        worst_fd = max(worst_fd, abs(analytic - fd) / abs(fd))
    fd_ok = worst_fd <= 1e-6
    ok = peak_ok and mono_ok and fd_ok
    _report(3, ok, f"peak at ratio {ratios[peak]:.6f} with index {lam[peak]!r}, "
                   f"monotone={mono_ok}, worst derivative mismatch {worst_fd:.2e}")
    assert peak_ok and mono_ok and fd_ok


# -- criterion 4: area verdicts against simulated loss -------------------------------

def test_criterion_4_equal_area_matches_simulation():
    started = time.perf_counter()
    inertias = np.linspace(5.0, 80.0, 20)
    dips = np.linspace(0.05, 0.95, 20)
    hh, ee = np.meshgrid(inertias, dips, indexing="ij")
    hh, ee = hh.ravel(), ee.ravel()

    # undamped fault-on coefficients per cell
    p_net = 1.0 - ee**2
    pref = (40.0 * 0.3 - hh * p_net) / (hh + 40.0)
    pmax = ee / (X_V + X_G + X_I)
    h2 = 2.0 * hh * 40.0 / (hh + 40.0)
    delta0 = np.arcsin((40.0 * 0.3 / (hh + 40.0)) * (X_V + X_G))

    # area verdicts
    eac_lost = np.zeros(hh.shape, dtype=bool)
    critical = np.zeros(hh.shape, dtype=bool)
    margins = np.zeros(hh.shape)
    for i in range(hh.size):
        model = reduce_two_machine(
            replace(_vsg(float(hh[i])), damping=0.0),
            replace(SG, voltage=float(ee[i]), damping=0.0),
            LOAD, BASE,
        )
        res = classify_first_swing(model, float(delta0[i]))
        eac_lost[i] = res.classification in (SwingClass.UNSTABLE, SwingClass.NO_SEP)
        critical[i] = res.classification is SwingClass.CRITICAL
        if math.isfinite(res.accel_area) and math.isfinite(res.decel_area):
            margins[i] = abs(res.accel_area - res.decel_area) / max(
                res.accel_area, res.decel_area, 1e-30
            )
        else:
            margins[i] = math.inf

    # independent oracle: direct undamped integration of every cell at once
    ratio = np.clip(pref / pmax, -1.0, 1.0)
    exists = np.abs(pref) < pmax
    sep = np.arcsin(ratio)
    upper = np.where(exists, math.pi - sep, delta0 + math.pi)
    lower = np.where(exists, -math.pi - sep, delta0 - math.pi)
    d = delta0.copy()
    w = np.zeros_like(d)
    om, dt = BASE.omega_ref, 1e-3
    sim_lost = np.zeros(hh.shape, dtype=bool)
    for _ in range(20000):  # 20 s horizon
        k1d = om * w
        k1w = (pref - pmax * np.sin(d)) / h2
        d2, w2 = d + 0.5 * dt * k1d, w + 0.5 * dt * k1w
        k2d = om * w2
        k2w = (pref - pmax * np.sin(d2)) / h2
        d3, w3 = d + 0.5 * dt * k2d, w + 0.5 * dt * k2w
        k3d = om * w3
        k3w = (pref - pmax * np.sin(d3)) / h2
        d4, w4 = d + dt * k3d, w + dt * k3w
        k4d = om * w4
        k4w = (pref - pmax * np.sin(d4)) / h2
        d += dt / 6.0 * (k1d + 2 * k2d + 2 * k3d + k4d)
        w += dt / 6.0 * (k1w + 2 * k2w + 2 * k3w + k4w)
        sim_lost |= ((d > upper) & (w > 0)) | ((d < lower) & (w < 0))

    decided = ~critical
    agree = (eac_lost == sim_lost)[decided]
    rate = float(np.mean(agree))
    disagreeing = np.flatnonzero(decided)[~agree]
    band_ok = bool(np.all(margins[disagreeing] < 0.05)) if disagreeing.size else True
    elapsed = time.perf_counter() - started
    ok = rate >= 0.98 and band_ok and elapsed < 60.0
    _report(4, ok, f"agreement {rate:.1%} over {int(decided.sum())} cells "
                   f"({disagreeing.size} disagreements, all near the balance point: "
                   f"{band_ok}), runtime {elapsed:.1f} s (budget 60 s)")
    assert rate >= 0.98
    assert band_ok, f"disagreements outside the area-balance band: {margins[disagreeing]}"
    assert elapsed < 60.0


# -- criterion 5: energy conservation and dissipation ---------------------------------

def test_criterion_5_energy_invariants():
    scenario = FaultScenario(
        t_end=5.0, t_fault=0.0,
        prefault=StageCondition(sg_voltage=1.0, virtual_reactance=0.0),
        faulted=StageCondition(sg_voltage=0.2),
    )
    undamped = simulate_reduced(plan_stages(
        replace(_vsg(20.0), damping=0.0), replace(SG, damping=0.0),
        LOAD, BASE, scenario, dt=1e-4,
    ))
    model0 = reduce_two_machine(
        replace(_vsg(20.0), damping=0.0),
        replace(SG, damping=0.0, voltage=0.2), LOAD, BASE,
    )
    energy = model0.energy(undamped.delta, undamped.dw)
    drift = float(np.max(np.abs(energy - energy[0]))) / abs(float(energy[0]))
    drift_ok = drift < 1e-8 * scenario.t_end

    damped = simulate_reduced(plan_stages(_vsg(20.0), SG, LOAD, BASE, scenario, dt=1e-4))
    model1 = reduce_two_machine(_vsg(20.0), replace(SG, voltage=0.2), LOAD, BASE)
    energy_d = model1.energy(damped.delta, damped.dw)
    slack = 1e-12 * max(1.0, abs(float(energy_d[0])))
    rise = float(np.max(np.diff(energy_d)))
    damped_ok = rise <= slack
    ok = drift_ok and damped_ok
    _report(5, ok, f"undamped drift {drift:.2e} over {scenario.t_end:.0f} s "
                   f"(tol {1e-8 * scenario.t_end:.0e}), "
                   f"max damped energy rise {rise:.2e} (slack {slack:.0e})")
    assert drift_ok and damped_ok


# -- criterion 6: the reduction against the full pair ---------------------------------

def test_criterion_6_reduction_oracle():
    scenario = _bench_scenario()
    reduced = simulate_reduced(plan_stages(_vsg(20.0), SG, LOAD, BASE, scenario, dt=1e-4))
    full = simulate_full(plan_stages(_vsg(20.0), SG, LOAD, BASE, scenario, dt=1e-4))
    gap = float(np.max(np.abs(full.delta - reduced.delta)))
    ok = gap < 1e-6
    _report(6, ok, f"max angle gap between models {gap:.2e} rad (tol 1e-6)")
    assert ok


# -- criterion 7: region orderings and the traced boundary ----------------------------

def test_criterion_7_region_orderings():
    areas = {}
    for inertia in (12.5, 6.25, 25.0):
        model = reduce_two_machine(_vsg(inertia), replace(SG, voltage=0.2), LOAD, BASE)
        grid = classify_grid(model, (-3.5, 3.5), (-0.025, 0.025), 33, 33,
                             t_max=60.0, dt=2e-3)
        areas[inertia] = grid.area_estimate
    matched_ok = areas[12.5] >= areas[6.25] and areas[12.5] >= areas[25.0]

    penetration_ok = True
    trends = {}
    for c, should_rise in ((0.75, True), (0.25, False)):
        pair = []
        for eta in (0.6, 1.0):
            pm = PenetrationModel(2.0, 0.4, c, eta, 1.0)
            model = reduce_two_machine(pm.build_vsg(SG), replace(SG, voltage=0.5),
                                       LOAD, BASE)
            grid = classify_grid(model, (-3.2, 3.4), (-0.03, 0.03), 33, 33,
                                 t_max=60.0, dt=2e-3)
            pair.append(grid.area_estimate)
        trends[c] = pair
        penetration_ok &= (pair[1] >= pair[0]) == should_rise

    undamped = reduce_two_machine(
        replace(_vsg(20.0), damping=0.0),
        replace(SG, voltage=0.2, damping=0.0), LOAD, BASE,
    )
    boundary = trace_boundary(undamped, dt=1e-3)
    eq = find_equilibria(undamped)
    worst = 0.0
    for k, branch in enumerate(boundary.branches):
        seed = eq.uep_forward if k < 2 else eq.uep_backward
        level = undamped.omega_ref * undamped.energy(seed, 0.0)
        energy = undamped.omega_ref * undamped.energy(branch[:, 0], branch[:, 1])
        worst = max(worst, float(np.max(np.abs(energy - level))))
    separatrix_ok = worst < 1e-3

    ok = matched_ok and penetration_ok and separatrix_ok
    _report(7, ok, f"areas by inertia {areas}; capacity trends {trends}; "
                   f"boundary level-set deviation {worst:.2e} (tol 1e-3)")
    assert matched_ok, f"matched-inertia region is not the largest: {areas}"
    assert penetration_ok, f"capacity trends wrong: {trends}"
    assert separatrix_ok


# -- criterion 8: the coordinated design guarantee -------------------------------------

def test_criterion_8_controller_guarantee():
    current_limit = 5.0
    depths = np.round(np.arange(0.1, 0.95, 0.1), 2)
    reactances = []
    indices = []
    all_converge = True
    current_ok = True
    for depth in depths:
        out = design(DesignInput(sg=SG, vsg=_vsg(20.0), load=LOAD,
                                 fault_voltage=float(depth), current_limit=current_limit))
        reactances.append(out.virtual_reactance)
        indices.append(out.predicted_index)
        scenario = FaultScenario(
            t_end=6.0, t_fault=0.5,
            prefault=StageCondition(sg_voltage=1.0, virtual_reactance=0.0),
            faulted=StageCondition(sg_voltage=float(depth)),
        )
        traj = simulate_reduced(
            plan_stages(out.apply(_vsg(20.0)), SG, LOAD, BASE, scenario, dt=5e-4))
        all_converge &= traj.los_time is None
        current_ok &= float(traj.current.max()) <= 1.02 * current_limit
    index_ok = all(abs(lam - 1.0) <= 1e-12 for lam in indices)
    monotone_ok = all(b <= a + 1e-15 for a, b in zip(reactances, reactances[1:]))

    undesigned = simulate_reduced(
        plan_stages(_vsg(70.0), SG, LOAD, BASE, _bench_scenario(6.0), dt=5e-4))
    undesigned_fails = undesigned.los_time is not None

    ok = index_ok and monotone_ok and all_converge and current_ok and undesigned_fails
    _report(8, ok, f"index==1 {index_ok}, reactance non-increasing {monotone_ok} "
                   f"{[round(x, 4) for x in reactances]}, all depths converge "
                   f"{all_converge}, current within 1.02x limit {current_ok}, "
                   f"undesigned 70 s case fails {undesigned_fails}")
    assert index_ok and monotone_ok and all_converge and current_ok and undesigned_fails


# -- criterion 9: capacity-share sign rule ----------------------------------------------

def test_criterion_9_capacity_sign_rule():
    rng = np.random.default_rng(2024)
    worst_fd = 0.0
    checked = 0
    sign_ok = True
    while checked < 20:
        a = rng.uniform(0.5, 3.0)
        b = rng.uniform(0.0, 1.0)
        c = rng.uniform(0.1, 1.0)
        eta = rng.uniform(0.3, 2.0)
        pf = rng.uniform(0.8, 1.0)
        depth = rng.uniform(0.2, 0.9)
        sg = replace(SG, mech_power=pf)
        if sg.mech_power - load_power(depth, LOAD) <= 0.05:
            continue

        def index_of(eta_value: float) -> float:
            pm = PenetrationModel(a, b, c, eta_value, pf)
            return index_at_capacity(pm, sg, LOAD, depth)

        if index_of(eta) < 0.02:
            continue
        h = 1e-6 * eta
        fd = (index_of(eta + h) - index_of(eta - h)) / (2 * h)
        analytic = dindex_dcapacity(PenetrationModel(a, b, c, eta, pf), sg, LOAD, depth)
        worst_fd = max(worst_fd, abs(analytic - fd) / abs(fd))
        sign_ok &= (analytic > 0) == (c > 1.0 / (a + b))
        checked += 1

    balanced = dindex_dcapacity(PenetrationModel(2.0, 0.5, 0.4, 1.0, 1.0), SG, LOAD, 0.2)
    zero_ok = abs(balanced) <= 1e-15
    fd_ok = worst_fd <= 1e-6
    ok = fd_ok and sign_ok and zero_ok
    _report(9, ok, f"worst derivative mismatch {worst_fd:.2e} over 20 draws, "
                   f"sign rule exact {sign_ok}, zero at the balance point {zero_ok}")
    assert fd_ok and sign_ok and zero_ok
