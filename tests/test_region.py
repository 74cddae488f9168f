"""Stability-region tracing and grid classification."""

import math
from dataclasses import replace

import numpy as np
import pytest

from syncstab import (
    PenetrationModel,
    ModelError,
    RelativeSwingModel,
    classify_grid,
    find_equilibria,
    reduce_two_machine,
    simulate_ensemble,
    trace_boundary,
)
from syncstab import region as region_module
from syncstab import simulate as simulate_module
from syncstab.region import (
    _ALPHA_SHARES,
    DEFAULT_ANGLE_BAND,
    DEFAULT_SPEED_BAND,
    _band_certificate,
    _certificate_member,
    _saddle_jacobian,
)

OMEGA = 100 * math.pi


def _model(power_ref, power_max, inertia=13.333333333333334, damping=0.0):
    return RelativeSwingModel(inertia=inertia, damping=damping, power_ref=power_ref,
                              power_max=power_max, omega_ref=OMEGA)


def _scaled_energy(model, delta, dw):
    # energy in power*angle units so tolerances are meaningful at order one
    return model.omega_ref * model.energy(np.asarray(delta), np.asarray(dw))


def test_saddle_jacobian_is_a_saddle(fault_model_at):
    model = fault_model_at(20.0)
    eq = find_equilibria(model)
    eigvals = np.linalg.eigvals(_saddle_jacobian(model, eq.uep_forward))
    assert eigvals.real.min() < 0 < eigvals.real.max()
    # the stable angle is a focus or node, not a saddle
    eigvals_sep = np.linalg.eigvals(_saddle_jacobian(model, eq.sep))
    assert eigvals_sep.real.max() <= 1e-12


def test_boundary_requires_equilibrium():
    with pytest.raises(ModelError):
        trace_boundary(_model(0.6, 0.5))


def test_symmetric_boundary_passes_through_half_turn_points():
    m = _model(0.0, 0.42598782025825604)
    boundary = trace_boundary(m, dt=1e-3, t_max=40.0)
    assert boundary.uep_forward == pytest.approx(math.pi, rel=1e-15)
    assert boundary.uep_backward == pytest.approx(-math.pi, rel=1e-15)
    assert len(boundary.branches) == 4
    points = np.concatenate(boundary.branches)
    # symmetric model: the boundary is even under (delta, dw) -> (-delta, -dw),
    # so the swept angle range is symmetric
    assert points[:, 0].max() == pytest.approx(-points[:, 0].min(), rel=1e-2)


def test_undamped_boundary_sits_on_energy_level():
    m = _model(-0.12, 0.42598782025825604)
    boundary = trace_boundary(m, dt=1e-3, t_max=60.0)
    for k, branch in enumerate(boundary.branches):
        seed = boundary.uep_forward if k < 2 else boundary.uep_backward
        level = _scaled_energy(m, seed, 0.0)
        deviation = np.abs(_scaled_energy(m, branch[:, 0], branch[:, 1]) - level)
        assert float(deviation.max()) < 1e-3


def test_damped_boundary_separates_converging_from_escaping(fault_model_at):
    model = fault_model_at(20.0)  # damped reference fault-on model
    eq = find_equilibria(model)
    boundary = trace_boundary(model, dt=1e-3, t_max=30.0)
    samples = []
    for branch in boundary.branches:
        for d, w in branch[:600:25]:  # early manifold, before it folds
            if abs(d - eq.sep) < 3.0 and abs(w) < 0.05:
                samples.append((d, w))
    assert len(samples) >= 10
    samples = np.array(samples)
    for factor, expect_lost in ((0.99, False), (1.01, True)):
        d0 = eq.sep + factor * (samples[:, 0] - eq.sep)
        w0 = factor * samples[:, 1]
        los, d_end, _ = simulate_ensemble(model, d0, w0, dt=1e-3, t_max=60.0)
        if expect_lost:
            assert np.all(~np.isnan(los)), "outside points must escape"
        else:
            assert np.all(np.isnan(los)), "inside points must stay"
            assert np.all(np.abs(d_end - eq.sep) < 0.05)


def test_interior_states_converge_tightly(fault_model_at):
    # damped interior starts settle onto the stable angle given enough time
    model = fault_model_at(20.0)
    eq = find_equilibria(model)
    d0 = np.array([eq.sep, eq.sep + 1.0, eq.sep - 1.2, 0.5])
    w0 = np.array([0.0, 0.005, -0.005, 0.01])
    los, d_end, w_end = simulate_ensemble(model, d0, w0, dt=1e-3, t_max=120.0)
    assert np.all(np.isnan(los))
    assert float(np.max(np.abs(d_end - eq.sep))) < 1e-3
    assert float(np.max(np.abs(w_end))) < 1e-6


def test_grid_labels_obvious_points(fault_model_at):
    model = fault_model_at(20.0)
    eq = find_equilibria(model)
    grid = classify_grid(model, (eq.sep - 0.2, eq.uep_forward + 0.3), (-0.02, 0.02),
                         9, 9, t_max=60.0, dt=2e-3)
    i_sep = int(np.argmin(np.abs(grid.delta_axis - eq.sep)))
    j_zero = int(np.argmin(np.abs(grid.dw_axis)))
    assert grid.stable[i_sep, j_zero]
    assert not grid.stable[-1, -1]  # beyond the forward saddle, moving out
    assert grid.area_estimate == pytest.approx(
        (grid.delta_axis[1] - grid.delta_axis[0])
        * (grid.dw_axis[1] - grid.dw_axis[0])
        * int(grid.stable.sum())
    )


def test_grid_requires_equilibrium_and_size(fault_model_at):
    with pytest.raises(ModelError):
        classify_grid(_model(0.6, 0.5), (-1, 1), (-0.01, 0.01), 5, 5)
    with pytest.raises(ValueError):
        classify_grid(fault_model_at(20.0), (-1, 1), (-0.01, 0.01), 1, 5)


def test_undamped_grid_agrees_with_energy_sides():
    # pure-crossing labels against the conserved-energy oracle
    m = _model(-0.12, 0.42598782025825604)
    eq = find_equilibria(m)
    barrier = min(_scaled_energy(m, eq.uep_forward, 0.0),
                  _scaled_energy(m, eq.uep_backward, 0.0))
    grid = classify_grid(m, (-3.5, 3.8), (-0.03, 0.03), 41, 41, t_max=40.0, dt=1e-3,
                         angle_band=math.inf, speed_band=math.inf)
    dd, ww = np.meshgrid(grid.delta_axis, grid.dw_axis, indexing="ij")
    energy = _scaled_energy(m, dd, ww)
    band = 0.02 * abs(barrier - _scaled_energy(m, eq.sep, 0.0))
    decided = np.abs(energy - barrier) > band
    agree = (energy < barrier) == grid.stable
    assert float(np.mean(agree[decided])) >= 0.99


# -- the contraction certificate ----------------------------------------------------

def _oracle_cases(vsg, sg, load, base, fault_model_at):
    """(model, delta range, dw range, n, t_max, dt): the golden 9x9 window, three
    criterion-7 models and two seed-7 bench models, on reduced grids."""
    golden = ((-3.2, 3.6), (-0.02, 0.02), 9, 30.0, 1e-3)
    cases = [(fault_model_at(20.0),) + golden]
    for inertia in (12.5, 6.25):
        model = fault_model_at(inertia)
        cases.append((model, (-3.5, 3.5), (-0.025, 0.025), 11, 60.0, 4e-3))
    pm = PenetrationModel(2.0, 0.4, 0.75, 1.0, 1.0)
    model = reduce_two_machine(pm.build_vsg(sg), replace(sg, voltage=0.5), load, base)
    cases.append((model, (-3.2, 3.4), (-0.03, 0.03), 11, 60.0, 4e-3))
    for h, d, pref, pmax in ((22.296968355830938, 11.148484177915469,
                              -0.3806366986058862, 0.5985128874628498),
                             (10.501474926253687, 5.2507374631268435,
                              0.01694350737463124, 1.0032013167081928)):
        model = _model(pref, pmax, inertia=h, damping=d)
        eq = find_equilibria(model)
        cases.append((model, (eq.uep_backward - 0.5, eq.uep_forward + 0.5), (-0.05, 0.05),
                      11, 60.0, 4e-3))
    return cases


def test_certified_labels_equal_brute_force(vsg, sg, load, base, fault_model_at, monkeypatch):
    ensembles = []

    def recording(*args):
        ensembles.append(simulate_ensemble(*args))
        return ensembles[-1]

    monkeypatch.setattr(region_module, "simulate_ensemble", recording)
    for model, d_range, w_range, n, t_max, dt in _oracle_cases(vsg, sg, load, base,
                                                               fault_model_at):
        eq = find_equilibria(model)
        grid = classify_grid(model, d_range, w_range, n, n, t_max=t_max, dt=dt)
        dd, ww = np.meshgrid(grid.delta_axis, grid.dw_axis, indexing="ij")
        los, d_end, w_end = simulate_ensemble(model, dd, ww, dt, t_max)
        brute = (np.isnan(los) & (np.abs(d_end - eq.sep) < DEFAULT_ANGLE_BAND)
                 & (np.abs(w_end) < DEFAULT_SPEED_BAND))
        np.testing.assert_array_equal(grid.stable, brute)
        # over 60 s the certificate did the work: every stable cell retired early
        certified = np.isposinf(ensembles[-1][0]).reshape(brute.shape)
        assert brute.any() and (np.array_equal(certified, brute) or t_max < 60.0)


def test_certificate_is_off_where_its_bound_fails(fault_model_at):
    model = fault_model_at(20.0)
    eq = find_equilibria(model)
    bands = (DEFAULT_ANGLE_BAND, DEFAULT_SPEED_BAND)
    assert _band_certificate(model, eq, 1e-3, *bands) is not None
    # the bench generator's corners (H_v 5..60 s, fault voltage 0.1..0.6 pu):
    # every member of the union is on wherever the fault-on stage has a stable angle
    corners = [fault_model_at(h_v, u) for h_v in (5.0, 60.0) for u in (0.1, 0.6)]
    corners = [(m, find_equilibria(m)) for m in corners]
    assert sum(eq_c.exists for _, eq_c in corners) >= 2
    for corner, eq_c in corners:
        if eq_c.exists:
            for share in _ALPHA_SHARES:
                assert _certificate_member(corner, eq_c, 1e-3, *bands, share) is not None
    undamped = replace(model, damping=0.0)
    assert _band_certificate(undamped, find_equilibria(undamped), 1e-3, *bands) is None
    assert _band_certificate(model, eq, 1e-3, math.inf, DEFAULT_SPEED_BAND) is None
    assert _band_certificate(model, eq, 1e-3, DEFAULT_ANGLE_BAND, math.inf) is None
    assert _band_certificate(model, eq, 0.05, *bands) is None  # dt*L above 0.1


def test_certificate_members_decay_at_their_stated_rate(vsg, sg, load, base, fault_model_at):
    # q' <= -mu*q on all of {q <= R}, its boundary included, under the true
    # vector field in scaled coordinates (x, u) = (delta - sep, s*dw): the
    # decay rate each member claims is sound on the golden and seed-7 models
    cases = _oracle_cases(vsg, sg, load, base, fault_model_at)
    theta = np.linspace(0.0, 2.0 * math.pi, 3600, endpoint=False)
    circle = np.stack((np.cos(theta), np.sin(theta)))
    for model in [cases[0][0]] + [case[0] for case in cases[-2:]]:
        eq = find_equilibria(model)
        h2 = 2.0 * model.inertia
        scale = model.omega_ref / math.sqrt(model.omega_ref * model.power_max
                                            * math.cos(eq.sep) / h2)
        for share in _ALPHA_SHARES:
            member = _certificate_member(model, eq, 1e-3, DEFAULT_ANGLE_BAND,
                                         DEFAULT_SPEED_BAND, share)
            p, level, mu = member.p, member.level, member.mu
            root = np.linalg.cholesky(p)  # q = |root.T @ z|**2
            for reach in (0.25, 0.5, 0.75, 1.0):
                x, u = z = reach * math.sqrt(level) * np.linalg.solve(root.T, circle)
                dw = u / scale
                x_dot = model.omega_ref * dw
                u_dot = scale * (model.power_ref - model.power_max * np.sin(eq.sep + x)
                                 - model.damping * dw) / h2
                pz = p @ z
                q = (z * pz).sum(axis=0)
                np.testing.assert_allclose(q, reach ** 2 * level, rtol=1e-12)
                q_dot = 2.0 * (pz[0] * x_dot + pz[1] * u_dot)
                assert np.all(q_dot <= -mu * q * (1.0 - 1e-9)), (share, reach)


@pytest.fixture
def lane_steps(monkeypatch):
    """Counts the lanes times steps simulate_ensemble's kernel takes; [0] holds the total."""
    total = [0]
    kernel = simulate_module._rk4_lanes

    def counting(model, buf, m, dt, work):
        total[0] += buf.shape[2] * m
        kernel(model, buf, m, dt, work)

    monkeypatch.setattr(simulate_module, "_rk4_lanes", counting)
    return total


def test_union_certificate_shortens_the_bench_grids(vsg, sg, load, base, fault_model_at,
                                                    lane_steps, monkeypatch):
    # the two seed-7 bench models of _oracle_cases took 39,776 and 283,232
    # lane-steps under one member (alpha half the slowest decay, |r(x)| <= x**2/2)
    # and take 35,232 and 150,336 under the union; most of the first model's
    # are lost lanes, which no certificate shortens
    single = (39_776, 283_232)
    cases = _oracle_cases(vsg, sg, load, base, fault_model_at)[-2:]

    def taken(shares):
        monkeypatch.setattr(region_module, "_ALPHA_SHARES", shares)
        counts = []
        for model, d_range, w_range, n, t_max, dt in cases:
            lane_steps[0] = 0
            classify_grid(model, d_range, w_range, n, n, t_max=t_max, dt=dt)
            counts.append(lane_steps[0])
        return counts

    union = taken(_ALPHA_SHARES)
    assert all(now <= before for now, before in zip(union, single))
    assert sum(union) <= 0.8 * sum(single)
    # a lane retires once any member proves it, and no member alone does as well
    members = [taken((share,)) for share in _ALPHA_SHARES]
    assert all(now <= min(alone) for now, alone in zip(union, zip(*members)))
    assert sum(union) < min(sum(alone) for alone in members)
