"""Equilibria, the stability-level index, and its parameter sensitivities."""

import math
from dataclasses import replace

import numpy as np
import pytest

from syncstab import (
    DegenerateModelError,
    ModelError,
    PenetrationModel,
    RelativeSwingModel,
    SgParams,
    dindex_dcapacity,
    dindex_dratio,
    find_equilibria,
    index_at_capacity,
    scr,
    sep_exists,
    sep_ratio_bounds,
    stability_index,
    stability_index_from_parts,
    stability_index_from_scr,
    LoadParams,
    load_power,
    total_reactance,
)

OMEGA = 100 * math.pi


def _model(power_ref, power_max, inertia=10.0, damping=0.0):
    return RelativeSwingModel(inertia=inertia, damping=damping, power_ref=power_ref,
                              power_max=power_max, omega_ref=OMEGA)


# -- existence and equilibria ---------------------------------------------------

def test_sep_exists_cases():
    assert sep_exists(_model(-0.12, 0.42598782025825604))
    assert sep_exists(_model(0.0, 0.5))
    assert not sep_exists(_model(0.5, 0.5))  # equality already loses the equilibrium
    assert not sep_exists(_model(-0.6, 0.5))


def test_equilibria_symmetric_sine():
    eq = find_equilibria(_model(0.0, 0.5))
    assert eq.exists
    assert eq.sep == 0.0
    assert eq.uep_forward == pytest.approx(math.pi, rel=1e-15)
    assert eq.uep_backward == pytest.approx(-math.pi, rel=1e-15)


def test_equilibria_reference_case(fault_model_at):
    model = fault_model_at(20.0)
    eq = find_equilibria(model)
    assert eq.sep == pytest.approx(-0.28556351968982774, rel=1e-12)
    assert eq.sep == pytest.approx(-0.2856, abs=1e-4)
    assert eq.uep_forward == pytest.approx(3.4272, abs=1e-4)
    # every returned angle satisfies the balance equation
    for angle in (eq.sep, eq.uep_forward, eq.uep_backward):
        assert abs(model.power_ref - model.sync_power(angle)) < 1e-10


def test_equilibria_absent_and_degenerate():
    assert not find_equilibria(_model(0.6, 0.5)).exists
    with pytest.raises(DegenerateModelError):
        find_equilibria(_model(0.0, 0.0))


# -- the index -------------------------------------------------------------------

def test_stability_index_values(fault_model_at):
    assert stability_index(_model(0.0, 0.7)) == 1.0
    assert stability_index(fault_model_at(20.0)) == pytest.approx(0.71830180513788, rel=1e-12)
    assert stability_index(fault_model_at(20.0)) == pytest.approx(0.7182, abs=2e-4)
    assert stability_index(_model(-1.0, 0.5)) == pytest.approx(-1.0, rel=1e-15)
    with pytest.raises(DegenerateModelError):
        stability_index(_model(0.1, 0.0))


def test_index_iff_sep_exists():
    rng = np.random.default_rng(5)
    for _ in range(200):
        m = _model(rng.uniform(-2, 2), rng.uniform(1e-3, 2))
        assert sep_exists(m) == (stability_index(m) > 0.0)


def test_scr_values(vsg, sg):
    assert scr(vsg, sg) == pytest.approx(2.385, abs=1e-3)
    v = replace(vsg, line_reactance=0.9)
    g = replace(sg, line_reactance=0.1)
    assert scr(v, g) == pytest.approx(1.0, rel=1e-15)
    assert scr(replace(v, line_reactance=0.4), g) == pytest.approx(2.0, rel=1e-15)


def test_index_forms_agree(vsg, sg, load, base, fault_model_at):
    # grid-strength form and machine form both equal the model-level index
    model = fault_model_at(20.0)
    faulted = replace(sg, voltage=0.2)
    lam = stability_index(model)
    lam_scr = stability_index_from_scr(
        scr(vsg, faulted), vsg.virtual_reactance, model.power_ref, 1.0, 0.2
    )
    lam_parts = stability_index_from_parts(
        0.3, 0.96, 20.0, 40.0, 1.0, 0.2, total_reactance(vsg, faulted)
    )
    assert lam_scr == pytest.approx(lam, rel=1e-13)
    assert lam_parts == pytest.approx(lam, rel=1e-13)
    assert lam_scr == pytest.approx(0.7182, abs=2e-4)


def test_index_increases_with_grid_strength():
    lam = [stability_index_from_scr(g, 0.05, -0.12, 1.0, 0.2) for g in (1.0, 2.0, 4.0, 8.0)]
    assert all(b > a for a, b in zip(lam, lam[1:]))


def test_index_from_scr_matched_case():
    assert stability_index_from_scr(2.385, 0.0, 0.0, 1.0, 1.0) == 1.0


# -- admissible inertia-ratio interval --------------------------------------------

def test_ratio_bounds_shallow_dip_unbounded():
    # transferable power exceeds the net power: any ratio keeps the equilibrium
    lo, hi = sep_ratio_bounds(0.3, 0.96, 1.0, 1.0, 0.41925561596945313)
    assert lo == 0.0
    assert hi == math.inf


def test_ratio_bounds_severe_dip_reference_value():
    x_sum = 0.46949699143686685
    lo, hi = sep_ratio_bounds(0.3, 0.96, 1.0, 0.2, x_sum)
    assert lo == 0.0
    assert hi == pytest.approx(1.3594967452041156, rel=1e-12)
    assert hi == pytest.approx(1.359, abs=2e-3)
    # matched ratio lies inside
    assert lo < 0.3 / 0.96 < hi


def test_ratio_bounds_bracket_checked_by_existence(fault_model_at):
    # ratio 1.30 keeps the equilibrium, 1.42 loses it
    assert sep_exists(fault_model_at(1.30 * 40.0))
    assert not sep_exists(fault_model_at(1.42 * 40.0))


def test_ratio_bounds_agree_with_scan(vsg, sg, load, base):
    rng = np.random.default_rng(23)
    for _ in range(8):
        p_ref = rng.uniform(0.05, 2.0)
        e_g = rng.uniform(0.05, 1.2)
        x_sum = rng.uniform(0.1, 1.5)
        p_m = rng.uniform(0.3, 2.0)
        r_l = rng.uniform(0.5, 3.0)
        p_net = p_m - e_g**2 / r_l
        if p_net <= 1e-3:
            continue
        lo, hi = sep_ratio_bounds(p_ref, p_net, 1.0, e_g, x_sum)
        for ratio in np.geomspace(1e-2, 1e2, 50):
            sync_ref = (p_ref - ratio * p_net) / (1.0 + ratio)
            exists = abs(sync_ref) < e_g * 1.0 / x_sum
            assert exists == (lo < ratio < hi), (
                f"ratio {ratio}: exists={exists} but interval=({lo}, {hi})"
            )


def test_ratio_bounds_degenerate_net_power_warns():
    with pytest.warns(UserWarning):
        lo, hi = sep_ratio_bounds(0.3, 0.0, 1.0, 1.0, 0.4)
    assert (lo, hi) == (0.0, math.inf)


def test_ratio_bounds_rejects_bad_inputs():
    with pytest.raises(ModelError):
        sep_ratio_bounds(0.0, 0.96, 1.0, 0.2, 0.4)
    with pytest.raises(ModelError):
        sep_ratio_bounds(0.3, 0.96, 1.0, 0.2, 0.0)


# -- derivative against the inertia ratio ------------------------------------------

def test_dindex_dratio_signs():
    x_sum = 0.46949699143686685
    below = dindex_dratio(0.3, 0.96, 1.0, 0.2, x_sum, h_v=8.0, h_g=40.0)
    above = dindex_dratio(0.3, 0.96, 1.0, 0.2, x_sum, h_v=20.0, h_g=40.0)
    assert below > 0
    assert above < 0
    assert below == pytest.approx(-above * (60.0 / 48.0) ** 2, rel=1e-12)


def test_dindex_dratio_matches_finite_difference():
    x_sum = 0.46949699143686685
    h_g = 40.0

    def index_of_ratio(r):
        return stability_index_from_parts(0.3, 0.96, r * h_g, h_g, 1.0, 0.2, x_sum)

    for r in (0.1, 0.2, 0.45, 0.7, 1.0):
        h = 1e-6 * r
        fd = (index_of_ratio(r + h) - index_of_ratio(r - h)) / (2 * h)
        analytic = dindex_dratio(0.3, 0.96, 1.0, 0.2, x_sum, h_v=r * h_g, h_g=h_g)
        assert analytic == pytest.approx(fd, rel=1e-6)


def test_dindex_dratio_refuses_kink():
    with pytest.raises(ModelError):
        dindex_dratio(0.3, 0.96, 1.0, 0.2, 0.4696, h_v=12.5, h_g=40.0)


def test_index_piecewise_monotone_over_ratio():
    x_sum = 0.46949699143686685
    matched = 0.3 / 0.96
    ratios = np.sort(np.concatenate([np.geomspace(0.02, 5.0, 99), [matched]]))
    lam = [stability_index_from_parts(0.3, 0.96, r * 40.0, 40.0, 1.0, 0.2, x_sum)
           for r in ratios]
    peak = int(np.argmax(lam))
    assert ratios[peak] == pytest.approx(matched, rel=1e-12)
    assert lam[peak] == pytest.approx(1.0, abs=1e-15)
    assert all(b > a for a, b in zip(lam[: peak + 1], lam[1: peak + 1]))
    assert all(b < a for a, b in zip(lam[peak:], lam[peak + 1:]))


# -- penetration construction -------------------------------------------------------

def _bench_sg():
    return SgParams(inertia=40.0, damping=20.0, mech_power=1.0, voltage=0.2,
                    line_reactance=0.10048275093482759)


def test_penetration_roundtrip():
    pm = PenetrationModel(line_drop_ratio=2.0, virtual_drop_ratio=0.4,
                          inertia_level_ratio=0.75, capacity_ratio=0.8, power_factor=1.0)
    sg = _bench_sg()
    vsg = pm.build_vsg(sg)
    # the ratios read back from the built pair by the construction identities
    xs = sg.line_reactance * sg.rated_power
    back = {
        "line_drop_ratio": vsg.line_reactance * vsg.rated_power / xs,
        "virtual_drop_ratio": vsg.virtual_reactance * vsg.rated_power / xs,
        "inertia_level_ratio": (vsg.inertia / vsg.rated_power) / (sg.inertia / sg.rated_power),
        "capacity_ratio": vsg.rated_power / sg.rated_power,
        "power_factor": vsg.power_ref / vsg.rated_power,
    }
    for field, value in back.items():
        assert value == pytest.approx(getattr(pm, field), rel=1e-12)
    # the construction identities in explicit form
    assert vsg.line_reactance * vsg.rated_power == pytest.approx(
        2.0 * sg.line_reactance * sg.rated_power, rel=1e-12
    )
    assert vsg.inertia / vsg.rated_power == pytest.approx(
        0.75 * sg.inertia / sg.rated_power, rel=1e-12
    )


def test_dindex_dcapacity_sign_rule():
    sg = _bench_sg()
    load = LoadParams(resistance=1.0)
    high_inertia = PenetrationModel(2.0, 0.4, 0.75, 1.0, 1.0)
    low_inertia = PenetrationModel(2.0, 0.4, 0.25, 1.0, 1.0)
    assert dindex_dcapacity(high_inertia, sg, load, sg.voltage) > 0  # 0.75 > 1/2.4
    assert dindex_dcapacity(low_inertia, sg, load, sg.voltage) < 0   # 0.25 < 1/2.4
    balanced = PenetrationModel(2.0, 0.5, 1.0 / 2.5, 1.0, 1.0)
    assert dindex_dcapacity(balanced, sg, load, sg.voltage) == pytest.approx(0.0, abs=1e-15)


def test_index_at_capacity_follows_sign_rule():
    sg = SgParams(inertia=40.0, damping=20.0, mech_power=1.0, voltage=1.0,
                  line_reactance=0.10048275093482759)
    load = LoadParams(resistance=1.0)
    for c, rising in ((0.75, True), (0.25, False)):
        lam = [index_at_capacity(PenetrationModel(2.0, 0.4, c, eta, 1.0), sg, load, 0.5)
               for eta in (0.6, 1.0, 1.5)]
        if rising:
            assert lam[0] < lam[1] < lam[2]
        else:
            assert lam[0] > lam[1] > lam[2]


def test_dindex_dcapacity_matches_finite_difference():
    # P_m is drawn apart from the power factor, so the closed form must read
    # the operating point index_at_capacity reads: sg.mech_power and the dip
    sg = SgParams(inertia=40.0, damping=20.0, mech_power=1.0, voltage=1.0,
                  line_reactance=0.10048275093482759)
    load = LoadParams(resistance=1.0)
    rng = np.random.default_rng(17)
    checked = 0
    while checked < 20:
        a = rng.uniform(0.5, 3.0)
        b = rng.uniform(0.0, 1.0)
        c = rng.uniform(0.1, 1.0)
        eta = rng.uniform(0.3, 2.0)
        pf = rng.uniform(0.8, 1.0)
        e_gf = rng.uniform(0.1, 0.9)
        sg_i = replace(sg, mech_power=rng.uniform(0.3, 1.5))
        if sg_i.mech_power - load_power(e_gf, load) <= 0.05:
            continue

        def index_of(eta_value):
            return index_at_capacity(PenetrationModel(a, b, c, eta_value, pf), sg_i, load, e_gf)

        if index_of(eta) < 0.02:  # keep away from the no-equilibrium edge
            continue
        h = 1e-6 * eta
        fd = (index_of(eta + h) - index_of(eta - h)) / (2 * h)
        analytic = dindex_dcapacity(PenetrationModel(a, b, c, eta, pf), sg_i, load, e_gf)
        assert analytic == pytest.approx(fd, rel=1e-6), (a, b, c, eta, pf, e_gf, sg_i.mech_power)
        checked += 1
