"""Parameter types, per-unit conversion, and the two-machine reduction."""

import math
from dataclasses import fields, replace

import numpy as np
import pytest

from syncstab import (
    BaseQuantities,
    DampingRatioWarning,
    DesignInput,
    LoadParams,
    ModelError,
    PenetrationModel,
    RelativeSwingModel,
    SgParams,
    VsgParams,
    check_damping_ratio,
    load_power,
    reactance_from_inductance,
    reduce_two_machine,
    total_reactance,
)
from syncstab.machine import DAMPING_RATIO_TOLERANCE


# -- per-unit conversion ------------------------------------------------------

def test_reactance_from_inductance_hand_values(base):
    # Hand calculation: 2*pi*50*L / (95.22**2/1000)
    assert reactance_from_inductance(0.0029, base) == pytest.approx(0.10048275093482759, rel=1e-14)
    assert reactance_from_inductance(0.0092, base) == pytest.approx(0.3187728650346255, rel=1e-14)
    assert reactance_from_inductance(0.00145, base) == pytest.approx(0.05024137546741379, rel=1e-14)
    # rounded reference values
    assert reactance_from_inductance(0.0029, base) == pytest.approx(0.1005, abs=1e-4)
    assert reactance_from_inductance(0.0092, base) == pytest.approx(0.3188, abs=1e-4)


def test_reactance_zero_and_negative(base):
    assert reactance_from_inductance(0.0, base) == 0.0
    with pytest.raises(ModelError):
        reactance_from_inductance(-1e-3, base)


def test_reactance_linear_in_inductance(base):
    rng = np.random.default_rng(7)
    for _ in range(20):
        l1, scale = rng.uniform(1e-4, 1e-1), rng.uniform(0.1, 10)
        x1 = reactance_from_inductance(l1, base)
        assert reactance_from_inductance(scale * l1, base) == pytest.approx(scale * x1, rel=1e-12)


def test_base_quantities_invariants():
    b = BaseQuantities(95.22, 1000.0, 50.0)
    assert b.omega_ref == pytest.approx(100 * math.pi, rel=1e-15)
    with pytest.raises(ModelError):
        BaseQuantities(-1.0, 1000.0, 50.0)
    with pytest.raises(ModelError):
        BaseQuantities(95.22, 1000.0, 0.0)


# -- load and power bookkeeping ----------------------------------------------

def test_load_power_values(load):
    assert load_power(1.0, load) == pytest.approx(1.0)
    assert load_power(0.0, load) == 0.0
    assert load_power(0.2, load) == pytest.approx(0.04)
    with pytest.raises(ModelError):
        load_power(-0.1, load)


def test_total_reactance(vsg, sg):
    assert total_reactance(vsg, sg) == pytest.approx(0.4696, abs=2e-4)
    assert total_reactance(replace(vsg, virtual_reactance=0.0), sg) == pytest.approx(
        vsg.line_reactance + sg.line_reactance, rel=1e-15
    )
    assert total_reactance(replace(vsg, virtual_reactance=0.1333), sg) == pytest.approx(
        0.5526, abs=1e-4
    )


# -- damping-ratio check -------------------------------------------------------

def test_check_damping_ratio():
    vsg = VsgParams(inertia=20.0, damping=10.0, power_ref=0.3,
                    internal_voltage=1.0, line_reactance=0.3)
    sg = SgParams(inertia=40.0, damping=20.0, mech_power=1.0, voltage=1.0, line_reactance=0.1)
    assert check_damping_ratio(vsg, sg)
    assert not check_damping_ratio(replace(vsg, damping=5.0), sg)
    # relative gaps of half and twice the tolerance, either side of it
    for share, agree in ((0.5, True), (2.0, False)):
        damping = 10.0 * (1.0 + share * DAMPING_RATIO_TOLERANCE)
        assert check_damping_ratio(replace(vsg, damping=damping), sg) == agree
    # ratio constructed to be equal for arbitrary inertia
    for h in (3.0, 11.0, 57.0):
        assert check_damping_ratio(replace(vsg, inertia=h, damping=0.5 * h), sg)


# -- reduction ------------------------------------------------------------------

def test_reduce_reference_values(vsg, sg, load, base):
    faulted = replace(sg, voltage=0.2)
    model = reduce_two_machine(vsg, faulted, load, base)
    assert model.inertia == pytest.approx(40.0 / 3.0, rel=1e-12)  # 20*40/60
    assert model.damping == pytest.approx(40.0 * 10.0 / 60.0, rel=1e-12)
    # (40*0.3 - 20*0.96) / 60
    assert model.power_ref == pytest.approx(-0.12, rel=1e-12)
    assert model.power_max == pytest.approx(0.42598782025825604, rel=1e-12)
    assert model.power_max == pytest.approx(0.4259, abs=2e-4)
    assert model.omega_ref == pytest.approx(100 * math.pi, rel=1e-15)


def test_reduce_reference_power_composition(vsg, sg, load, base):
    # P_ref_s = (H_g*P_ref - H_v*P_net)/(H_v + H_g) with P_net = 0.96 under the dip
    model = reduce_two_machine(vsg, replace(sg, voltage=0.2), load, base)
    assert model.power_ref == pytest.approx((40 * 0.3 - 20 * 0.96) / 60, rel=1e-14)
    # example with explicit numbers: (12 - 19.2)/60 = -0.12
    assert (40 * 0.3 - 20 * 0.96) / 60 == pytest.approx(-0.12, rel=1e-12)


def test_reduce_harmonic_mean_bound(vsg, sg, load, base):
    rng = np.random.default_rng(11)
    for _ in range(50):
        hv, hg = rng.uniform(0.1, 100.0, size=2)
        model = reduce_two_machine(
            replace(vsg, inertia=hv, damping=0.5 * hv),
            replace(sg, inertia=hg, damping=0.5 * hg),
            load, base,
        )
        assert 0.0 < model.inertia < min(hv, hg)


def test_reduce_symmetry_negates_reference(vsg, sg, load, base):
    # Swapping the (inertia, assigned power) roles flips the reference sign
    # and keeps the paired inertia.
    faulted = replace(sg, voltage=0.2)
    p_load = load_power(faulted.voltage, load)
    p_net = faulted.mech_power - p_load
    m1 = reduce_two_machine(vsg, faulted, load, base)
    swapped_vsg = replace(vsg, inertia=faulted.inertia, power_ref=p_net)
    swapped_sg = replace(faulted, inertia=vsg.inertia, mech_power=vsg.power_ref + p_load,
                         damping=0.5 * vsg.inertia)
    m2 = reduce_two_machine(replace(swapped_vsg, damping=0.5 * faulted.inertia),
                            swapped_sg, load, base)
    assert m2.inertia == pytest.approx(m1.inertia, rel=1e-14)
    assert m2.power_ref == pytest.approx(-m1.power_ref, rel=1e-12)


def test_reduce_matched_ratio_zeroes_reference(vsg, sg, load, base):
    # H_v = (P_ref/P_net)*H_g makes the reduced reference vanish exactly.
    faulted = replace(sg, voltage=0.2)
    h_matched = 0.3 / 0.96 * 40.0
    assert h_matched == pytest.approx(12.5, rel=1e-15)
    model = reduce_two_machine(
        replace(vsg, inertia=h_matched, damping=0.5 * h_matched), faulted, load, base
    )
    assert abs(model.power_ref) <= 1e-16


def test_reduce_warns_on_ratio_mismatch(vsg, sg, load, base):
    with pytest.warns(DampingRatioWarning):
        reduce_two_machine(replace(vsg, damping=2.0 * vsg.damping), sg, load, base)


def test_power_max_monotonicity(vsg, sg, load, base):
    # strictly decreasing in every reactance, strictly increasing in both voltages
    rng = np.random.default_rng(3)
    faulted = replace(sg, voltage=0.2)
    m0 = reduce_two_machine(vsg, faulted, load, base)
    for _ in range(20):
        bump = rng.uniform(1e-3, 0.5)
        for v2, g2, rises in (
            (replace(vsg, virtual_reactance=vsg.virtual_reactance + bump), faulted, False),
            (replace(vsg, line_reactance=vsg.line_reactance + bump), faulted, False),
            (vsg, replace(faulted, line_reactance=faulted.line_reactance + bump), False),
            (vsg, replace(faulted, voltage=faulted.voltage + bump), True),
            (replace(vsg, internal_voltage=vsg.internal_voltage + bump), faulted, True),
        ):
            bumped = reduce_two_machine(v2, g2, load, base)
            assert (bumped.power_max > m0.power_max) == rises


def test_relative_swing_model_invariants():
    with pytest.raises(ModelError):
        RelativeSwingModel(inertia=0.0, damping=0.0, power_ref=0.0, power_max=1.0,
                           omega_ref=100 * math.pi)
    with pytest.raises(ModelError):
        RelativeSwingModel(inertia=1.0, damping=-0.1, power_ref=0.0, power_max=1.0,
                           omega_ref=100 * math.pi)
    with pytest.raises(ModelError):
        RelativeSwingModel(inertia=1.0, damping=0.0, power_ref=0.0, power_max=-1.0,
                           omega_ref=100 * math.pi)


def test_param_invariants():
    with pytest.raises(ModelError):
        VsgParams(inertia=-1.0, damping=0.0, power_ref=0.3, internal_voltage=1.0,
                  line_reactance=0.3)
    with pytest.raises(ModelError):
        SgParams(inertia=40.0, damping=20.0, mech_power=1.0, voltage=-0.1, line_reactance=0.1)
    with pytest.raises(ModelError):
        LoadParams(resistance=0.0)
    # zero machine voltage is allowed (bolted fault)
    SgParams(inertia=40.0, damping=20.0, mech_power=1.0, voltage=0.0, line_reactance=0.1)


# -- sign rules -------------------------------------------------------------

_SG = SgParams(inertia=40.0, damping=20.0, mech_power=1.0, voltage=1.0, line_reactance=0.1)
_VSG = VsgParams(inertia=20.0, damping=10.0, power_ref=0.3, internal_voltage=1.0,
                 line_reactance=0.3, virtual_reactance=0.05)

# a valid instance of each parameter type, its positive fields and its
# non-negative ones
_SIGN_RULES = [
    (BaseQuantities(95.22, 1000.0, 50.0),
     ("rated_voltage", "rated_power", "rated_frequency"), ()),
    (_VSG, ("inertia", "internal_voltage", "line_reactance", "rated_power"),
     ("damping", "virtual_reactance")),
    (_SG, ("inertia", "line_reactance", "rated_power"), ("damping", "voltage")),
    (LoadParams(resistance=1.0), ("resistance",), ()),
    (RelativeSwingModel(inertia=1.0, damping=0.5, power_ref=0.3, power_max=1.0,
                        omega_ref=100 * math.pi),
     ("inertia", "omega_ref"), ("damping", "power_max")),
    (PenetrationModel(2.0, 0.4, 0.75, 1.0, 1.0),
     ("inertia_level_ratio", "capacity_ratio", "power_factor"),
     ("line_drop_ratio", "virtual_drop_ratio")),
    (DesignInput(sg=_SG, vsg=_VSG, load=LoadParams(resistance=1.0), fault_voltage=0.2,
                 current_limit=1.8),
     ("current_limit",), ()),
]


@pytest.mark.parametrize("valid, positive, non_negative", _SIGN_RULES,
                         ids=[type(row[0]).__name__ for row in _SIGN_RULES])
def test_every_sign_rule_names_its_field(valid, positive, non_negative):
    kind = type(valid)
    guarded = [f.name for f in fields(valid) if f.name in positive + non_negative]
    assert sorted(guarded) == sorted(positive + non_negative)
    for k, name in enumerate(guarded):
        rule = "positive" if name in positive else "non-negative"
        for value in (0.0, -1.0):
            if rule == "non-negative" and value == 0.0:
                replace(valid, **{name: value})  # zero is allowed
                continue
            # this field and every later guarded one broken: the first is named
            broken = {later: value for later in guarded[k:]}
            with pytest.raises(ModelError) as exc:
                replace(valid, **broken)
            assert type(exc.value) is ModelError
            assert str(exc.value) == f"{name} must be {rule}, got {value}"
        if kind is not PenetrationModel:  # whose power_factor <= 1 refuses NaN
            replace(valid, **{name: math.nan})  # neither comparison holds for NaN


def test_power_factor_above_one_is_refused():
    with pytest.raises(ModelError, match=r"^power_factor must be at most 1, got 1\.5$"):
        PenetrationModel(2.0, 0.4, 0.75, 1.0, 1.5)
