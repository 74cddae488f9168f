"""
Machine parameters, per-unit conversion, and two-machine model reduction.

Both units of the pair obey a second-order swing law in per-unit,

    dtheta/dt      = Omega_ref * dw
    2H * d(dw)/dt  = P_in - P_out - D * dw

and exchange power over a purely reactive path,

    P = E_v * E_g * sin(theta_v - theta_g) / X_sum,   X_sum = X_i + X_v + X_g.

When the damping-to-inertia ratios of the two units agree (D_v/H_v = D_g/H_g),
subtracting the two swing laws collapses the pair exactly into a single swing
equation in the angle difference delta = theta_v - theta_g:

    d(delta)/dt    = Omega_ref * dw
    2*H_s * d(dw)/dt = P_ref_s - P_max_s * sin(delta) - D_s * dw

with

    H_s     = H_v*H_g / (H_v + H_g)                      (harmonic pairing)
    D_s     = H_g*D_v / (H_v + H_g)
    P_ref_s = [H_g*P_ref - H_v*(P_m - P_load)] / (H_v + H_g)
    P_max_s = E_v*E_g / X_sum

All stored quantities are system-base per-unit; inductances in henries are
converted at ingestion.  The load is purely resistive, P_load = E_g**2 / R.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np


class ModelError(ValueError):
    """A physical invariant of the model is violated."""


class SingularNetworkError(ModelError):
    """The connecting reactance between the two internal voltages is zero."""


class DegenerateModelError(ModelError):
    """The reduced model admits no meaningful equilibrium analysis."""


class DampingRatioWarning(UserWarning):
    """The two units' damping-to-inertia ratios differ; the reduction is approximate."""


@dataclass(frozen=True)
class BaseQuantities:
    """System base values used for all per-unit conversions.

    rated_voltage in volts, rated_power in watts, rated_frequency in hertz.
    """

    rated_voltage: float
    rated_power: float
    rated_frequency: float

    def __post_init__(self) -> None:
        for name in ("rated_voltage", "rated_power", "rated_frequency"):
            if getattr(self, name) <= 0:
                raise ModelError(f"{name} must be positive, got {getattr(self, name)}")

    @property
    def omega_ref(self) -> float:
        """Reference electrical angular velocity, 2*pi*f_n  [rad/s]."""
        return 2.0 * math.pi * self.rated_frequency

    @property
    def impedance_base(self) -> float:
        """U_n**2 / S_n  [ohm]."""
        return self.rated_voltage**2 / self.rated_power


def reactance_from_inductance(inductance: float, base: BaseQuantities) -> float:
    """Convert a series inductance in henries to per-unit reactance.

    X_pu = 2*pi*f_n*L / (U_n**2/S_n).  Linear in L; zero maps to zero.
    """
    if inductance < 0:
        raise ModelError(f"inductance must be non-negative, got {inductance}")
    return 2.0 * math.pi * base.rated_frequency * inductance / base.impedance_base


@dataclass(frozen=True)
class VsgParams:
    """Grid-forming (virtual swing) unit parameters, system-base per-unit.

    inertia in seconds; damping, power_ref, internal_voltage, line_reactance,
    virtual_reactance and rated_power in pu.  The virtual reactance is the
    control-emulated series reactance inserted to limit fault current.
    """

    inertia: float
    damping: float
    power_ref: float
    internal_voltage: float
    line_reactance: float
    virtual_reactance: float = 0.0
    rated_power: float = 1.0

    def __post_init__(self) -> None:
        if self.inertia <= 0:
            raise ModelError(f"inertia must be positive, got {self.inertia}")
        if self.damping < 0:
            raise ModelError(f"damping must be non-negative, got {self.damping}")
        if self.internal_voltage <= 0:
            raise ModelError(f"internal_voltage must be positive, got {self.internal_voltage}")
        if self.line_reactance <= 0:
            raise ModelError(f"line_reactance must be positive, got {self.line_reactance}")
        if self.virtual_reactance < 0:
            raise ModelError(f"virtual_reactance must be non-negative, got {self.virtual_reactance}")
        if self.rated_power <= 0:
            raise ModelError(f"rated_power must be positive, got {self.rated_power}")


@dataclass(frozen=True)
class SgParams:
    """Synchronous machine parameters, system-base per-unit.

    inertia in seconds; the rest in pu.  voltage is the internal voltage
    magnitude, treated as a prescribed scenario input (it drops under fault).
    """

    inertia: float
    damping: float
    mech_power: float
    voltage: float
    line_reactance: float
    rated_power: float = 1.0

    def __post_init__(self) -> None:
        if self.inertia <= 0:
            raise ModelError(f"inertia must be positive, got {self.inertia}")
        if self.damping < 0:
            raise ModelError(f"damping must be non-negative, got {self.damping}")
        if self.voltage < 0:
            raise ModelError(f"voltage must be non-negative, got {self.voltage}")
        if self.line_reactance <= 0:
            raise ModelError(f"line_reactance must be positive, got {self.line_reactance}")
        if self.rated_power <= 0:
            raise ModelError(f"rated_power must be positive, got {self.rated_power}")


@dataclass(frozen=True)
class LoadParams:
    """Purely resistive load at the machine voltage node, resistance in pu."""

    resistance: float

    def __post_init__(self) -> None:
        if self.resistance <= 0:
            raise ModelError(f"resistance must be positive, got {self.resistance}")


def load_power(voltage: float, load: LoadParams) -> float:
    """Resistive load consumption E**2 / R in pu."""
    if voltage < 0:
        raise ModelError(f"voltage must be non-negative, got {voltage}")
    return voltage**2 / load.resistance


def net_power(mech_power: float, consumed_power: float) -> float:
    """Residual power the machine supplies after the local load, P_m - P_load."""
    return mech_power - consumed_power


def total_reactance(vsg: VsgParams, sg: SgParams) -> float:
    """Total series reactance between the two internal voltages, X_i + X_v + X_g."""
    return vsg.virtual_reactance + vsg.line_reactance + sg.line_reactance


def damping_ratio_gap(vsg: VsgParams, sg: SgParams) -> float:
    """Relative mismatch |D_v/H_v - D_g/H_g| / (D_g/H_g).

    Returns inf when the machine-side ratio is zero but the other is not.
    """
    r_v = vsg.damping / vsg.inertia
    r_g = sg.damping / sg.inertia
    if r_g == 0.0:
        return 0.0 if r_v == 0.0 else math.inf
    return abs(r_v - r_g) / r_g


def check_damping_ratio(vsg: VsgParams, sg: SgParams, tolerance: float = 1e-6) -> bool:
    """True iff the damping-to-inertia ratios agree within the relative tolerance.

    The exact reduction to a single relative swing equation requires equality;
    callers may proceed on a mismatch but the reduced model is then approximate.
    """
    return damping_ratio_gap(vsg, sg) <= tolerance


@dataclass(frozen=True)
class RelativeSwingModel:
    """Single swing equation for the angle difference between the two units.

        d(delta)/dt   = omega_ref * dw
        2*inertia * d(dw)/dt = power_ref - power_max*sin(delta) - damping*dw

    delta in radians, dw in pu frequency deviation, inertia in seconds,
    powers and damping in pu, omega_ref in rad/s.
    """

    inertia: float
    damping: float
    power_ref: float
    power_max: float
    omega_ref: float

    def __post_init__(self) -> None:
        if self.inertia <= 0:
            raise ModelError(f"inertia must be positive, got {self.inertia}")
        if self.damping < 0:
            raise ModelError(f"damping must be non-negative, got {self.damping}")
        if self.power_max < 0:
            raise ModelError(f"power_max must be non-negative, got {self.power_max}")
        if self.omega_ref <= 0:
            raise ModelError(f"omega_ref must be positive, got {self.omega_ref}")

    def sync_power(self, delta):
        """Transferred synchronizing power power_max*sin(delta), elementwise."""
        return self.power_max * np.sin(delta)

    def potential(self, delta):
        """Potential term -(power_ref*delta + power_max*cos(delta)) / omega_ref."""
        return -(self.power_ref * delta + self.power_max * np.cos(delta)) / self.omega_ref

    def energy(self, delta, dw):
        """Energy function V = inertia*dw**2 + potential(delta), elementwise.

        Exactly conserved along undamped trajectories; non-increasing when
        damping > 0.
        """
        return self.inertia * dw * dw + self.potential(delta)


def reduce_two_machine(
    vsg: VsgParams,
    sg: SgParams,
    load: LoadParams,
    base: BaseQuantities,
    ratio_tolerance: float = 1e-6,
) -> RelativeSwingModel:
    """Collapse the two-machine pair into the relative swing equation.

    The reduction is exact only under matched damping-to-inertia ratios; a
    mismatch beyond ratio_tolerance emits DampingRatioWarning but still
    returns the model, so sensitivity studies remain possible.
    """
    if not check_damping_ratio(vsg, sg, ratio_tolerance):
        warnings.warn(
            "damping-to-inertia ratios differ "
            f"(D_v/H_v={vsg.damping / vsg.inertia:.6g}, "
            f"D_g/H_g={sg.damping / sg.inertia:.6g}); "
            "the reduced model is approximate",
            DampingRatioWarning,
            stacklevel=2,
        )
    x_sum = total_reactance(vsg, sg)
    if x_sum == 0.0:
        raise SingularNetworkError("total reactance between the units is zero")
    h_total = vsg.inertia + sg.inertia
    p_load = load_power(sg.voltage, load)
    p_net = net_power(sg.mech_power, p_load)
    return RelativeSwingModel(
        inertia=vsg.inertia * sg.inertia / h_total,
        damping=sg.inertia * vsg.damping / h_total,
        power_ref=(sg.inertia * vsg.power_ref - vsg.inertia * p_net) / h_total,
        power_max=sg.voltage * vsg.internal_voltage / x_sum,
        omega_ref=base.omega_ref,
    )
