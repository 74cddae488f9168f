"""
Coordinated stabilization design: inertia matching plus virtual reactance.

Setting the grid-forming unit's inertia to H_v = (P_ref/P_net)*H_g zeroes the
reference of the reduced swing equation, so a stable equilibrium exists for
every voltage dip and the stability index reaches 1.  The virtual reactance is
then set to the largest of three floors: the inertia-strength matching value
(H_g/H_v)*X_g - X_v, the minimum that keeps the worst-case current within the
converter limit, and zero.  Under the matched inertia the worst-case swing
angle is the half-turn saddle, so the current floor uses the conservative
closed form (E_v + E_g)/I_lim - X_v - X_g.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum

from .machine import (
    LoadParams,
    ModelError,
    SgParams,
    VsgParams,
    load_power,
    total_reactance,
)
from .equilibrium import stability_index_from_parts
from .simulate import current_magnitude


class DesignInfeasibleError(ModelError):
    """No parameter choice satisfies the requested constraints."""


class BindingConstraint(Enum):
    INERTIA_STRENGTH_MATCH = "inertia_strength_match"
    CURRENT_LIMIT = "current_limit"
    NONE = "none"


@dataclass(frozen=True)
class DesignInput:
    """Plant description plus the fault depth and converter current limit."""

    sg: SgParams
    vsg: VsgParams
    load: LoadParams
    fault_voltage: float
    current_limit: float

    def __post_init__(self) -> None:
        if self.current_limit <= 0:
            raise ModelError(f"current_limit must be positive, got {self.current_limit}")
        if not 0.0 < self.fault_voltage <= self.sg.voltage:
            # at 0 (a bolted fault) the designed index is undefined
            raise ModelError(
                f"fault_voltage must lie in (0, {self.sg.voltage}], got {self.fault_voltage}"
            )


@dataclass(frozen=True)
class DesignOutput:
    inertia: float
    damping: float
    virtual_reactance: float
    binding_constraint: BindingConstraint
    predicted_peak_current: float
    predicted_index: float

    def apply(self, vsg: VsgParams) -> VsgParams:
        """The grid-forming parameter set with this design installed."""
        return replace(
            vsg,
            inertia=self.inertia,
            damping=self.damping,
            virtual_reactance=self.virtual_reactance,
        )


def match_inertia(power_ref: float, p_net: float, sg_inertia: float) -> float:
    """Inertia that zeroes the reduced reference power, (P_ref/P_net)*H_g."""
    if p_net <= 0:
        raise DesignInfeasibleError(f"net power must be positive, got {p_net}")
    if power_ref <= 0:
        raise DesignInfeasibleError(f"power_ref must be positive, got {power_ref}")
    return power_ref / p_net * sg_inertia


def matched_impedance(sg_inertia: float, vsg_inertia: float, x_g: float, x_v: float) -> float:
    """Virtual reactance equating inertia level and voltage strength.

    (H_g/H_v)*X_g - X_v; may be negative, in which case no reactance is needed
    on this account (the clamp happens in set_virtual_impedance).
    """
    if vsg_inertia <= 0:
        raise ModelError(f"vsg_inertia must be positive, got {vsg_inertia}")
    return sg_inertia / vsg_inertia * x_g - x_v


def set_virtual_impedance(
    inp: DesignInput, inertia_set: float
) -> tuple[float, BindingConstraint]:
    """Largest of the matching floor, the current floor, and zero.

    The current floor is evaluated at the half-turn angle because the matched
    inertia zeroes the reduced reference, placing the saddle exactly there.
    """
    matched = matched_impedance(
        inp.sg.inertia, inertia_set, inp.sg.line_reactance, inp.vsg.line_reactance
    )
    current_floor = (
        inp.vsg.internal_voltage + inp.fault_voltage
    ) / inp.current_limit - inp.vsg.line_reactance - inp.sg.line_reactance
    x_i = max(matched, current_floor, 0.0)
    if x_i == 0.0 and matched <= 0.0 and current_floor <= 0.0:
        binding = BindingConstraint.NONE
    elif matched >= current_floor:
        binding = BindingConstraint.INERTIA_STRENGTH_MATCH
    else:
        binding = BindingConstraint.CURRENT_LIMIT
    return x_i, binding


def design(inp: DesignInput) -> DesignOutput:
    """Full coordinated design against the fault-on operating point.

    The inertia is matched to the faulted net power (the controller targets
    fault-on synchronization), the damping is co-adjusted to preserve the
    damping-to-inertia ratio the reduction requires, and the virtual reactance
    honours both floors.  The returned prediction fields are evaluated on the
    designed fault-on model.
    """
    p_net = inp.sg.mech_power - load_power(inp.fault_voltage, inp.load)
    inertia_set = match_inertia(inp.vsg.power_ref, p_net, inp.sg.inertia)
    damping_set = inp.sg.damping / inp.sg.inertia * inertia_set
    x_i, binding = set_virtual_impedance(inp, inertia_set)
    designed = replace(
        inp.vsg, inertia=inertia_set, damping=damping_set, virtual_reactance=x_i
    )
    x_sum = total_reactance(designed, inp.sg)
    predicted_index = stability_index_from_parts(
        designed.power_ref, p_net, designed.inertia, inp.sg.inertia,
        designed.internal_voltage, inp.fault_voltage, x_sum,
    )
    predicted_peak = float(current_magnitude(
        math.pi, designed.internal_voltage, inp.fault_voltage, x_sum
    ))
    return DesignOutput(
        inertia=inertia_set,
        damping=damping_set,
        virtual_reactance=x_i,
        binding_constraint=binding,
        predicted_peak_current=predicted_peak,
        predicted_index=predicted_index,
    )
