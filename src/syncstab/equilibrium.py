"""
Equilibria, the stability-level index, and its parameter sensitivities.

The reduced swing equation has equilibria where power_ref = power_max*sin(delta).
A stable one exists iff |power_ref| < power_max.  The stability-level index

    index = 1 - |power_ref| / power_max

summarises both that existence condition (index > 0) and the first-swing
margin: a larger index means a larger deceleration area and a wider basin.
The index peaks at 1 when the two units' inertias are matched to the powers
they must carry, H_v/H_g = P_ref/P_net, and decreases monotonically on either
side of that ratio.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from .machine import (
    DegenerateModelError,
    LoadParams,
    ModelError,
    RelativeSwingModel,
    SgParams,
    SingularNetworkError,
    VsgParams,
    load_power,
    total_reactance,
)

_EQUILIBRIUM_RESIDUAL_TOL = 1e-10


@dataclass(frozen=True)
class Equilibria:
    """Equilibrium angles of the reduced model.

    sep is the stable angle in (-pi/2, pi/2); the two unstable companions are
    pi - sep (forward swing) and -pi - sep (backward swing).  Angles are nan
    when no stable equilibrium exists.
    """

    exists: bool
    sep: float
    uep_forward: float
    uep_backward: float


def sep_exists(model: RelativeSwingModel) -> bool:
    """True iff the transferred power can cover the reference, |P_ref| < P_max."""
    return abs(model.power_ref) < model.power_max


def find_equilibria(model: RelativeSwingModel) -> Equilibria:
    """Solve power_ref = power_max*sin(delta) for all three equilibrium angles."""
    if model.power_max == 0.0 and model.power_ref == 0.0:
        raise DegenerateModelError("every angle is an equilibrium (both powers zero)")
    if not sep_exists(model):
        return Equilibria(False, math.nan, math.nan, math.nan)
    sep = math.asin(model.power_ref / model.power_max)
    return Equilibria(True, sep, math.pi - sep, -math.pi - sep)


def stability_index(model: RelativeSwingModel) -> float:
    """Stability-level index 1 - |power_ref|/power_max, in (-inf, 1]."""
    if model.power_max == 0.0:
        raise DegenerateModelError("power_max is zero; the index is undefined")
    return 1.0 - abs(model.power_ref) / model.power_max


def stability_index_from_parts(
    power_ref: float,
    p_net: float,
    h_v: float,
    h_g: float,
    e_v: float,
    e_g: float,
    x_sum: float,
) -> float:
    """Index evaluated directly from machine quantities, without reducing first.

    Algebraically identical to stability_index of the reduced model:
    1 - |H_g*P_ref - H_v*P_net| / (H_v + H_g) * X_sum / (E_v*E_g).
    """
    if e_v * e_g == 0.0:
        raise DegenerateModelError("zero voltage product; the index is undefined")
    if x_sum <= 0.0:
        raise SingularNetworkError("x_sum must be positive")
    sync_ref = (h_g * power_ref - h_v * p_net) / (h_v + h_g)
    return 1.0 - abs(sync_ref) / (e_g * e_v / x_sum)


def scr(vsg: VsgParams, sg: SgParams) -> float:
    """Short-circuit ratio of the connecting network, 1/(X_g + X_v)."""
    x = sg.line_reactance + vsg.line_reactance
    if x == 0.0:
        raise SingularNetworkError("X_g + X_v is zero")
    return 1.0 / x


def stability_index_from_scr(
    scr_value: float,
    virtual_reactance: float,
    sync_power_ref: float,
    e_v: float,
    e_g: float,
) -> float:
    """Index in grid-strength form, 1 - (1/scr + X_i)*|P_ref_s|/(E_v*E_g).

    Equals stability_index of the equivalent reduced model to rounding error;
    it isolates how a stronger connection (larger scr) raises the index.
    """
    if scr_value <= 0:
        raise ModelError(f"scr must be positive, got {scr_value}")
    if e_v * e_g == 0.0:
        raise DegenerateModelError("zero voltage product; the index is undefined")
    return 1.0 - (1.0 / scr_value + virtual_reactance) * abs(sync_power_ref) / (e_v * e_g)


def sep_ratio_bounds(
    power_ref: float,
    p_net: float,
    e_v: float,
    e_g: float,
    x_sum: float,
) -> tuple[float, float]:
    """Admissible interval of the inertia ratio H_v/H_g for a stable equilibrium.

    Solving |P_ref - r*P_net| < (1 + r) * E_v*E_g/X_sum for r = H_v/H_g gives

        lower = (P_ref*X_sum - E_v*E_g) / (P_net*X_sum + E_v*E_g)   (clamped at 0)
        upper = (P_ref*X_sum + E_v*E_g) / (P_net*X_sum - E_v*E_g)   (inf if the
                denominator is non-positive, i.e. the dip is shallow)

    The interval always contains the matched ratio P_ref/P_net.  For P_net <= 0
    the two-branch structure degenerates; the full interval is returned with a
    diagnostic and existence should be checked pointwise instead.
    """
    if power_ref <= 0:
        raise ModelError(f"power_ref must be positive, got {power_ref}")
    if x_sum <= 0:
        raise ModelError(f"x_sum must be positive, got {x_sum}")
    if p_net <= 0:
        warnings.warn(
            "net power is non-positive; the ratio-interval analysis does not "
            "apply, falling back to (0, inf)",
            UserWarning,
            stacklevel=2,
        )
        return (0.0, math.inf)
    ee = e_v * e_g
    lower = max((power_ref * x_sum - ee) / (p_net * x_sum + ee), 0.0)
    severe = p_net * x_sum > ee
    upper = (power_ref * x_sum + ee) / (p_net * x_sum - ee) if severe else math.inf
    return (lower, upper)


def dindex_dratio(
    power_ref: float,
    p_net: float,
    e_v: float,
    e_g: float,
    x_sum: float,
    h_v: float,
    h_g: float,
) -> float:
    """Derivative of the index with respect to the inertia ratio r = H_v/H_g.

    Piecewise: +H_g**2*(P_ref + P_net)*X_sum / (E_v*E_g*(H_v + H_g)**2) below
    the matched ratio, the negated value above it.  The index is not
    differentiable exactly at the matched ratio, where this raises ModelError;
    callers must evaluate at a finite offset.
    """
    if e_v * e_g == 0.0:
        raise DegenerateModelError("zero voltage product")
    r = h_v / h_g
    matched = power_ref / p_net
    if r == matched:
        raise ModelError("the index is not differentiable at the matched inertia ratio")
    magnitude = (
        h_g**2 * (power_ref + p_net) * x_sum / (e_v * e_g * (h_v + h_g) ** 2)
    )
    return magnitude if r < matched else -magnitude


@dataclass(frozen=True)
class PenetrationModel:
    """Construction rules tying a grid-forming unit's parameters to its share.

    With capacity_ratio = S_v/S_g and the conventions

        X_v*S_v = line_drop_ratio    * X_g*S_g
        X_i*S_v = virtual_drop_ratio * X_g*S_g
        H_v/S_v = inertia_level_ratio * H_g/S_g
        P_ref/S_v = P_m/S_g = power_factor

    the unit's impedances shrink and its inertia grows as its share rises.
    1/(line_drop_ratio + virtual_drop_ratio) acts as the unit's voltage
    strength; whether more capacity helps or hurts depends on how the
    inertia level compares against that strength.
    """

    line_drop_ratio: float
    virtual_drop_ratio: float
    inertia_level_ratio: float
    capacity_ratio: float
    power_factor: float

    def __post_init__(self) -> None:
        if self.line_drop_ratio < 0 or self.virtual_drop_ratio < 0:
            raise ModelError("drop ratios must be non-negative")
        if self.inertia_level_ratio <= 0:
            raise ModelError("inertia_level_ratio must be positive")
        if self.capacity_ratio <= 0:
            raise ModelError("capacity_ratio must be positive")
        if not 0 < self.power_factor <= 1:
            raise ModelError("power_factor must be in (0, 1]")

    def build_vsg(self, sg: SgParams, internal_voltage: float = 1.0) -> VsgParams:
        """Materialise the grid-forming unit these ratios imply, in system pu.

        Damping inherits the machine's damping-to-inertia ratio so the reduced
        model stays exact.
        """
        s_v = self.capacity_ratio * sg.rated_power
        x_scale = sg.line_reactance * sg.rated_power / s_v
        inertia = self.inertia_level_ratio * sg.inertia * s_v / sg.rated_power
        return VsgParams(
            inertia=inertia,
            damping=sg.damping / sg.inertia * inertia,
            power_ref=self.power_factor * s_v,
            internal_voltage=internal_voltage,
            line_reactance=self.line_drop_ratio * x_scale,
            virtual_reactance=self.virtual_drop_ratio * x_scale,
            rated_power=s_v,
        )


def dindex_dcapacity(pm: PenetrationModel, sg: SgParams, p_load: float) -> float:
    """Derivative of the index with respect to the capacity ratio.

        -X_g * |(1-c)*pf*S_g + c*P_load| * (1 - c*(a+b))
        / (E_g*E_v*(c*eta + 1)**2)

    with a, b the drop ratios, c the inertia level ratio and eta the capacity
    ratio.  Positive iff c > 1/(a+b): adding capacity helps only when the
    unit's inertia level exceeds its voltage strength.  E_v is taken at the
    rated 1.0 pu the construction assumes.
    """
    a = pm.line_drop_ratio
    b = pm.virtual_drop_ratio
    c = pm.inertia_level_ratio
    eta = pm.capacity_ratio
    e_v = 1.0
    numerator = abs((1.0 - c) * pm.power_factor * sg.rated_power + c * p_load)
    return (
        -sg.line_reactance
        * numerator
        * (1.0 - c * (a + b))
        / (sg.voltage * e_v * (c * eta + 1.0) ** 2)
    )


def index_at_capacity(
    pm: PenetrationModel,
    sg: SgParams,
    load: LoadParams,
    fault_voltage: float,
) -> float:
    """Index of the pair the penetration rules imply, under a given voltage dip.

    Builds the grid-forming unit from the ratios, reduces against the faulted
    machine voltage, and evaluates the index.  Its finite difference in the
    capacity ratio matches dindex_dcapacity.
    """
    vsg = pm.build_vsg(sg)
    p_load = load_power(fault_voltage, load)
    p_net = sg.mech_power - p_load
    x_sum = total_reactance(vsg, sg)
    return stability_index_from_parts(
        vsg.power_ref, p_net, vsg.inertia, sg.inertia,
        vsg.internal_voltage, fault_voltage, x_sum,
    )
