"""
First-swing classification by the equal-area construction.

Starting from rest at delta_0, the accelerating power P_ref - P_max*sin(delta)
does work on the angle until the fault-on equilibrium delta_s is reached; the
accumulated area S_plus is the kinetic energy at delta_s.  Beyond delta_s the
integrand reverses sign and the swing decelerates; the capacity to absorb the
kinetic energy before the unstable angle delta_u is the area S_minus.  The
first swing is bounded iff S_plus < S_minus.  Both areas have closed forms
because the integrand is affine plus a sinusoid; quadrature exists only as a
test oracle.  Damping is ignored here by construction, so the verdict is
conservative for damped systems.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum

from .machine import RelativeSwingModel
from .equilibrium import find_equilibria

BOUNDARY_AREA_TOL = 1e-9
_PEAK_BISECTION_TOL = 1e-12


class SwingClass(Enum):
    STABLE = "stable"
    UNSTABLE = "unstable"
    CRITICAL = "critical"
    NO_SEP = "no_sep"


@dataclass(frozen=True)
class EacResult:
    """Outcome of the first-swing area comparison.

    Areas are accumulated along the actual swing direction and are both
    non-negative.  peak_angle is the first-swing extreme (a minimum for
    backward swings) and is present only for a STABLE verdict.  forward
    records the swing direction the initial imbalance drives.
    """

    classification: SwingClass
    accel_area: float
    decel_area: float
    sep_angle: float
    peak_angle: float | None
    forward: bool


def acceleration_area(model: RelativeSwingModel, delta_0: float, delta_s: float) -> float:
    """Integral of (power_ref - power_max*sin d) over [delta_0, delta_s], closed form."""
    if delta_0 > delta_s:
        raise ValueError("delta_0 must not exceed delta_s")
    return model.power_ref * (delta_s - delta_0) + model.power_max * (
        math.cos(delta_s) - math.cos(delta_0)
    )


def deceleration_area(model: RelativeSwingModel, delta_s: float, delta_end: float) -> float:
    """Integral of (power_max*sin d - power_ref) over [delta_s, delta_end], closed form."""
    if delta_s > delta_end:
        raise ValueError("delta_s must not exceed delta_end")
    return model.power_max * (math.cos(delta_s) - math.cos(delta_end)) - model.power_ref * (
        delta_end - delta_s
    )


def _mirror(model: RelativeSwingModel) -> RelativeSwingModel:
    # delta -> -delta maps a backward swing onto the forward construction.
    return replace(model, power_ref=-model.power_ref)


def _classify_forward(
    model: RelativeSwingModel,
    delta_0: float,
    sep: float,
    uep: float,
) -> tuple[SwingClass, float, float, float | None]:
    s_plus = acceleration_area(model, delta_0, sep)
    s_minus = deceleration_area(model, sep, uep)
    if abs(s_plus - s_minus) < BOUNDARY_AREA_TOL:
        return SwingClass.CRITICAL, s_plus, s_minus, None
    if s_plus > s_minus:
        return SwingClass.UNSTABLE, s_plus, s_minus, None
    lo, hi = sep, uep
    while hi - lo > _PEAK_BISECTION_TOL:
        mid = 0.5 * (lo + hi)
        if deceleration_area(model, sep, mid) < s_plus:
            lo = mid
        else:
            hi = mid
    return SwingClass.STABLE, s_plus, s_minus, 0.5 * (lo + hi)


def classify_first_swing(model: RelativeSwingModel, delta_0: float) -> EacResult:
    """Classify the first swing from rest at delta_0 under the given model.

    The swing direction is whichever way the initial power imbalance drives;
    backward swings are handled by mirroring the construction toward the
    backward unstable angle.  Verdicts within BOUNDARY_AREA_TOL of the balance
    point are flagged CRITICAL rather than guessed.
    """
    eq = find_equilibria(model)
    if not eq.exists:
        return EacResult(SwingClass.NO_SEP, math.nan, math.nan, math.nan, None, True)
    if delta_0 >= eq.uep_forward or delta_0 <= eq.uep_backward:
        # Already at or beyond an unstable angle: no deceleration capacity left.
        return EacResult(
            SwingClass.UNSTABLE, math.nan, math.nan, eq.sep, None, delta_0 >= eq.uep_forward
        )
    imbalance = model.power_ref - model.power_max * math.sin(delta_0)
    if imbalance == 0.0:
        return EacResult(SwingClass.STABLE, 0.0, deceleration_area(model, eq.sep, eq.uep_forward),
                         eq.sep, delta_0, True)
    forward = imbalance > 0.0
    if forward:
        verdict, s_plus, s_minus, peak = _classify_forward(model, delta_0, eq.sep, eq.uep_forward)
    else:
        mirrored = _mirror(model)
        meq = find_equilibria(mirrored)
        verdict, s_plus, s_minus, peak = _classify_forward(
            mirrored, -delta_0, meq.sep, meq.uep_forward)
        peak = -peak if peak is not None else None
    return EacResult(verdict, s_plus, s_minus, eq.sep, peak, forward)
