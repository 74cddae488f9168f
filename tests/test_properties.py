"""Property tests over random matched-ratio runs of the reference bench, and
over the sine remainder the region certificate bounds.

simulate_outcome stops early and skips steps on fixed points of the step
map; simulate_reduced stores every sample.  Both must
report the same loss time and score bit for bit.  Steps are kept to
dt*omega_n <= 0.5 in every stage, well inside RK4's stability interval.
"""

import math
from dataclasses import replace

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from syncstab import (  # noqa: E402
    StageCondition,
    plan_stages,
    resolve_stages,
    simulate_outcome,
    simulate_reduced,
)
from syncstab.region import _remainder_slope  # noqa: E402


def _seconds(lo, hi):
    """Times and inertias as documents give them (rounded) or as any float."""
    return st.one_of(st.floats(lo, hi).map(lambda x: round(x, 3)), st.floats(lo, hi))


@st.composite
def _runs(draw):
    h_v = draw(_seconds(5.0, 80.0))
    fault_voltage = draw(_seconds(0.05, 0.9))
    t_end = draw(_seconds(3.0, 10.0))
    t_clear = draw(st.none() | _seconds(0.55, 3.0))
    step_share = draw(st.floats(0.05, 0.5))  # dt * max omega_n
    return h_v, fault_voltage, t_end, t_clear, step_share


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(_runs())
def test_outcome_equals_reduced_run(vsg, sg, load, base, scenario, run):
    h_v, fault_voltage, t_end, t_clear, step_share = run
    v = replace(vsg, inertia=h_v, damping=0.5 * h_v)
    sc = replace(scenario, t_end=t_end, faulted=StageCondition(sg_voltage=fault_voltage))
    if t_clear is not None:
        sc = replace(sc, t_clear=t_clear, postfault=StageCondition(sg_voltage=1.0))
    omega_n = max(math.sqrt(s.model.omega_ref * s.model.power_max / (2.0 * s.model.inertia))
                  for s in resolve_stages(v, sg, load, base, sc))
    dt = step_share / omega_n
    traj = simulate_reduced(plan_stages(v, sg, load, base, sc, dt))
    los, ssi = simulate_outcome(plan_stages(v, sg, load, base, sc, dt))
    assert (los is None) == (traj.los_time is None)
    if los is not None:
        assert isinstance(los, float) and los.hex() == float(traj.los_time).hex()
    assert type(ssi) is type(traj.ssi) is float and ssi.hex() == traj.ssi.hex()


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(st.floats(-0.499, 0.499), st.floats(1e-6, 1.0), st.floats(-1.0, 1.0))
def test_remainder_slope_bounds_the_sine_remainder(sep_share, reach, place):
    # |r(x)| <= g(x_lin)*|x| for |x| <= x_lin, x_lin up to half the distance to
    # the nearer saddle (pi - 2|sep| away); r in a form free of cancellation,
    # so its rounding stays within a few ulps of x
    sep = math.pi * sep_share
    x_lin = reach * 0.5 * (math.pi - 2.0 * abs(sep))
    x = place * x_lin
    r = -2.0 * math.sin(sep) * math.sin(0.5 * x) ** 2 + math.cos(sep) * (math.sin(x) - x)
    assert abs(r) <= (_remainder_slope(sep, x_lin) + 1e-15) * abs(x)

