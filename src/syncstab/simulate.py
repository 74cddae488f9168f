"""
Time-domain integration of the reduced pair and of the full two-machine system.

Scenarios are staged: a pre-fault operating point, a fault-on period entered by
dropping the machine voltage (and usually inserting virtual reactance), and an
optional post-fault stage after clearing.  Coefficients jump at stage
boundaries while the state stays continuous.  resolve_stages is the one
place a StageCondition is applied; each Stage solves its model's equilibria
once, on first read, for every caller that reads it.  Integration is classical
fixed-step RK4; the dynamics are smooth and non-stiff at these parameter
scales, and a fixed step keeps energy-drift checks deterministic.

Each stage is integrated as one segment of fixed steps, from the first grid
point at or after its start time.  Loss of synchronism is one rule on the
unwrapped angle, applied to every sample a stage writes: the angle is past
the stage's forward unstable angle while still moving forward, or past the
backward one while still moving backward.  The unstable angles are those of
the stage model; a stage without a stable equilibrium uses a half-turn either
side of its entry angle.  Re-converging a full cycle later counts as a pole
slip and is still a loss.

simulate_reduced, simulate_full and simulate_outcome share one stage walker
and differ in the step kernel and in whether samples are stored.
simulate_outcome stores none and returns only the loss time and the
synchronization score: it steps through a buffer of _CHUNK samples, keeps a
running peak angle, and stops once neither value can change.  With damping
the energy V = inertia*dw**2 + potential(delta) never increases (Chiang, Wu
& Varaiya, IEEE TCAS 1988), so after a chunk of a damped last stage it stops
once both values are fixed:
- the loss time, because a loss has already been found, or because the
  angle lies between the two unstable angles and V is below the lower
  saddle energy by a margin, so no later sample can reach a saddle;
- the peak, because V plus the margin is below the largest potential on
  [angle, peak]: to pass the peak the angle would have to climb over that
  maximum, which V cannot pay for.
The margin is 1e-9 of (|power_ref| + power_max)/omega_ref.  The potential's
maximum on an interval lies at an end or at an unstable angle
pi - asin(power_ref/power_max) + 2*pi*k; a stage without a stable
equilibrium has no such angle.  Both values then equal those of the full
run bit for bit.  Runs whose last stage is undamped or steps past
dt*omega_n = 0.5 (omega_n**2 = omega_ref*power_max/2H), where RK4's map
no longer keeps V from rising, and runs whose peak is their newest sample
(forward slips among them), still integrate to t_end.

Steps on an exact fixed point of the step map are skipped.  Every run starts
at rest on the pre-fault stable angle, and where power_ref - power_max*sin
of it is exactly 0.0 every RK4 slope is zero.  The scalar kernel takes one
real step from rest and, if it returns its start state bit for bit, fills
the remaining samples with that state; outputs stay bit-equal to stepping.

simulate_ensemble steps its lanes as one stacked (2, lanes) state in chunks
of at most 32 steps and 1 MiB, scanning each chunk for losses; its outputs
equal a per-step numpy loop's bit for bit.  A settle test may retire lanes
after each chunk.  region passes its contraction certificate, whose
derivation and step-size bound are in region's docstring; a lane it retires
reports a loss time of inf and no final state.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .machine import (
    BaseQuantities,
    LoadParams,
    ModelError,
    RelativeSwingModel,
    SgParams,
    VsgParams,
    load_power,
    reduce_two_machine,
    total_reactance,
)
from .equilibrium import Equilibria, find_equilibria


class IntegrationDivergedError(RuntimeError):
    """The integrator produced a non-finite state."""


@dataclass(frozen=True)
class StageCondition:
    """Per-stage overrides; None inherits the corresponding base parameter."""

    sg_voltage: float | None = None
    virtual_reactance: float | None = None
    power_ref: float | None = None


@dataclass(frozen=True)
class FaultScenario:
    """Staged fault description: pre-fault, fault-on, optional post-fault."""

    t_end: float
    t_fault: float
    prefault: StageCondition
    faulted: StageCondition
    t_clear: float | None = None
    postfault: StageCondition | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.t_fault < self.t_end:
            raise ModelError(f"need 0 <= t_fault < t_end, got {self.t_fault}, {self.t_end}")
        if (self.t_clear is None) != (self.postfault is None):
            raise ModelError("t_clear and postfault must be given together")
        if self.t_clear is not None and not self.t_fault < self.t_clear <= self.t_end:
            raise ModelError(f"need t_fault < t_clear <= t_end, got t_clear={self.t_clear}")


@dataclass
class Trajectory:
    """Uniformly sampled simulation output.

    delta/dw are the synchronization angle and frequency; sync_power and
    current are derived per-sample with the stage parameters active at each
    sample.  los_time is the first loss-of-synchronism crossing, None if the
    run stays synchronized.
    """

    times: np.ndarray
    delta: np.ndarray
    dw: np.ndarray
    sync_power: np.ndarray
    current: np.ndarray
    los_time: float | None
    ssi: float


def _rk4(
    model: RelativeSwingModel,
    d: float,
    w: float,
    dt: float,
    delta: np.ndarray,
    dw: np.ndarray,
    start: int,
    stop: int,
) -> tuple[float, float]:
    """Classical RK4 from (d, w) for steps start..stop-1 of the reduced swing equation.

    Writes samples start+1..stop into delta and dw and returns the last state.
    A negative dt integrates in negated time.  d and w must be Python floats:
    numpy scalars would make every operation a numpy dispatch.

    From rest (w == 0.0) the first step is taken alone.  If it returns its
    start state bit for bit, the signs of zero included, that state is a
    fixed point of the step map: every later sample equals it, so they are
    filled in without stepping.
    """
    pref, pmax, damp = model.power_ref, model.power_max, model.damping
    h2, om = 2.0 * model.inertia, model.omega_ref
    half, sixth = 0.5 * dt, dt / 6.0
    sin, sign = math.sin, math.copysign
    d0, w0 = d, w
    first = start + 1 if w == 0.0 and stop - start > 1 else stop
    for lo, hi in ((start, first), (first, stop)):
        for i in range(lo + 1, hi + 1):
            k1d = om * w
            k1w = (pref - pmax * sin(d) - damp * w) / h2
            d2, w2 = d + half * k1d, w + half * k1w
            k2d = om * w2
            k2w = (pref - pmax * sin(d2) - damp * w2) / h2
            d3, w3 = d + half * k2d, w + half * k2w
            k3d = om * w3
            k3w = (pref - pmax * sin(d3) - damp * w3) / h2
            d4, w4 = d + dt * k3d, w + dt * k3w
            k4d = om * w4
            k4w = (pref - pmax * sin(d4) - damp * w4) / h2
            d += sixth * (k1d + 2.0 * k2d + 2.0 * k3d + k4d)
            w += sixth * (k1w + 2.0 * k2w + 2.0 * k3w + k4w)
            delta[i] = d
            dw[i] = w
        if (hi == first < stop and d == d0 and w == w0
                and sign(1.0, d) == sign(1.0, d0) and sign(1.0, w) == sign(1.0, w0)):
            delta[first + 1:stop + 1] = d
            dw[first + 1:stop + 1] = w
            break
    return d, w


def current_magnitude(delta, e_v: float, e_g: float, x_sum: float):
    """Output current magnitude |E_v*e^(j*delta) - E_g| / X_sum, elementwise."""
    if x_sum == 0.0:
        raise ModelError("x_sum is zero")
    return np.sqrt(e_v**2 + e_g**2 - 2.0 * e_v * e_g * np.cos(delta)) / x_sum


def ssi_from_peak(delta_peak: float) -> float:
    """Synchronization score (2*pi - peak)/(2*pi + peak); 1 at zero, 0 at a full turn."""
    return (2.0 * math.pi - delta_peak) / (2.0 * math.pi + delta_peak)


def _los_thresholds(eq: Equilibria, delta_start):
    """(upper, lower) crossing angles for loss detection under a stage model.

    eq holds the stage model's equilibria.  With a stable equilibrium these
    are the forward and backward unstable angles.  Without one the angle
    drifts; a full half-turn from the stage entry point is then counted as
    lost, since no equilibrium can lie beyond.  delta_start may be an array of
    entry angles.
    """
    if eq.exists:
        return eq.uep_forward, eq.uep_backward
    return delta_start + math.pi, delta_start - math.pi


def _lost(d, w, upper, lower):
    """The loss-of-synchronism rule: past an unstable angle while moving outward.

    Elementwise on arrays; on scalars it returns a bool.
    """
    return ((d > upper) & (w > 0)) | ((d < lower) & (w < 0))


@dataclass(frozen=True)
class Stage:
    """One stage of a scenario: its start time, parameter sets and reduced model.

    eq, the model's equilibria, is solved on first read and kept, so a stage
    whose two powers are both zero can still be built and reported.
    """

    name: str
    t_start: float
    vsg: VsgParams
    sg: SgParams
    model: RelativeSwingModel

    @cached_property
    def eq(self) -> Equilibria:
        return find_equilibria(self.model)


def resolve_stages(
    vsg: VsgParams,
    sg: SgParams,
    load: LoadParams,
    base: BaseQuantities,
    scenario: FaultScenario,
) -> list[Stage]:
    """The scenario's stages in time order: prefault, faulted and, if cleared, postfault.

    Each stage's condition overrides the base parameters where it gives a value.
    """
    conditions = [("prefault", 0.0, scenario.prefault),
                  ("faulted", scenario.t_fault, scenario.faulted)]
    if scenario.postfault is not None:
        conditions.append(("postfault", scenario.t_clear, scenario.postfault))
    stages = []
    for name, t_start, cond in conditions:
        v = replace(
            vsg,
            virtual_reactance=(vsg.virtual_reactance if cond.virtual_reactance is None
                               else cond.virtual_reactance),
            power_ref=vsg.power_ref if cond.power_ref is None else cond.power_ref,
        )
        g = sg if cond.sg_voltage is None else replace(sg, voltage=cond.sg_voltage)
        model = reduce_two_machine(v, g, load, base)
        stages.append(Stage(name, t_start, v, g, model))
    return stages


_CHUNK = 512


def _max_potential(model: RelativeSwingModel, eq: Equilibria, lo: float, hi: float) -> float:
    """Largest potential on [lo, hi]: at an end or at an unstable angle inside.

    The unstable angles uep_forward + 2*pi*k are the potential's maxima, and
    their potential falls by 2*pi*power_ref/omega_ref per turn, so only the
    first one inside (last one, for power_ref < 0) can be the largest.
    """
    top = max(model.potential(lo), model.potential(hi))
    if eq.exists:
        turn = 2.0 * math.pi
        k = (math.ceil((lo - eq.uep_forward) / turn) if model.power_ref >= 0
             else math.floor((hi - eq.uep_forward) / turn))
        saddle = eq.uep_forward + turn * k
        if lo <= saddle <= hi:
            top = max(top, model.potential(saddle))
    return top


def _settle_test(
    model: RelativeSwingModel, eq: Equilibria, dt: float
) -> Callable[[float, float, float, bool], bool] | None:
    """settled(d, w, peak, lost) for the early exit under a last stage; None if it is
    undamped or dt*omega_n exceeds 0.5.

    settled is true once no later sample can change the loss time (lost says
    whether one was found) or exceed peak (see the module docstring).
    """
    if model.damping <= 0 or dt * math.sqrt(
            model.omega_ref * model.power_max / (2.0 * model.inertia)) > 0.5:
        return None
    margin = 1e-9 * (abs(model.power_ref) + model.power_max) / model.omega_ref
    if eq.exists:
        barrier = min(model.potential(eq.uep_forward), model.potential(eq.uep_backward))

    def settled(d: float, w: float, peak: float, lost: bool) -> bool:
        v = model.energy(d, w)
        if not (lost or (eq.exists and eq.uep_backward < d < eq.uep_forward
                         and v < barrier - margin)):
            return False
        return _max_potential(model, eq, d, peak) > v + margin

    return settled


def _plan(
    vsg: VsgParams,
    sg: SgParams,
    load: LoadParams,
    base: BaseQuantities,
    scenario: FaultScenario,
    dt: float,
) -> tuple[list[Stage], list[int], int]:
    """(stages, starts, n_steps): a stage governs samples from its start time rounded up to the grid."""
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    stages = resolve_stages(vsg, sg, load, base, scenario)
    starts = [math.ceil(stage.t_start / dt - 1e-9) for stage in stages]
    return stages, starts, int(round(scenario.t_end / dt))


def _walk(
    stages: list[Stage],
    starts: list[int],
    n_steps: int,
    dt: float,
    step: Callable,
    delta: np.ndarray | None = None,
    dw: np.ndarray | None = None,
) -> tuple[int | None, float]:
    """Walk the staged run from rest on the pre-fault stable angle.

    Returns the first lost sample's index (None if none) and the peak angle.
    step(stage, d, w, dt, delta, dw, start, stop) advances (d, w) over steps
    start..stop-1 under the stage, writes samples start+1..stop and returns
    the last state.  Stage k governs the steps from starts[k] to the next
    stage's start; it is entered when that lies before n_steps, and stages
    sharing a start step are each entered.  Its loss thresholds come from the
    angle at entry.  Given delta and dw, every sample is stored there and the
    walk runs to n_steps; without them it steps through a _CHUNK-sample
    buffer and stops once the last stage's settle test holds.  A written
    segment is tested for a loss only when its extremes pass a threshold
    (a NaN extreme included), which is exactly when the rule can hold.
    """
    store = delta is not None
    if not store:
        delta, dw = np.empty(_CHUNK + 1), np.empty(_CHUNK + 1)
    pre = stages[0].eq
    if not pre.exists:
        raise ModelError("the pre-fault stage admits no stable equilibrium to start from")
    d, w = float(pre.sep), 0.0
    delta[0], dw[0] = d, w
    peak, los = d, None
    for k, stage in enumerate(stages):
        start = starts[k]
        if k and start >= n_steps:
            break
        stop = min(starts[k + 1], n_steps) if k + 1 < len(stages) else n_steps
        eq = stage.eq
        upper, lower = _los_thresholds(eq, d)
        settled = None if store or stop < n_steps else _settle_test(stage.model, eq, dt)
        done = start
        while done < stop:
            m = stop - done if store else min(_CHUNK, stop - done)
            at = done if store else 0
            d, w = step(stage, d, w, dt, delta, dw, at, at + m)
            seg_d, seg_w = delta[at + 1:at + m + 1], dw[at + 1:at + m + 1]
            hi, lo = float(seg_d.max()), float(seg_d.min())
            peak = max(peak, hi)
            if los is None and not (lower <= lo and hi <= upper):
                hit = np.flatnonzero(_lost(seg_d, seg_w, upper, lower))
                if hit.size:
                    los = done + 1 + int(hit[0])
            done += m
            if settled is not None and settled(d, w, peak, los is not None):
                break
    if not (math.isfinite(d) and math.isfinite(w)):
        raise IntegrationDivergedError("simulation diverged")
    return los, peak


def _reduced_step(stage, d, w, dt, delta, dw, start, stop):
    """The reduced pair's step for _walk: _rk4 under the stage model."""
    return _rk4(stage.model, d, w, dt, delta, dw, start, stop)


def _trajectory(
    vsg: VsgParams,
    sg: SgParams,
    load: LoadParams,
    base: BaseQuantities,
    scenario: FaultScenario,
    dt: float,
    step: Callable,
) -> Trajectory:
    """Walk the run with step, storing every sample, and derive the per-sample outputs."""
    stages, starts, n_steps = _plan(vsg, sg, load, base, scenario, dt)
    delta, dw = np.empty(n_steps + 1), np.empty(n_steps + 1)
    los, peak = _walk(stages, starts, n_steps, dt, step, delta, dw)
    times = np.arange(n_steps + 1) * dt
    sync_power = np.empty(n_steps + 1)
    current = np.empty(n_steps + 1)
    for k, stage in enumerate(stages):
        sl = slice(starts[k], starts[k + 1] if k + 1 < len(stages) else n_steps + 1)
        sync_power[sl] = stage.model.power_max * np.sin(delta[sl])
        current[sl] = current_magnitude(
            delta[sl],
            stage.vsg.internal_voltage,
            stage.sg.voltage,
            total_reactance(stage.vsg, stage.sg),
        )
    return Trajectory(
        times=times,
        delta=delta,
        dw=dw,
        sync_power=sync_power,
        current=current,
        los_time=None if los is None else times[los],
        ssi=ssi_from_peak(peak),
    )


def simulate_reduced(
    vsg: VsgParams,
    sg: SgParams,
    load: LoadParams,
    base: BaseQuantities,
    scenario: FaultScenario,
    dt: float = 1e-4,
) -> Trajectory:
    """Integrate the reduced pair through the staged scenario.

    The run starts at rest on the pre-fault stable angle; each stage rebuilds
    the reduced model (including the load power at the stage voltage) while
    the state carries over unchanged.
    """
    return _trajectory(vsg, sg, load, base, scenario, dt, _reduced_step)


def simulate_outcome(
    vsg: VsgParams,
    sg: SgParams,
    load: LoadParams,
    base: BaseQuantities,
    scenario: FaultScenario,
    dt: float = 1e-4,
) -> tuple[float | None, float]:
    """(los_time, ssi) of simulate_reduced's run, integrating only until both are decided.

    Stores no trajectory and stops early once the energy certificate of the
    module docstring holds; both values equal simulate_reduced's bit for bit.
    """
    stages, starts, n_steps = _plan(vsg, sg, load, base, scenario, dt)
    los, peak = _walk(stages, starts, n_steps, dt, _reduced_step)
    return (None if los is None else los * dt), ssi_from_peak(peak)


def simulate_full(
    vsg: VsgParams,
    sg: SgParams,
    load: LoadParams,
    base: BaseQuantities,
    scenario: FaultScenario,
    dt: float = 1e-4,
) -> Trajectory:
    """Integrate the full four-state pair and return its relative trajectory.

    States are the two absolute angles and pu frequency deviations.  The
    machine's electric power is the load draw minus the converter output.
    The relative trajectory matches simulate_reduced exactly whenever the
    damping-to-inertia ratios agree, for any common-mode drift.
    """
    om = base.omega_ref
    sin = math.sin
    state = None

    def step(stage, d, w, dt, delta, dw, start, stop):
        nonlocal state
        v, g = stage.vsg, stage.sg
        pvref, hv2, dv = v.power_ref, 2.0 * v.inertia, v.damping
        pm, hg2, dg = g.mech_power, 2.0 * g.inertia, g.damping
        pmax = v.internal_voltage * g.voltage / total_reactance(v, g)
        p_load = load_power(g.voltage, load)

        def rhs(tv, wv, tg, wg):
            p_v = pmax * sin(tv - tg)
            return (
                om * wv,
                (pvref - p_v - dv * wv) / hv2,
                om * wg,
                (pm - (p_load - p_v) - dg * wg) / hg2,
            )

        # the first segment starts from the walker's state, with the machine angle at 0
        th_v, w_v, th_g, w_g = state or (d, w, 0.0, 0.0)
        for i in range(start, stop):
            a1, b1, c1, e1 = rhs(th_v, w_v, th_g, w_g)
            a2, b2, c2, e2 = rhs(
                th_v + 0.5 * dt * a1, w_v + 0.5 * dt * b1, th_g + 0.5 * dt * c1, w_g + 0.5 * dt * e1
            )
            a3, b3, c3, e3 = rhs(
                th_v + 0.5 * dt * a2, w_v + 0.5 * dt * b2, th_g + 0.5 * dt * c2, w_g + 0.5 * dt * e2
            )
            a4, b4, c4, e4 = rhs(th_v + dt * a3, w_v + dt * b3, th_g + dt * c3, w_g + dt * e3)
            th_v += dt / 6.0 * (a1 + 2 * a2 + 2 * a3 + a4)
            w_v += dt / 6.0 * (b1 + 2 * b2 + 2 * b3 + b4)
            th_g += dt / 6.0 * (c1 + 2 * c2 + 2 * c3 + c4)
            w_g += dt / 6.0 * (e1 + 2 * e2 + 2 * e3 + e4)
            delta[i + 1] = th_v - th_g
            dw[i + 1] = w_v - w_g
        state = th_v, w_v, th_g, w_g
        return th_v - th_g, w_v - w_g

    return _trajectory(vsg, sg, load, base, scenario, dt, step)


# Lanes step through a chunk buffer of at most _LANE_BYTES and _LANE_STEPS
# steps; the loss rule and the settle test run once per chunk.
_LANE_BYTES = 1 << 20
_LANE_STEPS = 32


def _rk4_lanes(model: RelativeSwingModel, buf: np.ndarray, m: int, dt: float,
               work: np.ndarray) -> None:
    """Classical RK4 on stacked lanes: writes buf[i + 1] from buf[i] for i < m.

    buf has shape (m + 1, 2, lanes), angles in row 0 and speeds in row 1;
    work is scratch for 13 * lanes floats.  Each stage update and the final
    combination cover both rows in one ufunc call into reused buffers, and
    every expression keeps _rk4's operand order, so each lane equals a
    per-lane numpy loop bit for bit.
    """
    n = buf.shape[2]
    pref, pmax, damp = model.power_ref, model.power_max, model.damping
    h2, om = 2.0 * model.inertia, model.omega_ref
    half, sixth = 0.5 * dt, dt / 6.0
    k1, k2, k3, k4, y = work[:10 * n].reshape(5, 2, n)
    t1, t2, t3 = work[10 * n:13 * n].reshape(3, n)
    add, mul, sub, div, sin = np.add, np.multiply, np.subtract, np.divide, np.sin

    def slope(d, w, kd, kw):
        mul(om, w, kd)
        mul(pmax, sin(d, t1), t2)
        sub(pref, t2, t1)
        sub(t1, mul(damp, w, t2), t3)
        div(t3, h2, kw)

    # Row views are made once: a view costs about as much as a ufunc call on few lanes.
    rows = [(b, b[0], b[1]) for b in buf[:m + 1]]
    (k1d, k1w), (k2d, k2w), (k3d, k3w), (k4d, k4w), (yd, yw) = k1, k2, k3, k4, y
    for i in range(m):
        x, xd, xw = rows[i]
        slope(xd, xw, k1d, k1w)
        add(x, mul(half, k1, y), y)
        slope(yd, yw, k2d, k2w)
        add(x, mul(half, k2, y), y)
        slope(yd, yw, k3d, k3w)
        add(x, mul(dt, k3, y), y)
        slope(yd, yw, k4d, k4w)
        add(k1, mul(2.0, k2, k2), k1)
        add(k1, mul(2.0, k3, k3), k1)
        add(k1, k4, k1)
        add(x, mul(sixth, k1, k1), rows[i + 1][0])


def simulate_ensemble(
    model: RelativeSwingModel,
    delta0: np.ndarray,
    dw0: np.ndarray,
    dt: float,
    t_max: float,
    settled: Callable[[np.ndarray, np.ndarray, int], np.ndarray] | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Integrate many initial states under one fixed model, vectorised.

    Returns (los_times, delta_final, dw_final), each in the shape of delta0.
    los entries are nan where the state never crossed an unstable angle, and
    those lanes end at t_max.  A lane is retired at the sample that flags its
    loss: its final state is its state at its loss time, and it is integrated
    no further.  Runs are independent, so batching them through numpy is just
    a scheduling choice, and the run stops once every lane is retired.

    settled(delta, dw, steps_left), if given, is called on the live lanes
    after every chunk of steps that leaves steps to take.  It returns a mask
    of lanes proven never to be lost and to end inside the caller's band at
    t_max (region's contraction certificate).  Those lanes retire at once:
    their los entry is inf and their final state nan, since they have none
    at t_max.  Without settled every lane runs to its loss or to t_max, and
    the outputs equal a per-step loop's bit for bit.
    """
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    d0 = np.asarray(delta0, dtype=float)
    w0 = np.asarray(dw0, dtype=float)
    if d0.shape != w0.shape:
        raise ValueError("delta0 and dw0 must have the same shape")
    shape = d0.shape
    y = np.stack((d0.ravel(), w0.ravel()))
    upper, lower = _los_thresholds(find_equilibria(model), y[0])
    n_steps = int(round(t_max / dt))
    los = np.full(d0.size, np.nan)
    d_end, w_end = np.full(d0.size, np.nan), np.full(d0.size, np.nan)
    lanes = np.arange(d0.size)
    chunk = max(1, min(_LANE_STEPS, _LANE_BYTES // (16 * max(d0.size, 1)) - 1))
    store, work = np.empty((chunk + 1) * 2 * d0.size), np.empty(13 * d0.size)
    done = 0
    while done < n_steps and lanes.size:
        m = min(chunk, n_steps - done)
        buf = store[:(m + 1) * 2 * lanes.size].reshape(m + 1, 2, lanes.size)
        buf[0] = y
        _rk4_lanes(model, buf, m, dt, work)
        seg = buf[1:]
        crossed = _lost(seg[:, 0], seg[:, 1], upper, lower)
        out = crossed.any(axis=0)
        if out.any():
            cols = np.flatnonzero(out)
            first = crossed[:, cols].argmax(axis=0)
            gone = lanes[cols]
            los[gone] = (done + 1 + first) * dt
            d_end[gone], w_end[gone] = seg[first, 0, cols], seg[first, 1, cols]
        done += m
        y = buf[m]
        if settled is not None and done < n_steps:
            proven = settled(y[0], y[1], n_steps - done) & ~out
            los[lanes[proven]] = math.inf
            out |= proven
        if out.any():
            keep = ~out
            lanes, y = lanes[keep], y[:, keep]
            if np.ndim(upper):
                upper, lower = upper[keep], lower[keep]
    d_end[lanes], w_end[lanes] = y
    return los.reshape(shape), d_end.reshape(shape), w_end.reshape(shape)
