"""
Stability region of a fixed reduced model on the (delta, dw) plane.

The boundary of the basin around the stable angle is the stable manifold of
the neighbouring saddle points.  It is traced by integrating the dynamics in
negated time from small offsets along each saddle's contracting eigendirection
(which the reversed flow expands), one pair of seeds per saddle.  For an
undamped model the traced boundary coincides with the level set of the energy
function through the saddle; with damping it spirals and the grid classifier
below is the ground truth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .machine import ModelError, RelativeSwingModel
from .equilibrium import find_equilibria
from .simulate import _rk4, simulate_ensemble

DEFAULT_SEED_OFFSET = 1e-4
DEFAULT_ANGLE_BAND = 0.05
DEFAULT_SPEED_BAND = 1e-4


@dataclass
class RegionBoundary:
    """Stable-manifold approximation bounding the region.

    branches holds one (n, 2) polyline of (delta, dw) points per seed, starting
    within seed_offset of a saddle.
    """

    branches: list[np.ndarray]
    sep: float
    uep_forward: float
    uep_backward: float
    model: RelativeSwingModel


@dataclass
class RegionGrid:
    """Grid classification of initial conditions under one fixed model."""

    delta_axis: np.ndarray
    dw_axis: np.ndarray
    stable: np.ndarray  # bool, shape (len(delta_axis), len(dw_axis))
    area_estimate: float


def saddle_jacobian(model: RelativeSwingModel, uep: float) -> np.ndarray:
    """Linearisation of the reduced dynamics at an unstable angle."""
    return np.array(
        [
            [0.0, model.omega_ref],
            [-model.power_max * math.cos(uep) / (2.0 * model.inertia),
             -model.damping / (2.0 * model.inertia)],
        ]
    )


def _contracting_direction(model: RelativeSwingModel, uep: float) -> np.ndarray:
    eigvals, eigvecs = np.linalg.eig(saddle_jacobian(model, uep))
    idx = int(np.argmin(eigvals.real))
    if eigvals[idx].real >= 0 or abs(eigvals[idx].imag) > 1e-12:
        raise ModelError(f"angle {uep} is not a saddle of the model")
    vec = eigvecs[:, idx].real
    return vec / np.linalg.norm(vec)


def trace_boundary(
    model: RelativeSwingModel,
    seed_offset: float = DEFAULT_SEED_OFFSET,
    dt: float = 1e-3,
    t_max: float = 100.0,
    angle_span: float = 4.0 * math.pi,
    dw_cap: float = 1.0,
    store_every: int = 5,
) -> RegionBoundary:
    """Trace the region boundary by negated-time integration from the saddles.

    Each branch stops once the angle wanders angle_span from the stable angle,
    the speed exceeds dw_cap, or t_max elapses (damped manifolds spiral and
    must be truncated).
    """
    eq = find_equilibria(model)
    if not eq.exists:
        raise ModelError("no stable equilibrium; the stability region is undefined")
    if store_every < 1:
        raise ValueError(f"store_every must be at least 1, got {store_every}")
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    n_steps = int(round(t_max / dt))
    # Steps run in chunks into a small buffer and the stop test scans each
    # chunk, so a branch integrates at most one chunk past its last point.
    chunk = 64
    buf_d, buf_w = np.empty(chunk + 1), np.empty(chunk + 1)

    branches: list[np.ndarray] = []
    for uep in (eq.uep_forward, eq.uep_backward):
        direction = _contracting_direction(model, uep)
        for sign in (1.0, -1.0):
            d = float(uep + sign * seed_offset * direction[0])
            w = float(sign * seed_offset * direction[1])
            points_d, points_w = [d], [w]
            done = 0
            while done < n_steps:
                m = min(chunk, n_steps - done)
                _rk4(model, d, w, -dt, buf_d, buf_w, 0, m)
                out = np.flatnonzero(
                    (np.abs(buf_d[1:m + 1] - eq.sep) > angle_span)
                    | (np.abs(buf_w[1:m + 1]) > dw_cap)
                )
                if out.size:
                    m = int(out[0]) + 1
                # Keep every store_every-th step of the branch, counted from its seed.
                first = 1 + (-done - 1) % store_every
                points_d.extend(buf_d[first:m + 1:store_every].tolist())
                points_w.extend(buf_w[first:m + 1:store_every].tolist())
                d, w = float(buf_d[m]), float(buf_w[m])
                done += m
                if out.size:
                    break
            points_d.append(d)
            points_w.append(w)
            branches.append(np.column_stack((points_d, points_w)))
    return RegionBoundary(branches, eq.sep, eq.uep_forward, eq.uep_backward, model)


def classify_grid(
    model: RelativeSwingModel,
    delta_range: tuple[float, float],
    dw_range: tuple[float, float],
    n_delta: int,
    n_dw: int,
    t_max: float = 60.0,
    dt: float = 1e-3,
    angle_band: float = DEFAULT_ANGLE_BAND,
    speed_band: float = DEFAULT_SPEED_BAND,
) -> RegionGrid:
    """Label every grid point stable or unstable by direct simulation.

    A cell is stable when it never crosses an unstable angle within t_max and
    ends inside the convergence band around the stable angle.  The bands are
    tuned for damped models; undamped grids should label on crossings alone
    (set the bands to inf).
    """
    eq = find_equilibria(model)
    if not eq.exists:
        raise ModelError("no stable equilibrium; the stability region is undefined")
    if n_delta < 2 or n_dw < 2:
        raise ValueError("grid needs at least 2 points per axis")
    delta_axis = np.linspace(delta_range[0], delta_range[1], n_delta)
    dw_axis = np.linspace(dw_range[0], dw_range[1], n_dw)
    dd, ww = np.meshgrid(delta_axis, dw_axis, indexing="ij")
    los, d_end, w_end = simulate_ensemble(model, dd.ravel(), ww.ravel(), dt, t_max)
    stable = np.isnan(los)
    stable &= np.abs(d_end - eq.sep) < angle_band
    stable &= np.abs(w_end) < speed_band
    stable = stable.reshape(dd.shape)
    cell = (delta_axis[1] - delta_axis[0]) * (dw_axis[1] - dw_axis[0])
    return RegionGrid(delta_axis, dw_axis, stable, cell * int(stable.sum()))
