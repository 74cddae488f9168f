"""
Stability region of a fixed reduced model on the (delta, dw) plane.

The boundary of the basin around the stable angle is the stable manifold of
the neighbouring saddle points.  It is traced by integrating the dynamics in
negated time from small offsets along each saddle's contracting eigendirection
(which the reversed flow expands), one pair of seeds per saddle.  For an
undamped model the traced boundary coincides with the level set of the energy
function through the saddle; with damping it spirals and the grid classifier
below is the ground truth.

The grid of a damped model labels a cell stable when its run never crosses
an unstable angle within t_max and ends inside the band |delta - sep| <
ANGLE_BAND, |dw| < SPEED_BAND.  A damped run that settles is retired before
t_max once a quadratic Lyapunov certificate (Khalil, Nonlinear Systems, 3rd
ed., 2002, sections 4.3 and 8.2) proves both, so its label is the full run's.
An undamped run conserves its energy and never settles, so the grid of an
undamped model labels on crossings alone.

Scaled coordinates.  With w_n**2 = omega_ref*power_max*cos(sep)/2H,
s = omega_ref/w_n, x = delta - sep and u = s*dw, the dynamics read

    x' = w_n*u,    u' = -w_n*x - b*u - c*r(x),

where b = D/2H, c = s*power_max/2H and r(x) = sin(sep + x) - sin(sep)
- x*cos(sep).  Since r''(t) = -sin(sep + t) and |sin(sep + t)| <=
|sin(sep)| + |t|, |r(x)| <= |sin(sep)|*x**2/2 + |x|**3/6, and |r(x)| <=
x**2/2 holds too, so |r(x)| <= g(x_lin)*|x| wherever |x| <= x_lin, with
g(x_lin) = min(x_lin/2, |sin(sep)|*x_lin/2 + x_lin**2/6).  A_s, the
linearisation at sep, is the saddle Jacobian's formula at sep in these
coordinates.  Unscaled, its entry omega_ref (about 314) leaves P so
lopsided that the set below shrinks to a few milliradians; scaled, both
off-diagonal entries are w_n.

Lyapunov function.  For a decay rate alpha below the slowest linear one, P
solves (A_s + alpha*I)^T P + P (A_s + alpha*I) = -I, and q = z^T P z for
z = (x, u).  Along the flow

    q' = -2*alpha*q - |z|**2 - 2*c*r(x)*(Pz)_2 <= -2*alpha*q - (1 - kappa)*|z|**2

wherever |x| <= x_lin, with kappa = 2*|P e_2|*c*g(x_lin).  x_lin makes kappa
0.9, capped at half the distance to the nearer saddle and where R reaches
lambda_min(P); at a cap kappa is smaller and the bound still holds.  The
set q <= R, with R = x_lin**2/(P^-1)_11, lies within |x| <= x_lin and, by
the second cap, within |z| <= 1, so on it q decays at the rate
mu = 2*alpha + (1 - kappa)/lambda_max(P) or faster: the set is invariant,
and a run inside it never reaches a saddle.  Near sep = 0 the cubic term
rules g: on the bench's default windows R is 2 to 87 times what x**2/2
alone gives, the most where |sep| is smallest.

RK4 and rounding.  The grid runs RK4's step map, not the flow.  Its local
error is O(dt**5): fifth-order elementary differentials of the vector field,
which vanish at sep and are bounded by L**5*|z| with L = ||A_s||_2 + 2c
(every higher derivative of the field is at most c).  Taking 10*(dt*L)**5 as
the error of one step per unit |z|, one step from the set obeys, in the
P-norm,

    ||z'||_P <= rho*||z||_P + eps,    rho = exp(-mu*dt/2) + eta,

with eta = sqrt(cond P)*(10*(dt*L)**5 + 16*u_mach) for the relative error and
eps = sqrt(lambda_max(P))*16*u_mach*(|sep| + x_lin + s*dt*(|P_ref| +
power_max)/2H) for the absolute rounding of a step.  A certificate is on
only where dt*L <= 0.1, eta is at most a tenth of the flow's decay per step
and eps/(1 - rho) <= 0.05*sqrt(min(R, c_band)).  At the CLI's dt of 1e-3 on
the bench's models, eta is 1e-10 to 3e-9 against a decay near 7e-5 per step:
an error constant a thousand times larger would still pass.

Retiring.  c_band = min(ANGLE_BAND**2/(P^-1)_11, (s*SPEED_BAND)**2/(P^-1)_22)
is the largest P-ellipse inside the band.  After a chunk of steps, a lane
with n steps left is proven when q <= R and q*rho**(2n) <= 0.8*c_band.  Its
P-norm at t_max is then at most sqrt(0.8*c_band) + 0.05*sqrt(c_band), inside
the band, and it never crosses a saddle, so the full run labels it stable
too.  A larger alpha decays faster but leaves P more lopsided and R
smaller, so one certificate is built for each alpha in _ALPHA_SHARES times
the slowest linear decay rate, and a lane retires when any of them proves
it: each is sound alone, so their union is.  Undamped models (no P exists)
and steps outside the bound of every member run every lane to its loss or
to t_max.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .machine import ModelError, RelativeSwingModel
from .equilibrium import Equilibria, find_equilibria
from .simulate import _rk4, simulate_ensemble, step_count

DEFAULT_SEED_OFFSET = 1e-4
# A damped model's stable cells end within these of the stable angle and of rest.
ANGLE_BAND = 0.05
SPEED_BAND = 1e-4

# trace_boundary stops a branch ANGLE_SPAN from the stable angle, past
# DW_CAP or after BOUNDARY_T_MAX seconds, and keeps every STORE_EVERY-th step
# of it.
BOUNDARY_T_MAX = 100.0
ANGLE_SPAN = 4.0 * math.pi
DW_CAP = 1.0
STORE_EVERY = 5

# The certificate's constants (see the module docstring).
_KAPPA = 0.9         # share of the quadratic decay the sine's remainder may take
_BAND_MARGIN = 0.8   # a retired lane's bound must land within 0.8 of c_band
_ALPHA_SHARES = (0.4, 0.5, 0.6, 0.8)  # each member's alpha over the slowest linear decay
_U_MACH = 2.0 ** -52


@dataclass
class RegionBoundary:
    """Stable-manifold approximation bounding the region.

    branches holds one (n, 2) polyline of (delta, dw) points per seed, starting
    within DEFAULT_SEED_OFFSET of a saddle: the first two at the model's
    uep_forward, the last two at its uep_backward.
    """

    branches: list[np.ndarray]


@dataclass
class RegionGrid:
    """Grid classification of initial conditions under one fixed model."""

    delta_axis: np.ndarray
    dw_axis: np.ndarray
    stable: np.ndarray  # bool, shape (len(delta_axis), len(dw_axis))
    area_estimate: float


def _saddle_jacobian(model: RelativeSwingModel, angle: float) -> np.ndarray:
    """Linearisation of the reduced dynamics in (delta, dw) at an equilibrium angle."""
    return np.array(
        [
            [0.0, model.omega_ref],
            [-model.power_max * math.cos(angle) / (2.0 * model.inertia),
             -model.damping / (2.0 * model.inertia)],
        ]
    )


def _contracting_direction(model: RelativeSwingModel, uep: float) -> np.ndarray:
    eigvals, eigvecs = np.linalg.eig(_saddle_jacobian(model, uep))
    idx = int(np.argmin(eigvals.real))
    if eigvals[idx].real >= 0 or abs(eigvals[idx].imag) > 1e-12:
        raise ModelError(f"angle {uep} is not a saddle of the model")
    vec = eigvecs[:, idx].real
    return vec / np.linalg.norm(vec)


def trace_boundary(model: RelativeSwingModel, dt: float) -> RegionBoundary:
    """Trace the region boundary by negated-time integration from the saddles.

    Each branch stops once the angle wanders ANGLE_SPAN from the stable angle,
    the speed exceeds DW_CAP, or BOUNDARY_T_MAX elapses (damped manifolds
    spiral and must be truncated).
    """
    eq = find_equilibria(model)
    if not eq.exists:
        raise ModelError("no stable equilibrium; the stability region is undefined")
    n_steps = step_count(BOUNDARY_T_MAX, dt)
    # Steps run in chunks into a small buffer and the stop test scans each
    # chunk, so a branch integrates at most one chunk past its last point.
    chunk = 64
    buf_d, buf_w = np.empty(chunk + 1), np.empty(chunk + 1)

    branches: list[np.ndarray] = []
    for uep in (eq.uep_forward, eq.uep_backward):
        direction = _contracting_direction(model, uep)
        for sign in (1.0, -1.0):
            d = float(uep + sign * DEFAULT_SEED_OFFSET * direction[0])
            w = float(sign * DEFAULT_SEED_OFFSET * direction[1])
            points_d, points_w = [d], [w]
            done = 0
            while done < n_steps:
                m = min(chunk, n_steps - done)
                _rk4(model, d, w, -dt, buf_d, buf_w, 0, m)
                out = np.flatnonzero(
                    (np.abs(buf_d[1:m + 1] - eq.sep) > ANGLE_SPAN)
                    | (np.abs(buf_w[1:m + 1]) > DW_CAP)
                )
                if out.size:
                    m = int(out[0]) + 1
                # Keep every STORE_EVERY-th step of the branch, counted from its seed.
                first = 1 + (-done - 1) % STORE_EVERY
                points_d.extend(buf_d[first:m + 1:STORE_EVERY].tolist())
                points_w.extend(buf_w[first:m + 1:STORE_EVERY].tolist())
                d, w = float(buf_d[m]), float(buf_w[m])
                done += m
                if out.size:
                    break
            points_d.append(d)
            points_w.append(w)
            branches.append(np.column_stack((points_d, points_w)))
    return RegionBoundary(branches)


def _remainder_slope(sep: float, x_lin: float) -> float:
    """g(x_lin): |r(x)| <= g(x_lin)*|x| wherever |x| <= x_lin (module docstring)."""
    return min(0.5 * x_lin, 0.5 * abs(math.sin(sep)) * x_lin + x_lin ** 2 / 6.0)


def _certificate_member(
    model: RelativeSwingModel,
    eq: Equilibria,
    dt: float,
    share: float,
) -> Callable[[np.ndarray, np.ndarray, int], np.ndarray] | None:
    """One member of the union: alpha is share times the slowest linear decay rate.

    The model must be damped.  The returned settled carries the member's P
    (scaled coordinates), R and mu as its attributes p, level and mu.
    """
    jac = _saddle_jacobian(model, eq.sep)
    w_n = math.sqrt(-jac[0, 1] * jac[1, 0])
    scale = model.omega_ref / w_n
    a_s = jac * np.array([[1.0, 1.0 / scale], [scale, 1.0]])
    alpha = -share * float(np.linalg.eigvals(a_s).real.max())
    b_t, eye = (a_s + alpha * np.eye(2)).T, np.eye(2)
    p = np.linalg.solve(np.kron(b_t, eye) + np.kron(eye, b_t), -eye.ravel()).reshape(2, 2)
    p11, p12, p22 = float(p[0, 0]), 0.5 * float(p[0, 1] + p[1, 0]), float(p[1, 1])
    p = np.array([[p11, p12], [p12, p22]])
    lam_lo, lam_hi = np.linalg.eigvalsh(p)
    det = p11 * p22 - p12 * p12
    gain = scale * model.power_max / (2.0 * model.inertia)
    lip = float(np.linalg.norm(a_s, 2)) + 2.0 * gain
    if not (0 < dt * lip <= 0.1 and 0 < lam_lo):
        return None
    # x_lin solves kappa = 2*|P e_2|*gain*g(x_lin) = _KAPPA on either branch of
    # g, then takes the saddle cap and the cap that keeps R <= lambda_min(P).
    pe2, half_sin = 2.0 * math.hypot(p12, p22) * gain, 0.5 * abs(math.sin(eq.sep))
    g = _KAPPA / pe2
    x_lin = min(max(2.0 * g, 2.0 * g / (math.sqrt(half_sin ** 2 + 2.0 * g / 3.0) + half_sin)),
                0.5 * min(eq.uep_forward - eq.sep, eq.sep - eq.uep_backward),
                math.sqrt(lam_lo * p22 / det))
    kappa = pe2 * _remainder_slope(eq.sep, x_lin)
    level = min(x_lin ** 2 * det / p22, lam_lo)  # R: (P^-1)_11 = p22/det
    mu = 2.0 * alpha + (1.0 - kappa) / lam_hi
    c_band = min(ANGLE_BAND ** 2 * det / p22, (scale * SPEED_BAND) ** 2 * det / p11)
    eta = math.sqrt(lam_hi / lam_lo) * (10.0 * (dt * lip) ** 5 + 16.0 * _U_MACH)
    rho = math.exp(-0.5 * mu * dt) + eta
    eps = math.sqrt(lam_hi) * 16.0 * _U_MACH * (
        abs(eq.sep) + x_lin
        + scale * dt * (abs(model.power_ref) + model.power_max) / (2.0 * model.inertia))
    if not (eta <= -0.1 * math.expm1(-0.5 * mu * dt)
            and eps <= 0.05 * (1.0 - rho) * math.sqrt(min(level, c_band))):
        return None
    sep, log_rho2 = eq.sep, 2.0 * math.log(rho)
    target = _BAND_MARGIN * c_band
    cap = math.log(level / target)

    def settled(delta: np.ndarray, dw: np.ndarray, steps_left: int) -> np.ndarray:
        x, u = delta - sep, scale * dw
        q = (p11 * x + 2.0 * p12 * u) * x + p22 * u * u
        return q <= min(level, target * math.exp(min(-steps_left * log_rho2, cap)))

    settled.p, settled.level, settled.mu = p, level, mu  # for tests of the decay bound
    return settled


def _band_certificate(
    model: RelativeSwingModel,
    eq: Equilibria,
    dt: float,
) -> Callable[[np.ndarray, np.ndarray, int], np.ndarray] | None:
    """settled(delta, dw, steps_left) for simulate_ensemble; None where every member is off.

    Every member is off for an undamped model.  settled marks the lanes that
    some member of the module docstring's union proves never lost and inside
    the band at t_max, steps_left RK4 steps of dt on.
    """
    if model.damping <= 0:
        return None
    members = [m for m in (_certificate_member(model, eq, dt, share)
                           for share in _ALPHA_SHARES) if m is not None]
    if not members:
        return None

    def settled(delta: np.ndarray, dw: np.ndarray, steps_left: int) -> np.ndarray:
        proven = members[0](delta, dw, steps_left)
        for member in members[1:]:
            proven |= member(delta, dw, steps_left)
        return proven

    return settled


def classify_grid(
    model: RelativeSwingModel,
    delta_range: tuple[float, float],
    dw_range: tuple[float, float],
    n_delta: int,
    n_dw: int,
    t_max: float,
    dt: float,
) -> RegionGrid:
    """Label every grid point stable or unstable by direct simulation.

    A cell is stable when it never crosses an unstable angle within t_max
    and, for a damped model, ends inside the band of ANGLE_BAND and
    SPEED_BAND around the stable angle; an undamped model never settles, so
    its cells are labelled on crossings alone.  Damped runs stop once the
    module docstring's certificate proves the label, which is then the one
    the run to t_max would give.
    """
    eq = find_equilibria(model)
    if not eq.exists:
        raise ModelError("no stable equilibrium; the stability region is undefined")
    if n_delta < 2 or n_dw < 2:
        raise ValueError("grid needs at least 2 points per axis")
    delta_axis = np.linspace(delta_range[0], delta_range[1], n_delta)
    dw_axis = np.linspace(dw_range[0], dw_range[1], n_dw)
    dd, ww = np.meshgrid(delta_axis, dw_axis, indexing="ij")
    settled = _band_certificate(model, eq, dt)
    los, d_end, w_end = simulate_ensemble(model, dd.ravel(), ww.ravel(), dt, t_max, settled)
    stable = np.isnan(los)
    if model.damping > 0:
        stable &= np.abs(d_end - eq.sep) < ANGLE_BAND
        stable &= np.abs(w_end) < SPEED_BAND
        stable |= np.isposinf(los)
    stable = stable.reshape(dd.shape)
    cell = (delta_axis[1] - delta_axis[0]) * (dw_axis[1] - dw_axis[0])
    return RegionGrid(delta_axis, dw_axis, stable, cell * int(stable.sum()))
