"""Deterministic signal propagation for a fixed satellite position.

Channel gain and propagation delay depend on the central angle alone and
are strictly monotone on it, so both carry closed-form inverses. The
Doppler shift additionally depends on the satellite's travel direction:
ascending (+1) and descending (-1) passes project differently onto the
user-satellite line. Positive Doppler means an approaching satellite.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError
from .geometry import (
    ShellConfig,
    UserGeometry,
    clamp_unit,
    slant_range,
)
from .nbpp import SatellitePoint
from .visibility import arc_halfwidth_clamped

_GRACE = 1e-12
# points per axis of the dense grid that seeds the max_doppler search
_MAX_DOPPLER_GRID = 1001


def gain(shell: ShellConfig, sigma):
    """Channel gain 1/||d||^2 (inverse free-space path loss), 1/m^2."""
    sigma_arr = np.asarray(sigma, dtype=float)
    if np.any(sigma_arr < -_GRACE) or np.any(sigma_arr > np.pi + _GRACE):
        raise DomainError("central angle outside [0, pi]")
    d = slant_range(shell, sigma_arr)
    out = 1.0 / (d * d)
    return float(out) if out.ndim == 0 else out


def gain_inverse(shell: ShellConfig, g):
    """Central angle with gain g; DomainError outside the reachable range."""
    g = np.asarray(g, dtype=float)
    if np.any(g <= 0.0):
        raise DomainError("gain must be positive")
    r, big_r = shell.earth_radius_m, shell.shell_radius_m
    arg = (g * (r * r + big_r * big_r) - 1.0) / (2.0 * g * r * big_r)
    # the clamp's grace band must scale with the argument's distance from 1,
    # which for gains near 1/h^2 is dominated by relative error in g
    out = np.arccos(clamp_unit(arg, grace=1e-9))
    return float(out) if out.ndim == 0 else out


def delay(shell: ShellConfig, sigma):
    """Propagation delay ||d||/c in seconds."""
    sigma_arr = np.asarray(sigma, dtype=float)
    if np.any(sigma_arr < -_GRACE) or np.any(sigma_arr > np.pi + _GRACE):
        raise DomainError("central angle outside [0, pi]")
    out = slant_range(shell, sigma_arr) / shell.light_speed_mps
    return float(out) if out.ndim == 0 else out


def delay_inverse(shell: ShellConfig, tau):
    """Central angle with delay tau; DomainError outside the reachable range."""
    tau = np.asarray(tau, dtype=float)
    r, big_r, c = shell.earth_radius_m, shell.shell_radius_m, shell.light_speed_mps
    arg = (r * r + big_r * big_r - (c * tau) ** 2) / (2.0 * r * big_r)
    out = np.arccos(clamp_unit(arg, grace=1e-9))
    return float(out) if out.ndim == 0 else out


def direction_angle(shell: ShellConfig, phi, mark):
    """Travel direction vs the local east tangent; sign follows the mark."""
    phi_arr = np.asarray(phi, dtype=float)
    b_bar = shell.polar_inclination_rad
    if np.any(phi_arr < b_bar - _GRACE) or np.any(phi_arr > np.pi - b_bar + _GRACE):
        raise DomainError("polar angle outside the inclination band")
    arg = clamp_unit(math.cos(shell.inclination_rad) / np.sin(phi_arr))
    out = np.asarray(mark) * np.arccos(arg)
    return float(out) if out.ndim == 0 else out


def _radial_speed(shell: ShellConfig, user: UserGeometry, theta, phi, mark):
    """Speed of approach along the satellite-to-user line, m/s (vectorised).

    Equals minus the slant-range rate; positive while the satellite closes
    in. No band validation here: hot path for grids and Monte Carlo.
    """
    phi_u = user.user_polar_rad
    b = shell.inclination_rad
    sin_phi = np.sin(phi)
    beta = np.asarray(mark) * np.arccos(np.clip(math.cos(b) / sin_phi, -1.0, 1.0))
    cos_sigma = (math.cos(phi_u) * np.cos(phi)
                 + math.sin(phi_u) * sin_phi * np.sin(theta))
    r, big_r = shell.earth_radius_m, shell.shell_radius_m
    dist = np.sqrt(r * r + big_r * big_r - 2.0 * r * big_r * np.clip(cos_sigma, -1.0, 1.0))
    range_rate = (-np.cos(beta) * np.cos(theta) * math.sin(phi_u)
                  - np.sin(beta) * (sin_phi * math.cos(phi_u)
                                    - np.cos(phi) * np.sin(theta) * math.sin(phi_u)))
    return -shell.sat_speed_mps * r / dist * range_rate


def doppler_normalized(shell: ShellConfig, user: UserGeometry,
                       sat: SatellitePoint) -> float:
    """Doppler as an approach speed in m/s (carrier-independent)."""
    direction_angle(shell, sat.phi_rad, sat.mark)  # band validation
    return float(_radial_speed(shell, user, sat.theta_rad, sat.phi_rad, sat.mark))


def doppler(shell: ShellConfig, user: UserGeometry, sat: SatellitePoint) -> float:
    """Doppler shift in Hz; positive for an approaching satellite."""
    return doppler_normalized(shell, user, sat) * shell.carrier_hz / shell.light_speed_mps


def doppler_hz_arrays(shell: ShellConfig, user: UserGeometry, theta, phi, mark):
    """Vectorised Doppler in Hz over arrays of satellite coordinates."""
    scale = shell.carrier_hz / shell.light_speed_mps
    return scale * _radial_speed(shell, user, theta, phi, mark)


def _golden_max(f, lo: float, hi: float, tol: float) -> tuple[float, float]:
    """Golden-section maximum of a scalar function on [lo, hi]."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    xs = [(a, f(a)), (c, fc), (d, fd), (b, f(b))]
    return max(xs, key=lambda p: p[1])


def max_doppler(shell: ShellConfig, user: UserGeometry,
                refine_tol_hz: float = 1.0) -> float:
    """Largest Doppler magnitude over the visible cap.

    Dense grid over the cap bounding box (infeasible points masked),
    then nested golden-section refinement: the inner search runs over the
    exact feasible azimuth interval at each polar angle, so boundary
    maxima are handled exactly.
    """
    b_bar = shell.polar_inclination_rad
    sigma1 = user.sigma_max_rad
    phi_lo = max(b_bar, user.user_polar_rad - sigma1)
    phi_hi = min(math.pi - b_bar, user.user_polar_rad + sigma1)
    theta_u = user.user_azimuth_rad

    phi = np.linspace(phi_lo, phi_hi, _MAX_DOPPLER_GRID)
    half = arc_halfwidth_clamped(user, phi, sigma1)
    w_max = float(np.max(half))
    theta = np.linspace(theta_u - w_max, theta_u + w_max, _MAX_DOPPLER_GRID)
    tt, pp = np.meshgrid(theta, phi)
    feasible = np.abs(tt - theta_u) <= half[:, None]

    scale = shell.carrier_hz / shell.light_speed_mps
    d_phi = 2.0 * (phi_hi - phi_lo) / (_MAX_DOPPLER_GRID - 1)
    best = -math.inf
    for mark in (1, -1):
        v = scale * _radial_speed(shell, user, tt, pp, mark)
        v = np.where(feasible, v, -np.inf)
        idx = np.unravel_index(np.argmax(v), v.shape)
        grid_best = float(v[idx])
        best = max(best, grid_best)

        # golden in phi around the grid argmax; per phi, golden in theta
        # over the exact feasible interval, so boundary maxima are found
        lo = max(phi_lo, float(pp[idx]) - d_phi)
        hi = min(phi_hi, float(pp[idx]) + d_phi)
        # curvature scale ~ nu_max per rad^2: tol_x ~ sqrt(tol_hz / nu_scale)
        tol_x = math.sqrt(refine_tol_hz / max(abs(grid_best), 1.0)) * 1e-2

        def best_over_theta(p: float) -> float:
            h = float(arc_halfwidth_clamped(user, p, sigma1))
            if h <= 0.0:
                return -math.inf
            f = lambda t: float(scale * _radial_speed(shell, user, t, p, mark))
            return _golden_max(f, theta_u - h, theta_u + h, tol_x)[1]

        _, refined = _golden_max(best_over_theta, lo, hi, tol_x)
        best = max(best, refined)
    return best
