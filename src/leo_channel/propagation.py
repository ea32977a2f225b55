"""Deterministic signal propagation for a fixed satellite position.

Channel gain and propagation delay depend on the central angle alone and
are strictly monotone on it, so both carry closed-form inverses. The
Doppler shift additionally depends on the satellite's travel direction:
ascending (+1) and descending (-1) passes project differently onto the
user-satellite line. Positive Doppler means an approaching satellite.
_doppler_hz alone builds the Doppler shift in Hz and the cos-sigma range
law for every caller. max_doppler searches the in-band arc of the cap's
rim by the fraction of that arc (geometry.ring_bearings), where the
largest Doppler magnitude lies.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError
from .geometry import (_CLAMP_GRACE, ShellConfig, UserGeometry, ring_bearings,
                       sigma_from_range2, slant_range)

# max_doppler: points of its seed grid and of each zoom grid, and the
# distance below the maximum it stops at
_MAX_DOPPLER_GRID = 257
_ZOOM = 9
_MAX_DOPPLER_TOL_HZ = 1.0


def gain(shell: ShellConfig, sigma):
    """Channel gain 1/||d||^2 (inverse free-space path loss), 1/m^2."""
    sigma_arr = np.asarray(sigma, dtype=float)
    if np.any(sigma_arr < -_CLAMP_GRACE) or np.any(sigma_arr > np.pi + _CLAMP_GRACE):
        raise DomainError("central angle outside [0, pi]")
    d = slant_range(shell, sigma_arr)
    out = 1.0 / (d * d)
    return float(out) if out.ndim == 0 else out


def gain_inverse(shell: ShellConfig, g):
    """Central angle with gain g; DomainError outside the reachable range."""
    g = np.asarray(g, dtype=float)
    if np.any(g <= 0.0):
        raise DomainError("gain must be positive")
    out = sigma_from_range2(shell, 1.0 / g)
    return float(out) if out.ndim == 0 else out


def delay(shell: ShellConfig, sigma):
    """Propagation delay ||d||/c in seconds."""
    sigma_arr = np.asarray(sigma, dtype=float)
    if np.any(sigma_arr < -_CLAMP_GRACE) or np.any(sigma_arr > np.pi + _CLAMP_GRACE):
        raise DomainError("central angle outside [0, pi]")
    out = slant_range(shell, sigma_arr) / shell.light_speed_mps
    return float(out) if out.ndim == 0 else out


def delay_inverse(shell: ShellConfig, tau):
    """Central angle with delay tau; DomainError outside the reachable range."""
    d = shell.light_speed_mps * np.asarray(tau, dtype=float)
    out = sigma_from_range2(shell, d * d)
    return float(out) if out.ndim == 0 else out


def _doppler_hz(shell: ShellConfig, user: UserGeometry, sin_t, cos_t, phi, mark):
    """Doppler shift in Hz (positive while closing in), cos(sigma) and the
    squared range r^2 + R^2 - 2 r R cos(sigma), vectorised, at polar angle
    phi and the azimuth with sine sin_t and cosine cos_t. Factors of phi
    alone, such as the travel direction, take phi's shape: once per row
    where phi is a column. No band validation: hot path."""
    cu, su = math.cos(user.user_polar_rad), math.sin(user.user_polar_rad)
    sin_phi, cos_phi = np.sin(phi), np.cos(phi)
    # travel direction beta against local east; its sign follows the mark
    cos_beta = np.clip(math.cos(shell.inclination_rad) / sin_phi, -1.0, 1.0)
    sin_beta = np.asarray(mark) * np.sqrt((1.0 - cos_beta) * (1.0 + cos_beta))
    r, big_r = shell.earth_radius_m, shell.shell_radius_m
    vr = shell.sat_speed_mps * r  # folded into the factors of phi
    cos_sigma = cu * cos_phi + (su * sin_phi) * sin_t
    d2 = (r * r + big_r * big_r) - (2.0 * r * big_r) * cos_sigma
    nu = ((vr * su) * cos_beta * cos_t - (vr * su) * sin_beta * cos_phi * sin_t
          + (vr * cu) * sin_beta * sin_phi) / np.sqrt(d2)
    nu *= shell.carrier_hz / shell.light_speed_mps  # speed to shift, in place
    return nu, cos_sigma, d2


def doppler_hz_arrays(shell: ShellConfig, user: UserGeometry, theta, phi, mark):
    """Vectorised Doppler in Hz over arrays of satellite coordinates."""
    return _doppler_hz(shell, user, np.sin(theta), np.cos(theta), phi, mark)[0]


def max_doppler(shell: ShellConfig, user: UserGeometry) -> float:
    """Largest Doppler magnitude over the visible cap, found on its rim.

    Take a pass whose closest approach to the user is the central angle c.
    At along-track angle x, cos(sigma) = cos c cos x and |nu| is
    proportional to cos c |sin x| / d. Its x-derivative has the sign of
    A cos x - (B/2)(1 + cos^2 x), with A = r^2 + R^2 and B = 2 r R cos c,
    which is positive wherever cos c cos x > r/R: above the geometric
    horizon, which sigma_max never passes. Every cap point lies on an
    orbit that stays in the band and leaves the cap through the rim, so
    |nu| is largest on the rim's in-band arc.

    The search runs over u in [0, 1], at bearing |alpha| = a_in +
    u (a_out - a_in) on the ring sigma = sigma_max (ring_bearings).
    Mirroring alpha and flipping the mark negates the Doppler, so the
    maximum over both marks is that of |nu| of the ascending mark at
    +-alpha. _MAX_DOPPLER_GRID points seed the search; each zoom lays
    _ZOOM points on the interval one step around the best point, clipped
    to [0, 1], until the step is below tol. The arc's ends are grid points
    of any interval that touches them, and inside nu is smooth, so the
    shortfall is second order in the step: a last step moves the satellite
    at most pi * tol radians (tol is 8e-7 at the default shell) and nu
    curves by at most about scale * speed * (R/h)^2 per rad^2, so it is
    below 1e-3 Hz, far inside _MAX_DOPPLER_TOL_HZ. Like any zoom search it
    assumes the seed grid resolves the peak; the tests check it against a
    brute-force scan.
    """
    phi_u, sigma = user.user_polar_rad, user.sigma_max_rad
    cu, su = math.cos(phi_u), math.sin(phi_u)
    scale = shell.carrier_hz / shell.light_speed_mps
    tol = _MAX_DOPPLER_TOL_HZ / (4.0 * scale * shell.sat_speed_mps)
    c, d, a_in, a_out = ring_bearings(shell, user, sigma)
    cos_s, sin_s = np.cos(sigma), np.sin(sigma)
    lo, hi, n, top = 0.0, 1.0, _MAX_DOPPLER_GRID, -math.inf
    while True:
        u = np.linspace(lo, hi, n)
        alpha = a_in + u * (a_out - a_in)
        cos_a = np.cos(alpha)
        # the rim point at bearing alpha, with theta_u = pi/2
        y = su * cos_s - cu * sin_s * cos_a
        x = sin_s * np.sin(alpha)
        phi = np.arccos(np.clip(c + d * cos_a, -1.0, 1.0))
        rho = np.hypot(x, y)  # > 0: the band holds no pole
        v = _doppler_hz(shell, user, y / rho, np.stack([x, -x]) / rho, phi, 1)[0]
        v = np.abs(v).max(axis=0)
        k = int(np.argmax(v))
        top = max(top, float(v[k]))
        step = (hi - lo) / (n - 1)
        if step < tol:
            return top
        lo, hi = max(0.0, u[k] - step), min(1.0, u[k] + step)
        n = _ZOOM
