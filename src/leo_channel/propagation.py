"""Deterministic signal propagation for a fixed satellite position.

Channel gain and propagation delay depend on the central angle alone and
are strictly monotone on it, so both carry closed-form inverses. The
Doppler shift additionally depends on the satellite's travel direction:
ascending (+1) and descending (-1) passes project differently onto the
user-satellite line. Positive Doppler means an approaching satellite.
_doppler_hz alone builds the Doppler shift in Hz and the cos-sigma range
law for every caller. max_doppler searches the visible, in-band cap as the
rectangle of (sigma, fraction of the in-band arc) of geometry.ring_bearings.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError
from .geometry import (_CLAMP_GRACE, ShellConfig, UserGeometry, ring_bearings,
                       sigma_from_range2, slant_range)

# max_doppler: points per axis of its seed grid and of each zoom grid,
# and the distance below the maximum it stops at
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
    """Largest Doppler magnitude over the visible cap.

    The search runs on the rectangle (sigma, u) in [sigma_min, sigma_1] x
    [0, 1], with bearing |alpha| = a_in + u (a_out - a_in) on the ring of
    angle sigma (ring_bearings): exactly the visible, in-band part of the
    cap. Mirroring alpha and flipping the mark negates the Doppler, so the
    maximum over both marks is that of |nu| of the ascending mark at
    +-alpha. A _MAX_DOPPLER_GRID^2 grid seeds the search; each zoom lays a
    _ZOOM^2 grid on the box one step around the best point, clipped to the
    rectangle, until both steps are below tol. A ridge slanting across the
    grid can put the best point more than a step from the maximiser, so
    where it lies on an inner side of its box and beats every earlier
    point, the box moves onto it at the same step instead. Moves need a
    strict gain, so the search ends even where nu is flat.

    The maximiser lies at a corner, on an edge or inside. Every edge (the
    rim, sigma_min and the band crossings u = 0, 1) is a grid line of any
    box that touches it, so the grid point nearest the maximiser shares its
    edges and lies less than a step from it along the rest, where nu is
    smooth and stationary at the maximiser: the band crossings are
    latitude lines, along which the travel direction is constant. The
    shortfall is second order in the step: a last step moves the
    satellite at most pi * tol radians (tol is 8e-7 at the default shell)
    and nu curves by at most about scale * speed * (R/h)^2 per rad^2, so
    it is below 1e-3 Hz, far inside _MAX_DOPPLER_TOL_HZ. Like any zoom
    search it assumes the seed grid resolves the peak; the tests check it
    against a brute-force scan.
    """
    phi_u = user.user_polar_rad
    cu, su = math.cos(phi_u), math.sin(phi_u)
    scale = shell.carrier_hz / shell.light_speed_mps
    tol = _MAX_DOPPLER_TOL_HZ / (4.0 * scale * shell.sat_speed_mps)

    def nu(sigma, u):
        c, d, a_in, a_out = ring_bearings(shell, user, sigma)
        alpha = a_in + u * (a_out - a_in)
        cos_a = np.cos(alpha)
        # the ring point at bearing alpha, with theta_u = pi/2
        y = su * np.cos(sigma) - cu * np.sin(sigma) * cos_a
        x = np.sin(sigma) * np.sin(alpha)
        phi = np.arccos(np.clip(c + d * cos_a, -1.0, 1.0))
        rho = np.hypot(x, y)  # > 0: the band holds no pole
        v = _doppler_hz(shell, user, y / rho, np.stack([x, -x]) / rho, phi, 1)[0]
        return np.abs(v).max(axis=0)

    lo = np.array([user.sigma_min_rad, 0.0])
    hi = np.array([user.sigma_max_rad, 1.0])
    box_lo, box_hi, n, top = lo, hi, _MAX_DOPPLER_GRID, -math.inf
    while True:
        sigma, u = (np.linspace(a, b, n) for a, b in zip(box_lo, box_hi))
        v = nu(sigma[:, None], u)
        k = np.unravel_index(np.argmax(v), v.shape)
        best = np.array([sigma[k[0]], u[k[1]]])
        step = (box_hi - box_lo) / (n - 1)
        i = np.array(k)
        inner = ((i == 0) & (box_lo > lo)) | ((i == n - 1) & (box_hi < hi))
        moved = inner & (v[k] > top)
        top = max(top, float(v[k]))
        if np.all(step < tol) and not moved.any():
            return top
        half = np.where(moved, 0.5 * (box_hi - box_lo), step)
        box_lo, box_hi = np.maximum(lo, best - half), np.minimum(hi, best + half)
        n = _ZOOM
