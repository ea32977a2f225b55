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
from .geometry import ShellConfig, UserGeometry, sigma_from_range2, slant_range
from .visibility import ring_bearings

_GRACE = 1e-12
# max_doppler: points per axis of its seed grid and of each zoom grid,
# and the distance below the maximum it stops at
_MAX_DOPPLER_GRID = 257
_ZOOM = 9
_MAX_DOPPLER_TOL_HZ = 1.0


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
    out = sigma_from_range2(shell, 1.0 / g)
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
    d = shell.light_speed_mps * np.asarray(tau, dtype=float)
    out = sigma_from_range2(shell, d * d)
    return float(out) if out.ndim == 0 else out


def _radial_speed(shell: ShellConfig, user: UserGeometry, theta, phi, mark):
    """Speed of approach along the satellite-to-user line, m/s (vectorised).

    Equals minus the slant-range rate; positive while the satellite closes
    in. No band validation here: hot path for grids and Monte Carlo.
    """
    phi_u = user.user_polar_rad
    b = shell.inclination_rad
    sin_phi = np.sin(phi)
    # travel direction against local east; its sign follows the mark
    beta = np.asarray(mark) * np.arccos(np.clip(math.cos(b) / sin_phi, -1.0, 1.0))
    cos_sigma = (math.cos(phi_u) * np.cos(phi)
                 + math.sin(phi_u) * sin_phi * np.sin(theta))
    r, big_r = shell.earth_radius_m, shell.shell_radius_m
    dist = np.sqrt(r * r + big_r * big_r - 2.0 * r * big_r * np.clip(cos_sigma, -1.0, 1.0))
    range_rate = (-np.cos(beta) * np.cos(theta) * math.sin(phi_u)
                  - np.sin(beta) * (sin_phi * math.cos(phi_u)
                                    - np.cos(phi) * np.sin(theta) * math.sin(phi_u)))
    return -shell.sat_speed_mps * r / dist * range_rate


def doppler_hz_arrays(shell: ShellConfig, user: UserGeometry, theta, phi, mark):
    """Vectorised Doppler in Hz over arrays of satellite coordinates."""
    scale = shell.carrier_hz / shell.light_speed_mps
    return scale * _radial_speed(shell, user, theta, phi, mark)


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
        v = _radial_speed(shell, user, np.arctan2(y, np.stack([x, -x])), phi, 1)
        return scale * np.abs(v).max(axis=0)

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
