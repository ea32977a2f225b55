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
    sigma_from_range2,
    slant_range,
)
from .nbpp import SatellitePoint
from .visibility import _POLE_EPS, _active_band, arc_halfwidth_clamped

_GRACE = 1e-12
# seeds per boundary arc, and per axis of the interior grid, of the
# max_doppler search
_MAX_DOPPLER_GRID = 257


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


def _arc_max(f, lo: float, hi: float, tol: float) -> float:
    """Maximum of a vectorised f on [lo, hi]: the best of _MAX_DOPPLER_GRID
    seeds, refined by golden section between its two neighbours."""
    x = np.linspace(lo, hi, _MAX_DOPPLER_GRID)
    v = f(x)
    k = int(np.argmax(v))
    a, b = x[max(k - 1, 0)], x[min(k + 1, x.size - 1)]
    return max(float(v[k]), _golden_max(lambda t: float(f(t)), a, b, tol)[1])


def max_doppler(shell: ShellConfig, user: UserGeometry,
                refine_tol_hz: float = 1.0) -> float:
    """Largest Doppler magnitude over the visible cap.

    The maximum over the cap clipped to the band lies on its boundary or
    at an interior critical point. The boundary is searched as 1-D arcs,
    each seeded on a grid and refined by golden section: the cap rim by
    bearing alpha from the user, where it lies in the band (cos phi =
    cos phi_u cos sigma_1 + sin phi_u sin sigma_1 cos alpha), and the
    band-edge latitude lines. A coarse grid over the cap seeds the
    interior, refined by golden section in polar angle over the maxima
    of latitude lines. Every point searched lies in the cap, and the
    golden tolerance puts the result within refine_tol_hz below the
    maximum.
    """
    b_bar = shell.polar_inclination_rad
    phi_u, s1 = user.user_polar_rad, user.sigma_max_rad
    theta_u = user.user_azimuth_rad
    scale = shell.carrier_hz / shell.light_speed_mps
    # the Doppler slope along these arcs is below scale * speed per radian
    tol = refine_tol_hz / (4.0 * scale * shell.sat_speed_mps)
    cu, su, cs, ss = math.cos(phi_u), math.sin(phi_u), math.cos(s1), math.sin(s1)

    def rim(alpha):
        cos_a = np.cos(alpha)
        return (np.arctan2(su * cs - cu * ss * cos_a, ss * np.sin(alpha)),
                np.arccos(np.clip(cu * cs + su * ss * cos_a, -1.0, 1.0)))

    if phi_u < _POLE_EPS:  # the rim is the latitude line phi = sigma_1
        arcs = ([(lambda t: (t, s1), theta_u - math.pi, theta_u + math.pi)]
                if b_bar <= s1 <= math.pi - b_bar else [])
    else:  # the rim is in the band for a_in <= |alpha| <= a_out
        a_in, a_out = np.arccos(np.clip(
            (np.array([1.0, -1.0]) * math.cos(b_bar) - cu * cs) / (su * ss),
            -1.0, 1.0))
        arcs = [(rim, a_in, a_out), (rim, -a_out, -a_in)] if a_in < a_out else []
    for p in (b_bar, math.pi - b_bar):
        h = float(arc_halfwidth_clamped(user, p, s1))
        if h > 0.0:
            arcs.append((lambda t, p=p: (t, p), theta_u - h, theta_u + h))

    phi_lo, phi_hi, _ = _active_band(shell, user, s1)
    phi = np.linspace(phi_lo, phi_hi, _MAX_DOPPLER_GRID)
    half = arc_halfwidth_clamped(user, phi, s1)
    tt, pp = np.meshgrid(
        theta_u + half.max() * np.linspace(-1.0, 1.0, _MAX_DOPPLER_GRID), phi)
    outside = np.abs(tt - theta_u) > half[:, None]
    d_phi = 2.0 * (phi_hi - phi_lo) / (_MAX_DOPPLER_GRID - 1)

    best = -math.inf
    for mark in (1, -1):
        def nu(theta, phi):
            return scale * _radial_speed(shell, user, theta, phi, mark)

        def line_max(p: float) -> float:
            h = float(arc_halfwidth_clamped(user, p, s1))
            return _golden_max(lambda t: float(nu(t, p)),
                               theta_u - h, theta_u + h, tol)[1]

        for coords, lo, hi in arcs:
            best = max(best, _arc_max(lambda x: nu(*coords(x)), lo, hi, tol))
        v = np.where(outside, -np.inf, nu(tt, pp))
        k = np.unravel_index(np.argmax(v), v.shape)
        p = float(pp[k])
        best = max(best, float(v[k]),
                   _golden_max(line_max, max(phi_lo, p - d_phi),
                               min(phi_hi, p + d_phi), tol)[1])
    return best
