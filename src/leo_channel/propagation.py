"""Deterministic signal propagation for a fixed satellite position.

Channel gain and propagation delay depend on the central angle alone and
are strictly monotone on it, so both carry closed-form inverses. The
Doppler shift additionally depends on the satellite's travel direction:
ascending (+1) and descending (-1) passes project differently onto the
user-satellite line. Positive Doppler means an approaching satellite.
_doppler_hz builds the Doppler shift in Hz at a point of the cap (the
Doppler laws take it along a pass, in distributions). max_doppler gives
the largest Doppler magnitude over the cap in closed form: on the cap's
rim, on the pass that comes closest to the user.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError
from .geometry import (_CLAMP_GRACE, ShellConfig, UserGeometry,
                       sigma_from_range2, slant_range)


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
    """Largest Doppler magnitude over the visible cap, in closed form:
    (f/c) V r sqrt(sin(s1 - s0) sin(s1 + s0)) / d(s1), with s0, s1 the
    smallest and largest visible central angles.

    Take a pass whose closest approach to the user is the central angle c.
    At along-track angle x, cos(sigma) = cos c cos x and the range rate is
    V r cos c sin x / d, so |nu| is proportional to cos c |sin x| / d. Its
    x-derivative has the sign of A cos x - (B/2)(1 + cos^2 x), with
    A = r^2 + R^2 and B = 2 r R cos c, which is positive wherever
    cos c cos x > r/R: above the geometric horizon, which s1 never passes.
    So |nu| is largest on the rim sigma = s1, where d is fixed and
    cos c |sin x| = sqrt(cos^2 c - cos^2 s1), largest on the pass with the
    smallest c. No great circle of the shell's inclination comes closer to
    the user than s0 (0 inside the band, the gap to the band edge above
    it), and s0 <= s1, so that pass reaches the rim. The product form of
    cos^2 s0 - cos^2 s1 keeps its digits for users that graze the band.
    """
    s0, s1 = user.sigma_min_rad, user.sigma_max_rad
    rim = math.sqrt(math.sin(s1 - s0) * math.sin(s1 + s0))
    return float(shell.carrier_hz / shell.light_speed_mps * shell.sat_speed_mps
                 * shell.earth_radius_m * rim / slant_range(shell, s1))
