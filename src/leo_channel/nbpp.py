"""Marked binomial point process of satellite positions on the shell.

Each of the N satellites is i.i.d.: azimuth uniform on [0, 2pi), polar
angle following the inclination-band density, and an ascending/descending
mark. Sampling goes through a uniform argument of latitude, which both
realises the polar density exactly and avoids its edge singularities.
The law is uniform in (azimuth, argument of latitude), so satellites in
a user's visible cap are drawn from the cap's bounding box in those
coordinates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NoVisibleSatellites
from .geometry import ShellConfig, cos_central_angle
from .quadrature import phi_of_omega
from .visibility import _active_band, _check_count, arc_halfwidth_clamped

# sample_visible: points per draw block, and draws allowed per requested
# sample (the box keeps 0.6-0.8 of its draws at the reference users)
_BLOCK = 1 << 16
_DRAWS_PER_SAMPLE = 64
# widening of the visible-cap box against rounding, radians
_BOX_SLACK = 1e-9


@dataclass(frozen=True)
class SampleBox:
    """Azimuth interval [theta_lo, theta_hi) times the argument-of-latitude
    interval [omega_lo, omega_hi] (northbound, inside [-pi/2, pi/2]) joined
    by its southbound mirror image pi - omega. The default is the whole
    shell."""

    theta_lo: float = 0.0
    theta_hi: float = 2.0 * math.pi
    omega_lo: float = -math.pi / 2
    omega_hi: float = math.pi / 2


def sample_arrays(shell: ShellConfig, count: int, rng: np.random.Generator,
                  box: SampleBox = SampleBox()):
    """Vectorised i.i.d. draw, uniform in (theta, omega) over the box:
    returns (theta, phi, mark) arrays. The mark is an independent coin:
    omega and pi - omega are drawn equally often at the same phi, so the
    sign of cos omega would follow the same law."""
    theta = rng.uniform(box.theta_lo, box.theta_hi, size=count)
    width = box.omega_hi - box.omega_lo
    omega = box.omega_lo + rng.uniform(0.0, 2.0 * width, size=count)
    omega = np.where(omega < box.omega_hi, omega, np.pi - (omega - width))
    return theta, phi_of_omega(omega, shell), rng.choice(np.array([1, -1]), size=count)


def visible_box(shell: ShellConfig, user) -> SampleBox:
    """Smallest (theta, omega) box holding the user's visible cap.

    Polar angles run over the cap's range clipped to the band; omega over
    the one or two intervals mapping into it (sin omega = cos phi / sin i,
    with the northbound interval and its southbound mirror). Azimuths run
    over theta_u +- the largest cap half-width on those polar angles: the
    half-width is unimodal in phi with its peak where cos phi =
    cos phi_u / cos sigma_1, so it is taken there, clipped to the range.
    The box is widened by _BOX_SLACK so rounding never cuts the cap.
    Raises NoVisibleSatellites when the clipped range is empty.
    """
    phi_u, s1 = user.user_polar_rad, user.sigma_max_rad
    phi_lo, phi_hi, _ = _active_band(shell, user, s1)
    if phi_lo >= phi_hi:
        raise NoVisibleSatellites(
            f"the visible cap of the user at polar angle {phi_u:.6g} rad "
            "does not reach into the inclination band")
    peak = math.acos(min(1.0, math.cos(phi_u) / math.cos(s1)))
    half = float(arc_halfwidth_clamped(user, min(max(peak, phi_lo), phi_hi), s1))
    half += _BOX_SLACK
    if half >= math.pi:
        theta_lo, theta_hi = 0.0, 2.0 * math.pi
    else:
        theta_lo = user.user_azimuth_rad - half
        theta_hi = user.user_azimuth_rad + half
    sin_i = math.sin(shell.inclination_rad)
    omega_lo = math.asin(max(-1.0, math.cos(phi_hi) / sin_i)) - _BOX_SLACK
    omega_hi = math.asin(min(1.0, math.cos(phi_lo) / sin_i)) + _BOX_SLACK
    return SampleBox(theta_lo, theta_hi, max(-math.pi / 2, omega_lo),
                     min(math.pi / 2, omega_hi))


def sample_visible(shell: ShellConfig, user, count: int, rng: np.random.Generator):
    """`count` i.i.d. satellites conditioned on the user's visible cap;
    returns (sigma, theta, phi, mark) arrays, theta in [0, 2pi).

    Draws blocks of _BLOCK points uniformly in the cap's (theta, omega)
    box and keeps those inside the cap. The shell law is uniform in
    (theta, omega), so it stays uniform on the box and the kept points
    follow it exactly. Raises NoVisibleSatellites for an empty box and
    DomainError for a count that is no integer (a bool included) or is
    negative, or when _DRAWS_PER_SAMPLE * count draws (at least one block)
    do not yield `count` samples.
    """
    _check_count(count)
    box = visible_box(shell, user)
    if count == 0:
        return tuple(np.empty(0, dtype=d) for d in (float, float, float, int))
    phi_u = user.user_polar_rad
    cos_s1 = math.cos(user.sigma_max_rad)
    budget = max(_BLOCK, _DRAWS_PER_SAMPLE * count)
    kept = []
    got = drawn = 0
    while got < count:
        if drawn >= budget:
            raise DomainError(
                f"{drawn} draws in the visible-cap box gave {got} of {count} "
                "samples: the cap is too thin to sample")
        theta, phi, mark = sample_arrays(shell, _BLOCK, rng, box)
        drawn += _BLOCK
        cos_sig = cos_central_angle(phi_u, phi, theta)
        sel = cos_sig >= cos_s1
        kept.append((np.arccos(np.clip(cos_sig[sel], -1.0, 1.0)),
                     theta[sel] % (2.0 * np.pi), phi[sel], mark[sel]))
        got += int(np.count_nonzero(sel))
    return tuple(np.concatenate(cols)[:count] for cols in zip(*kept))
