"""Spherical geometry of a user and a circular orbital shell, including
the ring of central angle sigma around the user by bearing (ring_bearings),
along which p_cap_prime integrates.

Angles are radians, lengths metres, times seconds, frequencies Hz
throughout the package; only the CLI converts to and from degrees.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, NoVisibleSatellites

LIGHT_SPEED_MPS = 299_792_458.0
MEAN_EARTH_RADIUS_M = 6_371_000.0

# Grace band for arccos/arcsin arguments: roundoff at cap boundaries may
# push them marginally outside [-1, 1]; anything further out is a bug.
_CLAMP_GRACE = 1e-12


def clamp_unit(x):
    """Clamp x into [-1, 1], raising DomainError beyond the grace band."""
    xa = np.asarray(x, dtype=float)
    if np.any(np.abs(xa) > 1.0 + _CLAMP_GRACE):
        raise DomainError(f"argument {x!r} outside [-1, 1] beyond grace band")
    out = np.clip(xa, -1.0, 1.0)
    return float(out) if np.isscalar(x) or xa.ndim == 0 else out


@dataclass(frozen=True)
class ShellConfig:
    """Physical constants and constellation shell parameters."""

    earth_radius_m: float = MEAN_EARTH_RADIUS_M
    altitude_m: float = 550e3
    sat_speed_mps: float = 7.29e3
    carrier_hz: float = 12.7e9
    inclination_rad: float = math.radians(53.0)
    n_sats: int = 3168
    n_per_orbit: int = 22
    light_speed_mps: float = field(default=LIGHT_SPEED_MPS, init=False)

    def __post_init__(self):
        # `not 0 < x < inf` rejects NaN too
        if not (0 < self.earth_radius_m < math.inf and 0 < self.altitude_m < math.inf):
            raise DomainError("earth radius and altitude must be positive and finite")
        if not (0 < self.sat_speed_mps < math.inf and 0 < self.carrier_hz < math.inf):
            raise DomainError("satellite speed and carrier must be positive and finite")
        if not 0.0 < self.inclination_rad < math.pi / 2:
            raise DomainError("inclination must lie in (0, pi/2)")
        if self.n_sats < 1 or self.n_per_orbit < 1:
            raise DomainError("n_sats and n_per_orbit must be at least 1")

    @property
    def shell_radius_m(self) -> float:
        return self.earth_radius_m + self.altitude_m

    @property
    def polar_inclination_rad(self) -> float:
        """Complement of the inclination: the band of reachable polar angles
        is [polar_inclination, pi - polar_inclination]."""
        return math.pi / 2 - self.inclination_rad


def slant_range(shell: ShellConfig, sigma) -> float:
    """User-satellite distance at central angle sigma, in the half-angle
    form d^2 = h^2 + 4 r R sin^2(sigma/2), accurate in small caps."""
    h = shell.altitude_m
    s = np.sin(0.5 * np.asarray(sigma))
    # s * s: NumPy's scalar s ** 2 can round unlike its array square
    return np.sqrt(h * h + 4.0 * shell.earth_radius_m * shell.shell_radius_m
                   * (s * s))


def sigma_from_range2(shell: ShellConfig, d2):
    """Inverse of slant_range at the squared range d2; DomainError beyond a
    5e-10 grace band of sin^2(sigma/2) in [0, 1] (rounding near the zenith)."""
    h = shell.altitude_m
    s2 = (d2 - h * h) / (4.0 * shell.earth_radius_m * shell.shell_radius_m)
    if np.any(s2 < -5e-10) or np.any(s2 > 1.0 + 5e-10):
        raise DomainError("slant range outside the reachable range")
    return 2.0 * np.arcsin(np.sqrt(np.clip(s2, 0.0, 1.0)))


def cos_central_angle(phi_u: float, phi, theta):
    """cos sigma between the user at polar angle phi_u (azimuth pi/2) and
    points at polar angles phi and azimuths theta (arrays)."""
    return math.cos(phi_u) * np.cos(phi) + math.sin(phi_u) * np.sin(phi) * np.sin(theta)


def sigma_from_elevation(shell: ShellConfig, psi: float) -> float:
    """Central angle of a satellite seen at elevation psi above the horizon."""
    if not -_CLAMP_GRACE <= psi <= math.pi / 2 + _CLAMP_GRACE:
        raise DomainError("elevation must lie in [0, pi/2]")
    r, big_r = shell.earth_radius_m, shell.shell_radius_m
    d = r * (math.sqrt((big_r / r) ** 2 - math.cos(psi) ** 2) - math.sin(psi))
    arg = (r * r + big_r * big_r - d * d) / (2.0 * r * big_r)
    return math.acos(clamp_unit(arg))


def central_angle_bounds(shell: ShellConfig, phi_u: float, sigma1: float):
    """(sigma_min, sigma_max) of visible satellites for a northern user.

    Raises NoVisibleSatellites when the visible cone misses the
    inclination band entirely.
    """
    b_bar = shell.polar_inclination_rad
    if phi_u >= b_bar:
        return 0.0, sigma1
    if b_bar - phi_u <= sigma1:
        return b_bar - phi_u, sigma1
    raise NoVisibleSatellites(
        f"user polar angle {phi_u:.4f} rad is {b_bar - phi_u:.4f} rad above the "
        f"band edge, beyond the cap angle {sigma1:.4f} rad"
    )


@dataclass(frozen=True)
class UserGeometry:
    """User position plus derived visible-cap angles.

    Southern-hemisphere users are reflected to the north at construction;
    the user sits at azimuth theta_u = pi/2 by convention, which the
    Doppler, the samplers and the ring map assume: a fixed field, not a
    constructor argument.
    """

    user_polar_rad: float
    min_elevation_rad: float
    sigma_min_rad: float
    sigma_max_rad: float
    user_azimuth_rad: float = field(default=math.pi / 2, init=False)

    @classmethod
    def for_shell(cls, shell: ShellConfig, user_polar_rad: float,
                  min_elevation_rad: float) -> "UserGeometry":
        if not -_CLAMP_GRACE <= min_elevation_rad < math.pi / 2:
            raise DomainError("minimum elevation must lie in [0, pi/2)")
        phi_u = float(user_polar_rad)
        if not 0.0 <= phi_u <= math.pi:
            raise DomainError("user polar angle must lie in [0, pi]")
        if phi_u > math.pi / 2:
            phi_u = math.pi - phi_u
        sigma1 = sigma_from_elevation(shell, min_elevation_rad)
        sigma_min, sigma_max = central_angle_bounds(shell, phi_u, sigma1)
        return cls(phi_u, float(min_elevation_rad), sigma_min, sigma_max)


def ring_bearings(shell: ShellConfig, user: UserGeometry, sigma):
    """The ring of central angle sigma around the user, by bearing alpha
    from the user's meridian: cos(phi) = c + d cos(alpha), with
    c = cos phi_u cos sigma and d = sin phi_u sin sigma. Returns c, d and
    the bearings a_in <= a_out in [0, pi] between which the ring lies in
    the band (both |alpha| ranges). Where d = 0 (sigma = 0, or a user at
    the pole) the ring is one latitude line, wholly in the band (0, pi)
    or not at all. Any shape of sigma."""
    phi_u = user.user_polar_rad
    c = math.cos(phi_u) * np.cos(sigma)
    d = math.sin(phi_u) * np.sin(sigma)
    edge = math.cos(shell.polar_inclination_rad)
    gap = np.stack([edge - c, -edge - c])  # d cos(alpha) at the band edges
    ratio = np.where(d > 0.0, gap / np.where(d > 0.0, d, 1.0),
                     np.copysign(np.inf, gap))
    a_in, a_out = np.arccos(np.clip(ratio, -1.0, 1.0))
    return c, d, a_in, a_out
