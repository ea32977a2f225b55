"""Cap probability machinery.

p_cap(sigma) is the probability that one random satellite falls inside the
user's cap of central angle sigma, clipped to the inclination band. It is
the backbone of every distribution in the package: gain and delay CDFs are
reparameterisations of it, and its derivative (taken with respect to
cos sigma, which removes the arccos from the inverse maps) yields the PDFs.

Integration strategy: conditioned on polar angle phi, the azimuth interval
inside the cap has length L(phi; sigma); integrating f(phi)*L/(2pi) over
the band gives p_cap. The substitution to argument-of-latitude space (see
quadrature.py) removes the density's edge singularity, and the piecewise
breakpoints of L are passed to the integrator as panel boundaries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError
from .geometry import ShellConfig, UserGeometry
from .quadrature import density_integral

_POLE_EPS = 1e-12


def arc_length(user: UserGeometry, phi, sigma):
    """Azimuth arc length (radians in [0, 2pi]) of the latitude line at
    polar angle phi lying inside the user's cap of central angle sigma.

    A user at the pole sees rotationally symmetric caps: the line is
    either fully inside (2pi) or fully outside (0).
    """
    phi = np.asarray(phi, dtype=float)
    phi_u = user.user_polar_rad
    if phi_u < _POLE_EPS:
        out = np.where(phi <= sigma, 2.0 * np.pi, 0.0)
        return float(out) if out.ndim == 0 else out
    with np.errstate(divide="ignore", invalid="ignore"):
        arg = (math.cos(phi_u) * np.cos(phi) - np.cos(sigma)) / (
            math.sin(phi_u) * np.sin(phi))
    full = phi <= np.maximum(0.0, sigma - phi_u)
    partial = (phi > np.maximum(0.0, sigma - phi_u)) & (phi < phi_u + sigma)
    l1 = np.pi + 2.0 * np.arcsin(np.clip(arg, -1.0, 1.0))
    out = np.where(full, 2.0 * np.pi, np.where(partial, l1, 0.0))
    return float(out) if out.ndim == 0 else out


def arc_halfwidth_clamped(user: UserGeometry, phi, sigma):
    """L/2 via the clamped closed form alone; equals arc_length/2 everywhere
    on (0, pi) because the clamp saturates to 2pi below sigma-phi_u and to 0
    beyond phi_u+sigma. Vector-friendly hot path."""
    phi = np.asarray(phi, dtype=float)
    phi_u = user.user_polar_rad
    arg = (math.cos(phi_u) * np.cos(phi) - np.cos(sigma)) / (
        math.sin(phi_u) * np.sin(phi))
    return 0.5 * np.pi + np.arcsin(np.clip(arg, -1.0, 1.0))


def _active_band(shell: ShellConfig, user: UserGeometry, sigma: float):
    """Polar interval where the cap slice is non-empty, clipped to the band,
    plus the interior breakpoint between full-circle and partial slices."""
    b_bar = shell.polar_inclination_rad
    lo = max(b_bar, user.user_polar_rad - sigma)
    hi = min(math.pi - b_bar, user.user_polar_rad + sigma)
    breaks = []
    if sigma > user.user_polar_rad:
        full_edge = sigma - user.user_polar_rad
        if lo < full_edge < hi:
            breaks.append(full_edge)
    return lo, hi, breaks


@dataclass(frozen=True)
class CapModel:
    """Shell + user with the cap success probability memoized eagerly.

    Immutable after construction; all methods are pure.
    """

    shell: ShellConfig
    user: UserGeometry
    p_sat: float = None

    def __post_init__(self):
        object.__setattr__(self, "p_sat", self.p_cap(self.user.sigma_max_rad))

    def p_cap(self, sigma: float) -> float:
        """Probability of one satellite inside the cap of angle sigma.

        Latitude lines fully inside the cap contribute through the clamped
        arc length saturating at 2pi, so a single integral covers all cases
        of the piecewise rule.
        """
        if sigma <= self.user.sigma_min_rad:
            return 0.0
        sigma = min(sigma, math.pi)
        lo, hi, breaks = _active_band(self.shell, self.user, sigma)
        if lo >= hi:
            return 0.0
        user = self.user
        val = density_integral(lambda phi: arc_length(user, phi, sigma),
                               lo, hi, self.shell, breaks)
        return val / (2.0 * math.pi)

    def p_cap_prime(self, sigma: float) -> float:
        """d p_cap / d cos(sigma); negative on the open support.

        Per latitude line, d(arc length)/d cos(sigma) is
        -2 / sqrt([cos(phi - phi_u) - cos sigma][cos sigma - cos(phi + phi_u)]),
        evaluated as a product of four sines so that it keeps its relative
        accuracy in small caps. Its inverse-square-root endpoints are the
        ends of the integration interval, where the sine map absorbs them.
        At sigma = 0 an in-band user gets the limit, the density per unit
        area times d(cap area)/d cos(sigma) = -2pi.
        """
        shell = self.shell
        phi_u = self.user.user_polar_rad
        if sigma <= 0.0:
            q = math.sin(shell.inclination_rad) ** 2 - math.cos(phi_u) ** 2
            return -1.0 / (math.pi * math.sqrt(q)) if q > 0.0 else 0.0
        lo = max(shell.polar_inclination_rad, abs(phi_u - sigma))
        hi = min(math.pi - shell.polar_inclination_rad, phi_u + sigma)
        if lo >= hi:
            return 0.0

        def dlen(phi):
            prod = (np.sin(0.5 * (sigma + phi - phi_u))
                    * np.sin(0.5 * (sigma - phi + phi_u))
                    * np.sin(0.5 * (phi + phi_u + sigma))
                    * np.sin(0.5 * (phi + phi_u - sigma)))
            # a node within rounding of an endpoint can land outside it
            with np.errstate(divide="ignore", invalid="ignore"):
                return np.where(prod > 0.0, -1.0 / np.sqrt(prod), 0.0)

        return density_integral(dlen, lo, hi, shell) / (2.0 * math.pi)

    def visible_count_pmf(self, n: int) -> float:
        """Binomial probability of n visible satellites, through log-gamma
        so that the factorials of this satellite count cannot overflow."""
        n_tot = self.shell.n_sats
        if n < 0 or n > n_tot:
            raise DomainError(f"count {n} outside [0, {n_tot}]")
        p = self.p_sat
        if p == 0.0:
            return 1.0 if n == 0 else 0.0
        log_choose = (math.lgamma(n_tot + 1) - math.lgamma(n + 1)
                      - math.lgamma(n_tot - n + 1))
        return math.exp(log_choose + n * math.log(p)
                        + (n_tot - n) * math.log1p(-p))

    def avg_visible(self) -> float:
        return self.shell.n_sats * self.p_sat

    @property
    def availability(self) -> float:
        """Probability that at least one satellite is visible."""
        return -math.expm1(self.shell.n_sats * math.log1p(-self.p_sat))

    @cached_property
    def nu_max_hz(self) -> float:
        from .propagation import max_doppler

        return max_doppler(self.shell, self.user)

    @cached_property
    def gain_bounds(self) -> tuple[float, float]:
        from .propagation import gain

        return (gain(self.shell, self.user.sigma_max_rad),
                gain(self.shell, self.user.sigma_min_rad))

    @cached_property
    def delay_bounds(self) -> tuple[float, float]:
        from .propagation import delay

        return (delay(self.shell, self.user.sigma_min_rad),
                delay(self.shell, self.user.sigma_max_rad))
