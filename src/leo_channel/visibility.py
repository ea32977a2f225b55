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

p_cap and p_cap_prime take arrays: the fixed rule runs on a (sigma x node)
matrix, in blocks of rows. Both are exact up to that rule, and the gain
and delay laws call them directly. Only the KS checks interpolate p_cap
in a table (distributions.pcap_interpolator): they evaluate a CDF at
1e4-1e6 samples, each of which would cost one rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError
from .geometry import ShellConfig, UserGeometry
from .quadrature import _N_NODES, density_integral

_POLE_EPS = 1e-12
# bound on the (sigma x polar node) elements of one p_cap or p_cap' block
_BLOCK_ELEMENTS = 1 << 15


def arc_halfwidth_clamped(user: UserGeometry, phi, sigma):
    """Half the azimuth arc (radians in [0, pi]) of the latitude line at
    polar angle phi lying inside the user's cap of central angle sigma.

    One clamped closed form covers every case on (0, pi): the clamp
    saturates to pi below sigma - phi_u, where the line lies fully inside
    the cap, and to 0 beyond phi_u + sigma. A user at the pole sees
    rotationally symmetric caps: pi inside sigma and 0 outside."""
    phi = np.asarray(phi, dtype=float)
    phi_u = user.user_polar_rad
    if phi_u < _POLE_EPS:
        return np.where(phi <= sigma, np.pi, 0.0)
    arg = (math.cos(phi_u) * np.cos(phi) - np.cos(sigma)) / (
        math.sin(phi_u) * np.sin(phi))
    return 0.5 * np.pi + np.arcsin(np.clip(arg, -1.0, 1.0))


def _active_band(shell: ShellConfig, user: UserGeometry, sigma):
    """Polar interval where the cap slice is non-empty, clipped to the band,
    and sigma - phi_u, past which latitude lines lie fully inside the cap:
    a panel break where it falls inside the interval. Any shape of sigma."""
    b_bar = shell.polar_inclination_rad
    phi_u = user.user_polar_rad
    return (np.maximum(b_bar, phi_u - sigma),
            np.minimum(math.pi - b_bar, phi_u + sigma), sigma - phi_u)


def _polar_limit(shell: ShellConfig, x):
    """-1 / (pi sqrt(sin^2 i - cos^2 x)) inside the band, 0 outside: the
    band density per unit area times -2pi, d(cap area) / d cos(sigma)."""
    c = np.cos(x)
    q = math.sin(shell.inclination_rad) ** 2 - c * c
    return np.where(q > 0.0, -1.0 / (math.pi * np.sqrt(np.where(q > 0.0, q, 1.0))),
                    0.0)


def _cap_integral(shell: ShellConfig, integrand, sigma, lo, hi, edge=None):
    """density_integral of integrand(phi, sigma) / 2pi over [lo, hi], split
    at edge where it lies inside, for every sigma whose interval is
    non-empty, 0 elsewhere; the arguments are 1-D arrays of one length.

    A row's panel count depends on its own sigma alone, and rows go to
    density_integral in blocks of _BLOCK_ELEMENTS nodes, so a row's value
    does not depend on the block it lands in.
    """
    out = np.zeros(sigma.shape)
    live = lo < hi
    split = np.zeros_like(live) if edge is None else live & (lo < edge) & (edge < hi)
    for rows, panels in ((live & ~split, 1), (split, 2)):
        idx = np.flatnonzero(rows)
        step = max(1, _BLOCK_ELEMENTS // (panels * _N_NODES))
        for k in range(0, idx.size, step):
            r = idx[k:k + step]
            out[r] = density_integral(lambda phi: integrand(phi, sigma[r, None]),
                                      lo[r], hi[r], shell,
                                      edge[r] if panels == 2 else None)
    return out / (2.0 * math.pi)


@dataclass(frozen=True)
class CapModel:
    """Shell + user with the cap success probability memoized eagerly.

    Immutable after construction; all methods are pure. p_cap and
    p_cap_prime take sigma of any shape and return an array of that shape,
    or a float for a scalar; both are exact up to the fixed rule.
    """

    shell: ShellConfig
    user: UserGeometry
    p_sat: float = None

    def __post_init__(self):
        object.__setattr__(self, "p_sat", self.p_cap(self.user.sigma_max_rad))

    def p_cap(self, sigma):
        """Probability of one satellite inside the cap of angle sigma.

        The integrand is the arc 2 * arc_halfwidth_clamped; latitude lines
        fully inside the cap contribute through its clamp saturating at 2pi,
        so a single integral covers all cases of the piecewise rule.
        """
        s = np.asarray(sigma, dtype=float)
        user, flat = self.user, np.minimum(s.ravel(), math.pi)
        lo, hi, edge = _active_band(self.shell, user, flat)
        hi = np.where(s.ravel() > user.sigma_min_rad, hi, lo)  # empty: no mass
        out = _cap_integral(
            self.shell, lambda phi, col: 2.0 * arc_halfwidth_clamped(user, phi, col),
            flat, lo, hi, edge).reshape(s.shape)
        return float(out) if out.ndim == 0 else out

    def p_cap_prime(self, sigma):
        """d p_cap / d cos(sigma); negative on the open support.

        Per latitude line, d(arc length)/d cos(sigma) is
        -2 / sqrt([cos(phi - phi_u) - cos sigma][cos sigma - cos(phi + phi_u)]),
        evaluated as a product of four sines so that it keeps its relative
        accuracy in small caps. Its inverse-square-root endpoints are the
        ends of the integration interval, where the sine map absorbs them.
        At sigma = 0 an in-band user gets the limit, the density per unit
        area times d(cap area)/d cos(sigma) = -2pi. For a user at the pole
        the cap is the polar cap phi <= sigma and the interval collapses;
        the derivative is that limit at phi = sigma, -f(sigma) / sin(sigma).
        """
        shell, phi_u = self.shell, self.user.user_polar_rad
        s = np.asarray(sigma, dtype=float)
        flat = s.ravel()

        def dlen(phi, col):
            prod = (np.sin(0.5 * (col + phi - phi_u))
                    * np.sin(0.5 * (col - phi + phi_u))
                    * np.sin(0.5 * (phi + phi_u + col))
                    * np.sin(0.5 * (phi + phi_u - col)))
            # a node within rounding of an endpoint can land outside it
            with np.errstate(divide="ignore", invalid="ignore"):
                return np.where(prod > 0.0, -1.0 / np.sqrt(prod), 0.0)

        if phi_u < _POLE_EPS:
            out = _polar_limit(shell, flat)
        else:
            b_bar = shell.polar_inclination_rad
            lo = np.maximum(b_bar, np.abs(phi_u - flat))
            hi = np.where(flat > 0.0,
                          np.minimum(math.pi - b_bar, phi_u + flat), lo)
            out = np.where(flat > 0.0, _cap_integral(shell, dlen, flat, lo, hi),
                           _polar_limit(shell, phi_u))
        out = out.reshape(s.shape)
        return float(out) if out.ndim == 0 else out

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
