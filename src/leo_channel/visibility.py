"""Cap probability machinery.

p_cap(sigma) is the probability that one random satellite falls inside the
user's cap of central angle sigma, clipped to the inclination band. It is
the backbone of every distribution in the package: gain and delay CDFs are
reparameterisations of it, and its derivative (taken with respect to
cos sigma, which removes the arccos from the inverse maps) yields the PDFs.

p_cap integrates over polar angle: conditioned on polar angle phi, the
azimuth interval inside the cap has length L(phi; sigma), and f(phi)*L/(2pi)
integrated over the band, in argument-of-latitude space (quadrature.py)
with the breakpoints of L as panel boundaries, gives p_cap. p_cap_prime
integrates the density per unit area along the ring of angle sigma, by
bearing from the user (geometry.ring_bearings), over one sine-mapped
panel between its band crossings. Nothing in it cancels as sigma -> 0,
so it keeps its relative accuracy down to the zenith limit. The cap's
Doppler bound and gain and delay ranges come from propagation.

p_cap and p_cap_prime take arrays: each fixed rule runs on a (sigma x
node) matrix, in blocks of rows. Both are exact up to their rule, and the gain
and delay laws call them directly. Only the KS checks interpolate p_cap
in a table (distributions.pcap_interpolator): they evaluate a CDF at
1e4-1e6 samples, each of which would cost one rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import propagation as prop
from .errors import DomainError
from .geometry import ShellConfig, UserGeometry, ring_bearings
from .quadrature import _N_NODES, density_integral, sine_mapped_panels

# bound on the (sigma x polar node) elements of one p_cap or p_cap' block
_BLOCK_ELEMENTS = 1 << 15


def arc_halfwidth_clamped(user: UserGeometry, phi, sigma):
    """Half the azimuth arc (radians in [0, pi]) of the latitude line at
    polar angle phi lying inside the user's cap of central angle sigma.

    With arg = (cos phi_u cos phi - cos sigma) / (sin phi_u sin phi) it is
    2 atan2(sqrt(1 + arg), sqrt(1 - arg)), with 1 +- arg products of sines
    (from tan(phi/2), up to a positive factor) that lose no digits next to
    arg = +-1, where 0.5 pi + asin(arg) cancels. Clamping them at 0 covers
    every case on (0, pi): pi below sigma - phi_u, where the line lies fully
    inside the cap, and 0 beyond phi_u + sigma. At the pole (phi_u = 0)
    1 + arg is a positive multiple of sin^2(sigma/2) - cos^2(sigma/2)
    tan^2(phi/2) and 1 - arg its negative: pi inside sigma, 0 outside."""
    phi = np.asarray(phi, dtype=float)
    phi_u = user.user_polar_rad
    p, q = 0.5 * (sigma + phi_u), 0.5 * (sigma - phi_u)
    u = np.cos(q) * np.tan(0.5 * phi)
    near = (np.sin(p) - np.cos(p) / np.cos(q) * u) * (np.sin(q) + u)  # 1 + arg
    far = np.sin(p) + np.cos(p) / np.cos(q) * u
    u -= np.sin(q)
    far *= u  # 1 - arg
    del u  # freed before the roots: a longer-lived temporary made glibc trim the heap
    near = np.sqrt(np.maximum(near, 0.0))
    return 2.0 * np.arctan2(near, np.sqrt(np.maximum(far, 0.0)))


def _active_band(shell: ShellConfig, user: UserGeometry, sigma):
    """Polar interval where the cap slice is non-empty, clipped to the band,
    and sigma - phi_u, past which latitude lines lie fully inside the cap:
    a panel break where it falls inside the interval. Any shape of sigma."""
    b_bar = shell.polar_inclination_rad
    phi_u = user.user_polar_rad
    return (np.maximum(b_bar, phi_u - sigma),
            np.minimum(math.pi - b_bar, phi_u + sigma), sigma - phi_u)


def _polar_limit(shell: ShellConfig, cos_phi):
    """-1 / (pi sqrt(sin^2 i - cos^2 phi)) of cos(phi) inside the band, 0
    outside: the band density per unit area times -2pi, d(cap area) /
    d cos(sigma)."""
    q = math.sin(shell.inclination_rad) ** 2 - cos_phi * cos_phi
    return np.where(q > 0.0, -1.0 / (math.pi * np.sqrt(np.where(q > 0.0, q, 1.0))),
                    0.0)


def _row_blocks(rows, width: int):
    """Indices of the true entries of rows, in blocks of at most
    _BLOCK_ELEMENTS / width rows (at least one). Each caller computes a
    row on its own nodes, so its value does not depend on its block."""
    idx = np.flatnonzero(rows)
    step = max(1, _BLOCK_ELEMENTS // width)
    return (idx[k:k + step] for k in range(0, idx.size, step))


@dataclass(frozen=True)
class CapModel:
    """Shell + user with the cap success probability memoized eagerly.

    Immutable after construction; all methods are pure. p_cap and
    p_cap_prime take sigma of any shape and return an array of that shape,
    or a float for a scalar; both are exact up to their fixed rules, and
    NaN where sigma is NaN.
    """

    shell: ShellConfig
    user: UserGeometry
    p_sat: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "p_sat", self.p_cap(self.user.sigma_max_rad))

    def p_cap(self, sigma):
        """Probability of one satellite inside the cap of angle sigma.

        The integrand is the arc 2 * arc_halfwidth_clamped; latitude lines
        fully inside the cap contribute through its clamp saturating at 2pi,
        so a single integral covers all cases of the piecewise rule. A
        row's panel count depends on its own sigma alone.
        """
        s = np.asarray(sigma, dtype=float)
        user, flat = self.user, np.minimum(s.ravel(), math.pi)
        lo, hi, edge = _active_band(self.shell, user, flat)
        live = (lo < hi) & (flat > user.sigma_min_rad)  # else: no mass
        split = live & (lo < edge) & (edge < hi)
        out = np.where(np.isnan(flat), np.nan, 0.0)
        for rows, cols in ((live & ~split, (lo, hi)), (split, (lo, edge, hi))):
            for r in _row_blocks(rows, (len(cols) - 1) * _N_NODES):
                out[r] = density_integral(
                    lambda phi: 2.0 * arc_halfwidth_clamped(user, phi, flat[r, None]),
                    np.stack([c[r] for c in cols], axis=-1), self.shell)
        out = (out / (2.0 * math.pi)).reshape(s.shape)
        return float(out) if out.ndim == 0 else out

    def p_cap_prime(self, sigma):
        """d p_cap / d cos(sigma); negative on the open support.

        The area element is d(cos sigma) d(alpha), so this is (1/pi) times
        the integral of _polar_limit(c + d cos alpha) over the ring's
        in-band arc [a_in, a_out] (ring_bearings): one sine-mapped panel,
        whose map absorbs the density's inverse-square-root singularity at
        the band crossings. Where d = 0 the integrand is constant and the
        value (a_out - a_in) / pi * _polar_limit(c) exactly: the zenith
        limit at sigma = 0, and the polar cap's derivative at the pole.
        """
        shell, s = self.shell, np.asarray(sigma, dtype=float)
        c, d, a_in, a_out = ring_bearings(shell, self.user, s.ravel())
        # + 0.0: an empty arc gives +0, not -0
        out = np.where(np.isnan(c), np.nan,
                       (a_out - a_in) / math.pi * _polar_limit(shell, c) + 0.0)
        for r in _row_blocks((d > 0.0) & (a_in < a_out), _N_NODES):
            alpha, w = sine_mapped_panels(np.stack([a_in[r], a_out[r]], axis=-1),
                                          _N_NODES)
            v = _polar_limit(shell, c[r, None] + d[r, None] * np.cos(alpha))
            out[r] = (w[:, None, :] @ v[:, :, None])[:, 0, 0] / math.pi
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
        return prop.max_doppler(self.shell, self.user)

    @cached_property
    def gain_bounds(self) -> tuple[float, float]:
        return (prop.gain(self.shell, self.user.sigma_max_rad),
                prop.gain(self.shell, self.user.sigma_min_rad))

    @cached_property
    def delay_bounds(self) -> tuple[float, float]:
        return (prop.delay(self.shell, self.user.sigma_min_rad),
                prop.delay(self.shell, self.user.sigma_max_rad))
