"""Deterministic Walker-delta circular-orbit simulator.

Evenly spaced orbital planes of equal inclination, evenly phased
satellites per plane, all advancing in argument of latitude at the
constant rate v/R. This is the deterministic system the stochastic model
abstracts; snapshot observations of a randomly chosen visible satellite
provide the empirical side of the model-versus-truth comparison, as
satellite positions that checks.ks_triple maps to observables.

The user is held static in the constellation frame (no Earth rotation),
matching the stochastic model's geometry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DomainError
from .geometry import ShellConfig, UserGeometry, cos_central_angle
from .quadrature import phi_of_omega

_TWO_PI = 2.0 * math.pi
# snapshots per array block of snapshot_sample; margin of its visibility
# windows in cos sigma
_TIME_BLOCK = 256
_WINDOW_SLACK = 1e-9


@dataclass(frozen=True)
class WalkerConstellation:
    shell: ShellConfig
    ascending_nodes: np.ndarray = field(repr=False)
    phase_offsets: np.ndarray = field(repr=False)  # per (orbit, slot)

    @property
    def n_total(self) -> int:
        return self.phase_offsets.size


def build(shell: ShellConfig, inter_orbit_phase: float = 0.0) -> WalkerConstellation:
    """Deterministic layout: orbit k has ascending node k*s_orb; slot j on
    orbit k starts at argument of latitude j*s_sat + k*inter_orbit_phase."""
    n_orbits = round(_TWO_PI / shell.orbit_spacing_rad)
    if n_orbits * shell.n_per_orbit != shell.n_sats:
        raise ConfigError(
            f"{n_orbits} orbits x {shell.n_per_orbit} per orbit != {shell.n_sats}"
        )
    nodes = shell.orbit_spacing_rad * np.arange(n_orbits)
    s_sat = _TWO_PI / shell.n_per_orbit
    slots = s_sat * np.arange(shell.n_per_orbit)
    phases = (slots[None, :] + inter_orbit_phase * np.arange(n_orbits)[:, None]) % _TWO_PI
    return WalkerConstellation(shell=shell, ascending_nodes=nodes, phase_offsets=phases)


def _arg_of_latitude(shell: ShellConfig, offsets, t):
    """Argument of latitude in [0, 2pi) at time t of satellites starting
    at `offsets` (broadcast)."""
    rate = shell.sat_speed_mps / shell.shell_radius_m
    return (offsets + rate * t) % _TWO_PI


def _positions(shell: ShellConfig, nodes, omega):
    """(theta, phi, mark) of satellites with ascending nodes `nodes` at
    arguments of latitude `omega` (broadcast).

    Latitude comes from sin(lat) = sin(b) sin(omega); longitude from the
    node plus atan2(cos(b) sin(omega), cos(omega)); the mark is the sign
    of the latitude rate, i.e. of cos(omega).
    """
    b = shell.inclination_rad
    phi = phi_of_omega(omega, shell)
    theta = (nodes + np.arctan2(math.cos(b) * np.sin(omega), np.cos(omega))) % _TWO_PI
    mark = np.where(np.cos(omega) > 0.0, 1, -1)
    return theta, phi, mark


def propagate_arrays(constellation: WalkerConstellation, t: float):
    """(theta, phi, mark) arrays of every satellite at time t."""
    omega = _arg_of_latitude(constellation.shell, constellation.phase_offsets, t)
    theta, phi, mark = _positions(constellation.shell,
                                  constellation.ascending_nodes[:, None], omega)
    return theta.ravel(), phi.ravel(), mark.ravel()


def snapshot_sample(constellation: WalkerConstellation, user: UserGeometry,
                    times, rng: np.random.Generator):
    """One observation per snapshot: a uniformly chosen visible satellite.

    Returns (sigma, theta, phi, mark, visible_count) arrays: the first
    four are the record of nbpp.sample_visible, one entry per snapshot
    with a visible satellite, theta in [0, 2pi); the counts hold one
    entry per snapshot. The rng draws one integer per such snapshot, in
    time order.

    On a plane with node Omega, cos sigma = A cos omega + B sin omega =
    R cos(omega - omega_0), with A = sin phi_u sin Omega, B = cos phi_u
    sin i + sin phi_u cos i cos Omega and R = hypot(A, B). Planes with
    R < cos sigma_1 never enter the cap and are dropped; on the others a
    satellite can be visible only inside an omega window around omega_0.
    Both bounds are widened by _WINDOW_SLACK, so rounding never drops a
    visible satellite. Arguments of latitude are computed in (time block x
    satellite) arrays, the visibility test only on satellites in their
    window.
    """
    shell = constellation.shell
    phi_u = user.user_polar_rad
    cos_s1 = math.cos(user.sigma_max_rad)
    b = shell.inclination_rad
    nodes = constellation.ascending_nodes
    a_coef = math.sin(phi_u) * np.sin(nodes)
    b_coef = (math.cos(phi_u) * math.sin(b)
              + math.sin(phi_u) * math.cos(b) * np.cos(nodes))
    reach = np.hypot(a_coef, b_coef)
    planes = reach >= cos_s1 - _WINDOW_SLACK
    half = np.arccos((cos_s1 - _WINDOW_SLACK) / reach[planes])
    n_slots = constellation.phase_offsets.shape[1]
    node = np.repeat(nodes[planes], n_slots)
    offset = constellation.phase_offsets[planes].ravel()
    # _arg_of_latitude(lag, t) is omega(t) less the window start, mod 2pi
    lag = offset - np.repeat(np.arctan2(b_coef, a_coef)[planes] - half, n_slots)
    width = np.repeat(2.0 * half, n_slots)

    times = np.asarray(times, dtype=float)
    counts = np.zeros(times.size, dtype=np.int64)
    picked = []
    for k in range(0, max(times.size, 1), _TIME_BLOCK):
        t = times[k:k + _TIME_BLOCK]
        row, col = np.nonzero(_arg_of_latitude(shell, lag, t[:, None]) <= width)
        theta, phi, mark = _positions(
            shell, node[col], _arg_of_latitude(shell, offset[col], t[row]))
        cos_sig = cos_central_angle(phi_u, phi, theta)
        vis = cos_sig >= cos_s1
        n_vis = np.bincount(row[vis], minlength=t.size)
        counts[k:k + t.size] = n_vis
        # visible satellites run snapshot by snapshot, in satellite order
        rows = np.nonzero(n_vis)[0]
        first = np.cumsum(n_vis) - n_vis
        pick = first[rows] + rng.integers(n_vis[rows])
        picked.append([x[vis][pick] for x in (theta, phi, mark, cos_sig)])
    theta, phi, mark, cos_sig = (np.concatenate(x) for x in zip(*picked))
    return np.arccos(np.clip(cos_sig, -1.0, 1.0)), theta, phi, mark, counts


def default_snapshot_times(n: int, rng: np.random.Generator,
                           spacing_s: float = 1.0) -> np.ndarray:
    """n snapshots at fixed spacing from a randomised initial epoch."""
    t0 = rng.uniform(0.0, spacing_s * n)
    return t0 + spacing_s * np.arange(n)


def ks_distance(samples, analytic_cdf) -> float:
    """Kolmogorov-Smirnov sup distance between the empirical CDF of the
    samples and the analytic CDF (evaluated at the points and left limits).

    analytic_cdf takes the sorted samples as one array and returns one
    value per sample; DomainError otherwise.
    """
    x = np.sort(np.asarray(samples, dtype=float))
    n = x.size
    if n == 0:
        raise DomainError("ks_distance needs at least one sample")
    f = np.asarray(analytic_cdf(x), dtype=float)
    if f.shape != x.shape:
        raise DomainError(f"analytic_cdf returned shape {f.shape} for "
                          f"{n} samples")
    grid = np.arange(1, n + 1) / n
    return float(max(np.max(np.abs(f - grid)), np.max(np.abs(f - (grid - 1.0 / n)))))
