"""Independent verification routes used by the tests.

Each oracle deliberately avoids the code path it checks: Doppler is
rebuilt from Cartesian vectors, the cap arc length from a brute-force
azimuth scan, and the Doppler CDF both from a naive two-dimensional
Riemann sum over the cap and from an adaptive route that locates each
sublevel set by scan plus bisection. The visible-cap sampler is checked
against whole-shell rejection, and the Walker snapshot sampler against a
loop over every satellite at every snapshot.
"""

import math

import numpy as np

from leo_channel.geometry import ShellConfig, UserGeometry, slant_range
from leo_channel.nbpp import phi_pdf
from leo_channel.orbit_sim import propagate_arrays
from leo_channel.propagation import doppler_hz_arrays
from leo_channel.quadrature import density_integral
from leo_channel.visibility import CapModel, _active_band, arc_halfwidth_clamped

_DOPPLER_SCAN = 512
_BISECT_ITERS = 48


def doppler_cartesian(shell: ShellConfig, user: UserGeometry,
                      theta: float, phi: float, mark: int) -> float:
    """Doppler in Hz from explicit velocity / line-of-sight vectors.

    The satellite moves at speed v along the heading set by its direction
    angle in the local tangent frame; positive Doppler means the range is
    shrinking, so the projection onto the user-to-satellite vector enters
    with a minus sign.
    """
    b = shell.inclination_rad
    beta = mark * math.acos(min(1.0, max(-1.0, math.cos(b) / math.sin(phi))))
    east = np.array([-math.sin(theta), math.cos(theta), 0.0])
    south = np.array([math.cos(phi) * math.cos(theta),
                      math.cos(phi) * math.sin(theta),
                      -math.sin(phi)])
    vel = shell.sat_speed_mps * (math.cos(beta) * east - math.sin(beta) * south)

    big_r, r = shell.shell_radius_m, shell.earth_radius_m
    sat = big_r * np.array([math.sin(phi) * math.cos(theta),
                            math.sin(phi) * math.sin(theta),
                            math.cos(phi)])
    tu, pu = user.user_azimuth_rad, user.user_polar_rad
    usr = r * np.array([math.sin(pu) * math.cos(tu),
                        math.sin(pu) * math.sin(tu),
                        math.cos(pu)])
    los = sat - usr
    range_rate = float(np.dot(vel, los) / np.linalg.norm(los))
    return -shell.carrier_hz / shell.light_speed_mps * range_rate


def arc_fraction_scan(user: UserGeometry, phi: float, sigma: float,
                      n: int = 1_000_000) -> float:
    """Fraction of the latitude line inside the cap, by indicator scan."""
    theta = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    pu = user.user_polar_rad
    cos_sig = (math.cos(pu) * math.cos(phi)
               + math.sin(pu) * math.sin(phi) * np.sin(theta))
    return float(np.mean(cos_sig >= math.cos(sigma)))


def doppler_cdf_riemann(shell: ShellConfig, user: UserGeometry, nu_hz: float,
                        mark: int, cap_sigma: float, p_sat: float,
                        n_phi: int = 1200, n_theta: int = 2400) -> float:
    """Naive 2-D Riemann sum of the Doppler CDF over the cap."""
    b_bar = shell.polar_inclination_rad
    pu = user.user_polar_rad
    lo = max(b_bar, pu - cap_sigma)
    hi = min(math.pi - b_bar, pu + cap_sigma)
    # midpoint rule keeps the density's edge singularity integrable
    phi = lo + (hi - lo) * (np.arange(n_phi) + 0.5) / n_phi
    theta = 2.0 * np.pi * (np.arange(n_theta) + 0.5) / n_theta
    tt, pp = np.meshgrid(theta, phi)
    cos_sig = (math.cos(pu) * np.cos(pp)
               + math.sin(pu) * np.sin(pp) * np.sin(tt))
    inside = cos_sig >= math.cos(cap_sigma)
    v = doppler_hz_arrays(shell, user, tt, pp, mark)
    w = phi_pdf(shell, phi)[:, None] / (2.0 * np.pi)
    cell = (hi - lo) / n_phi * (2.0 * np.pi / n_theta)
    total = float(np.sum(w * (inside & (v <= nu_hz)))) * cell
    return total / p_sat


def _sublevel_measure(shell: ShellConfig, user: UserGeometry, phi: float,
                      mark: int, half: float, nu_hz: float,
                      n_scan: int = _DOPPLER_SCAN) -> float:
    """Length of {theta in the cap slice: doppler(theta) <= nu_hz}.

    Bracketing scan followed by vectorised bisection on each sign change.
    """
    if half <= 0.0:
        return 0.0
    tu = user.user_azimuth_rad
    t = np.linspace(tu - half, tu + half, n_scan)
    g = doppler_hz_arrays(shell, user, t, phi, mark) - nu_hz
    below = g <= 0.0
    flips = np.nonzero(below[:-1] != below[1:])[0]
    if flips.size == 0:
        return 2.0 * half if below[0] else 0.0
    lo, hi = t[flips], t[flips + 1]
    lo_below = below[flips]
    for _ in range(_BISECT_ITERS):
        mid = 0.5 * (lo + hi)
        mid_below = (doppler_hz_arrays(shell, user, mid, phi, mark) - nu_hz) <= 0.0
        same = mid_below == lo_below
        lo = np.where(same, mid, lo)
        hi = np.where(same, hi, mid)
    roots = 0.5 * (lo + hi)
    bounds = np.concatenate(([t[0]], roots, [t[-1]]))
    seg = np.diff(bounds)
    idx = np.arange(seg.size)
    inside = (idx % 2 == 0) if below[0] else (idx % 2 == 1)
    return float(seg[inside].sum())


def doppler_cdf_adaptive(model: CapModel, nu_hz: float, mark: int,
                         cap_sigma: float | None = None) -> float:
    """Doppler CDF by adaptive quadrature: per polar angle, the sublevel
    set along the cap slice is located by scan plus bisection, and the
    outer integral runs adaptively in argument-of-latitude space."""
    shell, user = model.shell, model.user
    if cap_sigma is None:
        cap_sigma = user.sigma_max_rad
    lo, hi, breaks = _active_band(shell, user, cap_sigma)
    if lo >= hi:
        return 0.0

    def measure(phi: float) -> float:
        half = float(arc_halfwidth_clamped(user, phi, cap_sigma))
        return _sublevel_measure(shell, user, phi, mark, half, nu_hz)

    val = density_integral(measure, lo, hi, shell, breakpoints=breaks,
                           rel_tol=1e-8, limit=300)
    return val / (2.0 * math.pi * model.p_sat)


def central_diff(f, x: float, h: float) -> float:
    return (f(x + h) - f(x - h)) / (2.0 * h)


def sample_visible_rejection(shell: ShellConfig, user: UserGeometry,
                             count: int, rng: np.random.Generator,
                             physical_marks: bool = False,
                             chunk: int = 1_000_000):
    """Whole-shell rejection sampler of the visible cap: draws (theta,
    omega) uniformly over the shell and keeps the points inside the cap.
    Returns (sigma, theta, phi, mark) arrays; costs 1/p_sat draws a sample.
    """
    sin_i = math.sin(shell.inclination_rad)
    phi_u = user.user_polar_rad
    cos_s1 = math.cos(user.sigma_max_rad)
    kept = []
    got = 0
    while got < count:
        theta = rng.uniform(0.0, 2.0 * np.pi, size=chunk)
        omega = rng.uniform(0.0, 2.0 * np.pi, size=chunk)
        phi = np.pi / 2 - np.arcsin(sin_i * np.sin(omega))
        if physical_marks:
            mark = np.where(np.cos(omega) > 0.0, 1, -1)
        else:
            mark = rng.choice(np.array([1, -1]), size=chunk)
        cos_sig = (math.cos(phi_u) * np.cos(phi)
                   + math.sin(phi_u) * np.sin(phi) * np.sin(theta))
        sel = cos_sig >= cos_s1
        kept.append((np.arccos(np.clip(cos_sig[sel], -1.0, 1.0)),
                     theta[sel], phi[sel], mark[sel]))
        got += int(np.count_nonzero(sel))
    return tuple(np.concatenate(cols)[:count] for cols in zip(*kept))


def snapshot_sample_loop(constellation, user: UserGeometry, times,
                         rng: np.random.Generator):
    """Walker snapshots one time at a time over every satellite: per
    snapshot, propagate the whole constellation, find the visible
    satellites and pick one with rng.integers. Returns the arrays of
    orbit_sim.snapshot_sample."""
    shell = constellation.shell
    phi_u = user.user_polar_rad
    cos_s1 = math.cos(user.sigma_max_rad)
    gain, delay, doppler, marks, counts = [], [], [], [], []
    for t in np.asarray(times, dtype=float):
        theta, phi, mark = propagate_arrays(constellation, float(t))
        cos_sig = (math.cos(phi_u) * np.cos(phi)
                   + math.sin(phi_u) * np.sin(phi) * np.sin(theta))
        vis = np.nonzero(cos_sig >= cos_s1)[0]
        counts.append(vis.size)
        if vis.size == 0:
            continue
        pick = int(vis[rng.integers(vis.size)])
        sigma = math.acos(min(1.0, max(-1.0, float(cos_sig[pick]))))
        dist = float(slant_range(shell, sigma))
        gain.append(1.0 / (dist * dist))
        delay.append(dist / shell.light_speed_mps)
        doppler.append(float(doppler_hz_arrays(shell, user, theta[pick],
                                               phi[pick], int(mark[pick]))))
        marks.append(int(mark[pick]))
    return (np.array(gain, dtype=float), np.array(delay, dtype=float),
            np.array(doppler, dtype=float), np.array(marks, dtype=np.int64),
            np.array(counts, dtype=np.int64))
