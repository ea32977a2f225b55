"""Independent verification routes used by the tests.

Each oracle deliberately avoids the code path it checks: Doppler is
rebuilt from Cartesian vectors and from the central difference of the
slant range along the satellite's great circle, the cap arc length from
a brute-force azimuth scan, and the Doppler CDF from a naive
two-dimensional Riemann sum over the cap, from an adaptive route that
locates each sublevel set by scan plus bisection and from a loop over
cap slices that shares no code with the annulus pass but the cell
deposit, and the pass itself at finer polar and azimuth resolutions for
its error budget; the joint delay-Doppler grid from one such sub-cap row per
delay edge, the annulus of each of the pass's azimuth cells from the
central angle at the cell's midpoint, and the largest Doppler shift by a
brute-force scan of the cap. The cap probability, its derivative, the
path-loss integral and the Rayleigh-faded gain CDF are recomputed by
adaptive QUADPACK quadrature in place of the package's fixed rule, and
the derivative also by a 30-digit mpmath integral in polar angle, which
shares no formula with the package's bearing form. The visible-cap
sampler is checked against whole-shell rejection, and the Walker
snapshot sampler against a loop over every satellite at every snapshot.
Routes that only the tests use live here too: the closed-form
polar-angle density and CDF of the shell, the bisection inverse of
sigma_from_elevation, the central angle of a shell point, and the
whole-shell state of a Walker constellation at one time:
propagate_arrays gives every satellite's (theta, phi, mark), which the
snapshot loop reads, and positions_cartesian its Cartesian position.
The global channel parameters are cross-checked by the binned moments of
the scattering grid and by a tail identity for E[sqrt(g)] on the gain
rule. The package's Gauss-Legendre rule is checked against the same rule
at 40 digits, by Newton's method in mpmath.
"""

import functools
import math
import warnings

import mpmath
import numpy as np
from scipy.integrate import quad

from leo_channel import distributions as dist
from leo_channel.errors import DomainError
from leo_channel.geometry import (
    _CLAMP_GRACE, ShellConfig, UserGeometry, clamp_unit, sigma_from_elevation)
from leo_channel.orbit_sim import _arg_of_latitude, _positions
from leo_channel.parallel import ordered_map
from leo_channel.propagation import (
    _doppler_hz, delay_inverse, doppler_hz_arrays, gain_inverse)
from leo_channel.quadrature import density_nodes, omega_of_phi, phi_of_omega
from leo_channel.visibility import CapModel, _active_band, arc_halfwidth_clamped

_DOPPLER_SCAN = 512
_BISECT_ITERS = 48
# bound on the (polar nodes x nu values) shares one block of the slice
# loop of _doppler_cdf_row holds
_WORKSPACE = 1 << 20


def _sat_state(shell: ShellConfig, theta: float, phi: float, mark: int):
    """Satellite position and velocity vectors, metres and m/s: the
    velocity lies along the heading set by the direction angle in the
    local tangent frame."""
    b = shell.inclination_rad
    beta = mark * math.acos(min(1.0, max(-1.0, math.cos(b) / math.sin(phi))))
    east = np.array([-math.sin(theta), math.cos(theta), 0.0])
    south = np.array([math.cos(phi) * math.cos(theta),
                      math.cos(phi) * math.sin(theta),
                      -math.sin(phi)])
    vel = shell.sat_speed_mps * (math.cos(beta) * east - math.sin(beta) * south)
    sat = shell.shell_radius_m * np.array([math.sin(phi) * math.cos(theta),
                                           math.sin(phi) * math.sin(theta),
                                           math.cos(phi)])
    return sat, vel


def _user_position(shell: ShellConfig, user: UserGeometry) -> np.ndarray:
    tu, pu = user.user_azimuth_rad, user.user_polar_rad
    return shell.earth_radius_m * np.array([math.sin(pu) * math.cos(tu),
                                            math.sin(pu) * math.sin(tu),
                                            math.cos(pu)])


def doppler_cartesian(shell: ShellConfig, user: UserGeometry,
                      theta: float, phi: float, mark: int) -> float:
    """Doppler in Hz from explicit velocity / line-of-sight vectors.

    Positive Doppler means the range is shrinking, so the projection of
    the velocity onto the user-to-satellite vector enters with a minus
    sign.
    """
    sat, vel = _sat_state(shell, theta, phi, mark)
    los = sat - _user_position(shell, user)
    range_rate = float(np.dot(vel, los) / np.linalg.norm(los))
    return -shell.carrier_hz / shell.light_speed_mps * range_rate


def doppler_finite_difference(shell: ShellConfig, user: UserGeometry,
                              theta: float, phi: float, mark: int,
                              dt: float = 5e-4) -> float:
    """Doppler in Hz as minus the central difference of the slant range
    over +-dt, the satellite moving on the great circle of its position
    and velocity."""
    sat, vel = _sat_state(shell, theta, phi, mark)
    rate = shell.sat_speed_mps / shell.shell_radius_m
    usr = _user_position(shell, user)
    d = [np.linalg.norm(math.cos(rate * t) * sat
                        + math.sin(rate * t) / rate * vel - usr) for t in (-dt, dt)]
    return -shell.carrier_hz / shell.light_speed_mps * (d[1] - d[0]) / (2.0 * dt)


def phi_pdf(shell: ShellConfig, phi):
    """Polar-angle density on the band, zero outside.

    Diverges (integrably) at the band edges; returns +inf exactly there.
    """
    phi = np.asarray(phi, dtype=float)
    b = shell.inclination_rad
    inside = (phi >= shell.polar_inclination_rad) & (phi <= np.pi - shell.polar_inclination_rad)
    s2 = np.sin(phi) ** 2 - math.cos(b) ** 2
    with np.errstate(divide="ignore", invalid="ignore"):
        val = np.sin(phi) / (np.pi * np.sqrt(np.maximum(s2, 0.0)))
    out = np.where(inside, val, 0.0)
    return float(out) if out.ndim == 0 else out


def phi_cdf(shell: ShellConfig, phi):
    """Closed-form polar-angle CDF: arccos(cos phi / sin b)/pi on the band."""
    phi = np.asarray(phi, dtype=float)
    b_bar = shell.polar_inclination_rad
    arg = np.clip(np.cos(phi) / math.sin(shell.inclination_rad), -1.0, 1.0)
    val = np.arccos(arg) / np.pi
    out = np.where(phi < b_bar, 0.0, np.where(phi > np.pi - b_bar, 1.0, val))
    return float(out) if out.ndim == 0 else out


def elevation_from_sigma(shell: ShellConfig, sigma: float, tol: float = 1e-12) -> float:
    """Invert sigma_from_elevation by bisection to tol radians."""
    sigma_horizon = math.acos(shell.earth_radius_m / shell.shell_radius_m)
    if not -_CLAMP_GRACE <= sigma <= sigma_horizon + _CLAMP_GRACE:
        raise DomainError(f"sigma {sigma} outside [0, {sigma_horizon}]")
    # arccos conditioning flattens sigma_from_elevation within ~1e-8 rad of
    # the zenith; the boundary values are analytic, so return them exactly
    if sigma <= 1e-8:
        return math.pi / 2
    lo, hi = 0.0, math.pi / 2  # sigma_from_elevation is decreasing in psi
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if sigma_from_elevation(shell, mid) > sigma:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def central_angle(user: UserGeometry, theta, phi):
    """Central angle between the user and a point (theta, phi) on the shell.

    The user azimuth is fixed at pi/2, which turns the usual
    cos(theta - theta_u) factor into sin(theta).
    """
    phi_u = user.user_polar_rad
    cos_sigma = (np.cos(phi_u) * np.cos(phi)
                 + np.sin(phi_u) * np.sin(phi) * np.sin(theta))
    return np.arccos(clamp_unit(cos_sigma))


def ring_index_midpoint(user: UserGeometry, phi, off, sigmas) -> np.ndarray:
    """Annulus of each azimuth cell of the slices at phi (a column) whose
    ends lie at the offsets off from the user's meridian: cos(sigma) at
    the cell's midpoint, looked up among the rings sigmas."""
    phi_u = user.user_polar_rad
    cos_mid = (math.cos(phi_u) * np.cos(phi) + math.sin(phi_u) * np.sin(phi)
               * np.cos(0.5 * (off[:, 1:] + off[:, :-1])))
    return np.searchsorted(-np.cos(sigmas), -cos_mid)


def propagate_arrays(constellation, t: float):
    """(theta, phi, mark) arrays of every satellite of a Walker
    constellation at time t, in (orbit, slot) order."""
    omega = _arg_of_latitude(constellation.shell, constellation.phase_offsets, t)
    theta, phi, mark = _positions(constellation.shell,
                                  constellation.ascending_nodes[:, None], omega)
    return theta.ravel(), phi.ravel(), mark.ravel()


def positions_cartesian(constellation, t: float) -> np.ndarray:
    """(N, 3) satellite positions in metres of a Walker constellation."""
    theta, phi, _ = propagate_arrays(constellation, t)
    big_r = constellation.shell.shell_radius_m
    sin_phi = np.sin(phi)
    return np.column_stack([
        big_r * sin_phi * np.cos(theta),
        big_r * sin_phi * np.sin(theta),
        big_r * np.cos(phi),
    ])


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


def density_integral_adaptive(g, phi_lo: float, phi_hi: float,
                              shell: ShellConfig, breakpoints=(),
                              rel_tol: float = 1e-9, abs_tol: float = 1e-15,
                              limit: int = 200) -> float:
    """Adaptive integral of f(phi) * g(phi) over [phi_lo, phi_hi].

    g is called with scalar phi. The interval is split at the given
    breakpoints (in phi) and each panel is integrated under a sine map,
    whose vanishing endpoint Jacobian absorbs both the square-root kinks
    of arc-length integrands and the inverse-square-root endpoints of
    their derivatives.
    """
    b_bar = shell.polar_inclination_rad
    lo = max(phi_lo, b_bar)
    hi = min(phi_hi, math.pi - b_bar)
    if lo >= hi:
        return 0.0
    # phi -> w is decreasing, so the w interval is [w(hi), w(lo)]
    w_lo = float(omega_of_phi(hi, shell))
    w_hi = float(omega_of_phi(lo, shell))
    edges = [w_lo] + sorted(
        float(omega_of_phi(p, shell)) for p in breakpoints if lo < p < hi
    ) + [w_hi]

    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        mid, half = 0.5 * (a + b), 0.5 * (b - a)

        def integrand(t):
            w = mid + half * math.sin(t)
            jac = half * math.cos(t)
            return g(float(phi_of_omega(w, shell))) * jac

        # full_output suppresses QUADPACK's roundoff advisories (raised for
        # vanishing panels, where the returned value is still exact to
        # ~1e-10); the explicit error-estimate gate below replaces them
        out = quad(integrand, -math.pi / 2, math.pi / 2,
                   epsrel=rel_tol, epsabs=abs_tol, limit=limit,
                   full_output=1)
        val, abserr = out[0], out[1]
        if abserr > max(1e3 * abs_tol, 1e-6 * abs(val), 1e-10):
            warnings.warn(
                f"panel integral error estimate {abserr:.2e} exceeds budget "
                f"(value {val:.3e})", stacklevel=2)
        total += val
    return total / math.pi


def p_cap_adaptive(model: CapModel, sigma: float) -> float:
    """Cap probability by adaptive quadrature of the arc length (relative
    tolerance 1e-12: where the cap boundary crosses a band edge, 1e-9
    leaves errors of 2e-11 of p_sat)."""
    if sigma <= model.user.sigma_min_rad:
        return 0.0
    sigma = min(sigma, math.pi)
    lo, hi, edge = _active_band(model.shell, model.user, sigma)
    if lo >= hi:
        return 0.0
    val = density_integral_adaptive(
        lambda phi: 2.0 * float(arc_halfwidth_clamped(model.user, phi, sigma)),
        lo, hi, model.shell, breakpoints=[edge], rel_tol=1e-12)
    return val / (2.0 * math.pi)


def p_cap_prime_adaptive(model: CapModel, sigma: float) -> float:
    """d p_cap / d cos(sigma) by adaptive quadrature of the scalar
    derivative of the arc length, -2 / sqrt(D) with
    D = [cos(phi - phi_u) - cos sigma][cos sigma - cos(phi + phi_u)].

    D is taken as a product of four sines: as differences of cosines it
    loses a factor 1/sigma in relative accuracy next to the endpoints,
    which moves small-cap results by up to 3e-6. The formula itself is
    checked by the central-difference and zenith-limit tests; this route
    checks the quadrature. A user at the pole has the polar cap
    phi <= sigma, so the derivative is -f(sigma) / sin(sigma).
    """
    phi_u = model.user.user_polar_rad
    if phi_u == 0.0:
        return -float(phi_pdf(model.shell, sigma)) / math.sin(sigma)
    b_bar = model.shell.polar_inclination_rad
    lo = max(b_bar, abs(phi_u - sigma))
    hi = min(math.pi - b_bar, phi_u + sigma)
    if lo >= hi:
        return 0.0

    def dlen(phi: float) -> float:
        d = 4.0 * (math.sin(0.5 * (sigma + phi - phi_u))
                   * math.sin(0.5 * (sigma - phi + phi_u))
                   * math.sin(0.5 * (phi + phi_u + sigma))
                   * math.sin(0.5 * (phi + phi_u - sigma)))
        return -2.0 / math.sqrt(d) if d > 0.0 else 0.0

    val = density_integral_adaptive(dlen, lo, hi, model.shell,
                                    abs_tol=1e-12, limit=400)
    return val / (2.0 * math.pi)


def p_cap_prime_mp(model: CapModel, sigma: float) -> float:
    """d p_cap / d cos(sigma) as a 30-digit mpmath integral over polar
    angle: (1/2pi) times the integral of f(phi) * (-2 / sqrt(D)), D as in
    p_cap_prime_adaptive (a product of four sines), from
    max(band edge, |phi_u - sigma|) to min(pi - band edge, phi_u + sigma).
    Tanh-sinh quadrature takes the inverse-square-root endpoints of both
    factors as they are. Users off the pole with sigma > 0 only."""
    with mpmath.workdps(30):
        incl = mpmath.mpf(model.shell.inclination_rad)
        phi_u, s = mpmath.mpf(model.user.user_polar_rad), mpmath.mpf(sigma)
        b_bar, cos2_i = mpmath.pi / 2 - incl, mpmath.cos(incl) ** 2
        lo = max(b_bar, abs(phi_u - s))
        hi = min(mpmath.pi - b_bar, phi_u + s)
        if lo >= hi:
            return 0.0

        def integrand(phi):
            q = mpmath.sin(phi) ** 2 - cos2_i
            d = 4 * (mpmath.sin((s + phi - phi_u) / 2)
                     * mpmath.sin((s - phi + phi_u) / 2)
                     * mpmath.sin((phi + phi_u + s) / 2)
                     * mpmath.sin((phi + phi_u - s) / 2))
            # a node rounded onto an endpoint carries no weight to speak of
            if q <= 0 or d <= 0:
                return mpmath.mpf(0)
            return -2 * mpmath.sin(phi) / (mpmath.pi * mpmath.sqrt(q * d))

        return float(mpmath.quad(integrand, [lo, hi]) / (2 * mpmath.pi))


def _legendre_mp(n: int, x):
    """P_n(x) and P_n'(x) in mpmath, by the three-term recurrence."""
    p0, p1 = mpmath.mpf(1), x
    for j in range(2, n + 1):
        p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
    return p1, n * (p0 - x * p1) / (1 - x * x)


@functools.cache
def gauss_legendre_mp(n: int):
    """The n-node Gauss-Legendre rule on [-1, 1] at 40 digits: lists of
    mpf nodes (ascending) and weights. Each node is Newton's method on
    P_n from NumPy's leggauss node, the weight 2 / ((1 - x^2) P_n'(x)^2);
    the upper half mirrors the lower."""
    with mpmath.workdps(40):
        half = []
        for seed in np.polynomial.legendre.leggauss(n)[0][:(n + 1) // 2]:
            x = mpmath.mpf(float(seed))
            for _ in range(8):
                p, dp = _legendre_mp(n, x)
                x -= p / dp
                if abs(p / dp) < mpmath.mpf(10) ** -38:
                    break
            dp = _legendre_mp(n, x)[1]
            half.append((x, 2 / ((1 - x * x) * dp * dp)))
        pairs = half + [(-x, w) for x, w in reversed(half[:n // 2])]
    return [x for x, _ in pairs], [w for _, w in pairs]


def path_loss_rho2_adaptive(model: CapModel) -> float:
    """rho^2 = p_a * (g_min + integral of p_cap(G^-1(g)) / p_sat over the
    gain support), by adaptive quadrature of the adaptive p_cap over the
    whole support; accurate only where the cap boundary crosses no band
    edge inside the support."""
    g_min, g_max = model.gain_bounds
    integral, _ = quad(
        lambda g: p_cap_adaptive(model, gain_inverse(model.shell, g)),
        g_min, g_max, epsabs=1e-15, epsrel=1e-10, limit=200)
    return model.availability * (g_min + integral / model.p_sat)


def mean_root_gain(model: CapModel) -> float:
    """E[sqrt(g)] of a visible satellite by the tail identity
    E[h(G)] = h(g_min) + integral of h'(g) P(G > g) over the gain support,
    on the one-dimensional rule of gain_nodes: an independent route to
    the mean delay E[sqrt(g)] / (c E[g]) of the two-dimensional rule."""
    g, w, p = dist.gain_nodes(model)
    return math.sqrt(model.gain_bounds[0]) + float(w @ (p / (2.0 * np.sqrt(g)))) / model.p_sat


def grid_moments(grid):
    """(mean delay, rms delay spread, rms doppler spread) of a scattering
    grid normalised by its rho^2: its binned moments, the cross-check of
    channel.global_params."""
    cell = grid.nu_step_hz * grid.tau_step_s
    tau_c, nu_c = grid.tau_s, grid.nu_hz
    mass_tau = grid.values.sum(axis=1) * cell / grid.rho2
    mass_nu = grid.values.sum(axis=0) * cell / grid.rho2
    mean_tau = float(np.dot(mass_tau, tau_c))
    var_tau = float(np.dot(mass_tau, (tau_c - mean_tau) ** 2))
    second_nu = float(np.dot(mass_nu, nu_c ** 2))
    return mean_tau, math.sqrt(max(var_tau, 0.0)), math.sqrt(max(second_nu, 0.0))


def rayleigh_gain_cdf(model: CapModel, y: float) -> float:
    """CDF of the gain with unit-mean-power Rayleigh fading on top.

    The fading power is exponential with mean one; conditioning on it
    reduces to a single integral against the cap probability, taken here
    by adaptive quadrature of the adaptive p_cap.
    """
    if y <= 0.0:
        return 0.0
    g_min, g_max = model.gain_bounds
    z_lo, z_hi = y / g_max, y / g_min

    def integrand(z: float) -> float:
        g = min(max(y / z, g_min), g_max)
        return math.exp(-z) * p_cap_adaptive(model, gain_inverse(model.shell, g))

    val, _ = quad(integrand, z_lo, z_hi, epsabs=1e-14, epsrel=1e-9, limit=200)
    return 1.0 - math.exp(-z_hi) - val / model.p_sat


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
    lo, hi, edge = _active_band(shell, user, cap_sigma)
    if lo >= hi:
        return 0.0

    def measure(phi: float) -> float:
        half = float(arc_halfwidth_clamped(user, phi, cap_sigma))
        return _sublevel_measure(shell, user, phi, mark, half, nu_hz)

    val = density_integral_adaptive(measure, lo, hi, shell,
                                    breakpoints=[edge], rel_tol=1e-8,
                                    limit=300)
    return val / (2.0 * math.pi * model.p_sat)


def cell_shares_loop(v: np.ndarray, e: np.ndarray, row, n_rows: int,
                     weight=1.0) -> np.ndarray:
    """The deposit of dist._cell_shares by a loop over cells: bin k,
    (e[k-1], e[k]], takes w (F(e[k]) - F(e[k-1])) of the cell's uniform
    law F, clipped to [0, 1], where bin 0 starts at -inf and the last bin
    ends at +inf; a zero-width cell puts all of w in the bin that holds it."""
    row = np.broadcast_to(row, v[:, 1:].shape)
    weight = np.broadcast_to(weight, v[:, 1:].shape)
    upper = np.append(e, math.inf)
    out = np.zeros((n_rows, e.size + 1))
    for i, j in np.ndindex(*row.shape):
        lo, hi = sorted((float(v[i, j]), float(v[i, j + 1])))
        if lo == hi:
            out[row[i, j], np.searchsorted(e, lo, "left")] += weight[i, j]
        else:
            law = np.clip((upper - lo) / (hi - lo), 0.0, 1.0)
            out[row[i, j]] += weight[i, j] * np.diff(law, prepend=0.0)
    return out


def _doppler_cdf_row(model: CapModel, e: np.ndarray, mark: int,
                     cap_sigma: float, n_nodes: int) -> np.ndarray:
    """Doppler CDF on the sub-cap of cap_sigma at sorted edges e, by a loop
    over cap slices with n_nodes polar nodes per panel: each slice's
    _N_THETA uniform azimuth samples make cells of equal width, deposited
    slice by slice on the distinct edges. The reference route for the
    annulus pass of doppler_cdf_grid, which at 384 nodes matches it up to
    summation order."""
    shell, user = model.shell, model.user
    phi_lo, phi_hi, edge = _active_band(shell, user, cap_sigma)
    if phi_lo >= phi_hi:
        return np.zeros(e.size)
    e, back = np.unique(e, return_inverse=True)
    inner = [edge] if phi_lo < edge < phi_hi else []
    phi_k, w_k = density_nodes([phi_lo, *inner, phi_hi], shell, n_nodes)
    half = arc_halfwidth_clamped(user, phi_k, cap_sigma)
    n_theta = dist._N_THETA
    cell_mass = (w_k * half * (2.0 / (n_theta - 1))
                 / (2.0 * math.pi * model.p_sat))
    t = np.linspace(-1.0, 1.0, n_theta)
    mass = np.zeros(e.size + 1)
    block = max(1, _WORKSPACE // (e.size + 1))
    for k in range(0, phi_k.size, block):
        rows = slice(k, k + block)
        theta = user.user_azimuth_rad + half[rows, None] * t
        v = doppler_hz_arrays(shell, user, theta, phi_k[rows, None], mark)
        shares = dist._cell_shares(v, e, np.arange(v.shape[0])[:, None],
                                   v.shape[0])
        mass += (cell_mass[rows, None] * shares).sum(axis=0)
    return np.cumsum(mass[:-1])[back.ravel()]


def joint_pdf_grid_rows(model: CapModel, nu_step_hz: float, tau_step_s: float,
                        mark: int = 1, n_nodes: int = 384):
    """Joint delay-Doppler PDF grid from one nested sub-cap Doppler CDF row
    per distinct delay edge, differenced in delay and then in Doppler; the
    reference for the one-pass annulus kernel of joint_pdf_grid."""
    nu_edges = dist.nu_edges(model, nu_step_hz, 0)
    tau_edges = np.clip(dist.tau_edges(model, tau_step_s), *model.delay_bounds)
    sigmas, row_of_edge = np.unique(delay_inverse(model.shell, tau_edges),
                                    return_inverse=True)
    rows = ordered_map(lambda s: _doppler_cdf_row(model, nu_edges, mark,
                                                  float(s), n_nodes), sigmas)
    cdf = np.vstack(rows)[row_of_edge.ravel()]
    return np.diff(np.diff(cdf, axis=0), axis=1) / (nu_step_hz * tau_step_s)


def annulus_pass_at(model: CapModel, sigmas, e: np.ndarray, n_nodes: int,
                    n_theta: int) -> np.ndarray:
    """The package's annulus pass, mark +1, at n_nodes polar nodes per
    panel and n_theta azimuth samples per slice."""
    return dist._annulus_pass(model, sigmas, e, 1, n_nodes, n_theta)


def annulus_pass_all_columns(model: CapModel, sigmas, e: np.ndarray, mark: int,
                             n_nodes: int, n_theta: int) -> np.ndarray:
    """The annulus pass with every ring column in every block: each slice
    cut at n_theta uniform azimuth samples of the outer ring's arc and at
    +-arc_halfwidth_clamped of every ring, zero-width cells included, the
    blocks of dist._N_ANNULUS_NODES nodes added in order on one thread.
    The reference for the package's pass, which leaves out the columns
    that add only zero-width cells."""
    shell, user = model.shell, model.user
    phi_u = user.user_polar_rad
    sigmas = np.asarray(sigmas, dtype=float)
    n_rows = sigmas.size + 1
    phi_lo, phi_hi, _ = _active_band(shell, user, float(sigmas[-1]))
    phi_hi = max(phi_lo, phi_hi)
    breaks = np.unique(np.concatenate((phi_u - sigmas, phi_u + sigmas,
                                       sigmas - phi_u)))
    breaks = breaks[(phi_lo < breaks) & (breaks < phi_hi)]
    phi_k, w_k = density_nodes(np.concatenate(([phi_lo], breaks, [phi_hi])), shell,
                               n_nodes)
    t = np.linspace(-1.0, 1.0, n_theta)
    mass = np.zeros((n_rows, e.size + 1))
    for k in range(0, phi_k.size, dist._N_ANNULUS_NODES):
        phi = phi_k[k:k + dist._N_ANNULUS_NODES, None]
        ring = arc_halfwidth_clamped(user, phi, sigmas)
        off = np.sort(np.concatenate((ring[:, -1:] * t, ring, -ring), axis=1), axis=1)
        v, cos_s = _doppler_hz(shell, user, np.cos(off), -np.sin(off), phi, mark)[:2]
        row = np.searchsorted(-2.0 * np.cos(sigmas), -(cos_s[:, 1:] + cos_s[:, :-1]))
        weight = np.diff(off, axis=1)
        weight *= w_k[k:k + dist._N_ANNULUS_NODES, None] / (2.0 * math.pi * model.p_sat)
        mass += dist._cell_shares(v, e, row, n_rows, weight)
    return mass


def joint_mass_at(model: CapModel, tau_step_s: float, n_nodes: int,
                  n_theta: int) -> np.ndarray:
    """Cell masses of joint_pdf_grid (mark +1, default nu step) at the
    resolutions of annulus_pass_at."""
    tau_edges = np.clip(dist.tau_edges(model, tau_step_s), *model.delay_bounds)
    mass = annulus_pass_at(model, delay_inverse(model.shell, tau_edges),
                           dist.nu_edges(model, dist.NU_STEP_HZ, 0), n_nodes, n_theta)
    return mass[1:-1, 1:-1]


def table_cdf_at(model: CapModel, n_nodes: int, n_theta: int):
    """Full-cap Doppler CDF, mark +1, on the 2001 nu edges of
    doppler_mixed_interpolator's table that reach the support (its two
    padding edges repeat the total) at the resolutions of annulus_pass_at."""
    m = dist._DOPPLER_TABLE // 2
    e = (1.0001 * model.nu_max_hz / m) * np.arange(-m, m + 1)
    mass = annulus_pass_at(model, [model.user.sigma_max_rad], e, n_nodes,
                           n_theta)
    return np.cumsum(mass.sum(axis=0)[:-1])


def max_doppler_scan(shell: ShellConfig, user: UserGeometry,
                     n_grid: int = 3001, n_arc: int = 200_001) -> float:
    """Largest Doppler magnitude over the visible cap by brute force: the
    cap rim scanned by bearing (the points in the band), both band-edge
    latitude lines scanned over the azimuths inside the cap, and an
    n_grid x n_grid interior grid over the cap's (phi, theta) bounding
    box, in row blocks. Every point lies in the cap, so the result is a
    lower bound on the maximum."""
    b_bar = shell.polar_inclination_rad
    pu, s1, tu = user.user_polar_rad, user.sigma_max_rad, user.user_azimuth_rad

    def peak(theta, phi):
        return max(float(np.max(np.abs(doppler_hz_arrays(shell, user, theta,
                                                           phi, mark)),
                                initial=0.0))
                   for mark in (1, -1))

    # rim point at bearing a: cos(s1) u + sin(s1) (cos a north + sin a east)
    a = np.linspace(0.0, 2.0 * np.pi, n_arc)
    z = math.cos(s1) * math.cos(pu) + math.sin(s1) * math.sin(pu) * np.cos(a)
    y = math.cos(s1) * math.sin(pu) - math.sin(s1) * math.cos(pu) * np.cos(a)
    x = math.sin(s1) * np.sin(a)
    phi = np.arccos(np.clip(z, -1.0, 1.0))
    inside = (phi >= b_bar) & (phi <= math.pi - b_bar)
    best = peak(np.arctan2(y, x)[inside], phi[inside])
    for edge in (b_bar, math.pi - b_bar):
        h = float(arc_halfwidth_clamped(user, edge, s1))
        if h > 0.0:
            best = max(best, peak(np.linspace(tu - h, tu + h, n_arc), edge))
    lo, hi = max(b_bar, pu - s1), min(math.pi - b_bar, pu + s1)
    phi = np.linspace(lo, hi, n_grid)
    half = arc_halfwidth_clamped(user, phi, s1)
    theta = np.linspace(tu - half.max(), tu + half.max(), n_grid)
    for k in range(0, n_grid, 100):
        rows = slice(k, k + 100)
        tt, pp = np.meshgrid(theta, phi[rows])
        keep = np.abs(tt - tu) <= half[rows, None]
        best = max(best, peak(tt[keep], pp[keep]))
    return best


def sample_visible_rejection(shell: ShellConfig, user: UserGeometry,
                             count: int, rng: np.random.Generator,
                             physical_marks: bool = False,
                             chunk: int = 1_000_000):
    """Whole-shell rejection sampler of the visible cap: draws (theta,
    omega) uniformly over the shell and keeps the points inside the cap.
    Returns (sigma, theta, phi, mark) arrays; costs 1/p_sat draws a sample.
    The marks are an independent coin, or with physical_marks the sign of
    cos omega (northbound +1): the second law nbpp's coin stands for.
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
    phi_u = user.user_polar_rad
    cos_s1 = math.cos(user.sigma_max_rad)
    sigmas, thetas, phis, marks, counts = [], [], [], [], []
    for t in np.asarray(times, dtype=float):
        theta, phi, mark = propagate_arrays(constellation, float(t))
        cos_sig = (math.cos(phi_u) * np.cos(phi)
                   + math.sin(phi_u) * np.sin(phi) * np.sin(theta))
        vis = np.nonzero(cos_sig >= cos_s1)[0]
        counts.append(vis.size)
        if vis.size == 0:
            continue
        pick = int(vis[rng.integers(vis.size)])
        # NumPy's arccos, as in orbit_sim: math.acos differs from it by one
        # ulp on about a tenth of arguments
        sigmas.append(float(np.arccos(np.clip(cos_sig[pick], -1.0, 1.0))))
        thetas.append(float(theta[pick]))
        phis.append(float(phi[pick]))
        marks.append(int(mark[pick]))
    return (np.array(sigmas, dtype=float), np.array(thetas, dtype=float),
            np.array(phis, dtype=float), np.array(marks, dtype=np.int64),
            np.array(counts, dtype=np.int64))
