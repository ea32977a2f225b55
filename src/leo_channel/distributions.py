"""Analytic distributions of gain, delay and Doppler for a visible satellite.

Gain and delay depend on the central angle alone, so their CDFs are
reparameterisations of the cap probability and their PDFs follow from its
cos-sigma derivative; all four take arrays and are exact (the KS checks
give the CDFs pcap_interpolator's table).

The NBPP is uniform in (node, argument of latitude), so every visible
satellite rides the pass of one orbit plane, and along it the Doppler
shift is closed form. On the plane at node offset psi (psi and pi - psi
pass alike) the user lies c off the orbit, sin c = cos i cos phi_u +
sin i sin phi_u sin psi; at along-track angle x, cos sigma = cos c cos x
and nu = -K cos c sin x / d (K = (f/c) V r, d the range) falls with x
across the cap. A cell sigma_j < sigma <= sigma_j+1, nu_k < nu <= nu_k+1
is then two intervals of x per plane, split into the marks by where the
argument of latitude turns. Only the integral over psi is numeric:
_plane_cells takes it per cell on sine-mapped Gauss-Legendre panels
broken at the kinks of the cell's length: (1) a ring's arc ends,
sin c = +-sin sigma; (2) a ring end's shift is a level,
sin^2 c = sin^2 sigma - (nu d_sigma / K)^2; and, per mark, (3) an orbit
vertex lies on a ring and (4) a vertex's shift is a level. A pass's
largest shift lies on or beyond the horizon, so it puts no kink in a
cell. The joint grid is the cells of the delay rings, the Doppler CDF of
a (sub-)cap the running sum of one ring's cells: no cell is negative, and
on exactly antisymmetric edges the mark-mixed cells are their own
nu-mirror.

A grid is given by its steps alone; nu_edges and tau_edges build its edges
for each user and check library callers' steps (config checks the CLI's).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError
from .propagation import delay_inverse, gain as gain_fn, gain_inverse
from .quadrature import sine_mapped_panels
from .visibility import CapModel, _row_blocks

# sine-mapped Gauss-Legendre nodes per panel of the per-plane rule: the
# smallest n of 8, 12, 16, 24 and 32 with which, at the nine users of
# scripts/resolution_budget.py, each mark's and the mixed Doppler CDF on
# the 2001 edges of the KS table, and the joint grid at both of its tau
# steps (as a fraction of the peak cell), are within 1e-7 of the rule at 2n
_N_PLANE_NODES = 16
# node values that one block of cells holds, breaks included
_PLANE_WORKSPACE = 1 << 14
# Gauss-Legendre nodes per panel of the gain-support rule
_N_GAIN_NODES = 64
# sizes of the tables behind the KS checks
_PCAP_TABLE = 2001
_DOPPLER_TABLE = 2001


# ---------------------------------------------------------------------------
# grids: a grid is its steps; edges are built from (model, step) at each use

# default steps of the joint (tau, nu) grid and the nu step of the
# mark-mixed Doppler PDF grid
NU_STEP_HZ = 2.61e3
TAU_STEP_S = 2.8e-5
DOPPLER_NU_STEP_HZ = 2.65e3


def nu_edges(model: CapModel, step: float, pad: int) -> np.ndarray:
    """nu edges step * k for |k| <= ceil(nu_max / step) + pad: exactly
    antisymmetric, so a mark-mixed grid is its own nu-mirror."""
    if not 0 < step < math.inf:
        raise ValueError("nu step must be positive and finite")
    m = math.ceil(model.nu_max_hz / step) + pad
    return step * np.arange(-m, m + 1)


def tau_edges(model: CapModel, step: float) -> np.ndarray:
    """Delay edges step apart from the cap's shortest delay, with one
    padding cell each side: the outermost rows carry no mass, so trapezoid
    integrals see the support edges instead of cutting them."""
    if not 0 < step < math.inf:
        raise ValueError("tau step must be positive and finite")
    lo, hi = model.delay_bounds
    n = math.ceil((hi - lo) / step - 1e-9)
    return lo + step * (np.arange(n + 3) - 1)


def centers(edges: np.ndarray) -> np.ndarray:
    return 0.5 * (edges[:-1] + edges[1:])


# ---------------------------------------------------------------------------
# gain and delay

def _cap_cdf(model: CapModel, x, bounds, inverse, pcap, falling: bool):
    """CDF of a variable that falls (gain) or rises (delay) with sigma."""
    x = np.asarray(x, dtype=float)
    lo, hi = bounds
    p = (pcap or model.p_cap)(inverse(model.shell, np.clip(x, lo, hi))) / model.p_sat
    out = np.where(x <= lo, 0.0, np.where(x >= hi, 1.0, 1.0 - p if falling else p))
    out = np.clip(out, 0.0, 1.0)
    return float(out) if out.ndim == 0 else out


def _cap_pdf(model: CapModel, x, bounds, zenith: float, inverse, density):
    """PDF of gain or delay: density(-p_cap'(sigma(x)), x) on the support,
    +0 outside it, NaN at NaN."""
    x = np.asarray(x, dtype=float)
    lo, hi = bounds
    inside = ~((x < lo) | (x > hi))  # NaN passes through to p_cap_prime
    x = np.clip(x, lo, hi)
    # the zenith end is sigma_min exactly: inverting it would round it, and
    # where sigma_min > 0 the derivative's band-edge crossing there turns
    # that rounding into lost digits
    sigma = np.where(x == zenith, model.user.sigma_min_rad, inverse(model.shell, x))
    # 0 - p', not -p': where p' is 0 (a support end) the PDF is +0, not -0
    out = np.where(inside, density(0.0 - model.p_cap_prime(sigma), x), 0.0)
    return float(out) if out.ndim == 0 else out


def gain_cdf(model: CapModel, g, pcap=None):
    """Gain CDF, exact; pcap (a sigma -> p_cap callable, such as
    pcap_interpolator's table) replaces model.p_cap for the KS checks."""
    return _cap_cdf(model, g, model.gain_bounds, gain_inverse, pcap, True)


def gain_pdf(model: CapModel, g):
    r, big_r = model.shell.earth_radius_m, model.shell.shell_radius_m
    return _cap_pdf(model, g, model.gain_bounds, model.gain_bounds[1], gain_inverse,
                    lambda dp, x: dp / (2.0 * x * x * r * big_r * model.p_sat))


def delay_cdf(model: CapModel, tau, pcap=None):
    """Delay CDF, exact; pcap as in gain_cdf."""
    return _cap_cdf(model, tau, model.delay_bounds, delay_inverse, pcap, False)


def delay_pdf(model: CapModel, tau):
    shell = model.shell
    c, rr = shell.light_speed_mps, shell.earth_radius_m * shell.shell_radius_m
    return _cap_pdf(model, tau, model.delay_bounds, model.delay_bounds[0], delay_inverse,
                    lambda dp, x: dp * c * c * x / (rr * model.p_sat))


# ---------------------------------------------------------------------------
# Doppler

def _arcsin_in(s):
    """arcsin of s where |s| <= 1, NaN elsewhere: the node offset psi at
    sin psi = s, where a plane has it."""
    return np.arcsin(np.where(np.abs(s) <= 1.0, s, np.nan))


def _fold(u):
    """arcsin(sin u), by wrapping u into [-pi, pi] and reflecting it into
    [-pi/2, pi/2], so that no sine is rounded next to +-1."""
    t = u - (2.0 * math.pi) * np.round(u / (2.0 * math.pi))
    return np.where(t > 0.5 * math.pi, math.pi - t,
                    np.where(t < -0.5 * math.pi, -math.pi - t, t))


@np.errstate(divide="ignore", invalid="ignore")  # NaN: a break that no plane has
def _plane_cells(model: CapModel, sigmas, nu, marks: bool = False,
                 n_nodes: int = _N_PLANE_NODES) -> np.ndarray:
    """Masses of the cells sigma_j < sigma <= sigma_j+1, nu_k < nu <= nu_k+1,
    shape (sigmas.size - 1, nu.size - 1): mark-mixed, or with marks on a
    leading axis of two, the ascending mark's and the descending mark's.

    sigmas and nu ascend, repeats allowed, and nu may hold +-inf. A cell's
    mass is its length on the pass integrated over the node offsets psi
    that its outer ring reaches, on panels of n_nodes nodes broken at the
    kinks that the module docstring lists, so it is a sum of non-negative
    terms. Cells of rings without mass, or past the outer ring's largest
    shift (max_doppler's closed form), hold 0 without work. Blocks of
    cells bound the node values of the panels, and of their breaks, to
    _PLANE_WORKSPACE.
    """
    shell, user = model.shell, model.user
    rho = shell.earth_radius_m / shell.shell_radius_m
    # shifts over (f/c) V r / R, in which nu = -cos c sin x / d with d the
    # range over R. No shift reaches 1 / (1 - rho): the clip keeps every
    # level crossing and makes +-inf a level that no pass reaches
    lim = 2.0 / (1.0 - rho)
    w = np.clip(np.asarray(nu, dtype=float) / (shell.carrier_hz / shell.light_speed_mps
                                               * shell.sat_speed_mps * rho), -lim, lim)
    w2 = w * w
    sig = np.asarray(sigmas, dtype=float)
    ss, cs = np.sin(sig), np.cos(sig)
    d2 = (1.0 - rho) ** 2 + (4.0 * rho) * np.sin(0.5 * sig) ** 2
    s_i, c_i = math.sin(shell.inclination_rad), math.cos(shell.inclination_rad)
    s_u, c_u = math.sin(user.user_polar_rad), math.cos(user.user_polar_rad)
    a, b = s_i * s_u, c_i * c_u  # sin c = b + a sin psi; at the pole a = 0

    def at(t):  # psi where sin c = t (at the pole, no t has one)
        return _arcsin_in((t - b) / a)

    # the interval of psi whose pass meets ring j, |sin c| < sin sigma_j: all
    # planes or none at the pole. Its ends are ring j's breaks 1
    z = np.stack((ss + b, ss - b)) / a  # -+sin psi at the ring's ends
    reach = np.arcsin(np.clip(z, -1.0, 1.0)) * np.array([[-1.0], [1.0]])
    # the arc end's square root has a second branch point past each reach
    # end, beyond the fold psi = -+pi/2: the ring end's mirror at twice its
    # distance from the fold, or at arccosh z off the fold if the ring end
    # lies past it. Breaks at 1 and 4 times that distance inside grade the
    # panels towards it
    fold = np.where(z <= 1.0, 2.0 * np.arccos(np.clip(z, -1.0, 1.0)),
                    np.arccosh(np.maximum(z, 1.0)))
    grade = np.multiply.outer(fold, [1.0, 4.0])
    ends = at(np.stack((-ss, ss), axis=1))
    # a cap's cells (inner ring 0) hold the passes near the zenith, whose
    # closest range h_c has its complex zeros at sin c = +-i eps: breaks
    # at +-eps, where h_c^2 is twice h^2, keep them at the panels' scale
    eps = (1.0 - rho * rho) / (2.0 * rho)
    zenith = np.where(sig[:, None] > 0.0, math.nan, at(np.array([-eps, eps])))
    if marks:  # breaks 3 and 4: an orbit vertex on ring j, or at level k
        g = np.array([1.0, -1.0])  # the northern and the southern vertex
        vertex = _arcsin_in((c_u * s_i - np.multiply.outer(cs, g)) / (s_u * c_i))
        # s_u^2 s^2 + p s + q = 0 in s = sin psi, per vertex
        p = np.multiply.outer(w2, 2.0 * rho * s_u * c_i * g)
        q = np.multiply.outer(w2, 1.0 + rho * rho - 2.0 * rho * c_u * s_i * g) - s_u * s_u
        root = np.sqrt(p * p - (4.0 * s_u * s_u) * q)
        shift = _arcsin_in(np.concatenate((-p - root, root - p), axis=1) / (2.0 * s_u * s_u))
    top = np.sqrt(np.maximum(np.sin(sig - user.sigma_min_rad)
                             * np.sin(sig + user.sigma_min_rad), 0.0) / d2)[1:, None]
    live = ((sig[1:] > np.maximum(sig[:-1], user.sigma_min_rad))
            & (reach[1, 1:] > reach[0, 1:]))[:, None]
    cells = np.flatnonzero(live & (w[1:] > -top) & (w[:-1] < top))
    out = np.zeros((2 if marks else 1, sig.size - 1, w.size - 1))
    flat = out.reshape(out.shape[0], -1)
    step = max(1, _PLANE_WORKSPACE // ((29 if marks else 17) * n_nodes))  # 28 or 16 breaks
    for block in (cells[i:i + step] for i in range(0, cells.size, step)):
        j, k = np.divmod(block, w.size - 1)
        # breaks 2: where the shift at a ring end of the cell is one of its levels
        rj, lk = np.stack((j, j, j + 1, j + 1), axis=1), np.stack((k, k + 1, k, k + 1), axis=1)
        t2 = np.sqrt(ss[rj] * ss[rj] - w2[lk] * d2[rj])
        br = [ends[j], at(t2), at(-t2), zenith[j]]
        if marks:
            br += [vertex[j], vertex[j + 1], shift[k], shift[k + 1]]
        # psi = mid + half sin t over the outer ring's reach: its arc end, a
        # square root of the distance to the reach's ends, is analytic in t
        lo, hi = reach[0, j + 1], reach[1, j + 1]
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        br += [lo[:, None] + grade[0, j + 1], hi[:, None] - grade[1, j + 1]]
        br = (np.concatenate(br, axis=1) - mid[:, None]) / half[:, None]
        inside = np.abs(br) < 1.0  # NaN is not
        br = np.sort(np.where(inside, np.arcsin(np.where(inside, br, 0.0)), 0.5 * math.pi))
        edges = np.pad(br, ((0, 0), (1, 1)), constant_values=(-0.5 * math.pi, 0.5 * math.pi))
        keep = edges[:, 1:] > edges[:, :-1]
        cell = np.nonzero(keep)[0]
        t, weight = sine_mapped_panels(np.stack((edges[:, :-1][keep], edges[:, 1:][keep]),
                                                axis=-1), n_nodes)
        weight *= (2.0 * half[cell, None]) * np.cos(t)  # 2: x is halved below
        psi = mid[cell, None] + half[cell, None] * np.sin(t)
        sin_psi = np.sin(psi)
        sc = b + a * sin_psi
        cc2 = (1.0 - sc) * (1.0 + sc)
        cc = np.sqrt(cc2)
        h2 = (1.0 - rho) ** 2 + (2.0 * rho) * (sc * sc) / (1.0 + cc)  # (closest range / R)^2

        # along-track angles are halved from here on: the weights double the
        # lengths, and the marks' folds double the angles
        def arc_end(i):  # where the pass leaves ring i, or 0
            x = (ss[i] - sc) * (ss[i] + sc) / ((2.0 * cc) * (cc + cs[i]))
            return np.arcsin(np.sqrt(np.clip(x, 0.0, 1.0)))

        def crossing(i):  # where the shift falls through level i, or -+pi
            v2 = w2[i]
            disc = cc2 - v2 * (1.0 + rho * rho - rho * rho * v2)
            p = cc - rho * v2
            q = (0.5 * v2) * h2 / (cc * (p + np.sqrt(np.maximum(disc, 0.0))))
            # no root: the pass never reaches the level
            x = np.where((disc >= 0.0) & (p > 0.0), np.arcsin(np.sqrt(np.minimum(q, 1.0))),
                         0.5 * math.pi)
            return -np.sign(w[i]) * x

        rows, levels = j[cell, None], k[cell, None]
        x_in, x_out = arc_end(rows), arc_end(rows + 1)
        x_lo, x_hi = crossing(levels + 1), crossing(levels)  # the shift falls with x
        parts = []
        for r0, r1 in ((x_in, x_out), (-x_out, -x_in)):
            x0 = np.maximum(x_lo, r0)
            parts.append((x0, np.maximum(x0, np.minimum(x_hi, r1))))
        length = (parts[0][1] - parts[0][0]) + (parts[1][1] - parts[1][0])
        values = [length]
        if marks:
            # ascending minus descending length on plane psi (u0 + x) and on
            # plane pi - psi (u0 - x), each clipped to [-length, length]
            u0 = np.arctan2(s_i * c_u - (c_i * s_u) * sin_psi, s_u * np.cos(psi))
            tilt = sum(np.clip(sum(_fold(u0 + g * x1) - _fold(u0 + g * x0) for x0, x1 in parts),
                               -2.0 * length, 2.0 * length) for g in (2.0, -2.0))
            values = [length + 0.25 * tilt, length - 0.25 * tilt]
        first = np.flatnonzero(np.diff(cell, prepend=-1))
        for o, v in enumerate(values):
            flat[o, block] = np.add.reduceat((v * weight).sum(axis=1), first)
    out /= 2.0 * math.pi ** 2 * model.p_sat
    return out if marks else out[0]


def doppler_cdf_grid(model: CapModel, nu_edges, mark: int,
                     cap_sigma: float | None = None) -> np.ndarray:
    """Doppler CDF at every value of nu_edges (any order, any shape).

    With cap_sigma set, conditions on the sub-cap of that central angle
    while keeping the full-cap normalisation (the joint-CDF convention).
    From sigma_max on, past which no satellite is visible, it is the
    full-cap CDF; a NaN cap_sigma gives NaN. A mark other than +-1 is a DomainError.

    The running sum of the per-plane cells of the cap between -inf and the
    distinct values, in one pass that gives both marks: it never decreases
    along ascending nu, not even by rounding. NaN values stay out of the
    pass (np.unique sorts them last) and give NaN.
    """
    if mark not in (1, -1):
        raise DomainError(f"mark {mark!r} is neither +1 (ascending) nor -1 (descending)")
    nu = np.asarray(nu_edges, dtype=float)
    if cap_sigma is None or cap_sigma >= model.user.sigma_max_rad:
        cap_sigma = model.user.sigma_max_rad
    elif math.isnan(cap_sigma):
        return np.full(nu.shape, math.nan)
    e, back = np.unique(nu.ravel(), return_inverse=True)
    n = e.size - int(np.isnan(e).sum())
    cells = _plane_cells(model, [0.0, cap_sigma], np.append(-math.inf, e[:n]), marks=True)
    cdf = np.append(np.cumsum(cells[(1 - mark) // 2, 0]), e[n:])
    return cdf[back.ravel()].reshape(nu.shape)


def doppler_cdf(model: CapModel, nu_hz: float, mark: int,
                cap_sigma: float | None = None) -> float:
    """CDF of the Doppler shift of a visible satellite on the given mark
    (doppler_cdf_grid at the single value nu_hz)."""
    return float(doppler_cdf_grid(model, nu_hz, mark, cap_sigma))


def doppler_pdf_grid(model: CapModel, nu_step_hz: float = DOPPLER_NU_STEP_HZ):
    """Doppler CDFs and mark-mixed PDF on the nu edges that pad one cell
    beyond the support: (edges, ascending CDF, descending CDF, pdf).

    One per-plane pass over the full cap gives both marks' cells. The pdf
    is the forward difference of the mixed CDF, non-negative as the CDF
    never falls.
    """
    edges = nu_edges(model, nu_step_hz, 1)
    up, down = np.cumsum(_plane_cells(model, [0.0, model.user.sigma_max_rad],
                                      np.append(-math.inf, edges), marks=True)[:, 0], axis=1)
    return edges, up, down, np.diff(0.5 * (up + down)) / nu_step_hz


def joint_pdf_grid(model: CapModel, nu_step_hz: float = NU_STEP_HZ,
                   tau_step_s: float = TAU_STEP_S) -> np.ndarray:
    """Mark-mixed joint delay-Doppler PDF, in one per-plane pass.

    Delay is a function of the central angle, so a delay cell is the
    annulus sigma_j < sigma <= sigma_j+1 of its (clipped) edges: a row of
    per-plane cells. No pdf cell is negative, the padding rows are exactly
    zero and the joint CDF rises in tau and nu. The nu edges are exactly
    antisymmetric, so the cells above nu = 0 mirror those below, and pad no
    cell: trapezoid integrals then lose half the mass a too coarse step
    leaves in the outer columns, which the normalisation check detects.

    Returns the pdf matrix, shape (n_tau_cells, n_nu_cells), on the cells
    of tau_edges(model, tau_step_s) and nu_edges(model, nu_step_hz, 0).
    """
    sigmas = delay_inverse(model.shell, np.clip(tau_edges(model, tau_step_s),
                                                *model.delay_bounds))
    e = nu_edges(model, nu_step_hz, 0)
    half = _plane_cells(model, sigmas, e[:e.size // 2 + 1])  # the cells below nu = 0
    return np.hstack((half, half[:, ::-1])) / (nu_step_hz * tau_step_s)


# ---------------------------------------------------------------------------
# tables for the KS checks, which evaluate a CDF at 1e4-1e6 samples

def pcap_interpolator(model: CapModel):
    """sigma -> p_cap by linear interpolation in a table of _PCAP_TABLE
    exact values: within 6.3e-8 of p_sat at the equator user and 2.2e-5
    where the cap crosses a band edge, a tenth of the KS resolution of a
    million samples. The KS checks pass it to gain_cdf and delay_cdf: at
    their sample counts exact evaluation would take one fixed rule per
    sample, the table one per entry."""
    lo, hi = model.user.sigma_min_rad, model.user.sigma_max_rad
    grid = np.linspace(lo, hi, _PCAP_TABLE)
    table = model.p_cap(grid)

    def interp(sigma):
        return np.interp(np.asarray(sigma, dtype=float), grid, table,
                         left=0.0, right=model.p_sat)

    return interp


def doppler_mixed_interpolator(model: CapModel):
    """Vectorised nu -> mark-mixed Doppler CDF, interpolated in a table of
    _DOPPLER_TABLE edges on the support (and one padding edge each side):
    one mixed per-plane pass, without the marks' vertex breaks."""
    edges = nu_edges(model, 1.0001 * model.nu_max_hz / (_DOPPLER_TABLE // 2), 1)
    f = np.cumsum(_plane_cells(model, [0.0, model.user.sigma_max_rad],
                               np.append(-math.inf, edges)))

    def interp(nu):
        return np.interp(np.asarray(nu, dtype=float), edges, f,
                         left=0.0, right=1.0)

    return interp


def doppler_cdf_mixed_batch(model: CapModel, nu) -> np.ndarray:
    """Mark-mixed Doppler CDF at arbitrary nu values via a dense grid pass."""
    return doppler_mixed_interpolator(model)(nu)


# ---------------------------------------------------------------------------
# integrals over the gain support

def pcap_kinks(model: CapModel) -> list[float]:
    """The central angles inside (sigma_min, sigma_max) where the cap
    boundary crosses a band edge, so p_cap' has a kink: phi_u - b,
    b - phi_u, pi - b - phi_u and phi_u + b (b the polar inclination)."""
    user = model.user
    phi_u, b_bar = user.user_polar_rad, model.shell.polar_inclination_rad
    return [s for s in (phi_u - b_bar, b_bar - phi_u, math.pi - b_bar - phi_u,
                        phi_u + b_bar)
            if user.sigma_min_rad < s < user.sigma_max_rad]


def gain_nodes(model: CapModel):
    """Fixed rule for integrals over the gain support [g_min, g_max]:
    nodes g_k, weights w_k and the cap probabilities p_cap(G^-1(g_k)).

    p_cap(G^-1(g)) has a kink at each of pcap_kinks; the support is split
    there into sine-mapped panels.
    """
    kinks = [gain_fn(model.shell, s) for s in pcap_kinks(model)]
    g_min, g_max = model.gain_bounds
    edges = [g_min] + sorted(k for k in kinks if g_min < k < g_max) + [g_max]
    g, w = sine_mapped_panels(edges, _N_GAIN_NODES)
    p = model.p_cap(gain_inverse(model.shell, g))
    return g, w, p


def rayleigh_gain_cdf_grid(model: CapModel, y: np.ndarray) -> np.ndarray:
    """CDF of the gain with unit-mean-power Rayleigh fading on top, over
    an array of y values.

    The fading power is exponential with mean one; conditioning on it
    reduces to a single integral against the cap probability, taken with
    the gain-support rule; cross-checked against an adaptive scalar route
    in the tests.
    """
    y = np.atleast_1d(np.asarray(y, dtype=float))
    g_min, g_max = model.gain_bounds
    g, w, pcap = gain_nodes(model)
    out = np.zeros_like(y)  # 0 at y <= 0; a NaN y is a row, and gives NaN
    for r in _row_blocks(~(y <= 0.0), g.size):  # bounds the (rows, nodes) workspace
        # from y = 800 g_max on every exp(-y/g) is 0 and the CDF 1; the cap
        # keeps y/g^2 finite, so no term is 0 * inf
        yy = np.minimum(y[r, None], 800.0 * g_max)
        integ = np.sum(w * pcap * np.exp(-yy / g) * (yy / (g * g)), axis=1)
        out[r] = np.clip(1.0 - np.exp(-yy[:, 0] / g_min) - integ / model.p_sat, 0.0, 1.0)
    return out
