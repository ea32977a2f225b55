"""Analytic distributions of gain, delay and Doppler for a visible satellite.

Gain and delay depend on the central angle alone, so their CDFs are
reparameterisations of the cap probability and their PDFs follow from its
cos-sigma derivative; all four take arrays and are exact (the KS checks
give the CDFs pcap_interpolator's table). The Doppler shift also depends
on azimuth, so its CDF is a double integral over the cap, taken by a fixed
rule: sine-mapped Gauss-Legendre nodes in argument-of-latitude space for
the polar integral, and per node uniform azimuth samples of the cap slice
(_N_THETA for the Doppler CDF, _N_ANNULUS_THETA for the coarser polar rule
of the joint grid), whose cells are uniform laws in nu, each deposited
exactly onto the nu values it lies below or straddles. The polar rule
carries the error.

One pass makes that deposit, _annulus_pass. A delay cell is an annulus of
the cap: the joint delay-Doppler PDF grid is the pass with a ring at every
delay edge, the Doppler CDF of a (sub-)cap the pass with one ring. The
test suite checks both against independent routes.

Mirroring the azimuth about the user's meridian and flipping the mark
negates the Doppler shift and keeps the central angle, so each mark-mixed
quantity takes one ascending pass: the descending joint grid is the
ascending one reversed in nu, and doppler_pdf_grid, which alone builds
both marks' CDFs, takes F_-(nu) = T - F_+(-nu), T the pass's total.

A grid is given by its steps alone; nu_edges and tau_edges build its edges
for each user and check library callers' steps (config checks the CLI's).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError
from .propagation import _doppler_hz, delay_inverse, gain as gain_fn, gain_inverse
from . import parallel
from .quadrature import _N_NODES, density_nodes, sine_mapped_panels
from .visibility import CapModel, _active_band, _row_blocks, arc_halfwidth_clamped

# azimuth samples per cap slice of each annulus pass: the smallest power of
# two whose error against 4x the samples is at most 1/3 of the polar rule's
# at both reference users (resolution_budget.py). The full-cap CDF (384
# against 1536 nodes per panel, on the 2001 table edges) needs 512: ratios
# 0.013/0.21 (equator/lat 60), and 0.82 at lat 60 with 256. The joint pass
# (64 against 256 nodes per panel) needs 256: at tau step 8.4e-5 s ratios
# 0.029/0.213, and 0.733 at lat 60 with 128; at 2.8e-5 s 0.060/0.328.
_N_THETA = 512
_N_ANNULUS_THETA = 256
# sine-mapped polar nodes per panel of the joint grid, and per block of
# every annulus pass
_N_ANNULUS_NODES = 64
# Gauss-Legendre nodes per panel of the gain-support rule
_N_GAIN_NODES = 64
# (cell, straddled nu edge) pairs that _cell_shares holds at once, plus at
# most one edge's cells; its result does not depend on this bound
_MAX_PAIRS = 1 << 16
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
    antisymmetric, so one mark's grid is the other's nu-mirror."""
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

def _edge_index(e: np.ndarray, v: np.ndarray):
    """searchsorted(e, v, "right") and "left", exactly, for strictly ascending e:
    a floor division fixed up by one step where e is uniform within step/4."""
    n = int(np.isfinite(e).sum())  # a trailing +inf may follow
    pad = np.concatenate(([np.nan], e, [np.nan]))  # compares false
    step = (e[n - 1] - e[0]) / (n - 1) if n > 1 else 0.0  # inf after a -inf
    if 0.0 < step < math.inf and np.all(np.abs(e[:n] - (e[0] + step * np.arange(n))) <= step / 4):
        k = np.clip((v - e[0]) / step + 1.0, 0, n).astype(np.intp)  # >= 0: floor
        k += pad[1:][k] <= v
        k -= pad[k] > v
    else:
        k = np.searchsorted(e, v, "right")
    return k, k - (pad[k] == v)


def _cell_shares(v: np.ndarray, e: np.ndarray, row, n_rows: int,
                 weight=1.0) -> np.ndarray:
    """Deposit the cells of v onto strictly ascending edges, per output row.

    Row i of v holds Doppler values along one cap slice; each pair of
    neighbours bounds a cell, a uniform law between its two values that
    carries weight (a scalar or one value per cell). row gives the output
    row of each cell (broadcast to the cells' shape). Column k of the
    result covers (e[k-1], e[k]], the last column everything above e[-1].
    A straddled edge takes the law's mass since the previous edge (all of
    it below the first), the bin holding hi the rest: each share reads the
    cell's CDF at its own two edges, is non-negative when the weight is and
    depends on no other share. Runs of edges, split where the running count
    of (cell, straddled edge) pairs passes each multiple of _MAX_PAIRS,
    bound the memory; a bin takes all its terms in one run, in cell order,
    so the bound changes no bit.
    """
    first, last = _edge_index(e, v)  # per value: edges at or below, below
    first = np.minimum(first[:, :-1], first[:, 1:]).ravel()  # first edge above lo
    last = np.maximum(last[:, :-1], last[:, 1:]).ravel()  # first edge at or above hi
    lo = np.minimum(v[:, :-1], v[:, 1:]).ravel()
    span = np.maximum(v[:, :-1], v[:, 1:]).ravel() - lo
    weight = np.broadcast_to(weight, v[:, 1:].shape).ravel()
    width = e.size + 1
    row = np.broadcast_to(row, v[:, 1:].shape).ravel() * width

    def cdf(k, c):  # the law of cell c below an edge k that it straddles
        return (e[k] - lo[c]) / span[c]

    cut = np.flatnonzero(last > first)  # the cells that straddle edges
    fc, lc = first[cut], last[cut]
    rest = np.ones_like(lo)
    rest[cut] -= cdf(lc - 1, cut)
    share = np.bincount(row + last, weights=rest * weight, minlength=n_rows * width)
    pairs = np.cumsum(np.cumsum(np.bincount(fc, minlength=width)
                                - np.bincount(lc, minlength=width)))  # up to an edge
    runs = np.searchsorted(pairs, np.arange(0, pairs[-1], _MAX_PAIRS), "right")
    runs = np.unique(np.append(runs, e.size))  # no cell straddles an edge below runs[0]
    for k0, k1 in zip(runs[:-1], runs[1:]):
        a = np.maximum(fc, k0)
        n = np.maximum(np.minimum(lc, k1) - a, 0)
        cell = np.repeat(cut, n)
        edge = np.repeat(a - np.cumsum(n) + n, n) + np.arange(cell.size)
        step = cdf(edge, cell)
        np.subtract(step, cdf(edge - 1, cell), out=step, where=edge > first[cell])
        step *= weight[cell]
        share += np.bincount(row[cell] + edge, weights=step, minlength=n_rows * width)
    return share.reshape(n_rows, width)


def _annulus_pass(model: CapModel, sigmas, nu_edges: np.ndarray, mark: int,
                  n_nodes: int, n_theta: int) -> np.ndarray:
    """Masses of the annuli of the rings sigmas on the nu cells, in one
    pass over the cap of the outermost ring.

    sigmas ascend (repeats allowed) and nu_edges strictly ascend. Row j of
    the result holds the annulus sigma_j-1 < sigma <= sigma_j (row 0 the
    cap of sigma_0, the last row what lies beyond sigma_-1); column k
    covers (e[k-1], e[k]], the last column everything above e[-1].

    Polar panels break where a ring meets a latitude line tangentially or
    closes it (phi_u +- sigma_j, sigma_j - phi_u), n_nodes sine-mapped
    nodes each; this rule, not the azimuth sampling, sets the error. Each
    slice is cut at n_theta uniform azimuth samples and at the ring
    boundaries +-arc_halfwidth_clamped, so every cell lies in one annulus,
    found from the mean of cos(sigma) at its ends (monotone in |offset|).
    A block leaves out the ring columns that add only zero-width cells:
    the outer ring's, which repeats the +-1 samples, those equal to it at
    every node and all but one of those 0 at every node. One stays because
    n_theta is even, so no sample is 0, and its +-0 split the middle cell.
    Doppler is taken linear in azimuth across a cell: a uniform law between
    its end values, deposited by _cell_shares, so no mass is negative. A
    point costs two sines, a Doppler value (factors of phi alone per row)
    and a nu lookup. A block is _N_ANNULUS_NODES polar nodes, whose cells
    are summed into each bin in turn: up to 33k terms with one ring and few
    nu edges.
    """
    shell, user = model.shell, model.user
    phi_u = user.user_polar_rad
    sigmas = np.asarray(sigmas, dtype=float)
    n_rows = sigmas.size + 1
    phi_lo, phi_hi, _ = _active_band(shell, user, float(sigmas[-1]))
    phi_hi = max(phi_lo, phi_hi)  # an empty cap: one panel of zero weights
    breaks = np.unique(np.concatenate((phi_u - sigmas, phi_u + sigmas,
                                       sigmas - phi_u)))
    breaks = breaks[(phi_lo < breaks) & (breaks < phi_hi)]
    phi_k, w_k = density_nodes(np.concatenate(([phi_lo], breaks, [phi_hi])), shell,
                               n_nodes)
    t = np.linspace(-1.0, 1.0, n_theta)

    def block(k: int) -> np.ndarray:
        phi = phi_k[k:k + _N_ANNULUS_NODES, None]
        ring = arc_halfwidth_clamped(user, phi, sigmas)
        outer, ring = ring[:, -1:], ring[:, :-1]
        zero = ~ring.any(axis=0)
        keep = ~(zero | (ring == outer).all(axis=0))
        keep[np.flatnonzero(zero)[:1]] = True
        ring = ring[:, keep]
        off = np.sort(np.concatenate((outer * t, ring, -ring), axis=1), axis=1)
        # theta = pi/2 + off; a cell's annulus from twice its mean cos(sigma)
        v, cos_s = _doppler_hz(shell, user, np.cos(off), -np.sin(off), phi, mark)[:2]
        row = np.searchsorted(-2.0 * np.cos(sigmas), -(cos_s[:, 1:] + cos_s[:, :-1]))
        weight = np.diff(off, axis=1)
        del off, cos_s
        weight *= w_k[k:k + _N_ANNULUS_NODES, None] / (2.0 * math.pi * model.p_sat)
        return _cell_shares(v, nu_edges, row, n_rows, weight)

    # blocks go to the worker threads eight at a time, which bounds the
    # partial sums held at once; they are added in block order, so the
    # result does not depend on the thread count
    starts = range(0, phi_k.size, _N_ANNULUS_NODES)
    mass = np.zeros((n_rows, nu_edges.size + 1))
    for k in range(0, len(starts), 8):
        for part in parallel.ordered_map(block, starts[k:k + 8]):
            mass += part
    return mass


def doppler_cdf_grid(model: CapModel, nu_edges, mark: int,
                     cap_sigma: float | None = None) -> np.ndarray:
    """Doppler CDF at every value of nu_edges (any order, any shape).

    With cap_sigma set, conditions on the sub-cap of that central angle
    while keeping the full-cap normalisation (the joint-CDF convention).
    From sigma_max on, past which no satellite is visible, it is the
    full-cap CDF; a NaN cap_sigma gives NaN. A mark other than +-1 is a DomainError.

    The one-ring annulus pass over the distinct values, _N_NODES polar
    nodes per panel and _N_THETA azimuth samples per slice: the CDF is the
    running sum of its column totals, so it never decreases along
    ascending nu, not even by rounding. NaN values stay out of the pass
    (np.unique sorts them last) and give NaN.
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
    mass = _annulus_pass(model, [cap_sigma], e[:n], mark, _N_NODES,
                         _N_THETA).sum(axis=0)
    cdf = np.append(np.cumsum(mass[:-1]), e[n:])
    return cdf[back.ravel()].reshape(nu.shape)


def doppler_cdf(model: CapModel, nu_hz: float, mark: int,
                cap_sigma: float | None = None) -> float:
    """CDF of the Doppler shift of a visible satellite on the given mark
    (doppler_cdf_grid at the single value nu_hz)."""
    return float(doppler_cdf_grid(model, nu_hz, mark, cap_sigma))


def doppler_pdf_grid(model: CapModel, nu_step_hz: float = DOPPLER_NU_STEP_HZ):
    """Doppler CDFs and mark-mixed PDF on the nu edges that pad one cell
    beyond the support: (edges, ascending CDF, descending CDF, pdf).

    One ascending pass over the edges and +inf gives both marks: the edges
    are exactly antisymmetric, so F_-(nu) = T - F_+(-nu), T the value at
    +inf, is 0 below the support and never negative. The pdf is the
    forward difference of the mixed CDF, non-negative as the CDF never falls.
    """
    edges = nu_edges(model, nu_step_hz, 1)
    f = doppler_cdf_grid(model, np.append(edges, math.inf), 1)
    up, down = f[:-1], f[-1] - f[-2::-1]
    return edges, up, down, np.diff(0.5 * (up + down)) / nu_step_hz


def joint_pdf_grid(model: CapModel, nu_step_hz: float = NU_STEP_HZ,
                   tau_step_s: float = TAU_STEP_S, mark: int = 1) -> np.ndarray:
    """Joint delay-Doppler PDF for one mark, in one pass over the cap.

    Delay is a function of the central angle, so the delay cell between
    two (clipped) edges is the annulus sigma_j < sigma <= sigma_j+1: the
    annulus pass with the rings at the delay edges, _N_ANNULUS_NODES
    polar nodes per panel and _N_ANNULUS_THETA azimuth samples per slice.
    A pdf cell is a deposited mass: none is negative, the padding rows
    outside the delay support are exactly zero, and the joint CDF, the
    cumulative sum of the cells, rises in tau and nu by construction. The
    nu edges pad no cell: trapezoid integrals then lose half the mass a too
    coarse step leaves in the outer columns, which the normalisation check
    detects.

    Returns the pdf matrix, shape (n_tau_cells, n_nu_cells), on the cells
    of tau_edges(model, tau_step_s) and nu_edges(model, nu_step_hz, 0).
    A mark other than +-1 is a DomainError.
    """
    if mark not in (1, -1):
        raise DomainError(f"mark {mark!r} is neither +1 (ascending) nor -1 (descending)")
    sigmas = delay_inverse(model.shell, np.clip(tau_edges(model, tau_step_s),
                                                *model.delay_bounds))
    mass = _annulus_pass(model, sigmas, nu_edges(model, nu_step_hz, 0), mark,
                         _N_ANNULUS_NODES, _N_ANNULUS_THETA)
    return mass[1:-1, 1:-1] / (nu_step_hz * tau_step_s)


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
    """Vectorised nu -> mark-mixed Doppler CDF, interpolated in the
    doppler_pdf_grid table of _DOPPLER_TABLE edges on the support."""
    edges, up, down, _ = doppler_pdf_grid(model, 1.0001 * model.nu_max_hz
                                          / (_DOPPLER_TABLE // 2))
    f = 0.5 * (up + down)

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
