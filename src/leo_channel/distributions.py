"""Analytic distributions of gain, delay and Doppler for a visible satellite.

Gain and delay depend on the central angle alone, so their CDFs are
reparameterisations of the cap probability and their PDFs follow from its
cos-sigma derivative. The Doppler shift also depends on azimuth, so its
CDF is a double integral over the cap, taken by a fixed rule: sine-mapped
Gauss-Legendre nodes in argument-of-latitude space for the polar integral,
and per node an azimuth sampling of the cap slice whose cells are uniform
laws in nu, each deposited exactly onto the nu values it lies below or
straddles.

Two passes share that deposit. doppler_cdf_grid covers one (sub-)cap on
a whole set of nu values at once; the scalar Doppler and joint CDFs and
the Doppler PDF grid go through it. The joint delay-Doppler PDF grid is
one pass over the full cap: delay is a function of the central angle, so
each delay cell is an annulus, and cutting every slice at the rings'
closed-form boundaries puts each azimuth cell in exactly one annulus.
The test suite checks the first against an adaptive scan-plus-bisection
route and a brute-force Riemann sum, the second against one nested
sub-cap row per delay edge with four times the polar nodes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .propagation import (
    delay_inverse, doppler_hz_arrays, gain as gain_fn, gain_inverse)
from . import parallel
from .quadrature import density_nodes, sine_mapped_panels
from .visibility import CapModel, _active_band, arc_halfwidth_clamped

# azimuth samples per cap slice of the Doppler kernel
_N_THETA = 1024
# bound on the (polar nodes x nu values) shares one kernel block holds
_WORKSPACE = 1 << 20
# sine-mapped polar nodes per panel of the annulus pass, and per block
_N_ANNULUS_NODES = 64
# Gauss-Legendre nodes per panel of the gain-support rule
_N_GAIN_NODES = 64
# sizes of the tables behind the batch CDFs
_PCAP_TABLE = 2001
_DOPPLER_TABLE = 2001


# ---------------------------------------------------------------------------
# grid specifications

@dataclass(frozen=True)
class DopplerGridSpec:
    """Uniform nu grid; unresolved bounds default to +-nu_max with one
    padding cell so the support is strictly covered."""

    nu_step_hz: float = 2.65e3
    nu_min_hz: float | None = None
    nu_max_hz: float | None = None

    def __post_init__(self):
        if self.nu_step_hz <= 0:
            raise ValueError("nu_step_hz must be positive")
        if self.nu_min_hz is not None and self.nu_max_hz is not None:
            if self.nu_min_hz >= self.nu_max_hz:
                raise ValueError("nu_min_hz must be below nu_max_hz")

    def resolve(self, model: CapModel) -> "DopplerGridSpec":
        if self.nu_min_hz is not None and self.nu_max_hz is not None:
            return self
        half = (math.ceil(model.nu_max_hz / self.nu_step_hz) + 1) * self.nu_step_hz
        return replace(self, nu_min_hz=-half, nu_max_hz=half)

    def nu_edges(self) -> np.ndarray:
        n = math.ceil((self.nu_max_hz - self.nu_min_hz) / self.nu_step_hz - 1e-9)
        return self.nu_min_hz + self.nu_step_hz * np.arange(n + 1)

    def nu_centers(self) -> np.ndarray:
        e = self.nu_edges()
        return 0.5 * (e[:-1] + e[1:])


@dataclass(frozen=True)
class JointGridSpec:
    """Uniform (tau, nu) grid covering the full delay-Doppler support."""

    nu_step_hz: float = 2.61e3
    tau_step_s: float = 2.8e-5
    nu_min_hz: float | None = None
    nu_max_hz: float | None = None
    tau_min_s: float | None = None
    tau_max_s: float | None = None

    def __post_init__(self):
        if self.nu_step_hz <= 0 or self.tau_step_s <= 0:
            raise ValueError("grid steps must be positive")

    def resolve(self, model: CapModel) -> "JointGridSpec":
        out = self
        if out.nu_min_hz is None or out.nu_max_hz is None:
            # tight cover (no padding cell): trapezoid integrals then lose
            # half of whatever mass a too-coarse step leaves in the
            # outermost columns, which is what the resolution check detects
            half = math.ceil(model.nu_max_hz / out.nu_step_hz) * out.nu_step_hz
            out = replace(out, nu_min_hz=-half, nu_max_hz=half)
        if out.tau_min_s is None or out.tau_max_s is None:
            tau_lo, tau_hi = model.delay_bounds
            out = replace(out, tau_min_s=tau_lo, tau_max_s=tau_hi)
        return out

    def nu_edges(self) -> np.ndarray:
        n = math.ceil((self.nu_max_hz - self.nu_min_hz) / self.nu_step_hz - 1e-9)
        return self.nu_min_hz + self.nu_step_hz * np.arange(n + 1)

    def tau_edges(self) -> np.ndarray:
        # one padding cell each side: the outermost rows carry no mass, so
        # trapezoid integrals see the support edges instead of cutting them
        n = math.ceil((self.tau_max_s - self.tau_min_s) / self.tau_step_s - 1e-9)
        return self.tau_min_s + self.tau_step_s * (np.arange(n + 3) - 1)

    def nu_centers(self) -> np.ndarray:
        e = self.nu_edges()
        return 0.5 * (e[:-1] + e[1:])

    def tau_centers(self) -> np.ndarray:
        e = self.tau_edges()
        return 0.5 * (e[:-1] + e[1:])


# ---------------------------------------------------------------------------
# gain and delay

def gain_cdf(model: CapModel, g: float) -> float:
    g_min, g_max = model.gain_bounds
    if g <= g_min:
        return 0.0
    if g >= g_max:
        return 1.0
    val = 1.0 - model.p_cap(gain_inverse(model.shell, g)) / model.p_sat
    return min(1.0, max(0.0, val))


def gain_pdf(model: CapModel, g: float) -> float:
    g_min, g_max = model.gain_bounds
    g = min(max(g, g_min), g_max)
    r, big_r = model.shell.earth_radius_m, model.shell.shell_radius_m
    # the support end is sigma_min exactly; gain_inverse would round it to
    # ~1e-8 rad, where the zenith-edge derivative loses digits
    sigma = (model.user.sigma_min_rad if g == g_max
             else gain_inverse(model.shell, g))
    return -model.p_cap_prime(sigma) / (2.0 * g * g * r * big_r * model.p_sat)


def delay_cdf(model: CapModel, tau: float) -> float:
    tau_lo, tau_hi = model.delay_bounds
    if tau <= tau_lo:
        return 0.0
    if tau >= tau_hi:
        return 1.0
    val = model.p_cap(delay_inverse(model.shell, tau)) / model.p_sat
    return min(1.0, max(0.0, val))


def delay_pdf(model: CapModel, tau: float) -> float:
    tau_lo, tau_hi = model.delay_bounds
    tau = min(max(tau, tau_lo), tau_hi)
    shell = model.shell
    sigma = (model.user.sigma_min_rad if tau == tau_lo
             else delay_inverse(shell, tau))
    c = shell.light_speed_mps
    return (-model.p_cap_prime(sigma) * c * c * tau
            / (shell.earth_radius_m * shell.shell_radius_m * model.p_sat))


# ---------------------------------------------------------------------------
# Doppler

def _cell_shares(v: np.ndarray, e: np.ndarray, row, n_rows: int,
                 weight=1.0) -> np.ndarray:
    """Deposit the cells of v onto sorted edges, summed per output row.

    Row i of v holds Doppler values along one cap slice; each pair of
    neighbours bounds a cell, a uniform law between its two values that
    carries weight (a scalar or one value per cell). row gives the output
    row of each cell (broadcast to the cells' shape). Column k of the
    result covers (e[k-1], e[k]], the last column everything above e[-1].
    Every share is non-negative when the weights are.
    """
    lo = np.minimum(v[:, :-1], v[:, 1:]).ravel()
    hi = np.maximum(v[:, :-1], v[:, 1:]).ravel()
    weight = np.broadcast_to(weight, v[:, 1:].shape).ravel()
    first = np.searchsorted(e, lo, side="right")  # first edge above lo
    last = np.searchsorted(e, hi, side="left")    # first edge at or above hi
    # the cells that straddle edges, and those edges, ascending per cell
    cut = np.flatnonzero(last > first)
    n_cut = last[cut] - first[cut]
    ends = np.cumsum(n_cut)
    starts = ends - n_cut
    cell = np.repeat(cut, n_cut)
    edge = np.repeat(first[cut] - starts, n_cut) + np.arange(cell.size)
    frac = (e[edge] - lo[cell]) / (hi[cell] - lo[cell])
    # a straddled edge takes the share since the previous straddled edge,
    # the first edge at or above hi takes the rest
    step = np.diff(frac, prepend=0.0)
    step[starts] = frac[starts]
    top = np.zeros_like(lo)
    top[cut] = frac[ends - 1]
    width = e.size + 1
    row = np.broadcast_to(row, v[:, 1:].shape).ravel() * width
    share = np.bincount(row + last, weights=(1.0 - top) * weight,
                        minlength=n_rows * width)
    share += np.bincount(row[cell] + edge, weights=step * weight[cell],
                         minlength=n_rows * width)
    return share.reshape(n_rows, width)


def doppler_cdf_grid(model: CapModel, nu_edges, mark: int,
                     cap_sigma: float | None = None) -> np.ndarray:
    """Doppler CDF at every value of nu_edges (any order, any shape).

    With cap_sigma set, conditions on the sub-cap of that central angle
    while keeping the full-cap normalisation (the joint-CDF convention).

    The (sub-)cap is cut into cells by Gauss-Legendre nodes in polar angle
    and a uniform azimuth sampling of each slice. Doppler is taken linear in
    azimuth across a cell, so a cell is a uniform law on [lo, hi] between
    its end values: its mass counts in full at every edge at or above hi,
    and by the covered fraction (e - lo) / (hi - lo) at an edge it straddles.
    Masses are summed per slice before they are summed over slices, and the
    result never decreases along ascending nu, not even by rounding.
    """
    shell, user = model.shell, model.user
    if cap_sigma is None:
        cap_sigma = user.sigma_max_rad
    nu = np.asarray(nu_edges, dtype=float)
    phi_lo, phi_hi, breaks = _active_band(shell, user, cap_sigma)
    if phi_lo >= phi_hi:
        return np.zeros_like(nu)
    phi_k, w_k = density_nodes(phi_lo, phi_hi, shell, breakpoints=breaks)
    half = arc_halfwidth_clamped(user, phi_k, cap_sigma)
    cell_mass = (w_k * half * (2.0 / (_N_THETA - 1))
                 / (2.0 * math.pi * model.p_sat))
    t = np.linspace(-1.0, 1.0, _N_THETA)

    order = np.argsort(nu.ravel(), kind="stable")
    e = nu.ravel()[order]
    mass = np.zeros(e.size + 1)
    block = max(1, _WORKSPACE // (e.size + 1))
    for k in range(0, phi_k.size, block):
        rows = slice(k, k + block)
        theta = user.user_azimuth_rad + half[rows, None] * t
        v = doppler_hz_arrays(shell, user, theta, phi_k[rows, None], mark)
        shares = _cell_shares(v, e, np.arange(v.shape[0])[:, None], v.shape[0])
        mass += (cell_mass[rows, None] * shares).sum(axis=0)
    out = np.empty(e.size)
    out[order] = np.cumsum(mass[:-1])
    return out.reshape(nu.shape)


def doppler_cdf(model: CapModel, nu_hz: float, mark: int,
                cap_sigma: float | None = None) -> float:
    """CDF of the Doppler shift of a visible satellite on the given mark
    (doppler_cdf_grid at the single value nu_hz)."""
    return float(doppler_cdf_grid(model, nu_hz, mark, cap_sigma))


def doppler_cdf_mixed(model: CapModel, nu_hz: float) -> float:
    """Equal-weight mixture over ascending and descending marks."""
    return 0.5 * (doppler_cdf(model, nu_hz, 1) + doppler_cdf(model, nu_hz, -1))


def joint_cdf(model: CapModel, nu_hz: float, tau: float, mark: int) -> float:
    """Joint delay-Doppler CDF: the Doppler integral over the sub-cap
    reached within delay tau, normalised by the full-cap probability."""
    tau_lo, tau_hi = model.delay_bounds
    tau = min(max(tau, tau_lo), tau_hi)
    return doppler_cdf(model, nu_hz, mark,
                       cap_sigma=delay_inverse(model.shell, tau))


def doppler_pdf_grid(model: CapModel, spec: DopplerGridSpec | None = None
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Mark-mixed Doppler PDF by forward differences of the grid CDF.

    Returns (nu_centers, pdf); the pdf is non-negative because the grid
    CDF never decreases.
    """
    spec = (spec or DopplerGridSpec()).resolve(model)
    edges = spec.nu_edges()
    f = 0.5 * (doppler_cdf_grid(model, edges, 1)
               + doppler_cdf_grid(model, edges, -1))
    return spec.nu_centers(), np.diff(f) / spec.nu_step_hz


def joint_pdf_grid(model: CapModel, spec: JointGridSpec | None = None,
                   mark: int = 1) -> tuple[JointGridSpec, np.ndarray]:
    """Joint delay-Doppler PDF for one mark, in one pass over the cap.

    Delay is a function of the central angle, so the delay cell between
    two (clipped) edges is the annulus sigma_j < sigma <= sigma_j+1. The
    polar panels break where a ring meets a latitude line tangentially or
    closes it (phi_u +- sigma_j, sigma_j - phi_u), _N_ANNULUS_NODES
    sine-mapped nodes each. Each slice's azimuth range is cut at the
    uniform samples and at the ring boundaries +-arc_halfwidth_clamped,
    so every cell lies in one annulus, found from its midpoint, and its
    mass is deposited on the nu edges exactly, as in doppler_cdf_grid.
    A pdf cell is a deposited mass: none is negative, the padding rows
    outside the delay support are exactly zero, and the joint CDF, the
    cumulative sum of the cells, rises in tau and nu by construction.

    Returns (resolved spec, pdf matrix with shape (n_tau_cells, n_nu_cells)).
    """
    spec = (spec or JointGridSpec()).resolve(model)
    shell, user = model.shell, model.user
    phi_u = user.user_polar_rad
    sigmas = delay_inverse(shell, np.clip(spec.tau_edges(), *model.delay_bounds))
    e = spec.nu_edges()
    n_rows = sigmas.size + 1  # row j: sigma_j-1 < sigma <= sigma_j
    phi_lo, phi_hi, _ = _active_band(shell, user, float(sigmas[-1]))
    breaks = np.unique(np.concatenate((phi_u - sigmas, phi_u + sigmas,
                                       sigmas - phi_u)))
    phi_k, w_k = density_nodes(phi_lo, phi_hi, shell, breaks, _N_ANNULUS_NODES)
    t = np.linspace(-1.0, 1.0, _N_THETA)

    def block(k: int) -> np.ndarray:
        phi = phi_k[k:k + _N_ANNULUS_NODES, None]
        ring = arc_halfwidth_clamped(user, phi, sigmas)
        off = np.sort(np.concatenate((ring[:, -1:] * t, ring, -ring), axis=1),
                      axis=1)
        v = doppler_hz_arrays(shell, user, user.user_azimuth_rad + off, phi,
                              mark)
        cos_mid = (math.cos(phi_u) * np.cos(phi) + math.sin(phi_u)
                   * np.sin(phi) * np.cos(0.5 * (off[:, 1:] + off[:, :-1])))
        row = np.searchsorted(-np.cos(sigmas), -cos_mid.ravel())
        weight = (w_k[k:k + _N_ANNULUS_NODES, None]
                  / (2.0 * math.pi * model.p_sat)) * np.diff(off, axis=1)
        return _cell_shares(v, e, row.reshape(cos_mid.shape), n_rows, weight)

    # blocks go to the worker threads eight at a time, which bounds the
    # partial sums held at once; they are added in block order, so the
    # result does not depend on the thread count
    starts = range(0, phi_k.size, _N_ANNULUS_NODES)
    mass = np.zeros((n_rows, e.size + 1))
    for k in range(0, len(starts), 8):
        for part in parallel.ordered_map(block, starts[k:k + 8]):
            mass += part
    return spec, mass[1:-1, 1:-1] / (spec.nu_step_hz * spec.tau_step_s)


# ---------------------------------------------------------------------------
# batch evaluation for large sample sets (KS tests, CSV sweeps)

def pcap_interpolator(model: CapModel):
    """Vectorised sigma -> p_cap via a dense precomputed table.

    p_cap is smooth on the support, so linear interpolation at this
    density is accurate to ~1e-9 of p_sat; callers needing more evaluate
    model.p_cap directly.
    """
    lo, hi = model.user.sigma_min_rad, model.user.sigma_max_rad
    grid = np.linspace(lo, hi, _PCAP_TABLE)
    table = np.array([model.p_cap(float(s)) for s in grid])

    def interp(sigma):
        return np.interp(np.asarray(sigma, dtype=float), grid, table,
                         left=0.0, right=model.p_sat)

    return interp


def gain_cdf_batch(model: CapModel, g, pcap=None) -> np.ndarray:
    g = np.asarray(g, dtype=float)
    g_min, g_max = model.gain_bounds
    pcap = pcap or pcap_interpolator(model)
    sigma = gain_inverse(model.shell, np.clip(g, g_min, g_max))
    out = 1.0 - pcap(sigma) / model.p_sat
    return np.clip(np.where(g <= g_min, 0.0, np.where(g >= g_max, 1.0, out)),
                   0.0, 1.0)


def delay_cdf_batch(model: CapModel, tau, pcap=None) -> np.ndarray:
    tau = np.asarray(tau, dtype=float)
    tau_lo, tau_hi = model.delay_bounds
    pcap = pcap or pcap_interpolator(model)
    sigma = delay_inverse(model.shell, np.clip(tau, tau_lo, tau_hi))
    out = pcap(sigma) / model.p_sat
    return np.clip(np.where(tau <= tau_lo, 0.0, np.where(tau >= tau_hi, 1.0, out)),
                   0.0, 1.0)


def doppler_mixed_interpolator(model: CapModel):
    """Vectorised nu -> mark-mixed Doppler CDF via a dense grid pass."""
    bound = 1.0001 * model.nu_max_hz
    edges = np.linspace(-bound, bound, _DOPPLER_TABLE)
    f = 0.5 * (doppler_cdf_grid(model, edges, 1)
               + doppler_cdf_grid(model, edges, -1))

    def interp(nu):
        return np.interp(np.asarray(nu, dtype=float), edges, f,
                         left=0.0, right=1.0)

    return interp


def doppler_cdf_mixed_batch(model: CapModel, nu) -> np.ndarray:
    """Mark-mixed Doppler CDF at arbitrary nu values via a dense grid pass."""
    return doppler_mixed_interpolator(model)(nu)


# ---------------------------------------------------------------------------
# integrals over the gain support

def gain_nodes(model: CapModel):
    """Fixed rule for integrals over the gain support [g_min, g_max]:
    nodes g_k, weights w_k and the cap probabilities p_cap(G^-1(g_k)).

    p_cap(G^-1(g)) has a kink wherever the cap boundary crosses a band
    edge, at sigma = phi_u - b, b - phi_u, pi - b - phi_u and phi_u + b
    (b the polar inclination); the support is split there into
    sine-mapped panels.
    """
    shell, user = model.shell, model.user
    phi_u, b_bar = user.user_polar_rad, shell.polar_inclination_rad
    kinks = [gain_fn(shell, s)
             for s in (phi_u - b_bar, b_bar - phi_u, math.pi - b_bar - phi_u,
                       phi_u + b_bar)
             if user.sigma_min_rad < s < user.sigma_max_rad]
    g_min, g_max = model.gain_bounds
    g, w = sine_mapped_panels(g_min, g_max, kinks, _N_GAIN_NODES)
    p = np.array([model.p_cap(s) for s in gain_inverse(shell, g)])
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
    g_min = model.gain_bounds[0]
    g, w, pcap = gain_nodes(model)
    out = np.empty_like(y)
    for lo in range(0, y.size, 65536):  # bound the (chunk, nodes) workspace
        yy = y[lo:lo + 65536, None]
        integ = np.sum(w * pcap * np.exp(-yy / g) * (yy / (g * g)), axis=1)
        out[lo:lo + 65536] = 1.0 - np.exp(-yy[:, 0] / g_min) - integ / model.p_sat
    return np.where(y <= 0.0, 0.0, np.clip(out, 0.0, 1.0))
