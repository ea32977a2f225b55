"""Analytic distributions of gain, delay and Doppler for a visible satellite.

Gain and delay depend on the central angle alone, so their CDFs are
reparameterisations of the cap probability and their PDFs follow from its
cos-sigma derivative. The Doppler shift also depends on azimuth, so its
CDF is a double integral over the cap. One fixed-rule kernel evaluates it
on a whole set of nu values at once: sine-mapped Gauss-Legendre nodes in
argument-of-latitude space for the polar integral, and per node a uniform
azimuth sampling of the cap slice whose cells are uniform laws in nu, each
deposited exactly onto the nu values it lies below or straddles. The
scalar Doppler and joint CDFs, the Doppler PDF grid and the joint
delay-Doppler PDF grid all go through it; the test suite checks it against
an adaptive scan-plus-bisection route and a brute-force Riemann sum.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace

import numpy as np

from .propagation import (
    delay_inverse, doppler_hz_arrays, gain as gain_fn, gain_inverse)
from .quadrature import density_nodes, sine_mapped_panels
from .visibility import CapModel, _active_band, arc_halfwidth_clamped

log = logging.getLogger(__name__)

# azimuth samples per cap slice of the Doppler kernel
_N_THETA = 1024
# bound on the (polar nodes x nu values) shares one kernel block holds
_WORKSPACE = 1 << 20
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

def _cell_shares(v: np.ndarray, e: np.ndarray) -> np.ndarray:
    """Per row of v, the share of its cells between consecutive sorted edges.

    Row r of v holds Doppler values at uniform azimuth samples of one cap
    slice; each pair of neighbours bounds a cell, a uniform law between its
    two values. Column i of the result covers (e[i-1], e[i]], the last
    column everything above e[-1]. Every share is non-negative.
    """
    lo = np.minimum(v[:, :-1], v[:, 1:]).ravel()
    hi = np.maximum(v[:, :-1], v[:, 1:]).ravel()
    first = np.searchsorted(e, lo, side="right")  # first edge above lo
    last = np.searchsorted(e, hi, side="left")    # first edge at or above hi
    # the edges strictly inside (lo, hi), ascending per cell; none if lo == hi
    n_cut = np.maximum(last - first, 0)
    ends = np.cumsum(n_cut)
    starts = ends - n_cut
    cell = np.repeat(np.arange(lo.size), n_cut)
    edge = first[cell] + np.arange(cell.size) - starts[cell]
    frac = (e[edge] - lo[cell]) / (hi[cell] - lo[cell])
    # a straddled edge takes the share since the previous straddled edge,
    # the first edge at or above hi takes the rest
    step = np.diff(frac, prepend=0.0)
    cut = n_cut > 0
    step[starts[cut]] = frac[starts[cut]]
    top = np.zeros_like(lo)
    top[cut] = frac[ends[cut] - 1]
    width = e.size + 1
    row = np.arange(lo.size) // (v.shape[1] - 1) * width
    share = np.bincount(row + last, weights=1.0 - top,
                        minlength=v.shape[0] * width)
    share += np.bincount(row[cell] + edge, weights=step,
                         minlength=v.shape[0] * width)
    return share.reshape(v.shape[0], width)


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
        mass += (cell_mass[rows, None] * _cell_shares(v, e)).sum(axis=0)
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
    """Joint delay-Doppler PDF for one mark: mixed second-order forward
    differences of the joint CDF over the (tau, nu) edge grid.

    Returns (resolved spec, pdf matrix with shape (n_tau_cells, n_nu_cells)).
    """
    from .parallel import ordered_map

    spec = (spec or JointGridSpec()).resolve(model)
    nu_edges = spec.nu_edges()
    tau_lo, tau_hi = model.delay_bounds
    tau_edges = np.clip(spec.tau_edges(), tau_lo, tau_hi)
    # the clipped padding edges repeat a sigma: one kernel row per distinct one
    sigmas, row_of_edge = np.unique(delay_inverse(model.shell, tau_edges),
                                    return_inverse=True)

    rows = ordered_map(
        lambda s: doppler_cdf_grid(model, nu_edges, mark, cap_sigma=float(s)),
        sigmas,
    )
    # delay first: the padding rows repeat a row, so their difference is
    # exactly zero before the Doppler difference is taken
    cdf = np.vstack(rows)[row_of_edge.ravel()]
    pdf = (np.diff(np.diff(cdf, axis=0), axis=1)
           / (spec.nu_step_hz * spec.tau_step_s))
    floor = -1e-6 * float(pdf.max(initial=0.0))
    negative = (pdf < 0.0) & (pdf > floor)
    if np.any(negative):
        log.info("joint_pdf_grid clamped %d tiny negative cells",
                 int(np.count_nonzero(negative)))
        pdf = np.where(negative, 0.0, pdf)
    return spec, pdf


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
