"""The random linear time-varying channel seen through one visible satellite.

The second-order description is a scattering function on the delay-Doppler
plane: the mark-mixed joint density scaled by the availability and by the
instantaneous gain 1/(c tau)^2 (which equals the gain at the central angle
reached in delay tau). The global channel parameters are read off the
model, not off a grid: the path loss from a one-dimensional integral in
gain, rho^2, which a grid carries to check its cell sum, and the delay and
Doppler moments from a product rule on the cap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# joint_pdf_grid and path_loss_proposition are looked up here: a profiler patches them
from .distributions import (_N_GAIN_NODES, NU_STEP_HZ, TAU_STEP_S, centers, gain_nodes,
                            joint_pdf_grid, nu_edges, tau_edges)
from .propagation import _doppler_hz
from .quadrature import density_nodes, sine_mapped_panels
from .visibility import CapModel, _active_band, arc_halfwidth_clamped

# the normalisation budget of a scattering grid (scattering's exit 4, validate)
MAX_NORMALIZATION_ERROR = 0.02
# the global-parameter rule cuts each polar panel and each cap slice into this
# many panels of _N_GAIN_NODES nodes, reusing the Gauss rule that the gain
# integrals have already built rather than building a third size
_MOMENT_SPLIT = 2


@dataclass(frozen=True)
class ScatteringGrid:
    """Binned scattering function: power density per (s * Hz) cell, the
    delay and Doppler centres of its rows and columns, and the proposition's rho^2."""

    nu_step_hz: float
    tau_step_s: float
    values: np.ndarray  # shape (n_tau_cells, n_nu_cells)
    tau_s: np.ndarray
    nu_hz: np.ndarray
    rho2: float

    def cell_sum(self) -> float:
        """Plain binned integral: sum of values times the cell area."""
        return float(self.values.sum() * self.nu_step_hz * self.tau_step_s)

    def trapezoid_integral(self) -> float:
        """Trapezoid-rule integral over cell centres; unlike the cell sum
        it degrades when the grid under-resolves the support edges, which
        makes it the resolution check."""
        return float(np.trapezoid(np.trapezoid(self.values, self.nu_hz, axis=1),
                                  self.tau_s))

    def dual_path_loss_gap(self) -> float:
        """Relative gap of the cell sum to rho^2."""
        return abs(self.cell_sum() / self.rho2 - 1.0)

    def normalization_error(self) -> float:
        """Larger relative gap to rho^2: trapezoid integral or cell sum."""
        return max(abs(self.trapezoid_integral() / self.rho2 - 1.0),
                   self.dual_path_loss_gap())

    def mean_doppler_hz(self) -> float:
        """Binned mean Doppler over rho^2: 0 in the model, so binning error."""
        mass_nu = self.values.sum(axis=0) * (self.nu_step_hz * self.tau_step_s) / self.rho2
        return float(np.dot(mass_nu, self.nu_hz))


@dataclass(frozen=True)
class ChannelSummary:
    """Global channel parameters; mean Doppler is 0 by the mirror identity."""

    path_loss_db: float
    mean_delay_s: float
    rms_delay_spread_s: float
    mean_doppler_hz: float
    rms_doppler_spread_hz: float
    channel_spread: float
    availability: float


def path_loss_proposition(model: CapModel) -> tuple[float, float]:
    """(rho^2, path loss in dB) from the one-dimensional gain integral.

    rho^2 = p_a * E[gain | visible], with E[gain] = g_min plus the
    integral of the tail probability p_cap(G^-1(g))/p_sat over the gain
    support (the CDF is identically zero below g_min, so the identity
    E[X] = integral of (1 - F) picks up the full g_min mass).
    """
    _, w, p = gain_nodes(model)
    rho2 = model.availability * (model.gain_bounds[0]
                                 + float(w @ p) / model.p_sat)
    return rho2, -10.0 * math.log10(rho2)


def scattering_function(model: CapModel, nu_step_hz: float = NU_STEP_HZ,
                        tau_step_s: float = TAU_STEP_S) -> ScatteringGrid:
    """Binned scattering function over the delay-Doppler support.

    Rayleigh extension: fading independent of the geometry scales each
    cell by its mean power and changes nothing else, so unit-mean fading
    leaves this grid and every global parameter as they are. The faded
    gain law (distributions.rayleigh_gain_cdf_grid) keeps the mean gain
    of path_loss_proposition.
    """
    tau_c = centers(tau_edges(model, tau_step_s))
    scale = model.availability / (model.shell.light_speed_mps * tau_c) ** 2  # p_A g(tau)
    values = scale[:, None] * joint_pdf_grid(model, nu_step_hz, tau_step_s)
    return ScatteringGrid(nu_step_hz=nu_step_hz, tau_step_s=tau_step_s, values=values,
                          tau_s=tau_c, nu_hz=centers(nu_edges(model, nu_step_hz, 0)),
                          rho2=path_loss_proposition(model)[0])


def _gain_moments(model: CapModel) -> list[float]:
    """E[g], E[g tau], E[g tau^2] and E[g nu^2] of a visible satellite: the
    polar rule on the cap's band, broken at sigma_max - phi_u, past which
    latitude lines fall fully inside the cap, times sine-mapped panels
    across each slice. One mark suffices, as the mirror identity keeps g
    and negates nu."""
    shell, user = model.shell, model.user
    sigma = user.sigma_max_rad
    lo, hi, inner = _active_band(shell, user, sigma)
    breaks = [inner] if lo < inner < hi else []
    e = np.linspace([lo, *breaks], [*breaks, hi], _MOMENT_SPLIT, endpoint=False, axis=1)
    phi, w_phi = density_nodes(np.append(e, hi), shell, _N_GAIN_NODES)
    h = arc_halfwidth_clamped(user, phi, sigma)
    off, w_off = sine_mapped_panels(np.outer(h, np.linspace(-1.0, 1.0, _MOMENT_SPLIT + 1)),
                                    _N_GAIN_NODES)
    # theta = pi/2 + off, as in the Doppler kernel
    nu, _, d2 = _doppler_hz(shell, user, np.cos(off), -np.sin(off), phi[:, None], 1)
    wg = w_phi[:, None] * w_off / (2.0 * math.pi * model.p_sat * d2)
    tau = np.sqrt(d2) / shell.light_speed_mps
    return [float((wg * x).sum()) for x in (1.0, tau, tau * tau, nu * nu)]


def global_params(model: CapModel) -> ChannelSummary:
    """Path loss from the proposition, delay and Doppler moments from
    _gain_moments; as g tau^2 = 1/c^2, rms^2 + mean^2 of the delay is 1/(c^2 E[g])."""
    g, g_tau, g_tau2, g_nu2 = _gain_moments(model)
    mean_tau = g_tau / g
    rms_tau = math.sqrt(max(g_tau2 / g - mean_tau * mean_tau, 0.0))
    rms_nu = math.sqrt(g_nu2 / g)
    return ChannelSummary(
        path_loss_db=path_loss_proposition(model)[1], mean_delay_s=mean_tau,
        rms_delay_spread_s=rms_tau, mean_doppler_hz=0.0, rms_doppler_spread_hz=rms_nu,
        channel_spread=2.0 * rms_tau * rms_nu, availability=model.availability)
