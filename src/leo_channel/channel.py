"""The random linear time-varying channel seen through one visible satellite.

The second-order description is a scattering function on the delay-Doppler
plane: the mark-mixed joint density scaled by the availability and by the
instantaneous gain 1/(c tau)^2 (which equals the gain at the central angle
reached in delay tau). One kernel pass gives both marks: the descending
joint density is the ascending one mirrored in Doppler. Global channel
parameters are moments of the normalised scattering function; the
normalising power gain rho^2 comes from a one-dimensional integral, which
is far more accurate than the binned grid, and doubles as an independent
cross-check on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ResolutionError
from .distributions import (JointGridSpec, centers, gain_nodes, joint_pdf_grid,
                            nu_edges, tau_edges)
from .visibility import CapModel

# the normalisation budget of a scattering grid (global_params, validate)
MAX_NORMALIZATION_ERROR = 0.02


@dataclass(frozen=True)
class ScatteringGrid:
    """Binned scattering function: power density per (s * Hz) cell, with
    the delay and Doppler centres of its rows and columns."""

    spec: JointGridSpec
    values: np.ndarray  # shape (n_tau_cells, n_nu_cells)
    p_a: float
    tau_s: np.ndarray
    nu_hz: np.ndarray

    def cell_sum(self) -> float:
        """Plain binned integral: sum of values times the cell area."""
        return float(self.values.sum() * self.spec.nu_step_hz * self.spec.tau_step_s)

    def trapezoid_integral(self) -> float:
        """Trapezoid-rule integral over cell centres; unlike the cell sum
        it degrades when the grid under-resolves the support edges, which
        makes it the resolution check."""
        return float(np.trapezoid(np.trapezoid(self.values, self.nu_hz, axis=1),
                                  self.tau_s))

    def dual_path_loss_gap(self, rho2: float) -> float:
        """Relative gap of the cell sum to rho^2 from the proposition."""
        return abs(self.cell_sum() / rho2 - 1.0)

    def normalization_error(self, rho2: float) -> float:
        """Larger relative gap to rho^2: trapezoid integral or cell sum."""
        return max(abs(self.trapezoid_integral() / rho2 - 1.0),
                   self.dual_path_loss_gap(rho2))


@dataclass(frozen=True)
class ChannelSummary:
    """Global channel parameters; mean Doppler is zero by definition, the
    grid's own (small, resolution-limited) mean is kept as a diagnostic."""

    path_loss_db: float
    mean_delay_s: float
    rms_delay_spread_s: float
    mean_doppler_hz: float
    rms_doppler_spread_hz: float
    channel_spread: float
    availability: float
    grid_mean_doppler_hz: float
    normalization_error: float


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


def scattering_function(model: CapModel, spec: JointGridSpec | None = None,
                        fading_mean_power: float = 1.0) -> ScatteringGrid:
    """Binned scattering function over the delay-Doppler support.

    Fading with the given mean power multiplies the whole surface but is
    otherwise invisible to second-order statistics, so unit-mean fading
    (the Rayleigh extension) reproduces the unfaded grid exactly.
    """
    spec, pdf_up = joint_pdf_grid(model, spec, mark=1)
    p_a = model.availability
    c = model.shell.light_speed_mps
    tau_c = centers(tau_edges(model, spec.tau_step_s))
    gain_at_tau = 1.0 / (c * tau_c) ** 2
    # the descending grid is the ascending one reversed in nu
    values = ((fading_mean_power * p_a / 2.0) * gain_at_tau[:, None]
              * (pdf_up + pdf_up[:, ::-1]))
    return ScatteringGrid(spec=spec, values=values, p_a=p_a, tau_s=tau_c,
                          nu_hz=centers(nu_edges(model, spec.nu_step_hz, 0)))


def grid_moments(grid: ScatteringGrid, rho2: float):
    """(mean delay, rms delay spread, rms doppler spread, grid mean doppler)
    of the grid normalised by rho2."""
    cell = grid.spec.nu_step_hz * grid.spec.tau_step_s
    tau_c, nu_c = grid.tau_s, grid.nu_hz
    mass_tau = grid.values.sum(axis=1) * cell / rho2
    mass_nu = grid.values.sum(axis=0) * cell / rho2
    mean_tau = float(np.dot(mass_tau, tau_c))
    var_tau = float(np.dot(mass_tau, (tau_c - mean_tau) ** 2))
    second_nu = float(np.dot(mass_nu, nu_c ** 2))
    mean_nu = float(np.dot(mass_nu, nu_c))
    return mean_tau, math.sqrt(max(var_tau, 0.0)), math.sqrt(max(second_nu, 0.0)), mean_nu


def global_params(model: CapModel, spec: JointGridSpec | None = None,
                  grid: ScatteringGrid | None = None) -> ChannelSummary:
    """Global channel parameters from the scattering grid.

    rho^2 is taken from the proposition integral rather than the grid;
    the grid's integrals must agree with it within MAX_NORMALIZATION_ERROR
    or the grid is too coarse (ResolutionError).
    """
    if grid is None:
        grid = scattering_function(model, spec)
    rho2, pl_db = path_loss_proposition(model)
    norm_err = grid.normalization_error(rho2)
    if norm_err > MAX_NORMALIZATION_ERROR:
        raise ResolutionError(
            f"scattering grid normalization off by {norm_err:.2%} "
            f"(budget {MAX_NORMALIZATION_ERROR:.0%}); refine the grid"
        )
    mean_tau, rms_tau, rms_nu, grid_mean_nu = grid_moments(grid, rho2)
    return ChannelSummary(
        path_loss_db=pl_db,
        mean_delay_s=mean_tau,
        rms_delay_spread_s=rms_tau,
        mean_doppler_hz=0.0,
        rms_doppler_spread_hz=rms_nu,
        channel_spread=2.0 * rms_tau * rms_nu,
        availability=grid.p_a,
        grid_mean_doppler_hz=grid_mean_nu,
        normalization_error=norm_err,
    )
