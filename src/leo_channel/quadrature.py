"""The package's one quadrature rule, for integrals against the orbital
polar density and over the gain support.

The polar density diverges like an inverse square root at the band edges.
Substituting the argument of latitude w (phi = pi/2 - arcsin(sin b sin w))
turns f(phi) dphi into dw/pi on a half-period, removing the singularity;
every integral against the density in this package goes through that
substitution, then through fixed sine-mapped Gauss-Legendre panels.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .geometry import ShellConfig

# Gauss-Legendre nodes per panel of the fixed rule
_N_NODES = 384


def omega_of_phi(phi, shell: ShellConfig):
    """Half-period argument of latitude for polar angle phi (decreasing map)."""
    arg = np.clip(np.cos(phi) / math.sin(shell.inclination_rad), -1.0, 1.0)
    return np.arcsin(arg)


def phi_of_omega(omega, shell: ShellConfig):
    """Polar angle reached at argument of latitude omega."""
    return np.pi / 2 - np.arcsin(math.sin(shell.inclination_rad) * np.sin(omega))


@functools.cache
def _gauss_rule(n: int):
    """Gauss-Legendre nodes and weights on [-1, 1], read-only and cached:
    leggauss solves an eigenproblem, too costly to repeat per grid row."""
    x, w = np.polynomial.legendre.leggauss(n)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def sine_mapped_panels(edges, n_nodes: int):
    """Fixed nodes/weights on the panels between consecutive edges.

    edges has shape (..., P + 1), ascending along its last axis; nodes and
    weights have shape (..., P * n_nodes), panel after panel. Each panel
    gets an n_nodes Gauss-Legendre rule under the substitution
    x = mid + half*sin(pi u / 2), whose vanishing endpoint Jacobian absorbs
    the square-root kinks the integrands here have at panel boundaries.
    """
    edges = np.asarray(edges, dtype=float)
    x, w = _gauss_rule(n_nodes)
    s = np.sin(0.5 * np.pi * x)
    j = 0.5 * np.pi * np.cos(0.5 * np.pi * x)
    lo, hi = edges[..., :-1, None], edges[..., 1:, None]
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    shape = edges.shape[:-1] + (-1,)
    return (mid + half * s).reshape(shape), (w * j * half).reshape(shape)


def density_nodes(phi_lo: float, phi_hi: float, shell: ShellConfig,
                  breakpoints=(), n_nodes: int = _N_NODES):
    """Fixed-rule nodes for integrals of f(phi)*g(phi) over [phi_lo, phi_hi]:
    returns (phi_k, w_k) with sum_k w_k * g(phi_k) approximating the integral.

    The interval is clipped to the band and split at the breakpoints (in
    phi) inside it; each panel gets n_nodes sine-mapped nodes in argument
    of latitude.
    """
    b_bar = shell.polar_inclination_rad
    lo = max(phi_lo, b_bar)
    hi = min(phi_hi, math.pi - b_bar)
    if lo >= hi:
        return np.empty(0), np.empty(0)
    w_lo = float(omega_of_phi(hi, shell))
    w_hi = float(omega_of_phi(lo, shell))
    pts = [float(omega_of_phi(p, shell)) for p in breakpoints if lo < p < hi]
    edges = [w_lo] + sorted(p for p in pts if w_lo < p < w_hi) + [w_hi]
    w_nodes, w_weights = sine_mapped_panels(edges, n_nodes)
    return phi_of_omega(w_nodes, shell), w_weights / math.pi


def density_integral(g, phi_lo, phi_hi, shell: ShellConfig, breaks=None):
    """Integrals of f(phi) * g(phi) over the intervals [phi_lo, phi_hi],
    each split at its break, by the fixed rule of density_nodes.

    phi_lo, phi_hi and breaks (optional) are arrays of one shape whose
    intervals are non-empty after clipping to the band, with each break
    strictly inside its interval. g is called once, with the nodes of
    every interval in one array of shape (..., panels * _N_NODES). Each
    interval's value is one dot product of its weights and g's values, so
    it does not depend on the other intervals.
    """
    b_bar = shell.polar_inclination_rad
    cols = [np.minimum(phi_hi, math.pi - b_bar), np.maximum(phi_lo, b_bar)]
    if breaks is not None:  # omega falls as phi rises: breaks go between
        cols.insert(1, breaks)
    edges = omega_of_phi(np.stack(cols, axis=-1), shell)
    w_nodes, w_weights = sine_mapped_panels(edges, _N_NODES)
    w, v = w_weights / math.pi, g(phi_of_omega(w_nodes, shell))
    return (w[..., None, :] @ v[..., :, None])[..., 0, 0]
