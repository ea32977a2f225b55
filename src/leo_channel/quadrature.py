"""The package's one quadrature rule, for integrals against the orbital
polar density and over the gain support.

The polar density diverges like an inverse square root at the band edges.
Substituting the argument of latitude w (phi = pi/2 - arcsin(sin b sin w))
turns f(phi) dphi into dw/pi on a half-period, removing the singularity;
every integral against the density in this package goes through that
substitution, then through fixed sine-mapped Gauss-Legendre panels.
density_nodes is the one builder of that polar rule, on panel edges of
any leading shape; density_integral is the rule applied to an integrand.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .geometry import ShellConfig

# Gauss-Legendre nodes per panel of the fixed rule
_N_NODES = 384
# Newton steps at most for the Gauss-Legendre nodes (384 nodes take four)
_NEWTON_STEPS = 10


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
    Newton on P_n's recurrence, w = 2 / ((1 - x^2) P_n'(x)^2), folded symmetric."""
    x, dx = -np.cos(np.pi * (np.arange(1, n + 1) - 0.25) / (n + 0.5)), 0.0
    for _ in range(_NEWTON_STEPS):
        x = x - dx
        p0, p1 = np.ones_like(x), x
        for j in range(2, n + 1):
            p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
        dp = n * (p0 - x * p1) / (1.0 - x * x)  # P_n'(x)
        dx = p1 / dp
        if np.max(np.abs(dx)) < 0.5 * np.finfo(float).eps:  # no node would move
            break
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    x, w = (x - x[::-1]) / 2, (w + w[::-1]) / 2
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


def density_nodes(edges, shell: ShellConfig, n_nodes: int = _N_NODES):
    """The polar rule: nodes phi_k and weights w_k with sum_k w_k g(phi_k)
    approximating the integral of f(phi) g(phi) between the first and the
    last of the edges.

    edges has shape (..., P + 1), ascending polar angles inside the band;
    nodes and weights have shape (..., P * n_nodes). Each panel between
    consecutive edges gets n_nodes sine-mapped nodes in argument of
    latitude, in ascending omega: descending phi. A zero-width panel has
    zero weights.
    """
    omega = omega_of_phi(np.asarray(edges, dtype=float), shell)
    w_nodes, w_weights = sine_mapped_panels(omega[..., ::-1], n_nodes)
    return phi_of_omega(w_nodes, shell), w_weights / math.pi


def density_integral(g, edges, shell: ShellConfig):
    """Integrals of f(phi) * g(phi) by the rule of density_nodes on edges
    of shape (..., P + 1). g is called once, with every node in one array
    of shape (..., P * _N_NODES); each value is one dot product of its
    weights and g's values, so it does not depend on the other rows.
    """
    phi, w = density_nodes(edges, shell)
    v = g(phi)
    return (w[..., None, :] @ v[..., :, None])[..., 0, 0]
