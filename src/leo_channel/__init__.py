"""Stochastic delay-Doppler channel model for LEO mega-constellations.

The top level holds the names of the README's library sketch and the
package's exceptions; everything else is imported from its module:
geometry, propagation, nbpp, visibility, distributions, channel and
orbit_sim.
"""

from .channel import global_params, path_loss_proposition, scattering_function
from .errors import (ConfigError, DomainError, LeoChannelError,
                     NoVisibleSatellites, ResolutionError)
from .geometry import ShellConfig, UserGeometry
from .visibility import CapModel

__version__ = "0.1.0"

__all__ = [
    "CapModel", "ConfigError", "DomainError", "LeoChannelError",
    "NoVisibleSatellites", "ResolutionError", "ShellConfig", "UserGeometry",
    "global_params", "path_loss_proposition", "scattering_function",
]
