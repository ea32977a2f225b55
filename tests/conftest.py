import math

import pytest

from leo_channel.geometry import ShellConfig, UserGeometry
from leo_channel.visibility import CapModel


@pytest.fixture(scope="session")
def shell() -> ShellConfig:
    return ShellConfig()


@pytest.fixture(scope="session")
def equator_user(shell) -> UserGeometry:
    return UserGeometry.for_shell(shell, math.pi / 2, math.radians(30.0))


@pytest.fixture(scope="session")
def midlat_user(shell) -> UserGeometry:
    """Latitude 60 (polar angle 30 deg) with a 10 degree mask."""
    return UserGeometry.for_shell(shell, math.radians(30.0), math.radians(10.0))


@pytest.fixture(scope="session")
def cap_equator(shell, equator_user) -> CapModel:
    return CapModel(shell, equator_user)


@pytest.fixture(scope="session")
def cap_midlat(shell, midlat_user) -> CapModel:
    return CapModel(shell, midlat_user)
