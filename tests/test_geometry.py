import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import central_angle, elevation_from_sigma

from leo_channel.errors import DomainError, NoVisibleSatellites
from leo_channel.geometry import (
    LIGHT_SPEED_MPS,
    ShellConfig,
    UserGeometry,
    central_angle_bounds,
    clamp_unit,
    sigma_from_elevation,
    slant_range,
)


def make_user(shell, polar, elev_deg=30.0):
    return UserGeometry.for_shell(shell, polar, math.radians(elev_deg))


class TestShellConfig:
    def test_derived_radius_exact(self, shell):
        assert shell.shell_radius_m == shell.earth_radius_m + shell.altitude_m
        assert shell.polar_inclination_rad == pytest.approx(
            math.pi / 2 - shell.inclination_rad, abs=0)

    def test_count_off_the_plane_layout_is_silent(self):
        # the model reads only n_sats; orbit_sim.build alone checks the layout
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert ShellConfig(n_sats=3000).n_sats == 3000

    def test_invalid_params_raise(self):
        with pytest.raises(DomainError):
            ShellConfig(altitude_m=-1.0)
        with pytest.raises(DomainError):
            ShellConfig(inclination_rad=2.0)
        for name in ("earth_radius_m", "altitude_m", "sat_speed_mps",
                     "carrier_hz", "inclination_rad"):
            for value in (math.nan, math.inf):
                with pytest.raises(DomainError):
                    ShellConfig(**{name: value})
        for name in ("n_sats", "n_per_orbit"):
            for value in (0, -5):
                with pytest.raises(DomainError):
                    ShellConfig(**{name: value})

    def test_light_speed_is_not_a_setting(self):
        assert ShellConfig().light_speed_mps == LIGHT_SPEED_MPS
        with pytest.raises(TypeError):
            ShellConfig(light_speed_mps=3e8)


class TestCentralAngle:
    def test_overhead(self, shell):
        user = make_user(shell, math.pi / 2)
        assert central_angle(user, math.pi / 2, math.pi / 2) == pytest.approx(0.0, abs=1e-12)

    def test_pole_vs_equator(self, shell):
        user = make_user(shell, math.pi / 2)
        assert central_angle(user, math.pi / 2, 0.0) == pytest.approx(math.pi / 2)

    def test_matches_cartesian_dot_product(self, shell):
        user = make_user(shell, math.pi / 3)
        theta, phi = 1.2, 0.8
        u = np.array([math.sin(user.user_polar_rad) * math.cos(math.pi / 2),
                      math.sin(user.user_polar_rad) * math.sin(math.pi / 2),
                      math.cos(user.user_polar_rad)])
        s = np.array([math.sin(phi) * math.cos(theta),
                      math.sin(phi) * math.sin(theta),
                      math.cos(phi)])
        expected = math.acos(float(np.dot(u, s)))
        assert central_angle(user, theta, phi) == pytest.approx(expected, abs=1e-12)

    @given(x=st.floats(0.0, math.pi), phi=st.floats(0.01, math.pi - 0.01))
    @settings(max_examples=100, deadline=None)
    def test_symmetric_about_user_azimuth(self, x, phi):
        user = make_user(ShellConfig(), 0.7)
        tu = user.user_azimuth_rad
        left = central_angle(user, tu - x, phi)
        right = central_angle(user, tu + x, phi)
        assert left == pytest.approx(right, abs=1e-9)


class TestSlantRange:
    def test_overhead_is_altitude(self, shell):
        assert slant_range(shell, 0.0) == pytest.approx(shell.altitude_m)

    def test_antipodal(self, shell):
        assert slant_range(shell, math.pi) == pytest.approx(
            shell.earth_radius_m + shell.shell_radius_m)

    def test_thirty_degree_mask_range(self, shell):
        d = slant_range(shell, sigma_from_elevation(shell, math.radians(30)))
        assert d == pytest.approx(9.93e5, rel=5e-3)

    def test_strictly_increasing(self, shell):
        sig = np.linspace(0.0, math.pi, 500)
        d = slant_range(shell, sig)
        assert np.all(np.diff(d) > 0.0)


class TestElevationMaps:
    def test_zenith(self, shell):
        assert sigma_from_elevation(shell, math.pi / 2) == pytest.approx(0.0, abs=1e-7)

    def test_horizon(self, shell):
        expected = math.acos(shell.earth_radius_m / shell.shell_radius_m)
        assert sigma_from_elevation(shell, 0.0) == pytest.approx(expected, abs=1e-12)

    def test_thirty_degrees(self, shell):
        # frozen from the closed form; the round-trip test below guards it
        assert sigma_from_elevation(shell, math.radians(30)) == pytest.approx(
            0.124548, abs=1e-6)

    def test_inverse_endpoints(self, shell):
        horizon = math.acos(shell.earth_radius_m / shell.shell_radius_m)
        assert elevation_from_sigma(shell, 0.0) == pytest.approx(math.pi / 2, abs=1e-9)
        assert elevation_from_sigma(shell, horizon) == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize("psi_deg", [5.0, 30.0, 60.0])
    def test_round_trip(self, shell, psi_deg):
        psi = math.radians(psi_deg)
        back = elevation_from_sigma(shell, sigma_from_elevation(shell, psi))
        assert back == pytest.approx(psi, abs=1e-9)

    def test_out_of_range_raises(self, shell):
        with pytest.raises(DomainError):
            elevation_from_sigma(shell, 1.0)


class TestCentralAngleBounds:
    def test_user_inside_band(self, shell):
        sigma1 = sigma_from_elevation(shell, math.radians(30))
        lo, hi = central_angle_bounds(shell, math.pi / 2, sigma1)
        assert lo == 0.0 and hi == sigma1

    def test_second_case_arithmetic(self, shell):
        sigma1 = sigma_from_elevation(shell, math.radians(30))
        b_bar = shell.polar_inclination_rad
        lo, hi = central_angle_bounds(shell, b_bar - sigma1 / 2, sigma1)
        assert lo == pytest.approx(sigma1 / 2)
        assert hi == sigma1

    def test_unreachable_user(self, shell):
        sigma1 = sigma_from_elevation(shell, math.radians(30))
        with pytest.raises(NoVisibleSatellites):
            central_angle_bounds(shell, 0.0, sigma1)


class TestUserGeometry:
    def test_southern_hemisphere_reflected(self, shell):
        north = make_user(shell, math.radians(40))
        south = make_user(shell, math.pi - math.radians(40))
        assert south.user_polar_rad == pytest.approx(north.user_polar_rad)
        assert south.sigma_min_rad == pytest.approx(north.sigma_min_rad)

    def test_sigma_ordering(self, shell, midlat_user):
        assert 0.0 <= midlat_user.sigma_min_rad <= midlat_user.sigma_max_rad
        assert midlat_user.sigma_max_rad == sigma_from_elevation(
            shell, midlat_user.min_elevation_rad)

    def test_sigma1_decreasing_in_elevation(self, shell):
        sig = [sigma_from_elevation(shell, math.radians(e)) for e in (0, 15, 30, 60, 85)]
        assert all(a > b for a, b in zip(sig, sig[1:]))

    def test_construction_fails_off_coverage(self, shell):
        with pytest.raises(NoVisibleSatellites):
            make_user(shell, math.radians(20), elev_deg=30.0)

    def test_user_azimuth_is_fixed(self, midlat_user):
        # the Doppler, the samplers and the ring map assume theta_u = pi/2
        assert midlat_user.user_azimuth_rad == math.pi / 2
        u = midlat_user
        with pytest.raises(TypeError):
            UserGeometry(u.user_polar_rad, u.min_elevation_rad,
                         u.sigma_min_rad, u.sigma_max_rad, user_azimuth_rad=0.0)


class TestClamp:
    def test_grace_band(self):
        assert clamp_unit(1.0 + 5e-13) == 1.0
        assert clamp_unit(-1.0 - 5e-13) == -1.0
        with pytest.raises(DomainError):
            clamp_unit(1.0 + 1e-9)

    @given(st.floats(-1.0 + 1e-9, 1.0 - 1e-9))
    @settings(max_examples=200, deadline=None)
    def test_never_activates_inside_domain(self, x):
        assert clamp_unit(x) == x
