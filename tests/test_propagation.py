import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import doppler_cartesian, max_doppler_scan

from leo_channel.errors import DomainError
from leo_channel.geometry import ShellConfig, UserGeometry
from leo_channel.nbpp import SatellitePoint
from leo_channel.propagation import (
    delay,
    delay_inverse,
    direction_angle,
    doppler,
    doppler_hz_arrays,
    doppler_normalized,
    gain,
    gain_inverse,
    max_doppler,
)


class TestGain:
    def test_overhead(self, shell):
        assert gain(shell, 0.0) == pytest.approx(1.0 / 550e3 ** 2, rel=1e-12)
        assert gain(shell, 0.0) == pytest.approx(3.3058e-12, rel=1e-4)

    def test_max_range_endpoint(self, shell, equator_user):
        from leo_channel.geometry import slant_range

        s1 = equator_user.sigma_max_rad
        assert gain(shell, s1) == pytest.approx(1.0 / slant_range(shell, s1) ** 2)

    def test_round_trip(self, shell, equator_user):
        rng = np.random.default_rng(3)
        g_lo = gain(shell, equator_user.sigma_max_rad)
        g_hi = gain(shell, equator_user.sigma_min_rad)
        for g in rng.uniform(g_lo, g_hi, 20):
            assert gain(shell, gain_inverse(shell, g)) == pytest.approx(g, rel=1e-12)

    def test_monotone_decreasing(self, shell):
        sig = np.linspace(0.0, 0.5, 200)
        assert np.all(np.diff(gain(shell, sig)) < 0.0)

    def test_out_of_domain(self, shell):
        with pytest.raises(DomainError):
            gain(shell, 3.5)
        with pytest.raises(DomainError):
            gain_inverse(shell, 1.0)  # gain of 1 m^-2 is unreachable


class TestDelay:
    def test_overhead_endpoint(self, shell):
        assert delay(shell, 0.0) == pytest.approx(1.8346e-3, rel=1e-4)

    def test_thirty_degree_mask_endpoint(self, shell, equator_user):
        # the reported value is 3.33 ms; an undisclosed Earth radius makes
        # the exact figure drift by up to ~1 percent
        assert delay(shell, equator_user.sigma_max_rad) == pytest.approx(3.33e-3, rel=1.5e-2)

    def test_round_trip(self, shell):
        rng = np.random.default_rng(4)
        for tau in rng.uniform(delay(shell, 0.0), delay(shell, 0.2), 20):
            assert delay(shell, delay_inverse(shell, tau)) == pytest.approx(tau, abs=1e-15)

    def test_inverse_round_trip_angle(self, shell):
        rng = np.random.default_rng(5)
        for sig in rng.uniform(1e-3, 0.2, 20):
            assert delay_inverse(shell, delay(shell, sig)) == pytest.approx(sig, abs=1e-10)
            assert gain_inverse(shell, gain(shell, sig)) == pytest.approx(sig, abs=1e-10)

    def test_gain_delay_identity(self, shell):
        c = shell.light_speed_mps
        for tau in np.linspace(delay(shell, 0.0), delay(shell, 0.3), 50):
            g = gain(shell, delay_inverse(shell, tau))
            assert g == pytest.approx(1.0 / (c * tau) ** 2, rel=1e-12)


class TestDirectionAngle:
    def test_equator_crossing_equals_inclination(self, shell):
        assert direction_angle(shell, math.pi / 2, 1) == pytest.approx(
            shell.inclination_rad, abs=1e-12)

    def test_turning_latitude(self, shell):
        b_bar = shell.polar_inclination_rad
        assert direction_angle(shell, b_bar, 1) == pytest.approx(0.0, abs=2e-8)
        assert direction_angle(shell, b_bar, -1) == pytest.approx(0.0, abs=2e-8)

    def test_sign_symmetry(self, shell):
        rng = np.random.default_rng(6)
        b_bar = shell.polar_inclination_rad
        for phi in rng.uniform(b_bar, math.pi - b_bar, 10):
            assert direction_angle(shell, phi, -1) == pytest.approx(
                -direction_angle(shell, phi, 1), abs=0)

    def test_outside_band(self, shell):
        with pytest.raises(DomainError):
            direction_angle(shell, 0.1, 1)


class TestDoppler:
    def test_overhead_is_zero(self, shell, equator_user):
        sat = SatellitePoint(math.pi / 2, math.pi / 2, 1)
        assert doppler(shell, equator_user, sat) == pytest.approx(0.0, abs=1e-9)
        sat = SatellitePoint(math.pi / 2, math.pi / 2, -1)
        assert doppler(shell, equator_user, sat) == pytest.approx(0.0, abs=1e-9)

    def test_matches_cartesian_construction(self, shell, equator_user, midlat_user):
        rng = np.random.default_rng(7)
        b_bar = shell.polar_inclination_rad
        for user in (equator_user, midlat_user):
            for _ in range(50):
                theta = rng.uniform(0.0, 2.0 * math.pi)
                phi = rng.uniform(b_bar + 1e-6, math.pi - b_bar - 1e-6)
                mark = int(rng.choice([1, -1]))
                got = doppler(shell, user, SatellitePoint(theta, phi, mark))
                want = doppler_cartesian(shell, user, theta, phi, mark)
                assert got == pytest.approx(want, rel=1e-9)

    def test_pointwise_antisymmetry_at_equator(self, shell, equator_user):
        tu = equator_user.user_azimuth_rad
        x = np.linspace(-1.5, 1.5, 10)
        phi = np.linspace(shell.polar_inclination_rad + 0.01,
                          math.pi - shell.polar_inclination_rad - 0.01, 10)
        xx, pp = np.meshgrid(x, phi)
        for mark in (1, -1):
            left = doppler_hz_arrays(shell, equator_user, tu + xx, pp, mark)
            right = doppler_hz_arrays(shell, equator_user, tu - xx, np.pi - pp, mark)
            assert np.max(np.abs(left + right)) < 1e-6

    def test_speed_bound(self, shell, midlat_user):
        rng = np.random.default_rng(8)
        b_bar = shell.polar_inclination_rad
        theta = rng.uniform(0, 2 * math.pi, 2000)
        phi = rng.uniform(b_bar, math.pi - b_bar, 2000)
        for mark in (1, -1):
            v = doppler_hz_arrays(shell, midlat_user, theta, phi, mark)
            v_mps = v * shell.light_speed_mps / shell.carrier_hz
            assert np.max(np.abs(v_mps)) <= shell.sat_speed_mps * (1 + 1e-12)

    def test_normalized_variant_scale(self, shell, equator_user):
        sat = SatellitePoint(1.0, 1.2, 1)
        ratio = doppler(shell, equator_user, sat) / doppler_normalized(
            shell, equator_user, sat)
        assert ratio == pytest.approx(shell.carrier_hz / shell.light_speed_mps)


class TestMaxDoppler:
    def test_equator_thirty(self, shell, equator_user):
        assert max_doppler(shell, equator_user) == pytest.approx(246.2e3, rel=1e-2)

    def test_midlat_ten(self, shell, midlat_user):
        assert max_doppler(shell, midlat_user) == pytest.approx(246.8e3, rel=1e-2)

    def test_projection_upper_bound(self, shell, equator_user):
        from leo_channel.geometry import slant_range

        d_min = slant_range(shell, equator_user.sigma_min_rad)
        bound = (shell.carrier_hz / shell.light_speed_mps
                 * shell.sat_speed_mps * shell.earth_radius_m / d_min)
        assert max_doppler(shell, equator_user) <= bound

    @pytest.mark.parametrize("lat_deg, mask_deg", [
        (0.0, 30.0), (60.0, 10.0), (45.0, 25.0), (50.0, 10.0), (53.0, 30.0),
        (30.0, 40.0),
        (63.105, 20.0),  # 0.999 of the way to the coverage cutoff
    ])
    def test_matches_brute_force_scan(self, shell, lat_deg, mask_deg):
        user = UserGeometry.for_shell(shell, math.pi / 2 - math.radians(lat_deg),
                                      math.radians(mask_deg))
        assert max_doppler(shell, user) == pytest.approx(
            max_doppler_scan(shell, user), abs=1.0)


@given(sigma=st.floats(1e-6, 0.4))
@example(sigma=1.0429293343797008e-06)  # 1.6e-10 rad off by the arccos form
@settings(max_examples=100, deadline=None)
def test_gain_inverse_is_bisection_consistent(sigma):
    shell = ShellConfig()
    g = gain(shell, sigma)
    lo, hi = 0.0, 0.5
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if gain(shell, mid) > g:
            lo = mid
        else:
            hi = mid
    assert gain_inverse(shell, g) == pytest.approx(0.5 * (lo + hi), abs=1e-10)
