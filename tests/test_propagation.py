import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from oracles import doppler_cartesian, max_doppler_scan

from leo_channel.errors import DomainError, NoVisibleSatellites
from leo_channel.geometry import ShellConfig, UserGeometry, sigma_from_elevation
from leo_channel.propagation import (
    delay,
    delay_inverse,
    doppler_hz_arrays,
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


class TestDoppler:
    def test_overhead_is_zero(self, shell, equator_user):
        nu = doppler_hz_arrays(shell, equator_user, math.pi / 2, math.pi / 2,
                               np.array([1, -1]))
        assert np.all(np.abs(nu) <= 1e-9)

    def test_matches_cartesian_construction(self, shell, equator_user, midlat_user):
        rng = np.random.default_rng(7)
        b_bar = shell.polar_inclination_rad
        for user in (equator_user, midlat_user):
            theta = rng.uniform(0.0, 2.0 * math.pi, 50)
            phi = rng.uniform(b_bar + 1e-6, math.pi - b_bar - 1e-6, 50)
            mark = rng.choice([1, -1], 50)
            got = doppler_hz_arrays(shell, user, theta, phi, mark)
            want = [doppler_cartesian(shell, user, t, p, m)
                    for t, p, m in zip(theta, phi, mark.tolist())]
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

    @pytest.mark.parametrize("incl_deg, lat_deg, mask_deg", [
        (89.0, 90.0, 30.0),  # the pole: the rim is one latitude line
        (85.0, 80.0, 0.0),   # a cap over the pole, its whole rim in the band
    ])
    def test_other_shells_match_brute_force_scan(self, incl_deg, lat_deg, mask_deg):
        shell = ShellConfig(inclination_rad=math.radians(incl_deg))
        user = UserGeometry.for_shell(shell, math.pi / 2 - math.radians(lat_deg),
                                      math.radians(mask_deg))
        assert max_doppler(shell, user) == pytest.approx(
            max_doppler_scan(shell, user), abs=1.0)

    # about 0.3 s an example, 10 s in all: the scan dominates
    @given(incl=st.floats(20.0, 89.0), lat=st.floats(0.0, 90.0),
           mask=st.floats(0.0, 60.0))
    @example(incl=53.0, lat=63.1134, mask=20.0)  # near the coverage cutoff
    @example(incl=53.0, lat=0.0, mask=0.0)
    @example(incl=53.0, lat=53.0, mask=0.0)
    @settings(max_examples=30, deadline=None)
    def test_property_matches_brute_force_scan(self, incl, lat, mask):
        shell = ShellConfig(inclination_rad=math.radians(incl))
        try:
            user = UserGeometry.for_shell(shell, math.pi / 2 - math.radians(lat),
                                          math.radians(mask))
        except NoVisibleSatellites:
            assume(False)
        assert max_doppler(shell, user) == pytest.approx(
            max_doppler_scan(shell, user, n_grid=1001, n_arc=50001), abs=1.0)

    @pytest.mark.parametrize("overlap", [1e-12, 1e-9])
    def test_band_grazing_user(self, shell, overlap):
        # the cap overlaps the band by a sliver on which nu is flat to
        # rounding: a zoom box that moves without a strict gain never stops
        mask = math.radians(10.0)
        phi_u = shell.polar_inclination_rad - sigma_from_elevation(shell, mask)
        user = UserGeometry.for_shell(shell, phi_u + overlap, mask)
        assert max_doppler(shell, user) == pytest.approx(
            max_doppler_scan(shell, user), abs=1.0)

    def test_rim_peak_with_inward_ridge(self):
        # the peak lies on the rim and its ridge runs inwards: a zoom box
        # that never moves along it loses the rim, 2.4e-3 Hz low
        shell = ShellConfig(inclination_rad=math.radians(25.0))
        user = UserGeometry.for_shell(shell, math.radians(80.0), 0.0)
        assert max_doppler(shell, user) >= max_doppler_scan(
            shell, user, n_grid=1001, n_arc=50001) - 1e-6


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
