import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from oracles import doppler_cartesian, doppler_finite_difference, max_doppler_scan

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

    @pytest.mark.parametrize("incl_deg, lat_deg, mask_deg", [
        (53.0, 0.0, 30.0), (53.0, 60.0, 10.0),
        (89.0, 90.0, 30.0),  # the pole user of an 89 degree shell
    ])
    def test_row_broadcast_matches_finite_difference(self, incl_deg, lat_deg,
                                                     mask_deg):
        # the moment rule's shapes: phi a column, theta a matrix, so the
        # factors of phi alone are taken once per row
        shell = ShellConfig(inclination_rad=math.radians(incl_deg))
        user = UserGeometry.for_shell(shell, math.pi / 2 - math.radians(lat_deg),
                                      math.radians(mask_deg))
        rng = np.random.default_rng(9)
        b_bar = shell.polar_inclination_rad
        phi = rng.uniform(b_bar + 1e-6, math.pi - b_bar - 1e-6, (6, 1))
        theta = rng.uniform(0.0, 2.0 * math.pi, (6, 9))
        for mark in (1, -1):
            got = doppler_hz_arrays(shell, user, theta, phi, mark)
            assert got.shape == theta.shape
            worst = 0.0
            for (i, j), an in np.ndenumerate(got):
                fd = doppler_finite_difference(shell, user, theta[i, j],
                                               phi[i, 0], mark)
                worst = max(worst, abs(fd - an) / max(abs(an), 1.0))
            assert worst < 1e-3
            full = doppler_hz_arrays(shell, user, theta,
                                     np.repeat(phi, theta.shape[1], axis=1), mark)
            assert got == pytest.approx(full, rel=1e-12, abs=1e-6)

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
        scan = max_doppler_scan(shell, user, n_grid=1001, n_arc=50001)
        assert max_doppler(shell, user) == pytest.approx(scan, abs=1.0)
        # every scanned point lies in the cap: the scan is a lower bound
        assert max_doppler(shell, user) >= scan - 1e-6

    @given(incl=st.floats(20.0, 89.0), lat=st.floats(0.0, 60.0),
           mask=st.floats(0.0, 60.0))
    @example(incl=53.0, lat=0.0, mask=30.0)
    @example(incl=53.0, lat=53.0, mask=0.0)  # on the band edge
    @settings(max_examples=100, deadline=None)
    def test_property_closed_form_inside_the_band(self, incl, lat, mask):
        # an orbit passes through a user inside the band (sigma_min = 0),
        # so the largest shift is that of a pass overhead, at the rim
        from leo_channel.geometry import slant_range

        shell = ShellConfig(inclination_rad=math.radians(incl))
        try:
            user = UserGeometry.for_shell(shell, math.pi / 2 - math.radians(lat),
                                          math.radians(mask))
        except NoVisibleSatellites:
            assume(False)
        assume(user.sigma_min_rad == 0.0)
        s1 = user.sigma_max_rad
        closed = (shell.carrier_hz / shell.light_speed_mps * shell.sat_speed_mps
                  * shell.earth_radius_m * math.sin(s1) / slant_range(shell, s1))
        assert max_doppler(shell, user) == pytest.approx(closed, rel=1e-9)

    @pytest.mark.parametrize("overlap", [1e-12, 1e-9])
    def test_band_grazing_user(self, shell, overlap):
        # the pass closest to the user barely reaches the rim, so
        # cos^2 s0 - cos^2 s1 is tiny: the closed form must keep its digits
        # there (a 40-digit evaluation at the same s0, s1, where the
        # difference of squares in doubles is off by 3.7e-5 at 1e-12) and
        # agree with the scan
        mask = math.radians(10.0)
        phi_u = shell.polar_inclination_rad - sigma_from_elevation(shell, mask)
        user = UserGeometry.for_shell(shell, phi_u + overlap, mask)
        with mpmath.workdps(40):
            s0, s1 = mpmath.mpf(user.sigma_min_rad), mpmath.mpf(user.sigma_max_rad)
            r, big_r = mpmath.mpf(shell.earth_radius_m), mpmath.mpf(shell.shell_radius_m)
            exact = (mpmath.mpf(shell.carrier_hz) / shell.light_speed_mps
                     * shell.sat_speed_mps * r
                     * mpmath.sqrt(mpmath.cos(s0) ** 2 - mpmath.cos(s1) ** 2)
                     / mpmath.sqrt(r * r + big_r * big_r - 2 * r * big_r * mpmath.cos(s1)))
        assert max_doppler(shell, user) == pytest.approx(float(exact), rel=1e-12)
        assert max_doppler(shell, user) == pytest.approx(
            max_doppler_scan(shell, user), abs=1.0)

    def test_rim_peak_with_inward_ridge(self):
        # the peak lies on the rim at the foot of a ridge of |nu| that runs
        # inwards: no point of the cap, the ridge included, may exceed the
        # closed form
        shell = ShellConfig(inclination_rad=math.radians(25.0))
        user = UserGeometry.for_shell(shell, math.radians(80.0), 0.0)
        assert max_doppler(shell, user) >= max_doppler_scan(
            shell, user, n_grid=1001, n_arc=50001) - 1e-6

    @given(incl=st.floats(20.0, 89.0), lat=st.floats(0.0, 90.0),
           mask=st.floats(0.0, 60.0))
    @example(incl=53.0, lat=0.0, mask=30.0)
    @example(incl=53.0, lat=60.0, mask=10.0)
    @example(incl=89.0, lat=90.0, mask=30.0)  # the pole user
    # band-grazing, 1e-6 rad inside the cutoff: nearer it the pass crosses
    # the rim next to its apex, where the heading hangs on phi - b_bar and
    # the rounding of phi alone moves the oracle's Doppler past 1e-9
    @example(incl=53.0, lat=67.9675233, mask=10.0)
    @settings(max_examples=100, deadline=None)
    def test_property_closed_form_is_reached(self, incl, lat, mask):
        # a satellite on the pass closest to the user, where it crosses the
        # rim, sees the closed form: it is attained, not only an upper bound
        shell = ShellConfig(inclination_rad=math.radians(incl))
        try:
            user = UserGeometry.for_shell(shell, math.pi / 2 - math.radians(lat),
                                          math.radians(mask))
        except NoVisibleSatellites:
            assume(False)
        i, pu = shell.inclination_rad, user.user_polar_rad
        u = np.array([0.0, math.sin(pu), math.cos(pu)])  # theta_u = pi/2
        if user.sigma_min_rad > 0.0:
            # the orbit whose normal lies at colatitude i, opposite the user
            n = np.array([0.0, -math.sin(i), math.cos(i)])
        else:
            # an orbit through the user: normal . u = 0
            ny = -math.cos(i) * math.cos(pu) / math.sin(pu)
            n = np.array([math.sqrt(max(math.sin(i) ** 2 - ny * ny, 0.0)), ny,
                          math.cos(i)])
        p0 = u - np.dot(u, n) * n  # closest approach, at along-track angle 0
        p0 /= np.linalg.norm(p0)
        t = np.cross(n, p0)  # direction of travel at p0
        x = math.acos(math.cos(user.sigma_max_rad) / np.dot(u, p0))
        nu = []
        for sign in (1, -1):
            p = math.cos(x) * p0 + sign * math.sin(x) * t
            v = -sign * math.sin(x) * p0 + math.cos(x) * t
            mark = 1 if v[2] >= 0.0 else -1  # northbound is ascending
            nu.append(doppler_cartesian(shell, user, math.atan2(p[1], p[0]),
                                        math.acos(p[2]), mark))
        assert max(map(abs, nu)) == pytest.approx(max_doppler(shell, user), rel=1e-9)


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
