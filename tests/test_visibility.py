import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import binom

from oracles import (
    arc_fraction_scan, p_cap_adaptive, p_cap_prime_adaptive, p_cap_prime_mp)

from leo_channel import checks
from leo_channel import distributions as dist
from leo_channel.errors import DomainError, NoVisibleSatellites
from leo_channel import visibility as vis
from leo_channel.geometry import ShellConfig, UserGeometry, sigma_from_elevation
from leo_channel.nbpp import sample_arrays
from leo_channel.quadrature import _N_NODES
from leo_channel.visibility import CapModel, arc_halfwidth_clamped

# (latitude, mask) in degrees: the two reference users, and two whose cap
# boundary crosses a band edge inside the support
ORACLE_USERS = [(0.0, 30.0), (60.0, 10.0), (45.0, 25.0), (50.0, 10.0)]


def _cap(shell, lat_deg, mask_deg):
    return CapModel(shell, UserGeometry.for_shell(
        shell, math.pi / 2 - math.radians(lat_deg), math.radians(mask_deg)))


def arc_length(user, phi, sigma):
    """Azimuth arc of the latitude line at phi inside the cap of sigma."""
    return 2.0 * arc_halfwidth_clamped(user, phi, sigma)


def _interior(cap, n):
    lo, hi = cap.user.sigma_min_rad, cap.user.sigma_max_rad
    return np.linspace(lo + 0.05 * (hi - lo), hi - 0.05 * (hi - lo), n)


class TestArcLength:
    def test_latitude_line_through_cap_interior(self, equator_user):
        val = arc_length(equator_user, equator_user.user_polar_rad, 0.05)
        assert 0.0 < val < 2.0 * math.pi

    def test_tangent_line_vanishes(self, equator_user):
        sigma = 0.05
        phi = equator_user.user_polar_rad + sigma - 1e-9
        assert arc_length(equator_user, phi, sigma) == pytest.approx(0.0, abs=1e-3)

    def test_matches_brute_force_scan(self, shell):
        rng = np.random.default_rng(21)
        user = UserGeometry.for_shell(shell, 0.8, math.radians(10))
        for _ in range(50):
            phi = rng.uniform(0.05, math.pi - 0.05)
            sigma = rng.uniform(0.01, 1.2)
            frac = arc_length(user, phi, sigma) / (2.0 * math.pi)
            want = arc_fraction_scan(user, phi, sigma)
            assert frac == pytest.approx(want, abs=1e-5)

    def test_pole_user_limit(self, shell):
        user = UserGeometry.for_shell(shell, 0.8, math.radians(10))
        pole = object.__new__(UserGeometry)
        object.__setattr__(pole, "user_polar_rad", 0.0)
        object.__setattr__(pole, "user_azimuth_rad", math.pi / 2)
        assert arc_length(pole, 0.3, 0.5) == pytest.approx(2 * math.pi)
        assert arc_length(pole, 0.7, 0.5) == 0.0

    def test_full_lines_when_cap_covers_pole(self, shell):
        user = UserGeometry.for_shell(shell, 0.3, math.radians(0.1))
        # any latitude line with phi <= sigma - phi_u lies inside the cap
        sigma = 0.45
        assert arc_length(user, 0.1, sigma) == pytest.approx(2 * math.pi)


class TestPCap:
    def test_p_sat_equator(self, cap_equator):
        # quoted average is 9.6 of 3168 satellites; see avg_visible tests
        assert cap_equator.p_sat == pytest.approx(9.6 / 3168, rel=0.02)

    def test_p_sat_lat53(self, shell):
        user = UserGeometry.for_shell(
            shell, math.pi / 2 - math.radians(53), math.radians(30))
        cap = CapModel(shell, user)
        assert cap.p_sat == pytest.approx(25.6 / 3168, rel=0.02)

    def test_p_sat_is_derived(self, shell, equator_user):
        with pytest.raises(TypeError):
            CapModel(shell, equator_user, p_sat=0.5)

    def test_below_sigma_min_is_zero(self, cap_midlat):
        assert cap_midlat.p_cap(cap_midlat.user.sigma_min_rad * 0.5) == 0.0

    def test_monotone_and_bounded(self, cap_equator):
        sig = np.linspace(0.0, cap_equator.user.sigma_max_rad, 40)
        vals = [cap_equator.p_cap(float(s)) for s in sig]
        assert all(b >= a - 1e-14 for a, b in zip(vals, vals[1:]))
        assert vals[-1] == pytest.approx(cap_equator.p_sat)
        assert 0.0 < cap_equator.p_sat < 1.0

    def test_monte_carlo_agreement(self, shell, cap_equator):
        n = 10_000_000
        rng = np.random.default_rng(22)
        theta, phi, _ = sample_arrays(shell, n, rng)
        cos_sig = np.sin(phi) * np.sin(theta)  # equator user
        sigma_samples = np.arccos(np.clip(cos_sig, -1.0, 1.0))
        for s in np.linspace(0.01, cap_equator.user.sigma_max_rad, 10):
            p = cap_equator.p_cap(float(s))
            emp = float(np.mean(sigma_samples <= s))
            se = math.sqrt(max(p * (1 - p), 1e-12) / n)
            assert abs(p - emp) < 3.0 * se + 1e-9

    @pytest.mark.parametrize("lat,mask", ORACLE_USERS)
    def test_matches_adaptive_oracle(self, shell, lat, mask):
        cap = _cap(shell, lat, mask)
        sig = np.linspace(cap.user.sigma_min_rad, cap.user.sigma_max_rad, 300)
        got = np.array([cap.p_cap(float(s)) for s in sig])
        want = np.array([p_cap_adaptive(cap, float(s)) for s in sig])
        assert np.max(np.abs(got - want)) < 1e-12 * cap.p_sat

    def test_symmetric_in_hemisphere(self, shell):
        north = CapModel(shell, UserGeometry.for_shell(shell, 0.8, 0.2))
        south = CapModel(shell, UserGeometry.for_shell(shell, math.pi - 0.8, 0.2))
        assert north.p_sat == pytest.approx(south.p_sat, rel=1e-12)


class TestPCapPrime:
    def test_negative_on_open_interval(self, cap_equator):
        user = cap_equator.user
        for s in np.linspace(0.01, user.sigma_max_rad * 0.99, 15):
            assert cap_equator.p_cap_prime(float(s)) < 0.0

    @pytest.mark.parametrize("incl,lat,mask", [
        pytest.param(53.0, 0.0, 30.0, id="cap_equator"),
        pytest.param(53.0, 60.0, 10.0, id="cap_midlat"),
        pytest.param(53.0, 45.0, 25.0, id="lat45_mask25"),
        pytest.param(89.0, 90.0, 30.0, id="pole_incl89"),  # near-polar shell
        # a point of the even grid lies 4.1e-5 rad from a kink of p_cap'
        pytest.param(30.0, 25.0, 10.0, id="incl30_lat25_kink"),
        pytest.param(70.0, 65.0, 10.0, id="incl70_lat65_kink"),
    ])
    def test_matches_central_difference(self, incl, lat, mask):
        # validate's check: its step scales with the cap, so a small cap is
        # not judged by the difference quotient's own truncation error
        shell = ShellConfig(inclination_rad=math.radians(incl))
        assert checks.pcap_derivative_error(_cap(shell, lat, mask)) < 1e-4

    @pytest.mark.parametrize("lat,mask", ORACLE_USERS)
    def test_matches_adaptive_oracle(self, shell, lat, mask):
        cap = _cap(shell, lat, mask)
        sig = _interior(cap, 200)
        got = np.array([cap.p_cap_prime(float(s)) for s in sig])
        want = np.array([p_cap_prime_adaptive(cap, float(s)) for s in sig])
        assert np.max(np.abs(got / want - 1.0)) < 1e-7

    def test_zenith_limit(self, cap_equator):
        # an in-band user: d p_cap / d cos(sigma) -> -2pi times the density
        # per unit area, 1 / (2 pi^2 sqrt(sin^2 i - cos^2 phi_u))
        shell, phi_u = cap_equator.shell, cap_equator.user.user_polar_rad
        limit = -1.0 / (math.pi * math.sqrt(
            math.sin(shell.inclination_rad) ** 2 - math.cos(phi_u) ** 2))
        assert cap_equator.p_cap_prime(0.0) == limit
        assert cap_equator.p_cap_prime(1e-4) == pytest.approx(limit, rel=1e-7)
        # tiny caps keep every digit of the limit at each user whose
        # sigma_min is 0
        for lat, mask in ((0.0, 30.0), (45.0, 25.0), (50.0, 10.0)):
            cap = _cap(shell, lat, mask)
            zenith = -1.0 / (math.pi * math.sqrt(
                math.sin(shell.inclination_rad) ** 2
                - math.cos(cap.user.user_polar_rad) ** 2))
            for s in (1e-12, 1e-9):
                assert abs(cap.p_cap_prime(s) / zenith - 1.0) <= 1e-12

    def test_zenith_edge_pdfs(self, cap_equator):
        # both zenith ends of the equator user's support take the limit
        shell, cap = cap_equator.shell, cap_equator
        r, big_r = shell.earth_radius_m, shell.shell_radius_m
        c = shell.light_speed_mps
        limit = cap.p_cap_prime(0.0)
        g_max = cap.gain_bounds[1]
        tau_lo = cap.delay_bounds[0]
        assert dist.gain_pdf(cap, g_max) == pytest.approx(
            -limit / (2.0 * g_max ** 2 * r * big_r * cap.p_sat), rel=1e-12)
        assert dist.delay_pdf(cap, tau_lo) == pytest.approx(
            -limit * c * c * tau_lo / (r * big_r * cap.p_sat), rel=1e-12)
        assert dist.delay_pdf(cap, tau_lo) == pytest.approx(481.28, abs=0.01)
        # one step of delay rounding off the end, sigma ~ 1e-8 rad
        assert dist.delay_pdf(cap, tau_lo + 1.8e-15) == pytest.approx(
            dist.delay_pdf(cap, tau_lo), rel=1e-9)

    @pytest.mark.parametrize("lat,mask", ORACLE_USERS)
    def test_matches_mp_oracle(self, shell, lat, mask):
        # from sigma = 1e-12 to 0.95 sigma_max; where sigma_min > 0, from
        # sigma_min + 1e-2, as the ring that only grazes the band just past
        # sigma_min loses digits to the rounding of its band crossings
        cap = _cap(shell, lat, mask)
        lo, hi = cap.user.sigma_min_rad, 0.95 * cap.user.sigma_max_rad
        if lo == 0.0:
            sig = np.concatenate([[1e-12, 1e-9, 1e-6, 1e-3],
                                  np.linspace(0.05, 1.0, 6) * hi])
        else:
            sig = np.linspace(lo + 1e-2, hi, 10)
        got = cap.p_cap_prime(sig)
        want = np.array([p_cap_prime_mp(cap, s) for s in sig.tolist()])
        assert np.max(np.abs(got / want - 1.0)) <= 1e-9

    @settings(max_examples=40, deadline=None)
    @given(mask=st.floats(0.0, 60.0), reach=st.floats(0.0, 0.999))
    @example(mask=10.0, reach=0.999)
    @example(mask=30.0, reach=0.999)
    @example(mask=60.0, reach=0.999)  # arg near -1 at the cap's far edge
    def test_property_matches_adaptive_oracle(self, shell, mask, reach):
        # reach runs the latitude from the equator to the coverage cutoff,
        # past band-crossing caps to caps that barely touch the band
        sigma1 = sigma_from_elevation(shell, math.radians(mask))
        cutoff = math.pi / 2 - shell.polar_inclination_rad + sigma1
        cap = _cap(shell, math.degrees(reach * cutoff), mask)
        sig = _interior(cap, 12)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for s in sig:
                s = float(s)
                assert abs(cap.p_cap(s) - p_cap_adaptive(cap, s)) < 1e-12 * cap.p_sat
                # caps that barely reach the band put the derivative's
                # endpoint singularity on a panel of ~1e-3 rad, where
                # rounding of the outermost nodes costs up to 2e-7
                assert cap.p_cap_prime(s) == pytest.approx(
                    p_cap_prime_adaptive(cap, s), rel=1e-6)

    def test_fundamental_theorem(self, cap_equator):
        from scipy.integrate import quad

        cap = cap_equator
        lo, hi = cap.user.sigma_min_rad, cap.user.sigma_max_rad
        val, _ = quad(lambda u: cap.p_cap_prime(math.acos(u)),
                      math.cos(hi), math.cos(lo), limit=300)
        assert val == pytest.approx(-(cap.p_sat - cap.p_cap(lo)), rel=1e-6)


class TestArrayCalls:
    """p_cap and p_cap' on other shells: an array call is the per-element
    calls bit for bit, across a block boundary, and both match the
    adaptive oracles within the fixed-user bounds."""

    @settings(max_examples=30, deadline=None)
    @given(incl=st.floats(30.0, 89.0), mask=st.floats(0.0, 60.0),
           reach=st.floats(0.0, 0.999))
    @example(incl=89.0, mask=30.0, reach=0.999)   # the pole
    @example(incl=53.0, mask=10.0, reach=0.999)   # near the coverage cutoff
    @example(incl=53.0, mask=25.0, reach=0.72)    # cap crosses the band edge
    @example(incl=85.0, mask=0.0, reach=0.8)      # cap covers the pole
    def test_property(self, incl, mask, reach):
        # reach runs the latitude from the equator to the coverage cutoff,
        # clipped to the pole where the cutoff lies beyond it
        shell = ShellConfig(inclination_rad=math.radians(incl))
        sigma1 = sigma_from_elevation(shell, math.radians(mask))
        cutoff = math.degrees(math.pi / 2 - shell.polar_inclination_rad + sigma1)
        cap = _cap(shell, min(90.0, reach * cutoff), mask)
        rows = vis._BLOCK_ELEMENTS // _N_NODES  # rows of a one-panel block
        sig = np.linspace(0.0, cap.user.sigma_max_rad, 2 * rows + 3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for fn in (cap.p_cap, cap.p_cap_prime):
                one = [fn(s) for s in sig.tolist()]
                assert all(type(v) is float for v in one)
                assert np.array_equal(fn(sig), one)
                assert np.array_equal(fn(sig.reshape(-1, 1)), np.reshape(one, (-1, 1)))
            for s in _interior(cap, 12).tolist():
                assert abs(cap.p_cap(s) - p_cap_adaptive(cap, s)) < 1e-12 * cap.p_sat
                assert cap.p_cap_prime(s) == pytest.approx(
                    p_cap_prime_adaptive(cap, s), rel=1e-6)

    def test_pole_user(self):
        # at the pole the cap is the polar cap phi <= sigma, so
        # d p_cap / d cos(sigma) = -1 / (pi sqrt(sin^2 i - cos^2 sigma))
        shell = ShellConfig(inclination_rad=math.radians(89.0))
        cap = _cap(shell, 90.0, 30.0)
        sig = np.array([0.044, 0.071, 0.098])
        h = 1e-6
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            an = cap.p_cap_prime(sig)
            fd = (cap.p_cap(np.arccos(np.cos(sig) + h))
                  - cap.p_cap(np.arccos(np.cos(sig) - h))) / (2 * h)
            # below the band edge (polar angle 1 degree) there is no density
            outside = cap.p_cap_prime(np.array([0.0, 0.01]))
        closed = -1.0 / (math.pi * np.sqrt(
            math.sin(shell.inclination_rad) ** 2 - np.cos(sig) ** 2))
        assert np.all(an < 0.0)
        assert an == pytest.approx(fd, rel=1e-5)
        assert an == pytest.approx(closed, rel=1e-14)
        assert np.all(outside == 0.0)


class TestVisibleCounts:
    def test_pmf_normalizes(self, cap_equator):
        total = sum(cap_equator.visible_count_pmf(n) for n in range(0, 60))
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_pmf_mean(self, cap_equator):
        mean = sum(n * cap_equator.visible_count_pmf(n) for n in range(0, 80))
        assert mean == pytest.approx(cap_equator.avg_visible(), rel=1e-9)

    def test_availability_is_one_minus_void(self, cap_equator):
        assert cap_equator.availability == pytest.approx(
            1.0 - cap_equator.visible_count_pmf(0), rel=1e-12)

    @pytest.mark.parametrize("cap_name", ["cap_equator", "cap_midlat"])
    def test_pmf_matches_scipy(self, cap_name, request):
        cap = request.getfixturevalue(cap_name)
        n = np.arange(0, 80)
        want = binom.pmf(n, cap.shell.n_sats, cap.p_sat)
        got = np.array([cap.visible_count_pmf(int(k)) for k in n])
        # log-gamma of ~3169 carries ~4e-12 absolute rounding into the exponent
        assert np.allclose(got, want, rtol=1e-10, atol=0.0)

    def test_pmf_without_coverage(self, cap_equator):
        void = dataclasses.replace(cap_equator)
        object.__setattr__(void, "p_sat", 0.0)
        assert void.visible_count_pmf(0) == 1.0
        assert void.visible_count_pmf(3) == 0.0

    def test_count_out_of_range(self, cap_equator):
        with pytest.raises(DomainError):
            cap_equator.visible_count_pmf(cap_equator.shell.n_sats + 1)

    def test_count_must_be_an_integer(self, cap_equator):
        # 2.5 gave 0.004937 and True the value at n = 1
        for n in (2.5, 3.0, math.nan, True, False, np.bool_(True)):
            with pytest.raises(DomainError):
                cap_equator.visible_count_pmf(n)
        assert cap_equator.visible_count_pmf(np.int64(3)) == cap_equator.visible_count_pmf(3)

    def test_avg_visible_equator(self, cap_equator):
        assert cap_equator.avg_visible() == pytest.approx(9.6, rel=0.02)

    def test_avg_visible_lat53(self, shell):
        user = UserGeometry.for_shell(
            shell, math.pi / 2 - math.radians(53), math.radians(30))
        assert CapModel(shell, user).avg_visible() == pytest.approx(25.6, rel=0.02)

    def test_no_coverage_above_cutoff(self, shell):
        with pytest.raises(NoVisibleSatellites):
            UserGeometry.for_shell(shell, math.pi / 2 - math.radians(65),
                                   math.radians(30))


class TestCoverageShape:
    def test_peak_near_inclination_and_elevation_ordering(self, shell):
        lats = np.arange(0.0, 61.0, 5.0)
        curves = {}
        for elev in (10.0, 30.0):
            avg = []
            for lat in lats:
                user = UserGeometry.for_shell(
                    shell, math.pi / 2 - math.radians(float(lat)),
                    math.radians(elev))
                avg.append(CapModel(shell, user).avg_visible())
            curves[elev] = np.array(avg)
        assert np.all(curves[10.0] > curves[30.0])
        peak_lat = lats[int(np.argmax(curves[30.0]))]
        assert abs(peak_lat - 53.0) <= 5.0
