import math

import numpy as np
import pytest
from scipy.integrate import quad
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.stats import chisquare, ks_2samp

from oracles import phi_cdf, phi_pdf, sample_visible_rejection

from leo_channel import nbpp
from leo_channel.errors import DomainError, NoVisibleSatellites
from leo_channel.geometry import UserGeometry, sigma_from_elevation
from leo_channel.nbpp import sample_arrays, sample_visible, visible_box
from leo_channel.orbit_sim import ks_distance
from leo_channel.propagation import doppler_hz_arrays


class TestPhiPdf:
    def test_equator_value(self, shell):
        b = shell.inclination_rad
        assert phi_pdf(shell, math.pi / 2) == pytest.approx(
            1.0 / (math.pi * math.sin(b)), rel=1e-12)
        assert phi_pdf(shell, math.pi / 2) == pytest.approx(0.3986, rel=1e-3)

    def test_zero_outside_band(self, shell):
        assert phi_pdf(shell, shell.polar_inclination_rad / 2) == 0.0
        assert phi_pdf(shell, math.pi - 0.01) == 0.0

    def test_integrates_to_one(self, shell):
        b_bar = shell.polar_inclination_rad
        val, err = quad(lambda p: phi_pdf(shell, p), b_bar, math.pi - b_bar,
                        epsabs=1e-12, limit=500)
        assert val == pytest.approx(1.0, abs=1e-9)


class TestPhiCdf:
    def test_median_at_equator(self, shell):
        assert phi_cdf(shell, math.pi / 2) == pytest.approx(0.5, abs=1e-12)

    def test_support_endpoints(self, shell):
        b_bar = shell.polar_inclination_rad
        assert phi_cdf(shell, b_bar) == pytest.approx(0.0, abs=1e-7)
        assert phi_cdf(shell, math.pi - b_bar) == pytest.approx(1.0, abs=1e-7)
        assert phi_cdf(shell, 0.0) == 0.0
        assert phi_cdf(shell, math.pi) == 1.0

    def test_closed_form_matches_quadrature(self, shell):
        # the closed form is a derivation, not a quotation: validate it
        b_bar = shell.polar_inclination_rad
        for x in (0.9, 1.2, 1.8, 2.2):
            want, _ = quad(lambda p: phi_pdf(shell, p), b_bar, x,
                           epsabs=1e-12, limit=500)
            assert phi_cdf(shell, x) == pytest.approx(want, abs=1e-8)

    def test_nondecreasing(self, shell):
        grid = np.linspace(0.0, math.pi, 2000)
        vals = phi_cdf(shell, grid)
        assert np.all(np.diff(vals) >= 0.0)

    def test_derivative_matches_pdf(self, shell):
        b_bar = shell.polar_inclination_rad
        phi = np.linspace(b_bar + 0.01, math.pi - b_bar - 0.01, 1000)
        h = 1e-7
        fd = (phi_cdf(shell, phi + h) - phi_cdf(shell, phi - h)) / (2 * h)
        pdf = phi_pdf(shell, phi)
        assert np.max(np.abs(fd / pdf - 1.0)) < 1e-5


class TestSampling:
    def test_reproducible(self, shell):
        a = sample_arrays(shell, 100, np.random.default_rng(11))
        b = sample_arrays(shell, 100, np.random.default_rng(11))
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_empty(self, shell):
        out = sample_arrays(shell, 0, np.random.default_rng(0))
        assert [x.size for x in out] == [0, 0, 0]

    def test_ks_against_cdf(self, shell):
        _, phi, _ = sample_arrays(shell, 1_000_000, np.random.default_rng(12))
        d = ks_distance(phi, lambda x: phi_cdf(shell, x))
        assert d < 0.002

    def test_mark_balance(self, shell):
        _, _, mark = sample_arrays(shell, 1_000_000, np.random.default_rng(13))
        assert np.mean(mark == 1) == pytest.approx(0.5, abs=0.002)

    def test_theta_uniform(self, shell):
        theta, _, _ = sample_arrays(shell, 200_000, np.random.default_rng(14))
        assert theta.min() >= 0.0 and theta.max() <= 2 * math.pi
        assert np.mean(theta) == pytest.approx(math.pi, abs=0.01)

    def test_chi_square_against_pdf(self, shell):
        n = 1_000_000
        _, phi, _ = sample_arrays(shell, n, np.random.default_rng(15))
        b_bar = shell.polar_inclination_rad
        edges = np.linspace(b_bar, math.pi - b_bar, 51)
        counts, _ = np.histogram(phi, bins=edges)
        expected = np.diff(phi_cdf(shell, edges)) * n
        stat, p_value = chisquare(counts, expected * counts.sum() / expected.sum())
        assert p_value > 0.01

    def test_mark_phi_independence(self, shell):
        n = 1_000_000
        _, phi, mark = sample_arrays(shell, n, np.random.default_rng(16))
        corr = np.corrcoef(mark, phi)[0, 1]
        assert abs(corr) < 3.0 / math.sqrt(n)

    def test_band_respected(self, shell):
        _, phi, _ = sample_arrays(shell, 100_000, np.random.default_rng(18))
        b_bar = shell.polar_inclination_rad
        assert phi.min() >= b_bar - 1e-12
        assert phi.max() <= math.pi - b_bar + 1e-12


def _in_box(box, theta, omega):
    """Membership of (theta, omega) points in a SampleBox, both angles
    taken modulo 2pi."""
    two_pi = 2.0 * math.pi

    def in_omega(w):
        return (w - box.omega_lo) % two_pi <= box.omega_hi - box.omega_lo

    in_theta = (theta - box.theta_lo) % two_pi <= box.theta_hi - box.theta_lo
    return in_theta & (in_omega(omega) | in_omega(np.pi - omega))


def _cos_sigma(user, theta, phi):
    pu = user.user_polar_rad
    return math.cos(pu) * np.cos(phi) + math.sin(pu) * np.sin(phi) * np.sin(theta)


class TestVisibleBox:
    @settings(max_examples=60, deadline=None)
    @given(lat=st.floats(0.0, 89.9), mask=st.floats(0.0, 60.0),
           seed=st.integers(0, 2**32 - 1))
    def test_cap_points_lie_in_box(self, shell, lat, mask, seed):
        try:
            user = UserGeometry.for_shell(shell, math.radians(90.0 - lat),
                                          math.radians(mask))
            box = visible_box(shell, user)
        except NoVisibleSatellites:
            assume(False)
        sin_i = math.sin(shell.inclination_rad)
        rng = np.random.default_rng(seed)
        # whole-shell draws
        theta = rng.uniform(0.0, 2 * math.pi, 200_000)
        omega = rng.uniform(0.0, 2 * math.pi, 200_000)
        # and the cap's rim, just inside sigma_1, on both omega branches
        pu, tu = user.user_polar_rad, user.user_azimuth_rad
        s = user.sigma_max_rad * (1.0 - 1e-12)
        alpha = np.linspace(0.0, 2 * math.pi, 4096, endpoint=False)
        cos_phi = math.cos(pu) * math.cos(s) + math.sin(pu) * math.sin(s) * np.cos(alpha)
        rim_theta = tu + np.arctan2(np.sin(alpha) * math.sin(s) * math.sin(pu),
                                    math.cos(s) - math.cos(pu) * cos_phi)
        rim_omega = np.arcsin(np.clip(cos_phi / sin_i, -1.0, 1.0))
        theta = np.concatenate([theta, rim_theta, rim_theta])
        omega = np.concatenate([omega, rim_omega, np.pi - rim_omega])
        phi = np.pi / 2 - np.arcsin(sin_i * np.sin(omega))
        inside = _cos_sigma(user, theta, phi) >= math.cos(user.sigma_max_rad)
        assert np.all(_in_box(box, theta[inside], omega[inside]))

    def test_box_is_tight_at_reference_users(self, shell, equator_user, midlat_user):
        # the box keeps most draws: at least 0.6 land in the cap
        for user in (equator_user, midlat_user):
            theta, phi, _ = sample_arrays(shell, 100_000, np.random.default_rng(19),
                                          box=visible_box(shell, user))
            inside = _cos_sigma(user, theta, phi) >= math.cos(user.sigma_max_rad)
            assert inside.mean() > 0.6


@pytest.fixture(scope="module")
def clipped_user(shell):
    """Latitude 50 with a 10 degree mask: the cap crosses the band edge."""
    return UserGeometry.for_shell(shell, math.radians(40.0), math.radians(10.0))


class TestSampleVisible:
    # the sampler's marks are a coin; the oracle's are a coin, or the sign
    # of cos omega, the latitude rate: both must give the same joint law
    @pytest.mark.parametrize("physical_marks", [False, True])
    @pytest.mark.parametrize("user_name", ["equator_user", "midlat_user",
                                           "clipped_user"])
    def test_matches_rejection_oracle(self, request, shell, user_name,
                                      physical_marks):
        user = request.getfixturevalue(user_name)
        n = 20_000
        rng = np.random.default_rng(21)
        got = sample_visible(shell, user, n, rng)
        ref = sample_visible_rejection(shell, user, n, rng, physical_marks)
        for sig, th, _, _ in (got, ref):
            assert sig.size == n
            assert np.all(sig <= user.sigma_max_rad + 1e-12)
            assert th.min() >= 0.0 and th.max() < 2 * math.pi
        assert ks_2samp(got[0], ref[0]).pvalue > 1e-3
        nu = [doppler_hz_arrays(shell, user, th, ph, mk) for _, th, ph, mk in (got, ref)]
        assert ks_2samp(*nu).pvalue > 1e-3
        up = [np.mean(mk == 1) for *_, mk in (got, ref)]
        p = 0.5 * (up[0] + up[1])
        assert abs(up[0] - up[1]) < 4.0 * math.sqrt(p * (1 - p) * 2 / n)

    def test_empty_request(self, shell, equator_user):
        out = sample_visible(shell, equator_user, 0, np.random.default_rng(23))
        assert [x.size for x in out] == [0, 0, 0, 0]

    def test_count_must_be_a_non_negative_integer(self, shell, equator_user):
        # -1 gave (), 2.5 a TypeError after a block of draws, True one sample
        for count in (-1, 2.5, True):
            with pytest.raises(DomainError):
                sample_visible(shell, equator_user, count, np.random.default_rng(23))

    def test_band_grazing_user(self, shell, monkeypatch):
        # the cap of this user touches the band in a single polar angle
        mask = math.radians(10.0)
        phi_u = shell.polar_inclination_rad - sigma_from_elevation(shell, mask)
        user = UserGeometry.for_shell(shell, phi_u, mask)
        assert user.user_polar_rad + user.sigma_max_rad == shell.polar_inclination_rad
        with pytest.raises(NoVisibleSatellites):
            sample_visible(shell, user, 10, np.random.default_rng(24))
        # overlapping by 1e-12 rad its cap is still sampled well ...
        user = UserGeometry.for_shell(shell, phi_u + 1e-12, mask)
        sig, *_ = sample_visible(shell, user, 10, np.random.default_rng(24))
        assert sig.size == 10
        # ... but in a box far wider than the cap the draw budget runs out
        # after one block instead of looping on
        monkeypatch.setattr(nbpp, "_BOX_SLACK", 0.1)
        draws = []
        inner = nbpp.sample_arrays

        def counted(box_shell, count, *args):
            draws.append(count)
            return inner(box_shell, count, *args)

        monkeypatch.setattr(nbpp, "sample_arrays", counted)
        with pytest.raises(DomainError):
            sample_visible(shell, user, 10, np.random.default_rng(24))
        assert sum(draws) == nbpp._BLOCK
