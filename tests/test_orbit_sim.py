import math

import numpy as np
import pytest
from scipy.stats import chisquare

from oracles import (central_angle, phi_cdf, positions_cartesian,
                     snapshot_sample_loop)

from leo_channel import orbit_sim as osim
from leo_channel.errors import ConfigError, DomainError
from leo_channel.geometry import (ShellConfig, UserGeometry, cos_central_angle,
                                  slant_range)
from leo_channel.nbpp import sample_visible
from leo_channel.propagation import delay, doppler_hz_arrays


@pytest.fixture(scope="module")
def constellation(shell):
    return osim.build(shell)


ORBIT_PERIOD = 2 * math.pi * (6371e3 + 550e3) / 7290.0


class TestBuild:
    def test_layout_counts(self, constellation):
        assert constellation.ascending_nodes.size == 144
        assert constellation.phase_offsets.shape == (144, 22)
        assert constellation.n_total == 3168

    def test_inconsistent_shell_rejected(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            bad = ShellConfig(n_sats=3000)
        with pytest.raises(ConfigError):
            osim.build(bad)

    def test_on_shell_sphere(self, constellation, shell):
        p = positions_cartesian(constellation, 0.0)
        r = np.linalg.norm(p, axis=1)
        assert np.max(np.abs(r - shell.shell_radius_m)) < 1e-6

    def test_same_orbit_never_coincides(self, constellation):
        s_sat = 2 * math.pi / 22
        for t in (0.0, 137.0, 2000.0):
            theta, phi, _ = osim.propagate_arrays(constellation, t)
            # check one orbit: consecutive slots stay one phase step apart
            p = positions_cartesian(constellation, t)[:22]
            gaps = np.linalg.norm(np.diff(p, axis=0, append=p[:1]), axis=1)
            r = constellation.shell.shell_radius_m
            expected = 2 * r * math.sin(s_sat / 2)
            assert np.min(gaps) == pytest.approx(expected, rel=1e-9)


class TestPropagate:
    def test_periodicity(self, constellation):
        a = positions_cartesian(constellation, 0.0)
        b = positions_cartesian(constellation, ORBIT_PERIOD)
        assert np.max(np.abs(a - b)) < 1e-6

    def test_band_respected(self, constellation, shell):
        for t in (0.0, 500.0, 4321.0):
            _, phi, _ = osim.propagate_arrays(constellation, t)
            b_bar = shell.polar_inclination_rad
            assert phi.min() >= b_bar - 1e-9
            assert phi.max() <= math.pi - b_bar + 1e-9

    def test_speed_is_constant(self, constellation, shell):
        dt = 1e-3
        a = positions_cartesian(constellation, 1234.0 - dt)
        b = positions_cartesian(constellation, 1234.0 + dt)
        speed = np.linalg.norm(b - a, axis=1) / (2 * dt)
        assert np.max(np.abs(speed / shell.sat_speed_mps - 1.0)) < 1e-4

    def test_doppler_against_finite_difference(self, constellation, shell, midlat_user):
        rng = np.random.default_rng(50)
        dt = 5e-4
        worst = 0.0
        for _ in range(100):
            t = float(rng.uniform(0.0, ORBIT_PERIOD))
            k = int(rng.integers(constellation.n_total))
            th0, ph0, _ = osim.propagate_arrays(constellation, t - dt)
            th1, ph1, _ = osim.propagate_arrays(constellation, t + dt)
            thc, phc, mkc = osim.propagate_arrays(constellation, t)
            d0 = slant_range(shell, central_angle(midlat_user, th0[k], ph0[k]))
            d1 = slant_range(shell, central_angle(midlat_user, th1[k], ph1[k]))
            fd = -(shell.carrier_hz / shell.light_speed_mps) * (d1 - d0) / (2 * dt)
            an = float(doppler_hz_arrays(shell, midlat_user, thc[k], phc[k],
                                         int(mkc[k])))
            worst = max(worst, abs(fd - an) / max(abs(an), 1.0))
        assert worst < 1e-3


class TestSnapshots:
    def test_reproducible(self, constellation, equator_user):
        times = [0.0, 10.0, 20.0]
        a = osim.snapshot_sample(constellation, equator_user, times,
                                 np.random.default_rng(51))
        b = osim.snapshot_sample(constellation, equator_user, times,
                                 np.random.default_rng(51))
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_mean_visible_count(self, constellation, equator_user):
        rng = np.random.default_rng(52)
        times = osim.default_snapshot_times(10_000, rng)
        *_, counts = osim.snapshot_sample(constellation, equator_user, times, rng)
        assert counts.mean() == pytest.approx(9.6, rel=0.05)

    def test_delays_inside_support(self, constellation, shell, equator_user):
        rng = np.random.default_rng(53)
        times = osim.default_snapshot_times(2_000, rng)
        sigma, *_ = osim.snapshot_sample(constellation, equator_user, times, rng)
        tau = delay(shell, sigma)
        lo = delay(shell, equator_user.sigma_min_rad)
        hi = delay(shell, equator_user.sigma_max_rad)
        assert tau.min() >= lo * (1 - 1e-9)
        assert tau.max() <= hi * (1 + 1e-9)

    def test_doppler_bounded_by_maximum(self, constellation, shell, equator_user,
                                        cap_equator):
        rng = np.random.default_rng(54)
        times = osim.default_snapshot_times(2_000, rng)
        _, theta, phi, mark, _ = osim.snapshot_sample(constellation, equator_user,
                                                      times, rng)
        nu = doppler_hz_arrays(shell, equator_user, theta, phi, mark)
        assert np.abs(nu).max() <= cap_equator.nu_max_hz * (1 + 1e-6)

    @pytest.mark.parametrize("seed", [58, 59])
    @pytest.mark.parametrize("lat_deg, mask_deg",
                             [(0, 30), (60, 10), (50, 10), (0, 60)])
    def test_matches_loop_oracle(self, constellation, shell, lat_deg, mask_deg, seed):
        # pruned, blocked evaluation against a snapshot-by-snapshot loop over
        # all satellites: same values bit for bit, same generator state after.
        # With a 60 degree mask most equator snapshots see no satellite.
        user = UserGeometry.for_shell(shell, math.radians(90 - lat_deg),
                                      math.radians(mask_deg))
        times = osim.default_snapshot_times(osim._TIME_BLOCK + 57,
                                            np.random.default_rng(seed))
        rng, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
        got = osim.snapshot_sample(constellation, user, times, rng)
        want = snapshot_sample_loop(constellation, user, times, rng_ref)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype
            assert np.array_equal(g, w)
        assert all(x.size == np.count_nonzero(got[4]) for x in got[:4])
        assert rng.bit_generator.state == rng_ref.bit_generator.state

    def test_polar_marginal_matches_density(self, constellation, shell):
        # at an independently drawn random time, a satellite's polar angle
        # is an exact draw from the band density
        rng = np.random.default_rng(55)
        n = 100_000
        times = rng.uniform(0.0, ORBIT_PERIOD, n)
        idx = rng.integers(0, constellation.n_total, n)
        rate = shell.sat_speed_mps / shell.shell_radius_m
        omega0 = constellation.phase_offsets.ravel()[idx]
        omega = omega0 + rate * times
        phi = np.pi / 2 - np.arcsin(math.sin(shell.inclination_rad) * np.sin(omega))
        b_bar = shell.polar_inclination_rad
        edges = np.linspace(b_bar, math.pi - b_bar, 51)
        counts, _ = np.histogram(phi, bins=edges)
        expected = np.diff(phi_cdf(shell, edges)) * n
        _, p_value = chisquare(counts, expected * counts.sum() / expected.sum())
        assert p_value > 0.01


@pytest.mark.parametrize("oracle", ["sample_visible", "snapshot_sample"])
@pytest.mark.parametrize("cap_name", ["cap_equator", "cap_midlat"])
def test_oracles_share_one_record(request, constellation, shell, cap_name, oracle):
    # both oracles return satellite positions (sigma, theta, phi, mark),
    # which checks.ks_triple maps to gain, delay and Doppler
    user = request.getfixturevalue(cap_name).user
    rng = np.random.default_rng(60)
    if oracle == "sample_visible":
        record = sample_visible(shell, user, 2_000, rng)
    else:
        times = osim.default_snapshot_times(2_000, rng)
        record = osim.snapshot_sample(constellation, user, times, rng)[:4]
    sigma, theta, phi, mark = record
    assert sigma.size > 0 and all(x.size == sigma.size for x in record)
    assert [x.dtype for x in record] == [np.float64] * 3 + [np.int64]
    assert np.all((sigma >= user.sigma_min_rad - 1e-12)
                  & (sigma <= user.sigma_max_rad + 1e-12))
    assert np.all((theta >= 0.0) & (theta < 2 * math.pi))
    b_bar = shell.polar_inclination_rad
    assert np.all((phi >= b_bar - 1e-12) & (phi <= math.pi - b_bar + 1e-12))
    assert set(np.unique(mark)) <= {-1, 1}
    # sigma is the central angle of the user to (theta, phi)
    cos_sig = cos_central_angle(user.user_polar_rad, phi, theta)
    assert np.max(np.abs(np.cos(sigma) - cos_sig)) < 1e-12


class TestKsDistance:
    def test_uniform_samples(self):
        rng = np.random.default_rng(56)
        u = rng.uniform(0.0, 1.0, 100_000)
        d = osim.ks_distance(u, lambda x: np.clip(x, 0.0, 1.0))
        assert d < 1.63 / math.sqrt(u.size)

    def test_constant_samples(self):
        d = osim.ks_distance(np.full(1000, 0.5), lambda x: np.clip(x, 0.0, 1.0))
        assert d >= 0.5

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            osim.ks_distance([], lambda x: x)

    def test_cdf_must_return_one_value_per_sample(self):
        u = np.random.default_rng(57).uniform(0.0, 1.0, 500)
        with pytest.raises(DomainError):
            osim.ks_distance(u, lambda x: 0.5)
        with pytest.raises(DomainError):
            osim.ks_distance(u, lambda x: np.clip(x, 0.0, 1.0)[:-1])
