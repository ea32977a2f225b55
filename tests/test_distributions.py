import functools
import logging
import math
import os
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from oracles import (
    _doppler_cdf_row, annulus_pass_all_columns, cell_shares_loop,
    doppler_cdf_adaptive, doppler_cdf_riemann, joint_mass_at, joint_pdf_grid_rows,
    p_cap_adaptive, rayleigh_gain_cdf, ring_index_midpoint, table_cdf_at)

from leo_channel import channel as ch
from leo_channel import distributions as dist
from leo_channel.errors import DomainError
from leo_channel.geometry import ShellConfig, UserGeometry, sigma_from_elevation
from leo_channel.nbpp import sample_visible
from leo_channel.orbit_sim import ks_distance
from leo_channel.visibility import CapModel
from leo_channel.propagation import (
    delay as delay_fn,
    delay_inverse,
    doppler_hz_arrays,
    gain as gain_fn,
    gain_inverse,
)


# the reference users and two whose cap crosses a band edge
ORACLE_USERS = [(0.0, 30.0), (60.0, 10.0), (45.0, 25.0), (50.0, 10.0)]
# (inclination, latitude, mask) in degrees: the oracle users and the pole
# user on an 89 degree shell
KERNEL_USERS = [(53.0, lat, mask) for lat, mask in ORACLE_USERS] + [(89.0, 90.0, 30.0)]


def _cap(shell, lat_deg, mask_deg):
    return CapModel(shell, UserGeometry.for_shell(
        shell, math.pi / 2 - math.radians(lat_deg), math.radians(mask_deg)))


@functools.cache
def _shell_cap(incl_deg, lat_deg, mask_deg):
    return _cap(ShellConfig(inclination_rad=math.radians(incl_deg)),
                lat_deg, mask_deg)


@pytest.fixture(scope="module")
def mc_equator(shell, equator_user):
    """200k visible-cap samples shared by the KS tests in this module."""
    rng = np.random.default_rng(30)
    return sample_visible(shell, equator_user, 200_000, rng)


class TestGainDistribution:
    def test_support_endpoints(self, cap_equator):
        g_min, g_max = cap_equator.gain_bounds
        assert dist.gain_cdf(cap_equator, g_min) == 0.0
        assert dist.gain_cdf(cap_equator, g_max) == 1.0
        assert dist.gain_cdf(cap_equator, g_min * 0.5) == 0.0
        assert dist.gain_cdf(cap_equator, g_max * 2.0) == 1.0

    def test_monotone(self, cap_equator):
        g_min, g_max = cap_equator.gain_bounds
        vals = dist.gain_cdf(cap_equator, np.linspace(g_min, g_max, 200))
        assert np.all(np.diff(vals) >= -1e-12)

    def test_pdf_integrates_to_one(self, cap_equator):
        g_min, g_max = cap_equator.gain_bounds
        val, _ = quad(lambda g: dist.gain_pdf(cap_equator, g), g_min, g_max,
                      limit=300)
        assert val == pytest.approx(1.0, abs=1e-4)

    def test_pdf_matches_cdf_difference(self, cap_equator):
        g_min, g_max = cap_equator.gain_bounds
        h = (g_max - g_min) * 1e-5
        for g in np.linspace(g_min, g_max, 22)[1:-1]:
            fd = (dist.gain_cdf(cap_equator, g + h)
                  - dist.gain_cdf(cap_equator, g - h)) / (2 * h)
            assert dist.gain_pdf(cap_equator, float(g)) == pytest.approx(fd, rel=1e-3)

    def test_pdf_nonnegative(self, cap_equator):
        g = np.linspace(*cap_equator.gain_bounds, 500)
        assert np.all(dist.gain_pdf(cap_equator, g) >= 0.0)

    def test_ks_against_monte_carlo(self, shell, cap_equator, mc_equator):
        sig = mc_equator[0]
        pcap = dist.pcap_interpolator(cap_equator)
        d = ks_distance(gain_fn(shell, sig),
                        lambda x: dist.gain_cdf(cap_equator, x, pcap))
        assert d < 0.005


class TestDelayDistribution:
    def test_support(self, cap_equator):
        tau_lo, tau_hi = cap_equator.delay_bounds
        assert tau_lo == pytest.approx(1.83e-3, rel=1.5e-2)
        assert tau_hi == pytest.approx(3.33e-3, rel=1.5e-2)
        assert dist.delay_cdf(cap_equator, tau_lo) == 0.0
        assert dist.delay_cdf(cap_equator, tau_hi) == 1.0

    def test_min_delay_zero_mass_mid_latitude(self, cap_midlat):
        # the cap grazes the band at sigma_min, so no probability sits there
        assert dist.delay_cdf(cap_midlat, cap_midlat.delay_bounds[0]) == 0.0

    def test_pdf_integrates_to_one(self, cap_midlat):
        tau_lo, tau_hi = cap_midlat.delay_bounds
        val, _ = quad(lambda t: dist.delay_pdf(cap_midlat, t), tau_lo, tau_hi,
                      limit=300)
        assert val == pytest.approx(1.0, abs=1e-4)

    def test_pdf_matches_cdf_difference(self, cap_midlat):
        tau_lo, tau_hi = cap_midlat.delay_bounds
        h = (tau_hi - tau_lo) * 1e-5
        for t in np.linspace(tau_lo, tau_hi, 22)[1:-1]:
            fd = (dist.delay_cdf(cap_midlat, t + h)
                  - dist.delay_cdf(cap_midlat, t - h)) / (2 * h)
            assert dist.delay_pdf(cap_midlat, float(t)) == pytest.approx(fd, rel=1e-3)

    def test_pdf_nonnegative(self, cap_midlat):
        t = np.linspace(*cap_midlat.delay_bounds, 500)
        assert np.all(dist.delay_pdf(cap_midlat, t) >= 0.0)

    def test_ks_against_monte_carlo(self, shell, cap_equator, mc_equator):
        sig = mc_equator[0]
        pcap = dist.pcap_interpolator(cap_equator)
        d = ks_distance(delay_fn(shell, sig),
                        lambda x: dist.delay_cdf(cap_equator, x, pcap))
        assert d < 0.005


class TestArrayLaws:
    """gain_cdf, delay_cdf, gain_pdf and delay_pdf: one function each,
    array in and array out, exact unless given pcap_interpolator's table."""

    @pytest.mark.parametrize("lat,mask", ORACLE_USERS)
    def test_cdfs_match_adaptive_oracle(self, shell, lat, mask):
        cap = _cap(shell, lat, mask)
        g = np.linspace(*cap.gain_bounds, 12)[1:-1]
        tau = np.linspace(*cap.delay_bounds, 12)[1:-1]
        p_g = [p_cap_adaptive(cap, s) for s in gain_inverse(shell, g).tolist()]
        p_t = [p_cap_adaptive(cap, s) for s in delay_inverse(shell, tau).tolist()]
        assert np.max(np.abs(dist.gain_cdf(cap, g) - (1.0 - np.divide(
            p_g, cap.p_sat)))) < 1e-12
        assert np.max(np.abs(dist.delay_cdf(cap, tau) - np.divide(
            p_t, cap.p_sat))) < 1e-12

    def test_array_call_is_the_scalar_calls(self, cap_midlat):
        g = np.linspace(0.9, 1.1, 41) * np.mean(cap_midlat.gain_bounds)
        tau = np.linspace(0.9, 1.1, 41) * np.mean(cap_midlat.delay_bounds)
        for fn, x in ((dist.gain_cdf, g), (dist.gain_pdf, g),
                      (dist.delay_cdf, tau), (dist.delay_pdf, tau)):
            one = [fn(cap_midlat, v) for v in x.tolist()]
            assert all(type(v) is float for v in one)
            assert np.array_equal(fn(cap_midlat, x), one)

    @pytest.mark.parametrize("incl,lat,mask", [(53.0, 60.0, 10.0),
                                               (53.0, 53.0, 0.0),
                                               (89.0, 90.0, 30.0)])
    def test_pdfs_write_no_negative_zero(self, incl, lat, mask):
        # these caps graze the band at sigma_min, where p_cap' is exactly
        # 0: the PDF there is +0, as the CLI sweeps write it
        cap = _shell_cap(incl, lat, mask)
        g = np.linspace(*cap.gain_bounds, 200)
        tau = np.linspace(*cap.delay_bounds, 200)
        for pdf in (dist.gain_pdf(cap, g), dist.delay_pdf(cap, tau)):
            assert np.any(pdf == 0.0)
            assert not np.any(np.signbit(pdf))

    @pytest.mark.parametrize("lat,mask", [(0.0, 30.0), (60.0, 10.0)])
    def test_pdfs_vanish_outside_the_support(self, shell, lat, mask):
        # +0 beyond both ends, the support ends themselves unchanged
        cap = _cap(shell, lat, mask)
        for pdf, (lo, hi) in ((dist.gain_pdf, cap.gain_bounds),
                              (dist.delay_pdf, cap.delay_bounds)):
            out = pdf(cap, np.array([0.5 * lo, 0.999 * lo, 1.001 * hi, 2.0 * hi]))
            assert np.all(out == 0.0) and not np.any(np.signbit(out))
            ends = pdf(cap, np.array([lo, hi]))
            assert np.all(ends >= 0.0) and np.any(ends > 0.0)

    @pytest.mark.parametrize("lat,mask", ORACLE_USERS)
    def test_table_error_is_below_ks_resolution(self, shell, lat, mask):
        # the table's linear interpolation error (measured 6.3e-8 at the
        # equator, 2.2e-5 where the cap crosses a band edge) stays a tenth
        # of the KS resolution 1/sqrt(n) of the largest sample set, 1e6
        cap = _cap(shell, lat, mask)
        pcap = dist.pcap_interpolator(cap)
        g = np.linspace(*cap.gain_bounds, 1000)
        tau = np.linspace(*cap.delay_bounds, 1000)
        assert np.max(np.abs(dist.gain_cdf(cap, g, pcap)
                             - dist.gain_cdf(cap, g))) < 1e-4
        assert np.max(np.abs(dist.delay_cdf(cap, tau, pcap)
                             - dist.delay_cdf(cap, tau))) < 1e-4


# each law at six values on its support, (cap, x) -> one array
NAN_LAWS = {
    "gain_cdf": (dist.gain_cdf, "gain"),
    "gain_cdf_table": (lambda cap, x: dist.gain_cdf(cap, x, dist.pcap_interpolator(cap)),
                       "gain"),
    "gain_pdf": (dist.gain_pdf, "gain"),
    "delay_cdf": (dist.delay_cdf, "delay"),
    "delay_pdf": (dist.delay_pdf, "delay"),
    "p_cap": (lambda cap, x: cap.p_cap(x), "sigma"),
    "p_cap_prime": (lambda cap, x: cap.p_cap_prime(x), "sigma"),
    "doppler_cdf_grid": (lambda cap, x: dist.doppler_cdf_grid(cap, x, 1), "nu"),
    "doppler_cdf_descending": (lambda cap, x: dist.doppler_cdf_grid(cap, x, -1), "nu"),
    "doppler_mixed_interpolator": (lambda cap, x: dist.doppler_mixed_interpolator(cap)(x),
                                   "nu"),
    "rayleigh_gain_cdf_grid": (dist.rayleigh_gain_cdf_grid, "gain"),
}


@pytest.mark.parametrize("law", NAN_LAWS)
def test_nan_in_gives_nan_out(cap_midlat, law):
    # a NaN argument is no value of the support: it gives NaN, and the
    # other entries of the same call are those of the call without it
    fn, support = NAN_LAWS[law]
    cap = cap_midlat
    lo, hi = {"gain": cap.gain_bounds, "delay": cap.delay_bounds,
              "sigma": (cap.user.sigma_min_rad, cap.user.sigma_max_rad),
              "nu": (-0.9 * cap.nu_max_hz, 0.9 * cap.nu_max_hz)}[support]
    x = np.linspace(lo, hi, 7)[1:]
    with_nan = x.copy()
    with_nan[2] = np.nan
    out = fn(cap, with_nan)
    assert np.isnan(out[2])
    keep = np.arange(x.size) != 2
    assert np.array_equal(out[keep], fn(cap, x[keep]))


class TestDopplerCdf:
    def test_support_limits(self, cap_equator):
        nu_max = cap_equator.nu_max_hz
        for mark in (1, -1):
            assert dist.doppler_cdf(cap_equator, -1.01 * nu_max, mark) == pytest.approx(0.0, abs=1e-9)
            assert dist.doppler_cdf(cap_equator, 1.01 * nu_max, mark) == pytest.approx(1.0, abs=1e-9)

    def test_marks_identical_at_equator(self, cap_equator):
        for nu in np.linspace(-0.9, 0.9, 20) * cap_equator.nu_max_hz:
            up = dist.doppler_cdf(cap_equator, float(nu), 1)
            down = dist.doppler_cdf(cap_equator, float(nu), -1)
            assert up == pytest.approx(down, abs=1e-6)

    def test_mark_sign_symmetry(self, cap_midlat):
        for nu in np.linspace(-0.85, 0.85, 12) * cap_midlat.nu_max_hz:
            a = dist.doppler_cdf(cap_midlat, float(nu), 1)
            b = 1.0 - dist.doppler_cdf(cap_midlat, -float(nu), -1)
            assert a == pytest.approx(b, abs=1e-6)

    def test_against_riemann_oracle(self, shell, cap_equator):
        # equator cap stays clear of the band edges, where the midpoint
        # rule would stall on the density singularity
        user = cap_equator.user
        for nu_frac, mark in [(-0.5, 1), (0.2, 1), (0.6, -1)]:
            nu = nu_frac * cap_equator.nu_max_hz
            want = doppler_cdf_riemann(shell, user, nu, mark,
                                       user.sigma_max_rad, cap_equator.p_sat)
            got = dist.doppler_cdf(cap_equator, nu, mark)
            assert got == pytest.approx(want, abs=3e-4)

    def test_grid_route_matches_scalar(self, cap_equator):
        nus = np.linspace(-0.95, 0.95, 9) * cap_equator.nu_max_hz
        grid = dist.doppler_cdf_grid(cap_equator, nus, 1)
        scalar = np.array([doppler_cdf_adaptive(cap_equator, float(n), 1) for n in nus])
        assert np.max(np.abs(grid - scalar)) < 5e-5

    def test_grid_route_matches_scalar_at_midlat(self, cap_midlat):
        nus = np.linspace(-0.95, 0.95, 9) * cap_midlat.nu_max_hz
        grid = dist.doppler_cdf_grid(cap_midlat, nus, 1)
        scalar = np.array([doppler_cdf_adaptive(cap_midlat, float(n), 1) for n in nus])
        assert np.max(np.abs(grid - scalar)) < 5e-5

    def test_mixed_median_at_equator(self, cap_equator):
        mixed = dist.doppler_mixed_interpolator(cap_equator)(0.0)
        assert float(mixed) == pytest.approx(0.5, abs=1e-9)

    @pytest.mark.parametrize("cap_name", ["cap_equator", "cap_midlat"])
    def test_two_mark_helper_matches_direct_passes(self, cap_name, request):
        # doppler_pdf_grid's descending CDF is the mirror T - F+(-nu) of
        # one ascending pass; each mark's direct pass is the independent
        # route. 383 edges, the outermost past the support
        cap = request.getfixturevalue(cap_name)
        edges, up, down, _ = dist.doppler_pdf_grid(cap, cap.nu_max_hz / 190)
        assert edges.size == 383
        assert np.max(np.abs(up - dist.doppler_cdf_grid(cap, edges, 1))) <= 1e-14
        assert np.max(np.abs(down - dist.doppler_cdf_grid(cap, edges, -1))) <= 1e-14
        assert np.all(down >= 0.0)
        assert np.all(down[edges < -cap.nu_max_hz] == 0.0)

    def test_mixed_monotone(self, cap_midlat):
        nus = np.linspace(-1.05, 1.05, 400) * cap_midlat.nu_max_hz
        f = 0.5 * (dist.doppler_cdf_grid(cap_midlat, nus, 1)
                   + dist.doppler_cdf_grid(cap_midlat, nus, -1))
        assert np.all(np.diff(f) >= -1e-12)

    def test_cap_past_the_rim_is_the_full_cap(self, cap_equator, cap_midlat):
        # no visible satellite lies past sigma_max, so a sub-cap beyond it
        # is the full cap, bit for bit (its band reached below the mask, and
        # the CDF rose to 3.6 at 2 sigma_max); a NaN cap gives NaN
        for cap, factors in ((cap_equator, (1.0001, 1.2, 2.0)), (cap_midlat, (1.5,))):
            nus = np.linspace(-1.0, 1.0, 5) * cap.nu_max_hz
            full = dist.doppler_cdf_grid(cap, nus, 1)
            for f in factors:
                sub = dist.doppler_cdf_grid(cap, nus, 1, f * cap.user.sigma_max_rad)
                assert np.array_equal(sub, full)
            assert np.all(np.isnan(dist.doppler_cdf_grid(cap, nus, 1, math.nan)))

    def test_mark_must_be_plus_or_minus_one(self, cap_equator):
        # mark 2 read 0.220 at -nu_max and 0.780 at +nu_max
        for mark in (2, 0, -2):
            for cap_sigma in (None, math.nan):
                with pytest.raises(DomainError):
                    dist.doppler_cdf_grid(cap_equator, [0.0], mark, cap_sigma)
            with pytest.raises(DomainError):
                dist.joint_pdf_grid(cap_equator, mark=mark)

    def test_empty_sub_cap_is_zero(self, cap_midlat):
        # no satellite lies within sigma_min of this user: the sub-cap's
        # polar rule is one panel of zero weights, and the CDF is exactly 0
        s_min = cap_midlat.user.sigma_min_rad
        assert s_min > 0.0 and cap_midlat.p_cap(s_min) == 0.0
        nus = np.append(np.linspace(-1.05, 1.05, 41) * cap_midlat.nu_max_hz, math.inf)
        for cap_sigma in (s_min, 0.5 * s_min):
            for mark in (1, -1):
                f = dist.doppler_cdf_grid(cap_midlat, nus, mark, cap_sigma)
                assert np.all(f == 0.0), (cap_sigma, mark)

    def test_mixed_ks_against_monte_carlo(self, shell, cap_equator, mc_equator):
        _, th, ph, mk = mc_equator
        nu = doppler_hz_arrays(shell, cap_equator.user, th, ph, mk)
        d = ks_distance(nu, lambda x: dist.doppler_cdf_mixed_batch(cap_equator, x))
        assert d < 0.005

    @settings(max_examples=12, deadline=None)
    @given(user=st.sampled_from(KERNEL_USERS), mark=st.sampled_from([1, -1]),
           reach=st.floats(0.0, 1.0),
           fracs=st.lists(st.floats(-1.1, 1.1), min_size=1, max_size=6),
           seed=st.integers(0, 2 ** 32 - 1))
    # every user, on the full cap with one mark and a sub-cap with the other
    @example(user=KERNEL_USERS[0], mark=1, reach=1.0, fracs=[-0.95, 0.0, 0.3], seed=0)
    @example(user=KERNEL_USERS[0], mark=-1, reach=0.6, fracs=[-0.5, 0.7], seed=1)
    @example(user=KERNEL_USERS[1], mark=-1, reach=1.0, fracs=[-0.95, 0.0, 0.3], seed=0)
    @example(user=KERNEL_USERS[1], mark=1, reach=0.6, fracs=[-0.5, 0.7], seed=1)
    @example(user=KERNEL_USERS[2], mark=1, reach=1.0, fracs=[-0.95, 0.0, 0.3], seed=0)
    @example(user=KERNEL_USERS[2], mark=-1, reach=0.6, fracs=[-0.5, 0.7], seed=1)
    @example(user=KERNEL_USERS[3], mark=-1, reach=1.0, fracs=[-0.95, 0.0, 0.3], seed=0)
    @example(user=KERNEL_USERS[3], mark=1, reach=0.6, fracs=[-0.5, 0.7], seed=1)
    @example(user=KERNEL_USERS[4], mark=1, reach=1.0, fracs=[-0.95, 0.0, 0.3], seed=0)
    @example(user=KERNEL_USERS[4], mark=-1, reach=0.6, fracs=[-0.5, 0.7], seed=1)
    def test_grid_kernel_properties(self, user, mark, reach, fracs, seed):
        cap = _shell_cap(*user)
        lo, hi = cap.user.sigma_min_rad, cap.user.sigma_max_rad
        cap_sigma = hi if reach == 1.0 else lo + reach * (hi - lo)
        nus = np.array(fracs) * cap.nu_max_hz
        f = dist.doppler_cdf_grid(cap, nus, mark, cap_sigma=cap_sigma)
        order = np.argsort(nus, kind="stable")
        assert np.all(np.diff(f[order]) >= 0.0)
        assert np.all((f >= 0.0) & (f <= 1.0 + 1e-12))
        perm = np.random.default_rng(seed).permutation(nus.size)
        shuffled = dist.doppler_cdf_grid(cap, nus[perm], mark, cap_sigma=cap_sigma)
        assert np.array_equal(shuffled, f[perm])
        single = [dist.doppler_cdf(cap, float(n), mark, cap_sigma=cap_sigma)
                  for n in nus]
        assert np.max(np.abs(f - single)) <= 1e-12
        # the one-ring annulus pass is the slice loop up to summation order.
        # Its deposit sums a block's cells into each nu bin one after the
        # other, up to 33k terms where the loop sums a slice's 511: with
        # 1-6 edges the two differ by up to 1.4e-13 (measured over 150
        # draws), with 401 edges by under 5e-15
        row = _doppler_cdf_row(cap, nus[order], mark, cap_sigma, 384)
        assert np.max(np.abs(f[order] - row)) <= 2e-12


class TestDopplerPdfGrid:
    def test_normalization(self, cap_equator):
        pdf = dist.doppler_pdf_grid(cap_equator)[3]
        assert float(pdf.sum()) * dist.DOPPLER_NU_STEP_HZ == pytest.approx(1.0, abs=1e-3)

    def test_symmetric_at_equator(self, cap_equator):
        pdf = dist.doppler_pdf_grid(cap_equator)[3]
        assert np.max(np.abs(pdf - pdf[::-1])) < 1e-6 * max(pdf.max(), 1e-300) + 1e-12

    def test_interior_peaks(self, cap_equator):
        pdf = dist.doppler_pdf_grid(cap_equator)[3]
        peak = int(np.argmax(pdf))
        assert 0 < peak < pdf.size - 1
        # peaks sit near, but strictly inside, the support edges
        occupied = np.nonzero(pdf > 0)[0]
        assert peak not in (occupied[0], occupied[-1])

    def test_nonnegative(self, cap_midlat):
        pdf = dist.doppler_pdf_grid(cap_midlat)[3]
        assert np.all(pdf >= 0.0)


class TestJointDistribution:
    def test_corner_is_one(self, cap_equator):
        # the joint CDF at (nu, tau) is the Doppler CDF of the sub-cap
        # reached within delay tau
        nu_max = cap_equator.nu_max_hz
        sigma = delay_inverse(cap_equator.shell, cap_equator.delay_bounds[1])
        for mark in (1, -1):
            corner = dist.doppler_cdf(cap_equator, 1.01 * nu_max, mark, sigma)
            assert corner == pytest.approx(1.0, abs=1e-8)

    def test_full_cap_marginal_is_doppler(self, cap_equator):
        sigma = delay_inverse(cap_equator.shell, cap_equator.delay_bounds[1])
        nus = np.linspace(-0.8, 0.8, 10) * cap_equator.nu_max_hz
        joint = dist.doppler_cdf_grid(cap_equator, nus, 1, cap_sigma=sigma)
        marg = dist.doppler_cdf_grid(cap_equator, nus, 1)
        assert np.max(np.abs(joint - marg)) <= 1e-9

    def test_full_doppler_marginal_is_delay(self, cap_equator):
        nu_hi = 1.001 * cap_equator.nu_max_hz
        tau_lo, tau_hi = cap_equator.delay_bounds
        for tau in np.linspace(tau_lo, tau_hi, 10):
            sigma = delay_inverse(cap_equator.shell, float(tau))
            joint = dist.doppler_cdf(cap_equator, nu_hi, 1, sigma)
            marg = dist.delay_cdf(cap_equator, float(tau))
            assert joint == pytest.approx(marg, abs=1e-6)

    def test_pdf_grid_normalizes(self, cap_equator):
        pdf = dist.joint_pdf_grid(cap_equator, mark=1)
        mass = float(pdf.sum()) * dist.NU_STEP_HZ * dist.TAU_STEP_S
        assert mass == pytest.approx(1.0, abs=5e-3)

    def test_delay_marginal_recovered(self, cap_equator):
        # compare on cells fully inside the support: a cell straddling a
        # support edge carries the average of a partially covered interval
        # and cannot match the point density there
        step = dist.TAU_STEP_S
        pdf = dist.joint_pdf_grid(cap_equator, mark=1)
        marg = pdf.sum(axis=1) * dist.NU_STEP_HZ
        tau_c = dist.centers(dist.tau_edges(cap_equator, step))
        tau_lo, tau_hi = cap_equator.delay_bounds
        inner = (tau_c - step / 2 >= tau_lo) & (tau_c + step / 2 <= tau_hi)
        want = dist.delay_pdf(cap_equator, tau_c[inner])
        l1 = np.sum(np.abs(marg[inner] - want)) * step
        assert l1 < 0.02

    @pytest.mark.parametrize("cap_name", ["cap_equator", "cap_midlat"])
    def test_pdf_grid_needs_no_clamping(self, cap_name, request, caplog):
        cap = request.getfixturevalue(cap_name)
        with caplog.at_level(logging.INFO, logger=dist.__name__):
            for mark in (1, -1):
                pdf = dist.joint_pdf_grid(cap, tau_step_s=8.4e-5, mark=mark)
                # the padding rows lie outside the delay support
                assert np.all(pdf[0] == 0.0) and np.all(pdf[-1] == 0.0)
        assert not [r for r in caplog.records if "clamped" in r.getMessage()]

    @pytest.mark.parametrize("cap_name", ["cap_equator", "cap_midlat"])
    def test_descending_grid_is_the_mirror(self, cap_name, request):
        # scattering_function takes the descending grid as the ascending
        # one reversed in nu; a direct descending pass checks that
        cap = request.getfixturevalue(cap_name)
        up = dist.joint_pdf_grid(cap, mark=1)
        e = dist.nu_edges(cap, dist.NU_STEP_HZ, 0)
        assert np.array_equal(e, -e[::-1])
        down = dist.joint_pdf_grid(cap, mark=-1)
        assert np.max(np.abs(down - up[:, ::-1])) <= 1e-12 * float(up.max())

    @pytest.mark.parametrize("cap_name", ["cap_equator", "cap_midlat"])
    @pytest.mark.parametrize("tau_step_s", [8.4e-5, 2.8e-5])
    def test_matches_row_route_at_four_times_the_nodes(self, cap_name,
                                                       tau_step_s, request):
        # reference: one nested sub-cap row per delay edge with 4x the
        # polar nodes per panel. Mark -1 is checked against the mirror
        # nu -> -nu of the mark +1 reference: mirroring the azimuth about
        # the user's and flipping the mark negates the Doppler shift and
        # keeps the central angle, so the two grids are mirror images
        # (to 2e-13 of the peak for the row route at lat 60)
        cap = request.getfixturevalue(cap_name)
        ref = joint_pdf_grid_rows(cap, dist.NU_STEP_HZ, tau_step_s, 1,
                                  n_nodes=4 * 384)
        rows = joint_pdf_grid_rows(cap, dist.NU_STEP_HZ, tau_step_s, 1)
        peak = float(ref.max())
        for mark, want in ((1, ref), (-1, ref[:, ::-1])):
            pdf = dist.joint_pdf_grid(cap, dist.NU_STEP_HZ, tau_step_s, mark)
            err = float(np.max(np.abs(pdf - want))) / peak
            assert err < 1e-2
            # no worse than the row route at its own 384 nodes per panel
            assert err <= float(np.max(np.abs(rows - ref))) / peak

    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(mask=st.floats(0.0, 60.0), reach=st.floats(0.0, 0.999),
           mark=st.sampled_from([1, -1]))
    @example(mask=10.0, reach=0.999, mark=1)
    @example(mask=30.0, reach=0.999, mark=-1)
    @example(mask=0.0, reach=0.7, mark=1)  # lat 53.2: the cap crosses a band edge
    def test_grid_properties(self, shell, caplog, mask, reach, mark):
        # reach runs the latitude from the equator to the coverage cutoff
        sigma1 = sigma_from_elevation(shell, math.radians(mask))
        cutoff = math.pi / 2 - shell.polar_inclination_rad + sigma1
        cap = CapModel(shell, UserGeometry.for_shell(
            shell, math.pi / 2 - reach * cutoff, math.radians(mask)))
        tau_lo, tau_hi = cap.delay_bounds
        nu_step, tau_step = cap.nu_max_hz / 20, (tau_hi - tau_lo) / 12
        with caplog.at_level(logging.DEBUG, logger=dist.__name__):
            pdf = dist.joint_pdf_grid(cap, nu_step, tau_step, mark)
        assert not [r for r in caplog.records if "clamped" in r.getMessage()]
        assert np.all(pdf >= 0.0)
        # the other mark is this grid's nu-mirror, on exactly mirrored edges
        e = dist.nu_edges(cap, nu_step, 0)
        assert np.array_equal(e, -e[::-1])
        other = dist.joint_pdf_grid(cap, nu_step, tau_step, -mark)
        assert np.max(np.abs(other - pdf[:, ::-1])) <= 1e-12 * float(pdf.max())
        cdf = np.cumsum(np.cumsum(pdf, axis=0), axis=1) * nu_step * tau_step
        assert np.all(np.diff(cdf, axis=0) >= 0.0)
        assert np.all(np.diff(cdf, axis=1) >= 0.0)
        want = dist.delay_cdf(cap, dist.tau_edges(cap, tau_step)[1:])
        assert np.max(np.abs(cdf[:, -1] - want)) <= 1e-9
        # two fixed-rule grids; with masks down to 0 deg each is within
        # 3.3e-4 of the adaptive Doppler CDF (measured)
        full = dist.doppler_cdf_grid(cap, e[1:], mark)
        assert np.max(np.abs(cdf[-1] - full)) <= 1e-3

    def test_u_shaped_support(self, cap_equator):
        # no mass at (short delay, extreme Doppler): the near cap cannot
        # produce large radial speeds
        pdf = dist.joint_pdf_grid(cap_equator, mark=1)
        nu_c = dist.centers(dist.nu_edges(cap_equator, dist.NU_STEP_HZ, 0))
        tau_c = dist.centers(dist.tau_edges(cap_equator, dist.TAU_STEP_S))
        tau_lo, tau_hi = cap_equator.delay_bounds
        near = tau_c < tau_lo + 0.15 * (tau_hi - tau_lo)
        fast = np.abs(nu_c) > 0.85 * cap_equator.nu_max_hz
        corner = float(pdf[np.ix_(near, fast)].sum()) * dist.NU_STEP_HZ * dist.TAU_STEP_S
        assert corner < 1e-9
        assert float(pdf.max()) > 0.0

    def test_pair_bound_keeps_the_values(self, cap_equator, monkeypatch):
        # a bound of 64 pairs splits each block's straddled edges into
        # many runs; every bin still takes its terms in the same order
        nu = np.linspace(-1.05, 1.05, 401) * cap_equator.nu_max_hz
        runs = []
        inner = np.bincount
        monkeypatch.setattr(np, "bincount",
                            lambda *a, **k: runs.append(1) or inner(*a, **k))
        cdf = dist.doppler_cdf_grid(cap_equator, nu, 1)
        pdf = dist.joint_pdf_grid(cap_equator)
        whole = len(runs)
        monkeypatch.setattr(dist, "_MAX_PAIRS", 64)
        assert np.array_equal(dist.doppler_cdf_grid(cap_equator, nu, 1), cdf)
        assert np.array_equal(dist.joint_pdf_grid(cap_equator), pdf)
        assert len(runs) > 10 * whole


def _lookup_edges(kind: int, step: float, m: int, cap) -> np.ndarray:
    """The kernel's edge sets: the joint nu axis, doppler_pdf_grid's pass
    edges (with +inf) at step and at the step of the table of 2m + 1
    edges on the support, and mark_symmetry's 10 points, all uniform;
    kind 4 is quadratically spaced, not uniform, and kind 5 the joint axis
    between -inf and +inf, as doppler_cdf_grid passes it for infinite
    values."""
    if kind == 0:
        return dist.nu_edges(cap, step, 0)
    if kind in (1, 2):
        step = step if kind == 1 else 1.0001 * cap.nu_max_hz / m
        return np.append(dist.nu_edges(cap, step, 1), math.inf)
    if kind == 3:
        return np.linspace(-0.9, 0.9, 10) * cap.nu_max_hz
    if kind == 4:
        return step * np.cumsum(np.arange(1.0, 2 * m + 2)) - 1e3
    return np.concatenate(([-math.inf], _lookup_edges(0, step, m, cap)))


class TestCellShares:
    @settings(max_examples=80, deadline=None)
    @given(n_edges=st.integers(1, 30), uniform=st.booleans(), inf_tail=st.booleans(),
           spread=st.floats(0.0, 4.0), scalar=st.booleans(),
           seed=st.integers(0, 2 ** 32 - 1))
    @example(n_edges=30, uniform=True, inf_tail=True, spread=4.0, scalar=False, seed=0)
    @example(n_edges=1, uniform=False, inf_tail=True, spread=0.0, scalar=True, seed=1)
    def test_matches_cell_loop(self, n_edges, uniform, inf_tail, spread, scalar, seed):
        # values on edges, zero-width cells and cells across many edges,
        # with a bound of 16 pairs: many runs per call
        rng = np.random.default_rng(seed)
        e = (np.arange(n_edges, dtype=float) if uniform
             else np.cumsum(rng.uniform(0.05, 2.0, n_edges)))
        e -= e[n_edges // 2]
        v = rng.uniform(-1.0, 1.0, (4, 9)) * (1.0 + spread) * (e[-1] - e[0] + 1.0)
        on = rng.random(v.shape) < 0.3
        v[on] = rng.choice(e, on.sum())
        v[:, 1:] = np.where(rng.random((4, 8)) < 0.2, v[:, :-1], v[:, 1:])
        if inf_tail:
            e = np.append(e, math.inf)
        row, weight = ((np.arange(4)[:, None] % 3, 1.0) if scalar else
                       (rng.integers(0, 3, (4, 8)), rng.uniform(0.0, 2.0, (4, 8))))
        sizes, bincount = [], np.bincount

        def spy(x, *args, **kwargs):
            sizes.append(np.size(x))
            return bincount(x, *args, **kwargs)

        with mock.patch.object(dist, "_MAX_PAIRS", 16), \
                mock.patch.object(np, "bincount", spy):
            got = dist._cell_shares(v, e, row, 3, weight)
        want = cell_shares_loop(v, e, row, 3, weight)
        assert np.all(got >= 0.0)
        assert np.all(np.abs(got - want) <= 1e-14 * want.sum(axis=1, keepdims=True))
        # the runs' memory bound: the bound's pairs plus one edge's cells
        assert max(sizes) <= 16 + v[:, 1:].size


class TestResolutionBudget:
    """The azimuth sampling adds at most a third of the polar rule's error.

    The azimuth error is the pass at its azimuth count per slice against
    4x the samples, the polar error the pass at its node count per panel
    against 4x the nodes, both at the same other resolution.
    """

    @pytest.mark.parametrize("cap_name", ["cap_equator", "cap_midlat"])
    def test_budget_measures_the_shipped_joint_pass(self, cap_name, request):
        cap = request.getfixturevalue(cap_name)
        mass = joint_mass_at(cap, 8.4e-5, 64, dist._N_ANNULUS_THETA)
        want = dist.joint_pdf_grid(cap, tau_step_s=8.4e-5)
        assert np.array_equal(mass / (dist.NU_STEP_HZ * 8.4e-5), want)

    @staticmethod
    def _joint_errors(cap, tau_step_s):
        # 64 polar nodes per panel and _N_ANNULUS_THETA samples, as
        # joint_pdf_grid: (azimuth error, polar error)
        n = dist._N_ANNULUS_THETA
        base = joint_mass_at(cap, tau_step_s, 64, n)
        polar = np.max(np.abs(joint_mass_at(cap, tau_step_s, 4 * 64, n) - base))
        azimuth = np.max(np.abs(joint_mass_at(cap, tau_step_s, 64, 4 * n) - base))
        return azimuth, polar

    @pytest.mark.parametrize("cap_name", ["cap_equator", "cap_midlat"])
    def test_joint_pass(self, cap_name, request):
        cap = request.getfixturevalue(cap_name)
        azimuth, polar = self._joint_errors(cap, 8.4e-5)
        assert 0.0 < azimuth <= polar / 3  # > 0: the count reaches the pass

    @pytest.mark.parametrize("cap_name", ["cap_equator", "cap_midlat"])
    def test_joint_pass_at_the_default_tau_step(self, cap_name, request):
        # the tightest budget: 0.33 of the polar error at lat 60
        cap = request.getfixturevalue(cap_name)
        azimuth, polar = self._joint_errors(cap, dist.TAU_STEP_S)
        assert 0.0 < azimuth <= polar / 3

    @pytest.mark.parametrize("cap_name", ["cap_equator", "cap_midlat"])
    def test_full_cap_cdf(self, cap_name, request):
        # 384 polar nodes per panel and _N_THETA samples, as
        # doppler_cdf_grid, on the KS table
        cap = request.getfixturevalue(cap_name)
        n = dist._N_THETA
        base = table_cdf_at(cap, 384, n)
        polar = np.max(np.abs(table_cdf_at(cap, 4 * 384, n) - base))
        azimuth = np.max(np.abs(table_cdf_at(cap, 384, 4 * n) - base))
        assert 0.0 < azimuth <= polar / 3  # > 0: the count reaches the pass


class TestKernelLookups:
    @settings(max_examples=40, deadline=None)
    @given(kind=st.sampled_from([0, 1, 2, 3, 4, 5]), step=st.floats(500.0, 2e4),
           m=st.integers(2, 1000), seed=st.integers(0, 2 ** 32 - 1))
    @example(kind=2, step=1.0, m=1000, seed=0)  # the 2001-edge table
    @example(kind=0, step=2.61e3, m=2, seed=0)  # the default joint axis
    @example(kind=1, step=2.65e3, m=2, seed=0)  # the default Doppler grid
    @example(kind=3, step=1.0, m=2, seed=0)
    @example(kind=4, step=1.0, m=5, seed=0)
    @example(kind=5, step=2.61e3, m=2, seed=0)
    def test_nu_lookup_is_searchsorted(self, cap_midlat, kind, step, m, seed):
        e = _lookup_edges(kind, step, m, cap_midlat)
        assert np.all(np.diff(e) > 0.0)
        finite = e[np.isfinite(e)]
        rng = np.random.default_rng(seed)
        v = np.concatenate((
            finite, np.nextafter(finite, -math.inf), np.nextafter(finite, math.inf),
            [0.0, -0.0, -1e300, 1e300, -math.inf, math.inf],
            rng.uniform(-1.2, 1.2, 500) * np.abs(finite).max()))
        with mock.patch.object(np, "searchsorted", wraps=np.searchsorted) as spy, \
                warnings.catch_warnings():
            warnings.simplefilter("error")  # no spurious RuntimeWarning
            right, left = dist._edge_index(e, v[None])
        assert np.array_equal(right[0], np.searchsorted(e, v, "right"))
        assert np.array_equal(left[0], np.searchsorted(e, v, "left"))
        # uniform edge sets take the floor division, the rest searchsorted
        assert spy.call_count == (kind >= 4)

    @pytest.mark.parametrize("incl, lat, mask", [
        (53.0, 0.0, 30.0), (53.0, 60.0, 10.0),
        (53.0, 63.05, 20.0),  # a cap that grazes the band
        (89.0, 90.0, 30.0),   # the pole
    ])
    def test_ring_index_matches_midpoint_lookup(self, monkeypatch, incl, lat,
                                                mask):
        # every cell of positive width of every block of the joint pass and
        # of a one-ring pass gets the annulus of its midpoint; on one thread
        # each block's ring half-widths pair with its deposit
        cap = _shell_cap(incl, lat, mask)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        rings, deposits = [], []
        arc, shares = dist.arc_halfwidth_clamped, dist._cell_shares

        def spy_arc(user, phi, sigmas):
            rings.append((phi, sigmas, arc(user, phi, sigmas)))
            return rings[-1][2]

        def spy_shares(v, e, row, n_rows, weight):
            deposits.append((row, weight))
            return shares(v, e, row, n_rows, weight)

        monkeypatch.setattr(dist, "arc_halfwidth_clamped", spy_arc)
        monkeypatch.setattr(dist, "_cell_shares", spy_shares)
        dist.joint_pdf_grid(cap)
        n_joint = len(rings)
        lo, hi = cap.user.sigma_min_rad, cap.user.sigma_max_rad
        dist.doppler_cdf_grid(cap, np.linspace(-1.0, 1.0, 11) * cap.nu_max_hz, 1,
                              cap_sigma=0.5 * (lo + hi))
        assert 0 < n_joint < len(rings) == len(deposits)
        for i, ((phi, sigmas, ring), (row, weight)) in enumerate(zip(rings, deposits)):
            n_theta = dist._N_ANNULUS_THETA if i < n_joint else dist._N_THETA
            # the block's cell ends, as the pass sorts them: the outer ring's
            # samples and the inner rings that are neither 0 nor the outer
            # half-width at every node, plus one that is 0 at every node
            outer, inner = ring[:, -1:], ring[:, :-1]
            cols = [j for j in range(inner.shape[1]) if inner[:, j].any()
                    and not np.array_equal(inner[:, j], outer[:, 0])]
            cols += [j for j in range(inner.shape[1]) if not inner[:, j].any()][:1]
            inner = inner[:, cols]
            off = np.sort(np.concatenate(
                (outer * np.linspace(-1.0, 1.0, n_theta), inner, -inner), axis=1),
                axis=1)
            wide = np.diff(off, axis=1) > 0.0
            assert np.array_equal(wide, weight > 0.0)
            want = ring_index_midpoint(cap.user, phi, off, sigmas)
            assert np.array_equal(row[wide], want[wide])

    @pytest.mark.parametrize("incl, lat, mask", [
        (53.0, 0.0, 30.0), (53.0, 60.0, 10.0), (53.0, 0.0, 0.0),
        (89.0, 90.0, 30.0),   # the pole
        (53.0, 63.05, 20.0),  # a cap that grazes the band
    ])
    def test_dropped_ring_columns_carry_no_mass(self, incl, lat, mask):
        # the pass leaves out the ring columns that add only zero-width
        # cells; its masses are those of every column, bit for bit, for the
        # joint pass at the default steps and for a full- and a sub-cap
        # one-ring pass
        cap = _shell_cap(incl, lat, mask)
        taus = np.clip(dist.tau_edges(cap, dist.TAU_STEP_S), *cap.delay_bounds)
        sigmas = delay_inverse(cap.shell, taus)
        e = dist.nu_edges(cap, dist.NU_STEP_HZ, 0)
        n = dist._N_ANNULUS_THETA
        got = dist._annulus_pass(cap, sigmas, e, 1, dist._N_ANNULUS_NODES, n)
        want = annulus_pass_all_columns(cap, sigmas, e, 1, dist._N_ANNULUS_NODES, n)
        assert np.array_equal(got, want)
        lo, hi = cap.user.sigma_min_rad, cap.user.sigma_max_rad
        e = np.linspace(-1.0001, 1.0001, 2001) * cap.nu_max_hz
        for cap_sigma in (hi, 0.5 * (lo + hi)):
            got = dist._annulus_pass(cap, [cap_sigma], e, -1, 384, dist._N_THETA)
            want = annulus_pass_all_columns(cap, [cap_sigma], e, -1, 384, dist._N_THETA)
            assert np.array_equal(got, want)


class TestRayleighGain:
    def test_limits(self, cap_equator):
        g_min, g_max = cap_equator.gain_bounds
        # y = -1 is below -1e3 g_max: exp(-y / g) must not overflow there
        y = np.array([0.0, 1e-4 * g_min, 50.0 * g_max, -1.0])
        vals = dist.rayleigh_gain_cdf_grid(cap_equator, y)
        assert vals[0] == 0.0 and vals[3] == 0.0
        assert vals[1] == pytest.approx(0.0, abs=1e-4)
        assert vals[2] == pytest.approx(1.0, abs=1e-6)

    def test_one_at_huge_and_infinite_gain(self, cap_equator):
        # there exp(-y/g) * y/g^2 was 0 * inf: a NaN, with a RuntimeWarning
        y = np.array([800.0 * cap_equator.gain_bounds[1], 1e300, math.inf])
        assert np.array_equal(dist.rayleigh_gain_cdf_grid(cap_equator, y), [1.0, 1.0, 1.0])

    def test_monotone(self, cap_equator):
        g_max = cap_equator.gain_bounds[1]
        y = np.linspace(1e-3, 8.0, 100) * g_max
        vals = dist.rayleigh_gain_cdf_grid(cap_equator, y)
        assert np.all(np.diff(vals) >= -1e-12)

    def test_grid_matches_scalar(self, cap_equator):
        g_max = cap_equator.gain_bounds[1]
        y = np.array([0.1, 0.5, 1.0, 2.0, 4.0]) * g_max
        grid = dist.rayleigh_gain_cdf_grid(cap_equator, y)
        scalar = np.array([rayleigh_gain_cdf(cap_equator, float(v)) for v in y])
        assert np.max(np.abs(grid - scalar)) < 1e-8

    def test_ks_against_monte_carlo(self, cap_equator, shell, mc_equator):
        rng = np.random.default_rng(31)
        sig = mc_equator[0]
        y = rng.exponential(1.0, sig.size) * gain_fn(shell, sig)
        d = ks_distance(y, lambda x: dist.rayleigh_gain_cdf_grid(cap_equator, x))
        assert d < 0.005

    def test_workspace_is_bounded(self, shell):
        # the (rows, nodes) blocks of visibility._row_blocks bound the work
        # arrays whatever the node count: 4e5 values at 45/25 (128 gain
        # nodes) peak below 32 MiB of traced memory, input not counted
        cap = _cap(shell, 45.0, 25.0)
        y = np.linspace(0.0, 40.0 * cap.gain_bounds[1], 400_001)
        tracemalloc.start()
        try:
            dist.rayleigh_gain_cdf_grid(cap, y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 32 * 2 ** 20

    def test_first_moment(self, cap_equator):
        from leo_channel.channel import path_loss_proposition

        rho2, _ = path_loss_proposition(cap_equator)
        mean_gain = rho2 / cap_equator.availability
        g_max = cap_equator.gain_bounds[1]
        y = np.linspace(0.0, 60.0 * g_max, 20_001)
        tail = 1.0 - dist.rayleigh_gain_cdf_grid(cap_equator, y)
        moment = float(np.trapezoid(tail, y))
        assert moment == pytest.approx(mean_gain, rel=0.01)


class TestGridSpecs:
    def test_doppler_grid_covers_support(self, cap_equator):
        edges = dist.doppler_pdf_grid(cap_equator)[0]
        assert edges[0] < -cap_equator.nu_max_hz
        assert edges[-1] > cap_equator.nu_max_hz
        assert np.allclose(np.diff(edges), dist.DOPPLER_NU_STEP_HZ)

    def test_joint_grid_covers_support(self, cap_midlat):
        tau = dist.tau_edges(cap_midlat, dist.TAU_STEP_S)
        nu = dist.nu_edges(cap_midlat, dist.NU_STEP_HZ, 0)
        tau_lo, tau_hi = cap_midlat.delay_bounds
        assert tau[0] <= tau_lo
        assert tau[-1] >= tau_hi
        assert nu[0] <= -cap_midlat.nu_max_hz
        assert nu[-1] >= cap_midlat.nu_max_hz

    def test_delay_bounds_are_the_caps(self, cap_equator, cap_midlat):
        # the edges start one padding cell before the model's shortest delay
        for cap in (cap_equator, cap_midlat):
            assert dist.tau_edges(cap, 2.8e-5)[1] == cap.delay_bounds[0]

    def test_bad_steps_rejected(self, cap_equator):
        # nu_edges and tau_edges check every step; the grids build on them
        # before they divide by a step
        cap = cap_equator
        for step in (0.0, -1.0, -2.8e-5, math.nan, math.inf):
            for call in (lambda: dist.nu_edges(cap, step, 0),
                         lambda: dist.tau_edges(cap, step),
                         lambda: dist.doppler_pdf_grid(cap, step),
                         lambda: dist.joint_pdf_grid(cap, nu_step_hz=step),
                         lambda: dist.joint_pdf_grid(cap, tau_step_s=step),
                         lambda: ch.scattering_function(cap, nu_step_hz=step),
                         lambda: ch.scattering_function(cap, tau_step_s=step)):
                with warnings.catch_warnings():
                    warnings.simplefilter("error")  # no RuntimeWarning first
                    with pytest.raises(ValueError):
                        call()

    def test_steps_serve_any_user(self, cap_equator, cap_midlat):
        # a grid is its steps: the ones that resolve the equator user
        # cover the lat-60 user's support in full
        steps = dict(nu_step_hz=dist.NU_STEP_HZ, tau_step_s=8.4e-5)
        for cap in (cap_equator, cap_midlat):
            pdf = dist.joint_pdf_grid(cap, **steps)
            mass = float(pdf.sum()) * steps["nu_step_hz"] * steps["tau_step_s"]
            assert mass == pytest.approx(1.0, abs=5e-3)
