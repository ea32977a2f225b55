import dataclasses
import math

import numpy as np
import pytest

from oracles import (grid_moments, max_doppler_scan, mean_root_gain,
                     path_loss_rho2_adaptive)

from leo_channel import channel as ch
from leo_channel import distributions as dist
from leo_channel import propagation as prop
from leo_channel.config import RunConfig
from leo_channel.geometry import ShellConfig, UserGeometry
from leo_channel.nbpp import sample_visible
from leo_channel.propagation import delay_inverse, gain as gain_fn
from leo_channel.visibility import CapModel


@pytest.fixture(scope="module")
def grid_equator(cap_equator):
    return ch.scattering_function(cap_equator)


class TestPathLoss:
    def test_equator_reference_value(self, cap_equator):
        _, pl = ch.path_loss_proposition(cap_equator)
        assert pl == pytest.approx(117.6, abs=0.2)

    def test_midlat_reference_value(self, cap_midlat):
        _, pl = ch.path_loss_proposition(cap_midlat)
        assert pl == pytest.approx(122.6, abs=0.2)

    @pytest.mark.parametrize("cap_name", ["cap_equator", "cap_midlat"])
    def test_unit_mean_fading_keeps_power(self, request, cap_name):
        # the Rayleigh extension: the faded gain's mean, the integral of the
        # tail of rayleigh_gain_cdf_grid, is E[g] = rho^2 / p_a; the
        # trapezoid over 4e5 points to 40 g_max is far inside the bound
        cap = request.getfixturevalue(cap_name)
        rho2, _ = ch.path_loss_proposition(cap)
        y = np.linspace(0.0, 40.0 * cap.gain_bounds[1], 400_001)
        mean = float(np.trapezoid(1.0 - dist.rayleigh_gain_cdf_grid(cap, y), y))
        assert mean * cap.availability / rho2 == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("cap_name", ["cap_equator", "cap_midlat"])
    def test_matches_adaptive_oracle(self, cap_name, request):
        cap = request.getfixturevalue(cap_name)
        rho2, _ = ch.path_loss_proposition(cap)
        assert rho2 == pytest.approx(path_loss_rho2_adaptive(cap), rel=1e-12)

    @pytest.mark.parametrize("lat,mask", [(45.0, 25.0), (50.0, 10.0)])
    def test_converged_across_band_edge_kinks(self, shell, monkeypatch,
                                              lat, mask):
        # the cap boundary crosses a band edge inside the gain support:
        # quadrupling the nodes per panel leaves rho^2 unchanged
        cap = CapModel(shell, UserGeometry.for_shell(
            shell, math.pi / 2 - math.radians(lat), math.radians(mask)))
        rho2, _ = ch.path_loss_proposition(cap)
        monkeypatch.setattr(dist, "_N_GAIN_NODES", 4 * dist._N_GAIN_NODES)
        fine, _ = ch.path_loss_proposition(cap)
        assert rho2 == pytest.approx(fine, rel=1e-12)

    def test_against_monte_carlo(self, shell, cap_equator):
        rng = np.random.default_rng(40)
        n = 1_000_000
        sig, _, _, _ = sample_visible(shell, cap_equator.user, n, rng)
        gains = gain_fn(shell, sig)
        rho2, _ = ch.path_loss_proposition(cap_equator)
        mc = cap_equator.availability * float(np.mean(gains))
        se = cap_equator.availability * float(np.std(gains)) / math.sqrt(n)
        assert abs(rho2 - mc) < 3.0 * se


class TestScatteringGrid:
    def test_nonnegative(self, grid_equator):
        assert np.all(grid_equator.values >= 0.0)

    def test_integral_equals_power_gain(self, cap_equator, grid_equator):
        rho2, _ = ch.path_loss_proposition(cap_equator)
        assert grid_equator.cell_sum() == pytest.approx(rho2, rel=0.01)

    def test_zero_outside_delay_support(self, cap_equator, grid_equator):
        tau_lo, tau_hi = cap_equator.delay_bounds
        tau_c = grid_equator.tau_s
        outside = (tau_c + grid_equator.tau_step_s / 2 < tau_lo) | (
            tau_c - grid_equator.tau_step_s / 2 > tau_hi)
        assert float(np.abs(grid_equator.values[outside]).sum()) == 0.0

    def test_support_box(self, cap_equator, grid_equator):
        tau_c, nu_c = grid_equator.tau_s, grid_equator.nu_hz
        occupied = grid_equator.values > 0.0
        tau_occ = tau_c[occupied.any(axis=1)]
        nu_occ = nu_c[occupied.any(axis=0)]
        assert tau_occ.min() == pytest.approx(1.83e-3, rel=0.02)
        assert tau_occ.max() == pytest.approx(3.33e-3, rel=0.02)
        assert abs(nu_occ).max() == pytest.approx(246.2e3, rel=0.02)

    def test_density_greatest_near_support_edge(self, cap_equator, grid_equator):
        # the U-curve: each delay row peaks in the outer half of its own
        # Doppler range, and the global maximum sits on the support edge
        tau_c, nu_c = grid_equator.tau_s, grid_equator.nu_hz
        tau_lo, tau_hi = cap_equator.delay_bounds
        checked = on_ridge = 0
        for i, t in enumerate(tau_c):
            if not (tau_lo + 0.2 * (tau_hi - tau_lo) < t
                    < tau_hi - 0.05 * (tau_hi - tau_lo)):
                continue
            row = grid_equator.values[i]
            if row.max() <= 0.0:
                continue
            occ = np.nonzero(row > 1e-6 * row.max())[0]
            if occ.size < 10:
                continue
            checked += 1
            edge = np.abs(nu_c[occ]).max()
            on_ridge += abs(nu_c[int(np.argmax(row))]) > 0.5 * edge
        assert checked > 10
        assert on_ridge / checked > 0.9
        i, _ = np.unravel_index(int(np.argmax(grid_equator.values)),
                                grid_equator.values.shape)
        assert tau_c[i] < tau_lo + 0.1 * (tau_hi - tau_lo)

    def test_grid_diagnostics(self, cap_equator, grid_equator):
        # the default grid passes its normalisation check, and its binned
        # mean Doppler, 0 in the model, stays far below one Doppler step
        rho2, _ = ch.path_loss_proposition(cap_equator)
        assert grid_equator.normalization_error(rho2) <= ch.MAX_NORMALIZATION_ERROR
        assert abs(grid_equator.mean_doppler_hz(rho2)) < 1e3

    def test_gain_delay_identity(self, shell, cap_equator):
        c = shell.light_speed_mps
        tau_lo, tau_hi = cap_equator.delay_bounds
        for tau in np.linspace(tau_lo, tau_hi, 50):
            g = gain_fn(shell, delay_inverse(shell, float(tau)))
            assert g == pytest.approx(1.0 / (c * tau) ** 2, rel=1e-12)

    def test_unit_mean_fading_identity(self, cap_equator, grid_equator):
        # unit-mean fading leaves the grid as it is: its power is p_a times
        # the mean of the faded gain law, to the grid's own 1% integration
        g_max = cap_equator.gain_bounds[1]
        y = np.linspace(0.0, 40.0 * g_max, 400_001)
        faded_mean = float(np.trapezoid(
            1.0 - dist.rayleigh_gain_cdf_grid(cap_equator, y), y))
        assert grid_equator.cell_sum() == pytest.approx(
            cap_equator.availability * faded_mean, rel=0.01)


def _cap(incl: float, lat: float, mask: float) -> CapModel:
    cfg = RunConfig(inclination_deg=incl, lat_deg=lat, min_elev_deg=mask)
    shell = cfg.shell()
    return CapModel(shell, cfg.user(shell))


# inclination / latitude / mask: the reference pair, a band-edge user, two
# zero-mask users, the 89-degree shell's pole user without a mask, and a
# near-polar shell whose cap crosses the band edge
RULE_USERS = [(53.0, 0.0, 30.0), (53.0, 60.0, 10.0), (53.0, 45.0, 25.0),
              (53.0, 0.0, 0.0), (53.0, 36.9, 18.0), (89.0, 90.0, 0.0),
              (88.94, 22.1, 39.1)]
REFERENCE_USERS = [(53.0, 0.0, 30.0), (53.0, 60.0, 10.0)]


def _moments(s):
    return np.array([s.mean_delay_s, s.rms_delay_spread_s, s.rms_doppler_spread_hz,
                     s.channel_spread])


class TestGlobalParams:
    def test_equator_summary(self, cap_equator):
        s = ch.global_params(cap_equator)
        assert s.path_loss_db == pytest.approx(117.6, abs=0.2)
        assert s.mean_delay_s == pytest.approx(2.5e-3, abs=0.1e-3)
        assert s.rms_delay_spread_s == pytest.approx(0.43e-3, abs=0.03e-3)
        assert s.rms_doppler_spread_hz == pytest.approx(134.5e3, abs=3e3)
        assert s.mean_doppler_hz == 0.0
        assert s.channel_spread > 100.0

    def test_summary_is_serializable(self, cap_equator):
        s = ch.global_params(cap_equator)
        d = dataclasses.asdict(s)
        assert set(d) >= {"path_loss_db", "mean_delay_s", "rms_delay_spread_s",
                          "mean_doppler_hz", "rms_doppler_spread_hz",
                          "channel_spread", "availability"}

    @pytest.mark.parametrize("incl,lat,mask", RULE_USERS)
    def test_rule_converged_at_twice_the_nodes(self, monkeypatch, incl, lat, mask):
        cap = _cap(incl, lat, mask)
        base = _moments(ch.global_params(cap))
        monkeypatch.setattr(ch, "_MOMENT_SPLIT", 2 * ch._MOMENT_SPLIT)
        fine = _moments(ch.global_params(cap))
        assert np.all(np.isfinite(base))
        np.testing.assert_allclose(base, fine, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("incl,lat,mask", REFERENCE_USERS + [(89.0, 90.0, 0.0)])
    def test_delay_moments_obey_the_gain_identity(self, incl, lat, mask):
        # g tau^2 = 1/c^2 exactly, so E[g tau^2] / E[g] = p_a / (c^2 rho^2)
        # with rho^2 from the one-dimensional proposition
        cap = _cap(incl, lat, mask)
        s = ch.global_params(cap)
        rho2, _ = ch.path_loss_proposition(cap)
        c = cap.shell.light_speed_mps
        assert s.rms_delay_spread_s ** 2 + s.mean_delay_s ** 2 == pytest.approx(
            cap.availability / (c * c * rho2), rel=1e-12)

    @pytest.mark.parametrize("incl,lat,mask", REFERENCE_USERS + [(89.0, 90.0, 0.0)])
    def test_mean_delay_matches_the_tail_identity(self, incl, lat, mask):
        # g tau = sqrt(g) / c: the mean delay is E[sqrt g] / (c E[g]), both
        # expectations on the one-dimensional gain rule
        cap = _cap(incl, lat, mask)
        rho2, _ = ch.path_loss_proposition(cap)
        want = mean_root_gain(cap) * cap.availability / (cap.shell.light_speed_mps * rho2)
        assert ch.global_params(cap).mean_delay_s == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("incl,lat,mask", REFERENCE_USERS)
    def test_against_gain_weighted_monte_carlo(self, incl, lat, mask):
        # each moment is a ratio of sample means; its standard error is the
        # delta method's, and the rule must lie within 4 of them
        cap = _cap(incl, lat, mask)
        shell, user = cap.shell, cap.user
        sigma, theta, phi, mark = sample_visible(shell, user, 1_000_000,
                                                 np.random.default_rng(41))
        g, tau = prop.gain(shell, sigma), prop.delay(shell, sigma)
        nu = prop.doppler_hz_arrays(shell, user, theta, phi, mark)
        g_bar = g.mean()
        mean = (g * tau).mean() / g_bar
        var = (g * (tau - mean) ** 2).mean() / g_bar
        nu2 = (g * nu * nu).mean() / g_bar
        s = ch.global_params(cap)
        for est, rule, influence in (
                (mean, s.mean_delay_s, g * (tau - mean)),
                (var, s.rms_delay_spread_s ** 2, g * ((tau - mean) ** 2 - var)),
                (nu2, s.rms_doppler_spread_hz ** 2, g * (nu * nu - nu2))):
            se = float(np.std(influence / g_bar)) / math.sqrt(g.size)
            assert abs(est - rule) <= 4.0 * se

    @pytest.mark.parametrize("incl,lat,mask", REFERENCE_USERS)
    def test_grid_moments_converge_to_the_rule(self, incl, lat, mask):
        # the binned grid's moments carry its binning error: at most 2e-4 at
        # the default steps, and less at half of both steps; each grid passes
        # its own normalisation check
        cap = _cap(incl, lat, mask)
        rho2, _ = ch.path_loss_proposition(cap)
        rule = _moments(ch.global_params(cap))[:3]
        gaps = []
        for scale in (1.0, 0.5):
            grid = ch.scattering_function(cap, scale * dist.NU_STEP_HZ,
                                          scale * dist.TAU_STEP_S)
            assert grid.normalization_error(rho2) <= ch.MAX_NORMALIZATION_ERROR
            gaps.append(np.abs(np.array(grid_moments(grid, rho2)) / rule - 1.0))
        assert np.all(gaps[0] <= 2e-4)
        assert np.all(gaps[1] < gaps[0])

    def test_carrier_scaling(self):
        # doubling the carrier doubles the Doppler spread and leaves the
        # delay moments unchanged; the grid at a Doppler step scaled with
        # the carrier passes its normalisation check
        base = ShellConfig()
        doubled = ShellConfig(carrier_hz=2 * base.carrier_hz)
        s = {}
        for shell in (base, doubled):
            user = UserGeometry.for_shell(shell, math.pi / 2, math.radians(30))
            cap = CapModel(shell, user)
            grid = ch.scattering_function(
                cap, nu_step_hz=2.61e3 * shell.carrier_hz / base.carrier_hz)
            assert grid.normalization_error(
                ch.path_loss_proposition(cap)[0]) <= ch.MAX_NORMALIZATION_ERROR
            s[shell.carrier_hz] = ch.global_params(cap)
        lo, hi = s[base.carrier_hz], s[2 * base.carrier_hz]
        assert hi.rms_doppler_spread_hz == pytest.approx(
            2 * lo.rms_doppler_spread_hz, rel=1e-3)
        assert hi.mean_delay_s == pytest.approx(lo.mean_delay_s, rel=1e-6)
        assert hi.rms_delay_spread_s == pytest.approx(lo.rms_delay_spread_s, rel=1e-6)
        assert hi.path_loss_db == pytest.approx(lo.path_loss_db, abs=1e-9)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_pole_user(self):
        # seen from the pole, a near-polar shell's cap rim is a latitude
        # line and every cap slice is a full circle or empty
        shell = ShellConfig(inclination_rad=math.radians(89.0))
        user = UserGeometry.for_shell(shell, 0.0, math.radians(30.0))
        cap = CapModel(shell, user)
        assert cap.nu_max_hz == pytest.approx(max_doppler_scan(shell, user),
                                              abs=1.0)
        grid = ch.scattering_function(cap, tau_step_s=8.4e-5)
        assert grid.normalization_error(
            ch.path_loss_proposition(cap)[0]) <= ch.MAX_NORMALIZATION_ERROR
        assert np.all(np.isfinite(_moments(ch.global_params(cap))))

    def test_pole_user_without_a_mask(self):
        # the scattering grid of this user fails its normalisation check
        # at the default steps; its global parameters need no grid
        s = ch.global_params(_cap(89.0, 90.0, 0.0))
        assert np.all(np.isfinite(_moments(s)))
        assert s.rms_delay_spread_s > 0.0 and s.rms_doppler_spread_hz > 0.0
