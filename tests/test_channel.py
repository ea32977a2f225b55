import dataclasses
import math

import numpy as np
import pytest

from oracles import max_doppler_scan, path_loss_rho2_adaptive

from leo_channel import channel as ch
from leo_channel import distributions as dist
from leo_channel.distributions import JointGridSpec
from leo_channel.errors import ResolutionError
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
        outside = (tau_c + grid_equator.spec.tau_step_s / 2 < tau_lo) | (
            tau_c - grid_equator.spec.tau_step_s / 2 > tau_hi)
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

    def test_gain_delay_identity(self, shell, cap_equator):
        c = shell.light_speed_mps
        tau_lo, tau_hi = cap_equator.delay_bounds
        for tau in np.linspace(tau_lo, tau_hi, 50):
            g = gain_fn(shell, delay_inverse(shell, float(tau)))
            assert g == pytest.approx(1.0 / (c * tau) ** 2, rel=1e-12)

    def test_unit_mean_fading_identity(self, cap_equator, grid_equator):
        faded = ch.scattering_function(cap_equator, fading_mean_power=1.0)
        assert np.array_equal(faded.values, grid_equator.values)


class TestGlobalParams:
    def test_equator_summary(self, cap_equator, grid_equator):
        s = ch.global_params(cap_equator, grid=grid_equator)
        assert s.path_loss_db == pytest.approx(117.6, abs=0.2)
        assert s.mean_delay_s == pytest.approx(2.5e-3, abs=0.1e-3)
        assert s.rms_delay_spread_s == pytest.approx(0.43e-3, abs=0.03e-3)
        assert s.rms_doppler_spread_hz == pytest.approx(134.5e3, abs=3e3)
        assert s.mean_doppler_hz == 0.0
        assert s.channel_spread > 100.0
        assert abs(s.grid_mean_doppler_hz) < 1e3

    def test_summary_is_serializable(self, cap_equator, grid_equator):
        s = ch.global_params(cap_equator, grid=grid_equator)
        d = dataclasses.asdict(s)
        assert set(d) >= {"path_loss_db", "mean_delay_s", "rms_delay_spread_s",
                          "mean_doppler_hz", "rms_doppler_spread_hz",
                          "channel_spread", "availability"}

    def test_coarse_grid_raises(self, cap_equator):
        with pytest.raises(ResolutionError):
            ch.global_params(cap_equator, spec=JointGridSpec(nu_step_hz=50e3))

    def test_carrier_scaling(self):
        # doubling the carrier doubles the Doppler spread and leaves the
        # delay moments unchanged
        base = ShellConfig()
        doubled = ShellConfig(carrier_hz=2 * base.carrier_hz)
        s = {}
        for shell in (base, doubled):
            user = UserGeometry.for_shell(shell, math.pi / 2, math.radians(30))
            cap = CapModel(shell, user)
            spec = JointGridSpec(
                nu_step_hz=2.61e3 * shell.carrier_hz / base.carrier_hz)
            s[shell.carrier_hz] = ch.global_params(cap, spec=spec)
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
        ch.global_params(cap, spec=JointGridSpec(tau_step_s=8.4e-5))
