"""Acceptance suite: one test per exit criterion, each printing a
PASS/FAIL line (run with `pytest -s` to see the lines for passing tests).

Shared heavy artifacts (Monte Carlo batches, scattering grids, snapshot
runs) are computed once per session in module fixtures.
"""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from oracles import central_angle, propagate_arrays

from leo_channel import channel as ch
from leo_channel import checks
from leo_channel import distributions as dist
from leo_channel import orbit_sim as osim
from leo_channel.geometry import UserGeometry, slant_range
from leo_channel.nbpp import sample_visible
from leo_channel.propagation import doppler_hz_arrays, gain as gain_fn
from leo_channel.visibility import CapModel


def report(n: int, ok: bool, detail: str) -> None:
    print(f"criterion {n:2d}: {'PASS' if ok else 'FAIL'} - {detail}")


# ---------------------------------------------------------------------------
# shared artifacts

@pytest.fixture(scope="module")
def lat53_cap(shell):
    user = UserGeometry.for_shell(shell, math.pi / 2 - math.radians(53),
                                  math.radians(30))
    return CapModel(shell, user)


@pytest.fixture(scope="module")
def scat_equator(cap_equator):
    return ch.scattering_function(cap_equator)


@pytest.fixture(scope="module")
def mc_million(shell, equator_user):
    """1e6 visible-cap NBPP samples at the equator user."""
    rng = np.random.default_rng(101)
    return sample_visible(shell, equator_user, 1_000_000, rng)


@pytest.fixture(scope="module")
def snapshots(shell, equator_user, midlat_user):
    """5e4 circular-orbit snapshot observations per test user."""
    con = osim.build(shell)
    out = {}
    for name, user in (("equator", equator_user), ("midlat", midlat_user)):
        rng = np.random.default_rng(202)
        times = osim.default_snapshot_times(50_000, rng)
        out[name] = osim.snapshot_sample(con, user, times, rng)
    return out


# ---------------------------------------------------------------------------
# criteria

def test_criterion_1_coverage(cap_equator, lat53_cap):
    a0 = cap_equator.avg_visible()
    a53 = lat53_cap.avg_visible()
    ok0 = abs(a0 / 9.6 - 1.0) <= 0.02
    ok53 = abs(a53 / 25.6 - 1.0) <= 0.02
    report(1, ok0 and ok53,
           f"avg visible lat0={a0:.3f} (want 9.6 +-2%), lat53={a53:.3f} (want 25.6 +-2%)")
    assert ok53, f"lat-53 average {a53:.3f} outside 25.6 +-2%"
    assert ok0, f"equator average {a0:.3f} outside 9.6 +-2%"


def test_criterion_2_delay_support(cap_equator, cap_midlat):
    tol = 0.015
    results = []
    for cap, want_lo, want_hi in ((cap_equator, 1.83e-3, 3.33e-3),
                                  (cap_midlat, 3.30e-3, 6.10e-3)):
        lo, hi = cap.delay_bounds
        results.append((lo, hi, abs(lo / want_lo - 1) <= tol,
                        abs(hi / want_hi - 1) <= tol))
    ok = all(r[2] and r[3] for r in results)
    report(2, ok, "delay supports [%.3f, %.3f] ms and [%.3f, %.3f] ms" % (
        results[0][0] * 1e3, results[0][1] * 1e3,
        results[1][0] * 1e3, results[1][1] * 1e3))
    assert ok


def test_criterion_3_max_doppler(cap_equator, cap_midlat):
    nu_a = cap_equator.nu_max_hz
    nu_b = cap_midlat.nu_max_hz
    ok_a = abs(nu_a / 246.2e3 - 1.0) <= 0.01
    ok_b = abs(nu_b / 246.8e3 - 1.0) <= 0.01
    report(3, ok_a and ok_b,
           f"max Doppler {nu_a / 1e3:.1f} kHz (want 246.2), "
           f"{nu_b / 1e3:.1f} kHz (want 246.8)")
    assert ok_a and ok_b


def test_criterion_4_global_parameters(cap_equator, cap_midlat):
    want = {
        "equator": dict(pl=117.6, tbar=2.5e-3, st=0.43e-3, sn=134.5e3),
        "midlat": dict(pl=122.6, tbar=4.5e-3, st=0.80e-3, sn=137.9e3),
    }
    checks = []
    lines = []
    for name, cap in (("equator", cap_equator), ("midlat", cap_midlat)):
        s = ch.global_params(cap)
        w = want[name]
        checks += [
            abs(s.path_loss_db - w["pl"]) <= 0.2,
            abs(s.mean_delay_s - w["tbar"]) <= 0.1e-3,
            abs(s.rms_delay_spread_s - w["st"]) <= 0.03e-3,
            abs(s.rms_doppler_spread_hz - w["sn"]) <= 3e3,
            s.channel_spread > 100.0,
        ]
        lines.append(f"{name}: PL={s.path_loss_db:.2f} dB "
                     f"tbar={s.mean_delay_s * 1e3:.3f} ms "
                     f"st={s.rms_delay_spread_s * 1e3:.3f} ms "
                     f"sn={s.rms_doppler_spread_hz / 1e3:.1f} kHz "
                     f"spread={s.channel_spread:.0f}")
    ok = all(checks)
    report(4, ok, "; ".join(lines))
    assert ok


def test_criterion_5_monte_carlo_ks(cap_equator, mc_million):
    d_gain, d_delay, d_dop = checks.ks_triple(
        cap_equator, checks.ks_tables(cap_equator), *mc_million)
    ok = d_gain < 0.005 and d_delay < 0.005 and d_dop < 0.005
    report(5, ok, f"KS(1e6 samples): gain={d_gain:.5f} delay={d_delay:.5f} "
                  f"doppler={d_dop:.5f} (all < 0.005)")
    assert ok


def test_criterion_6_orbit_oracle(shell, cap_equator, cap_midlat, snapshots):
    caps = {"equator": cap_equator, "midlat": cap_midlat}
    ks = {}
    for name, cap in caps.items():
        ks[name] = dict(zip(("gain", "delay", "doppler"), checks.ks_triple(
            cap, checks.ks_tables(cap), *snapshots[name][:4])))
    ordering = ks["equator"]["doppler"] > ks["midlat"]["doppler"]
    flags = {
        "gain(eq)<0.03": ks["equator"]["gain"] < 0.03,
        "delay(eq)<0.03": ks["equator"]["delay"] < 0.03,
        "gain(mid)<0.03": ks["midlat"]["gain"] < 0.03,
        "delay(mid)<0.03": ks["midlat"]["delay"] < 0.03,
        "doppler(eq)<0.10": ks["equator"]["doppler"] < 0.10,
        "doppler(mid)<0.05": ks["midlat"]["doppler"] < 0.05,
        "doppler ordering": ordering,
    }
    ok = all(flags.values())
    detail = (f"equator g/d/v = {ks['equator']['gain']:.4f}/"
              f"{ks['equator']['delay']:.4f}/{ks['equator']['doppler']:.4f}; "
              f"midlat g/d/v = {ks['midlat']['gain']:.4f}/"
              f"{ks['midlat']['delay']:.4f}/{ks['midlat']['doppler']:.4f}")
    report(6, ok, detail)
    assert ok, f"failed: {[k for k, v in flags.items() if not v]} ({detail})"


def test_criterion_7_derivative_consistency(cap_equator, cap_midlat):
    caps = (cap_equator, cap_midlat)
    worst_pcap = max(checks.pcap_derivative_error(cap) for cap in caps)
    worst_pdf = max(checks.pdf_vs_cdf_error(cap, law)
                    for cap in caps for law in ("gain", "delay"))

    ok = worst_pcap < 1e-4 and worst_pdf < 1e-3
    report(7, ok, f"cap derivative rel err {worst_pcap:.2e} (<1e-4), "
                  f"pdf-vs-cdf rel err {worst_pdf:.2e} (<1e-3)")
    assert ok


def test_criterion_8_doppler_function_validation(shell, equator_user):
    con = osim.build(shell)
    rng = np.random.default_rng(303)
    period = 2 * math.pi * shell.shell_radius_m / shell.sat_speed_mps
    dt = 5e-4
    worst = 0.0
    for _ in range(100):
        t = float(rng.uniform(0.0, period))
        k = int(rng.integers(con.phase_offsets.size))
        th0, ph0, _ = propagate_arrays(con, t - dt)
        th1, ph1, _ = propagate_arrays(con, t + dt)
        thc, phc, mkc = propagate_arrays(con, t)
        d0 = slant_range(shell, central_angle(equator_user, th0[k], ph0[k]))
        d1 = slant_range(shell, central_angle(equator_user, th1[k], ph1[k]))
        fd = -(shell.carrier_hz / shell.light_speed_mps) * (d1 - d0) / (2 * dt)
        an = float(doppler_hz_arrays(shell, equator_user, thc[k], phc[k],
                                     int(mkc[k])))
        worst = max(worst, abs(fd - an) / max(abs(an), 1.0))
    ok = worst < 1e-3
    report(8, ok, f"finite-difference Doppler worst rel err {worst:.2e} (<1e-3)")
    assert ok


def test_criterion_9_dual_path_loss(cap_equator, scat_equator):
    gaps = []
    for factor in (4.0, 2.0, 1.0, 0.5):
        if factor == 1.0:
            grid = scat_equator
        else:
            grid = ch.scattering_function(cap_equator, dist.NU_STEP_HZ * factor,
                                          dist.TAU_STEP_S * factor)
        gaps.append(grid.dual_path_loss_gap())
    shrinking = all(a > b for a, b in zip(gaps, gaps[1:]))
    ok = gaps[2] < 0.01 and shrinking
    report(9, ok, "grid-vs-proposition gaps over doublings: "
                  + " -> ".join(f"{g:.2e}" for g in gaps))
    assert ok


def test_criterion_10_normalization_suite(cap_equator, cap_midlat):
    problems = []

    for cap in (cap_equator, cap_midlat):
        g_min, g_max = cap.gain_bounds
        val, _ = quad(lambda g: dist.gain_pdf(cap, g), g_min, g_max, limit=300)
        if abs(val - 1.0) > 1e-4:
            problems.append(f"gain pdf integral {val:.6f}")
        t_lo, t_hi = cap.delay_bounds
        val, _ = quad(lambda t: dist.delay_pdf(cap, t), t_lo, t_hi, limit=300)
        if abs(val - 1.0) > 1e-4:
            problems.append(f"delay pdf integral {val:.6f}")

        if checks.doppler_pdf_normalization(cap, dist.DOPPLER_NU_STEP_HZ) > 1e-3:
            problems.append("doppler pdf grid normalization")

        jpdf = dist.joint_pdf_grid(cap)
        mass = float(jpdf.sum()) * dist.NU_STEP_HZ * dist.TAU_STEP_S
        if abs(mass - 1.0) > 5e-3:
            problems.append(f"joint pdf mass {mass:.4f}")

        # 400-point monotone sweeps
        g = np.linspace(g_min, g_max, 400)
        if not np.all(np.diff(dist.gain_cdf(cap, g)) >= -1e-9):
            problems.append("gain cdf sweep not monotone")
        t = np.linspace(t_lo, t_hi, 400)
        if not np.all(np.diff(dist.delay_cdf(cap, t)) >= -1e-9):
            problems.append("delay cdf sweep not monotone")
        nus = np.linspace(-1.05, 1.05, 400) * cap.nu_max_hz
        for mark in (1, -1):
            if not np.all(np.diff(dist.doppler_cdf_grid(cap, nus, mark)) >= -1e-9):
                problems.append(f"doppler cdf sweep not monotone (mark {mark})")
        y = np.linspace(1e-3, 6.0, 400) * g_max
        if not np.all(np.diff(dist.rayleigh_gain_cdf_grid(cap, y)) >= -1e-9):
            problems.append("rayleigh cdf sweep not monotone")

        worst = checks.mark_symmetry(cap)
        if worst > 1e-6:
            problems.append(f"mark symmetry off by {worst:.2e}")

    ok = not problems
    report(10, ok, "pdf normalizations, 400-point monotone sweeps, mark "
                   "symmetry" + ("" if ok else f"; problems: {problems}"))
    assert ok, problems


def test_criterion_11_rayleigh_extension(shell, cap_equator, mc_million):
    rng = np.random.default_rng(404)
    sig = mc_million[0]
    y = rng.exponential(1.0, sig.size) * gain_fn(shell, sig)
    d = osim.ks_distance(y, lambda x: dist.rayleigh_gain_cdf_grid(cap_equator, x))
    # unit-mean fading keeps the power: the faded law's mean, the integral
    # of its tail, is E[g] = rho^2 / p_a of the proposition
    rho2, _ = ch.path_loss_proposition(cap_equator)
    ys = np.linspace(0.0, 40.0 * cap_equator.gain_bounds[1], 400_001)
    mean = float(np.trapezoid(1.0 - dist.rayleigh_gain_cdf_grid(cap_equator, ys), ys))
    gap = abs(mean * cap_equator.availability / rho2 - 1.0)
    ok = d < 0.005 and gap < 1e-6
    report(11, ok, f"faded-gain KS={d:.5f} (<0.005); faded mean gain off "
                   f"E[g] by {gap:.1e} (<1e-6)")
    assert ok
