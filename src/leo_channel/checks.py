"""The oracle checks of `leo-channel validate`, one function per quantity.

REGISTRY is the report's table: the 13 checks in order, each with its
value and threshold from the inputs the checks share, which run builds
once. Both oracles return satellite positions, which ks_triple alone maps
to gain, delay and Doppler. The acceptance suite calls the same functions
with its own published thresholds: criteria 5 and 6 ks_tables and ks_triple, 7
pcap_derivative_error and pdf_vs_cdf_error, 9 the ScatteringGrid method
dual_path_loss_gap, 10 doppler_pdf_normalization and mark_symmetry.

Gain falls and delay rises strictly with the central angle, and a KS
distance is invariant under a monotone map, so each *_gain_ks and
*_delay_ks pair agrees to about 1e-16 (0.00539110802934839 against
0.005391108029348335 at the equator user, 5e4 samples): the pair tests
the gain_cdf and delay_cdf code paths, not two statistics.
"""

from __future__ import annotations

import math

import numpy as np

# layers are called through their modules, where a profiler can patch them
from . import channel as ch
from . import distributions as dist
from . import nbpp
from . import orbit_sim as osim
from . import propagation as prop
from .errors import ConfigError
from .visibility import CapModel


def _worst(fd, an) -> float:  # largest relative gap of fd to an
    return float(np.max(np.abs(fd - an) / np.maximum(np.abs(an), 1e-300)))


def ks_tables(cap: CapModel):
    """The KS checks' CDF tables: pcap_interpolator, doppler_mixed_interpolator."""
    return dist.pcap_interpolator(cap), dist.doppler_mixed_interpolator(cap)


def ks_triple(cap: CapModel, tables, sigma, theta, phi, mark) -> tuple[float, float, float]:
    """KS distances to the analytic CDFs of the gain, delay and Doppler of
    satellites at (sigma, theta, phi, mark), the record of both oracles."""
    pcap, doppler_mixed = tables
    gain, delay = prop.gain(cap.shell, sigma), prop.delay(cap.shell, sigma)
    nu = prop.doppler_hz_arrays(cap.shell, cap.user, theta, phi, mark)
    return (osim.ks_distance(gain, lambda x: dist.gain_cdf(cap, x, pcap)),
            osim.ks_distance(delay, lambda x: dist.delay_cdf(cap, x, pcap)),
            osim.ks_distance(nu, doppler_mixed))


def pcap_derivative_error(cap: CapModel) -> float:
    """Worst relative gap of p_cap' to central differences of p_cap in
    cos(sigma), of step 1e-5 of the cap's width in cos(sigma) (a fixed step's
    truncation error swamps a small cap), at 20 points in the middle 90 %.
    A point within 1 % of the width of a kink of p_cap' moves out to that
    distance: next to the kink the difference's truncation error is large."""
    lo, hi = cap.user.sigma_min_rad, cap.user.sigma_max_rad
    s = np.linspace(lo + 0.05 * (hi - lo), hi - 0.05 * (hi - lo), 20)
    gap = 0.01 * (hi - lo)
    for k in dist.pcap_kinks(cap):
        near = np.abs(s - k) < gap
        s[near] = k + np.copysign(gap, s[near] - k)
    h, u = 1e-5 * (math.cos(lo) - math.cos(hi)), np.cos(s)
    fd = (cap.p_cap(np.arccos(np.minimum(1.0, u + h)))
          - cap.p_cap(np.arccos(np.maximum(-1.0, u - h)))) / (2 * h)
    return _worst(fd, cap.p_cap_prime(s))


def pdf_vs_cdf_error(cap: CapModel, law: str) -> float:
    """Worst relative gap of the "gain" or "delay" PDF to central
    differences of its CDF, at 20 interior points of its support."""
    cdf, pdf = getattr(dist, law + "_cdf"), getattr(dist, law + "_pdf")
    lo, hi = getattr(cap, law + "_bounds")
    x = np.linspace(lo, hi, 22)[1:-1]
    h = (hi - lo) * 1e-5
    return _worst((cdf(cap, x + h) - cdf(cap, x - h)) / (2 * h), pdf(cap, x))


def doppler_pdf_normalization(cap: CapModel, nu_step_hz: float) -> float:
    """|integral - 1| of the mark-mixed Doppler PDF grid."""
    return abs(float(dist.doppler_pdf_grid(cap, nu_step_hz)[3].sum()) * nu_step_hz - 1.0)


def mark_symmetry(cap: CapModel) -> float:
    """Largest gap of F_+(nu) to 1 - F_-(-nu) at 10 points in +-0.9 nu_max."""
    nu = np.linspace(-0.9, 0.9, 10) * cap.nu_max_hz
    return float(np.max(np.abs(dist.doppler_cdf_grid(cap, nu, 1)
                               - (1.0 - dist.doppler_cdf_grid(cap, -nu, -1)))))


class AnalyticInputs:
    """What the checks of ANALYTIC read: the cap and its scattering grid."""

    def __init__(self, cfg):
        shell = cfg.shell()
        self.cap = CapModel(shell, cfg.user(shell))
        self.cfg = cfg
        self.grid = ch.scattering_function(self.cap, cfg.nu_step_hz, cfg.tau_step_s)


class _Inputs(AnalyticInputs):
    """What every check reads. One generator draws the Monte Carlo sample,
    the snapshot times and the snapshot picks, in order."""

    def __init__(self, cfg):
        # the plane layout is checked before any work; build draws nothing
        con = osim.build(cfg.shell(), math.radians(cfg.inter_orbit_phase_deg))
        super().__init__(cfg)
        cap, shell, user = self.cap, self.cap.shell, self.cap.user
        tables = ks_tables(cap)
        rng = np.random.default_rng(cfg.seed)
        self.mc_ks = ks_triple(cap, tables,
                               *nbpp.sample_visible(shell, user, cfg.mc_samples, rng))
        times = osim.default_snapshot_times(cfg.snapshots, rng, cfg.snapshot_spacing_s)
        orbit = osim.snapshot_sample(con, user, times, rng)
        self.n_obs = orbit[0].size
        if self.n_obs == 0:
            raise ConfigError(f"no Walker snapshot saw a visible satellite; "
                              f"raise sim.snapshots (now {cfg.snapshots})")
        self.orbit_ks = ks_triple(cap, tables, *orbit[:4])
        self.mc_tol = max(0.005, 2.5 / math.sqrt(cfg.mc_samples))
        # near the equator the deterministic system keeps visible bucketing
        # (few distinct ground tracks cross the small cap), so the
        # continuum-model agreement is structurally looser there
        low_lat = abs(cfg.lat_deg) <= 15.0
        noise = 1.63 / math.sqrt(self.n_obs)
        self.range_tol = (0.10 if low_lat else 0.03) + noise
        self.doppler_tol = (0.10 if low_lat else 0.05) + noise


# the checks that need neither a Monte Carlo sample nor Walker snapshots
ANALYTIC = ("pcap_derivative_fd", "gain_pdf_vs_cdf_fd", "delay_pdf_vs_cdf_fd",
            "dual_path_loss", "scattering_normalization",
            "doppler_pdf_normalization", "doppler_mark_symmetry")

# name, (value, threshold) from the inputs, detail formatted with them
REGISTRY = (
    ("mc_gain_ks", lambda x: (x.mc_ks[0], x.mc_tol), "n={cfg.mc_samples}"),
    ("mc_delay_ks", lambda x: (x.mc_ks[1], x.mc_tol), "n={cfg.mc_samples}"),
    ("mc_doppler_mixed_ks", lambda x: (x.mc_ks[2], x.mc_tol), "n={cfg.mc_samples}"),
    ("pcap_derivative_fd", lambda x: (pcap_derivative_error(x.cap), 1e-4),
     "20 points, d/dcos(sigma)"),
    ("gain_pdf_vs_cdf_fd", lambda x: (pdf_vs_cdf_error(x.cap, "gain"), 1e-3), "20 points"),
    ("delay_pdf_vs_cdf_fd", lambda x: (pdf_vs_cdf_error(x.cap, "delay"), 1e-3), "20 points"),
    ("dual_path_loss", lambda x: (x.grid.dual_path_loss_gap(), 0.01), ""),
    ("scattering_normalization",
     lambda x: (x.grid.normalization_error(), ch.MAX_NORMALIZATION_ERROR), ""),
    ("doppler_pdf_normalization", lambda x: (doppler_pdf_normalization(
        x.cap, x.cfg.doppler_nu_step_hz), 1e-3), ""),
    ("doppler_mark_symmetry", lambda x: (mark_symmetry(x.cap), 1e-6), "10 points"),
    ("orbit_gain_ks", lambda x: (x.orbit_ks[0], x.range_tol), "n={n_obs}"),
    ("orbit_delay_ks", lambda x: (x.orbit_ks[1], x.range_tol), "n={n_obs}"),
    ("orbit_doppler_ks", lambda x: (x.orbit_ks[2], x.doppler_tol), "n={n_obs}"),
)


def run(cfg) -> list[dict]:
    """The validate report of a RunConfig: every check of REGISTRY in order."""
    x = _Inputs(cfg)
    report = []
    for name, check, detail in REGISTRY:
        value, threshold = check(x)
        report.append({"name": name, "value": value, "threshold": threshold,
                       "passed": bool(value <= threshold),
                       "detail": detail.format_map(vars(x))})
    return report
