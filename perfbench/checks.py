"""Output checks that do not call the program.

The references are computed here from first principles, with the
physical constants read back from the configuration line each artifact
embeds:

- the satellite law is written out: azimuth uniform, polar angle with
  density f(phi) = sin(phi) / (pi * sqrt(sin(i)^2 - cos(phi)^2)) on the
  inclination band, whose cell masses are taken from its antiderivative
  arccos(cos(phi) / sin(i)) / pi, so the band-edge singularity costs no
  accuracy;
- the visible cap is brute-forced as a midpoint sum over a (polar angle,
  azimuth) grid around the user, with visibility decided by the
  elevation angle computed from position vectors;
- Doppler comes from the satellite velocity of a circular orbit through
  the cell, range rate = (sat - user) . velocity / distance.

Each check returns a list of failure messages; an empty list passes.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

LIGHT_SPEED_MPS = 299_792_458.0
GRID_CELLS = 1600  # per axis of the brute-force cap grid
VALIDATE_CHECKS = (
    "mc_gain_ks", "mc_delay_ks", "mc_doppler_mixed_ks", "pcap_derivative_fd",
    "gain_pdf_vs_cdf_fd", "delay_pdf_vs_cdf_fd", "dual_path_loss",
    "scattering_normalization", "doppler_pdf_normalization",
    "doppler_mark_symmetry", "orbit_gain_ks", "orbit_delay_ks",
    "orbit_doppler_ks",
)


# ---------------------------------------------------------------------------
# artifact parsing

def read_csv(path: Path):
    """(config dict, header, float matrix) of a CSV artifact."""
    with open(path, newline="", encoding="utf-8") as fh:
        first = fh.readline()
        rows = list(csv.reader(fh))
    if not first.startswith("# "):
        raise ValueError(f"{path.name}: missing configuration line")
    cfg = dict(item.split("=", 1) for item in first[2:].split())
    return cfg, rows[0], np.array(rows[1:], dtype=float)


class Geometry:
    """Shell, user and the brute-force cap grid for one configuration."""

    def __init__(self, cfg: dict, lat_deg: float | None = None,
                 elev_deg: float | None = None):
        self.r = float(cfg["shell.earth_radius_m"])
        self.big_r = self.r + float(cfg["shell.altitude_m"])
        self.speed = float(cfg["shell.sat_speed_mps"])
        self.carrier = float(cfg["shell.carrier_hz"])
        self.incl = math.radians(float(cfg["shell.inclination_deg"]))
        self.n_sats = int(cfg["shell.n_sats"])
        lat = float(cfg["user.lat_deg"] if lat_deg is None else lat_deg)
        elev = math.radians(float(cfg["user.min_elev_deg"]
                                  if elev_deg is None else elev_deg))
        self.colat_u = math.pi / 2 - math.radians(abs(lat))
        self.elev = elev
        # largest central angle seen above the mask (bounds the grid box only)
        self.sigma1 = math.acos(self.r * math.cos(elev) / self.big_r) - elev
        self._grid(GRID_CELLS, GRID_CELLS)

    def distance(self, cos_sigma):
        return np.sqrt(self.r ** 2 + self.big_r ** 2
                       - 2.0 * self.r * self.big_r * cos_sigma)

    def _grid(self, n_phi, n_theta):
        band = math.pi / 2 - self.incl
        lo = max(band, self.colat_u - self.sigma1)
        hi = min(math.pi - band, self.colat_u + self.sigma1)
        if lo >= hi:
            self.p_sat = 0.0
            return
        edges = np.linspace(lo, hi, n_phi + 1)
        cdf = np.arccos(np.clip(np.cos(edges) / math.sin(self.incl), -1, 1)) / math.pi
        mass = np.diff(cdf)
        phi = 0.5 * (edges[:-1] + edges[1:])
        # azimuth half-width of the cap, widened a little so the box holds it
        if self.sigma1 >= self.colat_u:
            half = math.pi
        else:
            half = min(math.pi, math.asin(math.sin(self.sigma1)
                                          / math.sin(self.colat_u)) * 1.001)
        d_theta = 2.0 * half / n_theta
        theta = -half + d_theta * (np.arange(n_theta) + 0.5)
        pp, tt = np.meshgrid(phi, theta, indexing="ij")
        weight = (mass[:, None] * (d_theta / (2.0 * math.pi))
                  * np.ones_like(tt))
        cos_sigma = (math.cos(self.colat_u) * np.cos(pp)
                     + math.sin(self.colat_u) * np.sin(pp) * np.cos(tt))
        d = self.distance(cos_sigma)
        # elevation from position vectors: sin e = (R cos sigma - r) / d
        visible = (self.big_r * cos_sigma - self.r) / d >= math.sin(self.elev)
        self.phi, self.theta = pp[visible], tt[visible]
        self.weight, self.dist = weight[visible], d[visible]
        self.p_sat = float(self.weight.sum())

    def doppler(self, ascending: bool):
        """Doppler (Hz, positive approaching) of every visible cell for the
        given direction of travel."""
        lat = math.pi / 2 - self.phi
        sin_w = np.clip(np.sin(lat) / math.sin(self.incl), -1.0, 1.0)
        cos_w = np.sqrt(1.0 - sin_w ** 2) * (1.0 if ascending else -1.0)
        node = self.theta - np.arctan2(math.cos(self.incl) * sin_w, cos_w)
        cos_i = math.cos(self.incl)
        vel = np.stack([
            -np.cos(node) * sin_w - np.sin(node) * cos_w * cos_i,
            -np.sin(node) * sin_w + np.cos(node) * cos_w * cos_i,
            cos_w * math.sin(self.incl),
        ])
        user = np.array([math.sin(self.colat_u), 0.0, math.cos(self.colat_u)])
        sat = self.big_r * np.stack([np.sin(self.phi) * np.cos(self.theta),
                                     np.sin(self.phi) * np.sin(self.theta),
                                     np.cos(self.phi)])
        rel = sat - self.r * user[:, None]
        range_rate = self.speed * np.einsum("ij,ij->j", rel, vel) / self.dist
        return -range_rate * self.carrier / LIGHT_SPEED_MPS

    def weighted_cdf(self, values, at):
        """CDF of a per-cell quantity over the visible cap, at points `at`."""
        order = np.argsort(values)
        cum = np.cumsum(self.weight[order]) / self.p_sat
        idx = np.searchsorted(values[order], at, side="right")
        return np.where(idx > 0, cum[np.maximum(idx - 1, 0)], 0.0)


def _close(name, got, want, rel, abs_=0.0):
    if abs(got - want) <= rel * abs(want) + abs_:
        return []
    return [f"{name}: {got:.9g} vs reference {want:.9g}"]


def _cdf_shape(name, col, end_tol):
    fails = []
    if np.any(np.diff(col) < -1e-12):
        fails.append(f"{name}: not monotone")
    if col[0] > end_tol or abs(col[-1] - 1.0) > end_tol:
        fails.append(f"{name}: runs {col[0]:.3g} .. {col[-1]:.3g}, not 0 .. 1")
    return fails


# ---------------------------------------------------------------------------
# per-command checks

def check_coverage(out: Path, rng: np.random.Generator, n_rows: int = 4):
    cfg, hdr, rows = read_csv(out / "coverage.csv")
    col = {name: rows[:, k] for k, name in enumerate(hdr)}
    fails = []
    masks = [float(v) for v in cfg["sweep.min_elev_deg"].split(",")]
    lats = np.arange(float(cfg["sweep.lat_start_deg"]),
                     float(cfg["sweep.lat_stop_deg"]) + 1e-9,
                     float(cfg["sweep.lat_step_deg"]))
    if rows.shape[0] != len(masks) * lats.size:
        fails.append(f"coverage: {rows.shape[0]} rows, expected "
                     f"{len(masks) * lats.size}")
    n = int(cfg["shell.n_sats"])
    p = col["p_sat"]
    # the CSV keeps 10 significant digits
    avail = -np.expm1(n * np.log1p(-p))
    for name, got, want in (("avg_visible", col["avg_visible"], n * p),
                            ("availability", col["availability"], avail)):
        if np.any(np.abs(got - want) > 1e-8 * np.abs(want) + 1e-12):
            fails.append(f"coverage {name}: inconsistent with p_sat")
    for k in rng.choice(rows.shape[0], size=n_rows, replace=False):
        geo = Geometry(cfg, lat_deg=col["latitude_deg"][k],
                       elev_deg=col["min_elev_deg"][k])
        fails += _close(f"coverage p_sat at mask {col['min_elev_deg'][k]:g}, "
                        f"lat {col['latitude_deg'][k]:g}",
                        float(p[k]), geo.p_sat, 2e-3, 1e-7)
    return fails


def check_distributions(out: Path):
    fails = []
    geo = None
    for kind in ("gain", "delay"):
        cfg, _, rows = read_csv(out / f"distributions_{kind}.csv")
        geo = geo or Geometry(cfg)
        x, cdf, pdf = rows[:, 0], rows[:, 1], rows[:, 2]
        fails += _cdf_shape(f"{kind} cdf", cdf, 1e-9)
        if np.any(pdf < 0.0):
            fails.append(f"{kind} pdf: negative values")
        d_lo, d_hi = float(geo.dist.min()), float(geo.dist.max())
        if kind == "gain":
            lo, hi = 1.0 / d_hi ** 2, 1.0 / d_lo ** 2
            ref = geo.weighted_cdf(1.0 / geo.dist ** 2, x)
        else:
            lo, hi = d_lo / LIGHT_SPEED_MPS, d_hi / LIGHT_SPEED_MPS
            ref = geo.weighted_cdf(geo.dist / LIGHT_SPEED_MPS, x)
        fails += _close(f"{kind} support low end", float(x[0]), lo, 2e-3)
        fails += _close(f"{kind} support high end", float(x[-1]), hi, 2e-3)
        fails += _close(f"{kind} cdf vs brute force (sup distance)",
                        float(np.max(np.abs(cdf - ref))), 0.0, 0.0, 1e-3)

    cfg, hdr, rows = read_csv(out / "distributions_doppler_cdf.csv")
    nu = rows[:, 0]
    for k, name in enumerate(hdr[1:], start=1):
        fails += _cdf_shape(f"doppler {name}", rows[:, k], 1e-3)
    for k, ascending in ((1, True), (2, False)):
        ref = geo.weighted_cdf(geo.doppler(ascending), nu)
        fails += _close(f"doppler {hdr[k]} vs brute force (sup distance)",
                        float(np.max(np.abs(rows[:, k] - ref))), 0.0, 0.0, 1e-3)

    cfg, _, rows = read_csv(out / "distributions_doppler_pdf.csv")
    nu, pdf = rows[:, 0], rows[:, 1]
    if np.any(pdf < 0.0):
        fails.append("doppler pdf: negative values")
    step = float(np.median(np.diff(nu)))
    fails += _close("doppler pdf integral", float(pdf.sum() * step), 1.0,
                    0.0, 1e-4)
    return fails


def check_scattering(out: Path):
    cfg, hdr, rows = read_csv(out / "scattering.csv")
    geo = Geometry(cfg)
    tau = rows[:, 0]
    nu = np.array([float(h[3:]) for h in hdr[1:]])
    vals = rows[:, 1:]
    fails = []
    if np.any(vals < 0.0):
        fails.append("scattering: negative cells")
    tau_step = float(cfg["grid.tau_step_s"])
    nu_step = float(cfg["grid.nu_step_hz"])
    tau_lo = float(geo.dist.min()) / LIGHT_SPEED_MPS
    tau_hi = float(geo.dist.max()) / LIGHT_SPEED_MPS
    nu_max = max(float(np.max(np.abs(geo.doppler(a)))) for a in (True, False))
    live = vals > 0.0
    if not live.any():
        return fails + ["scattering: empty grid"]
    t_live = np.broadcast_to(tau[:, None], vals.shape)[live]
    n_live = np.broadcast_to(nu[None, :], vals.shape)[live]
    if t_live.min() < tau_lo - tau_step or t_live.max() > tau_hi + tau_step:
        fails.append(f"scattering: mass at delays {t_live.min():.6g} .. "
                     f"{t_live.max():.6g} s outside {tau_lo:.6g} .. {tau_hi:.6g}")
    if np.abs(n_live).max() > nu_max * 1.001 + nu_step:
        fails.append(f"scattering: mass at |nu| {np.abs(n_live).max():.6g} Hz "
                     f"beyond nu_max {nu_max:.6g}")
    if tau.min() > tau_lo + tau_step or tau.max() < tau_hi - tau_step:
        fails.append("scattering: delay axis does not cover the support")
    if np.abs(nu).max() < nu_max * 0.999 - nu_step:
        fails.append("scattering: Doppler axis does not cover +-nu_max")
    total = float(vals.sum())
    mean_nu = float((vals.sum(axis=0) * nu).sum()) / total
    rms_nu = math.sqrt(float((vals.sum(axis=0) * nu ** 2).sum()) / total)
    fails += _close("scattering mean Doppler / rms Doppler", mean_nu / rms_nu,
                    0.0, 0.0, 1e-3)

    summary = json.loads((out / "channel_summary.json").read_text(encoding="utf-8"))
    avail = -math.expm1(geo.n_sats * math.log1p(-geo.p_sat))
    rho2 = avail * float((geo.weight / geo.dist ** 2).sum()) / geo.p_sat
    fails += _close("path loss rho^2", 10.0 ** (-summary["path_loss_db"] / 10.0),
                    rho2, 5e-4)
    fails += _close("availability", summary["availability"], avail, 5e-4)
    return fails


def check_validate(out: Path):
    doc = json.loads((out / "validation.json").read_text(encoding="utf-8"))
    fails = []
    by_name = {c["name"]: c for c in doc["checks"]}
    for name in VALIDATE_CHECKS:
        if name not in by_name:
            fails.append(f"validate: check {name} missing")
        elif not by_name[name]["passed"]:
            fails.append(f"validate: check {name} failed "
                         f"({by_name[name]['value']:.3e})")
    if len(by_name) != len(VALIDATE_CHECKS) or not doc["passed"]:
        fails.append("validate: report does not pass as a whole")
    return fails


CHECKS = {
    "coverage": check_coverage,
    "distributions": check_distributions,
    "scattering": check_scattering,
    "validate": check_validate,
}
