"""Command-line interface producing CSV/JSON artifacts.

Subcommands: coverage (latitude sweep), distributions (analytic CDF/PDF
grids), scattering (delay-Doppler power density plus channel summary),
validate (oracle suite report). Every artifact embeds the fully resolved
configuration, so a rerun with the same config and seed is byte-identical.

Exit codes: 0 success, 1 validation failure, 2 config error, 3 geometry
error, 4 resolution error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import channel as ch
from . import checks
from . import distributions as dist
from .config import PARSERS, RunConfig, load_config, resolved_items
from .errors import ConfigError, DomainError, NoVisibleSatellites, ResolutionError
from .nbpp import sample_visible
from .propagation import delay as delay_fn, gain as gain_fn
from .visibility import CapModel


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.10g}"
    return str(x)


def _write_json(cfg: RunConfig, name: str, doc: dict) -> Path:
    """Write out_dir/name with doc and the resolved config, keys sorted."""
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / name
    doc = {**doc, "config": dict(resolved_items(cfg))}
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path


def _write_table(cfg: RunConfig, name: str, header: list[str], rows) -> Path:
    """Write out_dir/name.csv or .json, headed by the resolved config."""
    if cfg.out_format == "json":
        return _write_json(cfg, f"{name}.json", {
            "columns": header, "rows": [[_fmt(v) for v in row] for row in rows]})
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"{name}.csv"
    lines = ["# " + " ".join(f"{k}={v}" for k, v in resolved_items(cfg))]
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


# ---------------------------------------------------------------------------
# commands

def cmd_coverage(cfg: RunConfig) -> list[Path]:
    shell = cfg.shell()
    lats = np.arange(cfg.lat_start_deg, cfg.lat_stop_deg + 1e-9, cfg.lat_step_deg)
    rows = []
    for elev in cfg.sweep_min_elev_deg:
        for lat in lats:
            try:
                user = dataclasses.replace(cfg, lat_deg=float(lat),
                                           min_elev_deg=elev).user(shell)
                cap = CapModel(shell, user)
                rows.append([elev, float(lat), cap.p_sat, cap.avg_visible(),
                             cap.availability])
            except NoVisibleSatellites:
                rows.append([elev, float(lat), 0.0, 0.0, 0.0])
    return [_write_table(cfg, "coverage", ["min_elev_deg", "latitude_deg", "p_sat",
                                           "avg_visible", "availability"], rows)]


def cmd_distributions(cfg: RunConfig) -> list[Path]:
    shell = cfg.shell()
    user = cfg.user(shell)
    cap = CapModel(shell, user)
    sig = None
    if cfg.mc_empirical:
        rng = np.random.default_rng(cfg.seed)
        sig = sample_visible(shell, user, cfg.mc_samples, rng)[0]
    paths = []

    def table(name: str, header: list[str], *columns) -> None:
        paths.append(_write_table(cfg, name, header, zip(*columns)))

    # gain and delay: exact CDF + PDF (+ empirical CDF) on uniform sweeps
    # over the support
    for name, unit, fn, cdf, pdf, bounds in (
            ("gain", "gain_per_m2", gain_fn, dist.gain_cdf, dist.gain_pdf,
             cap.gain_bounds),
            ("delay", "delay_s", delay_fn, dist.delay_cdf, dist.delay_pdf,
             cap.delay_bounds)):
        x = np.linspace(*bounds, cfg.cdf_points)
        columns = [x, cdf(cap, x), pdf(cap, x)]
        if sig is not None:
            mc = np.sort(fn(shell, sig))
            columns.append(np.searchsorted(mc, x, side="right") / mc.size)
        table(f"distributions_{name}",
              [unit, "cdf", "pdf"] + ["mc_cdf"] * (sig is not None), *columns)

    # Doppler: per-mark and mixed CDF on the PDF grid edges, and the PDF
    edges, up, down, pdf = dist.doppler_pdf_grid(cap, cfg.doppler_nu_step_hz)
    table("distributions_doppler_cdf",
          ["nu_hz", "cdf_ascending", "cdf_descending", "cdf_mixed"],
          edges, up, down, 0.5 * (up + down))
    table("distributions_doppler_pdf", ["nu_hz", "pdf"], dist.centers(edges), pdf)
    return paths


def cmd_scattering(cfg: RunConfig) -> list[Path]:
    shell = cfg.shell()
    user = cfg.user(shell)
    cap = CapModel(shell, user)
    grid = ch.scattering_function(cap, cfg.nu_step_hz, cfg.tau_step_s)
    norm_err = grid.normalization_error()
    if norm_err > ch.MAX_NORMALIZATION_ERROR:
        raise ResolutionError(f"scattering grid normalization off by {norm_err:.2%} "
                              f"(budget {ch.MAX_NORMALIZATION_ERROR:.0%}); refine the grid")
    summary = {**dataclasses.asdict(ch.global_params(cap)), "normalization_error": norm_err,
               "grid_mean_doppler_hz": grid.mean_doppler_hz()}  # grid diagnostics

    header = ["tau_s"] + [f"nu_{_fmt(n)}" for n in grid.nu_hz]
    rows = [[t] + list(v) for t, v in zip(grid.tau_s, grid.values)]
    return [_write_table(cfg, "scattering", header, rows),
            _write_json(cfg, "channel_summary.json", summary)]


def cmd_validate(cfg: RunConfig) -> tuple[list[Path], bool]:
    results = checks.run(cfg)
    passed = all(c["passed"] for c in results)
    path = _write_json(cfg, "validation.json", {"passed": passed, "checks": results})
    for c in results:
        status = "PASS" if c["passed"] else "FAIL"
        print(f"{status} {c['name']}: {c['value']:.3e} (threshold {c['threshold']:.3e})")
    return [path], passed


# ---------------------------------------------------------------------------
# argument parsing

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="leo-channel",
        description="Stochastic delay-Doppler channel model for LEO "
                    "mega-constellations",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
        ("coverage", "latitude sweep of visibility statistics"),
        ("distributions", "analytic gain/delay/Doppler CDFs and PDFs"),
        ("scattering", "delay-Doppler scattering function and summary"),
        ("validate", "run the oracle checks and write a report"),
    ]:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", metavar="PATH", default=None)
        for f in dataclasses.fields(RunConfig):
            if f.metadata["flag"]:
                p.add_argument(f.metadata["flag"], dest=f.name, type=PARSERS[f.type],
                               default=None)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    # every flag but --config parses to its RunConfig field
    overrides = {k: v for k, v in vars(args).items() if k not in ("command", "config")}
    try:
        cfg = load_config(args.config, overrides)
        if args.command == "coverage":
            paths = cmd_coverage(cfg)
        elif args.command == "distributions":
            paths = cmd_distributions(cfg)
        elif args.command == "scattering":
            paths = cmd_scattering(cfg)
        else:
            paths, ok = cmd_validate(cfg)
            for p in paths:
                print(p)
            return 0 if ok else 1
    except (ConfigError, DomainError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NoVisibleSatellites as exc:
        print(f"geometry error: {exc}", file=sys.stderr)
        return 3
    except ResolutionError as exc:
        print(f"resolution error: {exc}", file=sys.stderr)
        return 4
    for p in paths:
        print(p)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
