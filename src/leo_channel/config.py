"""Run configuration: flat key = value files with section prefixes,
overridable by CLI flags. Unknown keys are rejected."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace

from .distributions import DOPPLER_NU_STEP_HZ, JointGridSpec
from .errors import ConfigError
from .geometry import MEAN_EARTH_RADIUS_M, ShellConfig, UserGeometry


@dataclass(frozen=True)
class RunConfig:
    # shell.*
    earth_radius_m: float = MEAN_EARTH_RADIUS_M
    altitude_m: float = 550e3
    sat_speed_mps: float = 7.29e3
    carrier_hz: float = 12.7e9
    inclination_deg: float = 53.0
    n_sats: int = 3168
    n_per_orbit: int = 22
    orbit_spacing_deg: float = 2.5
    # user.*
    lat_deg: float = 0.0
    min_elev_deg: float = 30.0
    # grid.*
    nu_step_hz: float = JointGridSpec.nu_step_hz
    tau_step_s: float = JointGridSpec.tau_step_s
    doppler_nu_step_hz: float = DOPPLER_NU_STEP_HZ
    cdf_points: int = 200
    # mc.*
    mc_samples: int = 200_000
    seed: int = 1
    mc_empirical: bool = False
    # sim.*
    snapshots: int = 20_000
    snapshot_spacing_s: float = 1.0
    inter_orbit_phase_deg: float = 0.0
    # sweep.* (coverage command)
    lat_start_deg: float = 0.0
    lat_stop_deg: float = 90.0
    lat_step_deg: float = 1.0
    sweep_min_elev_deg: tuple = (30.0, 10.0)
    # out.*
    out_dir: str = "out"
    out_format: str = "csv"

    def shell(self) -> ShellConfig:
        return ShellConfig(
            earth_radius_m=self.earth_radius_m,
            altitude_m=self.altitude_m,
            sat_speed_mps=self.sat_speed_mps,
            carrier_hz=self.carrier_hz,
            inclination_rad=math.radians(self.inclination_deg),
            n_sats=self.n_sats,
            n_per_orbit=self.n_per_orbit,
            orbit_spacing_rad=math.radians(self.orbit_spacing_deg),
        )

    def user(self, shell: ShellConfig | None = None) -> UserGeometry:
        return UserGeometry.for_shell(
            shell or self.shell(),
            math.pi / 2 - math.radians(self.lat_deg),
            math.radians(self.min_elev_deg),
        )


# config-file key -> (RunConfig field, parser)
def _parse_bool(s: str) -> bool:
    if s.lower() in ("1", "true", "yes", "on"):
        return True
    if s.lower() in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {s}")


def _parse_float_list(s: str) -> tuple:
    return tuple(float(p) for p in s.split(",") if p.strip())


CONFIG_KEYS: dict[str, tuple[str, object]] = {
    "shell.earth_radius_m": ("earth_radius_m", float),
    "shell.altitude_m": ("altitude_m", float),
    "shell.sat_speed_mps": ("sat_speed_mps", float),
    "shell.carrier_hz": ("carrier_hz", float),
    "shell.inclination_deg": ("inclination_deg", float),
    "shell.n_sats": ("n_sats", int),
    "shell.n_per_orbit": ("n_per_orbit", int),
    "shell.orbit_spacing_deg": ("orbit_spacing_deg", float),
    "user.lat_deg": ("lat_deg", float),
    "user.min_elev_deg": ("min_elev_deg", float),
    "grid.nu_step_hz": ("nu_step_hz", float),
    "grid.tau_step_s": ("tau_step_s", float),
    "grid.doppler_nu_step_hz": ("doppler_nu_step_hz", float),
    "grid.cdf_points": ("cdf_points", int),
    "mc.samples": ("mc_samples", int),
    "mc.seed": ("seed", int),
    "mc.empirical": ("mc_empirical", _parse_bool),
    "sim.snapshots": ("snapshots", int),
    "sim.snapshot_spacing_s": ("snapshot_spacing_s", float),
    "sim.inter_orbit_phase_deg": ("inter_orbit_phase_deg", float),
    "sweep.lat_start_deg": ("lat_start_deg", float),
    "sweep.lat_stop_deg": ("lat_stop_deg", float),
    "sweep.lat_step_deg": ("lat_step_deg", float),
    "sweep.min_elev_deg": ("sweep_min_elev_deg", _parse_float_list),
    "out.dir": ("out_dir", str),
    "out.format": ("out_format", str),
}


def load_config(path: str | None, overrides: dict | None = None) -> RunConfig:
    """Config from file plus explicit overrides (RunConfig field -> value)."""
    values: dict[str, object] = {}
    if path is not None:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected key = value")
                key, _, val = line.partition("=")
                key, val = key.strip(), val.strip()
                if key not in CONFIG_KEYS:
                    raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
                name, parse = CONFIG_KEYS[key]
                try:
                    values[name] = parse(val)
                except ValueError as exc:
                    raise ConfigError(f"{path}:{lineno}: bad value for {key}: {exc}")
    cfg = RunConfig(**values)
    if overrides:
        cfg = replace(cfg, **{k: v for k, v in overrides.items() if v is not None})
    if cfg.out_format not in ("csv", "json"):
        raise ConfigError(f"out.format must be csv or json, got {cfg.out_format!r}")
    for name in ("nu_step_hz", "tau_step_s", "doppler_nu_step_hz",
                 "snapshot_spacing_s", "lat_step_deg"):
        if getattr(cfg, name) <= 0:
            raise ConfigError(f"{name} must be positive")
    if cfg.mc_samples <= 0 or cfg.snapshots <= 0 or cfg.cdf_points < 2:
        raise ConfigError("sample counts must be positive")
    return cfg


def resolved_items(cfg: RunConfig) -> list[tuple[str, str]]:
    """(file-key, rendered value) pairs for every setting, sorted by key;
    written into output headers so artifacts record their full provenance."""
    by_field = {name: key for key, (name, _) in CONFIG_KEYS.items()}
    out = []
    for f in fields(cfg):
        key = by_field[f.name]
        val = getattr(cfg, f.name)
        if isinstance(val, tuple):
            rendered = ",".join(f"{v:g}" for v in val)
        elif isinstance(val, bool):
            rendered = "true" if val else "false"
        elif isinstance(val, float):
            rendered = f"{val:.12g}"
        else:
            rendered = str(val)
        out.append((key, rendered))
    return sorted(out)
