"""Run configuration: flat key = value files with section prefixes,
overridable by CLI flags. Unknown keys are rejected.

Each RunConfig field is the one declaration of its setting: its file key,
its default and, for the settings the CLI overrides, its flag. CONFIG_KEYS,
the artifact header and the CLI parser are read off the fields."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace

from .distributions import DOPPLER_NU_STEP_HZ, JointGridSpec
from .errors import ConfigError
from .geometry import ShellConfig, UserGeometry


def _setting(key: str, default, flag: str | None = None):
    return field(default=default, metadata={"key": key, "flag": flag})


@dataclass(frozen=True)
class RunConfig:
    earth_radius_m: float = _setting("shell.earth_radius_m", ShellConfig.earth_radius_m)
    altitude_m: float = _setting("shell.altitude_m", ShellConfig.altitude_m)
    sat_speed_mps: float = _setting("shell.sat_speed_mps", ShellConfig.sat_speed_mps)
    carrier_hz: float = _setting("shell.carrier_hz", ShellConfig.carrier_hz)
    inclination_deg: float = _setting("shell.inclination_deg",
                                      math.degrees(ShellConfig.inclination_rad))
    n_sats: int = _setting("shell.n_sats", ShellConfig.n_sats)
    n_per_orbit: int = _setting("shell.n_per_orbit", ShellConfig.n_per_orbit)
    orbit_spacing_deg: float = _setting("shell.orbit_spacing_deg",
                                        math.degrees(ShellConfig.orbit_spacing_rad))
    lat_deg: float = _setting("user.lat_deg", 0.0, "--lat-deg")
    min_elev_deg: float = _setting("user.min_elev_deg", 30.0, "--min-elev-deg")
    nu_step_hz: float = _setting("grid.nu_step_hz", JointGridSpec.nu_step_hz, "--nu-step-hz")
    tau_step_s: float = _setting("grid.tau_step_s", JointGridSpec.tau_step_s, "--tau-step-s")
    doppler_nu_step_hz: float = _setting("grid.doppler_nu_step_hz", DOPPLER_NU_STEP_HZ)
    cdf_points: int = _setting("grid.cdf_points", 200)
    mc_samples: int = _setting("mc.samples", 200_000, "--mc-samples")
    seed: int = _setting("mc.seed", 1, "--seed")
    mc_empirical: bool = _setting("mc.empirical", False)
    snapshots: int = _setting("sim.snapshots", 20_000, "--snapshots")
    snapshot_spacing_s: float = _setting("sim.snapshot_spacing_s", 1.0)
    inter_orbit_phase_deg: float = _setting("sim.inter_orbit_phase_deg", 0.0)
    # the coverage command's latitude sweep
    lat_start_deg: float = _setting("sweep.lat_start_deg", 0.0)
    lat_stop_deg: float = _setting("sweep.lat_stop_deg", 90.0)
    lat_step_deg: float = _setting("sweep.lat_step_deg", 1.0)
    sweep_min_elev_deg: tuple = _setting("sweep.min_elev_deg", (30.0, 10.0))
    out_dir: str = _setting("out.dir", "out", "--out")
    out_format: str = _setting("out.format", "csv", "--format")

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


def _parse_bool(s: str) -> bool:
    if s.lower() in ("1", "true", "yes", "on"):
        return True
    if s.lower() in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {s}")


def _parse_float_list(s: str) -> tuple:
    return tuple(float(p) for p in s.split(",") if p.strip())


# RunConfig field annotation -> parser of its file value and CLI flag
PARSERS = {"float": float, "int": int, "bool": _parse_bool,
           "tuple": _parse_float_list, "str": str}

# config-file key -> (RunConfig field, parser)
CONFIG_KEYS: dict[str, tuple[str, object]] = {
    f.metadata["key"]: (f.name, PARSERS[f.type]) for f in fields(RunConfig)}


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
    key = {f.name: f.metadata["key"] for f in fields(cfg)}
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        finite = value if f.type == "tuple" else (value,) if f.type == "float" else ()
        if not all(map(math.isfinite, finite)):
            raise ConfigError(f"{key[f.name]} must be finite, got {value!r}")
    if cfg.out_format not in ("csv", "json"):
        raise ConfigError(f"{key['out_format']} must be csv or json, "
                          f"got {cfg.out_format!r}")
    for name in ("nu_step_hz", "tau_step_s", "doppler_nu_step_hz",
                 "snapshot_spacing_s", "lat_step_deg"):
        if not getattr(cfg, name) > 0:
            raise ConfigError(f"{key[name]} must be positive")
    if cfg.mc_samples <= 0 or cfg.snapshots <= 0 or cfg.cdf_points < 2:
        raise ConfigError("sample counts must be positive")
    if cfg.seed < 0:
        raise ConfigError(f"{key['seed']} must be non-negative, got {cfg.seed}")
    return cfg


def resolved_items(cfg: RunConfig) -> list[tuple[str, str]]:
    """(file-key, rendered value) pairs for every setting, sorted by key;
    written into output headers so artifacts record their full provenance."""
    out = []
    for f in fields(cfg):
        val = getattr(cfg, f.name)
        if isinstance(val, tuple):
            rendered = ",".join(f"{v:g}" for v in val)
        elif isinstance(val, bool):
            rendered = "true" if val else "false"
        elif isinstance(val, float):
            rendered = f"{val:.12g}"
        else:
            rendered = str(val)
        out.append((f.metadata["key"], rendered))
    return sorted(out)
