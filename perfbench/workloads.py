"""The benchmark's workloads: which CLI commands one pass runs.

The two reference users of the source paper are the equator with a 30
degree elevation mask and latitude 60 with a 10 degree mask. Every
command also gets the run's `--seed` and its own `--out` directory.
"""

from __future__ import annotations

from dataclasses import dataclass

EQUATOR = (0.0, 30.0)
LAT60 = (60.0, 10.0)

# Sizes are cut from the CLI defaults so that two passes of every workload
# fit in one run. The delay step is 3x the default (2.8e-5 s): each nested
# sub-cap row still costs what it does at the default grid, there are
# fewer rows.
SCATTERING_GRID = ("--tau-step-s", "8.4e-5")
# validate at the equator with 5e4 Monte Carlo samples (default 2e5),
# 5e3 snapshots (default 2e4) and a 5x coarser scattering grid; the
# scalar doppler_cdf symmetry check has no size knob and keeps its cost.
VALIDATE_SIZE = ("--mc-samples", "50000", "--snapshots", "5000",
                 "--tau-step-s", "1.4e-4")


@dataclass(frozen=True)
class Op:
    name: str            # also the output directory
    command: str         # CLI subcommand
    user: tuple | None   # (lat_deg, min_elev_deg), None for the sweep
    flags: tuple = ()

    def argv(self, seed: int, out: str) -> list[str]:
        argv = [self.command]
        if self.user is not None:
            argv += ["--lat-deg", f"{self.user[0]:g}",
                     "--min-elev-deg", f"{self.user[1]:g}"]
        return argv + list(self.flags) + ["--seed", str(seed), "--out", out]


@dataclass(frozen=True)
class Workload:
    name: str
    users: tuple         # users whose CapModel the set-up builds
    ops: tuple


WORKLOADS = {w.name: w for w in (
    Workload("scattering_ref", (EQUATOR, LAT60), (
        Op("scattering_eq30", "scattering", EQUATOR, SCATTERING_GRID),
        Op("scattering_lat60", "scattering", LAT60, SCATTERING_GRID),
    )),
    Workload("analytic_curves", (EQUATOR, LAT60), (
        Op("coverage", "coverage", None),
        Op("distributions_eq30", "distributions", EQUATOR),
        Op("distributions_lat60", "distributions", LAT60),
    )),
    Workload("oracle_validation", (EQUATOR,), (
        Op("validate_eq30", "validate", EQUATOR, VALIDATE_SIZE),
    )),
)}
