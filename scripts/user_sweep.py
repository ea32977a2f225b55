#!/usr/bin/env python3
"""Run validate's analytic checks on every covered user of a sweep.

Usage, from the root of a checkout (SciPy is needed for the oracles):

    PYTHONPATH=src python3 scripts/user_sweep.py \
        [--incl 30 53 70 89] [--lat 0 15 30 45 60 75 90] [--mask 0 10 25 40 60]

Shell inclinations, user latitudes and elevation masks are in degrees; the
defaults above give 140 users, of which 105 see a satellite. For each
covered user it runs the seven checks of checks.REGISTRY that need neither
a Monte Carlo sample nor Walker snapshots (checks.ANALYTIC, on the inputs
of checks.AnalyticInputs), each at its threshold:
pcap_derivative_fd, gain_pdf_vs_cdf_fd, delay_pdf_vs_cdf_fd,
dual_path_loss and scattering_normalization (on the default grid),
doppler_pdf_normalization and doppler_mark_symmetry. RuntimeWarning and
UserWarning are errors. One line per user gives its time, its check
closest to (or furthest over) its threshold as value / threshold, and the
relative gaps of the grid's binned moments (tests/oracles.grid_moments) to
channel.global_params: mean delay, delay spread and Doppler spread. The
failures are listed at the end, and the exit status is 1 if there are any.
At the defaults 104 users pass; the 89-degree shell's pole user with a
0-degree mask fails scattering_normalization (2.54e-2 against 2e-2). A run
takes about 80 s on two CPUs.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
import warnings

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                "..", "tests"))

from oracles import grid_moments  # noqa: E402

from leo_channel import channel as ch  # noqa: E402
from leo_channel import checks  # noqa: E402
from leo_channel.config import RunConfig  # noqa: E402
from leo_channel.errors import NoVisibleSatellites  # noqa: E402


def sweep_user(cfg: RunConfig):
    """(failed checks as {name: (value, threshold)}, worst check name and
    value / threshold, moment gaps) of one covered user."""
    inputs = checks.AnalyticInputs(cfg)
    failed, ratios = {}, {}
    for name, check, _ in checks.REGISTRY:
        if name in checks.ANALYTIC:
            value, threshold = check(inputs)
            ratios[name] = value / threshold
            if not value <= threshold:
                failed[name] = (value, threshold)
    s = ch.global_params(inputs.cap)
    rule = np.array([s.mean_delay_s, s.rms_delay_spread_s, s.rms_doppler_spread_hz])
    gaps = np.abs(np.array(grid_moments(inputs.grid, inputs.rho2)) / rule - 1.0)
    worst = max(ratios, key=ratios.get)
    return failed, worst, ratios[worst], gaps


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--incl", type=float, nargs="+", default=[30, 53, 70, 89])
    parser.add_argument("--lat", type=float, nargs="+",
                        default=[0, 15, 30, 45, 60, 75, 90])
    parser.add_argument("--mask", type=float, nargs="+", default=[0, 10, 25, 40, 60])
    args = parser.parse_args(argv)
    warnings.simplefilter("error", RuntimeWarning)
    warnings.simplefilter("error", UserWarning)
    print(f"{'incl':>5s} {'lat':>5s} {'mask':>5s} {'time_s':>7s}  "
          f"{'worst check':26s} {'ratio':>9s}  gaps: mean delay, delay spread, "
          f"Doppler spread")
    covered, failures = 0, []
    for incl in args.incl:
        for lat in args.lat:
            for mask in args.mask:
                cfg = RunConfig(inclination_deg=incl, lat_deg=lat, min_elev_deg=mask)
                user = f"{incl:5g} {lat:5g} {mask:5g}"
                t0 = time.perf_counter()
                try:
                    failed, worst, ratio, gaps = sweep_user(cfg)
                except NoVisibleSatellites:
                    continue
                except (RuntimeWarning, UserWarning) as exc:
                    covered += 1
                    failures.append(f"{user}: {type(exc).__name__}: {exc}")
                    print(f"{user} {'':>7s}  {type(exc).__name__}: {exc}")
                    continue
                covered += 1
                failures += [f"{user}: {name} {value:.3e} (threshold {threshold:.3e})"
                             for name, (value, threshold) in failed.items()]
                print(f"{user} {time.perf_counter() - t0:7.2f}  {worst:26s} "
                      f"{ratio:9.3e}  " + " ".join(f"{g:.1e}" for g in gaps),
                      flush=True)
    n_bad = len({f.split(":")[0] for f in failures})
    print(f"{covered - n_bad} of {covered} covered users pass")
    for f in failures:
        print("FAIL", f)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
