#!/usr/bin/env python3
"""Time the package's layers at the two reference users and print JSON.

Usage, from the root of a checkout:

    PYTHONPATH=src python3 scripts/bench_layers.py [--repeat N] [--cli]

Each layer runs a fixed piece of work (named in its key) at the equator
user with a 30 degree mask and at the latitude-60 user with a 10 degree
mask, first on one worker thread and then on as many as the process's CPU
affinity set allows (LEO_CHANNEL_THREADS is set for each pass). A value is
the median wall time in seconds over the repeats. With --cli the four
commands also run end to end at their default configuration, each in a
fresh interpreter. The output names the CPU count and the NumPy version;
timings are only comparable on the same machine.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time

import numpy as np

from leo_channel import channel as ch
from leo_channel import distributions as dist
from leo_channel import orbit_sim as osim
from leo_channel.config import load_config
from leo_channel.geometry import ShellConfig
from leo_channel.nbpp import sample_visible
from leo_channel.propagation import gain as gain_fn, max_doppler
from leo_channel.visibility import CapModel

USERS = {"equator_30": (0.0, 30.0), "lat60_10": (60.0, 10.0)}


def layers(cap: CapModel):
    """(name, zero-argument callable) for every timed layer of one user."""
    shell, user = cap.shell, cap.user
    sigmas = np.linspace(user.sigma_min_rad, user.sigma_max_rad, 102)[1:-1]
    edges = np.linspace(-1.0001, 1.0001, 2001) * cap.nu_max_hz
    con = osim.build(shell)
    sig = sample_visible(shell, user, 1_000_000, np.random.default_rng(1))[0]
    pcap = dist.pcap_interpolator(cap)

    def snapshots():
        rng = np.random.default_rng(2)
        osim.snapshot_sample(con, user, osim.default_snapshot_times(10_000, rng),
                             rng)

    return [
        ("p_cap x100", lambda: cap.p_cap(sigmas)),
        ("p_cap_prime x100", lambda: cap.p_cap_prime(sigmas)),
        ("pcap_interpolator", lambda: dist.pcap_interpolator(cap)),
        ("max_doppler", lambda: max_doppler(shell, user)),
        ("doppler_cdf_grid row, full cap, 2001 edges",
         lambda: dist.doppler_cdf_grid(cap, edges, 1)),
        ("mark-mixed Doppler table, 2001 edges",
         lambda: dist.doppler_mixed_interpolator(cap)),
        ("scattering_function, default grid",
         lambda: ch.scattering_function(cap)),
        ("scattering_function, tau step 8.4e-5 s",
         lambda: ch.scattering_function(cap, dist.JointGridSpec(tau_step_s=8.4e-5))),
        ("path_loss_proposition", lambda: ch.path_loss_proposition(cap)),
        ("sample_visible, 1e6 samples",
         lambda: sample_visible(shell, user, 1_000_000, np.random.default_rng(1))),
        ("snapshot_sample, 1e4 snapshots", snapshots),
        ("ks_distance, 1e6 gains",
         lambda: osim.ks_distance(gain_fn(shell, sig),
                                  lambda x: dist.gain_cdf(cap, x, pcap))),
    ]


def median_time(fn, repeat: int) -> float:
    times = []
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def time_cli(repeat: int) -> dict:
    import leo_channel

    src = os.path.dirname(os.path.dirname(os.path.abspath(leo_channel.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for command in ("coverage", "distributions", "scattering", "validate"):
            times = []
            for _ in range(repeat):
                start = time.perf_counter()
                subprocess.run([sys.executable, "-m", "leo_channel", command,
                                "--out", tmp], check=True,
                               stdout=subprocess.DEVNULL, env=env)
                times.append(time.perf_counter() - start)
            out[command] = statistics.median(times)
    return out


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--repeat", type=int, default=3)
    ap.add_argument("--cli", action="store_true",
                    help="also time the four CLI commands at their defaults")
    args = ap.parse_args()

    shell = ShellConfig()
    caps = {name: CapModel(shell, load_config(
                None, {"lat_deg": lat, "min_elev_deg": elev}).user(shell))
            for name, (lat, elev) in USERS.items()}
    affinity = len(os.sched_getaffinity(0))
    result = {"cpus": affinity, "numpy": np.__version__,
              "python": platform.python_version(), "repeat": args.repeat,
              "threads": {}}
    for threads in sorted({1, affinity}):
        os.environ["LEO_CHANNEL_THREADS"] = str(threads)
        per_user = {}
        for name, cap in caps.items():
            per_user[name] = {layer: round(median_time(fn, args.repeat), 4)
                              for layer, fn in layers(cap)}
        if args.cli:
            per_user["cli"] = {k: round(v, 3) for k, v in time_cli(args.repeat).items()}
        result["threads"][str(threads)] = per_user
    print(json.dumps(result, indent=1))


if __name__ == "__main__":
    main()
