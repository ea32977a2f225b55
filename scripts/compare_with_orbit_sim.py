#!/usr/bin/env python3
"""Empirical-versus-analytic comparison: draw snapshot observations from
the deterministic Walker-delta simulator and report Kolmogorov-Smirnov
distances against the analytic gain, delay and Doppler CDFs."""

import argparse

import numpy as np

from leo_channel import checks
from leo_channel import orbit_sim as osim
from leo_channel.config import load_config
from leo_channel.geometry import ShellConfig
from leo_channel.visibility import CapModel


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--lat-deg", type=float, default=0.0)
    ap.add_argument("--min-elev-deg", type=float, default=30.0)
    ap.add_argument("--snapshots", type=int, default=50_000)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()

    shell = ShellConfig()
    user = load_config(None, {"lat_deg": args.lat_deg,
                              "min_elev_deg": args.min_elev_deg}).user(shell)
    cap = CapModel(shell, user)

    rng = np.random.default_rng(args.seed)
    con = osim.build(shell)
    times = osim.default_snapshot_times(args.snapshots, rng)
    *sample, counts = osim.snapshot_sample(con, user, times, rng)
    mark = sample[3]

    print(f"user lat {args.lat_deg} deg, mask {args.min_elev_deg} deg, "
          f"{args.snapshots} snapshots ({mark.size} with a visible satellite)")
    print(f"mean visible count: {counts.mean():.3f} "
          f"(analytic {cap.avg_visible():.3f})")
    d_gain, d_delay, d_doppler = checks.ks_triple(cap, checks.ks_tables(cap),
                                                  *sample)
    print(f"gain KS:    {d_gain:.5f}")
    print(f"delay KS:   {d_delay:.5f}")
    print(f"doppler KS: {d_doppler:.5f}")
    print(f"ascending fraction: {np.mean(mark == 1):.4f}")


if __name__ == "__main__":
    main()
