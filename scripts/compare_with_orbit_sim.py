#!/usr/bin/env python3
"""Empirical-versus-analytic comparison: draw snapshot observations from
the deterministic Walker-delta simulator and report Kolmogorov-Smirnov
distances against the analytic gain, delay and Doppler CDFs."""

import argparse
import math

import numpy as np

from leo_channel import distributions as dist
from leo_channel import orbit_sim as osim
from leo_channel.geometry import UserGeometry, starlink_shell
from leo_channel.propagation import delay as delay_fn, gain as gain_fn
from leo_channel.visibility import CapModel


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--lat-deg", type=float, default=0.0)
    ap.add_argument("--min-elev-deg", type=float, default=30.0)
    ap.add_argument("--snapshots", type=int, default=50_000)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()

    shell = starlink_shell()
    user = UserGeometry.for_shell(
        shell, math.pi / 2 - math.radians(args.lat_deg),
        math.radians(args.min_elev_deg))
    cap = CapModel(shell, user)
    pcap = dist.pcap_interpolator(cap)

    rng = np.random.default_rng(args.seed)
    con = osim.build(shell)
    times = osim.default_snapshot_times(args.snapshots, rng)
    g, tau, nu, mark, counts = osim.snapshot_sample(con, user, times, rng)

    print(f"user lat {args.lat_deg} deg, mask {args.min_elev_deg} deg, "
          f"{args.snapshots} snapshots ({g.size} with a visible satellite)")
    print(f"mean visible count: {counts.mean():.3f} "
          f"(analytic {cap.avg_visible():.3f})")
    print(f"gain KS:    {osim.ks_distance(g, lambda x: dist.gain_cdf(cap, x, pcap)):.5f}")
    print(f"delay KS:   {osim.ks_distance(tau, lambda x: dist.delay_cdf(cap, x, pcap)):.5f}")
    print(f"doppler KS: {osim.ks_distance(nu, lambda x: dist.doppler_cdf_mixed_batch(cap, x)):.5f}")
    print(f"ascending fraction: {np.mean(mark == 1):.4f}")


if __name__ == "__main__":
    main()
