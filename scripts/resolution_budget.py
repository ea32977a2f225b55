#!/usr/bin/env python3
"""Print the error budget of the Doppler kernel's two resolutions.

Usage, from the root of a checkout (SciPy is needed for the oracle):

    PYTHONPATH=src python3 scripts/resolution_budget.py

The annulus pass integrates the polar integral at a fixed number of
sine-mapped nodes per panel and each cap slice at a fixed number of
azimuth samples: the joint grid's pass at 64 nodes and
distributions._N_ANNULUS_THETA samples, the Doppler CDF's at 384 nodes and
distributions._N_THETA samples. For six users (latitude / elevation mask in
degrees) at tau step 8.4e-5 s, and for the two reference users again at
the default tau step 2.8e-5 s, it prints, mark +1:

- polar and azimuth errors: the pass against itself at 4x the polar
  nodes, and at 4x the azimuth samples. "joint" is the joint grid's pass
  (default nu step), as a fraction of the peak cell; "cdf" is the full-cap
  Doppler CDF on the 2001 nu edges of the KS table, in probability;
- the joint grid against a converged reference of 8x the polar nodes and
  4096 azimuth samples (2048 at tau step 2.8e-5 s): the largest cell error
  as a fraction of the peak cell, and the L1 error as a fraction of the
  total mass;
- the largest error of doppler_cdf_grid against the adaptive quadrature
  of tests/oracles.py at 9 nu values evenly spread over +-0.95 nu_max.

The cdf columns do not depend on the tau step and are left blank in the
2.8e-5 s rows. The reference resolution does not follow the package's
counts, so two checkouts with different counts are measured against the
same grid. A run takes about four minutes on two CPUs.
"""

from __future__ import annotations

import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                "..", "tests"))

from oracles import doppler_cdf_adaptive, joint_mass_at, table_cdf_at  # noqa: E402

from leo_channel import distributions as dist  # noqa: E402
from leo_channel.config import load_config  # noqa: E402
from leo_channel.geometry import ShellConfig  # noqa: E402
from leo_channel.visibility import CapModel  # noqa: E402

USERS = [(0.0, 30.0), (60.0, 10.0), (0.0, 0.0), (53.0, 0.0), (36.9, 18.0),
         (45.0, 25.0)]
# (tau step in s, users, azimuth samples of the reference, cdf columns)
RUNS = [(8.4e-5, USERS, 4096, True), (2.8e-5, USERS[:2], 2048, False)]
JOINT_NODES, CDF_NODES = 64, 384


def budget(cap: CapModel, tau_step_s: float, ref_theta: int, cdf: bool) -> dict:
    n = dist._N_ANNULUS_THETA
    joint = joint_mass_at(cap, tau_step_s, JOINT_NODES, n)
    peak = float(joint.max())

    def joint_err(n_nodes, n_theta):
        return float(np.max(np.abs(joint_mass_at(cap, tau_step_s, n_nodes, n_theta)
                                   - joint))) / peak

    ref = joint_mass_at(cap, tau_step_s, 8 * JOINT_NODES, ref_theta)
    row = {
        "joint polar": joint_err(4 * JOINT_NODES, n),
        "joint azimuth": joint_err(JOINT_NODES, 4 * n),
        "joint max vs ref": float(np.max(np.abs(joint - ref))) / float(ref.max()),
        "joint L1 vs ref": float(np.sum(np.abs(joint - ref)) / np.sum(ref)),
    }
    if not cdf:
        return row
    n = dist._N_THETA
    base = table_cdf_at(cap, CDF_NODES, n)

    def cdf_err(n_nodes, n_theta):
        return float(np.max(np.abs(table_cdf_at(cap, n_nodes, n_theta) - base)))

    nus = np.linspace(-0.95, 0.95, 9) * cap.nu_max_hz
    grid = dist.doppler_cdf_grid(cap, nus, 1)
    oracle = np.array([doppler_cdf_adaptive(cap, float(v), 1) for v in nus])
    return row | {
        "cdf polar": cdf_err(4 * CDF_NODES, n),
        "cdf azimuth": cdf_err(CDF_NODES, 4 * n),
        "cdf vs oracle": float(np.max(np.abs(grid - oracle))),
    }


def main() -> None:
    shell = ShellConfig()
    print(f"joint pass: {JOINT_NODES} polar nodes per panel x "
          f"_N_ANNULUS_THETA = {dist._N_ANNULUS_THETA} azimuth samples; "
          f"cdf pass: {CDF_NODES} x _N_THETA = {dist._N_THETA}; reference "
          f"{8 * JOINT_NODES} polar nodes per panel")
    keys = ["joint polar", "joint azimuth", "joint max vs ref", "joint L1 vs ref",
            "cdf polar", "cdf azimuth", "cdf vs oracle"]
    print(f"{'tau step':>9}{'ref az':>7}{'user':>11}"
          + "".join(f"{k:>18}" for k in keys)
          + f"{'joint az/pol':>14}{'cdf az/pol':>12}")
    for tau_step_s, users, ref_theta, cdf in RUNS:
        for lat, mask in users:
            user = load_config(None, {"lat_deg": lat, "min_elev_deg": mask}).user(shell)
            row = budget(CapModel(shell, user), tau_step_s, ref_theta, cdf)
            ratios = [row["joint azimuth"] / row["joint polar"]]
            if "cdf polar" in row:
                ratios.append(row["cdf azimuth"] / row["cdf polar"])
            print(f"{tau_step_s:>9.1e}{ref_theta:>7d}{lat:>6g}/{mask:<4g}"
                  + "".join(f"{row[k]:>18.3e}" if k in row else f"{'':>18}"
                            for k in keys)
                  + "".join(f"{r:>{w}.3f}" for r, w in zip(ratios, (14, 12))))


if __name__ == "__main__":
    main()
