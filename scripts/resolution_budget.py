#!/usr/bin/env python3
"""Print the error budget of the Doppler kernel's two resolutions.

Usage, from the root of a checkout (SciPy is needed for the oracle):

    PYTHONPATH=src python3 scripts/resolution_budget.py

The annulus pass integrates each cap slice at distributions._N_THETA
azimuth samples and the polar integral at a fixed number of sine-mapped
nodes per panel. For six users (latitude / elevation mask in degrees) it
prints, mark +1:

- polar and azimuth errors: the pass against itself at 4x the polar
  nodes, and at 4x the azimuth samples. "joint" is the joint grid's pass
  (64 nodes per panel, tau step 8.4e-5 s, default nu step), as a fraction
  of the peak cell; "cdf" is the full-cap Doppler CDF (384 nodes per panel)
  on the 2001 nu edges of the KS table, in probability;
- the joint grid against a converged reference of 8x the polar nodes and
  4096 azimuth samples: the largest cell error as a fraction of the peak
  cell, and the L1 error as a fraction of the total mass;
- the largest error of doppler_cdf_grid against the adaptive quadrature
  of tests/oracles.py at 9 nu values evenly spread over +-0.95 nu_max.

The reference resolution does not follow _N_THETA, so two checkouts with
different counts are measured against the same grid. A run takes about
two minutes on two CPUs.
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
TAU_STEP_S = 8.4e-5
JOINT_NODES, CDF_NODES = 64, 384
REF_THETA = 4096


def budget(cap: CapModel) -> dict:
    n = dist._N_THETA
    joint = joint_mass_at(cap, TAU_STEP_S, JOINT_NODES, n)
    peak = float(joint.max())

    def joint_err(n_nodes, n_theta):
        return float(np.max(np.abs(joint_mass_at(cap, TAU_STEP_S, n_nodes, n_theta)
                                   - joint))) / peak

    cdf = table_cdf_at(cap, CDF_NODES, n)

    def cdf_err(n_nodes, n_theta):
        return float(np.max(np.abs(table_cdf_at(cap, n_nodes, n_theta) - cdf)))

    ref = joint_mass_at(cap, TAU_STEP_S, 8 * JOINT_NODES, REF_THETA)
    nus = np.linspace(-0.95, 0.95, 9) * cap.nu_max_hz
    grid = dist.doppler_cdf_grid(cap, nus, 1)
    oracle = np.array([doppler_cdf_adaptive(cap, float(v), 1) for v in nus])
    return {
        "joint polar": joint_err(4 * JOINT_NODES, n),
        "joint azimuth": joint_err(JOINT_NODES, 4 * n),
        "cdf polar": cdf_err(4 * CDF_NODES, n),
        "cdf azimuth": cdf_err(CDF_NODES, 4 * n),
        "joint max vs ref": float(np.max(np.abs(joint - ref))) / float(ref.max()),
        "joint L1 vs ref": float(np.sum(np.abs(joint - ref)) / np.sum(ref)),
        "cdf vs oracle": float(np.max(np.abs(grid - oracle))),
    }


def main() -> None:
    shell = ShellConfig()
    print(f"_N_THETA = {dist._N_THETA}; reference {8 * JOINT_NODES} polar nodes "
          f"per panel x {REF_THETA} azimuth samples")
    keys = None
    for lat, mask in USERS:
        user = load_config(None, {"lat_deg": lat, "min_elev_deg": mask}).user(shell)
        cap = CapModel(shell, user)
        row = budget(cap)
        if keys is None:
            keys = list(row)
            print(f"{'user':>10}" + "".join(f"{k:>18}" for k in keys)
                  + f"{'joint az/pol':>14}{'cdf az/pol':>12}")
        ratios = (row["joint azimuth"] / row["joint polar"],
                  row["cdf azimuth"] / row["cdf polar"])
        print(f"{lat:>5g}/{mask:<4g}" + "".join(f"{row[k]:>18.3e}" for k in keys)
              + f"{ratios[0]:>14.3f}{ratios[1]:>12.3f}")


if __name__ == "__main__":
    main()
