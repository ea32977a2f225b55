#!/usr/bin/env python3
"""Print the error budget of the per-plane rule and its node-count verdict.

Usage, from the root of a checkout (SciPy is needed for the oracle):

    PYTHONPATH=src python3 scripts/resolution_budget.py

Every Doppler law and the joint grid integrate, per cell, an interval
length on one pass over the node offsets psi, in sine-mapped panels of n
nodes (distributions._N_PLANE_NODES). The node count is fixed by a rule
stated before measuring: the smallest n of 8, 12, 16, 24 and 32 with
which, at the nine users below (inclination / latitude / elevation mask
in degrees), the rule at n is within 1e-7 of the rule at 2n

- for each mark's and the mark-mixed full-cap Doppler CDF on the 2001
  nu edges of the KS table, in probability, and
- for the mark-mixed joint grid at tau steps 8.4e-5 s and 2.8e-5 s
  (default nu step), as a fraction of the peak cell.

It prints the largest of these gaps per user and candidate, the verdict
for each candidate, and then, at the shipped node count, the largest gap
of each mark's and the mixed Doppler CDF to the adaptive quadrature of
tests/oracles.py at 21 nu values over +-0.95 nu_max. A run takes about
four minutes on two CPUs.
"""

from __future__ import annotations

import math
import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                "..", "tests"))

from oracles import doppler_cdf_adaptive, joint_mass_at, table_cdf_at  # noqa: E402

from leo_channel import distributions as dist  # noqa: E402
from leo_channel.geometry import ShellConfig, UserGeometry  # noqa: E402
from leo_channel.visibility import CapModel  # noqa: E402

USERS = [(53.0, 0.0, 30.0), (53.0, 60.0, 10.0), (53.0, 0.0, 0.0), (53.0, 53.0, 0.0),
         (53.0, 36.9, 18.0), (53.0, 45.0, 25.0), (20.0, 0.0, 6.0), (89.0, 90.0, 30.0),
         (88.94, 22.1, 39.1)]
CANDIDATES = (8, 12, 16, 24, 32)
TAU_STEPS = (8.4e-5, 2.8e-5)
BOUND = 1e-7


def cap_of(incl: float, lat: float, mask: float) -> CapModel:
    shell = ShellConfig(inclination_rad=math.radians(incl))
    return CapModel(shell, UserGeometry.for_shell(
        shell, math.pi / 2 - math.radians(lat), math.radians(mask)))


def mixed_table_at(cap: CapModel, n_nodes: int) -> np.ndarray:
    """The mark-mixed full-cap CDF on the KS table's 2001 edges: the pass
    of doppler_mixed_interpolator, without the marks' vertex breaks."""
    m = dist._DOPPLER_TABLE // 2
    e = (1.0001 * cap.nu_max_hz / m) * np.arange(-m, m + 1)
    return np.cumsum(dist._plane_cells(cap, [0.0, cap.user.sigma_max_rad],
                                       np.append(-math.inf, e), n_nodes=n_nodes))


def gaps(cap: CapModel, cache: dict, n: int) -> list[float]:
    """The rule at n against 2n: both marks' and the mixed CDF table, and the
    joint grid at each tau step."""
    def at(key, build, m):
        if (key, m) not in cache:
            cache[key, m] = build(m)
        return cache[key, m]

    out = [float(np.max(np.abs(at("marks", lambda m: table_cdf_at(cap, m), 2 * n)
                               - at("marks", lambda m: table_cdf_at(cap, m), n)))),
           float(np.max(np.abs(at("mixed", lambda m: mixed_table_at(cap, m), 2 * n)
                               - at("mixed", lambda m: mixed_table_at(cap, m), n))))]
    for tau in TAU_STEPS:
        def joint(m, tau=tau):
            return joint_mass_at(cap, tau, m)
        fine, base = at(tau, joint, 2 * n), at(tau, joint, n)
        out.append(float(np.max(np.abs(fine - base)) / fine.max()))
    return out


def main() -> None:
    print(f"per-plane rule, shipped _N_PLANE_NODES = {dist._N_PLANE_NODES}; "
          f"bound {BOUND:g} against 2n")
    print(f"{'user':>18}" + "".join(f"{'n = ' + str(n):>11}" for n in CANDIDATES)
          + "   (largest of: marks table, mixed table, joint 8.4e-5 s, joint 2.8e-5 s)")
    worst = dict.fromkeys(CANDIDATES, 0.0)
    for user in USERS:
        cap, cache = cap_of(*user), {}
        row = []
        for n in CANDIDATES:
            g = max(gaps(cap, cache, n))
            worst[n] = max(worst[n], g)
            row.append(g)
        print(f"{'/'.join(f'{v:g}' for v in user):>18}" + "".join(f"{g:>11.2e}" for g in row),
              flush=True)
    print(f"{'verdict':>18}" + "".join(f"{'meets' if worst[n] <= BOUND else 'fails':>11}"
                                       for n in CANDIDATES))
    chosen = next((n for n in CANDIDATES if worst[n] <= BOUND), None)
    print(f"rule's node count: {chosen}")
    print("\nshipped rule against the adaptive oracle, 21 nu values over +-0.95 nu_max:")
    print(f"{'user':>18}{'mark +1':>11}{'mark -1':>11}{'mixed':>11}")
    for user in USERS:
        cap = cap_of(*user)
        nus = np.linspace(-0.95, 0.95, 21) * cap.nu_max_hz
        want = {m: np.array([doppler_cdf_adaptive(cap, float(v), m) for v in nus])
                for m in (1, -1)}
        got = {m: dist.doppler_cdf_grid(cap, nus, m) for m in (1, -1)}
        mixed = np.cumsum(dist._plane_cells(cap, [0.0, cap.user.sigma_max_rad],
                                            np.append(-math.inf, nus)))
        errs = [np.max(np.abs(got[m] - want[m])) for m in (1, -1)]
        errs.append(np.max(np.abs(mixed - 0.5 * (want[1] + want[-1]))))
        print(f"{'/'.join(f'{v:g}' for v in user):>18}" + "".join(f"{e:>11.2e}" for e in errs),
              flush=True)


if __name__ == "__main__":
    main()
