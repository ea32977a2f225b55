import os

import numpy as np

from leo_channel.channel import scattering_function
from leo_channel.distributions import doppler_cdf_grid
from leo_channel.parallel import worker_count


def test_default_follows_cpu_affinity(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert worker_count() == 1


def test_without_affinity_follows_cpu_count(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert worker_count() == 3


def test_scattering_does_not_depend_on_the_thread_count(cap_equator,
                                                        cap_midlat,
                                                        monkeypatch):
    # the joint grid and a Doppler CDF row: no package pass is threaded,
    # so the affinity set changes no bit
    for cap in (cap_equator, cap_midlat):
        nus = np.linspace(-1.05, 1.05, 50) * cap.nu_max_hz
        grids, rows = [], []
        for cpus in ({0}, {0, 1}):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus,
                                raising=False)
            grids.append(scattering_function(cap, tau_step_s=8.4e-5).values)
            rows.append(doppler_cdf_grid(cap, nus, -1))
        assert grids[0].tobytes() == grids[1].tobytes()
        assert rows[0].tobytes() == rows[1].tobytes()
