import os

import numpy as np

from leo_channel.channel import scattering_function
from leo_channel.distributions import JointGridSpec, doppler_cdf_grid
from leo_channel.parallel import worker_count


def test_default_follows_cpu_affinity(monkeypatch):
    monkeypatch.delenv("LEO_CHANNEL_THREADS", raising=False)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert worker_count() == 1


def test_variable_sets_the_count(monkeypatch):
    monkeypatch.setenv("LEO_CHANNEL_THREADS", "3")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert worker_count() == 3


def test_scattering_does_not_depend_on_the_thread_count(cap_equator,
                                                        cap_midlat,
                                                        monkeypatch):
    # the joint grid and a Doppler CDF row: both are annulus passes whose
    # blocks are summed in block order
    spec = JointGridSpec(tau_step_s=8.4e-5)
    for cap in (cap_equator, cap_midlat):
        nus = np.linspace(-1.05, 1.05, 50) * cap.nu_max_hz
        grids, rows = [], []
        for threads in ("1", "2"):
            monkeypatch.setenv("LEO_CHANNEL_THREADS", threads)
            grids.append(scattering_function(cap, spec).values)
            rows.append(doppler_cdf_grid(cap, nus, -1))
        assert grids[0].tobytes() == grids[1].tobytes()
        assert rows[0].tobytes() == rows[1].tobytes()
