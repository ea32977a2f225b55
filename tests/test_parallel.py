import os

from leo_channel.parallel import worker_count


def test_default_follows_cpu_affinity(monkeypatch):
    monkeypatch.delenv("LEO_CHANNEL_THREADS", raising=False)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert worker_count() == 1


def test_variable_sets_the_count(monkeypatch):
    monkeypatch.setenv("LEO_CHANNEL_THREADS", "3")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert worker_count() == 3
