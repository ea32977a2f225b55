"""Span recorder and the wrappers that time the program's layers.

Every wrapper is installed at the name its caller looks the function up
by (a module attribute, or a method on CapModel), so the program itself
is unchanged. A span records its name, thread, parent span and its start
and end on the monotonic clock; spans stay in memory until the pass ends.
Counters (integrand calls, Doppler evaluations, sampler draws) are
recorded at the same boundaries, so ratios are measured where the work
happens.
"""

from __future__ import annotations

import functools
import logging
import threading
import time

import numpy as np


class Tracer:
    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self.spans = []  # (id, parent, name, thread, start, end)
        self.counts = {}
        self._next_id = 0

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, key, n=1):
        with self._lock:
            self.counts[key] = self.counts.get(key, 0) + n

    def span(self, name, fn, *args, parent=None, **kwargs):
        """Call fn inside a span; parent defaults to the innermost open
        span of the calling thread."""
        stack = self._stack()
        with self._lock:
            sid = self._next_id
            self._next_id += 1
        if parent is None:
            parent = stack[-1] if stack else None
        stack.append(sid)
        start = time.monotonic()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.monotonic()
            stack.pop()
            with self._lock:
                self.spans.append((sid, parent, name, threading.get_ident(),
                                   start, end))

    def current(self):
        stack = self._stack()
        return stack[-1] if stack else None


class _ClampCounter(logging.Handler):
    """Sums the cell counts of the package's 'clamped %d tiny negative ...'
    INFO records."""

    def __init__(self, tracer):
        super().__init__(logging.INFO)
        self.tracer = tracer

    def emit(self, record):
        if "clamped" in record.msg and record.args:
            self.tracer.add("distributions.clamped_cells", int(record.args[0]))


def _timed(tracer, name, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.add(name + ".calls")
        return tracer.span(name, fn, *args, **kwargs)
    return wrapper


def install(tracer):
    """Patch the layer wrappers into the imported package for the rest of
    the process."""
    from leo_channel import channel as ch
    from leo_channel import cli, nbpp
    from leo_channel import distributions as dist
    from leo_channel import orbit_sim as osim
    from leo_channel import parallel as par
    from leo_channel import propagation as prop
    from leo_channel import quadrature as quad_mod
    from leo_channel import visibility as vis

    # plain timed layers, patched where their callers look them up
    for owner, attr, name in [
        (dist, "doppler_cdf_grid", "distributions.doppler_cdf_grid"),
        (ch, "joint_pdf_grid", "distributions.joint_pdf_grid"),
        (ch, "scattering_function", "channel.scattering_function"),
        (ch, "path_loss_proposition", "channel.path_loss_proposition"),
        (dist, "pcap_interpolator", "distributions.pcap_interpolator"),
        (prop, "max_doppler", "propagation.max_doppler"),
        (dist, "doppler_cdf", "distributions.doppler_cdf"),
        (dist, "doppler_cdf_mixed_batch", "distributions.doppler_cdf_mixed_batch"),
    ]:
        setattr(owner, attr, _timed(tracer, name, getattr(owner, attr)))
    for attr in ("p_cap", "p_cap_prime"):
        setattr(vis.CapModel, attr,
                _timed(tracer, "visibility." + attr, getattr(vis.CapModel, attr)))

    inner_integral = quad_mod.density_integral

    @functools.wraps(inner_integral)
    def density_integral(g, *args, **kwargs):
        tracer.add("quadrature.density_integral.calls")

        def counted(phi):
            tracer.add("quadrature.density_integral.evals")
            return g(phi)

        return tracer.span("quadrature.density_integral", inner_integral,
                           counted, *args, **kwargs)

    for owner in (vis, dist):
        setattr(owner, "density_integral", density_integral)

    inner_doppler = prop.doppler_hz_arrays

    @functools.wraps(inner_doppler)
    def doppler_hz_arrays(shell, user, theta, phi, mark):
        tracer.add("propagation.doppler_hz_arrays.evals",
                   np.broadcast(theta, phi, mark).size)
        return inner_doppler(shell, user, theta, phi, mark)

    for owner in (prop, dist, osim):
        setattr(owner, "doppler_hz_arrays", doppler_hz_arrays)

    inner_sample_arrays = nbpp.sample_arrays

    @functools.wraps(inner_sample_arrays)
    def sample_arrays(model, count, *args, **kwargs):
        tracer.add("nbpp.sample_visible.draws", int(count))
        return inner_sample_arrays(model, count, *args, **kwargs)

    nbpp.sample_arrays = sample_arrays

    inner_sample_visible = cli.sample_visible

    @functools.wraps(inner_sample_visible)
    def sample_visible(shell, user, count, *args, **kwargs):
        tracer.add("nbpp.sample_visible.samples", int(count))
        return tracer.span("nbpp.sample_visible", inner_sample_visible,
                           shell, user, count, *args, **kwargs)

    cli.sample_visible = sample_visible

    inner_snapshots = osim.snapshot_sample

    @functools.wraps(inner_snapshots)
    def snapshot_sample(con, user, times, *args, **kwargs):
        tracer.add("orbit_sim.snapshot_sample.snapshots", len(times))
        return tracer.span("orbit_sim.snapshot_sample", inner_snapshots,
                           con, user, times, *args, **kwargs)

    osim.snapshot_sample = snapshot_sample

    inner_ks = osim.ks_distance

    @functools.wraps(inner_ks)
    def ks_distance(samples, analytic_cdf):
        def callback(x):
            return tracer.span("orbit_sim.ks_distance.cdf", analytic_cdf, x)
        return tracer.span("orbit_sim.ks_distance", inner_ks, samples, callback)

    osim.ks_distance = ks_distance

    inner_map = par.ordered_map

    @functools.wraps(inner_map)
    def ordered_map(fn, items):
        items = list(items)
        workers = max(1, min(par.worker_count(), len(items)))

        def run():
            owner = tracer.current()

            def item(x):
                # worker threads start with an empty stack: nest under the map
                return tracer.span("parallel.ordered_map.item", fn, x,
                                   parent=owner)

            return inner_map(item, items)

        start = time.monotonic()
        try:
            return tracer.span("parallel.ordered_map", run)
        finally:
            tracer.add("parallel.ordered_map.capacity_s",
                       (time.monotonic() - start) * workers)

    par.ordered_map = ordered_map

    log = logging.getLogger(dist.__name__)
    log.addHandler(_ClampCounter(tracer))
    log.setLevel(logging.INFO)


def layer_metrics(tracer):
    """Per-layer metrics of one traced pass. busy_s sums span durations over
    threads (a span nested in one of the same name is not counted twice);
    self_s subtracts the direct children run on the span's own thread.
    Command spans are the ones named "cli.<command>"."""
    spans = tracer.spans
    by_id = {s[0]: s for s in spans}
    children = {}
    for s in spans:
        children.setdefault(s[1], []).append(s)

    def nested(s):
        parent = s[1]
        while parent is not None:
            if by_id[parent][2] == s[2]:
                return True
            parent = by_id[parent][1]
        return False

    busy = {}
    for s in spans:
        if not nested(s):
            busy[s[2]] = busy.get(s[2], 0.0) + (s[5] - s[4])

    def self_time(ids):
        total = 0.0
        for sid in ids:
            s = by_id[sid]
            kids = [k for k in children.get(sid, ()) if k[3] == s[3]]
            total += (s[5] - s[4]) - sum(k[5] - k[4] for k in kids)
        return total

    count = tracer.counts.get
    b = lambda name: busy.get(name, 0.0)
    ks_ids = [s[0] for s in spans if s[2] == "orbit_sim.ks_distance"]
    command_ids = [s[0] for s in spans if s[2].startswith("cli.")]
    capacity = count("parallel.ordered_map.capacity_s", 0.0)
    draws = count("nbpp.sample_visible.draws", 0)
    snap_busy = b("orbit_sim.snapshot_sample")
    return {
        "distributions.doppler_cdf_grid.calls": count("distributions.doppler_cdf_grid.calls", 0),
        "distributions.doppler_cdf_grid.busy_s": b("distributions.doppler_cdf_grid"),
        "distributions.joint_pdf_grid.busy_s": b("distributions.joint_pdf_grid"),
        "parallel.ordered_map.busy_s": b("parallel.ordered_map"),
        "parallel.ordered_map.efficiency":
            b("parallel.ordered_map.item") / capacity if capacity else 0.0,
        "propagation.doppler_hz_arrays.evals": count("propagation.doppler_hz_arrays.evals", 0),
        "channel.scattering_function.busy_s": b("channel.scattering_function"),
        "visibility.p_cap.calls": count("visibility.p_cap.calls", 0),
        "visibility.p_cap.busy_s": b("visibility.p_cap"),
        "visibility.p_cap_prime.calls": count("visibility.p_cap_prime.calls", 0),
        "visibility.p_cap_prime.busy_s": b("visibility.p_cap_prime"),
        "quadrature.density_integral.calls": count("quadrature.density_integral.calls", 0),
        "quadrature.density_integral.evals": count("quadrature.density_integral.evals", 0),
        "distributions.pcap_interpolator.busy_s": b("distributions.pcap_interpolator"),
        "propagation.max_doppler.busy_s": b("propagation.max_doppler"),
        "channel.path_loss_proposition.busy_s": b("channel.path_loss_proposition"),
        "nbpp.sample_visible.busy_s": b("nbpp.sample_visible"),
        "nbpp.sample_visible.draws": draws,
        "nbpp.sample_visible.acceptance":
            count("nbpp.sample_visible.samples", 0) / draws if draws else 0.0,
        "orbit_sim.snapshot_sample.busy_s": snap_busy,
        "orbit_sim.snapshot_sample.snapshots_per_s":
            count("orbit_sim.snapshot_sample.snapshots", 0) / snap_busy if snap_busy else 0.0,
        "orbit_sim.ks_distance.self_s": self_time(ks_ids),
        "distributions.doppler_cdf.calls": count("distributions.doppler_cdf.calls", 0),
        "distributions.doppler_cdf.busy_s": b("distributions.doppler_cdf"),
        "distributions.doppler_cdf_mixed_batch.busy_s": b("distributions.doppler_cdf_mixed_batch"),
        "distributions.clamped_cells": count("distributions.clamped_cells", 0),
        "cli.self_s": self_time(command_ids),
    }
