"""validate's checks on other shells and users than the reference pair."""

from types import SimpleNamespace

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from leo_channel import checks
from leo_channel.config import RunConfig
from leo_channel.errors import ConfigError, NoVisibleSatellites
from leo_channel.visibility import CapModel

# the checks of checks.REGISTRY that need neither a sample nor the joint grid
GRID_FREE = ("pcap_derivative_fd", "gain_pdf_vs_cdf_fd", "delay_pdf_vs_cdf_fd",
             "doppler_pdf_normalization", "doppler_mark_symmetry")


# about 0.05-0.1 s an example
@given(incl=st.floats(20.0, 89.0), lat=st.floats(0.0, 90.0),
       mask=st.floats(0.0, 60.0))
@example(incl=89.0, lat=90.0, mask=0.0)  # pole user, cap over the pole
@example(incl=53.0, lat=0.0, mask=0.0)
@settings(max_examples=50, deadline=None)
def test_grid_free_checks_pass_on_any_covered_user(incl, lat, mask):
    cfg = RunConfig(inclination_deg=incl, lat_deg=lat, min_elev_deg=mask)
    shell = cfg.shell()
    try:
        user = cfg.user(shell)
    except NoVisibleSatellites:
        assume(False)
    inputs = SimpleNamespace(cap=CapModel(shell, user), cfg=cfg)
    failed = {}
    for name, check, _ in checks.REGISTRY:
        if name in GRID_FREE:
            value, threshold = check(inputs)
            if not value <= threshold:
                failed[name] = (value, threshold)
    assert failed == {}


def test_analytic_checks_pass_on_their_own_inputs():
    # every check of checks.ANALYTIC reads only checks.AnalyticInputs, and
    # at the equator reference user each passes at its threshold
    names = [name for name, _, _ in checks.REGISTRY]
    assert set(GRID_FREE) < set(checks.ANALYTIC) <= set(names)
    inputs = checks.AnalyticInputs(RunConfig())
    for name, check, _ in checks.REGISTRY:
        if name in checks.ANALYTIC:
            value, threshold = check(inputs)
            assert value <= threshold, name


def test_plane_layout_is_checked_before_any_work(monkeypatch):
    # validate rejects a count off the Walker plane layout before it builds
    # the scattering grid, the KS tables or the Monte Carlo sample
    def no_work(*args, **kwargs):
        raise AssertionError("scattering grid built before the layout check")

    monkeypatch.setattr(checks.ch, "scattering_function", no_work)
    with pytest.raises(ConfigError, match="n_sats=3000.*n_per_orbit=22"):
        checks.run(RunConfig(n_sats=3000))
