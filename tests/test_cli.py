import ast
import csv
import argparse
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from leo_channel import checks
from leo_channel.cli import _build_parser, main
from leo_channel.config import CONFIG_KEYS, RunConfig, load_config
from leo_channel.errors import ConfigError


def read_csv(path: Path):
    with open(path, newline="") as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    rows = list(csv.reader(lines))
    return rows[0], rows[1:]


FAST = ["--mc-samples", "20000", "--snapshots", "3000", "--tau-step-s", "1.4e-4"]


class TestConfig:
    def test_defaults(self):
        cfg = load_config(None)
        assert cfg.lat_deg == 0.0
        assert cfg.shell().n_sats == 3168

    def test_file_and_overrides(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("user.lat_deg = 12.5\nmc.seed = 7\n")
        cfg = load_config(str(p), {"seed": 9})
        assert cfg.lat_deg == 12.5
        assert cfg.seed == 9

    def test_unknown_key_rejected(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("user.latitude = 3\n")
        with pytest.raises(ConfigError):
            load_config(str(p))

    def test_bad_value_rejected(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("mc.samples = many\n")
        with pytest.raises(ConfigError):
            load_config(str(p))


class TestCoverage:
    def test_reference_rows(self, tmp_path):
        out = str(tmp_path / "cov")
        assert main(["coverage", "--out", out]) == 0
        hdr, rows = read_csv(Path(out) / "coverage.csv")
        table = {(r[0], r[1]): dict(zip(hdr, r)) for r in rows}
        row0 = table[("30", "0")]
        row53 = table[("30", "53")]
        assert float(row53["avg_visible"]) == pytest.approx(25.6, rel=0.02)
        assert float(row0["avg_visible"]) == pytest.approx(9.8, rel=0.02)
        beyond = table[("30", "75")]
        assert float(beyond["avg_visible"]) == 0.0
        assert float(beyond["availability"]) == 0.0

    def test_json_format(self, tmp_path):
        out = str(tmp_path / "cov")
        assert main(["coverage", "--out", out, "--format", "json"]) == 0
        doc = json.loads((Path(out) / "coverage.json").read_text())
        assert doc["columns"][0] == "min_elev_deg"
        assert len(doc["rows"]) > 0


class TestDistributions:
    def test_artifacts_and_normalization(self, tmp_path):
        out = str(tmp_path / "dist")
        assert main(["distributions", "--out", out]) == 0
        hdr, rows = read_csv(Path(out) / "distributions_doppler_pdf.csv")
        nu = [float(r[0]) for r in rows]
        pdf = [float(r[1]) for r in rows]
        step = nu[1] - nu[0]
        trapz = sum(0.5 * (a + b) * step for a, b in zip(pdf, pdf[1:]))
        assert trapz == pytest.approx(1.0, abs=1e-3)
        # equator: symmetric in nu
        asym = max(abs(a - b) for a, b in zip(pdf, pdf[::-1]))
        assert asym < 1e-4

    def test_rerun_is_byte_identical(self, tmp_path, monkeypatch):
        # identical config (including the recorded out dir) from two
        # working directories
        for sub in ("a", "b"):
            (tmp_path / sub).mkdir()
            monkeypatch.chdir(tmp_path / sub)
            assert main(["distributions", "--out", "out", "--seed", "3",
                         "--mc-samples", "5000"]) == 0
        for name in ("distributions_gain.csv", "distributions_delay.csv",
                     "distributions_doppler_cdf.csv",
                     "distributions_doppler_pdf.csv"):
            a = (tmp_path / "a" / "out" / name).read_bytes()
            b = (tmp_path / "b" / "out" / name).read_bytes()
            assert a == b

    def test_no_coverage_exits_3(self, tmp_path):
        assert main(["distributions", "--out", str(tmp_path / "x"),
                     "--lat-deg", "80"]) == 3

    def test_empirical_columns(self, tmp_path):
        out = str(tmp_path / "emp")
        cfg = tmp_path / "emp.cfg"
        cfg.write_text("mc.empirical = true\nmc.samples = 50000\n")
        assert main(["distributions", "--config", str(cfg), "--out", out]) == 0
        hdr, rows = read_csv(Path(out) / "distributions_delay.csv")
        assert hdr[-1] == "mc_cdf"
        i_cdf, i_mc = hdr.index("cdf"), hdr.index("mc_cdf")
        worst = max(abs(float(r[i_cdf]) - float(r[i_mc])) for r in rows)
        assert worst < 0.02  # 50k-sample empirical CDF tracks the analytic one

    def test_cdf_columns_monotone(self, tmp_path):
        out = str(tmp_path / "dist2")
        assert main(["distributions", "--out", out]) == 0
        for name, col in [("distributions_gain.csv", "cdf"),
                          ("distributions_delay.csv", "cdf"),
                          ("distributions_doppler_cdf.csv", "cdf_mixed")]:
            hdr, rows = read_csv(Path(out) / name)
            i = hdr.index(col)
            vals = [float(r[i]) for r in rows]
            assert all(b >= a - 1e-9 for a, b in zip(vals, vals[1:]))
            assert vals[0] == pytest.approx(0.0, abs=1e-6)
            assert vals[-1] == pytest.approx(1.0, abs=1e-6)


class TestScattering:
    def test_summary_and_matrix(self, tmp_path):
        out = str(tmp_path / "scat")
        assert main(["scattering", "--out", out]) == 0
        doc = json.loads((Path(out) / "channel_summary.json").read_text())
        assert doc["path_loss_db"] == pytest.approx(117.6, abs=0.2)
        assert doc["channel_spread"] > 100.0
        hdr, rows = read_csv(Path(out) / "scattering.csv")
        n_nu = len(hdr) - 1
        n_tau = len(rows)
        cfg = load_config(None)
        # matrix dimensions follow the configured grid steps
        assert n_nu >= 2 * 246e3 / cfg.nu_step_hz
        assert n_tau >= (3.31e-3 - 1.83e-3) / cfg.tau_step_s

    def test_coarse_grid_exits_4(self, tmp_path):
        assert main(["scattering", "--out", str(tmp_path / "x"),
                     "--nu-step-hz", "50e3"]) == 4


class TestValidate:
    def test_default_passes(self, tmp_path):
        out = str(tmp_path / "val")
        code = main(["validate", "--out", out] + FAST)
        report = json.loads((Path(out) / "validation.json").read_text())
        failed = [c["name"] for c in report["checks"] if not c["passed"]]
        assert code == 0, f"failed checks: {failed}"
        assert report["passed"] is True

    def test_lat60_passes(self, tmp_path):
        # away from the equator the Walker KS thresholds are 0.03 (gain,
        # delay) and 0.05 (Doppler) plus sampling noise
        out = str(tmp_path / "val60")
        code = main(["validate", "--out", out, "--lat-deg", "60",
                     "--min-elev-deg", "10"] + FAST)
        report = json.loads((Path(out) / "validation.json").read_text())
        failed = [c["name"] for c in report["checks"] if not c["passed"]]
        assert code == 0, f"failed checks: {failed}"
        assert len(report["checks"]) == len(checks.REGISTRY) == 13

    def test_corrupted_grid_fails(self, tmp_path):
        out = str(tmp_path / "valbad")
        code = main(["validate", "--out", out, "--nu-step-hz", "50e3"] + FAST)
        assert code == 1
        report = json.loads((Path(out) / "validation.json").read_text())
        bad = {c["name"]: c for c in report["checks"]}
        assert not bad["scattering_normalization"]["passed"]

    def test_report_schema_stable(self, tmp_path):
        reports = []
        for seed in ("3", "4"):
            out = str(tmp_path / f"val{seed}")
            main(["validate", "--out", out, "--seed", seed] + FAST)
            reports.append(json.loads((Path(out) / "validation.json").read_text()))
        names0 = [c["name"] for c in reports[0]["checks"]]
        names1 = [c["name"] for c in reports[1]["checks"]]
        assert names0 == names1
        assert set(reports[0]) == set(reports[1])


@pytest.mark.parametrize("flag,key,value", [
    # values as the config line renders them
    ("--lat-deg", "user.lat_deg", "12.5"),
    ("--min-elev-deg", "user.min_elev_deg", "20"),
    ("--seed", "mc.seed", "5"),
    ("--out", "out.dir", "elsewhere"),
    ("--format", "out.format", "json"),
    ("--mc-samples", "mc.samples", "1234"),
    ("--snapshots", "sim.snapshots", "321"),
    ("--nu-step-hz", "grid.nu_step_hz", "1234.5"),
    ("--tau-step-s", "grid.tau_step_s", "3.5e-05"),
])
def test_flag_lands_in_the_config_line(tmp_path, monkeypatch, flag, key, value):
    monkeypatch.chdir(tmp_path)
    argv = ["coverage", flag, value] + (["--out", "o"] if flag != "--out" else [])
    assert main(argv) == 0
    out = Path(value if flag == "--out" else "o")
    if flag == "--format":
        config = json.loads((out / "coverage.json").read_text())["config"]
    else:
        line = (out / "coverage.csv").read_text().splitlines()[0]
        config = dict(item.split("=", 1) for item in line[2:].split(" "))
    assert config[key] == value


class TestExitCodes:
    def test_config_error_is_2(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("nope.key = 1\n")
        assert main(["coverage", "--config", str(p),
                     "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("flags", [["--lat-deg", "100"],
                                       ["--min-elev-deg", "95"]])
    def test_out_of_domain_flag_is_2(self, tmp_path, capsys, flags):
        assert main(["distributions", "--out", str(tmp_path / "o")]
                    + flags) == 2
        assert capsys.readouterr().err.startswith("config error:")

    @pytest.mark.parametrize("line", ["shell.inclination_deg = 95",
                                      "sweep.lat_step_deg = 0",
                                      "sweep.lat_step_deg = -1"])
    def test_out_of_domain_key_is_2(self, tmp_path, capsys, line):
        p = tmp_path / "bad.cfg"
        p.write_text(line + "\n")
        assert main(["coverage", "--config", str(p),
                     "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith("config error:")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("argv,line", [
        (["scattering", "--tau-step-s", "nan"], None),
        (["scattering", "--nu-step-hz", "nan"], None),
        (["scattering", "--tau-step-s", "inf"], None),
        (["coverage"], "sweep.lat_step_deg = nan"),
        (["distributions"], "grid.doppler_nu_step_hz = nan"),
        (["validate"] + FAST, "sim.snapshot_spacing_s = nan"),
        (["validate", "--seed", "-1"] + FAST, None),
        (["coverage"], "shell.altitude_m = nan"),
        (["coverage"], "shell.altitude_m = inf"),
        (["coverage", "--format", "xml"], None),
        (["coverage"], "shell.n_sats = -5"),
        (["coverage"], "shell.n_per_orbit = 0"),
    ], ids=["tau_step_nan", "nu_step_nan", "tau_step_inf", "lat_step_nan",
            "doppler_step_nan", "snapshot_spacing_nan", "seed_negative",
            "altitude_nan", "altitude_inf", "format_xml", "n_sats_negative",
            "n_per_orbit_zero"])
    def test_bad_setting_is_2(self, tmp_path, capsys, argv, line):
        # a value that is not finite, a negative seed, an unknown format or
        # a satellite count below 1 is rejected before any work
        if line is not None:
            p = tmp_path / "bad.cfg"
            p.write_text(line + "\n")
            argv = argv + ["--config", str(p)]
        assert main(argv + ["--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith("config error:")
        assert not (tmp_path / "o").exists()


# the configuration line of `coverage` at default settings; perfbench/checks.py
# parses these keys and renderings from every artifact
DEFAULT_HEADER = (
    "# grid.cdf_points=200 grid.doppler_nu_step_hz=2650 grid.nu_step_hz=2610 "
    "grid.tau_step_s=2.8e-05 mc.empirical=false mc.samples=200000 mc.seed=1 "
    "out.dir={out} out.format={fmt} shell.altitude_m=550000 "
    "shell.carrier_hz=12700000000 shell.earth_radius_m=6371000 "
    "shell.inclination_deg=53 shell.n_per_orbit=22 shell.n_sats=3168 "
    "shell.orbit_spacing_deg=2.5 shell.sat_speed_mps=7290 "
    "sim.inter_orbit_phase_deg=0 sim.snapshot_spacing_s=1 sim.snapshots=20000 "
    "sweep.lat_start_deg=0 sweep.lat_step_deg=1 sweep.lat_stop_deg=90 "
    "sweep.min_elev_deg=30,10 user.lat_deg=0 user.min_elev_deg=30")


def test_default_header_is_pinned(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["coverage", "--out", "c"]) == 0
    assert main(["coverage", "--out", "j", "--format", "json"]) == 0
    line = (tmp_path / "c" / "coverage.csv").read_text().splitlines()[0]
    assert line == DEFAULT_HEADER.format(out="c", fmt="csv")
    config = json.loads((tmp_path / "j" / "coverage.json").read_text())["config"]
    pairs = DEFAULT_HEADER.format(out="j", fmt="json")[2:].split(" ")
    assert config == dict(item.split("=", 1) for item in pairs)


def test_registry_names_match_the_benchmark():
    # the benchmark marks every validate run incorrect when a check name
    # it expects is missing; its list is read without importing its module
    path = Path(__file__).resolve().parents[1] / "perfbench" / "checks.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    expected = next(ast.literal_eval(node.value) for node in tree.body
                    if isinstance(node, ast.Assign)
                    and [getattr(t, "id", None) for t in node.targets] == ["VALIDATE_CHECKS"])
    assert [name for name, _, _ in checks.REGISTRY] == list(expected)


def test_cli_imports_without_scipy():
    # SciPy is a test dependency only
    code = ("import sys, leo_channel.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env)
    assert out.stdout.strip() == "[]"


def test_config_keys_doc_matches_the_code():
    # docs/config-keys.txt lists every key with RunConfig's default, and
    # the flags every subcommand takes
    text = (Path(__file__).resolve().parents[1] / "docs" / "config-keys.txt"
            ).read_text(encoding="utf-8")
    rows = [line.split() for line in text.splitlines()
            if line.split() and line.split()[0] in CONFIG_KEYS]
    assert sorted(r[0] for r in rows) == sorted(CONFIG_KEYS)
    defaults = RunConfig()
    for row in rows:
        name, parse = CONFIG_KEYS[row[0]]
        default = row[3] if row[2] == "list" else row[2]
        assert parse(default) == getattr(defaults, name), row[0]
    sub = next(a for a in _build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    for parser in sub.choices.values():
        flags = {s for a in parser._actions for s in a.option_strings
                 if s.startswith("--")} - {"--config", "--help"}
        assert flags == set(re.findall(r"--[a-z-]+", text[:text.index("\nkey ")]))
