"""One pass of a workload in a fresh interpreter.

Usage (from the checkout root, with src/ on PYTHONPATH):

    python3 perfbench/one_pass.py --workload NAME --seed N --out-root DIR \
        --result FILE [--trace] [--setup-only]

Set-up imports leo_channel.cli and builds the CapModel of each of the
workload's users with p_sat and nu_max_hz evaluated; the parent process
times it from its launch to the monotonic instant recorded here. The
commands then run in this process, one after another, through
leo_channel.cli.main. The result file holds the timings, the exit status
of each command and, with --trace, the per-layer metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import shutil
import time
import traceback
from pathlib import Path

from workloads import WORKLOADS


def peak_rss_mb() -> float:
    """High-water resident set of this process's own address space.

    ru_maxrss is not used: it also keeps the peak of the parent's address
    space the process was spawned from.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out-root", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    wl = WORKLOADS[args.workload]

    tracer = None
    from leo_channel import cli
    from leo_channel.config import load_config
    from leo_channel.visibility import CapModel
    if args.trace:
        import spans
        tracer = spans.Tracer()
        spans.install(tracer)

    def call(name, fn, *args):
        return tracer.span(name, fn, *args) if tracer else fn(*args)

    def setup():
        for lat, elev in wl.users:
            cfg = load_config(None, {"lat_deg": lat, "min_elev_deg": elev})
            shell = cfg.shell()
            CapModel(shell, cfg.user(shell)).nu_max_hz

    call("setup", setup)
    result = {"setup_done": time.monotonic(), "ops": []}

    if not args.setup_only:
        for op in wl.ops:
            shutil.rmtree(Path(args.out_root) / op.name, ignore_errors=True)
        ru0 = resource.getrusage(resource.RUSAGE_SELF)
        for op in wl.ops:
            argv = op.argv(args.seed, str(Path(args.out_root) / op.name))
            buf = io.StringIO()
            record = {"name": op.name, "exit": None, "error": None}
            start = time.monotonic()
            try:
                with contextlib.redirect_stdout(buf):
                    record["exit"] = call("cli." + op.command, cli.main, argv)
            except SystemExit as exc:
                record["exit"] = exc.code
            except Exception:
                record["error"] = traceback.format_exc()
            record["seconds"] = time.monotonic() - start
            record["stdout"] = buf.getvalue()
            result["ops"].append(record)
        ru1 = resource.getrusage(resource.RUSAGE_SELF)
        result["wall_s"] = sum(r["seconds"] for r in result["ops"])
        result["cpu_s"] = ((ru1.ru_utime + ru1.ru_stime)
                           - (ru0.ru_utime + ru0.ru_stime))
        result["peak_rss_mb"] = peak_rss_mb()
        if tracer:
            result["layers"] = spans.layer_metrics(tracer)
            (Path(args.out_root) / "spans.json").write_text(json.dumps(
                {"columns": ["id", "parent", "name", "thread", "start", "end"],
                 "spans": tracer.spans, "counts": tracer.counts}))
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
