"""leo-channel benchmark: one client running CLI commands in a closed loop.

Usage, from the root of a checkout of the repository:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each pass is a fresh interpreter (one_pass.py) that runs the workload's
commands one after another. Untraced passes repeat until the next one
would end after S seconds (at least one runs); with --trace 1 time for one
traced pass is kept back. The outputs of the first pass are checked against references
computed without the program (checks.py), and every later pass, traced or
not, must rewrite the same bytes. Each command in a pass is one operation;
a non-zero exit, an exception, a failed check or changed bytes fail it.

The last line of standard output is one JSON object: with --trace 0 the
end-to-end metrics (medians over the untraced passes), with --trace 1 the
per-layer metrics of one extra traced pass.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import checks
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
MIN_SETUPS = 3          # set-up samples per run, topped up by set-up-only passes
RUN_LIMIT_S = 175.0     # a run must end within 180 s; a pass is killed past this


def parse_args():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args()


class Runner:
    def __init__(self, root: Path, workload: str, seed: int):
        self.root = root
        self.workload = WORKLOADS[workload]
        self.seed = seed
        self.work = HERE / "out" / workload
        self.work.mkdir(parents=True, exist_ok=True)
        self.out_root = self.work.relative_to(root)
        # the run may use the cores of its affinity set, not the host's
        self.threads = len(os.sched_getaffinity(0))
        self.deadline = time.monotonic() + RUN_LIMIT_S
        src = str(root / "src")
        pythonpath = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ,
                        LEO_CHANNEL_THREADS=str(self.threads),
                        PYTHONPATH=src + (os.pathsep + pythonpath if pythonpath else ""))

    def launch(self, trace=False, setup_only=False):
        """Run one pass; returns its result dict with the set-up time and
        the pass's duration added."""
        result_file = self.work / "pass.json"
        result_file.unlink(missing_ok=True)
        cmd = [sys.executable, str(HERE / "one_pass.py"),
               "--workload", self.workload.name, "--seed", str(self.seed),
               "--out-root", str(self.out_root), "--result", str(result_file)]
        cmd += ["--trace"] * trace + ["--setup-only"] * setup_only
        start = time.monotonic()
        proc = subprocess.run(cmd, cwd=self.root, env=self.env,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, timeout=max(1.0, self.deadline - start))
        end = time.monotonic()
        if proc.returncode != 0 or not result_file.exists():
            raise RuntimeError(f"pass process failed ({proc.returncode}):\n"
                               f"{proc.stderr[-4000:]}")
        res = json.loads(result_file.read_text())
        res["setup_s"] = res["setup_done"] - start
        res["duration_s"] = end - start
        return res

    def digest(self, op):
        """sha256 of every file an operation wrote, by relative path."""
        out = self.work / op.name
        return {str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
                for p in sorted(out.rglob("*")) if p.is_file()}

    def check(self, op):
        out = self.work / op.name
        fn = checks.CHECKS[op.command]
        try:
            if op.command == "coverage":
                return fn(out, np.random.default_rng(self.seed))
            return fn(out)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            return [f"{op.name}: unreadable output ({exc!r})"]


def main() -> int:
    args = parse_args()
    root = Path.cwd().resolve()
    if not (root / "src" / "leo_channel" / "cli.py").is_file():
        print("error: run from the root of a leo-channel checkout "
              "(src/leo_channel not found)", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    run = Runner(root, args.workload, args.seed)
    print(f"workload {args.workload} seed {args.seed} threads {run.threads} "
          f"(LEO_CHANNEL_THREADS)")

    attempted = failed = 0
    correct = True
    reference = {}      # op name -> digest of the first successful pass
    verdicts = {}       # op name -> check failures on those bytes

    def account(res, label):
        nonlocal attempted, failed, correct
        for op, rec in zip(run.workload.ops, res["ops"]):
            attempted += 1
            problems = []
            if rec["error"] or rec["exit"] != 0:
                problems.append(f"exit {rec['exit']}"
                                + (f"\n{rec['error']}" if rec["error"] else ""))
            else:
                digest = run.digest(op)
                if op.name not in reference:
                    reference[op.name] = digest
                    verdicts[op.name] = run.check(op)
                    problems += verdicts[op.name]
                elif digest != reference[op.name]:
                    problems.append("output bytes differ from the previous pass")
                else:
                    problems += verdicts[op.name]
                correct = correct and not problems
            if problems:
                failed += 1
            status = "FAIL " + "; ".join(problems) if problems else "ok"
            print(f"  {label} {op.name}: {rec['seconds']:.3f} s {status}")

    start = time.monotonic()
    passes, setups = [], []
    while True:
        res = run.launch()
        account(res, f"pass {len(passes) + 1}")
        passes.append(res)
        setups.append(res["setup_s"])
        print(f"pass {len(passes)}: wall {res['wall_s']:.3f} s, cpu "
              f"{res['cpu_s']:.3f} s, rss {res['peak_rss_mb']:.1f} MB, "
              f"setup {res['setup_s']:.3f} s")
        longest = max(p["duration_s"] for p in passes)
        reserve = 1.5 * longest if args.trace else 0.0
        elapsed = time.monotonic() - start
        if elapsed + longest + reserve > args.seconds:
            break

    median = lambda key: statistics.median(p[key] for p in passes)
    if args.trace:
        traced = run.launch(trace=True)
        account(traced, "traced")
        metrics = dict(traced["layers"])
        metrics["trace.overhead_s"] = traced["wall_s"] - median("wall_s")
        declared = spec["per_layer"]
    else:
        while len(setups) < MIN_SETUPS:
            setups.append(run.launch(setup_only=True)["setup_s"])
        metrics = {"wall_s": median("wall_s"), "cpu_s": median("cpu_s"),
                   "peak_rss_mb": median("peak_rss_mb"),
                   "setup_s": statistics.median(setups)}
        declared = spec["end_to_end"]
    if set(metrics) != {m["name"] for m in declared}:
        raise RuntimeError("computed metrics do not match BENCHMARK.json: "
                           f"{sorted(set(metrics) ^ {m['name'] for m in declared})}")
    print(f"{len(passes)} untraced passes, set-up samples "
          + ", ".join(f"{s:.3f}" for s in setups))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {m["name"]: {"value": float(metrics[m["name"]]), "unit": m["unit"]}
                    for m in declared},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
