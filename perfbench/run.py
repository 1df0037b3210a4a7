#!/usr/bin/env python3
"""The DisCFS benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload admit|walk|mixed --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout. It builds
perfbench/discfs_bench.exe with dune, runs it, and prints every metric
by name and unit, then, as its last line, one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
The metric names come from BENCHMARK.json: its end_to_end list with
--trace 0, its per_layer list with --trace 1.

--trace 0 runs the workload in three processes, each of which sets up
and then measures for S/3 wall seconds. ops_per_s is the ops all three
completed over their summed timed wall time; every other wall-clock
metric (setup_s included) is the median of the three. On a shared
machine the CPU's speed can swing by about 30 % for seconds to
minutes (NOTES.md), so three processes spread over the run sample it
three times. Their virtual metrics and counts
must be byte-identical.

--trace 1 runs the virtual window twice, untraced and then traced
(benchmark spans and layer probes), and refuses the run unless both
print byte-identical virtual metrics and counts. ops_per_s is the
untraced window's; trace.overhead_ratio is the traced/untraced wall
ratio of the window.

A failed output check, a determinism mismatch or a failed build exits
non-zero without printing a result.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "discfs_bench.exe")
PROCESSES = 3  # --trace 0: wall-clock metrics are medians over this many
BUILD_TIMEOUT = 850
RUN_BUDGET = 175  # seconds for everything after the build


def die(msg, code=1):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    """Build the executable from the checkout's sources. Dune's shared
    cache is off and the compiler's temporary files go to .bench_tmp,
    so nothing is written outside the checkout."""
    for need in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(os.path.join(ROOT, need)):
            die(f"{need} is missing: run from the root of a DisCFS source checkout", 2)
    tmp = os.path.join(ROOT, ".bench_tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, DUNE_CACHE="disabled", TMPDIR=tmp)
    try:
        proc = subprocess.run(
            ["dune", "build", "--root", ROOT, "--cache", "disabled", "--display", "quiet",
             "-j", "2", "perfbench/discfs_bench.exe"],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, timeout=BUILD_TIMEOUT)
    except (OSError, subprocess.TimeoutExpired) as e:
        die(f"build failed: {e}")
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        die("build failed")


class Output:
    """Parsed stdout of one discfs_bench process."""

    def __init__(self, text):
        self.metrics = {}  # name -> (value text, unit, class)
        self.info = {}
        for line in text.splitlines():
            parts = line.split("\t")
            if parts[0] == "metric" and len(parts) == 5:
                self.metrics[parts[1]] = (parts[2], parts[3], parts[4])
            elif parts[0] == "info" and len(parts) == 3:
                self.info[parts[1]] = parts[2]

    def value(self, name):
        return float(self.metrics[name][0])

    def virtual(self):
        return {k: v for k, v in self.metrics.items() if v[2] == "virtual"}


def same_virtual(outs, what):
    """Refuse the run unless every output has the first one's virtual
    metrics, byte for byte."""
    first = outs[0].virtual()
    bad = sorted(k for o in outs[1:] for k, v in first.items() if o.virtual().get(k) != v)
    if bad:
        die(f"{what} disagree on " + ", ".join(sorted(set(bad))))
    return len(first)


def run_exe(args, deadline):
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        die("out of time")
    try:
        proc = subprocess.run([EXE] + args, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True, timeout=remaining)
    except subprocess.TimeoutExpired:
        die(f"discfs_bench {' '.join(args)} did not finish in time")
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        die(f"discfs_bench {' '.join(args)} exited {proc.returncode}")
    return Output(proc.stdout)


def metric_names(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [(m["name"], m["unit"]) for m in spec[kind]]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["admit", "walk", "mixed"])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    a = ap.parse_args()

    build()
    deadline = time.monotonic() + RUN_BUDGET
    base = ["--workload", a.workload, "--seed", str(a.seed)]

    if a.trace == 0:
        seconds = str(a.seconds / PROCESSES)
        outs = [run_exe(base + ["--seconds", seconds, "--trace", "0"], deadline)
                for _ in range(PROCESSES)]
        checked = same_virtual(outs, "processes with one seed")
        out = outs[0]
        values = {n: statistics.median(o.value(n) for o in outs) for n in out.metrics}
        attempted = sum(int(o.info["attempted"]) for o in outs)
        values["ops_per_s"] = attempted / sum(o.value("timed_wall_s") for o in outs)
        names = metric_names("end_to_end")
        extra = {f"{n}.samples": ", ".join(o.metrics[n][0] for o in outs)
                 for n, (_, _, cls) in out.metrics.items() if cls == "wall"}
        failed = sum(int(o.info["failed"]) for o in outs)
    else:
        plain = run_exe(base + ["--seconds", str(a.seconds), "--trace", "0", "--window-only"],
                        deadline)
        out = run_exe(base + ["--seconds", str(a.seconds), "--trace", "1"], deadline)
        checked = same_virtual([plain, out], "traced and untraced runs")
        values = {n: out.value(n) for n in out.metrics}
        values["ops_per_s"] = plain.value("ops_per_s")
        values["trace.overhead_ratio"] = out.value("window_wall_s") / plain.value("window_wall_s")
        names = metric_names("per_layer")
        extra = {}
        attempted = int(out.info["attempted"])
        failed = int(out.info["failed"])
    extra["determinism"] = f"{checked} virtual metrics byte-identical across processes"

    missing = [n for n, _ in names if n not in values]
    if missing:
        die("metrics not reported: " + ", ".join(missing))

    for key, v in sorted({**out.info, **extra}.items()):
        print(f"# {key}: {v}")
    for name, (_, unit_, cls) in out.metrics.items():
        print(f"{name:34s} {values[name]:>16.6g} {unit_:6s} {cls}")
    if a.trace == 1:
        print(f"{'trace.overhead_ratio':34s} {values['trace.overhead_ratio']:>16.6g} ratio  wall")

    print(json.dumps({
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": values[n], "unit": u} for n, u in names},
    }))


if __name__ == "__main__":
    main()
