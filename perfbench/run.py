#!/usr/bin/env python3
"""The qpwm benchmark: build, run one workload in a fresh process, report.

Run from the root of the repository:

    python3 perfbench/run.py --workload owner-fo --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10
    python3 perfbench/run.py --self-test

The program is built from source (dune, release profile) and
perfbench/bench.exe runs the workload.  Lines starting with "#" are the
human-readable report; the last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.  With
--trace 0 the metrics are the end-to-end metrics BENCHMARK.json lists,
with --trace 1 the per-layer ones.  Any build failure, crash or missing
metric exits non-zero without printing a result.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "_out")
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "bench.exe")
WORKLOADS = ["owner-fo", "owner-index", "serve-mixed"]
PROCESS_LIMIT_S = 170

# The end-to-end figures reported beyond the gated ones BENCHMARK.json
# lists: CPU and wall-clock seconds on every workload, plus the figures
# only one workload has.  They are printed, not gated.
REPORTED_ALL = ["calibration_s", "pass_cpu_s", "prepare_cpu_s", "detect_cpu_s",
                "setup_wall_s", "pass_s", "prepare_s", "detect_s"]
REPORTED = {
    "owner-fo": ["xml_prepare_s"],
    "owner-index": ["update_s", "copies_per_s", "trace_s"],
    "serve-mixed": ["throughput_rps", "read_p50_ms", "read_p99_ms",
                    "write_p50_ms", "write_p99_ms"],
}


class BenchError(Exception):
    pass


def say(msg):
    print("# " + msg, flush=True)


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    dune = shutil.which("dune")
    if dune is None:
        raise BenchError("dune not found on PATH")
    # no shared build cache: everything the build writes stays in _build
    cmd = [dune, "build", "--root", ROOT, "--profile", "release",
           "--cache=disabled", "./perfbench/bench.exe"]
    p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                       stderr=subprocess.STDOUT, text=True, timeout=900)
    if p.returncode != 0 or not os.path.exists(EXE):
        sys.stderr.write(p.stdout)
        raise BenchError("build failed")


def source_digest():
    """sha1 over the library and benchmark sources: identifies the code
    measured when the checkout carries no git metadata."""
    h = hashlib.sha1()
    for top in ("lib", "perfbench"):
        for d, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs[:] = sorted(x for x in dirs if not x.startswith("_"))
            for name in sorted(files):
                if name.endswith((".ml", ".mli", "dune", ".py")):
                    path = os.path.join(d, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return h.hexdigest()[:12]


def commit():
    """The git commit of the checkout, or "none" outside a git work tree."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "none"
    try:
        p = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                           stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                           text=True, timeout=10)
        return p.stdout.strip() or "none"
    except (OSError, subprocess.SubprocessError):
        return "none"


def run_workload(workload, seed, seconds, trace, extra=(), echo=True,
                 deadline=None):
    """One workload in a fresh process; returns its parsed result."""
    os.makedirs(OUT, exist_ok=True)
    cmd = [EXE, "--workload", workload, "--seed", str(seed),
           "--seconds", "%g" % seconds, "--trace", "1" if trace else "0",
           "--out-dir", OUT, *extra]
    timeout = PROCESS_LIMIT_S if deadline is None else max(1, deadline - time.time())
    try:
        p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                           stderr=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError("%s: timed out" % workload)
    lines = p.stdout.splitlines()
    if p.returncode != 0 or not lines:
        sys.stderr.write(p.stderr)
        raise BenchError("%s: exited with %d" % (workload, p.returncode))
    if echo:
        for line in lines[:-1]:
            print(line, flush=True)
    try:
        return json.loads(lines[-1])
    except ValueError:
        raise BenchError("%s: no result line" % workload)


def select(result, names_units, where):
    """The metrics BENCHMARK.json names, checked for presence and unit."""
    out = {}
    for name, unit in names_units:
        m = result["metrics"].get(name)
        if m is None:
            raise BenchError("%s: metric %s missing" % (where, name))
        if m["unit"] != unit:
            raise BenchError("%s: metric %s has unit %s, expected %s"
                             % (where, name, m["unit"], unit))
        out[name] = {"value": m["value"], "unit": unit}
    return out


def main_run(args):
    sp = spec()
    key = "per_layer" if args.trace else "end_to_end"
    names_units = [(m["name"], m["unit"]) for m in sp[key]]
    build()
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    for w in workloads:
        if w not in WORKLOADS:
            raise BenchError("unknown workload " + w)
    deadline = None if args.workload == "all" else time.time() + PROCESS_LIMIT_S
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in workloads:
        r = run_workload(w, args.seed, args.seconds, args.trace,
                         deadline=deadline)
        info = r.get("info", {})
        say("env workload=%s seed=%d nproc=%d jobs=%s pool_size=%s ocaml=%s "
            "profile=release commit=%s source=%s trace=%d"
            % (w, args.seed, os.cpu_count() or 0, info.get("jobs"),
               info.get("pool_size"), info.get("ocaml"), commit(),
               source_digest(), args.trace))
        metrics = select(r, names_units, w)
        combined["correct"] = combined["correct"] and bool(r["correct"])
        combined["attempted"] += int(r["attempted"])
        combined["failed"] += int(r["failed"])
        if len(workloads) == 1:
            combined["metrics"] = metrics
        else:
            for k, v in metrics.items():
                combined["metrics"][w + "/" + k] = v
    if combined["attempted"] < 1:
        raise BenchError("no operation attempted")
    print(json.dumps(combined), flush=True)


def self_test():
    """Reduced-size check of the benchmark itself."""
    sp = spec()
    build()
    problems = []
    e2e = [(m["name"], m["unit"]) for m in sp["end_to_end"]]
    layer = [(m["name"], m["unit"]) for m in sp["per_layer"]]
    small = ["--small"]
    for w in WORKLOADS:
        # every metric is printed, with its unit
        r = run_workload(w, 3, 1, False, small, echo=False)
        for name in ([n for n, _ in e2e] + REPORTED_ALL + REPORTED[w]
                     + ["fail_frac"]):
            m = r["metrics"].get(name)
            if m is None or not m.get("unit"):
                problems.append("%s: %s not printed with a unit" % (w, name))
        try:
            select(r, e2e, w)
        except BenchError as e:
            problems.append(str(e))
        if w != "serve-mixed" and r["failed"] != 0:
            problems.append("%s: %d failed operations" % (w, r["failed"]))
        if not r["correct"]:
            problems.append("%s: outputs not correct" % w)
        # the oracles are not vacuous
        bad = run_workload(w, 3, 1, False, small + ["--corrupt-oracle"], echo=False)
        if bad["failed"] <= r["failed"] or bad["correct"]:
            problems.append("%s: a wrong expected output went uncounted" % w)
        # two same-seed traced runs agree on the deterministic values
        t1 = run_workload(w, 4, 1, True, small, echo=False)
        t2 = run_workload(w, 4, 1, True, small, echo=False)
        try:
            select(t1, layer, w + " traced")
        except BenchError as e:
            problems.append(str(e))
        if t1["det"] != t2["det"]:
            problems.append("%s: deterministic values differ: %s vs %s"
                            % (w, t1["det"], t2["det"]))
        say("self-test %s: det %s" % (w, json.dumps(t1["det"], sort_keys=True)))
    for p in problems:
        say("PROBLEM: " + p)
    say("self-test %s" % ("passed" if not problems else "FAILED"))
    return 0 if not problems else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    try:
        if args.self_test:
            return self_test()
        if args.seconds is None:
            args.seconds = spec()["run_seconds"]
        main_run(args)
        return 0
    except (BenchError, OSError, ValueError, KeyError,
            subprocess.SubprocessError) as e:
        sys.stderr.write("perfbench: %s\n" % e)
        return 2


if __name__ == "__main__":
    sys.exit(main())
