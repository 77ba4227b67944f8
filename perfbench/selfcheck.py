#!/usr/bin/env python3
"""Self-check of the benchmark harness against BENCHMARK.json.

    python3 perfbench/selfcheck.py

Copies the checkout (without build output or run state) into
.perfbench-selfcheck/, and there, with every HLSB_*/HLSBD_* variable
removed from the environment:

- runs every workload once briefly, untraced and traced, and asserts the
  result line's metric names and units are exactly BENCHMARK.json's;
- asserts no hlsbd daemon outlives a run;
- asserts an unknown workload is refused, and that a directory holding only
  BENCHMARK.json and the benchmark's paths exits non-zero without a result.

Exits 0 when every check holds.
"""

import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench-selfcheck")
SKIP = {"_build", ".git", ".perfbench-state", ".perfbench-out", ".perfbench-selfcheck",
        ".bench_build", ".hlsb"}


def clean_env():
    return {k: v for k, v in os.environ.items()
            if not k.startswith(("HLSB_", "HLSBD_"))}


def daemons_under(tree):
    """PIDs of live hlsbd processes whose working directory is in tree."""
    found = []
    for pid in filter(str.isdigit, os.listdir("/proc")):
        try:
            with open(f"/proc/{pid}/cmdline", "rb") as f:
                cmd = f.read().split(b"\0")
            cwd = os.readlink(f"/proc/{pid}/cwd")
        except OSError:
            continue
        if cmd and cmd[0].endswith(b"hlsbd.exe") and cwd.startswith(tree):
            found.append(int(pid))
    return found


def run(tree, *args, timeout=900):
    start = time.monotonic()
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=tree,
                          env=clean_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=timeout)
    return proc, time.monotonic() - start


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    expected = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    problems = []
    shutil.rmtree(WORK, ignore_errors=True)
    tree = os.path.join(WORK, "tree")
    shutil.copytree(ROOT, tree, ignore=lambda d, names: [n for n in names if n in SKIP])

    for w in bench["workloads"]:
        for trace in (0, 1):
            what = f"{w['name']} --trace {trace}"
            proc, secs = run(tree, "--workload", w["name"], "--seed", "1",
                             "--seconds", "2", "--trace", str(trace))
            if proc.returncode != 0:
                problems.append(f"{what}: exit {proc.returncode}: {proc.stderr[-500:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{what}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] != 0:
                problems.append(f"{what}: {result['failed']} failed ops")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != expected[trace]:
                problems.append(f"{what}: metrics differ from BENCHMARK.json: "
                                f"{sorted(set(got.items()) ^ set(expected[trace].items()))}")
            left = daemons_under(tree)
            if left:
                problems.append(f"{what}: hlsbd still running: {left}")
            print(f"{what}: ok in {secs:.0f} s", flush=True)

    proc, _ = run(tree, "--workload", "nosuch", "--seed", "1", "--seconds", "1",
                  "--trace", "0")
    if proc.returncode == 0:
        problems.append("an unknown workload was accepted")

    bare = os.path.join(WORK, "bare")
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for p in bench["paths"]:
        shutil.copytree(os.path.join(ROOT, p), os.path.join(bare, p),
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc, secs = run(bare, "--workload", bench["workloads"][0]["name"], "--seed", "1",
                     "--seconds", "1", "--trace", "0", timeout=180)
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append("a directory without the sources produced a result")
    print(f"bare directory: exit {proc.returncode} in {secs:.1f} s", flush=True)

    shutil.rmtree(WORK, ignore_errors=True)
    for p in problems:
        print("FAIL", p)
    print("selfcheck", "FAILED" if problems else "ok")
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
