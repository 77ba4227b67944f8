#!/usr/bin/env python3
"""Build the tree from source and run one benchmark workload.

    python3 perfbench/run.py --workload table1 --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The program is built with dune, each run
gets a fresh state directory under .perfbench-state/ that every cache,
store, socket and ledger path points into, the job count is pinned to 1,
and the measurement itself is perfbench/bench.ml. The last line of standard
output is the result JSON; a traced run also writes its spans to
.perfbench-out/<workload>-<seed>.trace.json. Exit codes: 0 ok, 2 harness error, 3 build
failure, 4 timeout; no result line is printed unless the code is 0.
"""

import argparse
import ctypes
import json
import os
import shutil
import signal
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("table1", "scale", "explore", "serve")
BUILD_TIMEOUT_S = 700
# Past the measured window: set-up, post-window checks, daemon shutdown.
RUN_SLACK_S = 120
# Variables that could point state outside the run, or change how it
# behaves; the child gets its own values.
OWNED_PREFIXES = ("HLSB_", "HLSBD_", "OCAMLRUNPARAM", "XDG_CACHE_HOME")


def fail(code, msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    for needed in ("dune-project", "lib", "bin/hlsbd.ml", "examples/c"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail(2, f"{needed} is missing: run from a full checkout of the repository")
    if shutil.which("dune") is None:
        fail(3, "dune is not on PATH")
    try:
        # no shared dune cache: the build writes only inside the checkout
        proc = subprocess.run(
            ["dune", "build", "--root", ".", "./perfbench/bench.exe", "./bin/hlsbd.exe"],
            cwd=ROOT,
            env=dict(os.environ, DUNE_CACHE="disabled"),
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
            timeout=BUILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        fail(3, "build timed out")
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        fail(3, "build failed")


ADDR_NO_RANDOMIZE = 0x0040000


def steady_process():
    """Run the measurement (and the daemon it starts) on one CPU: the
    client and daemon of the serve loop never overlap anyway, and the
    speed reference then times the same CPU the ops run on. Also turn off
    address-space randomization: with it, the same binary lands in a fast
    or a slow memory layout from one process to the next."""
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.personality(ADDR_NO_RANDOMIZE)
    except (OSError, AttributeError):
        pass


def kill_group(pgid):
    """SIGKILL the process group and wait until none of it is left."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    for _ in range(500):
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail(2, "--seed must be >= 0 and --seconds > 0")

    build()
    rel_state = os.path.join(".perfbench-state", f"{args.workload}-{args.seed}-{os.getpid()}")
    state = os.path.join(ROOT, rel_state)
    shutil.rmtree(state, ignore_errors=True)
    os.makedirs(os.path.join(state, "cal"))
    env = {k: v for k, v in os.environ.items() if not k.startswith(OWNED_PREFIXES)}
    env.update(
        HLSB_JOBS="1",
        HLSB_CACHE_DIR=os.path.join(rel_state, "cal"),
        HLSBD_STORE=os.path.join(rel_state, "store"),
        HLSBD_SOCKET=os.path.join(rel_state, "d.sock"),
        HLSB_LEDGER=os.path.join(rel_state, "ledger.jsonl"),
    )
    cmd = [
        os.path.join("_build", "default", "perfbench", "bench.exe"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--state", rel_state,
        "--hlsbd", os.path.join("_build", "default", "bin", "hlsbd.exe"),
    ]
    if args.trace:
        os.makedirs(os.path.join(ROOT, ".perfbench-out"), exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            ".perfbench-out", f"{args.workload}-{args.seed}.trace.json")]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            start_new_session=True, text=True, preexec_fn=steady_process)

    def stop(signum, _frame):
        kill_group(proc.pid)
        proc.wait()
        shutil.rmtree(state, ignore_errors=True)
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        out, _ = proc.communicate(timeout=args.seconds + RUN_SLACK_S)
    except subprocess.TimeoutExpired:
        kill_group(proc.pid)
        proc.wait()
        shutil.rmtree(state, ignore_errors=True)
        fail(4, "run timed out")
    # the daemon is reaped by bench.exe; this only catches strays
    kill_group(proc.pid)
    shutil.rmtree(state, ignore_errors=True)
    if proc.returncode != 0:
        fail(2, f"bench.exe exited with {proc.returncode}")
    lines = out.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        fail(2, "bench.exe printed no result line")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(2, "malformed result line")
    sys.stdout.write("\n".join(lines[:-1]) + "\n" if len(lines) > 1 else "")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
