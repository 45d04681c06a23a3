#!/usr/bin/env python3
"""Paper-scale benchmark of the qca adaptation stack.

    python3 perfbench/run.py --workload grid|deep|serve --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from the root of a qca checkout. It builds perfbench/bench.exe and
qca-serve from source with dune, runs one workload, checks that every
metric BENCHMARK.json names is present with its unit, and prints the
result as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The line before it, {"meta": ...}, records the core count, OCaml
version, commit (or a digest of the sources when there is no git
metadata), seed and items per run, so results taken on different
machines are never compared blindly.

One process measures the whole of --seconds and pools every item of
it: on a shared host the speed drifts by 10-20% over phases of 5-20
seconds, and one long run averages over several of them.

--smoke runs every workload on a few items in both modes and asserts
that each named metric prints with its unit and that the daemon boots
and drains; it exits 0 when all of that holds.
"""

import argparse
import hashlib
import json
import math
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TARGETS = ("perfbench/bench.exe", "bin/qca_serve_cli.exe")
BENCH_EXE = "_build/default/" + TARGETS[0]
SERVE_EXE = "_build/default/" + TARGETS[1]
WORK_DIR = ".perfbench"
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
WORKLOADS = ("grid", "deep", "serve")
DEFAULT_SEED = 1


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)


def build():
    for need in ("dune-project", "lib", "bin"):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail("%s is missing: run from the root of a qca checkout" % need)
    env = dict(os.environ)
    # keep every build product inside the checkout
    env["DUNE_CACHE"] = "disabled"
    cmd = ["dune", "build", "--root", "."] + ["./" + t for t in TARGETS]
    try:
        r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                           stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)
    if r.returncode != 0:
        fail("build failed (dune exit %d)" % r.returncode)


def run_bench(workload, seed, seconds, trace, smoke):
    cmd = ["./" + BENCH_EXE, "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--serve-bin", SERVE_EXE,
           "--work-dir", WORK_DIR]
    if smoke:
        cmd.append("--smoke")
    env = dict(os.environ)
    env.pop("QCA_TRACE", None)
    # own process group, so the daemons it starts are reaped with it
    p = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                         start_new_session=True, text=True)
    try:
        out, _ = p.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.wait()
        fail("%s run exceeded %d s" % (workload, RUN_TIMEOUT_S), 3)
    finally:
        try:
            os.killpg(p.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if p.returncode != 0:
        fail("bench.exe exited %d" % p.returncode, 3)
    lines = [l for l in out.splitlines() if l.startswith("{")]
    if len(lines) < 2:
        fail("bench.exe printed no result", 3)
    return json.loads(lines[-2])["meta"], json.loads(lines[-1])


def check_metrics(result, expected):
    """Every expected metric present once, with its unit, as a finite
    number; nothing else. Returns a list of problems."""
    problems = []
    got = result.get("metrics", {})
    for name, unit in expected.items():
        m = got.get(name)
        if m is None:
            problems.append("missing metric %s" % name)
        elif m.get("unit") != unit:
            problems.append("%s: unit %r, expected %r" % (name, m.get("unit"), unit))
        elif not isinstance(m.get("value"), (int, float)) or not math.isfinite(m["value"]):
            problems.append("%s: value %r is not a finite number" % (name, m.get("value")))
    for name in got:
        if name not in expected:
            problems.append("unexpected metric %s" % name)
    return problems


def provenance():
    head = None
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                           capture_output=True, text=True, timeout=10)
        if r.returncode == 0:
            head = r.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    h = hashlib.sha256()
    for top in ("lib", "bin", "perfbench"):
        for d, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for f in sorted(files):
                if f.endswith((".ml", ".mli")) or f in ("dune", "dune-project"):
                    p = os.path.join(d, f)
                    h.update(os.path.relpath(p, ROOT).encode())
                    with open(p, "rb") as fh:
                        h.update(fh.read())
    return {"commit": head, "source_sha256": h.hexdigest()[:16]}


def expected_metrics(spec, trace):
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    spec = load_spec()
    seed = args.seed if args.seed is not None else DEFAULT_SEED
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    if not args.smoke and args.workload is None:
        ap.error("--workload is required (or --smoke)")
    build()
    if args.smoke:
        problems = []
        for w in WORKLOADS:
            for trace in (0, 1):
                meta, res = run_bench(w, seed, 1, trace, smoke=True)
                bad = check_metrics(res, expected_metrics(spec, trace))
                if not res.get("correct") or res.get("failed") != 0:
                    bad.append("output gate failed (%s failed of %s)"
                               % (res.get("failed"), res.get("attempted")))
                for b in bad:
                    problems.append("%s trace=%d: %s" % (w, trace, b))
                print("smoke %-5s trace=%d: %d items, %s" % (
                    w, trace, res.get("attempted", 0), "ok" if not bad else "FAILED"))
        for p in problems:
            print("perfbench: " + p, file=sys.stderr)
        sys.exit(1 if problems else 0)
    meta, res = run_bench(args.workload, seed, seconds, args.trace, smoke=False)
    problems = check_metrics(res, expected_metrics(spec, args.trace))
    for p in problems:
        print("perfbench: " + p, file=sys.stderr)
    meta.update(provenance())
    print(json.dumps({"meta": meta}))
    out = {
        "correct": bool(res.get("correct")) and not problems,
        "attempted": int(res["attempted"]),
        "failed": int(res["failed"]),
        "metrics": res["metrics"],
    }
    print(json.dumps(out))


if __name__ == "__main__":
    main()
