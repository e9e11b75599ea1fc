#!/usr/bin/env python3
"""Run one workload of the repository's benchmark and print its result.

    python3 perfbench/run.py --workload serve-attack --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --all --seconds 2      # every workload, both modes, as a table

Run from the root of a checkout.  The benchmark program is built from
source with dune (perfbench/ is a dune project of its own that links the
repository's libraries), each workload runs in its own process, and the
last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  With --trace 0 the metrics
are the end-to-end ones; with --trace 1 they are the per-layer ones.
Human-readable progress goes to standard error.  See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ["serve-attack", "serve-obs", "alloc-mesh", "replicate"]
EXE = os.path.join("_build", "default", "perfbench", "bench.exe")
OUT_DIR = os.path.join("perfbench", "_out")
BUILD_TIMEOUT = 850
RUN_TIMEOUT = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def run_child(cmd, timeout, env=None):
    """Run [cmd] to completion; kill it (and wait) if it overruns."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise
    return proc.returncode, out


def build():
    dune = shutil.which("dune")
    cmd = [dune] if dune else ["opam", "exec", "--", "dune"]
    env = dict(os.environ, DUNE_CACHE="disabled")
    # --root . : the checkout is the workspace, whatever lies above it.
    code, _ = run_child(cmd + ["build", "--root", ".", "./perfbench/bench.exe"],
                        BUILD_TIMEOUT, env=env)
    if code != 0 or not os.path.exists(EXE):
        log("perfbench: build failed")
        sys.exit(1)


def bench(workload, seed, seconds, trace, trace_file=None):
    cmd = [EXE, "--workload", workload, "--seed", str(seed),
           "--seconds", repr(float(seconds)), "--trace", str(trace)]
    if trace_file:
        cmd += ["--trace-file", trace_file]
    code, out = run_child(cmd, RUN_TIMEOUT)
    lines = out.strip().splitlines()
    if code != 0 or not lines:
        log("perfbench: %s exited with %d" % (workload, code))
        sys.exit(1)
    return json.loads(lines[-1])


def environment():
    env = {"nproc": os.cpu_count()}
    try:
        env["ocaml"] = subprocess.run(["ocamlfind", "ocamlopt", "-version"],
                                      capture_output=True, text=True,
                                      timeout=30).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        env["ocaml"] = "unknown"
    env["commit"] = "unknown"
    if os.path.isdir(".git"):
        try:
            env["commit"] = subprocess.run(["git", "rev-parse", "HEAD"],
                                           capture_output=True, text=True,
                                           timeout=30).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    # A checkout without git metadata is identified by its library sources.
    digest = hashlib.sha1()
    for root, dirs, files in os.walk("lib"):
        dirs.sort()
        for name in sorted(files):
            with open(os.path.join(root, name), "rb") as f:
                digest.update(name.encode() + f.read())
    env["lib_sha1"] = digest.hexdigest()
    return env


def measure(workload, seed, seconds, trace):
    """One benchmark run: the result object printed as the last line."""
    if not trace:
        r = bench(workload, seed, seconds, 0)
        return {k: r[k] for k in ("correct", "attempted", "failed", "metrics")}, [r]
    # Traced: an untraced run and a traced run of equal length give the
    # tracing overhead; serve-obs adds an untraced serve-attack run, whose
    # mean handle time is the base of obs's own cost.
    os.makedirs(OUT_DIR, exist_ok=True)
    spans = os.path.join(OUT_DIR, "spans-%s-%d.jsonl" % (workload, seed))
    share = seconds / (3.0 if workload == "serve-obs" else 2.0)
    plain = bench(workload, seed, share, 0)
    traced = bench(workload, seed, share, 1, trace_file=spans)
    runs = [plain, traced]
    metrics = dict(traced["metrics"])
    tp_plain = plain["extra"]["throughput"]
    tp_traced = traced["extra"]["throughput"]
    metrics["trace.overhead_pct"] = {
        "value": 100.0 * (tp_plain / tp_traced - 1.0), "unit": "%"}
    overhead = 0.0
    if workload == "serve-obs":
        base = bench("serve-attack", seed, share, 0)
        runs.append(base)
        overhead = (plain["extra"]["handle_ns_mean"]
                    - base["extra"]["handle_ns_mean"])
    metrics["obs.handle_overhead_ns"] = {"value": overhead, "unit": "ns"}
    result = {
        "correct": all(r["correct"] for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": metrics,
    }
    return result, runs


def record(workload, seed, trace, result, runs, env):
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, "result-%s-%d-%d.json" % (workload, seed, trace))
    with open(path, "w") as f:
        json.dump({"workload": workload, "seed": seed, "trace": trace,
                   "env": env, "result": result,
                   "runs": [{k: r[k] for k in ("counts", "extra", "env")}
                            for r in runs]}, f, indent=1)


def report(seeds, seconds):
    """--all: every workload, untraced and traced, as one table."""
    env = environment()
    log("nproc=%s ocaml=%s commit=%s lib_sha1=%s" % (
        env["nproc"], env["ocaml"], env["commit"], env["lib_sha1"]))
    verdicts = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            result, runs = measure(workload, seeds, seconds, trace)
            record(workload, seeds, trace, result, runs, env)
            verdicts.append((workload, trace, result))
            print("%s (trace %d): correct=%s attempted=%d failed=%d" % (
                workload, trace, result["correct"], result["attempted"],
                result["failed"]))
            if not trace:
                print("  %-28s %d" % ("latency samples",
                                      runs[0]["extra"]["latency_samples"]))
            for name, m in result["metrics"].items():
                print("  %-28s %16.6g %s" % (name, m["value"], m["unit"]))
    ok = all(r["correct"] for _, _, r in verdicts)
    print("verdict: %s" % ("every workload correct" if ok else "INCORRECT OUTPUT"))
    if not ok:
        sys.exit(1)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--all", action="store_true")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = p.parse_args()
    if not (a.all or a.workload):
        p.error("give --workload or --all")
    build()
    if a.all:
        report(a.seed, a.seconds)
        return
    result, runs = measure(a.workload, a.seed, a.seconds, a.trace)
    record(a.workload, a.seed, a.trace, result, runs, environment())
    print(json.dumps(result))


if __name__ == "__main__":
    main()
