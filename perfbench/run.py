#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

A run builds `perfbench` and the `pwrel-serve` binary in release mode
(into $CARGO_TARGET_DIR, default `.bench_build`), prints the host it ran
on, then runs one workload; the last line of output is the JSON result.
`--self-test` runs the benchmark's unit tests and a short pass of every
workload in both modes, checking each result against BENCHMARK.json.
Metrics and workloads are described in perfbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MANIFEST = os.path.join(ROOT, "perfbench", "Cargo.toml")


def cargo(*args):
    """Runs cargo on the benchmark package; its output goes to stderr."""
    cmd = ["cargo", *args, "--release", "--offline", "--manifest-path", MANIFEST]
    return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def target_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))


def build():
    """Builds the benchmark and, beside it, the server binary; returns
    the benchmark's path."""
    os.environ.setdefault("CARGO_TARGET_DIR", target_dir())
    if not cargo("build", "--quiet", "-p", "perfbench", "-p", "pwrel-serve", "--bins"):
        sys.exit("perfbench: build failed")
    return os.path.join(target_dir(), "release", "perfbench")


def bench(binary, workload, seed, seconds, trace, **kw):
    """Runs the benchmark binary from the repository root."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    return subprocess.run(cmd, cwd=ROOT, **kw)


def quiet(cmd):
    try:
        out = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
    except OSError:
        return None
    return out.stdout.strip() or None if out.returncode == 0 else None


def host_record(args):
    """What a result depends on besides the code: cores, CPU, caches, toolchain."""
    cpu = None
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((l.split(":", 1)[1].strip() for l in f if l.startswith("model name")), None)
    except OSError:
        pass
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for index in sorted(os.listdir(base)) if os.path.isdir(base) else []:
        try:
            read = lambda f: open(os.path.join(base, index, f)).read().strip()
            caches[f"L{read('level')}{read('type')[0].lower()}"] = read("size")
        except OSError:
            pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "caches": caches,
        "rustc": quiet(["rustc", "--version"]),
        "commit": quiet(["git", "rev-parse", "HEAD"]),
        "held_out_seed": args.held_out_seed,
        "run_seconds": args.seconds,
    }


def run(args, binary):
    print("host " + json.dumps(host_record(args)), flush=True)
    return bench(binary, args.workload, args.seed, args.seconds, args.trace).returncode


def declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def smoke(binary, workload, trace, want):
    """One-second run of `workload`; returns what is wrong with its result."""
    out = bench(binary, workload, 1, 1, trace, capture_output=True, text=True)
    if out.returncode != 0:
        return [f"exit {out.returncode}: {out.stderr.strip()[-300:]}"]
    result = json.loads(out.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if {k: v["unit"] for k, v in result["metrics"].items()} != want:
        problems.append("metrics differ from BENCHMARK.json")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"correct={result['correct']} failed={result['failed']}/{result['attempted']}")
    return problems


def self_test(binary):
    """Unit tests, then a one-second pass of each workload in both modes."""
    if not cargo("test", "--quiet", "-p", "perfbench"):
        return 1
    spec = declared()
    failures = []
    for w in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            tag = f"{w['name']} trace={trace}"
            problems = smoke(binary, w["name"], trace, {m["name"]: m["unit"] for m in spec[key]})
            print(f"smoke {tag}: {'; '.join(problems) or 'ok'}", flush=True)
            failures += [f"{tag}: {p}" for p in problems]
    env = dict(os.environ, PWREL_KERNEL="libm")
    refused = bench(binary, spec["workloads"][0]["name"], 1, 1, 0,
                    capture_output=True, text=True, env=env)
    if refused.returncode == 0 or refused.stdout.strip():
        failures.append("a run with PWREL_KERNEL set was not refused")
    for f in failures:
        print("FAIL " + f)
    print("self-test " + ("failed" if failures else "passed"))
    return 1 if failures else 0


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=(0, 1))
    p.add_argument("--held-out-seed", type=int,
                   help="seed kept out of tuning, for confirming a claimed gain")
    p.add_argument("--self-test", action="store_true")
    args = p.parse_args()
    if not args.self_test and None in (args.workload, args.seed, args.seconds, args.trace):
        p.error("--workload, --seed, --seconds and --trace are required")
    binary = build()
    sys.exit(self_test(binary) if args.self_test else run(args, binary))


if __name__ == "__main__":
    main()
