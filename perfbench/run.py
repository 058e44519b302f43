#!/usr/bin/env python3
"""Build and run the CSnake campaign benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload batch-metastore --seed 1 --seconds 20 --trace 0

The script builds the Go package in this directory (a module of its own
that imports the repository through a `replace ../` line) into the build
directory, keeping the Go build cache there too, then runs it. The last
line of standard output is the result JSON; its metric names must match
BENCHMARK.json, or the script exits with an error. Extra arguments after
`--` go to the Go program (for example `-- -campaign-seed 5` to confirm
a claim on a held-out seed, or `-- -record` to re-record references).
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


def build(build_dir):
    go = shutil.which("go")
    if go is None:
        sys.exit("perfbench: the go toolchain is not on PATH")
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build_dir, "gocache"),
        "GOPATH": os.path.join(build_dir, "gopath"),
        "GOMODCACHE": os.path.join(build_dir, "gopath", "mod"),
        "GOFLAGS": "-mod=mod",
        "GOPROXY": "off",
        "GOTOOLCHAIN": "local",
        "GOENV": "off",
        "GOTELEMETRY": "off",
        "CGO_ENABLED": "0",
    })
    binary = os.path.join(build_dir, "perfbench")
    proc = subprocess.run([go, "build", "-o", binary, "."], cwd=BENCH_DIR, env=env)
    if proc.returncode != 0:
        sys.exit("perfbench: build failed")
    return binary


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("extra", nargs="*", help="arguments for the Go program, after --")
    args = ap.parse_args()

    root = os.getcwd()
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    os.makedirs(build_dir, exist_ok=True)
    binary = build(build_dir)

    cmd = [binary,
           "-workload", args.workload,
           "-seed", str(args.seed),
           "-seconds", str(args.seconds),
           "-trace", str(args.trace),
           "-refs", os.path.join(BENCH_DIR, "references.json")]
    if args.trace == 1:
        spans = os.path.join(build_dir, "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["-spans", os.path.join(spans, "%s-seed%d.jsonl" % (args.workload, args.seed))]
    cmd += args.extra
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0:
        sys.stdout.write(proc.stdout)
        sys.exit(proc.returncode)
    if "-record" in args.extra:
        return

    result = json.loads(lines[-1])
    want = {m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    got = set(result["metrics"])
    if got != want:
        sys.exit("perfbench: metrics %s do not match BENCHMARK.json (missing %s, extra %s)"
                 % (sorted(got), sorted(want - got), sorted(got - want)))
    sys.stdout.write(proc.stdout)


if __name__ == "__main__":
    main()
