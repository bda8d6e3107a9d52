#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Run from the repository root. The first form builds `perfbench` (release,
offline) and runs one workload; the last line of its output is one JSON
object with `correct`, `attempted`, `failed` and `metrics`. A traced run
(`--trace 1`) also writes its spans to `perfbench/out/`.

`--selftest` runs every workload at a tiny size, traced and untraced, and
checks that all outputs pass, that every metric named in BENCHMARK.json
appears with its unit, and that the layer counters of the deterministic
workloads repeat exactly for a given seed.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175
DETERMINISTIC = ("pingpong", "stream", "stream_lossy")


def build():
    """Build the benchmark binary; return its path, or None on failure."""
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        return None
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    exe = os.path.join(os.path.abspath(target), "release", "perfbench")
    return exe if os.path.isfile(exe) else None


def run(exe, args):
    """Run the binary to completion; return (exit code, stdout)."""
    proc = subprocess.Popen([exe] + args, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return 124, ""
    return proc.returncode, out


def counts_line(out):
    return next((l for l in out.splitlines() if l.startswith("# counts per round:")), None)


def selftest(exe):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    problems = []
    for w in bench["workloads"]:
        name = w["name"]
        before = len(problems)
        seen_counts = []
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            code, out = run(exe, ["--workload", name, "--seed", "7", "--seconds", "0",
                                  "--trace", trace, "--tiny"])
            lines = out.strip().splitlines()
            if code != 0 or not lines:
                problems.append(f"{name} trace={trace}: exit {code}")
                continue
            res = json.loads(lines[-1])
            if not res["correct"] or res["failed"] != 0 or res["attempted"] < 1:
                problems.append(f"{name} trace={trace}: outputs failed: {res}")
            want = {m["name"]: m["unit"] for m in bench[key]}
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if got != want:
                problems.append(f"{name} trace={trace}: metrics {sorted(set(got) ^ set(want))} "
                                f"or units differ from BENCHMARK.json")
            seen_counts.append(counts_line(out))
        if name in DETERMINISTIC and (None in seen_counts or len(set(seen_counts)) != 1):
            problems.append(f"{name}: layer counters differ between runs of one seed")
        print(f"selftest {name}: {'ok' if len(problems) == before else 'FAILED'}")
    for p in problems:
        print(f"selftest: {p}")
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", default="1")
    ap.add_argument("--seconds", default="10")
    ap.add_argument("--trace", default="0", choices=["0", "1"])
    ap.add_argument("--selftest", action="store_true")
    a = ap.parse_args()
    exe = build()
    if exe is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    if a.selftest:
        return selftest(exe)
    if not a.workload:
        ap.error("--workload is required")
    args = ["--workload", a.workload, "--seed", a.seed, "--seconds", a.seconds,
            "--trace", a.trace]
    if a.trace == "1":
        out_dir = os.path.join(HERE, "out")
        os.makedirs(out_dir, exist_ok=True)
        args += ["--spans", os.path.join(out_dir, f"spans-{a.workload}-seed{a.seed}.csv")]
    code, out = run(exe, args)
    sys.stdout.write(out)
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
