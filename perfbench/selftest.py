#!/usr/bin/env python3
"""Tests of the benchmark's own checks. Run from the repository root:

    python3 perfbench/selftest.py

1. run.py's metric tables match BENCHMARK.json, names and units.
2. A tiny-size run of each workload, untraced and traced, passes its
   checks and prints every metric BENCHMARK.json names, with its unit.
3. A flow that cannot complete is reported as a failed operation.
4. A corrupted output digest is reported as a failed operation.

Exits 0 when every test passes.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402

failures = []


def expect(cond, what):
    print(("ok   " if cond else "FAIL ") + what)
    if not cond:
        failures.append(what)


def bench(*args):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--size", "tiny", "--seconds", "1", *args]
    r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    lines = r.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if r.returncode == 0 and lines else None
    return result, r.stdout


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    expect(e2e == run.END_TO_END, "run.py end-to-end metrics match BENCHMARK.json")
    expect(layers == run.PER_LAYER, "run.py per-layer metrics match BENCHMARK.json")
    expect([w["name"] for w in spec["workloads"]] == list(run.WORKLOADS),
           "run.py workloads match BENCHMARK.json")

    for w in run.WORKLOADS:
        for trace, wanted in (("0", e2e), ("1", layers)):
            result, out = bench("--workload", w, "--trace", trace)
            tag = f"{w} --trace {trace}"
            expect(result is not None, f"{tag}: ends with a JSON result")
            if result is None:
                continue
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                   f"{tag}: every repeat passes its checks")
            got = {k: m["unit"] for k, m in result["metrics"].items()}
            expect(got == wanted, f"{tag}: reports exactly the metrics of BENCHMARK.json")
            expect(all(f"{k} = " in out and out.count(f" {u}\n") > 0 for k, u in wanted.items()),
                   f"{tag}: prints every metric by name with its unit")

    result, _ = bench("--workload", "bfc-incast", "--inject", "incomplete")
    expect(result is not None and not result["correct"] and result["failed"] == result["attempted"],
           "an incomplete flow fails every repeat")

    result, _ = bench("--workload", "hpcc-incast", "--corrupt-digest")
    expect(result is not None and not result["correct"] and result["failed"] == 1,
           "a corrupted digest fails its repeat")

    if failures:
        print(f"{len(failures)} selftest(s) failed")
        return 1
    print("all selftests passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
