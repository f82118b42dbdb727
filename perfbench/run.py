#!/usr/bin/env python3
"""The repository benchmark: builds bfcbench, repeats one workload, checks it.

Run from the repository root:

    python3 perfbench/run.py --workload bfc-incast --seed 1 --seconds 30 --trace 0

Each repeat is a fresh bfcbench process (so every run starts on a fresh
heap) on the same workload and seed. Repeats continue while the next one
would end within --seconds. With --trace 0 the repeats are untraced:
wall_s is the fastest repeat, the other end-to-end metrics are medians. With --trace 1 untraced
and traced repeats alternate: the per-layer metrics are the medians of the
traced repeats, and trace.overhead_s is the fastest traced minus the
fastest untraced wall time.

Every repeat is checked: all injected flows completed, BFC dropped no data
packet, and the output digest and exact counters equal those of the first
repeat (traced and untraced alike). A repeat that fails a check counts as
a failed operation; the run keeps going. The last line of standard output
is one JSON object: correct, attempted, failed, metrics.

Test hooks (used by selftest.py): --size tiny, --inject incomplete,
--corrupt-digest.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "bfcbench.exe")
# runtime_events ring files go here, outside the source tree
RING_DIR = os.path.join(ROOT, "_build", "perfbench-rte")

WORKLOADS = ("bfc-incast", "hpcc-incast", "stream-churn")
DEFAULT_SEED = 1

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_heap_mb": "MB",
}

PER_LAYER = {
    "engine.events": "count",
    "engine.typed_events": "count",
    "engine.closure_events": "count",
    "engine.cancels": "count",
    "engine.queue_hwm": "count",
    "engine.run_s": "s",
    "engine.run_self_s": "s",
    "engine.ns_per_event": "ns",
    "net.tx_packets": "count",
    "net.tx_bytes": "bytes",
    "net.pool_allocated": "count",
    "net.pool_recycle_ratio": "ratio",
    "switch.classify_calls": "count",
    "switch.classify_ns": "ns",
    "switch.enqueue_ns": "ns",
    "switch.dequeue_ns": "ns",
    "switch.ctrl_calls": "count",
    "switch.ctrl_ns": "ns",
    "switch.hook_share": "ratio",
    "switch.pause_transitions": "count",
    "switch.drops": "count",
    "switch.pfc_pause_frac": "ratio",
    "transport.bytes_sent": "bytes",
    "transport.bytes_retx": "bytes",
    "transport.goodput_ratio": "ratio",
    "workload.generate_s": "s",
    "workload.flows": "count",
    "topology.build_s": "s",
    "runner.setup_s": "s",
    "runner.inject_s": "s",
    "metrics.observe_ns": "ns",
    "metrics.summary_s": "s",
    "gc.minor_words_per_event": "words/event",
    "gc.promoted_words_per_event": "words/event",
    "gc.minor_s": "s",
    "gc.major_s": "s",
    "gc.share": "ratio",
    "gc.minor_collections": "count",
    "gc.major_collections": "count",
    "gc.lost_events": "count",
    "trace.overhead_s": "s",
}

# Simulated outcomes printed with their sample counts on every run. They
# are exact for a seed (the digest covers them) but vary too much from
# seed to seed to carry a bound; see README.md.
OUTCOMES = {
    "short_p99_slowdown": "x",
    "long_avg_slowdown": "x",
    "buffer_p99_kb": "KB",
}

# Must be identical in every repeat of a run, traced or not.
EXACT = ("digest", "exact.engine.events", "exact.net.tx_packets", "exact.gc.minor_words")

# A run never starts a repeat after this many seconds, so it ends well
# within three minutes.
HARD_STOP_S = 140.0


def build():
    """Build bfcbench from the sources of this checkout; False on failure."""
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ROOT, "--display", "quiet", "./perfbench/bfcbench.exe"]
    try:
        r = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return False
    if r.returncode != 0 or not os.path.exists(EXE):
        print("perfbench: build failed:\n" + r.stdout + r.stderr, file=sys.stderr)
        return False
    return True


def repeat(args, traced):
    """One bfcbench process; returns its record, or None if it failed to run."""
    os.makedirs(RING_DIR, exist_ok=True)
    env = dict(os.environ, OCAML_RUNTIME_EVENTS_DIR=RING_DIR)
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--trace", "1" if traced else "0", "--size", args.size, "--inject", args.inject]
    try:
        r = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    except subprocess.TimeoutExpired:
        print("perfbench: repeat timed out", file=sys.stderr)
        return None
    if r.returncode != 0:
        print(f"perfbench: repeat exited {r.returncode}: {r.stderr.strip()}", file=sys.stderr)
        return None
    try:
        return json.loads(r.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        print("perfbench: unreadable repeat output", file=sys.stderr)
        return None


def check(rec, ref, traced):
    """Reasons this repeat fails its checks (empty if it passes)."""
    if rec is None:
        return ["repeat did not run to completion"]
    problems = [p for p in rec.get("failures", "").split("; ") if p]
    for k in EXACT:
        if rec.get(k) != ref.get(k):
            problems.append(f"{k} differs from the first repeat: {rec.get(k)} vs {ref.get(k)}")
    wanted = list(END_TO_END) + (list(PER_LAYER) if traced else [])
    for k in wanted:
        if k != "trace.overhead_s" and not isinstance(rec.get(k), (int, float)):
            problems.append(f"{k} missing")
    return problems


def median(records, key):
    return statistics.median(r[key] for r in records)


def fastest(records):
    """The run's wall time: its fastest repeat. Other tenants of a shared
    host only ever add time, and their load comes and goes over tens of
    seconds, so the minimum is far steadier than the median (README.md)."""
    return min(r["wall_s"] for r in records)


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("seed", "tiny"), default="seed")
    ap.add_argument("--inject", choices=("none", "incomplete"), default="none")
    ap.add_argument("--corrupt-digest", action="store_true")
    args = ap.parse_args()

    if not build():
        return 1

    traced_run = args.trace == 1
    # (record, traced) of every repeat that passed its checks
    passed = []
    attempted = failed = 0
    ref = None
    start = time.monotonic()
    min_repeats = 4 if traced_run else 3
    while True:
        elapsed = time.monotonic() - start
        # stop when the next repeat would end past --seconds
        next_end = elapsed + elapsed / max(1, attempted)
        if attempted >= min_repeats and (next_end > args.seconds or elapsed >= HARD_STOP_S):
            break
        if elapsed >= HARD_STOP_S:
            break
        traced = traced_run and attempted % 2 == 1
        rec = repeat(args, traced)
        attempted += 1
        if rec is not None and args.corrupt_digest and attempted == 2:
            rec["digest"] = "0" * 32
        if ref is None and rec is not None:
            ref = rec
        problems = check(rec, ref, traced)
        if problems:
            failed += 1
            for p in problems:
                print(f"FAILED repeat {attempted}: {p}")
        else:
            passed.append((rec, traced))

    untraced = [r for r, t in passed if not t]
    traced = [r for r, t in passed if t]
    metrics = {}
    if untraced and (traced or not traced_run):
        print(f"# {args.workload} seed={args.seed} repeats={attempted} "
              f"(untraced {len(untraced)}, traced {len(traced)}), failed={failed}")
        print("# untraced wall_s: " + " ".join(f"{r['wall_s']:.3f}" for r in untraced))
        if traced:
            print("# traced wall_s: " + " ".join(f"{r['wall_s']:.3f}" for r in traced))
        for k, unit in OUTCOMES.items():
            if k in untraced[0]:
                n = untraced[0].get(k + ".n")
                pct = untraced[0].get(k + ".pct")
                at = f" at p{pct:g}" if pct is not None else ""
                print(f"outcome {k} = {untraced[0][k]:.6g} {unit}{at} (n={n})")
        print(f"# median untraced wall_s: {median(untraced, 'wall_s'):.6g} s")
        if traced_run:
            for k, unit in PER_LAYER.items():
                if k == "trace.overhead_s":
                    v = fastest(traced) - fastest(untraced)
                else:
                    v = median(traced, k)
                metrics[k] = {"value": v, "unit": unit}
        else:
            for k, unit in END_TO_END.items():
                v = fastest(untraced) if k == "wall_s" else median(untraced, k)
                metrics[k] = {"value": v, "unit": unit}
        for k, m in metrics.items():
            print(f"{k} = {m['value']:.6g} {m['unit']}")
    else:
        print("FAILED: no repeat passed its checks")
    result = {"correct": failed == 0 and bool(metrics), "attempted": attempted,
              "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
