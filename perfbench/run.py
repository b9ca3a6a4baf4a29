"""tableplan benchmark: one workload, measured in fresh processes.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

--trace 0 runs the timed closed loop in one worker process and times set-up
in SETUP_PROCESSES more; it prints the end-to-end metrics.  --trace 1 runs
the traced pass and prints the per-layer metrics and the tracing overhead.
The last stdout line is one JSON object: correct, attempted, failed, metrics.

Exit status: 0 when every correctness gate holds, 1 when one fails (the
result is still printed, with "correct": false), 2 when the benchmark cannot
run at all, e.g. outside a tableplan checkout (nothing is printed on stdout).
Each result is also written to .perfbench/result-<workload>-seed<N>-trace<T>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench")

# Fresh processes that only time set-up (the loop process is one more sample)
# and each re-run one timed episode to check its digest across processes.
SETUP_PROCESSES = 3

# A run ends within this many seconds, workers included.
DEADLINE_S = 170


class BenchError(Exception):
    """The benchmark could not produce a result."""


def worker(role: str, args, *extra) -> dict:
    timeout = args.deadline - time.monotonic()
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--role", role,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           *extra]
    if args.episodes is not None:
        cmd += ["--episodes", str(args.episodes)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(timeout, 0))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{role} worker passed the {DEADLINE_S} s "
                         "deadline") from None
    if proc.returncode != 0:
        raise BenchError(f"{role} worker exited {proc.returncode}:\n"
                         f"{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def commit() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def stamp(args, loop: dict) -> dict:
    return {"nproc": len(os.sched_getaffinity(0)),
            "cpu_count": os.cpu_count(), **loop["versions"],
            "commit": commit(), "workload": args.workload,
            "seed": args.seed, "seed0": loop["seed0"],
            "seconds": args.seconds, "trace": args.trace}


def untraced(args) -> tuple:
    """(loop output, result, gate failures, report lines) for --trace 0."""
    loop = worker("loop", args)
    gate_n = len(loop["check"])
    setups = [worker("setup", args, "--check-index",
                     str((j + 1) * gate_n // (SETUP_PROCESSES + 1)),
                     "--contract-index",
                     str(args.seed * SETUP_PROCESSES + j))
              for j in range(SETUP_PROCESSES)]
    setup_samples = [loop["setup_s"]] + [s["setup_s"] for s in setups]
    metrics = dict(loop["metrics"])
    metrics["setup_s"] = {"value": statistics.median(setup_samples),
                          "unit": "s"}

    failures = []
    if loop["failed"]:
        failures.append(f"{loop['failed']} of {loop['attempted']} episodes "
                        "raised or diverged on replay")
    for s in setups:
        contract = s.get("contract")
        if contract is not None and not contract["success"]:
            failures.append(f"{contract['task']} seed {contract['seed']} "
                            "failed test_01's perfect-mode contract")
        (index, digest), = s["check"].items()
        if digest != loop["check"][index]:
            failures.append(f"episode {index} digest differs between two "
                            "fresh processes")
        if s["warmup_digest"] != loop["warmup_digest"]:
            failures.append("warm-up episode digest differs between two "
                            "fresh processes")

    m = metrics
    lines = [
        f"digest {args.workload} {loop['gate_digest']} "
        f"(first {gate_n} episodes)",
        f"  episodes_per_s  {m['episodes_per_s']['value']:.4f} 1/s",
        f"  round_ms        {m['round_ms']['value']:.4f} ms",
        f"  episode_ms_p50  {m['episode_ms_p50']['value']:.4f} ms",
        f"  episode_ms_p90  {m['episode_ms_p90']['value']:.4f} ms "
        f"(n={loop['attempted']} episodes, {loop['above_p90']} above p90)",
        f"  setup_s         {m['setup_s']['value']:.4f} s (median of "
        + ", ".join(f"{v:.4f}" for v in setup_samples) + ")",
        f"  peak_rss_mb     {m['peak_rss_mb']['value']:.1f} MB",
        f"  success_rate    {m['success_rate']['value']:.4f} ratio "
        f"(first {gate_n} episodes)",
        f"  failed_frac     {loop['failed'] / loop['attempted']:.4f} ratio "
        f"({loop['failed']} of {loop['attempted']})",
    ]
    contracts = [s["contract"] for s in setups if "contract" in s]
    if contracts:
        lines.append("contract episodes (test_01 load): " + ", ".join(
            f"{c['task']}@{c['seed']}={'ok' if c['success'] else 'FAILED'}"
            for c in contracts))
        if loop["unsuccessful"]:
            lines.append("note: timed perfect-mode episodes that did not "
                         "succeed: " + ", ".join(
                             f"{task}@{seed}"
                             for seed, task in loop["unsuccessful"]))
    result = {"correct": not failures, "attempted": loop["attempted"],
              "failed": loop["failed"], "metrics": metrics}
    return loop, result, failures, lines


def traced(args) -> tuple:
    """(loop output, result, gate failures, report lines) for --trace 1."""
    loop = worker("loop", args)
    metrics = loop["metrics"]
    failures = []
    if loop["failed"]:
        failures.append(f"{loop['failed']} of {loop['attempted']} episodes "
                        "raised or diverged on replay")
    if loop["gate_digest"] != loop["untraced_digest"]:
        failures.append("tracing changed the episode records")

    n = loop["attempted"] // 2
    lines = [f"digest {args.workload} {loop['gate_digest']} "
             f"(first {n} episodes)",
             f"per layer, traced pass over {n} episodes "
             "(self = span minus its child spans):",
             f"  {'callable':34} {'calls':>8} {'self_ms':>10}"]
    for key in sorted(metrics):
        if key.endswith(".calls"):
            name = key[:-len(".calls")]
            lines.append(f"  {name:34} {metrics[key]['value']:8d} "
                         f"{metrics[name + '.self_ms']['value']:10.2f}")
    for key in sorted(metrics):
        if not key.endswith((".calls", ".self_ms")) and \
                not key.startswith("trace."):
            lines.append(f"  {key:34} {metrics[key]['value']:.4f} "
                         f"{metrics[key]['unit']}")
    lines += [
        "tracing overhead: "
        f"{metrics['trace.episodes_per_s_untraced']['value']:.3f} episodes/s "
        f"untraced, {metrics['trace.episodes_per_s_traced']['value']:.3f} "
        f"traced ({metrics['trace.overhead_frac']['value']:+.1%})",
        "wait time: none measured -- the loop is single-threaded with no "
        "queues, so no layer ever waits on another",
        f"spans: {loop['spans']} written to {loop['spans_file']}",
    ]
    result = {"correct": not failures, "attempted": loop["attempted"],
              "failed": loop["failed"], "metrics": metrics}
    return loop, result, failures, lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--episodes", type=int, default=None,
                    help=argparse.SUPPRESS)   # smoke test: shrink the run
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    args.deadline = time.monotonic() + DEADLINE_S

    if not os.path.isfile(os.path.join(ROOT, "src", "tableplan", "harness.py")):
        print(f"perfbench: no tableplan sources under {ROOT}/src",
              file=sys.stderr)
        return 2
    try:
        loop, result, failures, lines = (traced if args.trace else untraced)(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    info = stamp(args, loop)
    print(f"stamp {json.dumps(info, sort_keys=True)}")
    for line in lines:
        print(line)
    for failure in failures:
        print(f"GATE FAILED: {failure}")
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"result-{args.workload}-seed{args.seed}"
                                 f"-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"stamp": info, "gate_digest": loop["gate_digest"],
                   "gate_failures": failures, **result}, fh, indent=1,
                  sort_keys=True)
    print(json.dumps(result, sort_keys=True))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
