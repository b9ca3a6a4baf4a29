"""One fresh benchmark process; prints one JSON object on stdout.

    python3 perfbench/worker.py --role setup|loop --workload NAME --seed N
        [--seconds S] [--trace 0|1] [--check-index I] [--contract-index C]
        [--episodes K]

Both roles first time set-up: from before `import tableplan` to the end of
one warm-up episode (seed WARMUP_SEED, outside every timed list).

setup   then runs timed-list episode I once and reports its digest, so that
        perfbench/run.py can compare it with the loop process's copy.  On a
        workload with a contract it also runs contract episode C.
loop    --trace 0: the timed closed loop (at least S seconds and K episodes)
        and the end-to-end metrics.
        --trace 1: the first K episodes twice each, once traced and once not
        (alternating which goes first), giving the per-layer metrics and the
        tracing overhead.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

import numpy  # noqa: E402
import scipy  # noqa: E402

import workloads as wl  # noqa: E402  (imports tableplan)
from spans import Tracer  # noqa: E402

OUT_DIR = os.path.join(wl.ROOT, ".perfbench")


def _metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(eps: list, gate: list) -> dict:
    """Untraced metrics over the timed episodes; success over the gate prefix."""
    total_s = sum(e.seconds for e in eps)
    rounds = sum(e.rounds for e in eps)
    ms = [e.seconds * 1e3 for e in eps]
    return {
        "episodes_per_s": _metric(len(eps) / total_s, "1/s"),
        "round_ms": _metric(total_s * 1e3 / max(rounds, 1), "ms"),
        "episode_ms_p50": _metric(statistics.median(ms), "ms"),
        "episode_ms_p90": _metric(
            statistics.quantiles(ms, n=10, method="inclusive")[8], "ms"),
        "peak_rss_mb": _metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "success_rate": _metric(sum(e.success for e in gate) / len(gate),
                                "ratio"),
    }


def per_layer(tracer, traced: list, untraced: list) -> dict:
    out = {}
    totals = tracer.totals()
    for name, (calls, self_ns) in totals.items():
        out[f"{name}.self_ms"] = _metric(self_ns / 1e6, "ms")
        out[f"{name}.calls"] = _metric(calls, "count")
    renders = totals["render.Renderer.render"][0]
    rounds = sum(e.rounds for e in traced)
    chunks = sum(e.chunks for e in traced)
    n = len(traced)
    out["render.rasters_per_render"] = _metric(
        totals["render.rasterize_polygon"][0] / max(renders, 1), "ratio")
    out["graph.nodes_per_round"] = _metric(
        sum(e.nodes for e in traced) / max(rounds, 1), "count")
    out["executor.completed_ratio"] = _metric(
        sum(e.completed for e in traced) / max(chunks, 1), "ratio")
    out["harness.rounds_per_episode"] = _metric(rounds / n, "count")
    out["serialize.log_bytes_per_episode"] = _metric(
        sum(e.log_bytes for e in traced) / n, "bytes")
    plain_rate = n / sum(e.seconds for e in untraced)
    traced_rate = n / sum(e.seconds for e in traced)
    out["trace.episodes_per_s_untraced"] = _metric(plain_rate, "1/s")
    out["trace.episodes_per_s_traced"] = _metric(traced_rate, "1/s")
    out["trace.overhead_frac"] = _metric(plain_rate / traced_rate - 1, "ratio")
    return out


def traced_pairs(workload, seed0: int, count: int, log_path: str, tracer):
    """Episodes 0..count-1, each run untraced and traced, order alternating."""
    plain, traced = [], []
    for i in range(count):
        for with_trace in ((False, True) if i % 2 == 0 else (True, False)):
            if with_trace:
                tracer.episode = i
                tracer.install()
                try:
                    traced.append(wl.run_one(workload, i, seed0 + i, log_path))
                finally:
                    tracer.uninstall()
            else:
                plain.append(wl.run_one(workload, i, seed0 + i, log_path))
    return plain, traced


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--role", choices=("setup", "loop"), required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--check-index", type=int, default=0)
    ap.add_argument("--contract-index", type=int, default=0)
    ap.add_argument("--episodes", type=int, default=None,
                    help="override the workload's gate-prefix length")
    args = ap.parse_args(argv)

    table = wl.workloads()
    if args.workload not in table:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(table)}", file=sys.stderr)
        return 2
    workload = table[args.workload]
    count = args.episodes or workload.episodes
    seed0 = wl.seed0_for(args.seed)

    os.makedirs(OUT_DIR, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="tmp-", dir=OUT_DIR)
    log_path = os.path.join(tmp, "episode.jsonl")
    try:
        warm = wl.run_one(workload, 0, wl.WARMUP_SEED, log_path)
        out = {"setup_s": time.perf_counter() - T0,
               "warmup_digest": warm.digest, "seed0": seed0,
               "versions": {"python": sys.version.split()[0],
                            "numpy": numpy.__version__,
                            "scipy": scipy.__version__}}
        if args.role == "setup":
            ep = wl.run_one(workload, args.check_index,
                            seed0 + args.check_index, log_path)
            out["check"] = {str(args.check_index): ep.digest}
            if workload.contract_seeds:
                index, seed = workload.contract_episode(args.contract_index)
                ep = wl.run_one(workload, index, seed, log_path)
                out["contract"] = {"task": workload.config(index).task,
                                   "seed": seed, "success": ep.success}
        elif args.trace == 0:
            eps = wl.run_loop(workload, seed0, log_path, args.seconds, count)
            gate = eps[:count]
            out["metrics"] = end_to_end(eps, gate)
            out["attempted"] = len(eps)
            out["failed"] = sum(not e.ok for e in eps)
            out["gate_digest"] = wl.combined_digest(gate)
            out["check"] = {str(i): e.digest for i, e in enumerate(gate)}
            out["unsuccessful"] = [
                [seed0 + i, workload.config(i).task]
                for i, e in enumerate(gate) if not e.success]
            out["above_p90"] = sum(
                e.seconds * 1e3 > out["metrics"]["episode_ms_p90"]["value"]
                for e in eps)
        else:
            tracer = Tracer()
            plain, traced = traced_pairs(workload, seed0, count, log_path,
                                         tracer)
            out["metrics"] = per_layer(tracer, traced, plain)
            out["attempted"] = len(plain) + len(traced)
            out["failed"] = sum(not e.ok for e in plain + traced)
            out["gate_digest"] = wl.combined_digest(traced)
            out["untraced_digest"] = wl.combined_digest(plain)
            path = os.path.join(
                OUT_DIR, f"spans-{workload.name}-seed{args.seed}.jsonl.gz")
            tracer.dump(path)
            out["spans"] = len(tracer.spans)
            out["spans_file"] = os.path.relpath(path, wl.ROOT)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps(out, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
