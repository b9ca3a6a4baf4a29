"""Episode harness: the observe -> graph -> plan -> ground -> act loop.

One episode is a JSONL log: a header (resolved config + hash + seed), one
record per planner call with the full graph snapshot the planner saw, and a
footer with the oracle verdict.  Logs replay bit-identically; wall-clock
fields are excluded from the comparison.
"""

from __future__ import annotations

import json
import statistics
import time
from dataclasses import dataclass, replace
from functools import lru_cache
from importlib import resources
from typing import Callable, Optional

from . import __version__
from .config import ConfigError, SceneConfig, read_text
from .dsl import (PlanError, PlannerOutput, PlannerProgram, evaluate_policy,
                  load_program)
from .executor import (ExecutorError, ground_targets, execute_chunk,
                       parse_subtask)
from .graph import SemanticGraph, init_graph, update_graph
from .perception import make_task_spec
from .prompting import clutter_free_obs, raw_obs_passthrough
from .render import Renderer
from .rng import Rng
from .serialize import canonical_json, graph_to_snapshot
from .world import TASK_TABLE, MilestoneTracker, init_world


STEP_BUDGET = 200  # simulator steps before an episode is cut off
# the mock VLMs: a fixed latency per call, recorded in the volatile
# latency_ns, and mock_vlm_graph's chance to flake on a call
MOCK_LATENCY_NS = 3_000_000_000
MOCK_FLAKE_P = 0.08


class VersionMismatch(Exception):
    """Log was written by a different package version."""


class DivergenceAt(Exception):
    """Replay produced a record that differs from the logged one."""

    def __init__(self, record_index: int, detail: str = ""):
        self.record_index = record_index
        super().__init__(f"replay diverged at record {record_index}"
                         + (f": {detail}" if detail else ""))


@dataclass
class EpisodeResult:
    success: bool
    done: bool
    records: list          # header + per-call records + footer, JSON-ready
    footer: dict
    header: dict

    @property
    def iterations(self) -> int:
        return self.footer["iterations"]


@lru_cache(maxsize=None)
def load_task_program(task: str, variant: str = "black") -> PlannerProgram:
    entry = TASK_TABLE.get(task)
    if entry is None or entry.plan is None:
        raise ConfigError(f"no bundled plan for task {task!r}")
    return load_program(resources.files("tableplan") / "plans"
                        / f"{entry.plan}.plan", variant)


# -- planners -----------------------------------------------------------------


def _flake(out: PlannerOutput, graph: SemanticGraph, rng: Rng,
           flake_p: float) -> PlannerOutput:
    """With probability flake_p, swap one focused node for a same-class peer.

    Models a VLM misreading the graph: the emitted instruction and relevant
    set name the wrong object, while the plan's own memory stays correct.
    """
    if out.done or not out.relevant_objects or flake_p <= 0.0:
        return out
    if rng.random() >= flake_p:
        return out
    ids = sorted(out.relevant_objects)
    victim_id = ids[rng.randrange(len(ids))]
    victim = graph.nodes[victim_id]
    peers = [n for n in graph.sorted_nodes()
             if n.class_name == victim.class_name and n.node_id != victim_id]
    if not peers:
        return out
    repl = peers[rng.randrange(len(peers))]
    text = out.subtask_instruction.replace(
        victim.name.replace("_", " "), repl.name.replace("_", " "), 1)
    swapped = frozenset(repl.node_id if i == victim_id else i
                        for i in out.relevant_objects)
    return PlannerOutput(subtask_instruction=text, relevant_objects=swapped,
                         done=False, emitted_step=out.emitted_step)


def rgb_choose(task: str, variant: str, g: SemanticGraph,
               rng: Rng) -> tuple:
    """The task's frame-only chooser (world.Task.frame_choice) over a
    single-frame graph; returns (output, stack guess)."""
    choice, guess = TASK_TABLE[task].frame_choice(variant, g, rng)
    if choice is None:
        return PlannerOutput("", frozenset(), True, None), guess
    return PlannerOutput(choice[0], frozenset(choice[1]), False, "rgb"), guess


def _intended_stack_target(cfg: SceneConfig, out: PlannerOutput,
                           graph: SemanticGraph) -> Optional[int]:
    """Simulator id of the stack destination named by a stack instruction."""
    if TASK_TABLE[cfg.task].hidden is None or out.done:
        return None
    try:
        verb, names = parse_subtask(out.subtask_instruction)
    except ExecutorError:
        return None
    if verb != "place_on":
        return None
    node_id = graph.resolve(names["dest"])
    if node_id is None:
        return None
    return graph.nodes[node_id].source_id


def _code_choose(cfg, program, graph, rng) -> tuple:
    t_plan = time.perf_counter_ns()
    out = evaluate_policy(program, graph)
    latency_ns = time.perf_counter_ns() - t_plan
    return out, _intended_stack_target(cfg, out, graph), latency_ns


def _mock_vlm_graph_choose(cfg, program, graph, rng) -> tuple:
    out, decision_sid, _ = _code_choose(cfg, program, graph, rng)
    return (_flake(out, graph, rng, MOCK_FLAKE_P), decision_sid,
            MOCK_LATENCY_NS)


def _mock_vlm_rgb_choose(cfg, program, graph, rng) -> tuple:
    out, guess = rgb_choose(cfg.task, cfg.variant, graph, rng)
    return out, guess, MOCK_LATENCY_NS


# planner mode (keyed like config.PLANNER_MODES) -> (chooser, graph, runs
# the task's PlannerProgram).  chooser(cfg, program, graph, rng) returns
# (output, sim id of the cup it stacks on or guesses hides the `hidden`
# object, latency ns).  graph: "persistent", "memoryless" (that graph, its
# task memory wiped each round) or "frame" (this frame's graph alone).
PLANNERS = {
    "code": (_code_choose, "persistent", True),
    "markovian": (_code_choose, "memoryless", True),
    "mock_vlm_graph": (_mock_vlm_graph_choose, "persistent", True),
    "mock_vlm_rgb": (_mock_vlm_rgb_choose, "frame", False),
}


# -- episode loop -------------------------------------------------------------


def _primitive_dict(prim) -> dict:
    return {"kind": prim.kind, "target": prim.target}


def run_episode(cfg: SceneConfig, seed: int, log_path=None,
                program: Optional[PlannerProgram] = None) -> EpisodeResult:
    """Run one episode to completion, budget exhaustion, or a fatal error.

    Planner and executor errors never raise out of the loop: they close the
    episode as a recorded failure so suites over noisy cells stay total.
    """
    world0 = init_world(cfg, seed)
    tracker = MilestoneTracker(world0, cfg.task, cfg.variant)
    renderer = Renderer(cfg.cameras, cfg.geometry["lift_m"])
    task_spec = make_task_spec(cfg.task, cfg.variant, cfg.custom_objects)

    percep_rng = Rng.substream(seed, "perception")
    exec_rng = Rng.substream(seed, "executor")
    mock_rng = Rng.substream(seed, "mock_vlm")

    choose, graph_kind, uses_plan = PLANNERS[cfg.planner]
    if program is None and uses_plan:
        program = load_task_program(cfg.task, cfg.variant)

    header = {"kind": "header", "version": __version__,
              "config": cfg.to_dict(), "config_hash": cfg.config_hash,
              "seed": seed, "task_instruction": task_spec.instruction}
    records = [header]

    plan_graph: Optional[SemanticGraph] = None
    prev_step = None
    pending_feedback = None   # ("in"|"on", moved source id, dest source id)
    done_clean = False
    budget_exhausted = False
    planner_error = None
    executor_error = None
    stack_decision = None
    iterations = 0
    t0 = time.perf_counter()

    while True:
        if tracker.world.step_count >= STEP_BUDGET:
            budget_exhausted = True
            break
        raw = renderer.render(tracker.world)
        if graph_kind == "frame":
            plan_graph = init_graph(raw, task_spec, cfg.perception_noise,
                                    mock_rng)
        elif plan_graph is None:
            plan_graph = init_graph(raw, task_spec, cfg.perception_noise,
                                    percep_rng)
        else:
            update_graph(plan_graph, raw, task_spec, cfg.perception_noise,
                         percep_rng, steps_elapsed=raw.step - prev_step,
                         action_feedback=pending_feedback)
        pending_feedback = None
        if graph_kind == "memoryless":
            plan_graph.task_memory = []
        prev_step = raw.step

        try:
            out, decision_sid, latency_ns = choose(cfg, program, plan_graph,
                                                   mock_rng)
        except PlanError as exc:
            planner_error = f"{type(exc).__name__}: {exc}"
            break

        record = {
            "kind": "record", "iter": iterations, "step": raw.step,
            "planner": {
                "instruction": out.subtask_instruction if not out.done else None,
                "relevant": sorted(out.relevant_objects),
                "emitted_step": out.emitted_step,
                "done": out.done,
            },
            "latency_ns": latency_ns,
            "graph": graph_to_snapshot(plan_graph),
        }
        if out.done:
            done_clean = True
            records.append(record)
            break

        if stack_decision is None and decision_sid is not None:
            actual = tracker.judge.hidden_in(tracker.world)
            if actual is not None:
                stack_decision = {"chosen": decision_sid, "actual": actual,
                                  "correct": decision_sid == actual}

        relevant = set(out.relevant_objects)
        arm_id = plan_graph.arm_node_id()
        if arm_id is not None:
            relevant.add(arm_id)
        if cfg.vision == "masked":
            obs = clutter_free_obs(raw, plan_graph, relevant,
                                   out.subtask_instruction)
        else:
            obs = raw_obs_passthrough(raw, relevant, out.subtask_instruction)

        try:
            grounded = ground_targets(plan_graph, obs, exec_rng,
                                      cfg.executor_error)
        except ExecutorError as exc:
            executor_error = f"{type(exc).__name__}: {exc}"
            record["execution"] = {"error": executor_error}
            records.append(record)
            break

        held_before = tracker.world.gripper.held
        chunk = execute_chunk(tracker, grounded)
        if (held_before is not None and chunk.results and chunk.results[-1].ok
                and chunk.primitives[-1].kind in ("place_in", "place_on")):
            rel = "in" if chunk.primitives[-1].kind == "place_in" else "on"
            pending_feedback = (rel, held_before, chunk.primitives[-1].target)
        record["execution"] = {
            "roles": dict(sorted(grounded.names.items())),
            "targets": dict(sorted(grounded.targets.items())),
            "clutter": grounded.clutter,
            "mis_grounded": grounded.mis_grounded,
            "primitives": [_primitive_dict(p) for p in chunk.primitives],
            "results": [{"status": r.status, "reason": r.reason}
                        for r in chunk.results],
            "outcome": chunk.outcome,
        }
        record["milestones"] = list(tracker.milestones)
        records.append(record)
        iterations += 1

    oracle_ok = tracker.success
    footer = {
        "kind": "footer",
        "success": bool(done_clean and oracle_ok),
        "done": done_clean,
        "oracle_success": oracle_ok,
        "iterations": iterations,
        "sim_steps": tracker.world.step_count,
        "milestones": list(tracker.milestones),
        "budget_exhausted": budget_exhausted,
        "planner_error": planner_error,
        "executor_error": executor_error,
        "stack_decision": stack_decision,
        "wall_time_s": time.perf_counter() - t0,
    }
    records.append(footer)

    if log_path is not None:
        with open(log_path, "w", encoding="utf-8") as fh:
            for rec in records:
                fh.write(canonical_json(rec) + "\n")

    return EpisodeResult(success=footer["success"], done=done_clean,
                         records=records, footer=footer, header=header)


# -- suites -------------------------------------------------------------------


def _percentile(values: list, q: float) -> float:
    if not values:
        return 0.0
    s = sorted(values)
    idx = min(len(s) - 1, max(0, int(round(q * (len(s) - 1)))))
    return float(s[idx])


def summarize_cell(results: list) -> dict:
    n = len(results)
    latencies = []
    milestone_hits: dict = {}
    chunks = []
    stack_total = 0
    stack_correct = 0
    fails = {"planner_error": 0, "executor_error": 0,
             "budget_exhausted": 0, "oracle": 0}
    successes = 0
    for res in results:
        f = res.footer
        successes += f["success"]
        chunks.append(f["iterations"])
        for name in f["milestones"]:
            milestone_hits[name] = milestone_hits.get(name, 0) + 1
        for rec in res.records:
            if rec.get("kind") == "record":
                latencies.append(rec["latency_ns"])
        sd = f["stack_decision"]
        if sd is not None:
            stack_total += 1
            stack_correct += bool(sd["correct"])
        if not f["success"]:
            if f["planner_error"]:
                fails["planner_error"] += 1
            elif f["executor_error"]:
                fails["executor_error"] += 1
            elif f["budget_exhausted"]:
                fails["budget_exhausted"] += 1
            elif f["done"] and not f["oracle_success"]:
                fails["oracle"] += 1
    return {
        "episodes": n,
        "success_rate": successes / n if n else 0.0,
        "milestone_rates": {k: v / n for k, v in sorted(milestone_hits.items())},
        "median_latency_ms": (statistics.median(latencies) / 1e6
                              if latencies else 0.0),
        "p95_latency_ms": _percentile(latencies, 0.95) / 1e6,
        "mean_chunks": sum(chunks) / n if n else 0.0,
        "stack_decision_rate": (stack_correct / stack_total
                                if stack_total else None),
        "stack_decisions": stack_total,
        "failures": fails,
    }


def run_suite(base: SceneConfig, seeds: int, planners, visions,
              distractor_counts, seed0: int = 0,
              progress: Optional[Callable] = None) -> dict:
    """Sweep planner x vision x distractor cells over a common seed list.

    Every cell's config is built, and so checked, before any episode runs.
    """
    configs = [replace(base, planner=planner, vision=vision, distractors=d)
               for planner in planners for vision in visions
               for d in distractor_counts]
    cells = []
    for cfg in configs:
        results = [run_episode(cfg, seed0 + i) for i in range(seeds)]
        cell = {"planner": cfg.planner, "vision": cfg.vision,
                "distractors": cfg.distractors}
        cell.update(summarize_cell(results))
        cells.append(cell)
        if progress is not None:
            progress(cell)
    return {
        "task": base.task,
        "variant": base.variant,
        "seeds": seeds,
        "seed0": seed0,
        "version": __version__,
        "cells": cells,
    }


def format_suite_table(report: dict) -> str:
    """Aligned text table, one row per (planner, vision, distractors) cell."""
    headers = ("planner", "vision", "d", "success", "med lat", "p95 lat",
               "chunks", "milestones")
    rows = []
    for cell in report["cells"]:
        ms = " ".join(f"{k}={v:.0%}" for k, v in cell["milestone_rates"].items())
        if cell["stack_decision_rate"] is not None:
            ms = (ms + f" stack-pick={cell['stack_decision_rate']:.0%}").strip()
        rows.append((
            cell["planner"], cell["vision"], str(cell["distractors"]),
            f"{cell['success_rate']:.1%}",
            f"{cell['median_latency_ms']:.2f}ms",
            f"{cell['p95_latency_ms']:.2f}ms",
            f"{cell['mean_chunks']:.1f}",
            ms or "-",
        ))
    widths = [max(len(h), *(len(r[i]) for r in rows)) if rows else len(h)
              for i, h in enumerate(headers)]
    def fmt(row):
        return "  ".join(val.ljust(w) for val, w in zip(row, widths)).rstrip()
    lines = [fmt(headers), fmt(tuple("-" * w for w in widths))]
    lines.extend(fmt(r) for r in rows)
    return "\n".join(lines) + "\n"


# -- replay -------------------------------------------------------------------

_VOLATILE = {"latency_ns", "wall_time_s"}


def _stable(record: dict) -> dict:
    return {k: v for k, v in record.items() if k not in _VOLATILE}


def load_log(path) -> list:
    """The log's records; ConfigError when the file is not UTF-8 or a line
    is not a JSON object."""
    records = []
    for lineno, line in enumerate(read_text(path).split("\n"), 1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ConfigError(
                f"{path}:{lineno}: not valid JSON: {exc.msg}") from None
        if not isinstance(record, dict):
            raise ConfigError(f"{path}:{lineno}: not a JSON object")
        records.append(record)
    return records


def replay_log(path) -> EpisodeResult:
    """Re-run a logged episode and verify record-for-record equality.

    Timing fields are volatile and skipped; everything else must match
    byte-for-byte after canonicalization, or DivergenceAt is raised.
    """
    logged = load_log(path)
    if not logged or logged[0].get("kind") != "header":
        raise ConfigError(f"{path}: not an episode log")
    header = logged[0]
    if header.get("version") != __version__:
        raise VersionMismatch(
            f"log version {header.get('version')!r} != {__version__!r}")
    missing = [key for key in ("config", "seed") if key not in header]
    if missing:
        raise ConfigError(f"{path}: header has no {' or '.join(missing)}")
    seed = header["seed"]
    if type(seed) is not int:  # not int(): 3.7, "3" and true are no seeds
        raise ConfigError(f"{path}: header seed {seed!r} is not an integer")
    cfg = SceneConfig.from_dict(header["config"])
    fresh = run_episode(cfg, seed)
    if len(fresh.records) != len(logged):
        raise DivergenceAt(min(len(fresh.records), len(logged)),
                           f"record count {len(fresh.records)} != {len(logged)}")
    for i, (old, new) in enumerate(zip(logged, fresh.records)):
        a = canonical_json(_stable(old))
        b = canonical_json(_stable(new))
        if a != b:
            raise DivergenceAt(i, _first_difference(a, b))
    return fresh


def _first_difference(a: str, b: str) -> str:
    for i, (ca, cb) in enumerate(zip(a, b)):
        if ca != cb:
            lo, hi = max(0, i - 30), i + 30
            return f"...{a[lo:hi]}... != ...{b[lo:hi]}..."
    return f"length {len(a)} != {len(b)}"
