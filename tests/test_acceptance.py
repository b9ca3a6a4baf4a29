"""Release acceptance suite: ten end-to-end guarantees, one test each.

Every test prints a single line with the measured numbers (visible under
pytest -s); the thresholds in the asserts are the contract and must not be
loosened.  Shared heavy computation (the 600 perfect-mode episodes) lives in
a module-scoped fixture so criteria 1-3 reuse one pass.
"""

import json
import math
import statistics
import time
from pathlib import Path

import numpy as np
import pytest

from oracles import bfs_min_acts, min_cost_assignment
from tableplan.bench import association_trial, random_scene_config, run_assoc_bench
from tableplan.config import (DEFAULT_EXECUTOR_ERROR, default_noise_config,
                              perfect_config)
from tableplan.dsl import evaluate_policy, parse_program
from tableplan.graph import distance_signature, init_graph
from tableplan.harness import load_task_program, replay_log, run_episode
from tableplan.perception import make_task_spec
from tableplan.prompting import clutter_free_obs, retention_mask
from tableplan.render import render_views
from tableplan.rng import Rng
from tableplan.serialize import canonical_json, graph_from_snapshot
from tableplan.world import LayoutInfeasible, ground_truth_relations, init_world
from test_dsl import ERROR_CASES

FIXTURES = Path(__file__).parent / "fixtures"
N_SEEDS = 200
TASKS = ("pnp_twice", "place_and_stack", "swap_cups")


def _run_block(cfg, n=N_SEEDS):
    return [run_episode(cfg, seed) for seed in range(n)]


def _success_rate(results):
    return sum(r.success for r in results) / len(results)


def _latencies(results):
    return [rec["latency_ns"] for r in results for rec in r.records
            if rec.get("kind") == "record"]


@pytest.fixture(scope="module")
def perfect_runs():
    """200 perfect-mode episodes per task, plus the wall time they took."""
    out = {}
    t0 = time.perf_counter()
    for task in TASKS:
        out[task] = _run_block(perfect_config(task))
    out["elapsed_s"] = time.perf_counter() - t0
    return out


def test_01_perfect_mode_completeness(perfect_runs):
    # zero noise, zero executor error: every task solves on every seed,
    # never needing more than 8 chunks; the swap always takes exactly the
    # 6 acts the breadth-first oracle proves minimal
    for task in TASKS:
        results = perfect_runs[task]
        assert sum(r.success for r in results) == N_SEEDS, task
        assert max(r.footer["iterations"] for r in results) <= 8, task
    swap_iters = {r.footer["iterations"] for r in perfect_runs["swap_cups"]}
    assert swap_iters == {6}
    for seed in range(0, N_SEEDS, 40):
        world0 = init_world(perfect_config("swap_cups"), seed)
        assert bfs_min_acts(world0, "swap_cups") == 6, seed
    elapsed = perfect_runs["elapsed_s"]
    assert elapsed < 60.0, f"{elapsed:.1f}s for 600 episodes"
    print(f"\n[1] PASS 600/600 perfect episodes, <=8 chunks, "
          f"swap == 6 == oracle minimum, {elapsed:.1f}s")


def test_02_non_markovian_separation(perfect_runs):
    # wiping task memory every replan makes the twice-task impossible: the
    # second leg needs the remembered start plate, so the baseline dies
    # rebinding it while the cube is in hand
    code_rate = _success_rate(perfect_runs["pnp_twice"])
    markov = _run_block(perfect_config("pnp_twice", planner="markovian"))
    markov_rate = _success_rate(markov)
    assert code_rate == 1.0
    assert markov_rate == 0.0
    print(f"\n[2] PASS pnp_twice success: code {code_rate:.0%}, "
          f"markovian {markov_rate:.0%} over {N_SEEDS} seeds")


def test_03_occlusion_memory_decisions(perfect_runs):
    # once the cube is inside a cup nothing in the image distinguishes the
    # cups; a per-frame guesser is a coin flip, graph memory is not
    code_dec = [r.footer["stack_decision"] for r in perfect_runs["place_and_stack"]]
    assert all(d is not None for d in code_dec)
    assert all(d["correct"] for d in code_dec)

    rgb = _run_block(perfect_config("place_and_stack", planner="mock_vlm_rgb"))
    rgb_dec = [r.footer["stack_decision"] for r in rgb]
    assert all(d is not None for d in rgb_dec)
    rate = sum(d["correct"] for d in rgb_dec) / len(rgb_dec)
    assert abs(rate - 0.5) <= 0.07, f"rgb decision rate {rate:.3f}"
    print(f"\n[3] PASS stacking-cup decision: code 100%, "
          f"mock_vlm_rgb {rate:.1%} (binomial band 50%+-7) over {N_SEEDS} seeds")


def test_04_latency_and_planner_ordering():
    rates = {}
    lats = {}
    for planner in ("code", "mock_vlm_graph", "mock_vlm_rgb"):
        cfg = default_noise_config("swap_cups", planner=planner)
        results = _run_block(cfg)
        rates[planner] = _success_rate(results)
        lats[planner] = _latencies(results)
    code_median_ms = statistics.median(lats["code"]) / 1e6
    assert code_median_ms < 1.0, f"{code_median_ms:.3f} ms"
    assert set(lats["mock_vlm_graph"]) == {3_000_000_000}
    assert set(lats["mock_vlm_rgb"]) == {3_000_000_000}
    assert rates["code"] >= rates["mock_vlm_graph"] >= rates["mock_vlm_rgb"]
    print(f"\n[4] PASS swap_cups at default noise: "
          f"code {rates['code']:.1%} >= graph {rates['mock_vlm_graph']:.1%} "
          f">= rgb {rates['mock_vlm_rgb']:.1%}; "
          f"code median latency {code_median_ms:.3f} ms, mocks 3.0 s")


def test_05_masking_ablation():
    # eight distractors in frame: the raw executor draws its grounding from
    # everything visible, the masked one only from the named objects
    rates = {}
    for vision in ("masked", "raw"):
        cfg = perfect_config("swap_cups", distractors=8, vision=vision,
                             executor_error=DEFAULT_EXECUTOR_ERROR)
        rates[vision] = _success_rate(_run_block(cfg))
    gap = rates["masked"] - rates["raw"]
    assert gap >= 0.20, f"masked {rates['masked']:.1%} raw {rates['raw']:.1%}"
    print(f"\n[5] PASS d=8 swap_cups: masked {rates['masked']:.1%} "
          f"vs raw {rates['raw']:.1%} (gap {gap * 100:.0f} points)")


def test_06_association_oracles():
    report = run_assoc_bench(1000, 0.0)
    assert report["exact_scenes"] == 1000

    # under feature noise the greedy two-stage matcher should almost always
    # agree with exhaustive minimal-cost assignment about the pairs it emits
    emitted = 0
    agreed = 0
    scenes = 0
    seed = 50_000  # distinct stream from the noise-free block
    while scenes < 300:
        try:
            trial = association_trial(seed, sigma=0.2)
        except LayoutInfeasible:
            seed += 1
            continue
        seed += 1
        scenes += 1
        va, vb = trial["views"]
        dets_a = trial["detections"][va]
        dets_b = trial["detections"][vb]
        if not dets_a or not dets_b:
            continue
        cost = [[1.0 - float(np.dot(a.feature, b.feature)) for b in dets_b]
                for a in dets_a]
        oracle = {(dets_a[i].source_id, dets_b[j].source_id)
                  for i, j in min_cost_assignment(cost)}
        got = set(trial["pairs"])
        emitted += len(got)
        agreed += len(got & oracle)
    agreement = agreed / emitted
    assert agreement >= 0.95, f"{agreed}/{emitted}"

    # similarity invariance: scaling pixel space never changes a signature
    rng = Rng.substream(9, "accept_scale")
    checked = 0
    for _ in range(100):
        k = 2 + rng.randrange(7)
        anchors = [(rng.random() * 200 - 100, rng.random() * 200 - 100)
                   for _ in range(k)]
        point = (rng.random() * 200 - 100, rng.random() * 200 - 100)
        ref = distance_signature(point, anchors)
        for _ in range(1000):
            s = math.exp(rng.random() * 12.0 - 6.0)
            scaled = distance_signature(
                (point[0] * s, point[1] * s),
                [(ax * s, ay * s) for ax, ay in anchors])
            assert np.allclose(scaled, ref, rtol=1e-9, atol=1e-12)
            checked += 1
    assert checked == 100_000
    print(f"\n[6] PASS association: 1000/1000 noise-free scenes exact; "
          f"sigma=0.2 assignment agreement {agreement:.1%} "
          f"({agreed}/{emitted} pairs, 300 scenes); "
          f"signature invariant under {checked} scale factors")


def test_07_relation_oracle_equivalence():
    checked = 0
    for task in TASKS:
        spec = make_task_spec(task)
        cfg = perfect_config(task)
        for seed in range(100):
            world = init_world(cfg, seed)
            raw = render_views(world, cfg.cameras, cfg.geometry["lift_m"])
            g = init_graph(raw, spec)
            node_src = {n.node_id: next(iter(n.groundings.values())).source_id
                        for n in g.sorted_nodes()}
            got = {(node_src[a], node_src[b], rel) for (a, b, rel) in g.edges}
            relevant = {o.id for o in world.objects
                        if spec.admits(o.class_name)}
            want = {t for t in ground_truth_relations(world)
                    if t[0] in relevant and t[1] in relevant}
            assert got == want, (task, seed)
            checked += 1
    print(f"\n[7] PASS induced in/on/near == simulator relations, "
          f"{checked}/300 scenes exact")


def test_08_replay_bit_exact(tmp_path):
    cases = ([(perfect_config("pnp_twice"), s) for s in range(34)]
             + [(default_noise_config("place_and_stack"), s) for s in range(33)]
             + [(default_noise_config("swap_cups", distractors=4), s)
                for s in range(33)])
    assert len(cases) == 100
    for i, (cfg, seed) in enumerate(cases):
        path = tmp_path / f"ep_{i:03d}.jsonl"
        first = run_episode(cfg, seed, log_path=path)
        replayed = replay_log(path)  # raises DivergenceAt on any drift
        assert replayed.footer["success"] == first.footer["success"]

    # committed fixture from an independent earlier run of the same version:
    # stands in for the cross-platform pair
    golden = replay_log(FIXTURES / "golden_episode.jsonl")
    assert golden.footer["success"] is True
    print("\n[8] PASS 100/100 logged episodes replay bit-exact "
          "+ committed golden log verifies")


def test_09_dsl_conformance():
    lines = (FIXTURES / "dsl_goldens.jsonl").read_text().splitlines()
    assert len(lines) == 30
    for line in lines:
        case = json.loads(line)
        program = load_task_program(case["task"], case["variant"])
        out = evaluate_policy(program, graph_from_snapshot(case["snapshot"]))
        got = {
            "instruction": out.subtask_instruction if not out.done else None,
            "relevant": sorted(out.relevant_objects),
            "emitted_step": out.emitted_step,
            "done": out.done,
        }
        assert canonical_json(got) == canonical_json(case["expected"]), \
            (case["task"], case["seed"], case["iter"])

    for text, etype, reason, line, col in ERROR_CASES:
        with pytest.raises(etype) as exc_info:
            parse_program(text)
        assert exc_info.value.reason == reason
        assert (exc_info.value.line, exc_info.value.col) == (line, col)
    print(f"\n[9] PASS 30/30 snapshot goldens byte-identical; "
          f"{len(ERROR_CASES)} parse errors at exact positions")


def test_10_masking_soundness():
    rng = Rng.substream(3, "accept_mask")
    pairs = 0
    chain_links = 0
    scenes = 0
    seed = 0
    while scenes < 100:
        cfg = random_scene_config(seed)
        try:
            world = init_world(cfg, seed)
        except LayoutInfeasible:
            seed += 1
            continue
        seed += 1
        scenes += 1
        raw = render_views(world, cfg.cameras, cfg.geometry["lift_m"])
        g = init_graph(raw, make_task_spec("custom",
                                           custom_objects=cfg.custom_objects))
        ids = sorted(g.nodes)
        source_of = {nid: {gr.source_id
                           for gr in g.nodes[nid].groundings.values()}
                     for nid in ids}

        for _ in range(100):
            subset = [i for i in ids if rng.random() < 0.5]
            obs = clutter_free_obs(raw, g, subset, "cue")
            allowed = set().union(*(source_of[i] for i in subset)) \
                if subset else set()
            for visible in obs.visible.values():
                assert set(visible) <= allowed
            pairs += 1

        # growing the relevant set only ever reveals more
        order = list(ids)
        for i in range(len(order) - 1, 0, -1):
            j = rng.randrange(i + 1)
            order[i], order[j] = order[j], order[i]
        prev = clutter_free_obs(raw, g, [], "cue")
        for k in range(len(order)):
            cur = clutter_free_obs(raw, g, order[:k + 1], "cue")
            for view_id, view in raw.views.items():
                shape = view.label_map.shape
                m_p = retention_mask(g, order[:k], view_id, shape)
                m_c = retention_mask(g, order[:k + 1], view_id, shape)
                assert np.all(m_p <= m_c)
                assert set(prev.visible[view_id]) <= set(cur.visible[view_id])
            prev = cur
            chain_links += 1
    assert pairs == 10_000
    print(f"\n[10] PASS masking sound on {pairs} (graph, relevant-set) pairs; "
          f"monotone along {chain_links} nested-set links")
