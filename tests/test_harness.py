import json
from importlib import resources

import pytest

from tableplan import __version__
from tableplan.config import (PLANNER_MODES, ConfigError, default_noise_config,
                              perfect_config)
from tableplan.dsl import evaluate_policy, parse_program
from tableplan.graph import init_graph
from tableplan.harness import (PLANNERS, DivergenceAt, VersionMismatch,
                               _flake, format_suite_table, load_log,
                               load_task_program, replay_log, run_episode,
                               run_suite, summarize_cell)
from tableplan.perception import make_task_spec
from tableplan.render import render_views
from tableplan.rng import Rng
from tableplan.world import init_world


def test_load_task_program():
    assert load_task_program("pnp_twice").name == "pnp-twice"
    assert load_task_program("place_and_stack").name == "place-and-stack"
    assert load_task_program("swap_cups", "black").name == "swap-cups"
    # one plan file for both variants; the variant picks the first cup
    blue = load_task_program("swap_cups", "blue")
    assert blue.name == "swap-cups"
    assert blue.bindings[0] == ("first_cup", ("first", (
        "objects", (("class", "cup"), ("color", "blue")))))
    assert blue != load_task_program("swap_cups", "black")
    with pytest.raises(ConfigError):
        load_task_program("custom")
    with pytest.raises(ConfigError):
        load_task_program("juggling")


@pytest.mark.parametrize("task,variant,stem", [
    ("swap_cups", "blue", "swap_cups"),
    ("swap_cups", "black", "swap_cups"),
    ("pnp_twice", "blue", "pnp_twice"),
])
def test_load_task_program_reads_the_variant_plan_file(task, variant, stem):
    path = resources.files("tableplan") / "plans" / f"{stem}.plan"
    text = path.read_text(encoding="utf-8")
    want = parse_program(text.replace("{variant}", variant))
    assert load_task_program(task, variant) == want


@pytest.mark.parametrize("task,chunks,milestones", [
    ("pnp_twice", 4, ["PnP Once"]),
    ("place_and_stack", 4, ["Drop Cube"]),
    ("swap_cups", 6, ["Stage Cup"]),
])
def test_perfect_episode(task, chunks, milestones):
    res = run_episode(perfect_config(task), seed=0)
    assert res.success and res.done
    assert res.iterations == chunks
    assert res.footer["milestones"] == milestones
    assert res.footer["oracle_success"] is True
    assert res.footer["planner_error"] is None
    assert res.footer["executor_error"] is None
    assert not res.footer["budget_exhausted"]


@pytest.mark.xfail(strict=True, reason="stacked cup induces no 'on' edge")
def test_perfect_place_and_stack_seed_300059_finishes():
    """A known perfect-mode failure, pinned until the support rule is fixed.

    The cube drop and the stack chunk both complete, and the green cup then
    renders above the red one in the overhead view (centroids (122, 67.6)
    over (122, 77.6)).  No `on` edge is induced between them, so the
    `stack-cups` goal never holds; the policy re-picks the green cup and
    re-stacks it until the step budget runs out.
    """
    assert run_episode(perfect_config("place_and_stack"), 300059).success


def test_record_schema():
    res = run_episode(perfect_config("pnp_twice"), seed=1)
    header, *middle, footer = res.records
    assert header["kind"] == "header"
    assert header["version"] == __version__
    assert header["seed"] == 1
    assert len(header["config_hash"]) == 12
    assert "pick" in header["task_instruction"] or header["task_instruction"]

    action_records = [r for r in middle if not r["planner"]["done"]]
    done_records = [r for r in middle if r["planner"]["done"]]
    assert len(action_records) == 4 and len(done_records) == 1
    for i, rec in enumerate(middle):
        assert rec["kind"] == "record"
        assert rec["iter"] == i
        assert isinstance(rec["latency_ns"], int)
        assert rec["graph"]["nodes"]  # full snapshot rides along
    first = action_records[0]
    assert first["planner"]["instruction"] == "pick up the cube"
    assert first["execution"]["outcome"] == "completed"
    assert [p["kind"] for p in first["execution"]["primitives"]] == \
        ["no_op", "pick"]
    assert first["execution"]["clutter"] == 0
    assert done_records[0]["planner"]["instruction"] is None
    assert "execution" not in done_records[0]

    assert footer["kind"] == "footer"
    assert footer["success"] and footer["done"] and footer["oracle_success"]
    assert footer["iterations"] == 4
    assert footer["sim_steps"] > 0
    assert footer["stack_decision"] is None
    assert footer["wall_time_s"] > 0


def test_planner_table_holds_every_mode():
    assert tuple(PLANNERS) == PLANNER_MODES


def test_budget_exhaustion():
    cfg = perfect_config("swap_cups", step_budget=5)
    res = run_episode(cfg, seed=0)
    assert not res.success and not res.done
    assert res.footer["budget_exhausted"] is True
    assert res.footer["sim_steps"] >= 5


def test_markovian_forgets_bindings():
    cfg = perfect_config("pnp_twice", planner="markovian")
    res = run_episode(cfg, seed=0)
    assert not res.success
    # first call plans and picks; the wiped rebind then dies on
    # (container-of cube) with the cube in the gripper
    assert res.iterations == 1
    assert res.footer["planner_error"] is not None
    assert "UnboundVariable" in res.footer["planner_error"]
    assert res.footer["milestones"] == []


def test_code_planner_latency_measured():
    res = run_episode(perfect_config("swap_cups"), seed=0)
    lats = [r["latency_ns"] for r in res.records if r.get("kind") == "record"]
    assert lats and all(0 < v < 100_000_000 for v in lats)  # measured, not injected


def test_mock_latency_injected_exactly():
    cfg = perfect_config("swap_cups", planner="mock_vlm_graph",
                         mock_flake_p=0.0)
    res = run_episode(cfg, seed=0)
    lats = [r["latency_ns"] for r in res.records if r.get("kind") == "record"]
    assert lats and set(lats) == {3_000_000_000}
    assert res.success  # flake off: graph mock behaves like code


def test_rgb_mock_records_stack_decision():
    cfg = perfect_config("place_and_stack", planner="mock_vlm_rgb")
    seen = {True: 0, False: 0}
    for seed in range(12):
        res = run_episode(cfg, seed=seed)
        sd = res.footer["stack_decision"]
        if sd is not None:
            assert set(sd) == {"chosen", "actual", "correct"}
            assert sd["correct"] == (sd["chosen"] == sd["actual"])
            seen[sd["correct"]] += 1
    assert seen[True] and seen[False]  # the guess is a real coin


def test_rgb_mock_cannot_resume_pnp():
    cfg = perfect_config("pnp_twice", planner="mock_vlm_rgb")
    outcomes = [run_episode(cfg, seed=s).success for s in range(10)]
    assert not any(outcomes)


def test_flake_swaps_same_class_peer():
    cfg = perfect_config("swap_cups")
    world = init_world(cfg, 0)
    raw = render_views(world, cfg.cameras, cfg.geometry["lift_m"])
    g = init_graph(raw, make_task_spec("swap_cups"), cfg.thresholds)
    out = evaluate_policy(load_task_program("swap_cups"), g)
    assert out.subtask_instruction == "pick up the black cup"

    rng = Rng.substream(0, "flake")
    flaked = _flake(out, g, rng, flake_p=1.0)
    assert flaked.subtask_instruction == "pick up the blue cup"
    assert flaked.relevant_objects == frozenset({g.resolve("blue_cup")})
    assert flaked.emitted_step == out.emitted_step

    assert _flake(out, g, rng, flake_p=0.0) == out
    done = evaluate_policy(load_task_program("swap_cups"), g)  # restored
    assert _flake(out, g, Rng.substream(1, "flake"), 1.0) != out


def test_log_write_and_replay(tmp_path):
    path = tmp_path / "ep.jsonl"
    res = run_episode(perfect_config("pnp_twice"), seed=7, log_path=path)
    logged = load_log(path)
    assert len(logged) == len(res.records)
    fresh = replay_log(path)
    assert fresh.success == res.success
    assert fresh.footer["iterations"] == res.footer["iterations"]


def test_replay_detects_divergence(tmp_path):
    path = tmp_path / "ep.jsonl"
    run_episode(perfect_config("pnp_twice"), seed=3, log_path=path)
    lines = path.read_text().splitlines()
    rec = json.loads(lines[1])
    rec["planner"]["instruction"] = "pick up the banana"
    lines[1] = json.dumps(rec)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DivergenceAt) as exc_info:
        replay_log(path)
    assert exc_info.value.record_index == 1


def test_replay_rejects_other_versions(tmp_path):
    path = tmp_path / "ep.jsonl"
    run_episode(perfect_config("pnp_twice"), seed=3, log_path=path)
    lines = path.read_text().splitlines()
    header = json.loads(lines[0])
    header["version"] = "0.0.0-other"
    lines[0] = json.dumps(header)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(VersionMismatch):
        replay_log(path)


def test_replay_rejects_non_log(tmp_path):
    path = tmp_path / "junk.jsonl"
    path.write_text('{"kind":"other"}\n')
    with pytest.raises(ConfigError):
        replay_log(path)


def test_latency_is_volatile_in_replay(tmp_path):
    path = tmp_path / "ep.jsonl"
    run_episode(perfect_config("pnp_twice"), seed=5, log_path=path)
    lines = path.read_text().splitlines()
    rec = json.loads(lines[1])
    rec["latency_ns"] = 999_999_999_999
    lines[1] = json.dumps(rec)
    path.write_text("\n".join(lines) + "\n")
    replay_log(path)  # timing differences never diverge


def test_summarize_cell():
    ok = run_episode(perfect_config("pnp_twice"), seed=0)
    bad = run_episode(perfect_config("pnp_twice", planner="markovian"), seed=0)
    summary = summarize_cell([ok, bad])
    assert summary["episodes"] == 2
    assert summary["success_rate"] == 0.5
    assert summary["failures"]["planner_error"] == 1
    assert summary["failures"]["budget_exhausted"] == 0
    assert summary["milestone_rates"] == {"PnP Once": 0.5}
    assert summary["mean_chunks"] == pytest.approx((4 + 1) / 2)
    assert summary["median_latency_ms"] < 100.0
    assert summary["stack_decision_rate"] is None


def test_run_suite_and_table():
    base = perfect_config("pnp_twice")
    seen = []
    report = run_suite(base, seeds=2, planners=("code",), visions=("masked",),
                       distractor_counts=(0, 2), progress=seen.append)
    assert report["task"] == "pnp_twice"
    assert report["seeds"] == 2
    assert len(report["cells"]) == 2 == len(seen)
    for cell in report["cells"]:
        assert cell["success_rate"] == 1.0
        assert cell["episodes"] == 2
    assert [c["distractors"] for c in report["cells"]] == [0, 2]

    table = format_suite_table(report)
    lines = table.splitlines()
    assert lines[0].startswith("planner")
    assert len(lines) == 4  # header, rule, two cells
    assert "code" in lines[2] and "100.0%" in lines[2]


def test_default_noise_profile_loads():
    cfg = default_noise_config("swap_cups", distractors=8)
    assert cfg.perception_noise.feature_sigma == 0.2
    assert cfg.executor_error.base_p == 0.02
    res = run_episode(cfg, seed=0)
    assert isinstance(res.success, bool)  # noisy cell: any outcome is legal
