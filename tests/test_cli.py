import json
import math
from pathlib import Path

import pytest

import tableplan
from tableplan import harness
from tableplan.cli import main
from tableplan.harness import run_episode
from tableplan.config import SceneConfig

PLANS = Path(tableplan.__file__).parent / "plans"


def test_run_basic(capsys):
    assert main(["run", "--task", "pnp_twice", "--seed", "0"]) == 0
    out = capsys.readouterr().out
    assert "task=pnp_twice" in out
    assert "success=True" in out
    assert "chunks=4" in out
    assert "milestones=PnP Once" in out


def test_run_writes_log(tmp_path, capsys):
    log = tmp_path / "ep.jsonl"
    assert main(["run", "--task", "swap_cups", "--log", str(log)]) == 0
    assert "log written to" in capsys.readouterr().out
    lines = log.read_text().splitlines()
    assert json.loads(lines[0])["kind"] == "header"
    assert json.loads(lines[-1])["kind"] == "footer"


def test_run_plan_override(tmp_path, capsys):
    # black-first oracle scored against a blue-first policy: completes, fails
    blue_first = tmp_path / "blue_first.plan"
    blue_first.write_text((PLANS / "swap_cups.plan").read_text()
                          .replace("{variant}", "blue"))
    assert main(["run", "--task", "swap_cups", "--plan",
                 str(blue_first)]) == 0
    assert "success=False" in capsys.readouterr().out
    # --plan fills the file's {variant} with the config's variant
    plan = str(PLANS / "swap_cups.plan")
    assert main(["run", "--task", "swap_cups", "--variant", "blue",
                 "--plan", plan]) == 0
    assert "success=True" in capsys.readouterr().out


def test_run_noise_flags(capsys):
    assert main(["run", "--task", "pnp_twice", "--noise", "default",
                 "--seed", "3"]) == 0
    assert main(["run", "--task", "pnp_twice", "--noise", "none",
                 "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert out.count("task=pnp_twice") == 2


def test_run_needs_task_or_config(capsys):
    assert main(["run"]) == 2
    assert "need --config FILE or --task NAME" in capsys.readouterr().err


def test_run_from_config_file(tmp_path, capsys):
    cfg_path = tmp_path / "scene.json"
    cfg_path.write_text(json.dumps(SceneConfig(task="pnp_twice").to_dict()))
    assert main(["run", "--config", str(cfg_path), "--task", "swap_cups"]) == 0
    # an explicit config file wins over --task
    assert "task=pnp_twice" in capsys.readouterr().out


@pytest.mark.parametrize("section,name", [
    ("perception_noise", "tracker_drift_px_per_step"),
    ("perception_noise", "feature_sigma"),
    ("executor_error", "per_distractor_p"),
])
def test_run_rejects_non_finite_noise(tmp_path, capsys, section, name):
    doc = SceneConfig(task="swap_cups").to_dict()
    doc[section][name] = math.inf
    cfg_path = tmp_path / "scene.json"
    cfg_path.write_text(json.dumps(doc))  # written as the token Infinity
    assert "Infinity" in cfg_path.read_text()
    assert main(["run", "--config", str(cfg_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and name in captured.err


def test_run_rejects_bad_planner_choice():
    with pytest.raises(SystemExit) as exc_info:
        main(["run", "--task", "pnp_twice", "--planner", "oracle"])
    assert exc_info.value.code == 2


def test_validate_plan_ok(capsys):
    assert main(["validate-plan", str(PLANS / "swap_cups.plan")]) == 0
    out = capsys.readouterr().out
    assert out.startswith("OK: policy 'swap-cups'")
    assert "3 steps (stage, cross, settle), 5 bindings" in out


def test_validate_plan_error_position(tmp_path, capsys):
    bad = tmp_path / "bad.plan"
    bad.write_text("(policy p\n  (plan")
    assert main(["validate-plan", str(bad)]) == 2
    assert capsys.readouterr().out.strip() == \
        f"{bad}:2:3: unclosed '('; expected ')'"


def test_replay_round_trip(tmp_path, capsys):
    log = tmp_path / "ep.jsonl"
    assert main(["run", "--task", "place_and_stack", "--seed", "5",
                 "--log", str(log)]) == 0
    capsys.readouterr()
    assert main(["replay", str(log)]) == 0
    assert capsys.readouterr().out.startswith("identical:")


def test_replay_divergence_exit_code(tmp_path, capsys):
    log = tmp_path / "ep.jsonl"
    main(["run", "--task", "pnp_twice", "--log", str(log)])
    lines = log.read_text().splitlines()
    rec = json.loads(lines[1])
    rec["step"] = 999
    lines[1] = json.dumps(rec)
    log.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["replay", str(log)]) == 3
    assert capsys.readouterr().out.startswith("DIVERGED:")


def test_replay_missing_file(capsys):
    assert main(["replay", "/nonexistent/ep.jsonl"]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["run", "--config"],
    ["run", "--task", "pnp_twice", "--plan"],
    ["validate-plan"],
    ["replay"],
], ids=["run_config", "run_plan", "validate_plan", "replay"])
def test_directory_for_a_file_is_a_config_error(tmp_path, capsys, argv):
    assert main(argv + [str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")


@pytest.fixture(scope="module")
def good_log_lines(tmp_path_factory):
    log = tmp_path_factory.mktemp("log") / "ep.jsonl"
    assert main(["run", "--task", "pnp_twice", "--log", str(log)]) == 0
    return log.read_text().splitlines()


def _truncate_last(lines):
    return lines[:-1] + [lines[-1][:len(lines[-1]) // 2]]


def _edit_header(change):
    def edit(lines):
        header = json.loads(lines[0])
        change(header)
        return [json.dumps(header)] + lines[1:]
    return edit


@pytest.mark.parametrize("edit, message", [
    (_truncate_last, "not valid JSON"),
    (lambda lines: lines[:2] + ["[1, 2]"] + lines[2:], ":3: not a JSON object"),
    (_edit_header(lambda h: h.pop("config")), "header has no config"),
    (_edit_header(lambda h: h.pop("seed")), "header has no seed"),
    (_edit_header(lambda h: h.update(seed="abc")), "is not an integer"),
    (_edit_header(lambda h: h.update(seed=3.7)), "is not an integer"),
    (_edit_header(lambda h: h.update(seed="3")), "is not an integer"),
    (_edit_header(lambda h: h.update(seed=True)), "is not an integer"),
    (_edit_header(lambda h: h.update(version="0.1.0")), "log version"),
], ids=["truncated_line", "non_object_line", "header_without_config",
        "header_without_seed", "header_with_non_integer_seed",
        "header_with_float_seed", "header_with_string_seed",
        "header_with_bool_seed", "header_with_old_version"])
def test_replay_malformed_log(good_log_lines, tmp_path, capsys, edit, message):
    log = tmp_path / "bad.jsonl"
    log.write_text("\n".join(edit(list(good_log_lines))) + "\n")
    capsys.readouterr()
    assert main(["replay", str(log)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err


def _camera(**change):
    cam = {"view_id": "top", "image_size": [128, 128], "px_per_m": 100}
    cam.update(change)
    return {"cameras": [cam]}


@pytest.mark.parametrize("doc, message", [
    ({"perception_noise": {"feature_sigma": "abc"}},
     "perception_noise.feature_sigma must be a number"),
    ({"executor_error": {"base_p": True}},
     "executor_error.base_p must be a number"),
    ({"geometry": {"lift_m": "x"}}, "geometry.lift_m must be a number"),
    ({"geometry": {"arm_size": 0.1}}, "geometry.arm_size must be a list"),
    ({"geometry": [1]}, "geometry must be an object"),
    (_camera(image_size=["x", 1]), "image_size must be an integer"),
    (_camera(image_size=[128.5, 128]), "image_size must be an integer"),
    (_camera(look_at=[0.5]), "look_at must be a list of 2 numbers"),
    (_camera(view_id=["top"]), "view_id must be a string"),
    ({"cameras": 3}, "cameras must be a list"),
    ({"distractors": "4"}, "distractors must be an integer"),
    ({"chunk_horizon": 2.5}, "unknown config keys: ['chunk_horizon']"),
    ({"step_budget": True}, "step_budget must be an integer"),
    ({"near_threshold_m": None}, "near_threshold_m must be a number"),
    ({"table_bounds": [1]}, "table_bounds must be a list of 2 numbers"),
    ({"table_bounds": 1}, "table_bounds must be a list of 2 numbers"),
    ({"task": "custom", "custom_objects": [{"class": "unicorn"}]},
     "custom object class must be one of"),
    ({"task": "custom", "custom_objects": ["cube"]},
     "custom_objects entries must be objects"),
    ({"task": "custom", "custom_objects": [
        {"class": "cube", "position": ["x", 0.3]}]},
     "position must be a number"),
    ({"planner": "mock_vlm_graph", "mock_flake_p": 7},
     "mock_flake_p must be in [0, 1], got 7.0"),
    ({"mock_latency_s": -5}, "mock_latency_s must be finite and >= 0"),
    ({"near_threshold_m": "nan"}, "near_threshold_m must be finite, got nan"),
    ({"thresholds": {"tau_vis": "nan"}}, "tau_vis must be finite and >= 0"),
    ({"task": "custom", "custom_objects": [{"class": "cube", "colour": "red"}]},
     "unknown keys in custom object: ['colour']"),
    ({"task": "custom", "custom_objects": [{"class": "cube", "color": 5}]},
     "custom object color must be a string, got 5"),
    (_camera(rotaton_deg=20), "unknown keys in camera: ['rotaton_deg']"),
    ({"geometry": {"cup_radus": 0.05}}, "unknown keys in geometry: ['cup_radus']"),
    ({"task": "pnp_twice", "variant": 5}, "variant must be a string, got 5"),
], ids=["noise_string", "error_bool", "geometry_string", "geometry_shape",
        "geometry_not_object", "image_size_string", "image_size_float",
        "look_at_short", "view_id_list", "cameras_not_list",
        "distractors_string", "chunk_horizon_float", "step_budget_bool",
        "float_null", "table_bounds_short", "table_bounds_scalar",
        "custom_unknown_class", "custom_not_object",
        "custom_position_string", "mock_flake_p_above_one",
        "mock_latency_negative", "float_nan_string", "threshold_nan_string",
        "custom_unknown_key", "custom_color_not_string",
        "camera_unknown_key", "geometry_unknown_key", "variant_not_string"])
def test_run_rejects_wrongly_typed_config(tmp_path, capsys, doc, message):
    cfg_path = tmp_path / "scene.json"
    cfg_path.write_text(json.dumps(doc))
    assert main(["run", "--config", str(cfg_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and message in captured.err


def _not_utf8(path, text: str):
    path.write_bytes(text.encode("utf-8").replace(b"@", b"\xff"))
    return str(path)


@pytest.mark.parametrize("argv", [
    lambda tmp: ["run", "--config",
                 _not_utf8(tmp / "scene.json", '{"task": "@"}')],
    lambda tmp: ["run", "--task", "pnp_twice", "--plan",
                 _not_utf8(tmp / "p.plan", "(policy @)")],
    lambda tmp: ["validate-plan", _not_utf8(tmp / "p.plan", "(policy @)")],
    lambda tmp: ["replay", _not_utf8(tmp / "ep.jsonl", '{"kind": "@"}\n')],
], ids=["run_config", "run_plan", "validate_plan", "replay"])
def test_non_utf8_input_is_a_config_error(tmp_path, capsys, argv):
    args = argv(tmp_path)
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {args[-1]}: not UTF-8 text")


def test_suite_table_and_report(tmp_path, capsys):
    out_dir = tmp_path / "report"
    code = main(["suite", "--task", "pnp_twice", "--seeds", "2",
                 "--grid", "planner", "--planners", "code",
                 "--out", str(out_dir)])
    assert code == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0].startswith("planner")
    assert "100.0%" in out
    report = json.loads((out_dir / "suite.json").read_text())
    assert report["seeds"] == 2
    assert len(report["cells"]) == 1
    assert report["cells"][0]["success_rate"] == 1.0
    assert (out_dir / "suite.txt").read_text().startswith("planner")


def test_suite_rejects_unknown_axis(capsys):
    assert main(["suite", "--task", "pnp_twice", "--seeds", "1",
                 "--grid", "sauce"]) == 2
    assert "unknown grid axes" in capsys.readouterr().err


def test_suite_rejects_unknown_planner_value(capsys):
    assert main(["suite", "--task", "pnp_twice", "--seeds", "1",
                 "--grid", "planner", "--planners", "code,psychic"]) == 2
    assert "unknown planner mode" in capsys.readouterr().err


def test_suite_checks_every_cell_before_any_episode(monkeypatch, capsys):
    calls = []

    def counting(cfg, seed, **kw):
        calls.append((cfg.distractors, seed))
        return run_episode(cfg, seed, **kw)

    monkeypatch.setattr(harness, "run_episode", counting)
    argv = ["suite", "--task", "pnp_twice", "--seeds", "1",
            "--grid", "distractors", "--distractors"]
    assert main(argv + ["0,-1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "distractors must be >= 0" in err
    assert calls == []
    assert main(argv + ["0,1"]) == 0
    assert calls == [(0, 0), (1, 0)]


@pytest.mark.parametrize("args,message", [
    (["--grid", "distractors", "--distractors", "1,x"],
     "--distractors must be comma-separated integers"),
    (["--seeds", "0"], "--seeds must be at least 1"),
    (["--grid", "planner", "--planners", ""],
     "--planners must list at least one value"),
    (["--grid", "vision", "--visions", " , "],
     "--visions must list at least one value"),
    (["--grid", "distractors", "--distractors", ""],
     "--distractors must list at least one value"),
])
def test_suite_rejects_bad_counts(args, message, capsys):
    argv = ["suite", "--task", "swap_cups", "--seeds", "1", *args]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err


def test_assoc_bench(capsys):
    assert main(["assoc-bench", "--scenes", "5"]) == 0
    out = capsys.readouterr().out
    assert "exact scenes: 5/5" in out
    assert "pair accuracy:" in out


@pytest.mark.parametrize("args,message", [
    (["--scenes", "-2"], "--scenes must be at least 1"),
    (["--scenes", "0"], "--scenes must be at least 1"),
    (["--sigma", "-0.5"], "--sigma must be non-negative"),
    (["--sigma", "nan"], "--sigma must be non-negative"),
    (["--sigma", "inf"], "--sigma must be non-negative"),
])
def test_assoc_bench_rejects_bad_args(args, message, capsys):
    assert main(["assoc-bench", *args]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and message in captured.err


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc_info:
        main(["--version"])
    assert exc_info.value.code == 0
    assert capsys.readouterr().out.strip() == tableplan.__version__
