import json
import math
from pathlib import Path

import pytest

import tableplan
from tableplan.cli import main
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


def test_run_plan_override(capsys):
    # black-first oracle scored against a blue-first policy: completes, fails
    plan = str(PLANS / "swap_cups_blue.plan")
    assert main(["run", "--task", "swap_cups", "--plan", plan]) == 0
    assert "success=False" in capsys.readouterr().out


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
], ids=["truncated_line", "non_object_line", "header_without_config",
        "header_without_seed", "header_with_non_integer_seed",
        "header_with_float_seed", "header_with_string_seed",
        "header_with_bool_seed"])
def test_replay_malformed_log(good_log_lines, tmp_path, capsys, edit, message):
    log = tmp_path / "bad.jsonl"
    log.write_text("\n".join(edit(list(good_log_lines))) + "\n")
    capsys.readouterr()
    assert main(["replay", str(log)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err


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
