"""Command-line interface: run, suite, replay, validate-plan, assoc-bench.

Exit codes: 0 success, 2 configuration or parse error, 3 replay divergence.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

from . import __version__
from .bench import run_assoc_bench
from .config import (ConfigError, NOISE_PROFILES, PLANNER_MODES, SceneConfig,
                     VISION_MODES)
from .dsl import ParseError, load_program
from .harness import (DivergenceAt, VersionMismatch, format_suite_table,
                      replay_log, run_episode, run_suite)
from .world import LayoutInfeasible

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIVERGENCE = 3


def _base_config(args, **overrides) -> SceneConfig:
    """The --config file or --task default, with the flags' overrides."""
    if args.config:
        cfg = SceneConfig.load(args.config)
    elif args.task:
        cfg = SceneConfig(task=args.task)
    else:
        raise ConfigError("need --config FILE or --task NAME")
    if args.variant:
        overrides["variant"] = args.variant
    if args.noise:
        overrides.update(NOISE_PROFILES[args.noise])
    return replace(cfg, **overrides)


def _cmd_run(args) -> int:
    flags = {"planner": args.planner, "vision": args.vision,
             "distractors": args.distractors}
    cfg = _base_config(args, **{k: v for k, v in flags.items() if v is not None})
    program = load_program(args.plan, cfg.variant) if args.plan else None
    result = run_episode(cfg, args.seed, log_path=args.log, program=program)
    f = result.footer
    milestones = ",".join(f["milestones"]) or "-"
    print(f"task={cfg.task} planner={cfg.planner} vision={cfg.vision} "
          f"seed={args.seed} success={f['success']} chunks={f['iterations']} "
          f"steps={f['sim_steps']} milestones={milestones}")
    if f["planner_error"]:
        print(f"planner_error: {f['planner_error']}")
    if f["executor_error"]:
        print(f"executor_error: {f['executor_error']}")
    if args.log:
        print(f"log written to {args.log}")
    return EXIT_OK


def _split(text: str) -> list:
    return [part.strip() for part in text.split(",") if part.strip()]


def _cmd_suite(args) -> int:
    cfg = _base_config(args)
    if args.seeds < 1:
        raise ConfigError(f"--seeds must be at least 1, got {args.seeds}")
    grid = set(_split(args.grid))
    unknown = grid - {"planner", "vision", "distractors"}
    if unknown:
        raise ConfigError(f"unknown grid axes: {sorted(unknown)}")
    planners = _split(args.planners) if "planner" in grid else [cfg.planner]
    visions = _split(args.visions) if "vision" in grid else [cfg.vision]
    if "distractors" in grid:
        try:
            distractors = [int(x) for x in _split(args.distractors)]
        except ValueError:
            raise ConfigError(f"--distractors must be comma-separated "
                              f"integers, got {args.distractors!r}") from None
    else:
        distractors = [cfg.distractors]
    for flag, values in (("--planners", planners), ("--visions", visions),
                         ("--distractors", distractors)):
        if not values:
            raise ConfigError(f"{flag} must list at least one value")

    def progress(cell):
        print(f"  done: planner={cell['planner']} vision={cell['vision']} "
              f"d={cell['distractors']} success={cell['success_rate']:.1%}",
              file=sys.stderr)

    report = run_suite(cfg, args.seeds, planners, visions, distractors,
                       seed0=args.seed0,
                       progress=progress if args.verbose else None)
    table = format_suite_table(report)
    print(table, end="")
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "suite.json").write_text(
            json.dumps(report, indent=2, sort_keys=True) + "\n",
            encoding="utf-8")
        (out / "suite.txt").write_text(table, encoding="utf-8")
        print(f"report written to {out}/suite.json and {out}/suite.txt")
    return EXIT_OK


def _cmd_replay(args) -> int:
    try:
        result = replay_log(args.log)
    except DivergenceAt as exc:
        print(f"DIVERGED: {exc}")
        return EXIT_DIVERGENCE
    print(f"identical: {len(result.records)} records, "
          f"success={result.success}")
    return EXIT_OK


def _cmd_validate_plan(args) -> int:
    try:
        program = load_program(args.file)
    except ParseError as exc:
        line = getattr(exc, "line", "?")
        col = getattr(exc, "col", "?")
        print(f"{args.file}:{line}:{col}: {getattr(exc, 'reason', exc)}")
        return EXIT_CONFIG
    steps = ", ".join(program.step_index)
    print(f"OK: policy {program.name!r}, {len(program.step_index)} steps "
          f"({steps}), {len(program.bindings)} bindings")
    return EXIT_OK


def _cmd_assoc_bench(args) -> int:
    if args.scenes < 1:
        raise ConfigError(f"--scenes must be at least 1, got {args.scenes}")
    if not (math.isfinite(args.sigma) and args.sigma >= 0.0):
        raise ConfigError(f"--sigma must be non-negative and finite, "
                          f"got {args.sigma}")
    report = run_assoc_bench(args.scenes, args.sigma, seed0=args.seed0)
    print(f"scenes={report['scenes']} sigma={report['sigma']}")
    print(f"exact scenes: {report['exact_scenes']}/{report['scenes']} "
          f"({report['exact_rate']:.1%})")
    print(f"pair accuracy: {report['correct_pairs']}/"
          f"{report['objects_in_both_views']} ({report['pair_accuracy']:.1%}), "
          f"{report['wrong_pairs']} wrong")
    if report["infeasible_draws"]:
        print(f"skipped {report['infeasible_draws']} infeasible layout draws")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tableplan",
        description="Tabletop plan/perceive/act benchmark harness")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_scene_args(p):
        p.add_argument("--config", help="scene config JSON file")
        p.add_argument("--task", help="task name (alternative to --config)")
        p.add_argument("--variant", help="task variant, filled in for each "
                       "{variant} of the plan (swap_cups: black|blue)")
        p.add_argument("--noise", choices=tuple(NOISE_PROFILES),
                       help="override noise profile")

    p = sub.add_parser("run", help="run one episode")
    add_scene_args(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--planner", choices=PLANNER_MODES)
    p.add_argument("--vision", choices=VISION_MODES)
    p.add_argument("--distractors", type=int)
    p.add_argument("--log", help="write the episode JSONL log here")
    p.add_argument("--plan", help="override the bundled .plan file")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("suite", help="run a planner/vision/distractor grid")
    add_scene_args(p)
    p.add_argument("--seeds", type=int, required=True)
    p.add_argument("--seed0", type=int, default=0)
    p.add_argument("--grid", default="planner,vision",
                   help="comma list of axes to sweep "
                        "(planner,vision,distractors)")
    p.add_argument("--planners", default="code,markovian",
                   help="planner axis values")
    p.add_argument("--visions", default="masked,raw",
                   help="vision axis values")
    p.add_argument("--distractors", default="0,4,8",
                   help="distractor axis values")
    p.add_argument("--out", help="directory for suite.json / suite.txt")
    p.add_argument("--verbose", action="store_true",
                   help="print per-cell progress to stderr")
    p.set_defaults(func=_cmd_suite)

    p = sub.add_parser("replay", help="verify a logged episode reproduces")
    p.add_argument("log")
    p.set_defaults(func=_cmd_replay)

    p = sub.add_parser("validate-plan", help="parse and check a .plan file")
    p.add_argument("file")
    p.set_defaults(func=_cmd_validate_plan)

    p = sub.add_parser("assoc-bench",
                       help="cross-view association vs identity oracle")
    p.add_argument("--scenes", type=int, default=100)
    p.add_argument("--sigma", type=float, default=0.0)
    p.add_argument("--seed0", type=int, default=0)
    p.set_defaults(func=_cmd_assoc_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, VersionMismatch, ParseError, LayoutInfeasible,
            OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
