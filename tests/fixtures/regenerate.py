"""Regenerate the committed golden fixtures.

Run from the repo root after an intentional behavior change:

    python3 tests/fixtures/regenerate.py

Writes dsl_goldens.jsonl (30 planner-call records: for each, the graph
snapshot the planner saw and the output it produced) and
golden_episode.jsonl (one full noisy-episode log used by the replay tests).
Both files are deterministic; rerunning on an unchanged tree is a no-op.
"""

import json
import sys
from pathlib import Path

# import the package from src/, installed or not
sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))

from tableplan.config import default_noise_config, perfect_config
from tableplan.harness import run_episode
from tableplan.serialize import canonical_json

FIXTURES = Path(__file__).parent

# (task, seed, how many leading records to keep)
GOLDEN_CALLS = (
    ("pnp_twice", 0, 5),
    ("pnp_twice", 1, 5),
    ("place_and_stack", 0, 5),
    ("place_and_stack", 1, 5),
    ("swap_cups", 0, 7),
    ("swap_cups", 1, 3),
)


def write_dsl_goldens() -> int:
    lines = []
    for task, seed, keep in GOLDEN_CALLS:
        result = run_episode(perfect_config(task), seed)
        assert result.success, (task, seed)
        records = [r for r in result.records if r.get("kind") == "record"]
        assert len(records) >= keep, (task, seed, len(records))
        for rec in records[:keep]:
            lines.append(canonical_json({
                "task": task,
                "variant": "black",
                "seed": seed,
                "iter": rec["iter"],
                "snapshot": rec["graph"],
                "expected": rec["planner"],
            }))
    (FIXTURES / "dsl_goldens.jsonl").write_text("\n".join(lines) + "\n",
                                                encoding="utf-8")
    return len(lines)


def write_golden_episode() -> bool:
    cfg = default_noise_config("swap_cups", distractors=4)
    path = FIXTURES / "golden_episode.jsonl"
    result = run_episode(cfg, seed=42, log_path=path)
    # wall-clock fields are excluded from replay comparison anyway; zero them
    # so regeneration is byte-stable
    lines = []
    for line in path.read_text(encoding="utf-8").splitlines():
        rec = json.loads(line)
        if "latency_ns" in rec:
            rec["latency_ns"] = 0
        if "wall_time_s" in rec:
            rec["wall_time_s"] = 0.0
        lines.append(canonical_json(rec))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return result.success


def main() -> int:
    n = write_dsl_goldens()
    ok = write_golden_episode()
    print(f"dsl_goldens.jsonl: {n} records")
    print(f"golden_episode.jsonl: success={ok}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
