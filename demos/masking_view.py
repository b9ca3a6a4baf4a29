"""Show what the executor sees with and without clutter-free masking.

Renders a swap scene with distractors, asks the policy for its first
subtask, and prints the overhead label map twice: raw (everything) and
masked (only the subtask's relevant objects).  The clutter count under
each view is what drives the executor's mis-grounding probability.
"""

from __future__ import annotations

import argparse

import numpy as np

from tableplan.config import perfect_config
from tableplan.dsl import evaluate_policy
from tableplan.graph import init_graph
from tableplan.harness import load_task_program
from tableplan.perception import make_task_spec
from tableplan.prompting import (BACKGROUND, clutter_free_obs,
                                 raw_obs_passthrough, retention_mask)
from tableplan.render import render_views
from tableplan.world import init_world

_GLYPHS = "abcdefghijklmnopqrstuvwxyz"


def _ascii(label_map, step=4) -> str:
    ids = {}
    rows = []
    for r in range(0, label_map.shape[0], step):
        row = []
        for c in range(0, label_map.shape[1], step):
            v = int(label_map[r, c])
            if v == 0:
                row.append(".")
            else:
                row.append(_GLYPHS[ids.setdefault(v, len(ids)) % len(_GLYPHS)])
        rows.append("".join(row))
    return "\n".join(rows)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--distractors", type=int, default=8)
    args = ap.parse_args()

    cfg = perfect_config("swap_cups", distractors=args.distractors)
    world = init_world(cfg, args.seed)
    raw = render_views(world, cfg.cameras, cfg.geometry["lift_m"])
    spec = make_task_spec(cfg.task, cfg.variant)
    graph = init_graph(raw, spec, cfg.thresholds)

    out = evaluate_policy(load_task_program(cfg.task, cfg.variant), graph)
    relevant = set(out.relevant_objects) | {graph.arm_node_id()}
    print(f'first subtask: "{out.subtask_instruction}"')
    print(f"relevant nodes: {sorted(relevant)} of {len(graph.nodes)} total\n")

    masked = clutter_free_obs(raw, graph, relevant, out.subtask_instruction)
    passthrough = raw_obs_passthrough(raw, relevant, out.subtask_instruction)
    label = raw.views["overhead"].label_map
    retained = retention_mask(graph, relevant, "overhead", label.shape)
    for title, obs, labels in (
            ("raw", passthrough, label),
            ("masked", masked, np.where(retained, label, BACKGROUND))):
        n = len(obs.visible["overhead"])
        print(f"-- overhead, {title}: {n} objects visible --")
        print(_ascii(labels))
        print()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
