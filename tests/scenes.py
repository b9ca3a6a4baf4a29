"""Seeded random rendered scenes for the box-local equivalence tests, and
the scene configs of the benchmark's workloads.

Initial layouts keep every object fully inside both frames, so these scenes
move about half the objects to random poses that reach past the table edge
(clipped at, or wholly outside, the frame) and onto random z layers (painted
over or under their neighbours).  Objects inside an opaque cup stay hidden.
"""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path

import numpy as np

from tableplan.config import (NoiseConfig, SceneConfig, default_noise_config,
                              perfect_config)
from tableplan.graph import init_graph
from tableplan.perception import make_task_spec, track
from tableplan.render import Renderer
from tableplan.rng import Rng
from tableplan.world import TABLE_BOUNDS, LayoutInfeasible, init_world

TASKS = ("pnp_twice", "place_and_stack", "swap_cups")
CONFIGS = Path(__file__).parents[1] / "configs"


def workload_configs() -> list:
    """The scene configs the benchmark's four workloads cycle through."""
    return ([perfect_config(t) for t in TASKS]
            + [SceneConfig.load(CONFIGS / "swap_noisy.json"),
               perfect_config("swap_cups", distractors=8, vision="raw")]
            + [default_noise_config("place_and_stack", planner=p)
               for p in ("code", "mock_vlm_graph", "mock_vlm_rgb")])


def scattered_world(rng: np.random.Generator):
    """(cfg, world) with a random task, distractors and scattered poses."""
    while True:
        task = TASKS[int(rng.integers(len(TASKS)))]
        cfg = SceneConfig(task=task, distractors=int(rng.integers(0, 9)))
        try:
            world = init_world(cfg, int(rng.integers(1 << 30)))
        except LayoutInfeasible:
            continue
        break
    objects = []
    for obj in world.objects:
        if rng.random() < 0.5:
            obj = replace(obj, x=float(rng.uniform(-0.12, 1.12)),
                          y=float(rng.uniform(-0.12, 0.87)),
                          z_layer=int(rng.integers(1, 4)))
        objects.append(obj)
    return cfg, replace(world, objects=tuple(objects))


def scattered_scenes(count: int, seed: int):
    """Yield (cfg, world, raw) for `count` scattered scenes."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        cfg, world = scattered_world(rng)
        raw = Renderer(cfg.cameras, cfg.geometry["lift_m"]).render(world)
        yield cfg, world, raw


def graph_and_drifted_tracks(cfg, raw, seed: int):
    """The scene's initial graph and its masks tracked with a drift of up
    to 24 px, which carries masks near the edge partly off the frame."""
    graph = init_graph(raw, make_task_spec(cfg.task))
    tracked = track(graph.sorted_nodes(), raw,
                    NoiseConfig(tracker_drift_px_per_step=8.0),
                    Rng.substream(seed, "drift"), steps_elapsed=3)
    return graph, tracked


def full_mask(region) -> np.ndarray:
    """The full-frame bool mask a Region stands for."""
    mask = np.zeros(region.frame, dtype=bool)
    r0, r1, c0, c1 = region.box
    mask[r0:r1, c0:c1] = region.crop
    return mask


def rle_encode(mask: np.ndarray) -> list:
    """Row-major run lengths, starting with a zero-run (possibly length 0),
    by a whole-frame scan: the reference for the box-local Region.rle."""
    flat = np.asarray(mask, dtype=bool).ravel()
    if flat.size == 0:
        return []
    changes = np.flatnonzero(flat[1:] != flat[:-1]) + 1
    bounds = np.concatenate(([0], changes, [flat.size]))
    runs = np.diff(bounds).tolist()
    if flat[0]:
        runs.insert(0, 0)
    return runs


def full_frame_box(mask: np.ndarray):
    """Tight (row0, row1, col0, col1) box by a whole-frame scan, or None."""
    rows, cols = np.nonzero(mask)
    if rows.size == 0:
        return None
    return (int(rows.min()), int(rows.max()) + 1,
            int(cols.min()), int(cols.max()) + 1)


def touches_edge(box: tuple, shape: tuple) -> bool:
    return box[0] == 0 or box[2] == 0 or box[1] == shape[0] or box[3] == shape[1]


SEQUENCE_OBJECTS = tuple({"class": c} for c in
                         ("plate", "cup", "cube", "block", "sponge", "marker"))


def move_sequence(rng: np.random.Generator, frames: int):
    """(cfg, worlds): a scene of a plate, an opaque cup, a cube and three
    distractors, then `frames` - 1 seeded edits, one per frame, each with a
    nudge of the arm half the time.  The edits scatter an object (past the
    frame edge at times, onto a random z layer), bring a scattered object
    back onto the table, change only a z layer, hide the cube inside the cup
    or reveal it, tuck a distractor fully under the plate, or do nothing."""
    cfg = SceneConfig(task="custom", custom_objects=SEQUENCE_OBJECTS)
    while True:
        try:
            world = init_world(cfg, int(rng.integers(1 << 30)))
        except LayoutInfeasible:
            continue
        break
    lift = cfg.geometry["lift_m"]
    bw, bh = TABLE_BOUNDS
    ids = {o.class_name: o.id for o in world.objects}
    worlds = [world]
    for _ in range(frames - 1):
        objs = {o.id: o for o in world.objects}
        edit = ("scatter", "back", "z", "hide", "tuck",
                "none")[int(rng.integers(6))]
        movable = [o for o in objs.values() if o.class_name != "arm"]
        obj = movable[int(rng.integers(len(movable)))]
        if edit == "scatter":
            objs[obj.id] = replace(obj, x=float(rng.uniform(-0.12, bw + 0.12)),
                                   y=float(rng.uniform(-0.12, bh + 0.12)),
                                   z_layer=int(rng.integers(1, 4)))
        elif edit == "back":
            away = [o for o in movable
                    if not (0 <= o.x <= bw and 0 <= o.y <= bh)]
            if away:
                obj = away[int(rng.integers(len(away)))]
                objs[obj.id] = replace(obj, x=float(rng.uniform(0.1, bw - 0.1)),
                                       y=float(rng.uniform(0.1, bh - 0.1)))
        elif edit == "z":
            objs[obj.id] = replace(obj, z_layer=1 + obj.z_layer % 3)
        elif edit == "hide":
            cube = objs[ids["cube"]]
            inside = None if cube.container_of else ids["cup"]
            objs[cube.id] = replace(cube, container_of=inside)
        elif edit == "tuck":
            small = objs[ids[("block", "sponge", "marker")[
                int(rng.integers(3))]]]
            # the plate renders one layer up, centred on the distractor
            objs[ids["plate"]] = replace(objs[ids["plate"]], x=small.x,
                                         y=small.y + lift,
                                         z_layer=small.z_layer + 1)
        if rng.random() < 0.5:
            arm = objs[ids["arm"]]
            objs[arm.id] = replace(arm, x=arm.x + float(rng.uniform(-0.05, 0.05)),
                                   y=arm.y + float(rng.uniform(-0.05, 0.05)))
        world = replace(world, objects=tuple(objs[i] for i in sorted(objs)),
                        step_count=world.step_count + 1)
        worlds.append(world)
    return cfg, worlds
