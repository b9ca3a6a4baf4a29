"""Association benchmark: random scenes scored against source-id identity.

Shared by the assoc-bench CLI subcommand and the acceptance tests.  Scenes
are "custom" task layouts with up to 8 objects of mixed classes; a scene
counts as exact when every object visible in both views is paired with
itself and nothing is paired wrongly.
"""

from __future__ import annotations

from .config import (CUSTOM_CLASSES, AssocThresholds, NoiseConfig,
                     SceneConfig)
from .graph import associate
from .perception import make_task_spec, segment
from .render import render_views
from .rng import Rng
from .world import LayoutInfeasible, init_world

_COLORS = ("red", "green", "blue", "black", "yellow", "purple", "orange", "white")


def random_scene_config(seed: int, max_objects: int = 8) -> SceneConfig:
    """2..max_objects objects of random class and color, sampler-placed."""
    rng = Rng.substream(seed, "assoc_bench")
    n = 2 + rng.randrange(max_objects - 1)
    objs = []
    plates = 0
    for _ in range(n):
        cls = CUSTOM_CLASSES[rng.randrange(len(CUSTOM_CLASSES))]
        if cls == "plate":
            # plates are large; more than two rarely fit with full visibility
            plates += 1
            if plates > 2:
                cls = "cube"
        objs.append({"class": cls, "color": _COLORS[rng.randrange(len(_COLORS))]})
    cfg = SceneConfig(task="custom", custom_objects=tuple(objs))
    cfg.validate()
    return cfg


def association_trial(seed: int, sigma: float = 0.0,
                      thresholds: AssocThresholds = AssocThresholds()) -> dict:
    """Run one scene through segmentation + association; score vs identity.

    Returns None-free stats or raises LayoutInfeasible when the drawn scene
    cannot be placed (callers resample with the next seed).
    """
    cfg = random_scene_config(seed)
    world = init_world(cfg, seed)
    raw = render_views(world, cfg.cameras, cfg.geometry["lift_m"])
    classes = tuple(sorted({o["class"] for o in cfg.custom_objects}))
    spec = make_task_spec("custom", custom_classes=classes)
    noise = NoiseConfig(feature_sigma=sigma)
    dets = segment(raw, noise, Rng.substream(seed, "perception"), spec)
    views = sorted(dets)
    pairs, singles, _ = associate(dets, thresholds)
    in_both = ({d.source_id for d in dets[views[0]]}
               & {d.source_id for d in dets[views[1]]})
    got = {(a.source_id, b.source_id) for a, b in pairs}
    want = {(s, s) for s in in_both}
    return {
        "seed": seed,
        "objects": len(in_both),
        "paired": len(pairs),
        "correct": len(got & want),
        "wrong": len(got - want),
        "exact": got == want,
        "pairs": sorted(got),
        "detections": dets,
        "views": views,
    }


def run_assoc_bench(scenes: int, sigma: float, seed0: int = 0) -> dict:
    """First `scenes` feasible layouts from seed0 upward, scored vs identity."""
    done = 0
    exact = 0
    objects = 0
    correct = 0
    wrong = 0
    infeasible = 0
    seed = seed0
    while done < scenes:
        try:
            trial = association_trial(seed, sigma)
        except LayoutInfeasible:
            infeasible += 1
            seed += 1
            continue
        seed += 1
        done += 1
        exact += trial["exact"]
        objects += trial["objects"]
        correct += trial["correct"]
        wrong += trial["wrong"]
    return {
        "scenes": scenes,
        "sigma": sigma,
        "seed0": seed0,
        "exact_scenes": exact,
        "exact_rate": exact / scenes if scenes else 0.0,
        "objects_in_both_views": objects,
        "correct_pairs": correct,
        "wrong_pairs": wrong,
        "pair_accuracy": correct / objects if objects else 0.0,
        "infeasible_draws": infeasible,
    }
