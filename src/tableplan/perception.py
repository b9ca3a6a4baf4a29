"""Perception stand-ins: segmentation, relevance filtering, tracking.

Appearance features are a pure function of an object's appearance seed
(a seeded hash-to-sphere map), so the same object yields the same base
vector in every view, episode, and platform.  All degradations are
explicit, seeded, and default to off.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .config import NoiseConfig
from .region import Region
from .rng import Rng, mix64

FEATURE_DIM = 16

# Confused detections take a random clutter class, which the relevance
# filter then discards; the sets are disjoint from task classes by design.
from .world import ARM_CLASS, DISTRACTOR_CLASSES


@lru_cache(maxsize=8192)
def base_feature(appearance_seed: int) -> np.ndarray:
    """Unit vector on S^15 derived deterministically from the seed.

    Gaussian components via Box-Muller over SplitMix64 draws; identical
    across views because it depends on nothing but the seed.  The returned
    array is cached and marked read-only.
    """
    rng = Rng(mix64(appearance_seed ^ 0xFEA70125))
    v = np.empty(FEATURE_DIM, dtype=np.float64)
    for i in range(FEATURE_DIM):
        v[i] = rng.normal()
    norm = math.sqrt(float(np.dot(v, v)))
    if norm == 0.0:  # pragma: no cover - measure-zero
        v[0], norm = 1.0, 1.0
    v /= norm
    v.setflags(write=False)
    return v


def cosine_distance(a: np.ndarray, b: np.ndarray) -> float:
    return 1.0 - float(np.dot(a, b))


@dataclass(frozen=True)
class Detection:
    view_id: str
    source_id: int  # simulator id behind the mask; used only for the gripper
    # mapping and by test oracles, never for cross-view matching
    region: Region
    class_name: str
    attributes: dict
    feature: np.ndarray


@dataclass(frozen=True)
class TaskSpec:
    task_id: str
    instruction: str
    relevant_classes: frozenset

    def admits(self, class_name: str) -> bool:
        return class_name == ARM_CLASS or class_name in self.relevant_classes


def make_task_spec(task: str, variant: str = "black",
                   custom_classes: tuple = ()) -> TaskSpec:
    if task == "pnp_twice":
        return TaskSpec(task, "move the cube to the other plate, then bring it back",
                        frozenset({"cube", "plate"}))
    if task == "place_and_stack":
        return TaskSpec(task, "drop the cube into the nearest cup, then stack the "
                              "other cup on top",
                        frozenset({"cube", "cup"}))
    if task == "swap_cups":
        return TaskSpec(task, f"swap the two cups using the free plate, moving the "
                              f"{variant} cup first",
                        frozenset({"cup", "plate"}))
    if task == "custom":
        return TaskSpec(task, "custom layout", frozenset(custom_classes))
    raise ValueError(task)


def perturbed_feature(base: np.ndarray, sigma: float, rng: Rng) -> np.ndarray:
    """Add isotropic noise of total variance sigma^2, then renormalize."""
    if sigma <= 0.0:
        return base
    per_coord = sigma / math.sqrt(FEATURE_DIM)
    noisy = base.copy()
    for i in range(FEATURE_DIM):
        noisy[i] += per_coord * rng.normal()
    norm = math.sqrt(float(np.dot(noisy, noisy)))
    return noisy / norm if norm > 0 else base


def segment(raw_obs, noise: NoiseConfig, rng: Rng) -> dict:
    """Per-view detections from the rendered label maps.

    Iteration order (sorted view, sorted source id) is part of the replay
    contract: noise draws happen in exactly this order.
    """
    out: dict[str, list] = {}
    for view_id in sorted(raw_obs.views):
        view = raw_obs.views[view_id]
        dets = []
        for source_id in sorted(view.records):
            rec = view.records[source_id]
            if noise.mask_dropout_occlusion > 0.0 and \
                    rec.visible_fraction < noise.mask_dropout_occlusion:
                continue
            class_name = rec.class_name
            attributes = dict(rec.attributes)
            if noise.class_confusion_p > 0.0 and rng.random() < noise.class_confusion_p:
                class_name = DISTRACTOR_CLASSES[rng.randrange(len(DISTRACTOR_CLASSES))]
                attributes = {}
            feature = perturbed_feature(rec.base_feature, noise.feature_sigma, rng)
            dets.append(Detection(
                view_id=view_id, source_id=source_id,
                region=rec.region, class_name=class_name,
                attributes=attributes, feature=feature,
            ))
        out[view_id] = dets
    return out


def identify_relevant(detections: dict, task_spec: TaskSpec) -> dict:
    """Keep detections whose (possibly confused) class the task admits.

    The robot arm always survives the filter; downstream consumers tell it
    apart by its class name.
    """
    out = {}
    for view_id in sorted(detections):
        kept = []
        for det in detections[view_id]:
            if not task_spec.admits(det.class_name):
                continue
            kept.append(det)
        out[view_id] = kept
    return out


def track(nodes: list, raw_obs, noise: NoiseConfig, rng: Rng,
          steps_elapsed: int) -> dict:
    """Oracle tracker with configurable degradation.

    For each (node, view) grounding the mask is the current frame's region
    for the grounding's source id, translated by a random drift of
    magnitude at most tracker_drift_px_per_step * steps_elapsed.  With
    tracker_loss_p the propagated mask is dropped instead.  Returns
    {(node_id, view_id): Region}; absent keys mean the tracker lost the
    object in that view.
    """
    out = {}
    for node in sorted(nodes, key=lambda n: n.node_id):
        for view_id in sorted(node.groundings):
            if view_id not in raw_obs.views:
                continue
            view = raw_obs.views[view_id]
            source_id = node.groundings[view_id].source_id
            rec = view.records.get(source_id)
            if rec is None:
                continue  # no visible pixels in this frame
            if noise.tracker_loss_p > 0.0 and rng.random() < noise.tracker_loss_p:
                continue
            region = rec.region
            if noise.tracker_drift_px_per_step > 0.0:
                mag = noise.tracker_drift_px_per_step * steps_elapsed * rng.random()
                angle = rng.uniform(0.0, 2.0 * math.pi)
                dr = int(round(mag * math.sin(angle)))
                dc = int(round(mag * math.cos(angle)))
                region = region.shifted(dr, dc)
                if region is None:
                    continue  # drifted off the frame
            out[(node.node_id, view_id)] = region
    return out
