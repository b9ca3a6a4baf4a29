"""Perception stand-ins: segmentation with relevance filtering, tracking.

Appearance features are a pure function of an object's appearance seed
(a seeded hash-to-sphere map), so the same object yields the same base
vector in every view, episode, and platform.  All degradations are
explicit, seeded, and default to off.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import NoiseConfig
from .region import Region
from .rng import Rng, mix64, normal_block

FEATURE_DIM = 16

# Confused detections take a random clutter class, which the relevance
# filter in `segment` then discards; the sets are disjoint from task
# classes by design.
from .world import ARM_CLASS, DISTRACTOR_CLASSES, task_entry


def base_features(appearance_seeds: list) -> list:
    """One unit vector on S^15 per appearance seed, all drawn in one
    `normal_block` pass.

    Gaussian components via Box-Muller over SplitMix64 draws; identical
    across views because each depends on nothing but its seed.  Each
    returned array is new and marked read-only.
    """
    if not appearance_seeds:
        return []
    block = normal_block([mix64(s ^ 0xFEA70125) for s in appearance_seeds],
                         FEATURE_DIM)
    out = []
    for v in block:
        # one np.dot per row: a batched reduction may sum in another order
        norm = math.sqrt(float(np.dot(v, v)))
        if norm == 0.0:  # pragma: no cover - measure-zero
            v[0], norm = 1.0, 1.0
        v = v / norm
        v.setflags(write=False)
        out.append(v)
    return out


def base_feature(appearance_seed: int) -> np.ndarray:
    """The base feature of one appearance seed: `base_features([seed])[0]`."""
    return base_features([appearance_seed])[0]


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
    instruction: str
    relevant_classes: frozenset

    def admits(self, class_name: str) -> bool:
        return class_name == ARM_CLASS or class_name in self.relevant_classes


def make_task_spec(task: str, variant: str = "black",
                   custom_classes: tuple = ()) -> TaskSpec:
    """The task's instruction, formatted with the variant, and its relevant
    classes, both read from its world.TASK_TABLE entry; a custom task keeps
    the classes of its custom objects.  ValueError for an unknown task."""
    entry = task_entry(task)
    return TaskSpec(entry.instruction.format(variant=variant),
                    entry.classes or frozenset(custom_classes))


def perturbed_feature(bases: list, sigma: float, start_states: list) -> list:
    """Each base vector plus isotropic noise of total variance sigma^2,
    renormalized.

    The noise of bases[k] is the FEATURE_DIM `normal()` values an Rng at
    start_states[k] draws, so the result is bit-equal to perturbing one
    feature at a time; all of them are drawn in one `normal_block` pass.
    With sigma == 0 the bases come back unchanged, and so does any base
    whose noisy vector has norm zero.
    """
    if sigma <= 0.0 or not bases:
        return list(bases)
    per_coord = sigma / math.sqrt(FEATURE_DIM)
    noisy = np.stack(bases) + per_coord * normal_block(start_states, FEATURE_DIM)
    # one np.dot per row: a batched reduction may sum in another order
    norms = np.array([math.sqrt(float(np.dot(row, row))) for row in noisy])
    out = noisy / norms[:, None]
    return [out[k] if norms[k] > 0 else bases[k] for k in range(len(bases))]


def segment(raw_obs, noise: NoiseConfig, rng: Rng, task_spec: TaskSpec) -> dict:
    """Per-view detections from the rendered label maps, restricted to the
    records whose (possibly confused) class the task admits.

    The robot arm always passes; downstream consumers tell it apart by its
    class name.  Iteration order (sorted view, sorted source id) is part of
    the replay contract: noise draws happen in exactly this order.  Every
    record that passes the dropout test consumes its confusion draws and,
    when sigma > 0, its 2 * FEATURE_DIM feature draws, whether or not the
    task admits its class; a record the task drops skips its feature draws
    with `Rng.advance` instead of computing the feature.  The kept features
    are computed afterwards in one `perturbed_feature` call.
    """
    feature_draws = 2 * FEATURE_DIM if noise.feature_sigma > 0.0 else 0
    kept = []       # (view_id, source_id, record, class_name, attributes)
    starts = []     # rng state before each kept record's feature draws
    for view_id in sorted(raw_obs.views):
        records = raw_obs.views[view_id].records
        for source_id in sorted(records):
            rec = records[source_id]
            if noise.mask_dropout_occlusion > 0.0 and \
                    rec.visible_fraction < noise.mask_dropout_occlusion:
                continue
            class_name = rec.class_name
            attributes = rec.attributes
            if noise.class_confusion_p > 0.0 and rng.random() < noise.class_confusion_p:
                class_name = DISTRACTOR_CLASSES[rng.randrange(len(DISTRACTOR_CLASSES))]
                attributes = {}
            if task_spec.admits(class_name):
                kept.append((view_id, source_id, rec, class_name, attributes))
                starts.append(rng.getstate())
            rng.advance(feature_draws)
    features = perturbed_feature([k[2].base_feature for k in kept],
                                 noise.feature_sigma, starts)
    out: dict[str, list] = {view_id: [] for view_id in sorted(raw_obs.views)}
    for (view_id, source_id, rec, class_name, attributes), feature in \
            zip(kept, features):
        out[view_id].append(Detection(
            view_id=view_id, source_id=source_id,
            region=rec.region, class_name=class_name,
            attributes=dict(attributes), feature=feature,
        ))
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
