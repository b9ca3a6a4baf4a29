import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from scenes import full_mask
from tableplan.config import NoiseConfig, SceneConfig, default_noise_config
from tableplan.perception import (FEATURE_DIM, Detection, TaskSpec,
                                  base_feature, base_features,
                                  cosine_distance, make_task_spec,
                                  perturbed_feature, segment, track)
from tableplan.render import render_views
from tableplan.rng import Rng
from tableplan.world import (DISTRACTOR_CLASSES, LayoutInfeasible, Primitive,
                             apply_primitive, init_world)

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

# a task that admits every class, so segment keeps every detection
ADMIT_ALL = TaskSpec("every class",
                     frozenset(("cube", "cup", "plate") + DISTRACTOR_CLASSES))


def rendered(task="swap_cups", seed=0, **kw):
    cfg = SceneConfig(task=task, **kw)
    world = init_world(cfg, seed)
    return cfg, world, render_views(world, cfg.cameras, cfg.geometry["lift_m"])


def test_base_feature_deterministic_unit():
    a = base_feature(123456)
    b = base_feature(123456)
    assert a.tobytes() == b.tobytes()
    assert a.shape == (FEATURE_DIM,)
    assert float(np.dot(a, a)) == pytest.approx(1.0)
    assert not a.flags.writeable
    with pytest.raises(ValueError):
        a[0] = 0.0
    c = base_feature(123457)
    assert cosine_distance(a, c) > 1e-3


def test_cosine_distance():
    v = base_feature(1)
    assert cosine_distance(v, v) == pytest.approx(0.0)
    assert cosine_distance(v, -v) == pytest.approx(2.0)


def test_perturbed_feature_statistics():
    # total perturbation variance sigma^2 spread over the coordinates
    base = base_feature(7)
    rng = Rng.substream(0, "pf")
    sigma = 0.2
    starts = []
    for _ in range(2000):
        starts.append(rng.getstate())
        rng.advance(2 * FEATURE_DIM)
    dists = []
    for noisy in perturbed_feature([base] * len(starts), sigma, starts):
        assert float(np.dot(noisy, noisy)) == pytest.approx(1.0)
        dists.append(cosine_distance(base, noisy))
    # E[cos distance] ~ sigma^2 / 2 for small sigma on the unit sphere
    assert sum(dists) / len(dists) == pytest.approx(sigma**2 / 2, rel=0.15)
    assert perturbed_feature([base], 0.0, starts[:1])[0] is base
    assert perturbed_feature([], sigma, []) == []


def per_coordinate_feature(base, sigma, rng):
    """perturbed_feature as it was before it drew a frame's features in one
    pass: one Rng.normal() per coordinate."""
    if sigma <= 0.0:
        return base
    per_coord = sigma / math.sqrt(FEATURE_DIM)
    noisy = base.copy()
    for i in range(FEATURE_DIM):
        noisy[i] += per_coord * rng.normal()
    norm = math.sqrt(float(np.dot(noisy, noisy)))
    return noisy / norm if norm > 0 else base


def test_perturbed_feature_matches_per_coordinate_loop():
    gen = np.random.default_rng(11)
    for sigma in (0.05, 0.2, 1.0, 3.0):
        bases = [base_feature(int(s)) for s in gen.integers(0, 1 << 40, 50)]
        starts = [int(s) for s in gen.integers(0, 2**64, 50, dtype=np.uint64)]
        starts[:3] = [0, 2**64 - 1, 2**64 - 5]
        got = perturbed_feature(bases, sigma, starts)
        for base, state, feature in zip(bases, starts, got):
            want = per_coordinate_feature(base, sigma, Rng(state))
            assert feature.tobytes() == want.tobytes()


def base_feature_loop(appearance_seed):
    """base_feature as it was, one Rng.normal() per coordinate."""
    from tableplan.rng import mix64
    rng = Rng(mix64(appearance_seed ^ 0xFEA70125))
    v = np.array([rng.normal() for _ in range(FEATURE_DIM)])
    return v / math.sqrt(float(np.dot(v, v)))


def test_base_feature_matches_per_coordinate_loop():
    seeds = [0, 1, 2**31, 2**63 + 5] + list(range(1000, 1300))
    for seed in seeds:
        assert base_feature(seed).tobytes() == base_feature_loop(seed).tobytes()
    # one batched pass draws the same vectors
    batch = base_features(seeds)
    assert [v.tobytes() for v in batch] == \
        [base_feature_loop(s).tobytes() for s in seeds]
    assert not any(v.flags.writeable for v in batch)
    assert base_features([]) == []


def test_task_specs():
    spec = make_task_spec("pnp_twice")
    assert spec.admits("cube") and spec.admits("plate")
    assert not spec.admits("cup")
    assert spec.admits("arm")  # the arm always passes

    spec = make_task_spec("swap_cups", "blue")
    assert "blue" in spec.instruction

    spec = make_task_spec("custom", custom_classes=("bottle",))
    assert spec.admits("bottle") and not spec.admits("cube")
    with pytest.raises(ValueError):
        make_task_spec("juggling")


def test_segment_noise_free():
    cfg, world, raw = rendered(seed=1)
    dets = segment(raw, NoiseConfig(), Rng.substream(1, "perception"),
                   make_task_spec(cfg.task))
    assert sorted(dets) == ["overhead", "wrist"]
    for view_id, view_dets in dets.items():
        recs = raw.views[view_id].records
        assert [d.source_id for d in view_dets] == sorted(recs)
        for d in view_dets:
            assert d.region is recs[d.source_id].region
            mask = full_mask(d.region)
            assert np.array_equal(
                mask, raw.views[view_id].label_map == d.source_id)
            assert d.region.area == int(mask.sum())
            assert d.feature is recs[d.source_id].base_feature
            assert d.feature.tobytes() == base_feature(
                world.get(d.source_id).appearance_seed).tobytes()


def test_segment_draw_order_is_stable():
    # same seed, same scene -> byte-identical features under noise
    cfg, world, raw = rendered(seed=2)
    noise = NoiseConfig(feature_sigma=0.3, class_confusion_p=0.1)
    a = segment(raw, noise, Rng.substream(5, "perception"), ADMIT_ALL)
    b = segment(raw, noise, Rng.substream(5, "perception"), ADMIT_ALL)
    for view_id in a:
        for da, db in zip(a[view_id], b[view_id]):
            assert np.array_equal(da.feature, db.feature)
            assert da.class_name == db.class_name


def test_class_confusion_rate():
    cfg, world, raw = rendered(seed=0)
    noise = NoiseConfig(class_confusion_p=0.25)
    rng = Rng.substream(0, "conf")
    n = 0
    confused = 0
    for _ in range(400):
        dets = segment(raw, noise, rng, ADMIT_ALL)
        for view_dets in dets.values():
            for d in view_dets:
                n += 1
                true_cls = world.get(d.source_id).class_name
                confused += d.class_name != true_cls
    p = confused / n
    sigma = math.sqrt(0.25 * 0.75 / n)
    assert abs(p - 0.25) < 4 * sigma
    # confused detections lose their attributes
    assert all(d.attributes == {}
               for dets in segment(raw, noise, rng, ADMIT_ALL).values()
               for d in dets if d.class_name != world.get(d.source_id).class_name)


def test_mask_dropout_threshold():
    # occluded objects below the visibility floor are dropped
    cfg, world, raw = rendered("pnp_twice", seed=0)
    cube = world.by_class("cube")[0]
    noise = NoiseConfig(mask_dropout_occlusion=0.999)
    dets = segment(raw, noise, Rng.substream(0, "perception"),
                   make_task_spec("pnp_twice"))
    for view_id, view_dets in dets.items():
        ids = {d.source_id for d in view_dets}
        assert cube.id in ids  # fully visible survives
        assert cube.container_of not in ids  # partially hidden plate drops


def test_identify_relevant():
    # segment keeps only the classes the task admits, and the arm
    cfg, world, raw = rendered("swap_cups", seed=0, distractors=4)
    spec = make_task_spec("swap_cups")
    dets = segment(raw, NoiseConfig(), Rng.substream(0, "perception"), spec)
    for view_dets in dets.values():
        classes = {d.class_name for d in view_dets}
        assert classes <= {"cup", "plate", "arm"}
        want = {o.id for o in world.objects
                if o.class_name in ("cup", "plate", "arm")}
        assert {d.source_id for d in view_dets} == want


def test_track_noise_free_reproduces_masks():
    from tableplan.graph import init_graph
    from tableplan.config import AssocThresholds
    cfg, world, raw = rendered("swap_cups", seed=0)
    spec = make_task_spec("swap_cups")
    g = init_graph(raw, spec, AssocThresholds())
    out = track(g.sorted_nodes(), raw, NoiseConfig(),
                Rng.substream(0, "t"), steps_elapsed=1)
    for node in g.sorted_nodes():
        for view_id, grounding in node.groundings.items():
            mask = full_mask(out[(node.node_id, view_id)])
            fresh = raw.views[view_id].label_map == grounding.source_id
            assert np.array_equal(mask, fresh)


def test_track_drift_bounded():
    from tableplan.graph import init_graph
    from tableplan.config import AssocThresholds
    cfg, world, raw = rendered("swap_cups", seed=1)
    spec = make_task_spec("swap_cups")
    g = init_graph(raw, spec, AssocThresholds())
    drift = 3.0
    steps = 2
    out = track(g.sorted_nodes(), raw,
                NoiseConfig(tracker_drift_px_per_step=drift),
                Rng.substream(7, "t"), steps_elapsed=steps)
    bound = drift * steps * math.sqrt(2) + 1
    for node in g.sorted_nodes():
        for view_id, grounding in node.groundings.items():
            if (node.node_id, view_id) not in out:
                continue  # drifted fully out of frame
            mask = full_mask(out[(node.node_id, view_id)])
            fresh = raw.views[view_id].label_map == grounding.source_id
            rows, cols = np.nonzero(mask)
            frows, fcols = np.nonzero(fresh)
            if rows.size and frows.size:
                dr = abs(rows.mean() - frows.mean())
                dc = abs(cols.mean() - fcols.mean())
                assert dr <= bound and dc <= bound


def test_track_loss_rate():
    from tableplan.graph import init_graph
    from tableplan.config import AssocThresholds
    cfg, world, raw = rendered("swap_cups", seed=2)
    spec = make_task_spec("swap_cups")
    g = init_graph(raw, spec, AssocThresholds())
    total_groundings = sum(len(n.groundings) for n in g.sorted_nodes())
    rng = Rng.substream(3, "loss")
    p = 0.3
    kept = 0
    trials = 300
    for _ in range(trials):
        out = track(g.sorted_nodes(), raw, NoiseConfig(tracker_loss_p=p),
                    rng, steps_elapsed=1)
        kept += len(out)
    rate = 1.0 - kept / (trials * total_groundings)
    sigma = math.sqrt(p * (1 - p) / (trials * total_groundings))
    assert abs(rate - p) < 4 * sigma


def test_track_skips_sources_gone_from_frame():
    from tableplan.graph import init_graph
    from tableplan.config import AssocThresholds
    cfg, world, raw = rendered("place_and_stack", seed=0)
    spec = make_task_spec("place_and_stack")
    g = init_graph(raw, spec, AssocThresholds())
    cube = world.by_class("cube")[0]
    cup = world.by_class("cup")[0]
    world, _ = apply_primitive(world, Primitive(kind="pick", target=cube.id))
    world, _ = apply_primitive(world, Primitive(kind="place_in", target=cup.id))
    raw2 = render_views(world, cfg.cameras, cfg.geometry["lift_m"])
    out = track(g.sorted_nodes(), raw2, NoiseConfig(), Rng.substream(0, "t"), 1)
    cube_nodes = [n.node_id for n in g.sorted_nodes() if n.class_name == "cube"]
    assert all((nid, v) not in out for nid in cube_nodes
               for v in ("overhead", "wrist"))


# -- the fused segment against segment + identify_relevant ---------------------

def unfused_segment(raw_obs, noise, rng):
    """segment as it was before it absorbed identify_relevant: every record
    that passes the dropout test gets a feature, one coordinate at a time."""
    out = {}
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
            feature = per_coordinate_feature(rec.base_feature,
                                             noise.feature_sigma, rng)
            dets.append(Detection(
                view_id=view_id, source_id=source_id,
                region=rec.region, class_name=class_name,
                attributes=attributes, feature=feature,
            ))
        out[view_id] = dets
    return out


def identify_relevant(detections, task_spec):
    """The relevance filter that ran after segment."""
    return {view_id: [d for d in detections[view_id]
                      if task_spec.admits(d.class_name)]
            for view_id in sorted(detections)}


def fused_segment_frames():
    """(spec, noise, raw, seed): first frames of swap_noisy, default-noise
    place_and_stack and raw 8-distractor scenes, each also with the class
    confusion and the dropout floor raised, so that confused detections are
    common and the slightly occluded records of a first frame drop out."""
    cfgs = [SceneConfig.load(CONFIGS / "swap_noisy.json"),
            default_noise_config("place_and_stack"),
            SceneConfig(task="pnp_twice", vision="raw", distractors=8)]
    for cfg in cfgs:
        spec = make_task_spec(cfg.task, cfg.variant)
        frames = 0
        seed = 0
        while frames < 70:
            seed += 1
            try:
                world = init_world(cfg, seed)
            except LayoutInfeasible:
                continue
            frames += 1
            raw = render_views(world, cfg.cameras, cfg.geometry["lift_m"])
            for noise in (cfg.perception_noise,
                          replace(cfg.perception_noise, class_confusion_p=0.3,
                                  mask_dropout_occlusion=0.95)):
                yield spec, noise, raw, seed


def test_fused_segment_matches_segment_then_filter():
    seen = {"dropout": 0, "confused_dropped": 0, "distractor_dropped": 0,
            "kept": 0, "frames": 0}
    for spec, noise, raw, seed in fused_segment_frames():
        got_rng = Rng.substream(seed, "perception")
        want_rng = Rng.substream(seed, "perception")
        got = segment(raw, noise, got_rng, spec)
        unfiltered = unfused_segment(raw, noise, want_rng)
        want = identify_relevant(unfiltered, spec)
        assert got_rng.getstate() == want_rng.getstate()
        assert list(got) == list(want)
        for view_id in want:
            assert [(d.source_id, d.class_name, d.attributes, d.feature.tobytes())
                    for d in got[view_id]] == \
                [(d.source_id, d.class_name, d.attributes, d.feature.tobytes())
                 for d in want[view_id]]
            assert all(a.region is b.region
                       for a, b in zip(got[view_id], want[view_id]))
            records = raw.views[view_id].records
            kept = {d.source_id for d in want[view_id]}
            seen["dropout"] += len(records) - len(unfiltered[view_id])
            seen["kept"] += len(kept)
            for d in unfiltered[view_id]:
                if d.source_id in kept:
                    continue
                true_class = records[d.source_id].class_name
                seen["confused_dropped" if spec.admits(true_class)
                     else "distractor_dropped"] += 1
        seen["frames"] += 1
    assert seen["frames"] >= 200
    assert min(seen.values()) > 0, seen
