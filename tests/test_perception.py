import math

import numpy as np
import pytest

from scenes import full_mask
from tableplan.config import NoiseConfig, SceneConfig
from tableplan.perception import (FEATURE_DIM, base_feature, cosine_distance,
                                  identify_relevant, make_task_spec,
                                  perturbed_feature, segment, track)
from tableplan.render import render_views
from tableplan.rng import Rng
from tableplan.world import Primitive, apply_primitive, init_world


def rendered(task="swap_cups", seed=0, **kw):
    cfg = SceneConfig(task=task, **kw)
    cfg.validate()
    world = init_world(cfg, seed)
    return cfg, world, render_views(world, cfg.cameras, cfg.geometry["lift_m"])


def test_base_feature_deterministic_unit():
    a = base_feature(123456)
    b = base_feature(123456)
    assert a is b  # cached
    assert a.shape == (FEATURE_DIM,)
    assert float(np.dot(a, a)) == pytest.approx(1.0)
    assert not a.flags.writeable
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
    dists = []
    for _ in range(2000):
        noisy = perturbed_feature(base, sigma, rng)
        assert float(np.dot(noisy, noisy)) == pytest.approx(1.0)
        dists.append(cosine_distance(base, noisy))
    # E[cos distance] ~ sigma^2 / 2 for small sigma on the unit sphere
    assert sum(dists) / len(dists) == pytest.approx(sigma**2 / 2, rel=0.15)
    assert perturbed_feature(base, 0.0, rng) is base


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
    dets = segment(raw, NoiseConfig(), Rng.substream(1, "perception"))
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
            assert d.feature is base_feature(
                world.get(d.source_id).appearance_seed)


def test_segment_draw_order_is_stable():
    # same seed, same scene -> byte-identical features under noise
    cfg, world, raw = rendered(seed=2)
    noise = NoiseConfig(feature_sigma=0.3, class_confusion_p=0.1)
    a = segment(raw, noise, Rng.substream(5, "perception"))
    b = segment(raw, noise, Rng.substream(5, "perception"))
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
        dets = segment(raw, noise, rng)
        for view_dets in dets.values():
            for d in view_dets:
                n += 1
                true_cls = world.get(d.source_id).class_name
                confused += d.class_name != true_cls
    p = confused / n
    sigma = math.sqrt(0.25 * 0.75 / n)
    assert abs(p - 0.25) < 4 * sigma
    # confused detections lose their attributes
    assert all(d.attributes == {} for dets in segment(raw, noise, rng).values()
               for d in dets if d.class_name != world.get(d.source_id).class_name)


def test_mask_dropout_threshold():
    # occluded objects below the visibility floor are dropped
    cfg, world, raw = rendered("pnp_twice", seed=0)
    cube = world.by_class("cube")[0]
    noise = NoiseConfig(mask_dropout_occlusion=0.999)
    dets = segment(raw, noise, Rng.substream(0, "perception"))
    for view_id, view_dets in dets.items():
        ids = {d.source_id for d in view_dets}
        assert cube.id in ids  # fully visible survives
        assert cube.container_of not in ids  # partially hidden plate drops


def test_identify_relevant():
    cfg, world, raw = rendered("swap_cups", seed=0, distractors=4)
    spec = make_task_spec("swap_cups")
    dets = identify_relevant(segment(raw, NoiseConfig(),
                                     Rng.substream(0, "perception")), spec)
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
