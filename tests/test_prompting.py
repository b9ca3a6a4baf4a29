import numpy as np
import pytest

from tableplan.config import SceneConfig
from tableplan.graph import init_graph
from tableplan.perception import make_task_spec
from tableplan.prompting import (BACKGROUND, UnknownNode, clutter_free_obs,
                                 raw_obs_passthrough, retention_mask)
from tableplan.render import render_views
from tableplan.rng import Rng
from tableplan.world import DISTRACTOR_CLASSES, init_world

from scenes import full_mask, graph_and_drifted_tracks, scattered_scenes


def scene(task="swap_cups", seed=0, **kw):
    cfg = SceneConfig(task=task, **kw)
    world = init_world(cfg, seed)
    raw = render_views(world, cfg.cameras, cfg.geometry["lift_m"])
    g = init_graph(raw, make_task_spec(task), cfg.thresholds)
    return cfg, world, raw, g


def test_retention_mask_is_union():
    cfg, world, raw, g = scene()
    a = g.resolve("black_cup")
    b = g.resolve("blue_cup")
    for view_id in raw.views:
        ma = retention_mask(g, [a], view_id, raw.views[view_id].label_map.shape)
        mb = retention_mask(g, [b], view_id, raw.views[view_id].label_map.shape)
        both = retention_mask(g, [a, b], view_id,
                              raw.views[view_id].label_map.shape)
        assert np.array_equal(both, ma | mb)
        assert ma.any() and mb.any()


def test_retention_mask_empty_and_unknown():
    cfg, world, raw, g = scene()
    shape = raw.views["overhead"].label_map.shape
    assert not retention_mask(g, [], "overhead", shape).any()
    with pytest.raises(UnknownNode):
        retention_mask(g, [9999], "overhead", shape)


def test_clutter_free_survivors():
    # every surviving pixel belongs to a retained node's grounding; every
    # retained-and-rendered source survives somewhere
    cfg, world, raw, g = scene(distractors=6)
    keep = [g.resolve("black_cup"), g.resolve("plate")]
    masked = clutter_free_obs(raw, g, keep, "cue")
    keep_sources = {gr.source_id
                    for nid in keep for gr in g.nodes[nid].groundings.values()}
    for view_id, (labels, mask) in masked.views.items():
        raw_labels = raw.views[view_id].label_map
        assert np.array_equal(labels != BACKGROUND,
                              mask & (raw_labels != BACKGROUND))
        survivors = set(masked.visible_source_ids(view_id))
        assert survivors <= keep_sources
        # distractor pixels never survive
        assert all(s in keep_sources for s in survivors)
        # the retained objects themselves do
        rendered = {int(v) for v in np.unique(raw_labels) if v != BACKGROUND}
        assert keep_sources & rendered <= survivors | (keep_sources - rendered)


def test_masking_monotone_in_relevant_set():
    cfg, world, raw, g = scene(distractors=4)
    small = [g.resolve("black_cup")]
    big = small + [g.resolve("blue_cup"), g.resolve("plate_2")]
    obs_small = clutter_free_obs(raw, g, small, "cue")
    obs_big = clutter_free_obs(raw, g, big, "cue")
    for view_id in obs_small.views:
        lab_s, m_s = obs_small.views[view_id]
        lab_b, m_b = obs_big.views[view_id]
        assert np.all(m_s <= m_b)
        surviving_s = lab_s != BACKGROUND
        assert np.array_equal(lab_b[surviving_s], lab_s[surviving_s])


def test_raw_passthrough_keeps_everything():
    cfg, world, raw, g = scene(distractors=5)
    obs = raw_obs_passthrough(raw, [g.resolve("black_cup")], "cue")
    for view_id, (labels, mask) in obs.views.items():
        assert np.array_equal(labels, raw.views[view_id].label_map)
        assert mask.all()
    assert obs.relevant_ids == frozenset({g.resolve("black_cup")})
    # distractors are visible through the passthrough
    overhead = set(obs.visible_source_ids("overhead"))
    clutter = {o.id for o in world.objects
               if o.class_name in DISTRACTOR_CLASSES}
    assert overhead & clutter  # at least one distractor survived


def test_masked_observation_fields():
    cfg, world, raw, g = scene()
    keep = [g.resolve("blue_cup")]
    obs = clutter_free_obs(raw, g, keep, "grab the blue cup")
    assert obs.subtask_cue == "grab the blue cup"
    assert obs.relevant_ids == frozenset(keep)
    src = next(iter(g.nodes[keep[0]].groundings.values())).source_id
    assert obs.visible_source_ids("overhead") == [src]


def test_random_retention_subsets_stay_sound():
    rng = Rng.substream(5, "prompt")
    cfg, world, raw, g = scene("place_and_stack", seed=2, distractors=3)
    ids = sorted(g.nodes)
    for _ in range(25):
        subset = [i for i in ids if rng.random() < 0.5]
        obs = clutter_free_obs(raw, g, subset, "cue")
        allowed = {gr.source_id
                   for nid in subset
                   for gr in g.nodes[nid].groundings.values()}
        for view_id in obs.views:
            assert set(obs.visible_source_ids(view_id)) <= allowed


def test_box_local_masking_matches_full_frame():
    # retention, masked maps and visible_source_ids against whole-frame
    # references; some groundings are tracker masks drifted off the frame
    rng = np.random.default_rng(4242)
    for k, (cfg, world, raw) in enumerate(scattered_scenes(200, seed=31)):
        g, tracked = graph_and_drifted_tracks(cfg, raw, k)
        for (node_id, view_id), region in tracked.items():
            if rng.random() < 0.5:
                g.nodes[node_id].groundings[view_id].region = region
        ids = [n.node_id for n in g.sorted_nodes()]
        keep = [i for i in ids if rng.random() < 0.4]
        masked = clutter_free_obs(raw, g, keep, "cue")
        passthrough = raw_obs_passthrough(raw, keep, "cue")
        for view_id, view in raw.views.items():
            label = view.label_map
            retained = np.zeros(label.shape, dtype=bool)
            for i in keep:
                if view_id in g.nodes[i].groundings:
                    retained |= full_mask(g.nodes[i].groundings[view_id].region)
            labels, mask = masked.views[view_id]
            assert np.array_equal(mask, retained)
            assert np.array_equal(labels, np.where(retained, label, BACKGROUND))
            want = sorted(set(np.unique(label[retained]).tolist()) - {0})
            assert masked.visible_source_ids(view_id) == want
            assert passthrough.visible_source_ids(view_id) == \
                sorted(set(np.unique(label).tolist()) - {0})
