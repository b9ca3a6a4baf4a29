from dataclasses import replace

import numpy as np
import pytest

from tableplan import harness
from tableplan.config import SceneConfig
from tableplan.graph import Grounding, SemanticGraph, init_graph
from tableplan.perception import make_task_spec
from tableplan.prompting import (BACKGROUND, UnknownNode, clutter_free_obs,
                                 raw_obs_passthrough, retention_mask)
from tableplan.region import Region
from tableplan.render import Renderer, render_views
from tableplan.rng import Rng
from tableplan.world import (DISTRACTOR_CLASSES, Primitive, apply_primitive,
                             init_world)

from scenes import (full_mask, graph_and_drifted_tracks, scattered_scenes,
                    workload_configs)


def ids_under(label, mask) -> tuple:
    """Whole-frame reference: the source ids of the masked label map."""
    return tuple(sorted(set(np.unique(label[mask]).tolist()) - {BACKGROUND}))


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
    assert sorted(masked.visible) == sorted(raw.views)
    for view_id in masked.visible:
        raw_labels = raw.views[view_id].label_map
        survivors = set(masked.visible[view_id])
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
    for view_id, view in raw.views.items():
        shape = view.label_map.shape
        m_s = retention_mask(g, small, view_id, shape)
        m_b = retention_mask(g, big, view_id, shape)
        assert np.all(m_s <= m_b)
        assert set(obs_small.visible[view_id]) <= set(obs_big.visible[view_id])


def test_raw_passthrough_keeps_everything():
    cfg, world, raw, g = scene(distractors=5)
    obs = raw_obs_passthrough(raw, [g.resolve("black_cup")], "cue")
    assert sorted(obs.visible) == sorted(raw.views)
    for view_id, view in raw.views.items():
        full = np.ones(view.label_map.shape, dtype=bool)
        assert obs.visible[view_id] == ids_under(view.label_map, full)
    assert obs.relevant_ids == frozenset({g.resolve("black_cup")})
    # distractors are visible through the passthrough
    overhead = set(obs.visible["overhead"])
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
    assert obs.visible["overhead"] == (src,)


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
        for visible in obs.visible.values():
            assert set(visible) <= allowed


def test_box_local_masking_matches_full_frame():
    # retention masks and visible ids against whole-frame references; some
    # groundings are tracker masks drifted off the frame
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
            mask = retention_mask(g, keep, view_id, label.shape)
            assert np.array_equal(mask, retained)
            want = sorted(set(np.unique(label[retained]).tolist()) - {0})
            assert list(masked.visible[view_id]) == want
            assert list(passthrough.visible[view_id]) == \
                sorted(set(np.unique(label).tolist()) - {0})


def test_visible_ids_match_masked_map_every_round(monkeypatch):
    # at every round of two seeded episodes of each benchmark config, the
    # ids read from the crops are those of the whole-frame masked map
    rounds = {"masked": 0, "raw": 0}

    def checked_clutter_free_obs(raw, graph, relevant, cue):
        obs = clutter_free_obs(raw, graph, relevant, cue)
        assert sorted(obs.visible) == sorted(raw.views)
        for view_id, view in raw.views.items():
            label = view.label_map
            mask = retention_mask(graph, relevant, view_id, label.shape)
            assert obs.visible[view_id] == ids_under(label, mask)
        rounds["masked"] += 1
        return obs

    def checked_raw_obs_passthrough(raw, relevant, cue):
        obs = raw_obs_passthrough(raw, relevant, cue)
        assert sorted(obs.visible) == sorted(raw.views)
        for view_id, view in raw.views.items():
            full = np.ones(view.label_map.shape, dtype=bool)
            assert obs.visible[view_id] == ids_under(view.label_map, full)
        rounds["raw"] += 1
        return obs

    monkeypatch.setattr(harness, "clutter_free_obs", checked_clutter_free_obs)
    monkeypatch.setattr(harness, "raw_obs_passthrough",
                        checked_raw_obs_passthrough)
    for cfg in workload_configs():
        for seed in (0, 1):
            harness.run_episode(cfg, seed)
    assert rounds["masked"] > 20 and rounds["raw"] > 2


def _with_blank_label_maps(raw):
    """`raw` with every label map all background and the same records: an
    id that survives in it was not read from the label map."""
    return replace(raw, views={
        v: replace(view, label_map=np.zeros_like(view.label_map))
        for v, view in raw.views.items()})


def test_fast_path_matches_the_label_read():
    # groundings that are this frame's record Regions skip the label read;
    # copied, shifted and earlier-frame groundings read the label map, and
    # every result equals the whole-frame reference
    cfg = SceneConfig(task="swap_cups", distractors=4)
    world = init_world(cfg, 0)
    r = Renderer(cfg.cameras, cfg.geometry["lift_m"])
    before = r.render(world)
    g = init_graph(before, make_task_spec("swap_cups"), cfg.thresholds)
    cup = world.by_class("cup")[0]
    world, _ = apply_primitive(world, Primitive("pick", cup.id))
    raw = r.render(world)
    keep = [n.node_id for n in g.sorted_nodes()
            if n.class_name in ("cup", "plate")]
    grounded = [(n, v) for n in map(g.nodes.get, keep) for v in n.groundings]
    # the read of each record's region is what perception does for it
    variants = {
        "own": lambda src, v, reg: raw.views[v].records[src].region,
        "copied": lambda src, v, reg: Region.from_sub(reg.crop, reg.origin,
                                                      reg.frame),
        "shifted": lambda src, v, reg: reg.shifted(1, -2),
        "earlier": lambda src, v, reg: before.views[v].records[src].region,
    }
    blank = _with_blank_label_maps(raw)
    for name, make in variants.items():
        for node, v in grounded:
            gr = node.groundings[v]
            gr.region = make(gr.source_id, v, raw.views[v].records[
                gr.source_id].region)
        got = clutter_free_obs(raw, g, keep, "cue")
        for view_id, view in raw.views.items():
            mask = retention_mask(g, keep, view_id, view.label_map.shape)
            assert got.visible[view_id] == ids_under(view.label_map, mask)
        # only a grounding that is its source's record Region in this
        # frame survives a blank label map
        fast = {view_id: tuple(sorted(
            {node.groundings[view_id].source_id for node, v in grounded
             if v == view_id and node.groundings[view_id].region
             is raw.views[view_id].records[
                 node.groundings[view_id].source_id].built_region}))
            for view_id in raw.views}
        assert clutter_free_obs(blank, g, keep, "cue").visible == fast
        if name == "own":
            assert fast == got.visible
        elif name in ("copied", "shifted"):
            assert not any(fast.values())
    # the cup moved, the plates did not: earlier groundings are both
    moved = {v: before.views[v].records[cup.id].region
             is not raw.views[v].records[cup.id].region for v in raw.views}
    assert all(moved.values())


def test_clutter_free_obs_builds_no_region():
    # a grounding whose source's record has no Region yet reads the label
    # map; the record still has none afterwards
    cfg = SceneConfig(task="swap_cups", distractors=4)
    world = init_world(cfg, 1)
    raw = Renderer(cfg.cameras, cfg.geometry["lift_m"]).render(world)
    g = SemanticGraph()
    clutter = [o.id for o in world.objects
               if o.class_name in DISTRACTOR_CLASSES]
    for oid in clutter:
        groundings = {v: Grounding(Region.from_full(view.label_map == oid),
                                   oid, 0)
                      for v, view in raw.views.items()
                      if oid in view.records}
        g.add_node("clutter", {}, None, groundings, 0)
    obs = clutter_free_obs(raw, g, list(g.nodes), "cue")
    for v, view in raw.views.items():
        assert obs.visible[v] == tuple(sorted(
            oid for oid in clutter if oid in view.records))
        for oid in clutter:
            if oid in view.records:
                assert view.records[oid].built_region is None
