import math

import pytest

from tableplan.config import GroundingErrorModel, SceneConfig
from tableplan.executor import (GroundedSubtask, TargetInvisible,
                                UnknownVerbPattern, chunk_primitives,
                                execute_chunk, ground_targets, parse_subtask)
from tableplan.graph import init_graph, node_by_source, update_graph
from tableplan.perception import make_task_spec
from tableplan.prompting import clutter_free_obs, raw_obs_passthrough
from tableplan.render import render_views
from tableplan.rng import Rng
from tableplan.world import Primitive, apply_primitive, init_world

PERFECT = GroundingErrorModel(base_p=0.0, per_distractor_p=0.0, p_max=0.0)


def scene(task="swap_cups", seed=0, **kw):
    cfg = SceneConfig(task=task, **kw)
    world = init_world(cfg, seed)
    raw = render_views(world, cfg.cameras, cfg.geometry["lift_m"])
    g = init_graph(raw, make_task_spec(task))
    return cfg, world, raw, g


class WorldTracker:
    def __init__(self, world):
        self.world = world

    def feed(self, prim):
        self.world, result = apply_primitive(self.world, prim)
        return result


# -- cue parsing ---------------------------------------------------------------


@pytest.mark.parametrize("cue,verb,names", [
    ("pick up the black cup", "pick", {"target": "black_cup"}),
    ("put the cube inside the plate 2", "place_in",
     {"object": "cube", "dest": "plate_2"}),
    ("stack the blue cup on the black cup", "place_on",
     {"object": "blue_cup", "dest": "black_cup"}),
    ("place the blue cup on the plate", "place_on",
     {"object": "blue_cup", "dest": "plate"}),
    ("  pick up the cube  ", "pick", {"target": "cube"}),
])
def test_parse_subtask(cue, verb, names):
    assert parse_subtask(cue) == (verb, names)


@pytest.mark.parametrize("cue", [
    "wave at the cup",
    "pick up cube",
    "put the cube in the plate",
    "",
    "pick up the CUBE",
])
def test_parse_subtask_rejects(cue):
    with pytest.raises(UnknownVerbPattern):
        parse_subtask(cue)


# -- grounding ---------------------------------------------------------------------


def test_ground_perfect_masked():
    cfg, world, raw, g = scene(distractors=4)
    black = g.resolve("black_cup")
    obs = clutter_free_obs(raw, g, [black], "pick up the black cup")
    rng = Rng.substream(0, "exec")
    grounded = ground_targets(g, obs, rng, PERFECT)
    assert grounded.verb == "pick"
    assert grounded.clutter == 0
    assert grounded.error_p == 0.0
    assert grounded.mis_grounded is None
    src = next(iter(g.nodes[black].groundings.values())).source_id
    assert grounded.targets == {"target": src}
    assert grounded.node_ids == {"target": black}


def test_clutter_counts_unmasked_objects():
    cfg, world, raw, g = scene(distractors=4)
    black = g.resolve("black_cup")
    obs = raw_obs_passthrough(raw, [black], "pick up the black cup")
    grounded = ground_targets(g, obs, Rng.substream(0, "exec"), PERFECT)
    # everything except the cup itself counts: arm + 3 plates + other cup
    # + 4 distractors
    assert grounded.clutter == 9
    model = GroundingErrorModel(base_p=0.02, per_distractor_p=0.05, p_max=0.9)
    assert grounded.error_p == 0.0  # PERFECT model
    assert model.probability(grounded.clutter) == pytest.approx(0.47)


def test_unknown_name_raises():
    cfg, world, raw, g = scene()
    obs = clutter_free_obs(raw, g, [], "pick up the red cup")
    with pytest.raises(UnknownVerbPattern):
        ground_targets(g, obs, Rng.substream(0, "exec"), PERFECT)


def test_held_object_may_be_masked_out():
    cfg, world, raw, g = scene()
    black = g.resolve("black_cup")
    black_src = next(iter(g.nodes[black].groundings.values())).source_id
    world, res = apply_primitive(world, Primitive(kind="pick", target=black_src))
    assert res.ok
    raw2 = render_views(world, cfg.cameras, cfg.geometry["lift_m"])
    update_graph(g, raw2, make_task_spec("swap_cups"), steps_elapsed=2)
    plate = g.resolve("plate")
    obs = clutter_free_obs(raw2, g, [plate],
                           "put the black cup inside the plate")
    grounded = ground_targets(g, obs, Rng.substream(0, "exec"), PERFECT)
    assert grounded.targets["object"] == black_src


def test_hidden_object_needs_visible_parent():
    cfg, world, raw, g = scene("place_and_stack")
    cube = world.by_class("cube")[0]
    near_cup = min(world.by_class("cup"),
                   key=lambda c: (c.x - cube.x) ** 2 + (c.y - cube.y) ** 2)
    for prim in (Primitive(kind="pick", target=cube.id),
                 Primitive(kind="place_in", target=near_cup.id)):
        world, res = apply_primitive(world, prim)
        assert res.ok
    raw2 = render_views(world, cfg.cameras, cfg.geometry["lift_m"])
    spec = make_task_spec("place_and_stack")
    update_graph(g, raw2, spec, steps_elapsed=4,
                 action_feedback=("in", cube.id, near_cup.id))
    cube_node = node_by_source(g, cube.id).node_id
    cup_node = node_by_source(g, near_cup.id).node_id

    # cup retained: the graph's in edge explains the missing pixels
    obs = clutter_free_obs(raw2, g, [cube_node, cup_node], "pick up the cube")
    grounded = ground_targets(g, obs, Rng.substream(0, "exec"), PERFECT)
    assert grounded.targets["target"] == cube.id

    # cup masked out too: nothing visible explains the cube
    bare = clutter_free_obs(raw2, g, [cube_node], "pick up the cube")
    with pytest.raises(TargetInvisible):
        ground_targets(g, bare, Rng.substream(0, "exec"), PERFECT)


def test_mis_grounding_rate_and_roles():
    cfg, world, raw, g = scene(distractors=0)
    black = g.resolve("black_cup")
    plate = g.resolve("plate")
    obs = raw_obs_passthrough(raw, [black, plate],
                              "put the black cup inside the plate")
    # visible = 6 objects, relevant = 2 -> clutter 4 -> p = 0.3 + 0.1*1... use
    # explicit model: p = min(0.5, 0.1 + 0.075*4) = 0.4
    model = GroundingErrorModel(base_p=0.1, per_distractor_p=0.075, p_max=0.5)
    rng = Rng.substream(1, "exec")
    n = 10_000
    hits = 0
    role_counts = {"object": 0, "dest": 0}
    seen_targets = set()
    for _ in range(n):
        grounded = ground_targets(g, obs, rng, model)
        assert grounded.clutter == 4
        assert grounded.error_p == pytest.approx(0.4)
        if grounded.mis_grounded is not None:
            hits += 1
            role_counts[grounded.mis_grounded] += 1
            seen_targets.add(grounded.targets[grounded.mis_grounded])
    p = 0.4
    sigma = math.sqrt(p * (1 - p) / n)
    assert abs(hits / n - p) < 4 * sigma
    # roles drawn uniformly
    half_sigma = math.sqrt(0.25 * hits)
    assert abs(role_counts["object"] - hits / 2) < 4 * half_sigma
    # replacement draws cover the whole visible pool
    assert len(seen_targets) == 6


def test_no_error_when_p_zero():
    cfg, world, raw, g = scene(distractors=6)
    black = g.resolve("black_cup")
    obs = raw_obs_passthrough(raw, [black], "pick up the black cup")
    rng = Rng.substream(2, "exec")
    state_before = rng.getstate()
    grounded = ground_targets(g, obs, rng, PERFECT)
    assert grounded.mis_grounded is None
    assert rng.getstate() == state_before  # p == 0 consumes no randomness


# -- chunks --------------------------------------------------------------------------


def test_chunk_primitives_shapes():
    assert chunk_primitives("pick", {"target": 7}) == [
        Primitive(kind="no_op", target=7), Primitive(kind="pick", target=7)]
    assert chunk_primitives("place_in", {"object": 3, "dest": 9}) == [
        Primitive(kind="no_op", target=9), Primitive(kind="place_in", target=9)]
    assert chunk_primitives("place_on", {"object": 3, "dest": 9}) == [
        Primitive(kind="no_op", target=9), Primitive(kind="place_on", target=9)]


def grounded_pick(g, target_src, mis=None):
    return GroundedSubtask(verb="pick", names={"target": "black_cup"},
                           node_ids={"target": g.resolve("black_cup")},
                           targets={"target": target_src}, clutter=0,
                           error_p=0.0, mis_grounded=mis)


def test_execute_chunk_completed():
    cfg, world, raw, g = scene()
    src = next(iter(g.nodes[g.resolve("black_cup")].groundings.values())).source_id
    tracker = WorldTracker(world)
    chunk = execute_chunk(tracker, grounded_pick(g, src))
    assert chunk.outcome == "completed"
    assert [p.kind for p in chunk.primitives] == ["no_op", "pick"]
    assert all(r.ok for r in chunk.results)
    assert tracker.world.gripper.held == src


def test_execute_chunk_rejection_stops():
    cfg, world, raw, g = scene()
    cups = world.by_class("cup")
    world, res = apply_primitive(world, Primitive(kind="pick", target=cups[0].id))
    assert res.ok
    tracker = WorldTracker(world)
    chunk = execute_chunk(tracker, grounded_pick(g, cups[1].id))
    assert chunk.outcome == "rejected"
    assert len(chunk.primitives) == 2
    assert chunk.results[0].ok and not chunk.results[1].ok
    assert chunk.results[1].reason == "gripper occupied"


def test_execute_chunk_mis_grounded_label():
    cfg, world, raw, g = scene()
    src = next(iter(g.nodes[g.resolve("blue_cup")].groundings.values())).source_id
    tracker = WorldTracker(world)
    chunk = execute_chunk(tracker, grounded_pick(g, src, mis="target"))
    assert chunk.outcome == "mis_grounded"
    assert all(r.ok for r in chunk.results)
