import math

import pytest

from oracles import bfs_min_acts
from tableplan.config import TASKS, SceneConfig
from tableplan.world import (HELD_Z, NEAR_THRESHOLD_M, TASK_TABLE,
                             LayoutInfeasible, MilestoneTracker, Primitive,
                             UnknownObject, apply_primitive, circumradius,
                             ground_truth_relations,
                             hidden_inside_opaque, init_world, regular_polygon,
                             task_oracle)


def world_for(task, seed=0, **kw):
    return init_world(SceneConfig(task=task, **kw), seed)


# -- geometry helpers ---------------------------------------------------------


def test_regular_polygon_radius():
    pts = regular_polygon(0.05, 8)
    assert len(pts) == 8
    for x, y in pts:
        assert math.hypot(x, y) == pytest.approx(0.05)
    assert circumradius(pts) == pytest.approx(0.05)


# -- primitives ----------------------------------------------------------------


def test_pick_place_in_roundtrip():
    w = world_for("pnp_twice", seed=1)
    cube = w.by_class("cube")[0]
    start = cube.container_of
    other = [p.id for p in w.by_class("plate") if p.id != start][0]

    w, res = apply_primitive(w, Primitive(kind="pick", target=cube.id))
    assert res.ok
    held = w.get(cube.id)
    assert w.gripper.held == cube.id and not w.gripper.free
    assert held.z_layer == HELD_Z
    assert held.container_of is None
    arm = w.arm()
    assert (held.x, held.y) == (arm.x, arm.y)

    w, res = apply_primitive(w, Primitive(kind="place_in", target=other))
    assert res.ok
    placed = w.get(cube.id)
    dest = w.get(other)
    assert placed.container_of == other
    assert placed.z_layer == dest.z_layer + 1
    assert (placed.x, placed.y) == (dest.x, dest.y)
    assert w.gripper.free


def test_rejections_leave_world_but_advance_time():
    w = world_for("swap_cups", seed=0)
    cups = w.by_class("cup")
    arm = w.arm()
    t0 = w.step_count

    # place with empty gripper
    w, res = apply_primitive(w, Primitive(kind="place_in", target=cups[0].id))
    assert not res.ok and res.reason == "gripper empty"
    assert w.step_count == t0 + 1

    # pick the arm
    w, res = apply_primitive(w, Primitive(kind="pick", target=arm.id))
    assert not res.ok and "arm" in res.reason

    # pick a plate that carries a cup
    loaded_plate = w.get(cups[0].container_of)
    w, res = apply_primitive(w, Primitive(kind="pick", target=loaded_plate.id))
    assert not res.ok and res.reason == "target carries other objects"

    # pick while occupied
    w, res = apply_primitive(w, Primitive(kind="pick", target=cups[0].id))
    assert res.ok
    w, res = apply_primitive(w, Primitive(kind="pick", target=cups[1].id))
    assert not res.ok and res.reason == "gripper occupied"

    # self-placement and placing onto the arm
    w, res = apply_primitive(w, Primitive(kind="place_in", target=cups[0].id))
    assert not res.ok and "itself" in res.reason
    w, res = apply_primitive(w, Primitive(kind="place_on", target=arm.id))
    assert not res.ok and "arm" in res.reason

    # place_in a non-container
    w2 = world_for("place_and_stack", seed=0)
    cube = w2.by_class("cube")[0]
    cup = w2.by_class("cup")[0]
    w2, res = apply_primitive(w2, Primitive(kind="pick", target=cup.id))
    assert res.ok
    w2, res = apply_primitive(w2, Primitive(kind="place_in", target=cube.id))
    assert not res.ok and "not a container" in res.reason


def test_pick_object_out_of_container_is_legal():
    w = world_for("swap_cups", seed=2)
    cup = w.by_class("cup")[0]
    assert cup.container_of is not None
    w, res = apply_primitive(w, Primitive(kind="pick", target=cup.id))
    assert res.ok


def test_containment_cycle_rejected():
    w = world_for("swap_cups", seed=0)
    cups = w.by_class("cup")
    plate = w.get(cups[0].container_of)
    w, _ = apply_primitive(w, Primitive(kind="pick", target=cups[0].id))
    w, _ = apply_primitive(w, Primitive(kind="place_in", target=cups[1].id))
    # now lift the plate chain's base and try to tuck it under itself
    w, res = apply_primitive(w, Primitive(kind="pick", target=plate.id))
    assert res.ok
    w, res = apply_primitive(w, Primitive(kind="place_in", target=plate.id))
    assert not res.ok and "itself" in res.reason


def test_cycle_through_descendant_rejected():
    w = world_for("swap_cups", seed=0)
    cups = w.by_class("cup")
    empty_plate = [p for p in w.by_class("plate")
                   if not w.children_of(p.id)][0]
    # stack a cup on the empty plate, then pick the plate up: rejected
    # (carries children), so build the cycle the other way
    w, _ = apply_primitive(w, Primitive(kind="pick", target=cups[0].id))
    w, res = apply_primitive(w, Primitive(kind="place_on", target=empty_plate.id))
    assert res.ok
    w, res = apply_primitive(w, Primitive(kind="pick", target=empty_plate.id))
    assert not res.ok  # the plate now carries the cup
    w, res = apply_primitive(w, Primitive(kind="pick", target=cups[0].id))
    assert res.ok
    w, res = apply_primitive(w, Primitive(kind="place_in", target=empty_plate.id))
    assert res.ok
    # cup in plate; picking the plate is blocked, so no cycle is reachable
    # through legal play; the guard still rejects a constructed one
    w, res = apply_primitive(w, Primitive(kind="pick", target=cups[1].id))
    assert res.ok
    w, res = apply_primitive(w, Primitive(kind="place_in", target=cups[1].id))
    assert not res.ok


def test_stacking_depth_increments_z():
    w = world_for("place_and_stack", seed=0)
    cube = w.by_class("cube")[0]
    cups = w.by_class("cup")
    w, _ = apply_primitive(w, Primitive(kind="pick", target=cube.id))
    w, _ = apply_primitive(w, Primitive(kind="place_in", target=cups[0].id))
    assert w.get(cube.id).z_layer == 2
    w, _ = apply_primitive(w, Primitive(kind="pick", target=cups[1].id))
    w, res = apply_primitive(w, Primitive(kind="place_on", target=cups[0].id))
    assert res.ok
    # the cup lands above the cube already inside
    assert w.get(cups[1].id).z_layer == 3
    assert w.get(cups[1].id).support_of == cups[0].id


def test_no_op_and_unknown():
    w = world_for("pnp_twice", seed=0)
    w2, res = apply_primitive(w, Primitive(kind="no_op"))
    assert res.ok and w2.step_count == w.step_count + 1
    w3, res = apply_primitive(w, Primitive(kind="teleport", target=1))
    assert not res.ok and "unknown primitive" in res.reason
    with pytest.raises(UnknownObject):
        apply_primitive(w, Primitive(kind="pick", target=999))


# -- opacity ------------------------------------------------------------------


def test_hidden_inside_opaque():
    w = world_for("place_and_stack", seed=0)
    cube = w.by_class("cube")[0]
    cup = w.by_class("cup")[0]
    assert not hidden_inside_opaque(w, cube)
    w, _ = apply_primitive(w, Primitive(kind="pick", target=cube.id))
    w, _ = apply_primitive(w, Primitive(kind="place_in", target=cup.id))
    assert hidden_inside_opaque(w, w.get(cube.id))
    # plates are transparent
    w2 = world_for("pnp_twice", seed=0)
    cube2 = w2.by_class("cube")[0]
    assert not hidden_inside_opaque(w2, cube2)


# -- scene construction ----------------------------------------------------------


def test_init_world_deterministic():
    a = world_for("swap_cups", seed=5)
    b = world_for("swap_cups", seed=5)
    assert a == b
    c = world_for("swap_cups", seed=6)
    assert a != c


def test_pnp_layout():
    for seed in range(10):
        w = world_for("pnp_twice", seed=seed)
        plates = w.by_class("plate")
        cube = w.by_class("cube")[0]
        assert len(plates) == 2
        assert cube.container_of in {p.id for p in plates}
        assert cube.z_layer == 2


def test_pas_layout():
    thr = NEAR_THRESHOLD_M
    for seed in range(10):
        w = world_for("place_and_stack", seed=seed)
        cube = w.by_class("cube")[0]
        cups = w.by_class("cup")
        assert len(cups) == 2
        dists = sorted(math.hypot(c.x - cube.x, c.y - cube.y) for c in cups)
        assert dists[0] < thr < dists[1]  # exactly one cup is near the cube
        colors = {c.attribute("color") for c in cups}
        assert colors == {"red", "green"}


def test_swap_layout():
    for seed in range(10):
        w = world_for("swap_cups", seed=seed)
        plates = w.by_class("plate")
        cups = w.by_class("cup")
        assert len(plates) == 3 and len(cups) == 2
        srcs = {c.container_of for c in cups}
        assert len(srcs) == 2 and None not in srcs
        empty = [p for p in plates if p.id not in srcs]
        assert len(empty) == 1
        assert {c.attribute("color") for c in cups} == {"black", "blue"}


def test_distractors_added():
    w = world_for("swap_cups", seed=0, distractors=4)
    names = {o.class_name for o in w.objects}
    assert len(w.objects) == 1 + 3 + 2 + 4  # arm, plates, cups, distractors
    assert names & {"sponge", "marker", "bottle", "tape"}


def test_custom_layout_fixed_position():
    cfg = SceneConfig(task="custom", custom_objects=(
        {"class": "cube", "color": "red", "position": (0.3, 0.3)},
        {"class": "cup", "color": "blue"},
    ))
    w = init_world(cfg, 0)
    cube = w.by_class("cube")[0]
    assert (cube.x, cube.y) == (0.3, 0.3)
    with pytest.raises(LayoutInfeasible):
        bad = SceneConfig(task="custom", custom_objects=(
            {"class": "cube", "position": (0.0, 0.0)},))
        init_world(bad, 0)


def test_appearance_seeds_unique():
    w = world_for("swap_cups", seed=3, distractors=6)
    seeds = [o.appearance_seed for o in w.objects]
    assert len(seeds) == len(set(seeds))


# -- relations oracle --------------------------------------------------------------


def test_ground_truth_relations():
    w = world_for("swap_cups", seed=0)
    rels = ground_truth_relations(w)
    cups = w.by_class("cup")
    for cup in cups:
        assert (cup.id, cup.container_of, "in") in rels
    # near is canonical (min, max) and matches the true metric distance
    for (a, b, rel) in rels:
        if rel == "near":
            assert a < b
            oa, ob = w.get(a), w.get(b)
            assert math.hypot(oa.x - ob.x, oa.y - ob.y) < NEAR_THRESHOLD_M


def test_ground_truth_on_edge():
    w = world_for("place_and_stack", seed=0)
    cups = w.by_class("cup")
    w, _ = apply_primitive(w, Primitive(kind="pick", target=cups[1].id))
    w, _ = apply_primitive(w, Primitive(kind="place_on", target=cups[0].id))
    assert (cups[1].id, cups[0].id, "on") in ground_truth_relations(w)


# -- milestone tracker ------------------------------------------------------------


def pick(i):
    return Primitive(kind="pick", target=i)


def put_in(i):
    return Primitive(kind="place_in", target=i)


def test_pnp_tracker():
    w = world_for("pnp_twice", seed=0)
    cube = w.by_class("cube")[0]
    start = cube.container_of
    other = [p.id for p in w.by_class("plate") if p.id != start][0]

    tr = MilestoneTracker(w, "pnp_twice")
    assert not tr.success
    tr.feed(pick(cube.id))
    tr.feed(put_in(other))
    assert tr.milestones == ["PnP Once"]
    assert not tr.success  # visited but not home
    tr.feed(pick(cube.id))
    tr.feed(put_in(start))
    assert tr.success
    # milestone not re-emitted on a second lap
    tr.feed(pick(cube.id))
    tr.feed(put_in(other))
    assert tr.milestones == ["PnP Once"]


def test_pnp_no_shortcut():
    # putting the cube straight back without visiting scores nothing
    w = world_for("pnp_twice", seed=0)
    cube = w.by_class("cube")[0]
    start = cube.container_of
    tr = MilestoneTracker(w, "pnp_twice")
    tr.feed(pick(cube.id))
    tr.feed(put_in(start))
    assert tr.milestones == [] and not tr.success


def test_pas_tracker():
    w = world_for("place_and_stack", seed=1)
    cube, near, other = (w.by_class("cube")[0],) + tuple(
        sorted(w.by_class("cup"),
               key=lambda c: math.hypot(c.x - w.by_class("cube")[0].x,
                                        c.y - w.by_class("cube")[0].y)))
    tr = MilestoneTracker(w, "place_and_stack")
    tr.feed(pick(cube.id))
    tr.feed(put_in(near.id))
    assert tr.milestones == ["Drop Cube"]
    assert not tr.success
    tr.feed(pick(other.id))
    tr.feed(Primitive(kind="place_on", target=near.id))
    assert tr.success


def test_swap_tracker_order_constraint():
    w = world_for("swap_cups", seed=0)
    cups = w.by_class("cup")
    black = [c for c in cups if c.attribute("color") == "black"][0]
    blue = [c for c in cups if c.attribute("color") == "blue"][0]
    buffer = [p for p in w.by_class("plate")
              if p.id not in (black.container_of, blue.container_of)][0]

    seq_ok = [pick(black.id), put_in(buffer.id), pick(blue.id),
              put_in(black.container_of), pick(black.id),
              put_in(blue.container_of)]
    ms, ok = task_oracle(w, "swap_cups", "black", seq_ok)
    assert ok and ms == ["Stage Cup"]

    # same final geometry, but blue moved first: the order constraint fails it
    seq_wrong = [pick(blue.id), put_in(buffer.id), pick(black.id),
                 put_in(blue.container_of), pick(blue.id),
                 put_in(black.container_of)]
    ms, ok = task_oracle(w, "swap_cups", "black", seq_wrong)
    assert not ok
    # and that exact sequence succeeds for the blue-first variant
    ms, ok = task_oracle(w, "swap_cups", "blue", seq_wrong)
    assert ok


def test_tracker_ignores_rejected_primitives():
    w = world_for("swap_cups", seed=0)
    tr = MilestoneTracker(w, "swap_cups", "black")
    res = tr.feed(put_in(2))  # gripper empty
    assert not res.ok
    assert tr.judge.first_pick is None


def test_task_table_defines_every_config_task():
    assert tuple(TASK_TABLE) == TASKS
    with pytest.raises(ValueError):
        MilestoneTracker(world_for("swap_cups", seed=0), "juggling")


def test_custom_task_never_succeeds():
    cfg = SceneConfig(task="custom", custom_objects=({"class": "cube"},))
    w = init_world(cfg, 0)
    tr = MilestoneTracker(w, "custom")
    assert not tr.success


# -- minimal solutions vs the search oracle ------------------------------------------


@pytest.mark.parametrize("task,variant,want", [
    ("pnp_twice", "black", 4),
    ("place_and_stack", "black", 4),
    ("swap_cups", "black", 6),
    ("swap_cups", "blue", 6),
])
def test_bfs_minimum(task, variant, want):
    for seed in range(5):
        w = world_for(task, seed=seed, variant=variant)
        assert bfs_min_acts(w, task, variant) == want
