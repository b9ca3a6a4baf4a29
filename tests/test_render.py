import math

import numpy as np
import pytest

from tableplan.config import DEFAULT_CAMERAS, SceneConfig
from tableplan.render import (CameraSpec, Renderer, rasterize_polygon,
                              render_views)
from tableplan.world import Primitive, apply_primitive, init_world

from scenes import full_frame_box, full_mask, scattered_scenes, touches_edge


def scene(task="swap_cups", seed=0, **kw):
    cfg = SceneConfig(task=task, **kw)
    cfg.validate()
    return cfg, init_world(cfg, seed)


def test_camera_transform_roundtrip():
    cam = CameraSpec.from_config(DEFAULT_CAMERAS[1])  # the rotated wrist view
    pts = np.array([[0.1, 0.2], [0.9, 0.7], [0.5, 0.375]])
    back = cam.px_to_world(cam.world_to_px(pts))
    assert np.allclose(back, pts, atol=1e-12)


def test_camera_preserves_distance_ratios():
    # similarity transform: pixel distances are world distances * px_per_m
    cam = CameraSpec.from_config(DEFAULT_CAMERAS[1])
    a = np.array([[0.2, 0.3], [0.6, 0.5]])
    px = cam.world_to_px(a)
    want = math.hypot(0.4, 0.2) * cam.scale
    got = math.hypot(px[1, 0] - px[0, 0], px[1, 1] - px[0, 1])
    assert got == pytest.approx(want, rel=1e-12)


def test_rasterize_square_area():
    # unit-ish square: area in pixels tracks the polygon area
    verts = np.array([[10.0, 10.0], [30.0, 10.0], [30.0, 30.0], [10.0, 30.0]])
    mask, (r0, c0) = rasterize_polygon(verts)
    assert (r0, c0) == (10, 10)
    assert int(mask.sum()) == 400


def test_rasterize_circle_area():
    radius = 15.0
    verts = np.array([[radius * math.cos(a) + 50, radius * math.sin(a) + 50]
                      for a in np.linspace(0, 2 * math.pi, 24, endpoint=False)])
    mask, _ = rasterize_polygon(verts)
    assert int(mask.sum()) == pytest.approx(math.pi * radius**2, rel=0.05)


def test_render_deterministic():
    cfg, world = scene(seed=4)
    a = render_views(world, cfg.cameras, cfg.geometry["lift_m"])
    b = render_views(world, cfg.cameras, cfg.geometry["lift_m"])
    for v in a.views:
        assert np.array_equal(a.views[v].label_map, b.views[v].label_map)


def test_all_surface_objects_visible():
    cfg, world = scene("swap_cups", seed=1, distractors=3)
    raw = render_views(world, cfg.cameras, cfg.geometry["lift_m"])
    for view in raw.views.values():
        ids = set(np.unique(view.label_map)) - {0}
        # init sampling guarantees full in-frame visibility for every object
        assert ids == {o.id for o in world.objects}


def test_opaque_cup_contents_render_nothing():
    cfg, world = scene("place_and_stack", seed=0)
    cube = world.by_class("cube")[0]
    cup = world.by_class("cup")[0]
    world, _ = apply_primitive(world, Primitive(kind="pick", target=cube.id))
    world, _ = apply_primitive(world, Primitive(kind="place_in", target=cup.id))
    raw = render_views(world, cfg.cameras, cfg.geometry["lift_m"])
    for view in raw.views.values():
        assert cube.id not in np.unique(view.label_map)
        assert cube.id not in view.records


def test_plate_contents_stay_visible_and_occlude():
    cfg, world = scene("pnp_twice", seed=0)
    cube = world.by_class("cube")[0]
    plate_id = cube.container_of
    raw = render_views(world, cfg.cameras, cfg.geometry["lift_m"])
    for view in raw.views.values():
        rec_cube = view.records[cube.id]
        rec_plate = view.records[plate_id]
        assert rec_cube.visible_fraction == pytest.approx(1.0)
        # the cube sits on the plate and hides part of it
        assert rec_plate.visible_fraction < 1.0


def test_record_consistency():
    cfg, world = scene("swap_cups", seed=2)
    raw = render_views(world, cfg.cameras, cfg.geometry["lift_m"])
    for view in raw.views.values():
        for oid, rec in view.records.items():
            mask = view.label_map == oid
            assert rec.region.area == int(mask.sum())
            rows, cols = np.nonzero(mask)
            assert rec.region.centroid[0] == pytest.approx(cols.mean() + 0.5)
            assert rec.region.centroid[1] == pytest.approx(rows.mean() + 0.5)
            assert 0.0 < rec.visible_fraction <= 1.0
            assert rec.base_feature.shape == (16,)


def test_gripper_state_passthrough():
    cfg, world = scene("swap_cups", seed=0)
    cup = world.by_class("cup")[0]
    raw = render_views(world, cfg.cameras, cfg.geometry["lift_m"])
    assert raw.gripper_free and raw.held_object_id is None
    world, _ = apply_primitive(world, Primitive(kind="pick", target=cup.id))
    raw = render_views(world, cfg.cameras, cfg.geometry["lift_m"])
    assert not raw.gripper_free and raw.held_object_id == cup.id
    assert raw.step == world.step_count


def test_lift_shifts_render_position():
    # a held object (z=4) renders displaced toward -y by 3 * lift_m
    cfg, world = scene("pnp_twice", seed=0)
    cube = world.by_class("cube")[0]
    raw1 = render_views(world, cfg.cameras, cfg.geometry["lift_m"])
    c1 = raw1.views["overhead"].records[cube.id].region.centroid
    world, _ = apply_primitive(world, Primitive(kind="pick", target=cube.id))
    raw2 = render_views(world, cfg.cameras, cfg.geometry["lift_m"])
    c2 = raw2.views["overhead"].records[cube.id].region.centroid
    arm = world.arm()
    cam = CameraSpec.from_config(cfg.cameras[0])
    lifted_y = arm.y - 3 * cfg.geometry["lift_m"]
    want = cam.world_to_px(np.array([[arm.x, lifted_y]]))[0]
    assert c2[0] == pytest.approx(want[0], abs=1.0)
    assert c2[1] == pytest.approx(want[1], abs=1.0)
    assert c2 != c1


def test_renderer_cache_consistent():
    cfg, world = scene("swap_cups", seed=0)
    r = Renderer(cfg.cameras, cfg.geometry["lift_m"])
    first = r.render(world)
    again = r.render(world)  # cache hits all the way
    for v in first.views:
        assert np.array_equal(first.views[v].label_map,
                              again.views[v].label_map)
    cup = world.by_class("cup")[0]
    world, _ = apply_primitive(world, Primitive(kind="pick", target=cup.id))
    moved = r.render(world)
    assert not np.array_equal(first.views["overhead"].label_map,
                              moved.views["overhead"].label_map)


def test_occlusion_paint_order():
    # higher z paints over lower z where they overlap
    cfg, world = scene("pnp_twice", seed=3)
    cube = world.by_class("cube")[0]
    raw = render_views(world, cfg.cameras, cfg.geometry["lift_m"])
    view = raw.views["overhead"]
    mask_cube = view.label_map == cube.id
    # every pixel of the cube is painted as cube, none as its plate
    assert int(mask_cube.sum()) == view.records[cube.id].region.area


def test_box_local_records_match_full_frame():
    # area, centroid and region of every record against whole-frame scans of
    # the label map, over scenes with clipped, occluded and edge-row objects
    seen = {"clipped": 0, "occluded": 0, "first_row": 0, "last_row": 0}
    for cfg, world, raw in scattered_scenes(200, seed=20261018):
        for view in raw.views.values():
            label = view.label_map
            h, w = label.shape
            assert set(view.records) == set(np.unique(label).tolist()) - {0}
            for oid, rec in view.records.items():
                mask = label == oid
                rows, cols = np.nonzero(mask)
                assert rec.region.area == rows.size
                # exact: both sides divide the same integer sum once
                assert rec.region.centroid == (cols.mean() + 0.5,
                                               rows.mean() + 0.5)
                box = rec.region.box
                assert box == full_frame_box(mask)
                assert np.array_equal(full_mask(rec.region), mask)
                if touches_edge(box, (h, w)) and rec.visible_fraction < 1:
                    seen["clipped"] += 1
                elif rec.visible_fraction < 1:
                    seen["occluded"] += 1
                seen["first_row"] += box[0] == 0
                seen["last_row"] += box[1] == h
    assert min(seen.values()) > 0, seen
