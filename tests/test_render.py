import gc
import math
import tracemalloc
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from tableplan import render, world as world_mod
from tableplan.config import (DEFAULT_CAMERAS, CameraConfig, SceneConfig,
                              perfect_config)
from tableplan.harness import run_episode
from tableplan.perception import base_feature
from tableplan.prompting import raw_obs_passthrough
from tableplan.render import Renderer, rasterize_polygon, render_views
from tableplan.world import (Primitive, apply_primitive, hidden_inside_opaque,
                             init_world)

from scenes import (full_frame_box, full_mask, move_sequence,
                    scattered_scenes, touches_edge)


def scene(task="swap_cups", seed=0, **kw):
    cfg = SceneConfig(task=task, **kw)
    return cfg, init_world(cfg, seed)


def project(cam, pts: np.ndarray) -> np.ndarray:
    """(N, 2) world metres to (N, 2) pixel (col, row) floats."""
    return np.stack(cam.to_px(pts[:, 0], pts[:, 1]), axis=1)


def test_camera_preserves_distance_ratios():
    # similarity transform: pixel distances are world distances * px_per_m
    cam = DEFAULT_CAMERAS[1]  # the rotated wrist view
    px = project(cam, np.array([[0.2, 0.3], [0.6, 0.5]]))
    want = math.hypot(0.4, 0.2) * cam.px_per_m
    got = math.hypot(px[1, 0] - px[0, 0], px[1, 1] - px[0, 1])
    assert got == pytest.approx(want, rel=1e-12)


class ReferenceCamera:
    """The projection render.CameraSpec owned before CameraConfig.to_px."""

    def __init__(self, cfg: CameraConfig):
        self.scale = float(cfg.px_per_m)
        self.rotation = math.radians(cfg.rotation_deg)
        self.center_px = tuple(cfg.center_px)
        self.look_at = tuple(cfg.look_at)

    def world_to_px(self, pts: np.ndarray) -> np.ndarray:
        c, s = math.cos(self.rotation), math.sin(self.rotation)
        dx = pts[:, 0] - self.look_at[0]
        dy = pts[:, 1] - self.look_at[1]
        col = self.scale * (c * dx - s * dy) + self.center_px[0]
        row = self.scale * (s * dx + c * dy) + self.center_px[1]
        return np.stack([col, row], axis=1)


def reference_frame_fits(cameras, x, y, z, radius, lift_m) -> bool:
    """world._frame_fits with the projection it computed inline."""
    ly = y - (z - 1) * lift_m
    for cam in cameras:
        th = math.radians(cam.rotation_deg)
        c, s = math.cos(th), math.sin(th)
        dx, dy = x - cam.look_at[0], ly - cam.look_at[1]
        col = cam.px_per_m * (c * dx - s * dy) + cam.center_px[0]
        row = cam.px_per_m * (s * dx + c * dy) + cam.center_px[1]
        pad = radius * cam.px_per_m + 4.0
        w, h = cam.image_size
        if not (pad <= col <= w - pad and pad <= row <= h - pad):
            return False
    return True


def random_camera(rng: np.random.Generator) -> CameraConfig:
    w, h = (int(v) for v in rng.integers(64, 257, size=2))
    return CameraConfig(
        "cam", (w, h), float(rng.uniform(50.0, 400.0)),
        float(rng.uniform(-180.0, 180.0)),
        (float(rng.uniform(0, w)), float(rng.uniform(0, h))),
        (float(rng.uniform(0.0, 1.0)), float(rng.uniform(0.0, 0.75))))


def test_to_px_matches_old_projection_bit_for_bit():
    rng = np.random.default_rng(20261018)
    cams = [random_camera(rng) for _ in range(200)] + list(DEFAULT_CAMERAS)
    for cam in cams:
        ref = ReferenceCamera(cam)
        pts = rng.uniform(-0.3, 1.3, size=(int(rng.integers(1, 13)), 2))
        want = ref.world_to_px(pts)
        got = project(cam, pts)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert [float(v).hex() for v in got.ravel()] == \
            [float(v).hex() for v in want.ravel()]
        for (x, y), (wc, wr) in zip(pts.tolist(), want.tolist()):
            col, row = cam.to_px(x, y)
            assert type(col) is float and type(row) is float
            assert (col.hex(), row.hex()) == (wc.hex(), wr.hex())


def test_frame_fits_matches_old_inline_projection():
    rng = np.random.default_rng(5)
    decisions = {True: 0, False: 0}
    for _ in range(3000):
        cameras = [random_camera(rng) for _ in range(int(rng.integers(1, 3)))]
        cam = cameras[0]
        # aim near the first camera's look-at so both decisions occur
        x, y = (v + float(rng.normal(0.0, 0.25)) for v in cam.look_at)
        z = int(rng.integers(1, 5))
        radius = float(rng.uniform(0.0, 0.1))
        lift = float(rng.uniform(0.0, 0.05))
        want = reference_frame_fits(cameras, x, y, z, radius, lift)
        assert world_mod._frame_fits(cameras, x, y, z, radius, lift) == want
        decisions[want] += 1
    assert min(decisions.values()) > 100, decisions


def reference_rasterize(verts_px: np.ndarray) -> tuple:
    """The per-edge whole-box even-odd rasterizer the scanline kernel
    replaced: each edge toggles every pixel centre left of its crossing."""
    cols = verts_px[:, 0]
    rows = verts_px[:, 1]
    c0 = int(math.floor(cols.min()))
    c1 = int(math.ceil(cols.max()))
    r0 = int(math.floor(rows.min()))
    r1 = int(math.ceil(rows.max()))
    width = max(c1 - c0, 1)
    height = max(r1 - r0, 1)
    px = c0 + 0.5 + np.arange(width, dtype=np.float64)[None, :]
    py = r0 + 0.5 + np.arange(height, dtype=np.float64)[:, None]
    inside = np.zeros((height, width), dtype=bool)
    n = len(verts_px)
    with np.errstate(divide="ignore", invalid="ignore"):
        for i in range(n):
            x1, y1 = verts_px[i]
            x2, y2 = verts_px[(i + 1) % n]
            straddles = (y1 <= py) != (y2 <= py)
            if not straddles.any():
                continue
            t = (py - y1) / (y2 - y1)
            crossing = straddles & (px < x1 + t * (x2 - x1))
            inside ^= crossing
    return inside, (r0, c0)


def assert_same_rasters(batch: list) -> list:
    """Rasterize the batch in one call; each polygon's mask and origin must
    equal the reference's, bit for bit."""
    out = rasterize_polygon(batch)
    assert type(out) is list and len(out) == len(batch)
    masks = []
    for verts, (mask, origin) in zip(batch, out):
        want, want_origin = reference_rasterize(verts)
        assert origin == want_origin
        assert all(type(v) is int for v in origin)
        assert mask.dtype == want.dtype and mask.shape == want.shape
        assert np.array_equal(mask, want)
        masks.append(mask)
    return masks


def assert_same_raster(verts):
    return assert_same_rasters([verts])[0]


def _self_intersecting(verts: np.ndarray) -> bool:
    """Whether two non-adjacent edges of the polygon properly cross."""
    def orient(p, q, r):
        return np.sign((q[0] - p[0]) * (r[1] - p[1])
                       - (q[1] - p[1]) * (r[0] - p[0]))
    n = len(verts)
    for i in range(n):
        a, b = verts[i], verts[(i + 1) % n]
        for j in range(i + 2, n - (i == 0)):
            c, d = verts[j], verts[(j + 1) % n]
            if (orient(a, b, c) * orient(a, b, d) < 0
                    and orient(c, d, a) * orient(c, d, b) < 0):
                return True
    return False


FAMILIES = ("generic", "vertex_on_centre", "horizontal", "sliver",
            "negative_centre")


def random_polygon(rng: np.random.Generator, family: str) -> np.ndarray:
    n = int(rng.integers(3, 13))
    verts = rng.uniform(-15.0, 45.0, size=(n, 2))
    if family == "vertex_on_centre":
        verts = np.floor(verts) + 0.5
    elif family == "horizontal":  # edges along a row of pixel centres
        verts[1, 1] = verts[0, 1] = math.floor(verts[0, 1]) + 0.5
    elif family == "sliver":  # thin slivers and near-degenerate shapes
        verts[:, 0] = verts[0, 0] + rng.uniform(0.0, 1.5, size=n)
    elif family == "negative_centre":
        # pixel-centre vertices left of and above the origin: the box starts
        # at a negative column and row, where x - (c0 + 0.5) rounds
        verts = np.floor(rng.uniform(-40.0, 5.0, size=(n, 2))) + 0.5
    return verts


def test_rasterize_matches_reference_on_random_polygons():
    rng = np.random.default_rng(20261018)
    seen = dict.fromkeys(("self_intersecting", "empty") + FAMILIES[:4], 0)
    for i in range(3000):
        family = FAMILIES[i % 4]
        verts = random_polygon(rng, family)
        seen[family] += 1
        seen["self_intersecting"] += _self_intersecting(verts)
        seen["empty"] += not assert_same_raster(verts).any()
    assert min(seen.values()) > 0, seen


def test_rasterize_batches_match_reference():
    # mixed batches of every polygon family, each polygon against the
    # reference; the batch sizes include the empty and the single batch
    rng = np.random.default_rng(7)
    seen = dict.fromkeys(FAMILIES, 0)
    for size in (0, 1, 2, 37):
        for _ in range(60):
            families = [FAMILIES[int(i)] for i in
                        rng.integers(len(FAMILIES), size=size)]
            assert_same_rasters([random_polygon(rng, f) for f in families])
            for f in families:
                seen[f] += 1
    assert rasterize_polygon([]) == []
    assert min(seen.values()) > 0, seen


def test_rasterize_counts_negative_crossings_exactly():
    # an edge crossing a row centre at 31.500000000000004 in a box starting
    # at column -10: ceil(x - (c0 + 0.5)) rounds to 41, but 42 pixel centres
    # (-9.5 .. 31.5) lie left of the crossing
    verts = np.array([[31.500000000000004, 0.25], [31.500000000000004, 0.75],
                      [-10.0, 0.75], [-10.0, 0.25]])
    mask = assert_same_raster(verts)
    assert mask.shape == (1, 42) and mask.all()


def test_rasterize_matches_reference_on_episode_footprints(monkeypatch,
                                                          empty_held_table):
    # every polygon of every batch a few real episodes ask for, each batch
    # checked as it was rasterized; scattered poses make one batch a scene
    batches = []

    def recording(polygons):
        batches.append([np.array(verts) for verts in polygons])
        return rasterize_polygon(polygons)

    monkeypatch.setattr(render, "rasterize_polygon", recording)
    for task in ("swap_cups", "pnp_twice", "place_and_stack"):
        for seed in (1, 2):
            run_episode(perfect_config(task, distractors=8, vision="raw"), seed)
    monkeypatch.undo()
    for cfg, world, _ in scattered_scenes(20, seed=7):
        batch = []
        for cam_cfg in cfg.cameras:
            for obj in world.objects:
                verts = np.array(obj.footprint) + [
                    obj.x, obj.y - (obj.z_layer - 1) * cfg.geometry["lift_m"]]
                batch.append(project(cam_cfg, verts))
        batches.append(batch)
    seen = {"horizontal_edge": 0, "slanted_edge": 0, "past_frame_edge": 0,
            "batch_of_many": 0}
    for batch in batches:
        assert_same_rasters(batch)
        seen["batch_of_many"] += len(batch) > 1
    calls = [verts for batch in batches for verts in batch]
    for verts in calls:
        dy = np.roll(verts[:, 1], -1) - verts[:, 1]
        seen["horizontal_edge"] += bool((dy == 0).any())
        seen["slanted_edge"] += bool((dy != 0).all())
        seen["past_frame_edge"] += bool((verts < 0).any())
    assert len(calls) > 500 and min(seen.values()) > 0, seen


def test_rasterize_square_area():
    # unit-ish square: area in pixels tracks the polygon area
    verts = np.array([[10.0, 10.0], [30.0, 10.0], [30.0, 30.0], [10.0, 30.0]])
    [(mask, (r0, c0))] = rasterize_polygon([verts])
    assert (r0, c0) == (10, 10)
    assert int(mask.sum()) == 400


def test_rasterize_circle_area():
    radius = 15.0
    verts = np.array([[radius * math.cos(a) + 50, radius * math.sin(a) + 50]
                      for a in np.linspace(0, 2 * math.pi, 24, endpoint=False)])
    [(mask, _)] = rasterize_polygon([verts])
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
            assert rec.base_feature.tobytes() == base_feature(
                world.get(oid).appearance_seed).tobytes()
            assert not rec.base_feature.flags.writeable


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
    lifted_y = arm.y - 3 * cfg.geometry["lift_m"]
    want = cfg.cameras[0].to_px(arm.x, lifted_y)
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


def test_render_rasterizes_only_what_moved_in_one_call(monkeypatch,
                                                       empty_held_table):
    batches = []

    def recording(polygons):
        batches.append(len(polygons))
        return rasterize_polygon(polygons)

    monkeypatch.setattr(render, "rasterize_polygon", recording)
    cfg, world = scene("swap_cups", seed=1, distractors=3)
    r = Renderer(cfg.cameras, cfg.geometry["lift_m"])
    r.render(world)
    # the first render rasterizes every object in both views in one call
    assert batches == [len(world.objects) * len(cfg.cameras)]
    again = r.render(world)
    assert batches == [len(world.objects) * len(cfg.cameras)]
    assert again.views["overhead"].records  # nothing moved, nothing rasterized
    cup = world.by_class("cup")[0]
    before = {o.id: (o.x, o.y, o.z_layer) for o in world.objects}
    moved, _ = apply_primitive(world, Primitive(kind="pick", target=cup.id))
    changed = {o.id for o in moved.objects
               if (o.x, o.y, o.z_layer) != before[o.id]}
    assert cup.id in changed
    r.render(moved)
    assert batches[1:] == [len(changed) * len(cfg.cameras)]
    waited, _ = apply_primitive(moved, Primitive(kind="no_op", target=cup.id))
    assert waited.step_count > moved.step_count
    r.render(waited)
    assert len(batches) == 2


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


def _on_frame(obj, cam: CameraConfig, lift_m: float) -> bool:
    """Whether the object's unclipped raster box meets the frame."""
    verts = np.array(obj.footprint) + [obj.x, obj.y - (obj.z_layer - 1) * lift_m]
    [(mask, (r0, c0))] = rasterize_polygon([project(cam, verts)])
    w, h = cam.image_size
    return (r0 < h and c0 < w and r0 + mask.shape[0] > 0
            and c0 + mask.shape[1] > 0)


def _status(world, obj, cam, lift_m, records) -> str:
    if obj.id in records:
        return "visible"
    if hidden_inside_opaque(world, obj):
        return "hidden"
    return "occluded" if _on_frame(obj, cam, lift_m) else "off_frame"


def test_incremental_render_matches_fresh_render():
    # one Renderer carried through seeded move sequences against a fresh
    # Renderer per frame: same label maps, records and regions; a carried
    # record is the last frame's object, equal to the fresh one field by
    # field, and the passthrough sees exactly the ids in the label map
    rng = np.random.default_rng(20261018)
    seen = {"off_frame_and_back": 0, "hidden_and_revealed": 0,
            "z_change": 0, "occluded_and_back": 0, "region_kept": 0,
            "record_kept": 0}
    for _ in range(12):
        cfg, worlds = move_sequence(rng, 40)
        lift = cfg.geometry["lift_m"]
        cams = {c.view_id: c for c in cfg.cameras}
        carried = Renderer(cfg.cameras, lift)
        prev_world, prev_raw, status = None, None, {}
        for world in worlds:
            raw = carried.render(world)
            fresh = Renderer(cfg.cameras, lift).render(world)
            passthrough = raw_obs_passthrough(raw, [], "cue")
            for view_id, view in raw.views.items():
                want = fresh.views[view_id]
                assert np.array_equal(view.label_map, want.label_map)
                assert list(passthrough.visible[view_id]) == \
                    sorted(set(np.unique(view.label_map).tolist()) - {0})
                assert list(view.records) == list(want.records)
                for oid, rec in view.records.items():
                    fresh_rec = want.records[oid]
                    a, b = rec.region, fresh_rec.region
                    assert a.origin == b.origin
                    assert np.array_equal(a.crop, b.crop)
                    assert a.area == b.area and a.centroid == b.centroid
                    assert rec.visible_fraction == fresh_rec.visible_fraction
                    assert (rec.object_id, rec.class_name, rec.attributes) \
                        == (fresh_rec.object_id, fresh_rec.class_name,
                            fresh_rec.attributes)
                    assert np.array_equal(rec.base_feature,
                                          fresh_rec.base_feature)
                    if prev_raw is not None:
                        old = prev_raw.views[view_id].records.get(oid)
                        kept = old is not None and old.region is a
                        # a carried region comes in its carried record
                        assert kept == (old is rec)
                        seen["region_kept"] += kept
                        seen["record_kept"] += old is rec
                for obj in world.objects:
                    now = _status(world, obj, cams[view_id], lift,
                                  view.records)
                    before = status.get((view_id, obj.id), "visible")
                    if now == "visible" and before != "visible":
                        seen[{"off_frame": "off_frame_and_back",
                              "hidden": "hidden_and_revealed",
                              "occluded": "occluded_and_back"}[before]] += 1
                    status[(view_id, obj.id)] = now
                    if (prev_world is not None and obj.id in view.records
                            and obj.id in prev_raw.views[view_id].records):
                        old = prev_world.get(obj.id)
                        seen["z_change"] += (old.x, old.y) == (obj.x, obj.y) \
                            and old.z_layer != obj.z_layer
            prev_world, prev_raw = world, raw
    assert min(seen.values()) > 0, seen


def numpy_repaint(label, paints, dirty) -> set:
    """render._repaint as it was: every painted box intersected with every
    dirty box in numpy, then painted in the same order."""
    boxes = np.array([p[3] for p in paints], dtype=np.int64).reshape(-1, 1, 4)
    dirt = np.array(dirty, dtype=np.int64).reshape(1, -1, 4)
    lo = np.maximum(boxes[..., 0::2], dirt[..., 0::2])
    hi = np.minimum(boxes[..., 1::2], dirt[..., 1::2])
    meets = (lo < hi).all(axis=2)
    touched = {paints[i][0] for i in np.flatnonzero(meets.any(axis=1))}
    for i, j in zip(*np.nonzero(meets)):
        oid, mask, (mr0, mc0), _ = paints[i]
        (r0, c0), (r1, c1) = lo[i, j].tolist(), hi[i, j].tolist()
        sub = mask[r0 - mr0:r1 - mr0, c0 - mc0:c1 - mc0]
        label[r0:r1, c0:c1][sub] = oid
    return touched


def test_int_repaint_matches_numpy_reference():
    # random rasters, some reaching past the frame (their boxes clipped to
    # it) or missing it (an empty box); dirty boxes that are random, empty,
    # or share only an edge with a painted box, which half-open boxes do
    # not count as meeting
    rng = np.random.default_rng(20261019)
    h, w = 30, 40
    seen = {"touched": 0, "untouched": 0, "clipped": 0, "empty": 0,
            "edge_only": 0}
    for _ in range(500):
        paints = []
        for oid in range(1, int(rng.integers(1, 8)) + 1):
            mh, mw = int(rng.integers(1, 15)), int(rng.integers(1, 15))
            mr0, mc0 = int(rng.integers(-8, h + 2)), int(rng.integers(-8, w + 2))
            box = (max(mr0, 0), max(min(mr0 + mh, h), max(mr0, 0)),
                   max(mc0, 0), max(min(mc0 + mw, w), max(mc0, 0)))
            seen["clipped"] += box != (mr0, mr0 + mh, mc0, mc0 + mw)
            seen["empty"] += box[0] == box[1] or box[2] == box[3]
            paints.append((oid, rng.random((mh, mw)) < 0.6, (mr0, mc0), box))
        dirty = []
        for _ in range(int(rng.integers(0, 6))):
            r0, c0 = int(rng.integers(0, h)), int(rng.integers(0, w))
            kind = rng.integers(3)
            if kind == 0:
                dirty.append((r0, r0, c0, int(rng.integers(c0, w + 1))))
            elif kind == 1:
                dirty.append((r0, int(rng.integers(r0 + 1, h + 1)),
                              c0, int(rng.integers(c0 + 1, w + 1))))
            else:
                # flush against a painted box's bottom or right edge
                pr0, pr1, pc0, pc1 = paints[int(rng.integers(len(paints)))][3]
                if rng.random() < 0.5:
                    dirty.append((pr1, pr1 + 3, pc0, pc1))
                else:
                    dirty.append((pr0, pr1, pc1, pc1 + 3))
        start = rng.integers(0, 9, (h, w)).astype(np.int32)
        got_label, want_label = start.copy(), start.copy()
        got = render._repaint(got_label, paints, dirty)
        want = numpy_repaint(want_label, paints, dirty)
        assert got == want
        assert np.array_equal(got_label, want_label)
        seen["touched"] += len(got)
        seen["untouched"] += len(paints) - len(got)
        seen["edge_only"] += any(
            d[0] == p[3][1] or d[2] == p[3][3] for d in dirty for p in paints)
    assert min(seen.values()) > 0, seen


def test_repeated_mask_returns_the_memoized_record(hull_builds):
    # a cup lifted and put back: every object's mask recurs, so the render
    # returns the first render's ViewRecords and Regions, and a hull built
    # on the first is not built again
    cfg, world = scene("swap_cups", seed=0, distractors=3)
    r = Renderer(cfg.cameras, cfg.geometry["lift_m"])
    cup = world.by_class("cup")[0]
    first = r.render(world)
    hulls = {v: view.records[cup.id].region.hull
             for v, view in first.views.items()}
    assert len(hull_builds) == len(hulls)
    lifted, _ = apply_primitive(world, Primitive(kind="pick", target=cup.id))
    moved = r.render(lifted)
    back = r.render(world)
    for v, view in back.views.items():
        was = first.views[v].records
        assert moved.views[v].records[cup.id] is not was[cup.id]
        assert list(view.records) == list(was)
        for oid, rec in view.records.items():
            assert rec is was[oid] and rec.region is was[oid].region
        assert view.records[cup.id].region.hull is hulls[v]
    assert len(hull_builds) == len(hulls)
    # a new Renderer starts with an empty memo
    fresh = Renderer(cfg.cameras, cfg.geometry["lift_m"]).render(world)
    for v, view in fresh.views.items():
        for oid, rec in view.records.items():
            assert rec is not first.views[v].records[oid]
            assert rec.region is not first.views[v].records[oid].region


def test_nothing_of_an_episode_outlives_its_renderer(monkeypatch):
    # 40 raw_clutter episodes leave no Renderer alive, and the package
    # itself holds on to no memory they allocated
    renderers = weakref.WeakSet()
    real_init = Renderer.__init__

    def tracking_init(self, *args):
        real_init(self, *args)
        renderers.add(self)

    monkeypatch.setattr(Renderer, "__init__", tracking_init)
    cfg = perfect_config("swap_cups", distractors=8, vision="raw")
    run_episode(cfg, 0)  # loads the plan and warms every lazy import
    package = [tracemalloc.Filter(True, str(Path(render.__file__).parent
                                            / "*"))]
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.take_snapshot().filter_traces(package)
        for seed in range(1, 41):
            run_episode(cfg, seed)
        gc.collect()
        after = tracemalloc.take_snapshot().filter_traces(package)
    finally:
        tracemalloc.stop()
    assert not renderers
    grown = sum(d.size_diff for d in after.compare_to(before, "filename"))
    # one leaked episode's renderer holds its label maps, well over this
    assert grown < 16 * 1024, grown


def test_label_map_is_read_only():
    cfg, world = scene("swap_cups", seed=0)
    r = Renderer(cfg.cameras, cfg.geometry["lift_m"])
    for raw in (r.render(world), r.render(world)):
        for view in raw.views.values():
            with pytest.raises(ValueError):
                view.label_map[0, 0] = 1


def _rasterize_counter(monkeypatch) -> list:
    """The size of every rasterize_polygon batch, in order."""
    batches = []

    def recording(polygons):
        batches.append(len(polygons))
        return rasterize_polygon(polygons)

    monkeypatch.setattr(render, "rasterize_polygon", recording)
    return batches


def test_second_renderer_pick_rasterizes_nothing(monkeypatch,
                                                 empty_held_table):
    # a cup picked in one episode leaves its rasters, Region, hull and RLE
    # runs in the held table; another episode's pick of a cup finds them
    batches = _rasterize_counter(monkeypatch)
    cfg, world = scene("swap_cups", seed=0)
    r = Renderer(cfg.cameras, cfg.geometry["lift_m"])
    r.render(world)
    cup = world.by_class("cup")[0]
    held, _ = apply_primitive(world, Primitive(kind="pick", target=cup.id))
    first = r.render(held)
    assert len(batches) == 2 and len(empty_held_table) == len(cfg.cameras)
    regions = {v: view.records[cup.id].region
               for v, view in first.views.items()}
    for region in regions.values():
        region.hull, region.rle()

    world2 = init_world(cfg, 1)
    r2 = Renderer(cfg.cameras, cfg.geometry["lift_m"])
    r2.render(world2)
    assert len(batches) == 3
    cup2 = world2.by_class("cup")[1]
    held2, _ = apply_primitive(world2, Primitive(kind="pick", target=cup2.id))
    second = r2.render(held2)
    assert len(batches) == 3  # nothing rasterized
    for v, view in second.views.items():
        rec = view.records[cup2.id]
        assert rec.object_id == cup2.id and rec.region is regions[v]
        assert "hull" in vars(rec.region) and "_runs" in vars(rec.region)
        assert rec.visible_fraction == first.views[v].records[
            cup.id].visible_fraction
    assert len(empty_held_table) == len(cfg.cameras)
    # the table holds copies, not views of a batch array
    for entry in empty_held_table.values():
        assert entry.mask.base is None


def test_same_footprint_objects_at_one_pose_share_one_raster(
        monkeypatch, empty_held_table):
    # the blue cup put down where the black cup stood paints the black
    # cup's raster: nothing is rasterized for it, and its record borrows
    # the black cup's Region
    batches = _rasterize_counter(monkeypatch)
    cfg, world = scene("swap_cups", seed=0)
    plate = world.by_class("plate")[0]
    black, blue = sorted(world.by_class("cup"),
                         key=lambda o: o.attribute("color"))
    r = Renderer(cfg.cameras, cfg.geometry["lift_m"])
    start = r.render(world)
    for prim in (Primitive("pick", black.id), Primitive("place_on", plate.id),
                 Primitive("pick", blue.id)):
        world, result = apply_primitive(world, prim)
        assert result.ok
    r.render(world)
    calls = len(batches)
    moved = world.get(blue.id)
    world = replace(world, objects=tuple(
        replace(o, x=black.x, y=black.y, z_layer=black.z_layer)
        if o.id == blue.id else o for o in world.objects),
        gripper=replace(world.gripper, free=True, held=None))
    assert (moved.x, moved.y) != (black.x, black.y)
    after = r.render(world)
    assert len(batches) == calls
    for v, view in after.views.items():
        rec, was = view.records[blue.id], start.views[v].records[black.id]
        assert rec is not was and rec.object_id == blue.id
        assert rec.region is was.region
        assert np.array_equal(full_mask(rec.region),
                              view.label_map == blue.id)


@pytest.mark.parametrize("vision", ["raw", "masked"])
def test_records_the_task_drops_build_no_region(monkeypatch, vision):
    # a distractor's record is read for its class, id and visible fraction
    # only; neither it nor its raster entry builds a Region
    frames = []
    real = Renderer.render

    def recording(self, world):
        raw = real(self, world)
        frames.append(raw)
        return raw

    monkeypatch.setattr(Renderer, "render", recording)
    cfg = perfect_config("swap_cups", distractors=8, vision=vision)
    assert run_episode(cfg, 3).success
    distractors = {o.id for o in init_world(cfg, 3).objects
                   if o.class_name in world_mod.DISTRACTOR_CLASSES}
    seen = {"dropped": 0, "kept": 0}
    for raw in frames:
        for view in raw.views.values():
            for oid, rec in view.records.items():
                if oid in distractors:
                    assert rec.built_region is None
                    assert 0.0 < rec.visible_fraction <= 1.0
                    if isinstance(rec.source, render._Raster):
                        assert "region" not in vars(rec.source)
                    seen["dropped"] += 1
                else:
                    seen["kept"] += rec.built_region is rec.region
    assert min(seen.values()) > 0, seen


def test_occluded_record_does_not_borrow_its_raster_region():
    # a plate under its cube shows part of its raster: its record builds
    # its own Region; the cube on top shows all of its raster and borrows
    cfg, world = scene("pnp_twice", seed=0)
    cube = world.by_class("cube")[0]
    raw = render_views(world, cfg.cameras, cfg.geometry["lift_m"])
    for view in raw.views.values():
        plate, top = view.records[cube.container_of], view.records[cube.id]
        assert isinstance(top.source, render._Raster)
        assert top.region is top.source.region
        assert not isinstance(plate.source, render._Raster)
        assert plate.visible_fraction < 1.0
        assert np.array_equal(full_mask(plate.region),
                              view.label_map == cube.container_of)
        assert np.array_equal(full_mask(top.region),
                              view.label_map == cube.id)


def test_held_table_stops_growing_after_the_first_episode(empty_held_table):
    cfg = perfect_config("swap_cups", distractors=8, vision="raw")
    run_episode(cfg, 0)
    entries = dict(empty_held_table)
    assert entries
    for seed in range(1, 41):
        run_episode(cfg, seed)
    assert empty_held_table.keys() == entries.keys()
    assert all(empty_held_table[k] is e for k, e in entries.items())


@pytest.mark.parametrize("change", ["lift_m", "camera"])
def test_held_table_keys_by_lifted_pose_and_camera(empty_held_table, change):
    # two configurations whose held cup sits at the same arm pose but
    # renders differently: the second may not reuse the first's rasters
    cfg = SceneConfig(task="swap_cups")
    if change == "lift_m":
        other = replace(cfg, geometry={**cfg.geometry, "lift_m": 0.02})
    else:
        other = replace(cfg, cameras=(replace(cfg.cameras[0], px_per_m=150.0),
                                      cfg.cameras[1]))
    held = {}
    for c in (cfg, other):
        world = init_world(c, 0)
        cup = world.by_class("cup")[0]
        world, _ = apply_primitive(world, Primitive("pick", cup.id))
        raw = render_views(world, c.cameras, c.geometry["lift_m"])
        for v, view in raw.views.items():
            region = view.records[cup.id].region
            assert np.array_equal(full_mask(region), view.label_map == cup.id)
            held[c is cfg, v] = region
    assert held[True, "overhead"].centroid != held[False, "overhead"].centroid
    assert len(empty_held_table) == (4 if change == "lift_m" else 3)
