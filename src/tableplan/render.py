"""Multi-view rendering of the 2.5D world into pixel label maps.

Each camera is a similarity transform (uniform scale, rotation, translation)
of the table plane.  Discrete z layers shift the render position by lift_m
per layer in world -y before projection, which is what gives stacked objects
the vertical adjacency that the image-space support rule keys on.  Because
the lift happens in world space, all views stay similarity transforms of one
plane and cross-view distance ratios are preserved exactly.

Occlusion is painted back to front by (z_layer, id); objects inside an
opaque container render nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import CameraConfig
from .perception import base_feature
from .region import Region
from .world import WorldState, hidden_inside_opaque


def rasterize_polygon(verts_px: np.ndarray) -> tuple:
    """Even-odd rasterization against pixel centres.

    Returns (mask, (row0, col0)) where mask is a bounding-box boolean array;
    the box is NOT clipped to any frame, so mask.sum() is the unoccluded
    footprint area in pixels.

    One scanline pass: each edge that straddles a row's centre line crosses
    it at x1 + t * (x2 - x1), and every pixel centre left of a crossing
    toggles once, so a pixel is inside when an odd number of that row's
    crossings lie to its right.
    """
    cols = verts_px[:, 0]
    rows = verts_px[:, 1]
    c0 = int(math.floor(cols.min()))
    c1 = int(math.ceil(cols.max()))
    r0 = int(math.floor(rows.min()))
    r1 = int(math.ceil(rows.max()))
    width = max(c1 - c0, 1)
    height = max(r1 - r0, 1)
    px = c0 + 0.5 + np.arange(width, dtype=np.float64)
    py = r0 + 0.5 + np.arange(height, dtype=np.float64)
    nxt = np.roll(verts_px, -1, axis=0)
    x1, y1 = verts_px[:, 0:1], verts_px[:, 1:2]
    x2, y2 = nxt[:, 0:1], nxt[:, 1:2]
    # (edge, row) pairs; a horizontal edge straddles no row, so t is finite
    edge, row = np.nonzero((y1 <= py) != (y2 <= py))
    x1, y1, x2, y2 = x1[edge, 0], y1[edge, 0], x2[edge, 0], y2[edge, 0]
    t = (py[row] - y1) / (y2 - y1)
    split = np.searchsorted(px, x1 + t * (x2 - x1))  # pixels left of it
    counts = np.bincount(row * (width + 1) + split,
                         minlength=height * (width + 1))
    at_or_left = counts.reshape(height, width + 1).cumsum(axis=1)
    inside = ((at_or_left[:, -1:] - at_or_left[:, :width]) & 1).astype(bool)
    return inside, (r0, c0)


@dataclass(frozen=True)
class ViewRecord:
    object_id: int
    class_name: str
    attributes: dict
    base_feature: np.ndarray
    region: Region  # the visible mask
    visible_fraction: float  # visible / unoccluded, unclipped footprint pixels


@dataclass(frozen=True)
class ViewObservation:
    view_id: str
    image_size: tuple
    label_map: np.ndarray  # (H, W) int32, 0 = background
    records: dict  # object_id -> ViewRecord, visible objects only


@dataclass(frozen=True)
class RawObservation:
    step: int
    views: dict  # view_id -> ViewObservation
    gripper_free: bool
    held_object_id: int | None


@dataclass(frozen=True)
class _ViewState:
    """What one camera's last render leaves for the next."""
    label: np.ndarray
    painted: dict  # object id -> (raster key, clipped box)
    regions: dict  # object id -> Region, visible objects only


class Renderer:
    """Renders one episode's worlds into per-view label maps, carrying
    per-object state from each render to the next.

    Polygon rasters are cached with their footprint area under (object id,
    pose, view), so within an episode only the one or two objects a chunk
    moved get re-rasterized.  For each camera the renderer keeps the last
    label map and, for each object painted into it, the object's raster key
    and frame-clipped box.  An object whose entry differs from the last
    render's has changed: it moved, changed z layer, was hidden inside an
    opaque container, reappeared, or left the frame.  The old and new boxes
    of every changed object are dirty.  The new label map is the last one
    with each dirty box cleared and repainted back to front; a pixel outside
    every dirty box is covered by the same objects, in the same order, as
    before, so it cannot differ.

    An object's visible pixels all lie in the box it was painted into (later
    paints only overwrite), so an object whose box misses every dirty box --
    it did not change, since its own box would be dirty -- keeps the last
    render's Region, with its hull and RLE runs.  Every other visible object
    gets a Region computed from its box alone, never from a whole-frame pass.

    The first render is the same code starting from an empty frame with no
    painted objects, so every object is changed.  Label maps are read-only
    because the next render starts from them.  A Renderer serves one
    episode: its caches assume that an object id keeps its footprint.
    """

    def __init__(self, cameras, lift_m: float):
        self.cameras = list(cameras)
        self.lift_m = lift_m
        self._cache: dict = {}
        self._views = {}
        for cam in self.cameras:
            w, h = cam.image_size
            self._views[cam.view_id] = _ViewState(
                np.zeros((h, w), dtype=np.int32), {}, {})

    def _raster(self, obj, cam: CameraConfig) -> tuple:
        """(raster key, (mask, (row0, col0), footprint area))."""
        key = (obj.id, obj.x, obj.y, obj.z_layer, cam.view_id)
        hit = self._cache.get(key)
        if hit is None:
            verts = np.array(obj.footprint, dtype=np.float64)
            lifted_y = obj.y - (obj.z_layer - 1) * self.lift_m
            world_pts = verts + np.array([obj.x, lifted_y])
            px = np.stack(cam.to_px(world_pts[:, 0], world_pts[:, 1]), axis=1)
            mask, origin = rasterize_polygon(px)
            hit = (mask, origin, int(mask.sum()))
            self._cache[key] = hit
        return key, hit

    def render(self, world: WorldState) -> RawObservation:
        drawable = sorted(
            (o for o in world.objects if not hidden_inside_opaque(world, o)),
            key=lambda o: (o.z_layer, o.id))
        views = {cam.view_id: self._render_view(world, drawable, cam)
                 for cam in self.cameras}
        return RawObservation(
            step=world.step_count, views=views,
            gripper_free=world.gripper.free, held_object_id=world.gripper.held,
        )

    def _render_view(self, world: WorldState, drawable: list,
                     cam: CameraConfig) -> ViewObservation:
        prev = self._views[cam.view_id]
        h, w = prev.label.shape
        painted = {}  # object id -> (raster key, clipped box)
        paints = []   # (object id, mask, origin, clipped box), back to front
        for obj in drawable:
            key, (mask, (r0, c0), _) = self._raster(obj, cam)
            mh, mw = mask.shape
            box = (max(r0, 0), min(r0 + mh, h), max(c0, 0), min(c0 + mw, w))
            if box[0] >= box[1] or box[2] >= box[3]:
                continue
            painted[obj.id] = (key, box)
            paints.append((obj.id, mask, (r0, c0), box))
        dirty = []
        for oid in painted.keys() | prev.painted.keys():
            old, new = prev.painted.get(oid), painted.get(oid)
            if old != new:
                dirty.extend(entry[1] for entry in (old, new) if entry)

        label = prev.label.copy()
        for r0, r1, c0, c1 in dirty:
            label[r0:r1, c0:c1] = 0
        # the part of each painted box inside each dirty box, back to front;
        # an object whose box meets no dirty box keeps its last Region
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
        label.setflags(write=False)

        regions = {}
        records = {}
        for obj in world.objects:
            oid = obj.id
            if oid not in painted:
                continue
            key, (r0, r1, c0, c1) = painted[oid]
            if oid in touched:
                region = Region.from_sub(label[r0:r1, c0:c1] == oid, (r0, c0),
                                         label.shape)
            else:
                region = prev.regions.get(oid)
            if region is None:
                continue
            regions[oid] = region
            footprint = self._cache[key][2]
            records[oid] = ViewRecord(
                object_id=oid, class_name=obj.class_name,
                attributes=dict(obj.attributes),
                base_feature=base_feature(obj.appearance_seed),
                region=region,
                visible_fraction=region.area / max(footprint, 1),
            )
        self._views[cam.view_id] = _ViewState(label, painted, regions)
        return ViewObservation(cam.view_id, cam.image_size, label, records)


def render_views(world: WorldState, cameras, lift_m: float) -> RawObservation:
    """One-shot render without a persistent cache."""
    return Renderer(cameras, lift_m).render(world)
