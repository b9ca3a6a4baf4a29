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


@dataclass(frozen=True)
class CameraSpec:
    view_id: str
    image_size: tuple  # (width, height)
    scale: float
    rotation: float  # radians
    center_px: tuple
    look_at: tuple

    @classmethod
    def from_config(cls, cfg: CameraConfig) -> "CameraSpec":
        return cls(cfg.view_id, tuple(cfg.image_size), float(cfg.px_per_m),
                   math.radians(cfg.rotation_deg), tuple(cfg.center_px),
                   tuple(cfg.look_at))

    def world_to_px(self, pts: np.ndarray) -> np.ndarray:
        """Map (N, 2) world metres to (N, 2) pixel (col, row) floats."""
        c, s = math.cos(self.rotation), math.sin(self.rotation)
        dx = pts[:, 0] - self.look_at[0]
        dy = pts[:, 1] - self.look_at[1]
        col = self.scale * (c * dx - s * dy) + self.center_px[0]
        row = self.scale * (s * dx + c * dy) + self.center_px[1]
        return np.stack([col, row], axis=1)

    def px_to_world(self, pts: np.ndarray) -> np.ndarray:
        c, s = math.cos(-self.rotation), math.sin(-self.rotation)
        dx = (pts[:, 0] - self.center_px[0]) / self.scale
        dy = (pts[:, 1] - self.center_px[1]) / self.scale
        x = (c * dx - s * dy) + self.look_at[0]
        y = (s * dx + c * dy) + self.look_at[1]
        return np.stack([x, y], axis=1)


def rasterize_polygon(verts_px: np.ndarray) -> tuple:
    """Even-odd rasterization against pixel centres.

    Returns (mask, (row0, col0)) where mask is a bounding-box boolean array;
    the box is NOT clipped to any frame, so mask.sum() is the unoccluded
    footprint area in pixels.
    """
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


class Renderer:
    """Renders a world into per-view label maps, caching polygon rasters.

    The cache key is (object id, pose, view); within an episode only the
    one or two objects a chunk moved get re-rasterized.  An object's visible
    pixels all lie in the frame-clipped box it was painted into (later paints
    only overwrite), so its record is computed from that box alone, never
    from a whole-frame pass.
    """

    def __init__(self, cameras, lift_m: float):
        self.cameras = [c if isinstance(c, CameraSpec) else CameraSpec.from_config(c)
                        for c in cameras]
        self.lift_m = lift_m
        self._cache: dict = {}

    def _raster(self, obj, cam: CameraSpec):
        key = (obj.id, obj.x, obj.y, obj.z_layer, cam.view_id)
        hit = self._cache.get(key)
        if hit is None:
            verts = np.array(obj.footprint, dtype=np.float64)
            lifted_y = obj.y - (obj.z_layer - 1) * self.lift_m
            world_pts = verts + np.array([obj.x, lifted_y])
            hit = rasterize_polygon(cam.world_to_px(world_pts))
            self._cache[key] = hit
        return hit

    def render(self, world: WorldState) -> RawObservation:
        views = {}
        drawable = sorted(
            (o for o in world.objects if not hidden_inside_opaque(world, o)),
            key=lambda o: (o.z_layer, o.id))
        for cam in self.cameras:
            w, h = cam.image_size
            label = np.zeros((h, w), dtype=np.int32)
            footprint = {}
            boxes = {}  # object id -> clipped box it was painted into
            for obj in drawable:
                mask, (r0, c0) = self._raster(obj, cam)
                footprint[obj.id] = int(mask.sum())
                mh, mw = mask.shape
                rr0, cc0 = max(r0, 0), max(c0, 0)
                rr1, cc1 = min(r0 + mh, h), min(c0 + mw, w)
                if rr0 >= rr1 or cc0 >= cc1:
                    continue
                sub = mask[rr0 - r0:rr1 - r0, cc0 - c0:cc1 - c0]
                label[rr0:rr1, cc0:cc1][sub] = obj.id
                boxes[obj.id] = (rr0, rr1, cc0, cc1)
            records = self._records(world, label, footprint, boxes)
            views[cam.view_id] = ViewObservation(cam.view_id, cam.image_size,
                                                 label, records)
        return RawObservation(
            step=world.step_count, views=views,
            gripper_free=world.gripper.free, held_object_id=world.gripper.held,
        )

    @staticmethod
    def _records(world: WorldState, label: np.ndarray, footprint: dict,
                 boxes: dict) -> dict:
        records = {}
        for obj in world.objects:
            oid = obj.id
            if oid not in boxes:
                continue
            r0, r1, c0, c1 = boxes[oid]
            region = Region.from_sub(label[r0:r1, c0:c1] == oid, (r0, c0),
                                     label.shape)
            if region is None:
                continue
            n = region.area
            records[oid] = ViewRecord(
                object_id=oid, class_name=obj.class_name,
                attributes=dict(obj.attributes),
                base_feature=base_feature(obj.appearance_seed),
                region=region,
                visible_fraction=n / max(footprint.get(oid, n), 1),
            )
        return records


def render_views(world: WorldState, cameras, lift_m: float = 0.03) -> RawObservation:
    """One-shot render without a persistent cache."""
    return Renderer(cameras, lift_m).render(world)
