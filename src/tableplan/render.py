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

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .config import CameraConfig
from .perception import base_features
from .region import Region, memo
from .world import WorldState, hidden_inside_opaque


def _centres_below(v: np.ndarray, origin: np.ndarray) -> np.ndarray:
    """How many pixel centres origin + 0.5 + k (k >= 0 an integer) lie
    strictly below each v, counted exactly.

    That is ceil(v - 0.5) - origin, but a float v - (origin + 0.5) can round
    onto the wrong side of an integer (a crossing at 31.500000000000004 in
    a box from -10 gives 41.0, not 41.000000000000004, and so 41 centres,
    not 42).  floor(v) and floor(v) + 0.5 are exact, and v lies past
    floor(v) + 0.5 exactly when ceil(v - 0.5) is floor(v) + 1.
    """
    f = np.floor(v)
    return (f + (v > f + 0.5)).astype(np.int64) - origin


def rasterize_polygon(polygons) -> list:
    """Even-odd rasterization of a batch of polygons against pixel centres.

    `polygons` is a list of (N_i, 2) pixel-vertex (col, row) arrays.  Returns
    one (mask, (row0, col0)) per polygon, where mask is a bounding-box
    boolean array; the box is NOT clipped to any frame, so mask.sum() is the
    unoccluded footprint area in pixels.  The masks are views of one array
    shared by the batch: read them, never write them.

    One scanline pass over the whole batch: each edge that straddles a
    row's centre line crosses it at x1 + t * (x2 - x1), and every pixel
    centre left of a crossing toggles once, so a pixel is inside when an odd
    number of that row's crossings lie to its right.  A closed polygon
    crosses every row an even number of times, so that is also the parity
    of the crossings at or left of the pixel.  All boxes' pixels are laid
    out row after row in one flat array, and each crossing is counted at
    its row's start plus its count of pixel centres to the left; one right
    of every centre lands on the next row's first pixel.  A running count
    over the flat array then holds, at each pixel, its own row's crossings
    at or left of it plus every crossing of every earlier row, an even
    number, so its parity is the pixel's inside bit.
    """
    if not polygons:
        return []
    sizes = np.array([len(p) for p in polygons])
    verts = np.concatenate(polygons)
    starts = np.cumsum(sizes) - sizes
    lo = np.floor(np.minimum.reduceat(verts, starts)).astype(np.int64)
    hi = np.ceil(np.maximum.reduceat(verts, starts)).astype(np.int64)
    (c0, r0), (width, height) = lo.T, np.maximum(hi - lo, 1).T
    areas = height * width
    pixel_base = np.cumsum(areas) - areas

    # edge i runs from vertex i to the next vertex of its polygon; it
    # straddles the rows whose centre py has min(y1, y2) <= py < max(y1, y2),
    # so a horizontal edge straddles none
    poly = np.repeat(np.arange(len(polygons)), sizes)
    nxt = np.arange(1, len(verts) + 1)
    nxt[starts + sizes - 1] = starts
    (x1, y1), (x2, y2) = verts.T, verts[nxt].T
    first, stop = _centres_below(np.stack([np.minimum(y1, y2),
                                           np.maximum(y1, y2)]), r0[poly])
    n_rows = stop - first

    # one (edge, row) pair per crossing
    edge = np.repeat(np.arange(len(verts)), n_rows)
    p = poly[edge]
    row = np.arange(len(edge)) + np.repeat(first - (np.cumsum(n_rows) - n_rows),
                                           n_rows)
    # exact row centres, and the crossing in the same float operations and
    # order as per-row scanning, so every crossing is the same float
    py = (r0[p] + 0.5) + row
    x1, y1, x2, y2 = x1[edge], y1[edge], x2[edge], y2[edge]
    t = (py - y1) / (y2 - y1)
    split = _centres_below(x1 + t * (x2 - x1), c0[p])

    # the extra last slot takes crossings right of the last row's centres
    counts = np.bincount(pixel_base[p] + row * width[p] + split,
                         minlength=int(areas.sum()) + 1)
    inside = np.logical_xor.accumulate((counts[:-1] & 1).astype(bool))
    return [(inside[a:a + h * w].reshape(h, w), (r, c))
            for a, h, w, r, c in zip(pixel_base.tolist(), height.tolist(),
                                     width.tolist(), r0.tolist(), c0.tolist())]


class _Raster:
    """One footprint's raster at one lifted pose in one camera: what every
    object of that footprint drawn there paints.  `region`, the Region of
    the raster's in-frame pixels, is built on first read and kept, with its
    hull and RLE runs, for the entry's life."""

    def __init__(self, mask: np.ndarray, origin: tuple, frame: tuple):
        self.mask = mask        # bounding-box raster, not clipped
        self.origin = origin    # (row0, col0) of the mask
        self.frame = frame      # (H, W)
        self.footprint = int(mask.sum())  # pixels, not clipped
        (r0, c0), (mh, mw), (h, w) = origin, mask.shape, frame
        # the frame-clipped box, None when the raster misses the frame
        box = (max(r0, 0), min(r0 + mh, h), max(c0, 0), min(c0 + mw, w))
        if box[0] >= box[1] or box[2] >= box[3]:
            self.box, self.in_frame = None, 0
        elif box == (r0, r0 + mh, c0, c0 + mw):
            self.box, self.in_frame = box, self.footprint
        else:
            self.box = box
            self.in_frame = int(np.count_nonzero(self._clipped()))

    def _clipped(self) -> np.ndarray:
        r0, r1, c0, c1 = self.box
        mr0, mc0 = self.origin
        return self.mask[r0 - mr0:r1 - mr0, c0 - mc0:c1 - mc0]

    @memo
    def region(self) -> Region:
        """The Region of the in-frame pixels; read only when `in_frame` > 0,
        since an empty mask has none."""
        r0, _, c0, _ = self.box
        return Region.from_sub(self._clipped(), (r0, c0), self.frame)


@dataclass(frozen=True, eq=False)
class ViewRecord:
    """One visible object in one view.  Its `region`, the visible mask, is
    built on first read from `source`: the raster entry, whose Region it
    borrows, when every in-frame pixel of the raster is visible, else
    (box-local visible mask, the mask's origin, frame).  So a record that
    perception drops never builds a Region."""

    object_id: int
    class_name: str
    attributes: dict
    base_feature: np.ndarray
    visible_fraction: float  # visible / unoccluded, unclipped footprint pixels
    source: object

    @memo
    def region(self) -> Region:
        if isinstance(self.source, _Raster):
            return self.source.region
        return Region.from_sub(*self.source)

    @property
    def built_region(self) -> Optional[Region]:
        """`region` once it has been read, else None; never builds it."""
        return self.__dict__.get("region")


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
    painted: dict  # object id -> (raster key, z layer, clipped box)
    records: dict  # object id -> ViewRecord, visible objects only


def _repaint(label: np.ndarray, paints: list, dirty: list) -> set:
    """Paint the part of each painted box inside each dirty box into
    `label`, back to front, and return the ids of the objects painted.

    `paints` holds (object id, mask, mask origin, frame-clipped box) back to
    front, `dirty` the frame-clipped dirty boxes; boxes are half-open
    (row0, row1, col0, col1).  An object whose box meets no dirty box is not
    painted.
    """
    touched = set()
    for oid, mask, (mr0, mc0), (pr0, pr1, pc0, pc1) in paints:
        for dr0, dr1, dc0, dc1 in dirty:
            # max and min by comparison: a call each costs more than the test
            r0 = pr0 if pr0 > dr0 else dr0
            r1 = pr1 if pr1 < dr1 else dr1
            if r0 >= r1:
                continue
            c0 = pc0 if pc0 > dc0 else dc0
            c1 = pc1 if pc1 < dc1 else dc1
            if c0 < c1:
                touched.add(oid)
                sub = mask[r0 - mr0:r1 - mr0, c0 - mc0:c1 - mc0]
                label[r0:r1, c0:c1][sub] = oid
    return touched


# Raster entries drawn for the object in the gripper, shared by every
# Renderer in the process: (footprint, x, lifted y, CameraConfig) -> _Raster.
# The gripper holds every object at the arm's pose, which the configuration
# fixes, so a configuration adds one entry per held footprint and camera;
# the table is emptied when it reaches HELD_TABLE_MAX entries, which bounds
# it over many configurations.
_HELD: dict = {}
HELD_TABLE_MAX = 256


class Renderer:
    """Renders one episode's worlds into per-view label maps, carrying
    per-object state from each render to the next.

    Rasters are keyed by what they depend on -- (footprint, x, lifted y,
    camera) -- not by object, so objects of one footprint at one pose share
    one entry (a cup put down where the other cup stood).  Within an episode
    only an object a chunk moved to a pose where nothing of its footprint
    was drawn before gets rasterized; a render projects the footprints the
    cache lacks with one `to_px` call per camera and rasterizes them, for
    both cameras together, in one `rasterize_polygon` call (none when
    nothing needs one).  The entries of
    the object in the gripper also go into the module's `_HELD` table, as
    copies, and outlive the episode: the gripper's pose is fixed by the
    configuration, so after a process's first pick of a footprint no later
    pick in any episode rasterizes it or builds its Region, hull or RLE runs.
    Everything else -- every other entry, each object's footprint vertex
    array and base feature (the features of a render's new objects in one
    `base_features` pass), the records and the label maps -- is dropped
    with the Renderer.

    For each camera the renderer keeps the last label map and, for each
    object painted into it, the object's raster key, z layer and
    frame-clipped box.  An object whose entry differs from the last
    render's has changed: it moved, changed z layer, was hidden inside an
    opaque container, reappeared, or left the frame.  The old and new boxes
    of every changed object are dirty.  The new label map is the last one
    with each dirty box cleared and repainted back to front; a pixel outside
    every dirty box is covered by the same objects, in the same order, as
    before, so it cannot differ.

    An object's visible pixels all lie in the box it was painted into (later
    paints only overwrite), so an object whose box misses every dirty box --
    it did not change, since its own box would be dirty -- keeps the last
    render's ViewRecord whole.  Every other visible object's record is
    looked up in a memo keyed by object id and raster key, and, unless every
    in-frame pixel of the raster is visible, by the bytes of its box-local
    mask, so a mask the episode has shown before (a cup lifted and put
    back, an occluder that moved off and back) returns the record built the
    first time.  A new record whose visible pixels are the raster's
    in-frame pixels (counted, never compared) borrows the raster entry's
    Region; any other builds its own from its box alone, and only when its
    `region` is first read.  Every cached value is a function of its key,
    so no content a render returns depends on what was cached before.

    The first render is the same code starting from an empty frame with no
    painted objects, so every object is changed.  Label maps are read-only
    because the next render starts from them.  A Renderer serves one
    episode: its caches assume that an object id keeps its footprint and
    appearance.
    """

    def __init__(self, cameras, lift_m: float):
        self.cameras = list(cameras)
        self.lift_m = lift_m
        self._cache: dict = {}   # (shape, x, lifted y, view id) -> _Raster
        # footprint -> (shape: its number in this Renderer, (N, 2) vertices)
        self._shapes: dict = {}
        # object id -> (base feature, shape, (N, 2) footprint vertices)
        self._objects: dict = {}
        # (object id, raster key[, box-local mask bytes]) -> ViewRecord
        self._records: dict = {}
        self._views = {}
        for cam in self.cameras:
            w, h = cam.image_size
            self._views[cam.view_id] = _ViewState(
                np.zeros((h, w), dtype=np.int32), {}, {})

    def _rasterize_missing(self, drawable: list, held) -> dict:
        """view id -> each drawable object's raster key, after caching an
        entry for every key the cache lacks: for the object `held` in the
        gripper the held table's entry if it has one, else a new raster."""
        lift = self.lift_m
        poses = [(self._objects[o.id][1], o.x, o.y - (o.z_layer - 1) * lift)
                 for o in drawable]
        keys = {}
        missed = []     # (raster key, camera, held-table key or None)
        polygons = []   # (N_i, 2) pixel vertices, in `missed` order
        for cam in self.cameras:
            view_keys = keys[cam.view_id] = [pose + (cam.view_id,)
                                             for pose in poses]
            batch = []  # (object, raster key), each key once
            batched = set()
            for o, key in zip(drawable, view_keys):
                if key in self._cache or key in batched:
                    continue
                held_key = None
                if o.id == held:
                    held_key = (o.footprint, key[1], key[2], cam)
                    entry = _HELD.get(held_key)
                    if entry is not None:
                        self._cache[key] = entry
                        continue
                batched.add(key)
                batch.append((o, key))
                missed.append((key, cam, held_key))
            if not batch:
                continue
            verts = [self._objects[o.id][2] for o, _ in batch]
            sizes = [len(v) for v in verts]
            lifted = np.array([key[1:3] for _, key in batch])
            world_pts = np.concatenate(verts) + np.repeat(lifted, sizes, axis=0)
            px = np.stack(cam.to_px(world_pts[:, 0], world_pts[:, 1]), axis=1)
            end = np.cumsum(sizes).tolist()
            polygons.extend(px[b - n:b] for b, n in zip(end, sizes))
        if polygons:
            rasters = rasterize_polygon(polygons)
            for (key, cam, held_key), (mask, origin) in zip(missed, rasters):
                w, h = cam.image_size
                if held_key is None:
                    self._cache[key] = _Raster(mask, origin, (h, w))
                    continue
                # a copy: a view would keep the whole batch array alive
                if len(_HELD) >= HELD_TABLE_MAX:
                    _HELD.clear()
                self._cache[key] = _HELD[held_key] = _Raster(
                    mask.copy(), origin, (h, w))
        return keys

    def render(self, world: WorldState) -> RawObservation:
        drawable = sorted(
            (o for o in world.objects if not hidden_inside_opaque(world, o)),
            key=lambda o: (o.z_layer, o.id))
        new = [o for o in drawable if o.id not in self._objects]
        for o, feature in zip(new, base_features([o.appearance_seed
                                                  for o in new])):
            shape = self._shapes.get(o.footprint)
            if shape is None:
                shape = self._shapes[o.footprint] = (
                    len(self._shapes), np.array(o.footprint, dtype=np.float64))
            self._objects[o.id] = (feature, *shape)
        keys = self._rasterize_missing(drawable, world.gripper.held)
        views = {cam.view_id: self._render_view(world, drawable,
                                                keys[cam.view_id], cam)
                 for cam in self.cameras}
        return RawObservation(
            step=world.step_count, views=views,
            gripper_free=world.gripper.free, held_object_id=world.gripper.held,
        )

    def _render_view(self, world: WorldState, drawable: list, keys: list,
                     cam: CameraConfig) -> ViewObservation:
        prev = self._views[cam.view_id]
        painted = {}  # object id -> (raster key, z layer, clipped box)
        paints = []   # (object id, mask, origin, clipped box), back to front
        for obj, key in zip(drawable, keys):
            entry = self._cache[key]
            if entry.box is not None:
                painted[obj.id] = (key, obj.z_layer, entry.box)
                paints.append((obj.id, entry.mask, entry.origin, entry.box))
        dirty = []
        for oid in painted.keys() | prev.painted.keys():
            old, new = prev.painted.get(oid), painted.get(oid)
            if old != new:
                dirty.extend(entry[2] for entry in (old, new) if entry)

        label = prev.label.copy()
        for r0, r1, c0, c1 in dirty:
            label[r0:r1, c0:c1] = 0
        # an object whose box meets no dirty box keeps its last ViewRecord
        touched = _repaint(label, paints, dirty)
        label.setflags(write=False)

        records = {}
        for obj in world.objects:
            oid = obj.id
            if oid not in painted:
                continue
            if oid not in touched:
                if oid in prev.records:
                    records[oid] = prev.records[oid]
                continue
            key, _, (r0, r1, c0, c1) = painted[oid]
            sub = label[r0:r1, c0:c1] == oid
            visible = int(np.count_nonzero(sub))
            if visible == 0:
                continue
            entry = self._cache[key]
            # the visible pixels are a subset of the raster's in-frame ones,
            # so equal counts mean equal masks; the box, and so the mask's
            # shape, is a function of the key
            if visible == entry.in_frame:
                memo_key, source = (oid, key), entry
            else:
                memo_key = (oid, key, sub.tobytes())
                source = (sub, (r0, c0), label.shape)
            rec = self._records.get(memo_key)
            if rec is None:
                rec = self._records[memo_key] = ViewRecord(
                    object_id=oid, class_name=obj.class_name,
                    attributes=dict(obj.attributes),
                    base_feature=self._objects[oid][0],
                    visible_fraction=visible / max(entry.footprint, 1),
                    source=source,
                )
            records[oid] = rec
        self._views[cam.view_id] = _ViewState(label, painted, records)
        return ViewObservation(cam.view_id, cam.image_size, label, records)


def render_views(world: WorldState, cameras, lift_m: float) -> RawObservation:
    """One-shot render without a persistent cache."""
    return Renderer(cameras, lift_m).render(world)
