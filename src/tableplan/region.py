"""Box-local object masks.

A Region is one object's visible mask in one view, stored as a bool `crop`
placed at `origin` = (row0, col0) in a frame of shape `frame` = (H, W).  The
crop is tight -- its first and last rows and columns each hold a pixel -- so
box = (row0, row1, col0, col1), half-open, is the mask's bounding box, and an
empty mask has no Region: the constructors return None for it.  The crop is
read-only because one Region is shared by a view record, its detection, the
groundings made from it and the tracker.  Every piece of per-object mask work
(area, centroid, overlaps, IoU, shifting, RLE) runs inside the box, never
over the whole frame.

A Region is also the only owner of the facts its mask implies: `area`, the
exact integer index `sums` and the `centroid` divided from them are computed
once on construction; `hull` -- what containment is tested against -- and
the RLE runs that snapshots store are each built on first access and kept
for the region's life (`memo`).  So every record, detection and grounding
that shares the region shares its hull and runs, and so does every later
round of the episode that the renderer carries the region into unchanged,
or in which the object's mask recurs at the same pose (the renderer's memo
returns the record, and so the Region, built the first time).  An
unoccluded mask's Region belongs to the renderer's raster entry, which is
keyed by content, not by object: objects of one footprint at one pose
share it, and the entries of the object in the gripper, with their
Regions, hulls and runs, outlive the episode (see render.Renderer).

The hull is built by `containment_hull` in plain numpy, bit-identical to
scipy.ndimage's `binary_fill_holes` (4-connected) followed by
`binary_dilation(iterations=CONTAIN_DILATE_PX)` with the cross structure,
which the tests keep as its reference:

- seed: a background pixel of the crop is outside when its row or its
  column is open to the crop's edge on one side -- four
  `np.logical_or.accumulate` passes;
- sweep: while some background pixel not yet outside is 4-adjacent to an
  outside one, add it and spread the outside set along the background runs
  of its rows and columns.  Each sweep grows the set, and when none is left
  to add, the outside set is the background 4-connected to the crop's edge,
  so what remains is the crop with its holes filled.  Real crops almost
  never enter the loop;
- dilate: pad by HULL_PAD and OR in the four cross shifts
  CONTAIN_DILATE_PX times.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

CONTAIN_DILATE_PX = 2
HULL_PAD = CONTAIN_DILATE_PX + 1


class memo:
    """A method's value, computed on the first read of the attribute and
    stored in the instance dict under the method's name, where every later
    read finds it without reaching this descriptor.  A plain dict write:
    functools.cached_property also takes a lock on each first read (Python
    3.10, 3.11).  It writes past a frozen dataclass's __setattr__."""

    def __init__(self, fn):
        self.fn = fn
        self.name = fn.__name__
        self.__doc__ = fn.__doc__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.fn(obj)
        return value


def _cross(mask: np.ndarray) -> np.ndarray:
    """One binary dilation of `mask` by the 4-neighbour cross; pixels past
    the array's edge count as background."""
    out = mask.copy()
    out[1:] |= mask[:-1]
    out[:-1] |= mask[1:]
    out[:, 1:] |= mask[:, :-1]
    out[:, :-1] |= mask[:, 1:]
    return out


def _fill_holes(crop: np.ndarray) -> np.ndarray:
    """`crop` with its holes filled: every background pixel with no
    4-connected background path to the crop's edge is set.  A new array."""
    acc = np.logical_or.accumulate
    # seed: a pixel is enclosed when every straight line from it to the
    # crop's edge meets a crop pixel (itself included)
    filled = acc(crop, axis=0) & acc(crop, axis=1)
    filled &= acc(crop[::-1], axis=0)[::-1]
    filled &= acc(crop[:, ::-1], axis=1)[:, ::-1]
    holes = filled & ~crop
    if not holes.any():
        return filled
    outside = ~filled
    front = _cross(outside) & holes
    if not front.any():
        return filled
    # sweep: number the background runs of the rows, and of the columns, so
    # that two pixels of one row (column) share a number iff no crop pixel
    # lies between them
    h, w = crop.shape
    row_runs = np.cumsum(crop, axis=1) + np.arange(h)[:, None] * (w + 1)
    col_runs = np.cumsum(crop, axis=0) * w + np.arange(w)
    while front.any():
        outside |= front
        for runs, count in ((row_runs, h * (w + 1)), (col_runs, (h + 1) * w)):
            reached = np.zeros(count, dtype=bool)
            reached[runs[outside]] = True
            outside = reached[runs] & ~crop
        front = _cross(outside) & ~(crop | outside)
    return ~outside


def containment_hull(crop: np.ndarray) -> np.ndarray:
    """`crop` padded by HULL_PAD, hole-filled (4-connected), then dilated
    CONTAIN_DILATE_PX times by the cross; a new writable array."""
    h, w = crop.shape
    hull = np.zeros((h + 2 * HULL_PAD, w + 2 * HULL_PAD), dtype=bool)
    hull[HULL_PAD:HULL_PAD + h, HULL_PAD:HULL_PAD + w] = _fill_holes(crop)
    for _ in range(CONTAIN_DILATE_PX):
        hull = _cross(hull)
    return hull


@dataclass(frozen=True, eq=False)
class Region:
    origin: tuple     # (row0, col0) of the crop in the frame
    crop: np.ndarray
    frame: tuple      # (H, W)
    area: int
    sums: tuple       # exact integer (col, row) index sums of the pixels
    centroid: tuple   # (col, row) of the pixel centres

    @classmethod
    def _placed(cls, origin: tuple, crop: np.ndarray, frame: tuple,
                area: int, sums: tuple) -> "Region":
        # the centroid is divided from the exact integer sums, so it rounds
        # once and a translated region gets the rescanned value
        centroid = (sums[0] / area + 0.5, sums[1] / area + 0.5)
        return cls(origin, crop, frame, area, sums, centroid)

    @classmethod
    def from_sub(cls, sub: np.ndarray, origin: tuple,
                 frame: tuple) -> Optional["Region"]:
        """The region of the pixels of `sub`, a bool array placed at
        `origin` inside the frame; None when `sub` holds no pixel."""
        rows, cols = np.nonzero(sub)
        n = rows.size
        if n == 0:
            return None
        r0, r1 = int(rows[0]), int(rows[-1]) + 1
        c0, c1 = int(cols.min()), int(cols.max()) + 1
        crop = sub[r0:r1, c0:c1].copy()
        crop.setflags(write=False)
        sums = (int(cols.sum()) + origin[1] * n, int(rows.sum()) + origin[0] * n)
        return cls._placed((origin[0] + r0, origin[1] + c0), crop, frame, n, sums)

    @classmethod
    def from_full(cls, mask: np.ndarray) -> Optional["Region"]:
        """The region of a full-frame bool mask, by a whole-frame scan."""
        return cls.from_sub(mask, (0, 0), mask.shape)

    @property
    def box(self) -> tuple:
        r0, c0 = self.origin
        return (r0, r0 + self.crop.shape[0], c0, c0 + self.crop.shape[1])

    @memo
    def hull(self) -> np.ndarray:
        """`containment_hull` of the crop -- padded by HULL_PAD, hole-filled,
        then dilated CONTAIN_DILATE_PX times -- placed at `hull_origin`.
        Read-only."""
        hull = containment_hull(self.crop)
        hull.setflags(write=False)
        return hull

    @property
    def hull_origin(self) -> tuple:
        r0, c0 = self.origin
        return (r0 - HULL_PAD, c0 - HULL_PAD)

    def overlap(self, crop: np.ndarray, origin: tuple) -> int:
        """Pixels of this region that fall on the pixels of `crop`, a bool
        array placed at `origin` (it may reach past the frame)."""
        ar0, ac0 = self.origin
        br0, bc0 = origin
        r0, c0 = max(ar0, br0), max(ac0, bc0)
        r1 = min(ar0 + self.crop.shape[0], br0 + crop.shape[0])
        c1 = min(ac0 + self.crop.shape[1], bc0 + crop.shape[1])
        if r0 >= r1 or c0 >= c1:
            return 0
        sub_a = self.crop[r0 - ar0:r1 - ar0, c0 - ac0:c1 - ac0]
        sub_b = crop[r0 - br0:r1 - br0, c0 - bc0:c1 - bc0]
        return int(np.count_nonzero(sub_a & sub_b))

    def count_in(self, r0: int, r1: int, c0: int, c1: int) -> int:
        """Pixels of this region inside the half-open box (r0, r1, c0, c1),
        which may reach past the frame."""
        ar0, ar1, ac0, ac1 = self.box
        if r0 <= ar0 and ar1 <= r1 and c0 <= ac0 and ac1 <= c1:
            return self.area
        r0, r1 = max(r0, ar0), min(r1, ar1)
        c0, c1 = max(c0, ac0), min(c1, ac1)
        if r0 >= r1 or c0 >= c1:
            return 0
        return int(np.count_nonzero(
            self.crop[r0 - ar0:r1 - ar0, c0 - ac0:c1 - ac0]))

    def iou(self, other: "Region") -> float:
        inter = self.overlap(other.crop, other.origin)
        if inter == 0:
            return 0.0
        return inter / (self.area + other.area - inter)

    def shifted(self, dr: int, dc: int) -> Optional["Region"]:
        """The region moved by (dr, dc) pixels and clipped to the frame;
        None once no pixel is left on it.  A move that keeps the box inside
        the frame is a translation: it shares the crop and needs no scan."""
        h, w = self.frame
        r0, r1, c0, c1 = self.box
        if 0 <= r0 + dr and r1 + dr <= h and 0 <= c0 + dc and c1 + dc <= w:
            n = self.area
            return Region._placed((r0 + dr, c0 + dc), self.crop, self.frame, n,
                                  (self.sums[0] + dc * n, self.sums[1] + dr * n))
        nr0, nr1 = max(r0 + dr, 0), min(r1 + dr, h)
        nc0, nc1 = max(c0 + dc, 0), min(c1 + dc, w)
        if nr0 >= nr1 or nc0 >= nc1:
            return None
        sub = self.crop[nr0 - dr - r0:nr1 - dr - r0,
                        nc0 - dc - c0:nc1 - dc - c0]
        return Region.from_sub(sub, (nr0, nc0), self.frame)

    def rle(self) -> list:
        """Row-major run lengths of the full-frame mask, starting with a
        zero-run (possibly length 0); a new list on every call."""
        return list(self._runs)

    @memo
    def _runs(self) -> tuple:
        """The runs of `rle`, computed once.  Only the region's rows are
        scanned; the rows above and below are the leading and trailing
        zero runs."""
        h, w = self.frame
        r0, r1, c0, c1 = self.box
        band = np.zeros((r1 - r0, w), dtype=bool)
        band[:, c0:c1] = self.crop
        flat = band.ravel()
        changes = np.flatnonzero(flat[1:] != flat[:-1]) + 1
        bounds = np.concatenate(([0], changes, [flat.size]))
        runs = np.diff(bounds).tolist()
        if flat[0]:
            runs.insert(0, 0)
        runs[0] += r0 * w
        if r1 < h:
            if flat[-1]:
                runs.append((h - r1) * w)
            else:
                runs[-1] += (h - r1) * w
        return tuple(runs)
