import numpy as np
import pytest

from scenes import (full_frame_box, full_mask, graph_and_drifted_tracks,
                    scattered_scenes)
from tableplan.config import NoiseConfig
from tableplan.perception import make_task_spec, segment
from tableplan.region import Region
from tableplan.rng import Rng
from tableplan.serialize import rle_decode, rle_encode


def shift_ref(mask: np.ndarray, dr: int, dc: int) -> np.ndarray:
    """Whole-frame translation by (dr, dc), clipped at the frame edges."""
    h, w = mask.shape
    out = np.zeros_like(mask)
    src = mask[max(-dr, 0):h - max(dr, 0), max(-dc, 0):w - max(dc, 0)]
    out[max(dr, 0):max(dr, 0) + src.shape[0],
        max(dc, 0):max(dc, 0) + src.shape[1]] = src
    return out


def rescanned_shift(region: Region, dr: int, dc: int):
    """Region.shifted as it was: clip the moved box, then rescan the crop
    with from_sub."""
    h, w = region.frame
    r0, r1, c0, c1 = region.box
    nr0, nr1 = max(r0 + dr, 0), min(r1 + dr, h)
    nc0, nc1 = max(c0 + dc, 0), min(c1 + dc, w)
    if nr0 >= nr1 or nc0 >= nc1:
        return None
    sub = region.crop[nr0 - dr - r0:nr1 - dr - r0, nc0 - dc - c0:nc1 - dc - c0]
    return Region.from_sub(sub, (nr0, nc0), region.frame)


def random_regions(rng: np.random.Generator, count: int):
    """Regions of random sparse masks in random small frames."""
    for _ in range(count):
        h, w = (int(v) for v in rng.integers(1, 40, size=2))
        mask = rng.random((h, w)) < rng.uniform(0.05, 0.9)
        region = Region.from_full(mask)
        if region is not None:
            yield region


def test_shifted_translation_matches_rescan():
    rng = np.random.default_rng(1234)
    regions = list(random_regions(rng, 300))
    for cfg, world, raw in scattered_scenes(30, seed=4242):
        regions += [rec.region for view in raw.views.values()
                    for rec in view.records.values()]
    seen = {"inside": 0, "clipped": 0, "off_frame": 0}
    for region in regions:
        h, w = region.frame
        r0, r1, c0, c1 = region.box
        shifts = [(0, 0), (-r0, -c0), (h - r1, w - c1),
                  (-r0 - 1, 0), (0, w - c1 + 1), (h, 0), (0, -w)]
        shifts += [(int(rng.integers(-h, h + 1)), int(rng.integers(-w, w + 1)))
                   for _ in range(6)]
        for dr, dc in shifts:
            got = region.shifted(dr, dc)
            want = rescanned_shift(region, dr, dc)
            if want is None:
                assert got is None
                seen["off_frame"] += 1
                continue
            assert (got.origin, got.frame, got.area, got.sums) == \
                (want.origin, want.frame, want.area, want.sums)
            assert np.array_equal(got.crop, want.crop)
            assert [v.hex() for v in got.centroid] == \
                [v.hex() for v in want.centroid]
            inside = (0 <= r0 + dr and r1 + dr <= h
                      and 0 <= c0 + dc and c1 + dc <= w)
            if inside:
                assert got.crop is region.crop
            seen["inside" if inside else "clipped"] += 1
    assert min(seen.values()) > 0, seen


def test_in_frame_shift_never_scans(monkeypatch):
    mask = np.zeros((30, 40), dtype=bool)
    mask[5:12, 8:20] = True
    mask[7, 8] = False
    region = Region.from_full(mask)
    scans = []
    real_nonzero = np.nonzero

    def counting_nonzero(a):
        scans.append(a.shape)
        return real_nonzero(a)

    monkeypatch.setattr(np, "nonzero", counting_nonzero)
    for dr, dc in [(0, 0), (-5, -8), (18, 20), (3, -2)]:
        moved = region.shifted(dr, dc)
        assert moved.box == (5 + dr, 12 + dr, 8 + dc, 20 + dc)
    assert scans == []
    assert region.shifted(-6, 0).area == region.area - 12  # clipped: rescanned
    assert len(scans) == 1


def test_shifted_matches_full_frame_shift():
    # detection and drifted tracker regions moved by random offsets, some
    # far enough to clip the region or carry it off the frame
    rng = np.random.default_rng(606)
    seen = {"inside": 0, "clipped": 0, "off_frame": 0}
    for k, (cfg, world, raw) in enumerate(scattered_scenes(100, seed=808)):
        graph, tracked = graph_and_drifted_tracks(cfg, raw, k)
        regions = [g.region for n in graph.sorted_nodes()
                   for g in n.groundings.values()]
        regions += list(tracked.values())
        for region in regions:
            h, w = region.frame
            dr = int(rng.integers(-h // 2, h // 2 + 1))
            dc = int(rng.integers(-w // 2, w // 2 + 1))
            want = shift_ref(full_mask(region), dr, dc)
            got = region.shifted(dr, dc)
            if not want.any():
                assert got is None
                seen["off_frame"] += 1
                continue
            assert got.frame == region.frame
            assert got.box == full_frame_box(want)  # tight after clipping
            assert np.array_equal(full_mask(got), want)
            assert got.area == int(want.sum())
            seen["clipped" if got.area < region.area else "inside"] += 1
    assert min(seen.values()) > 0, seen


@pytest.mark.parametrize("rows", [(0,), (3,), (0, 3), (1, 2)],
                         ids=["first_row", "last_row", "both", "inner"])
def test_rle_edge_rows(rows):
    # pixels on the first and last rows, at the first and last columns, so
    # the leading and trailing zero runs can be empty
    mask = np.zeros((4, 5), dtype=bool)
    for r in rows:
        mask[r, 0] = mask[r, 4] = True
    runs = Region.from_full(mask).rle()
    assert runs == rle_encode(mask)
    assert np.array_equal(rle_decode(runs, mask.shape), mask)


def test_rle_runs_are_cached_and_copied():
    mask = np.zeros((6, 7), dtype=bool)
    mask[2:4, 1:5] = True
    region = Region.from_full(mask)
    first = region.rle()
    first.append(99)
    first[0] = -1
    second = region.rle()
    assert second == region.rle() == rle_encode(mask)
    assert second is not region.rle()


def test_shared_crop_is_read_only():
    cfg, world, raw = next(scattered_scenes(1, seed=3))
    dets = segment(raw, NoiseConfig(), Rng.substream(0, "perception"),
                   make_task_spec(cfg.task))
    det = dets["overhead"][0]
    region = raw.views["overhead"].records[det.source_id].region
    assert det.region is region
    # the hull is built once and kept by the region its sharers hold
    assert region.hull is det.region.hull
    for array in (region.crop, region.shifted(0, 0).crop, region.hull):
        with pytest.raises(ValueError):
            array[0, 0] = not array[0, 0]
