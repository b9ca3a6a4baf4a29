import numpy as np
import pytest

from scenes import (full_frame_box, full_mask, graph_and_drifted_tracks,
                    scattered_scenes)
from tableplan.config import NoiseConfig
from tableplan.perception import segment
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
    dets = segment(raw, NoiseConfig(), Rng.substream(0, "perception"))
    det = dets["overhead"][0]
    region = raw.views["overhead"].records[det.source_id].region
    assert det.region is region
    # the hull is built once and kept by the region its sharers hold
    assert region.hull is det.region.hull
    for array in (region.crop, region.shifted(0, 0).crop, region.hull):
        with pytest.raises(ValueError):
            array[0, 0] = not array[0, 0]
