import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import ndimage

from scenes import (full_frame_box, full_mask, graph_and_drifted_tracks,
                    scattered_scenes, workload_configs)
from tableplan import region as region_mod
from tableplan.config import NoiseConfig
from tableplan.harness import run_episode
from tableplan.perception import make_task_spec, segment
from tableplan.region import CONTAIN_DILATE_PX, HULL_PAD, Region
from tableplan.render import Renderer
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


# -- containment hull -----------------------------------------------------------

def assert_hull_matches_ndimage(crop: np.ndarray):
    """The hull, and the hole filling before its dilation, against
    scipy.ndimage: the reference.  Filling is checked on its own because
    the dilation covers up a wrongly filled corridor narrower than it."""
    filled = ndimage.binary_fill_holes(np.pad(crop, HULL_PAD))
    want = ndimage.binary_dilation(filled, iterations=CONTAIN_DILATE_PX)
    assert np.array_equal(region_mod._fill_holes(crop),
                          filled[HULL_PAD:-HULL_PAD, HULL_PAD:-HULL_PAD])
    assert np.array_equal(region_mod.containment_hull(crop), want)


def episode_crops(monkeypatch) -> dict:
    """(config index, seed) -> the distinct crops of every rendered object
    and every hull built in that episode."""
    crops = []
    real_render = Renderer.render
    real_hull = region_mod.containment_hull

    def recording_render(self, world):
        raw = real_render(self, world)
        crops.extend(rec.region.crop for view in raw.views.values()
                     for rec in view.records.values())
        return raw

    def recording_hull(crop):
        crops.append(crop)
        return real_hull(crop)

    monkeypatch.setattr(Renderer, "render", recording_render)
    monkeypatch.setattr(region_mod, "containment_hull", recording_hull)
    out = {}
    for i, cfg in enumerate(workload_configs()):
        for seed in (0, 1):
            crops.clear()
            run_episode(cfg, seed)
            out[i, seed] = list({(c.shape, c.tobytes()): c
                                 for c in crops}.values())
    return out


def square_spiral(n: int) -> np.ndarray:
    """Walls of a square spiral; its 1-pixel corridor opens at (1, 0) and
    winds in to the centre."""
    mask = np.zeros((n, n), dtype=bool)
    r, c = 0, 0
    mask[r, c] = True
    steps = [(0, 1, n - 1), (1, 0, n - 1)]
    length = n - 1
    while length > 0:
        steps += [(0, -1, length), (-1, 0, length - 2)]
        steps += [(0, 1, length - 2), (1, 0, length - 4)]
        length -= 4
    for dr, dc, k in steps:
        for _ in range(max(k, 0)):
            r, c = r + dr, c + dc
            mask[r, c] = True
    return mask


def nested_rings(n: int, gaps: bool) -> np.ndarray:
    """Concentric square rings two pixels apart; with `gaps`, each ring is
    cut on the side opposite the cut of the ring around it."""
    mask = np.zeros((n, n), dtype=bool)
    for k, lo in enumerate(range(0, n // 2, 2)):
        hi = n - 1 - lo
        mask[lo, lo:hi + 1] = mask[hi, lo:hi + 1] = True
        mask[lo:hi + 1, lo] = mask[lo:hi + 1, hi] = True
        if gaps and hi - lo > 2:
            mask[(lo + hi) // 2, hi if k % 2 else lo] = False
    return mask


def adversarial_crops() -> dict:
    diamond = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=bool)
    corner_cut = np.ones((6, 6), dtype=bool)
    corner_cut[1:5, 1:5] = False
    corner_cut[0, 5] = False          # the inside meets it only diagonally
    plus = np.zeros((7, 9), dtype=bool)
    plus[3, :] = plus[:, 4] = True
    sealed = square_spiral(15)
    sealed[1, 0] = True
    wide = np.ones((3, 3), dtype=bool)
    return {
        "spiral": square_spiral(15),
        "large_spiral": square_spiral(31),
        "sealed_spiral": sealed,
        "wide_spiral": np.kron(square_spiral(11), wide),
        "rings_with_gaps": nested_rings(21, gaps=True),
        "wide_rings_with_gaps": np.kron(nested_rings(13, gaps=True), wide),
        "closed_rings": nested_rings(21, gaps=False),
        "diagonal_only": diamond,
        "diagonal_corner": corner_cut,
        "one_pixel": np.ones((1, 1), dtype=bool),
        "row": np.ones((1, 9), dtype=bool),
        "column": np.ones((9, 1), dtype=bool),
        "rectangle": np.ones((5, 8), dtype=bool),
        "plus_on_all_edges": plus,
    }


def test_hull_matches_ndimage_on_episode_crops(monkeypatch):
    per_episode = episode_crops(monkeypatch)
    monkeypatch.undo()
    assert all(per_episode.values()), sorted(
        key for key, crops in per_episode.items() if not crops)
    holed = 0
    for crops in per_episode.values():
        for crop in crops:
            assert_hull_matches_ndimage(crop)
            holed += not np.array_equal(ndimage.binary_fill_holes(crop), crop)
    # some real crops have holes for the hull to fill
    assert holed > 0


@pytest.mark.parametrize("name", sorted(adversarial_crops()))
def test_hull_matches_ndimage_on_adversarial_crops(name):
    assert_hull_matches_ndimage(adversarial_crops()[name])


def test_hull_matches_ndimage_on_random_crops():
    rng = np.random.default_rng(20261018)
    for _ in range(2000):
        h, w = (int(v) for v in rng.integers(1, 33, size=2))
        crop = rng.random((h, w)) < rng.uniform(0.1, 0.95)
        if rng.random() < 0.5:      # pixels on all four edges
            crop[0, rng.integers(w)] = crop[-1, rng.integers(w)] = True
            crop[rng.integers(h), 0] = crop[rng.integers(h), -1] = True
        assert_hull_matches_ndimage(crop)


def test_spirals_and_gapped_rings_take_several_sweeps(monkeypatch):
    # each sweep and the check before the first one dilate `outside` once,
    # on top of the CONTAIN_DILATE_PX dilations of the hull itself
    calls = []
    real = region_mod._cross

    def counting(mask):
        calls.append(mask.shape)
        return real(mask)

    monkeypatch.setattr(region_mod, "_cross", counting)
    crops = adversarial_crops()
    for name in ("spiral", "large_spiral", "wide_spiral", "rings_with_gaps",
                 "wide_rings_with_gaps"):
        calls.clear()
        region_mod.containment_hull(crops[name])
        assert len(calls) - CONTAIN_DILATE_PX > 3, name
    calls.clear()
    region_mod.containment_hull(crops["rectangle"])
    assert len(calls) == CONTAIN_DILATE_PX


def test_package_runs_without_scipy():
    # every module of the package and a whole episode run without
    # importing scipy; only the tests use it, as the hull's reference
    code = ("import importlib, pkgutil, sys\n"
            "import tableplan\n"
            "for m in pkgutil.iter_modules(tableplan.__path__):\n"
            "    importlib.import_module('tableplan.' + m.name)\n"
            "from tableplan.config import perfect_config\n"
            "from tableplan.harness import run_episode\n"
            "run_episode(perfect_config('swap_cups', distractors=8,"
            " vision='raw'), 0)\n"
            "print(sorted(m for m in sys.modules"
            " if m == 'scipy' or m.startswith('scipy.')))\n")
    src = str(Path(region_mod.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
