import math
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import ndimage

from oracles import HAND_ANCHORS, HAND_POINT, HAND_SIGNATURE
from scenes import (SEQUENCE_OBJECTS, full_frame_box, full_mask,
                    graph_and_drifted_tracks, scattered_scenes,
                    workload_configs)
from tableplan import harness
from tableplan.config import (AssocThresholds, NoiseConfig, SceneConfig,
                              perfect_config)
from tableplan import graph as graph_mod
from tableplan.graph import (CONTAIN_COVERAGE, NEAR_FRACTION,
                             SUPPORT_CONTACT_PX,
                             NoAnchors, SemanticGraph, _mutual_nearest,
                             _rebuild_edges, _spawn_nodes,
                             apply_action_feedback, associate,
                             associate_geometric, associate_semantic,
                             distance_signature, induce_relations,
                             init_graph, node_by_source, signature_distance,
                             update_graph, Grounding)
from tableplan.perception import (Detection, base_feature, cosine_distance,
                                  make_task_spec, segment)
from tableplan import region as region_mod
from tableplan.region import CONTAIN_DILATE_PX, Region
from tableplan.render import Renderer, render_views
from tableplan.rng import Rng
from tableplan.serialize import canonical_json, graph_to_snapshot
from tableplan.world import (DISTRACTOR_CLASSES, LayoutInfeasible, Primitive,
                             apply_primitive, ground_truth_relations,
                             init_world)

THRESH = AssocThresholds()


def scene(task="swap_cups", seed=0, **kw):
    cfg = SceneConfig(task=task, **kw)
    world = init_world(cfg, seed)
    raw = render_views(world, cfg.cameras, cfg.geometry["lift_m"])
    return cfg, world, raw


def graph_for(task="swap_cups", seed=0, **kw):
    cfg, world, raw = scene(task, seed, **kw)
    spec = make_task_spec(task, kw.get("variant", "black"))
    return cfg, world, raw, init_graph(raw, spec, cfg.thresholds)


def fake_det(view, source, feature, centroid=(5.0, 5.0), cls="cube"):
    mask = np.zeros((20, 20), dtype=bool)
    r, c = int(centroid[1]), int(centroid[0])
    mask[r - 1:r + 2, c - 1:c + 2] = True
    return Detection(view_id=view, source_id=source,
                     region=Region.from_full(mask), class_name=cls,
                     attributes={}, feature=feature)


# -- semantic association ------------------------------------------------------


def test_semantic_mutual_nearest():
    fa, fb, fc = base_feature(1), base_feature(2), base_feature(3)
    a = [fake_det("v1", 1, fa), fake_det("v1", 2, fb)]
    b = [fake_det("v2", 11, fb), fake_det("v2", 12, fa), fake_det("v2", 13, fc)]
    pairs = associate_semantic(a, b, tau_vis=0.15)
    assert set(pairs) == {(0, 1), (1, 0)}


def test_semantic_threshold_rejects():
    a = [fake_det("v1", 1, base_feature(1))]
    b = [fake_det("v2", 2, base_feature(2))]
    assert associate_semantic(a, b, tau_vis=1e-6) == []
    assert associate_semantic([], b, 0.5) == []


# -- distance signatures ---------------------------------------------------------


def test_signature_hand_example():
    sig = distance_signature(HAND_POINT, HAND_ANCHORS)
    assert tuple(sig) == pytest.approx(HAND_SIGNATURE)


def test_signature_needs_anchors():
    with pytest.raises(NoAnchors):
        distance_signature((1.0, 1.0), [])


def test_signature_similarity_invariance():
    rng = Rng.substream(0, "sig")
    anchors = [(rng.uniform(0, 100), rng.uniform(0, 100)) for _ in range(5)]
    point = (rng.uniform(0, 100), rng.uniform(0, 100))
    ref = distance_signature(point, anchors)
    for _ in range(50):
        s = math.exp(rng.uniform(-5, 5))
        th = rng.uniform(0, 2 * math.pi)
        tx, ty = rng.uniform(-40, 40), rng.uniform(-40, 40)
        c, si = math.cos(th), math.sin(th)

        def tf(p):
            return (s * (c * p[0] - si * p[1]) + tx,
                    s * (si * p[0] + c * p[1]) + ty)

        got = distance_signature(tf(point), [tf(a) for a in anchors])
        assert np.allclose(got, ref, atol=1e-9)


def test_signature_distance_inflation():
    a = np.array([0.5, 0.7])
    b = np.array([0.6, 0.7])
    # plain L2 is 0.1; one shared of four total inflates by sqrt(4/1) = 2
    assert signature_distance(a, b, shared=2, total=2) == pytest.approx(0.1)
    assert signature_distance(a[:1], b[:1], shared=1, total=4) == \
        pytest.approx(0.2)
    assert signature_distance(a, b, shared=0, total=4) == math.inf


def test_geometric_association_synthetic():
    # two views of four coplanar points, view B rotated+scaled; two anchors
    # shared, two leftovers to match geometrically
    pts = [(10.0, 10.0), (40.0, 12.0), (22.0, 30.0), (35.0, 35.0)]

    def view_b(p):
        s, th = 1.7, 0.4
        c, si = math.cos(th), math.sin(th)
        return (s * (c * p[0] - si * p[1]) + 7, s * (si * p[0] + c * p[1]) + 3)

    left_a = [pts[2], pts[3]]
    left_b = [view_b(pts[3]), view_b(pts[2])]
    anchors_a = [pts[0], pts[1]]
    anchors_b = [view_b(pts[0]), view_b(pts[1])]
    pairs = associate_geometric(left_a, left_b, anchors_a, anchors_b,
                                ["p0", "p1"], ["p0", "p1"], 2,
                                tau_geo=0.10, margin_geo=0.05)
    assert set(pairs) == {(0, 1), (1, 0)}


def test_geometric_association_requires_anchors():
    a, b = [(5.0, 5.0)], [(5.0, 5.0)]
    with pytest.raises(NoAnchors):
        associate_geometric(a, b, [], [], [], [], 0, 0.1, 0.05)
    # anchors exist but none shared: no pairs rather than an error
    assert associate_geometric(a, b, [(0.0, 0.0)], [(1.0, 1.0)],
                               ["x"], ["y"], 2, 0.1, 0.05) == []


def test_associate_single_view_all_singles():
    d = [fake_det("v1", 1, base_feature(1))]
    pairs, singles, flag = associate({"v1": d}, THRESH)
    assert pairs == [] and singles == d and not flag


def test_associate_no_anchor_flag():
    # nothing matches semantically and there are no anchors at all
    a = [fake_det("v1", 1, base_feature(1))]
    b = [fake_det("v2", 2, base_feature(2))]
    pairs, singles, flag = associate({"v1": a, "v2": b},
                                     AssocThresholds(tau_vis=1e-9))
    assert pairs == [] and len(singles) == 2 and flag


def test_associate_identity_on_clean_scenes():
    for seed in range(5):
        cfg, world, raw, g = graph_for("swap_cups", seed=seed, distractors=2)
        # every relevant object becomes exactly one node grounded in both views
        spec = make_task_spec("swap_cups")
        want = {o.id for o in world.objects
                if spec.admits(o.class_name)}
        by_source = {}
        for node in g.sorted_nodes():
            srcs = {gr.source_id for gr in node.groundings.values()}
            assert len(srcs) == 1  # never mixes two simulator objects
            by_source[srcs.pop()] = node
        assert set(by_source) == want
        assert all(len(n.groundings) == 2 for n in g.sorted_nodes())


# -- relation induction ------------------------------------------------------------


def test_induce_containment_and_near():
    big = np.zeros((60, 60), dtype=bool)
    big[10:40, 10:40] = True
    big[15:35, 15:35] = False  # a ring with a hole
    small = np.zeros((60, 60), dtype=bool)
    small[20:30, 20:30] = True
    regions = {1: {"v": Region.from_full(small)},
               2: {"v": Region.from_full(big)}}
    rels = induce_relations(regions, {"v": 85.0})
    assert (1, 2, "in") in rels
    assert (2, 1, "in") not in rels
    assert (1, 2, "near") in rels


def test_induce_support():
    base = np.zeros((60, 60), dtype=bool)
    base[30:40, 10:30] = True
    top = np.zeros((60, 60), dtype=bool)
    top[20:30, 12:28] = True  # bottom row touches base's top row
    regions = {1: {"v": Region.from_full(top)},
               2: {"v": Region.from_full(base)}}
    rels = induce_relations(regions, {"v": 1000.0})
    assert (1, 2, "on") in rels
    assert (2, 1, "on") not in rels


def test_containment_shadows_support():
    big = np.zeros((60, 60), dtype=bool)
    big[10:40, 10:40] = True
    big[15:35, 15:35] = False
    small = np.zeros((60, 60), dtype=bool)
    small[25:34, 20:30] = True  # inside the hull AND touching the lower band
    regions = {1: {"v": Region.from_full(small)},
               2: {"v": Region.from_full(big)}}
    rels = induce_relations(regions, {"v": 1000.0})
    assert (1, 2, "in") in rels and (1, 2, "on") not in rels


def test_relations_match_oracle_on_initial_scenes():
    for task in ("pnp_twice", "place_and_stack", "swap_cups"):
        for seed in range(5):
            cfg, world, raw, g = graph_for(task, seed=seed)
            node_src = {n.node_id: next(iter(n.groundings.values())).source_id
                        for n in g.sorted_nodes()}
            got = {(node_src[a], node_src[b], rel)
                   for (a, b, rel) in g.edges}
            spec = make_task_spec(task)
            relevant = {o.id for o in world.objects
                        if spec.admits(o.class_name)}
            want = {(a, b, rel)
                    for (a, b, rel) in ground_truth_relations(world, 0.15)
                    if a in relevant and b in relevant}
            assert got == want, (task, seed)


HULL_PAD = CONTAIN_DILATE_PX + 1


def eager_relations(masks: dict, image_diag: dict) -> set:
    """Reference rules over full frames, with every hull built up front.

    masks: node_id -> {view_id: full-frame bool mask}.
    """
    hulls = {}
    for nid, views in masks.items():
        for v, mask in views.items():
            filled = ndimage.binary_fill_holes(np.pad(mask, HULL_PAD))
            hull = ndimage.binary_dilation(filled, iterations=CONTAIN_DILATE_PX)
            hulls[nid, v] = hull[HULL_PAD:-HULL_PAD, HULL_PAD:-HULL_PAD]

    def centroid(mask):
        rows, cols = np.nonzero(mask)
        return cols.mean() + 0.5, rows.mean() + 0.5

    def inside(a, b, v):
        ma, area_a = masks[a][v], int(masks[a][v].sum())
        if not area_a < int(masks[b][v].sum()):
            return False
        return np.count_nonzero(ma & hulls[b, v]) / area_a >= CONTAIN_COVERAGE

    def on(a, b, v):
        ma, mb = masks[a][v], masks[b][v]
        if not centroid(ma)[1] < centroid(mb)[1]:
            return False
        shifted = np.zeros_like(ma)
        shifted[1:] = ma[:-1]
        return np.count_nonzero(shifted & mb) >= SUPPORT_CONTACT_PX

    rels = set()
    for a in sorted(masks):
        for b in sorted(masks):
            both = [v for v in masks[a] if v in masks[b]]
            if a == b or not both:
                continue
            if all(inside(a, b, v) for v in both):
                rels.add((a, b, "in"))
            elif all(on(a, b, v) for v in both):
                rels.add((a, b, "on"))
            if a < b and any(
                    math.dist(centroid(masks[a][v]), centroid(masks[b][v]))
                    / image_diag[v] < NEAR_FRACTION for v in both):
                rels.add((a, b, "near"))
    return rels


def random_shape(rng, shape, box):
    """One mask of a random kind inside box = (r0, c0, r1, c1)."""
    r0, c0, r1, c1 = box
    out = np.zeros(shape, dtype=bool)
    kind = rng.choice(["rect", "ring", "diagonal_hole", "pixel", "blob"])
    if kind == "pixel":
        out[rng.integers(r0, r1), rng.integers(c0, c1)] = True
    elif kind == "rect" or r1 - r0 < 6 or c1 - c0 < 6:
        out[r0:r1, c0:c1] = True
    elif kind == "blob":
        out[r0:r1, c0:c1] = rng.random((r1 - r0, c1 - c0)) < 0.6
    else:
        out[r0:r1, c0:c1] = True
        out[r0 + 2:r1 - 2, c0 + 2:c1 - 2] = False
        if kind == "diagonal_hole":
            # the hole reaches the outside only through corner-to-corner steps
            out[r0, c0] = out[r0 + 1, c0 + 1] = False
    return out


def random_scene(rng, shape=(48, 48)):
    """Masks painted back to front into one label map per view, so they are
    disjoint as rendered ones are; later shapes often sit in the first."""
    h, w = shape
    n = int(rng.integers(2, 7))
    views = {}
    for v in ("a", "b"):
        label = np.zeros(shape, dtype=np.int32)
        outer = None
        for nid in range(1, n + 1):
            if rng.random() < 0.2:
                continue  # not grounded in this view
            if (outer is not None and outer[2] - outer[0] > 1
                    and outer[3] - outer[1] > 1 and rng.random() < 0.5):
                r0 = int(rng.integers(outer[0], outer[2] - 1))
                c0 = int(rng.integers(outer[1], outer[3] - 1))
                r1 = int(rng.integers(r0 + 1, outer[2] + 1))
                c1 = int(rng.integers(c0 + 1, outer[3] + 1))
            else:
                # corners may land on the frame edge
                r0, c0 = int(rng.integers(0, h - 2)), int(rng.integers(0, w - 2))
                r1 = int(rng.integers(r0 + 1, min(r0 + 30, h) + 1))
                c1 = int(rng.integers(c0 + 1, min(c0 + 30, w) + 1))
            if outer is None:
                outer = (r0, c0, r1, c1)
            label[random_shape(rng, shape, (r0, c0, r1, c1))] = nid
        views[v] = label
    masks = {}
    for v, label in views.items():
        for nid in range(1, n + 1):
            if (label == nid).any():
                masks.setdefault(nid, {})[v] = label == nid
    return masks


def test_lazy_hulls_match_eager_reference():
    rng = np.random.default_rng(20240917)
    diag = {"a": 20.0, "b": 20.0}
    seen = set()
    for _ in range(300):
        masks = random_scene(rng)
        regions = {nid: {v: Region.from_full(m) for v, m in views.items()}
                   for nid, views in masks.items()}
        want = eager_relations(masks, diag)
        assert induce_relations(regions, diag) == want
        seen.update(rel for (_, _, rel) in want)
    assert seen == {"in", "on", "near"}


def reference_in_single_view(a: Region, b: Region) -> bool:
    if not a.area < b.area:
        return False
    ar0, ar1, ac0, ac1 = a.box
    br0, br1, bc0, bc1 = b.box
    if not (ar0 < br1 + HULL_PAD and br0 - HULL_PAD < ar1
            and ac0 < bc1 + HULL_PAD and bc0 - HULL_PAD < ac1):
        return False
    covered = a.overlap(b.hull, b.hull_origin)
    return covered / a.area >= CONTAIN_COVERAGE


def reference_on_single_view(a: Region, b: Region) -> bool:
    if not a.centroid[1] < b.centroid[1]:
        return False
    ar0, ac0 = a.origin
    contact = b.overlap(a.crop, (ar0 + 1, ac0))
    return contact >= SUPPORT_CONTACT_PX


def reference_induce_relations(regions: dict, image_diag: dict) -> set:
    """induce_relations as it was: one call per pair and view for each
    rule, reading each region's facts in the call."""
    rels = set()
    ids = sorted(regions)
    for a in ids:
        for b in ids:
            if a == b:
                continue
            ea, eb = regions[a], regions[b]
            both = [v for v in ea if v in eb]
            if not both:
                continue
            if all(reference_in_single_view(ea[v], eb[v]) for v in both):
                rels.add((a, b, "in"))
            elif all(reference_on_single_view(ea[v], eb[v]) for v in both):
                rels.add((a, b, "on"))
            if a < b:
                for v in both:
                    ca, cb = ea[v].centroid, eb[v].centroid
                    if math.hypot(ca[0] - cb[0], ca[1] - cb[1]) / image_diag[v] \
                            < NEAR_FRACTION:
                        rels.add((a, b, "near"))
                        break
    return rels


def test_induce_relations_matches_per_pair_reference(monkeypatch):
    # every round of seeds 0-1 of the benchmark's scene configs, and the
    # random scenes of the eager test
    seen = {"in": 0, "on": 0, "near": 0, "rounds": 0}
    real = graph_mod.induce_relations

    def checked(regions, image_diag):
        got = real(regions, image_diag)
        assert got == reference_induce_relations(regions, image_diag)
        seen["rounds"] += 1
        for _, _, rel in got:
            seen[rel] += 1
        return got

    monkeypatch.setattr(graph_mod, "induce_relations", checked)
    for cfg in workload_configs():
        for seed in (0, 1):
            harness.run_episode(cfg, seed)
    assert min(seen.values()) > 0, seen
    rng = np.random.default_rng(20261019)
    diag = {"a": 20.0, "b": 20.0}
    for _ in range(100):
        regions = {nid: {v: Region.from_full(m) for v, m in views.items()}
                   for nid, views in random_scene(rng).items()}
        assert real(regions, diag) == reference_induce_relations(regions, diag)


def test_hull_prefilter_keeps_every_relation(monkeypatch):
    # every round of seeds 0-3 of the benchmark's scene configs: the
    # relations equal the unfiltered rule's, and some pairs that meet the
    # larger region's padded box are refused by the box count alone
    seen = {"rounds": 0, "in": 0, "refused_by_count": 0, "hull_tested": 0}
    real = graph_mod.induce_relations

    def checked(regions, image_diag):
        got = real(regions, image_diag)
        assert got == reference_induce_relations(regions, image_diag)
        seen["rounds"] += 1
        seen["in"] += sum(rel == "in" for _, _, rel in got)
        for a, per_a in regions.items():
            for b, per_b in regions.items():
                for v in per_a.keys() & per_b.keys():
                    ra, rb = per_a[v], per_b[v]
                    if a == b or not ra.area < rb.area:
                        continue
                    br0, br1, bc0, bc1 = rb.box
                    box = (br0 - HULL_PAD, br1 + HULL_PAD,
                           bc0 - HULL_PAD, bc1 + HULL_PAD)
                    inside = ra.count_in(*box)
                    if 0 < inside < CONTAIN_COVERAGE * ra.area:
                        seen["refused_by_count"] += 1
                    elif inside:
                        seen["hull_tested"] += 1
        return got

    monkeypatch.setattr(graph_mod, "induce_relations", checked)
    for cfg in workload_configs():
        for seed in range(4):
            harness.run_episode(cfg, seed)
    assert min(seen.values()) > 0, seen


def test_pair_short_of_coverage_in_the_box_builds_no_hull(hull_builds):
    ring = np.zeros((60, 60), dtype=bool)
    ring[30:50, 30:50] = True
    ring[34:46, 34:46] = False
    # half of the small mask lies inside the ring's padded box
    straddling = np.zeros((60, 60), dtype=bool)
    straddling[20:30, 50 + HULL_PAD - 2:50 + HULL_PAD + 2] = True
    regions = {1: {"v": Region.from_full(straddling)},
               2: {"v": Region.from_full(ring)}}
    assert induce_relations(regions, {"v": 1.0}) == set()
    assert hull_builds == []
    # all of it inside the box, but in the corner the ring's hull misses
    corner = np.zeros((60, 60), dtype=bool)
    corner[28:30, 28:30] = True
    regions[1] = {"v": Region.from_full(corner)}
    assert (1, 2, "in") not in induce_relations(regions, {"v": 1.0})
    assert len(hull_builds) == 1


def test_far_apart_masks_build_no_hull(hull_builds):
    small = np.zeros((60, 60), dtype=bool)
    small[2:6, 2:6] = True
    ring = np.zeros((60, 60), dtype=bool)
    ring[30:50, 30:50] = True
    ring[34:46, 34:46] = False
    regions = {1: {"v": Region.from_full(small)},
               2: {"v": Region.from_full(ring)}}
    assert induce_relations(regions, {"v": 100.0}) == set()
    assert hull_builds == []


def test_only_the_larger_hull_is_built(hull_builds):
    small = np.zeros((60, 60), dtype=bool)
    small[38:42, 38:42] = True
    ring = np.zeros((60, 60), dtype=bool)
    ring[30:50, 30:50] = True
    ring[34:46, 34:46] = False
    regions = {1: {"v": Region.from_full(small)},
               2: {"v": Region.from_full(ring)}}
    assert (1, 2, "in") in induce_relations(regions, {"v": 1000.0})
    assert hull_builds == [(20 + 2 * HULL_PAD, 20 + 2 * HULL_PAD)]


def test_render_carry_reaches_the_graph(hull_builds, monkeypatch):
    # one raw_clutter episode: a distractor nothing moves near keeps one
    # Region for the episode, a plate keeps its Region while nothing near it
    # changes, the graph grounds on the rendered Region itself, and each
    # Region builds its hull once however many rounds test containment
    frames, rounds = [], []
    real_render = Renderer.render
    real_snapshot = harness.graph_to_snapshot

    def recording_render(self, world):
        raw = real_render(self, world)
        frames.append((world, raw))
        return raw

    def recording_snapshot(graph):
        rounds.append([(n.class_name, v, g) for n in graph.sorted_nodes()
                       for v, g in n.groundings.items()])
        return real_snapshot(graph)

    monkeypatch.setattr(Renderer, "render", recording_render)
    monkeypatch.setattr(harness, "graph_to_snapshot", recording_snapshot)
    harness.run_episode(perfect_config("swap_cups", distractors=8,
                                       vision="raw"), 1)
    assert len(frames) == len(rounds) > 2
    first = frames[0][0]
    seen = {"distractor": 0, "plate_carried": 0, "plate_repainted": 0}
    for obj in first.objects:
        if obj.class_name not in DISTRACTOR_CLASSES + ("plate",):
            continue
        assert all(w.get(obj.id).pose == obj.pose for w, _ in frames)
        for view_id in frames[0][1].views:
            regions = [raw.views[view_id].records[obj.id].region
                       for _, raw in frames]
            if obj.class_name != "plate":
                assert all(r is regions[0] for r in regions)
                seen["distractor"] += 1
                continue
            for a, b in zip(regions, regions[1:]):
                seen["plate_carried" if a is b else "plate_repainted"] += 1
    assert min(seen.values()) > 0, seen
    hulled = {}
    for (_, raw), groundings in zip(frames, rounds):
        for _, view_id, g in groundings:
            if g.seen_step == raw.step:
                assert g.region is raw.views[view_id].records[g.source_id].region
            if "hull" in vars(g.region):
                hulled[id(g.region)] = g.region
    assert any(class_name == "plate" for class_name, _, _ in rounds[0])
    assert len(hull_builds) == len(hulled) > 0


# -- graph structure and queries ------------------------------------------------------


def test_node_naming_and_resolve():
    cfg, world, raw, g = graph_for("swap_cups", seed=0)
    names = {n.name for n in g.sorted_nodes()}
    assert {"arm", "black_cup", "blue_cup", "plate", "plate_2",
            "plate_3"} == names
    nid = g.resolve("black_cup")
    assert g.nodes[nid].attributes["color"] == "black"
    assert g.resolve("red_cup") is None
    assert g.arm_node_id() == g.resolve("arm")


def test_queries():
    cfg, world, raw, g = graph_for("swap_cups", seed=0)
    cups = g.objects_by(class_name="cup")
    assert len(cups) == 2
    black = g.objects_by(class_name="cup", attributes={"color": "black"})
    assert len(black) == 1
    plate = g.container_of(black[0])
    assert plate is not None
    assert g.objects_by(class_name="cup", in_=plate) == black
    empties = g.empty_containers("plate")
    assert len(empties) == 1
    assert g.relation_holds(black[0], plate, "in")
    assert not g.relation_holds(plate, black[0], "in")
    assert g.held_node is None and g.gripper_free


def test_near_is_canonical():
    cfg, world, raw, g = graph_for("place_and_stack", seed=0)
    near_pairs = [(a, b) for (a, b, rel) in g.edges if rel == "near"]
    assert near_pairs and all(a < b for a, b in near_pairs)
    a, b = near_pairs[0]
    assert g.relation_holds(a, b, "near") and g.relation_holds(b, a, "near")


# -- update, permanence, feedback ------------------------------------------------------


def run_prims(world, prims):
    for p in prims:
        world, res = apply_primitive(world, p)
        assert res.ok, res.reason
    return world


def test_update_keeps_node_ids():
    cfg, world, raw, g = graph_for("swap_cups", seed=0)
    ids0 = set(g.nodes)
    cup_src = world.by_class("cup")[0].id
    world = run_prims(world, [Primitive(kind="pick", target=cup_src)])
    raw2 = render_views(world, cfg.cameras, cfg.geometry["lift_m"])
    spec = make_task_spec("swap_cups")
    update_graph(g, raw2, spec, cfg.thresholds,
                 steps_elapsed=raw2.step - raw.step)
    assert set(g.nodes) == ids0
    node = node_by_source(g, cup_src)
    assert g.held_node == node.node_id
    assert not g.gripper_free
    arm = g.arm_node_id()
    assert (arm, node.node_id, "holding") in g.edges
    # a held object has no in/on edges in either direction
    assert all(node.node_id not in (a, b)
               for (a, b, rel) in g.edges if rel in ("in", "on"))


def test_permanence_and_action_feedback():
    cfg, world, raw, g = graph_for("place_and_stack", seed=0)
    cube_src = world.by_class("cube")[0].id
    cup_src = sorted(world.by_class("cup"),
                     key=lambda c: math.hypot(
                         c.x - world.by_class("cube")[0].x,
                         c.y - world.by_class("cube")[0].y))[0].id
    spec = make_task_spec("place_and_stack")

    world = run_prims(world, [Primitive(kind="pick", target=cube_src),
                              Primitive(kind="place_in", target=cup_src)])
    raw2 = render_views(world, cfg.cameras, cfg.geometry["lift_m"])
    cube_node = node_by_source(g, cube_src)
    cup_node = node_by_source(g, cup_src)

    update_graph(g, raw2, spec, cfg.thresholds,
                 steps_elapsed=raw2.step - raw.step,
                 action_feedback=("in", cube_src, cup_src))
    key = (cube_node.node_id, cup_node.node_id, "in")
    assert key in g.edges
    assert not cube_node.seen(g.step)  # opaque cup: no pixels

    # permanence: the edge survives later updates with no new evidence
    world, _ = apply_primitive(world, Primitive(kind="no_op"))
    raw3 = render_views(world, cfg.cameras, cfg.geometry["lift_m"])
    update_graph(g, raw3, spec, cfg.thresholds, steps_elapsed=1)
    assert key in g.edges

    # a pick of the hidden object disturbs the containment
    world = run_prims(world, [Primitive(kind="pick", target=cube_src)])
    raw4 = render_views(world, cfg.cameras, cfg.geometry["lift_m"])
    update_graph(g, raw4, spec, cfg.thresholds, steps_elapsed=1)
    assert key not in g.edges
    assert g.held_node == cube_node.node_id


def test_feedback_skipped_when_visible():
    cfg, world, raw, g = graph_for("pnp_twice", seed=0)
    cube_src = world.by_class("cube")[0].id
    start = world.get(cube_src).container_of
    other = [p.id for p in world.by_class("plate") if p.id != start][0]
    spec = make_task_spec("pnp_twice")
    world = run_prims(world, [Primitive(kind="pick", target=cube_src),
                              Primitive(kind="place_in", target=other)])
    raw2 = render_views(world, cfg.cameras, cfg.geometry["lift_m"])
    update_graph(g, raw2, spec, cfg.thresholds,
                 steps_elapsed=raw2.step - raw.step,
                 action_feedback=("in", cube_src, other))
    cube_node = node_by_source(g, cube_src)
    other_node = node_by_source(g, other)
    # plate contents are visible, so the rule-induced edge carries the day
    assert cube_node.seen(g.step)
    assert (cube_node.node_id, other_node.node_id, "in") in g.edges


def test_apply_action_feedback_replaces_stale_parent():
    cfg, world, raw, g = graph_for("swap_cups", seed=0)
    cup_src = world.by_class("cup")[0].id
    cup_node = node_by_source(g, cup_src)
    old_parent = g.container_of(cup_node.node_id)
    dest_src = [p for p in world.by_class("plate")
                if node_by_source(g, p.id).node_id != old_parent][0].id
    dest_node = node_by_source(g, dest_src)
    g.step += 1  # pretend a frame passed where the cup went unseen
    apply_action_feedback(g, "in", cup_src, dest_src)
    assert g.container_of(cup_node.node_id) == dest_node.node_id
    assert (cup_node.node_id, old_parent, "in") not in g.edges


def test_apply_action_feedback_noop_for_unknown_source():
    cfg, world, raw, g = graph_for("swap_cups", seed=0)
    edges0 = dict(g.edges)
    apply_action_feedback(g, "in", 999, 998)
    assert g.edges == edges0


def test_unique_parent_filter():
    # one mask sitting inside two nested hulls keeps only one parent
    inner = np.zeros((80, 80), dtype=bool)
    inner[36:44, 36:44] = True
    ring = np.zeros((80, 80), dtype=bool)
    ring[30:50, 30:50] = True
    ring[33:47, 33:47] = False
    big_ring = np.zeros((80, 80), dtype=bool)
    big_ring[20:60, 20:60] = True
    big_ring[24:56, 24:56] = False

    g = SemanticGraph(step=0)
    for i, mask in ((1, inner), (2, ring), (3, big_ring)):
        grounding = Grounding(region=Region.from_full(mask), source_id=i,
                              seen_step=0)
        g.add_node("cup" if i < 3 else "plate", {}, base_feature(i),
                   {"v": grounding}, 0)
    raw = SimpleNamespace(views={"v": SimpleNamespace(image_size=(80, 80))},
                          gripper_free=True, held_object_id=None)
    _rebuild_edges(g, raw)
    in_parents = [dst for (src, dst, rel) in g.edges
                  if src == 1 and rel == "in"]
    assert in_parents == [2]  # the smaller (inner) parent wins
    assert (2, 3, "in") in g.edges


def test_update_merges_by_feature_after_tracker_loss():
    cfg, world, raw, g = graph_for("swap_cups", seed=0)
    ids0 = set(g.nodes)
    world, _ = apply_primitive(world, Primitive(kind="no_op"))
    raw2 = render_views(world, cfg.cameras, cfg.geometry["lift_m"])
    spec = make_task_spec("swap_cups")
    noise = NoiseConfig(tracker_loss_p=1.0)  # tracker yields nothing
    update_graph(g, raw2, spec, cfg.thresholds, noise,
                 Rng.substream(0, "perception"), steps_elapsed=1)
    assert set(g.nodes) == ids0  # re-detections landed on the old nodes
    assert all(n.last_seen_step == raw2.step for n in g.sorted_nodes())


def reference_merge_target(nodes, det, view_id, tracked, merged, tau_vis):
    """_merge_target as it was: Region.iou against every tracked node."""
    best_iou, best_iou_node = 0.0, None
    for node in nodes:
        if (node.node_id, view_id) in merged:
            continue
        hit = tracked.get((node.node_id, view_id))
        if hit is None:
            continue
        iou = det.region.iou(hit)
        if iou > best_iou:
            best_iou, best_iou_node = iou, node.node_id
    if best_iou >= 0.5:
        return best_iou_node
    best_cos, best_cos_node = math.inf, None
    for node in nodes:
        if (node.node_id, view_id) in merged:
            continue
        d = cosine_distance(det.feature, node.feature)
        if d < best_cos:
            best_cos, best_cos_node = d, node.node_id
    if best_cos < tau_vis:
        return best_cos_node
    return None


def test_merge_target_matches_all_iou_reference(monkeypatch):
    # every detection of every round of seeds 0-1 of the benchmark's scene
    # configs merges into the node the all-IoU scan picks
    outcomes = {"identity": 0, "iou": 0, "feature": 0, "leftover": 0}
    real = graph_mod._merge_target

    def checked(nodes, det, view_id, tracked, merged, tau_vis):
        got = real(nodes, det, view_id, tracked, merged, tau_vis)
        assert got == reference_merge_target(nodes, det, view_id, tracked,
                                             merged, tau_vis)
        hit = tracked.get((got, view_id))
        if got is None:
            outcomes["leftover"] += 1
        elif hit is det.region:
            outcomes["identity"] += 1
        elif hit is not None and det.region.iou(hit) >= 0.5:
            outcomes["iou"] += 1
        else:
            outcomes["feature"] += 1
        return got

    monkeypatch.setattr(graph_mod, "_merge_target", checked)
    for cfg in workload_configs():
        for seed in (0, 1):
            harness.run_episode(cfg, seed)
    assert min(outcomes.values()) > 0, outcomes


def test_merge_target_ties_keep_the_lowest_node_id():
    # two nodes tracked to the detection's own Region: both have IoU 1.0,
    # and the lower id wins unless it already merged in the view
    g = SemanticGraph()
    det = fake_det("v", 7, base_feature(7))
    for i in (1, 2, 3):
        g.add_node("cube", {}, base_feature(i),
                   {"v": Grounding(det.region, 7, 0)}, 0)
    nodes = g.sorted_nodes()
    tracked = {(2, "v"): det.region, (3, "v"): det.region}
    for merged, want in ((set(), 2), ({(2, "v")}, 3),
                         ({(2, "v"), (3, "v")}, None)):
        args = (nodes, det, "v", tracked, merged, THRESH.tau_vis)
        assert graph_mod._merge_target(*args) == want
        assert reference_merge_target(*args) == want
    # an equal but distinct Region ties by computed IoU the same way, and
    # an IoU of 0.75 on a lower id loses to the identity on a higher one
    wider = np.zeros((20, 20), dtype=bool)
    wider[4:7, 4:8] = True
    for first, want in ((fake_det("v", 7, base_feature(7)).region, 1),
                        (Region.from_full(wider), 2)):
        tracked = {(1, "v"): first, (2, "v"): det.region}
        args = (nodes, det, "v", tracked, set(), THRESH.tau_vis)
        assert graph_mod._merge_target(*args) == want
        assert reference_merge_target(*args) == want


def test_box_local_mask_work_matches_full_frame():
    # Region.iou, tightness, centroid and area against whole-frame
    # references, on detection masks and on tracker masks drifted partly off
    # the frame

    def iou_ref(a, b):
        inter = np.count_nonzero(a & b)
        return inter / np.count_nonzero(a | b) if inter else 0.0

    seen = {"overlap": 0, "disjoint": 0, "off_frame": 0}
    for k, (cfg, world, raw) in enumerate(scattered_scenes(200, seed=99)):
        graph, tracked = graph_and_drifted_tracks(cfg, raw, k)
        for (node_id, view_id), region in tracked.items():
            source = graph.nodes[node_id].groundings[view_id].source_id
            area = raw.views[view_id].records[source].region.area
            seen["off_frame"] += region.area < area
            rows, cols = np.nonzero(full_mask(region))
            assert (region.centroid, region.area) == (
                (cols.mean() + 0.5, rows.mean() + 0.5), rows.size)
        regions = [(v, g.region) for n in graph.sorted_nodes()
                   for v, g in n.groundings.items()]
        regions += [(v, r) for (_, v), r in tracked.items()]
        for view_id, region in regions:
            mask = full_mask(region)
            tight = full_frame_box(mask)
            assert region.box == tight
            assert np.array_equal(region.crop,
                                  mask[tight[0]:tight[1], tight[2]:tight[3]])
            for other_view, other in regions:
                if other_view != view_id:
                    continue
                got = region.iou(other)
                assert got == iou_ref(mask, full_mask(other))
                seen["overlap" if got else "disjoint"] += 1
    assert min(seen.values()) > 0, seen


# -- one mutual-nearest selection for both association stages -------------------


def reference_semantic_select(cost, tau_vis):
    """The selection loop associate_semantic ran before _mutual_nearest."""
    best_j = cost.argmin(axis=1)
    best_i = cost.argmin(axis=0)
    pairs = []
    for i, j in enumerate(best_j):
        if best_i[j] == i and cost[i, j] < tau_vis:
            pairs.append((i, int(j)))
    return pairs


def reference_geometric_select(cost, tau_geo, margin_geo):
    """The selection loop associate_geometric ran before _mutual_nearest."""

    def margin_ok(row, best):
        if row.size < 2:
            return True
        second = np.partition(row, 1)[1]
        return (second - row[best]) >= margin_geo

    pairs = []
    best_j = cost.argmin(axis=1)
    best_i = cost.argmin(axis=0)
    for i, j in enumerate(best_j):
        if best_i[j] != i or not cost[i, j] < tau_geo:
            continue
        if margin_ok(cost[i, :], j) and margin_ok(cost[:, j], i):
            pairs.append((i, int(j)))
    return pairs


def random_costs(rng, count):
    """Cost matrices of 1-6 rows and columns on a coarse grid (so rows and
    columns tie), with inf and NaN entries in some."""
    for _ in range(count):
        n, m = (int(v) for v in rng.integers(1, 7, size=2))
        cost = rng.integers(0, 5, size=(n, m)) / 8.0
        for bad in (math.inf, math.nan):
            if rng.random() < 0.3:
                cost[rng.random((n, m)) < 0.2] = bad
        yield cost


def test_mutual_nearest_matches_both_old_selections(monkeypatch):
    # the semantic stage is _mutual_nearest alone; the geometric stage feeds
    # its signature costs through _mutual_nearest and then the margin test
    rng = np.random.default_rng(20261018)
    seen = {"tie": 0, "inf": 0, "nan": 0, "pair": 0, "margin_cut": 0}
    for cost in random_costs(rng, 3000):
        tau = float(rng.choice([0.2, 0.5, 1.0, math.inf]))
        margin = float(rng.choice([0.0, 0.125, 0.25]))
        want = reference_semantic_select(cost, tau)
        assert _mutual_nearest(cost, tau) == want
        assert all(type(i) is int and type(j) is int for i, j in want)

        flat = iter(cost.ravel().tolist())
        monkeypatch.setattr(graph_mod, "signature_distance",
                            lambda *_: next(flat))
        n, m = cost.shape
        got = associate_geometric(
            [(0.0, float(i)) for i in range(n)],
            [(0.0, float(j)) for j in range(m)],
            [(1.0, 1.0)], [(1.0, 1.0)], ["p"], ["p"], 1, tau, margin)
        assert got == reference_geometric_select(cost, tau, margin)

        seen["tie"] += len(set(cost.ravel().tolist())) < cost.size
        seen["inf"] += bool(np.isinf(cost).any())
        seen["nan"] += bool(np.isnan(cost).any())
        seen["pair"] += bool(want)
        seen["margin_cut"] += len(got) < len(want)
    assert min(seen.values()) > 0, seen


def test_associate_semantic_matches_old_loop():
    rng = np.random.default_rng(7)
    seen = 0
    for _ in range(300):
        feats = [base_feature(int(s)) for s in rng.integers(0, 12, size=8)]
        n, m = (int(v) for v in rng.integers(1, 5, size=2))
        a = [fake_det("v1", k, f) for k, f in enumerate(feats[:n])]
        b = [fake_det("v2", k, f) for k, f in enumerate(feats[4:4 + m])]
        cost = np.array([[1.0 - float(np.dot(x.feature, y.feature))
                          for y in b] for x in a])
        want = reference_semantic_select(cost, THRESH.tau_vis)
        assert associate_semantic(a, b, THRESH.tau_vis) == want
        seen += bool(want)
    assert seen > 0


# -- one bootstrap: init_graph is an update of the empty graph -------------------

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def eager_init_graph(raw_obs, task_spec, thresholds, noise, rng):
    """init_graph as a separate bootstrap, before it became an update of
    the empty graph."""
    graph = SemanticGraph(step=raw_obs.step)
    dets = segment(raw_obs, noise, rng, task_spec)
    pairs, singles, no_anchor_flag = associate(dets, thresholds)
    _spawn_nodes(graph, pairs, singles, no_anchor_flag, raw_obs.step)
    _rebuild_edges(graph, raw_obs)
    return graph


def scanned_held_node(graph, held_object_id):
    """The held-node scan _rebuild_edges ran before it called node_by_source."""
    if held_object_id is not None:
        for node in graph.sorted_nodes():
            if any(g.source_id == held_object_id
                   for g in node.groundings.values()):
                return node.node_id
    return None


def bootstrap_frames():
    """(cfg, spec, raw, seed): seeded first frames of perfect, noisy, raw
    8-distractor and custom scenes, and each scene again with an object in
    the gripper."""
    cfgs = [perfect_config(t) for t in ("pnp_twice", "place_and_stack",
                                        "swap_cups")]
    cfgs += [SceneConfig.load(CONFIGS / name)
             for name in ("swap_noisy.json", "cluttered_raw.json")]
    cfgs.append(SceneConfig(task="custom", custom_objects=SEQUENCE_OBJECTS))
    for cfg in cfgs:
        spec = make_task_spec(cfg.task, cfg.variant, custom_classes=tuple(
            o["class"] for o in cfg.custom_objects))
        for seed in range(12):
            try:
                world = init_world(cfg, seed)
            except LayoutInfeasible:
                continue
            renderer = Renderer(cfg.cameras, cfg.geometry["lift_m"])
            yield cfg, spec, renderer.render(world), seed
            pickable = [o for o in world.objects if o.class_name != "arm"
                        and not world.children_of(o.id)]
            pick = Primitive(kind="pick",
                             target=pickable[seed % len(pickable)].id)
            world, result = apply_primitive(world, pick)
            assert result.ok
            yield cfg, spec, renderer.render(world), seed


def test_init_graph_matches_eager_bootstrap():
    seen = {"noise_draws": 0, "held_node": 0, "held_unmapped": 0,
            "pairs": 0, "single_view": 0, "frames": 0}
    for cfg, spec, raw, seed in bootstrap_frames():
        got_rng = Rng.substream(seed, "perception")
        want_rng = Rng.substream(seed, "perception")
        got = init_graph(raw, spec, cfg.thresholds, cfg.perception_noise,
                         got_rng)
        want = eager_init_graph(raw, spec, cfg.thresholds,
                                cfg.perception_noise, want_rng)
        assert canonical_json(graph_to_snapshot(got)) == \
            canonical_json(graph_to_snapshot(want))
        assert got_rng.getstate() == want_rng.getstate()
        assert got.next_node_id == want.next_node_id
        assert [n.feature.tobytes() for n in got.sorted_nodes()] == \
            [n.feature.tobytes() for n in want.sorted_nodes()]
        assert got.held_node == scanned_held_node(got, raw.held_object_id)

        fresh = Rng.substream(seed, "perception").getstate()
        seen["noise_draws"] += got_rng.getstate() != fresh
        seen["held_node"] += got.held_node is not None
        seen["held_unmapped"] += (raw.held_object_id is not None
                                  and got.held_node is None)
        seen["pairs"] += any(len(n.groundings) == 2 for n in got.nodes.values())
        seen["single_view"] += any(n.flags for n in got.nodes.values())
        seen["frames"] += 1
    assert min(seen.values()) > 0, seen
