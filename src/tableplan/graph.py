"""Persistent semantic scene graph over multi-view detections.

Nodes carry per-view mask groundings plus an appearance feature; typed edges
(in / on / near / holding) are induced from image-space rules and fused
across views.  The graph is the only state the planner ever reads, and its
task_memory list is the only state the planner ever writes.

Cross-view identity is established in two stages:

  semantic:   greedy mutual-nearest on cosine distance, accepted < tau_vis
  geometric:  normalized anchor-distance signatures, accepted < tau_geo with
              an ambiguity margin, using semantic matches (and, during
              updates, already-grounded nodes) as anchors

Object permanence: a node unseen in every view keeps its last groundings and
its in/holding edges until contradicted; near edges are recomputed from the
current frame only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .config import AssocThresholds, NoiseConfig
from .perception import Detection, TaskSpec, cosine_distance, segment, track
from .region import HULL_PAD, Region
from .rng import Rng
from .world import ARM_CLASS

NEAR_FRACTION = 0.12   # of the image diagonal
CONTAIN_COVERAGE = 0.85
SUPPORT_CONTACT_PX = 5


class NoAnchors(Exception):
    """Geometric association invoked with zero anchors."""


@dataclass
class Grounding:
    region: Region
    source_id: int
    seen_step: int            # last step this grounding was confirmed


@dataclass
class GraphNode:
    node_id: int
    name: str
    class_name: str
    attributes: dict
    feature: np.ndarray
    groundings: dict          # view_id -> Grounding
    first_seen_step: int
    last_seen_step: int
    flags: tuple = ()

    def seen(self, step: int) -> bool:
        return any(g.seen_step == step for g in self.groundings.values())

    @property
    def source_id(self) -> Optional[int]:
        """The simulator id the node stands for: the source of its grounding
        in the first view in sorted order, None when it has no grounding."""
        for view_id in sorted(self.groundings):
            return self.groundings[view_id].source_id
        return None


@dataclass
class SemanticGraph:
    step: int = 0
    nodes: dict = field(default_factory=dict)    # node_id -> GraphNode
    edges: dict = field(default_factory=dict)    # (src, dst, rel) -> since_step
    task_memory: list = field(default_factory=list)
    bindings: dict = field(default_factory=dict)  # name -> node_id
    gripper_free: bool = True
    held_node: Optional[int] = None
    next_node_id: int = 1

    # -- structure ---------------------------------------------------------

    def sorted_nodes(self) -> list:
        return [self.nodes[k] for k in sorted(self.nodes)]

    def add_node(self, class_name, attributes, feature, groundings, step,
                 flags=()) -> GraphNode:
        node = GraphNode(
            node_id=self.next_node_id, name="", class_name=class_name,
            attributes=dict(attributes), feature=feature,
            groundings=groundings, first_seen_step=step, last_seen_step=step,
            flags=tuple(flags),
        )
        self.nodes[node.node_id] = node
        self.next_node_id += 1
        node.name = self._assign_name(node)
        self.bindings[node.name] = node.node_id
        return node

    def _assign_name(self, node: GraphNode) -> str:
        color = node.attributes.get("color")
        base = f"{color}_{node.class_name}" if color else node.class_name
        taken = {n.name for n in self.nodes.values() if n.node_id != node.node_id}
        if base not in taken:
            return base
        k = 2
        while f"{base}_{k}" in taken:
            k += 1
        return f"{base}_{k}"

    def resolve(self, name: str) -> Optional[int]:
        return self.bindings.get(name)

    def arm_node_id(self) -> Optional[int]:
        for node in self.sorted_nodes():
            if node.class_name == ARM_CLASS:
                return node.node_id
        return None

    # -- queries (the planner's whole world view) ---------------------------

    def objects_by(self, class_name=None, attributes=None, in_=None,
                   on=None) -> list:
        out = []
        for node in self.sorted_nodes():
            if class_name is not None and node.class_name != class_name:
                continue
            if attributes and any(node.attributes.get(k) != v
                                  for k, v in attributes.items()):
                continue
            if in_ is not None and (node.node_id, in_, "in") not in self.edges:
                continue
            if on is not None and (node.node_id, on, "on") not in self.edges:
                continue
            out.append(node.node_id)
        return out

    def container_of(self, node_id: int) -> Optional[int]:
        for (src, dst, rel) in self.edges:
            if rel == "in" and src == node_id:
                return dst
        return None

    def supported_by(self, node_id: int) -> Optional[int]:
        for (src, dst, rel) in self.edges:
            if rel == "on" and src == node_id:
                return dst
        return None

    def relation_holds(self, a: int, b: int, rel: str) -> bool:
        if rel == "near":
            return (min(a, b), max(a, b), "near") in self.edges
        return (a, b, rel) in self.edges

    def empty_containers(self, class_name: str) -> list:
        occupied = {dst for (src, dst, rel) in self.edges if rel == "in"}
        return [nid for nid in self.objects_by(class_name=class_name)
                if nid not in occupied]


# -- association: semantic stage ---------------------------------------------


def _mutual_nearest(cost: np.ndarray, tau: float) -> list:
    """Index pairs (i, j) that are each other's row/column argmin with
    cost < tau, in row order.

    Ties resolve to the smaller index because argmin keeps the first
    occurrence.
    """
    best_j = cost.argmin(axis=1)
    best_i = cost.argmin(axis=0)
    return [(i, int(j)) for i, j in enumerate(best_j)
            if best_i[j] == i and cost[i, j] < tau]


def associate_semantic(dets_a: list, dets_b: list, tau_vis: float) -> list:
    """Greedy mutual-nearest feature matching; returns index pairs (i, j)."""
    if not dets_a or not dets_b:
        return []
    cost = np.array([[cosine_distance(a.feature, b.feature) for b in dets_b]
                     for a in dets_a])
    return _mutual_nearest(cost, tau_vis)


# -- association: geometric stage ---------------------------------------------


def distance_signature(point: tuple, anchor_points: list) -> np.ndarray:
    """Distances from `point` to each anchor, normalized by their maximum.

    Invariant under any similarity transform of the pixel coordinates, which
    is what lets signatures be compared across views.
    """
    if not anchor_points:
        raise NoAnchors("distance signature needs at least one anchor")
    d = np.array([math.hypot(point[0] - ax, point[1] - ay)
                  for ax, ay in anchor_points])
    dmax = float(d.max())
    return d / dmax if dmax > 0 else d


def signature_distance(sig_a: np.ndarray, sig_b: np.ndarray,
                       shared: int, total: int) -> float:
    """L2 over shared anchors, inflated by sqrt(total/shared).

    Low anchor overlap therefore raises the effective distance: a match on
    one shared anchor out of five must be five times as good.
    """
    if shared == 0:
        return math.inf
    diff = sig_a - sig_b
    return math.sqrt(float(np.dot(diff, diff)) * (total / shared))


def associate_geometric(points_a: list, points_b: list, anchors_a: list,
                        anchors_b: list, anchor_ids_a: list, anchor_ids_b: list,
                        total_anchors: int, tau_geo: float,
                        margin_geo: float) -> list:
    """Match leftover detections by signature; returns index pairs (i, j).

    points_a/points_b are the leftover detections' centroids in each view.
    anchors_a/anchors_b are the anchor centroids present in each view, with
    anchor_ids naming them so the comparison runs over the intersection.
    Accepts mutual nearest neighbours with distance < tau_geo whose
    second-best alternative is at least margin_geo worse on both sides.
    """
    if not points_a or not points_b:
        return []
    if not anchors_a or not anchors_b:
        raise NoAnchors("geometric association needs anchors in both views")
    shared_ids = [i for i in anchor_ids_a if i in set(anchor_ids_b)]
    if not shared_ids:
        return []
    idx_a = [anchor_ids_a.index(i) for i in shared_ids]
    idx_b = [anchor_ids_b.index(i) for i in shared_ids]
    sigs_a = [distance_signature(p, anchors_a)[idx_a] for p in points_a]
    sigs_b = [distance_signature(p, anchors_b)[idx_b] for p in points_b]
    n_shared = len(shared_ids)
    cost = np.array([[signature_distance(sa, sb, n_shared, total_anchors)
                      for sb in sigs_b] for sa in sigs_a])

    def margin_ok(row: np.ndarray, best: int) -> bool:
        if row.size < 2:
            return True
        second = np.partition(row, 1)[1]
        return (second - row[best]) >= margin_geo

    return [(i, j) for i, j in _mutual_nearest(cost, tau_geo)
            if margin_ok(cost[i, :], j) and margin_ok(cost[:, j], i)]


def associate(dets_by_view: dict, thresholds: AssocThresholds,
              node_anchors: Optional[dict] = None) -> tuple:
    """Full two-stage association across (up to) two views.

    Returns (pairs, singles, no_anchor_flag) where pairs is a list of
    (det_a, det_b) and singles the leftover detections in view order.
    node_anchors, when given, maps view_id -> [(anchor_id, centroid), ...]
    for already-grounded graph nodes that should serve as extra anchors.
    """
    views = sorted(dets_by_view)
    if len(views) == 1:
        return [], list(dets_by_view[views[0]]), False
    va, vb = views[0], views[1]
    dets_a, dets_b = list(dets_by_view[va]), list(dets_by_view[vb])
    extra = [d for v in views[2:] for d in dets_by_view[v]]

    sem = associate_semantic(dets_a, dets_b, thresholds.tau_vis)
    matched_a = {i for i, _ in sem}
    matched_b = {j for _, j in sem}
    pairs = [(dets_a[i], dets_b[j]) for i, j in sem]

    anchors_a = [(("sem", k), a.region.centroid)
                 for k, (a, _) in enumerate(pairs)]
    anchors_b = [(("sem", k), b.region.centroid)
                 for k, (_, b) in enumerate(pairs)]
    if node_anchors:
        anchors_a += [(("node", nid), c) for nid, c in node_anchors.get(va, [])]
        anchors_b += [(("node", nid), c) for nid, c in node_anchors.get(vb, [])]
    all_ids = sorted({i for i, _ in anchors_a} | {i for i, _ in anchors_b},
                     key=repr)

    left_a = [d for k, d in enumerate(dets_a) if k not in matched_a]
    left_b = [d for k, d in enumerate(dets_b) if k not in matched_b]
    no_anchor_flag = False
    if left_a and left_b:
        if anchors_a and anchors_b:
            geo = associate_geometric(
                [d.region.centroid for d in left_a],
                [d.region.centroid for d in left_b],
                [c for _, c in anchors_a], [c for _, c in anchors_b],
                [i for i, _ in anchors_a], [i for i, _ in anchors_b],
                len(all_ids), thresholds.tau_geo, thresholds.margin_geo)
            got_a = {i for i, _ in geo}
            got_b = {j for _, j in geo}
            pairs += [(left_a[i], left_b[j]) for i, j in geo]
            left_a = [d for k, d in enumerate(left_a) if k not in got_a]
            left_b = [d for k, d in enumerate(left_b) if k not in got_b]
        else:
            no_anchor_flag = True
    singles = left_a + left_b + extra
    return pairs, singles, no_anchor_flag


# -- relation induction --------------------------------------------------------


def _in_single_view(a: Region, b: Region) -> bool:
    if not a.area < b.area:
        return False
    # a's crop must meet b's padded hull box, or nothing is covered and
    # b's hull need not be built
    ar0, ar1, ac0, ac1 = a.box
    br0, br1, bc0, bc1 = b.box
    if not (ar0 < br1 + HULL_PAD and br0 - HULL_PAD < ar1
            and ac0 < bc1 + HULL_PAD and bc0 - HULL_PAD < ac1):
        return False
    covered = a.overlap(b.hull, b.hull_origin)
    return covered / a.area >= CONTAIN_COVERAGE


def _on_single_view(a: Region, b: Region) -> bool:
    # bottom band of A meeting the top band of B: shift A down one row and
    # count contact with B's visible mask (masks are disjoint, so only the
    # boundary row contributes)
    if not a.centroid[1] < b.centroid[1]:
        return False
    ar0, ac0 = a.origin
    contact = b.overlap(a.crop, (ar0 + 1, ac0))
    return contact >= SUPPORT_CONTACT_PX


def induce_relations(regions: dict, image_diag: dict) -> set:
    """Relations from per-view mask evidence.

    regions: node_id -> {view_id: Region}; image_diag: view_id -> float.
    in/on require agreement in every view where both nodes are grounded;
    near needs any single view.  Containment shadows support for a pair.
    A region's hull (Region.hull) is built the first time a smaller node's
    crop meets its padded box in that view, and the region keeps it; pairs
    that fail the area order or the box test never build one.
    """
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
            if all(_in_single_view(ea[v], eb[v]) for v in both):
                rels.add((a, b, "in"))
            elif all(_on_single_view(ea[v], eb[v]) for v in both):
                rels.add((a, b, "on"))
            if a < b:
                for v in both:
                    ca, cb = ea[v].centroid, eb[v].centroid
                    if math.hypot(ca[0] - cb[0], ca[1] - cb[1]) / image_diag[v] \
                            < NEAR_FRACTION:
                        rels.add((a, b, "near"))
                        break
    return rels


def _entries_for(nodes: list, step: int) -> dict:
    out = {}
    for node in nodes:
        per_view = {view_id: g.region
                    for view_id, g in node.groundings.items()
                    if g.seen_step == step}
        if per_view:
            out[node.node_id] = per_view
    return out


# -- graph construction and update ----------------------------------------------


def _grounding_from_detection(det: Detection, step: int) -> Grounding:
    return Grounding(region=det.region, source_id=det.source_id,
                     seen_step=step)


def _image_diags(raw_obs) -> dict:
    return {v: math.hypot(*obs.image_size)
            for v, obs in raw_obs.views.items()}


def node_by_source(graph: SemanticGraph, source_id: int):
    for node in graph.sorted_nodes():
        if any(g.source_id == source_id for g in node.groundings.values()):
            return node
    return None


def _rebuild_edges(graph: SemanticGraph, raw_obs) -> None:
    step = graph.step
    seen_nodes = [n for n in graph.sorted_nodes() if n.seen(step)]
    induced = induce_relations(_entries_for(seen_nodes, step), _image_diags(raw_obs))

    old = graph.edges
    new: dict = {}
    for key in induced:
        new[key] = old.get(key, step)

    # permanence: unseen nodes keep containment; holding survives re-assertion
    for (src, dst, rel), since in old.items():
        if rel != "in":
            continue
        src_node = graph.nodes.get(src)
        if src_node is None or src_node.seen(step):
            continue
        if graph.held_node == src:
            continue  # a pick disturbs the containment
        new[(src, dst, rel)] = since

    # proprioception: the held object maps to a node or to no edge at all
    held = None
    if raw_obs.held_object_id is not None:
        held_node = node_by_source(graph, raw_obs.held_object_id)
        if held_node is not None:
            held = held_node.node_id
    graph.gripper_free = raw_obs.gripper_free
    graph.held_node = held
    if held is not None:
        arm = graph.arm_node_id()
        if arm is not None:
            new[(arm, held, "holding")] = old.get((arm, held, "holding"), step)
        for key in list(new):
            if held in (key[0], key[1]) and key[2] in ("in", "on"):
                del new[key]

    # an object sits in or on at most one parent; ties keep the smallest dst
    parent: dict = {}
    for (src, dst, rel) in sorted(new):
        if rel in ("in", "on"):
            parent.setdefault((src, rel), dst)
    for key in list(new):
        src, dst, rel = key
        if rel in ("in", "on") and parent[(src, rel)] != dst:
            del new[key]
    graph.edges = new


def apply_action_feedback(graph: SemanticGraph, rel: str, moved_source: int,
                          dest_source: int) -> None:
    """Record a completed placement the cameras could not see.

    Placing into an opaque container hides the moved object between frames,
    so the containment is never visually induced; the gripper's own report
    stands in.  Only applies when the moved object is unseen this step --
    visible placements are left to the relation rules.
    """
    moved = node_by_source(graph, moved_source)
    dest = node_by_source(graph, dest_source)
    if moved is None or dest is None or moved.seen(graph.step):
        return
    for key in list(graph.edges):
        if key[0] == moved.node_id and key[2] in ("in", "on"):
            del graph.edges[key]
    graph.edges[(moved.node_id, dest.node_id, rel)] = graph.step


def _node_anchor_map(graph: SemanticGraph, step: int) -> dict:
    anchors: dict = {}
    for node in graph.sorted_nodes():
        for view_id, g in node.groundings.items():
            if g.seen_step == step:
                anchors.setdefault(view_id, []).append(
                    (node.node_id, g.region.centroid))
    return anchors


def _spawn_nodes(graph: SemanticGraph, pairs, singles, no_anchor_flag, step):
    for det_a, det_b in pairs:
        groundings = {
            det_a.view_id: _grounding_from_detection(det_a, step),
            det_b.view_id: _grounding_from_detection(det_b, step),
        }
        first = det_a if det_a.view_id < det_b.view_id else det_b
        graph.add_node(first.class_name, first.attributes, first.feature,
                       groundings, step)
    for det in singles:
        flags = ("single_view",) + (("no_anchors",) if no_anchor_flag else ())
        graph.add_node(det.class_name, det.attributes, det.feature,
                       {det.view_id: _grounding_from_detection(det, step)},
                       step, flags=flags)


def init_graph(raw_obs, task_spec: TaskSpec, thresholds: AssocThresholds,
               noise: NoiseConfig = NoiseConfig(),
               rng: Optional[Rng] = None) -> SemanticGraph:
    """Bootstrap the graph from the first observation: an update of the
    empty graph, which has nothing to track, merge into, or anchor on."""
    return update_graph(SemanticGraph(), raw_obs, task_spec, thresholds,
                        noise, rng)


def update_graph(graph: SemanticGraph, raw_obs, task_spec: TaskSpec,
                 thresholds: AssocThresholds,
                 noise: NoiseConfig = NoiseConfig(),
                 rng: Optional[Rng] = None, steps_elapsed: int = 1,
                 action_feedback: Optional[tuple] = None) -> SemanticGraph:
    """Advance the graph to a new observation (mutates and returns it).

    Track-propagated masks and fresh detections merge into existing nodes by
    mask IoU (>= 0.5) or feature distance (< tau_vis); leftovers run the
    association pipeline with existing nodes as anchors and then become new
    nodes.  Node ids are stable: re-detection after a tracking loss lands on
    the old node via its feature.
    """
    rng = rng or Rng.substream(0, "perception")
    step = raw_obs.step
    graph.step = step

    nodes = graph.sorted_nodes()
    tracked = track(nodes, raw_obs, noise, rng, steps_elapsed)
    dets = segment(raw_obs, noise, rng, task_spec)

    merged: set = set()   # (node_id, view_id) already claimed this step
    leftovers: dict = {}
    for view_id in sorted(dets):
        leftovers[view_id] = []
        for det in dets[view_id]:
            target = _merge_target(graph, det, view_id, tracked, merged,
                                   thresholds.tau_vis)
            if target is None:
                leftovers[view_id].append(det)
                continue
            node = graph.nodes[target]
            node.groundings[view_id] = _grounding_from_detection(det, step)
            node.last_seen_step = step
            merged.add((target, view_id))

    # tracker output stands in for the grounding when no detection merged
    for (node_id, view_id), region in tracked.items():
        if (node_id, view_id) in merged:
            continue
        node = graph.nodes[node_id]
        node.groundings[view_id] = Grounding(
            region=region, source_id=node.groundings[view_id].source_id,
            seen_step=step)
        node.last_seen_step = step

    pairs, singles, no_anchor_flag = associate(
        leftovers, thresholds, node_anchors=_node_anchor_map(graph, step))
    _spawn_nodes(graph, pairs, singles, no_anchor_flag, step)
    _rebuild_edges(graph, raw_obs)
    if action_feedback is not None:
        apply_action_feedback(graph, *action_feedback)
    return graph


def _merge_target(graph: SemanticGraph, det: Detection, view_id: str,
                  tracked: dict, merged: set, tau_vis: float) -> Optional[int]:
    best_iou, best_iou_node = 0.0, None
    for node in graph.sorted_nodes():
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
    for node in graph.sorted_nodes():
        if (node.node_id, view_id) in merged:
            continue
        d = cosine_distance(det.feature, node.feature)
        if d < best_cos:
            best_cos, best_cos_node = d, node.node_id
    if best_cos < tau_vis:
        return best_cos_node
    return None
