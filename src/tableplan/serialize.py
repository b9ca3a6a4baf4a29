"""Deterministic serialization: RLE bitmaps, canonical JSON, graph snapshots.

Every float that reaches a log or snapshot is rendered to a string with
'%.9g' first, so file bytes cannot depend on platform repr() quirks; replay
compares these strings, never re-parsed floats.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

from .graph import GraphNode, Grounding, SemanticGraph
from .perception import FEATURE_DIM
from .region import Region


def fmt_float(x) -> str:
    return "%.9g" % float(x)


def rle_decode(runs: list, shape: tuple) -> np.ndarray:
    """The (H, W) bool mask of row-major run lengths that start with a
    zero-run.  ValueError when a run is not a non-negative int (a bool is
    not one) or the runs do not cover the mask exactly."""
    total = int(shape[0]) * int(shape[1])
    flat = np.zeros(total, dtype=bool)
    pos = 0
    value = False
    for run in runs:
        if type(run) is not int or run < 0:
            raise ValueError(f"RLE run {run!r} is not a non-negative int")
        if value:
            flat[pos:pos + run] = True
        pos += run
        value = not value
    if pos != total:
        raise ValueError(f"RLE covers {pos} pixels, mask has {total}")
    return flat.reshape(shape)


# Values of these exact types are already JSON leaves; a dict or list holds
# them as they are, without a call per item (an RLE list is mostly ints).
_LEAF_TYPES = frozenset((int, str, bool, type(None)))


def _stringify(obj):
    """Recursively turn floats into '%.9g' strings for byte-stable JSON."""
    if isinstance(obj, float):
        return fmt_float(obj)
    if isinstance(obj, dict):
        return {k: v if type(v) in _LEAF_TYPES else _stringify(v)
                for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [v if type(v) in _LEAF_TYPES else _stringify(v) for v in obj]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return fmt_float(obj)
    if isinstance(obj, frozenset):
        return sorted(obj)
    return obj


def canonical_json(obj) -> str:
    return json.dumps(_stringify(obj), sort_keys=True,
                      separators=(",", ":"), ensure_ascii=False)


def config_hash(config_dict: dict) -> str:
    digest = hashlib.sha256(canonical_json(config_dict).encode("utf-8"))
    return digest.hexdigest()[:12]


# -- graph snapshots -------------------------------------------------------------


def graph_to_snapshot(graph: SemanticGraph) -> dict:
    """Planner-visible graph state as one JSON-ready dict.

    Captures nodes, edges, task memory, and gripper state.  A grounding
    stores its mask once, as RLE runs plus the frame size, with the
    detection's source id and the step it was seen; area and centroid are
    derived from the mask and not stored.  Appearance features are
    perception-internal and are not part of the snapshot contract.
    """
    nodes = []
    for node in graph.sorted_nodes():
        groundings = {}
        for view_id in sorted(node.groundings):
            g = node.groundings[view_id]
            groundings[view_id] = {
                "rle": g.region.rle(),
                "size": list(g.region.frame),
                "source": int(g.source_id),
                "seen_step": int(g.seen_step),
            }
        nodes.append({
            "id": node.node_id,
            "name": node.name,
            "class": node.class_name,
            "attributes": dict(sorted(node.attributes.items())),
            "groundings": groundings,
            "first_seen": node.first_seen_step,
            "last_seen": node.last_seen_step,
            "flags": list(node.flags),
        })
    edges = [[src, dst, rel, since]
             for (src, dst, rel), since in sorted(graph.edges.items())]
    return {
        "step": graph.step,
        "nodes": nodes,
        "edges": edges,
        "task_memory": list(graph.task_memory),
        "gripper_free": bool(graph.gripper_free),
        "held_node": graph.held_node,
    }


def graph_from_snapshot(snapshot: dict) -> SemanticGraph:
    """Rebuild a queryable graph from a snapshot (features are zeroed).

    Each grounding's Region, and so its area, centroid and box, is rebuilt
    from its decoded mask.
    """
    graph = SemanticGraph(step=int(snapshot["step"]))
    for rec in snapshot["nodes"]:
        groundings = {}
        for view_id, g in rec["groundings"].items():
            region = Region.from_full(rle_decode(g["rle"], tuple(g["size"])))
            if region is None:
                raise ValueError(f"node {rec['id']} has an empty mask "
                                 f"in view {view_id}")
            groundings[view_id] = Grounding(
                region=region, source_id=int(g["source"]),
                seen_step=int(g["seen_step"]))
        node = GraphNode(
            node_id=int(rec["id"]), name=rec["name"], class_name=rec["class"],
            attributes=dict(rec["attributes"]),
            feature=np.zeros(FEATURE_DIM, dtype=np.float64),
            groundings=groundings,
            first_seen_step=int(rec["first_seen"]),
            last_seen_step=int(rec["last_seen"]),
            flags=tuple(rec["flags"]))
        graph.nodes[node.node_id] = node
    graph.next_node_id = max(graph.nodes, default=0) + 1
    for src, dst, rel, since in snapshot["edges"]:
        graph.edges[(int(src), int(dst), rel)] = int(since)
    graph.task_memory = list(snapshot["task_memory"])
    graph.gripper_free = bool(snapshot["gripper_free"])
    held = snapshot.get("held_node")
    graph.held_node = None if held is None else int(held)
    return graph
