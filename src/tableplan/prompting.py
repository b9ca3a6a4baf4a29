"""Progress-guided prompt construction: retention masks and clutter-free views.

The planner names the objects the current subtask is about; everything else
is blacked out of the label maps before the executor ever sees them, so the
executor's grounding problem shrinks to exactly the named objects.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import SemanticGraph

BACKGROUND = 0


class UnknownNode(Exception):
    """A relevant-object id is not a node in the graph."""


@dataclass(frozen=True)
class MaskedObservation:
    views: dict          # view_id -> (masked label map, retention mask)
    visible: dict        # view_id -> sorted tuple of the source ids with a
    # pixel in the masked map, found once when the observation is built
    subtask_cue: str
    relevant_ids: frozenset

    def visible_source_ids(self, view_id: str) -> list:
        return list(self.visible[view_id])


def _retention(graph: SemanticGraph, relevant_ids, view_id: str,
               shape: tuple) -> tuple:
    """(retention mask, box holding every retained pixel or None)."""
    out = np.zeros(shape, dtype=bool)
    box = None
    for node_id in sorted(relevant_ids):
        node = graph.nodes.get(node_id)
        if node is None:
            raise UnknownNode(f"node {node_id} is not in the graph")
        grounding = node.groundings.get(view_id)
        if grounding is None:
            continue
        r0, r1, c0, c1 = grounding.region.box
        out[r0:r1, c0:c1] |= grounding.region.crop
        if box is not None:
            r0, r1 = min(r0, box[0]), max(r1, box[1])
            c0, c1 = min(c0, box[2]), max(c1, box[3])
        box = (r0, r1, c0, c1)
    return out, box


def retention_mask(graph: SemanticGraph, relevant_ids, view_id: str,
                   shape: tuple) -> np.ndarray:
    """Union of the relevant nodes' masks in one view (all-zero if none)."""
    return _retention(graph, relevant_ids, view_id, shape)[0]


def clutter_free_obs(raw_obs, graph: SemanticGraph, relevant_ids,
                     subtask_cue: str) -> MaskedObservation:
    """Label maps with every non-retained pixel set to the background."""
    views = {}
    visible = {}
    for view_id in sorted(raw_obs.views):
        labels = raw_obs.views[view_id].label_map
        mask, box = _retention(graph, relevant_ids, view_id, labels.shape)
        masked = np.full_like(labels, BACKGROUND)
        np.copyto(masked, labels, where=mask)
        views[view_id] = (masked, mask)
        # the masked map is background outside the retention mask, so
        # counting inside the box counts the retained pixels' ids only
        visible[view_id] = ()
        if box is not None:
            r0, r1, c0, c1 = box
            present = np.flatnonzero(np.bincount(masked[r0:r1, c0:c1].ravel()))
            visible[view_id] = tuple(int(v) for v in present if v != BACKGROUND)
    return MaskedObservation(views=views, visible=visible,
                             subtask_cue=subtask_cue,
                             relevant_ids=frozenset(relevant_ids))


def raw_obs_passthrough(raw_obs, relevant_ids, subtask_cue: str) -> MaskedObservation:
    """The no-masking ablation: full label maps, all-ones retention.

    The label maps are the render's own read-only arrays, not copies, and
    the visible ids are the views' record ids: the renderer keeps a record
    for exactly the ids that have a pixel in the map."""
    views = {}
    visible = {}
    for view_id in sorted(raw_obs.views):
        view = raw_obs.views[view_id]
        views[view_id] = (view.label_map,
                          np.ones(view.label_map.shape, dtype=bool))
        visible[view_id] = tuple(sorted(view.records))
    return MaskedObservation(views=views, visible=visible,
                             subtask_cue=subtask_cue,
                             relevant_ids=frozenset(relevant_ids))
