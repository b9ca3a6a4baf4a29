"""Progress-guided prompt construction: what the executor gets to see.

The planner names the objects the current subtask is about; everything else
is blacked out of the label maps, so the executor's grounding problem shrinks
to exactly the named objects.  The executor reads only which source ids
survive in each view, so that is all a MaskedObservation carries: the ids
under the relevant nodes' grounding crops.  `retention_mask` builds the
full-frame mask, for showing or checking the masked map itself.
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
    visible: dict        # view_id -> sorted tuple of the source ids with a
    # retained pixel
    subtask_cue: str
    relevant_ids: frozenset


def _regions(graph: SemanticGraph, relevant_ids, view_id: str):
    """The relevant nodes' grounding regions in one view, by node id."""
    for node_id in sorted(relevant_ids):
        node = graph.nodes.get(node_id)
        if node is None:
            raise UnknownNode(f"node {node_id} is not in the graph")
        grounding = node.groundings.get(view_id)
        if grounding is not None:
            yield grounding.region


def retention_mask(graph: SemanticGraph, relevant_ids, view_id: str,
                   shape: tuple) -> np.ndarray:
    """Union of the relevant nodes' masks in one view (all-zero if none)."""
    out = np.zeros(shape, dtype=bool)
    for region in _regions(graph, relevant_ids, view_id):
        r0, r1, c0, c1 = region.box
        out[r0:r1, c0:c1] |= region.crop
    return out


def clutter_free_obs(raw_obs, graph: SemanticGraph, relevant_ids,
                     subtask_cue: str) -> MaskedObservation:
    """The source ids left in each view once every pixel outside the
    relevant nodes' masks is set to the background."""
    visible = {}
    for view_id in sorted(raw_obs.views):
        label = raw_obs.views[view_id].label_map
        pixels = [np.empty(0, dtype=label.dtype)]
        for region in _regions(graph, relevant_ids, view_id):
            r0, r1, c0, c1 = region.box
            pixels.append(label[r0:r1, c0:c1][region.crop])
        # a bincount, not np.unique: that imports numpy.ma on first call
        present = np.flatnonzero(np.bincount(np.concatenate(pixels)))
        visible[view_id] = tuple(int(v) for v in present if v != BACKGROUND)
    return MaskedObservation(visible=visible, subtask_cue=subtask_cue,
                             relevant_ids=frozenset(relevant_ids))


def raw_obs_passthrough(raw_obs, relevant_ids, subtask_cue: str) -> MaskedObservation:
    """The no-masking ablation: every rendered source id is visible.  The
    renderer keeps a record for exactly the ids with a pixel in the map."""
    visible = {view_id: tuple(sorted(raw_obs.views[view_id].records))
               for view_id in sorted(raw_obs.views)}
    return MaskedObservation(visible=visible, subtask_cue=subtask_cue,
                             relevant_ids=frozenset(relevant_ids))
