"""Scripted executor: subtask cue -> grounded targets -> primitive chunk.

Grounding sees only the (possibly masked) observation, so its error rate is
a function of how much clutter survived masking: p = min(p_max, base_p +
per_distractor_p * n) with n the count of visible non-relevant objects.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional

from .config import GroundingErrorModel
from .graph import SemanticGraph
from .prompting import MaskedObservation
from .rng import Rng
from .world import Primitive


class ExecutorError(Exception):
    pass


class UnknownVerbPattern(ExecutorError):
    """Subtask cue does not match any verb template or names no known object."""


class TargetInvisible(ExecutorError):
    """A named object has no visible pixels and no relation explains why."""


_NAME = r"([a-z0-9_][a-z0-9_ ]*)"

# (verb, roles, pattern); "stack" and "place" share the place_on primitive.
VERB_PATTERNS = (
    ("pick", ("target",), re.compile(rf"pick up the {_NAME}")),
    ("place_in", ("object", "dest"), re.compile(rf"put the {_NAME} inside the {_NAME}")),
    ("place_on", ("object", "dest"), re.compile(rf"stack the {_NAME} on the {_NAME}")),
    ("place_on", ("object", "dest"), re.compile(rf"place the {_NAME} on the {_NAME}")),
)


def parse_subtask(cue: str) -> tuple:
    """Match a cue against the verb templates; returns (verb, {role: name}).

    Object names in cues use spaces ("black cup"); graph names use
    underscores, so captures are normalized before lookup.
    """
    for verb, roles, pattern in VERB_PATTERNS:
        m = pattern.fullmatch(cue.strip())
        if m:
            names = {role: grp.strip().replace(" ", "_")
                     for role, grp in zip(roles, m.groups())}
            return verb, names
    raise UnknownVerbPattern(f"no verb template matches {cue!r}")


@dataclass(frozen=True)
class GroundedSubtask:
    verb: str
    names: dict                   # role -> graph node name
    node_ids: dict                # role -> node id (pre mis-grounding)
    targets: dict                 # role -> simulator object id to act on
    clutter: int                  # visible non-relevant objects
    error_p: float
    mis_grounded: Optional[str]   # role that was rebound, if any


def ground_targets(graph: SemanticGraph, obs: MaskedObservation, rng: Rng,
                   error: GroundingErrorModel) -> GroundedSubtask:
    """Resolve the cue's names to simulator ids, with stochastic mis-grounding.

    Invisible targets are accepted when the graph explains the invisibility
    (held by the gripper, or inside/under a visible object); otherwise
    TargetInvisible.  Draw order per call: one uniform for the error event,
    then role index, then replacement index.
    """
    verb, names = parse_subtask(obs.subtask_cue)
    visible = set().union(*obs.visible.values())

    node_ids = {}
    targets = {}
    for role in sorted(names):
        name = names[role]
        node_id = graph.resolve(name)
        if node_id is None:
            raise UnknownVerbPattern(f"cue names unknown object {name!r}")
        node = graph.nodes[node_id]
        source = node.source_id
        if source is None:
            raise TargetInvisible(f"{name} has no grounding in any view")
        if source not in visible and graph.held_node != node_id:
            parent = graph.container_of(node_id)
            if parent is None:
                parent = graph.supported_by(node_id)
            parent_src = None
            if parent is not None:
                parent_src = graph.nodes[parent].source_id
            if parent_src is None or parent_src not in visible:
                raise TargetInvisible(f"{name} is not visible in any view")
        node_ids[role] = node_id
        targets[role] = source

    relevant_sources = {graph.nodes[nid].source_id for nid in obs.relevant_ids
                        if nid in graph.nodes} - {None}
    clutter = len(visible - relevant_sources)

    roles = next(r for v, r, _ in VERB_PATTERNS if v == verb)
    p = error.probability(clutter)
    mis_grounded = None
    if p > 0.0 and rng.random() < p:
        role = roles[rng.randrange(len(roles))]
        pool = sorted(visible)
        if pool:
            targets[role] = pool[rng.randrange(len(pool))]
            mis_grounded = role

    return GroundedSubtask(verb=verb, names=names,
                           node_ids=node_ids, targets=targets,
                           clutter=clutter, error_p=p,
                           mis_grounded=mis_grounded)


@dataclass(frozen=True)
class ActionChunk:
    primitives: tuple   # primitives actually executed
    results: tuple      # PrimitiveResult for each, rejection stops the chunk
    outcome: str        # "completed" | "rejected" | "mis_grounded"


def chunk_primitives(verb: str, targets: dict) -> list:
    """[approach, act] -- the approach is a no_op aimed at the act's target."""
    if verb == "pick":
        tid = targets["target"]
        return [Primitive(kind="no_op", target=tid),
                Primitive(kind="pick", target=tid)]
    tid = targets["dest"]
    return [Primitive(kind="no_op", target=tid),
            Primitive(kind=verb, target=tid)]


def execute_chunk(tracker, grounded: GroundedSubtask) -> ActionChunk:
    """Feed the chunk's primitives to a tracker/world, stopping on rejection.

    `tracker` is anything with feed(Primitive) -> PrimitiveResult.
    """
    plan = chunk_primitives(grounded.verb, grounded.targets)
    executed = []
    results = []
    rejected = False
    for prim in plan:
        result = tracker.feed(prim)
        executed.append(prim)
        results.append(result)
        if not result.ok:
            rejected = True
            break
    if rejected:
        outcome = "rejected"
    elif grounded.mis_grounded is not None:
        outcome = "mis_grounded"
    else:
        outcome = "completed"
    return ActionChunk(primitives=tuple(executed), results=tuple(results),
                       outcome=outcome)
