"""Spans around the calls into each tableplan layer, recorded from outside.

`harness` and `graph` bind imported names into their own globals, so each
callable is patched where its caller looks it up: `harness.update_graph`,
not `graph.update_graph`.  `serialize.canonical_json` is patched only in
`harness`, where logs are written and replays compared; the call inside
`serialize.config_hash` stays untraced and lands in `harness.run_episode`.

Spans stay in memory (one tuple per call) and are written out by `dump`.
"""

from __future__ import annotations

import functools
import gzip
import json
import time

from tableplan import graph, harness, perception, render, world

# (reported name, object holding the binding a caller looks up, attribute)
TARGETS = (
    ("world.init_world", harness, "init_world"),
    ("world.MilestoneTracker.feed", world.MilestoneTracker, "feed"),
    ("render.Renderer.render", render.Renderer, "render"),
    ("render.rasterize_polygon", render, "rasterize_polygon"),
    ("perception.segment", graph, "segment"),
    ("perception.perturbed_feature", perception, "perturbed_feature"),
    ("perception.track", graph, "track"),
    ("graph.init_graph", harness, "init_graph"),
    ("graph.update_graph", harness, "update_graph"),
    ("graph.associate", graph, "associate"),
    ("graph.induce_relations", graph, "induce_relations"),
    ("dsl.evaluate_policy", harness, "evaluate_policy"),
    ("prompting.clutter_free_obs", harness, "clutter_free_obs"),
    ("prompting.raw_obs_passthrough", harness, "raw_obs_passthrough"),
    ("executor.ground_targets", harness, "ground_targets"),
    ("executor.execute_chunk", harness, "execute_chunk"),
    ("serialize.graph_to_snapshot", harness, "graph_to_snapshot"),
    ("serialize.canonical_json", harness, "canonical_json"),
    ("harness.run_episode", harness, "run_episode"),
    ("harness.rgb_choose", harness, "rgb_choose"),
    ("harness.replay_log", harness, "replay_log"),
    ("harness.load_log", harness, "load_log"),
)

NAMES = tuple(name for name, _, _ in TARGETS)


class Tracer:
    """Records (name index, start ns, end ns, parent span, episode) per call."""

    def __init__(self):
        self.spans: list = []
        self.episode = -1
        self._stack: list = []
        self._saved: list = []

    def _wrap(self, name_index: int, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name_index, start, end, parent, self.episode)
        return traced

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for i, (_, owner, attr) in enumerate(TARGETS):
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(i, original))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def totals(self) -> dict:
        """name -> (calls, self ns); self time excludes direct child spans."""
        child_ns = [0] * len(self.spans)
        for name_i, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        calls = [0] * len(NAMES)
        self_ns = [0] * len(NAMES)
        for i, (name_i, start, end, _, _) in enumerate(self.spans):
            calls[name_i] += 1
            self_ns[name_i] += end - start - child_ns[i]
        return {name: (calls[i], self_ns[i]) for i, name in enumerate(NAMES)}

    def dump(self, path: str) -> None:
        """Write every span as one JSON line (gzip)."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for name_i, start, end, parent, episode in self.spans:
                fh.write(json.dumps({"name": NAMES[name_i], "start_ns": start,
                                     "end_ns": end, "parent": parent,
                                     "episode": episode}) + "\n")
