"""Deterministic tabletop manipulation stack: simulated multi-view world,
persistent semantic scene graph, s-expression task planner, and a scripted
language-conditioned executor, wired together by an episode harness."""

__version__ = "0.2.0"

from .config import SceneConfig, perfect_config, default_noise_config
from .dsl import PlannerOutput, evaluate_policy, load_program, parse_program
from .graph import SemanticGraph, init_graph, update_graph
from .harness import (EpisodeResult, replay_log, run_episode, run_suite,
                      load_task_program)
from .world import init_world, task_oracle

__all__ = [
    "EpisodeResult",
    "PlannerOutput",
    "SceneConfig",
    "SemanticGraph",
    "default_noise_config",
    "evaluate_policy",
    "init_graph",
    "init_world",
    "load_program",
    "load_task_program",
    "parse_program",
    "perfect_config",
    "replay_log",
    "run_episode",
    "run_suite",
    "task_oracle",
    "update_graph",
    "__version__",
]
