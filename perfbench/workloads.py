"""The benchmark's workloads and the closed loop that drives them.

Each workload is a cycle of scene configs and a seed list that starts at
seed0.  The loop has one client: the next episode starts when the previous
`harness.run_episode` (and, for log_replay, `harness.replay_log`) returns.
Entry points are looked up on the `harness` module at call time, so the
tracer's patches and a test's monkeypatches take effect.

Why each workload exists is recorded in perfbench/README.md.
"""

from __future__ import annotations

import hashlib
import os
import time
from dataclasses import dataclass

from tableplan import harness
from tableplan.config import SceneConfig, default_noise_config, perfect_config
from tableplan.serialize import canonical_json

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Episode fields that hold wall-clock time; replay ignores the same two.
VOLATILE = ("latency_ns", "wall_time_s")

# The warm-up episode's seed.  Every timed list starts at seed0 >= 1 and is
# far shorter than SEED_STRIDE, so seed 0 is never timed.
WARMUP_SEED = 0
SEED_STRIDE = 100_000


@dataclass(frozen=True)
class Workload:
    name: str
    configs: tuple          # episode i runs configs[i % len(configs)]
    replay: bool            # write the log, then replay_log it
    episodes: int           # gate prefix: success_rate, digest and trace cover it
    # test_01's contract: every episode of configs x seeds 0..contract_seeds-1
    # succeeds.  0 = no contract.  It is not claimed for other seeds.
    contract_seeds: int = 0

    def config(self, index: int) -> SceneConfig:
        return self.configs[index % len(self.configs)]

    def contract_episode(self, k: int) -> tuple:
        """(config index, seed) of the k-th episode of the contract load."""
        k %= self.contract_seeds * len(self.configs)
        return k % len(self.configs), k // len(self.configs)


def workloads() -> dict:
    """Workload name -> Workload.  Built on call: configs are read from disk."""
    # 100 episodes leave 10 above p90 in every untraced run.  log_replay
    # takes 200: its mock_vlm_rgb coin flips make success_rate over 100
    # episodes spread about 6% from seed to seed.
    return {w.name: w for w in (
        Workload("perfect_mix",
                 tuple(perfect_config(t) for t in
                       ("pnp_twice", "place_and_stack", "swap_cups")),
                 replay=False, episodes=100, contract_seeds=200),
        Workload("noisy_clutter",
                 (SceneConfig.load(os.path.join(ROOT, "configs",
                                                "swap_noisy.json")),),
                 replay=False, episodes=100),
        Workload("raw_clutter",
                 (perfect_config("swap_cups", distractors=8, vision="raw"),),
                 replay=False, episodes=100),
        Workload("log_replay",
                 tuple(default_noise_config("place_and_stack", planner=p)
                       for p in ("code", "mock_vlm_graph", "mock_vlm_rgb")),
                 replay=True, episodes=200),
    )}


def seed0_for(seed: int) -> int:
    return 1 + seed * SEED_STRIDE


def records_digest(records: list) -> str:
    """sha256 of the canonical JSON of each record, volatile fields dropped."""
    h = hashlib.sha256()
    for rec in records:
        stable = {k: v for k, v in rec.items() if k not in VOLATILE}
        h.update(canonical_json(stable).encode("utf-8"))
        h.update(b"\n")
    return h.hexdigest()


@dataclass
class Episode:
    """What the loop keeps of one episode; the records themselves are dropped."""
    seconds: float
    ok: bool                # no exception and, for log_replay, no divergence
    success: bool
    digest: str
    rounds: int
    nodes: int              # summed node count over the rounds' snapshots
    chunks: int
    completed: int
    log_bytes: int


def run_one(workload: Workload, index: int, seed: int, log_path: str,
            digest: bool = True) -> Episode:
    """One closed-loop step: run (and for log_replay write + replay) an episode.

    Only the harness calls are timed.  An exception out of run_episode or
    replay_log counts the episode as failed; a task failure does not.
    Without `digest` the records are not hashed (the digest is "").
    """
    cfg = workload.config(index)
    clock = time.perf_counter
    t0 = clock()
    try:
        if workload.replay:
            result = harness.run_episode(cfg, seed, log_path=log_path)
            harness.replay_log(log_path)
        else:
            result = harness.run_episode(cfg, seed)
    except Exception:  # noqa: BLE001 -- any raise is a failed operation
        return Episode(clock() - t0, False, False, "", 0, 0, 0, 0, 0)
    seconds = clock() - t0
    rounds = [r for r in result.records if r.get("kind") == "record"]
    outcomes = [r["execution"].get("outcome") for r in rounds
                if "execution" in r]
    return Episode(
        seconds=seconds, ok=True, success=bool(result.success),
        digest=records_digest(result.records) if digest else "",
        rounds=len(rounds),
        nodes=sum(len(r["graph"]["nodes"]) for r in rounds),
        chunks=len(outcomes),
        completed=sum(o == "completed" for o in outcomes),
        log_bytes=os.path.getsize(log_path) if workload.replay else 0)


def run_loop(workload: Workload, seed0: int, log_path: str, seconds: float,
             min_episodes: int) -> list:
    """Episodes seed0, seed0+1, ... until `seconds` passed and at least
    `min_episodes` ran.  Only the first `min_episodes` are digested."""
    out = []
    start = time.perf_counter()
    while len(out) < min_episodes or time.perf_counter() - start < seconds:
        i = len(out)
        out.append(run_one(workload, i, seed0 + i, log_path,
                           digest=i < min_episodes))
    return out


def combined_digest(episodes: list) -> str:
    """sha256 over the episodes' record digests, in order."""
    h = hashlib.sha256()
    for ep in episodes:
        h.update(ep.digest.encode("ascii") + b"\n")
    return h.hexdigest()
