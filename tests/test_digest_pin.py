"""The records digest is the contract: pinned hashes of fixed-seed episodes.

Two episodes of every benchmark workload config -- the three perfect tasks,
configs/swap_noisy.json, raw vision with 8 distractors, and the three
place_and_stack planners at default noise (written to a log and replayed) --
of swap_cups's blue variant, perfect and at default noise (no workload runs
it), of a custom-task layout (fixed and sampled objects plus distractors,
planned by mock_vlm_rgb, which needs no plan file), of markovian on perfect
pnp_twice (no workload runs it), and of mock_vlm_rgb's frame-only choosers
on perfect pnp_twice and on perfect swap_cups, black and blue, are hashed
the way the benchmark hashes them: the canonical JSON of each record with its
wall-clock fields dropped.  A change that alters what the loop computes
changes a hash here; a refactor or a speed-up must not.
"""

import hashlib
from pathlib import Path

import pytest

from tableplan.config import SceneConfig, default_noise_config, perfect_config
from tableplan.harness import replay_log, run_episode
from tableplan.serialize import canonical_json

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
VOLATILE = ("latency_ns", "wall_time_s")
SEEDS = (1, 2)
CUSTOM_OBJECTS = ({"class": "cube", "color": "red", "position": (0.3, 0.3)},
                  {"class": "cup", "color": "blue"}, {"class": "plate"})


def _config(name: str) -> SceneConfig:
    if name == "perfect_swap_cups_blue":
        return perfect_config("swap_cups", variant="blue")
    if name == "markovian_pnp_twice":
        return perfect_config("pnp_twice", planner="markovian")
    if name == "rgb_swap_cups_blue":
        return perfect_config("swap_cups", variant="blue",
                              planner="mock_vlm_rgb")
    if name.startswith("rgb_"):
        return perfect_config(name[len("rgb_"):], planner="mock_vlm_rgb")
    if name == "noisy_swap_cups_blue":
        return default_noise_config("swap_cups", variant="blue")
    if name.startswith("perfect_"):
        return perfect_config(name[len("perfect_"):])
    if name == "swap_noisy":
        return SceneConfig.load(str(CONFIGS / "swap_noisy.json"))
    if name == "raw_clutter":
        return perfect_config("swap_cups", distractors=8, vision="raw")
    if name == "custom_rgb":
        return SceneConfig(task="custom", planner="mock_vlm_rgb",
                           distractors=2, custom_objects=CUSTOM_OBJECTS)
    planner = name[len("replay_"):]
    return default_noise_config("place_and_stack", planner=planner)


def records_digest(records: list) -> str:
    h = hashlib.sha256()
    for rec in records:
        stable = {k: v for k, v in rec.items() if k not in VOLATILE}
        h.update(canonical_json(stable).encode("utf-8"))
        h.update(b"\n")
    return h.hexdigest()


# (config, seed) -> records digest
PINNED = {
    ("custom_rgb", 1):
        "1a988cd1778e3295f72d26661125e6f52420c15513c50b90bf829cd1b69d5090",
    ("custom_rgb", 2):
        "cf164c5e7b0ff2d91636c95ed0fadafacc8c48c79ac051d68f71eb8cf7f0d0b7",
    ("perfect_pnp_twice", 1):
        "ef5e120ff8ef46ac997093f9947eb9c9a2ab54684efd5bd8c7415df78977fd1f",
    ("perfect_pnp_twice", 2):
        "10378eff8e58163077b5d23f7a484872eb17c75bf64297e6eb846f1f81a9520a",
    ("perfect_place_and_stack", 1):
        "81c830c2aa2cb930a31970725f26b5bf26a74f61a00cd6bfadf8634d5f90c2f3",
    ("perfect_place_and_stack", 2):
        "8fa2cf2d78937f366b3de0edb784d4bd5bdc45b86100bbd97b809c43a4e03718",
    ("perfect_swap_cups", 1):
        "e5f6a6f8921080d53aa785a0325f8daa1ee691e79a28b0315dbe382eeb856b0b",
    ("perfect_swap_cups", 2):
        "61891c8ad21f4206cd8627880263a9c1cfd4bfde5361c617dff58a28151bc101",
    ("perfect_swap_cups_blue", 1):
        "d278500c26dd5e3703f8353d95ef32810e94534c62a5db59cf0cf6a8fc81316c",
    ("perfect_swap_cups_blue", 2):
        "8ec854828d4005359fc74a5f9b95431fa14bae3c4280b9d92fdf422f52234cb6",
    ("noisy_swap_cups_blue", 1):
        "e868f26d95cff988e2709c0a901d5808aee1ed163fc878b7788995799ed60159",
    ("noisy_swap_cups_blue", 2):
        "34bd2b29e94cd963c83e8d4d835619b85fa5ebb888b047fb2e5eaba138bc4f87",
    ("swap_noisy", 1):
        "192ea68a14aca0fe09fb61362e96ece329e7a86f22cb8bdbb5eb11752c034b3a",
    ("swap_noisy", 2):
        "10738b4b0bb26854e526f8d819b4df7591a5d15a9956428e0a36f7bca9723988",
    ("raw_clutter", 1):
        "8304833569a8eff0df4e6ac2b06395fbd232bc8e968ad9f608ec500aa9d3a274",
    ("raw_clutter", 2):
        "c085b9fa17b2b1fec77e80c63b9a60a01a0d2cd17c7ba462b43555ac65eac0f1",
    ("markovian_pnp_twice", 1):
        "55a4c224b6e6a7d1fa491cfef922b7bdf94b49014e790e380a7ddcb4e92e0fce",
    ("markovian_pnp_twice", 2):
        "fd632137b595d50663e2519745c4ddc419f7122177ef19d56faaa446a2a37dd6",
    ("rgb_pnp_twice", 1):
        "28ca9a360b38583755d31f47c63f0bf9a7bc831f41bb9516385b7d3d8c1d6b30",
    ("rgb_pnp_twice", 2):
        "0a6d828059b84e61cdc31cad2b24b7800bcba64ef71628fc10bc01da5d5530cb",
    ("rgb_swap_cups", 1):
        "3ecb663888eef333be360618c39366fd09de2a226d9716eddb323aa513ae8f8b",
    ("rgb_swap_cups", 2):
        "417c2d9ee6c1f3f6f9d1428857f430e3c3f0c29e962d7bbb5caf5cd4391850b0",
    ("rgb_swap_cups_blue", 1):
        "70e08c9794d781c0266b0ecd791fc39ab533f3e2833f651ca1111a42e4155f74",
    ("rgb_swap_cups_blue", 2):
        "9cac5c0b1a0b4d9611daf0163c2af1c9668b8217e101d48b49ea49b880d76468",
    ("replay_code", 1):
        "c01d5c97ba79db9baf34fa3f5185f0846c24f7e3d59b9c0e8b30a905db628f42",
    ("replay_code", 2):
        "3e6048f5f3701b16cafa1b17b017a440b7992105b7a8306c2963c1f19fe02cdf",
    ("replay_mock_vlm_graph", 1):
        "f7b62b59c3cd87751255633cbef0a121f0a988494cf8b11643146d0af94a2e0d",
    ("replay_mock_vlm_graph", 2):
        "e0e92798d9b79693dcb276fc6ed51bb7fbe75e65268c29145e7b1d50f761ab7f",
    ("replay_mock_vlm_rgb", 1):
        "d1f832aedc458edf4ade64116386a59c297f2709532a30070e3dd3d89e7aa629",
    ("replay_mock_vlm_rgb", 2):
        "12a999a262a5d8212818120322ba7c7b7f889d0c98dac3cc9549e9c5a221f702",
}


@pytest.mark.parametrize("name,seed", sorted(PINNED))
def test_records_digest_pinned(name, seed, tmp_path):
    cfg = _config(name)
    if name.startswith("replay_"):
        log = tmp_path / "episode.jsonl"
        result = run_episode(cfg, seed, log_path=str(log))
        replay_log(str(log))
    else:
        result = run_episode(cfg, seed)
    assert records_digest(result.records) == PINNED[(name, seed)]
