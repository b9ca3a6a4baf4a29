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
        "7461764532701bdd088dd5dd12e6a044878d4432c16159a1b56b5faa59f4a5df",
    ("custom_rgb", 2):
        "ce1fb88f6964d16b9fe56ced17dbaf20c80e5a71a85b100355c728430d732fd8",
    ("perfect_pnp_twice", 1):
        "7f08a8312ffb751cb5db899ba8327157c413b45429dcb1de8eeeb4affc20c19c",
    ("perfect_pnp_twice", 2):
        "41ef1f18b8119fcfdcf7ad7aff9b16a68a274ed9c53260b87496a07919a2cd5d",
    ("perfect_place_and_stack", 1):
        "358da5d308ec7122c08b4405a713a65e98ee115357bea1ad62271f17603888f2",
    ("perfect_place_and_stack", 2):
        "18db636ad89ada0b6e0b170cd97b75690340e5e1d3dc68983df468c532716351",
    ("perfect_swap_cups", 1):
        "91e6577c0791c1eb6a7c0bde1344a79f2ef1a44873a0439a8918af844e9e01ab",
    ("perfect_swap_cups", 2):
        "e8d4ebc816e09189324eff1f40b6c616ffe678a63e9822fff1a55e9cb9713087",
    ("perfect_swap_cups_blue", 1):
        "495240c4717a2e144ead5ed163e38857313c9629809ec3b8f48fd1d1ec74c4db",
    ("perfect_swap_cups_blue", 2):
        "99b9871212f076205a2cacf401e2fb015a5749226ca09a5eef4bf9b84d70f234",
    ("noisy_swap_cups_blue", 1):
        "80b9fdc478be840f512f0d262d554cce7b5fba02ed96f59ac221e5dda18da654",
    ("noisy_swap_cups_blue", 2):
        "7d7ddd70a3dfcf80d9331a97ef061a4ac451cc87345b473f3f07dc83fc2f34b1",
    ("swap_noisy", 1):
        "4298e01b95db8de8dbb063087327cf92dbc188798cfcd19e3514315bce2124ec",
    ("swap_noisy", 2):
        "e16593fc8fb863621212a8f7d1b951342fb89c619e59984352fc2450faf330da",
    ("raw_clutter", 1):
        "bbb297d02f020b1a796838d21ec7fa8aab756b7e25085f00262913dc7dbaa9e0",
    ("raw_clutter", 2):
        "1c186a1f468edaea92ee0d697011567e36cf7a0cd32bfaa4870ec39f6438b30a",
    ("markovian_pnp_twice", 1):
        "961f230f116ed20c36fa4b5556516cb55bb4a47fe451f664a2db9a480206def5",
    ("markovian_pnp_twice", 2):
        "e1c4807c0d1e87d244d1dea62ddc6a20e1abfcd8458e86a2bb55e05f5bd1f95f",
    ("rgb_pnp_twice", 1):
        "38126b6b20f4ab35275b0c5e43c0ecc80c5ab435dd6ea521244f7a102a044bd9",
    ("rgb_pnp_twice", 2):
        "70d7ef28418c3a20e400a0c0c08335d4e7fe4d7c6a7cd313cfc0c0038c378d99",
    ("rgb_swap_cups", 1):
        "9075bf02af50fe299756c827e6e6d8cfd221324fee1532f504c97a0adeda735a",
    ("rgb_swap_cups", 2):
        "57db340f44df907d98e268a22596e45d73f55db4b0953ddfa8fb66e38e656ac6",
    ("rgb_swap_cups_blue", 1):
        "a4d3abf1c894fff4259a9eddc3ddb01b3870e3947b55fdc39be153a119d250ba",
    ("rgb_swap_cups_blue", 2):
        "33ebf0ec9945a4171bd92ead1c160a9316ae697a2dad8aa9d179a52a3eeae8d5",
    ("replay_code", 1):
        "2e666ca63870abf8243a887be09f291bfeb646eb0fa38e4b3072f73c01ec7100",
    ("replay_code", 2):
        "35e430db72e121709c878a3c24b87b570d4a0d703f308f790c6c941dbb31c19b",
    ("replay_mock_vlm_graph", 1):
        "5d249a4c618936e78d32fa20b8954777f90e2e87061a5483e111e228df8fb860",
    ("replay_mock_vlm_graph", 2):
        "62f6fce594c9f4225b8108618787583f12adc21d987a6aa13a0ad33453721d61",
    ("replay_mock_vlm_rgb", 1):
        "ff4dbd8bc2b30ccd138ed1b386febade709db38417c30d88674a7080573f7b90",
    ("replay_mock_vlm_rgb", 2):
        "c576449d7f10357b55d0145e53a3fa4cdc85478fd0272ec49307448d6701c1d7",
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
