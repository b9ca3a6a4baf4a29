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
        "69749cd75d6a8d15170355e02ca3b72691c35ba632428913f3c350e42d865295",
    ("custom_rgb", 2):
        "ac43770129b9c1bfa1c814d624069005faae889c4539561027a22ac9b8d7e365",
    ("perfect_pnp_twice", 1):
        "d9f1bc35455d8b2cdf2ff9d711104ca125764af5bbfde7a173c04156f0a1b7d4",
    ("perfect_pnp_twice", 2):
        "d11c35c4db7de1d2eb57ec0214b7be7c77faf7997deb2c844ef5fd464b6ae28b",
    ("perfect_place_and_stack", 1):
        "4cb0b3e795850c12bd02a7c7575b9195a1a3972fa6fff0a3a69a0e84862e57d7",
    ("perfect_place_and_stack", 2):
        "1344d7c69c281c440d816fc7bbd984ef55ccdeda665c52108908a63fdd7ecf56",
    ("perfect_swap_cups", 1):
        "3895c586cb8171548e1dc7efdabede59eeb5f3d145647b06c56a205e7b050032",
    ("perfect_swap_cups", 2):
        "aef3a726340e4214cf69e12e3877776ed38711c473d10d9e1b1799229b4d0eca",
    ("perfect_swap_cups_blue", 1):
        "648b14a8c20ecfac594723e6f5396ee712639517ad4faaef3240d7f6a8b6229f",
    ("perfect_swap_cups_blue", 2):
        "ec32f9d6ba8a4d3b0d3dae63356df88ecf5042d8b122f5d765b5fd92d4d9c4ee",
    ("noisy_swap_cups_blue", 1):
        "18386c508d1f179feddbb2454a2af2bc4b35c3e8ed61cfeb0bf7984c73b76bf0",
    ("noisy_swap_cups_blue", 2):
        "7e255ed248b1d7a9cd9c29d41f4e139f512f367c8292b8ebcf59ff97f13827fc",
    ("swap_noisy", 1):
        "d154bcaa3819974357c64e65fa84cc47daa67f9fb7469c8e840b30699bbe7a04",
    ("swap_noisy", 2):
        "afde429dce4142a6f841a3a09942c589f866f657cd7dd0aeb3b2c806a9ac8602",
    ("raw_clutter", 1):
        "84ec20d2e1827bfc79c08c780111fdbc41a52d6f521f2a4e6537e7102dce55e0",
    ("raw_clutter", 2):
        "59ef35d7356c459dc5bb7aaee099b06ad5462e8293926f7ce9f0832c1e5dc8f5",
    ("markovian_pnp_twice", 1):
        "4b86ccff3cfbcae40ad5aee7c77edea53017ccf7b74eebf8009f4c041957a792",
    ("markovian_pnp_twice", 2):
        "afa875fbb9413a79f8e4963096bd23d4d9786b03167955acaccfd69b9dcb4935",
    ("rgb_pnp_twice", 1):
        "c9c215d95341ed55d207d46026478a0a54a1e78a076a596789e3875d98648d6d",
    ("rgb_pnp_twice", 2):
        "0296199fed3423f678d819700e4cc316dc443bd9d5fed87c03f54b96cd07f428",
    ("rgb_swap_cups", 1):
        "7f603692de8f912311bea40dd4864b2c89b46bb9127f7681f5d468df8dbf568a",
    ("rgb_swap_cups", 2):
        "b256850288f70f9e981559783ef5f55d3699b4ea11985c4789715dc005fb7624",
    ("rgb_swap_cups_blue", 1):
        "9add736c1e401e6e5354e1f2592c2f041f81ab56bc8cfe364eb6c2106eeda9b6",
    ("rgb_swap_cups_blue", 2):
        "712b9163574741fa2a302c1d5260d1cba14d135afce196820a5ac453697de3db",
    ("replay_code", 1):
        "4b9c6f281cf461c10ce7bc5c7a0bebca3a8847cad4348141d8c6ea6ab7aa021b",
    ("replay_code", 2):
        "83ad321213499839165d73bcbad87492061a3192ea4451a6e55623c6a48600bc",
    ("replay_mock_vlm_graph", 1):
        "0427fee9405e60ca3910946c8c1d0ad042afeda00032e17b5f917929f3ce54c5",
    ("replay_mock_vlm_graph", 2):
        "b8936cc8e52e9d58fa05791dcd340bf1a99feea44137924a5c5f977621853e79",
    ("replay_mock_vlm_rgb", 1):
        "4b6f5509501f3029bfbc7c0650d96a081ec1b0df4295c1699c414333c18558f2",
    ("replay_mock_vlm_rgb", 2):
        "7a70bc77ab5a98631d64dcfda59012e024bce6a9f0a5989c80d2fdc5fa8b4c75",
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
