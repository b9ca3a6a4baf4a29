from tableplan.bench import (association_trial, random_scene_config,
                             run_assoc_bench)
from tableplan.world import LayoutInfeasible, init_world


def test_random_scene_config_shape():
    plates_seen = 0
    counts = set()
    for seed in range(40):
        cfg = random_scene_config(seed)
        assert cfg.task == "custom"
        n = len(cfg.custom_objects)
        counts.add(n)
        assert 2 <= n <= 8
        plates = sum(1 for o in cfg.custom_objects if o["class"] == "plate")
        assert plates <= 2
        plates_seen += plates
        assert all("color" in o for o in cfg.custom_objects)
    assert len(counts) > 3  # sizes actually vary
    assert plates_seen > 0


def test_random_scene_config_deterministic():
    assert random_scene_config(11).custom_objects == \
        random_scene_config(11).custom_objects


def feasible_seeds(n, start=0):
    out = []
    seed = start
    while len(out) < n:
        try:
            init_world(random_scene_config(seed), seed)
        except LayoutInfeasible:
            seed += 1
            continue
        out.append(seed)
        seed += 1
    return out


def test_noise_free_trials_are_exact():
    for seed in feasible_seeds(10):
        trial = association_trial(seed, sigma=0.0)
        assert trial["exact"], seed
        assert trial["wrong"] == 0
        assert trial["correct"] == trial["objects"] == trial["paired"]
        assert trial["pairs"] == [(s, s) for s, _ in trial["pairs"]]


def test_trial_deterministic():
    seed = feasible_seeds(1)[0]
    a = association_trial(seed, sigma=0.3)
    b = association_trial(seed, sigma=0.3)
    assert a["pairs"] == b["pairs"]
    assert (a["correct"], a["wrong"], a["exact"]) == \
        (b["correct"], b["wrong"], b["exact"])


def test_run_assoc_bench_noise_free():
    report = run_assoc_bench(scenes=15, sigma=0.0)
    assert report["scenes"] == 15
    assert report["exact_scenes"] == 15
    assert report["exact_rate"] == 1.0
    assert report["wrong_pairs"] == 0
    assert report["correct_pairs"] == report["objects_in_both_views"]
    assert report["infeasible_draws"] >= 0


def test_run_assoc_bench_degrades_gracefully():
    report = run_assoc_bench(scenes=15, sigma=0.2, seed0=100)
    assert report["scenes"] == 15
    assert 0.0 <= report["exact_rate"] <= 1.0
    assert report["pair_accuracy"] >= 0.8  # moderate noise, not chaos
    total = report["correct_pairs"] + report["wrong_pairs"]
    assert total <= report["objects_in_both_views"] + report["wrong_pairs"]
