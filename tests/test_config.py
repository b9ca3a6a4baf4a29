import json
import math
from dataclasses import asdict
from pathlib import Path

import pytest

from tableplan.config import (CUSTOM_CLASSES, DEFAULT_CAMERAS,
                              DEFAULT_EXECUTOR_ERROR, DEFAULT_GEOMETRY,
                              DEFAULT_NOISE, TASKS, AssocThresholds,
                              CameraConfig, ConfigError, GroundingErrorModel,
                              NoiseConfig, SceneConfig, default_noise_config,
                              perfect_config)
from tableplan.serialize import canonical_json, config_hash
from tableplan.world import DISTRACTOR_CLASSES, _footprint_for, circumradius

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def test_defaults_validate():
    cfg = SceneConfig()
    cfg.validate()
    assert cfg.task == "swap_cups"
    assert cfg.planner == "code"
    assert cfg.vision == "masked"


def test_near_rule_matches_overhead_camera():
    # the induced near rule is 0.12 of the image diagonal; with the default
    # overhead intrinsics that lands exactly on the 0.15 m oracle threshold
    cam = DEFAULT_CAMERAS[0]
    diag_px = math.hypot(*cam.image_size)
    assert 0.12 * diag_px / cam.px_per_m == pytest.approx(0.15)


@pytest.mark.parametrize("field,value", [
    ("task", "juggling"),
    ("variant", "purple"),
    ("planner", "llm"),
    ("vision", "sonar"),
    ("distractors", -1),
    ("chunk_horizon", 1),
    ("step_budget", 0),
    ("table_bounds", (0.0, 1.0)),
    ("near_threshold_m", 0.0),
    ("cameras", ()),
    ("distractors", "4"),
    ("chunk_horizon", 2.5),
    ("step_budget", True),
    ("table_bounds", (1.0,)),
])
def test_validate_rejects(field, value):
    cfg = SceneConfig(**{field: value})
    with pytest.raises(ConfigError):
        cfg.validate()


def test_variant_only_checked_for_swap():
    cfg = SceneConfig(task="pnp_twice", variant="purple")
    cfg.validate()  # variant is a swap_cups knob


def test_duplicate_camera_ids_rejected():
    cam = DEFAULT_CAMERAS[0]
    cfg = SceneConfig(cameras=(cam, cam))
    with pytest.raises(ConfigError, match="unique"):
        cfg.validate()


def test_camera_validate():
    cam = CameraConfig("tiny", (32, 32), 100.0, 0.0, (16.0, 16.0), (0.5, 0.5))
    with pytest.raises(ConfigError, match="64x64"):
        cam.validate()
    cam = CameraConfig("flat", (100, 100), 0.0, 0.0, (50.0, 50.0), (0.5, 0.5))
    with pytest.raises(ConfigError, match="px_per_m"):
        cam.validate()


def test_noise_validate():
    with pytest.raises(ConfigError):
        NoiseConfig(class_confusion_p=1.5).validate()
    with pytest.raises(ConfigError):
        NoiseConfig(feature_sigma=-0.1).validate()
    DEFAULT_NOISE.validate()


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", ["feature_sigma", "tracker_drift_px_per_step"])
def test_noise_magnitudes_must_be_finite(name, value):
    with pytest.raises(ConfigError, match=name):
        NoiseConfig(**{name: value}).validate()


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_per_distractor_p_must_be_finite(value):
    with pytest.raises(ConfigError, match="per_distractor_p"):
        GroundingErrorModel(per_distractor_p=value).validate()


def test_error_model():
    m = GroundingErrorModel(base_p=0.02, per_distractor_p=0.05, p_max=0.3)
    assert m.probability(0) == pytest.approx(0.02)
    assert m.probability(2) == pytest.approx(0.12)
    assert m.probability(50) == pytest.approx(0.3)
    with pytest.raises(ConfigError):
        GroundingErrorModel(base_p=-0.1).validate()
    DEFAULT_EXECUTOR_ERROR.validate()


def test_custom_task_needs_objects():
    cfg = SceneConfig(task="custom")
    with pytest.raises(ConfigError, match="custom_objects"):
        cfg.validate()
    cfg = SceneConfig(task="custom",
                      custom_objects=({"class": "cube", "color": "red"},))
    cfg.validate()


def test_custom_classes_have_footprints():
    for cls in CUSTOM_CLASSES:
        assert circumradius(_footprint_for(cls, DEFAULT_GEOMETRY)) > 0
    assert set(DISTRACTOR_CLASSES) <= set(CUSTOM_CLASSES)
    with pytest.raises(ConfigError, match="unicorn"):
        SceneConfig(task="custom",
                    custom_objects=({"class": "unicorn"},)).validate()


def test_dict_roundtrip():
    cfg = SceneConfig(task="pnp_twice", distractors=3,
                      perception_noise=DEFAULT_NOISE,
                      executor_error=DEFAULT_EXECUTOR_ERROR)
    back = SceneConfig.from_dict(cfg.to_dict())
    assert back == cfg


def test_from_dict_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="unknown config keys"):
        SceneConfig.from_dict({"task": "swap_cups", "lasers": True})
    with pytest.raises(ConfigError, match="unknown keys in perception_noise"):
        SceneConfig.from_dict({"perception_noise": {"fog": 1.0}})


def test_from_dict_partial_uses_defaults():
    cfg = SceneConfig.from_dict({"task": "pnp_twice"})
    assert cfg.step_budget == 200
    assert cfg.cameras == DEFAULT_CAMERAS


def test_from_dict_accepts_stringified_floats():
    # log headers carry every float as a '%.9g' string; the config must
    # rebuild from its own serialized form
    cfg = SceneConfig(task="place_and_stack", distractors=2,
                      perception_noise=DEFAULT_NOISE,
                      executor_error=DEFAULT_EXECUTOR_ERROR)
    wire = json.loads(canonical_json(cfg.to_dict()))
    back = SceneConfig.from_dict(wire)
    back.validate()
    assert back == cfg


def test_geometry_merges_defaults():
    cfg = SceneConfig.from_dict({"geometry": {"lift_m": 0.05}})
    assert cfg.geometry["lift_m"] == 0.05
    assert cfg.geometry["plate_radius"] == 0.09


def test_camera_from_dict_defaults():
    cfg = SceneConfig.from_dict({"cameras": [
        {"view_id": "top", "image_size": [128, 128], "px_per_m": 100}]})
    cam = cfg.cameras[0]
    assert cam.center_px == (64.0, 64.0)
    assert cam.look_at == (0.5, 0.375)
    assert cam.rotation_deg == 0.0
    with pytest.raises(ConfigError, match="missing key"):
        SceneConfig.from_dict({"cameras": [{"view_id": "top"}]})


def test_load_from_file(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"task": "swap_cups", "variant": "blue",
                                "distractors": 4}))
    cfg = SceneConfig.load(path)
    assert (cfg.task, cfg.variant, cfg.distractors) == ("swap_cups", "blue", 4)


def test_load_rejects_non_object(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text("[1, 2]")
    with pytest.raises(ConfigError):
        SceneConfig.load(path)


def test_perfect_config():
    cfg = perfect_config("pnp_twice")
    assert cfg.perception_noise == NoiseConfig()
    assert cfg.executor_error.probability(10) == 0.0


def test_thresholds_defaults():
    t = AssocThresholds()
    assert (t.tau_vis, t.tau_geo, t.margin_geo) == (0.15, 0.10, 0.05)


def reference_to_dict(cfg: SceneConfig) -> dict:
    """to_dict as it was, converting the cameras a second time."""
    d = asdict(cfg)
    d["cameras"] = [asdict(c) for c in cfg.cameras]
    return d


def test_to_dict_and_hash_match_the_reference():
    bundled = sorted(CONFIGS.glob("*.json"))
    assert bundled
    cfgs = [SceneConfig.load(p) for p in bundled]
    custom = {"custom_objects": ({"class": "cube", "color": "red"},)}
    for task in TASKS:
        kw = custom if task == "custom" else {}
        cfgs += [perfect_config(task, **kw), default_noise_config(task, **kw)]
    for cfg in cfgs:
        want = reference_to_dict(cfg)
        got = cfg.to_dict()
        assert got == want
        assert type(got["cameras"]) is list
        assert canonical_json(got) == canonical_json(want)
        assert config_hash(got) == config_hash(want)
