import copy
import json
import math
from dataclasses import FrozenInstanceError, asdict, replace
from pathlib import Path

import pytest

from tableplan.config import (CUSTOM_CLASSES, DEFAULT_CAMERAS,
                              DEFAULT_EXECUTOR_ERROR, DEFAULT_GEOMETRY,
                              DEFAULT_NOISE, TASKS, AssocThresholds,
                              CameraConfig, ConfigError, GroundingErrorModel,
                              NoiseConfig, SceneConfig, default_noise_config,
                              perfect_config)
from tableplan.serialize import canonical_json, config_hash
from tableplan.world import DISTRACTOR_CLASSES, FOOTPRINTS, circumradius

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
# options removed in 0.2.0: they had no effect
REMOVED_KEYS = ("chunk_horizon", "overlap_tolerance")


def test_defaults_validate():
    cfg = SceneConfig()
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
    ("mock_flake_p", 7),
    ("mock_flake_p", -0.1),
    ("mock_latency_s", -5),
    ("mock_latency_s", math.inf),
    ("near_threshold_m", math.nan),
    ("near_threshold_m", math.inf),
    ("near_threshold_m", "0.15"),
    ("overlap_tolerance", math.nan),
    ("table_bounds", (1.0, math.inf)),
    ("table_bounds", ("1.0", 0.75)),
    ("mock_flake_p", True),
    ("geometry", {"cup_radus": 0.05}),
    ("geometry", {"lift_m": math.nan}),
    ("geometry", {"arm_size": 0.1}),
    ("custom_objects", ({"class": "cube", "colour": "red"},)),
    ("custom_objects", ({"class": "cube", "color": 5},)),
    ("custom_objects", ({"class": "cube", "position": (0.3, math.nan)},)),
    ("custom_objects", ({"class": "cube", "position": ("0.3", 0.3)},)),
    ("custom_objects", ("cube",)),
    ("variant", 5),
    ("perception_noise", 5),
    ("thresholds", {"tau_vis": 0.1}),
    ("executor_error", None),
    ("cameras", 5),
    ("cameras", (5,)),
    ("custom_objects", 5),
    ("step_budget", 2.5),
    ("distractors", 2.5),
    ("mock_latency_s", math.nan),
])
def test_validate_rejects(field, value):
    if field in REMOVED_KEYS:
        # the option is gone, so a config file that still sets it is refused
        with pytest.raises(ConfigError, match=rf"unknown config keys: \['{field}'\]"):
            SceneConfig.from_dict({field: value})
        return
    with pytest.raises(ConfigError):
        SceneConfig(**{field: value})


@pytest.mark.parametrize("field,value,message", [
    ("table_bounds", (0.0, 1.0), "table_bounds must be positive"),
    ("table_bounds", (1.0, math.inf), "table_bounds must be finite, got inf"),
    ("table_bounds", (math.nan, 1.0), "table_bounds must be finite, got nan"),
    ("table_bounds", ("1.0", 0.75), "table_bounds must be a number, got '1.0'"),
    ("table_bounds", (1.0,), "table_bounds must be a list of 2 numbers"),
    ("near_threshold_m", 0.0, "near_threshold_m must be > 0"),
    ("near_threshold_m", -0.1, "near_threshold_m must be > 0"),
    ("near_threshold_m", math.nan, "near_threshold_m must be finite, got nan"),
    ("near_threshold_m", math.inf, "near_threshold_m must be finite, got inf"),
    ("near_threshold_m", "0.15", "near_threshold_m must be a number, got '0.15'"),
])
def test_scene_float_messages(field, value, message):
    with pytest.raises(ConfigError) as exc:
        SceneConfig(**{field: value})
    assert str(exc.value).startswith(message)


def test_replace_checks_the_new_config():
    cfg = SceneConfig()
    with pytest.raises(ConfigError, match="unknown planner mode 'llm'"):
        replace(cfg, planner="llm")
    assert replace(cfg, planner="markovian").planner == "markovian"


def test_configs_are_immutable():
    cfg = SceneConfig()
    with pytest.raises(FrozenInstanceError):
        cfg.planner = "llm"
    with pytest.raises(FrozenInstanceError):
        cfg.perception_noise.feature_sigma = -1.0
    assert cfg.planner == "code"


def test_variant_only_checked_for_swap():
    SceneConfig(task="pnp_twice", variant="purple")  # a swap_cups knob
    with pytest.raises(ConfigError, match="variant must be a string"):
        SceneConfig(task="pnp_twice", variant=5)


def test_nested_containers_are_read_only():
    cfg = SceneConfig(task="custom", custom_objects=[
        {"class": "cube", "position": [0.3, 0.3]}])
    with pytest.raises(TypeError):
        cfg.geometry["lift_m"] = math.nan
    with pytest.raises(TypeError):
        cfg.custom_objects[0]["class"] = "unicorn"
    assert cfg.custom_objects[0]["position"] == (0.3, 0.3)
    assert cfg.geometry["lift_m"] == DEFAULT_GEOMETRY["lift_m"]
    # replace re-checks the read-only mappings it is handed back
    assert replace(cfg, distractors=1).custom_objects == cfg.custom_objects
    with pytest.raises(ConfigError, match="unicorn"):
        replace(cfg, custom_objects=({"class": "unicorn"},))


def test_duplicate_camera_ids_rejected():
    cam = DEFAULT_CAMERAS[0]
    with pytest.raises(ConfigError, match="unique"):
        SceneConfig(cameras=(cam, cam))


def test_camera_validate():
    good = dict(view_id="cam", image_size=(100, 100), px_per_m=100.0,
                rotation_deg=0.0, center_px=(50.0, 50.0), look_at=(0.5, 0.5))
    CameraConfig(**good)
    for change, message in [
        ({"image_size": (32, 32)}, "64x64"),
        ({"px_per_m": 0.0}, "px_per_m must be > 0"),
        ({"px_per_m": math.inf}, "px_per_m must be finite"),
        ({"px_per_m": "100"}, "px_per_m must be a number"),
        ({"rotation_deg": math.nan}, "rotation_deg must be finite"),
        ({"center_px": (50.0, math.inf)}, "center_px must be finite"),
        ({"look_at": (0.5,)}, "look_at must be a list of 2 numbers"),
        ({"image_size": (128.0, 128)}, "image_size must be an integer"),
        ({"view_id": 3}, "view_id must be a string"),
    ]:
        with pytest.raises(ConfigError, match=message):
            CameraConfig(**{**good, **change})


def test_noise_validate():
    with pytest.raises(ConfigError):
        NoiseConfig(class_confusion_p=1.5)
    with pytest.raises(ConfigError):
        NoiseConfig(feature_sigma=-0.1)
    with pytest.raises(ConfigError, match="tracker_loss_p must be a number"):
        NoiseConfig(tracker_loss_p="0.1")


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", ["feature_sigma", "tracker_drift_px_per_step"])
def test_noise_magnitudes_must_be_finite(name, value):
    with pytest.raises(ConfigError, match=name):
        NoiseConfig(**{name: value})


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_per_distractor_p_must_be_finite(value):
    with pytest.raises(ConfigError, match="per_distractor_p"):
        GroundingErrorModel(per_distractor_p=value)


def test_error_model():
    m = GroundingErrorModel(base_p=0.02, per_distractor_p=0.05, p_max=0.3)
    assert m.probability(0) == pytest.approx(0.02)
    assert m.probability(2) == pytest.approx(0.12)
    assert m.probability(50) == pytest.approx(0.3)
    with pytest.raises(ConfigError):
        GroundingErrorModel(base_p=-0.1)


def test_custom_task_needs_objects():
    with pytest.raises(ConfigError, match="custom_objects"):
        SceneConfig(task="custom")
    SceneConfig(task="custom",
                custom_objects=({"class": "cube", "color": "red"},))


def test_custom_classes_have_footprints():
    # bench.random_scene_config draws classes by index: the order is pinned
    assert CUSTOM_CLASSES == ("cube", "cup", "plate", "sponge", "marker",
                              "bottle", "tape", "block")
    for cls in CUSTOM_CLASSES:
        assert circumradius(FOOTPRINTS[cls](DEFAULT_GEOMETRY)) > 0
    assert set(DISTRACTOR_CLASSES) <= set(CUSTOM_CLASSES)
    with pytest.raises(ConfigError, match="unicorn"):
        SceneConfig(task="custom", custom_objects=({"class": "unicorn"},))


def test_dict_roundtrip():
    cfg = SceneConfig(task="pnp_twice", distractors=3,
                      perception_noise=DEFAULT_NOISE,
                      executor_error=DEFAULT_EXECUTOR_ERROR)
    back = SceneConfig.from_dict(cfg.to_dict())
    assert back == cfg


def test_from_dict_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="unknown config keys"):
        SceneConfig.from_dict({"task": "swap_cups", "lasers": True})
    # the two options removed in 0.2.0 (they had no effect) are refused
    with pytest.raises(ConfigError, match=r"unknown config keys: "
                       r"\['chunk_horizon', 'overlap_tolerance'\]"):
        SceneConfig.from_dict({"chunk_horizon": 10, "overlap_tolerance": 0.0})
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
    assert back == cfg


def test_geometry_merges_defaults():
    cfg = SceneConfig.from_dict({"geometry": {"lift_m": 0.05}})
    assert cfg.geometry["lift_m"] == 0.05
    assert cfg.geometry["plate_radius"] == 0.09
    assert SceneConfig(geometry={"lift_m": 0.05}) == cfg


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


@pytest.mark.parametrize("value", [math.nan, math.inf, -0.1, "0.1", None])
@pytest.mark.parametrize("name", ["tau_vis", "tau_geo", "margin_geo"])
def test_thresholds_reject(name, value):
    with pytest.raises(ConfigError, match=name):
        AssocThresholds(**{name: value})


def reference_to_dict(cfg: SceneConfig) -> dict:
    """to_dict as it was, converting the cameras a second time; asdict runs
    on a copy holding plain-dict copies of the read-only mappings."""
    plain = copy.copy(cfg)
    object.__setattr__(plain, "geometry", dict(cfg.geometry))
    object.__setattr__(plain, "custom_objects",
                       tuple(dict(o) for o in cfg.custom_objects))
    d = asdict(plain)
    d["cameras"] = [asdict(c) for c in cfg.cameras]
    return d


def test_to_dict_and_hash_match_the_reference():
    bundled = sorted(CONFIGS.glob("*.json"))
    assert bundled
    cfgs = [SceneConfig.load(p) for p in bundled]
    custom = {"custom_objects": ({"class": "cube", "color": "red"},
                                 {"class": "cup", "position": [0.3, 0.3]})}
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


def test_scene_config_hashes_itself_once(monkeypatch):
    from tableplan import serialize
    calls = []
    real = serialize.config_hash

    def counting(d):
        calls.append(d)
        return real(d)

    monkeypatch.setattr(serialize, "config_hash", counting)
    cfg = default_noise_config("place_and_stack", distractors=2)
    # the test's config_hash is the unpatched one
    assert cfg.config_hash == config_hash(cfg.to_dict())
    assert cfg.config_hash == cfg.config_hash and len(calls) == 1
    other = replace(cfg, step_budget=150)
    assert other.config_hash != cfg.config_hash
    assert other.config_hash == config_hash(other.to_dict())
    # the memo is not a field: equality and to_dict never see it
    assert cfg == replace(cfg)
    assert "config_hash" not in cfg.to_dict()


def test_every_header_gets_its_own_config_dict():
    from tableplan.harness import run_episode
    cfg = perfect_config("pnp_twice")
    a, b = (run_episode(cfg, seed).header for seed in (0, 1))
    assert a["config"] == b["config"] == cfg.to_dict()
    assert a["config_hash"] == b["config_hash"] == config_hash(cfg.to_dict())
    for key in ("cameras", "geometry", "perception_noise", "executor_error",
                "thresholds"):
        assert a["config"][key] is not b["config"][key]
    assert a["config"]["cameras"][0] is not b["config"]["cameras"][0]
    a["config"]["geometry"]["lift_m"] = 1.0
    a["config"]["cameras"][0]["px_per_m"] = 1.0
    a["config"]["thresholds"]["tau_vis"] = 1.0
    assert b["config"] == cfg.to_dict()
    assert cfg.geometry["lift_m"] == DEFAULT_GEOMETRY["lift_m"]


def test_camera_rotation_is_not_a_field():
    a = CameraConfig("c", [100, 80], 120.0, 33.0, [50, 40], [0.5, 0.4])
    b = CameraConfig("c", (100, 80), 120.0, 33.0, (50, 40), (0.5, 0.4))
    assert a == b and hash(a) == hash(b)
    assert a.image_size == (100, 80) and type(a.look_at) is tuple
    assert list(asdict(a)) == ["view_id", "image_size", "px_per_m",
                               "rotation_deg", "center_px", "look_at"]
    assert a != replace(a, rotation_deg=34.0)
    assert "cos" not in repr(a)
