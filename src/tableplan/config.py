"""Scene configuration: the single UTF-8 JSON document that pins a run.

All distances are metres, all pixel values integers.  Anything omitted falls
back to the defaults below, and the resolved config is what gets written into
episode log headers, so a log is self-describing.
"""

from __future__ import annotations

import json
import math
import numbers
from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Any

from .region import memo
from .world import ARM_CLASS, FOOTPRINTS, TASK_TABLE

TASKS = tuple(TASK_TABLE)
PLANNER_MODES = ("code", "markovian", "mock_vlm_graph", "mock_vlm_rgb")
VISION_MODES = ("masked", "raw")
# object classes a custom scene may place; the arm is always added
CUSTOM_CLASSES = tuple(c for c in FOOTPRINTS if c != ARM_CLASS)


class ConfigError(Exception):
    """Malformed or inconsistent scene configuration."""


# Value checks, run as each config object is built; each returns its value.
# A float field takes a finite real number (a bool or a string is none); an
# int field an int.  from_dict reads numbers with _number instead, since log
# headers carry floats as '%.9g' strings.

def _real(value, key: str):
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"{key} must be a number, got {value!r}")
    return value


def _finite(value, key: str):
    if not math.isfinite(_real(value, key)):
        raise ConfigError(f"{key} must be finite, got {value}")
    return value


def _number(value, key: str) -> float:
    if not isinstance(value, bool):
        try:
            return float(value)
        except (TypeError, ValueError):
            pass
    raise ConfigError(f"{key} must be a number, got {value!r}")


def _integer(value, key: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    return value


def _list(value, key: str):
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"{key} must be a list, got {value!r}")
    return value


def _instance(value, cls, key: str):
    if not isinstance(value, cls):
        raise ConfigError(f"{key} must be {cls.__name__}, got {value!r}")
    return value


def _numbers(value, key: str, count: int, item=_number) -> tuple:
    if not isinstance(value, (list, tuple)) or len(value) != count:
        raise ConfigError(f"{key} must be a list of {count} numbers, "
                          f"got {value!r}")
    return tuple(item(v, key) for v in value)


def _probabilities(obj, *names) -> None:
    for name in names:
        v = _real(getattr(obj, name), name)
        if not 0.0 <= v <= 1.0:
            raise ConfigError(f"{name} must be in [0, 1], got {v}")


def _magnitudes(obj, *names) -> None:
    for name in names:
        v = _real(getattr(obj, name), name)
        if not (math.isfinite(v) and v >= 0):
            raise ConfigError(f"{name} must be finite and >= 0, got {v}")


@dataclass(frozen=True)
class NoiseConfig:
    """Perception degradations; all default to the noise-free setting."""

    feature_sigma: float = 0.0
    mask_dropout_occlusion: float = 0.0
    class_confusion_p: float = 0.0
    tracker_drift_px_per_step: float = 0.0
    tracker_loss_p: float = 0.0

    def __post_init__(self) -> None:
        _probabilities(self, "mask_dropout_occlusion", "class_confusion_p",
                       "tracker_loss_p")
        _magnitudes(self, "feature_sigma", "tracker_drift_px_per_step")


@dataclass(frozen=True)
class GroundingErrorModel:
    """Executor mis-grounding: p = min(p_max, base_p + per_distractor_p * n)."""

    base_p: float = 0.0
    per_distractor_p: float = 0.0
    p_max: float = 0.9

    def __post_init__(self) -> None:
        if not (0.0 <= _real(self.base_p, "base_p") <= 1.0
                and 0.0 <= _real(self.p_max, "p_max") <= 1.0):
            raise ConfigError("base_p and p_max must be in [0, 1]")
        _magnitudes(self, "per_distractor_p")

    def probability(self, n_clutter: int) -> float:
        return min(self.p_max, self.base_p + self.per_distractor_p * n_clutter)


@dataclass(frozen=True)
class AssocThresholds:
    tau_vis: float = 0.15
    tau_geo: float = 0.10
    margin_geo: float = 0.05

    def __post_init__(self) -> None:
        _magnitudes(self, "tau_vis", "tau_geo", "margin_geo")


@dataclass(frozen=True)
class CameraConfig:
    """Similarity transform world->pixel: p = s * R(theta) * (w - look_at) + center."""

    view_id: str
    image_size: tuple[int, int]  # (width, height)
    px_per_m: float
    rotation_deg: float
    center_px: tuple[float, float]
    look_at: tuple[float, float]

    def to_px(self, x, y) -> tuple:
        """World metres to pixel (col, row); floats or numpy arrays."""
        c, s = self._cos_sin
        dx, dy = x - self.look_at[0], y - self.look_at[1]
        return (self.px_per_m * (c * dx - s * dy) + self.center_px[0],
                self.px_per_m * (s * dx + c * dy) + self.center_px[1])

    def __post_init__(self) -> None:
        if not isinstance(self.view_id, str):
            raise ConfigError(f"camera view_id must be a string, "
                              f"got {self.view_id!r}")
        w, h = _numbers(self.image_size, "image_size", 2, _integer)
        if w < 64 or h < 64:
            raise ConfigError(f"camera {self.view_id}: image_size must be >= 64x64")
        if _real(self.px_per_m, "px_per_m") <= 0:
            raise ConfigError(f"camera {self.view_id}: px_per_m must be > 0")
        _finite(self.px_per_m, "px_per_m")
        _finite(self.rotation_deg, "rotation_deg")
        # stored as tuples, so every camera is hashable
        object.__setattr__(self, "image_size", (w, h))
        object.__setattr__(self, "center_px",
                           _numbers(self.center_px, "center_px", 2, _finite))
        object.__setattr__(self, "look_at",
                           _numbers(self.look_at, "look_at", 2, _finite))
        # not a field: equality, hashing and to_dict never see it
        th = math.radians(self.rotation_deg)
        object.__setattr__(self, "_cos_sin", (math.cos(th), math.sin(th)))


# Overhead covers the whole table; its diagonal (200 px at 160 px/m = 1.25 m)
# ties the induced near rule (0.12 * diagonal) to the 0.15 m oracle threshold.
# The wrist view is a rotated zoom on the table centre, so edge objects drop
# out of it and the cross-view association actually has work to do.
DEFAULT_CAMERAS = (
    CameraConfig("overhead", (160, 120), 160.0, 0.0, (80.0, 60.0), (0.5, 0.375)),
    CameraConfig("wrist", (192, 192), 240.0, 20.0, (96.0, 96.0), (0.5, 0.375)),
)

DEFAULT_GEOMETRY = {
    "plate_radius": 0.09,
    "cup_radius": 0.035,
    "cube_side": 0.05,
    "arm_size": (0.12, 0.05),
    "arm_position": (0.50, 0.70),
    "lift_m": 0.03,       # world-space -y shift per z layer when rendering
    "min_gap_m": 0.015,   # required clearance between bounding circles
    "near_margin_m": 0.012,  # keep-out band around the near threshold
}

# The standard degraded profile used by ablation cells ("default noise").
DEFAULT_NOISE = NoiseConfig(
    feature_sigma=0.2,
    mask_dropout_occlusion=0.25,
    class_confusion_p=0.02,
    tracker_drift_px_per_step=1.0,
    tracker_loss_p=0.02,
)
DEFAULT_EXECUTOR_ERROR = GroundingErrorModel(base_p=0.02, per_distractor_p=0.05, p_max=0.9)

# noise profile name (the CLI's --noise) -> the config fields it sets
NOISE_PROFILES = {
    "none": {"perception_noise": NoiseConfig(),
             "executor_error": GroundingErrorModel()},
    "default": {"perception_noise": DEFAULT_NOISE,
                "executor_error": DEFAULT_EXECUTOR_ERROR},
}


@dataclass(frozen=True)
class SceneConfig:
    """One run's scene, checked when built (and by dataclasses.replace).

    `geometry` and each custom object are stored as read-only mappings, and
    `cameras`, `custom_objects` and a custom object's position as tuples.
    """

    task: str = "swap_cups"
    variant: str = "black"  # swap_cups: which cup must move first
    distractors: int = 0
    table_bounds: tuple[float, float] = (1.0, 0.75)
    near_threshold_m: float = 0.15
    cameras: tuple[CameraConfig, ...] = DEFAULT_CAMERAS
    perception_noise: NoiseConfig = field(default_factory=NoiseConfig)
    executor_error: GroundingErrorModel = field(default_factory=GroundingErrorModel)
    thresholds: AssocThresholds = field(default_factory=AssocThresholds)
    geometry: Mapping = field(default_factory=lambda: dict(DEFAULT_GEOMETRY))
    planner: str = "code"
    vision: str = "masked"
    step_budget: int = 200
    mock_latency_s: float = 3.0
    mock_flake_p: float = 0.08
    custom_objects: tuple = ()  # task == "custom": ({class,color,position}, ...)

    def __post_init__(self) -> None:
        if self.task not in TASKS:
            raise ConfigError(f"unknown task {self.task!r}")
        if not isinstance(self.variant, str):
            raise ConfigError(f"variant must be a string, got {self.variant!r}")
        variants = TASK_TABLE[self.task].variants
        if variants is not None and self.variant not in variants:
            raise ConfigError(f"{self.task} variant must be "
                              f"{'|'.join(variants)}, got {self.variant!r}")
        if self.planner not in PLANNER_MODES:
            raise ConfigError(f"unknown planner mode {self.planner!r}")
        if self.vision not in VISION_MODES:
            raise ConfigError(f"unknown vision mode {self.vision!r}")
        for name in ("distractors", "step_budget"):
            _integer(getattr(self, name), name)
        if self.distractors < 0:
            raise ConfigError("distractors must be >= 0")
        if self.step_budget < 1:
            raise ConfigError("step_budget must be >= 1")
        w, h = _numbers(self.table_bounds, "table_bounds", 2, _finite)
        if w <= 0 or h <= 0:
            raise ConfigError("table_bounds must be positive")
        if _finite(self.near_threshold_m, "near_threshold_m") <= 0:
            raise ConfigError("near_threshold_m must be > 0")
        for name, cls in (("perception_noise", NoiseConfig),
                          ("executor_error", GroundingErrorModel),
                          ("thresholds", AssocThresholds)):
            _instance(getattr(self, name), cls, name)
        object.__setattr__(self, "cameras", tuple(
            _instance(cam, CameraConfig, "camera")
            for cam in _list(self.cameras, "cameras")))
        if not self.cameras:
            raise ConfigError("at least one camera required")
        ids = [c.view_id for c in self.cameras]
        if len(set(ids)) != len(ids):
            raise ConfigError("camera view_ids must be unique")
        if self.task == "custom" and not self.custom_objects:
            raise ConfigError("custom task needs custom_objects")
        object.__setattr__(self, "custom_objects", tuple(map(
            _frozen_custom_object, _list(self.custom_objects, "custom_objects"))))
        _magnitudes(self, "mock_latency_s")
        _probabilities(self, "mock_flake_p")
        # stored merged with the defaults, as from_dict reads it
        object.__setattr__(self, "geometry", MappingProxyType(
            _geometry(self.geometry, _finite)))

    # -- serialization ----------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """A new dict on every call.  Field by field, without a deep copy:
        the sub-configs hold only numbers, strings and tuples of them."""
        d = _field_dict(self)
        d["cameras"] = [_field_dict(c) for c in self.cameras]
        d["geometry"] = dict(self.geometry)
        d["custom_objects"] = tuple(dict(spec) for spec in self.custom_objects)
        for name in ("perception_noise", "executor_error", "thresholds"):
            d[name] = _field_dict(d[name])
        return d

    @memo
    def config_hash(self) -> str:
        """`serialize.config_hash` of `to_dict()`, computed once per config
        object (a dataclasses.replace copy is a new object)."""
        from .serialize import config_hash  # serialize imports this module
        return config_hash(self.to_dict())

    @classmethod
    def from_dict(cls, raw: dict[str, Any]) -> "SceneConfig":
        if not isinstance(raw, dict):
            raise ConfigError("config root must be a JSON object")
        known = set(cls.__dataclass_fields__)
        unknown = set(raw) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        kw: dict[str, Any] = {}
        for key, value in raw.items():
            if key == "cameras":
                kw[key] = tuple(_camera_from(v) for v in _list(value, key))
            elif key == "perception_noise":
                kw[key] = _sub(NoiseConfig, value, key)
            elif key == "executor_error":
                kw[key] = _sub(GroundingErrorModel, value, key)
            elif key == "thresholds":
                kw[key] = _sub(AssocThresholds, value, key)
            elif key == "table_bounds":
                kw[key] = _numbers(value, key, 2)
            elif key in ("near_threshold_m", "mock_latency_s",
                         "mock_flake_p"):
                kw[key] = _number(value, key)
            elif key == "geometry":
                kw[key] = _geometry(value)
            elif key == "custom_objects":
                kw[key] = tuple(_custom_object(v) for v in _list(value, key))
            else:
                kw[key] = value
        return cls(**kw)

    @classmethod
    def from_json(cls, text: str) -> "SceneConfig":
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON: {exc}") from exc
        return cls.from_dict(raw)

    @classmethod
    def load(cls, path: str) -> "SceneConfig":
        return cls.from_json(read_text(path))


def _field_dict(obj) -> dict:
    """A dataclass's fields, by name, in a new dict."""
    return {name: getattr(obj, name) for name in obj.__dataclass_fields__}


def read_text(path) -> str:
    """A UTF-8 text file's contents; ConfigError naming the file when its
    bytes are not UTF-8."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path}: not UTF-8 text ({exc.reason} at "
                              f"byte {exc.start})") from None


# Parsing for from_dict: each builds the value its config field takes from
# the JSON one; the config object itself checks it.

def _known_keys(value: dict, known, where: str) -> None:
    unknown = set(value) - set(known)
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")


def _sub(cls, value, key):
    if not isinstance(value, dict):
        raise ConfigError(f"{key} must be an object")
    _known_keys(value, cls.__dataclass_fields__, key)
    return cls(**{k: _number(v, f"{key}.{k}") for k, v in value.items()})


def _geometry(value, item=_number) -> dict:
    """The defaults updated by `value`; a key keeps its default's shape."""
    if not isinstance(value, Mapping):
        raise ConfigError("geometry must be an object")
    _known_keys(value, DEFAULT_GEOMETRY, "geometry")
    out = {}
    for k, like in DEFAULT_GEOMETRY.items():
        v = value.get(k, like)
        if isinstance(like, tuple):
            out[k] = _numbers(v, f"geometry.{k}", len(like), item)
        else:
            out[k] = item(v, f"geometry.{k}")
    return out


def _custom_object(value):
    if isinstance(value, dict) and "position" in value:
        return {**value, "position": _numbers(value["position"], "position", 2)}
    return value


def _frozen_custom_object(spec) -> Mapping:
    """A read-only copy of a checked custom object, position as a tuple."""
    if not isinstance(spec, Mapping):
        raise ConfigError("custom_objects entries must be objects")
    if spec.get("class") not in CUSTOM_CLASSES:
        raise ConfigError(f"custom object class must be one of "
                          f"{', '.join(CUSTOM_CLASSES)}, got "
                          f"{spec.get('class')!r}")
    _known_keys(spec, ("class", "color", "position"), "custom object")
    if not isinstance(spec.get("color", ""), str):
        raise ConfigError(f"custom object color must be a string, "
                          f"got {spec['color']!r}")
    out = dict(spec)
    if "position" in spec:
        out["position"] = _numbers(spec["position"], "position", 2, _finite)
    return MappingProxyType(out)


def _camera_from(value) -> CameraConfig:
    if not isinstance(value, dict):
        raise ConfigError("camera entries must be objects")
    _known_keys(value, CameraConfig.__dataclass_fields__, "camera")
    try:
        size = _numbers(value["image_size"], "image_size", 2, _integer)
        return CameraConfig(
            view_id=value["view_id"],
            image_size=size,
            px_per_m=_number(value["px_per_m"], "px_per_m"),
            rotation_deg=_number(value.get("rotation_deg", 0.0),
                                 "rotation_deg"),
            center_px=_numbers(value.get("center_px",
                                         (size[0] / 2, size[1] / 2)),
                               "center_px", 2),
            look_at=_numbers(value.get("look_at", (0.5, 0.375)), "look_at", 2),
        )
    except KeyError as exc:
        raise ConfigError(f"camera entry missing key {exc}") from exc


def perfect_config(task: str, **overrides) -> SceneConfig:
    """Zero-noise, zero-error config for a task."""
    return SceneConfig(task=task, **overrides)


def default_noise_config(task: str, **overrides) -> SceneConfig:
    """The standard degraded profile used by the ablation grids."""
    return SceneConfig(task=task, **{**NOISE_PROFILES["default"], **overrides})
