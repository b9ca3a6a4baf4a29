"""Scene configuration: the single UTF-8 JSON document that pins a run.

All distances are metres, all pixel values integers.  Anything omitted falls
back to the defaults below, and the resolved config is what gets written into
episode log headers, so a log is self-describing.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, asdict
from typing import Any

TASKS = ("pnp_twice", "place_and_stack", "swap_cups", "custom")
PLANNER_MODES = ("code", "markovian", "mock_vlm_graph", "mock_vlm_rgb")
VISION_MODES = ("masked", "raw")


class ConfigError(Exception):
    """Malformed or inconsistent scene configuration."""


@dataclass(frozen=True)
class NoiseConfig:
    """Perception degradations; all default to the noise-free setting."""

    feature_sigma: float = 0.0
    mask_dropout_occlusion: float = 0.0
    class_confusion_p: float = 0.0
    tracker_drift_px_per_step: float = 0.0
    tracker_loss_p: float = 0.0

    def validate(self) -> None:
        for name in ("mask_dropout_occlusion", "class_confusion_p", "tracker_loss_p"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ConfigError(f"{name} must be in [0, 1], got {v}")
        for name in ("feature_sigma", "tracker_drift_px_per_step"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v >= 0):
                raise ConfigError(f"{name} must be finite and >= 0, got {v}")


@dataclass(frozen=True)
class GroundingErrorModel:
    """Executor mis-grounding: p = min(p_max, base_p + per_distractor_p * n)."""

    base_p: float = 0.0
    per_distractor_p: float = 0.0
    p_max: float = 0.9

    def validate(self) -> None:
        if not 0.0 <= self.base_p <= 1.0 or not 0.0 <= self.p_max <= 1.0:
            raise ConfigError("base_p and p_max must be in [0, 1]")
        if not (math.isfinite(self.per_distractor_p) and self.per_distractor_p >= 0):
            raise ConfigError(f"per_distractor_p must be finite and >= 0, "
                              f"got {self.per_distractor_p}")

    def probability(self, n_clutter: int) -> float:
        return min(self.p_max, self.base_p + self.per_distractor_p * n_clutter)


@dataclass(frozen=True)
class AssocThresholds:
    tau_vis: float = 0.15
    tau_geo: float = 0.10
    margin_geo: float = 0.05


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
        th = math.radians(self.rotation_deg)
        c, s = math.cos(th), math.sin(th)
        dx, dy = x - self.look_at[0], y - self.look_at[1]
        return (self.px_per_m * (c * dx - s * dy) + self.center_px[0],
                self.px_per_m * (s * dx + c * dy) + self.center_px[1])

    def validate(self) -> None:
        w, h = self.image_size
        if w < 64 or h < 64:
            raise ConfigError(f"camera {self.view_id}: image_size must be >= 64x64")
        if self.px_per_m <= 0:
            raise ConfigError(f"camera {self.view_id}: px_per_m must be > 0")


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


@dataclass
class SceneConfig:
    task: str = "swap_cups"
    variant: str = "black"  # swap_cups: which cup must move first
    distractors: int = 0
    table_bounds: tuple[float, float] = (1.0, 0.75)
    near_threshold_m: float = 0.15
    overlap_tolerance: float = 0.0  # extra allowed circle overlap (m); 0 = none
    cameras: tuple[CameraConfig, ...] = DEFAULT_CAMERAS
    perception_noise: NoiseConfig = field(default_factory=NoiseConfig)
    executor_error: GroundingErrorModel = field(default_factory=GroundingErrorModel)
    thresholds: AssocThresholds = field(default_factory=AssocThresholds)
    geometry: dict = field(default_factory=lambda: dict(DEFAULT_GEOMETRY))
    planner: str = "code"
    vision: str = "masked"
    chunk_horizon: int = 10
    step_budget: int = 200
    mock_latency_s: float = 3.0
    mock_flake_p: float = 0.08
    custom_objects: tuple = ()  # task == "custom": ({class,color,position}, ...)

    def validate(self) -> None:
        if self.task not in TASKS:
            raise ConfigError(f"unknown task {self.task!r}")
        if self.task == "swap_cups" and self.variant not in ("black", "blue"):
            raise ConfigError(f"swap_cups variant must be black|blue, got {self.variant!r}")
        if self.planner not in PLANNER_MODES:
            raise ConfigError(f"unknown planner mode {self.planner!r}")
        if self.vision not in VISION_MODES:
            raise ConfigError(f"unknown vision mode {self.vision!r}")
        if self.distractors < 0:
            raise ConfigError("distractors must be >= 0")
        if self.chunk_horizon < 2:
            raise ConfigError("chunk_horizon must be >= 2")
        if self.step_budget < 1:
            raise ConfigError("step_budget must be >= 1")
        w, h = self.table_bounds
        if w <= 0 or h <= 0:
            raise ConfigError("table_bounds must be positive")
        if self.near_threshold_m <= 0:
            raise ConfigError("near_threshold_m must be > 0")
        if not self.cameras:
            raise ConfigError("at least one camera required")
        ids = [c.view_id for c in self.cameras]
        if len(set(ids)) != len(ids):
            raise ConfigError("camera view_ids must be unique")
        for cam in self.cameras:
            cam.validate()
        self.perception_noise.validate()
        self.executor_error.validate()
        if self.task == "custom" and not self.custom_objects:
            raise ConfigError("custom task needs custom_objects")

    # -- serialization ----------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        d = asdict(self)
        d["cameras"] = list(d["cameras"])
        return d

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
                kw[key] = tuple(_camera_from(v) for v in value)
            elif key == "perception_noise":
                kw[key] = _sub(NoiseConfig, value, key)
            elif key == "executor_error":
                kw[key] = _sub(GroundingErrorModel, value, key)
            elif key == "thresholds":
                kw[key] = _sub(AssocThresholds, value, key)
            elif key == "table_bounds":
                kw[key] = tuple(float(v) for v in value)
            elif key in ("near_threshold_m", "overlap_tolerance",
                         "mock_latency_s", "mock_flake_p"):
                kw[key] = float(value)
            elif key == "geometry":
                merged = dict(DEFAULT_GEOMETRY)
                merged.update(value)
                kw[key] = {k: (tuple(float(x) for x in v)
                               if isinstance(v, (list, tuple)) else float(v))
                           for k, v in merged.items()}
            elif key == "custom_objects":
                objs = []
                for spec in value:
                    spec = dict(spec)
                    if "position" in spec:
                        spec["position"] = tuple(float(x)
                                                 for x in spec["position"])
                    objs.append(spec)
                kw[key] = tuple(objs)
            else:
                kw[key] = value
        cfg = cls(**kw)
        cfg.validate()
        return cfg

    @classmethod
    def from_json(cls, text: str) -> "SceneConfig":
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON: {exc}") from exc
        return cls.from_dict(raw)

    @classmethod
    def load(cls, path: str) -> "SceneConfig":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json(fh.read())


def _sub(cls, value, key):
    if not isinstance(value, dict):
        raise ConfigError(f"{key} must be an object")
    known = set(cls.__dataclass_fields__)
    unknown = set(value) - known
    if unknown:
        raise ConfigError(f"unknown keys in {key}: {sorted(unknown)}")
    # Log headers carry floats as 9-significant-digit strings; accept both.
    return cls(**{k: float(v) for k, v in value.items()})


def _camera_from(value) -> CameraConfig:
    if not isinstance(value, dict):
        raise ConfigError("camera entries must be objects")
    try:
        size = tuple(int(v) for v in value["image_size"])
        return CameraConfig(
            view_id=value["view_id"],
            image_size=size,
            px_per_m=float(value["px_per_m"]),
            rotation_deg=float(value.get("rotation_deg", 0.0)),
            center_px=tuple(float(v) for v in value.get("center_px", (size[0] / 2, size[1] / 2))),
            look_at=tuple(float(v) for v in value.get("look_at", (0.5, 0.375))),
        )
    except KeyError as exc:
        raise ConfigError(f"camera entry missing key {exc}") from exc


def perfect_config(task: str, **overrides) -> SceneConfig:
    """Zero-noise, zero-error config for a task."""
    cfg = SceneConfig(task=task, **overrides)
    cfg.validate()
    return cfg


def default_noise_config(task: str, **overrides) -> SceneConfig:
    """The standard degraded profile used by the ablation grids."""
    kw: dict[str, Any] = {
        "perception_noise": DEFAULT_NOISE,
        "executor_error": DEFAULT_EXECUTOR_ERROR,
    }
    kw.update(overrides)
    cfg = SceneConfig(task=task, **kw)
    cfg.validate()
    return cfg
