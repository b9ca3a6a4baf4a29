"""2.5D tabletop world: continuous (x, y) poses plus discrete z layers.

The world is the ground truth that the perception/graph pipeline must never
read directly; it is consumed only through rendered observations and the
oracles defined here.  Primitives are deterministic; infeasible ones are
rejected and leave the world unchanged.

Each task is defined once, as its TASK_TABLE entry: the instruction and
relevant classes (read by perception.make_task_spec), the bundled plan
(harness.load_task_program), the variants config accepts, the layout
(init_world), the judge (MilestoneTracker), the frame-only chooser
(harness.rgb_choose) and the object a cup may hide (the stack decision).
Config also reads its task names and custom object classes from TASK_TABLE
and FOOTPRINTS.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Iterable, Optional

from .rng import Rng

if TYPE_CHECKING:
    from .config import SceneConfig

CONTAINER_CLASSES = ("cup", "plate")
OPAQUE_CLASSES = ("cup",)  # contents of these render no pixels
DISTRACTOR_CLASSES = ("sponge", "marker", "bottle", "tape", "block")
DISTRACTOR_COLORS = ("red", "green", "yellow", "purple", "orange", "cyan")

ARM_CLASS = "arm"
HELD_Z = 4  # z layer of an object in the gripper; above any static stack

TABLE_BOUNDS = (1.0, 0.75)  # (width, depth) of the table, metres
# Two objects closer than this are near.  The layout keeps every pair clear
# of it and ground_truth_relations judges by it; the induced rule is
# graph.NEAR_FRACTION of the overhead view's diagonal, the same 0.15 m.
NEAR_THRESHOLD_M = 0.15

MILESTONE_PNP_ONCE = "PnP Once"
MILESTONE_DROP_CUBE = "Drop Cube"
MILESTONE_STAGE_CUP = "Stage Cup"


class UnknownObject(Exception):
    """A primitive referenced an object id that does not exist."""


class LayoutInfeasible(Exception):
    """Rejection sampling could not place an object within 1000 attempts."""


def regular_polygon(radius: float, sides: int) -> tuple:
    pts = []
    for k in range(sides):
        a = 2.0 * math.pi * k / sides
        pts.append((radius * math.cos(a), radius * math.sin(a)))
    return tuple(pts)


def rectangle(width: float, height: float) -> tuple:
    w, h = width / 2.0, height / 2.0
    return ((-w, -h), (w, -h), (w, h), (-w, h))


def circumradius(footprint: Iterable[tuple]) -> float:
    return max(math.hypot(x, y) for x, y in footprint)


@dataclass(frozen=True)
class SimObject:
    id: int
    class_name: str
    attributes: tuple  # sorted ((key, value), ...) pairs
    x: float
    y: float
    z_layer: int
    footprint: tuple  # local polygon vertices, metres
    container_of: Optional[int]  # id of the container this object sits in
    support_of: Optional[int]    # id of the object this one is stacked on
    appearance_seed: int

    @property
    def pose(self) -> tuple:
        return (self.x, self.y, self.z_layer)

    def attribute(self, key: str):
        for k, v in self.attributes:
            if k == key:
                return v
        return None


@dataclass(frozen=True)
class GripperState:
    free: bool = True
    held: Optional[int] = None


@dataclass(frozen=True)
class Primitive:
    kind: str  # pick | place_in | place_on | no_op (approach target)
    target: Optional[int] = None


@dataclass(frozen=True)
class PrimitiveResult:
    status: str  # completed | rejected
    reason: str = ""

    @property
    def ok(self) -> bool:
        return self.status == "completed"


@dataclass(frozen=True)
class WorldState:
    objects: tuple  # SimObject, ordered by id
    gripper: GripperState
    step_count: int

    def get(self, object_id: int) -> SimObject:
        for obj in self.objects:
            if obj.id == object_id:
                return obj
        raise UnknownObject(f"no object with id {object_id}")

    def children_of(self, object_id: int) -> list:
        return [o for o in self.objects
                if o.container_of == object_id or o.support_of == object_id]

    def by_class(self, class_name: str) -> list:
        return [o for o in self.objects if o.class_name == class_name]

    def arm(self) -> SimObject:
        return self.by_class(ARM_CLASS)[0]


def _with_object(world: WorldState, obj: SimObject) -> WorldState:
    objs = tuple(obj if o.id == obj.id else o for o in world.objects)
    return replace(world, objects=objs)


def hidden_inside_opaque(world: WorldState, obj: SimObject) -> bool:
    """True when some ancestor container is opaque (object renders nothing)."""
    seen = set()
    cur = obj
    while cur.container_of is not None and cur.container_of not in seen:
        seen.add(cur.container_of)
        parent = world.get(cur.container_of)
        if parent.class_name in OPAQUE_CLASSES:
            return True
        cur = parent
    return False


def _ancestors(world: WorldState, obj: SimObject) -> set:
    out = set()
    cur = obj
    while True:
        parent = cur.container_of if cur.container_of is not None else cur.support_of
        if parent is None or parent in out:
            return out
        out.add(parent)
        cur = world.get(parent)


# -- primitives -------------------------------------------------------------


def apply_primitive(world: WorldState, prim: Primitive) -> tuple:
    """Apply one primitive; returns (new_world, PrimitiveResult).

    Every primitive advances step_count by one (time passes even when it
    is rejected); a rejected one leaves the scene unchanged.
    """
    new_world, result = _apply(world, prim)
    new_world = replace(new_world, step_count=new_world.step_count + 1)
    return new_world, result


def _reject(world: WorldState, reason: str) -> tuple:
    return world, PrimitiveResult("rejected", reason)


def _apply(world: WorldState, prim: Primitive) -> tuple:
    if prim.kind == "no_op":
        return world, PrimitiveResult("completed")

    if prim.kind == "pick":
        if not world.gripper.free:
            return _reject(world, "gripper occupied")
        target = world.get(prim.target)  # raises UnknownObject
        if target.class_name == ARM_CLASS:
            return _reject(world, "cannot pick the arm")
        if world.children_of(target.id):
            return _reject(world, "target carries other objects")
        arm = world.arm()
        moved = replace(target, x=arm.x, y=arm.y, z_layer=HELD_Z,
                        container_of=None, support_of=None)
        world = _with_object(world, moved)
        return replace(world, gripper=GripperState(False, target.id)), PrimitiveResult("completed")

    if prim.kind in ("place_in", "place_on"):
        if world.gripper.free:
            return _reject(world, "gripper empty")
        held = world.get(world.gripper.held)
        target = world.get(prim.target)
        if target.id == held.id:
            return _reject(world, "cannot place an object into itself")
        if target.class_name == ARM_CLASS:
            return _reject(world, "cannot place onto the arm")
        if held.id in _ancestors(world, target):
            return _reject(world, "placement would create a containment cycle")
        if prim.kind == "place_in" and target.class_name not in CONTAINER_CLASSES:
            return _reject(world, f"{target.class_name} is not a container")
        z = target.z_layer + 1 + len(world.children_of(target.id))
        placed = replace(
            held, x=target.x, y=target.y, z_layer=z,
            container_of=target.id if prim.kind == "place_in" else None,
            support_of=target.id if prim.kind == "place_on" else None,
        )
        world = _with_object(world, placed)
        return replace(world, gripper=GripperState(True, None)), PrimitiveResult("completed")

    return _reject(world, f"unknown primitive kind {prim.kind!r}")


# -- relations oracle --------------------------------------------------------


def ground_truth_relations(world: WorldState) -> set:
    """Exact relation set: directed (a, b, in|on), canonical (min, max, near)."""
    rels = set()
    for obj in world.objects:
        if obj.container_of is not None:
            rels.add((obj.id, obj.container_of, "in"))
        if obj.support_of is not None:
            rels.add((obj.id, obj.support_of, "on"))
    objs = list(world.objects)
    for i, a in enumerate(objs):
        for b in objs[i + 1:]:
            if math.hypot(a.x - b.x, a.y - b.y) < NEAR_THRESHOLD_M:
                rels.add((min(a.id, b.id), max(a.id, b.id), "near"))
    return rels


# -- scene construction -------------------------------------------------------


def _lifted_distance(ax, ay, az, bx, by, bz, lift_m) -> float:
    """Distance between render positions (z layers shift -y by lift_m each)."""
    return math.hypot(ax - bx, (ay - (az - 1) * lift_m) - (by - (bz - 1) * lift_m))


_FRAME_PAD_PX = 4.0  # rasterization rounding + containment dilation headroom


def _frame_fits(cameras, x, y, z, radius, lift_m) -> bool:
    """True when a bounding circle at (x, y, z) renders fully inside every view."""
    ly = y - (z - 1) * lift_m
    for cam in cameras:
        col, row = cam.to_px(x, ly)
        pad = radius * cam.px_per_m + _FRAME_PAD_PX
        w, h = cam.image_size
        if not (pad <= col <= w - pad and pad <= row <= h - pad):
            return False
    return True


class _Placer:
    """Rejection sampler enforcing the layout invariants.

    Placements keep clear of other bounding circles (min_gap_m) and of the
    near-threshold knife edge (near_margin_m), in both true and render
    coordinates, so the induced relations can be compared exactly against the
    oracle on freshly initialized scenes.
    """

    def __init__(self, cfg: SceneConfig, rng: Rng):
        self.cfg = cfg
        self.rng = rng
        self.geom = cfg.geometry
        self.placed = []  # (x, y, z, radius)

    def admit(self, x, y, z, radius, extra=()) -> bool:
        bw, bh = TABLE_BOUNDS
        margin = radius + 0.02
        if not (margin <= x <= bw - margin and margin <= y <= bh - margin):
            return False
        lift = self.geom["lift_m"]
        # everything must start fully in frame in every view, including any
        # payload that will later render at a higher layer over this spot
        for (r, zz) in ((radius, z),) + tuple(extra):
            if not _frame_fits(self.cfg.cameras, x, y, zz, r, lift):
                return False
        thr = NEAR_THRESHOLD_M
        band = self.geom["near_margin_m"]
        gap = self.geom["min_gap_m"]
        for (px, py, pz, pr) in self.placed:
            d = math.hypot(x - px, y - py)
            if d < radius + pr + gap:
                return False
            if abs(d - thr) < band:
                return False
            if abs(_lifted_distance(x, y, z, px, py, pz, lift) - thr) < band:
                return False
        return True

    def record(self, x, y, z, radius) -> None:
        self.placed.append((x, y, z, radius))

    def sample(self, radius, z=1, x_range=None, y_range=None,
               annulus=None, extra=()) -> tuple:
        """Draw an admissible position; annulus=(cx, cy, r_lo, r_hi) if set."""
        bw, bh = TABLE_BOUNDS
        x_lo, x_hi = x_range if x_range else (0.0, bw)
        y_lo, y_hi = y_range if y_range else (0.0, bh)
        for _ in range(1000):
            if annulus is not None:
                cx, cy, r_lo, r_hi = annulus
                r = math.sqrt(self.rng.uniform(r_lo * r_lo, r_hi * r_hi))
                a = self.rng.uniform(0.0, 2.0 * math.pi)
                x, y = cx + r * math.cos(a), cy + r * math.sin(a)
            else:
                x = self.rng.uniform(x_lo, x_hi)
                y = self.rng.uniform(y_lo, y_hi)
            if self.admit(x, y, z, radius, extra=extra):
                self.record(x, y, z, radius)
                return x, y
        raise LayoutInfeasible(
            f"no admissible position after 1000 attempts (radius {radius:.3f})")


# class -> its footprint, given the geometry.  All but the arm are
# config.CUSTOM_CLASSES, which bench.random_scene_config indexes: keep order.
FOOTPRINTS = {
    "cube": lambda g: rectangle(g["cube_side"], g["cube_side"]),
    "cup": lambda g: regular_polygon(g["cup_radius"], 10),
    "plate": lambda g: regular_polygon(g["plate_radius"], 12),
    "sponge": lambda g: rectangle(0.08, 0.05),
    "marker": lambda g: rectangle(0.10, 0.015),
    "bottle": lambda g: regular_polygon(0.03, 8),
    "tape": lambda g: regular_polygon(0.04, 8),
    "block": lambda g: rectangle(0.04, 0.04),
    ARM_CLASS: lambda g: rectangle(*g["arm_size"]),
}


class _Builder:
    def __init__(self, cfg: SceneConfig, rng: Rng):
        self.cfg = cfg
        self.rng = rng
        self.objects: list[SimObject] = []
        self.placer = _Placer(cfg, rng)
        self._seeds: set[int] = set()

    def _appearance_seed(self) -> int:
        while True:
            s = self.rng.next_u64()
            if s not in self._seeds:
                self._seeds.add(s)
                return s

    def add(self, class_name, x, y, z=1, color=None, container_of=None,
            support_of=None) -> SimObject:
        attrs = (("color", color),) if color else ()
        obj = SimObject(
            id=len(self.objects) + 1, class_name=class_name, attributes=attrs,
            x=x, y=y, z_layer=z, footprint=FOOTPRINTS[class_name](self.cfg.geometry),
            container_of=container_of, support_of=support_of,
            appearance_seed=self._appearance_seed(),
        )
        self.objects.append(obj)
        return obj

    def add_placed(self, class_name, z=1, color=None, **sample_kw) -> SimObject:
        radius = circumradius(FOOTPRINTS[class_name](self.cfg.geometry))
        x, y = self.placer.sample(radius, z=z, **sample_kw)
        return self.add(class_name, x, y, z=z, color=color)

    def add_arm(self) -> SimObject:
        ax, ay = self.cfg.geometry["arm_position"]
        radius = circumradius(FOOTPRINTS[ARM_CLASS](self.cfg.geometry))
        self.placer.record(ax, ay, 1, radius)
        return self.add(ARM_CLASS, ax, ay, z=1)

    def add_distractors(self, count: int) -> None:
        for k in range(count):
            cls = DISTRACTOR_CLASSES[k % len(DISTRACTOR_CLASSES)]
            color = DISTRACTOR_COLORS[self.rng.randrange(len(DISTRACTOR_COLORS))]
            self.add_placed(cls, color=color)

    def world(self) -> WorldState:
        return WorldState(
            objects=tuple(self.objects), gripper=GripperState(), step_count=0)


# -- tasks ---------------------------------------------------------------------


class Task:
    """A TASK_TABLE entry: instruction, classes, plan, variants, hidden,
    `layout`, `frame_choice`.

    An instance judges one episode: roles (object ids) cast from the initial
    world, the first pick among the `watched` ids, and a success test.  The
    milestone (name, role A, role B) is the first time A sits in B.
    """

    instruction = ""    # formatted with the variant
    classes = None      # relevant classes; None: those of the custom objects
    plan = None         # bundled plan file stem; None: no bundled plan
    variants = None     # accepted variants; None: any string
    hidden = None       # class of the object a cup may hide; None: none
    milestone = None
    watched = ()
    first_pick = None

    def __init__(self, world: WorldState, variant: str):
        pass

    def success(self, world: WorldState, milestones: list) -> bool:
        return False

    def hidden_in(self, world: WorldState) -> Optional[int]:
        """Id of the cup the `hidden` object sits in, or None."""
        for obj in world.by_class(self.hidden):
            parent = obj.container_of
            if parent is not None and world.get(parent).class_name == "cup":
                return parent
        return None

    @staticmethod
    def frame_choice(variant: str, g, rng: Rng) -> tuple:
        """The next subtask read off one frame's graph `g`: a VLM prompted
        with the current image only, which takes every frame for the initial
        state and flips a coin at any rest state that could be "finished".
        Returns ((instruction, node ids) or None for done, the sim id of the
        cup it guesses hides the `hidden` object or None)."""
        return None, None


def _objects(g, class_name: str) -> list:
    return [g.nodes[nid] for nid in g.objects_by(class_name=class_name)]


def _say(template: str, *nodes) -> tuple:
    """(instruction, node ids): the template's {}s filled with node names."""
    return (template.format(*(n.name.replace("_", " ") for n in nodes)),
            tuple(n.node_id for n in nodes))


def _into_empty_plate(g, node, rng: Rng) -> Optional[tuple]:
    empties = [g.nodes[nid] for nid in g.empty_containers("plate")]
    if not empties:
        return None
    return _say("put the {} inside the {}", node,
                empties[rng.randrange(len(empties))])


class PnpTwice(Task):
    instruction = "move the cube to the other plate, then bring it back"
    classes = frozenset({"cube", "plate"})
    plan = "pnp_twice"
    milestone = (MILESTONE_PNP_ONCE, "cube", "other")

    @staticmethod
    def layout(b, cfg, rng):
        cube_r = circumradius(FOOTPRINTS["cube"](cfg.geometry))
        hold = [(cube_r, 2)]  # the cube renders at layer 2 over either plate
        p1 = b.add_placed("plate", extra=hold)
        p2 = b.add_placed("plate", extra=hold)
        start = p1 if rng.randrange(2) == 0 else p2
        b.add("cube", start.x, start.y, z=2, container_of=start.id)

    def __init__(self, world, variant):
        cube = world.by_class("cube")[0]
        self.cube, self.start = cube.id, cube.container_of
        self.other = [p.id for p in world.by_class("plate")
                      if p.id != self.start][0]

    def success(self, world, milestones):
        return (MILESTONE_PNP_ONCE in milestones
                and world.get(self.cube).container_of == self.start)

    @staticmethod
    def frame_choice(variant, g, rng):
        cubes = _objects(g, "cube")
        if g.held_node is not None:
            if cubes and g.held_node == cubes[0].node_id:
                return _into_empty_plate(g, cubes[0], rng), None
            return None, None
        if cubes:
            parent = g.container_of(cubes[0].node_id)
            if parent is not None and g.nodes[parent].class_name == "plate":
                # rest state: indistinguishable from "already finished"
                return (None if rng.random() < 0.5
                        else _say("pick up the {}", cubes[0])), None
        return None, None


class PlaceAndStack(Task):
    instruction = ("drop the cube into the nearest cup, then stack the "
                   "other cup on top")
    classes = frozenset({"cube", "cup"})
    plan = "place_and_stack"
    hidden = "cube"
    milestone = (MILESTONE_DROP_CUBE, "cube", "near")

    @staticmethod
    def layout(b, cfg, rng):
        geom = cfg.geometry
        bw = TABLE_BOUNDS[0]
        left = (0.0, bw * 0.33)
        right = (bw * 0.67, bw)
        flip = rng.randrange(2) == 1
        cup_r = circumradius(FOOTPRINTS["cup"](geom))
        hold = [(cup_r, 2)]  # one cup ends up stacked on the other
        cup_a = b.add_placed("cup", color="red",
                             x_range=right if flip else left, extra=hold)
        cup_b = b.add_placed("cup", color="green",
                             x_range=left if flip else right, extra=hold)
        near_cup = cup_a if rng.randrange(2) == 0 else cup_b
        cube_r = circumradius(FOOTPRINTS["cube"](geom))
        r_lo = cube_r + geom["cup_radius"] + geom["min_gap_m"]
        r_hi = NEAR_THRESHOLD_M - geom["near_margin_m"] - 0.002
        x, y = b.placer.sample(cube_r, z=1,
                               annulus=(near_cup.x, near_cup.y, r_lo, r_hi))
        b.add("cube", x, y, z=1)

    def __init__(self, world, variant):
        cube = world.by_class("cube")[0]
        cups = sorted(world.by_class("cup"),
                      key=lambda c: math.hypot(c.x - cube.x, c.y - cube.y))
        self.cube, self.near, self.other = cube.id, cups[0].id, cups[1].id

    def success(self, world, milestones):
        return (world.get(self.cube).container_of == self.near
                and world.get(self.other).support_of == self.near)

    @staticmethod
    def frame_choice(variant, g, rng):
        held = g.held_node
        cubes, cups = _objects(g, "cube"), _objects(g, "cup")
        cup_ids = {c.node_id for c in cups}
        if any(rel == "on" and src in cup_ids and dst in cup_ids
               for (src, dst, rel) in g.edges):
            return None, None
        if held is not None:
            if cubes and held == cubes[0].node_id and cups:
                dst = cups[rng.randrange(len(cups))]
                return _say("put the {} inside the {}", cubes[0], dst), None
            if held in cup_ids:
                rest = [c for c in cups if c.node_id != held]
                if rest:
                    return _say("stack the {} on the {}", g.nodes[held],
                                rest[0]), None
            return None, None
        if cubes:
            return _say("pick up the {}", cubes[0]), None
        if len(cups) == 2:
            # cube hidden in one of the cups; guess which and lift the other
            guess = cups[rng.randrange(2)]
            other = next(c for c in cups if c.node_id != guess.node_id)
            return _say("pick up the {}", other), guess.source_id
        return None, None


class SwapCups(Task):
    instruction = ("swap the two cups using the free plate, moving the "
                   "{variant} cup first")
    classes = frozenset({"cup", "plate"})
    plan = "swap_cups"
    variants = ("black", "blue")  # the plan's {variant}: the cup moved first
    milestone = (MILESTONE_STAGE_CUP, "first", "buffer")

    @staticmethod
    def layout(b, cfg, rng):
        cup_r = circumradius(FOOTPRINTS["cup"](cfg.geometry))
        hold = [(cup_r, 2)]  # every plate may hold a cup during the swap
        plates = [b.add_placed("plate", extra=hold) for _ in range(3)]
        empty_idx = rng.randrange(3)
        occupied = [p for i, p in enumerate(plates) if i != empty_idx]
        black_plate = occupied[rng.randrange(2)]
        blue_plate = [p for p in occupied if p.id != black_plate.id][0]
        b.add("cup", black_plate.x, black_plate.y, z=2, color="black",
              container_of=black_plate.id)
        b.add("cup", blue_plate.x, blue_plate.y, z=2, color="blue",
              container_of=blue_plate.id)

    def __init__(self, world, variant):
        cups = world.by_class("cup")
        first = [c for c in cups if c.attribute("color") == variant][0]
        second = [c for c in cups if c.id != first.id][0]
        self.first, self.second = first.id, second.id
        self.first_src, self.second_src = first.container_of, second.container_of
        self.buffer = [p.id for p in world.by_class("plate")
                       if p.id not in (self.first_src, self.second_src)][0]
        self.watched = (self.first, self.second)

    def success(self, world, milestones):
        return (world.get(self.first).container_of == self.second_src
                and world.get(self.second).container_of == self.first_src
                and self.first_pick == self.first)

    @staticmethod
    def frame_choice(variant, g, rng):
        held, cups = g.held_node, _objects(g, "cup")
        if held is not None:
            if held in {c.node_id for c in cups}:
                return _into_empty_plate(g, g.nodes[held], rng), None
            return None, None
        firsts = [c for c in cups if c.attributes.get("color") == variant]
        contained = [c for c in cups if g.container_of(c.node_id) is not None]
        if len(cups) == 2 and len(contained) == 2 and firsts:
            # rest state: cups sitting in plates looks exactly like "done"
            return (None if rng.random() < 0.5
                    else _say("pick up the {}", firsts[0])), None
        return None, None


class Custom(Task):
    instruction = "custom layout"

    @staticmethod
    def layout(b, cfg, rng):
        for spec in cfg.custom_objects:
            cls = spec["class"]
            color = spec.get("color")
            if "position" in spec:
                x, y = spec["position"]
                radius = circumradius(FOOTPRINTS[cls](cfg.geometry))
                if not b.placer.admit(x, y, 1, radius):
                    raise LayoutInfeasible(f"fixed position {x, y} inadmissible")
                b.placer.record(x, y, 1, radius)
                b.add(cls, x, y, color=color)
            else:
                b.add_placed(cls, color=color)


# task name -> its definition; config.TASKS is its keys
TASK_TABLE = {"pnp_twice": PnpTwice, "place_and_stack": PlaceAndStack,
              "swap_cups": SwapCups, "custom": Custom}


def task_entry(task: str) -> type:
    """TASK_TABLE[task]; ValueError for a task it does not hold."""
    if task not in TASK_TABLE:
        raise ValueError(task)
    return TASK_TABLE[task]


def init_world(cfg: SceneConfig, seed: int) -> WorldState:
    """Build the initial world for (config, seed); deterministic."""
    rng = Rng.substream(seed, "world_init")
    b = _Builder(cfg, rng)
    b.add_arm()
    TASK_TABLE[cfg.task].layout(b, cfg, rng)
    b.add_distractors(cfg.distractors)
    return b.world()


# -- task oracle ---------------------------------------------------------------


class MilestoneTracker:
    """History-dependent task judge; feed it each executed primitive.

    Success cannot be read off a single frame for any of the three tasks
    (visit-and-return, occluded contents, move-order constraint), which is
    the property the whole pipeline is built around.
    """

    def __init__(self, initial_world: WorldState, task: str, variant: str = "black"):
        self.world = initial_world
        self.milestones: list[str] = []
        self.judge = task_entry(task)(initial_world, variant)

    def feed(self, prim: Primitive) -> PrimitiveResult:
        self.world, result = apply_primitive(self.world, prim)
        if not result.ok:
            return result
        judge = self.judge
        if (prim.kind == "pick" and judge.first_pick is None
                and prim.target in judge.watched):
            judge.first_pick = prim.target
        if judge.milestone is not None:
            name, a, b = judge.milestone
            if (name not in self.milestones and self.world.get(
                    getattr(judge, a)).container_of == getattr(judge, b)):
                self.milestones.append(name)
        return result

    @property
    def success(self) -> bool:
        return self.judge.success(self.world, self.milestones)


def task_oracle(initial_world: WorldState, task: str, variant: str,
                primitives: Iterable[Primitive]) -> tuple:
    """Replay primitives from the initial world; returns (milestones, success)."""
    tracker = MilestoneTracker(initial_world, task, variant)
    for prim in primitives:
        tracker.feed(prim)
    return list(tracker.milestones), tracker.success
