import enum
import json

import numpy as np
import pytest

from tableplan.config import SceneConfig, default_noise_config
from tableplan.dsl import evaluate_policy, load_program
from tableplan.graph import init_graph, update_graph
from tableplan import harness
from tableplan.harness import run_episode
from tableplan.perception import make_task_spec
from tableplan.region import Region
from tableplan.render import render_views
from tableplan.rng import Rng
from tableplan.serialize import (canonical_json, config_hash, fmt_float,
                                 graph_from_snapshot, graph_to_snapshot,
                                 rle_decode)
from tableplan.world import Primitive, apply_primitive, init_world

from scenes import (full_mask, graph_and_drifted_tracks, rle_encode,
                    scattered_scenes)
from test_dsl import PLANS


def test_rle_round_trip_random():
    rng = Rng.substream(7, "rle")
    for _ in range(100):
        h = 1 + rng.randrange(11)
        w = 1 + rng.randrange(11)
        mask = np.array([[rng.random() < 0.4 for _ in range(w)]
                         for _ in range(h)])
        runs = rle_encode(mask)
        assert sum(runs) == h * w
        assert all(r >= 0 for r in runs)
        assert np.array_equal(rle_decode(runs, (h, w)), mask)


def test_rle_edge_cases():
    assert rle_encode(np.zeros((0, 0), dtype=bool)) == []
    assert rle_encode(np.zeros((2, 3), dtype=bool)) == [6]
    # leading zero-run marks a mask that starts on
    assert rle_encode(np.ones((2, 3), dtype=bool)) == [0, 6]
    one = np.zeros((3, 3), dtype=bool)
    one[1, 1] = True
    assert rle_encode(one) == [4, 1, 4]
    assert np.array_equal(rle_decode([4, 1, 4], (3, 3)), one)
    assert rle_decode([], (0, 4)).shape == (0, 4)


def test_rle_decode_length_check():
    with pytest.raises(ValueError):
        rle_decode([3], (2, 2))
    with pytest.raises(ValueError):
        rle_decode([5], (2, 2))


def test_fmt_float():
    assert fmt_float(0.1) == "0.1"
    assert fmt_float(2.0) == "2"
    assert fmt_float(1.0 / 3.0) == "0.333333333"
    assert fmt_float(1e-9) == "1e-09"
    assert fmt_float(-0.25) == "-0.25"


def test_canonical_json_is_byte_stable():
    assert canonical_json({"b": 1, "a": 0.1}) == '{"a":"0.1","b":1}'
    assert canonical_json((1, 2)) == "[1,2]"
    assert canonical_json(frozenset({3, 1, 2})) == "[1,2,3]"
    assert canonical_json(np.float64(0.5)) == '"0.5"'
    assert canonical_json(np.int32(3)) == "3"
    assert canonical_json({"s": "café"}) == '{"s":"café"}'
    nested = {"x": [0.5, {"y": (1.0, "z")}]}
    assert canonical_json(nested) == '{"x":["0.5",{"y":["1","z"]}]}'


def stringify_ref(obj):
    """canonical_json's value pass as one isinstance chain per value: the
    reference."""
    if isinstance(obj, float):
        return fmt_float(obj)
    if isinstance(obj, dict):
        return {k: stringify_ref(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [stringify_ref(v) for v in obj]
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return fmt_float(obj)
    if isinstance(obj, frozenset):
        return sorted(obj)
    return obj


def canonical_json_ref(obj) -> str:
    return json.dumps(stringify_ref(obj), sort_keys=True,
                      separators=(",", ":"), ensure_ascii=False)


class Level(enum.IntEnum):
    LOW = 1


def test_canonical_json_matches_reference_chain():
    values = [
        {"a": [1, True, None, "s", 0.5, np.int64(7), np.float32(0.25)],
         "b": (False, 2, (3.0, "t")), "c": frozenset({2, 1}),
         "d": {"e": [[], {}, [None]], "f": np.uint8(255), "g": Level.LOW},
         "h": -0.0, "i": 10 ** 30},
        [True, 1, 1.0, "1", None], (), 3, "x", None, True, 2.5,
    ]
    for cfg in (default_noise_config("place_and_stack", planner="mock_vlm_rgb"),
                SceneConfig(task="swap_cups", distractors=2)):
        values += run_episode(cfg, 3).records
    for value in values:
        assert canonical_json(value) == canonical_json_ref(value)


def test_config_hash_frozen():
    # sha256 of '{"a":"1.5","b":[1,2]}', first 12 hex digits
    assert config_hash({"a": 1.5, "b": [1, 2]}) == "c7178b56282c"
    assert config_hash({"b": [1, 2], "a": 1.5}) == "c7178b56282c"
    assert config_hash({"a": 1.5}) != config_hash({"a": 1.25})


def test_config_hash_covers_scene_config():
    base = SceneConfig().to_dict()
    tweaked = SceneConfig(step_budget=201).to_dict()
    assert config_hash(base) != config_hash(tweaked)
    assert len(config_hash(base)) == 12


def built_graph():
    cfg = SceneConfig(task="swap_cups")
    world = init_world(cfg, 3)
    raw = render_views(world, cfg.cameras, cfg.geometry["lift_m"])
    spec = make_task_spec("swap_cups")
    g = init_graph(raw, spec, cfg.thresholds)
    program = load_program(PLANS / "swap_cups.plan")
    evaluate_policy(program, g)
    cup_src = world.by_class("cup")[0].id
    world, res = apply_primitive(world, Primitive(kind="pick", target=cup_src))
    assert res.ok
    raw2 = render_views(world, cfg.cameras, cfg.geometry["lift_m"])
    update_graph(g, raw2, spec, cfg.thresholds,
                 steps_elapsed=raw2.step - raw.step)
    return g


def test_graph_snapshot_round_trip():
    g = built_graph()
    snap = graph_to_snapshot(g)
    g2 = graph_from_snapshot(snap)

    assert set(g2.nodes) == set(g.nodes)
    for nid, node in g.nodes.items():
        other = g2.nodes[nid]
        assert (other.name, other.class_name) == (node.name, node.class_name)
        assert other.attributes == node.attributes
        assert other.flags == node.flags
        assert set(other.groundings) == set(node.groundings)
        for view, gr in node.groundings.items():
            gr2 = other.groundings[view]
            assert np.array_equal(full_mask(gr2.region), full_mask(gr.region))
            assert gr2.region.area == gr.region.area
            assert gr2.source_id == gr.source_id
            assert gr2.seen_step == gr.seen_step
    assert g2.edges == g.edges
    assert g2.task_memory == g.task_memory
    assert g2.gripper_free == g.gripper_free
    assert g2.held_node == g.held_node
    assert g2.next_node_id == max(g.nodes) + 1

    # strongest form: re-snapshotting the rebuilt graph is byte-identical
    assert canonical_json(graph_to_snapshot(g2)) == canonical_json(snap)


def test_snapshot_queries_still_work():
    g = built_graph()
    g2 = graph_from_snapshot(graph_to_snapshot(g))
    assert g2.resolve("black_cup") == g.resolve("black_cup")
    assert g2.objects_by(class_name="plate") == g.objects_by(class_name="plate")
    assert g2.held_node == g.held_node
    program = load_program(PLANS / "swap_cups.plan")
    assert evaluate_policy(program, g2) == evaluate_policy(program, g)


def test_snapshot_deterministic_bytes():
    a = canonical_json(graph_to_snapshot(built_graph()))
    b = canonical_json(graph_to_snapshot(built_graph()))
    assert a == b


def _regions(graph) -> dict:
    return {(node.node_id, view): (g.region.area, g.region.centroid)
            for node in graph.sorted_nodes()
            for view, g in node.groundings.items()}


def test_log_format_stores_each_mask_once(monkeypatch):
    # a grounding is its RLE mask, frame size, source and step: area and
    # centroid are derived from the mask on load, equal to the live Region's
    live = []

    def snapshot(graph):
        live.append(_regions(graph))
        return graph_to_snapshot(graph)

    monkeypatch.setattr(harness, "graph_to_snapshot", snapshot)
    result = run_episode(default_noise_config("place_and_stack",
                                              distractors=2), 1)
    rounds = [r for r in result.records if r["kind"] == "record"]
    assert len(rounds) == len(live) > 1
    primitives = 0
    for rec, regions in zip(rounds, live):
        for node in rec["graph"]["nodes"]:
            for g in node["groundings"].values():
                assert set(g) == {"rle", "size", "source", "seen_step"}
        assert _regions(graph_from_snapshot(rec["graph"])) == regions
        for prim in rec.get("execution", {}).get("primitives", ()):
            assert set(prim) == {"kind", "target"}
            primitives += 1
    assert primitives > 0


def test_rle_encode_in_box_matches_full_frame():
    # detection regions and drifted tracker regions (partly off the frame)
    # from scattered scenes, plus small hand masks, against the whole-frame
    # encoder
    cases = []
    for k, (cfg, world, raw) in enumerate(scattered_scenes(200, seed=5150)):
        graph, tracked = graph_and_drifted_tracks(cfg, raw, k)
        for node in graph.sorted_nodes():
            cases += [g.region for g in node.groundings.values()]
        cases += list(tracked.values())
    rng = np.random.default_rng(77)
    for _ in range(300):
        h, w = int(rng.integers(1, 8)), int(rng.integers(1, 8))
        region = Region.from_full(rng.random((h, w)) < rng.choice([0.0, 0.3, 1.0]))
        if region is not None:
            cases.append(region)
    edge_rows = 0
    for region in cases:
        mask = full_mask(region)
        runs = region.rle()
        assert runs == rle_encode(mask)
        assert np.array_equal(rle_decode(runs, mask.shape), mask)
        edge_rows += bool(mask[0].any() or mask[-1].any())
    assert edge_rows > 0


@pytest.mark.parametrize("runs", [
    [-3, 12],
    [4, -1, 6],
    [True, 8],
    [4, False, 5],
    [4.0, 1, 4],
    [4, 1.0, 4],
    [np.int64(4), 1, 4],
    ["4", 1, 4],
    [None, 9],
], ids=["negative_first", "negative_inner", "bool_true", "bool_false",
        "float_first", "float_inner", "numpy_int", "string", "none"])
def test_rle_decode_rejects_a_run_that_is_not_a_count(runs):
    # on a 3x3 frame; [-3, 12] used to decode to 3 pixels
    with pytest.raises(ValueError, match="not a non-negative int"):
        rle_decode(runs, (3, 3))


@pytest.mark.parametrize("runs", [[-3, 12], [True, 8], [4.0, 1, 4]],
                         ids=["negative", "bool", "float"])
def test_malformed_snapshot_run_is_reported(runs):
    snap = graph_to_snapshot(built_graph())
    node = snap["nodes"][0]
    view = sorted(node["groundings"])[0]
    node["groundings"][view].update(rle=runs, size=[3, 3])
    with pytest.raises(ValueError, match="not a non-negative int"):
        graph_from_snapshot(snap)
