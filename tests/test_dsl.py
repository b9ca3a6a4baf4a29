from pathlib import Path

import pytest

import tableplan
from tableplan.config import SceneConfig
from tableplan import dsl
from tableplan.dsl import (AmbiguousBinding, ArityError, ParseError, PlanError,
                           PlannerOutput, StaleNode, UnboundVariable,
                           UnknownForm, evaluate_policy, load_program,
                           parse_program)
from tableplan.graph import init_graph, update_graph
from tableplan.perception import make_task_spec
from tableplan.render import render_views
from tableplan.world import Primitive, apply_primitive, init_world

PLANS = Path(tableplan.__file__).parent / "plans"

SKELETON = """\
(policy p
  (bind c (first (objects :class "cup")))
  (plan
    (step s (goal {goal})
      (when (true) (say {say}) (focus c)))))
"""


def prog(goal="(true)", say='"x"'):
    return SKELETON.format(goal=goal, say=say)


# -- parse errors: type, message, and position are all part of the contract ----

ERROR_CASES = [
    (")", ParseError, "unexpected ')'", 1, 1),
    ("", ParseError, "empty program; expected (policy ...)", 1, 1),
    ("; only a comment\n", ParseError,
     "empty program; expected (policy ...)", 1, 1),
    ('"abc', ParseError, "unterminated string", 1, 1),
    ("(a) b", ParseError, "trailing content after the policy form", 1, 5),
    ("(policy p\n  (plan", ParseError, "unclosed '('; expected ')'", 2, 3),
    ("(policy p !", ParseError, "unexpected character '!'", 1, 11),
    ("(nope)", UnknownForm, "expected (policy ...)", 1, 1),
    ("(policy p)", ParseError,
     "policy needs a name and a (plan ...) form", 1, 1),
    ("(policy p\n (bind x)\n (plan (step s (goal (true)) (when (true) "
     '(say "h") (focus x)))))', ArityError,
     "bind takes a variable and a query", 2, 2),
    ('(policy p\n (bind x (bogus))\n (plan (step s (goal (true)) (when (true)'
     ' (say "h") (focus x)))))', UnknownForm,
     "unknown query form 'bogus'", 2, 10),
    (prog(goal="(sideways c c)"), UnknownForm,
     "unknown predicate form 'sideways'", 4, 19),
    (prog(goal="(not)"), ArityError, "not takes one predicate", 4, 19),
    (prog(goal="(true 1)"), ArityError, "true takes no arguments", 4, 19),
    (prog(say='"{ghost}"'), ParseError,
     "template hole {ghost} is not a bound variable", 5, 25),
    (prog(goal="(done missing)"), ParseError,
     "(done missing) references an unknown step", 4, 19),
    (prog(goal="(and (true) (not (done missing)))"), ParseError,
     "(done missing) references an unknown step", 4, 36),
    ('(policy p\n (bind variant (first (objects :class "cup")))\n (plan (step'
     ' s (goal (true)) (when (true) (say "h") (focus variant)))))', ParseError,
     "'variant' is reserved for the task variant", 2, 8),
    ('(policy p\n (plan (for-each variant (objects :class "cup") (step s'
     ' (goal (true)) (when (true) (say "h") (focus variant))))))', ParseError,
     "'variant' is reserved for the task variant", 2, 18),
]


@pytest.mark.parametrize("text,etype,reason,line,col", ERROR_CASES)
def test_parse_error_positions(text, etype, reason, line, col):
    with pytest.raises(etype) as exc_info:
        parse_program(text)
    err = exc_info.value
    assert err.reason == reason
    assert (err.line, err.col) == (line, col)
    assert str(err) == f"line {line}, col {col}: {reason}"


def test_done_may_name_a_later_step():
    program = parse_program(
        '(policy p (bind c (objects :class "cup"))\n'
        '  (plan (step a (goal (done b))\n'
        '          (when (true) (say "x") (focus c)))\n'
        '        (step b (goal (true))\n'
        '          (when (true) (say "y") (focus c)))))')
    assert list(program.step_index) == ["a", "b"]


def test_final_action_must_be_unconditional():
    text = ('(policy p\n'
            '  (bind c (first (objects :class "cup")))\n'
            '  (plan\n'
            '    (step s (goal (true))\n'
            '      (when (hand-empty) (say "x") (focus c)))))')
    with pytest.raises(ParseError) as exc_info:
        parse_program(text)
    assert "must be guarded by (true)" in exc_info.value.reason
    assert (exc_info.value.line, exc_info.value.col) == (5, 7)


def test_duplicate_names_rejected():
    dup_var = ('(policy p (bind a (objects :class "cup"))\n'
               '  (bind a (objects :class "cup"))\n'
               '  (plan (step s (goal (true))\n'
               '    (when (true) (say "x") (focus a)))))')
    with pytest.raises(ParseError) as exc_info:
        parse_program(dup_var)
    assert exc_info.value.reason == "duplicate variable 'a'"
    assert (exc_info.value.line, exc_info.value.col) == (2, 9)

    dup_step = ('(policy p\n'
                '  (plan (step s (goal (true)) (when (true) (say "x")'
                ' (focus s)))))')
    with pytest.raises(ParseError):
        parse_program(dup_step)  # focus names an unbound variable


def test_objects_keyword_validation():
    for goal_text, reason in [
        ('(objects :class "a" :class "b")', "repeated objects keyword ':class'"),
        ('(objects :size "a")', "unknown objects keyword ':size'"),
        ("(objects :class)", "objects takes keyword/value pairs"),
    ]:
        text = (f'(policy p (bind x {goal_text})\n'
                '  (plan (step s (goal (true)) (when (true) (say "h")'
                ' (focus x)))))')
        with pytest.raises(ParseError) as exc_info:
            parse_program(text)
        assert exc_info.value.reason == reason


# -- corpus programs -------------------------------------------------------------


def test_corpus_programs_parse():
    pnp = load_program(PLANS / "pnp_twice.plan")
    assert pnp.name == "pnp-twice"
    assert [v for v, _ in pnp.bindings] == ["cube", "start_plate",
                                            "other_plate"]
    assert list(pnp.step_index) == ["move-out", "move-back"]
    assert pnp.single_vars == {"cube", "start_plate", "other_plate"}

    pas = load_program(PLANS / "place_and_stack.plan")
    assert pas.name == "place-and-stack"
    assert list(pas.step_index) == ["drop-cube", "stack-cups"]

    for variant in ("black", "blue"):
        swap = load_program(PLANS / "swap_cups.plan", variant)
        assert list(swap.step_index) == ["stage", "cross", "settle"]
        assert [v for v, _ in swap.bindings] == [
            "first_cup", "other_cup", "src", "dst", "buffer"]
        for step in swap.step_index.values():
            assert step.actions[-1].guard == ("true",)


# -- evaluation against live graphs ------------------------------------------------


def scene_graph(task, seed=0, variant="black"):
    cfg = SceneConfig(task=task, variant=variant)
    world = init_world(cfg, seed)
    raw = render_views(world, cfg.cameras, cfg.geometry["lift_m"])
    spec = make_task_spec(task, variant)
    return cfg, world, raw, init_graph(raw, spec, cfg.thresholds), spec


def advance(cfg, world, graph, spec, prim, prev_step):
    world, res = apply_primitive(world, prim)
    assert res.ok, res.reason
    raw = render_views(world, cfg.cameras, cfg.geometry["lift_m"])
    update_graph(graph, raw, spec, cfg.thresholds,
                 steps_elapsed=raw.step - prev_step)
    return world, raw.step


def test_first_call_bindings_and_memory():
    cfg, world, raw, g, spec = scene_graph("swap_cups")
    program = load_program(PLANS / "swap_cups.plan")
    out = evaluate_policy(program, g)
    assert isinstance(out, PlannerOutput)
    assert out.subtask_instruction == "pick up the black cup"
    assert not out.done and out.emitted_step == "stage"
    black = g.resolve("black_cup")
    assert out.relevant_objects == frozenset({black})

    assert g.task_memory[0] == f"bind:first_cup={black}"
    assert g.task_memory[5] == "plan:stage;cross;settle"
    binds = [r for r in g.task_memory if r.startswith("bind:")]
    assert len(binds) == 5

    # a second call on the unchanged graph restores from memory: identical
    # output, nothing appended
    before = list(g.task_memory)
    assert evaluate_policy(program, g) == out
    assert g.task_memory == before


def test_swap_episode_to_completion():
    cfg, world, raw, g, spec = scene_graph("swap_cups")
    program = load_program(PLANS / "swap_cups.plan")
    step = raw.step

    def node_src(name):
        nid = g.resolve(name)
        return next(iter(g.nodes[nid].groundings.values())).source_id

    evaluate_policy(program, g)
    buffer_nid = int(g.task_memory[4].split("=")[1])
    src_nid = int(g.task_memory[2].split("=")[1])
    dst_nid = int(g.task_memory[3].split("=")[1])
    names = {nid: g.nodes[nid].name.replace("_", " ")
             for nid in (buffer_nid, src_nid, dst_nid)}
    srcs = {nid: next(iter(g.nodes[nid].groundings.values())).source_id
            for nid in (buffer_nid, src_nid, dst_nid)}

    script = [
        (Primitive(kind="pick", target=node_src("black_cup")),
         f"put the black cup inside the {names[buffer_nid]}", "stage"),
        (Primitive(kind="place_in", target=srcs[buffer_nid]),
         "pick up the blue cup", "cross"),
        (Primitive(kind="pick", target=node_src("blue_cup")),
         f"put the blue cup inside the {names[src_nid]}", "cross"),
        (Primitive(kind="place_in", target=srcs[src_nid]),
         "pick up the black cup", "settle"),
        (Primitive(kind="pick", target=node_src("black_cup")),
         f"put the black cup inside the {names[dst_nid]}", "settle"),
    ]
    for prim, instruction, sid in script:
        world, step = advance(cfg, world, g, spec, prim, step)
        out = evaluate_policy(program, g)
        assert (out.subtask_instruction, out.emitted_step) == \
            (instruction, sid)

    world, step = advance(cfg, world, g, spec,
                          Primitive(kind="place_in", target=srcs[dst_nid]),
                          step)
    out = evaluate_policy(program, g)
    assert out.done and out.subtask_instruction == "" \
        and out.emitted_step is None
    done_records = [r for r in g.task_memory if r.startswith("done:")]
    assert done_records == ["done:stage", "done:cross", "done:settle"]


def test_blue_variant_picks_blue_first():
    cfg, world, raw, g, spec = scene_graph("swap_cups", variant="blue")
    program = load_program(PLANS / "swap_cups.plan", "blue")
    out = evaluate_policy(program, g)
    assert out.subtask_instruction == "pick up the blue cup"


def test_memory_survives_where_rebinding_cannot():
    # after the cube disappears into an opaque cup, a fresh bind has nothing
    # to bind to; the cached binding plus the persisted in edge still work
    cfg, world, raw, g, spec = scene_graph("place_and_stack")
    program = load_program(PLANS / "place_and_stack.plan")
    evaluate_policy(program, g)

    cube = world.by_class("cube")[0]
    near_cup = min(world.by_class("cup"),
                   key=lambda c: (c.x - cube.x) ** 2 + (c.y - cube.y) ** 2)
    step = raw.step
    world, step = advance(cfg, world, g, spec,
                          Primitive(kind="pick", target=cube.id), step)
    world, res = apply_primitive(world,
                                 Primitive(kind="place_in", target=near_cup.id))
    assert res.ok
    raw2 = render_views(world, cfg.cameras, cfg.geometry["lift_m"])
    update_graph(g, raw2, spec, cfg.thresholds,
                 steps_elapsed=raw2.step - step,
                 action_feedback=("in", cube.id, near_cup.id))

    out = evaluate_policy(program, g)
    assert out.emitted_step == "stack-cups"  # drop-cube's goal held

    # the memoryless rebuild: a brand-new graph from the same observation
    fresh = init_graph(raw2, spec, cfg.thresholds)
    assert fresh.resolve("cube") is None
    with pytest.raises(UnboundVariable):
        evaluate_policy(program, fresh)


def test_unbound_and_ambiguous_bindings():
    cfg, world, raw, g, spec = scene_graph("swap_cups")
    nothing = parse_program(
        '(policy p (bind x (first (objects :class "banana")))\n'
        '  (plan (step s (goal (holding x))\n'
        '    (when (true) (say "get the {x}") (focus x)))))')
    with pytest.raises(UnboundVariable):
        evaluate_policy(nothing, g)

    many = parse_program(
        '(policy p (bind x (objects :class "plate"))\n'
        '  (plan (step s (goal (holding x))\n'
        '    (when (true) (say "get the {x}") (focus x)))))')
    with pytest.raises(AmbiguousBinding) as exc_info:
        evaluate_policy(many, parse_fresh(cfg, world))
    assert "wrap the query in (first)" in str(exc_info.value)


def parse_fresh(cfg, world):
    raw = render_views(world, cfg.cameras, cfg.geometry["lift_m"])
    spec = make_task_spec("swap_cups")
    return init_graph(raw, spec, cfg.thresholds)


def test_stale_binding_detected():
    cfg, world, raw, g, spec = scene_graph("swap_cups")
    program = load_program(PLANS / "swap_cups.plan")
    evaluate_policy(program, g)
    del g.nodes[g.resolve("black_cup")]
    with pytest.raises(StaleNode):
        evaluate_policy(program, g)


def test_tampered_list_binding_is_ambiguous_as_single():
    cfg, world, raw, g, spec = scene_graph("swap_cups")
    program = load_program(PLANS / "swap_cups.plan")
    a, b = sorted(g.nodes)[:2]
    g.task_memory = [f"bind:first_cup=[{a},{b}]", "bind:other_cup=[]",
                     "bind:src=[]", "bind:dst=[]", "bind:buffer=[]",
                     "plan:stage"]
    with pytest.raises(AmbiguousBinding):
        evaluate_policy(program, g)


def test_if_and_for_each():
    cfg, world, raw, g, spec = scene_graph("swap_cups")
    text = """\
(policy branchy
  (bind cups (objects :class "cup"))
  (plan
    (if (hand-empty)
      ((step greet (goal (hand-empty))
         (when (true) (say "wave") (focus cups))))
      ((step rest (goal (done rest))
         (when (true) (say "rest") (focus cups)))))
    (for-each c (objects :class "cup")
      (step tap (goal (done tap))
        (when (true) (say "tap the {c}") (focus c))))))
"""
    program = parse_program(text)
    out = evaluate_policy(program, g)
    black, blue = g.resolve("black_cup"), g.resolve("blue_cup")
    lo, hi = sorted((black, blue))

    # greet's goal held immediately, so the first for-each instance speaks
    plan_rec = [r for r in g.task_memory if r.startswith("plan:")][0]
    assert plan_rec == f"plan:greet;tap@c={lo};tap@c={hi}"
    assert "done:greet" in g.task_memory
    assert out.emitted_step == f"tap@c={lo}"
    assert out.subtask_instruction == \
        f"tap the {g.nodes[lo].name.replace('_', ' ')}"
    assert out.relevant_objects == frozenset({lo})

    # restore path handles instantiated step ids
    again = evaluate_policy(program, g)
    assert again == out

    # the branch choice is frozen into memory at expansion time
    g2 = parse_fresh(cfg, world)
    g2.gripper_free = False
    out2 = evaluate_policy(program, g2)
    plan_rec2 = [r for r in g2.task_memory if r.startswith("plan:")][0]
    assert plan_rec2.startswith("plan:rest;")
    assert out2.subtask_instruction == "rest"


def test_bind_record_list_form_round_trip():
    cfg, world, raw, g, spec = scene_graph("swap_cups")
    text = """\
(policy lister
  (bind cups (objects :class "cup"))
  (plan
    (step both (goal (hand-empty))
      (when (true) (say "look") (focus cups)))
    (step after (goal (done after))
      (when (true) (say "again") (focus cups)))))
"""
    program = parse_program(text)
    out = evaluate_policy(program, g)
    black, blue = sorted((g.resolve("black_cup"), g.resolve("blue_cup")))
    assert f"bind:cups=[{black},{blue}]" in g.task_memory
    assert out.relevant_objects == frozenset({black, blue})
    assert evaluate_policy(program, g) == out


# -- one step source: the first call restores its steps like every later one ------


def reference_expand(items, graph, env):
    """_expand as it was when the first call ran its steps from it."""
    out = []
    for item in items:
        if isinstance(item, dsl.Step):
            out.append((item.step_id, item, env))
        elif isinstance(item, dsl.If):
            branch = item.then_items \
                if dsl.eval_predicate(item.pred, graph, env) else item.else_items
            out.extend(reference_expand(branch, graph, env))
        else:
            for nid in dsl.eval_query(item.query, graph, env):
                inst_env = dict(env)
                inst_env[item.var] = nid
                for step in item.body:
                    out.append((f"{step.step_id}@{item.var}={nid}", step,
                                inst_env))
    return out


def reference_first_call(program, graph):
    """evaluate_policy's first call when it took its steps from the
    expansion instead of restoring them from task memory."""
    memory = graph.task_memory
    env = {}
    for var, query in program.bindings:
        value = dsl._bind_value(program, var, query, graph, env)
        env[var] = value
        memory.append(dsl._bind_record(var, value))
    steps = reference_expand(program.plan, graph, env)
    memory.append("plan:" + ";".join(sid for sid, _, _ in steps))
    dsl._check_stale(graph, steps)
    done = {r[len("done:"):] for r in memory if r.startswith("done:")}
    for sid, step, env in steps:
        if sid in done:
            continue
        if dsl.eval_predicate(step.goal, graph, env):
            memory.append("done:" + sid)
            done.add(sid)
            continue
        for action in step.actions:
            if not dsl.eval_predicate(action.guard, graph, env):
                continue
            focus = set()
            for var in action.focus:
                value = env[var]
                focus.update(value if isinstance(value, tuple) else (value,))
            return PlannerOutput(
                subtask_instruction=dsl._instantiate(action.template, graph,
                                                     env),
                relevant_objects=frozenset(focus), done=False,
                emitted_step=sid)
    return PlannerOutput(subtask_instruction="", relevant_objects=frozenset(),
                         done=True, emitted_step=None)


NESTED = """\
(policy nested
  (bind cubes (objects :class "cube"))
  (bind plates (objects :class "plate"))
  (bind none (other (objects :class "plate") plates))
  (plan
    (if (and (hand-empty) (not (done later)))
      ((for-each p (objects :class "plate")
         (step visit (goal (or (in cubes p) (done later)))
           (when (true) (say "look at the {p}") (focus p plates)))
         (step hold (goal (not (hand-empty)))
           (when (hand-empty) (say "wave") (focus p none))
           (when (true) (say "rest") (focus plates))))
       (step later (goal (true))
         (when (true) (say "done") (focus plates))))
      ((step grip (goal (hand-empty))
         (when (true) (say "release") (focus cubes plates)))))
    (for-each c (objects :class "cup")
      (step tap (goal (done tap))
        (when (true) (say "tap the {c}") (focus c))))))
"""

BRANCHY = """\
(policy branchy
  (bind cups (objects :class "cup"))
  (plan
    (if (hand-empty)
      ((step greet (goal (hand-empty))
         (when (true) (say "wave") (focus cups))))
      ((step rest (goal (done rest))
         (when (true) (say "rest") (focus cups)))))
    (for-each c (objects :class "cup")
      (step tap (goal (done tap))
        (when (true) (say "tap the {c}") (focus c))))))
"""


def _first_call(call, program, graph):
    graph.task_memory = []
    try:
        out = call(program, graph)
    except PlanError as exc:
        return type(exc), str(exc), list(graph.task_memory)
    return out, list(graph.task_memory)


def test_first_call_matches_expansion_env():
    programs = [parse_program(NESTED), parse_program(BRANCHY)]
    programs += [load_program(p) for p in sorted(PLANS.glob("*.plan"))]
    seen = {"for_each": 0, "then": 0, "else": 0, "done_first": 0,
            "error": 0, "emitted": 0}
    for task in ("pnp_twice", "place_and_stack", "swap_cups"):
        for seed in range(4):
            cfg, world, raw, g, spec = scene_graph(task, seed)
            for gripper_free in (True, False):
                g.gripper_free = gripper_free
                for program in programs:
                    got = _first_call(evaluate_policy, program, g)
                    want = _first_call(reference_first_call, program, g)
                    assert got == want
                    plan = [r for r in want[-1] if r.startswith("plan:")]
                    seen["error"] += not plan
                    if not plan:
                        continue
                    ids = plan[0][len("plan:"):].split(";")
                    seen["for_each"] += any("@" in sid for sid in ids)
                    seen["then"] += bool({"greet", "later"} & set(ids))
                    seen["else"] += bool({"rest", "grip"} & set(ids))
                    seen["done_first"] += any(r.startswith("done:")
                                              for r in want[-1])
                    seen["emitted"] += want[0].emitted_step is not None
    assert min(seen.values()) > 0, seen
