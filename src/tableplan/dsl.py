"""S-expression policy language: lexer, parser, and interpreter.

A policy binds roles to graph nodes once, builds an ordered step list once,
and thereafter replans by scanning that list against the graph and the
append-only task memory.  All interpreter state lives in
graph.task_memory as string records:

    bind:VAR=5      bind:VAR=[3,5]      plan:step1;step2      done:step1

so a policy call is a pure function of (program, graph) and wiping the
memory turns the same program into a memoryless baseline.

Grammar (";" starts a line comment):

    program := (policy NAME binding* (plan builder+))
    binding := (bind VAR query)
    builder := step | (if pred (builder+) (builder+)) | (for-each VAR query step+)
    step    := (step ID (goal pred) action+)
    action  := (when pred (say STRING) (focus VAR+))
    query   := (objects kw...) | (first query) | (container-of VAR)
             | (empty-containers STRING) | (other query VAR)
    pred    := (in VAR VAR) | (on VAR VAR) | (near VAR VAR) | (holding VAR)
             | (hand-empty) | (done ID) | (and pred+) | (or pred+)
             | (not pred) | (true)

The final action of every step must carry the guard (true); a step that is
not yet satisfied always has an instruction to re-issue.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional

from .config import read_text

HOLE_RE = re.compile(r"\{([A-Za-z0-9_\-]+)\}")
ATOM_RE = re.compile(r"[A-Za-z0-9_:\-]+")
OBJECT_KEYWORDS = {":class": "class", ":color": "color", ":in": "in",
                   ":on": "on", ":near": "near"}
VALUE_KEYWORDS = ("class", "color")  # take a string; the rest take a var


class PlanError(Exception):
    """Base for everything the planner can raise."""


class ParseError(PlanError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col
        self.reason = message


class ArityError(ParseError):
    pass


class UnknownForm(ParseError):
    pass


class UnboundVariable(PlanError):
    """A binding query came back empty where a node was required."""


class AmbiguousBinding(PlanError):
    """A multi-element query bound to a variable used as a single node."""


class StaleNode(PlanError):
    """A cached binding refers to a node id no longer present in the graph."""


# -- surface syntax ------------------------------------------------------------


def _tokenize(text: str) -> list:
    tokens = []
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
        elif ch in " \t\r":
            i += 1
            col += 1
        elif ch == ";":
            while i < n and text[i] != "\n":
                i += 1
        elif ch in "()":
            tokens.append((ch, ch, line, col))
            i += 1
            col += 1
        elif ch == '"':
            j = text.find('"', i + 1)
            if j == -1 or "\n" in text[i + 1:j]:
                raise ParseError("unterminated string", line, col)
            tokens.append(("str", text[i + 1:j], line, col))
            col += j - i + 1
            i = j + 1
        else:
            m = ATOM_RE.match(text, i)
            if not m:
                raise ParseError(f"unexpected character {ch!r}", line, col)
            tokens.append(("atom", m.group(0), line, col))
            col += m.end() - i
            i = m.end()
    return tokens


def _read(tokens: list, pos: int):
    if pos >= len(tokens):
        last = tokens[-1] if tokens else ("", "", 1, 1)
        raise ParseError("unexpected end of input; expected an expression",
                         last[2], last[3])
    kind, value, line, col = tokens[pos]
    if kind == "(":
        items = []
        pos += 1
        while True:
            if pos >= len(tokens):
                raise ParseError("unclosed '('; expected ')'", line, col)
            if tokens[pos][0] == ")":
                return ("list", items, line, col), pos + 1
            item, pos = _read(tokens, pos)
            items.append(item)
    if kind == ")":
        raise ParseError("unexpected ')'", line, col)
    return (kind, value, line, col), pos + 1


def _read_all(text: str):
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty program; expected (policy ...)", 1, 1)
    form, pos = _read(tokens, 0)
    if pos != len(tokens):
        extra = tokens[pos]
        raise ParseError("trailing content after the policy form",
                         extra[2], extra[3])
    return form


def _pos(sx) -> tuple:
    return sx[2], sx[3]


def _is_form(sx, head: str) -> bool:
    return (sx[0] == "list" and sx[1] and sx[1][0][0] == "atom"
            and sx[1][0][1] == head)


def _expect_atom(sx, what: str) -> str:
    if sx[0] != "atom":
        raise ParseError(f"expected {what}", *_pos(sx))
    return sx[1]


def _expect_string(sx, what: str) -> str:
    if sx[0] != "str":
        raise ParseError(f"expected {what} (a quoted string)", *_pos(sx))
    return sx[1]


def _head(sx) -> str:
    if sx[0] != "list" or not sx[1]:
        raise ParseError("expected a parenthesized form", *_pos(sx))
    return _expect_atom(sx[1][0], "a form name")


# -- compiled structures --------------------------------------------------------


@dataclass(frozen=True)
class Action:
    guard: tuple
    template: str
    focus: tuple


@dataclass(frozen=True)
class Step:
    step_id: str
    goal: tuple
    actions: tuple


@dataclass(frozen=True)
class If:
    pred: tuple
    then_items: tuple
    else_items: tuple


@dataclass(frozen=True)
class ForEach:
    var: str
    query: tuple
    body: tuple


@dataclass(frozen=True)
class PlannerProgram:
    name: str
    bindings: tuple          # ((var, query-expr), ...)
    plan: tuple              # builder items
    step_index: dict         # template step_id -> Step
    single_vars: frozenset   # vars that must resolve to exactly one node


@dataclass(frozen=True)
class PlannerOutput:
    subtask_instruction: str
    relevant_objects: frozenset
    done: bool
    emitted_step: Optional[str]


# -- parser ---------------------------------------------------------------------


class _Compiler:
    def __init__(self):
        self.step_ids: dict = {}
        self.single_vars: set = set()
        self.all_vars: set = set()
        self.done_refs: list = []  # (step id, line, col) of each (done ...)

    def program(self, sx) -> PlannerProgram:
        if not _is_form(sx, "policy"):
            raise UnknownForm("expected (policy ...)", *_pos(sx))
        items = sx[1]
        if len(items) < 3:
            raise ParseError("policy needs a name and a (plan ...) form",
                             *_pos(sx))
        name = _expect_atom(items[1], "a policy name")
        *binds, plan_sx = items[2:]
        scope: list = []
        bindings = []
        for b in binds:
            if not _is_form(b, "bind"):
                raise ParseError("expected (bind ...) or (plan ...)", *_pos(b))
            if len(b[1]) != 3:
                raise ArityError("bind takes a variable and a query", *_pos(b))
            var = _expect_atom(b[1][1], "a variable name")
            if var in self.all_vars:
                raise ParseError(f"duplicate variable {var!r}", *_pos(b[1][1]))
            query = self.query(b[1][2], scope)
            self.all_vars.add(var)
            scope.append(var)
            bindings.append((var, query))
        if not _is_form(plan_sx, "plan"):
            raise ParseError("missing (plan ...) form", *_pos(plan_sx))
        if len(plan_sx[1]) < 2:
            raise ArityError("plan needs at least one step", *_pos(plan_sx))
        plan = tuple(self.builder(i, scope) for i in plan_sx[1][1:])
        # (done ID) may name a step defined later, so check once all are known
        for step_id, line, col in self.done_refs:
            if step_id not in self.step_ids:
                raise ParseError(f"(done {step_id}) references an unknown "
                                 "step", line, col)
        return PlannerProgram(
            name=name, bindings=tuple(bindings), plan=plan,
            step_index=dict(self.step_ids),
            single_vars=frozenset(self.single_vars))

    def builder(self, sx, scope: list):
        head = _head(sx)
        if head == "step":
            return self.step(sx, scope)
        if head == "if":
            if len(sx[1]) != 4:
                raise ArityError("if takes a predicate and two branches",
                                 *_pos(sx))
            pred = self.pred(sx[1][1], scope)
            branches = []
            for br in sx[1][2:]:
                if br[0] != "list" or not br[1]:
                    raise ParseError("if branch must be a parenthesized "
                                     "builder sequence", *_pos(br))
                branches.append(tuple(self.builder(i, scope) for i in br[1]))
            return If(pred, branches[0], branches[1])
        if head == "for-each":
            if len(sx[1]) < 4:
                raise ArityError("for-each takes a variable, a query, and "
                                 "at least one step", *_pos(sx))
            var = _expect_atom(sx[1][1], "a variable name")
            if var in self.all_vars:
                raise ParseError(f"duplicate variable {var!r}", *_pos(sx[1][1]))
            query = self.query(sx[1][2], scope)
            self.all_vars.add(var)
            inner = scope + [var]
            body = tuple(self.step(s, inner) for s in sx[1][3:])
            return ForEach(var, query, body)
        raise UnknownForm(f"unknown plan form {head!r}", *_pos(sx))

    def step(self, sx, scope: list) -> Step:
        if not _is_form(sx, "step"):
            raise ParseError("expected (step ...)", *_pos(sx))
        items = sx[1]
        if len(items) < 4:
            raise ArityError("step takes an id, a goal, and actions", *_pos(sx))
        step_id = _expect_atom(items[1], "a step id")
        if step_id in self.step_ids:
            raise ParseError(f"duplicate step id {step_id!r}", *_pos(items[1]))
        goal_sx = items[2]
        if not _is_form(goal_sx, "goal") or len(goal_sx[1]) != 2:
            raise ParseError("step needs (goal pred) after its id",
                             *_pos(goal_sx))
        goal = self.pred(goal_sx[1][1], scope)
        actions = tuple(self.action(a, scope) for a in items[3:])
        if actions[-1].guard != ("true",):
            raise ParseError(
                f"the final action of step {step_id!r} must be guarded by "
                "(true)", *_pos(items[-1]))
        step = Step(step_id=step_id, goal=goal, actions=actions)
        self.step_ids[step_id] = step
        return step

    def action(self, sx, scope: list) -> Action:
        if not _is_form(sx, "when") or len(sx[1]) != 4:
            raise ParseError("expected (when pred (say ...) (focus ...))",
                             *_pos(sx))
        guard = self.pred(sx[1][1], scope)
        say_sx, focus_sx = sx[1][2], sx[1][3]
        if not _is_form(say_sx, "say") or len(say_sx[1]) != 2:
            raise ParseError("expected (say STRING)", *_pos(say_sx))
        template = _expect_string(say_sx[1][1], "an instruction template")
        for hole in HOLE_RE.findall(template):
            if hole not in scope:
                raise ParseError(f"template hole {{{hole}}} is not a bound "
                                 "variable", *_pos(say_sx[1][1]))
            self.single_vars.add(hole)
        if not _is_form(focus_sx, "focus") or len(focus_sx[1]) < 2:
            raise ParseError("expected (focus VAR+)", *_pos(focus_sx))
        focus = []
        for f in focus_sx[1][1:]:
            var = _expect_atom(f, "a variable name")
            self._check_var(var, scope, f)
            focus.append(var)
        return Action(guard=guard, template=template, focus=tuple(focus))

    def _check_var(self, var: str, scope: list, sx, single=False) -> str:
        if var not in scope:
            raise ParseError(f"unbound variable {var!r}", *_pos(sx))
        if single:
            self.single_vars.add(var)
        return var

    def query(self, sx, scope: list) -> tuple:
        head = _head(sx)
        items = sx[1]
        if head == "objects":
            if len(items) % 2 == 0:
                raise ArityError("objects takes keyword/value pairs",
                                 *_pos(sx))
            kwargs = []
            for k_sx, v_sx in zip(items[1::2], items[2::2]):
                key_tok = _expect_atom(k_sx, "a keyword like :class")
                if key_tok not in OBJECT_KEYWORDS:
                    raise ParseError(f"unknown objects keyword {key_tok!r}",
                                     *_pos(k_sx))
                key = OBJECT_KEYWORDS[key_tok]
                if any(k == key for k, _ in kwargs):
                    raise ParseError(f"repeated objects keyword {key_tok!r}",
                                     *_pos(k_sx))
                if key in VALUE_KEYWORDS:
                    kwargs.append((key, _expect_string(v_sx, "a value string")))
                else:
                    var = _expect_atom(v_sx, "a variable name")
                    kwargs.append((key, self._check_var(var, scope, v_sx,
                                                        single=True)))
            return ("objects", tuple(kwargs))
        if head == "first":
            if len(items) != 2:
                raise ArityError("first takes one query", *_pos(sx))
            return ("first", self.query(items[1], scope))
        if head == "container-of":
            if len(items) != 2:
                raise ArityError("container-of takes one variable", *_pos(sx))
            var = _expect_atom(items[1], "a variable name")
            return ("container-of", self._check_var(var, scope, items[1],
                                                    single=True))
        if head == "empty-containers":
            if len(items) != 2:
                raise ArityError("empty-containers takes one class string",
                                 *_pos(sx))
            return ("empty-containers", _expect_string(items[1],
                                                       "a class string"))
        if head == "other":
            if len(items) != 3:
                raise ArityError("other takes a query and a variable",
                                 *_pos(sx))
            var = _expect_atom(items[2], "a variable name")
            return ("other", self.query(items[1], scope),
                    self._check_var(var, scope, items[2]))
        raise UnknownForm(f"unknown query form {head!r}", *_pos(sx))

    def pred(self, sx, scope: list) -> tuple:
        head = _head(sx)
        items = sx[1]
        if head in ("in", "on", "near"):
            if len(items) != 3:
                raise ArityError(f"{head} takes two variables", *_pos(sx))
            a = self._check_var(_expect_atom(items[1], "a variable name"),
                                scope, items[1], single=True)
            b = self._check_var(_expect_atom(items[2], "a variable name"),
                                scope, items[2], single=True)
            return (head, a, b)
        if head == "holding":
            if len(items) != 2:
                raise ArityError("holding takes one variable", *_pos(sx))
            var = _expect_atom(items[1], "a variable name")
            return ("holding", self._check_var(var, scope, items[1],
                                               single=True))
        if head == "hand-empty":
            if len(items) != 1:
                raise ArityError("hand-empty takes no arguments", *_pos(sx))
            return ("hand-empty",)
        if head == "done":
            if len(items) != 2:
                raise ArityError("done takes one step id", *_pos(sx))
            step_id = _expect_atom(items[1], "a step id")
            self.done_refs.append((step_id, *_pos(sx)))
            return ("done", step_id)
        if head in ("and", "or"):
            if len(items) < 2:
                raise ArityError(f"{head} takes at least one predicate",
                                 *_pos(sx))
            return (head,) + tuple(self.pred(p, scope) for p in items[1:])
        if head == "not":
            if len(items) != 2:
                raise ArityError("not takes one predicate", *_pos(sx))
            return ("not", self.pred(items[1], scope))
        if head == "true":
            if len(items) != 1:
                raise ArityError("true takes no arguments", *_pos(sx))
            return ("true",)
        raise UnknownForm(f"unknown predicate form {head!r}", *_pos(sx))


def parse_program(text: str) -> PlannerProgram:
    """Parse and statically check a policy; all errors carry line/column."""
    return _Compiler().program(_read_all(text))


def load_program(path) -> PlannerProgram:
    return parse_program(read_text(path))


# -- interpreter ------------------------------------------------------------------


def _single(env: dict, var: str):
    val = env[var]
    if isinstance(val, tuple):
        if len(val) != 1:
            raise AmbiguousBinding(
                f"variable {var!r} holds {len(val)} nodes where one is needed")
        return val[0]
    return val


def eval_query(expr: tuple, graph, env: dict) -> list:
    """Evaluate a query to a sorted list of node ids."""
    head = expr[0]
    if head == "objects":
        kwargs = dict(expr[1])
        attributes = {"color": kwargs["color"]} if "color" in kwargs else None
        ids = graph.objects_by(
            class_name=kwargs.get("class"), attributes=attributes,
            in_=_single(env, kwargs["in"]) if "in" in kwargs else None,
            on=_single(env, kwargs["on"]) if "on" in kwargs else None)
        if "near" in kwargs:
            ref = _single(env, kwargs["near"])
            ids = [i for i in ids if graph.relation_holds(i, ref, "near")]
        return ids
    if head == "first":
        return eval_query(expr[1], graph, env)[:1]
    if head == "container-of":
        c = graph.container_of(_single(env, expr[1]))
        return [] if c is None else [c]
    if head == "empty-containers":
        return graph.empty_containers(expr[1])
    if head == "other":
        val = env[expr[2]]
        exclude = set(val) if isinstance(val, tuple) else {val}
        return [i for i in eval_query(expr[1], graph, env) if i not in exclude]
    raise UnknownForm(f"unknown query form {head!r}", 1, 1)


def eval_predicate(expr: tuple, graph, env: dict) -> bool:
    head = expr[0]
    if head in ("in", "on", "near"):
        return graph.relation_holds(_single(env, expr[1]),
                                    _single(env, expr[2]), head)
    if head == "holding":
        return graph.held_node == _single(env, expr[1])
    if head == "hand-empty":
        return bool(graph.gripper_free)
    if head == "done":
        return ("done:" + expr[1]) in graph.task_memory
    if head == "and":
        return all(eval_predicate(p, graph, env) for p in expr[1:])
    if head == "or":
        return any(eval_predicate(p, graph, env) for p in expr[1:])
    if head == "not":
        return not eval_predicate(expr[1], graph, env)
    if head == "true":
        return True
    raise UnknownForm(f"unknown predicate form {head!r}", 1, 1)


def _bind_record(var: str, value) -> str:
    if isinstance(value, tuple):
        return f"bind:{var}=[{','.join(str(v) for v in value)}]"
    return f"bind:{var}={value}"


def _parse_bind_record(record: str) -> tuple:
    body = record[len("bind:"):]
    var, _, raw = body.partition("=")
    if raw.startswith("["):
        inner = raw[1:-1]
        return var, tuple(int(v) for v in inner.split(",") if v)
    return var, int(raw)


SINGLE_QUERY_HEADS = ("first", "container-of")


def _bind_value(program: PlannerProgram, var: str, query: tuple, graph,
                env: dict):
    ids = eval_query(query, graph, env)
    if query[0] in SINGLE_QUERY_HEADS:
        if not ids:
            raise UnboundVariable(f"binding {var!r}: query returned no nodes")
        return ids[0]
    if var in program.single_vars:
        if len(ids) != 1:
            raise AmbiguousBinding(
                f"binding {var!r}: query returned {len(ids)} nodes but the "
                "variable is used as a single node; wrap the query in (first)")
        return ids[0]
    return tuple(ids)


def _expand(items, graph, env: dict) -> list:
    """The plan's step ids: branches chosen, for-each loops unrolled."""
    out = []
    for item in items:
        if isinstance(item, Step):
            out.append(item.step_id)
        elif isinstance(item, If):
            branch = item.then_items if eval_predicate(item.pred, graph, env) \
                else item.else_items
            out.extend(_expand(branch, graph, env))
        else:  # ForEach
            for nid in eval_query(item.query, graph, env):
                out.extend(f"{step.step_id}@{item.var}={nid}"
                           for step in item.body)
    return out


def _restore(program: PlannerProgram, graph) -> list:
    env: dict = {}
    plan_ids = None
    for record in graph.task_memory:
        if record.startswith("bind:"):
            var, value = _parse_bind_record(record)
            env[var] = value
        elif record.startswith("plan:"):
            plan_ids = record[len("plan:"):]
    steps = []
    for sid in (plan_ids.split(";") if plan_ids else []):
        if "@" in sid:
            tpl_id, _, inst = sid.partition("@")
            var, _, nid = inst.partition("=")
            step = program.step_index[tpl_id]
            inst_env = dict(env)
            inst_env[var] = int(nid)
            steps.append((sid, step, inst_env))
        else:
            step = program.step_index[sid]
            steps.append((sid, step, env))
    return steps


def _check_stale(graph, steps) -> None:
    checked = set()
    for _, _, env in steps:
        for var, value in env.items():
            ids = value if isinstance(value, tuple) else (value,)
            for nid in ids:
                if nid in checked:
                    continue
                checked.add(nid)
                if nid not in graph.nodes:
                    raise StaleNode(
                        f"binding {var!r} refers to node {nid}, which is no "
                        "longer in the graph")


def _instantiate(template: str, graph, env: dict) -> str:
    def fill(match):
        node_id = _single(env, match.group(1))
        return graph.nodes[node_id].name.replace("_", " ")
    return HOLE_RE.sub(fill, template)


def evaluate_policy(program: PlannerProgram, graph) -> PlannerOutput:
    """One planning call: (instruction, relevant node ids, done, step id).

    The first call evaluates bindings and expands the plan, caching both in
    graph.task_memory; every call, the first included, reconstructs them
    from the records, so the interpreter itself holds no state between calls.
    """
    memory = graph.task_memory
    if not any(r.startswith("plan:") for r in memory):
        env: dict = {}
        for var, query in program.bindings:
            value = _bind_value(program, var, query, graph, env)
            env[var] = value
            memory.append(_bind_record(var, value))
        memory.append("plan:" + ";".join(_expand(program.plan, graph, env)))
    steps = _restore(program, graph)
    _check_stale(graph, steps)

    done = {r[len("done:"):] for r in memory if r.startswith("done:")}
    for sid, step, env in steps:
        if sid in done:
            continue
        if eval_predicate(step.goal, graph, env):
            memory.append("done:" + sid)
            done.add(sid)
            continue
        for action in step.actions:
            if not eval_predicate(action.guard, graph, env):
                continue
            focus: set = set()
            for var in action.focus:
                value = env[var]
                focus.update(value if isinstance(value, tuple) else (value,))
            return PlannerOutput(
                subtask_instruction=_instantiate(action.template, graph, env),
                relevant_objects=frozenset(focus), done=False,
                emitted_step=sid)
    return PlannerOutput(subtask_instruction="", relevant_objects=frozenset(),
                         done=True, emitted_step=None)
